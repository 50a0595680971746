"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size, traced and untraced, and shows that each
output check fails when handed a corrupted output.  Takes about a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from coso import counterfactual as cf  # noqa: E402
from coso import harness, textmdp  # noqa: E402
from coso.harness import TheoryCheckSpec  # noqa: E402
from coso.scm import ScmParams  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "numberline-ablate": {"steps": 2560},
    "menunav-coso": {"ppo_steps": 1280, "awr_steps": 1280},
    "theory-check": {"instances": 3},
    "inspect": {"ckpt_steps_numberline": 512, "ckpt_steps_menunav": 512,
                "episodes": 2, "k": 10},
}
WORKDIR = run.OUT / "selftest-tmp"


def setUpModule():
    run.OUT.mkdir(exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)


class TinyWorkloads(unittest.TestCase):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def measure(self, name, trace):
        rec = run.measure(name, 1, 0, trace, WORKDIR, TINY[name])
        want = self.spec["per_layer" if trace else "end_to_end"]
        got = rec["result"]["metrics"]
        self.assertEqual(list(got), [m["name"] for m in want])
        self.assertEqual([got[m["name"]]["unit"] for m in want],
                         [m["unit"] for m in want])
        self.assertGreaterEqual(rec["result"]["attempted"], 1)
        return rec

    def assert_clean(self, rec):
        self.assertEqual(rec["detail"]["problems"], [])
        self.assertTrue(rec["result"]["correct"])
        self.assertEqual(rec["result"]["failed"], 0)

    def test_benchmark_json_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in self.spec["per_layer"]}, PER_LAYER)

    def test_numberline_ablate(self):
        self.assert_clean(self.measure("numberline-ablate", False))
        rec = self.measure("numberline-ablate", True)
        self.assert_clean(rec)
        m = rec["result"]["metrics"]
        self.assertGreater(m["coso_rl.collect_rollouts.ms_per_iter"]["value"], 0)
        self.assertEqual(m["tabular.bellman_backup.calls"]["value"], 0)

    def test_menunav_coso(self):
        # Nothing solves menunav in 1280 steps: the solved check must be the
        # only one that fails, and it fails every run of the round.
        rec = self.measure("menunav-coso", False)
        self.assertEqual(rec["detail"]["problems"],
                         checks.check_solved(0))
        self.assertEqual(rec["result"]["failed"], rec["result"]["attempted"])
        rec = self.measure("menunav-coso", True)
        m = rec["result"]["metrics"]
        self.assertGreater(m["coso_rl.awr_update.ms_per_iter"]["value"], 0)
        self.assertEqual(m["scm.sequences_scored_per_iter"]["value"],
                         256 * 7 + 8 * 256)  # weights + SCM minibatches

    def test_theory_check(self):
        self.assert_clean(self.measure("theory-check", False))
        rec = self.measure("theory-check", True)
        self.assert_clean(rec)
        self.assertGreater(
            rec["result"]["metrics"]["tabular.bellman_backup.calls"]["value"],
            0)

    def test_inspect(self):
        self.assert_clean(self.measure("inspect", False))
        rec = self.measure("inspect", True)
        self.assert_clean(rec)
        m = rec["result"]["metrics"]
        self.assertGreater(m["checkpoint.save_bundle.ms_per_call"]["value"], 0)
        self.assertEqual(m["coso_rl.collect_rollouts.ms_per_iter"]["value"], 0)


def random_utterances(env, m, rng):
    return rng.integers(1, env.vocab.size, size=(m, env.grammar.n))


class CorruptedOutputs(unittest.TestCase):
    """Each check passes on a correct output and fails on a corrupted one."""

    def test_reference_parser_agrees_with_the_program(self):
        rng = np.random.default_rng(0)
        for env_id in textmdp.env_ids():
            env = textmdp.make_env(env_id)
            ys = random_utterances(env, 4000, rng)
            parsed = [env.parse_or_noop(tuple(y)) for y in ys]
            acts = np.array([env.action_index(a) for a, _ in parsed])
            oks = np.array([ok for _, ok in parsed])
            self.assertGreater(oks.sum(), 0)
            parser = checks.ReferenceParser(env)
            self.assertEqual(checks.check_labels(parser, ys, acts, oks), [])
            swapped = acts.copy()
            swapped[7] = (swapped[7] + 1) % env.num_actions
            self.assertTrue(checks.check_labels(parser, ys, swapped, oks))
            flipped = oks.copy()
            flipped[3] = not flipped[3]
            self.assertTrue(checks.check_labels(parser, ys, acts, flipped))

    def test_step_accounting(self):
        self.assertEqual(checks.check_step_accounting(4096, 16, 16, 16), [])
        self.assertTrue(checks.check_step_accounting(4080, 16, 16, 16))

    def test_token_stats(self):
        v = 16
        ent = np.full((4, 3), math.log(v - 1))
        lp = np.full((4, 3), -0.5)
        self.assertEqual(checks.check_token_stats(ent, lp, v), [])
        for bad_ent, bad_lp in ((ent + 1e-9, lp), (ent - math.log(v), lp),
                                (ent, lp + 1.0)):
            self.assertTrue(checks.check_token_stats(bad_ent, bad_lp, v))

    def test_raw_weights(self):
        rng = np.random.default_rng(1)
        env = textmdp.make_env("menunav")
        phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
        phi.weights = rng.normal(size=phi.weights.shape)
        phi.bias = rng.normal(size=phi.bias.shape)
        ys = random_utterances(env, 20, rng)
        acts = rng.integers(0, env.num_actions, size=20)
        direct = checks.direct_raw_weights(phi.weights, phi.bias,
                                           env.vocab.size, ys, acts,
                                           null=textmdp.NULL)
        program = cf.causal_weights_batch(phi, ys, acts)
        self.assertEqual(checks.check_raw_weights(direct, program), [])
        program[5, 2] += 1e-9
        self.assertTrue(checks.check_raw_weights(direct, program))

    def test_normalized_rows(self):
        raw = np.abs(np.random.default_rng(2).normal(size=(10, 6)))
        raw[3] = 0.0  # untrained classifier: the row sits at the floor
        norm = cf.normalize_weights_batch(raw)
        self.assertEqual(checks.check_normalized_rows(norm, cf.W_FLOOR), [])
        scaled = norm.copy()
        scaled[1] *= 0.9
        self.assertTrue(checks.check_normalized_rows(scaled, cf.W_FLOOR))
        below = norm.copy()
        below[2, 0] = 0.0
        self.assertTrue(checks.check_normalized_rows(below, cf.W_FLOOR))

    def test_solved(self):
        self.assertEqual(checks.check_solved(1), [])
        self.assertTrue(checks.check_solved(0))

    def test_theory(self):
        spec = TheoryCheckSpec(instances=2)
        results = harness.theory_check(spec)
        self.assertEqual(checks.check_theory(results, spec), ([], 0))
        results[1].worst = 10 * spec.contraction_tol
        self.assertTrue(checks.check_theory(results, spec)[0])
        results = harness.theory_check(spec)
        results[2].passed = False
        results[2].failing_seeds = [123]
        self.assertEqual(checks.check_theory(results, spec)[1], 1)
        self.assertTrue(checks.check_theory(results[:3], spec)[0])

    def test_cf_report_and_probe(self):
        wl = WORKLOADS["inspect"](0, WORKDIR, TINY["inspect"])
        wl.setup()
        rnd = wl.run_round()
        self.assertEqual(wl.check(rnd, {}), ([], 0))
        env = textmdp.make_env("menunav")
        parser = checks.ReferenceParser(env)
        report = rnd.output[0][1]
        self.assertEqual(report["env_id"], "menunav")

        def corrupt(edit):
            bad = json.loads(json.dumps(report))
            edit(bad)
            return checks.check_cf_report(parser, bad, env.grammar.n,
                                          null=textmdp.NULL)

        def swap_action(r):
            r["records"][0]["action"] = "CLICK(3)" \
                if r["records"][0]["action"] != "CLICK(3)" else "BACK"

        def null_token(r):
            r["records"][1]["tokens"][0] = textmdp.NULL

        def drop_count(r):
            r["histogram"]["counts"][0] -= 1

        for edit in (swap_action, null_token, drop_count):
            problems, bad_eps = corrupt(edit)
            self.assertTrue(problems, edit.__name__)
            self.assertTrue(bad_eps, edit.__name__)
        probe = dict(rnd.output[1][0])
        self.assertEqual(checks.check_probe(probe), [])
        probe["k"] += 1
        self.assertTrue(checks.check_probe(probe))


class Tracing(unittest.TestCase):
    def test_self_times_partition_the_root_span(self):
        tracer = Tracer()

        def leaf():
            return sum(range(2000))
        leaf_t = tracer.wrap("policy.leaf", leaf)
        mid_t = tracer.wrap("coso_rl.mid", lambda: leaf_t() + leaf_t())
        with tracer.span("bench.round"):
            mid_t()
            leaf_t()
        s = tracer.spans()
        self.assertEqual([s.names[i] for i in s.name_id],
                         ["bench.round", "coso_rl.mid", "policy.leaf",
                          "policy.leaf", "policy.leaf"])
        self.assertEqual(s.parent.tolist(), [-1, 0, 1, 1, 0])
        self.assertEqual(s.calls("policy.leaf", parent="coso_rl.mid"), 2)
        self.assertAlmostEqual(sum(s.self_ns_by_layer("bench.round").values()),
                               s.dur[0])

    def test_install_wraps_and_uninstall_restores(self):
        import coso
        from coso import coso_rl, policy
        original = policy.sample_utterance
        method = coso_rl.Trainer.__dict__["collect_rollouts"]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(policy.sample_utterance.__wrapped__, original)
            self.assertIs(coso.sample_utterance, policy.sample_utterance)
            self.assertIs(coso_rl.Trainer.collect_rollouts.__wrapped__,
                          method)
        finally:
            tracer.uninstall()
        self.assertIs(policy.sample_utterance, original)
        self.assertIs(coso.sample_utterance, original)
        self.assertIs(coso_rl.Trainer.__dict__["collect_rollouts"], method)


if __name__ == "__main__":
    unittest.main()
