"""The four benchmark workloads.

A workload builds its inputs from the seed (``setup``), makes one round of
calls into the public entry points of coso (``run_round``), and checks the
outputs of a round outside the timed interval (``check``).  Every round of a
run makes the same calls on the same inputs, so its outputs must repeat
exactly.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import checks
from coso import coso_rl, harness, textmdp
from coso import counterfactual as cf
from coso.harness import RunConfig, TheoryCheckSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@dataclasses.dataclass
class Round:
    seconds: float  # wall time of the timed calls
    work: int  # units of ops_per_s: env steps, instances or utterances
    attempted: int  # training runs, theory instances, episodes + samples
    good: int  # solved eval episodes, passed instances, legal utterances
    output: object  # what check() reads; must repeat exactly across rounds
    rates: dict  # the workload's own throughputs, by name, per second
    scm_scored: int = 0
    counts: dict = dataclasses.field(default_factory=dict)
    reference_seconds: float = 0.0  # host speed reference around the round


class BatchCapture:
    """Keeps every ``EVERY``-th rollout batch of each trainer for the checks.

    Wraps ``Trainer.compute_weights``, the boundary where a batch is complete
    (utterances, labels, entropies and weights), and keeps a reference to the
    classifier the weights were computed with.  Storing references costs
    microseconds per iteration, against milliseconds of work.
    """

    EVERY = 16

    def __init__(self):
        self.runs: dict = {}
        self.counts = {"utterances": 0, "parse_ok": 0}
        self._original = None

    def install(self) -> None:
        self._original = original = coso_rl.Trainer.__dict__["compute_weights"]
        capture = self

        def compute_weights(trainer, batch):
            original(trainer, batch)
            capture.record(trainer, batch)
        coso_rl.Trainer.compute_weights = compute_weights

    def uninstall(self) -> None:
        coso_rl.Trainer.compute_weights = self._original

    def record(self, trainer, batch) -> None:
        run = self.runs.setdefault(id(trainer), {"trainer": trainer,
                                                 "iterations": 0,
                                                 "batches": []})
        if run["iterations"] % self.EVERY == 0:
            run["batches"].append((batch, trainer.scm))
        run["iterations"] += 1
        self.counts["utterances"] += batch.size
        self.counts["parse_ok"] += int(np.count_nonzero(batch.parse_ok))

    def take(self) -> tuple[dict, dict]:
        """Runs and counts since the last call."""
        runs, counts = self.runs, self.counts
        self.runs = {}
        self.counts = {"utterances": 0, "parse_ok": 0}
        return runs, counts


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    good_name = ""  # what good_outcomes counts on this workload
    SIZE: dict = {}
    # context around the timed calls of a round; the tracer's round span
    span = staticmethod(contextlib.nullcontext)

    def __init__(self, seed: int, workdir: Path, size: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.SIZE, **(size or {}))

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round, runs: dict) -> tuple[list, int]:
        """(problems, failed operations) for one round."""
        raise NotImplementedError

    @property
    def ops_per_round(self) -> int:
        raise NotImplementedError


class Training(Workload):
    """Shared by the two training workloads: artifacts and batch checks.

    Training seeds are the config's, not the benchmark seed: how fast a seed
    learns sets both the greedy-eval cost (episode lengths) and the solved
    count, and across seeds that moved env steps/s by a quarter.  The
    benchmark seed picks the rows whose weights are recomputed.
    """

    good_name = "greedy_solved_episodes"
    RAW_ROWS = 16  # rows per kept batch whose raw weights are recomputed

    def _outcomes(self) -> list:
        out = []
        for cfg in self.configs:
            for seed in cfg.seeds:
                run_dir = harness.resolve_out_dir(cfg) / cfg.run_name(seed)
                last = json.loads((run_dir / "metrics.jsonl").read_text()
                                  .splitlines()[-1])
                out.append({
                    "run": cfg.run_name(seed),
                    "env_steps": last["env_steps"],
                    "solved": round(last["eval_success"] * cfg.eval_episodes),
                    "metrics_sha": _sha(run_dir / "metrics.jsonl"),
                    "checkpoint_sha": _sha(run_dir / "checkpoint.json"),
                })
        return out

    def _timed(self, call) -> Round:
        with self.span():
            t0 = time.perf_counter()
            call()
            seconds = time.perf_counter() - t0
        outcomes = self._outcomes()
        steps = sum(o["env_steps"] for o in outcomes)
        return Round(seconds=seconds, work=steps, attempted=len(outcomes),
                     good=sum(o["solved"] for o in outcomes), output=outcomes,
                     rates={"env_steps_per_s": steps / seconds})

    @property
    def ops_per_round(self) -> int:
        return sum(len(c.seeds) for c in self.configs)

    def check(self, rnd: Round, runs: dict) -> tuple[list, int]:
        problems, bad_runs = [], set()
        by_name = {o["run"]: o for o in rnd.output}
        cfg_of = {c.run_name(s): c for c in self.configs for s in c.seeds}
        rng = np.random.default_rng(self.seed)
        parsers = {}
        seen = set()
        for run in runs.values():
            tr = run["trainer"]
            name = f"{tr.env.env_id}_{tr.arm}_{tr.optimizer}_seed{tr.seed}"
            seen.add(name)
            if name not in by_name:
                problems.append(f"{name}: trained but wrote no artifacts")
                bad_runs.add(name)
                continue
            env, hyper = tr.env, cfg_of[name].hyper
            ticks = hyper.rollout_steps // hyper.num_envs
            if env.env_id not in parsers:
                parsers[env.env_id] = checks.ReferenceParser(env)
            found = checks.check_step_accounting(
                by_name[name]["env_steps"], run["iterations"], ticks,
                hyper.num_envs)
            for batch, phi in run["batches"]:
                if batch.size != ticks * hyper.num_envs:
                    found.append(f"batch of {batch.size} rows, not "
                                 f"{ticks} x {hyper.num_envs}")
                found += checks.check_labels(parsers[env.env_id],
                                             batch.utterances,
                                             batch.action_idx, batch.parse_ok)
                found += checks.check_token_stats(batch.entropy,
                                                  batch.old_logprob,
                                                  env.vocab.size)
                rows = rng.choice(batch.size, size=min(self.RAW_ROWS,
                                                       batch.size),
                                  replace=False)
                ys, acts = batch.utterances[rows], batch.action_idx[rows]
                found += checks.check_raw_weights(
                    checks.direct_raw_weights(phi.weights, phi.bias,
                                              phi.vocab_size, ys, acts,
                                              null=textmdp.NULL),
                    cf.causal_weights_batch(phi, ys, acts))
                found += checks.check_normalized_rows(batch.weights,
                                                      cf.W_FLOOR)
            if found:
                bad_runs.add(name)
                problems += [f"{name}: {p}" for p in found]
        for name in set(by_name) - seen:
            problems.append(f"{name}: no rollout batch was seen")
            bad_runs.add(name)
        solved = checks.check_solved(rnd.good)
        if solved:
            return problems + solved, len(by_name)
        return problems, len(bad_runs)


class NumberlineAblate(Training):
    name = "numberline-ablate"
    SIZE = {"steps": 8192}

    def setup(self) -> None:
        # the config's first three seeds, the fewest ablation_matrix takes:
        # a round of about 7 s leaves several rounds in a run
        base = RunConfig.from_file(CONFIGS / "ablation_numberline.json")
        self.configs = [dataclasses.replace(
            base, arm=arm, seeds=base.seeds[:3],
            total_env_steps=self.size["steps"],
            out_dir=str(self.workdir)) for arm in harness.ARMS]

    def run_round(self) -> Round:
        return self._timed(lambda: harness.ablation_matrix(
            self.configs, write_artifacts=True))


class MenunavCoso(Training):
    name = "menunav-coso"
    SIZE = {"ppo_steps": 200_000, "awr_steps": 25_600}

    def setup(self) -> None:
        base = RunConfig.from_file(CONFIGS / "ablation_menunav.json")
        self.configs = [dataclasses.replace(
            base, arm="coso", optimizer=opt, seeds=base.seeds[:1],
            total_env_steps=self.size[f"{opt}_steps"],
            out_dir=str(self.workdir)) for opt in ("ppo", "awr")]

    def run_round(self) -> Round:
        def train():
            for cfg in self.configs:
                harness.run_single_seed(cfg, cfg.seeds[0],
                                        write_artifacts=True)
        return self._timed(train)


class TheoryCheck(Workload):
    name = "theory-check"
    good_name = "theory_instances_passed"
    SIZE = {"instances": 3}

    def setup(self) -> None:
        # The CLI defaults, seed 0 included: the work per instance set moves
        # with the seed (Bellman backups per 50-instance set varied by a
        # fifth).  3 instances per suite instead of 50 keep a round near
        # 0.5 s, so a run holds dozens of rounds.
        self.spec = TheoryCheckSpec(instances=self.size["instances"])

    @property
    def ops_per_round(self) -> int:
        return 4 * self.spec.instances

    def run_round(self) -> Round:
        with self.span():
            t0 = time.perf_counter()
            results = harness.theory_check(self.spec)
            seconds = time.perf_counter() - t0
        n = self.ops_per_round
        failing = sum(len(r.failing_seeds) for r in results)
        return Round(seconds=seconds, work=n, attempted=n, good=n - failing,
                     output=results,
                     rates={"theory_instances_per_s": n / seconds})

    def check(self, rnd: Round, runs: dict) -> tuple[list, int]:
        return checks.check_theory(rnd.output, self.spec)


class Inspect(Workload):
    name = "inspect"
    good_name = "legal_action_utterances"
    SIZE = {"ckpt_steps_numberline": 2048, "ckpt_steps_menunav": 4096,
            "episodes": 60, "k": 600}
    ENVS = ("numberline", "menunav")

    def setup(self) -> None:
        """Train each env's checkpoint from the fixed seed 0."""
        self.ckpt = {}
        for env_id in self.ENVS:
            base = RunConfig.from_file(CONFIGS / f"ablation_{env_id}.json")
            cfg = dataclasses.replace(
                base, arm="coso", optimizer="ppo", seeds=(0,),
                total_env_steps=self.size[f"ckpt_steps_{env_id}"],
                out_dir=str(self.workdir / "checkpoints"))
            res = harness.run_single_seed(cfg, 0, write_artifacts=True)
            self.ckpt[env_id] = Path(res.run_dir) / "checkpoint.json"
        rng = np.random.default_rng(self.seed)
        c, tau = rng.choice(textmdp.NumberLineEnv.N + 1, size=2, replace=False)
        self.probe_states = {"menunav": "trap",
                             "numberline": f"c={c},tau={tau}"}

    @property
    def ops_per_round(self) -> int:
        return len(self.ENVS) * (self.size["episodes"] + self.size["k"])

    def run_round(self) -> Round:
        e, k = self.size["episodes"], self.size["k"]
        with self.span():
            t0 = time.perf_counter()
            reports = [harness.cf_report(self.ckpt[env], env, e,
                                         sample_seed=self.seed)
                       for env in self.ENVS]
            t1 = time.perf_counter()
            probes = [harness.repeated_sampling_probe(
                self.ckpt[env], self.probe_states[env], k,
                sample_seed=self.seed) for env in self.ENVS]
            t2 = time.perf_counter()
        records = sum(len(r["records"]) for r in reports)
        samples = len(self.ENVS) * k
        legal = (sum(rec["parse_ok"] for r in reports for rec in r["records"])
                 + sum(k - p["invalid_count"] for p in probes))
        return Round(seconds=t2 - t0, work=records + samples,
                     attempted=self.ops_per_round, good=legal,
                     output=(reports, probes),
                     rates={"cf_report_records_per_s": records / (t1 - t0),
                            "probe_samples_per_s": samples / (t2 - t1)},
                     counts={"records": records, "samples": samples})

    def check(self, rnd: Round, runs: dict) -> tuple[list, int]:
        reports, probes = rnd.output
        problems, failed = [], 0
        for env_id, report in zip(self.ENVS, reports):
            env = textmdp.make_env(env_id)
            found, bad_eps = checks.check_cf_report(
                checks.ReferenceParser(env), report, env.grammar.n,
                null=textmdp.NULL)
            problems += [f"cf_report {env_id}: {p}" for p in found]
            failed += len(bad_eps)
        for probe in probes:
            found = checks.check_probe(probe)
            problems += found
            failed += probe["k"] if found else 0
        return problems, failed


WORKLOADS = {w.name: w for w in (NumberlineAblate, MenunavCoso, TheoryCheck,
                                 Inspect)}
