"""The training spans the benchmark's per-layer metrics read stay opened.

bench/layers.py turns the spans of a traced run into per-layer metrics by
name: a phase that moves off an instrumented name reads 0 there without any
error.  This test traces one lockstep iteration of two runs per optimizer
with the benchmark's own tracer and asserts that each of those names is
opened below the round as often as the iteration calls it: teacher forcing
not at all, since the rollout records it while sampling.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # as bench/selftest.py imports it
try:
    from spans import Tracer
finally:  # bench/ holds modules named run, checks, layers
    sys.path.remove(str(BENCH))

import coso.checkpoint  # noqa: E402,F401  (the tracer wraps every layer)
import coso.harness  # noqa: E402,F401
import coso.tabular  # noqa: E402,F401
from coso.coso_rl import Hyperparams, Trainer  # noqa: E402
from coso.textmdp import make_env  # noqa: E402

ROUND = "bench.round"
ITERATION = "coso_rl.Trainer.train_iteration"
# span -> calls per group iteration of two runs (None: at least one)
READ = {
    ITERATION: 1,
    "coso_rl.Trainer.collect_rollouts": 1,
    "coso_rl.Trainer.compute_weights": 2,  # once per run, on its own batch
    "policy.sample_utterances_batch": None,
    # the rollout records its forcing while it samples, and one epoch of
    # one minibatch takes that
    "policy.teacher_forced_batch": 0,
    "counterfactual.causal_weights_batch": 2,
    "scm.train_scm": 1,
    "coso_rl.fit_value": 1,
    "coso_rl.gae_advantages": 1,
    "coso_rl.Trainer.update_policy": 1,
}


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_group_iteration_opens_every_span_the_benchmark_reads(optimizer):
    hyper = Hyperparams(rollout_steps=64, num_envs=8, scm_steps=2)
    env = make_env("menunav")
    lead, other = [Trainer(env, hyper, seed=s, optimizer=optimizer)
                   for s in range(2)]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROUND):
            lead.train_iteration(other)
    finally:
        tracer.uninstall()
    s = tracer.spans()
    want = {**READ, f"coso_rl.{optimizer}_update": 1}
    for name, calls in want.items():
        got = s.calls(name, under=ROUND)
        assert got == calls if calls is not None else got > 0, name
    # the iteration body holds the phases that are divided by its count
    for name in ("coso_rl.Trainer.collect_rollouts",
                 "coso_rl.Trainer.compute_weights",
                 "coso_rl.Trainer.update_policy"):
        assert s.calls(name, parent=ITERATION) == want[name], name
