"""Lockstep groups: every run of a group equals its own training alone.

The solo reference is a Trainer's own iteration (a group of one) and
run_single_seed; both are pinned to the pre-lockstep trainer by the golden
hashes of tools/golden_hashes.py.
"""
import dataclasses
import json

import numpy as np
import pytest

from coso import harness
from coso.coso_rl import Hyperparams, Lockstep, Trainer
from coso.harness import RunConfig
from coso.textmdp import make_env


def small_hyper(**kw):
    base = dict(rollout_steps=64, num_envs=8, scm_steps=4, alpha=0.1)
    base.update(kw)
    return Hyperparams(**base)


# (arm, force_uniform_weights, alpha) x seeds 0, 1: every arm, the uniform
# weight hook, and an rl_h run with its own alpha
MIXED = [(arm, uniform, alpha) for arm, uniform, alpha in (
    ("rl", False, 0.1), ("rl_h", False, 0.1), ("coso", False, 0.1),
    ("coso", True, 0.1), ("rl_h", False, 0.4))]


def make_runs(env_id, hyper, optimizer="ppo", runs=MIXED, seeds=(0, 1)):
    env = make_env(env_id)
    return [Trainer(env, dataclasses.replace(hyper, alpha=alpha), seed,
                    arm=arm, optimizer=optimizer,
                    force_uniform_weights=uniform)
            for arm, uniform, alpha in runs for seed in seeds]


def state_of(tr):
    """Everything a run carries from one iteration to the next."""
    return {
        "policy": tr.policy.weights, "policy_m": tr.policy_opt.m,
        "policy_v": tr.policy_opt.v, "policy_step": tr.policy_opt.step,
        "scm_w": tr.scm.weights, "scm_b": tr.scm.bias,
        "scm_mw": tr.scm.opt_w.m, "scm_vw": tr.scm.opt_w.v,
        "scm_mb": tr.scm.opt_b.m, "scm_vb": tr.scm.opt_b.v,
        "scm_step": (tr.scm.opt_w.step, tr.scm.opt_b.step),
        "value_beta": tr.value_beta, "feats": tr._feats, "steps": tr._steps,
        "episodes": tr._episode_counter, "snapshot_id": tr.snapshot_id,
        "env_steps": tr.total_env_steps, "rng": tr.rng.bit_generator.state,
    }


def assert_same_state(a, b):
    for key, value in state_of(a).items():
        other = state_of(b)[key]
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, key
            np.testing.assert_array_equal(value, other, err_msg=key)
            # bitwise, signs of zero included
            assert value.tobytes() == other.tobytes(), key
        else:
            assert value == other, key


def train_both(make, iters):
    """Train make()'s runs alone and as one group; returns the trainers and
    the reports of both."""
    solo, grouped = make(), make()
    solo_reports = [[tr.train_iteration() for tr in solo]
                    for _ in range(iters)]
    group = Lockstep(grouped)
    group_reports = [group.train_iteration() for _ in range(iters)]
    return solo, grouped, solo_reports, group_reports


def check_group_equals_solo(make, iters):
    """Returns the grouped trainers and their reports."""
    solo, grouped, want, got = train_both(make, iters)
    assert got == want
    for a, b in zip(grouped, solo):
        assert_same_state(a, b)
    return grouped, got


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_mixed_arm_group_equals_solo_runs(env_id):
    _, reports = check_group_equals_solo(
        lambda: make_runs(env_id, small_hyper()), iters=4)
    assert all(r.mean_weighted_entropy is None
               for r in reports[-1][:2])  # the rl runs


def test_awr_filter_group_with_some_runs_skipping_equals_solo_runs():
    hyper = small_hyper(awr_mode="filter", adv_filter_threshold=2.0,
                        scm_steps=2)
    grouped, got = check_group_equals_solo(
        lambda: make_runs("numberline", hyper, optimizer="awr"), iters=6)
    mixed = [it for it in got if 0 < sum(r.skipped for r in it) < len(it)]
    assert mixed  # some runs skipped while others stepped
    # a skipped step moves neither the params nor the snapshot id
    for r, tr in enumerate(grouped):
        assert tr.snapshot_id == sum(not it[r].skipped for it in got)
        assert tr.policy_opt.step == tr.snapshot_id


def test_reward_bonus_group_equals_solo_runs():
    hyper = small_hyper(entropy_placement="reward_bonus", alpha=0.5)
    check_group_equals_solo(lambda: make_runs("numberline", hyper), iters=4)


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_minibatched_group_equals_solo_runs(optimizer):
    hyper = small_hyper(ppo_epochs=2, minibatch_size=24)
    check_group_equals_solo(
        lambda: make_runs("menunav", hyper, optimizer=optimizer), iters=3)


def test_group_hands_each_run_a_batch_of_its_own():
    trainers = make_runs("numberline", small_hyper(), seeds=(0,))
    batches = trainers[0].collect_rollouts(*trainers[1:])
    for batch in batches:
        assert batch.size == 64
        for name in ("states", "next_states", "utterances", "action_idx",
                     "rewards", "dones", "parse_ok", "old_logprob",
                     "entropy"):
            assert getattr(batch, name).flags.owndata, name
    for tr in trainers:
        assert tr._feats.flags.owndata and tr._steps.flags.owndata


def test_lockstep_rejects_runs_that_do_not_fit():
    env = make_env("numberline")
    hyper = small_hyper()
    a = Trainer(env, hyper, seed=0)
    for other in (Trainer(env, hyper, seed=1, optimizer="awr"),
                  Trainer(env, dataclasses.replace(hyper, gamma=0.9), 1),
                  Trainer(make_env("menunav"), hyper, seed=1)):
        with pytest.raises(ValueError, match="differs"):
            Lockstep([a, other])
    ahead = Trainer(env, hyper, seed=1)
    ahead.train_iteration()
    with pytest.raises(ValueError, match="differs"):
        Lockstep([a, ahead])
    with pytest.raises(ValueError, match="twice"):
        Lockstep([a, a])
    with pytest.raises(ValueError, match="at least one"):
        Lockstep([])


# -- the harness: grouping and artifacts -------------------------------------


def base_config(**kw):
    return RunConfig(env_id="numberline", arm="coso", optimizer="ppo",
                     hyper=small_hyper(scm_steps=2), seeds=(0, 1),
                     total_env_steps=320, eval_every_iters=2,
                     eval_episodes=8, **kw)


def record_groups(monkeypatch):
    """The lockstep groups the harness trains, in order (kept alive)."""
    groups = []
    original = Lockstep.train_iteration

    def train_iteration(self):
        if not any(g is self for g in groups):
            groups.append(self)
        return original(self)
    monkeypatch.setattr(Lockstep, "train_iteration", train_iteration)
    return groups


def sizes(groups):
    return [len(g.trainers) for g in groups]


def run_files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_grouped_artifacts_equal_solo_runs(tmp_path, monkeypatch):
    base = base_config()
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    # the uniform weight hook, under seeds of its own: its run name is the
    # coso arm's
    configs.append(dataclasses.replace(base, force_uniform_weights=True,
                                       seeds=(2, 3)))
    groups = record_groups(monkeypatch)
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "grouped"))
    grouped = harness.train_runs([(c, s) for c in configs for s in c.seeds])
    assert sizes(groups) == [8]
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "solo"))
    for (config, seed), got in zip([(c, s) for c in configs for s in c.seeds],
                                   grouped):
        want = harness.run_single_seed(config, seed)
        assert dataclasses.replace(got, run_dir="") == \
            dataclasses.replace(want, run_dir="")
        name = config.run_name(seed)
        files = run_files(tmp_path / "grouped" / name)
        assert set(files) == {"config.json", "metrics.jsonl",
                              "checkpoint.json"}
        assert files == run_files(tmp_path / "solo" / name)
    assert sizes(groups)[1:] == [1] * 8


def test_ablation_trains_one_group_and_matches_solo_summaries(tmp_path,
                                                              monkeypatch):
    base = dataclasses.replace(base_config(), seeds=(0, 1, 2))
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    groups = record_groups(monkeypatch)
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "ablation"))
    harness.ablation_matrix(configs)
    assert sizes(groups) == [9]
    for config in configs:
        monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / config.arm))
        summary = harness.RunSummary(config=config, per_seed=[
            harness.run_single_seed(config, s) for s in config.seeds])
        name = f"numberline_{config.arm}_ppo_summary.csv"
        assert (tmp_path / "ablation" / name).read_text() == \
            harness.summary_csv(summary)
        for seed in config.seeds:
            run = config.run_name(seed)
            assert run_files(tmp_path / "ablation" / run) == \
                run_files(tmp_path / config.arm / run)


def test_runs_that_do_not_share_a_key_train_apart(tmp_path, monkeypatch):
    base = base_config()
    jobs = [(base, 0), (dataclasses.replace(base, eval_every_iters=3), 5),
            (dataclasses.replace(base, arm="rl"), 1),
            (dataclasses.replace(base, optimizer="awr"), 0),
            (dataclasses.replace(base, total_env_steps=192), 1)]
    groups = record_groups(monkeypatch)
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path))
    results = harness.train_runs(jobs)
    assert sizes(groups) == [2, 1, 1, 1]
    assert [r.env_steps[-1] for r in results] == [320, 320, 320, 320, 192]
    metrics = (tmp_path / base.run_name(0) / "metrics.jsonl").read_text()
    assert [json.loads(line)["iteration"] for line in
            metrics.splitlines()] == [2, 4, 5]
