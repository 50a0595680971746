"""Lockstep groups: every run of a group equals its own training alone.

A group is a lead Trainer and the others its phases are handed:
lead.train_iteration(*others) trains them all and returns their reports.

The solo reference is a Trainer's own iteration (a group of one) and
run_single_seed; both are pinned to the pre-lockstep trainer by the golden
hashes of tools/golden_hashes.py.
"""
import copy
import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from coso import coso_rl, harness
from coso import counterfactual as cf
from coso import scm as scm_mod
from coso.coso_rl import Hyperparams, Trainer, _check_group
from coso.harness import RunConfig
from coso.textmdp import make_env

from test_coso_rl import assert_untrained_scm


def small_hyper(**kw):
    base = dict(rollout_steps=64, num_envs=8, scm_steps=4, alpha=0.1)
    base.update(kw)
    return Hyperparams(**base)


# (arm, alpha) x seeds 0, 1: every arm, and a coso and an rl_h run with
# an alpha of their own
MIXED = [("rl", 0.1), ("rl_h", 0.1), ("coso", 0.1), ("coso", 0.4),
         ("rl_h", 0.4)]


def make_runs(env_id, hyper, optimizer="ppo", runs=MIXED, seeds=(0, 1)):
    env = make_env(env_id)
    return [Trainer(env, dataclasses.replace(hyper, alpha=alpha), seed,
                    arm=arm, optimizer=optimizer)
            for arm, alpha in runs for seed in seeds]


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
    solo_reports = [[tr.train_iteration()[0] for tr in solo]
                    for _ in range(iters)]
    lead, *others = grouped
    group_reports = [lead.train_iteration(*others) for _ in range(iters)]
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


def test_only_coso_runs_query_the_classifier(monkeypatch):
    """Per iteration, each coso run makes one causal_weights_batch call,
    on its own classifier, and no other run makes any, alone or in a mixed
    group; the group still equals its runs trained alone."""
    original, weigh = cf.causal_weights_batch, Trainer.compute_weights
    calls, queried = [], {}

    def causal_weights_batch(phi, *args):
        calls.append(phi)
        return original(phi, *args)

    def compute_weights(tr, batch):
        del calls[:]
        weigh(tr, batch)
        assert all(phi is tr.scm for phi in calls)
        queried[id(tr)] = queried.get(id(tr), 0) + len(calls)
    monkeypatch.setattr(cf, "causal_weights_batch", causal_weights_batch)
    monkeypatch.setattr(Trainer, "compute_weights", compute_weights)
    iters = 3
    solo, grouped, want, got = train_both(
        lambda: make_runs("numberline", small_hyper()), iters)
    assert got == want
    for a, b in zip(grouped, solo):
        assert_same_state(a, b)
    for tr in grouped + solo:
        assert queried[id(tr)] == (iters if tr.arm == "coso" else 0), tr.arm


def test_arms_of_a_seed_consume_identical_randomness():
    """The rl, rl_h and coso runs of a seed end every iteration at one
    generator state, alone and in a mixed group, and the baselines keep
    their initial classifier."""
    arms = [("rl", 0.1), ("rl_h", 0.1), ("coso", 0.1)]
    solo, grouped = (make_runs("numberline", small_hyper(), runs=arms)
                     for _ in range(2))
    lead, *others = grouped
    for _ in range(3):
        for tr in solo:
            tr.train_iteration()
        lead.train_iteration(*others)
        for seed in (0, 1):
            states = [tr.rng.bit_generator.state for tr in solo + grouped
                      if tr.seed == seed]
            assert len(states) == 6
            assert all(state == states[0] for state in states)
    for tr in solo + grouped:
        if tr.arm == "coso":
            assert tr.scm.opt_w.step == 3 * tr.hyper.scm_steps
        else:
            assert_untrained_scm(tr)


def test_train_scm_sees_only_the_coso_runs(monkeypatch):
    """update_scm hands train_scm the coso runs' classifiers, generators
    and rows, in group order; a group of baselines makes no call."""
    original, update = scm_mod.train_scm, Trainer.update_scm
    calls, groups = [], []

    def train_scm(phis, ys, labels, **kw):
        calls.append((list(phis), np.array(ys), np.array(labels),
                      list(kw["rngs"])))
        return original(phis, ys, labels, **kw)

    def update_scm(tr, batch, *others):
        trs = [tr, *others]
        groups.append((batch, trs, [run.scm for run in trs]))
        return update(tr, batch, *others)
    monkeypatch.setattr(scm_mod, "train_scm", train_scm)
    monkeypatch.setattr(Trainer, "update_scm", update_scm)
    lead, *others = make_runs("numberline", small_hyper())
    for _ in range(2):
        lead.train_iteration(*others)
    assert len(calls) == len(groups) == 2
    for (phis, ys, labels, rngs), (batch, trs, scms) in zip(calls, groups):
        coso = [r for r, tr in enumerate(trs) if tr.arm == "coso"]
        assert len(coso) == 4 and len(phis) == 4
        assert all(phi is scms[r] for phi, r in zip(phis, coso))
        assert all(g is trs[r].rng for g, r in zip(rngs, coso))
        views = [batch.run(r) for r in coso]
        np.testing.assert_array_equal(
            ys, np.concatenate([v.utterances for v in views]))
        np.testing.assert_array_equal(
            labels, np.concatenate([v.action_idx for v in views]))
    del calls[:]
    lead, *others = make_runs("numberline", small_hyper(),
                              runs=[("rl", 0.1), ("rl_h", 0.1)])
    reports = lead.train_iteration(*others)
    assert calls == []
    assert all(r.scm_loss is None for r in reports)


def test_awr_group_with_flat_and_negative_advantages_equals_solo_runs(
        monkeypatch):
    """AWR's exp weights are > 0, so every run steps: a run whose GAE
    advantages are all equal and one whose advantages are all negative
    both move their weights, snapshot id and Adam step once per iteration,
    and the group equals its runs trained alone."""
    original = coso_rl.gae_advantages
    # per run, in call order: alone each call is one run, in the group one
    # call takes all four in group order
    plans = itertools.cycle([lambda a: np.full_like(a, 0.5),
                             lambda a: -1.0 - np.abs(a)])

    def gae_advantages(feats, batch, *args):
        adv = batch.by_run(original(feats, batch, *args)).copy()
        for r in range(batch.runs):
            adv[r] = next(plans)(adv[r])
        return adv.ravel()
    monkeypatch.setattr(coso_rl, "gae_advantages", gae_advantages)
    solo, grouped = (make_runs("numberline", small_hyper(), optimizer="awr",
                               runs=[("rl_h", 0.1), ("coso", 0.4)])
                     for _ in range(2))
    lead, *others = grouped
    for it in range(1, 4):
        before = [tr.policy.weights.copy() for tr in grouped]
        want = [tr.train_iteration()[0] for tr in solo]
        assert lead.train_iteration(*others) == want
        for tr, weights in zip(grouped, before):
            assert np.any(tr.policy.weights != weights)
            assert tr.snapshot_id == tr.policy_opt.step == it
    for a, b in zip(grouped, solo):
        assert_same_state(a, b)


def test_reward_bonus_group_equals_solo_runs():
    hyper = small_hyper(entropy_placement="reward_bonus", alpha=0.5)
    check_group_equals_solo(lambda: make_runs("numberline", hyper), iters=4)


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_minibatched_group_equals_solo_runs(optimizer):
    hyper = small_hyper(ppo_epochs=2, minibatch_size=24)
    check_group_equals_solo(
        lambda: make_runs("menunav", hyper, optimizer=optimizer), iters=3)


ROLLOUT_FIELDS = ("states", "next_states", "utterances", "action_idx",
                  "rewards", "dones", "parse_ok", "old_logprob", "entropy")


def test_group_hands_each_run_a_view_of_the_group_batch(monkeypatch):
    trainers = make_runs("numberline", small_hyper(), seeds=(0,))
    group_batches, run_batches = [], []
    collect, weigh = Trainer.collect_rollouts, Trainer.compute_weights

    def collect_rollouts(tr, *others):
        batch, forced = collect(tr, *others)
        group_batches.append(batch)
        return batch, forced

    def compute_weights(tr, batch):
        run_batches.append(batch)
        weigh(tr, batch)
    monkeypatch.setattr(Trainer, "collect_rollouts", collect_rollouts)
    monkeypatch.setattr(Trainer, "compute_weights", compute_weights)
    trainers[0].train_iteration(*trainers[1:])
    (group,) = group_batches
    assert group.runs == len(trainers) and group.size == 64 * len(trainers)
    assert len(run_batches) == len(trainers)
    for r, (tr, batch) in enumerate(zip(trainers, run_batches)):
        assert batch.runs == 1 and batch.size == 64
        assert batch.snapshot_id == (group.snapshot_id[r],)
        for name in ROLLOUT_FIELDS:
            assert np.shares_memory(getattr(batch, name),
                                    getattr(group, name)), name
            np.testing.assert_array_equal(
                getattr(batch, name),
                getattr(group, name)[r * 64:(r + 1) * 64], err_msg=name)
        np.testing.assert_array_equal(batch.weights,
                                      group.weights[r * 64:(r + 1) * 64])
        assert tr._feats.flags.owndata and tr._steps.flags.owndata


def test_lockstep_rejects_runs_that_do_not_fit():
    env = make_env("numberline")
    hyper = small_hyper()
    a = Trainer(env, hyper, seed=0)
    for other in (Trainer(env, hyper, seed=1, optimizer="awr"),
                  Trainer(env, dataclasses.replace(hyper, gamma=0.9), 1),
                  Trainer(make_env("menunav"), hyper, seed=1)):
        with pytest.raises(ValueError, match="differs"):
            a.train_iteration(other)
    ahead = Trainer(env, hyper, seed=1)
    ahead.train_iteration()
    with pytest.raises(ValueError, match="differs"):
        a.train_iteration(ahead)
    with pytest.raises(ValueError, match="twice"):
        a.train_iteration(a)


@pytest.mark.parametrize("case", ["key", "ahead", "lead ahead", "twice"])
def test_a_rejected_group_raises_before_any_run_moves(case):
    env = make_env("numberline")
    hyper = small_hyper()
    # a and b would share one store of starts if their group formed
    a, b, c, d = (Trainer(env, hyper, seed=s) for s in (0, 0, 1, 1))
    c.train_iteration(d)  # c and d are one iteration ahead
    group = {"key": [a, b, Trainer(env, hyper, seed=1, optimizer="awr")],
             "ahead": [a, b, c],
             "lead ahead": [c, a, b],
             "twice": [a, b, a]}[case]
    before = [copy.deepcopy(tr) for tr in group]
    starts = [tr._starts for tr in group]
    with pytest.raises(ValueError, match="differs|twice"):
        group[0].train_iteration(*group[1:])
    for tr, old, store in zip(group, before, starts):
        assert_same_state(tr, old)
        assert tr._starts is store


# -- shared episode starts ----------------------------------------------------


# one run per arm and seed; at this learning rate the arms' policies part
# fast enough that a seed's runs end their episodes at other ticks
ARM_RUNS = [(arm, 0.1) for arm in harness.ARMS]
DRIFTING = small_hyper(policy_lr=0.5)


def test_group_computes_each_start_once_per_seed(monkeypatch):
    resets, made = [], []

    def make():
        trainers = make_runs("numberline", DRIFTING, runs=ARM_RUNS)
        if made:  # the grouped runs, before their first starts
            reset = trainers[0].env.reset
            monkeypatch.setattr(trainers[0].env, "reset", lambda seed:
                                resets.append(seed) or reset(seed))
        made.append(trainers)
        return trainers
    grouped, _ = check_group_equals_solo(make, iters=6)
    distinct = 0
    for seed in (0, 1):
        counters = [tr._episode_counter for tr in grouped if tr.seed == seed]
        assert len(set(counters)) > 1  # the seed's runs drifted apart
        distinct += max(counters)
    reads = sum(tr._episode_counter for tr in grouped)
    assert len(resets) == distinct < reads


def test_a_group_computes_its_first_starts_once(monkeypatch):
    # the runs draw their first starts on the first rollout, after the
    # group points them at one store
    computed = []
    seeded_start = Trainer._seeded_start

    def counting(tr, counter):
        computed.append(counter)
        return seeded_start(tr, counter)
    monkeypatch.setattr(Trainer, "_seeded_start", counting)
    hyper = small_hyper(num_envs=16)
    trainers = make_runs("numberline", hyper, runs=ARM_RUNS, seeds=(0,))
    assert not computed  # construction draws no start
    trainers[0].train_iteration(*trainers[1:])
    first = [c for c in computed if c < hyper.num_envs]
    assert sorted(first) == list(range(hyper.num_envs))
    assert all(tr._episode_counter >= hyper.num_envs for tr in trainers)


def test_shared_starts_keep_only_what_a_run_has_yet_to_read():
    trainers = make_runs("numberline", DRIFTING, runs=ARM_RUNS)
    _check_group(trainers)
    stores = {tr.seed: tr._starts for tr in trainers}
    for _ in range(6):
        trainers[0].train_iteration(*trainers[1:])
    for seed, store in stores.items():
        runs = [tr for tr in trainers if tr.seed == seed]
        # each iteration re-checks the group and keeps the seed's store
        assert all(tr._starts is store for tr in runs)
        counters = [tr._episode_counter for tr in runs]
        assert min(counters) < max(counters)
        assert sorted(store._kept) == list(range(min(counters),
                                                 max(counters)))
        for counter, (start, left) in store._kept.items():
            assert left == sum(c <= counter for c in counters)
            assert start == runs[0]._seeded_start(counter)


def test_a_finished_group_is_freed_without_a_collection():
    # a reference cycle through the start stores would keep one benchmark
    # round's runs alive into the next
    gc.collect()
    gc.disable()
    try:
        trainers = make_runs("numberline", DRIFTING, runs=ARM_RUNS)
        for _ in range(2):
            trainers[0].train_iteration(*trainers[1:])
        refs = [weakref.ref(tr) for tr in trainers]
        del trainers
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_run_alone_shares_no_starts():
    trainers = make_runs("numberline", small_hyper(), runs=ARM_RUNS)
    _check_group(trainers)
    left = trainers[2]._starts
    assert all(tr._starts is left for tr in trainers[0::2])
    trainers[0].train_iteration()
    assert trainers[0]._starts is None
    # the runs it left get a store of their own when they next train
    trainers[2].train_iteration(*trainers[3:])
    assert trainers[2]._starts is not left
    for a, b in ((2, 4), (3, 5)):
        assert trainers[a]._starts is trainers[b]._starts
        assert trainers[a]._starts.size == 2
    assert trainers[2]._starts is not trainers[3]._starts


def test_menunav_group_never_touches_the_starts(monkeypatch):
    def no_store(*args):
        raise AssertionError("a seed-free reset reached the start store")
    monkeypatch.setattr(coso_rl._SharedStarts, "__init__", no_store)
    monkeypatch.setattr(coso_rl._SharedStarts, "read", no_store)
    trainers = make_runs("menunav", small_hyper(), runs=ARM_RUNS)
    for _ in range(3):
        trainers[0].train_iteration(*trainers[1:])
    assert all(tr._starts is None for tr in trainers)


# -- the harness: grouping and artifacts -------------------------------------


def base_config(**kw):
    return RunConfig(env_id="numberline", arm="coso", optimizer="ppo",
                     hyper=small_hyper(scm_steps=2), seeds=(0, 1),
                     total_env_steps=320, eval_every_iters=2,
                     eval_episodes=8, **kw)


def record_groups(monkeypatch):
    """The lockstep groups the harness trains, in order (kept alive)."""
    groups = []
    original = Trainer.train_iteration

    def train_iteration(self, *others):
        if not any(g[0] is self for g in groups):
            groups.append([self, *others])
        return original(self, *others)
    monkeypatch.setattr(Trainer, "train_iteration", train_iteration)
    return groups


def sizes(groups):
    return [len(g) for g in groups]


def run_files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_grouped_artifacts_equal_solo_runs(tmp_path, monkeypatch):
    base = base_config()
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    # a coso run at an alpha of its own, under seeds of its own: its run
    # name is the coso arm's
    configs.append(dataclasses.replace(
        base, hyper=dataclasses.replace(base.hyper, alpha=0.4), seeds=(2, 3)))
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


def test_each_ablation_computes_its_own_starts(monkeypatch):
    base = dataclasses.replace(base_config(), seeds=(0, 1, 2))
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    env_class = type(make_env("numberline"))
    calls = []
    reset = env_class.reset
    monkeypatch.setattr(env_class, "reset", lambda self, seed:
                        calls.append(seed) or reset(self, seed))
    counts = []
    for _ in range(2):
        before = len(calls)
        harness.ablation_matrix(configs, write_artifacts=False)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


def test_runs_that_differ_in_eval_episodes_train_apart(tmp_path,
                                                       monkeypatch):
    """A group is evaluated in one call over one episode count, so a config
    that differs only in eval_episodes trains in a group of its own; every
    run still equals its solo run_single_seed."""
    base = base_config()
    other = dataclasses.replace(base, arm="rl", eval_episodes=5)
    jobs = [(base, 0), (other, 0), (base, 1), (other, 1)]
    groups = record_groups(monkeypatch)
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "grouped"))
    results = harness.train_runs(jobs)
    assert sizes(groups) == [2, 2]
    assert [tr.seed for tr in groups[1]] == [0, 1]
    assert all(tr.arm == "rl" for tr in groups[1])
    monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / "solo"))
    for (config, seed), got in zip(jobs, results):
        want = harness.run_single_seed(config, seed)
        assert dataclasses.replace(got, run_dir="") == \
            dataclasses.replace(want, run_dir="")
        name = config.run_name(seed)
        assert run_files(tmp_path / "grouped" / name) == \
            run_files(tmp_path / "solo" / name)


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
