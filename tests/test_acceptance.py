"""Acceptance suite: one test per headline property, with stated tolerances.

Each test finishes by printing a single PASS line (pytest prints the FAIL
side itself). Run with `-s` to see the lines as they happen. The slowest
tests are the desk-scale training comparisons; everything else runs in
seconds.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from coso import checkpoint as ckpt
from coso import counterfactual as cf
from coso import policy as pol
from coso import tabular
from coso.coso_rl import Hyperparams, Trainer
from coso.harness import (ARMS, RunConfig, TheoryCheckSpec, ablation_matrix,
                          check_contraction, check_decomposition,
                          check_improvement, check_iteration,
                          repeated_sampling_probe, run_single_seed)
from coso.policy import FeatureSpec, PolicyParams
from coso.scm import ScmParams, accuracy, train_scm
from coso.textmdp import ACTION_ARG, ACTION_KIND, EnvState, make_env

from test_coso_rl import assert_untrained_scm, constant_causal_weights
from test_policy import nudged, objective_value


def ok(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def random_pairs(env, rng, count):
    ys, labels = [], []
    for _ in range(count):
        y = tuple(int(t) for t in rng.integers(1, env.vocab.size,
                                               size=env.grammar.n))
        action, _ = env.parse_or_noop(y)
        ys.append(y)
        labels.append(env.action_index(action))
    return np.array(ys), np.array(labels)


@pytest.fixture(scope="session")
def converged_scms():
    """SCMs trained on 1e4 random rollout pairs per env, plus held-out sets."""
    out = {}
    for env_id in ("numberline", "menunav"):
        env = make_env(env_id)
        rng = np.random.default_rng(0)
        ys, labels = random_pairs(env, rng, 12_000)
        phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
        (phi,), _ = train_scm([phi], ys[:10_000], labels[:10_000], lr=1e-2,
                              steps=3000, batch_size=256, rngs=[rng])
        out[env_id] = (env, phi, ys[10_000:], labels[10_000:])
    return out


NL_HYPER = Hyperparams(alpha=0.1, policy_lr=0.15)
MN_HYPER = Hyperparams(alpha=0.3, policy_lr=0.1)
ABLATION_SEEDS = (0, 1, 2, 3, 4)
MID_STEPS = 100_000  # the menunav mid-training snapshot


def ablation_configs(env_id, hyper, eval_every, **kw):
    """One PPO config per arm: ABLATION_SEEDS, 200k steps each, greedy
    success on 32 episodes every eval_every iterations, threshold 0.9."""
    return [RunConfig(env_id=env_id, arm=arm, optimizer="ppo", hyper=hyper,
                      seeds=ABLATION_SEEDS, total_env_steps=200_000,
                      eval_every_iters=eval_every, eval_episodes=32,
                      success_threshold=0.9, **kw)
            for arm in ARMS]


@pytest.fixture(scope="session")
def numberline_ablation():
    """The numberline ablation table, one row per arm."""
    t0 = time.time()
    result = ablation_matrix(ablation_configs("numberline", NL_HYPER, 5),
                             write_artifacts=False)
    return {row["arm"]: row for row in result.rows}, time.time() - t0


@pytest.fixture(scope="session")
def menunav_runs(tmp_path_factory):
    """Trained MenuNav runs per arm, from one ablation_matrix call.

    Each run has two budget-matched checkpoints: the final one in its run
    dir and a mid-training snapshot (while every arm is still exploring),
    saved at the first iteration at or past MID_STEPS by a wrapped
    Trainer.train_iteration.  The recovery probe uses the mid-training
    checkpoints; weight-distribution checks use the end of the run.
    Returns ({arm: per-seed rows}, {arm: ablation table row}, seconds).
    """
    t0 = time.time()
    root = tmp_path_factory.mktemp("menunav_runs")
    configs = ablation_configs("menunav", MN_HYPER, 10, out_dir=str(root))
    snapshots = {}
    train_iteration = Trainer.train_iteration

    def snapshotting(lead, *others):
        reports = train_iteration(lead, *others)
        for tr in (lead, *others):
            if (tr.total_env_steps >= MID_STEPS
                    and (tr.arm, tr.seed) not in snapshots):
                mid = root / f"{tr.arm}_seed{tr.seed}_mid.json"
                ckpt.save_bundle(mid, tr.policy, tr.scm, "menunav",
                                 meta={"seed": tr.seed, "arm": tr.arm,
                                       "env_steps": tr.total_env_steps})
                snapshots[tr.arm, tr.seed] = mid
        return reports

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("COSO_OUTPUT_DIR", raising=False)  # keep out_dir
        mp.setattr(Trainer, "train_iteration", snapshotting)
        result = ablation_matrix(configs)
    runs = {}
    for config in configs:
        rows = []
        for seed in config.seeds:
            rows.append({"seed": seed, "mid_ckpt": snapshots[config.arm, seed],
                         "ckpt": root / config.run_name(seed)
                         / "checkpoint.json"})
        runs[config.arm] = rows
    table = {row["arm"]: row for row in result.rows}
    return runs, table, time.time() - t0


# -- 1..4: exact tabular theory ----------------------------------------------


def test_criterion_1_entropy_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        ve = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        policy = tabular.TabularPolicy.random(1, ve, n, rng)
        _, _, diff = tabular.entropy_decomposition_check(policy, 0)
        worst = max(worst, diff)
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    ok(1, f"joint vs conditional-sum entropy, 100 policies, "
          f"worst gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_contraction_and_fixed_point():
    t0 = time.time()
    spec = TheoryCheckSpec(instances=50, q_pairs=100, contraction_tol=1e-9,
                           fixed_point_tol=1e-8)
    res = check_contraction(spec)
    elapsed = time.time() - t0
    assert res.passed, f"failing instance seeds: {res.failing_seeds}"
    assert elapsed < 60.0
    ok(2, f"Lipschitz excess over gamma <= 1e-9 across 50 MDPs x 100 Q "
          f"pairs (worst {res.worst:.2e}), fixed point matches linear solve, "
          f"{elapsed:.1f}s")


def test_criterion_3_policy_improvement():
    t0 = time.time()
    res = check_improvement(TheoryCheckSpec(instances=50))
    elapsed = time.time() - t0
    assert res.passed, f"failing instance seeds: {res.failing_seeds}"
    assert elapsed < 120.0
    ok(3, f"soft improvement never drops Q by more than 1e-8 on 50 MDPs "
          f"(worst drop {res.worst:.2e}), {elapsed:.1f}s")


def test_criterion_4_policy_iteration():
    t0 = time.time()
    res = check_iteration(TheoryCheckSpec(instances=50))
    elapsed = time.time() - t0
    assert res.passed, f"failing instance seeds: {res.failing_seeds}"
    assert elapsed < 120.0
    ok(4, f"monotone convergent policy iteration on 50 instances, "
          f"alpha=0 cases match brute force, {elapsed:.1f}s")


# -- 5..6: update identities and gradients ------------------------------------


def test_criterion_5_degeneracy_identities(monkeypatch):
    t0 = time.time()
    env = make_env("numberline")
    hp = Hyperparams(alpha=0.1, rollout_steps=64, num_envs=8, scm_steps=2)

    # B == 1 reduces coso to rl_h, bitwise: constant causal weights
    # max-normalize to ones
    asked = constant_causal_weights(monkeypatch)
    a = Trainer(env, hp, seed=3, arm="rl_h")
    b = Trainer(env, hp, seed=3, arm="coso")
    for _ in range(3):
        a.train_iteration()
        b.train_iteration()
    monkeypatch.undo()
    assert len(asked) == 3  # the coso run's one query per iteration
    assert np.array_equal(a.policy.weights, b.policy.weights)
    # rl_h trains no classifier, but draws its rows: one generator state
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert_untrained_scm(a)

    # alpha == 0 makes the update independent of B: coso equals rl, bitwise
    hp0 = Hyperparams(alpha=0.0, rollout_steps=64, num_envs=8, scm_steps=2)
    c = Trainer(env, hp0, seed=5, arm="coso")
    d = Trainer(env, hp0, seed=5, arm="rl")
    for _ in range(3):
        c.train_iteration()
        d.train_iteration()
    assert np.array_equal(c.policy.weights, d.policy.weights)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(5, f"B==1 reduces coso to rl_h and alpha=0 reduces coso to rl, both "
          f"bitwise, {elapsed:.1f}s")


def test_criterion_6_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(6)
    spec = FeatureSpec(state_cards=(2,), vocab_size=4, n=2, context=1)
    h = 1e-5
    for trial in range(20):
        params = PolicyParams(
            spec=spec, weights=rng.normal(0, 0.7, (spec.dim,
                                                   spec.vocab_size)))
        states, ys = [], []
        for _ in range(2):
            states.append(EnvState(features=(int(rng.integers(0, 2)),)))
            ys.append(tuple(int(rng.integers(1, spec.vocab_size))
                            for _ in range(spec.n)))
        # one (sample, token) weight draw per objective kind; the entropy
        # kind uses unit token weights and None drops a term
        draws = [(rng.normal(size=len(ys)),
                  rng.uniform(0, 1, (len(ys), spec.n))) for _ in range(3)]
        sw, tw = draws[0][0], draws[2][1]
        cases = {"logprob-weighted": (sw, None),
                 "entropy": (None, np.ones((len(ys), spec.n))),
                 "weighted-entropy": (None, tw),
                 # the training objective, as PPO and AWR call it
                 "combined": (sw, tw)}
        for kind, (sw, tw) in cases.items():
            g = pol.grad_objective(params, states, ys, sw, tw)
            fd = np.zeros_like(g)
            for i in range(g.shape[0]):
                for j in range(g.shape[1]):
                    up, dn = nudged(params, i, j, h), nudged(params, i, j, -h)
                    fd[i, j] = (objective_value(up, states, ys, sw, tw)
                                - objective_value(dn, states, ys, sw, tw)
                                ) / (2 * h)
            denom = max(np.max(np.abs(fd)), 1e-8)
            rel = np.max(np.abs(g - fd)) / denom
            assert rel <= 1e-4, f"trial {trial} kind {kind} rel {rel:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(6, f"analytic gradients match central differences (h=1e-5, rel "
          f"tol 1e-4) for 3 objectives plus the combined training "
          f"objective x 20 instances, {elapsed:.1f}s")


# -- 7..9: classifier fidelity and weight structure ---------------------------


def test_criterion_7_scm_fidelity(converged_scms):
    t0 = time.time()
    accs = {}
    for env_id, floor in (("numberline", 0.99), ("menunav", 0.95)):
        _, phi, ys, labels = converged_scms[env_id]
        accs[env_id] = accuracy(phi, ys, labels)
        assert accs[env_id] >= floor, f"{env_id}: {accs[env_id]:.4f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(7, f"held-out argmax accuracy numberline {accs['numberline']:.3f} "
          f"(>=0.99), menunav {accs['menunav']:.3f} (>=0.95)")


def test_criterion_8_weight_localization(converged_scms):
    t0 = time.time()
    fracs, ratios = {}, {}
    for env_id, bar in (("numberline", 0.90), ("menunav", 0.75)):
        env, phi, ys, labels = converged_scms[env_id]
        raw = cf.causal_weights_batch(phi, ys[:2000], labels[:2000])
        norm = cf.normalize_weights_batch(raw)
        kind_slot = env.grammar.kind_slot
        fracs[env_id] = float(np.mean(np.argmax(norm, axis=1) == kind_slot))
        assert fracs[env_id] >= bar, f"{env_id}: {fracs[env_id]:.3f}"
        action_slots = [i for i, r in enumerate(env.grammar.roles)
                        if r in (ACTION_KIND, ACTION_ARG)]
        filler_slots = [i for i in range(env.grammar.n)
                        if i not in action_slots]
        ratios[env_id] = (float(np.mean(raw[:, action_slots]))
                          / float(np.mean(raw[:, filler_slots])))
        assert ratios[env_id] >= 5.0, f"{env_id}: {ratios[env_id]:.2f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(8, f"kind slot carries max weight in {fracs['numberline']:.0%} of "
          f"numberline and {fracs['menunav']:.0%} of menunav steps; "
          f"action/filler raw ratios {ratios['numberline']:.0f}x and "
          f"{ratios['menunav']:.0f}x (>=5x)")


def test_criterion_9_weight_distribution(menunav_runs):
    runs, _, _ = menunav_runs
    t0 = time.time()
    fractions = []
    for row in runs["coso"]:
        _, phi, _, _ = ckpt.load_bundle(row["ckpt"])
        env = make_env("menunav")
        rng = np.random.default_rng(100 + row["seed"])
        ys, labels = random_pairs(env, rng, 1000)
        norm = cf.normalize_weights_batch(
            cf.causal_weights_batch(phi, ys, labels))
        hist = cf.weight_stats(norm)
        fractions.append(float(hist.fractions[0]))
    med = float(np.median(fractions))
    elapsed = time.time() - t0
    assert med >= 0.60, f"median low-bin fraction {med:.3f}"
    assert elapsed < 300.0
    ok(9, f"{med:.0%} of normalized menunav weights fall in [0, 0.2) "
          f"(>=60% desk-scale bar)")


# -- 10..11: desk-scale directional experiments -------------------------------


def test_criterion_10_ablation_direction(numberline_ablation, menunav_runs):
    nl, nl_elapsed = numberline_ablation
    _, mn, mn_elapsed = menunav_runs
    med = {arm: row["median_steps_to_threshold"] for arm, row in nl.items()}
    rl_fails = not np.isfinite(med["rl"])
    assert med["coso"] <= med["rl_h"], f"{med}"
    assert rl_fails or (med["rl_h"] <= med["rl"] and
                        med["coso"] <= med["rl"]), f"{med}"
    mn_final = {arm: row["median_final_success"] for arm, row in mn.items()}
    assert mn_final["coso"] >= mn_final["rl_h"], f"{mn_final}"
    total = nl_elapsed + mn_elapsed
    assert total < 1800.0
    ok(10, f"numberline median steps-to-90%: coso {med['coso']:.0f} <= "
           f"rl_h {med['rl_h']:.0f} <= rl {med['rl']:.0f}; menunav median "
           f"final success coso {mn_final['coso']:.2f} >= rl_h "
           f"{mn_final['rl_h']:.2f}; training {total:.0f}s")


def test_criterion_11_trap_recovery_probe(menunav_runs):
    runs, _, _ = menunav_runs
    t0 = time.time()
    recovery = {}
    invalid = {}
    for arm in ("rl", "rl_h", "coso"):
        recovered, inv = [], []
        for row in runs[arm]:
            probe = repeated_sampling_probe(row["mid_ckpt"], "trap", k=10,
                                            sample_seed=1234)
            acts = probe["actions"]
            recovered.append(int(acts.get("BACK", 0) + acts.get("HOME", 0)
                                 > 0))
            inv.append(probe["invalid_count"])
        recovery[arm] = float(np.mean(recovered))
        invalid[arm] = float(np.median(inv))
    elapsed = time.time() - t0
    assert recovery["coso"] > recovery["rl"], f"{recovery}"
    assert invalid["coso"] <= invalid["rl_h"], f"{invalid}"
    assert elapsed < 300.0
    ok(11, f"trap recovery within 10 samples (budget-matched mid-training "
           f"checkpoints): coso in {recovery['coso']:.0%} of seeds vs rl "
           f"{recovery['rl']:.0%}; median invalid count coso "
           f"{invalid['coso']:.0f} <= rl_h {invalid['rl_h']:.0f}")


# -- 12: byte determinism -----------------------------------------------------


def test_criterion_12_byte_identical_rerun(tmp_path, monkeypatch):
    t0 = time.time()
    cfg = RunConfig(env_id="numberline", arm="coso", optimizer="ppo",
                    hyper=Hyperparams(alpha=0.1, rollout_steps=128,
                                      num_envs=8, scm_steps=2),
                    seeds=(0,), total_env_steps=1024, eval_every_iters=2,
                    eval_episodes=8)
    blobs = []
    for sub in ("first", "second"):
        monkeypatch.setenv("COSO_OUTPUT_DIR", str(tmp_path / sub))
        run_single_seed(cfg, seed=0)
        d = tmp_path / sub / cfg.run_name(0)
        blobs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert set(blobs[0]) == {"config.json", "metrics.jsonl",
                             "checkpoint.json"}
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], f"{name} differs"
    elapsed = time.time() - t0
    ok(12, f"config + seed reruns to byte-identical config/metrics/"
           f"checkpoint artifacts, {elapsed:.1f}s")
