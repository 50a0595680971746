import weakref
from dataclasses import replace

import numpy as np
import pytest

from coso import coso_rl
from coso import counterfactual as cf
from coso import policy as pol
from coso import scm as scm_mod
from coso.coso_rl import (Hyperparams, RolloutBatch, Trainer,
                          augmented_reward, awr_update, fit_value,
                          gae_advantages, ppo_update, value_features)
from coso.policy import FeatureSpec, PolicyParams
from coso.scm import AdamState, ScmParams
from coso.textmdp import EnvState, make_env, state_arrays


def small_hyper(**kw):
    base = dict(rollout_steps=64, num_envs=8, scm_steps=4, alpha=0.1)
    base.update(kw)
    return Hyperparams(**base)


def weighted_entropy(entropies, weights):
    """Dot product of per-token entropies with causal weights."""
    h = np.asarray(entropies, dtype=np.float64)
    b = np.asarray(weights, dtype=np.float64)
    if h.shape != b.shape:
        raise ValueError(f"length mismatch: {h.shape} vs {b.shape}")
    return float(np.dot(h, b))


def group_of_one(policy):
    """A run's policy as a stack of one run, as the updates take it."""
    return PolicyParams(spec=policy.spec, weights=policy.weights[None])


def test_weighted_entropy_value():
    val = weighted_entropy([0.5, 0.2, 1.0], [0.01, 0.01, 1.0])
    assert val == pytest.approx(0.005 + 0.002 + 1.0, abs=1e-15)


def test_weighted_entropy_unit_weights_is_sum():
    h = np.array([0.3, 0.7, 1.1])
    assert weighted_entropy(h, np.ones(3)) == pytest.approx(h.sum())


def test_weighted_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        weighted_entropy([0.5, 0.2], [1.0, 1.0, 1.0])


def test_augmented_reward_value():
    val = augmented_reward(-0.01, 1.007, alpha=1.0, gamma=0.99)
    assert val == pytest.approx(-0.01 + 0.99 * 1.007, abs=1e-12)


def test_augmented_reward_alpha_zero_exact():
    r = -0.013
    assert augmented_reward(r, 123.4, alpha=0.0, gamma=0.99) == r


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(alpha=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        Trainer(make_env("numberline"), Hyperparams(), seed=0, arm="bogus")


@pytest.mark.parametrize("field, bad", [
    ("entropy_placement", "loss-bonus"),  # a typo once disabled the bonus
    ("entropy_placement", "none"),
])
def test_hyperparam_enum_validation(field, bad):
    with pytest.raises(ValueError, match=field):
        Hyperparams(**{field: bad})


def test_hyperparam_size_validation():
    with pytest.raises(ValueError, match="multiple"):
        Hyperparams(rollout_steps=100, num_envs=16)
    for name in ("rollout_steps", "num_envs", "minibatch_size",
                 "scm_batch_size", "ppo_epochs"):
        for bad in (0, -16):
            with pytest.raises(ValueError, match=name):
                Hyperparams(**{name: bad})


@pytest.mark.parametrize("field, bad", [
    ("awr_weight_clamp", 0.0),  # every AWR weight clipped to 0: no step
    ("awr_beta", 0.0),
    ("awr_beta", -1.0),  # inverts the advantage weighting
    ("policy_lr", 0.0),
    ("policy_lr", -0.05),  # climbs the loss
    ("scm_lr", 0.0),
    ("scm_lr", -1e-3),
    ("gae_lambda", -0.1),
    ("gae_lambda", 1.5),
    ("value_ridge", 0.0),  # singular value fit at the first update
    ("context", -1),  # IndexError mid-iteration
    ("scm_steps", 0),  # reported as a diverged SCM update
])
def test_hyperparam_range_validation(field, bad):
    with pytest.raises(ValueError, match=field):
        Hyperparams(**{field: bad})


# -- value baseline and advantages -------------------------------------------


def synthetic_batch(rewards, dones, spec, num_streams=1):
    m = len(rewards)
    states = np.zeros((m, 1), dtype=np.intp)
    return RolloutBatch(
        states=states, next_states=states,
        utterances=np.ones((m, spec.n), dtype=np.intp),
        action_idx=np.zeros(m, dtype=np.intp),
        rewards=np.asarray(rewards, dtype=np.float64),
        dones=np.asarray(dones, dtype=bool),
        parse_ok=np.ones(m, dtype=bool),
        old_logprob=np.zeros((m, spec.n)),
        entropy=np.zeros((m, spec.n)),
        num_streams=num_streams, snapshot_id=(0,))


def test_gae_with_zero_baseline_matches_hand_computation():
    spec = FeatureSpec(state_cards=(1,), vocab_size=4, n=2)
    batch = synthetic_batch([1.0, 0.0, 2.0], [False, False, True], spec)
    gamma, lam = 0.9, 0.5
    beta = np.zeros((1, 2))
    adv = gae_advantages(value_features(spec, batch), batch, gamma, lam,
                         beta)
    # deltas are just the rewards when the baseline is zero
    a2 = 2.0
    a1 = 0.0 + gamma * lam * a2
    a0 = 1.0 + gamma * lam * a1
    np.testing.assert_allclose(adv, [a0, a1, a2], atol=1e-12)


def test_gae_resets_across_episode_boundary():
    spec = FeatureSpec(state_cards=(1,), vocab_size=4, n=2)
    batch = synthetic_batch([0.0, 5.0, 0.0], [False, True, False], spec)
    adv = gae_advantages(value_features(spec, batch), batch, 0.9, 0.95,
                         np.zeros((1, 2)))
    assert adv[2] == 0.0  # nothing from the earlier episode leaks forward


def test_fit_value_recovers_constant_reward_value():
    # single absorbing-style stream of constant rewards: V = r / (1 - gamma)
    spec = FeatureSpec(state_cards=(1,), vocab_size=4, n=2)
    m, gamma = 400, 0.9
    batch = synthetic_batch([1.0] * m, [False] * m, spec)
    beta, feats = np.zeros((1, 2)), value_features(spec, batch)
    for _ in range(200):
        beta = fit_value(feats, batch, gamma, ridge=1e-8, prev_beta=beta)
    value = beta[0, 0] + beta[0, 1]  # one-hot state feature plus bias
    assert value == pytest.approx(1.0 / (1 - gamma), rel=1e-2)


# -- optimizer updates --------------------------------------------------------


def fresh_rollout(seed=0, arm="coso", **hkw):
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(**hkw), seed=seed, arm=arm)
    batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    return tr, batch


def test_ppo_first_pass_ratios_are_one():
    # at alpha 0 and unit advantages, the loss at call start is minus the
    # mean ratio
    tr, batch = fresh_rollout(arm="rl")
    _, (loss,), _ = ppo_update(
        group_of_one(tr.policy), batch, [tr.hyper], np.ones(batch.size),
        [AdamState()], [np.random.default_rng(0)], snapshot_id=[0])
    assert abs(loss + 1.0) <= 1e-9


def test_ppo_rejects_stale_snapshot():
    tr, batch = fresh_rollout()
    with pytest.raises(ValueError):
        ppo_update(group_of_one(tr.policy), batch, [tr.hyper],
                   np.zeros(batch.size), [AdamState()],
                   [np.random.default_rng(0)], snapshot_id=[7])


def test_ppo_zero_advantage_zero_alpha_keeps_params():
    tr, batch = fresh_rollout(arm="rl")
    params, _, (gnorm,) = ppo_update(
        group_of_one(tr.policy), batch, [tr.hyper], np.zeros(batch.size),
        [AdamState()], [np.random.default_rng(0)], snapshot_id=[0])
    assert gnorm == 0.0
    np.testing.assert_array_equal(params.weights[0], tr.policy.weights)


def test_awr_exp_weight_clamped():
    hp = small_hyper(awr_beta=1.0, awr_weight_clamp=20.0)
    w = np.clip(np.exp(np.array([50.0]) / hp.awr_beta), 0.0,
                hp.awr_weight_clamp)
    assert w[0] == 20.0
    tr, batch = fresh_rollout(awr_beta=1.0, awr_weight_clamp=20.0)
    adv = np.full(batch.size, 50.0)
    params, _, _ = awr_update(
        group_of_one(tr.policy), batch, [tr.hyper], adv, [AdamState()],
        [np.random.default_rng(0)])
    assert np.any(params.weights[0] != tr.policy.weights)


# -- degeneracy identities ----------------------------------------------------


def run_iterations(arm, seed=0, iters=3, **hkw):
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(**hkw), seed=seed, arm=arm)
    reports = [tr.train_iteration()[0] for _ in range(iters)]
    return tr, reports


def constant_causal_weights(monkeypatch):
    """Patch cf.causal_weights_batch to weigh every token 0.5, which
    max-normalizes to B = 1; returns the list of the SCMs it was asked."""
    asked = []

    def constant(phi, ys, actions):
        asked.append(phi)
        return np.full(np.shape(ys), 0.5)
    monkeypatch.setattr(cf, "causal_weights_batch", constant)
    return asked


def assert_untrained_scm(tr):
    """tr's classifier is its initial one: zero weights and biases, and
    Adam at step 0."""
    env, phi = tr.env, tr.scm
    zero = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    for got, want in ((phi.weights, zero.weights), (phi.bias, zero.bias)):
        assert got.tobytes() == want.tobytes()
    assert phi.opt_w.step == phi.opt_b.step == 0


def test_constant_causal_weights_match_rl_h_bitwise(monkeypatch):
    asked = constant_causal_weights(monkeypatch)
    env = make_env("numberline")
    a = Trainer(env, small_hyper(), seed=3, arm="rl_h")
    b = Trainer(env, small_hyper(), seed=3, arm="coso")
    for _ in range(3):
        a.train_iteration()
        b.train_iteration()
    assert len(asked) == 3
    np.testing.assert_array_equal(a.policy.weights, b.policy.weights)
    # rl_h trains no classifier, but draws its rows: one generator state
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert_untrained_scm(a)


def test_alpha_zero_updates_independent_of_weights():
    # coso's classifier weights against rl_h's B = 1, both at alpha 0
    env = make_env("numberline")
    a = Trainer(env, small_hyper(alpha=0.0), seed=5, arm="coso")
    b = Trainer(env, small_hyper(alpha=0.0), seed=5, arm="rl_h")
    for _ in range(3):
        (ra,), (rb,) = a.train_iteration(), b.train_iteration()
        assert ra.mean_weighted_entropy != rb.mean_weighted_entropy
    np.testing.assert_array_equal(a.policy.weights, b.policy.weights)


@pytest.mark.parametrize("arm, constant", [("rl", False), ("rl_h", False),
                                           ("coso", True), ("coso", False)])
def test_only_coso_weights_query_the_classifier(arm, constant, monkeypatch):
    """A coso run makes one causal_weights_batch call per batch and its B
    is the normalized causal weights, bit for bit (ones, rl_h's B, when
    the weights are constant); every other run makes none, and its B is
    ones and its hb the plain entropy sum."""
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(), seed=6, arm=arm)
    tr.train_iteration()  # coso: a trained classifier; rl, rl_h: still zero
    if constant:
        constant_causal_weights(monkeypatch)
    calls = []
    original = cf.causal_weights_batch

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(cf, "causal_weights_batch", counting)
    batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    if arm == "coso":
        assert len(calls) == 1 and calls[0][0] is tr.scm
        want = cf.normalize_weights_batch(
            original(tr.scm, batch.utterances, batch.action_idx))
        assert np.any(want != 1.0) != constant
    else:
        assert calls == []
        want = np.ones(batch.utterances.shape)
    assert batch.weights.dtype == want.dtype
    assert batch.weights.tobytes() == want.tobytes()
    assert batch.hb.tobytes() == np.sum(want * batch.entropy,
                                        axis=1).tobytes()


def test_rl_arm_forces_alpha_zero():
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(alpha=0.7), seed=0, arm="rl")
    assert tr.hyper.alpha == 0.0
    rep, = tr.train_iteration()
    assert rep.mean_weighted_entropy is None


# -- the training iteration ---------------------------------------------------


def test_train_iteration_deterministic():
    _, r1 = run_iterations("coso", seed=11)
    tr1, _ = run_iterations("coso", seed=11)
    tr2, r2 = run_iterations("coso", seed=11)
    np.testing.assert_array_equal(tr1.policy.weights, tr2.policy.weights)
    assert [r.mean_return for r in r1] == [r.mean_return for r in r2]


def check_phase_order(runs, monkeypatch):
    """Rollout, each run's causal weights on its own batch, SCM update,
    policy update."""
    calls = []
    for owner, method, name in ((Trainer, "collect_rollouts", "rollout"),
                                (Trainer, "compute_weights", "weights"),
                                (Trainer, "update_scm", "scm_update"),
                                (Trainer, "update_policy", "policy_update")):
        def recording(self, *args, _orig=getattr(owner, method),
                      _name=name, **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(owner, method, recording)
    env = make_env("numberline")
    trainers = [Trainer(env, small_hyper(), seed=s) for s in range(runs)]
    trainers[0].train_iteration(*trainers[1:])
    assert calls == ["rollout"] + ["weights"] * runs + ["scm_update",
                                                        "policy_update"]


def test_phase_order_scm_before_policy(monkeypatch):
    check_phase_order(1, monkeypatch)


def test_phase_order_in_a_lockstep_group(monkeypatch):
    check_phase_order(2, monkeypatch)


def test_buffer_size_and_env_step_accounting():
    tr, reports = run_iterations("coso", iters=2)
    assert reports[0].env_steps == 64
    assert reports[1].env_steps == 128
    assert tr.total_env_steps == 128
    assert tr.collect_rollouts()[0].size == 64  # the buffer: one rollout
    assert tr.total_env_steps == 192


def test_weighted_entropy_within_bound():
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(), seed=2, arm="coso")
    batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    n = env.grammar.n
    cap = np.max(batch.weights, axis=1) * n * np.log(env.vocab.size - 1)
    assert np.all(batch.hb >= 0.0)
    assert np.all(batch.hb <= cap + 1e-12)
    np.testing.assert_allclose(
        batch.hb, [weighted_entropy(h, b)
                   for h, b in zip(batch.entropy, batch.weights)],
        rtol=1e-14, atol=0)


def test_reward_bonus_placement_augments_rewards():
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(entropy_placement="reward_bonus",
                                  alpha=0.5), seed=4, arm="coso")
    batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    out = coso_rl._augment_rewards(batch, [tr.hyper.alpha], 0.99)
    ns = batch.num_streams
    for j in range(batch.size):
        nxt = j + ns
        if batch.dones[j] or nxt >= batch.size:
            assert out[j] == batch.rewards[j]
        else:
            expect = batch.rewards[j] + 0.99 * 0.5 * batch.hb[nxt]
            assert out[j] == pytest.approx(expect, abs=1e-12)


def test_loss_bonus_vs_reward_bonus_both_learn_shapes():
    # smoke check: one iteration under each placement runs and reports finite
    for placement in ("loss_bonus", "reward_bonus"):
        env = make_env("numberline")
        tr = Trainer(env, small_hyper(entropy_placement=placement), seed=6)
        rep, = tr.train_iteration()
        assert np.isfinite(rep.policy_loss)
        assert np.isfinite(rep.scm_loss)


def test_only_coso_runs_report_an_scm_loss(monkeypatch):
    """A baseline's scm_loss is None and passes the divergence check; a
    coso run's NaN loss still aborts the iteration."""
    env = make_env("numberline")
    lead, *others = [Trainer(env, small_hyper(), seed=0, arm=arm)
                     for arm in ("rl", "rl_h", "coso")]
    reports = lead.train_iteration(*others)
    assert [r.scm_loss is None for r in reports] == [True, True, False]
    assert np.isfinite(reports[2].scm_loss)
    original = scm_mod.train_scm

    def nan_losses(*args, **kw):
        phis, losses = original(*args, **kw)
        return phis, [float("nan")] * len(losses)
    monkeypatch.setattr(scm_mod, "train_scm", nan_losses)
    with pytest.raises(RuntimeError, match="SCM update diverged"):
        lead.train_iteration(*others)
    rl, rl_h = (Trainer(env, small_hyper(), seed=0, arm=arm)
                for arm in ("rl", "rl_h"))
    assert [r.scm_loss for r in rl.train_iteration(rl_h)] == [None, None]


def test_invalid_rate_reported():
    _, reports = run_iterations("coso", iters=1)
    assert 0.0 <= reports[0].invalid_rate <= 1.0
    # zero-weight policy is uniform: most random utterances fail to parse
    assert reports[0].invalid_rate > 0.5


def test_learning_progress_on_numberline():
    env = make_env("numberline")
    tr = Trainer(env, Hyperparams(alpha=0.0), seed=1, arm="rl")
    first = tr.train_iteration()[0].mean_return
    for _ in range(80):
        rep, = tr.train_iteration()
    assert rep.mean_return > first + 0.05


# -- array rollouts and vectorized recursions against per-row references ------


def scalar_rollouts(tr):
    """The per-row loop the array rollouts replace: EnvState streams,
    parse_or_noop, action_index and the scalar step; each tick's token
    statistics come from teacher forcing that tick alone."""
    env, ns, n = tr.env, tr.hyper.num_envs, tr.policy.spec.n
    tr._start_streams()
    streams = [EnvState(features=tuple(f), step_count=int(t))
               for f, t in zip(tr._feats.tolist(), tr._steps)]
    rows = []
    for _ in range(tr.hyper.rollout_steps // ns):
        cur = list(streams)
        toks = pol.sample_utterances_batch(tr.policy, cur,
                                           tr.rng.random((n, ns)).T)
        _, _, lp, ent = pol.teacher_forced_batch(tr.policy, cur, toks)
        for s_i, (st, y) in enumerate(zip(cur, toks.tolist())):
            action, ok = env.parse_or_noop(y)
            nxt, r, done = env.step(st, action)
            rows.append((st.features, nxt.features, y,
                         env.action_index(action), r, done, ok,
                         lp[s_i], ent[s_i]))
            streams[s_i] = tr._fresh_state() if done else nxt
    tr._feats, tr._steps = state_arrays(streams)
    cols = list(zip(*rows))
    return [np.array(c) for c in cols]


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_array_rollouts_match_scalar_reference(env_id):
    env = make_env(env_id)
    hyper = small_hyper(rollout_steps=96, num_envs=8)
    fast = Trainer(env, hyper, seed=9)
    ref = Trainer(env, hyper, seed=9)
    weights = np.random.default_rng(0).normal(0, 1.5,
                                              fast.policy.weights.shape)
    fast.policy.weights[:] = weights
    ref.policy.weights[:] = weights
    done_rows = 0
    for _ in range(4):  # 48 ticks: episodes end by success and by horizon
        batch, _ = fast.collect_rollouts()
        want = scalar_rollouts(ref)
        got = [batch.states, batch.next_states, batch.utterances,
               batch.action_idx, batch.rewards, batch.dones, batch.parse_ok,
               batch.old_logprob, batch.entropy]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(fast._feats, ref._feats)
        np.testing.assert_array_equal(fast._steps, ref._steps)
        done_rows += int(batch.dones.sum())
    assert fast._episode_counter == ref._episode_counter
    assert done_rows > 0


def reference_returns(batch, gamma, boot):
    """fit_value's returns-to-go, stream by stream and row by row."""
    m, ns = batch.size, batch.num_streams
    returns = np.zeros(m)
    for s in range(ns):
        g = 0.0
        last = True
        for j in (np.arange(m // ns) * ns + s)[::-1]:
            if batch.dones[j]:
                g = batch.rewards[j]
            elif last:
                g = batch.rewards[j] + gamma * boot[j]
            else:
                g = batch.rewards[j] + gamma * g
            returns[j] = g
            last = False
    return returns


def reference_gae(batch, gamma, lam, v, v_next):
    m, ns = batch.size, batch.num_streams
    adv = np.zeros(m)
    for s in range(ns):
        acc = 0.0
        for j in (np.arange(m // ns) * ns + s)[::-1]:
            nonterm = 0.0 if batch.dones[j] else 1.0
            delta = batch.rewards[j] + gamma * nonterm * v_next[j] - v[j]
            acc = delta + gamma * lam * nonterm * acc
            adv[j] = acc
    return adv


def test_recursions_match_row_by_row_references():
    env = make_env("numberline")
    tr = Trainer(env, small_hyper(entropy_placement="reward_bonus",
                                  alpha=0.5), seed=4)
    tr.policy.weights[:] = np.random.default_rng(1).normal(
        0, 1.5, tr.policy.weights.shape)
    batch, _ = tr.collect_rollouts()
    while not batch.dones.any():  # the horizon is 20 ticks away at most
        batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    spec, gamma = tr.policy.spec, 0.99
    beta = np.random.default_rng(2).normal(size=sum(spec.state_cards) + 1)
    v = coso_rl._value_features(spec, batch.states) @ beta
    v_next = coso_rl._value_features(spec, batch.next_states) @ beta
    feats = value_features(spec, batch)
    np.testing.assert_array_equal(
        gae_advantages(feats, batch, gamma, 0.95, beta[None]),
        reference_gae(batch, gamma, 0.95, v, v_next))
    F = coso_rl._value_features(spec, batch.states)
    A = F.T @ F + 1e-2 * np.eye(F.shape[1])
    for prev, boot in ((np.zeros_like(beta), np.zeros(batch.size)),
                       (beta, v_next)):
        want = np.linalg.solve(A, F.T @ reference_returns(batch, gamma, boot))
        np.testing.assert_array_equal(
            fit_value(feats, batch, gamma, 1e-2, prev[None])[0], want)
    want = batch.rewards.copy()
    for j in range(batch.size - batch.num_streams):
        if not batch.dones[j]:
            want[j] = augmented_reward(batch.rewards[j],
                                       batch.hb[j + batch.num_streams],
                                       0.5, gamma)
    np.testing.assert_array_equal(
        coso_rl._augment_rewards(batch, [tr.hyper.alpha], gamma), want)


def random_policy_rollout(**hkw):
    env = make_env("menunav")
    tr = Trainer(env, small_hyper(**hkw), seed=12)
    tr.policy.weights[:] = np.random.default_rng(3).normal(
        0, 1.0, tr.policy.weights.shape)
    batch, _ = tr.collect_rollouts()
    tr.compute_weights(batch)
    return tr, batch


def run_update(optimizer, tr, batch):
    """The run's new policy weights after one update as a group of one."""
    adv = np.random.default_rng(5).normal(size=batch.size)
    args = (group_of_one(tr.policy), batch, [tr.hyper], adv, [AdamState()],
            [np.random.default_rng(6)])
    if optimizer == "ppo":
        return ppo_update(*args, snapshot_id=[0])[0].weights[0]
    return awr_update(*args)[0].weights[0]


def test_rollouts_teacher_force_once(monkeypatch):
    """The decoder records each token's distribution as it samples, so the
    rollout teacher-forces nothing; the batch's log-probs and entropies
    equal one teacher-forcing pass over the finished batch, bit for bit."""
    env = make_env("menunav")
    tr = Trainer(env, small_hyper(rollout_steps=64, num_envs=8), seed=2)
    tr.policy.weights[:] = np.random.default_rng(4).normal(
        0, 1.0, tr.policy.weights.shape)
    calls = count_forcing(monkeypatch)
    batch, _ = tr.collect_rollouts()
    assert calls == []
    _, _, lps, ents = pol.teacher_forced_batch(tr.policy, batch.states,
                                               batch.utterances)
    assert batch.old_logprob.tobytes() == lps.tobytes()
    assert batch.entropy.tobytes() == ents.tobytes()


def group_policy(trainers):
    return PolicyParams(spec=trainers[0].policy.spec, weights=np.stack(
        [tr.policy.weights for tr in trainers]))


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
@pytest.mark.parametrize("env_id, arms, seeds", [
    ("numberline", ("rl", "rl_h", "coso"), (0, 1, 2)),
    ("menunav", ("coso",), (3,)),
])
def test_recorded_forcing_equals_teacher_forcing(env_id, arms, seeds,
                                                 optimizer, monkeypatch):
    """The forcing a rollout records while sampling is teacher_forced_batch
    of its batch at the sampling policies, bit for bit: for a group of
    runs with policies of their own (the run-offset path) and a run alone,
    on every iteration as training moves the policies.  The second weight
    scale saturates the policies, so the recorded rows hold probabilities
    of exactly 0 and log-probs far below exp's underflow."""
    env = make_env(env_id)
    original = Trainer.collect_rollouts
    checked, saturated = [], []

    def collect_rollouts(self, *others):
        policy = group_policy([self, *others])
        batch, forced = original(self, *others)
        want = pol.teacher_forced_batch(policy, batch.states,
                                        batch.utterances)
        for got, ref in zip(forced, want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert batch.old_logprob is forced[2]
        assert batch.entropy is forced[3]
        probs, logprobs = forced[:2]
        saturated.append(np.any(probs[..., 1:] == 0.0)
                         and logprobs[..., 1:].min() < -745.0)
        checked.append(batch.size)
        return batch, forced
    monkeypatch.setattr(Trainer, "collect_rollouts", collect_rollouts)
    rng = np.random.default_rng(7)
    for scale in (1.0, 200.0):
        trainers = [Trainer(env, small_hyper(rollout_steps=128, num_envs=16),
                            seed=seed, arm=arm, optimizer=optimizer)
                    for arm in arms for seed in seeds]
        for tr in trainers:
            tr.policy.weights[:] = rng.normal(0, scale,
                                              tr.policy.weights.shape)
        lead, *others = trainers
        for _ in range(3):
            lead.train_iteration(*others)
        assert lead.snapshot_id == 3
    assert checked == [128 * len(trainers)] * 6
    assert saturated[3:] == [True] * 3


def test_train_iteration_rejects_non_finite_weights():
    """A non-finite policy weight fails the rollout's decode with
    ValueError, not a later parse of a NULL token; for a group, whichever
    run holds it."""
    env = make_env("numberline")
    for bad in range(3):
        trainers = [Trainer(env, small_hyper(), seed=s) for s in range(3)]
        trainers[bad].policy.weights[5, 2] = np.nan
        trainers[bad].policy.weights[7, 3] = np.inf
        lead, *others = trainers
        with pytest.raises(ValueError, match="policy weights are not "
                                             "finite"):
            lead.train_iteration(*others)
    alone = Trainer(env, small_hyper(), seed=0)
    alone.policy.weights[0, 1] = -np.inf
    with pytest.raises(ValueError, match="policy weights are not finite"):
        alone.train_iteration()


def test_sample_utterances_batch_rejects_a_misshapen_output():
    env = make_env("menunav")
    spec = FeatureSpec.for_env(env)
    params = PolicyParams.zeros(spec)
    states = [env.reset(0)] * 4
    u = np.random.default_rng(0).random((4, spec.n))
    good = np.empty((2, 2, spec.n, spec.vocab_size))
    for bad in ((3, spec.n, spec.vocab_size), (4, spec.n + 1, spec.vocab_size),
                (4, spec.n, spec.vocab_size - 1),
                (4, spec.n - 1, spec.vocab_size)):  # not good's n positions
        with pytest.raises(ValueError, match="output of shape"):
            pol.sample_utterances_batch(params, states, u,
                                        out=(good, np.empty(bad)))
    with pytest.raises(ValueError, match="output of shape"):
        pol.sample_utterances_batch(params, states, u, out=tuple(
            np.empty((4, spec.n - 2, spec.vocab_size)) for _ in range(2)))
    toks = pol.sample_utterances_batch(params, states, u,
                                       out=(good, np.empty_like(good)))
    np.testing.assert_array_equal(
        good.reshape(4, spec.n, -1),
        pol.teacher_forced_batch(params, states, toks)[0])


@pytest.mark.parametrize("runs", [1, 3])
def test_tick_records_are_the_forcing(runs):
    """(..., n, V) records written tick by tick, as collect_rollouts writes
    them, are teacher forcing bit for bit; a record of n - 1 positions is
    rejected."""
    env = make_env("numberline")
    spec = FeatureSpec.for_env(env)
    rng = np.random.default_rng(runs)
    params = PolicyParams(spec=spec, weights=rng.normal(
        0, 2.0, (runs, spec.dim, spec.vocab_size)))
    ticks, ns = 5, 4
    feats = np.stack([rng.integers(0, c, (runs, ticks, ns))
                      for c in spec.state_cards], -1)
    record = np.empty((2, runs, ticks, ns, spec.n, spec.vocab_size))
    toks = np.empty((runs, ticks, ns, spec.n), dtype=np.intp)
    tables = pol.decode_tables(params)
    for t in range(ticks):
        u = rng.random((runs * ns, spec.n))
        tick_feats = feats[:, t].reshape(runs * ns, -1)
        with pytest.raises(ValueError, match="output of shape"):
            pol.sample_utterances_batch(tables, tick_feats, u,
                                        out=tuple(record[:, :, t, :, 1:]))
        toks[:, t] = pol.sample_utterances_batch(
            tables, tick_feats, u,
            out=tuple(record[:, :, t])).reshape(runs, ns, -1)
    feats = feats.reshape(-1, len(spec.state_cards))
    want = pol.teacher_forced_batch(params, feats, toks.reshape(-1, spec.n))
    for got, ref in zip(record, want):
        assert got.reshape(ref.shape).tobytes() == ref.tobytes()


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
@pytest.mark.parametrize("minibatch_size, calls", [(64, 1), (16, 4)])
def test_update_teacher_forces_once_per_param_state(optimizer, minibatch_size,
                                                    calls, monkeypatch):
    """One full-batch pass serves the loss and the first minibatch; each
    later minibatch sees moved params and teacher-forces its own rows."""
    tr, batch = random_policy_rollout(rollout_steps=64, num_envs=8,
                                      minibatch_size=minibatch_size)
    forcings = count_forcing(monkeypatch)
    run_update(optimizer, tr, batch)
    assert len(forcings) == calls


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_minibatches_match_recompute_reference(optimizer, monkeypatch):
    tr, batch = random_policy_rollout(rollout_steps=256, num_envs=16,
                                      minibatch_size=64)
    fast = run_update(optimizer, tr, batch)
    original = pol.grad_objective
    # the reference teacher-forces every minibatch itself
    monkeypatch.setattr(pol, "grad_objective",
                        lambda *a, forced=None, **kw: original(*a, **kw))
    ref = run_update(optimizer, tr, batch)
    assert np.any(fast != tr.policy.weights)
    np.testing.assert_array_equal(fast, ref)


# -- one teacher-forcing pass per iteration -----------------------------------


def count_forcing(monkeypatch):
    """The rows of each teacher-forcing pass, public or inside
    grad_objective: every one runs policy._teacher_force."""
    calls = []
    original = pol._teacher_force

    def counting(params, sid, toks):
        calls.append(len(sid))
        return original(params, sid, toks)
    monkeypatch.setattr(pol, "_teacher_force", counting)
    return calls


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_train_iteration_teacher_forces_once(optimizer, monkeypatch):
    """With one epoch and one minibatch the update takes the forcing the
    rollout recorded while sampling, and neither teacher-forces."""
    env = make_env("menunav")
    tr = Trainer(env, small_hyper(rollout_steps=64, num_envs=8,
                                  minibatch_size=64, ppo_epochs=1),
                 seed=2, optimizer=optimizer)
    calls = count_forcing(monkeypatch)
    for _ in range(3):
        tr.train_iteration()
    assert calls == []


def reference_update_policy(tr, batch):
    """Trainer.update_policy for a run alone as it was with two passes:
    ppo_update and awr_update get forced=None and teacher-force the batch
    themselves."""
    hyper = tr.hyper
    spec = tr.policy.spec
    rewards = batch.rewards
    if hyper.alpha > 0.0 and hyper.entropy_placement == "reward_bonus":
        rewards = coso_rl._augment_rewards(batch, [hyper.alpha],
                                           hyper.gamma)
        batch = replace(batch, rewards=rewards)
    feats = value_features(spec, batch)
    beta = fit_value(feats, batch, hyper.gamma, hyper.value_ridge,
                     tr.value_beta[None])
    tr.value_beta = beta[0]
    adv = gae_advantages(feats, batch, hyper.gamma, hyper.gae_lambda, beta)
    adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)
    params = group_of_one(tr.policy)
    args = (batch, [hyper], adv, [tr.policy_opt], [tr.rng])
    if tr.optimizer == "ppo":
        for _ in range(hyper.ppo_epochs):
            params, loss, gnorm = ppo_update(
                params, *args, [tr.snapshot_id], forced=None)
    else:
        params, loss, gnorm = awr_update(params, *args, forced=None)
    tr.policy = PolicyParams(spec=spec, weights=params.weights[0])
    tr.snapshot_id += 1
    return loss[0], gnorm[0]


@pytest.mark.parametrize("env_id, optimizer, hkw", [
    ("menunav", "ppo", dict(ppo_epochs=2, minibatch_size=64)),
    ("numberline", "ppo", dict(ppo_epochs=2, minibatch_size=64)),
    ("menunav", "awr", dict(minibatch_size=64)),
    ("numberline", "awr", dict(minibatch_size=256)),
    ("numberline", "ppo", dict(entropy_placement="reward_bonus", alpha=0.5)),
])
def test_train_iterations_match_two_pass_reference(env_id, optimizer, hkw,
                                                   monkeypatch):
    hyper = small_hyper(rollout_steps=256, num_envs=16, **hkw)
    fast = Trainer(make_env(env_id), hyper, seed=8, optimizer=optimizer)
    ref = Trainer(make_env(env_id), hyper, seed=8, optimizer=optimizer)
    # ref's iterations take the reference policy update, fast's the real one
    original, used = Trainer.update_policy, []

    def update_policy(tr, batch, *others, forced=None):
        if [tr, *others] != [ref]:
            return original(tr, batch, *others, forced=forced)
        used.append(ref)
        return [reference_update_policy(ref, batch)]
    monkeypatch.setattr(Trainer, "update_policy", update_policy)
    start = fast.policy.weights.copy()
    for _ in range(4):
        got, want = fast.train_iteration(), ref.train_iteration()
        assert got == want
    assert len(used) == 4
    assert np.any(fast.policy.weights != start)
    for a, b in ((fast.policy.weights, ref.policy.weights),
                 (fast.policy_opt.m, ref.policy_opt.m),
                 (fast.policy_opt.v, ref.policy_opt.v),
                 (fast.value_beta, ref.value_beta),
                 (fast.scm.weights, ref.scm.weights),
                 (fast._feats, ref._feats)):
        np.testing.assert_array_equal(a, b)
    assert fast.snapshot_id == ref.snapshot_id
    assert (fast.rng.bit_generator.state == ref.rng.bit_generator.state)


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_update_outside_train_iteration_teacher_forces_once(optimizer,
                                                            monkeypatch):
    """An update not handed the rollout's forcing teacher-forces its batch
    afresh, once, even right after a rollout."""
    tr, batch = fresh_rollout(minibatch_size=64)
    tr.optimizer = optimizer
    calls = count_forcing(monkeypatch)
    tr.update_policy(batch)
    assert calls == [64]


@pytest.mark.parametrize("optimizer", ["ppo", "awr"])
def test_train_iteration_frees_the_rollout_forcing(optimizer, monkeypatch):
    """The rollout's forcing lives only until the iteration's update: once
    train_iteration returns, its arrays are freed, with no garbage
    collection."""
    env = make_env("numberline")
    original, refs = Trainer.collect_rollouts, []

    def collect_rollouts(self, *others):
        batch, forced = original(self, *others)
        refs.extend(weakref.ref(a) for a in forced)
        refs.extend(weakref.ref(a.base) for a in forced[:2])
        return batch, forced
    monkeypatch.setattr(Trainer, "collect_rollouts", collect_rollouts)
    for runs in (1, 2):
        group = [Trainer(env, small_hyper(), seed=s, optimizer=optimizer)
                 for s in range(runs)]
        refs.clear()
        group[0].train_iteration(*group[1:])
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)


def test_training_iterations_reuse_freed_heap_memory():
    """Once the heap thresholds are set, steady-state iterations take their
    arrays from memory that earlier iterations freed: no page faults.
    Without them a menunav iteration faults in 0.2-0.4k pages."""
    import resource

    from coso import heap
    if not heap.keep_heap():
        pytest.skip("the C library has no mallopt")
    assert heap.keep_heap()  # one setting per process; later calls agree
    cfg = Hyperparams(rollout_steps=256, num_envs=16, minibatch_size=256,
                      alpha=0.3)
    tr = Trainer(make_env("menunav"), cfg, seed=0)
    for _ in range(5):
        tr.train_iteration()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        tr.train_iteration()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * 20


def count_table_builds(monkeypatch):
    """Wrap policy.decode_tables; returns the list of params it is given."""
    built = []
    original = pol.decode_tables

    def counting(params):
        built.append(params)
        return original(params)
    monkeypatch.setattr(pol, "decode_tables", counting)
    return built


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_rollout_builds_tables_once_from_the_current_policy(env_id,
                                                            monkeypatch):
    env = make_env(env_id)
    tr = Trainer(env, small_hyper(policy_lr=0.15), seed=4)
    built = count_table_builds(monkeypatch)
    tr.train_iteration()  # rollout at the zero policy, then an update
    assert len(built) == 1 and not built[0].weights.any()
    updated = tr.policy
    assert updated.weights.any()
    feats = tr._feats.copy()
    rng_state = tr.rng.bit_generator.state
    batch, _ = tr.collect_rollouts()  # 8 ticks, one build
    # a group of one decodes from a stack of the run's current weights
    assert len(built) == 2 and built[1].weights.shape == (1,) + \
        updated.weights.shape
    np.testing.assert_array_equal(built[1].weights[0], updated.weights)
    # the first tick's tokens are those of the updated weights
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    ticks, ns = tr.hyper.rollout_steps // tr.hyper.num_envs, tr.hyper.num_envs
    u = rng.random((ticks, updated.spec.n, ns))[0].T
    first = batch.utterances[:ns]
    np.testing.assert_array_equal(
        first, pol.sample_utterances_batch(updated, feats, u))
    old = pol.PolicyParams.zeros(updated.spec)
    assert not np.array_equal(first,
                              pol.sample_utterances_batch(old, feats, u))


def test_seed_free_reset_builds_no_seed_sequence(monkeypatch):
    env = make_env("menunav")
    assert not env.reset_reads_seed and make_env("numberline").reset_reads_seed
    tr = Trainer(env, small_hyper(rollout_steps=160, num_envs=8), seed=3)
    assert tr._episode_counter == 0  # the first rollout draws the starts

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("SeedSequence built for a seed-free reset")
    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    batch, _ = tr.collect_rollouts()  # 20 ticks, twice the horizon
    assert tr._episode_counter == 8 + int(batch.dones.sum()) >= 16
    restarted = batch.dones[-8:]
    assert restarted.any()
    np.testing.assert_array_equal(
        tr._feats[restarted],
        np.tile(env.reset(0).features, (int(restarted.sum()), 1)))
