import dataclasses
import types

import numpy as np
import pytest

from coso import harness, tabular
from coso.tabular import (TabularMdp, TabularPolicy, action_dist,
                          bellman_backup, brute_force_optimal_q,
                          entropy_decomposition_check, policy_evaluation,
                          policy_evaluation_direct, policy_iteration,
                          policy_terms, random_mdp, soft_improve,
                          weighted_entropy_exact)


def random_B(rng, n):
    return rng.uniform(0.0, 1.0, size=n)


def discounted(mdp, gamma):
    """What bellman_backup reads of mdp (r, P and gamma) with another
    discount, which may be one TabularMdp rejects: the negative controls
    back up at 1.5."""
    return types.SimpleNamespace(r=mdp.r, P=mdp.P, gamma=gamma)


def expansive_pair_backups(monkeypatch, gamma=1.5):
    """Negative control: check_contraction backs up its stacked Q pairs at
    discount gamma, which is expansive above 1.  policy_evaluation's
    backups, of single (S, A) tables, keep the MDP's own discount: at 1.5
    it would iterate to max_iters."""
    original = tabular.bellman_backup

    def backup(mdp, Q, terms, alpha):
        if Q.ndim == 4:  # (q_pairs, 2, S, A)
            mdp = discounted(mdp, gamma)
        return original(mdp, Q, terms, alpha)
    monkeypatch.setattr(tabular, "bellman_backup", backup)


def test_uniform_policy_entropy_closed_form():
    pi = TabularPolicy.uniform(num_states=1, vocab_eff=3, n=2)
    h = weighted_entropy_exact(pi, np.ones(2))[0]
    assert h == pytest.approx(2.0 * np.log(3.0), abs=1e-12)


def test_weighted_entropy_scales_with_B():
    pi = TabularPolicy.uniform(num_states=1, vocab_eff=3, n=2)
    h = weighted_entropy_exact(pi, [0.25, 0.5])[0]
    assert h == pytest.approx(0.75 * np.log(3.0), abs=1e-12)


def test_deterministic_policy_zero_entropy():
    pi = TabularPolicy.uniform(num_states=1, vocab_eff=3, n=2)
    for i in range(2):
        t = np.zeros_like(pi.tables[i])
        t[:, :, 0] = 1.0
        pi.tables[i] = t
    assert weighted_entropy_exact(pi, np.ones(2))[0] == 0.0


def test_seq_probs_normalized():
    rng = np.random.default_rng(0)
    pi = TabularPolicy.random(num_states=2, vocab_eff=3, n=3, rng=rng)
    for s in range(2):
        p = pi.seq_probs()[s]
        assert p.shape == (27,)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_entropy_decomposition_random_policies():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ve = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        pi = TabularPolicy.random(num_states=1, vocab_eff=ve, n=n, rng=rng)
        _, _, diff = entropy_decomposition_check(pi, 0)
        assert diff <= 1e-10


def test_parse_table_shape_validated():
    with pytest.raises(ValueError):
        TabularMdp(num_states=1, num_actions=2, vocab_eff=2, n=2,
                   parse_table=np.zeros(3, dtype=np.intp),
                   P=np.ones((1, 2, 1)), r=np.zeros((1, 2)), gamma=0.9)


VALID_MDP = dict(num_states=2, num_actions=2, vocab_eff=2, n=2,
                 parse_table=np.array([0, 1, 1, 0], dtype=np.intp),
                 P=np.full((2, 2, 2), 0.5), r=np.zeros((2, 2)), gamma=0.9)


@pytest.mark.parametrize("field, value, message", [
    ("parse_table", np.array([-1, 1, 1, 0], dtype=np.intp), "parse table"),
    ("parse_table", np.array([0, 1, 2, 0], dtype=np.intp), "parse table"),
    ("parse_table", np.array([0.0, 1.0, 1.0, 0.0]), "parse table"),
    ("P", np.full((2, 2, 1), 1.0), "P must be"),
    ("P", np.array([[[1.5, -0.5], [0.5, 0.5]]] * 2), "P must be"),
    ("r", np.zeros(2), "r must be"),
    ("r", np.zeros((2, 3)), "r must be"),
    ("gamma", 1.0, "gamma"),
    ("gamma", 1.7, "gamma"),
    ("gamma", -0.1, "gamma"),
    ("gamma", float("nan"), "gamma"),
])
def test_mdp_rejects_bad_field(field, value, message):
    TabularMdp(**VALID_MDP)
    with pytest.raises(ValueError, match=message):
        TabularMdp(**{**VALID_MDP, field: value})


def test_transition_simplex_validated():
    with pytest.raises(ValueError):
        TabularMdp(num_states=1, num_actions=2, vocab_eff=2, n=2,
                   parse_table=np.zeros(4, dtype=np.intp),
                   P=np.full((1, 2, 1), 0.5), r=np.zeros((1, 2)), gamma=0.9)


# -- backup operator ----------------------------------------------------------


def test_gamma_zero_backup_is_reward():
    rng = np.random.default_rng(2)
    mdp = random_mdp(rng)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    Q = rng.normal(size=(mdp.num_states, mdp.num_actions))
    out = bellman_backup(dataclasses.replace(mdp, gamma=0.0), Q,
                         policy_terms(mdp, pi, random_B(rng, mdp.n)),
                         alpha=0.7)
    np.testing.assert_allclose(out, mdp.r, atol=1e-14)


def test_alpha_zero_backup_is_standard():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    Q = rng.normal(size=(mdp.num_states, mdp.num_actions))
    a = bellman_backup(mdp, Q, policy_terms(mdp, pi, np.zeros(mdp.n)),
                       alpha=0.0)
    b = bellman_backup(mdp, Q, policy_terms(mdp, pi, random_B(rng, mdp.n)),
                       alpha=0.0)
    np.testing.assert_array_equal(a, b)


def test_contraction_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mdp = random_mdp(rng)
        pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
        terms = policy_terms(mdp, pi, random_B(rng, mdp.n))
        for _ in range(100):
            Q1 = rng.normal(scale=3.0, size=(mdp.num_states, mdp.num_actions))
            Q2 = rng.normal(scale=3.0, size=(mdp.num_states, mdp.num_actions))
            d0 = np.max(np.abs(Q1 - Q2))
            t1 = bellman_backup(mdp, Q1, terms, alpha=0.5)
            t2 = bellman_backup(mdp, Q2, terms, alpha=0.5)
            d1 = np.max(np.abs(t1 - t2))
            assert d1 <= mdp.gamma * d0 + 1e-9


def reference_backup(mdp, Q, pi, B, alpha, gamma):
    """The backup at discount gamma built from scratch: every policy term
    recomputed per call."""
    h = weighted_entropy_exact(pi, B)
    d = action_dist(mdp, pi)
    ev = np.sum(d * Q, axis=1)
    return mdp.r + gamma * mdp.P @ (alpha * h + ev)


def test_backup_with_policy_terms_matches_reference():
    rng = np.random.default_rng(16)
    for k in range(20):
        mdp = random_mdp(rng, num_states=int(rng.integers(1, 6)),
                         num_actions=int(rng.integers(1, 4)),
                         vocab_eff=int(rng.integers(2, 4)),
                         n=int(rng.integers(1, 4)),
                         surjective_parse=False)
        pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
        B = random_B(rng, mdp.n)
        terms = policy_terms(mdp, pi, B)
        gamma = (mdp.gamma, 0.0, 1.5, float(rng.uniform(0.0, 1.0)))[k % 4]
        view = mdp if k % 4 == 0 else discounted(mdp, gamma)
        for alpha in (0.0, float(rng.uniform(0.0, 2.0))):
            for _ in range(3):
                Q = rng.normal(scale=3.0,
                               size=(mdp.num_states, mdp.num_actions))
                np.testing.assert_array_equal(
                    bellman_backup(view, Q, terms, alpha),
                    reference_backup(mdp, Q, pi, B, alpha, gamma))


def test_batched_backup_matches_per_q_calls():
    rng = np.random.default_rng(18)
    for gamma in (None, 0.0, 1.5):
        for _ in range(5):
            mdp = random_mdp(rng, num_states=int(rng.integers(1, 6)),
                             num_actions=int(rng.integers(1, 4)),
                             surjective_parse=False)
            pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n,
                                      rng)
            terms = policy_terms(mdp, pi, random_B(rng, mdp.n))
            alpha = float(rng.uniform(0.0, 2.0))
            Q = rng.uniform(-5, 5, size=(7, 2, mdp.num_states,
                                         mdp.num_actions))
            view = mdp if gamma is None else discounted(mdp, gamma)
            out = bellman_backup(view, Q, terms, alpha)
            assert out.shape == Q.shape
            for k in range(7):
                for j in range(2):
                    assert np.array_equal(
                        out[k, j], bellman_backup(view, Q[k, j], terms,
                                                  alpha))


def reference_check_contraction(spec, pair_gamma=None):
    """check_contraction one Q pair at a time: two draws, two backups, at
    discount pair_gamma if given."""
    worst = -np.inf
    failing = []
    for i in range(spec.instances):
        rng, inst_seed = harness._instance_rng(spec, "contraction", i)
        mdp = random_mdp(rng)
        policy = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n,
                                      rng)
        B = rng.uniform(0.0, 1.0, size=mdp.n)
        alpha = float(rng.uniform(0.0, 2.0))
        terms = policy_terms(mdp, policy, B)
        view = mdp if pair_gamma is None else discounted(mdp, pair_gamma)
        bad = False
        for _ in range(spec.q_pairs):
            shape = (mdp.num_states, mdp.num_actions)
            q1 = rng.uniform(-5, 5, size=shape)
            q2 = rng.uniform(-5, 5, size=shape)
            t1 = bellman_backup(view, q1, terms, alpha)
            t2 = bellman_backup(view, q2, terms, alpha)
            denom = float(np.max(np.abs(q1 - q2)))
            lip = float(np.max(np.abs(t1 - t2))) / denom
            excess = lip - mdp.gamma
            worst = max(worst, excess)
            if excess > spec.contraction_tol:
                bad = True
        q_iter, _ = policy_evaluation(mdp, policy, B, alpha, tol=1e-12)
        q_direct = policy_evaluation_direct(mdp, policy, B, alpha)
        if float(np.max(np.abs(q_iter - q_direct))) > spec.fixed_point_tol:
            bad = True
        if bad:
            failing.append(inst_seed)
    return harness.SuiteResult("contraction", not failing, worst, failing)


@pytest.mark.parametrize("seed,corrupt_gamma",
                         [(0, None), (1, None), (0, 1.5), (1, 1.5)])
def test_check_contraction_matches_per_pair_reference(seed, corrupt_gamma,
                                                      monkeypatch):
    spec = harness.TheoryCheckSpec(instances=50, seed=seed)
    want = reference_check_contraction(spec, pair_gamma=corrupt_gamma)
    if corrupt_gamma is not None:
        expansive_pair_backups(monkeypatch, corrupt_gamma)
    got = harness.check_contraction(spec)
    assert got.name == want.name
    assert got.passed == want.passed == (corrupt_gamma is None)
    assert float.hex(got.worst) == float.hex(want.worst)
    assert got.failing_seeds == want.failing_seeds


def test_theory_check_negative_control(monkeypatch):
    """Expansive pair backups (discount 1.5) fail the contraction suite, on
    its Lipschitz excess alone, and no other suite."""
    expansive_pair_backups(monkeypatch)
    spec = harness.TheoryCheckSpec(instances=5, q_pairs=10)
    results = harness.theory_check(spec)
    assert [(r.name, r.passed) for r in results] == [
        ("entropy_decomposition", True), ("contraction", False),
        ("improvement", True), ("iteration", True)]
    contraction = results[1]
    assert contraction.failing_seeds
    assert contraction.worst > spec.contraction_tol


def test_policy_evaluation_runs_only_in_the_contraction_check(monkeypatch):
    # the iteration is what the contraction check tests; everything else
    # evaluates policies by the direct solve
    calls = []
    original = tabular.policy_evaluation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tabular, "policy_evaluation", counting)
    spec = harness.TheoryCheckSpec(instances=4, q_pairs=5)
    harness.check_improvement(spec)
    harness.check_iteration(spec)
    mdp = random_mdp(np.random.default_rng(19))
    policy_iteration(mdp, random_B(np.random.default_rng(20), mdp.n), 0.5)
    assert calls == []
    harness.check_contraction(spec)
    assert len(calls) == spec.instances


def test_policy_evaluation_computes_policy_terms_once(monkeypatch):
    calls = []
    original = tabular.policy_terms

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(tabular, "policy_terms", counting)
    rng = np.random.default_rng(17)
    mdp = random_mdp(rng, gamma=0.9)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    _, trace = policy_evaluation(mdp, pi, random_B(rng, mdp.n), alpha=0.5)
    assert len(trace) > 1
    assert len(calls) == 1


def test_evaluation_matches_direct_solve():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mdp = random_mdp(rng)
        pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
        B = random_B(rng, mdp.n)
        Q_iter, _ = policy_evaluation(mdp, pi, B, alpha=0.8)
        Q_direct = policy_evaluation_direct(mdp, pi, B, alpha=0.8)
        np.testing.assert_allclose(Q_iter, Q_direct, atol=1e-8)


def test_residual_trace_ratio_bounded_by_gamma():
    rng = np.random.default_rng(6)
    mdp = random_mdp(rng, gamma=0.8)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    _, trace = policy_evaluation(mdp, pi, random_B(rng, mdp.n), alpha=0.3)
    for prev, cur in zip(trace[1:], trace[2:]):
        if prev > 1e-12:
            assert cur <= mdp.gamma * prev * (1.0 + 1e-7) + 1e-15


def test_reward_shift_shifts_fixed_point_by_constant():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, gamma=0.9)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    B = random_B(rng, mdp.n)
    Q1 = policy_evaluation_direct(mdp, pi, B, alpha=0.4)
    shifted = TabularMdp(num_states=mdp.num_states,
                         num_actions=mdp.num_actions,
                         vocab_eff=mdp.vocab_eff, n=mdp.n,
                         parse_table=mdp.parse_table, P=mdp.P,
                         r=mdp.r + 1.0, gamma=mdp.gamma)
    Q2 = policy_evaluation_direct(shifted, pi, B, alpha=0.4)
    np.testing.assert_allclose(Q2 - Q1, 1.0 / (1.0 - mdp.gamma), atol=1e-8)


def test_fixed_point_is_stable_under_backup():
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    B = random_B(rng, mdp.n)
    Q = policy_evaluation_direct(mdp, pi, B, alpha=0.6)
    again = bellman_backup(mdp, Q, policy_terms(mdp, pi, B), alpha=0.6)
    np.testing.assert_allclose(again, Q, atol=1e-9)


# -- improvement and iteration ------------------------------------------------


def test_soft_improve_does_not_decrease_q():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mdp = random_mdp(rng)
        pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
        B = random_B(rng, mdp.n)
        alpha = float(rng.uniform(0.0, 1.0))
        Q = policy_evaluation_direct(mdp, pi, B, alpha)
        better = soft_improve(mdp, Q, B, alpha)
        Q2 = policy_evaluation_direct(mdp, better, B, alpha)
        assert np.min(Q2 - Q) >= -1e-8


def test_soft_improve_alpha_zero_is_greedy_on_actions():
    # with no entropy term the improved policy puts all mass on sequences
    # parsing to the argmax action
    rng = np.random.default_rng(10)
    mdp = random_mdp(rng)
    Q = rng.normal(size=(mdp.num_states, mdp.num_actions))
    out = soft_improve(mdp, Q, np.zeros(mdp.n), alpha=0.0)
    d = action_dist(mdp, out)
    for s in range(mdp.num_states):
        assert d[s] @ Q[s] == pytest.approx(np.max(Q[s]), abs=1e-9)


def test_soft_improve_high_alpha_keeps_entropy():
    # with a huge entropy coefficient the optimum stays near uniform
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng)
    Q = rng.normal(scale=0.01, size=(mdp.num_states, mdp.num_actions))
    out = soft_improve(mdp, Q, np.ones(mdp.n), alpha=100.0)
    h = weighted_entropy_exact(out, np.ones(mdp.n))[0]
    assert h >= 0.99 * mdp.n * np.log(mdp.vocab_eff)


def per_state_objective(mdp, pi, Q, B, alpha):
    """sum_a d(a|s) Q(s, a) + alpha * h(s): what soft_improve maximizes."""
    h, d = policy_terms(mdp, pi, B)
    return np.sum(d * Q, axis=1) + alpha * h


def test_soft_improve_beats_uniform_and_random_policies():
    rng = np.random.default_rng(18)
    for k in range(10):
        mdp = random_mdp(rng, n=int(rng.integers(1, 4)))
        Q = rng.normal(scale=2.0, size=(mdp.num_states, mdp.num_actions))
        B = random_B(rng, mdp.n)
        alpha = 0.0 if k % 3 == 0 else float(rng.uniform(0.0, 2.0))
        best = per_state_objective(mdp, soft_improve(mdp, Q, B, alpha),
                                   Q, B, alpha)
        others = [TabularPolicy.uniform(mdp.num_states, mdp.vocab_eff, mdp.n)]
        others += [TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n,
                                        rng) for _ in range(20)]
        for pi in others:
            assert np.all(best >= per_state_objective(mdp, pi, Q, B, alpha)
                          - 1e-12)


def test_soft_improve_zero_coefficient_is_one_hot_ties_lowest():
    rng = np.random.default_rng(19)
    mdp = random_mdp(rng, n=3)
    # integer Q values make exact ties between sequences
    Q = rng.integers(0, 2, size=(mdp.num_states, mdp.num_actions)) * 1.0
    seq_q = Q[:, mdp.parse_table]
    first_best = np.argmax(seq_q == np.max(seq_q, axis=1, keepdims=True),
                           axis=1)
    for B, alpha in ((np.ones(mdp.n), 0.0), (np.zeros(mdp.n), 0.7)):
        out = soft_improve(mdp, Q, B, alpha)
        for t in out.tables:
            assert np.all((t == 0.0) | (t == 1.0))
            np.testing.assert_array_equal(t.sum(axis=2), 1.0)
        # greedy with ties to the lowest token at every prefix picks the
        # lexicographically first best sequence
        np.testing.assert_array_equal(
            out.seq_probs(), np.eye(mdp.vocab_eff ** mdp.n)[first_best])
    # a zero B_i makes only that position greedy
    out = soft_improve(mdp, Q, np.array([0.0, 0.5, 0.5]), alpha=0.7)
    assert np.all((out.tables[0] == 0.0) | (out.tables[0] == 1.0))
    assert np.all(out.tables[1] > 0.0) and np.all(out.tables[2] > 0.0)


def soft_value_iteration(mdp, B, alpha, tol=1e-12, max_iters=100_000):
    """Soft-optimal Q: iterate Q <- r + gamma P (d.Q + alpha h), with (h, d)
    the policy terms of the soft-greedy policy of the current Q."""
    Q = np.zeros((mdp.num_states, mdp.num_actions))
    for _ in range(max_iters):
        h, d = policy_terms(mdp, soft_improve(mdp, Q, B, alpha), B)
        nxt = mdp.r + mdp.gamma * mdp.P @ (np.sum(d * Q, axis=1) + alpha * h)
        if np.max(np.abs(nxt - Q)) < tol:
            return nxt
        Q = nxt
    raise RuntimeError(f"soft value iteration did not converge in {max_iters}")


def soft_optimality_instances():
    """The alpha > 0 instances of check_iteration at its default spec, then
    30 default-size random instances."""
    spec = harness.TheoryCheckSpec()
    for i in range(1, spec.instances, 2):
        rng, _ = harness._instance_rng(spec, "iteration", i)
        mdp = random_mdp(rng, num_states=3, num_actions=2, vocab_eff=2, n=2)
        B = rng.uniform(0.0, 1.0, size=mdp.n)
        yield mdp, B, float(rng.uniform(0.1, 1.0))
    rng = np.random.default_rng(20)
    for _ in range(30):
        mdp = random_mdp(rng)
        yield mdp, random_B(rng, mdp.n), float(rng.uniform(0.1, 2.0))


def test_policy_iteration_reaches_soft_optimum():
    count = 0
    for mdp, B, alpha in soft_optimality_instances():
        _, Q, _ = policy_iteration(mdp, B, alpha)
        np.testing.assert_allclose(Q, soft_value_iteration(mdp, B, alpha),
                                   rtol=0.0, atol=1e-6)
        count += 1
    assert count == 55


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_policy_iteration_rejects_non_positive_tol(tol):
    mdp = random_mdp(np.random.default_rng(21))
    with pytest.raises(ValueError, match="tol must be > 0"):
        policy_iteration(mdp, np.ones(mdp.n), 0.5, tol=tol)


def test_policy_iteration_monotone_and_converges():
    rng = np.random.default_rng(12)
    for _ in range(5):
        mdp = random_mdp(rng)
        B = random_B(rng, mdp.n)
        _, _, log = policy_iteration(mdp, B, alpha=0.5)
        assert len(log) <= 1000
        assert all(x >= -1e-7 for x in log)


def test_policy_iteration_alpha_zero_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(5):
        mdp = random_mdp(rng, num_states=3, num_actions=2)
        _, Q, _ = policy_iteration(mdp, np.zeros(mdp.n), alpha=0.0)
        Q_star = brute_force_optimal_q(mdp)
        np.testing.assert_allclose(Q, Q_star, atol=1e-6)


def test_policy_iteration_negative_control_diverges_detectably():
    # corrupting the discount past 1 must break the contraction machinery
    rng = np.random.default_rng(14)
    mdp = random_mdp(rng, gamma=0.9)
    pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
    Q1 = rng.normal(size=(mdp.num_states, mdp.num_actions))
    Q2 = rng.normal(size=(mdp.num_states, mdp.num_actions))
    terms = policy_terms(mdp, pi, np.ones(mdp.n))
    t1 = bellman_backup(discounted(mdp, 1.5), Q1, terms, 0.5)
    t2 = bellman_backup(discounted(mdp, 1.5), Q2, terms, 0.5)
    ratio = np.max(np.abs(t1 - t2)) / np.max(np.abs(Q1 - Q2))
    assert ratio > 1.0 or ratio <= 1.5  # expansion is possible, not certain
    # and evaluation refuses to converge quickly for an expansive operator
    with pytest.raises(RuntimeError):
        bad = TabularMdp(num_states=mdp.num_states,
                         num_actions=mdp.num_actions,
                         vocab_eff=mdp.vocab_eff, n=mdp.n,
                         parse_table=mdp.parse_table, P=mdp.P, r=mdp.r,
                         gamma=0.999999)
        policy_evaluation(bad, pi, np.ones(mdp.n), alpha=0.5, tol=1e-10,
                          max_iters=50)


def test_policy_iteration_raises_when_max_iters_run_out():
    rng = np.random.default_rng(22)
    mdp = random_mdp(rng)
    B = random_B(rng, mdp.n)
    _, _, log = policy_iteration(mdp, B, 0.5)
    assert len(log) > 1
    with pytest.raises(RuntimeError, match="did not converge in 1"):
        policy_iteration(mdp, B, 0.5, max_iters=1)
    _, _, again = policy_iteration(mdp, B, 0.5, max_iters=len(log))
    assert again == log


def worse_second_step(drops):
    """soft_improve, except that the first second call at one alpha > 0
    (step 2 of a policy iteration run) returns the uniform policy, a worse
    one; drops gets that step's Q drop.  The improvement suite calls it
    once per instance, each at its own alpha, so only iteration sees it."""
    calls = []

    def improve(mdp, Q, B, alpha):
        calls.append(alpha)
        if alpha > 0 and calls.count(alpha) == 2 and not drops:
            uniform = TabularPolicy.uniform(mdp.num_states, mdp.vocab_eff,
                                            mdp.n)
            q_new = policy_evaluation_direct(mdp, uniform, B, alpha)
            drops.append(-float(np.min(q_new - Q)))
            return uniform
        return soft_improve(mdp, Q, B, alpha)
    return improve


@pytest.mark.parametrize("tol", [1e-7, 100.0])
def test_check_iteration_judges_monotonicity_by_spec_tol(tol, monkeypatch):
    """policy_iteration only logs a drop of Q; check_iteration judges it by
    spec.monotonicity_tol alone and reports it as its worst residual."""
    drops = []
    monkeypatch.setattr(tabular, "soft_improve", worse_second_step(drops))
    spec = harness.TheoryCheckSpec(instances=2, monotonicity_tol=tol)
    res = harness.check_iteration(spec)
    assert len(drops) == 1 and drops[0] > 1e-6
    assert res.worst == drops[0]
    # instance 1 is the alpha > 0 one
    bad = [harness._instance_rng(spec, "iteration", 1)[1]]
    assert res.failing_seeds == ([] if tol > drops[0] else bad)
    assert res.passed == (tol > drops[0])


def test_suite_failure_rule():
    """An instance fails on a residual above tol (or NaN), a failed side
    check or a RuntimeError, which adds nothing to worst."""
    outcomes = {0: (0.5, True), 1: (2.0, True), 2: (0.1, False),
                3: RuntimeError("did not converge"), 4: (float("nan"), True),
                5: (1.0, True)}

    def residual(rng, i):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        return outcomes[i]
    spec = harness.TheoryCheckSpec(instances=len(outcomes))
    res = harness._suite(spec, "iteration", "rule", 1.0, residual)
    seeds = [harness._instance_rng(spec, "iteration", i)[1]
             for i in range(len(outcomes))]
    assert res.name == "rule" and not res.passed
    assert res.failing_seeds == [seeds[i] for i in (1, 2, 3, 4)]
    assert res.worst == 2.0


def test_check_iteration_counts_non_convergence_as_failing(monkeypatch):
    original = tabular.policy_iteration
    monkeypatch.setattr(tabular, "policy_iteration",
                        lambda *a, **kw: original(*a, **{**kw,
                                                         "max_iters": 1}))
    spec = harness.TheoryCheckSpec(instances=4)
    res = harness.check_iteration(spec)
    assert not res.passed and res.worst == -np.inf
    assert res.failing_seeds == [harness._instance_rng(spec, "iteration", i)[1]
                                 for i in range(4)]


def test_random_mdp_surjective_parse_covers_actions():
    rng = np.random.default_rng(15)
    for _ in range(20):
        mdp = random_mdp(rng)
        assert set(np.unique(mdp.parse_table)) == set(range(mdp.num_actions))
