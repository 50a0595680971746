import numpy as np
import pytest

from coso import scm as scm_mod
from coso.counterfactual import (causal_weights_batch,
                                 normalize_weights_batch, weight_stats)
from coso.scm import ScmParams, train_scm
from coso.textmdp import NULL, make_env

from test_scm import rollout_pairs


def nullify(y, i):
    """Copy of y with position i replaced by the NULL symbol."""
    y = tuple(y)
    if not (0 <= i < len(y)):
        raise IndexError(f"position {i} out of range for length {len(y)}")
    return y[:i] + (NULL,) + y[i + 1:]


def weights_of(phi, y, a):
    """Raw weights of one (utterance, action) pair: a batch of one."""
    return causal_weights_batch(phi, [y], [a])[0]


def normalized(values):
    return normalize_weights_batch(
        np.asarray(values, dtype=float)[None, :])[0]


def converged_numberline_scm(seed=0, samples=3000):
    env = make_env("numberline")
    rng = np.random.default_rng(seed)
    ys, labels = rollout_pairs(env, rng, samples)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    (phi,), _ = train_scm([phi], ys, labels, lr=1e-2, steps=1500,
                          batch_size=256, rngs=[rng])
    return env, phi


def test_nullify_basic():
    assert nullify((5, 3, 9), 1) == (5, NULL, 9)


def test_nullify_restores():
    y = (5, 3, 9)
    y2 = nullify(y, 1)
    restored = y2[:1] + (y[1],) + y2[2:]
    assert restored == y


def test_nullify_hamming_distance_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = tuple(int(t) for t in rng.integers(1, 16, size=5))
        i = int(rng.integers(0, 5))
        y2 = nullify(y, i)
        assert sum(a != b for a, b in zip(y, y2)) == 1
        assert y2[i] == NULL


def test_nullify_out_of_range():
    with pytest.raises(IndexError):
        nullify((1, 2, 3), 3)


def test_uniform_scm_gives_zero_weights():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    np.testing.assert_array_equal(weights_of(phi, (5, 6, 2), 0), 0.0)


def test_weights_bounded_and_deterministic():
    rng = np.random.default_rng(1)
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    phi.weights = rng.normal(size=phi.weights.shape)
    for _ in range(100):
        y = tuple(int(t) for t in rng.integers(1, 16, size=3))
        a = int(rng.integers(0, 3))
        w1 = weights_of(phi, y, a)
        w2 = weights_of(phi, y, a)
        assert np.all(w1 >= 0.0) and np.all(w1 <= 1.0)
        np.testing.assert_array_equal(w1, w2)


def test_null_column_equal_to_token_column_gives_zero_weight():
    # if nullifying position i cannot change the features, weight is 0
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    rng = np.random.default_rng(2)
    phi.weights = rng.normal(size=phi.weights.shape)
    i, tok = 1, 7
    phi.weights[i * 16 + NULL] = phi.weights[i * 16 + tok]
    assert abs(weights_of(phi, (5, tok, 2), 0)[i]) <= 1e-12


def test_exactly_n_interventions_per_utterance():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    before = scm_mod.eval_count()
    causal_weights_batch(phi, [(5, 6, 2), (1, 2, 3)], [0, 1])
    assert scm_mod.eval_count() - before == 8  # base + n nullifications


def test_batch_weights_match_single():
    rng = np.random.default_rng(3)
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    phi.weights = rng.normal(size=phi.weights.shape)
    ys = rng.integers(1, 16, size=(20, 3))
    acts = rng.integers(0, 3, size=20)
    batch = causal_weights_batch(phi, ys, acts)
    for k in range(20):
        single = weights_of(phi, tuple(ys[k]), int(acts[k]))
        np.testing.assert_array_equal(batch[k], single)


def test_weights_match_nullification_definition():
    """Weight i is |P(a | y) - P(a | y with slot i nullified)|."""
    rng = np.random.default_rng(7)
    phi = ScmParams.zeros(n=4, vocab_size=16, num_actions=5)
    phi.weights = rng.normal(size=phi.weights.shape)
    phi.bias = rng.normal(size=5)
    for _ in range(20):
        y = tuple(int(t) for t in rng.integers(1, 16, size=4))
        a = int(rng.integers(0, 5))
        base = scm_mod.scm_likelihood_batch(phi, [y])[0, a]
        want = [abs(base - scm_mod.scm_likelihood_batch(
            phi, [nullify(y, i)])[0, a]) for i in range(4)]
        np.testing.assert_allclose(weights_of(phi, y, a), want, rtol=0,
                                   atol=1e-15)


def test_normalize_maxnorm_with_floor():
    np.testing.assert_allclose(normalized([0.0, 0.0, 0.5]),
                               [0.01, 0.01, 1.0])


def test_normalize_all_zero_floors():
    np.testing.assert_allclose(normalized(np.zeros(3)), [0.01, 0.01, 0.01])


def test_normalize_idempotent():
    once = normalized([0.2, 0.03, 0.9])
    np.testing.assert_allclose(once, normalized(once))


def test_normalize_batch_matches_single():
    rng = np.random.default_rng(4)
    raw = rng.uniform(0, 1, size=(30, 4))
    raw[5] = 0.0  # degenerate row
    batch = normalize_weights_batch(raw)
    for k in range(30):
        np.testing.assert_array_equal(batch[k], normalized(raw[k]))


def test_weight_stats_counting():
    hist = weight_stats(np.array([[0.01, 0.01, 1.0]]))
    assert hist.fractions[0] == pytest.approx(2 / 3)
    assert abs(hist.fractions.sum() - 1.0) <= 1e-9


def test_weight_stats_empty_raises():
    with pytest.raises(ValueError):
        weight_stats([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_raise(bad):
    """A NaN would be floored to W_FLOOR, and dropped from the histogram
    whose fractions would then sum to 0.5."""
    with pytest.raises(ValueError, match="non-finite"):
        normalize_weights_batch(np.array([[bad, 0.5]]))
    with pytest.raises(ValueError, match="outside"):
        weight_stats(np.array([[bad, 0.5]]))


def test_converged_scm_localizes_on_action_slot():
    env, phi = converged_numberline_scm()
    rng = np.random.default_rng(5)
    kind_slot = env.grammar.kind_slot
    ratios = []
    for _ in range(200):
        y = tuple(int(t) for t in rng.integers(1, env.vocab.size, size=3))
        action, _ = env.parse_or_noop(y)
        w = weights_of(phi, y, env.action_index(action))
        filler_mean = np.mean([w[i] for i in range(3) if i != kind_slot])
        ratios.append(w[kind_slot] / max(filler_mean, 1e-9))
    assert np.median(ratios) >= 5.0


def test_duplicate_filler_positions_have_similar_weights():
    env, phi = converged_numberline_scm()
    rng = np.random.default_rng(6)
    lo, hi = [], []
    for _ in range(1000):
        tok = int(rng.integers(1, env.vocab.size))
        kind = int(rng.choice([2, 3, 4]))
        y = (tok, tok, kind)  # both filler slots hold the same token
        action, _ = env.parse_or_noop(y)
        w = weights_of(phi, y, env.action_index(action))
        a, b = sorted([w[0], w[1]])
        lo.append(a)
        hi.append(b)
    assert np.mean(hi) <= 2.0 * np.mean(lo) + 1e-6


@pytest.mark.parametrize("actions", [[2], [0, -1], [0, 3], [0, 1, 2],
                                     [0.0, 1.0], [[0], [1]]],
                         ids=["one_for_two_rows", "negative",
                              "past_last_class", "extra", "float",
                              "two_dim"])
def test_causal_weights_reject_bad_actions(actions):
    """One action class per row, an integer in [0, A): a single action is
    not broadcast over the rows, and -1 does not read the last class."""
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    before = scm_mod.eval_count()
    with pytest.raises(ValueError, match="action class"):
        causal_weights_batch(phi, [(5, 6, 2), (1, 2, 3)], actions)
    assert scm_mod.eval_count() == before
