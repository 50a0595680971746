import itertools

import numpy as np
import pytest
from scipy import stats

from coso import policy as pol
from coso.policy import (FeatureSpec, PolicyParams, grad_objective,
                         greedy_utterance, sample_utterance,
                         sample_utterances_batch, teacher_forced_batch)
from coso.textmdp import NULL, EnvState, make_env


def objective_value(params, states, utterances, sample_weights=None,
                    token_weights=None) -> float:
    """J over a batch of (state, utterance) pairs, the objective whose
    gradient policy.grad_objective computes; None drops a term."""
    _, _, tok_lp, tok_ent = teacher_forced_batch(params, states, utterances)
    value = 0.0
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)
        value += float(np.sum(w * np.sum(tok_lp, axis=1)))
    if token_weights is not None:
        B = np.asarray(token_weights, dtype=np.float64)
        value += float(np.sum(B * tok_ent))
    return value


def joint_entropy_bruteforce(params, state):
    """Exact joint utterance entropy by enumerating every sequence; only
    feasible for tiny vocab/length."""
    spec = params.spec
    support = [t for t in range(spec.vocab_size) if t != NULL]
    ys = list(itertools.product(support, repeat=spec.n))
    _, _, tok_lp, _ = teacher_forced_batch(params, [state] * len(ys), ys)
    logp = np.sum(tok_lp, axis=1)
    p = np.exp(logp)
    with np.errstate(invalid="ignore"):  # 0 * -inf off the support
        return float(-np.sum(np.where(p > 0.0, p * logp, 0.0)))


def small_spec(vocab=5, n=3, cards=(3,), context=2):
    return FeatureSpec(state_cards=cards, vocab_size=vocab, n=n,
                       context=context)


def random_params(spec, rng, scale=0.7):
    return PolicyParams(spec=spec,
                        weights=rng.normal(0, scale, (spec.dim,
                                                      spec.vocab_size)))


STATE = EnvState(features=(1,), step_count=0)


def dist(p, state, prefix):
    """(probs, logprobs) of the next token after prefix, by teacher forcing
    the prefix padded to length n (later tokens cannot change it)."""
    y = tuple(prefix) + (1,) * (p.spec.n - len(prefix))
    probs, logprobs, _, _ = teacher_forced_batch(p, [state], [y])
    return probs[0, len(prefix)], logprobs[0, len(prefix)]


def random_states(spec, rng, m):
    return [EnvState(features=tuple(int(rng.integers(0, c))
                                    for c in spec.state_cards))
            for _ in range(m)]


def test_zero_params_uniform_over_non_null():
    spec = FeatureSpec(state_cards=(10, 10), vocab_size=16, n=3)
    p = PolicyParams.zeros(spec)
    probs, _ = dist(p, EnvState(features=(2, 7)), ())
    assert probs[NULL] == 0.0
    np.testing.assert_allclose(probs[1:], 1.0 / 15, atol=1e-15)


def test_probs_sum_to_one():
    rng = np.random.default_rng(0)
    spec = small_spec()
    for _ in range(50):
        p = random_params(spec, rng, scale=3.0)
        y = tuple(int(t) for t in rng.integers(1, spec.vocab_size,
                                               size=spec.n))
        probs, _, _, _ = teacher_forced_batch(p, [STATE], [y])
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0,
                                   atol=1e-12)
        assert np.all(probs[..., NULL] == 0.0)
        assert np.all(probs >= 0.0)


def test_dominant_logit_concentrates():
    spec = FeatureSpec(state_cards=(2,), vocab_size=16, n=3)
    p = PolicyParams.zeros(spec)
    # state feature 0 is active for features=(0,)
    p.weights[0, 5] = 10.0
    probs, _ = dist(p, EnvState(features=(0,)), ())
    # closed form: e^10 / (e^10 + 14) over the 15-token support
    expected = np.exp(10.0) / (np.exp(10.0) + 14.0)
    np.testing.assert_allclose(probs[5], expected, atol=1e-12)
    assert probs[5] >= 0.999


def test_prefix_too_long_raises():
    # teacher forcing takes exactly n tokens per utterance
    spec = small_spec()
    p = PolicyParams.zeros(spec)
    with pytest.raises(ValueError):
        teacher_forced_batch(p, [STATE], [(1, 2, 3, 4)])


def sampled_stats(p, states, u):
    """(tokens, log-probs, entropies) of utterances sampled on u: the
    tokens' statistics come from teacher forcing them."""
    toks = sample_utterances_batch(p, states, u)
    _, _, lps, ents = teacher_forced_batch(p, states, toks)
    return toks, lps, ents


def test_uniform_entropy_value():
    spec = FeatureSpec(state_cards=(10, 10), vocab_size=16, n=3)
    p = PolicyParams.zeros(spec)
    state = EnvState(features=(1, 2))
    y = sample_utterance(p, state, np.random.default_rng(0))
    _, _, lps, ents = teacher_forced_batch(p, [state], [y])
    np.testing.assert_allclose(ents, np.log(15), atol=1e-12)
    np.testing.assert_allclose(lps, -np.log(15), atol=1e-12)


def test_degenerate_policy_entropy_near_zero():
    spec = small_spec()
    p = PolicyParams.zeros(spec)
    p.weights[:, 2] = 50.0  # every feature pushes token 2
    y = sample_utterance(p, STATE, np.random.default_rng(0))
    assert y == (2, 2, 2)
    _, _, _, ents = teacher_forced_batch(p, [STATE], [y])
    assert np.all(ents < 1e-6)


def test_sampling_deterministic_under_seed():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    spec = small_spec()
    p = random_params(spec, np.random.default_rng(5))
    s1 = sample_utterance(p, STATE, rng1)
    s2 = sample_utterance(p, STATE, rng2)
    assert s1 == s2
    np.testing.assert_array_equal(teacher_forced_batch(p, [STATE], [s1])[2],
                                  teacher_forced_batch(p, [STATE], [s2])[2])


def test_batch_sampling_matches_single():
    spec = small_spec()
    rng = np.random.default_rng(9)
    p = random_params(spec, rng)
    states = random_states(spec, rng, 16)
    u = rng.random((16, spec.n))
    toks, lps, ents = sampled_stats(p, states, u)
    for b in range(16):
        t1, l1, e1 = sampled_stats(p, [states[b]], u[b:b + 1])
        np.testing.assert_array_equal(toks[b], t1[0])
        np.testing.assert_allclose(lps[b], l1[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(ents[b], e1[0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        sample_utterances_batch(p, states, u[:, :2])
    # sample_utterance is the batch of one on the next n uniforms
    y = sample_utterance(p, STATE, np.random.default_rng(123))
    t1 = sample_utterances_batch(
        p, [STATE], np.random.default_rng(123).random((1, spec.n)))
    assert y == tuple(t1[0].tolist())


def test_rescoring_matches_sampling():
    # sampling and greedy decoding read the same per-position distributions
    # that teacher forcing their tokens returns, to the bit
    spec = small_spec()
    rng = np.random.default_rng(1)
    p = random_params(spec, rng)
    states = random_states(spec, rng, 20)
    u = rng.random((20, spec.n))
    toks = sample_utterances_batch(p, states, u)
    probs = teacher_forced_batch(p, states, toks)[0]
    want = np.minimum((probs.cumsum(axis=-1) <= u[..., None]).sum(axis=-1),
                      spec.vocab_size - 1)
    np.testing.assert_array_equal(toks, want)
    greedy = greedy_utterance(p, states)
    probs = teacher_forced_batch(p, states, greedy)[0]
    np.testing.assert_array_equal(greedy, np.argmax(probs, axis=-1))


def test_uniform_total_logprob():
    spec = FeatureSpec(state_cards=(4,), vocab_size=16, n=3)
    p = PolicyParams.zeros(spec)
    _, _, tok_lp, _ = teacher_forced_batch(p, [EnvState(features=(0,))],
                                           [(5, 6, 7)])
    np.testing.assert_allclose(tok_lp.sum(), -3 * np.log(15), atol=1e-12)


def test_token_out_of_vocab_raises():
    spec = small_spec()
    p = PolicyParams.zeros(spec)
    with pytest.raises(ValueError):
        teacher_forced_batch(p, [STATE], [(1, 2, 99)])


@pytest.mark.parametrize("ys", [[(5.7, 6.2, 2.9)], [(5.0, 6.0, 2.0)],
                                [(True, False, True)]])
def test_non_integer_tokens_raise(ys):
    """Float token ids are rejected, not truncated to (5, 6, 2)."""
    p = PolicyParams.zeros(small_spec(vocab=8))
    with pytest.raises(ValueError, match="not integer"):
        teacher_forced_batch(p, [STATE], ys)
    teacher_forced_batch(p, [STATE], np.asarray(ys).astype(np.int16))


def test_entropy_bounds():
    spec = small_spec()
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_params(spec, rng, scale=2.0)
        _, _, ents = sampled_stats(p, [STATE] * 4, rng.random((4, spec.n)))
        assert np.all(ents >= 0.0)
        assert np.all(ents <= np.log(spec.vocab_size - 1) + 1e-12)


def test_entropy_decomposition_vs_bruteforce():
    # sum of exact conditional entropies equals the joint utterance entropy
    rng = np.random.default_rng(3)
    spec = FeatureSpec(state_cards=(3,), vocab_size=4, n=3, context=2)
    support = [t for t in range(spec.vocab_size) if t != NULL]
    ys = list(itertools.product(support, repeat=spec.n))
    for _ in range(10):
        p = random_params(spec, rng)
        joint = joint_entropy_bruteforce(p, STATE)
        # E_y sum_i H(y_i | y_<i): each conditional entropy depends only on
        # its prefix, so weighting full sequences by p(y) averages prefixes
        _, _, tok_lp, tok_ent = teacher_forced_batch(p, [STATE] * len(ys),
                                                     ys)
        total = float(np.sum(np.exp(tok_lp.sum(axis=1))
                             * tok_ent.sum(axis=1)))
        assert abs(joint - total) <= 1e-10


def test_sampling_frequencies_match_dist():
    spec = FeatureSpec(state_cards=(2,), vocab_size=8, n=3, context=1)
    p = random_params(spec, np.random.default_rng(8), scale=0.5)
    state = EnvState(features=(0,))
    probs, _ = dist(p, state, ())
    rng = np.random.default_rng(77)
    n_samples = 100_000
    counts = np.zeros(spec.vocab_size)
    for _ in range(n_samples // 1000):
        toks = sample_utterances_batch(p, [state] * 1000,
                                       rng.random((1000, spec.n)))
        counts += np.bincount(toks[:, 0], minlength=spec.vocab_size)
    support = probs > 0
    chi2, pval = stats.chisquare(counts[support], n_samples * probs[support])
    assert pval > 1e-3


def test_greedy_is_argmax_path():
    spec = small_spec()
    rng = np.random.default_rng(10)
    p = random_params(spec, rng)
    states = [STATE] + random_states(spec, rng, 7)
    ys = greedy_utterance(p, states)
    for state, y in zip(states, ys):
        toks = []
        for i in range(spec.n):
            probs, _ = dist(p, state, toks)
            toks.append(int(np.argmax(probs)))
        assert tuple(y.tolist()) == tuple(toks)


# -- gradients ---------------------------------------------------------------


def objective_terms(kind, sample_weights, token_weights):
    """(sample_weights, token_weights) of one objective; None drops a term."""
    return {"logprob-weighted": (sample_weights, None),
            "entropy": (None, np.ones_like(token_weights)),
            "weighted-entropy": (None, token_weights),
            "combined": (sample_weights, token_weights)}[kind]


def nudged(params, i, j, h):
    """params with weight (i, j) moved by h, in a copy of the weights."""
    weights = params.weights.copy()
    weights[i, j] += h
    return PolicyParams(spec=params.spec, weights=weights)


def finite_difference(params, states, ys, sw, tw, h=1e-5):
    g = np.zeros_like(params.weights)
    for i in range(params.weights.shape[0]):
        for j in range(params.weights.shape[1]):
            up, dn = nudged(params, i, j, h), nudged(params, i, j, -h)
            g[i, j] = (objective_value(up, states, ys, sw, tw)
                       - objective_value(dn, states, ys, sw, tw)) / (2 * h)
    return g


def make_batch(spec, rng, size=3):
    states, ys = [], []
    for _ in range(size):
        states.append(EnvState(features=tuple(int(rng.integers(0, c))
                                              for c in spec.state_cards)))
        ys.append(tuple(int(rng.integers(1, spec.vocab_size))
                        for _ in range(spec.n)))
    return states, ys


def test_grad_objective_rejects_non_integer_tokens():
    """Float token ids are rejected, not truncated to the integer tokens'
    gradient, with or without the forcing given."""
    spec = small_spec()
    p = random_params(spec, np.random.default_rng(3))
    states, ys = make_batch(spec, np.random.default_rng(4))
    w = np.ones(len(ys))
    forced = teacher_forced_batch(p, states, ys)
    bad = np.asarray(ys) + 0.25
    for given in (None, forced):
        with pytest.raises(ValueError, match="not integer"):
            grad_objective(p, states, bad, sample_weights=w, forced=given)


def test_grad_objective_rejects_out_of_vocab_tokens():
    """An out-of-vocab id raises with the forcing given too: indexing the
    flat forcing with it would read the next row's block, with no error."""
    spec = small_spec()
    assert spec.vocab_size == 5
    p = random_params(spec, np.random.default_rng(3))
    states, ys = make_batch(spec, np.random.default_rng(4))
    w = np.ones(len(ys))
    forced = teacher_forced_batch(p, states, ys)
    for token in (spec.vocab_size, -1):
        bad = np.array(ys)
        bad[0, 0] = token
        for given in (None, forced):
            with pytest.raises(ValueError, match="token ids outside"):
                grad_objective(p, states, bad, sample_weights=w,
                               forced=given)


def test_state_ids_reject_non_integer_features():
    with pytest.raises(ValueError, match="not integer"):
        pol.state_ids((10, 10), np.array([[1.5, 3.0]]))
    assert pol.state_ids((10, 10), np.array([[1, 3]])).tolist() == [13]


def test_entropy_gradient_zero_at_uniform():
    spec = small_spec()
    p = PolicyParams.zeros(spec)
    states, ys = make_batch(spec, np.random.default_rng(0))
    g = grad_objective(p, states, ys, token_weights=np.ones((3, spec.n)))
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_weighted_entropy_with_unit_weights_equals_entropy():
    spec = small_spec()
    rng = np.random.default_rng(4)
    p = random_params(spec, rng)
    states, ys = make_batch(spec, rng)
    ones = np.ones((len(ys), spec.n))
    _, _, _, tok_ent = teacher_forced_batch(p, states, ys)
    assert objective_value(p, states, ys, token_weights=ones) == \
        pytest.approx(tok_ent.sum(), abs=1e-12)
    # the entropy sum's gradient is the sum of its per-position gradients
    g = grad_objective(p, states, ys, token_weights=ones)
    parts = sum(grad_objective(p, states, ys, token_weights=np.eye(spec.n)[
        [i] * len(ys)]) for i in range(spec.n))
    np.testing.assert_allclose(g, parts, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["logprob-weighted", "entropy",
                                  "weighted-entropy", "combined"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(6)
    spec = FeatureSpec(state_cards=(2,), vocab_size=4, n=2, context=1)
    for trial in range(20):
        p = random_params(spec, rng)
        states, ys = make_batch(spec, rng, size=2)
        sw, tw = objective_terms(kind, rng.normal(size=len(ys)),
                                 rng.uniform(0, 1, (len(ys), spec.n)))
        g = grad_objective(p, states, ys, sw, tw)
        fd = finite_difference(p, states, ys, sw, tw)
        denom = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / denom <= 1e-4, f"trial {trial}"


def test_grad_empty_batch_raises():
    spec = small_spec()
    p = PolicyParams.zeros(spec)
    with pytest.raises(ValueError):
        grad_objective(p, [], np.zeros((0, spec.n), dtype=int),
                       token_weights=np.zeros((0, spec.n)))
    states, ys = make_batch(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        grad_objective(p, states, ys)  # no objective term


def test_teacher_forced_batch_consistency():
    spec = small_spec()
    rng = np.random.default_rng(12)
    p = random_params(spec, rng)
    states, ys = make_batch(spec, rng, size=4)
    _, _, tok_lp, tok_ent = teacher_forced_batch(p, states, ys)
    for k in range(4):
        _, _, lps, ents = teacher_forced_batch(p, states[k:k + 1], ys[k:k + 1])
        np.testing.assert_allclose(tok_lp[k], lps[0], atol=1e-14)
        np.testing.assert_allclose(tok_ent[k], ents[0], atol=1e-14)


def grad_objective_loop(params, states, utterances, sample_weights=None,
                        token_weights=None, forced=None, token_runs=None,
                        forced_rows=None):
    """grad_objective a (run, position) block at a time: each position's
    (m, V) dz/dlogits from its own gather of the forcing, times its own
    dense one-hot features.  The per-position form that grad_objective's
    one pass per run must equal bit for bit."""
    if token_runs is not None and not np.any(token_runs):
        token_weights = None
    spec = params.spec
    toks = np.asarray(utterances, dtype=np.intp)
    runs = 1 if params.weights.ndim == 2 else params.weights.shape[0]
    m = len(states) // runs
    if forced is None:
        forced, forced_rows = teacher_forced_batch(params, states, toks), None
    probs, logprobs, _, tok_ent = forced
    sidx = pol.state_index(spec.state_cards, states)
    rows = np.arange(m)
    grad = np.zeros((runs, spec.dim, spec.vocab_size))
    for r in range(runs):
        run = slice(r * m, (r + 1) * m)
        at = run if forced_rows is None else forced_rows[run]
        token = token_weights is not None and (token_runs is None
                                               or bool(token_runs[r]))
        for i in range(spec.n):
            p = probs[at, i]
            dz = None
            if sample_weights is not None:
                dz = -p
                dz[:, NULL] = 0.0
                dz[rows, toks[run, i]] += 1.0
                dz *= np.asarray(sample_weights, dtype=np.float64)[run, None]
            if token:
                support = p > 0.0
                dent = np.where(support, logprobs[at, i], 0.0)
                dent += tok_ent[at, i][:, None]
                dent *= p
                np.negative(dent, out=dent)
                dent *= support
                dent *= np.asarray(token_weights,
                                   dtype=np.float64)[run, i][:, None]
                dz = dent if dz is None else dz + dent
            if dz is not None:
                grad[r] += dense_features(spec, sidx[run], toks[run], i).T @ dz
    return grad.reshape(params.weights.shape)


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
@pytest.mark.parametrize("runs", [1, 3])
def test_gradient_equals_the_per_position_loop(env_id, runs):
    """grad_objective's one pass per run adds the same doubles as the
    per-position loop: each term alone and both, a token_runs mask, and
    permuted minibatch rows of a larger forcing, at a weight scale (200)
    that makes some probabilities exactly 0."""
    env = make_env(env_id)
    spec = FeatureSpec.for_env(env)
    rng = np.random.default_rng(14 + runs)
    m = 48
    mask = [r % 2 == 1 for r in range(runs)]  # R = 1: no token term
    zeros = 0
    for scale in (0.7, 200.0):
        weights = rng.normal(0, scale, (runs, spec.dim, spec.vocab_size))
        params = PolicyParams(spec=spec,
                              weights=weights[0] if runs == 1 else weights)
        feats = np.stack([rng.integers(0, c, runs * m)
                          for c in spec.state_cards], 1)
        toks = sample_utterances_batch(params, feats,
                                       rng.random((runs * m, spec.n)))
        forced = teacher_forced_batch(params, feats, toks)
        zeros += np.count_nonzero(forced[0][..., 1:] == 0.0)
        sw = rng.normal(size=runs * m)
        tw = rng.uniform(0, 2, (runs * m, spec.n))
        # each run's permutation of its own rows, cut to a minibatch
        perm = np.concatenate([rng.permutation(m)[:m // 2] + r * m
                               for r in range(runs)])
        for rows, kw in ((slice(None), {}),
                         (perm, dict(forced=forced, forced_rows=perm))):
            for terms in ((sw, None), (None, tw), (sw, tw)):
                for token_runs in (None, mask):
                    if terms[0] is None and token_runs is mask \
                            and not any(mask):
                        continue  # no term left
                    args = (params, feats[rows], toks[rows]) + tuple(
                        None if a is None else a[rows] for a in terms)
                    got = grad_objective(*args, token_runs=token_runs, **kw)
                    assert got.tobytes() == grad_objective_loop(
                        *args, token_runs=token_runs, **kw).tobytes()
                    assert np.any(got != 0.0)
    assert zeros > 0


# -- gathered logits against the dense one-hot product -----------------------


def dense_features(spec, sidx, toks, i):
    """The dense (m, dim) one-hot features of the decisions at position i:
    the state blocks (sidx, from state_index), the K most recent tokens
    newest first, then the position."""
    m = len(sidx)
    cols = [sidx]
    off = sum(spec.state_cards)
    for k in range(spec.context):
        if i - 1 - k >= 0:
            cols.append(off + k * spec.vocab_size + toks[:, i - 1 - k:i - k])
    cols.append(np.full((m, 1), off + spec.context * spec.vocab_size + i))
    return pol.one_hot(np.concatenate(cols, axis=1), spec.dim)


def dense_dist(p, feats, toks, i):
    """(probs, logprobs) at position i from the dense (m, dim) one-hot
    feature matrix times W, the product the gathered logits replace."""
    spec = p.spec
    sidx = feats + np.cumsum((0,) + spec.state_cards[:-1])
    z = dense_features(spec, sidx, toks, i) @ p.weights
    z[:, NULL] = -np.inf
    z = z - z.max(axis=1, keepdims=True)
    total = np.exp(z).sum(axis=1, keepdims=True)
    return np.exp(z) / total, z - np.log(total)


DENSE_SPECS = [
    FeatureSpec(state_cards=(10, 10), vocab_size=16, n=3),  # numberline
    FeatureSpec(state_cards=(4, 2), vocab_size=32, n=6),  # menunav
    FeatureSpec(state_cards=(3,), vocab_size=5, n=2, context=4),
]


@pytest.mark.parametrize("spec", DENSE_SPECS)
@pytest.mark.parametrize("m, runs", [
    pytest.param(m, runs, id=str(m) if runs == 1 else f"{m}x{runs}")
    for runs in (1, 3) for m in (1, 7, 256)])
def test_teacher_forcing_matches_dense_reference(spec, m, runs):
    """For R stacked runs, each run's m rows match the dense reference of
    that run's own weights, and equal its own (dim, V) call bit for bit."""
    rng = np.random.default_rng(m)
    ps = [random_params(spec, rng, scale=2.0) for _ in range(runs)]
    feats = np.stack([rng.integers(0, c, runs * m)
                      for c in spec.state_cards], 1)
    toks = rng.integers(1, spec.vocab_size, size=(runs * m, spec.n))
    params = ps[0] if runs == 1 else PolicyParams(
        spec=spec, weights=np.stack([p.weights for p in ps]))
    forced = teacher_forced_batch(params, feats, toks)
    for r, p in enumerate(ps):
        rows = slice(r * m, (r + 1) * m)
        probs, logprobs, tok_lp, tok_ent = (a[rows] for a in forced)
        for a, b in zip((probs, logprobs, tok_lp, tok_ent),
                        teacher_forced_batch(p, feats[rows], toks[rows])):
            assert a.tobytes() == b.tobytes()
        for i in range(spec.n):
            ref_p, ref_lp = dense_dist(p, feats[rows], toks[rows], i)
            np.testing.assert_allclose(probs[:, i], ref_p, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(logprobs[:, i], ref_lp, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(tok_lp[:, i],
                                       ref_lp[np.arange(m), toks[rows, i]],
                                       rtol=0, atol=1e-12)
            ref_ent = -np.sum(ref_p[:, 1:] * ref_lp[:, 1:], axis=1)
            np.testing.assert_allclose(tok_ent[:, i], ref_ent, rtol=0,
                                       atol=1e-12)


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_sampling_and_greedy_match_dense_reference(spec):
    m = 64
    rng = np.random.default_rng(3)
    p = random_params(spec, rng, scale=2.0)
    feats = np.stack([rng.integers(0, c, m) for c in spec.state_cards], 1)
    u = rng.random((m, spec.n))
    toks, lps, ents = sampled_stats(p, feats, u)
    greedy = greedy_utterance(p, feats)
    for i in range(spec.n):
        ref_p, ref_lp = dense_dist(p, feats, toks, i)
        want = [min(int(np.searchsorted(np.cumsum(row), x, side="right")),
                    spec.vocab_size - 1) for row, x in zip(ref_p, u[:, i])]
        np.testing.assert_array_equal(toks[:, i], want)
        np.testing.assert_allclose(lps[:, i], ref_lp[np.arange(m), want],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ents[:, i], -np.sum(ref_p[:, 1:] * ref_lp[:, 1:], axis=1),
            rtol=0, atol=1e-12)
        ref_p, _ = dense_dist(p, feats, greedy, i)
        np.testing.assert_array_equal(greedy[:, i], np.argmax(ref_p, axis=1))


def test_feature_arrays_and_env_states_agree():
    spec = DENSE_SPECS[1]
    rng = np.random.default_rng(4)
    p = random_params(spec, rng)
    feats = np.stack([rng.integers(0, c, 9) for c in spec.state_cards], 1)
    states = [EnvState(features=tuple(f)) for f in feats.tolist()]
    u = rng.random((9, spec.n))
    np.testing.assert_array_equal(sample_utterances_batch(p, feats, u),
                                  sample_utterances_batch(p, states, u))
    for a, b in zip(teacher_forced_batch(p, feats, greedy_utterance(p, feats)),
                    teacher_forced_batch(p, states,
                                         greedy_utterance(p, states))):
        np.testing.assert_array_equal(a, b)



# -- decoding from per-state tables -------------------------------------------


def dense_decode(p, feats, u):
    """Reference decoder: each position's logits from the dense product
    dense_features(...) @ W, NULL masked, then softmax and inverse CDF on u
    (or argmax if u is None); no table and no gathered rows."""
    spec = p.spec
    sidx = pol.state_index(spec.state_cards, feats)
    toks = np.zeros((len(feats), spec.n), dtype=np.intp)
    for i in range(spec.n):
        z = dense_features(spec, sidx, toks, i) @ p.weights
        z[:, NULL] = -np.inf
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        if u is None:
            toks[:, i] = np.argmax(probs, axis=1)
        else:
            below = probs.cumsum(axis=1) <= u[:, i:i + 1]
            toks[:, i] = np.minimum(below.sum(axis=1), spec.vocab_size - 1)
    return toks


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_table_decoder_matches_dense_reference(env_id):
    env = make_env(env_id)
    spec = FeatureSpec.for_env(env)
    grid = pol.state_grid(spec.state_cards)
    S = len(grid)
    assert S == int(np.prod(spec.state_cards))
    np.testing.assert_array_equal(pol.state_ids(spec.state_cards, grid),
                                  np.arange(S))
    rng = np.random.default_rng(11)
    # every state four times; rows 0-2 of each state's first block take the
    # extreme uniforms 0, the largest double below 1, and 1 itself, where
    # rounding can leave the cumulative total below u and the V - 1 clamp
    # decides.  The second block's uniforms are set below to cumulative
    # values of the distributions they pick from.
    feats = np.tile(grid, (4, 1))
    u = rng.random((len(feats), spec.n))
    u[:S:3] = 0.0
    u[1:S:3] = np.nextafter(1.0, 0.0)
    u[2:S:3] = 1.0
    block = slice(S, 2 * S)
    cols = np.random.default_rng(12).integers(0, spec.vocab_size,
                                              (S, spec.n))
    clamped = zeros = flat = 0
    # the last scale saturates: many probabilities are exactly 0, and the
    # cumulative sums run flat across them
    for scale in (0.3, 2.0, 8.0, 200.0):
        p = random_params(spec, rng, scale=scale)
        tables = pol.decode_tables(p)
        # u = 1 rows whose position-0 total does not exceed u
        clamped += np.count_nonzero(tables.cdf0[2:S:3, -1] <= 1.0)
        probs = np.empty((len(feats), spec.n, spec.vocab_size))
        for i in range(spec.n):  # earlier tokens fix position i's cdf
            sample_utterances_batch(tables, feats, u,
                                    out=(probs, np.empty_like(probs)))
            cdf = probs[block, i].cumsum(axis=1)
            u[block, i] = np.take_along_axis(cdf, cols[:, i, None], 1)[:, 0]
            # rows whose u sits on a flat run: the next column equals it
            nxt = np.take_along_axis(cdf, np.minimum(cols[:, i, None] + 1,
                                                     spec.vocab_size - 1), 1)
            flat += np.count_nonzero((nxt[:, 0] == u[block, i])
                                     & (cols[:, i] < spec.vocab_size - 1))
        zeros += np.count_nonzero(probs[:, :, 1:] == 0.0)
        toks = sample_utterances_batch(tables, feats, u)
        np.testing.assert_array_equal(toks, dense_decode(p, feats, u))
        np.testing.assert_array_equal(toks,
                                      sample_utterances_batch(p, feats, u))
        greedy = greedy_utterance(tables, feats)
        np.testing.assert_array_equal(greedy, dense_decode(p, feats, None))
        assert np.all(toks != NULL) and np.all(greedy != NULL)
        # u = 0: the first token of non-zero probability
        np.testing.assert_array_equal(
            toks[:S:3, 0], np.argmax(tables.probs0[:S:3] > 0.0, axis=1))
    assert clamped > 0 and zeros > 0 and flat > 0


@pytest.mark.parametrize("bad", [(np.inf,), (np.nan,), (-np.inf, np.nan)])
def test_decoding_rejects_non_finite_weights(bad):
    """Every decode, teacher forcing included, builds decode_tables, which
    rejects non-finite weights.  Unchecked, each of these weight sets draws
    NULL on some grid rows, in sampling and in greedy decoding.  For
    stacked runs, one bad run is enough."""
    env = make_env("numberline")
    spec = FeatureSpec.for_env(env)
    rng = np.random.default_rng(13)
    grid = pol.state_grid(spec.state_cards)
    u = rng.random((len(grid), spec.n))
    p = random_params(spec, rng)
    for j, value in enumerate(bad):
        p.weights[rng.integers(spec.dim), j + 1] = value
    stacked = PolicyParams(spec=spec, weights=np.stack(
        [random_params(spec, rng).weights, p.weights]))
    for params, runs in ((p, 1), (stacked, 2)):
        feats, uu = np.tile(grid, (runs, 1)), np.tile(u, (runs, 1))
        toks = np.ones((len(feats), spec.n), dtype=int)
        for decode in (lambda: pol.decode_tables(params),
                       lambda: sample_utterances_batch(params, feats, uu),
                       lambda: greedy_utterance(params, feats),
                       lambda: teacher_forced_batch(params, feats, toks)):
            with pytest.raises(ValueError,
                               match="policy weights are not finite"):
                decode()


def test_decode_tables_rows_are_the_state_rows():
    spec = DENSE_SPECS[2]
    p = random_params(spec, np.random.default_rng(12), scale=2.0)
    tables = pol.decode_tables(p)
    grid = pol.state_grid(spec.state_cards)
    for s, f in enumerate(grid):
        probs, _ = dist(p, EnvState(features=tuple(f.tolist())), ())
        np.testing.assert_array_equal(tables.cdf0[s], probs.cumsum())
        assert tables.greedy0[s] == np.argmax(probs)
        assert tables.base[s, NULL] == -np.inf
    with pytest.raises(ValueError):  # a feature outside its cardinality
        pol.state_ids(spec.state_cards, np.array([[spec.state_cards[0]]]))
    # numberline's first feature at 10 would read column 10, the first
    # column of the second feature's block
    numberline = DENSE_SPECS[0]
    with pytest.raises(ValueError):
        teacher_forced_batch(PolicyParams.zeros(numberline),
                             np.array([[10, 3]]),
                             np.ones((1, numberline.n), dtype=int))
