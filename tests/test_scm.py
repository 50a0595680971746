import numpy as np
import pytest

from coso import scm
from coso.scm import ScmParams, accuracy, scm_likelihood_batch, train_scm
from coso.textmdp import NULL, make_env


class AllRows:
    """A generator whose draw of rows is every row once, in order."""

    def integers(self, low, high, size):
        return np.broadcast_to(np.arange(low, high), size)


def scm_update(phi, ys, labels, lr=1e-3):
    """One Adam step of cross-entropy on the whole batch of (sequence,
    action) pairs: the updated params and the mean loss at the pre-update
    params."""
    (phi,), (loss,) = train_scm([phi], ys, labels, lr, steps=1,
                                batch_size=len(ys), rngs=[AllRows()])
    return phi, loss


def reference_logits(phi, ys):
    """(rows, A) logits: the summed (rows, n, A) gather of the weight rows
    of each slot's token, plus the bias."""
    idx = np.asarray(ys) + np.arange(phi.n)[None, :] * phi.vocab_size
    return np.sum(phi.weights[idx], axis=1) + phi.bias


def reference_softmax(z):
    """Row-wise softmax of (rows, A) logits."""
    z = z - np.max(z, axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / np.sum(ez, axis=-1, keepdims=True)


def scm_likelihood(phi, y):
    """Likelihoods of one sequence: a batch of one."""
    return scm_likelihood_batch(phi, [list(y)])[0]


def scm_predict(phi, y):
    """Argmax action class; ties break to the lowest class index."""
    return int(np.argmax(scm_likelihood(phi, y)))


def rollout_pairs(env, rng, count):
    """Random utterances labeled by the parser (ParseError -> NOOP class)."""
    ys, labels = [], []
    for _ in range(count):
        y = tuple(int(rng.integers(1, env.vocab.size))
                  for _ in range(env.grammar.n))
        action, _ = env.parse_or_noop(y)
        ys.append(y)
        labels.append(env.action_index(action))
    return np.array(ys), np.array(labels)


def test_zero_params_uniform_likelihood():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    probs = scm_likelihood(phi, (5, 6, 2))
    np.testing.assert_allclose(probs, 1.0 / 3, atol=1e-15)
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_uniform_tie_breaks_to_class_zero():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    assert scm_predict(phi, (5, 6, 2)) == 0


def test_predict_shift_invariant():
    rng = np.random.default_rng(0)
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    phi.weights = rng.normal(size=phi.weights.shape)
    y = (5, 6, 2)
    base = scm_predict(phi, y)
    phi.bias += 17.3
    assert scm_predict(phi, y) == base


def test_null_tokens_are_in_domain():
    rng = np.random.default_rng(1)
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    phi.weights = rng.normal(size=phi.weights.shape)
    for y in [(NULL, 6, 2), (5, NULL, 2), (NULL, NULL, NULL)]:
        probs = scm_likelihood(phi, y)
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [3, 6])
def test_logits_match_summed_gather(n):
    rng = np.random.default_rng(n)
    vocab, actions = 16, 8
    phi = ScmParams.zeros(n=n, vocab_size=vocab, num_actions=actions)
    phi.weights = rng.normal(size=phi.weights.shape)
    phi.bias = rng.normal(size=actions)
    ys = rng.integers(1, vocab, size=(500, n))
    ys[rng.random(ys.shape) < 0.3] = NULL  # nullified slots, as interventions
    ys[0] = NULL
    idx = ys + np.arange(n)[None, :] * vocab
    reference = np.sum(phi.weights[idx], axis=1) + phi.bias
    got = scm._gathered_logits(np.ascontiguousarray(phi.weights.T),
                               phi.bias[:, None], np.ascontiguousarray(idx.T))
    assert np.array_equal(got.T, reference)
    assert np.array_equal(scm_likelihood_batch(phi, ys),
                          reference_softmax(reference))


def test_bad_inputs_raise():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    with pytest.raises(ValueError):
        scm_likelihood(phi, (5, 6))
    with pytest.raises(ValueError):
        scm_likelihood(phi, (5, 6, 99))
    with pytest.raises(ValueError):
        scm_update(phi, np.empty((0, 3), dtype=int), np.empty(0, dtype=int))


def test_first_step_loss_is_log_num_actions():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    _, loss = scm_update(phi, [(5, 6, 2), (7, 8, 3)], [0, 1])
    np.testing.assert_allclose(loss, np.log(3), atol=1e-12)


def test_overfit_single_example():
    phi = ScmParams.zeros(n=3, vocab_size=16, num_actions=3)
    loss = None
    for _ in range(1000):
        phi, loss = scm_update(phi, [(5, 6, 2)], [1], lr=1e-2)
    assert loss <= 0.01


def test_monotone_overfit_on_fixed_batch():
    env = make_env("numberline")
    rng = np.random.default_rng(2)
    ys, labels = rollout_pairs(env, rng, 64)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    checkpoints = []
    for step in range(1, 1001):
        phi, loss = scm_update(phi, ys, labels, lr=1e-2)
        if step % 100 == 0:
            checkpoints.append(loss)
    for prev, cur in zip(checkpoints, checkpoints[1:]):
        assert cur - prev <= 1e-3


def test_loss_finite_on_random_batches():
    env = make_env("menunav")
    rng = np.random.default_rng(3)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    for _ in range(300):
        ys, labels = rollout_pairs(env, rng, 16)
        phi, loss = scm_update(phi, ys, labels, lr=1e-2)
        assert np.isfinite(loss) and loss >= 0.0


def test_numberline_convergence_matches_parser():
    env = make_env("numberline")
    rng = np.random.default_rng(4)
    ys, labels = rollout_pairs(env, rng, 4000)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    (phi,), _ = train_scm([phi], ys[:3000], labels[:3000], lr=1e-2,
                          steps=1500, batch_size=256, rngs=[rng])
    assert accuracy(phi, ys[3000:], labels[3000:]) >= 0.99


def test_update_leaves_input_untouched():
    env = make_env("menunav")
    rng = np.random.default_rng(3)
    ys, labels = rollout_pairs(env, rng, 64)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    phi, _ = scm_update(phi, ys[:32], labels[:32], lr=1e-2)
    arrays = [phi.weights, phi.bias, phi.opt_w.m, phi.opt_w.v, phi.opt_b.m,
              phi.opt_b.v]
    before = [a.copy() for a in arrays]
    new, _ = scm_update(phi, ys[32:], labels[32:], lr=1e-2)
    assert not np.array_equal(new.weights, phi.weights)
    for a, b in zip([phi.weights, phi.bias, phi.opt_w.m, phi.opt_w.v,
                     phi.opt_b.m, phi.opt_b.v], before):
        np.testing.assert_array_equal(a, b)
    assert phi.opt_w.step == phi.opt_b.step == 1
    assert new.opt_w.step == new.opt_b.step == 2


@pytest.mark.parametrize("env_id", ["numberline", "menunav"])
def test_update_gradient_matches_add_at_scatter(env_id):
    """The bincount scatter equals n np.add.at calls, and the bias gradient
    a sum over the rows in order from 0, bit for bit."""
    env = make_env(env_id)
    rng = np.random.default_rng(4)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    phi.weights = rng.normal(size=phi.weights.shape)
    phi.bias = rng.normal(size=phi.bias.shape)
    ys, labels = rollout_pairs(env, rng, 256)
    ys[:7, 1] = NULL  # nullified sequences are in-domain
    m = len(ys)
    dz = reference_softmax(reference_logits(phi, ys))
    dz[np.arange(m), labels] -= 1.0
    dz /= m
    grad_w = np.zeros_like(phi.weights)
    idx = ys + np.arange(phi.n)[None, :] * phi.vocab_size
    for i in range(phi.n):
        np.add.at(grad_w, idx[:, i], dz)
    # Adam's first step from zero moments, taken with the reference gradient
    ref = scm.adam_update_runs([scm.AdamState()], phi.weights[None],
                               grad_w[None], 1e-3)[0]
    grad_b = np.zeros_like(phi.bias)
    for row in dz:
        grad_b += row
    ref_b = scm.adam_update_runs([scm.AdamState()], phi.bias[None],
                                 grad_b[None], 1e-3)[0]
    new, _ = scm_update(phi, ys, labels, lr=1e-3)
    np.testing.assert_array_equal(new.weights, ref)
    np.testing.assert_array_equal(new.opt_w.m, (1 - 0.9) * grad_w)
    np.testing.assert_array_equal(new.bias, ref_b)
    np.testing.assert_array_equal(new.opt_b.m, (1 - 0.9) * grad_b)


@pytest.mark.parametrize("env_id, batch_size", [("numberline", 32),
                                                ("menunav", 256),
                                                ("menunav", 500)])
def test_train_scm_matches_scm_update_loop(env_id, batch_size):
    """train_scm indexes its batch once; each step equals scm_update on the
    same picks, bit for bit, and scores batch_size sequences."""
    env = make_env(env_id)
    rng = np.random.default_rng(5)
    ys, labels = rollout_pairs(env, rng, 300)
    ys[:9, 0] = NULL
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    phi.weights = rng.normal(size=phi.weights.shape)
    steps = 6
    before = scm.eval_count()
    (got,), (got_loss,) = train_scm([phi], ys, labels, lr=1e-2, steps=steps,
                                    batch_size=batch_size,
                                    rngs=[np.random.default_rng(9)])
    m = min(batch_size, len(ys))
    assert scm.eval_count() - before == steps * m
    pick_rng = np.random.default_rng(9)
    want = phi
    for _ in range(steps):
        pick = pick_rng.integers(0, len(ys), size=m)
        want, want_loss = scm_update(want, ys[pick], labels[pick], lr=1e-2)
    assert got_loss == want_loss
    for a, b in ((got.weights, want.weights), (got.bias, want.bias),
                 (got.opt_w.m, want.opt_w.m), (got.opt_w.v, want.opt_w.v),
                 (got.opt_b.m, want.opt_b.m), (got.opt_b.v, want.opt_b.v)):
        np.testing.assert_array_equal(a, b)
    assert got.opt_w.step == want.opt_w.step == steps


def test_train_scm_rejects_out_of_vocab_before_any_step():
    env = make_env("numberline")
    rng = np.random.default_rng(6)
    ys, labels = rollout_pairs(env, rng, 64)
    ys[-1, 2] = env.vocab.size  # one bad token, in a row a pick may miss
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    draws = np.random.default_rng(1)
    state = draws.bit_generator.state
    before = scm.eval_count()
    with pytest.raises(ValueError, match="token ids outside"):
        train_scm([phi], ys, labels, lr=1e-2, steps=4, batch_size=8,
                  rngs=[draws])
    assert draws.bit_generator.state == state
    assert scm.eval_count() == before
    assert phi.opt_w.step == 0 and not phi.weights.any()


@pytest.mark.parametrize("arg, value", [("batch_size", 0), ("steps", -1)])
def test_train_scm_rejects_bad_step_arguments(arg, value):
    """batch_size=0 would take Adam steps on empty minibatches and report a
    NaN loss; steps=-1 would fail inside numpy."""
    env = make_env("numberline")
    ys, labels = rollout_pairs(env, np.random.default_rng(6), 16)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    draws = np.random.default_rng(1)
    state = draws.bit_generator.state
    kwargs = {"steps": 4, "batch_size": 8, arg: value}
    with pytest.raises(ValueError, match=arg):
        train_scm([phi], ys, labels, lr=1e-2, rngs=[draws], **kwargs)
    assert draws.bit_generator.state == state


BAD_LABELS = {
    "negative": lambda labels: np.r_[labels[:-1], -1],
    "past_last_class": lambda labels: np.r_[labels[:-1], 3],
    "extra": lambda labels: np.r_[labels, 0, 1],
    "short": lambda labels: labels[:-1],
    "float": lambda labels: labels.astype(float),
    "two_dim": lambda labels: labels[:, None],
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_train_scm_rejects_bad_labels_before_any_draw(case):
    """Labels must be an integer (M,) array of classes in [0, A): a label of
    -1 would train the last class, and a longer array would go unread."""
    env = make_env("numberline")
    ys, labels = rollout_pairs(env, np.random.default_rng(6), 16)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    draws = np.random.default_rng(1)
    state = draws.bit_generator.state
    before = scm.eval_count()
    with pytest.raises(ValueError, match="action class"):
        train_scm([phi], ys, BAD_LABELS[case](labels), lr=1e-2, steps=4,
                  batch_size=8, rngs=[draws])
    assert draws.bit_generator.state == state
    assert scm.eval_count() == before
    assert phi.opt_w.step == 0 and not phi.weights.any()


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_accuracy_rejects_bad_labels(case):
    env = make_env("numberline")
    ys, labels = rollout_pairs(env, np.random.default_rng(7), 16)
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    assert accuracy(phi, ys, labels) == np.mean(labels == 0)
    with pytest.raises(ValueError, match="action class"):
        accuracy(phi, ys, BAD_LABELS[case](labels))


def test_train_scm_leaves_each_generator_as_separate_draws():
    """One (steps, B) draw per run moves its generator as steps draws of B
    rows do, so the run's later draws are unchanged."""
    env = make_env("menunav")
    ys, labels = rollout_pairs(env, np.random.default_rng(8), 2 * 40)
    phis = [ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
            for _ in range(2)]
    for batch_size, steps in ((8, 5), (64, 3), (40, 1)):
        rngs = [np.random.default_rng(s) for s in (11, 12)]
        train_scm(phis, ys, labels, lr=1e-2, steps=steps,
                  batch_size=batch_size, rngs=rngs)
        for seed, g in zip((11, 12), rngs):
            ref = np.random.default_rng(seed)
            for _ in range(steps):
                ref.integers(0, 40, size=min(batch_size, 40))
            assert g.random() == ref.random()


def signed_zero_equal(a, b):
    """Bitwise equality of two float64 arrays, -0.0 against 0.0 included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("actions", list(range(1, 41)) + [129, 200, 300])
def test_action_sum_matches_numpy_row_sums(actions):
    """_action_sum(x.T) is np.sum(x, axis=-1) bit for bit: numpy's pairwise
    order, its 0.0 start included (a row of -0.0 sums to +0.0)."""
    rng = np.random.default_rng(actions)
    rows = 300
    kinds = rng.integers(0, 6, size=(rows, actions))
    x = rng.normal(size=(rows, actions))
    x[kinds == 1] *= 1e-300  # tiny, subnormal sums
    x[kinds == 2] *= 1e300  # huge, sums that overflow
    x[kinds == 3] = -0.0
    x[kinds == 4] = 0.0
    x[kinds == 5] = rng.choice([1.0, -1.0, 1e16, -1e16, 5e-324],
                               size=np.count_nonzero(kinds == 5))
    x[0] = -0.0
    x[1] = 0.0
    x[2, ::2] = -0.0
    x[3] = 1e308
    with np.errstate(over="ignore"):
        want = np.sum(x, axis=-1)
        got = scm._action_sum(np.ascontiguousarray(x.T))
    assert signed_zero_equal(got, want)
    assert not np.signbit(want[0])


FLOAT_TOKENS = {
    "fractional": [[5.7, 6.2, 2.9]],
    "whole_floats": [[5.0, 6.0, 2.0]],
    "bool": [[True, False, True]],
}


@pytest.mark.parametrize("case", sorted(FLOAT_TOKENS))
def test_non_integer_tokens_are_rejected_not_truncated(case):
    """Token ids must be integers, as action classes must: a float row such
    as (5.7, 6.2, 2.9) would otherwise be scored as the tokens (5, 6, 2)."""
    from coso.counterfactual import causal_weights_batch
    env = make_env("numberline")
    phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
    ys = np.asarray(FLOAT_TOKENS[case])
    draws = np.random.default_rng(1)
    state = draws.bit_generator.state
    before = scm.eval_count()
    with pytest.raises(ValueError, match="not integer"):
        scm_likelihood_batch(phi, ys)
    with pytest.raises(ValueError, match="not integer"):
        causal_weights_batch(phi, ys, [0])
    with pytest.raises(ValueError, match="not integer"):
        train_scm([phi], ys, np.array([0]), lr=1e-2, steps=2, batch_size=1,
                  rngs=[draws])
    assert draws.bit_generator.state == state
    assert scm.eval_count() == before
    # the integer row those floats truncate to is scored
    assert scm_likelihood_batch(phi, ys.astype(np.int32)).shape == (1, 3)
