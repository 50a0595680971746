"""One id rule: every public call that reads token ids, action classes,
step counts or action indices checks them with textmdp.id_array (integer
dtype, every id in [0, size)), once per id input.  State features pass
textmdp.state_id_array, and train_scm's scalars textmdp.check_scalar, the
rule config values pass."""
import numpy as np
import pytest

from coso import policy, scm, textmdp
from coso.counterfactual import causal_weights_batch
from coso.policy import (FeatureSpec, PolicyParams, grad_objective,
                         teacher_forced_batch)
from coso.scm import ScmParams, accuracy, scm_likelihood_batch, train_scm
from coso.textmdp import EnvState, make_env

ENV = make_env("numberline")
V, A, H = ENV.vocab.size, ENV.num_actions, ENV.horizon
CARDS = ENV.state_feature_cards()  # (10, 10): a bad last feature is 10
STATES = [EnvState((1, 5)), EnvState((2, 3))]
FEATS = np.array([s.features for s in STATES])
TOKENS = np.array([[5, 6, 2], [7, 8, 3]])
ACTIONS = np.array([0, 1])
STEPS = np.array([0, 3])
POLICY = PolicyParams.zeros(FeatureSpec.for_env(ENV))
FORCED = teacher_forced_batch(POLICY, STATES, TOKENS)
PHI = ScmParams.zeros(ENV.grammar.n, V, A)


def train(ys, labels):
    return train_scm([PHI], ys, labels, lr=1e-2, steps=1, batch_size=2,
                     rngs=[np.random.default_rng(0)])


# (public call, what its message names, id range, good ids, the call on ids)
READERS = [
    ("parse", "token ids", V, TOKENS[0], ENV.parse),
    ("parse_batch", "token ids", V, TOKENS, ENV.parse_batch),
    ("step_batch", "step counts", H, STEPS,
     lambda s: ENV.step_batch(FEATS, s, ACTIONS)),
    ("step_batch", "action indices", A, ACTIONS,
     lambda a: ENV.step_batch(FEATS, STEPS, a)),
    ("step_batch", "state features", CARDS[-1], FEATS,
     lambda f: ENV.step_batch(f, STEPS, ACTIONS)),
    ("state_ids", "state features", CARDS[-1], FEATS,
     lambda f: policy.state_ids(CARDS, f)),
    ("teacher_forced_batch", "token ids", V, TOKENS,
     lambda ys: teacher_forced_batch(POLICY, STATES, ys)),
    ("teacher_forced_batch", "state features", CARDS[-1], FEATS,
     lambda f: teacher_forced_batch(POLICY, f, TOKENS)),
    ("grad_objective", "token ids", V, TOKENS,
     lambda ys: grad_objective(POLICY, STATES, ys,
                               sample_weights=np.ones(2))),
    ("grad_objective", "state features", CARDS[-1], FEATS,
     lambda f: grad_objective(POLICY, f, TOKENS, sample_weights=np.ones(2))),
    ("grad_objective_forced", "token ids", V, TOKENS,
     lambda ys: grad_objective(POLICY, STATES, ys, sample_weights=np.ones(2),
                               forced=FORCED)),
    ("grad_objective_forced", "state features", CARDS[-1], FEATS,
     lambda f: grad_objective(POLICY, f, TOKENS, sample_weights=np.ones(2),
                              forced=FORCED)),
    ("causal_weights_batch", "token ids", V, TOKENS,
     lambda ys: causal_weights_batch(PHI, ys, ACTIONS)),
    ("causal_weights_batch", "action classes", A, ACTIONS,
     lambda a: causal_weights_batch(PHI, TOKENS, a)),
    ("train_scm", "token ids", V, TOKENS, lambda ys: train(ys, ACTIONS)),
    ("train_scm", "action classes", A, ACTIONS, lambda a: train(TOKENS, a)),
    ("scm_likelihood_batch", "token ids", V, TOKENS,
     lambda ys: scm_likelihood_batch(PHI, ys)),
    ("accuracy", "token ids", V, TOKENS, lambda ys: accuracy(PHI, ys, ACTIONS)),
    ("accuracy", "action classes", A, ACTIONS,
     lambda a: accuracy(PHI, TOKENS, a)),
]


def with_last(ids, value):
    bad = ids.copy()
    bad.flat[-1] = value
    return bad


BAD = {
    "float": lambda ids, size: ids.astype(float),  # integral floats too
    "bool": lambda ids, size: ids != 0,
    "negative": lambda ids, size: with_last(ids, -1),
    "size": lambda ids, size: with_last(ids, size),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("reader", READERS,
                         ids=[f"{r[0]}-{r[1].replace(' ', '_')}"
                              for r in READERS])
def test_every_id_reader_rejects_bad_ids(reader, bad):
    _, what, size, good, call = reader
    call(good)
    with pytest.raises(ValueError, match=what):
        call(BAD[bad](good, size))


# public call -> the ids and state features it checks, in order.
CHECKS = {
    "parse": ["token ids"],
    "parse_batch": ["token ids"],
    "step_batch": ["state features", "step counts of unfinished episodes",
                   "action indices"],
    "state_ids": ["state features"],
    "teacher_forced_batch": ["token ids", "state features"],
    "grad_objective": ["token ids", "state features"],
    "grad_objective_forced": ["token ids", "state features"],
    "causal_weights_batch": ["token ids", "action classes"],
    "train_scm": ["token ids", "action classes"],
    "scm_likelihood_batch": ["token ids"],
    "accuracy": ["token ids", "action classes"],
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_one_public_call_checks_each_id_input_once(name, monkeypatch):
    seen = []
    real, real_states = textmdp.id_array, textmdp.state_id_array

    def counting(a, size, what):
        seen.append(what)
        return real(a, size, what)

    def counting_states(feats, cards):
        seen.append("state features")
        return real_states(feats, cards)
    for mod in (textmdp, scm, policy):
        monkeypatch.setattr(mod, "id_array", counting)
    for mod in (textmdp, policy):
        monkeypatch.setattr(mod, "state_id_array", counting_states)
    _, _, _, good, call = next(r for r in READERS if r[0] == name)
    call(good)
    assert seen == CHECKS[name]


# the public calls that pair utterances with states, on utterances
UTTERANCE_READERS = {
    "teacher_forced_batch": lambda ys: teacher_forced_batch(POLICY, STATES,
                                                            ys),
    "grad_objective": lambda ys: grad_objective(POLICY, STATES, ys,
                                                sample_weights=np.ones(2)),
    "grad_objective_forced": lambda ys: grad_objective(
        POLICY, STATES, ys, sample_weights=np.ones(2), forced=FORCED),
}
N = ENV.grammar.n


@pytest.mark.parametrize("shape", [(1, N), (2, N - 1), (2, N + 1), (2 * N,)])
@pytest.mark.parametrize("name", sorted(UTTERANCE_READERS))
def test_utterances_must_be_one_row_of_n_per_state(name, shape):
    UTTERANCE_READERS[name](TOKENS)
    with pytest.raises(ValueError, match="utterances of shape"):
        UTTERANCE_READERS[name](np.ones(shape, dtype=np.intp))


@pytest.mark.parametrize("name, bad", [
    ("steps", 2.5), ("steps", 2.0), ("steps", True), ("steps", "2"),
    ("batch_size", 2.0), ("batch_size", False),
    ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", -1e-2),
    ("lr", True), ("lr", "0.01"),
])
def test_train_scm_rejects_bad_scalars_before_any_draw(name, bad):
    """steps and batch_size must be ints and lr a finite float > 0, by the
    rules Hyperparams applies (a bool is neither); the generator stays
    where it was."""
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    kw = dict(lr=1e-2, steps=1, batch_size=2)
    kw[name] = bad
    with pytest.raises(ValueError, match=name):
        train_scm([PHI], TOKENS, ACTIONS, rngs=[rng], **kw)
    assert rng.bit_generator.state == start
