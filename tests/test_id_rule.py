"""One id rule: every public call that reads token ids, action classes,
step counts or action indices checks them with textmdp.id_array (integer
dtype, every id in [0, size)), once per id input.  State features pass
textmdp.state_id_array, and the scalars of train_scm, cf_report, the
sampling probe, evaluate_greedy and the seeds of Trainer and
TheoryCheckSpec textmdp.check_scalar, the rule config values pass."""
import numpy as np
import pytest

from coso import checkpoint, policy, scm, textmdp
from coso.coso_rl import Hyperparams, Trainer
from coso.counterfactual import causal_weights_batch
from coso.harness import (TheoryCheckSpec, cf_report, evaluate_greedy,
                          repeated_sampling_probe)
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
# a larger batch whose rows 2 and 0 are STATES and TOKENS, and its forcing,
# as a minibatch takes its rows of the rollout's
WIDE = teacher_forced_batch(POLICY, [STATES[1], EnvState((3, 3)), STATES[0]],
                            [TOKENS[1], [4, 4, 4], TOKENS[0]])
ROWS = np.array([2, 0])
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
     lambda ys: grad_objective(POLICY, STATES, ys, np.ones(2),
                               forced=FORCED)),
    ("grad_objective", "state features", CARDS[-1], FEATS,
     lambda f: grad_objective(POLICY, f, TOKENS, np.ones(2), forced=FORCED)),
    ("grad_objective_forced", "token ids", V, TOKENS,
     lambda ys: grad_objective(POLICY, STATES, ys, np.ones(2), forced=WIDE,
                               forced_rows=ROWS)),
    ("grad_objective_forced", "state features", CARDS[-1], FEATS,
     lambda f: grad_objective(POLICY, f, TOKENS, np.ones(2), forced=WIDE,
                              forced_rows=ROWS)),
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
                                                np.ones(2), forced=FORCED),
    "grad_objective_forced": lambda ys: grad_objective(
        POLICY, STATES, ys, np.ones(2), forced=WIDE, forced_rows=ROWS),
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


@pytest.mark.parametrize("classifiers, generators", [(2, 1), (2, 3), (0, 0),
                                                     (0, 1)])
def test_train_scm_takes_one_generator_per_classifier(classifiers,
                                                      generators):
    """With fewer generators two runs drew the same rows, with more numpy
    raised a broadcast error, and with no classifiers an IndexError; no
    generator moves."""
    rngs = [np.random.default_rng(g) for g in range(generators)]
    starts = [g.bit_generator.state for g in rngs]
    ys = np.tile(TOKENS, (max(classifiers, 1), 1))
    labels = np.tile(ACTIONS, max(classifiers, 1))
    with pytest.raises(ValueError, match="rngs"):
        train_scm([PHI] * classifiers, ys, labels, lr=1e-2, steps=1,
                  batch_size=2, rngs=rngs)
    assert [g.bit_generator.state for g in rngs] == starts


@pytest.mark.parametrize("bad", [-1, True, 1.5, "1"])
def test_seeds_are_checked_at_construction(bad):
    """A run's and the theory check's seed must be an int >= 0: -1 failed
    only inside SeedSequence, True trained as seed 1 and 1.5 raised
    numpy's TypeError."""
    Trainer(ENV, Hyperparams(), seed=0)
    TheoryCheckSpec(seed=0)
    with pytest.raises(ValueError, match="seed"):
        Trainer(ENV, Hyperparams(), seed=bad)
    with pytest.raises(ValueError, match="seed"):
        TheoryCheckSpec(seed=bad)


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_evaluate_greedy_checks_episodes(bad):
    """episodes must be an int >= 1: 0 failed on a (1, 0) feature array,
    -1 in numpy and True ran one episode."""
    evaluate_greedy(ENV, POLICY, 2)
    with pytest.raises(ValueError, match="episodes"):
        evaluate_greedy(ENV, POLICY, bad)


@pytest.mark.parametrize("name, bad", [
    ("num_episodes", True), ("num_episodes", 2.5), ("num_episodes", 2.0),
    ("num_episodes", "2"), ("num_episodes", 0),
    ("sample_seed", True), ("sample_seed", 2.5), ("sample_seed", "5"),
    ("sample_seed", -1),
    ("k", True), ("k", 2.5), ("k", 2.0), ("k", "2"), ("k", 0),
])
def test_report_and_probe_reject_bad_int_args(name, bad, tmp_path):
    """cf_report's num_episodes and the probe's k must be ints >= 1 and
    either's sample_seed an int >= 0, by the rule config values pass."""
    path = tmp_path / "ckpt.json"
    checkpoint.save_bundle(path, POLICY, PHI, "numberline")
    calls = [lambda **kw: cf_report(path, "numberline", **kw),
             lambda **kw: repeated_sampling_probe(path, "c=3,tau=7", **kw)]
    good = [{"num_episodes": 2, "sample_seed": 0},
            {"k": 2, "sample_seed": 0}]
    for call, kw in zip(calls, good):
        call(**kw)
        if name in kw:
            with pytest.raises(ValueError, match=name):
                call(**{**kw, name: bad})
