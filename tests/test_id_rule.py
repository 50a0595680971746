"""One id rule: every public call that reads token ids, action classes or
step counts checks them with textmdp.id_array (integer dtype, every id in
[0, size)), once per id input."""
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
    ("teacher_forced_batch", "token ids", V, TOKENS,
     lambda ys: teacher_forced_batch(POLICY, STATES, ys)),
    ("grad_objective", "token ids", V, TOKENS,
     lambda ys: grad_objective(POLICY, STATES, ys,
                               sample_weights=np.ones(2))),
    ("grad_objective_forced", "token ids", V, TOKENS,
     lambda ys: grad_objective(POLICY, STATES, ys, sample_weights=np.ones(2),
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


# public call -> the ids it checks, in order.  grad_objective without
# forced checks its tokens again inside teacher_forced_batch, the one
# teacher-forcing seam.
CHECKS = {
    "parse": ["token ids"],
    "parse_batch": ["token ids"],
    "step_batch": ["step counts of unfinished episodes"],
    "teacher_forced_batch": ["token ids"],
    "grad_objective": ["token ids", "token ids"],
    "grad_objective_forced": ["token ids"],
    "causal_weights_batch": ["token ids", "action classes"],
    "train_scm": ["token ids", "action classes"],
    "scm_likelihood_batch": ["token ids"],
    "accuracy": ["token ids", "action classes"],
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_one_public_call_checks_each_id_input_once(name, monkeypatch):
    seen = []
    real = textmdp.id_array

    def counting(a, size, what):
        seen.append(what)
        return real(a, size, what)
    for mod in (textmdp, scm, policy):
        monkeypatch.setattr(mod, "id_array", counting)
    _, _, _, good, call = next(r for r in READERS if r[0] == name)
    call(good)
    assert seen == CHECKS[name]
