"""Surrogate probabilistic classifier P(a | y) imitating the parser.

Trained online by cross-entropy against the parser's labels, then queried
under token-nullification interventions by the counterfactual machinery.
The feature map is a (position, token) one-hot that covers NULL, so nullified
sequences are always in-domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def update(self, params: np.ndarray, grad: np.ndarray,
               lr: float) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.step += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad * grad
        mhat = self.m / (1 - ADAM_BETA1 ** self.step)
        vhat = self.v / (1 - ADAM_BETA2 ** self.step)
        return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass
class ScmParams:
    n: int
    vocab_size: int
    num_actions: int
    weights: np.ndarray  # (n * vocab, actions)
    bias: np.ndarray  # (actions,)
    opt_w: AdamState = field(default_factory=AdamState)  # Adam on weights
    opt_b: AdamState = field(default_factory=AdamState)  # Adam on bias

    @classmethod
    def zeros(cls, n: int, vocab_size: int, num_actions: int) -> "ScmParams":
        return cls(n=n, vocab_size=vocab_size, num_actions=num_actions,
                   weights=np.zeros((n * vocab_size, num_actions)),
                   bias=np.zeros(num_actions))

    def copy(self) -> "ScmParams":
        # AdamState.update rebinds its moments to new arrays and never writes
        # into them, so a shallow copy of an optimizer state is independent
        return replace(self, weights=self.weights.copy(),
                       bias=self.bias.copy(), opt_w=replace(self.opt_w),
                       opt_b=replace(self.opt_b))


# Module-level counter auditing how many sequences the SCM has scored;
# the counterfactual tests use it to pin the interventions-per-utterance cost.
_EVAL_COUNT = 0


def eval_count() -> int:
    return _EVAL_COUNT


def _feature_indices(phi: ScmParams, ys: np.ndarray) -> np.ndarray:
    # active one-hot index for slot i is i * V + token
    return ys + np.arange(phi.n)[None, :] * phi.vocab_size


def _checked_tokens(phi: ScmParams, ys) -> np.ndarray:
    """ys as an (M, n) intp array; a 1-d sequence is a batch of one."""
    ys = np.asarray(ys, dtype=np.intp)
    if ys.ndim == 1:
        ys = ys[None, :]
    if ys.shape[1] != phi.n:
        raise ValueError(f"sequence length {ys.shape[1]} != {phi.n}")
    if np.any(ys < 0) or np.any(ys >= phi.vocab_size):
        raise ValueError("token id outside vocab")
    return ys


def _gathered_logits(phi: ScmParams, idx: np.ndarray) -> np.ndarray:
    """(M, A) logits of the sequences whose feature indices are idx."""
    global _EVAL_COUNT
    _EVAL_COUNT += idx.shape[0]
    # slot by slot into one (M, A) array, never the (M, n, A) gather; the
    # same additions in the same order as summing that gather over n
    out = phi.weights[idx[:, 0]]
    for i in range(1, phi.n):
        out += phi.weights[idx[:, i]]
    return out + phi.bias


def _logits(phi: ScmParams, ys: np.ndarray) -> np.ndarray:
    idx = _feature_indices(phi, _checked_tokens(phi, ys))
    return _gathered_logits(phi, idx)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / np.sum(ez, axis=-1, keepdims=True)


def scm_likelihood_batch(phi: ScmParams, ys) -> np.ndarray:
    """(batch, actions) softmax likelihoods; NULL tokens are allowed."""
    return _softmax(_logits(phi, np.asarray(ys)))


def scm_likelihood(phi: ScmParams, y) -> np.ndarray:
    return scm_likelihood_batch(phi, [list(y)])[0]


def scm_predict(phi: ScmParams, y) -> int:
    """Argmax action class; ties break to the lowest class index."""
    return int(np.argmax(scm_likelihood(phi, y)))


def _batch_indices(phi: ScmParams, ys) -> tuple[np.ndarray, np.ndarray]:
    """Checked (M, n) feature indices of a nonempty training batch, and the
    (M, n, A) flat indices into phi.weights of every (row, slot, action)."""
    idx = _feature_indices(phi, _checked_tokens(phi, ys))
    if idx.size == 0:
        raise ValueError("empty batch")
    a = phi.num_actions
    return idx, idx[:, :, None] * a + np.arange(a)


def _adam_step(phi: ScmParams, idx: np.ndarray, flat: np.ndarray,
               labels: np.ndarray, lr: float) -> tuple["ScmParams", float]:
    """One Adam step of cross-entropy on m sequences, given their feature
    indices idx (m, n), scatter indices flat (m, n, A) and labels (m,).

    Returns a shallow copy of phi with the new arrays, and the mean loss at
    the pre-update params.
    """
    m = idx.shape[0]
    rows = np.arange(m)
    logits = _gathered_logits(phi, idx)
    zmax = np.max(logits, axis=1, keepdims=True)
    # one exp(logits - max) serves the log-partition and the softmax
    ez = np.exp(logits - zmax)
    total = np.sum(ez, axis=1, keepdims=True)
    logz = zmax[:, 0] + np.log(total[:, 0])
    loss = float(np.mean(logz - logits[rows, labels]))

    dz = ez / total
    dz[rows, labels] -= 1.0
    dz /= m

    # scatter dz into the weight rows of every (row, slot): one bincount
    # over (m, n, A) flat indices.  Slots never share a weight row, so each
    # bin sums its rows in ascending order from 0, as n np.add.at calls do
    grad_w = np.bincount(
        flat.ravel(),
        weights=np.broadcast_to(dz[:, None, :], flat.shape).ravel(),
        minlength=phi.weights.size).reshape(phi.weights.shape)
    grad_b = np.sum(dz, axis=0)

    # phi stays untouched: the new arrays go into a shallow copy of it
    opt_w, opt_b = replace(phi.opt_w), replace(phi.opt_b)
    return replace(phi, weights=opt_w.update(phi.weights, grad_w, lr),
                   bias=opt_b.update(phi.bias, grad_b, lr),
                   opt_w=opt_w, opt_b=opt_b), loss


def scm_update(phi: ScmParams, ys, labels, lr: float = 1e-3) -> tuple["ScmParams", float]:
    """One Adam step of cross-entropy on a batch of (sequence, action) pairs.

    Returns the updated params and the mean loss at the pre-update params.
    """
    idx, flat = _batch_indices(phi, ys)
    return _adam_step(phi, idx, flat, np.asarray(labels, dtype=np.intp), lr)


def train_scm(phi: ScmParams, ys, labels, lr: float, steps: int,
              batch_size: int, rng: np.random.Generator) -> tuple["ScmParams", float]:
    """Minibatch cross-entropy training loop; returns final params and loss.

    Each step draws min(batch_size, M) rows with replacement and takes one
    scm_update step on them.  The tokens are checked and turned into feature
    and scatter indices once per call, before any draw; each step gathers
    its picked rows of those.
    """
    idx, flat = _batch_indices(phi, ys)
    labels = np.asarray(labels, dtype=np.intp)
    m = idx.shape[0]
    loss = float("nan")
    for _ in range(steps):
        pick = rng.integers(0, m, size=min(batch_size, m))
        phi, loss = _adam_step(phi, idx[pick], flat[pick], labels[pick], lr)
    return phi, loss


def accuracy(phi: ScmParams, ys, labels) -> float:
    probs = scm_likelihood_batch(phi, ys)
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))
