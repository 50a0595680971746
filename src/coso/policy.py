"""Autoregressive categorical token policy with exact entropies.

A linear-softmax model over hand-built features: one-hot state features,
one-hots of the last K previous tokens, and a position one-hot.  The NULL
token is masked before normalization so the policy can never emit it; NULL is
reserved for counterfactual interventions.

Every operation takes a batch: m states and, where tokens are involved, an
(m, n) token array.  One example is a batch of one.  All entropies are exact
(computed from the full conditional distribution, not estimated), and the
gradient of the training objective is analytic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .textmdp import NULL, EnvState, TextEnv


@dataclass(frozen=True)
class FeatureSpec:
    """Layout of the policy's feature vector."""

    state_cards: tuple[int, ...]
    vocab_size: int
    n: int
    context: int = 3  # number of previous tokens visible

    @property
    def dim(self) -> int:
        return sum(self.state_cards) + self.context * self.vocab_size + self.n

    @classmethod
    def for_env(cls, env: TextEnv, context: int = 3) -> "FeatureSpec":
        return cls(state_cards=env.state_feature_cards(),
                   vocab_size=env.vocab.size, n=env.grammar.n, context=context)


@dataclass
class PolicyParams:
    spec: FeatureSpec
    weights: np.ndarray  # (feature dim, vocab)

    @classmethod
    def zeros(cls, spec: FeatureSpec) -> "PolicyParams":
        return cls(spec=spec, weights=np.zeros((spec.dim, spec.vocab_size)))

    def copy(self) -> "PolicyParams":
        return PolicyParams(spec=self.spec, weights=self.weights.copy())


def state_index(state_cards, states) -> np.ndarray:
    """(m, len(state_cards)) one-hot column of each state feature.

    Feature j's block starts after the blocks of features 0..j-1.
    """
    offsets = np.cumsum((0,) + tuple(state_cards[:-1]))
    feats = np.array([s.features for s in states], dtype=np.intp)
    return feats.reshape(len(states), len(state_cards)) + offsets


def one_hot(cols: np.ndarray, dim: int) -> np.ndarray:
    """(m, dim) matrix with a 1 at each column of cols[b] in row b."""
    F = np.zeros((cols.shape[0], dim))
    F[np.arange(cols.shape[0])[:, None], cols] = 1.0
    return F


def _features(spec: FeatureSpec, sidx: np.ndarray, toks: np.ndarray,
              position: int) -> np.ndarray:
    """(m, dim) features of the decisions at one position.

    The K most recent tokens toks[:, position-1], ... come newest first;
    absent slots stay zero.
    """
    off = sum(spec.state_cards)
    cols = [sidx]
    for k in range(spec.context):
        idx = position - 1 - k
        if idx >= 0:
            cols.append(off + k * spec.vocab_size + toks[:, idx:idx + 1])
    off += spec.context * spec.vocab_size
    cols.append(np.full((sidx.shape[0], 1), off + position))
    return one_hot(np.concatenate(cols, axis=1), spec.dim)


def _masked_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax with the NULL column forced to zero probability."""
    z = np.array(logits, dtype=np.float64, copy=True)
    z[..., NULL] = -np.inf
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    total = ez.sum(axis=-1, keepdims=True)
    probs = ez / total
    # total >= 1 (the max term is exp(0)), so only NULL's entry is -inf
    logprobs = (z - zmax) - np.log(total)
    return probs, logprobs


def _entropy(probs: np.ndarray, logprobs: np.ndarray) -> np.ndarray:
    terms = probs * np.where(probs > 0.0, logprobs, 0.0)
    return -terms.sum(axis=-1)


def _decode(params: PolicyParams, states, u: np.ndarray | None):
    """Left-to-right decoding, by inverse CDF on u or by argmax if u is None.

    Returns (tokens, per-token log-probs, exact conditional entropies), each
    of shape (m, n).
    """
    spec = params.spec
    m = len(states)
    sidx = state_index(spec.state_cards, states)
    rows = np.arange(m)
    toks = np.zeros((m, spec.n), dtype=np.intp)
    lps = np.empty((m, spec.n))
    ents = np.empty((m, spec.n))
    for i in range(spec.n):
        F = _features(spec, sidx, toks, i)
        probs, logprobs = _masked_softmax(F @ params.weights)
        if u is None:
            picks = np.argmax(probs, axis=1)
        else:
            # first token whose cumulative probability exceeds the uniform
            below = probs.cumsum(axis=1) <= u[:, i:i + 1]
            picks = np.minimum(below.sum(axis=1), spec.vocab_size - 1)
        toks[:, i] = picks
        lps[:, i] = logprobs[rows, picks]
        ents[:, i] = _entropy(probs, logprobs)
    return toks, lps, ents


def sample_utterances_batch(params: PolicyParams, states, u):
    """Sample one utterance per state from the (m, n) uniforms u.

    Token i of row b is drawn by inverse CDF on u[b, i].  Returns (tokens,
    per-token log-probs, exact conditional entropies), each (m, n).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (len(states), params.spec.n):
        raise ValueError(f"uniforms of shape {u.shape}, not ({len(states)}, "
                         f"{params.spec.n})")
    return _decode(params, states, u)


def sample_utterance(params: PolicyParams, state: EnvState,
                     rng: np.random.Generator):
    """Batch of one: draws n uniforms and returns (tokens tuple, log-probs,
    entropies) of the single row."""
    toks, lps, ents = sample_utterances_batch(
        params, [state], rng.random((1, params.spec.n)))
    return tuple(toks[0].tolist()), lps[0], ents[0]


def greedy_utterance(params: PolicyParams, states) -> np.ndarray:
    """(m, n) per-position argmax decoding (ties to lowest token id)."""
    return _decode(params, states, None)[0]


def teacher_forced_batch(params: PolicyParams, states, utterances):
    """Batched teacher forcing.

    Returns (probs, logprobs, tok_logprob, tok_entropy) with shapes
    (m, n, V), (m, n, V), (m, n), (m, n).
    """
    spec = params.spec
    toks = np.asarray(utterances, dtype=np.intp)
    m = len(states)
    if toks.shape != (m, spec.n):
        raise ValueError(f"utterances of shape {toks.shape}, not ({m}, "
                         f"{spec.n})")
    if np.any((toks < 0) | (toks >= spec.vocab_size)):
        raise ValueError("token out of vocab")
    sidx = state_index(spec.state_cards, states)
    probs = np.empty((m, spec.n, spec.vocab_size))
    logprobs = np.empty_like(probs)
    for i in range(spec.n):
        F = _features(spec, sidx, toks, i)
        probs[:, i], logprobs[:, i] = _masked_softmax(F @ params.weights)
    rows = np.arange(m)[:, None]
    cols = np.arange(spec.n)[None, :]
    tok_lp = logprobs[rows, cols, toks]
    tok_ent = _entropy(probs, logprobs)
    return probs, logprobs, tok_lp, tok_ent


# ---------------------------------------------------------------------------
# The objective and its analytic gradient
#
#   J = sum_b w_b log pi(y_b | s_b) + sum_{b,i} B_bi H(y_bi | y_b,<i, s_b)
#
# w are the per-sample weights (ratio/advantage coefficients), B the
# per-token entropy weights; a term whose weights are None is left out.


def _entropy_dlogits(probs: np.ndarray, logprobs: np.ndarray,
                     ent: np.ndarray) -> np.ndarray:
    # dH/dz_v = -p_v * (log p_v + H); zero off the support
    safe_lp = np.where(probs > 0.0, logprobs, 0.0)
    return -probs * (safe_lp + ent[..., None]) * (probs > 0.0)


def objective_value(params: PolicyParams, states, utterances,
                    sample_weights=None, token_weights=None) -> float:
    """J over a batch of (state, utterance) pairs."""
    _, _, tok_lp, tok_ent = teacher_forced_batch(params, states, utterances)
    value = 0.0
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)
        value += float(np.sum(w * np.sum(tok_lp, axis=1)))
    if token_weights is not None:
        B = np.asarray(token_weights, dtype=np.float64)
        value += float(np.sum(B * tok_ent))
    return value


def grad_objective(params: PolicyParams, states, utterances,
                   sample_weights=None, token_weights=None) -> np.ndarray:
    """Analytic gradient of objective_value w.r.t. the weight matrix."""
    if len(states) == 0:
        raise ValueError("empty batch")
    if sample_weights is None and token_weights is None:
        raise ValueError("objective has no term")
    spec = params.spec
    toks = np.asarray(utterances, dtype=np.intp)
    probs, logprobs, _, tok_ent = teacher_forced_batch(params, states, toks)
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)[:, None]
    if token_weights is not None:
        B = np.asarray(token_weights, dtype=np.float64)
    sidx = state_index(spec.state_cards, states)
    rows = np.arange(len(states))
    grad = np.zeros_like(params.weights)
    for i in range(spec.n):
        dz = None
        if sample_weights is not None:
            # d log p(y_i) / dz = onehot(y_i) - p
            dz = -probs[:, i].copy()
            dz[:, NULL] = 0.0
            dz[rows, toks[:, i]] += 1.0
            dz *= w
        if token_weights is not None:
            dent = B[:, i][:, None] * _entropy_dlogits(
                probs[:, i], logprobs[:, i], tok_ent[:, i])
            dz = dent if dz is None else dz + dent
        grad += _features(spec, sidx, toks, i).T @ dz
    return grad


def joint_entropy_bruteforce(params: PolicyParams, state: EnvState) -> float:
    """Exact joint utterance entropy by enumerating every sequence.

    Only feasible for tiny vocab/length; used as an oracle for the
    conditional-entropy decomposition.
    """
    spec = params.spec
    support = [t for t in range(spec.vocab_size) if t != NULL]
    ys = list(itertools.product(support, repeat=spec.n))
    _, _, tok_lp, _ = teacher_forced_batch(params, [state] * len(ys), ys)
    logp = np.sum(tok_lp, axis=1)
    p = np.exp(logp)
    with np.errstate(invalid="ignore"):  # 0 * -inf off the support
        return float(-np.sum(np.where(p > 0.0, p * logp, 0.0)))
