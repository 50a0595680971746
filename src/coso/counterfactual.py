"""Nullification interventions and per-token causal weights.

The weight of token i is the absolute change in the surrogate classifier's
likelihood of the realized action when position i is replaced by NULL.  Raw
weights live in [0, 1]; the training objective consumes them
max-normalized, with a small floor so an undertrained classifier never
fully silences the entropy signal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scm as scm_mod
from .textmdp import NULL

EPS_B = 1e-6
W_FLOOR = 0.01

DEFAULT_BIN_EDGES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class WeightHistogram:
    edges: tuple[float, ...]
    counts: np.ndarray
    fractions: np.ndarray


def causal_weights_batch(phi, ys, actions) -> np.ndarray:
    """(m, n) raw weights for m (utterance, parsed action) pairs.

    Scores exactly n+1 sequences per utterance: the utterance itself plus one
    nullified variant per position, checking ys and actions only.
    """
    ys = scm_mod.checked_tokens(phi, ys)
    m, n = ys.shape
    actions = scm_mod.checked_actions(phi, actions, m)
    stacked = np.repeat(ys[:, None, :], n + 1, axis=1)  # (m, n+1, n)
    for i in range(n):
        stacked[:, i + 1, i] = NULL
    probs = scm_mod._likelihoods(phi, stacked.reshape(m * (n + 1), n))
    probs = probs.reshape(-1, m, n + 1)[actions, np.arange(m)]
    return np.abs(probs[:, :1] - probs[:, 1:])


def normalize_weights_batch(raw: np.ndarray) -> np.ndarray:
    """Row-wise max-normalization with floor W_FLOOR (rows peaking at or
    below EPS_B sit at the floor): the B the objective consumes.  NaN/inf
    raise."""
    if not np.isfinite(raw).all():
        raise ValueError("non-finite raw weight")
    top = np.max(raw, axis=1, keepdims=True)
    return np.where(top > EPS_B,
                    np.maximum(raw / np.where(top > EPS_B, top, 1.0), W_FLOOR),
                    W_FLOOR)


def weight_stats(weights) -> WeightHistogram:
    """Histogram over every position of an (m, n) weight array in [0, 1]."""
    flat = np.asarray(weights, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty weight batch")
    if not ((flat >= 0.0) & (flat <= 1.0)).all():
        raise ValueError("weight outside [0, 1]")
    counts, _ = np.histogram(flat, bins=np.asarray(DEFAULT_BIN_EDGES))
    # np.histogram puts values == last edge in the final bin already
    fractions = counts / flat.size
    return WeightHistogram(edges=DEFAULT_BIN_EDGES, counts=counts,
                           fractions=fractions)
