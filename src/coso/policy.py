"""Autoregressive categorical token policy with exact entropies.

A linear-softmax model over hand-built features: one-hot state features,
one-hots of the last K previous tokens, and a position one-hot.  The NULL
token is masked before normalization so the policy can never emit it; NULL is
reserved for counterfactual interventions.

Every operation takes a batch: m states and, where tokens are involved, an
(m, n) token array.  One example is a batch of one.  All entropies are exact
(computed from the full conditional distribution, not estimated), and the
gradient of the training objective is analytic.

One decoder computes every per-position distribution.  Sampling, greedy
decoding and teacher forcing are the same loop over token positions and
differ only in how each position's token is picked: by inverse CDF on a
uniform, by argmax, or as the given token.  The decoder reads per-state
tables of a frozen policy (decode_tables), which a caller that decodes many
batches builds once, and can record the distributions it picks from, so a
sampled batch needs no second pass for its log-probs and entropies.

The decoder's numpy calls on small arrays cost more in overhead than in
arithmetic, so a decode call allocates its (m, V) buffers once and every
position writes into them.  Sampling picks the first token whose
cumulative probability exceeds the row's uniform, or the last token if none
does.  A cumulative sum of non-negative doubles never decreases, so that is
the count of tokens whose cumulative probability is at most u, clamped to
V - 1: the inverse CDF of the dense reference.  Weights must be finite;
decode_tables rejects any other.

The weights may carry a leading run axis: (R, dim, V) for R runs trained in
lockstep; (dim, V) weights are one run.  A batch holds R * m rows, run r's m
rows at r * m, and every row reads its own run's weights.  Row-wise gathers,
elementwise ops and reductions within a row keep each run's order of
operations, and the gradient's matmuls take one run at a time, so each
run's results equal its own call with (dim, V) weights, bit for bit.

A single run skips the run offsets of its gathers and position rows, whose
extra numpy calls cost more than the work at decode sizes (one row per
cf_report step, 16 per rollout tick): without that skip the benchmark's
menunav-coso read about 12% fewer env steps/s and inspect about 15% fewer
inspected utterances/s on a 2-vCPU x86-64 host.  The skip adds the same
doubles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textmdp import (NULL, EnvState, TextEnv, id_array, state_arrays,
                      state_id_array)


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
    weights: np.ndarray  # (feature dim, vocab), or (runs, dim, vocab)

    @classmethod
    def zeros(cls, spec: FeatureSpec) -> "PolicyParams":
        return cls(spec=spec, weights=np.zeros((spec.dim, spec.vocab_size)))


def state_index(state_cards, states) -> np.ndarray:
    """(m, len(state_cards)) one-hot column of each state feature.

    states is an (m, k) int feature array or a sequence of EnvStates.
    Feature j's block starts after the blocks of features 0..j-1.
    """
    if not isinstance(states, np.ndarray):
        states = state_arrays(states)[0]
    offsets = np.cumsum((0,) + tuple(state_cards[:-1]))
    return states.reshape(-1, len(state_cards)) + offsets


def one_hot(cols: np.ndarray, dim: int) -> np.ndarray:
    """(m, dim) matrix with a 1 at each column of cols[b] in row b."""
    F = np.zeros((cols.shape[0], dim))
    F[np.arange(cols.shape[0])[:, None], cols] = 1.0
    return F


# ---------------------------------------------------------------------------
# Logits as gathered rows of W
#
# A feature row is all one-hots: the state blocks, then the K most recent
# tokens newest first (absent slots have none), then the position.  So its
# product with W is a sum of rows of W.  The logits below add those rows in
# ascending feature-column order, the order in which the dense product
# accumulates them, so they equal it.


def _runs(params: PolicyParams, rows: int) -> tuple[np.ndarray, int, int]:
    """(runs * dim, V) weight rows of all runs, the run count R and the rows
    per run of a batch of rows rows."""
    spec, W = params.spec, params.weights
    runs = 1 if W.ndim == 2 else W.shape[0]
    if rows % runs:
        raise ValueError(f"{rows} rows do not split into {runs} runs")
    return W.reshape(runs * spec.dim, spec.vocab_size), runs, rows // runs


def _in_run_blocks(idx: np.ndarray, runs: int, stride: int) -> np.ndarray:
    """idx, whose rows split evenly into runs in run order, with the rows of
    run r shifted by r * stride into that run's block."""
    if runs == 1:  # see the module docstring
        return idx
    off = np.repeat(np.arange(runs) * stride, len(idx) // runs)
    return idx + off.reshape((-1,) + (1,) * (idx.ndim - 1))


def _state_logits(W: np.ndarray, sidx: np.ndarray) -> np.ndarray:
    """(m, V) sum of the state feature rows W[sidx[b]], NULL column at
    -inf."""
    z = W[sidx[:, 0]]
    for j in range(1, sidx.shape[1]):
        z += W[sidx[:, j]]
    z[:, NULL] = -np.inf
    return z


def _position_logits(tables: DecodeTables, base: np.ndarray, picks, i: int,
                     out: np.ndarray,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Write into out, and return it, the (m, V) logits at position i: base
    plus the context and position rows of tables.

    base holds the R runs' rows in run order.  picks is the (m, n) tokens
    shifted into their runs' row blocks, _in_run_blocks(toks, R, V).  Only
    picks[:, :i] is read, so a decoder may pass its partly filled picks.
    scratch, if given, is an (m, V) buffer for the gathered rows after the
    first.
    """
    ctx = range(min(i, len(tables.blocks)))
    if not ctx:
        np.copyto(out, base)
    for k in ctx:  # one gathered row block at a time
        # picks are in range, so clip mode only skips the bounds check and
        # the copy that take makes of its out in raise mode
        if k == 0:
            tables.blocks[0].take(picks[:, i - 1], axis=0, out=out,
                                  mode="clip")
            out += base  # = base + row: addition commutes
        else:
            out += tables.blocks[k].take(picks[:, i - 1 - k], axis=0,
                                         out=scratch, mode="clip")
    if tables.runs == 1:  # see the module docstring
        out += tables.pos[0, i]
    else:
        by_run = out.reshape(tables.runs, -1, out.shape[-1], copy=False)
        by_run += tables.pos[:, i, None]
    return out


def _softmax(z: np.ndarray, probs: np.ndarray, mx: np.ndarray,
             total: np.ndarray) -> None:
    """Row-wise softmax of the (m, V) logits z, whose NULL column is -inf,
    into probs.

    mx and total are (m, 1) buffers.  Shifts z by its row max (into mx) in
    place and leaves the row totals in total; the log-probs are
    z - log(total).  total >= 1 (the max term is exp(0)), so only NULL's
    log-prob is -inf.
    """
    np.maximum.reduce(z, axis=1, keepdims=True, out=mx)
    z -= mx
    np.exp(z, out=probs)
    np.add.reduce(probs, axis=1, keepdims=True, out=total)
    probs /= total


def _entropy(probs: np.ndarray, logprobs: np.ndarray) -> np.ndarray:
    """(m, n) entropies of (m, n, V) distributions.  Each row's terms are
    summed along its contiguous V axis, the order a position at a time
    would take too."""
    terms = np.where(probs > 0.0, logprobs, 0.0)
    terms *= probs
    ent = terms.sum(axis=-1)
    return np.negative(ent, out=ent)


def token_stats(probs: np.ndarray, logprobs: np.ndarray,
                toks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tok_logprob, tok_entropy), both (m, n), of the (m, n) tokens toks
    under their (m, n, V) forced distributions."""
    rows = np.arange(len(toks))[:, None]
    cols = np.arange(toks.shape[1])[None, :]
    return logprobs[rows, cols, toks], _entropy(probs, logprobs)


# ---------------------------------------------------------------------------
# Decoding from per-state tables
#
# The state logits and the position-0 distribution depend on the state
# alone, and an env has few states (100 on numberline, 8 on menunav), so a
# decoding call tabulates them once for every state of the frozen policy.
# Later positions depend on the earlier tokens and are built per row.


def state_grid(state_cards) -> np.ndarray:
    """(S, k) features of every state, row s the state with state id s."""
    return np.indices(state_cards).reshape(len(state_cards), -1).T


def state_ids(state_cards, states) -> np.ndarray:
    """(m,) row-major index of each state's features over state_cards.

    states is an (m, k) int feature array or a sequence of EnvStates; it
    passes textmdp.state_id_array, so a feature outside its cardinality or
    an array that is not of integers raises ValueError.
    """
    if not isinstance(states, np.ndarray):
        states = state_arrays(states)[0]
    return state_id_array(states, state_cards)


@dataclass(frozen=True)
class DecodeTables:
    """Per-state rows of one frozen policy, indexed by state id; for R
    stacked runs, run r's rows follow at r * S."""

    spec: FeatureSpec
    base: np.ndarray  # (R * S, V) state logits, NULL at -inf
    probs0: np.ndarray  # (R * S, V) position-0 distribution
    logprobs0: np.ndarray  # (R * S, V) its log-probs
    cdf0: np.ndarray  # (R * S, V) cumulative position-0 distribution
    greedy0: np.ndarray  # (R * S,) argmax position-0 token
    # per context slot, newest token first: the runs' (V, V) row blocks one
    # after another, (R * V, V); a view of the weights for one run
    blocks: tuple
    pos: np.ndarray  # (R, n, V) view of the position rows

    @property
    def runs(self) -> int:
        return self.pos.shape[0]


def decode_tables(params: PolicyParams) -> DecodeTables:
    """Tabulate params for decoding.  The tables alias params.weights, so
    they describe params only until its weights are changed in place.

    Non-finite weights raise ValueError: a NaN or infinite logit would
    turn a row's distribution into NaNs, from which NULL can be drawn.
    """
    spec = params.spec
    if not np.isfinite(params.weights).all():
        raise ValueError("policy weights are not finite")
    W, runs, _ = _runs(params, 0)
    grid = state_index(spec.state_cards, state_grid(spec.state_cards))
    base = _state_logits(W, _in_run_blocks(np.tile(grid, (runs, 1)), runs,
                                           spec.dim))
    W = W.reshape(runs, spec.dim, spec.vocab_size)
    ctx, V = sum(spec.state_cards), spec.vocab_size
    pos = ctx + spec.context * V
    tables = DecodeTables(
        spec=spec, base=base, probs0=np.empty_like(base),
        logprobs0=np.empty_like(base), cdf0=np.empty_like(base),
        greedy0=np.empty(len(base), dtype=np.intp),
        blocks=tuple(W[:, ctx + k * V:ctx + (k + 1) * V].reshape(runs * V, V)
                     for k in range(spec.context)),
        pos=W[:, pos:pos + spec.n])
    # position 0 of every state, as the decoder computes a later position
    z = _position_logits(tables, base, None, 0, out=tables.logprobs0)
    total = np.empty((len(base), 1))
    _softmax(z, tables.probs0, np.empty_like(total), total)
    z -= np.log(total)
    np.add.accumulate(tables.probs0, axis=1, out=tables.cdf0)
    tables.probs0.argmax(axis=1, out=tables.greedy0)
    return tables


def _first_above(cdf: np.ndarray, u: np.ndarray, mask: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Per row, the first column whose cumulative probability exceeds u, or
    the last column if none does (rounding can leave a row total below u).

    A cumulative sum of non-negative doubles never decreases, so this is
    the count of columns with cdf <= u, clamped to V - 1.  mask is a bool
    buffer of cdf's shape, and out receives the columns.
    """
    np.greater(cdf, u, out=mask)
    mask[:, -1] = True
    return mask.argmax(axis=1, out=out)


def _decode(policy, sid: np.ndarray, u: np.ndarray | None,
            out: tuple | None = None,
            tokens: np.ndarray | None = None) -> np.ndarray:
    """(m, n) tokens decoded left to right from the states of the (m,) state
    ids sid.  policy is PolicyParams or its DecodeTables; for R stacked
    runs, rows r * m / R onward decode with run r's policy.

    Each position's token is picked by one of three rules: the given token
    if tokens, an (m, n) intp array of in-vocab ids, is given (teacher
    forcing); else by inverse CDF on u; else, with u None, by argmax.

    Every position writes into (m, V) buffers allocated once per call (see
    the module docstring).  The tokens are kept position-major, so that
    each position's are contiguous; the returned array is a transposed
    view.

    out, if given, is a (probs, logprobs) pair of (..., n, V) arrays whose
    leading axes hold the m rows in order; each position's distribution
    and log-probs are copied into it as they are computed, position 0's
    from the tables.
    """
    tables = (policy if isinstance(policy, DecodeTables)
              else decode_tables(policy))
    spec = tables.spec
    n, V, runs = spec.n, spec.vocab_size, tables.runs
    m = len(sid)
    if m % runs:
        raise ValueError(f"{m} rows do not split into {runs} runs")
    # the rows of tables of the m states, run r's at r * S
    sid = _in_run_blocks(sid, runs, len(tables.base) // runs)
    z, probs, cdf = np.empty((3, m, V))
    mask = np.empty((m, V), dtype=bool)
    mx, total = np.empty((2, m, 1))
    # sid is in range, so clip mode only skips the bounds check
    if tokens is not None:
        toks = np.ascontiguousarray(tokens.T)
    else:
        toks = np.empty((n, m), dtype=np.intp)
        if u is None:
            tables.greedy0.take(sid, out=toks[0], mode="clip")
        else:
            tables.cdf0.take(sid, axis=0, out=cdf, mode="clip")
            _first_above(cdf, u[:, 0, None], mask, toks[0])
    # the tokens shifted into their runs' row blocks, as _position_logits
    # reads them
    if runs == 1:
        picks = toks
    else:
        picks = np.empty_like(toks)
        run_rows = np.repeat(np.arange(runs) * V, m // runs)
    if out is not None:
        out_probs, out_logprobs = out
        rows = out_probs.shape[:-2] + (V,)  # one position's
        # a take into the strided position-0 view would copy it in and back
        # out, so the rows are gathered whole and then assigned
        at = sid.reshape(rows[:-1])
        for table, a in zip((tables.probs0, tables.logprobs0), out):
            a[..., 0, :] = table.take(at, axis=0, mode="clip")
    base = tables.base[sid]
    for i in range(1, n):
        if runs > 1:
            np.add(toks[i - 1], run_rows, out=picks[i - 1])
        _position_logits(tables, base, picks.T, i, out=z, scratch=probs)
        _softmax(z, probs, mx, total)
        if tokens is None and u is None:
            probs.argmax(axis=1, out=toks[i])
        elif tokens is None:
            np.add.accumulate(probs, axis=1, out=cdf)
            _first_above(cdf, u[:, i, None], mask, toks[i])
        if out is not None:
            # a subtraction per position: one pass over out after the loop
            # read slower on 9-run rollout ticks
            z -= np.log(total)
            out_probs[..., i, :] = probs.reshape(rows)
            out_logprobs[..., i, :] = z.reshape(rows)
    return toks.T


def sample_utterances_batch(policy, states, u, out=None) -> np.ndarray:
    """Sample one utterance per state from the (m, n) uniforms u.

    policy is PolicyParams, or decode_tables of them when one frozen policy
    decodes many batches.  Token i of row b is drawn by inverse CDF on
    u[b, i].  Returns the (m, n) tokens.  A uniform outside [0, 1), NaN
    included, raises ValueError: the inverse CDF would map it to the last
    token.

    out, if given, is a (probs, logprobs) pair of float arrays of one
    shape (..., n, V) whose leading axes hold the m rows in order (a view
    such as a tick of a larger array will do).  The call fills them with
    the distributions it sampled from, position 0 included, which are
    teacher_forced_batch's probs and logprobs of the returned tokens;
    token_stats gives their log-probs and entropies.
    """
    u = np.asarray(u, dtype=np.float64)
    spec = policy.spec
    if u.shape != (len(states), spec.n):
        raise ValueError(f"uniforms of shape {u.shape}, not ({len(states)}, "
                         f"{spec.n})")
    # minimum and maximum propagate NaN, which fails both comparisons
    if not (np.minimum.reduce(u, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(u, axis=None, initial=0.0) < 1.0):
        raise ValueError("uniforms outside [0, 1)")
    if out is not None:
        for a in out:
            if a.shape != out[0].shape \
                    or a.shape[-2:] != (spec.n, spec.vocab_size) \
                    or math.prod(a.shape[:-2]) != len(states):
                raise ValueError(f"output of shape {a.shape} for "
                                 f"{len(states)} rows of ({spec.n}, "
                                 f"{spec.vocab_size})")
    return _decode(policy, state_ids(spec.state_cards, states), u, out)


def sample_utterance(params: PolicyParams, state: EnvState,
                     rng: np.random.Generator) -> tuple[int, ...]:
    """Batch of one: draws n uniforms and returns the row's tokens."""
    toks = sample_utterances_batch(params, [state],
                                   rng.random((1, params.spec.n)))
    return tuple(toks[0].tolist())


def greedy_utterance(policy, states) -> np.ndarray:
    """(m, n) per-position argmax decoding (ties to lowest token id);
    policy is PolicyParams or its DecodeTables."""
    return _decode(policy, state_ids(policy.spec.state_cards, states), None)


def _forcing_inputs(spec: FeatureSpec, states,
                    utterances) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) intp tokens and (m,) state ids of a forcing's m states
    and utterances, each input checked once: ValueError naming the token
    ids, the utterances' shape or the state features."""
    toks = id_array(utterances, spec.vocab_size, "token ids")
    m = len(states)
    if toks.shape != (m, spec.n):
        raise ValueError(f"utterances of shape {toks.shape}, not ({m}, "
                         f"{spec.n})")
    return toks, state_ids(spec.state_cards, states)


def teacher_forced_batch(params: PolicyParams, states, utterances):
    """Per-token log-probs and exact conditional entropies of the given
    utterances: the decoder run on their tokens.

    Returns (probs, logprobs, tok_logprob, tok_entropy) with shapes
    (m, n, V), (m, n, V), (m, n), (m, n).  Token ids that are not an
    integer array of in-vocab ids, utterances not of shape (m, n), state
    features outside their cardinalities and non-finite weights raise
    ValueError.
    """
    spec = params.spec
    toks, sid = _forcing_inputs(spec, states, utterances)
    probs = np.empty((len(sid), spec.n, spec.vocab_size))
    logprobs = np.empty_like(probs)
    _decode(params, sid, None, out=(probs, logprobs), tokens=toks)
    return (probs, logprobs) + token_stats(probs, logprobs, toks)


# ---------------------------------------------------------------------------
# The objective and its analytic gradient
#
#   J = sum_b w_b log pi(y_b | s_b) + sum_{b,i} B_bi H(y_bi | y_b,<i, s_b)
#
# w are the per-sample weights (ratio/advantage coefficients), B the
# per-token entropy weights; B None leaves the entropy term out, and zero
# w the log-prob term.


def _entropy_dlogits(probs: np.ndarray, logprobs: np.ndarray,
                     ent: np.ndarray) -> np.ndarray:
    """dH/dz of (..., V) distributions with entropies ent, written over
    logprobs, which the caller owns, and returned."""
    # dH/dz_v = -p_v * (log p_v + H), and zero off the support: there the
    # log-prob is replaced by 0 (NULL's is -inf), so the product is a zero.
    # In place: -(p * x) and -p * x are the same double, signed zeros
    # included
    np.copyto(logprobs, 0.0, where=probs <= 0.0)
    logprobs += ent[..., None]
    logprobs *= probs
    return np.negative(logprobs, out=logprobs)


def grad_objective(params: PolicyParams, states, utterances, sample_weights,
                   token_weights=None, *, forced, token_runs=None,
                   forced_rows=None) -> np.ndarray:
    """Analytic gradient of J (above) over a batch of (state, utterance)
    pairs w.r.t. the weight matrix, of the shape of params.weights.

    forced is teacher_forced_batch(params, states, utterances), or that of
    a larger batch whose rows forced_rows are these, so that no caller
    copies it whole.  For stacked runs, token_runs is a boolean mask with
    one entry per run, over the runs whose token term counts (None: all);
    the token weights of the other runs are not read.  The token ids, the
    utterances' shape and the state features are checked once, as
    teacher_forced_batch checks them.

    Run by run, dJ/dz of all n positions is built in one pass over an
    (n, m, V) gather of the run's forcing, position-major so that each
    position's block is contiguous.  The gradient then adds the n products
    F_i.T @ dz_i in position order, each one-hot F_i built in one reused
    (m, dim) buffer.  So the temporaries stay two (n, m, V) arrays and that
    buffer, and every double equals the per-position computation's.
    """
    if len(states) == 0:
        raise ValueError("empty batch")
    spec = params.spec
    n, V = spec.n, spec.vocab_size
    toks, _ = _forcing_inputs(spec, states, utterances)
    _, runs, m = _runs(params, len(states))
    if token_runs is not None and len(token_runs) != runs:
        raise ValueError(f"token_runs of {len(token_runs)} entries for "
                         f"{runs} runs")
    token = [token_weights is not None
             and (token_runs is None or bool(token_runs[r]))
             for r in range(runs)]
    # one row per (row, position): gathers of these rows are position-major
    probs, logprobs = (a.reshape(-1, V) for a in forced[:2])
    tok_ent = forced[3].reshape(-1)
    w = np.asarray(sample_weights, dtype=np.float64)[:, None]
    if any(token):
        B = np.asarray(token_weights, dtype=np.float64)
    sidx = state_index(spec.state_cards, states)
    rows = np.arange(m)
    positions = np.arange(n)[:, None]
    targets = (positions * m + rows) * V  # flat (n, m, V) index of column 0
    ctx_cols = sum(spec.state_cards) + np.arange(spec.context) * V
    pos_col = sum(spec.state_cards) + spec.context * V
    grad = np.zeros((runs, spec.dim, V))
    F = np.zeros((m, spec.dim))
    for r in range(runs):
        run = slice(r * m, (r + 1) * m)
        at = rows + r * m if forced_rows is None else forced_rows[run]
        at = at * n + positions
        dz = probs.take(at, axis=0)  # (n, m, V)
        dent = None
        if token[r]:
            dent = _entropy_dlogits(dz, logprobs.take(at, axis=0),
                                    tok_ent.take(at))
            dent *= B[run].T[..., None]
        # d log p(y_i) / dz = onehot(y_i) - p
        np.negative(dz, out=dz)
        dz[..., NULL] = 0.0
        dz.reshape(-1)[targets + toks[run].T] += 1.0
        dz *= w[run]
        if dent is not None:
            dz += dent
        # F_i: the run's state one-hots, set once, plus position i's
        # context and position one-hots, set and cleared per position
        state = rows[:, None], sidx[run]
        F[state] = 1.0
        for i in range(n):
            k = min(i, spec.context)  # newest first
            ctx = rows[:, None], toks[run, i - k:i][:, ::-1] + ctx_cols[:k]
            F[ctx] = 1.0
            F[:, pos_col + i] = 1.0
            grad[r] += F.T @ dz[i]
            F[ctx] = 0.0
            F[:, pos_col + i] = 0.0
        F[state] = 0.0
    return grad.reshape(params.weights.shape)
