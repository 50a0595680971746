"""Surrogate probabilistic classifier P(a | y) imitating the parser.

Trained online by cross-entropy against the parser's labels, then queried
under token-nullification interventions by the counterfactual machinery.
The feature map is a (position, token) one-hot that covers NULL, so nullified
sequences are always in-domain.

The work is action-major: logits, likelihoods and gradients are (A, rows)
arrays, so a softmax over the A action classes is a few elementwise passes
over rows rather than numpy's reduction of a short last axis, which costs a
loop call per row.  ScmParams and checkpoints keep their (n * V, A) weights,
which scoring and training transpose on entry.  _action_sum adds each
column in numpy's pairwise order, so every double equals that of the
row-major (rows, A) computation.

Training takes a run axis, its only form: train_scm steps the classifiers of
R runs in lockstep on one (A, R * n * V) weight array, run r's columns being
its r-th block, and one run is a group of one.  Every operation of a step is
a gather, an elementwise op, a reduction over one row's actions or a
bincount whose bins never mix runs, so each run's result equals its own
training alone, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .textmdp import check_scalar, id_array

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_update(params, grad, m, v, steps, lr: float):
    """One Adam step of R runs at once: every array has a leading run axis
    and steps[r] is run r's step number, counting this one.  Returns new
    (params, m, v) arrays."""
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # params - lr mhat / (sqrt(vhat) + eps), each operation in place where
    # its operand is a temporary: the same doubles, fewer temporaries
    m = ADAM_BETA1 * m
    m += (1 - ADAM_BETA1) * grad
    g2 = (1 - ADAM_BETA2) * grad
    g2 *= grad
    v = ADAM_BETA2 * v
    v += g2
    per_run = (-1,) + (1,) * (params.ndim - 1)
    step = m / np.array([1 - ADAM_BETA1 ** s for s in steps]).reshape(per_run)
    step *= lr
    den = np.divide(v, np.array([1 - ADAM_BETA2 ** s for s in steps])
                    .reshape(per_run), out=g2)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step /= den
    return params - step, m, v


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _moments(opts, params) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m, v) of R runs' Adam states, zeros for a state that has
    taken no step."""
    return tuple(np.stack([np.zeros_like(p) if getattr(o, k) is None
                           else getattr(o, k)
                           for o, p in zip(opts, params)])
                 for k in ("m", "v"))


def adam_update_runs(opts, params: np.ndarray, grad: np.ndarray,
                     lr: float) -> np.ndarray:
    """One Adam step of each run r on params[r] with grad[r], opts[r] being
    run r's state.  Each state's moments become views of the new stacked
    moments, which nothing writes into later.  Returns the new params."""
    m, v = _moments(opts, params)
    for opt in opts:
        opt.step += 1
    new, m, v = adam_update(params, grad, m, v, [o.step for o in opts], lr)
    for r, opt in enumerate(opts):
        opt.m, opt.v = m[r], v[r]
    return new


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


# Module-level counter auditing how many sequences the SCM has scored;
# the counterfactual tests use it to pin the interventions-per-utterance cost.
_EVAL_COUNT = 0


def eval_count() -> int:
    return _EVAL_COUNT


def _feature_indices(phi: ScmParams, ys: np.ndarray) -> np.ndarray:
    """(n, M) slot-major feature indices of the (M, n) tokens ys: slot i's
    active one-hot index is i * V + token."""
    return (np.ascontiguousarray(ys.T)
            + (np.arange(phi.n) * phi.vocab_size)[:, None])


def checked_tokens(phi: ScmParams, ys) -> np.ndarray:
    """ys as an (M, n) intp array; a 1-d sequence is a batch of one.
    Raises ValueError unless they are integer token ids in the vocab."""
    ys = np.atleast_2d(id_array(ys, phi.vocab_size, "token ids"))
    if ys.ndim != 2 or ys.shape[1] != phi.n:
        raise ValueError(f"token ids of shape {ys.shape}, not (rows, "
                         f"{phi.n})")
    return ys


def checked_actions(phi: ScmParams, actions, rows: int) -> np.ndarray:
    """actions as an intp array of one action class per row.  Raises
    ValueError unless they are an integer (rows,) array in [0, actions)."""
    actions = id_array(actions, phi.num_actions, "action classes")
    if actions.shape != (rows,):
        raise ValueError(f"action classes of shape {actions.shape} for "
                         f"{rows} rows")
    return actions


def _gathered_logits(wt: np.ndarray, bias: np.ndarray,
                     idx: np.ndarray) -> np.ndarray:
    """(A, M) logits of the sequences whose slot-major feature indices into
    the columns of the action-major (A, rows) weights wt are idx (n, M),
    plus the (A, R) biases of R runs, run r's rows being the r-th block of
    M / R."""
    global _EVAL_COUNT
    _EVAL_COUNT += idx.shape[1]
    # slot by slot into one (A, M) array, never the (A, M, n) gather; the
    # same additions in the same order as summing that gather over n
    out = wt.take(idx[0], axis=1)
    for col in idx[1:]:
        out += wt.take(col, axis=1)
    out.reshape(len(bias), bias.shape[1], -1)[...] += bias[..., None]
    return out


def _pairwise_sum(t: np.ndarray) -> np.ndarray:
    # numpy's pairwise summation of a contiguous run of len(t) doubles,
    # done for every column of t at once
    n = len(t)
    if n < 8:
        out = t[0].copy()
        for row in t[1:]:
            out += row
        return out
    if n <= 128:
        acc = t[:8].copy()  # eight accumulators, fed every eighth element
        tail = n - n % 8
        for i in range(8, tail, 8):
            acc += t[i:i + 8]
        out = (acc[0] + acc[1]) + (acc[2] + acc[3])
        out += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for row in t[tail:]:
            out += row
        return out
    half = n // 2
    half -= half % 8
    return _pairwise_sum(t[:half]) + _pairwise_sum(t[half:])


def _action_sum(t: np.ndarray) -> np.ndarray:
    """Column sums of an (A, rows) array, each the double np.sum(axis=-1)
    gives on its (rows, A) transpose: 0.0 plus numpy's pairwise sum of the
    column.  Reducing a short last axis costs numpy a loop call per row,
    and this costs a few elementwise passes."""
    return _pairwise_sum(t) + 0.0


def _likelihoods(phi: ScmParams, ys: np.ndarray) -> np.ndarray:
    """(A, M) softmax likelihoods of the M sequences ys, unchecked: ys is
    an (M, n) intp array from checked_tokens, or built from one."""
    idx = _feature_indices(phi, ys)
    z = _gathered_logits(np.ascontiguousarray(phi.weights.T),
                         phi.bias[:, None], idx)
    z -= np.max(z, axis=0)
    np.exp(z, out=z)
    z /= _action_sum(z)
    return z


def scm_likelihood_batch(phi: ScmParams, ys) -> np.ndarray:
    """(batch, actions) softmax likelihoods; NULL tokens are allowed.  The
    array is the transpose view of an action-major (actions, batch) one."""
    return _likelihoods(phi, checked_tokens(phi, ys)).T


def draw_rows(rng: np.random.Generator, m: int, steps: int,
              batch_size: int) -> np.ndarray:
    """The (steps, min(batch_size, m)) row indices, with replacement, that
    one run's classifier update of steps steps draws from its m rows."""
    return rng.integers(0, m, size=(steps, min(batch_size, m)))


def train_scm(phis: list, ys, labels, lr: float, steps: int,
              batch_size: int, rngs: list) -> tuple[list, list]:
    """Minibatch cross-entropy training of R runs' classifiers in lockstep;
    returns their final params and their mean losses at the last step's
    pre-update params (nan after zero steps).

    ys and labels hold run r's M rows at r * M.  Each step, run r draws
    min(batch_size, M) of its rows with replacement from rngs[r] and takes
    one Adam step of cross-entropy on them.  The tokens and labels are
    checked and the tokens turned into feature indices once per call,
    before any draw; each run then draws the rows of all its steps in one
    draw_rows call, which leaves its generator where steps draws of one
    step's rows would.  The phis stay untouched: each run gets a shallow
    copy with new arrays.  rngs that are not one generator per classifier
    (at least one), steps and batch_size that are not ints, an lr that is
    not a finite float, steps < 0, batch_size < 1 and lr <= 0 raise
    ValueError naming the argument.

    Weights and their Adam moments are action-major (A, R * n * V) inside
    the loop and go back to the runs' (n * V, A) layout on exit.
    """
    if not len(rngs) == len(phis) >= 1:
        raise ValueError(f"rngs: {len(rngs)} generators for {len(phis)} "
                         f"classifiers, not one per classifier")
    phi, runs = phis[0], len(phis)
    check_scalar(steps, "int", "steps")
    check_scalar(batch_size, "int", "batch_size")
    check_scalar(lr, "float", "lr")
    if not lr > 0:
        raise ValueError(f"lr={lr}, not > 0")
    if steps < 0:
        raise ValueError(f"steps={steps}, not >= 0")
    if batch_size < 1:
        raise ValueError(f"batch_size={batch_size}, not >= 1")
    ys = checked_tokens(phi, ys)
    if ys.size == 0:
        raise ValueError("empty batch")
    if len(ys) % runs:
        raise ValueError(f"{len(ys)} rows do not split into {runs} runs")
    labels = checked_actions(phi, labels, len(ys))
    if steps == 0:
        return list(phis), [float("nan")] * runs
    m, a, nv = len(ys) // runs, phi.num_actions, phi.n * phi.vocab_size
    # feature indices into the stacked weights, run r's block at r * n * V
    idx = _feature_indices(phi, ys)
    idx += np.repeat(np.arange(runs) * nv, m)
    picks = (np.stack([draw_rows(g, m, steps, batch_size) for g in rngs])
             + (np.arange(runs) * m)[:, None, None])
    rows = picks[:, 0].size  # R * B
    # bias-gradient bins: (action, run) of every entry of the (A, R * B) dz
    bias_bins = (np.arange(a)[:, None] * runs
                 + np.repeat(np.arange(runs), rows // runs)).ravel()
    cols = np.arange(rows)
    spread = np.empty((a, phi.n, rows))

    w = np.stack([p.weights for p in phis])
    b = np.stack([p.bias for p in phis])
    opt_w = [replace(p.opt_w) for p in phis]
    opt_b = [replace(p.opt_b) for p in phis]
    mw, vw = _moments(opt_w, w)
    mb, vb = _moments(opt_b, b)
    wt, mw, vw = (np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(a, -1)
                  for x in (w, mw, vw))

    def per_run(x):  # (R, A, n * V) view of an (A, R * n * V) array
        return x.reshape(a, runs, nv).transpose(1, 0, 2)

    for step in range(steps):
        pick = picks[:, step].ravel()  # run-major rows of the stack
        pick_idx, pick_labels = idx.take(pick, axis=1), labels[pick]
        z = _gathered_logits(wt, b.T, pick_idx)
        zmax = np.max(z, axis=0)
        # one exp(logits - max) serves the log-partition and the softmax
        ez = np.exp(z - zmax)
        total = _action_sum(ez)
        at_label = pick_labels * rows + cols  # flat (label, row) entries
        if step == steps - 1:  # the loss reported is the last step's
            logz = zmax + np.log(total)
            losses = np.mean((logz - z.reshape(-1)[at_label])
                             .reshape(runs, -1), axis=1)

        dz = ez / total
        dz.reshape(-1)[at_label] -= 1.0
        dz /= rows // runs

        # scatter dz into the weight columns of every (slot, run, row): one
        # bincount per action.  Slots never share a weight row and runs
        # never share a block, so each bin sums its rows in ascending order
        # from 0, as n np.add.at calls per run do
        flat = pick_idx.ravel()
        spread[...] = dz[:, None, :]  # dz[k] once per slot
        grad_w = np.stack([np.bincount(flat, weights=spread[k].ravel(),
                                       minlength=wt.shape[1])
                           for k in range(a)])
        # each (action, run) bin sums its rows in order from 0, as np.sum
        # over the rows of (R, B, A) does
        grad_b = np.bincount(bias_bins, weights=dz.ravel(),
                             minlength=a * runs).reshape(a, runs).T
        for o in opt_w + opt_b:
            o.step += 1
        wt, mw, vw = (x.transpose(1, 0, 2).reshape(a, -1)
                      for x in adam_update(per_run(wt), per_run(grad_w),
                                           per_run(mw), per_run(vw),
                                           [o.step for o in opt_w], lr))
        b, mb, vb = adam_update(b, grad_b, mb, vb, [o.step for o in opt_b],
                                lr)
    w, mw, vw = (np.ascontiguousarray(x.reshape(a, runs, nv)
                                      .transpose(1, 2, 0))
                 for x in (wt, mw, vw))
    out = []
    for r, phi in enumerate(phis):
        opt_w[r].m, opt_w[r].v, opt_b[r].m, opt_b[r].v = (mw[r], vw[r],
                                                          mb[r], vb[r])
        out.append(replace(phi, weights=w[r], bias=b[r], opt_w=opt_w[r],
                           opt_b=opt_b[r]))
    return out, [float(x) for x in losses]


def accuracy(phi: ScmParams, ys, labels) -> float:
    """Fraction of the sequences ys whose argmax class is their label."""
    ys = checked_tokens(phi, ys)
    labels = checked_actions(phi, labels, len(ys))
    return float(np.mean(np.argmax(_likelihoods(phi, ys), axis=0) == labels))
