"""Surrogate probabilistic classifier P(a | y) imitating the parser.

Trained online by cross-entropy against the parser's labels, then queried
under token-nullification interventions by the counterfactual machinery.
The feature map is a (position, token) one-hot that covers NULL, so nullified
sequences are always in-domain.

Training takes a run axis, its only form: train_scm steps the classifiers of
R runs in lockstep, on arrays stacked run-first, and one run is a group of
one.  Every operation of a step is a gather, an elementwise op, a reduction
within one run's rows or a bincount whose bins never mix runs, so each run's
result equals its own training alone, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def stack_runs(arrays) -> np.ndarray:
    """Arrays of R runs stacked on a new leading axis; one run's array gets
    the axis as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


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
    return tuple(stack_runs([np.zeros_like(p) if getattr(o, k) is None
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

    def copy(self) -> "ScmParams":
        # Adam updates rebind the moments to new arrays and never write
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


def _gathered_logits(weights: np.ndarray, bias: np.ndarray | None,
                     idx: np.ndarray) -> np.ndarray:
    """(M, A) logits of the sequences whose feature indices into the
    (rows, A) weights are idx (M, n), plus bias unless it is None."""
    global _EVAL_COUNT
    _EVAL_COUNT += idx.shape[0]
    # slot by slot into one (M, A) array, never the (M, n, A) gather; the
    # same additions in the same order as summing that gather over n
    out = weights[idx[:, 0]]
    for i in range(1, idx.shape[1]):
        out += weights[idx[:, i]]
    return out if bias is None else out + bias


def _logits(phi: ScmParams, ys: np.ndarray) -> np.ndarray:
    idx = _feature_indices(phi, _checked_tokens(phi, ys))
    return _gathered_logits(phi.weights, phi.bias, idx)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / np.sum(ez, axis=-1, keepdims=True)


def scm_likelihood_batch(phi: ScmParams, ys) -> np.ndarray:
    """(batch, actions) softmax likelihoods; NULL tokens are allowed."""
    return _softmax(_logits(phi, np.asarray(ys)))


def _run_indices(phis: list, ys) -> tuple[np.ndarray, np.ndarray]:
    """Checked feature indices (R * M, n) of R runs' nonempty training
    batches, ys holding run r's M rows at r * M, each run's offset to its
    block of the (R * n * V, A) stacked weights; and the (R * M, n, A) flat
    indices into those weights of every (row, slot, action)."""
    phi, runs = phis[0], len(phis)
    ys = _checked_tokens(phi, ys)
    if ys.size == 0:
        raise ValueError("empty batch")
    if len(ys) % runs:
        raise ValueError(f"{len(ys)} rows do not split into {runs} runs")
    idx = _feature_indices(phi, ys)
    idx += np.repeat(np.arange(runs) * (phi.n * phi.vocab_size),
                     len(ys) // runs)[:, None]
    a = phi.num_actions
    return idx, idx[..., None] * a + np.arange(a)


def _step_runs(phis: list, ys, labels, lr: float, steps: int,
               draw) -> tuple[list, list]:
    """steps Adam steps of cross-entropy for R runs' classifiers at once.

    ys and labels hold run r's M rows at r * M.  draw(M) returns the
    (R, B) rows each run's next step takes.  The phis stay untouched: each
    run gets a shallow copy with new arrays.  Returns the runs' params and
    their mean losses at the last step's pre-update params (nan after zero
    steps).
    """
    idx, flat = _run_indices(phis, ys)
    runs = len(phis)
    m = len(idx) // runs
    labels = np.asarray(labels, dtype=np.intp)
    if steps == 0:
        return list(phis), [float("nan")] * runs
    a = phis[0].num_actions
    w = stack_runs([p.weights for p in phis])
    b = stack_runs([p.bias for p in phis])
    opt_w = [replace(p.opt_w) for p in phis]
    opt_b = [replace(p.opt_b) for p in phis]
    mw, vw = _moments(opt_w, w)
    mb, vb = _moments(opt_b, b)
    first = (np.arange(runs) * m)[:, None]  # each run's first row
    for step in range(steps):
        pick = (draw(m) + first).ravel()  # run-major rows of the stack
        pick_idx, pick_flat, pick_labels = idx[pick], flat[pick], labels[pick]
        rows = len(pick_labels)
        logits = _gathered_logits(w.reshape(-1, a), None, pick_idx)
        logits.reshape(runs, -1, a)[...] += b[:, None, :]
        zmax = np.max(logits, axis=1, keepdims=True)
        # one exp(logits - max) serves the log-partition and the softmax
        ez = np.exp(logits - zmax)
        total = np.sum(ez, axis=1, keepdims=True)
        if step == steps - 1:  # the loss reported is the last step's
            logz = zmax[:, 0] + np.log(total[:, 0])
            losses = np.mean((logz - logits[np.arange(rows), pick_labels])
                             .reshape(runs, -1), axis=1)

        dz = ez / total
        dz[np.arange(rows), pick_labels] -= 1.0
        dz /= rows // runs

        # scatter dz into the weight rows of every (run, row, slot): one
        # bincount over the flat indices.  Slots never share a weight row
        # and runs never share a block, so each bin sums its rows in
        # ascending order from 0, as n np.add.at calls per run do
        grad_w = np.bincount(
            pick_flat.ravel(),
            weights=np.broadcast_to(dz[:, None, :], pick_flat.shape).ravel(),
            minlength=w.size).reshape(w.shape)
        grad_b = np.sum(dz.reshape(runs, -1, a), axis=1)
        for o in opt_w + opt_b:
            o.step += 1
        w, mw, vw = adam_update(w, grad_w, mw, vw, [o.step for o in opt_w],
                                lr)
        b, mb, vb = adam_update(b, grad_b, mb, vb, [o.step for o in opt_b],
                                lr)
    out = []
    for r, phi in enumerate(phis):
        opt_w[r].m, opt_w[r].v, opt_b[r].m, opt_b[r].v = (mw[r], vw[r],
                                                          mb[r], vb[r])
        out.append(replace(phi, weights=w[r], bias=b[r], opt_w=opt_w[r],
                           opt_b=opt_b[r]))
    return out, [float(x) for x in losses]


def train_scm(phis: list, ys, labels, lr: float, steps: int,
              batch_size: int, rngs: list) -> tuple[list, list]:
    """Minibatch cross-entropy training of R runs' classifiers in lockstep;
    returns their final params and losses.

    ys and labels hold run r's M rows at r * M.  Each step, run r draws
    min(batch_size, M) of its rows with replacement from rngs[r] and takes
    one Adam step of cross-entropy on them.  The tokens are checked and
    turned into feature and scatter indices once per call, before any draw;
    each step gathers its picked rows of those.
    """
    def draw(m):
        return stack_runs([g.integers(0, m, size=min(batch_size, m))
                           for g in rngs])
    return _step_runs(phis, ys, labels, lr, steps, draw)


def accuracy(phi: ScmParams, ys, labels) -> float:
    probs = scm_likelihood_batch(phi, ys)
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))
