"""Output checks for the benchmark workloads.

Each check takes plain arrays or report objects and returns a list of
problems (empty when the output is correct).  The references here are
computed apart from the program: a table parser built from each grammar's
kind and arg tables, and a direct NumPy softmax over dense one-hot sums for
the causal weights.  They run outside the timed intervals.
"""
from __future__ import annotations

import math

import numpy as np

# Slack for entropies and log-probs computed in float64: an exact entropy of
# a near-deterministic distribution can come out a few ulps below zero.
FLOAT_SLACK = 1e-12
RAW_WEIGHT_TOL = 1e-12


class ReferenceParser:
    """Table lookup from (kind token, arg token) to an action class index.

    Built from the env's token tables only; it shares no code with
    ``TextEnv.parse``.  Illegal kind or arg tokens label as NOOP with
    ``ok = False``, the program's ParseError -> NOOP rule.
    """

    def __init__(self, env):
        v = env.vocab.size
        classes = [(a.kind, a.arg) for a in env.action_classes()]
        self.names = [k if arg is None else f"{k}({arg})" for k, arg in classes]
        self.noop = classes.index(("NOOP", None))
        self.kind_slot = env.grammar.kind_slot
        arg_slots = env.grammar.arg_slots
        self.arg_slot = arg_slots[0] if arg_slots else None
        self.label = np.full((v, v), self.noop, dtype=np.intp)
        self.ok = np.zeros((v, v), dtype=bool)
        payload = env.kinds_with_payload()
        for kt, kind in env.kind_tokens.items():
            if kind in payload:
                for at, arg in env.arg_tokens.items():
                    self.label[kt, at] = classes.index((kind, arg))
                    self.ok[kt, at] = True
            else:
                self.label[kt, :] = classes.index((kind, None))
                self.ok[kt, :] = True

    def __call__(self, ys) -> tuple[np.ndarray, np.ndarray]:
        ys = np.asarray(ys, dtype=np.intp).reshape(-1, np.shape(ys)[-1])
        kind = ys[:, self.kind_slot]
        arg = ys[:, self.arg_slot] if self.arg_slot is not None else 0 * kind
        return self.label[kind, arg], self.ok[kind, arg]


def check_labels(parser: ReferenceParser, ys, action_idx, parse_ok) -> list:
    labels, ok = parser(ys)
    bad = np.flatnonzero((labels != np.asarray(action_idx))
                         | (ok != np.asarray(parse_ok)))
    if bad.size:
        return [f"{bad.size} of {len(labels)} parser labels differ from the "
                f"reference (first row {int(bad[0])})"]
    return []


def check_step_accounting(env_steps: int, iterations: int, ticks: int,
                          num_envs: int) -> list:
    want = iterations * ticks * num_envs
    if env_steps != want:
        return [f"env steps {env_steps} != {iterations} iterations x "
                f"{ticks} ticks x {num_envs} envs = {want}"]
    return []


def check_token_stats(entropy, logprob, vocab_size: int) -> list:
    """Exact conditional entropies lie in [0, log(V-1)] (NULL is masked)."""
    entropy = np.asarray(entropy)
    logprob = np.asarray(logprob)
    top = math.log(vocab_size - 1)
    out = []
    if entropy.min() < -FLOAT_SLACK or entropy.max() > top + FLOAT_SLACK:
        out.append(f"entropy range [{entropy.min()!r}, {entropy.max()!r}] "
                   f"outside [0, log({vocab_size - 1})]")
    if logprob.max() > FLOAT_SLACK:
        out.append(f"log-prob {logprob.max()!r} > 0")
    return out


def direct_raw_weights(scm_weights, scm_bias, vocab_size: int, ys, actions,
                       null: int = 0) -> np.ndarray:
    """|P(a | y) - P(a | y with slot i nullified)| by dense one-hot algebra."""
    ys = np.asarray(ys, dtype=np.intp)
    m, n = ys.shape
    out = np.empty((m, n))
    for r in range(m):
        variants = np.repeat(ys[r][None, :], n + 1, axis=0)
        variants[np.arange(1, n + 1), np.arange(n)] = null
        onehot = np.zeros((n + 1, n * vocab_size))
        for i in range(n):
            onehot[np.arange(n + 1), i * vocab_size + variants[:, i]] = 1.0
        z = onehot @ scm_weights + scm_bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        pa = p[:, actions[r]]
        out[r] = np.abs(pa[0] - pa[1:])
    return out


def check_raw_weights(direct, program) -> list:
    gap = float(np.max(np.abs(np.asarray(direct) - np.asarray(program))))
    if not gap <= RAW_WEIGHT_TOL:
        return [f"raw causal weights differ from the direct softmax by {gap!r}"]
    return []


def check_normalized_rows(weights, floor: float) -> list:
    """A max-normalized row peaks at exactly 1, or sits all at the floor."""
    w = np.asarray(weights)
    peak = np.max(w, axis=1)
    at_floor = np.all(w == floor, axis=1)
    bad = np.flatnonzero(~((peak == 1.0) | at_floor) | (w.min(axis=1) < floor))
    if bad.size:
        return [f"{bad.size} normalized weight rows neither peak at 1 nor sit "
                f"at the floor (first row {int(bad[0])}: {w[bad[0]].tolist()})"]
    return []


def check_solved(solved: int) -> list:
    if solved <= 0:
        return ["no greedy-eval episode solved at the end of training"]
    return []


def check_theory(results, spec) -> tuple[list, int]:
    """Every suite passes and its worst residual is within its tolerance.

    Returns (problems, failed instances).
    """
    tol = {"entropy_decomposition": spec.decomposition_tol,
           "contraction": spec.contraction_tol,
           "improvement": spec.improvement_tol,
           "iteration": spec.monotonicity_tol}
    out, failed = [], 0
    for r in results:
        if not r.passed or r.failing_seeds:
            out.append(f"suite {r.name} failed on seeds {r.failing_seeds}")
            failed += max(1, len(r.failing_seeds))
        elif not r.worst <= tol[r.name]:
            out.append(f"suite {r.name} worst residual {r.worst!r} > "
                       f"tolerance {tol[r.name]!r}")
            failed += spec.instances
    if {r.name for r in results} != set(tol):
        out.append(f"suites {[r.name for r in results]} != {sorted(tol)}")
        failed += spec.instances
    return out, failed


def check_cf_report(parser: ReferenceParser, report: dict, n: int,
                    null: int = 0) -> tuple[list, set]:
    """Records match the reference parser, hold no NULL, and the histogram
    counts every normalized weight once.  Returns (problems, bad episodes)."""
    out, bad_eps = [], set()
    records = report["records"]
    for rec in records:
        label, ok = parser([rec["tokens"]])
        if (parser.names[int(label[0])] != rec["action"]
                or bool(ok[0]) != rec["parse_ok"]):
            bad_eps.add(rec["episode"])
            out.append(f"episode {rec['episode']} step {rec['step']}: action "
                       f"{rec['action']!r} != reference "
                       f"{parser.names[int(label[0])]!r}")
        if null in rec["tokens"]:
            bad_eps.add(rec["episode"])
            out.append(f"episode {rec['episode']} step {rec['step']}: NULL "
                       f"token emitted")
    total = sum(report["histogram"]["counts"])
    if total != len(records) * n:
        bad_eps.update(range(report["num_episodes"]))
        out.append(f"histogram counts sum to {total}, not "
                   f"{len(records)} records x {n}")
    return out, bad_eps


def check_probe(probe: dict) -> list:
    total = sum(probe["actions"].values())
    if total != probe["k"]:
        return [f"probe at {probe['state']!r}: action counts sum to {total}, "
                f"not k = {probe['k']}"]
    return []
