"""Exact finite-MDP verifier for the weighted-entropy soft RL theory.

Everything here is enumerable: tiny state space, tiny effective vocabulary,
short sequences.  Policies are full autoregressive conditional tables, the
parse map is a total lookup table, and all expectations are computed exactly,
so the contraction / improvement / iteration claims can be checked against
independent oracles (linear solves, brute-force enumeration).

Token ids in this module index the effective alphabet (NULL excluded); the
weight profile B is exogenous and state-independent.  Every policy function
computes all states in one call.

The backup operator's entropy and action-distribution terms depend only on
the policy (and B), not on Q: they are computed once per policy by
``policy_terms`` and passed to every ``bellman_backup`` for that policy, as in
soft policy evaluation, where the entropy term is fixed while the policy is.
Policies are evaluated exactly by one linear solve, as in Howard's policy
iteration, and ``bellman_backup`` backs up a whole stack of Q at once.  The
iterated backup, ``policy_evaluation``, is what the contraction claim is
about, so only the contraction check runs it, against the solve.

``soft_improve`` maximizes the per-state objective
E[Q(s, parse(y))] + alpha * sum_i B_i H(y_i | y_<i) exactly, by one backward
pass over the token tree: each conditional is a softmax of its children's
values at temperature alpha * B_i, and each node's value is the matching
log-sum-exp (the soft Bellman backup of Haarnoja et al., ICML 2017, applied
per token).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class TabularMdp:
    num_states: int
    num_actions: int
    vocab_eff: int  # effective alphabet size (NULL excluded)
    n: int  # utterance length
    parse_table: np.ndarray  # (vocab_eff ** n,) action index per sequence
    P: np.ndarray  # (S, A, S) transition simplex rows
    r: np.ndarray  # (S, A)
    gamma: float

    def __post_init__(self):
        S, A = self.num_states, self.num_actions
        if self.parse_table.shape != (self.vocab_eff ** self.n,):
            raise ValueError("parse table must cover every sequence")
        if (not np.issubdtype(self.parse_table.dtype, np.integer)
                or np.any(self.parse_table < 0)
                or np.any(self.parse_table >= A)):
            raise ValueError("parse table entries must be action indices in "
                             "[0, num_actions)")
        if self.P.shape != (S, A, S) or np.any(self.P < 0.0):
            raise ValueError("P must be a non-negative (S, A, S) array")
        if not np.allclose(np.sum(self.P, axis=2), 1.0, atol=1e-9):
            raise ValueError("transition rows must be simplices")
        if self.r.shape != (S, A):
            raise ValueError("r must be an (S, A) array")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


@dataclass
class TabularPolicy:
    """Full conditional tables for every state: tables[i] is (S, Ve**i, Ve)."""

    vocab_eff: int
    n: int
    tables: list  # over positions

    @classmethod
    def uniform(cls, num_states: int, vocab_eff: int, n: int) -> "TabularPolicy":
        tables = [np.full((num_states, vocab_eff ** i, vocab_eff),
                          1.0 / vocab_eff) for i in range(n)]
        return cls(vocab_eff=vocab_eff, n=n, tables=tables)

    @classmethod
    def random(cls, num_states: int, vocab_eff: int, n: int,
               rng: np.random.Generator) -> "TabularPolicy":
        # drawn state-major, then stacked: every seeded instance depends on
        # this order of draws
        rows = [[rng.dirichlet(np.ones(vocab_eff), size=vocab_eff ** i)
                 for i in range(n)] for _ in range(num_states)]
        tables = [np.stack([r[i] for r in rows]) for i in range(n)]
        return cls(vocab_eff=vocab_eff, n=n, tables=tables)

    @property
    def num_states(self) -> int:
        return self.tables[0].shape[0]

    def prefix_probs(self, i: int) -> np.ndarray:
        """(S, Ve**i) probability of each length-i prefix."""
        p = np.ones((self.num_states, 1))
        for j in range(i):
            p = (p[:, :, None] * self.tables[j]).reshape(self.num_states, -1)
        return p

    def seq_probs(self) -> np.ndarray:
        """(S, Ve**n) joint probability of every sequence (lexicographic)."""
        return self.prefix_probs(self.n)


def _cond_entropies(q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log(q), 0.0)
    return -np.sum(terms, axis=-1)


def weighted_entropy_exact(policy: TabularPolicy, B) -> np.ndarray:
    """(S,) sum_i B_i * sum_prefix p(prefix) H(y_i | prefix), exactly."""
    B = np.asarray(B, dtype=np.float64)
    total = np.zeros(policy.num_states)
    for i in range(policy.n):
        pre = policy.prefix_probs(i)
        h = _cond_entropies(policy.tables[i])
        # stacked (1, K) @ (K, 1) products: per state the same dot product
        # as the 1-D pre[s] @ h[s], bit for bit
        total +=B[i] * (pre[:, None, :] @ h[:, :, None])[:, 0, 0]
    return total


def entropy_decomposition_check(policy: TabularPolicy,
                                s: int) -> tuple[float, float, float]:
    """(joint entropy, sum of conditionals, |difference|) at state s."""
    p = policy.seq_probs()[s]
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = -float(np.sum(np.where(p > 0.0, p * np.log(p), 0.0)))
    cond_sum = float(weighted_entropy_exact(policy, np.ones(policy.n))[s])
    return joint, cond_sum, abs(joint - cond_sum)


def action_dist(mdp: TabularMdp, policy: TabularPolicy) -> np.ndarray:
    """(S, A) policy pushed through the parse table: p(a | s)."""
    out = np.zeros((mdp.num_states, mdp.num_actions))
    np.add.at(out, (slice(None), mdp.parse_table), policy.seq_probs())
    return out


def policy_terms(mdp: TabularMdp, policy: TabularPolicy,
                 B) -> tuple[np.ndarray, np.ndarray]:
    """The backup's policy-only terms for one policy: (h, d).

    h is the (S,) weighted entropy per state and d the (S, A) action
    distribution per state.  Both belong to this one policy and weight
    profile; recompute them whenever the policy changes.
    """
    return weighted_entropy_exact(policy, B), action_dist(mdp, policy)


def bellman_backup(mdp: TabularMdp, Q: np.ndarray, terms,
                   alpha: float) -> np.ndarray:
    """One exact application of the weighted-entropy backup operator.

    ``Q`` is (S, A) or a stack (..., S, A), each table backed up bitwise as
    if alone.  ``terms`` is ``policy_terms(mdp, policy, B)`` of the policy
    being evaluated; the backup is only valid for that one policy.
    """
    h, d = terms
    v = alpha * h + np.sum(d * Q, axis=-1)  # (..., S) soft value per state
    # (S, A, S) @ (..., 1, S, 1): a flat (S*A, S) product differs by 1 ulp
    return mdp.r + (mdp.gamma * mdp.P @ v[..., None, :, None])[..., 0]


def policy_evaluation(mdp: TabularMdp, policy: TabularPolicy, B,
                      alpha: float, tol: float = 1e-10,
                      max_iters: int = 100_000) -> tuple[np.ndarray, list]:
    """Iterate the backup to its fixed point; returns (Q, residual trace)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    terms = policy_terms(mdp, policy, B)
    Q = np.zeros((mdp.num_states, mdp.num_actions))
    trace = []
    for _ in range(max_iters):
        nxt = bellman_backup(mdp, Q, terms, alpha)
        res = float(np.max(np.abs(nxt - Q)))
        trace.append(res)
        Q = nxt
        if res < tol:
            return Q, trace
    raise RuntimeError(f"policy evaluation did not converge in {max_iters}")


def policy_evaluation_direct(mdp: TabularMdp, policy: TabularPolicy, B,
                             alpha: float) -> np.ndarray:
    """Closed-form fixed point by one (S*A) linear solve: the evaluator of
    policy iteration and the improvement check, and the iteration's oracle."""
    S, A = mdp.num_states, mdp.num_actions
    h, d = policy_terms(mdp, policy, B)
    # Q = r + gamma * P (alpha h + D Q) with D: (S, S*A) selecting E_a'[Q]
    D = np.zeros((S, S, A))
    D[np.arange(S), np.arange(S)] = d
    P_flat = mdp.P.reshape(S * A, S)
    M = np.eye(S * A) - mdp.gamma * P_flat @ D.reshape(S, S * A)
    rhs = mdp.r.ravel() + mdp.gamma * P_flat @ (alpha * h)
    return np.linalg.solve(M, rhs).reshape(S, A)


def soft_improve(mdp: TabularMdp, Q: np.ndarray, B,
                 alpha: float) -> TabularPolicy:
    """The policy maximizing sum_a d(a|s) Q(s, a) + alpha * h(s) per state.

    One backward pass over the token tree, starting from each full
    sequence's value Q(s, parse(y)).  At position i each conditional is
    softmax(child values / (alpha * B_i)) and the node's value is
    alpha * B_i * logsumexp(child values / (alpha * B_i)); when
    alpha * B_i == 0 the conditional is the argmax, ties to the lowest
    token, and the node's value is the max.
    """
    B = np.asarray(B, dtype=np.float64)
    S, Ve = mdp.num_states, mdp.vocab_eff
    v = Q[:, mdp.parse_table]  # (S, Ve**n) value of every sequence
    tables = [None] * mdp.n
    for i in reversed(range(mdp.n)):
        child = v.reshape(S, Ve ** i, Ve)
        top = np.max(child, axis=2, keepdims=True)
        c = alpha * B[i]
        if c == 0.0:
            tables[i] = np.eye(Ve)[np.argmax(child, axis=2)]
            v = top[:, :, 0]
        else:
            e = np.exp((child - top) / c)
            z = np.sum(e, axis=2, keepdims=True)
            tables[i] = e / z
            v = (top + c * np.log(z))[:, :, 0]
    return TabularPolicy(vocab_eff=Ve, n=mdp.n, tables=tables)


def policy_iteration(mdp: TabularMdp, B, alpha: float, tol: float = 1e-9,
                     max_iters: int = 1000):
    """Alternate exact evaluation (one linear solve) and soft improvement
    until no Q entry moves by tol.

    Returns (final policy, Q*, monotonicity log) where each log entry is the
    min over (s, a) of Q_{k+1} - Q_k.  The log is not judged here: the
    caller decides how far below 0 an entry may fall.  Raises RuntimeError
    when max_iters steps do not converge.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    policy = TabularPolicy.uniform(mdp.num_states, mdp.vocab_eff, mdp.n)
    Q = policy_evaluation_direct(mdp, policy, B, alpha)
    mono_log = []
    for _ in range(max_iters):
        policy = soft_improve(mdp, Q, B, alpha)
        Q_new = policy_evaluation_direct(mdp, policy, B, alpha)
        mono_log.append(float(np.min(Q_new - Q)))
        delta = float(np.max(np.abs(Q_new - Q)))
        Q = Q_new
        if delta < tol:
            return policy, Q, mono_log
    raise RuntimeError(f"policy iteration did not converge in {max_iters}")


# ---------------------------------------------------------------------------
# Random instances and brute-force oracles


def random_mdp(rng: np.random.Generator, num_states: int = 4,
               num_actions: int = 3, vocab_eff: int = 3, n: int = 2,
               gamma: float | None = None,
               surjective_parse: bool = True) -> TabularMdp:
    g = float(rng.uniform(0.5, 0.95)) if gamma is None else gamma
    num_seqs = vocab_eff ** n
    if surjective_parse and num_seqs < num_actions:
        raise ValueError("not enough sequences to cover the action set")
    parse = rng.integers(0, num_actions, size=num_seqs)
    if surjective_parse:
        slots = rng.permutation(num_seqs)[:num_actions]
        parse[slots] = np.arange(num_actions)
    P = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    r = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    return TabularMdp(num_states=num_states, num_actions=num_actions,
                      vocab_eff=vocab_eff, n=n,
                      parse_table=np.asarray(parse, dtype=np.intp),
                      P=P, r=r, gamma=g)


def brute_force_optimal_q(mdp: TabularMdp) -> np.ndarray:
    """Optimal Q (alpha = 0) by enumerating deterministic action policies."""
    S, A = mdp.num_states, mdp.num_actions
    best_v = np.full(S, -np.inf)
    for assignment in product(range(A), repeat=S):
        P_pi = mdp.P[np.arange(S), assignment]  # (S, S)
        r_pi = mdp.r[np.arange(S), assignment]
        v = np.linalg.solve(np.eye(S) - mdp.gamma * P_pi, r_pi)
        best_v = np.maximum(best_v, v)
    return mdp.r + mdp.gamma * mdp.P @ best_v
