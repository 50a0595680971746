"""Causal-weighted entropy RL: objective, optimizers, training iteration.

The objective augments the usual entropy-regularized return with per-token
causal weights: the regularizer is sum_i B_i * H(y_i | y_<i) instead of the
plain conditional-entropy sum.  Two optimizer instantiations are provided
(clipped-surrogate PPO and advantage-weighted regression), both stepping on
the gradient of policy.grad_objective, plus the online loop: rollout,
counterfactual weighting, classifier update, policy update.
"""
from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import counterfactual as cf
from . import heap
from . import policy as pol
from . import scm as scm_mod
from .policy import FeatureSpec, PolicyParams
from .scm import AdamState, ScmParams
from .textmdp import EnvState, TextEnv, state_arrays


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool,
                "str": str}


def check_field_types(obj) -> None:
    """Raise ValueError naming the first int, float, bool or str field of the
    dataclass obj that holds a value of another type.  As in JSON, an int is
    a float, but a bool is no int."""
    for f in dataclasses.fields(obj):
        want = _FIELD_TYPES.get(f.type)
        value = getattr(obj, f.name)
        if want is not None and not (
                isinstance(value, want)
                and isinstance(value, bool) == (f.type == "bool")):
            raise ValueError(f"bad config value: {f.name}={value!r}: "
                             f"{type(value).__name__} not supported as "
                             f"{f.type}")


@dataclass
class Hyperparams:
    alpha: float = 1.0
    gamma: float = 0.99
    clip_eps: float = 0.2
    awr_beta: float = 1.0
    awr_weight_clamp: float = 20.0
    awr_mode: str = "exp"  # 'exp' or 'filter'
    adv_filter_threshold: float = 0.0
    policy_lr: float = 0.05
    scm_lr: float = 1e-3
    rollout_steps: int = 256
    num_envs: int = 16
    minibatch_size: int = 256
    ppo_epochs: int = 1
    scm_steps: int = 8
    scm_batch_size: int = 256
    gae_lambda: float = 0.95
    value_ridge: float = 1e-2
    weight_mode: str = "maxnorm"  # 'raw' or 'maxnorm'
    entropy_placement: str = "loss_bonus"  # or 'reward_bonus'
    context: int = 3
    normalize_advantages: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must be in (0, 1)")
        # otherwise AWR skips every step or inverts its weighting, the
        # optimizers stall or climb the loss, or the value fit is singular
        for name in ("clip_eps", "awr_beta", "awr_weight_clamp", "policy_lr",
                     "scm_lr", "value_ridge"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not (0 <= self.gae_lambda <= 1):
            raise ValueError("gae_lambda must be in [0, 1]")
        for name, allowed in (("awr_mode", ("exp", "filter")),
                              ("weight_mode", ("raw", "maxnorm")),
                              ("entropy_placement",
                               ("loss_bonus", "reward_bonus"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, not "
                                 f"{getattr(self, name)!r}")
        for name in ("rollout_steps", "num_envs", "minibatch_size",
                     "scm_batch_size", "ppo_epochs", "scm_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.context < 0:
            raise ValueError("context must be >= 0")
        if self.rollout_steps % self.num_envs:
            raise ValueError("rollout_steps must be a multiple of num_envs")


@dataclass
class UpdateReport:
    mean_return: float
    mean_weighted_entropy: float | None
    mean_entropy: float
    policy_loss: float
    scm_loss: float
    invalid_rate: float
    grad_norm: float
    buffer_size: int = 0
    env_steps: int = 0
    skipped: bool = False


@dataclass
class RolloutBatch:
    states: np.ndarray  # (m, k) int state features
    next_states: np.ndarray  # (m, k) features after the step
    utterances: np.ndarray  # (m, n) token ids
    action_idx: np.ndarray  # (m,) env action-class labels from the parser
    rewards: np.ndarray
    dones: np.ndarray
    parse_ok: np.ndarray
    old_logprob: np.ndarray  # (m, n)
    entropy: np.ndarray  # (m, n) exact conditional entropies at sampling
    num_streams: int  # stream s occupies indices t * num_streams + s
    snapshot_id: int
    weights: np.ndarray | None = None  # (m, n) B consumed by the objective
    hb: np.ndarray | None = None  # (m,) weighted entropies

    @property
    def size(self) -> int:
        return len(self.states)


def weighted_entropy(entropies, weights) -> float:
    """Dot product of per-token entropies with causal weights."""
    h = np.asarray(entropies, dtype=np.float64)
    b = np.asarray(weights, dtype=np.float64)
    if h.shape != b.shape:
        raise ValueError(f"length mismatch: {h.shape} vs {b.shape}")
    return float(np.dot(h, b))


def augmented_reward(r, next_weighted_entropy, alpha: float, gamma: float):
    """Reward absorbed with the discounted successor entropy bonus (scalars
    or arrays)."""
    if alpha == 0.0:
        return r
    return r + gamma * alpha * next_weighted_entropy


# ---------------------------------------------------------------------------
# Value baseline and advantages


def _value_features(spec: FeatureSpec, feats: np.ndarray) -> np.ndarray:
    """State one-hots plus a bias column: (batch, sum of cards + 1)."""
    sidx = pol.state_index(spec.state_cards, feats)
    bias = sum(spec.state_cards)
    return pol.one_hot(np.hstack([sidx, np.full((len(feats), 1), bias)]),
                       bias + 1)


def _by_tick(batch: RolloutBatch, a: np.ndarray) -> np.ndarray:
    """(ticks, streams) view of a per-row array: row j is tick
    j // num_streams of stream j % num_streams."""
    return a.reshape(-1, batch.num_streams)


def fit_value(spec: FeatureSpec, batch: RolloutBatch, gamma: float,
              ridge: float, prev_beta: np.ndarray | None) -> np.ndarray:
    """Ridge fit of a linear state value on bootstrapped returns-to-go."""
    m = batch.size
    F = _value_features(spec, batch.states)
    boot = np.zeros(m)
    if prev_beta is not None:
        boot = _value_features(spec, batch.next_states) @ prev_beta
    r, done, boot = (_by_tick(batch, a) for a in (batch.rewards, batch.dones,
                                                  boot))
    returns = np.empty_like(r)
    # backward over ticks, all streams at once; the last tick bootstraps
    g = np.where(done[-1], r[-1], r[-1] + gamma * boot[-1])
    returns[-1] = g
    for t in range(len(r) - 2, -1, -1):
        g = np.where(done[t], r[t], r[t] + gamma * g)
        returns[t] = g
    A = F.T @ F + ridge * np.eye(F.shape[1])
    return np.linalg.solve(A, F.T @ returns.ravel())


def gae_advantages(spec: FeatureSpec, batch: RolloutBatch, gamma: float,
                   lam: float, beta: np.ndarray) -> np.ndarray:
    """Generalized advantage estimates per step, all streams at once."""
    v = _by_tick(batch, _value_features(spec, batch.states) @ beta)
    v_next = _by_tick(batch, _value_features(spec, batch.next_states) @ beta)
    r = _by_tick(batch, batch.rewards)
    nonterm = np.where(_by_tick(batch, batch.dones), 0.0, 1.0)
    adv = np.empty_like(r)
    acc = np.zeros(batch.num_streams)
    for t in range(len(r) - 1, -1, -1):
        delta = r[t] + gamma * nonterm[t] * v_next[t] - v[t]
        acc = delta + gamma * lam * nonterm[t] * acc
        adv[t] = acc
    return adv.ravel()


# ---------------------------------------------------------------------------
# Policy updates


def _descend(params: PolicyParams, batch: RolloutBatch, coef: np.ndarray,
             hyper: Hyperparams, opt: AdamState, rng: np.random.Generator,
             forced: tuple) -> tuple[PolicyParams, float]:
    """Adam steps over shuffled minibatches on
    loss = -(1/m) sum coef * logp(y) - alpha * mean(H^B).

    coef is treated as constant (ratio/advantage weighting evaluated by the
    caller).  forced is teacher_forced_batch of the whole batch at params,
    which the caller has already used for its loss and coefficients: the
    first minibatch takes its rows, later ones teacher-force again because
    the params have moved.  Returns the params and the last step's gradient
    norm.
    """
    use_entropy = (hyper.alpha > 0.0
                   and hyper.entropy_placement == "loss_bonus")
    order = rng.permutation(batch.size)
    gnorm = 0.0
    for lo in range(0, batch.size, hyper.minibatch_size):
        idx = order[lo:lo + hyper.minibatch_size]
        grad = pol.grad_objective(
            params, batch.states[idx], batch.utterances[idx],
            sample_weights=coef[idx],
            token_weights=(hyper.alpha * batch.weights[idx] if use_entropy
                           else None),
            forced=None if forced is None else tuple(a[idx] for a in forced))
        forced = None
        grad = -grad / len(idx)  # gradient of the loss (objective negated)
        params = PolicyParams(spec=params.spec, weights=opt.update(
            params.weights, grad, hyper.policy_lr))
        gnorm = float(np.sqrt(np.sum(grad * grad)))
    return params, gnorm


def _loss_value(coef_term: np.ndarray, hyper: Hyperparams,
                batch: RolloutBatch) -> float:
    loss = -float(np.mean(coef_term))
    if hyper.alpha > 0.0 and hyper.entropy_placement == "loss_bonus":
        loss -= hyper.alpha * float(np.mean(batch.hb))
    return loss


def ppo_update(params: PolicyParams, batch: RolloutBatch, hyper: Hyperparams,
               advantages: np.ndarray, opt: AdamState,
               rng: np.random.Generator, snapshot_id: int,
               forced=None) -> tuple[PolicyParams, float, float, float]:
    """One epoch of clipped-surrogate updates over shuffled minibatches.

    forced is teacher_forced_batch(params, batch.states, batch.utterances)
    if the caller already has it (the rollout's pass, before any step);
    otherwise this call teacher-forces the batch once.  That one pass gives
    the ratio, the loss and the first minibatch's gradient.

    Returns (params, loss at call start, mean ratio, grad norm).  Raises if
    the rollout snapshot does not match the current parameters.
    """
    if batch.snapshot_id != snapshot_id:
        raise ValueError("stale trajectories: snapshot id mismatch")
    if forced is None:
        forced = pol.teacher_forced_batch(params, batch.states,
                                          batch.utterances)
    tok_lp = forced[2]
    old = np.sum(batch.old_logprob, axis=1)
    ratio = np.exp(np.sum(tok_lp, axis=1) - old)
    clipped = np.clip(ratio, 1.0 - hyper.clip_eps, 1.0 + hyper.clip_eps)
    surr = np.minimum(ratio * advantages, clipped * advantages)
    loss = _loss_value(surr, hyper, batch)
    # gradient coefficient of d(sum logp): A * ratio where the unclipped
    # branch is active, zero where the clip binds
    active = ratio * advantages <= clipped * advantages
    coef = np.where(active, advantages * ratio, 0.0)
    params, gnorm = _descend(params, batch, coef, hyper, opt, rng, forced)
    return params, loss, float(np.mean(ratio)), gnorm


def awr_update(params: PolicyParams, batch: RolloutBatch, hyper: Hyperparams,
               advantages: np.ndarray, opt: AdamState,
               rng: np.random.Generator,
               forced=None) -> tuple[PolicyParams, float, float, bool]:
    """Advantage-weighted regression step (off-policy tolerated).

    forced is teacher_forced_batch(params, batch.states, batch.utterances)
    if the caller already has it; otherwise the step teacher-forces the
    batch once, for the loss and the first minibatch's gradient.

    Returns (params, loss, grad norm, skipped).  With the hard filter and no
    positive advantages the step is skipped and reported.
    """
    if hyper.awr_mode == "filter":
        w = (advantages > hyper.adv_filter_threshold).astype(np.float64)
    else:
        w = np.clip(np.exp(advantages / hyper.awr_beta), 0.0,
                    hyper.awr_weight_clamp)
    if not np.any(w > 0.0):
        return params, 0.0, 0.0, True
    if forced is None:
        forced = pol.teacher_forced_batch(params, batch.states,
                                          batch.utterances)
    loss = _loss_value(w * np.sum(forced[2], axis=1), hyper, batch)
    params, gnorm = _descend(params, batch, w, hyper, opt, rng, forced)
    return params, loss, gnorm, False


# ---------------------------------------------------------------------------
# The online training loop


class Trainer:
    """Owns the mutable training state for one run.

    arm: 'rl' (alpha forced to 0), 'rl_h' (uniform weights), or 'coso'
    (classifier-derived weights).  All arms consume identical randomness; the
    only difference is the weight vector fed to the entropy term.
    """

    def __init__(self, env: TextEnv, hyper: Hyperparams, seed: int,
                 arm: str = "coso", optimizer: str = "ppo",
                 force_uniform_weights: bool = False):
        if arm not in ("rl", "rl_h", "coso"):
            raise ValueError(f"unknown arm {arm!r}")
        if optimizer not in ("ppo", "awr"):
            raise ValueError(f"unknown optimizer {optimizer!r}")
        heap.keep_heap()  # the loop reuses its freed arrays' memory
        self.env = env
        self.hyper = hyper if arm != "rl" else replace(hyper, alpha=0.0)
        self.arm = arm
        self.optimizer = optimizer
        self.force_uniform_weights = force_uniform_weights
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        spec = FeatureSpec.for_env(env, context=hyper.context)
        self.policy = PolicyParams.zeros(spec)
        self.scm = ScmParams.zeros(env.grammar.n, env.vocab.size,
                                   env.num_actions)
        self.policy_opt = AdamState()
        self.value_beta: np.ndarray | None = None
        self.snapshot_id = 0
        # (batch, policy weights, snapshot id, teacher_forced_batch output)
        # of the last rollout, until the next update_policy takes it
        self._rollout_forcing = None
        self.total_env_steps = 0
        self._episode_counter = 0
        # stream s is row s: (num_envs, k) features and (num_envs,) steps
        self._feats, self._steps = state_arrays(
            [self._fresh_state() for _ in range(hyper.num_envs)])

    def _fresh_state(self) -> EnvState:
        counter = self._episode_counter
        self._episode_counter += 1
        if not self.env.reset_reads_seed:
            return self.env.reset(0)
        s = np.random.SeedSequence([self.seed, counter])
        return self.env.reset(int(s.generate_state(1)[0]))

    # -- phases ------------------------------------------------------------

    def collect_rollouts(self) -> RolloutBatch:
        env, hyper = self.env, self.hyper
        ns, n = hyper.num_envs, self.policy.spec.n
        ticks = hyper.rollout_steps // ns
        states = np.empty((ticks,) + self._feats.shape, dtype=np.intp)
        next_states = np.empty_like(states)
        utts = np.empty((ticks, ns, n), dtype=np.intp)
        acts = np.empty((ticks, ns), dtype=np.intp)
        rewards = np.empty((ticks, ns))
        dones = np.empty((ticks, ns), dtype=bool)
        oks = np.empty((ticks, ns), dtype=bool)
        # one row of ns uniforms per (tick, token position): the stream of
        # ticks * n successive draws of ns
        uniforms = self.rng.random((ticks, n, ns))
        tables = pol.decode_tables(self.policy)  # the policy is frozen here
        for t in range(ticks):
            utts[t] = pol.sample_utterances_batch(tables, self._feats,
                                                  uniforms[t].T)
            acts[t], oks[t] = env.parse_batch(utts[t])
            states[t] = self._feats
            (next_states[t], self._steps, rewards[t],
             dones[t]) = env.step_batch(self._feats, self._steps, acts[t])
            self._feats = next_states[t].copy()
            for s_i in np.flatnonzero(dones[t]):
                fresh = self._fresh_state()
                self._feats[s_i], self._steps[s_i] = (fresh.features,
                                                      fresh.step_count)
            self.total_env_steps += ns
        m = ticks * ns
        states, utts = states.reshape(m, -1), utts.reshape(m, n)
        forced = pol.teacher_forced_batch(self.policy, states, utts)
        batch = RolloutBatch(
            states=states, next_states=next_states.reshape(m, -1),
            utterances=utts, action_idx=acts.reshape(m),
            rewards=rewards.reshape(m), dones=dones.reshape(m),
            parse_ok=oks.reshape(m), old_logprob=forced[2],
            entropy=forced[3], num_streams=ns, snapshot_id=self.snapshot_id)
        self._rollout_forcing = (batch, self.policy.weights,
                                 self.snapshot_id, forced)
        return batch

    def compute_weights(self, batch: RolloutBatch) -> None:
        """Fill batch.weights/hb according to the arm (B for every (y, a))."""
        hyper = self.hyper
        raw = cf.causal_weights_batch(self.scm, batch.utterances,
                                      batch.action_idx)
        if self.arm == "rl_h" or self.force_uniform_weights:
            used = np.ones_like(raw)
        else:
            used = cf.normalize_weights_batch(raw, mode=hyper.weight_mode)
        batch.weights = used
        batch.hb = np.sum(used * batch.entropy, axis=1)

    def update_scm(self, batch: RolloutBatch) -> float:
        self.scm, loss = scm_mod.train_scm(
            self.scm, batch.utterances, batch.action_idx,
            lr=self.hyper.scm_lr, steps=self.hyper.scm_steps,
            batch_size=self.hyper.scm_batch_size, rng=self.rng)
        return loss

    def _take_rollout_forcing(self, batch: RolloutBatch):
        """Empty the rollout slot.  Returns its teacher forcing if batch is
        that rollout's batch and neither the policy weights nor the snapshot
        id have changed since, else None."""
        slot, self._rollout_forcing = self._rollout_forcing, None
        if slot is None:
            return None
        rolled, weights, snapshot_id, forced = slot
        if (rolled is batch and weights is self.policy.weights
                and snapshot_id == self.snapshot_id):
            return forced
        return None

    def update_policy(self, batch: RolloutBatch) -> tuple[float, float, bool]:
        """Value fit, advantages, then the PPO epochs or the AWR step.

        The first PPO epoch or the AWR step reuses the rollout's teacher
        forcing when it was taken on this batch at the current params.
        """
        hyper = self.hyper
        spec = self.policy.spec
        forced = self._take_rollout_forcing(batch)
        rewards = batch.rewards
        if hyper.alpha > 0.0 and hyper.entropy_placement == "reward_bonus":
            rewards = self._augment_rewards(batch)
            batch = replace(batch, rewards=rewards)
        self.value_beta = fit_value(spec, batch, hyper.gamma,
                                    hyper.value_ridge, self.value_beta)
        adv = gae_advantages(spec, batch, hyper.gamma, hyper.gae_lambda,
                             self.value_beta)
        if hyper.normalize_advantages:
            adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)
        skipped = False
        if self.optimizer == "ppo":
            loss = 0.0
            gnorm = 0.0
            for _ in range(hyper.ppo_epochs):
                self.policy, loss, _, gnorm = ppo_update(
                    self.policy, batch, hyper, adv, self.policy_opt,
                    self.rng, self.snapshot_id, forced=forced)
                forced = None  # later epochs start from moved params
        else:
            self.policy, loss, gnorm, skipped = awr_update(
                self.policy, batch, hyper, adv, self.policy_opt, self.rng,
                forced=forced)
        if not skipped:
            self.snapshot_id += 1
        return loss, gnorm, skipped

    def _augment_rewards(self, batch: RolloutBatch) -> np.ndarray:
        """Fold the successor weighted-entropy bonus into rewards."""
        hyper = self.hyper
        ns = batch.num_streams
        out = batch.rewards.copy()
        # row j + ns is the same stream's next tick; the last tick has none
        r = batch.rewards[:-ns]
        out[:-ns] = np.where(batch.dones[:-ns], r, augmented_reward(
            r, batch.hb[ns:], hyper.alpha, hyper.gamma))
        return out

    def train_iteration(self) -> UpdateReport:
        """One pass: rollout, counterfactual weights, SCM then policy update."""
        batch = self.collect_rollouts()
        self.compute_weights(batch)
        scm_loss = self.update_scm(batch)
        if not np.isfinite(scm_loss):
            raise RuntimeError("SCM update diverged; policy update aborted")
        policy_loss, gnorm, skipped = self.update_policy(batch)
        return UpdateReport(
            mean_return=float(np.mean(batch.rewards)),
            mean_weighted_entropy=(None if self.arm == "rl"
                                   else float(np.mean(batch.hb))),
            mean_entropy=float(np.mean(np.sum(batch.entropy, axis=1))),
            policy_loss=policy_loss, scm_loss=scm_loss,
            invalid_rate=float(np.mean(~batch.parse_ok)),
            grad_norm=gnorm, buffer_size=batch.size,
            env_steps=self.total_env_steps, skipped=skipped)
