"""Causal-weighted entropy RL: objective, optimizers, training iteration.

The objective augments the usual entropy-regularized return with per-token
causal weights: the regularizer is sum_i B_i * H(y_i | y_<i) instead of the
plain conditional-entropy sum.  Two optimizer instantiations are provided
(clipped-surrogate PPO and advantage-weighted regression), both stepping on
the gradient of policy.grad_objective, plus the online loop: rollout,
counterfactual weighting, classifier update, policy update.  Only coso runs
read a classifier, so only they query and train one; an rl or rl_h run
keeps its initial classifier and reports no SCM loss, but makes the
classifier update's row draws all the same, so every arm of a seed
consumes identical randomness.

Every phase takes a run axis: R compatible runs, a lockstep group (a lead
Trainer and the others its phases are handed), train together on one
RolloutBatch that holds their rows stacked run-first, each phase one pass
over it, while every run keeps its own generator, state, snapshot id and
causal weights (computed on a view of its rows).  Each run's results equal
its own training alone, bit for bit.  One run is a group of one, with a
batch of one run and a list of one report.  The runs of a group that share
a seed also share their episode starts: each (seed, episode number) start
is computed once per group, by the first run to reach it.  The rollout
records each token's distribution while it samples and returns it with
the batch: the batch's teacher forcing at the sampling policies.  The
first PPO epoch or the AWR step takes it, and teacher_forced_batch serves
only the steps after the params move.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from . import counterfactual as cf
from . import heap
from . import policy as pol
from . import scm as scm_mod
from .policy import FeatureSpec, PolicyParams
from .scm import AdamState, ScmParams, adam_update_runs
from .textmdp import EnvState, TextEnv, check_scalar, state_arrays


ARMS = ("rl", "rl_h", "coso")
OPTIMIZERS = ("ppo", "awr")


def check_field_types(obj) -> None:
    """Raise ValueError naming the first int, float or str field of the
    dataclass obj whose value fails textmdp.check_scalar: a value of another
    type, or NaN or an infinity in a float field."""
    for f in dataclasses.fields(obj):
        if f.type in ("int", "float", "str"):
            check_scalar(getattr(obj, f.name), f.type,
                         f"bad config value: {f.name}")


@dataclass
class Hyperparams:
    alpha: float = 1.0
    gamma: float = 0.99
    clip_eps: float = 0.2
    awr_beta: float = 1.0
    awr_weight_clamp: float = 20.0
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
    entropy_placement: str = "loss_bonus"  # or 'reward_bonus'
    context: int = 3

    def __post_init__(self):
        check_field_types(self)
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must be in (0, 1)")
        # otherwise AWR inverts its weighting, the optimizers stall or climb
        # the loss, or the value fit is singular
        for name in ("clip_eps", "awr_beta", "awr_weight_clamp", "policy_lr",
                     "scm_lr", "value_ridge"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not (0 <= self.gae_lambda <= 1):
            raise ValueError("gae_lambda must be in [0, 1]")
        allowed = ("loss_bonus", "reward_bonus")
        if self.entropy_placement not in allowed:
            raise ValueError(f"entropy_placement must be one of {allowed}, "
                             f"not {self.entropy_placement!r}")
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
    scm_loss: float | None  # None: an rl or rl_h run, which trains no SCM
    invalid_rate: float
    grad_norm: float
    env_steps: int = 0


@dataclass
class RolloutBatch:
    """The rollouts of R runs stacked run-first, R = len(snapshot_id): each
    per-row array holds run r's m rows at r * m, in batch order (row j of a
    run is tick j // num_streams of stream j % num_streams)."""

    states: np.ndarray  # (R * m, k) int state features
    next_states: np.ndarray  # (R * m, k) features after the step
    utterances: np.ndarray  # (R * m, n) token ids
    action_idx: np.ndarray  # (R * m,) env action-class labels from the parser
    rewards: np.ndarray
    dones: np.ndarray
    parse_ok: np.ndarray
    old_logprob: np.ndarray  # (R * m, n)
    entropy: np.ndarray  # (R * m, n) exact conditional entropies at sampling
    num_streams: int
    snapshot_id: tuple  # each run's policy snapshot at sampling
    weights: np.ndarray | None = None  # (R * m, n) B consumed by the objective
    hb: np.ndarray | None = None  # (R * m,) weighted entropies

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def runs(self) -> int:
        return len(self.snapshot_id)

    @property
    def per_run(self) -> int:
        return self.size // self.runs

    def rows(self, runs: np.ndarray) -> np.ndarray:
        """Row indices of the given runs, in their order."""
        m = self.per_run
        return (runs[:, None] * m + np.arange(m)).ravel()

    def run(self, r: int) -> "RolloutBatch":
        """Run r's rows as a batch of one whose arrays are views."""
        rows = slice(r * self.per_run, (r + 1) * self.per_run)
        return replace(self, snapshot_id=(self.snapshot_id[r],), **{
            f.name: getattr(self, f.name)[rows]
            for f in dataclasses.fields(self)
            if f.name not in ("num_streams", "snapshot_id")
            and getattr(self, f.name) is not None})

    def by_run(self, a: np.ndarray) -> np.ndarray:
        """(R, m) view of a per-row array."""
        return a.reshape(self.runs, -1)

    def by_tick(self, a: np.ndarray) -> np.ndarray:
        """(R, ticks, streams) view of a per-row array."""
        return a.reshape(self.runs, -1, self.num_streams)


def augmented_reward(r, next_weighted_entropy, alpha: float, gamma: float):
    """Reward absorbed with the discounted successor entropy bonus (scalars
    or arrays)."""
    return r + gamma * alpha * next_weighted_entropy


# ---------------------------------------------------------------------------
# Value baseline and advantages


def _value_features(spec: FeatureSpec, feats: np.ndarray) -> np.ndarray:
    """State one-hots plus a bias column: (batch, sum of cards + 1)."""
    sidx = pol.state_index(spec.state_cards, feats)
    bias = sum(spec.state_cards)
    return pol.one_hot(np.hstack([sidx, np.full((len(feats), 1), bias)]),
                       bias + 1)


def value_features(spec: FeatureSpec, batch: RolloutBatch) -> tuple:
    """The value features of batch's states and of its next states, each
    (R, m, d) by run: built once per update, for fit_value and
    gae_advantages."""
    return tuple(_value_features(spec, a).reshape(batch.runs, batch.per_run,
                                                  -1)
                 for a in (batch.states, batch.next_states))


def _run_values(F: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(R, m) linear values of the runs' (R, m, d) features F under their
    (R, d) beta."""
    return np.matmul(F, beta[..., None])[..., 0]


def fit_value(feats: tuple, batch: RolloutBatch, gamma: float, ridge: float,
              prev_beta: np.ndarray) -> np.ndarray:
    """Ridge fits of linear state values on bootstrapped returns-to-go, one
    per run of batch: (R, d), from the runs' (R, d) previous fits
    prev_beta (zeros for a run's first fit).  feats is
    value_features(spec, batch)."""
    F, F_next = feats
    r, done, boot = (batch.by_tick(a) for a in (
        batch.rewards, batch.dones, _run_values(F_next, prev_beta)))
    returns = np.empty_like(r)
    # backward over ticks, all runs' streams at once; the last tick
    # bootstraps
    g = np.where(done[:, -1], r[:, -1], r[:, -1] + gamma * boot[:, -1])
    returns[:, -1] = g
    for t in range(r.shape[1] - 2, -1, -1):
        g = np.where(done[:, t], r[:, t], r[:, t] + gamma * g)
        returns[:, t] = g
    Ft = F.transpose(0, 2, 1)
    A = np.matmul(Ft, F) + ridge * np.eye(F.shape[2])
    rhs = np.matmul(Ft, returns.reshape(batch.runs, -1, 1))
    return np.linalg.solve(A, rhs)[..., 0]


def gae_advantages(feats: tuple, batch: RolloutBatch, gamma: float,
                   lam: float, beta: np.ndarray) -> np.ndarray:
    """Generalized advantage estimates per row of batch, all runs and
    streams at once, under the runs' (R, d) value fits beta.  feats is
    value_features(spec, batch)."""
    v, v_next = (batch.by_tick(_run_values(F, beta)) for F in feats)
    r = batch.by_tick(batch.rewards)
    nonterm = np.where(batch.by_tick(batch.dones), 0.0, 1.0)
    adv = np.empty_like(r)
    acc = np.zeros((batch.runs, batch.num_streams))
    for t in range(r.shape[1] - 1, -1, -1):
        delta = r[:, t] + gamma * nonterm[:, t] * v_next[:, t] - v[:, t]
        acc = delta + gamma * lam * nonterm[:, t] * acc
        adv[:, t] = acc
    return adv.ravel()


def _augment_rewards(batch: RolloutBatch, alphas, gamma: float) -> np.ndarray:
    """The rewards with each run's successor weighted-entropy bonus folded
    in at its alpha; a run at alpha 0 keeps its rewards untouched."""
    alphas = np.asarray(alphas, dtype=np.float64)
    bonus = np.flatnonzero(alphas > 0.0)
    out = batch.by_tick(batch.rewards).copy()
    # tick t + 1 of a stream follows tick t; the last tick has none
    r = out[bonus, :-1]
    out[bonus, :-1] = np.where(
        batch.by_tick(batch.dones)[bonus, :-1], r,
        augmented_reward(r, batch.by_tick(batch.hb)[bonus, 1:],
                         alphas[bonus, None, None], gamma))
    return out.ravel()


# ---------------------------------------------------------------------------
# Policy updates
#
# ppo_update and awr_update take R runs in lockstep: stacked (R, dim, V)
# policy weights and the runs' batch, Hyperparams (which differ in alpha
# alone), Adam states and generators.  The advantages and forced cover the
# batch's rows, and the losses and grad norms come back as per-run lists.


def _entropy_runs(hyper: Hyperparams, alphas) -> list:
    """Per run: whether the loss carries the weighted-entropy bonus."""
    return [a > 0.0 and hyper.entropy_placement == "loss_bonus"
            for a in alphas]


def _descend(params: PolicyParams, batch: RolloutBatch, coef: np.ndarray,
             hyper: Hyperparams, alphas, opts, rngs,
             forced: tuple | None) -> tuple[np.ndarray, list]:
    """Adam steps over shuffled minibatches on each run's
    loss = -(1/m) sum coef * logp(y) - alpha * mean(H^B).

    coef is treated as constant (ratio/advantage weighting evaluated by the
    caller).  forced is teacher_forced_batch of the whole stack at params,
    which the caller has already used for its loss and coefficients: the
    first minibatch takes its rows, later ones teacher-force again because
    the params have moved.  A run without the entropy bonus leaves its
    token term out.  Returns the new stacked weights and each run's last
    gradient norm.
    """
    use_entropy = _entropy_runs(hyper, alphas)
    m = batch.per_run
    # run r's permutation of its own rows, as row indices of the stack
    order = (np.stack([g.permutation(m) for g in rngs])
             + (np.arange(batch.runs) * m)[:, None])
    weights = params.weights
    gnorms = [0.0] * batch.runs
    for lo in range(0, m, hyper.minibatch_size):
        idx = order[:, lo:lo + hyper.minibatch_size]
        size = idx.shape[1]
        idx = idx.ravel()
        token = None
        if any(use_entropy):
            token = (np.repeat(np.asarray(alphas, dtype=np.float64),
                               size)[:, None] * batch.weights[idx])
        grad = pol.grad_objective(
            PolicyParams(spec=params.spec, weights=weights), batch.states[idx],
            batch.utterances[idx], sample_weights=coef[idx],
            token_weights=token, token_runs=use_entropy, forced=forced,
            forced_rows=idx)
        forced = None
        grad = -grad / size  # gradient of the loss (objective negated)
        weights = adam_update_runs(opts, weights, grad, hyper.policy_lr)
        sq = grad * grad
        gnorms = [float(np.sqrt(np.sum(sq[r]))) for r in range(batch.runs)]
    return weights, gnorms


def _loss_values(coef_term: np.ndarray, hyper: Hyperparams, alphas,
                 batch: RolloutBatch) -> list:
    """Each run's loss: minus its mean coef_term, minus alpha times its
    mean weighted entropy where the loss carries that bonus."""
    means = np.mean(batch.by_run(coef_term), axis=1)
    use_entropy = _entropy_runs(hyper, alphas)
    hb = np.mean(batch.by_run(batch.hb), axis=1) if any(use_entropy) else None
    return [-float(means[r]) - alpha * float(hb[r]) if use_entropy[r]
            else -float(means[r]) for r, alpha in enumerate(alphas)]


def ppo_update(params: PolicyParams, batch: RolloutBatch, hyper,
               advantages: np.ndarray, opt, rng, snapshot_id,
               forced=None) -> tuple:
    """One epoch of clipped-surrogate updates over shuffled minibatches.

    forced is teacher_forced_batch of the batch at params if the caller
    already has it (the forcing the rollout recorded, before any step);
    otherwise this call teacher-forces the batch once.  That one forcing
    gives the ratios, the losses and the first minibatch's gradient.

    Returns (params, losses at call start, grad norms).  Raises if a run's
    rollout snapshot does not match its snapshot_id.
    """
    if batch.snapshot_id != tuple(snapshot_id):
        raise ValueError("stale trajectories: snapshot id mismatch")
    alphas, h = [x.alpha for x in hyper], hyper[0]
    if forced is None:
        forced = pol.teacher_forced_batch(params, batch.states,
                                          batch.utterances)
    tok_lp = forced[2]
    old = np.sum(batch.old_logprob, axis=1)
    ratio = np.exp(np.sum(tok_lp, axis=1) - old)
    clipped = np.clip(ratio, 1.0 - h.clip_eps, 1.0 + h.clip_eps)
    surr = np.minimum(ratio * advantages, clipped * advantages)
    losses = _loss_values(surr, h, alphas, batch)
    # gradient coefficient of d(sum logp): A * ratio where the unclipped
    # branch is active, zero where the clip binds
    active = ratio * advantages <= clipped * advantages
    coef = np.where(active, advantages * ratio, 0.0)
    weights, gnorms = _descend(params, batch, coef, h, alphas, opt, rng,
                               forced)
    return PolicyParams(spec=params.spec, weights=weights), losses, gnorms


def awr_update(params: PolicyParams, batch: RolloutBatch, hyper,
               advantages: np.ndarray, opt, rng, forced=None) -> tuple:
    """Advantage-weighted regression step (off-policy tolerated): each row
    weighs its log-likelihood by clip(exp(A / awr_beta), 0, awr_weight_clamp).

    forced is as for ppo_update; without it the step teacher-forces the
    batch once, for the losses and the first minibatch's gradient.

    Returns (params, losses, grad norms).  update_policy standardises each
    run's advantages, so every run has one >= 0, a weight >= min(1,
    awr_weight_clamp) > 0, and steps.
    """
    alphas, h = [x.alpha for x in hyper], hyper[0]
    w = np.clip(np.exp(advantages / h.awr_beta), 0.0, h.awr_weight_clamp)
    if forced is None:
        forced = pol.teacher_forced_batch(params, batch.states,
                                          batch.utterances)
    losses = _loss_values(w * np.sum(forced[2], axis=1), h, alphas, batch)
    weights, gnorms = _descend(params, batch, w, h, alphas, opt, rng, forced)
    return PolicyParams(spec=params.spec, weights=weights), losses, gnorms


class Trainer:
    """Owns the mutable training state for one run.

    arm: 'rl' (alpha forced to 0), 'rl_h' (uniform weights), or 'coso'
    (classifier-derived weights); the arm alone decides B.  All arms
    consume identical randomness; the only difference is the weight vector
    fed to the entropy term.  Only a coso run trains its classifier: an rl
    or rl_h run keeps ScmParams.zeros and makes the same row draws
    (update_scm).  Each phase takes the other runs of a lockstep
    group, this run leading; the runs must share their lockstep_key and
    their step count and may differ in arm, seed and alpha.  Episode number i
    starts from env.reset of a seed drawn from SeedSequence([seed, i]),
    so runs with one seed start their episodes alike; in a group they read
    those starts from one _SharedStarts.
    """

    def __init__(self, env: TextEnv, hyper: Hyperparams, seed: int,
                 arm: str = "coso", optimizer: str = "ppo"):
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r}")
        if optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        heap.keep_heap()  # the loop reuses its freed arrays' memory
        self.env = env
        self.hyper = hyper if arm != "rl" else replace(hyper, alpha=0.0)
        self.arm = arm
        self.optimizer = optimizer
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        spec = FeatureSpec.for_env(env, context=hyper.context)
        self.policy = PolicyParams.zeros(spec)
        self.scm = ScmParams.zeros(env.grammar.n, env.vocab.size,
                                   env.num_actions)
        self.policy_opt = AdamState()
        # the value fit, zeros before the first: it bootstraps from zero
        self.value_beta = np.zeros(sum(spec.state_cards) + 1)
        self.snapshot_id = 0
        self.total_env_steps = 0
        self._episode_counter = 0
        # the episode starts this run shares with its group's runs of the
        # same seed (_check_group sets it), or None
        self._starts: _SharedStarts | None = None
        # stream s is row s: (num_envs, k) features and (num_envs,) steps,
        # drawn on the first rollout (_start_streams)
        self._feats: np.ndarray | None = None
        self._steps: np.ndarray | None = None

    def _start_streams(self) -> None:
        """Draw the first num_envs episode starts, once.  The first rollout
        does it after _check_group, so a group shares these starts too."""
        if self._feats is None:
            self._feats, self._steps = state_arrays(
                [self._fresh_state() for _ in range(self.hyper.num_envs)])

    def _fresh_state(self) -> EnvState:
        counter = self._episode_counter
        self._episode_counter += 1
        if not self.env.reset_reads_seed:
            return self.env.reset(0)
        if self._starts is not None:
            return self._starts.read(self, counter)
        return self._seeded_start(counter)

    def _seeded_start(self, counter: int) -> EnvState:
        """The start of this run's episode number counter."""
        s = np.random.SeedSequence([self.seed, counter])
        return self.env.reset(int(s.generate_state(1)[0]))

    # -- phases ------------------------------------------------------------

    def collect_rollouts(self, *others: "Trainer") -> tuple:
        """(batch, forced): the rollout batch of this run and the others,
        stepped in lockstep, in that order, and its teacher forcing at the
        sampling policies; each run's streams get arrays of their own.

        This is where an iteration checks its group (_check_group), before
        any draw.  The decoder records every token's distribution as it
        samples, so forced (teacher_forced_batch runs the same decoder on
        given tokens) costs no second pass.
        """
        trs = [self, *others]
        _check_group(trs)
        for tr in trs:
            tr._start_streams()
        env, hyper, spec = self.env, self.hyper, self.policy.spec
        runs, ns, n = len(trs), hyper.num_envs, spec.n
        ticks = hyper.rollout_steps // ns
        # stream s of run r is row r * ns + s
        feats = np.concatenate([tr._feats for tr in trs])
        steps = np.concatenate([tr._steps for tr in trs])
        k = feats.shape[1]
        states = np.empty((runs, ticks, ns, k), dtype=np.intp)
        next_states = np.empty_like(states)
        utts = np.empty((runs, ticks, ns, n), dtype=np.intp)
        acts = np.empty((runs, ticks, ns), dtype=np.intp)
        rewards = np.empty((runs, ticks, ns))
        dones = np.empty((runs, ticks, ns), dtype=bool)
        oks = np.empty((runs, ticks, ns), dtype=bool)
        # the distributions each token is drawn from, the batch's teacher
        # forcing, recorded tick by tick
        probs = np.empty((runs, ticks, ns, n, spec.vocab_size))
        logprobs = np.empty_like(probs)
        # per run, one row of ns uniforms per (tick, token position): the
        # stream of ticks * n successive draws of ns
        uniforms = np.stack([tr.rng.random((ticks, n, ns)) for tr in trs])
        # the policies are frozen here
        tables = pol.decode_tables(PolicyParams(spec=spec, weights=np.stack(
            [tr.policy.weights for tr in trs])))
        for t in range(ticks):
            toks = pol.sample_utterances_batch(
                tables, feats,
                uniforms[:, t].transpose(0, 2, 1).reshape(runs * ns, n),
                out=(probs[:, t], logprobs[:, t]))
            act, ok = env.parse_batch(toks)
            states[:, t] = feats.reshape(runs, ns, k)
            utts[:, t] = toks.reshape(runs, ns, n)
            acts[:, t], oks[:, t] = act.reshape(runs, ns), ok.reshape(runs, ns)
            nxt, steps, rew, done = env.step_batch(feats, steps, act)
            next_states[:, t] = nxt.reshape(runs, ns, k)
            rewards[:, t], dones[:, t] = (rew.reshape(runs, ns),
                                          done.reshape(runs, ns))
            feats = nxt.copy()
            for j in np.flatnonzero(done):
                fresh = trs[j // ns]._fresh_state()
                feats[j], steps[j] = fresh.features, fresh.step_count
        states, utts = states.reshape(-1, k), utts.reshape(-1, n)
        probs, logprobs = (a.reshape(-1, n, spec.vocab_size)
                           for a in (probs, logprobs))
        forced = (probs, logprobs) + pol.token_stats(probs, logprobs, utts)
        for r, tr in enumerate(trs):
            tr._feats = feats[r * ns:(r + 1) * ns].copy()
            tr._steps = steps[r * ns:(r + 1) * ns].copy()
            tr.total_env_steps += ticks * ns
        return RolloutBatch(
            states=states, next_states=next_states.reshape(-1, k),
            utterances=utts, action_idx=acts.ravel(),
            rewards=rewards.ravel(), dones=dones.ravel(),
            parse_ok=oks.ravel(), old_logprob=forced[2], entropy=forced[3],
            num_streams=ns,
            snapshot_id=tuple(tr.snapshot_id for tr in trs)), forced

    def compute_weights(self, batch: RolloutBatch) -> None:
        """Fill batch.weights/hb according to the arm (B for every (y, a)).

        Only a coso run queries its classifier.  An rl or rl_h run's B is
        ones, so its hb is the plain entropy sum: rl_h's bonus is uniform,
        and nothing reads rl's B (its alpha is 0, and its report's weighted
        entropy is None).  The classifier draws no randomness, so skipping
        it moves no run.
        """
        if self.arm == "coso":
            used = cf.normalize_weights_batch(
                cf.causal_weights_batch(self.scm, batch.utterances,
                                        batch.action_idx))
        else:
            used = np.ones(batch.utterances.shape)
        batch.weights = used
        batch.hb = np.sum(used * batch.entropy, axis=1)

    def train_iteration(self, *others: "Trainer") -> list:
        """One pass of this run and the others in lockstep: rollout,
        counterfactual weights, the coso runs' SCM update, then the policy
        update.  Returns their UpdateReports in order, a list of one
        without others; a baseline's scm_loss is None."""
        batch, forced = self.collect_rollouts(*others)
        trs, views = [self, *others], [batch.run(r) for r in range(batch.runs)]
        for tr, view in zip(trs, views):
            tr.compute_weights(view)
        for name in ("weights", "hb"):  # the group batch gets the runs' B
            parts = [getattr(view, name) for view in views]
            setattr(batch, name, np.concatenate(parts))
        scm_losses = self.update_scm(batch, *others)
        if not np.all(np.isfinite([x for x in scm_losses if x is not None])):
            raise RuntimeError("SCM update diverged; policy update aborted")
        reports = [UpdateReport(
            mean_return=float(np.mean(view.rewards)),
            mean_weighted_entropy=(None if tr.arm == "rl"
                                   else float(np.mean(view.hb))),
            mean_entropy=float(np.mean(np.sum(view.entropy, axis=1))),
            policy_loss=policy_loss, scm_loss=scm_loss,
            invalid_rate=float(np.mean(~view.parse_ok)),
            grad_norm=gnorm, env_steps=tr.total_env_steps)
            for tr, view, scm_loss, (policy_loss, gnorm)
            in zip(trs, views, scm_losses,
                   self.update_policy(batch, *others, forced=forced))]
        return reports

    def update_scm(self, batch: RolloutBatch, *others: "Trainer") -> list:
        """Each coso run's classifier trained on its own rows; per run its
        loss, None for an rl or rl_h run.

        Only coso reads its classifier, so the baselines train none and
        keep their initial one.  A baseline still makes the update's row
        draw (scm.draw_rows), so every arm's generator moves alike and the
        baselines' trajectories are those of runs that train one.
        """
        trs, hyper = [self, *others], self.hyper
        coso = [tr.arm == "coso" for tr in trs]
        for tr, trains in zip(trs, coso):
            if not trains:
                scm_mod.draw_rows(tr.rng, batch.per_run, hyper.scm_steps,
                                  hyper.scm_batch_size)
        losses = [None] * len(trs)
        if not any(coso):
            return losses
        keep = np.flatnonzero(coso)
        rows = batch.rows(keep)
        phis, trained = scm_mod.train_scm(
            [trs[r].scm for r in keep], batch.utterances[rows],
            batch.action_idx[rows], lr=hyper.scm_lr,
            steps=hyper.scm_steps, batch_size=hyper.scm_batch_size,
            rngs=[trs[r].rng for r in keep])
        for r, phi, loss in zip(keep, phis, trained):
            trs[r].scm, losses[r] = phi, loss
        return losses

    def update_policy(self, batch: RolloutBatch, *others: "Trainer",
                      forced=None) -> list:
        """Value fit, advantages standardised per run, then the PPO epochs
        or the AWR step; per run (loss, grad norm).

        forced is teacher_forced_batch of the batch at the runs' current
        params, which train_iteration has from the rollout; the first PPO
        epoch or the AWR step then takes it instead of teacher-forcing.
        Without it the update teacher-forces afresh.
        """
        trs = [self, *others]
        hyper, spec = self.hyper, self.policy.spec
        if hyper.entropy_placement == "reward_bonus":
            batch = replace(batch, rewards=_augment_rewards(
                batch, [tr.hyper.alpha for tr in trs], hyper.gamma))
        feats = value_features(spec, batch)
        betas = fit_value(feats, batch, hyper.gamma, hyper.value_ridge,
                          np.stack([tr.value_beta for tr in trs]))
        for r, tr in enumerate(trs):
            tr.value_beta = betas[r]
        adv = gae_advantages(feats, batch, hyper.gamma, hyper.gae_lambda,
                             betas)
        del feats  # the policy step reads none: free them before its own
        a = batch.by_run(adv)
        adv = ((a - np.mean(a, axis=1, keepdims=True))
               / (np.std(a, axis=1, keepdims=True) + 1e-8)).ravel()
        params = PolicyParams(spec=spec, weights=np.stack(
            [tr.policy.weights for tr in trs]))
        hypers = [tr.hyper for tr in trs]
        opts = [tr.policy_opt for tr in trs]
        rngs = [tr.rng for tr in trs]
        if self.optimizer == "ppo":
            for _ in range(hyper.ppo_epochs):
                params, losses, gnorms = ppo_update(
                    params, batch, hypers, adv, opts, rngs,
                    [tr.snapshot_id for tr in trs], forced=forced)
                forced = None  # later epochs start from moved params
        else:
            params, losses, gnorms = awr_update(
                params, batch, hypers, adv, opts, rngs, forced=forced)
        for r, tr in enumerate(trs):
            tr.policy = PolicyParams(spec=spec, weights=params.weights[r])
            tr.snapshot_id += 1
        return list(zip(losses, gnorms))


def lockstep_key(env_id: str, optimizer: str, hyper: Hyperparams) -> tuple:
    """Runs of equal keys may train as one lockstep group, differing in arm,
    seed and alpha: the env, the optimizer and every Hyperparams field but
    alpha."""
    return (env_id, optimizer, *(getattr(hyper, f.name)
                                 for f in dataclasses.fields(hyper)
                                 if f.name != "alpha"))


class _SharedStarts:
    """The seeded episode starts of the runs of one lockstep group that
    share a seed.  A start is a pure function of (env, seed, episode
    number), so the first run to reach an episode number computes it as it
    would alone and keeps it for the runs that have not reached that number
    yet; the last of them to read it drops it.  A cache only: a start that
    is not kept is computed afresh.  It holds no reference to its runs,
    which would keep a finished group's runs alive until a garbage
    collection."""

    def __init__(self, runs: list):
        self.size = len(runs)
        # the episode number each run reads first; it reads every later one
        self._firsts = [tr._episode_counter for tr in runs]
        self._kept: dict = {}  # episode number -> [start, reads left]

    def read(self, tr: Trainer, counter: int) -> EnvState:
        kept = self._kept.get(counter)
        if kept is None:  # the first read of counter
            start = tr._seeded_start(counter)
            left = sum(first <= counter for first in self._firsts) - 1
            if left:
                self._kept[counter] = [start, left]
            return start
        kept[1] -= 1
        if not kept[1]:
            del self._kept[counter]
        return kept[0]


def _check_group(runs: list) -> None:
    """Raise ValueError, before any run's state moves, unless the runs may
    train as one lockstep group: no run twice, one lockstep_key and one
    step count.  Then point each seed's runs at one _SharedStarts, keeping
    the one they already share if it is theirs alone (as every iteration of
    the same group does); a seed's only run, and an env whose reset reads
    no seed, get none."""
    if len({id(tr) for tr in runs}) != len(runs):
        raise ValueError("a run appears twice in a lockstep group")
    keys = [(lockstep_key(tr.env.env_id, tr.optimizer, tr.hyper),
             tr.total_env_steps) for tr in runs]
    for tr, key in zip(runs, keys):
        if key != keys[0]:
            raise ValueError(
                f"run seed={tr.seed} arm={tr.arm} differs from the "
                f"group's first run in more than arm, seed and alpha")
    if not runs[0].env.reset_reads_seed:
        return
    by_seed: dict = {}
    for tr in runs:
        by_seed.setdefault(tr.seed, []).append(tr)
    for seed_runs in by_seed.values():
        store = seed_runs[0]._starts
        if store is not None and store.size == len(seed_runs) and all(
                tr._starts is store for tr in seed_runs):
            continue
        store = _SharedStarts(seed_runs) if len(seed_runs) > 1 else None
        for tr in seed_runs:
            tr._starts = store
