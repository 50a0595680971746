"""Experiment orchestration: configs, runs, ablations, reports, theory checks.

Every run is fully described by a RunConfig and replays byte-identically from
its seed.  Artifacts per run directory: a copy of the config, JSONL step
metrics, a final policy+SCM checkpoint, and a summary CSV across seeds.  No
artifact embeds wall-clock time, so reruns are diffable.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_mod
from . import coso_rl
from . import counterfactual as cf
from . import policy as pol
from . import tabular
from .coso_rl import ARMS, OPTIMIZERS, Hyperparams, Trainer, check_field_types
from .textmdp import (TextEnv, check_scalar, env_ids, make_env,
                      state_arrays)

EVAL_SEED_BASE = 990_000  # fixed eval episode seeds, shared by every run


@dataclass
class RunConfig:
    env_id: str = "numberline"
    arm: str = "coso"
    optimizer: str = "ppo"
    hyper: Hyperparams = field(default_factory=Hyperparams)
    seeds: tuple[int, ...] = (0, 1, 2)
    total_env_steps: int = 50_000
    eval_every_iters: int = 5
    eval_episodes: int = 32
    success_threshold: float = 0.9
    out_dir: str = "runs"

    def __post_init__(self):
        check_field_types(self)
        try:
            self.seeds = tuple(self.seeds)
        except TypeError as exc:  # "seeds": 5
            raise ValueError(f"bad config value: seeds: {exc}") from None
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool)
                   for s in self.seeds):
            raise ValueError(f"bad config value: seeds={self.seeds!r}: not a "
                             f"list of ints")
        if any(s < 0 for s in self.seeds):  # SeedSequence takes none
            raise ValueError(f"bad config value: seeds={self.seeds!r}: "
                             f"negative seed")
        if self.env_id not in env_ids():
            raise ValueError(f"unknown env_id {self.env_id!r}; known: "
                             f"{list(env_ids())}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        # zero steps would train nothing and report a success of 0.0, and
        # eval_every_iters = 0 would divide by zero after the first iteration
        for name in ("total_env_steps", "eval_every_iters", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.arm not in ARMS:
            raise ValueError(f"unknown arm {self.arm!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # above 1 no run can reach it; below 0 every run does at once
        if not 0 <= self.success_threshold <= 1:
            raise ValueError("success_threshold must be in [0, 1]")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Raises ValueError on a bad or wrong-typed value, or on a key that
        names no field."""
        d = dict(_known_fields(cls, d, "config"))
        if "hyper" in d:
            d["hyper"] = Hyperparams(**_known_fields(Hyperparams, d["hyper"],
                                                     "hyper"))
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def run_name(self, seed: int) -> str:
        return f"{self.env_id}_{self.arm}_{self.optimizer}_seed{seed}"


def _known_fields(cls, d, what: str) -> dict:
    """d itself, once every key is a field of the dataclass cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {d!r}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    return d


def resolve_out_dir(config: RunConfig) -> Path:
    return Path(os.environ.get("COSO_OUTPUT_DIR", config.out_dir))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass
class SeedResult:
    seed: int
    env_steps: list
    success: list
    steps_to_threshold: float  # inf when never reached
    final_success: float
    run_dir: str = ""


@dataclass
class RunSummary:
    config: RunConfig
    per_seed: list

    def median_steps_to_threshold(self) -> float:
        return float(np.median([r.steps_to_threshold for r in self.per_seed]))

    def median_final_success(self) -> float:
        return float(np.median([r.final_success for r in self.per_seed]))


_EVAL_STARTS: dict = {}  # (env_id, episodes) -> read-only (feats, steps)


def _eval_starts(env: TextEnv, episodes: int) -> tuple:
    """Start states of the eval episodes, env.reset(EVAL_SEED_BASE + e) for
    e < episodes, as read-only arrays built once per (env id, episodes)."""
    key = (env.env_id, episodes)
    if key not in _EVAL_STARTS:
        starts = state_arrays([env.reset(EVAL_SEED_BASE + e)
                               for e in range(episodes)])
        for a in starts:
            a.flags.writeable = False
        _EVAL_STARTS[key] = starts
    return _EVAL_STARTS[key]


def evaluate_greedy(env: TextEnv, policy_params,
                    episodes: int) -> list[float]:
    """Greedy-decoding success rate over a fixed eval seed set.

    A state's greedy utterance does not change during the call, so every
    state is decoded and parsed once into a greedy action table.  The
    episodes then run in lockstep through the env's tables, each step one
    lookup per unfinished episode.  Their start states are built once per
    (env id, episodes) and shared read-only by every later call.

    Stacked (R, dim, V) weights are R runs evaluated in one pass: one
    decode of the R * S states, and the R * episodes episodes in one
    lockstep loop, run r's reading its own table.  Returns the list of the
    R rates, each equal to its run's own call; (dim, V) weights are one
    run, a list of one rate.  episodes must be an int >= 1.
    """
    _check_int_arg(episodes, "episodes", 1)
    cards = policy_params.spec.state_cards
    tables = pol.decode_tables(policy_params)
    grid = pol.state_grid(cards)
    runs = tables.runs
    greedy_action, _ = env.parse_batch(
        pol.greedy_utterance(tables, np.tile(grid, (runs, 1))))
    feats, steps = _eval_starts(env, episodes)
    # run r's episodes are rows r * episodes onward; offset is each row's
    # block of greedy_action
    feats, steps = np.tile(feats, (runs, 1)), np.tile(steps, runs)
    run = np.repeat(np.arange(runs), episodes)
    offset = run * len(grid)
    wins = np.zeros(runs, dtype=np.intp)
    while len(feats):
        actions = greedy_action[offset + pol.state_ids(cards, feats)]
        feats, steps, rewards, dones = env.step_batch(feats, steps, actions)
        wins += np.bincount(run[dones][rewards[dones] >= env.r_max],
                            minlength=runs)
        live = ~dones
        feats, steps, run, offset = (feats[live], steps[live], run[live],
                                     offset[live])
    return [int(w) / episodes for w in wins]


def lockstep_key(config: RunConfig) -> tuple:
    """Runs whose configs share this key train as one lockstep group:
    coso_rl.lockstep_key plus the loop's step budget, eval cadence and
    eval episodes."""
    return (coso_rl.lockstep_key(config.env_id, config.optimizer,
                                 config.hyper),
            config.total_env_steps, config.eval_every_iters,
            config.eval_episodes)


def train_runs(jobs, write_artifacts: bool = True) -> list:
    """Train the (config, seed) jobs; returns their SeedResults in order.

    Jobs with one lockstep_key train together as one lockstep group, the
    others alone.  Every artifact of a run is byte-identical to its
    run_single_seed.
    """
    groups: dict = {}
    for i, (config, _) in enumerate(jobs):
        groups.setdefault(lockstep_key(config), []).append(i)
    results = [None] * len(jobs)
    for members in groups.values():
        done = _train_group([jobs[i] for i in members], write_artifacts)
        for i, result in zip(members, done):
            results[i] = result
    return results


def _train_group(jobs, write_artifacts: bool) -> list:
    """Train runs of one lockstep_key in lockstep, evaluate them at the
    shared cadence in one evaluate_greedy call and write each run's
    artifacts."""
    first = jobs[0][0]
    env = make_env(first.env_id)
    trainers = [Trainer(env, config.hyper, seed, arm=config.arm,
                        optimizer=config.optimizer) for config, seed in jobs]
    lead, *others = trainers
    rows = [[] for _ in jobs]
    it = 0
    while lead.total_env_steps < first.total_env_steps:
        reports = lead.train_iteration(*others)
        it += 1
        if it % first.eval_every_iters and \
                lead.total_env_steps < first.total_env_steps:
            continue
        rates = evaluate_greedy(env, pol.PolicyParams(
            spec=lead.policy.spec, weights=np.stack(
                [tr.policy.weights for tr in trainers])), first.eval_episodes)
        for report, rate, run_rows in zip(reports, rates, rows):
            run_rows.append({"schema_version": 1, "iteration": it,
                             "eval_success": rate,
                             **dataclasses.asdict(report)})
    return [_finish_run(config, seed, tr, run_rows, write_artifacts)
            for (config, seed), tr, run_rows in zip(jobs, trainers, rows)]


def _finish_run(config: RunConfig, seed: int, trainer: Trainer, rows: list,
                write_artifacts: bool) -> SeedResult:
    env_steps = [r["env_steps"] for r in rows]
    success = [r["eval_success"] for r in rows]
    reached = [s for s, ok in zip(env_steps, np.array(success) >=
                                  config.success_threshold) if ok]
    stt = float(reached[0]) if reached else float("inf")
    run_dir = ""
    if write_artifacts:
        out = resolve_out_dir(config) / config.run_name(seed)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "config.json",
                      json.dumps(config.to_dict(), sort_keys=True, indent=1))
        _atomic_write(out / "metrics.jsonl",
                      "".join(json.dumps(r, sort_keys=True) + "\n"
                              for r in rows))
        ckpt_mod.save_bundle(out / "checkpoint.json", trainer.policy,
                             trainer.scm, config.env_id,
                             meta={"seed": seed, "arm": config.arm,
                                   "env_steps": trainer.total_env_steps})
        run_dir = str(out)
    return SeedResult(seed=seed, env_steps=env_steps, success=success,
                      steps_to_threshold=stt,
                      final_success=success[-1] if success else 0.0,
                      run_dir=run_dir)


def run_single_seed(config: RunConfig, seed: int,
                    write_artifacts: bool = True) -> SeedResult:
    return train_runs([(config, seed)], write_artifacts)[0]


def _summarize(config: RunConfig, per_seed: list,
               write_artifacts: bool) -> RunSummary:
    summary = RunSummary(config=config, per_seed=per_seed)
    if write_artifacts:
        out = resolve_out_dir(config)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{config.env_id}_{config.arm}_{config.optimizer}_summary.csv"
        _atomic_write(out / name, summary_csv(summary))
    return summary


def run_experiment(config: RunConfig,
                   write_artifacts: bool = True) -> RunSummary:
    """Train every seed of one config, in lockstep; emit per-run artifacts
    + summary CSV."""
    return _summarize(config, train_runs([(config, s) for s in config.seeds],
                                         write_artifacts), write_artifacts)


def summary_csv(summary: RunSummary) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["seed", "steps_to_threshold", "final_success"])
    for r in summary.per_seed:
        w.writerow([r.seed, r.steps_to_threshold, r.final_success])
    w.writerow(["median", summary.median_steps_to_threshold(),
                summary.median_final_success()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Ablation matrix


@dataclass
class AblationResult:
    rows: list  # one dict per arm
    series_csv: str  # plot-ready: env_steps, one success column per arm


def ablation_matrix(configs: list,
                    write_artifacts: bool = True) -> AblationResult:
    """Run >= 2 arms of one env, optimizer, step budget and eval cadence
    and tabulate medians with seed spread.  The runs of all arms train in
    lockstep groups (see train_runs)."""
    if len(configs) < 2:
        raise ValueError("ablation needs at least two arms")
    for c in configs:
        if len(c.seeds) < 3:
            raise ValueError("ablation needs >= 3 seeds per arm")
    # the series CSV names a column by arm alone and reads every column on
    # the first config's env-step axis
    for name in ("env_id", "optimizer", "total_env_steps",
                 "eval_every_iters"):
        values = {getattr(c, name) for c in configs}
        if len(values) > 1:
            raise ValueError(f"ablation configs must share {name}, not "
                             f"{sorted(values)}")
    # two configs of one arm would share run dirs, a summary CSV and a
    # series column
    arms = [c.arm for c in configs]
    if len(set(arms)) < len(arms):
        raise ValueError("ablation configs must differ in arm")
    results = iter(train_runs([(c, s) for c in configs for s in c.seeds],
                              write_artifacts))
    summaries = [_summarize(c, [next(results) for _ in c.seeds],
                            write_artifacts) for c in configs]
    rows = []
    for s in summaries:
        stt = [r.steps_to_threshold for r in s.per_seed]
        fin = [r.final_success for r in s.per_seed]
        rows.append({
            "arm": s.config.arm,
            "optimizer": s.config.optimizer,
            "env_id": s.config.env_id,
            "median_steps_to_threshold": float(np.median(stt)),
            "steps_to_threshold_spread": [float(min(stt)), float(max(stt))],
            "median_final_success": float(np.median(fin)),
            "final_success_spread": [float(min(fin)), float(max(fin))],
            "seeds": list(s.config.seeds),
        })

    # plot-ready CSV: x = env steps, y = median success, one series per arm
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["env_steps"] + [f"success_{s.config.arm}" for s in summaries])
    steps_axis = summaries[0].per_seed[0].env_steps
    for i, x in enumerate(steps_axis):
        row = [x]
        for s in summaries:
            vals = [r.success[i] for r in s.per_seed if i < len(r.success)]
            row.append(float(np.median(vals)))
        w.writerow(row)
    result = AblationResult(rows=rows, series_csv=buf.getvalue())
    if write_artifacts:
        out = resolve_out_dir(configs[0])
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "ablation_table.json",
                      json.dumps(rows, sort_keys=True, indent=1))
        _atomic_write(out / "ablation_series.csv", result.series_csv)
    return result


# ---------------------------------------------------------------------------
# Counterfactual report and sampling probe


def _check_int_arg(value, what: str, least: int) -> None:
    """The config-value rule for an int argument: an int, not a bool, and
    >= least, or ValueError naming what."""
    check_scalar(value, "int", what)
    if value < least:
        raise ValueError(f"{what} must be >= {least}")


def cf_report(ckpt_path, env_id: str, num_episodes: int,
              sample_seed: int = 1234) -> dict:
    """Per-step token/weight records plus an aggregate weight histogram.

    Episode e's step t samples on row (e, t) of one (num_episodes, horizon,
    n) draw of uniforms, so an episode's records do not depend on the
    others.  The episodes run in lockstep from the eval start states: each
    step is one decode, one parse and one step_batch over the unfinished
    episodes.  Records are episode-major, their causal weights one batch.
    """
    _check_int_arg(num_episodes, "num_episodes", 1)
    _check_int_arg(sample_seed, "sample_seed", 0)
    policy_params, scm_params, ckpt_env, _ = ckpt_mod.load_bundle(ckpt_path)
    if ckpt_env != env_id:
        raise ValueError(f"checkpoint is for env {ckpt_env!r}, not {env_id!r}")
    env = make_env(env_id)
    n, horizon = policy_params.spec.n, env.horizon
    uniforms = np.random.default_rng(sample_seed).random(
        (num_episodes, horizon, n))
    tables = pol.decode_tables(policy_params)
    tokens = np.empty((num_episodes, horizon, n), dtype=np.intp)
    actions = np.empty((num_episodes, horizon), dtype=np.intp)
    oks = np.empty((num_episodes, horizon), dtype=bool)
    taken = np.zeros((num_episodes, horizon), dtype=bool)
    feats, steps = _eval_starts(env, num_episodes)
    live = np.arange(num_episodes)  # the unfinished episodes
    t = 0
    while len(live):  # every episode is done by step horizon - 1
        toks = pol.sample_utterances_batch(tables, feats, uniforms[live, t])
        acts, ok = env.parse_batch(toks)
        tokens[live, t], actions[live, t], oks[live, t] = toks, acts, ok
        taken[live, t] = True
        feats, steps, _, dones = env.step_batch(feats, steps, acts)
        feats, steps, live = feats[~dones], steps[~dones], live[~dones]
        t += 1
    # boolean indexing reads (episode, step) in C order: episode-major
    episode, step = np.nonzero(taken)
    ys, acts = tokens[taken], actions[taken]
    raw = cf.causal_weights_batch(scm_params, ys, acts)
    norm = cf.normalize_weights_batch(raw)
    names = [str(a) for a in env.action_classes()]
    token_names = list(env.vocab.names)
    records = [{
        "episode": ep,
        "step": t,
        "tokens": y,
        "token_names": [token_names[x] for x in y],
        "slot_roles": list(env.grammar.roles),
        "raw_weights": raw_row,
        "normalized_weights": norm_row,
        "action": names[a],
        "parse_ok": ok,
    } for ep, t, y, a, ok, raw_row, norm_row in zip(
        episode.tolist(), step.tolist(), ys.tolist(), acts.tolist(),
        oks[taken].tolist(), raw.tolist(), norm.tolist())]
    hist = cf.weight_stats(norm)
    return {
        "env_id": env_id,
        "num_episodes": num_episodes,
        "records": records,
        "histogram": {
            "edges": list(hist.edges),
            "counts": [int(c) for c in hist.counts],
            "fractions": [float(f) for f in hist.fractions],
        },
    }


def repeated_sampling_probe(ckpt_path, state_spec: str, k: int,
                            sample_seed: int = 1234) -> dict:
    """Sample k utterances at one state; tabulate actions + format errors."""
    _check_int_arg(k, "k", 1)
    _check_int_arg(sample_seed, "sample_seed", 0)
    policy_params, _, env_id, _ = ckpt_mod.load_bundle(ckpt_path)
    env = make_env(env_id)
    state = env.state_from_spec(state_spec)
    rng = np.random.default_rng(sample_seed)
    # k rows of n uniforms: the stream of k successive single samples
    feats = np.tile(np.asarray(state.features, dtype=np.intp), (k, 1))
    toks = pol.sample_utterances_batch(
        policy_params, feats, rng.random((k, policy_params.spec.n)))
    actions, ok = env.parse_batch(toks)
    names = [str(a) for a in env.action_classes()]
    counts = Counter(names[a] for a in actions.tolist())
    return {
        "env_id": env_id,
        "state": state_spec,
        "k": k,
        "actions": dict(sorted(counts.items())),
        "distinct_actions": len(counts),
        "invalid_count": k - int(np.count_nonzero(ok)),
    }


# ---------------------------------------------------------------------------
# Theory checks


@dataclass
class TheoryCheckSpec:
    instances: int = 50
    q_pairs: int = 100
    seed: int = 0
    contraction_tol: float = 1e-9
    fixed_point_tol: float = 1e-8
    improvement_tol: float = 1e-8
    monotonicity_tol: float = 1e-7
    decomposition_tol: float = 1e-10

    def __post_init__(self):
        check_field_types(self)
        # zero instances or Q pairs would pass a suite vacuously, and a
        # non-positive tolerance would fail every instance
        for name in ("instances", "q_pairs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:  # SeedSequence takes none
            raise ValueError("seed must be >= 0")
        for name in ("contraction_tol", "fixed_point_tol", "improvement_tol",
                     "monotonicity_tol", "decomposition_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: float  # largest residual of any instance; it may be negative
    failing_seeds: list


def _instance_rng(spec: TheoryCheckSpec, suite: str, idx: int):
    suite_key = int.from_bytes(suite.encode()[:4].ljust(4, b"\0"), "big")
    ss = np.random.SeedSequence([spec.seed, suite_key, idx])
    return np.random.default_rng(ss), int(ss.generate_state(1)[0])


def _suite(spec: TheoryCheckSpec, key: str, name: str, tol: float,
           residual) -> SuiteResult:
    """Run residual(rng, i) -> (value, side_ok) on each seeded instance i.

    An instance fails when its value is not <= tol, when its side check
    fails (side_ok false) or when it raises RuntimeError, a tabular
    computation that did not converge; such an instance adds no value to
    worst, the largest value of the others.
    """
    worst = -np.inf
    failing = []
    for i in range(spec.instances):
        rng, inst_seed = _instance_rng(spec, key, i)
        try:
            value, side_ok = residual(rng, i)
        except RuntimeError:
            failing.append(inst_seed)
            continue
        worst = max(worst, value)
        if not (value <= tol and side_ok):
            failing.append(inst_seed)
    return SuiteResult(name, not failing, worst, failing)


def _random_instance(rng) -> tuple:
    """(mdp, policy, B, alpha) of the contraction and improvement suites."""
    mdp = tabular.random_mdp(rng)
    policy = tabular.TabularPolicy.random(mdp.num_states, mdp.vocab_eff,
                                          mdp.n, rng)
    B = rng.uniform(0.0, 1.0, size=mdp.n)
    return mdp, policy, B, float(rng.uniform(0.0, 2.0))


def check_decomposition(spec: TheoryCheckSpec) -> SuiteResult:
    def residual(rng, i):
        ve = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        policy = tabular.TabularPolicy.random(1, ve, n, rng)
        return tabular.entropy_decomposition_check(policy, 0)[2], True
    return _suite(spec, "decomposition", "entropy_decomposition",
                  spec.decomposition_tol, residual)


def check_contraction(spec: TheoryCheckSpec) -> SuiteResult:
    def residual(rng, i):
        mdp, policy, B, alpha = _random_instance(rng)
        terms = tabular.policy_terms(mdp, policy, B)
        # C order: pair k's two tables are drawn in turn, q[k, 0] then q[k, 1]
        q = rng.uniform(-5, 5, size=(spec.q_pairs, 2, mdp.num_states,
                                     mdp.num_actions))
        t = tabular.bellman_backup(mdp, q, terms, alpha)
        lip = (np.max(np.abs(t[:, 0] - t[:, 1]), axis=(1, 2))
               / np.max(np.abs(q[:, 0] - q[:, 1]), axis=(1, 2)))
        excess = float(np.max(lip - mdp.gamma))
        # the iterated backup's fixed point must match the direct linear solve
        q_iter, _ = tabular.policy_evaluation(mdp, policy, B, alpha, tol=1e-12)
        q_direct = tabular.policy_evaluation_direct(mdp, policy, B, alpha)
        gap = float(np.max(np.abs(q_iter - q_direct)))
        return excess, gap <= spec.fixed_point_tol
    return _suite(spec, "contraction", "contraction", spec.contraction_tol,
                  residual)


def check_improvement(spec: TheoryCheckSpec) -> SuiteResult:
    def residual(rng, i):
        mdp, policy, B, alpha = _random_instance(rng)
        q_pi = tabular.policy_evaluation_direct(mdp, policy, B, alpha)
        improved = tabular.soft_improve(mdp, q_pi, B, alpha)
        q_new = tabular.policy_evaluation_direct(mdp, improved, B, alpha)
        return float(np.max(q_pi - q_new)), True
    return _suite(spec, "improvement", "improvement", spec.improvement_tol,
                  residual)


def check_iteration(spec: TheoryCheckSpec) -> SuiteResult:
    """Residual: the largest drop of any Q entry over one policy-iteration
    step, judged against spec.monotonicity_tol here alone; alpha = 0
    instances must also reach the brute-force optimum."""
    def residual(rng, i):
        alpha0 = i % 2 == 0  # alternate alpha = 0 (classical) instances
        mdp = tabular.random_mdp(rng, num_states=3, num_actions=2,
                                 vocab_eff=2, n=2)
        B = rng.uniform(0.0, 1.0, size=mdp.n)
        alpha = 0.0 if alpha0 else float(rng.uniform(0.1, 1.0))
        _, q_star, mono = tabular.policy_iteration(mdp, B, alpha, tol=1e-9,
                                                   max_iters=1000)
        optimal = not alpha0 or float(np.max(np.abs(
            q_star - tabular.brute_force_optimal_q(mdp)))) <= 1e-6
        return -min(mono), optimal
    return _suite(spec, "iteration", "iteration", spec.monotonicity_tol,
                  residual)


def theory_check(spec: TheoryCheckSpec | None = None) -> list:
    """Run all four verifier suites; returns a list of SuiteResults."""
    spec = spec or TheoryCheckSpec()
    return [check_decomposition(spec), check_contraction(spec),
            check_improvement(spec), check_iteration(spec)]


def theory_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:24s} worst residual {r.worst:.3e}"
        if r.failing_seeds:
            line += f"  failing seeds: {r.failing_seeds}"
        lines.append(line)
    return "\n".join(lines)
