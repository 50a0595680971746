"""Per-layer metrics derived from the spans of a traced run.

Round-normalized metrics count only spans below a ``bench.round`` span, so
set-up work (the inspect workload trains its checkpoints there) does not
leak into them.  A metric whose layer does no work on a workload reads 0.
"""
from __future__ import annotations

from spans import LAYERS, ROOT_LAYER, Spans

ROUND = "bench.round"
ENV_STEPS = ("textmdp.NumberLineEnv.step", "textmdp.MenuNavEnv.step")
PARSE_STEP = ("textmdp.TextEnv.parse_or_noop", "textmdp.TextEnv.action_index")
CHECKS = ("decomposition", "contraction", "improvement", "iteration")

# name -> (unit, better)
PER_LAYER = {
    "coso_rl.collect_rollouts.ms_per_iter": ("ms", "lower"),
    "policy.sample_utterances_batch.ms_per_iter": ("ms", "lower"),
    "textmdp.parse_step.us_per_step": ("us", "lower"),
    "textmdp.parse_ok_ratio": ("ratio", "higher"),
    "counterfactual.causal_weights_batch.ms_per_iter": ("ms", "lower"),
    "scm.train_scm.ms_per_iter": ("ms", "lower"),
    "scm.sequences_scored_per_iter": ("count", "lower"),
    "coso_rl.update_policy.ms_per_iter": ("ms", "lower"),
    "coso_rl.advantages.ms_per_iter": ("ms", "lower"),
    "coso_rl.ppo_update.ms_per_iter": ("ms", "lower"),
    "coso_rl.awr_update.ms_per_iter": ("ms", "lower"),
    "policy.teacher_forced_batch.ms_per_iter": ("ms", "lower"),
    "harness.evaluate_greedy.ms_per_call": ("ms", "lower"),
    "policy.greedy_utterance.calls_per_eval": ("count", "lower"),
    **{f"harness.check_{c}.s": ("s", "lower") for c in CHECKS},
    "tabular.bellman_backup.calls": ("count", "lower"),
    "tabular.bellman_backup.us_per_call": ("us", "lower"),
    "tabular.soft_improve.ms_per_call": ("ms", "lower"),
    "policy.sample_utterance.us_per_call": ("us", "lower"),
    "counterfactual.causal_weights.us_per_call": ("us", "lower"),
    "checkpoint.load_bundle.ms_per_call": ("ms", "lower"),
    "checkpoint.save_bundle.ms_per_call": ("ms", "lower"),
    "harness.cf_report.us_per_record": ("us", "lower"),
    "harness.repeated_sampling_probe.us_per_sample": ("us", "lower"),
    **{f"{layer}.self_s_per_round": ("s", "lower")
       for layer in (ROOT_LAYER,) + LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Spans, rounds: int, counts: dict,
                  overhead: float) -> dict:
    """counts: utterances, parse_ok, scm_scored, records, samples summed
    over the traced rounds."""
    iters = s.calls("coso_rl.Trainer.train_iteration", under=ROUND)

    def per_iter_ms(*names):
        return _ratio(s.total_ns(*names, under=ROUND), iters) / 1e6

    def per_call(name, scale, under=ROUND):
        return _ratio(s.total_ns(name, under=under),
                      s.calls(name, under=under)) / scale

    def per_round(ns):
        return _ratio(ns, rounds)

    rollout = {"parent": "coso_rl.Trainer.collect_rollouts", "under": ROUND}
    m = {
        "coso_rl.collect_rollouts.ms_per_iter":
            per_iter_ms("coso_rl.Trainer.collect_rollouts"),
        "policy.sample_utterances_batch.ms_per_iter":
            per_iter_ms("policy.sample_utterances_batch"),
        "textmdp.parse_step.us_per_step": _ratio(
            s.total_ns(*PARSE_STEP, *ENV_STEPS, **rollout),
            s.calls(*ENV_STEPS, **rollout)) / 1e3,
        "textmdp.parse_ok_ratio": _ratio(counts["parse_ok"],
                                         counts["utterances"]),
        "counterfactual.causal_weights_batch.ms_per_iter":
            per_iter_ms("counterfactual.causal_weights_batch"),
        "scm.train_scm.ms_per_iter": per_iter_ms("scm.train_scm"),
        "scm.sequences_scored_per_iter": _ratio(counts["scm_scored"], iters),
        "coso_rl.update_policy.ms_per_iter":
            per_iter_ms("coso_rl.Trainer.update_policy"),
        "coso_rl.advantages.ms_per_iter":
            per_iter_ms("coso_rl.fit_value", "coso_rl.gae_advantages"),
        # one call per iteration of that optimizer (ppo_epochs = 1)
        "coso_rl.ppo_update.ms_per_iter": per_call("coso_rl.ppo_update", 1e6),
        "coso_rl.awr_update.ms_per_iter": per_call("coso_rl.awr_update", 1e6),
        "policy.teacher_forced_batch.ms_per_iter":
            per_iter_ms("policy.teacher_forced_batch"),
        "harness.evaluate_greedy.ms_per_call":
            per_call("harness.evaluate_greedy", 1e6),
        "policy.greedy_utterance.calls_per_eval": _ratio(
            s.calls("policy.greedy_utterance", under=ROUND),
            s.calls("harness.evaluate_greedy", under=ROUND)),
        **{f"harness.check_{c}.s":
           per_round(s.total_ns(f"harness.check_{c}", under=ROUND)) / 1e9
           for c in CHECKS},
        "tabular.bellman_backup.calls":
            per_round(s.calls("tabular.bellman_backup", under=ROUND)),
        "tabular.bellman_backup.us_per_call":
            per_call("tabular.bellman_backup", 1e3),
        "tabular.soft_improve.ms_per_call":
            per_call("tabular.soft_improve", 1e6),
        "policy.sample_utterance.us_per_call":
            per_call("policy.sample_utterance", 1e3),
        "counterfactual.causal_weights.us_per_call":
            per_call("counterfactual.causal_weights", 1e3),
        # the inspect workload saves its checkpoints during set-up
        "checkpoint.load_bundle.ms_per_call":
            per_call("checkpoint.load_bundle", 1e6, under=None),
        "checkpoint.save_bundle.ms_per_call":
            per_call("checkpoint.save_bundle", 1e6, under=None),
        "harness.cf_report.us_per_record": _ratio(
            s.total_ns("harness.cf_report", under=ROUND),
            counts["records"]) / 1e3,
        "harness.repeated_sampling_probe.us_per_sample": _ratio(
            s.total_ns("harness.repeated_sampling_probe", under=ROUND),
            counts["samples"]) / 1e3,
        **{f"{layer}.self_s_per_round": per_round(ns) / 1e9
           for layer, ns in s.self_ns_by_layer(under=ROUND).items()},
        "trace.overhead_ratio": overhead,
    }
    return m
