"""Command-line entry points.

Subcommands: train, ablate, cf-report, probe, theory-check, envs.
Environment override: COSO_OUTPUT_DIR (artifact root).

``main`` is the one error boundary: a ValueError or OSError from any
subcommand (a bad config, checkpoint, request or output path) is printed as
one stderr line, ``coso <command>: <message>``, and exits 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, textmdp
from .harness import RunConfig, TheoryCheckSpec


def _cmd_train(args) -> int:
    summary = harness.run_experiment(RunConfig.from_file(args.config))
    print(harness.summary_csv(summary), end="")
    return 0


def _cmd_ablate(args) -> int:
    base = RunConfig.from_file(args.config)
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    result = harness.ablation_matrix(configs)
    print(json.dumps(result.rows, indent=1, sort_keys=True))
    return 0


def _cmd_cf_report(args) -> int:
    report = harness.cf_report(args.ckpt, args.env, args.episodes)
    if args.out:
        with open(args.out, "w") as fh:
            for rec in report["records"]:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"wrote {len(report['records'])} records to {args.out}")
    print(json.dumps(report["histogram"], indent=1))
    return 0


def _cmd_probe(args) -> int:
    out = harness.repeated_sampling_probe(args.ckpt, args.state, args.k)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def _cmd_theory_check(args) -> int:
    results = harness.theory_check(TheoryCheckSpec(instances=args.instances,
                                                   contraction_tol=args.tol))
    print(harness.theory_report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_envs(args) -> int:
    if args.dump_grammar:
        print(textmdp.grammar_report(args.dump_grammar))
    else:
        for env_id in textmdp.env_ids():
            print(env_id)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coso")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one config across its seeds")
    t.add_argument("--config", required=True)
    t.set_defaults(func=_cmd_train)

    a = sub.add_parser("ablate", help="run the rl / rl_h / coso comparison")
    a.add_argument("--config", required=True)
    a.set_defaults(func=_cmd_ablate)

    c = sub.add_parser("cf-report", help="counterfactual weight report")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--env", required=True)
    c.add_argument("--episodes", type=int, default=10)
    c.add_argument("--out", default="")
    c.set_defaults(func=_cmd_cf_report)

    pr = sub.add_parser("probe", help="repeated sampling at one state")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--state", required=True)
    pr.add_argument("-k", type=int, default=10)
    pr.set_defaults(func=_cmd_probe)

    th = sub.add_parser("theory-check", help="run the tabular verifier")
    th.add_argument("--instances", type=int, default=50)
    th.add_argument("--tol", type=float, default=1e-9)
    th.set_defaults(func=_cmd_theory_check)

    e = sub.add_parser("envs", help="list envs / dump a grammar")
    e.add_argument("--dump-grammar", default="",
                   choices=textmdp.env_ids())
    e.set_defaults(func=_cmd_envs)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"coso {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
