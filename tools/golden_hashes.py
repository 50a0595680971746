"""Print the sha256 of coso's reference artifacts, to diff two checkouts.

Trains the reference runs, writes their run directories under OUT_DIR,
renders cf_report and probe JSON from their checkpoints and prints one
sorted JSON map {artifact: sha256} followed by the sha256 of that map and
its entry count.  The map also holds the sha256 of the tabular verifier's
report at the default ``TheoryCheckSpec``, and of the table, series and
per-arm summaries of one small ``ablation_matrix`` run (numberline, 3 arms
x seeds 0-2).

    PYTHONPATH=src python3 tools/golden_hashes.py OUT_DIR > change.json
    PYTHONPATH=<other checkout>/src python3 tools/golden_hashes.py OUT_DIR2 \
        > parent.json
    diff parent.json change.json

coso is imported from PYTHONPATH, so one copy of this script hashes any
checkout.  The hashes are platform-specific (float summation and libm
results), so this is a tool for comparing two trees on one host, not a test.
Runtime is about 12-17 s on a 2-vCPU x86-64 host with numpy 2.4, most of
it the 200k-step menunav PPO run.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from coso import harness
from coso.harness import RunConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (name, config file, overrides): seed 0 of each
RUNS = (
    ("numberline_rl_ppo", "ablation_numberline.json",
     {"arm": "rl", "total_env_steps": 16384}),
    ("numberline_rl_h_ppo", "ablation_numberline.json",
     {"arm": "rl_h", "total_env_steps": 16384}),
    ("numberline_coso_ppo", "ablation_numberline.json",
     {"arm": "coso", "total_env_steps": 16384}),
    ("numberline_coso_reward_bonus", "ablation_numberline.json",
     {"total_env_steps": 8192, "hyper": {"entropy_placement": "reward_bonus"}}),
    ("numberline_coso_awr", "ablation_numberline.json",
     {"optimizer": "awr", "total_env_steps": 8192}),
    ("menunav_coso_ppo", "ablation_menunav.json",
     {"total_env_steps": 200_000}),
    ("menunav_coso_awr", "ablation_menunav.json",
     {"optimizer": "awr", "total_env_steps": 25_600}),
    # more than one minibatch, so these teacher-force at moved parameters
    ("numberline_coso_ppo_epochs2_mb64", "ablation_numberline.json",
     {"total_env_steps": 8192,
      "hyper": {"ppo_epochs": 2, "minibatch_size": 64}}),
    ("menunav_coso_awr_mb64", "ablation_menunav.json",
     {"optimizer": "awr", "total_env_steps": 8192,
      "hyper": {"minibatch_size": 64}}),
)

# checkpoints the report tools read, with two probe states each
INSPECT = {
    "numberline_coso_ppo": ("c=3,tau=7", "c=0,tau=9"),
    "numberline_rl_ppo": ("c=3,tau=7", "c=0,tau=9"),
    "menunav_coso_ppo": ("trap", "screen=1,typed=1"),
    "menunav_coso_awr": ("trap", "screen=1,typed=1"),
}
CF_EPISODES, CF_SEED = 20, 7
PROBE_K, PROBE_SEED = 300, 11

# the ablation run: every arm of this config over these seeds
ABLATION = ("ablation_numberline.json", {"seeds": [0, 1, 2],
                                         "total_env_steps": 2048})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(path: str, over: dict) -> RunConfig:
    d = json.loads((CONFIGS / path).read_text())
    over = dict(over)
    d["hyper"].update(over.pop("hyper", {}))
    d.update(over)
    return RunConfig.from_dict(d)


def _ablation_hashes(out: Path) -> dict:
    os.environ["COSO_OUTPUT_DIR"] = str(out)
    base = _config(*ABLATION)
    configs = [dataclasses.replace(base, arm=arm) for arm in harness.ARMS]
    harness.ablation_matrix(configs)
    names = ["ablation_table.json", "ablation_series.csv"] + [
        f"{c.env_id}_{c.arm}_{c.optimizer}_summary.csv" for c in configs]
    return {f"ablation/{f}": _sha((out / f).read_bytes()) for f in names}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    print(f"coso from {harness.__file__}", file=sys.stderr)
    hashes = {}
    checkpoints = {}
    for name, path, over in RUNS:
        cfg = _config(path, {**over, "seeds": [0]})
        # through the environment, so config.json does not name OUT_DIR
        os.environ["COSO_OUTPUT_DIR"] = str(out / name)
        res = harness.run_single_seed(cfg, 0, write_artifacts=True)
        run_dir = Path(res.run_dir)
        for f in ("config.json", "metrics.jsonl", "checkpoint.json"):
            hashes[f"{name}/{f}"] = _sha((run_dir / f).read_bytes())
        checkpoints[name] = (run_dir / "checkpoint.json", cfg.env_id)
    for name, states in INSPECT.items():
        path, env_id = checkpoints[name]
        report = harness.cf_report(path, env_id, CF_EPISODES,
                                   sample_seed=CF_SEED)
        hashes[f"{name}/cf_report.json"] = _sha(
            json.dumps(report, sort_keys=True).encode())
        for state in states:
            probe = harness.repeated_sampling_probe(path, state, PROBE_K,
                                                    sample_seed=PROBE_SEED)
            hashes[f"{name}/probe[{state}].json"] = _sha(
                json.dumps(probe, sort_keys=True).encode())
    hashes["theory_report.txt"] = _sha(
        harness.theory_report(harness.theory_check()).encode())
    hashes.update(_ablation_hashes(out / "ablation"))
    text = json.dumps(dict(sorted(hashes.items())), indent=1)
    print(text)
    print(f"map sha256 {_sha(text.encode())} entries {len(hashes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
