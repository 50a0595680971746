"""Small three-arm ablation on the number line.

Arms: rl (no entropy bonus), rl_h (plain entropy bonus, all weights one),
coso (entropy weighted by counterfactual token attribution). All arms share
seeds and consume identical randomness; the only difference is the weight
vector fed to the entropy term. Only coso trains its surrogate classifier;
rl and rl_h make its row draws without training one. Budget is kept small
so the demo finishes in a few seconds; the configs/ directory holds the
full-budget settings.
"""
import dataclasses

from coso.coso_rl import Hyperparams
from coso.harness import ARMS, RunConfig, ablation_matrix

base = RunConfig(
    env_id="numberline",
    optimizer="ppo",
    hyper=Hyperparams(alpha=0.1, policy_lr=0.15),
    seeds=(0, 1, 2),
    total_env_steps=40_000,
)

configs = [dataclasses.replace(base, arm=arm) for arm in ARMS]
result = ablation_matrix(configs, write_artifacts=False)

print(f"{'arm':6s} {'median steps to 90%':>20s} {'median final success':>22s}")
for row in result.rows:
    print(f"{row['arm']:6s} {row['median_steps_to_threshold']:>20.0f} "
          f"{row['median_final_success']:>22.2f}")

print("\nlearning curves (median greedy success per arm):")
print(result.series_csv)
