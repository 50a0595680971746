"""Exact tabular verification of the weighted-entropy soft RL theory.

On enumerable MDPs every quantity is computed exactly, so the structural
claims behind the algorithm can be checked against independent oracles:

- the joint utterance entropy equals the sum of conditional entropies,
- the weighted-entropy Bellman backup is a gamma-contraction whose fixed
  point matches a closed-form linear solve,
- soft improvement never decreases Q, and policy iteration converges
  monotonically (matching brute force when the entropy term is off).

Soft improvement is exact: for a fixed Q, one backward pass over the token
tree maximizes E[Q(s, parse(y))] + alpha * sum_i B_i H(y_i | y_<i) per state,
each conditional a softmax of its children's values at temperature
alpha * B_i and each node's value the matching log-sum-exp.

Policy iteration and the improvement check evaluate policies by the linear
solve.  The iterated backup below is the thing under test: the contraction
check runs it and compares its fixed point with the solve.
"""
import numpy as np

from coso.harness import TheoryCheckSpec, theory_check, theory_report
from coso.tabular import (TabularPolicy, entropy_decomposition_check,
                          policy_evaluation, policy_evaluation_direct,
                          random_mdp)

rng = np.random.default_rng(0)

pi = TabularPolicy.random(num_states=1, vocab_eff=3, n=3, rng=rng)
joint, cond_sum, diff = entropy_decomposition_check(pi, 0)
print(f"decomposition: joint {joint:.12f} vs conditional sum {cond_sum:.12f}"
      f" (|diff| = {diff:.2e})")

mdp = random_mdp(rng)
pi = TabularPolicy.random(mdp.num_states, mdp.vocab_eff, mdp.n, rng)
B = rng.uniform(0, 1, size=mdp.n)
q_iter, trace = policy_evaluation(mdp, pi, B, alpha=0.5)
q_direct = policy_evaluation_direct(mdp, pi, B, alpha=0.5)
print(f"evaluation: {len(trace)} sweeps to fixed point, "
      f"gap to linear solve {np.max(np.abs(q_iter - q_direct)):.2e} "
      f"(gamma = {mdp.gamma:.3f})")

print("\nfull verifier (smaller instance count for the demo):")
print(theory_report(theory_check(TheoryCheckSpec(instances=10, q_pairs=20))))
