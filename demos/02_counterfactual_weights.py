"""Counterfactual token attribution with a surrogate classifier.

A softmax classifier is trained to imitate the parser. Each token's causal
weight is how much the classifier's likelihood of the realized action moves
when that single position is replaced by the reserved NULL symbol. After
convergence the weights localize on the action-deciding slot and the filler
slots drop toward zero, which is exactly the signal the weighted entropy
bonus consumes.
"""
import numpy as np

from coso.counterfactual import (causal_weights_batch, normalize_weights_batch,
                                 weight_stats)
from coso.scm import ScmParams, accuracy, train_scm
from coso.textmdp import make_env

env = make_env("numberline")
rng = np.random.default_rng(0)

# label random utterances with the parser (no-op class on format errors)
ys, labels = [], []
for _ in range(4000):
    y = tuple(int(t) for t in rng.integers(1, env.vocab.size, size=3))
    action, _ = env.parse_or_noop(y)
    ys.append(y)
    labels.append(env.action_index(action))
ys, labels = np.array(ys), np.array(labels)

phi = ScmParams.zeros(env.grammar.n, env.vocab.size, env.num_actions)
# train_scm trains a group of runs' classifiers; this is a group of one
(phi,), (loss,) = train_scm([phi], ys[:3000], labels[:3000], lr=1e-2,
                            steps=1500, batch_size=256, rngs=[rng])
print(f"classifier: final loss {loss:.4f}, "
      f"held-out accuracy {accuracy(phi, ys[3000:], labels[3000:]):.3f}")

print("\nslot roles:", env.grammar.roles)
examples = [(12, 9, 2), (5, 14, 3), (8, 8, 4)]
actions = [env.parse_or_noop(y)[0] for y in examples]
# one batch: n + 1 classifier evaluations per utterance
raw = causal_weights_batch(phi, examples,
                           [env.action_index(a) for a in actions])
norm = normalize_weights_batch(raw)
for y, action, r, w in zip(examples, actions, raw, norm):
    print(f"y={y} -> {str(action):6s} raw={np.round(r, 4)} "
          f"normalized={np.round(w, 4)}")

# aggregate histogram over many sampled utterances
hist = weight_stats(normalize_weights_batch(
    causal_weights_batch(phi, ys[:500], labels[:500])))
print("\nnormalized-weight histogram (bin edges", hist.edges, ")")
print("fractions:", np.round(hist.fractions, 3))
print(f"fraction in [0, 0.2): {hist.fractions[0]:.3f} "
      "(the filler slots collapse to the floor)")
