"""Desk-scale lab for counterfactual causal-weighted entropy RL.

Token-sequence policies emit fixed-length utterances, a deterministic parser
turns them into environment actions, and a surrogate classifier answers
"what changes if this token were nullified?" to weight the entropy bonus per
token.  A tabular verifier checks the convergence and improvement theory
exactly.
"""

from .coso_rl import Hyperparams, Trainer
from .counterfactual import (causal_weights_batch, normalize_weights_batch,
                             weight_stats)
from .policy import (FeatureSpec, PolicyParams, sample_utterance,
                     sample_utterances_batch)
from .scm import ScmParams
from .textmdp import Action, EnvState, ParseError, make_env

__all__ = [
    "Action",
    "EnvState",
    "FeatureSpec",
    "Hyperparams",
    "ParseError",
    "PolicyParams",
    "ScmParams",
    "Trainer",
    "causal_weights_batch",
    "make_env",
    "normalize_weights_batch",
    "sample_utterance",
    "sample_utterances_batch",
    "weight_stats",
]

__version__ = "0.1.0"
