"""Versioned checkpoint container: flat arrays + shape headers in JSON.

Array payloads are base64-encoded little-endian float64 bytes, so files are
byte-stable across runs on one platform and round-trip exactly.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .policy import FeatureSpec, PolicyParams
from .scm import ScmParams
from .textmdp import env_ids, make_env

FORMAT_VERSION = 1


def _pack(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _unpack(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(d["shape"]).copy()


def policy_to_dict(p: PolicyParams) -> dict:
    return {
        "kind": "policy",
        "feature_spec": {
            "state_cards": list(p.spec.state_cards),
            "vocab_size": p.spec.vocab_size,
            "n": p.spec.n,
            "context": p.spec.context,
        },
        "weights": _pack(p.weights),
    }


def _shaped(d: dict, shape: tuple, what: str) -> np.ndarray:
    """The unpacked array, if it has the shape its owner's layout needs."""
    a = _unpack(d)
    if a.shape != shape:
        raise ValueError(f"{what} of shape {a.shape}, not {shape}")
    return a


def policy_from_dict(d: dict) -> PolicyParams:
    fs = d["feature_spec"]
    spec = FeatureSpec(state_cards=tuple(fs["state_cards"]),
                       vocab_size=fs["vocab_size"], n=fs["n"],
                       context=fs["context"])
    return PolicyParams(spec=spec, weights=_shaped(
        d["weights"], (spec.dim, spec.vocab_size), "policy weights"))


def scm_to_dict(p: ScmParams) -> dict:
    return {
        "kind": "scm",
        "n": p.n,
        "vocab_size": p.vocab_size,
        "num_actions": p.num_actions,
        "weights": _pack(p.weights),
        "bias": _pack(p.bias),
    }


def scm_from_dict(d: dict) -> ScmParams:
    n, v, a = d["n"], d["vocab_size"], d["num_actions"]
    return ScmParams(n=n, vocab_size=v, num_actions=a,
                     weights=_shaped(d["weights"], (n * v, a), "SCM weights"),
                     bias=_shaped(d["bias"], (a,), "SCM bias"))


def save_bundle(path, policy: PolicyParams, scm: ScmParams,
                env_id: str, meta: dict | None = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "env_id": env_id,
        "policy": policy_to_dict(policy),
        "scm": scm_to_dict(scm),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_bundle(path) -> tuple[PolicyParams, ScmParams, str, dict]:
    """(policy, SCM, env id, meta) of a saved bundle.

    Raises ValueError on a document that is not a JSON object, an
    unsupported version, a missing section or field, an unknown env id, or
    a layout header that does not fit its arrays or the env it names.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint must be a JSON object, not "
                         f"{type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{doc.get('format_version')!r}")
    try:
        policy = policy_from_dict(doc["policy"])
        scm = scm_from_dict(doc["scm"])
        env_id = doc["env_id"]
    except KeyError as exc:
        raise ValueError(f"checkpoint lacks field {exc}") from None
    except TypeError as exc:  # a section that is not a JSON object
        raise ValueError(f"malformed checkpoint: {exc}") from None
    if env_id not in env_ids():
        raise ValueError(f"checkpoint for unknown env_id {env_id!r}; known: "
                         f"{list(env_ids())}")
    env = make_env(env_id)
    layout = {"state_cards": env.state_feature_cards(),
              "vocab_size": env.vocab.size, "n": env.grammar.n,
              "num_actions": env.num_actions}
    for what, header in (("policy", policy.spec), ("SCM", scm)):
        for name, want in layout.items():
            if getattr(header, name, want) != want:  # the fields it has
                raise ValueError(f"checkpoint for env {env_id!r} has {what} "
                                 f"{name} {getattr(header, name)!r}, not "
                                 f"{want!r}")
    return policy, scm, env_id, doc.get("meta", {})
