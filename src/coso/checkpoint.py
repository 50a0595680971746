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


def policy_from_dict(d: dict) -> PolicyParams:
    fs = d["feature_spec"]
    spec = FeatureSpec(state_cards=tuple(fs["state_cards"]),
                       vocab_size=fs["vocab_size"], n=fs["n"],
                       context=fs["context"])
    return PolicyParams(spec=spec, weights=_unpack(d["weights"]))


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
    return ScmParams(n=d["n"], vocab_size=d["vocab_size"],
                     num_actions=d["num_actions"],
                     weights=_unpack(d["weights"]), bias=_unpack(d["bias"]))


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
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{doc.get('format_version')!r}")
    return (policy_from_dict(doc["policy"]), scm_from_dict(doc["scm"]),
            doc["env_id"], doc.get("meta", {}))
