"""Versioned JSON checkpoints for networks and optimizer state.

A checkpoint bundle holds one or more named networks: layer specs, parameter
arrays (base64 of little-endian float64), batchnorm running statistics,
optional Adam state, the RNG seed, and free-form metadata.  Loading verifies
the stored architecture hash against the specs; anything that does not match
is rejected rather than silently reinterpreted.  Bundles reference other
checkpoint files by the sha256 of their bytes.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..fileio import write_atomic
from ..rng import Rng
from .layers import BatchNorm, Network, build_layer
from .optim import AdamState

CHECKPOINT_FORMAT = "scanmend-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


class ArchitectureMismatchError(CheckpointError):
    pass


def _encode_array(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])


def _network_section(net: Network) -> dict:
    params = {name: _encode_array(t.data) for name, t in net.named_parameters()}
    bn = {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, BatchNorm):
            bn[str(i)] = {
                "mean": _encode_array(layer.running_mean),
                "var": _encode_array(layer.running_var),
            }
    return {
        "architecture": net.layer_specs(),
        "architecture_hash": net.architecture_hash(),
        "params": params,
        "batchnorm": bn,
    }


def _adam_section(state: AdamState) -> dict:
    return {
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "t": state.t,
        "m": _encode_array(state.m) if state.m is not None else None,
        "v": _encode_array(state.v) if state.v is not None else None,
    }


def save_bundle(
    path,
    nets: dict[str, Network],
    *,
    kind: str,
    seed: int,
    optimizers: dict[str, AdamState] | None = None,
    extra: dict | None = None,
) -> str:
    """Write a checkpoint bundle; returns the sha256 of the written bytes."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "seed": seed,
        "networks": {name: _network_section(net) for name, net in nets.items()},
        "optimizers": {name: _adam_section(s) for name, s in (optimizers or {}).items()},
        "extra": extra or {},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, blob)
    return hashlib.sha256(blob).hexdigest()


def content_hash(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class Bundle:
    kind: str
    seed: int
    nets: dict[str, Network]
    optimizers: dict[str, AdamState]
    extra: dict = field(default_factory=dict)
    content_hash: str = ""


def load_bundle(path, expect_kind: str | None = None) -> Bundle:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not a checkpoint ({e})") from e
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unrecognized format {doc.get('format')!r}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')!r}")
    if expect_kind is not None and doc["kind"] != expect_kind:
        raise CheckpointError(f"{path}: kind {doc['kind']!r}, expected {expect_kind!r}")
    nets = {}
    for name, section in doc["networks"].items():
        rng = Rng(0)  # init values are overwritten below
        net = Network([build_layer(s, rng) for s in section["architecture"]], name=name)
        if net.architecture_hash() != section["architecture_hash"]:
            raise ArchitectureMismatchError(
                f"{path}: architecture hash mismatch for network {name!r}"
            )
        for pname, t in net.named_parameters():
            if pname not in section["params"]:
                raise CheckpointError(f"{path}: missing parameter {name}.{pname}")
            arr = _decode_array(section["params"][pname])
            if arr.shape != t.data.shape:
                raise CheckpointError(f"{path}: shape mismatch for {name}.{pname}")
            t.data = arr
        for i, layer in enumerate(net.layers):
            if isinstance(layer, BatchNorm):
                bn = section["batchnorm"][str(i)]
                layer.running_mean = _decode_array(bn["mean"])
                layer.running_var = _decode_array(bn["var"])
        nets[name] = net
    optimizers = {}
    for name, s in doc.get("optimizers", {}).items():
        st = AdamState(lr=s["lr"], beta1=s["beta1"], beta2=s["beta2"], eps=s["eps"], t=s["t"])
        if s["m"] is not None:
            st.m = _decode_array(s["m"]).reshape(-1)
            st.v = _decode_array(s["v"]).reshape(-1)
        optimizers[name] = st
    return Bundle(
        kind=doc["kind"],
        seed=doc["seed"],
        nets=nets,
        optimizers=optimizers,
        extra=doc.get("extra", {}),
        content_hash=hashlib.sha256(blob).hexdigest(),
    )

