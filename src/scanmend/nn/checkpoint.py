"""Versioned JSON checkpoints for networks.

A checkpoint bundle holds one or more named networks: layer specs, parameter
arrays (base64 of little-endian float64), batchnorm running statistics, the
RNG seed, and free-form metadata (extra).  Loading builds no layer from the
stored specs: the caller builds each network from the spec that extra keeps,
with the code that trains it, and its layer specs and architecture hash must
equal the stored ones.  Every parameter and running statistic is decoded to
the shape its layer needs.  Anything missing, unreadable or mismatched is
rejected with one CheckpointError naming the file, the network and the entry.
Bundles reference other checkpoint files by the sha256 of their bytes.
Format v1 also has an "optimizers" section; the writer always leaves it
empty and the loader ignores it.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..fileio import write_atomic
from .layers import BatchNorm, Network

CHECKPOINT_FORMAT = "scanmend-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _encode_array(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(section: dict, keys: tuple, shape: tuple, where: str) -> np.ndarray:
    """The array stored at section[keys[0]][keys[1]]..., which must have
    `shape`; CheckpointError naming `where` and the entry otherwise."""
    entry = ".".join(keys)
    d = section
    for key in keys:
        if not isinstance(d, dict) or key not in d:
            raise CheckpointError(f"{where}: missing entry {entry}")
        d = d[key]
    try:
        raw = base64.b64decode(d["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{where}: unreadable entry {entry} ({e})") from e
    if arr.shape != shape:
        raise CheckpointError(f"{where}: entry {entry} has shape {arr.shape}, expected {shape}")
    return arr


def _entry(d, key: str, where: str, prefix: str = ""):
    """d[key]; CheckpointError naming `where` and the entry prefix + key
    when d is not a dict or lacks the key."""
    if not isinstance(d, dict) or key not in d:
        raise CheckpointError(f"{where}: missing entry {prefix}{key}")
    return d[key]


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


def save_bundle(
    path,
    nets: dict[str, Network],
    *,
    kind: str,
    seed: int,
    extra: dict | None = None,
) -> str:
    """Write a checkpoint bundle; returns the sha256 of the written bytes."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "seed": seed,
        "networks": {name: _network_section(net) for name, net in nets.items()},
        "optimizers": {},
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
    extra: dict = field(default_factory=dict)
    content_hash: str = ""


def load_bundle(path, spec_key: str, build, expect_kind: str) -> Bundle:
    """The bundle of kind `expect_kind` at `path`, its networks the ones that
    build(extra[spec_key]) returns by name (TypeError or ValueError if the
    spec is bad), each filled from the stored section whose layer specs and
    hash equal its own."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not a checkpoint ({e})") from e
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unrecognized format {fmt!r}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')!r}")
    kind = _entry(doc, "kind", path)
    if kind != expect_kind:
        raise CheckpointError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
    seed = _entry(doc, "seed", path)
    networks = _entry(doc, "networks", path)
    if not isinstance(networks, dict):
        raise CheckpointError(f"{path}: entry networks is not a dict of networks")
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: entry extra is not a dict")
    spec = _entry(extra, spec_key, path, "extra.")
    try:
        nets = build(spec)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad entry extra.{spec_key} ({e})") from e
    for name, net in nets.items():
        where = f"{path}: network {name!r}"
        if name not in networks:
            raise CheckpointError(f"{path}: missing network {name!r}")
        section = networks[name]
        specs = _entry(section, "architecture", where)
        stored_hash = _entry(section, "architecture_hash", where)
        if specs != net.layer_specs() or stored_hash != net.architecture_hash():
            raise CheckpointError(f"{where}: stored architecture does not match extra.{spec_key}")
        for pname, t in net.named_parameters():
            t.data = _decode_array(section, ("params", pname), t.data.shape, where)
        for i, layer in enumerate(net.layers):
            if isinstance(layer, BatchNorm):
                stats, shape = ("batchnorm", str(i)), (layer.width,)
                layer.running_mean = _decode_array(section, stats + ("mean",), shape, where)
                layer.running_var = _decode_array(section, stats + ("var",), shape, where)
    return Bundle(
        kind=kind,
        seed=seed,
        nets=nets,
        extra=extra,
        content_hash=hashlib.sha256(blob).hexdigest(),
    )

