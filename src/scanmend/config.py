"""Declarative experiment configuration.

A config is a JSON tree with a version number and four sections (dataset,
ae, gan, eval) plus optional path overrides.  Configs are resolved against a
named preset (user keys win), then validated strictly: unknown sections or
keys are rejected, as are out-of-domain values.  The resolved tree is copied
into every run directory so a run can be reproduced from its artifacts
alone.
"""

from __future__ import annotations

import copy
import json

from .gan import TrainingMode
from .synth import FAMILIES

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


_ALL_FAMILIES = ["box", "cylinder", "ellipsoid", "table4", "chair5", "lampoid"]

# Reference-scale settings: full point count and latent width, original
# optimizer values and epoch budgets.
_PAPER_SCALE = {
    "version": CONFIG_VERSION,
    "dataset": {
        "families": _ALL_FAMILIES,
        "n": 2048,
        "total": 1000,
        "train_fraction": 0.9,
        "r": 0.25,
        "sigma": 0.01,
        "scan_resolution": 64,
        "seed": 0,
    },
    "ae": {"k": 128, "lr": 0.0005, "beta1": 0.9, "batch_size": 200, "epochs": 2000, "seed": 0, "linear": False},
    "gan": {
        "lr": 0.0001,
        "lr_regression": 0.0001,
        "beta1": 0.5,
        "batch_size": 24,
        "epochs": 1000,
        "mode": "default",
        "tau": 0.01,
        "gan_loss": "ls",
        "seed": 0,
    },
    "eval": {"eps": 0.03, "jsd_grid": 32, "r_sweep": [0.1, 0.2, 0.3, 0.4, 0.5], "seed": 0},
    "paths": {},
}

# Reduced point count and latent width.  445 instances split 400/45 leave
# 200 clean and 200 partial training shapes after the unpaired halving.
# Single family: a k=16 code over 200 shapes cannot also absorb a six-way
# family mix (held-out EMD plateaus near 0.10 there vs 0.07 here).
_DESK_SCALE = {
    "version": CONFIG_VERSION,
    "dataset": {
        "families": ["chair5"],
        "n": 128,
        "total": 445,
        "train_fraction": 0.9,
        "r": 0.25,
        "sigma": 0.01,
        "scan_resolution": 32,
        "seed": 0,
    },
    "ae": {"k": 16, "lr": 0.0005, "beta1": 0.9, "batch_size": 50, "epochs": 500, "seed": 0, "linear": False},
    # With only ~9 batches per epoch the paper-scale learning rate never
    # moves the mapping far enough; 1e-3 over 500 epochs converges here.
    "gan": {
        "lr": 0.001,
        "beta1": 0.5,
        "batch_size": 24,
        "epochs": 500,
        "mode": "default",
        "tau": 0.01,
        "gan_loss": "ls",
        "seed": 0,
    },
    "eval": {"eps": 0.03, "jsd_grid": 32, "r_sweep": [0.1, 0.2, 0.3, 0.4, 0.5], "seed": 0},
    "paths": {},
}

# Desk-scale with per-instance randomized incompleteness, so one trained
# pipeline serves the whole r sweep.
_TOY_CHAIRS = copy.deepcopy(_DESK_SCALE)
_TOY_CHAIRS["dataset"].update({"r": [0.1, 0.5]})

PRESETS = {
    "paper-scale": _PAPER_SCALE,
    "desk-scale": _DESK_SCALE,
    "toy-chairs": _TOY_CHAIRS,
}

_MODES = [m.value for m in TrainingMode]


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _chk(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config schema violation: {msg}")


_SECTION_KEYS = {
    "dataset": {
        "families",
        "n",
        "total",
        "train_fraction",
        "r",
        "sigma",
        "scan_resolution",
        "seed",
    },
    "ae": {"k", "lr", "beta1", "batch_size", "epochs", "seed", "linear"},
    "gan": {
        "lr",
        "lr_regression",
        "beta1",
        "batch_size",
        "epochs",
        "mode",
        "tau",
        "gan_loss",
        "seed",
    },
    "eval": {"eps", "jsd_grid", "r_sweep", "seed"},
    "paths": {"dataset", "checkpoints", "reports"},
}


def validate_config(cfg: dict) -> None:
    _chk(isinstance(cfg, dict), "config must be a JSON object")
    unknown = set(cfg) - ({"version", "preset"} | set(_SECTION_KEYS))
    _chk(not unknown, f"unknown top-level keys {sorted(unknown)}")
    _chk(cfg.get("version") == CONFIG_VERSION, f"version must be {CONFIG_VERSION}")
    for section, allowed in _SECTION_KEYS.items():
        sec = cfg.get(section, {})
        _chk(isinstance(sec, dict), f"section {section!r} must be an object")
        bad = set(sec) - allowed
        _chk(not bad, f"unknown keys in {section!r}: {sorted(bad)}")
    d = cfg["dataset"]
    _chk(
        isinstance(d["families"], list) and d["families"], "dataset.families must be non-empty"
    )
    for fam in d["families"]:
        _chk(fam in FAMILIES, f"unknown shape family {fam!r}")
    _chk(isinstance(d["n"], int) and d["n"] >= 8, "dataset.n must be an int >= 8")
    _chk(isinstance(d["total"], int) and d["total"] >= 2, "dataset.total must be an int >= 2")
    _chk(
        _is_num(d["train_fraction"]) and 0.0 < d["train_fraction"] < 1.0,
        "dataset.train_fraction must be in (0, 1)",
    )
    r = d["r"]
    if isinstance(r, list):
        _chk(
            len(r) == 2 and all(_is_num(v) for v in r) and 0.0 <= r[0] <= r[1] < 1.0,
            "dataset.r range must be [lo, hi] within [0, 1)",
        )
    else:
        _chk(_is_num(r) and 0.0 <= r < 1.0, "dataset.r must be in [0, 1)")
    _chk(_is_num(d["sigma"]) and d["sigma"] >= 0.0, "dataset.sigma must be >= 0")
    _chk(
        isinstance(d["scan_resolution"], int) and d["scan_resolution"] >= 8,
        "dataset.scan_resolution must be an int >= 8",
    )
    a = cfg["ae"]
    _chk(isinstance(a["k"], int) and a["k"] >= 1, "ae.k must be a positive int")
    _chk(_is_num(a["lr"]) and a["lr"] > 0, "ae.lr must be > 0")
    _chk(_is_num(a["beta1"]) and 0.0 <= a["beta1"] < 1.0, "ae.beta1 must be in [0, 1)")
    _chk(isinstance(a["batch_size"], int) and a["batch_size"] >= 1, "ae.batch_size must be >= 1")
    _chk(isinstance(a["epochs"], int) and a["epochs"] >= 1, "ae.epochs must be >= 1")
    _chk(isinstance(a["linear"], bool), "ae.linear must be a boolean")
    g = cfg["gan"]
    _chk(g["mode"] in _MODES, f"gan.mode must be one of {_MODES}")
    _chk(g["gan_loss"] in ("ls", "log"), "gan.gan_loss must be 'ls' or 'log'")
    _chk(_is_num(g["lr"]) and g["lr"] > 0, "gan.lr must be > 0")
    lr_reg = g.get("lr_regression")  # None or absent: use gan.lr
    _chk(
        lr_reg is None or (_is_num(lr_reg) and lr_reg > 0),
        "gan.lr_regression must be > 0 or null",
    )
    _chk(_is_num(g["beta1"]) and 0.0 <= g["beta1"] < 1.0, "gan.beta1 must be in [0, 1)")
    _chk(isinstance(g["batch_size"], int) and g["batch_size"] >= 1, "gan.batch_size must be >= 1")
    _chk(isinstance(g["epochs"], int) and g["epochs"] >= 1, "gan.epochs must be >= 1")
    _chk(_is_num(g["tau"]) and g["tau"] > 0, "gan.tau must be > 0")
    e = cfg["eval"]
    _chk(_is_num(e["eps"]) and e["eps"] > 0, "eval.eps must be > 0")
    _chk(isinstance(e["jsd_grid"], int) and e["jsd_grid"] >= 2, "eval.jsd_grid must be >= 2")
    _chk(
        isinstance(e["r_sweep"], list)
        and e["r_sweep"]
        and all(_is_num(v) and 0.0 <= v < 1.0 for v in e["r_sweep"]),
        "eval.r_sweep must be a non-empty list of fractions in [0, 1)",
    )
    for section in ("dataset", "ae", "gan", "eval"):
        _chk(isinstance(cfg[section]["seed"], int), f"{section}.seed must be an int")
    for key, val in cfg["paths"].items():
        _chk(isinstance(val, str) and val, f"paths.{key} must be a non-empty string")


def _deep_merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def resolve_config(raw: dict | None = None, preset: str | None = None) -> dict:
    """Overlay a raw config onto its preset and validate the result.

    The preset comes from `raw["preset"]`, the `preset` argument, or
    "desk-scale", in that order of preference.
    """
    raw = copy.deepcopy(raw or {})
    name = raw.pop("preset", None) or preset or "desk-scale"
    if name not in PRESETS:
        raise ConfigError(f"config schema violation: unknown preset {name!r}")
    cfg = _deep_merge(PRESETS[name], raw)
    validate_config(cfg)
    return cfg


def load_config(path, preset: str | None = None) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config schema violation: {path} is not valid JSON ({e})") from e
    return resolve_config(raw, preset)


def override_seed(cfg: dict, seed: int) -> dict:
    """Set every section seed to the same value (the --seed flag)."""
    out = copy.deepcopy(cfg)
    for section in ("dataset", "ae", "gan", "eval"):
        out[section]["seed"] = seed
    return out
