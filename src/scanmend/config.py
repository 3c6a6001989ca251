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
import math

from .gan import TrainingMode
from .synth import FAMILIES

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


# Reference-scale settings: full point count and latent width, original
# optimizer values and epoch budgets.
_PAPER_SCALE = {
    "version": CONFIG_VERSION,
    "dataset": {
        "families": list(FAMILIES),
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
        "beta1": 0.5,
        "batch_size": 24,
        "epochs": 1000,
        "mode": "default",
        "tau": 0.01,
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
_ABSENT = object()  # stands for a key its section leaves out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    """A JSON number usable as a setting: not a boolean, and a finite float."""
    try:
        return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _int_from(lo: int):
    return lambda v: _is_int(v) and v >= lo


def _positive(v) -> bool:
    return _is_num(v) and v > 0


def _optional(ok):
    """A key that may be absent; a present value must still pass `ok`."""
    return lambda v: v is _ABSENT or ok(v)


def _fraction(v) -> bool:
    return _is_num(v) and 0.0 <= v < 1.0


def _r_ok(r) -> bool:
    if isinstance(r, list):
        return len(r) == 2 and all(_is_num(v) for v in r) and 0.0 <= r[0] <= r[1] < 1.0
    return _fraction(r)


def _families_ok(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(f, str) and f in FAMILIES for f in v
    )


_POSITIVE = (_positive, "> 0")
_BETA1 = (_fraction, "in [0, 1)")
_SEED = (_is_int, "an int")
_COUNT = (_int_from(1), "an int >= 1")
_PATH = (_optional(lambda v: isinstance(v, str) and v != ""), "a non-empty string")

# section -> key -> (predicate on the value, text describing a legal value).
# Every key is required unless its predicate accepts _ABSENT.
SCHEMA = {
    "dataset": {
        "families": (
            _families_ok,
            f"a non-empty list with no unknown shape family (known: {', '.join(FAMILIES)})",
        ),
        "n": (_int_from(8), "an int >= 8"),
        "total": (_int_from(2), "an int >= 2"),
        "train_fraction": (lambda v: _is_num(v) and 0.0 < v < 1.0, "in (0, 1)"),
        "r": (_r_ok, "in [0, 1) or a range [lo, hi] within [0, 1)"),
        "sigma": (lambda v: _is_num(v) and v >= 0.0, ">= 0"),
        "scan_resolution": (_int_from(8), "an int >= 8"),
        "seed": _SEED,
    },
    "ae": {
        "k": _COUNT,
        "lr": _POSITIVE,
        "beta1": _BETA1,
        "batch_size": _COUNT,
        "epochs": _COUNT,
        "seed": _SEED,
        "linear": (lambda v: isinstance(v, bool), "a boolean"),
    },
    "gan": {
        "lr": _POSITIVE,
        "beta1": _BETA1,
        "batch_size": _COUNT,
        "epochs": _COUNT,
        "mode": (lambda v: v in _MODES, f"one of {_MODES}"),
        "tau": _POSITIVE,
        "seed": _SEED,
    },
    "eval": {
        "eps": _POSITIVE,
        "jsd_grid": (_int_from(2), "an int >= 2"),
        "r_sweep": (
            lambda v: isinstance(v, list) and len(v) > 0 and all(_fraction(x) for x in v),
            "a non-empty list of fractions in [0, 1)",
        ),
        "seed": _SEED,
    },
    "paths": {"dataset": _PATH, "checkpoints": _PATH, "reports": _PATH},
}


def _chk(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config schema violation: {msg}")


def validate_config(cfg: dict) -> None:
    _chk(isinstance(cfg, dict), "config must be a JSON object")
    unknown = set(cfg) - {"version", "preset", *SCHEMA}
    _chk(not unknown, f"unknown top-level keys {sorted(unknown)}")
    version = cfg.get("version")
    _chk(_is_int(version) and version == CONFIG_VERSION, f"version must be {CONFIG_VERSION}")
    for section, rules in SCHEMA.items():
        sec = cfg.get(section, {})
        _chk(isinstance(sec, dict), f"section {section!r} must be an object")
        bad = set(sec) - set(rules)
        _chk(not bad, f"unknown keys in {section!r}: {sorted(bad)}")
        for key, (ok, text) in rules.items():
            _chk(ok(sec.get(key, _ABSENT)), f"{section}.{key} must be {text}")


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
    raw = {} if raw is None else copy.deepcopy(raw)
    _chk(isinstance(raw, dict), "config must be a JSON object")
    name = raw.pop("preset", preset or "desk-scale")
    _chk(isinstance(name, str), f"preset must be a string, got {name!r}")
    _chk(name in PRESETS, f"unknown preset {name!r}")
    cfg = _deep_merge(PRESETS[name], raw)
    validate_config(cfg)
    return cfg


def load_config(path, preset: str | None = None) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config schema violation: {path} is not valid JSON ({e})") from e
    return resolve_config(raw, preset)


def override_seed(cfg: dict, seed: int) -> dict:
    """Set every section seed to the same value (the --seed flag)."""
    out = copy.deepcopy(cfg)
    for section, rules in SCHEMA.items():
        if "seed" in rules:
            out[section]["seed"] = seed
    return out
