"""Command line driver.

Every subcommand operates inside a run directory: it takes a lock file for
the duration of the invocation, writes the fully resolved config next to its
outputs, and produces only deterministic artifacts (no timestamps, fixed
float formats), so rerunning a command with the same config and seed yields
byte-identical files.

Layout under the run directory (overridable via the config "paths" section):

    config.resolved.json      resolved config the run was executed with
    dataset/                  PLY splits + manifest.json
    checkpoints/              clean_ae.json, partial_ae.json, gan_<mode>.json
    reports/                  loss curves, metrics, sweep and ablation CSVs
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .autoencoder import (
    AeTrainConfig,
    AutoencoderSpec,
    TrainingDivergedError,
    load_autoencoder,
    reconstruction_emd,
    save_autoencoder,
    train_ae,
)
from .config import SCHEMA, ConfigError, PRESETS, load_config, override_seed, resolve_config
from .fileio import process_exited, remove_temp_files, write_atomic
from .gan import (
    GanTrainConfig,
    TrainingMode,
    assemble_pipeline,
    autoencoder_targets,
    load_gan,
    mode_settings,
    save_gan,
    train_gan,
)
from .metrics import (
    MetricsReport, evaluate_completions, incompleteness_sweep, jsd, mode_collapse_reference
)
from .nn.checkpoint import CheckpointError
from .ply import read_ply, write_ply
from .rng import Rng
from .synth import DatasetConfig, load_dataset, make_dataset, save_dataset

LOCK_NAME = "run.lock"


class CliError(RuntimeError):
    """User-correctable failure; printed without a traceback."""


# ---- run directory plumbing ----


def _paths(cfg: dict, run_dir: str) -> dict:
    """Each artifact directory: its config override, else its own name,
    taken relative to the run directory unless absolute."""
    over = cfg.get("paths", {})
    return {key: os.path.join(run_dir, over.get(key, key)) for key in SCHEMA["paths"]}


def _dead_lock_owner(lock_path: str) -> int | None:
    """PID stored in the lock file if that process has exited, else None:
    unreadable lock content counts as a holder (see process_exited)."""
    try:
        with open(lock_path) as f:
            pid = int(f.read().strip())
    except (OSError, ValueError):
        return None
    return pid if process_exited(pid) else None


@contextlib.contextmanager
def run_lock(run_dir: str):
    """Exclusive single-owner lock on a run directory for one invocation.

    run.lock holds the owner's PID.  A lock whose owner has exited, say
    after a kill, is taken over with a warning on stderr.  Once the owner
    holds the lock, it removes the temp files that a killed write_atomic
    left under run_dir; a live writer's temp file stays.
    """
    os.makedirs(run_dir, exist_ok=True)
    lock_path = os.path.join(run_dir, LOCK_NAME)
    locked = CliError(
        f"run directory {run_dir} is locked by another invocation"
        f" (remove {lock_path} if that process is gone)"
    )
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock_path, flags)
    except FileExistsError:
        owner = _dead_lock_owner(lock_path)
        if owner is None:
            raise locked from None
        print(
            f"warning: taking over {lock_path} from process {owner}, which has exited",
            file=sys.stderr,
        )
        with contextlib.suppress(FileNotFoundError):
            os.remove(lock_path)
        try:
            fd = os.open(lock_path, flags)
        except FileExistsError:  # another invocation took it over first
            raise locked from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        remove_temp_files(run_dir)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(lock_path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def _write_csv(path: str, header: list, rows: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode())


# ---- artifact loading ----


def _load_dataset(paths: dict):
    d = paths["dataset"]
    if not os.path.isfile(os.path.join(d, "manifest.json")):
        raise CliError(f"dataset not found at {d}: run the synth command first")
    return load_dataset(d)


def _require_checkpoint(path: str, hint: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"missing checkpoint: {path} ({hint})")
    return path


def _ae_path(paths: dict, target: str) -> str:
    return os.path.join(paths["checkpoints"], f"{target}_ae.json")


def _gan_path(paths: dict, mode: str) -> str:
    return os.path.join(paths["checkpoints"], f"gan_{mode}.json")


def _load_ae(paths: dict, target: str):
    """An autoencoder and the sha256 of the checkpoint bytes it was loaded from."""
    path = _require_checkpoint(_ae_path(paths, target), f"run train-ae --target {target} first")
    ae, bundle = load_autoencoder(path)
    return ae, bundle.content_hash


def _load_aes(paths: dict, mode: str) -> dict:
    """The (autoencoder, checkpoint hash) pairs of the targets `mode` uses."""
    return {t: _load_ae(paths, t) for t in autoencoder_targets(mode)}


def _load_pipeline(paths: dict, mode: str):
    """GAN checkpoint + the autoencoders it was trained against."""
    gan_file = _require_checkpoint(_gan_path(paths, mode), f"run train-gan --mode {mode} first")
    bundle = load_gan(gan_file)
    aes = _load_aes(paths, bundle.extra["mode"])
    for target, (_, digest) in aes.items():
        if bundle.extra[f"{target}_ae_hash"] != digest:
            raise CliError(
                f"checkpoint mismatch: {gan_file} was trained against a different"
                f" {target} autoencoder than {_ae_path(paths, target)}"
            )
    return assemble_pipeline(bundle, *(ae for ae, _ in aes.values()))


def _read_ply_dir(d: str) -> tuple:
    if not os.path.isdir(d):
        raise CliError(f"not a directory: {d}")
    names = sorted(f for f in os.listdir(d) if f.endswith(".ply"))
    if not names:
        raise CliError(f"no .ply files found in {d}")
    clouds = []
    for name in names:
        path = os.path.join(d, name)
        try:
            clouds.append(read_ply(path))
        except ValueError as e:
            raise CliError(f"malformed PLY file: {e}") from e
    return names, clouds


def _from_section(cls, section: dict, **overrides):
    """Build dataclass `cls` from the config keys named like its fields."""
    kwargs = {f.name: section[f.name] for f in dataclasses.fields(cls) if f.name in section}
    return cls(**{**kwargs, **overrides})


def _train_pool(dataset, target: str):
    clouds = getattr(dataset, f"{target}_train")
    if clouds.shape[0] == 0:
        raise CliError(f"dataset has no {target}_train shapes to train on")
    return clouds


def _train_gan_mode(cfg: dict, paths: dict, dataset, mode: TrainingMode, aes: dict):
    """Train one mode's latent GAN, then save its checkpoint and loss curve.

    `aes` maps "clean", and "partial" where the mode encodes partial
    shapes, to an (autoencoder, checkpoint hash) pair.
    """
    g = cfg["gan"]
    settings = mode_settings(mode)
    clean_ae, clean_hash = aes["clean"]
    partial_ae, partial_hash = aes["partial"] if settings.latent_source == "partial" else (None, None)
    result = train_gan(
        _train_pool(dataset, "clean"),
        _train_pool(dataset, "partial"),
        mode,
        _from_section(GanTrainConfig, g),
        clean_ae=clean_ae,
        partial_ae=partial_ae,
        partial_gt=dataset.partial_train_gt if settings.recon_target == "gt" else None,
    )
    out = _gan_path(paths, mode.value)
    os.makedirs(paths["checkpoints"], exist_ok=True)
    save_gan(
        out,
        result,
        seed=g["seed"],
        clean_ae_hash=clean_hash,
        partial_ae_hash=partial_hash,
    )
    _write_csv(
        os.path.join(paths["reports"], f"gan_{mode.value}_loss.csv"),
        result.CURVE_COLUMNS,
        [[r[c] for c in result.CURVE_COLUMNS] for r in result.curves],
    )
    return result, out


# ---- subcommands ----


def cmd_synth(cfg: dict, run_dir: str) -> int:
    d = cfg["dataset"]
    r = tuple(d["r"]) if isinstance(d["r"], list) else d["r"]
    ds_cfg = _from_section(DatasetConfig, d, families=tuple(d["families"]), r=r)
    dataset = make_dataset(ds_cfg)
    paths = _paths(cfg, run_dir)
    save_dataset(dataset, paths["dataset"])
    m = dataset.manifest
    print(
        f"dataset: {m['total']} shapes (n={m['n']}) ->"
        f" {dataset.clean_train.shape[0]} clean_train,"
        f" {dataset.partial_train.shape[0]} partial_train,"
        f" {dataset.clean_test.shape[0]} test at {paths['dataset']}"
    )
    return 0


def cmd_train_ae(cfg: dict, run_dir: str, target: str = "clean") -> int:
    paths = _paths(cfg, run_dir)
    dataset = _load_dataset(paths)
    clouds = _train_pool(dataset, target)
    a = cfg["ae"]
    spec = AutoencoderSpec(n=dataset.manifest["n"], k=a["k"], linear=a["linear"])
    ae, losses = train_ae(clouds, spec, _from_section(AeTrainConfig, a))
    out = _ae_path(paths, target)
    os.makedirs(paths["checkpoints"], exist_ok=True)
    save_autoencoder(out, ae, seed=a["seed"])
    _write_csv(
        os.path.join(paths["reports"], f"ae_{target}_loss.csv"),
        ["epoch", "loss"],
        [[i + 1, v] for i, v in enumerate(losses)],
    )
    held = dataset.clean_test if target == "clean" else dataset.partial_test
    held_emd = reconstruction_emd(ae, held) if held.shape[0] else float("nan")
    print(
        f"{target} autoencoder: loss {losses[0]:.4f} -> {losses[-1]:.4f}"
        f" over {len(losses)} epochs, held-out EMD {held_emd:.4f}, saved {out}"
    )
    return 0


def cmd_train_gan(cfg: dict, run_dir: str, mode: str | None = None) -> int:
    paths = _paths(cfg, run_dir)
    dataset = _load_dataset(paths)
    mode = TrainingMode(mode or cfg["gan"]["mode"])
    result, out = _train_gan_mode(cfg, paths, dataset, mode, _load_aes(paths, mode))
    if not result.curves:
        print(f"gan [{mode.value}]: diverged in epoch 1, kept the initial parameters, saved {out}")
        return 0
    last = result.curves[-1]
    note = " (diverged, restored last finite snapshot)" if result.diverged else ""
    print(
        f"gan [{mode.value}]: epoch {last['epoch']}"
        f" L_F {last['L_F']:.4f} L_G {last['L_G']:.4f} HL {last['hard_HL']:.4f},"
        f" saved {out}{note}"
    )
    return 0


def cmd_complete(cfg: dict, run_dir: str, input_dir: str, output_dir: str, mode: str | None = None) -> int:
    paths = _paths(cfg, run_dir)
    mode = TrainingMode(mode or cfg["gan"]["mode"]).value
    pipeline = _load_pipeline(paths, mode)
    names, clouds = _read_ply_dir(input_dir)
    os.makedirs(output_dir, exist_ok=True)
    for name, cloud in zip(names, clouds):
        try:
            # Overflow shows as the pipeline's non-finite check, not as numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                completed = pipeline.complete(cloud)
        except (ValueError, FloatingPointError) as e:
            raise CliError(f"cannot complete {name}: {e}") from e
        write_ply(os.path.join(output_dir, name), completed)
    print(f"completed {len(names)} clouds [{mode}] -> {output_dir}")
    return 0


def cmd_eval(cfg: dict, run_dir: str, completions_dir: str, gt_dir: str, label: str = "eval") -> int:
    paths = _paths(cfg, run_dir)
    comp_names, comps = _read_ply_dir(completions_dir)
    gt_names, gts = _read_ply_dir(gt_dir)
    if comp_names != gt_names:
        only_c = sorted(set(comp_names) - set(gt_names))[:3]
        only_g = sorted(set(gt_names) - set(comp_names))[:3]
        raise CliError(
            f"completion/ground-truth file names differ"
            f" (only in completions: {only_c}, only in gt: {only_g})"
        )
    e = cfg["eval"]
    report = evaluate_completions(comps, gts, eps=e["eps"])
    rows = [
        [comp_names[r["index"]]] + [r[c] for c in report.COLUMNS] for r in report.rows
    ]
    _write_csv(
        os.path.join(paths["reports"], f"{label}_per_shape.csv"),
        ["name", *report.COLUMNS],
        rows,
    )
    rng = Rng(e["seed"])
    summary = dict(report.aggregate)
    summary["jsd"] = jsd(comps, gts, g=e["jsd_grid"])
    summary["jsd_mode_collapse"] = jsd(mode_collapse_reference(gts, rng), gts, g=e["jsd_grid"])
    summary["count"] = len(comps)
    _write_json(os.path.join(paths["reports"], f"{label}_summary.json"), summary)
    print(
        f"eval [{label}]: f1 {summary['f1']:.2f} emd {summary['emd']:.4f}"
        f" jsd {summary['jsd']:.4f} over {summary['count']} shapes"
    )
    return 0


def cmd_sweep(cfg: dict, run_dir: str, mode: str | None = None) -> int:
    paths = _paths(cfg, run_dir)
    dataset = _load_dataset(paths)
    if dataset.clean_test.shape[0] == 0:
        raise CliError("dataset has no test shapes to sweep over")
    mode = TrainingMode(mode or cfg["gan"]["mode"]).value
    pipeline = _load_pipeline(paths, mode)
    e = cfg["eval"]
    rows = incompleteness_sweep(
        pipeline,
        pipeline.clean_ae,
        dataset.clean_test,
        e["r_sweep"],
        sigma=cfg["dataset"]["sigma"],
        eps=e["eps"],
        seed=e["seed"],
    )
    cols = ("r", "f1_ae", "emd_ae", "f1_ours", "emd_ours")
    _write_csv(
        os.path.join(paths["reports"], "sweep.csv"), cols, [[r[c] for c in cols] for r in rows]
    )
    for r in rows:
        print(
            f"r={r['r']:.2f}: f1 ae {r['f1_ae']:.2f} ours {r['f1_ours']:.2f},"
            f" emd ae {r['emd_ae']:.4f} ours {r['emd_ours']:.4f}"
        )
    return 0


def cmd_ablate(cfg: dict, run_dir: str) -> int:
    """Train and evaluate every mode variant with shared autoencoders.

    Missing autoencoder checkpoints are trained first; each mode's GAN is
    then trained from the configured seed, saved, and scored on the hidden
    test pairs.
    """
    paths = _paths(cfg, run_dir)
    dataset = _load_dataset(paths)
    if dataset.clean_test.shape[0] == 0:
        raise CliError("dataset has no test shapes to evaluate on")
    for target in ("clean", "partial"):
        if not os.path.isfile(_ae_path(paths, target)):
            cmd_train_ae(cfg, run_dir, target)
    aes = {target: _load_ae(paths, target) for target in ("clean", "partial")}
    table = []
    for mode in TrainingMode:
        result, _ = _train_gan_mode(cfg, paths, dataset, mode, aes)
        completions = result.pipeline.complete_batch(dataset.partial_test)
        report = evaluate_completions(completions, dataset.clean_test, eps=cfg["eval"]["eps"])
        agg = report.aggregate
        table.append([mode.value] + [agg[c] for c in MetricsReport.COLUMNS])
        print(
            f"ablate [{mode.value}]: f1 {agg['f1']:.2f} emd {agg['emd']:.4f}"
            + (" (diverged)" if result.diverged else "")
        )
    _write_csv(
        os.path.join(paths["reports"], "ablation.csv"),
        ["mode", *MetricsReport.COLUMNS],
        table,
    )
    print(f"ablation table: {os.path.join(paths['reports'], 'ablation.csv')}")
    return 0


# ---- argument parsing ----


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--run", required=True, help="run directory for artifacts")
    common.add_argument("--config", help="JSON config file (overlaid on its preset)")
    common.add_argument(
        "--preset", choices=sorted(PRESETS), help="base preset when the config names none"
    )
    common.add_argument("--seed", type=int, help="override every section seed")

    p = argparse.ArgumentParser(prog="scanmend", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"scanmend {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate, corrupt and split a dataset")

    ae = sub.add_parser("train-ae", parents=[common], help="train a point-set autoencoder")
    ae.add_argument("--target", choices=["clean", "partial"], default="clean")

    gan = sub.add_parser("train-gan", parents=[common], help="train the latent mapping")
    gan.add_argument("--mode", choices=[m.value for m in TrainingMode])

    comp = sub.add_parser("complete", parents=[common], help="complete partial clouds")
    comp.add_argument("--input", required=True, help="directory of partial .ply files")
    comp.add_argument("--output", required=True, help="directory for completed .ply files")
    comp.add_argument("--mode", choices=[m.value for m in TrainingMode])

    ev = sub.add_parser("eval", parents=[common], help="score completions against ground truth")
    ev.add_argument("--completions", required=True, help="directory of completed .ply files")
    ev.add_argument("--gt", required=True, help="directory of ground-truth .ply files")
    ev.add_argument("--label", default="eval", help="report file name prefix")

    sw = sub.add_parser("sweep", parents=[common], help="score across incompleteness levels")
    sw.add_argument("--mode", choices=[m.value for m in TrainingMode])

    sub.add_parser("ablate", parents=[common], help="train and score every mode variant")
    return p


def _dispatch(args: argparse.Namespace, cfg: dict) -> int:
    run = args.run
    if args.command == "synth":
        return cmd_synth(cfg, run)
    if args.command == "train-ae":
        return cmd_train_ae(cfg, run, args.target)
    if args.command == "train-gan":
        return cmd_train_gan(cfg, run, args.mode)
    if args.command == "complete":
        return cmd_complete(cfg, run, args.input, args.output, args.mode)
    if args.command == "eval":
        return cmd_eval(cfg, run, args.completions, args.gt, args.label)
    if args.command == "sweep":
        return cmd_sweep(cfg, run, args.mode)
    if args.command == "ablate":
        return cmd_ablate(cfg, run)
    raise CliError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            if not os.path.isfile(args.config):
                raise CliError(f"config file not found: {args.config}")
            cfg = load_config(args.config, args.preset)
        else:
            cfg = resolve_config(None, args.preset)
        if args.seed is not None:
            cfg = override_seed(cfg, args.seed)
        with run_lock(args.run):
            _write_json(os.path.join(args.run, "config.resolved.json"), cfg)
            return _dispatch(args, cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CliError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDivergedError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # any other failure: one line, traceback on request
        if os.environ.get("SCANMEND_DEBUG"):
            traceback.print_exc()
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
