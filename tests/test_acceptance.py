"""End-to-end acceptance gate.

Each test covers one numbered acceptance property at its stated tolerance
and prints a single PASS line with the measured values; the heavy ones
(5 through 9) share one session-scoped pipeline run driven through the
command-line interface exactly as a user would drive it.
"""

import csv
import json
import os
import subprocess
import sys
import time
from itertools import permutations

import numpy as np
import pytest

import scanmend
from scanmend.autoencoder import (
    Autoencoder,
    AutoencoderSpec,
    load_autoencoder,
    reconstruction_emd,
)
from scanmend.cli import main
from scanmend.config import resolve_config
from scanmend.distances import emd, hausdorff_directed
from scanmend.gan import (
    GanSpec,
    LossWeights,
    TrainingMode,
    build_discriminator,
    build_generator,
    gen_loss,
)
from scanmend.metrics import f1
from scanmend.nn.gradcheck import grad_check
from scanmend.nn.layers import BatchNorm, Dense, MaxPool, Network, PointwiseDense, ReLU
from scanmend.nn.lossops import emd_loss
from scanmend.ply import read_ply
from scanmend.rng import Rng
from scanmend.synth import load_dataset


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


# ---- 1: EMD oracle equivalence ----


def brute_force_emd(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    perms = np.array(list(permutations(range(n))))
    return float(dist[np.arange(n)[None, :], perms].mean(axis=1).min())


def test_criterion_01_emd_oracle_equivalence():
    rng = Rng(101)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        n = 2 + trial % 6  # n in 2..7
        a = rng.normal((n, 3))
        b = rng.normal((n, 3))
        cost, _ = emd(a, b)
        worst = max(worst, abs(cost - brute_force_emd(a, b)))
        assert worst <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"200 pairs, max |solver - brute force| = {worst:.2e}, {elapsed:.2f}s")


# ---- 2: gradient integrity ----


def test_criterion_02_gradient_integrity():
    start = time.monotonic()
    rng = Rng(202)
    errs = {}

    def sum_loss(out):
        return (out * out).sum()

    # (a) each layer type in isolation
    isolated = {
        "dense": (Network([Dense(5, 4, Rng(1))]), (3, 5)),
        "pointwise": (Network([PointwiseDense(4, 6, Rng(2))]), (2, 7, 4)),
        "relu": (Network([Dense(5, 5, Rng(3)), ReLU()]), (3, 5)),
        "batchnorm": (Network([BatchNorm(4)]), (6, 4)),
        "maxpool": (Network([PointwiseDense(3, 4, Rng(4)), MaxPool()]), (2, 9, 3)),
    }
    for name, (net, shape) in isolated.items():
        res = grad_check(net, sum_loss, rng.normal(shape), rng=Rng(5))
        errs[f"layer:{name}"] = res.max_rel_err

    # (b) the full autoencoder under the EMD objective
    ae = Autoencoder(AutoencoderSpec(n=24, k=8), Rng(7))
    net = ae.as_single_network()
    batch = rng.normal((2, 24, 3))

    def ae_emd(out):
        return emd_loss(out.reshape(2, 24, 3), batch)

    res = grad_check(net, ae_emd, batch, sample=300, rng=Rng(8))
    errs["ae+emd"] = res.max_rel_err

    # (c) the full generator path under the soft-Hausdorff objective
    spec = GanSpec(k=8)
    gen = build_generator(spec, Rng(9))
    disc = build_discriminator(spec, Rng(10))
    dec_ae = Autoencoder(AutoencoderSpec(n=24, k=8), Rng(11))
    anchor = rng.normal((2, 24, 3))
    weights = LossWeights(0.25, 0.75, "hl", tau=0.01)

    def gan_objective(fake):
        disc.zero_grad()
        dec_ae.decoder.zero_grad()
        completion = dec_ae.decoder.forward(fake).reshape(2, 24, 3)
        return gen_loss(disc.forward(fake), anchor, completion, weights)

    res = grad_check(gen, gan_objective, rng.normal((2, 8)), rng=Rng(12))
    errs["generator+soft-hl"] = res.max_rel_err

    elapsed = time.monotonic() - start
    worst = max(errs.values())
    assert worst < 1e-4, errs
    assert elapsed < 60.0
    report(2, f"max rel err {worst:.2e} over {len(errs)} checks, {elapsed:.1f}s")


# ---- 3: metric arithmetic ----


def test_criterion_03_f1_reference_rows():
    ours_chair = f1(80.7, 80.8)
    epn_chair = f1(39.6, 61.8)
    assert ours_chair == pytest.approx(80.8, abs=0.1)
    assert epn_chair == pytest.approx(48.2, abs=0.1)
    report(3, f"f1(80.7, 80.8) = {ours_chair:.2f}, f1(39.6, 61.8) = {epn_chair:.2f}")


# ---- 4: encoder permutation invariance ----


def test_criterion_04_encoder_permutation_invariance():
    ae = Autoencoder(AutoencoderSpec(n=128, k=16), Rng(404))
    rng = Rng(405)
    checked = 0
    for _ in range(20):
        cloud = rng.normal((128, 3))
        base = ae.encode(cloud[None])
        for _ in range(100):
            perm = rng.permutation(128)
            z = ae.encode(cloud[perm][None])
            assert np.array_equal(base, z)
            checked += 1
    report(4, f"{checked} permuted encodings bit-identical")


# ---- shared pipeline run for 5-9 ----


class ChainTimes:
    clean_ae: float
    total: float


def _start_partial_ae(base, run):
    """With a second core, start `train-ae --target partial` for `run` in a
    child process, so that it trains beside the clean autoencoder; with one
    core, return None.

    The two trainings share nothing but the dataset they read.  The child
    holds the lock of a run directory of its own and reaches the dataset,
    checkpoint and report directories of `run` through absolute `paths`.
    """
    if len(os.sched_getaffinity(0)) < 2:
        return None
    cfg = base / "partial_ae.json"
    cfg.write_text(json.dumps({
        "preset": "toy-chairs",
        "paths": {key: str(run / key) for key in ("dataset", "checkpoints", "reports")},
    }))
    src = os.path.dirname(os.path.dirname(scanmend.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    argv = ["train-ae", "--run", str(base / "partial_ae_run"), "--config", str(cfg),
            "--target", "partial"]
    return subprocess.Popen([sys.executable, "-m", "scanmend.cli", *argv], env=env)


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """Full desk-scale pipeline through the CLI: dataset, both autoencoders,
    the ablation matrix over every training mode, sweep, and eval reports."""
    base = tmp_path_factory.mktemp("acceptance")
    run = base / "run"
    args = ["--run", str(run), "--preset", "toy-chairs"]
    times = {}
    t0 = time.monotonic()
    assert main(["synth", *args]) == 0
    partial_ae = _start_partial_ae(base, run)
    try:
        t1 = time.monotonic()
        assert main(["train-ae", *args, "--target", "clean"]) == 0
        times["clean_ae"] = time.monotonic() - t1
        if partial_ae is None:
            assert main(["train-ae", *args, "--target", "partial"]) == 0
        else:
            assert partial_ae.wait(timeout=1800) == 0
    finally:
        if partial_ae is not None and partial_ae.poll() is None:
            partial_ae.kill()
            partial_ae.wait()
    assert main(["ablate", *args]) == 0
    assert main(["sweep", *args]) == 0
    completions = {}
    for mode in ("default", "no_recon"):
        out = base / f"completions_{mode}"
        assert main(["complete", *args, "--mode", mode,
                     "--input", str(run / "dataset" / "partial_test"),
                     "--output", str(out)]) == 0
        completions[mode] = out
    assert main(["eval", *args, "--completions", str(completions["default"]),
                 "--gt", str(run / "dataset" / "clean_test"), "--label", "default"]) == 0
    times["total"] = time.monotonic() - t0
    return {"run": run, "completions": completions, "times": times}


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---- 5: autoencoder training quality ----


def test_criterion_05_ae_training(chain):
    # the desk preset differs from the chain's preset only in the corruption
    # range, which clean-side artifacts never see
    desk = resolve_config(preset="desk-scale")
    toy = resolve_config(preset="toy-chairs")
    assert {k: v for k, v in desk["dataset"].items() if k != "r"} == {
        k: v for k, v in toy["dataset"].items() if k != "r"
    }
    assert desk["ae"] == toy["ae"]
    assert desk["ae"]["k"] == 16 and desk["dataset"]["n"] == 128
    assert desk["ae"]["epochs"] <= 500

    run = chain["run"]
    ds = load_dataset(run / "dataset")
    assert ds.clean_train.shape[0] == 200  # shapes seen by the clean AE
    ae, _ = load_autoencoder(run / "checkpoints" / "clean_ae.json")
    heldout = reconstruction_emd(ae, ds.clean_test)
    losses = [float(row["loss"]) for row in _read_csv(run / "reports" / "ae_clean_loss.csv")]
    seconds = chain["times"]["clean_ae"]
    assert heldout < 0.08
    assert losses[-1] < 0.5 * losses[0]
    assert seconds < 600.0
    report(5, f"held-out EMD {heldout:.4f} < 0.08, loss {losses[0]:.3f} -> "
              f"{losses[-1]:.3f}, trained in {seconds:.0f}s")


# ---- 6: incompleteness trend ----


def test_criterion_06_incompleteness_trend(chain):
    rows = {float(r["r"]): r for r in _read_csv(chain["run"] / "reports" / "sweep.csv")}
    ae = [float(rows[r]["f1_ae"]) for r in (0.1, 0.3, 0.5)]
    ours_05 = float(rows[0.5]["f1_ours"])
    inversions = [(lo, hi) for lo, hi in zip(ae, ae[1:]) if hi > lo]
    assert len(inversions) <= 1
    assert all(hi - lo <= 1.0 for lo, hi in inversions)
    assert ours_05 > ae[-1]
    report(6, f"AE f1 {ae[0]:.2f} -> {ae[1]:.2f} -> {ae[2]:.2f}; "
              f"pipeline f1 at r=0.5 {ours_05:.2f} > AE {ae[-1]:.2f}")


# ---- 7: reconstruction-term effect ----


def _mean_hl_to_completion(partial_dir, completion_dir):
    vals = []
    for name in sorted(os.listdir(partial_dir)):
        src = read_ply(os.path.join(partial_dir, name)).points
        comp = read_ply(os.path.join(completion_dir, name)).points
        vals.append(hausdorff_directed(src, comp))
    return float(np.mean(vals))


def test_criterion_07_hl_term_effect(chain):
    partial_dir = chain["run"] / "dataset" / "partial_test"
    with_hl = _mean_hl_to_completion(partial_dir, chain["completions"]["default"])
    without = _mean_hl_to_completion(partial_dir, chain["completions"]["no_recon"])
    assert with_hl < without
    report(7, f"mean directed Hausdorff input->completion {with_hl:.4f} (a=0.25, b=0.75) "
              f"< {without:.4f} (a=1, b=0)")


# ---- 8: diversity diagnostic ----


def test_criterion_08_diversity(chain):
    summary = json.loads((chain["run"] / "reports" / "default_summary.json").read_text())
    ratio = summary["jsd"] / summary["jsd_mode_collapse"]
    assert summary["jsd"] < summary["jsd_mode_collapse"] / 3.0
    report(8, f"jsd(gt, completions) {summary['jsd']:.4f} < "
              f"{summary['jsd_mode_collapse']:.4f} / 3 (ratio {ratio:.3f})")


# ---- 9: ablation matrix ----


def test_criterion_09_ablation_matrix(chain):
    rows = {r["mode"]: r for r in _read_csv(chain["run"] / "reports" / "ablation.csv")}
    assert set(rows) == {m.value for m in TrainingMode}
    for mode in TrainingMode:
        ckpt = chain["run"] / "checkpoints" / f"gan_{mode.value}.json"
        assert ckpt.is_file()
    sup = float(rows["supervised_emd"]["emd"])
    sup_gan = float(rows["supervised_emd_gan"]["emd"])
    assert sup < sup_gan
    report(9, f"all {len(rows)} modes trained; paired test EMD supervised_emd "
              f"{sup:.4f} < supervised_emd_gan {sup_gan:.4f}")


# ---- 10: determinism ----


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "micro.json"
    cfg.write_text(json.dumps({
        "preset": "desk-scale",
        "dataset": {"families": ["box"], "n": 16, "total": 8, "train_fraction": 0.75,
                    "scan_resolution": 16},
        "ae": {"k": 4, "epochs": 3, "batch_size": 2},
        "gan": {"epochs": 3, "batch_size": 2},
        "eval": {"r_sweep": [0.1, 0.4], "jsd_grid": 8},
    }))

    def drive(run):
        args = ["--run", str(run), "--config", str(cfg)]
        assert main(["synth", *args]) == 0
        assert main(["train-ae", *args]) == 0
        assert main(["train-ae", *args, "--target", "partial"]) == 0
        assert main(["train-gan", *args]) == 0
        comp = run / "out"
        assert main(["complete", *args, "--input", str(run / "dataset" / "partial_test"),
                     "--output", str(comp)]) == 0
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(["eval", *args, "--completions", str(comp),
                         "--gt", str(run / "dataset" / "clean_test")]) == 0
        assert main(["sweep", *args]) == 0
        reports = run / "reports"
        return {name: (reports / name).read_bytes() for name in sorted(os.listdir(reports))}

    first = drive(tmp_path / "run_a")
    second = drive(tmp_path / "run_b")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name
    report(10, f"{len(first)} report files byte-identical across independent reruns")
