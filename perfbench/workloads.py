"""The benchmark's three workloads.

Every workload parameter lives in this file.  The shape parameters equal the
project's desk-scale values at the time the benchmark was written (n=128,
k=16, AE batch 50, GAN batch 24, one chair family, scan resolution 32,
r=0.25, sigma=0.01).  They are not read from ``scanmend.config.PRESETS``,
so a preset change cannot silently change what is measured.  The config
layer is bypassed for a second reason: ``config.resolve_config`` (and with
it ``cli.main``) raises ``KeyError: 'lr_regression'`` on the desk presets.
The benchmark does not overlay that key; it builds the train configs
directly, as ``scanmend ablate`` would once the key is fixed, with
``lr_regression`` left unset.

A workload has an untimed ``setup`` and a fixed unit of timed work
(``chunk``); scan-complete-score also has a latency ``probe``.  All chunks
of one run do identical work on identical inputs, so their outputs must
agree bit for bit; the run checks that, along with finiteness, point counts
and decreasing training losses.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from scanmend import autoencoder, gan, metrics, ply, synth
from scanmend.nn import checkpoint
from scanmend.pointset import PointSet
from scanmend.rng import Rng

# Desk-scale values.
N_POINTS = 128
LATENT_K = 16
FAMILY = "chair5"
SCAN_RES = 32
R_MISSING = 0.25
SIGMA = 0.01
AE_LR, AE_BETA1, AE_BATCH = 0.0005, 0.9, 50
GAN_LR, GAN_BETA1, GAN_BATCH, GAN_TAU, GAN_LOSS = 0.001, 0.5, 24, 0.01, "ls"
EVAL_EPS, JSD_GRID, R_SWEEP = 0.03, 32, (0.1, 0.2, 0.3, 0.4, 0.5)

# The workload seed picks the clouds.  Network initialization, batch order
# and the held-out clouds that result_emd is measured on do not depend on
# it, so result_emd moves with the training data only.
MODEL_SEED = 0
HELD_OUT_SEED = 0

# Failures an operation may report; anything else is a defect of the
# benchmark or the program and ends the run.  ScanError is a ValueError.
FAILURES = (ValueError, FloatingPointError, autoencoder.TrainingDivergedError)


@dataclass(frozen=True)
class Sizes:
    """Run-length choices: clouds and epochs per set-up and per chunk."""

    ae_clouds: int = 50  # exactly one AE batch
    held_out: int = 8
    ae_epochs: int = 4  # per ae-train chunk
    pool: int = 24  # exactly one GAN batch; also the pre-training set
    pretrain_epochs: int = 3
    gan_epochs: int = 3  # per mode, per gan-ablate chunk
    scan_total: int = 12
    scan_train_fraction: float = 0.2  # 2 training shapes, 10 scans to complete
    probe: int = 120  # completions timed after each scan-complete-score chunk
    setup_repeats: int = 3


FULL = Sizes()
# For the smoke test only: every code path, a few seconds per run.
TINY = Sizes(
    ae_clouds=4,
    held_out=2,
    ae_epochs=2,
    pool=4,
    pretrain_epochs=1,
    gan_epochs=2,
    scan_total=6,
    scan_train_fraction=0.34,
    probe=12,
    setup_repeats=1,
)


@dataclass
class Chunk:
    """Outcome of one timed chunk."""

    items: int
    attempted: int
    failures: list = field(default_factory=list)
    result_emd: float = float("nan")
    digest: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def _all_finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(v, dtype=np.float64)))) for v in values)


def clean_clouds(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` scanned, downsampled and normalized chairs from (seed, stream)."""
    root = Rng(seed).spawn(stream)
    out = np.empty((count, N_POINTS, 3))
    for i in range(count):
        rng = root.spawn(i)
        params = synth.sample_params(FAMILY, rng)
        _, cloud = synth.generate_shape(FAMILY, params, N_POINTS, rng, SCAN_RES)
        out[i] = cloud.points
    return out


def partial_clouds(clean: np.ndarray, seed: int, stream: int) -> np.ndarray:
    root = Rng(seed).spawn(stream)
    out = np.empty_like(clean)
    for i in range(clean.shape[0]):
        spec = synth.CorruptionSpec(r=R_MISSING, sigma=SIGMA, seed=root.spawn(i).seed)
        out[i] = synth.corrupt(PointSet(clean[i]), spec).points
    return out


def ae_config(epochs: int) -> autoencoder.AeTrainConfig:
    return autoencoder.AeTrainConfig(
        lr=AE_LR, beta1=AE_BETA1, batch_size=AE_BATCH, epochs=epochs, seed=MODEL_SEED
    )


def gan_config(epochs: int) -> gan.GanTrainConfig:
    return gan.GanTrainConfig(
        lr=GAN_LR,
        beta1=GAN_BETA1,
        batch_size=GAN_BATCH,
        epochs=epochs,
        seed=MODEL_SEED,
        tau=GAN_TAU,
        gan_loss=GAN_LOSS,
    )


AE_SPEC = autoencoder.AutoencoderSpec(n=N_POINTS, k=LATENT_K)


def pretrain_ae(clouds: np.ndarray, epochs: int) -> autoencoder.Autoencoder:
    return autoencoder.train_ae(clouds, AE_SPEC, ae_config(epochs))[0]


class AeTrain:
    """autoencoder.train_ae on clean chairs, one batch of 50 per step."""

    name = "ae-train"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        self.train = clean_clouds(self.seed, 0, self.sizes.ae_clouds)
        self.held = clean_clouds(HELD_OUT_SEED, 1, self.sizes.held_out)

    def chunk(self) -> Chunk:
        s = self.sizes
        res = Chunk(items=s.ae_clouds * s.ae_epochs, attempted=2)
        try:
            ae, losses = autoencoder.train_ae(self.train, AE_SPEC, ae_config(s.ae_epochs))
            held_emd = autoencoder.reconstruction_emd(ae, self.held)
        except FAILURES as e:
            res.failures.append(f"train_ae: {type(e).__name__}: {e}")
            return res
        if not _all_finite(losses, held_emd):
            res.failures.append("non-finite training loss or held-out EMD")
        elif not losses[-1] < losses[0]:
            res.failures.append(f"training loss did not decrease: {losses}")
        res.result_emd = held_emd
        res.digest = _digest(losses, held_emd)
        return res


class GanAblate:
    """gan.train_gan for every TrainingMode over frozen autoencoders, as
    `scanmend ablate` does, each mode scored on held-out pairs."""

    name = "gan-ablate"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        s = self.sizes
        # The clean and partial pools come from the same shapes so set-up
        # stays short; batches still draw them with independent shuffles.
        self.clean = clean_clouds(self.seed, 0, s.pool)
        self.partial = partial_clouds(self.clean, self.seed, 2)
        self.held_clean = clean_clouds(HELD_OUT_SEED, 1, s.held_out)
        self.held_partial = partial_clouds(self.held_clean, HELD_OUT_SEED, 3)
        self.clean_ae = pretrain_ae(self.clean, s.pretrain_epochs)
        self.partial_ae = pretrain_ae(self.partial, s.pretrain_epochs)

    def chunk(self) -> Chunk:
        s = self.sizes
        modes = list(gan.TrainingMode)
        res = Chunk(items=len(modes) * s.gan_epochs * s.pool, attempted=len(modes))
        cfg = gan_config(s.gan_epochs)
        emds, parts = [], []
        for mode in modes:
            st = gan.mode_settings(mode)
            try:
                out = gan.train_gan(
                    self.clean,
                    self.partial,
                    mode,
                    cfg,
                    clean_ae=self.clean_ae,
                    partial_ae=self.partial_ae if st.latent_source == "partial" else None,
                    partial_gt=self.clean if st.recon_target == "gt" else None,
                )
                comps = out.pipeline.complete_batch(self.held_partial)
                report = metrics.evaluate_completions(comps, self.held_clean, eps=EVAL_EPS)
            except FAILURES as e:
                res.failures.append(f"{mode.value}: {type(e).__name__}: {e}")
                continue
            curves = [[r[k] for k in ("L_F", "L_G", "hard_HL", "adv_term")] for r in out.curves]
            if out.diverged:
                res.failures.append(f"{mode.value}: diverged, last finite snapshot restored")
            elif len(curves) != s.gan_epochs or not _all_finite(curves, comps):
                res.failures.append(f"{mode.value}: non-finite losses or completions")
            elif comps.shape != self.held_partial.shape:
                res.failures.append(f"{mode.value}: completions {comps.shape}")
            elif not st.train_disc and not curves[-1][1] < curves[0][1]:
                res.failures.append(f"{mode.value}: generator loss did not decrease")
            emds.append(report.aggregate["emd"])
            parts += [curves, comps]
        if emds:
            res.result_emd = float(np.mean(emds))
            res.digest = _digest(*parts)
        return res


class ScanCompleteScore:
    """The user path after training: scan fresh shapes, complete them from
    checkpoint files, and score the completions."""

    name = "scan-complete-score"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.ckpt_dir = os.path.join(workdir, "checkpoints")
        self.ae_path = os.path.join(self.ckpt_dir, "clean_ae.json")
        self.gan_path = os.path.join(self.ckpt_dir, "gan_default.json")
        # Fresh shapes: a stream the set-up never draws from.
        self.scan_seed = Rng(seed).spawn(7).seed
        self.pipeline = None

    def setup(self) -> None:
        s = self.sizes
        clean = clean_clouds(self.seed, 0, s.pool)
        partial = partial_clouds(clean, self.seed, 2)
        clean_ae = pretrain_ae(clean, s.pretrain_epochs)
        trained = gan.train_gan(
            clean, partial, gan.TrainingMode.DEFAULT, gan_config(s.pretrain_epochs),
            clean_ae=clean_ae,
        )
        os.makedirs(self.ckpt_dir, exist_ok=True)
        autoencoder.save_autoencoder(self.ae_path, clean_ae, seed=MODEL_SEED)
        gan.save_gan(
            self.gan_path,
            trained,
            seed=MODEL_SEED,
            clean_ae_hash=checkpoint.content_hash(self.ae_path),
            gan_loss=GAN_LOSS,
        )

    def chunk(self) -> Chunk:
        s = self.sizes
        ds_dir = os.path.join(self.workdir, "dataset")
        out_dir = os.path.join(self.workdir, "completed")
        for d in (ds_dir, out_dir):
            shutil.rmtree(d, ignore_errors=True)
        cfg = synth.DatasetConfig(
            families=(FAMILY,),
            n=N_POINTS,
            total=s.scan_total,
            train_fraction=s.scan_train_fraction,
            r=R_MISSING,
            sigma=SIGMA,
            seed=self.scan_seed,
            scan_resolution=SCAN_RES,
        )
        res = Chunk(items=0, attempted=4)
        try:
            made = synth.make_dataset(cfg, threads=1)
            synth.save_dataset(made, ds_dir)
            ds = synth.load_dataset(ds_dir)
            clean_ae, _ = autoencoder.load_autoencoder(self.ae_path)
            bundle = gan.load_gan(self.gan_path)
        except FAILURES as e:
            res.failures.append(f"scan/save/load: {type(e).__name__}: {e}")
            return res
        if not (np.array_equal(ds.partial_test, made.partial_test)
                and np.array_equal(ds.clean_test, made.clean_test)):
            res.failures.append("dataset PLY round trip changed the clouds")
        if bundle.extra.get("clean_ae_hash") != checkpoint.content_hash(self.ae_path):
            res.failures.append("GAN checkpoint names another clean autoencoder")
        pipe = gan.assemble_pipeline(bundle, clean_ae)
        os.makedirs(out_dir)
        written = []
        for i, partial in enumerate(ds.partial_test):
            res.attempted += 1
            try:
                out = pipe.complete(PointSet(partial))
            except FAILURES as e:
                res.failures.append(f"complete {i}: {type(e).__name__}: {e}")
                continue
            if out.n != partial.shape[0]:
                res.failures.append(f"complete {i}: {out.n} points out for {partial.shape[0]} in")
            ply.write_ply(os.path.join(out_dir, f"{i:04d}.ply"), out)
            written.append(out.points)
            res.items += 1
        if not written:
            return res
        names = sorted(os.listdir(out_dir))
        comps = np.stack([ply.read_ply(os.path.join(out_dir, n)).points for n in names])
        if not np.array_equal(comps, np.stack(written)):
            res.failures.append("completion PLY round trip changed the clouds")
        gts = ds.clean_test
        try:
            report = metrics.evaluate_completions(comps, gts, eps=EVAL_EPS)
            spread = metrics.jsd(comps, gts, g=JSD_GRID)
            collapse = metrics.jsd(
                metrics.mode_collapse_reference(gts, Rng(self.seed)), gts, g=JSD_GRID
            )
            sweep = metrics.incompleteness_sweep(
                pipe, clean_ae, gts, R_SWEEP, sigma=SIGMA, eps=EVAL_EPS, seed=self.seed
            )
        except FAILURES as e:
            res.failures.append(f"score: {type(e).__name__}: {e}")
            return res
        scores = [list(report.aggregate.values()), spread, collapse]
        scores += [list(row.values()) for row in sweep]
        if not _all_finite(comps, *scores):
            res.failures.append("non-finite completion or score")
        self.pipeline, self.partials = pipe, ds.partial_test
        res.result_emd = report.aggregate["emd"]
        res.digest = _digest(comps, *scores)
        return res

    def probe(self) -> tuple:
        """Time CompletionPipeline.complete on one scan, as `scanmend complete`
        does per file, cycling through the chunk's scans.

        Returns (latencies in seconds, failures); a completion must keep the
        scan's point count.
        """
        clouds = [PointSet(c) for c in self.partials]
        lat, failures = [], []
        for i in range(self.sizes.probe):
            cloud = clouds[i % len(clouds)]
            t0 = time.perf_counter()
            try:
                out = self.pipeline.complete(cloud)
            except FAILURES as e:
                failures.append(f"probe {i}: {type(e).__name__}: {e}")
                continue
            lat.append(time.perf_counter() - t0)
            if out.n != cloud.n:
                failures.append(f"probe {i}: {out.n} points out for {cloud.n} in")
        return lat, failures


WORKLOADS = {w.name: w for w in (AeTrain, GanAblate, ScanCompleteScore)}

