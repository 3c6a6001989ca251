"""Latent-space mapping GAN and the completion pipeline.

A generator maps partial-shape latent codes to clean-shape latent codes; a
discriminator scores codes as real (from clean shapes) or fake (generated).
Default training is least-squares adversarial plus a directed-Hausdorff
anchor that keeps the decoded completion consistent with the partial input:

    L_F = mean[(F(real) - 1)^2] + mean[F(fake)^2]
    L_G = alpha * mean[(F(fake) - 1)^2] + beta * L_recon(input -> completion)

with alpha = 0.25 and beta = 0.75.  The autoencoders are pretrained and
frozen: gradients flow through the decoder to the generator, but only the
generator and discriminator are updated.  Ablation and supervised variants
are driven entirely by TrainingMode.  The adversarial objective is always
least squares (LSGAN, Mao et al. 2017), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autoencoder import Autoencoder
from .distances import hausdorff_directed_batch
from .nn.checkpoint import Bundle, CheckpointError, load_bundle, save_bundle
from .nn.layers import Network, dense_stack
from .nn.lossops import emd_loss, soft_hausdorff_loss
from .nn.optim import AdamState, adam_step
from .nn.tensor import Tensor
from .pointset import PointSet
from .rng import Rng

GENERATOR_HIDDEN = 128
DISCRIMINATOR_HIDDEN = (256, 512)


@dataclass(frozen=True)
class GanSpec:
    """Latent width plus the fixed generator/discriminator layer widths."""

    k: int

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k!r}")

    @property
    def generator_widths(self) -> tuple:
        return (GENERATOR_HIDDEN, self.k)

    @property
    def discriminator_widths(self) -> tuple:
        return DISCRIMINATOR_HIDDEN + (1,)


@dataclass(frozen=True)
class LossWeights:
    alpha: float
    beta: float
    recon_kind: str = "hl"  # "hl" | "emd"
    tau: float = 0.01

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError(f"need alpha, beta >= 0 and alpha + beta > 0, got {self}")
        if self.recon_kind not in ("hl", "emd"):
            raise ValueError(f"recon_kind must be 'hl' or 'emd', got {self.recon_kind!r}")


class TrainingMode(str, Enum):
    DEFAULT = "default"
    PARTIAL_AE = "partial_ae"
    EMD_RECON = "emd_recon"
    NO_GAN = "no_gan"
    NO_RECON = "no_recon"
    SUPERVISED_EMD = "supervised_emd"
    SUPERVISED_EMD_GAN = "supervised_emd_gan"


@dataclass(frozen=True)
class ModeSettings:
    weights: LossWeights
    recon_target: str  # "input" | "gt"
    latent_source: str  # "clean" | "partial"

    @property
    def train_disc(self) -> bool:
        """A discriminator is trained exactly when the adversarial term counts."""
        return self.weights.alpha > 0


# mode -> (alpha, beta, recon_kind, recon_target, latent_source)
_MODE_TABLE = {
    TrainingMode.DEFAULT: (0.25, 0.75, "hl", "input", "clean"),
    TrainingMode.PARTIAL_AE: (0.25, 0.75, "hl", "input", "partial"),
    TrainingMode.EMD_RECON: (0.25, 0.75, "emd", "input", "clean"),
    TrainingMode.NO_GAN: (0.0, 1.0, "hl", "input", "clean"),
    TrainingMode.NO_RECON: (1.0, 0.0, "hl", "input", "clean"),
    TrainingMode.SUPERVISED_EMD: (0.0, 1.0, "emd", "gt", "clean"),
    TrainingMode.SUPERVISED_EMD_GAN: (0.25, 0.75, "emd", "gt", "clean"),
}


def mode_settings(mode: TrainingMode, tau: float = 0.01) -> ModeSettings:
    alpha, beta, recon_kind, recon_target, latent_source = _MODE_TABLE[TrainingMode(mode)]
    return ModeSettings(LossWeights(alpha, beta, recon_kind, tau), recon_target, latent_source)


def autoencoder_targets(mode: TrainingMode) -> tuple:
    """The autoencoders a `mode` pipeline runs: clean, and partial if it encodes partials."""
    return ("clean", "partial") if mode_settings(mode).latent_source == "partial" else ("clean",)


def build_generator(spec: GanSpec, rng: Rng | None) -> Network:
    return dense_stack(spec.k, spec.generator_widths, rng, "generator")


def build_discriminator(spec: GanSpec, rng: Rng | None) -> Network:
    return dense_stack(spec.k, spec.discriminator_widths, rng, "discriminator")


# ---- losses ----


def disc_loss(f_real: Tensor, f_fake: Tensor) -> Tensor:
    """Least-squares discriminator objective on raw scores."""
    return ((f_real - 1.0) ** 2.0).mean() + (f_fake**2.0).mean()


def _gen_adv_term(f_fake: Tensor) -> Tensor:
    return ((f_fake - 1.0) ** 2.0).mean()


def gen_loss(f_fake: Tensor | None, anchor, completion: Tensor, w: LossWeights) -> Tensor:
    """Generator objective: alpha * adversarial + beta * reconstruction.

    `anchor` is the cloud the completion must stay close to: the partial
    input in unsupervised modes, the paired ground truth in supervised ones.
    Reconstruction is the soft directed Hausdorff (anchor -> completion) for
    recon_kind="hl", EMD for "emd".
    """
    return _gen_loss_and_hard(f_fake, anchor, completion, w)[0]


def _gen_loss_and_hard(f_fake, anchor, completion, w) -> tuple:
    """(gen_loss, the hard directed Hausdorff anchor -> completion of each
    cloud from the soft one's distances, or None when recon_kind is not
    "hl" or beta is 0, the adversarial term's value, or 0.0 when alpha is 0)."""
    anchor_arr = anchor.points if isinstance(anchor, PointSet) else np.asarray(anchor)
    terms, hard, adv = [], None, 0.0
    if w.alpha > 0:
        if f_fake is None:
            raise ValueError("alpha > 0 requires discriminator scores")
        adv_term = _gen_adv_term(f_fake)
        adv = float(adv_term.data)
        terms.append(w.alpha * adv_term)
    if w.beta > 0:
        if w.recon_kind == "hl":
            recon = soft_hausdorff_loss(anchor_arr, completion, w.tau)
            hard = recon.hard
        else:
            recon = emd_loss(completion, anchor_arr)
        terms.append(w.beta * recon)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total, hard, adv


# ---- pipeline ----


@dataclass
class CompletionPipeline:
    """Frozen AEs plus a trained generator; maps a partial cloud to a
    completion."""

    clean_ae: Autoencoder
    generator: Network
    partial_ae: Autoencoder | None = None  # set when the latent source is the partial AE
    mode: str = TrainingMode.DEFAULT.value

    def source_encoder(self) -> Network:
        if self.partial_ae is not None:
            return self.partial_ae.encoder
        return self.clean_ae.encoder

    def complete_batch(self, partials: np.ndarray) -> np.ndarray:
        """(batch, n, 3) partials -> (batch, n, 3) completions, through
        Network.predict: the BatchNorm running statistics, no graph, and no
        change to any network."""
        return self.complete_codes(self.source_encoder().predict(partials))

    def complete_codes(self, codes: np.ndarray) -> np.ndarray:
        """(batch, k) source-encoder codes -> (batch, n, 3) completions."""
        return self.clean_ae.decode(self.generator.predict(codes))

    def complete(self, partial: PointSet) -> PointSet:
        if partial.n != self.clean_ae.spec.n:
            raise ValueError(f"expected {self.clean_ae.spec.n} points, got {partial.n}")
        return PointSet(self.complete_batch(partial.points[None])[0])


def _mode_pipeline(
    mode: TrainingMode, clean_ae: Autoencoder, partial_ae: Autoencoder | None, generator: Network
) -> CompletionPipeline:
    """The `mode` pipeline around `generator`, which keeps partial_ae exactly
    when the mode runs the partial autoencoder; ValueError if it is missing."""
    mode = TrainingMode(mode).value
    uses_partial = "partial" in autoencoder_targets(mode)
    if uses_partial and partial_ae is None:
        raise ValueError(f"mode {mode} needs a trained partial autoencoder")
    return CompletionPipeline(clean_ae, generator, partial_ae if uses_partial else None, mode)


# ---- training ----


@dataclass
class GanTrainConfig:
    lr: float
    beta1: float
    batch_size: int
    epochs: int
    seed: int = 0
    tau: float = 0.01
    # Only because perfbench/workloads.py passes gan_loss="ls"; the loss is always LSGAN.
    gan_loss: str = "ls"

    def __post_init__(self):
        if self.gan_loss != "ls":
            raise ValueError(f"gan_loss must be 'ls', got {self.gan_loss!r}")


@dataclass
class GanTrainResult:
    pipeline: CompletionPipeline
    discriminator: Network
    curves: list  # one dict per finished epoch, keyed by CURVE_COLUMNS
    diverged: bool = False

    CURVE_COLUMNS = ("epoch", "L_F", "L_G", "hard_HL", "adv_term")


def train_gan(
    clean_clouds,
    partial_clouds,
    mode: TrainingMode,
    cfg: GanTrainConfig,
    *,
    clean_ae: Autoencoder,
    partial_ae: Autoencoder | None = None,
    partial_gt=None,
) -> GanTrainResult:
    """Adversarial training of the latent mapping over frozen autoencoders.

    clean_clouds and partial_clouds are unpaired (batches drawn with
    independent shuffles, clean ones in every mode), and each must hold a
    cloud; partial_gt, aligned with partial_clouds, is used only by the
    supervised modes.  Alternation is one discriminator step then
    one generator step per batch.  On divergence the last finite epoch's
    parameters are restored and training stops early (diverged=True).  The
    encoders run only through Network.predict and the decoder only through
    a frozen view, which holds no BatchNorm, so no parameter or running
    statistic of clean_ae or partial_ae changes.

    Each step does each piece of work once.  The generator runs one forward
    pass, which the discriminator step reads as a constant batch and the
    generator step differentiates.  Each distance matrix is computed once:
    in the soft-Hausdorff modes the curve's hard_HL comes from the loss's
    own distances.  No gradient is computed to be thrown away: the codes and
    the discriminator's batches are constants, and the generator step runs
    through frozen views of the decoder and the discriminator
    (Network.frozen), whose weights receive none.
    """
    settings = mode_settings(mode, tau=cfg.tau)
    clean = np.asarray(clean_clouds, dtype=np.float64)
    partial = np.asarray(partial_clouds, dtype=np.float64)
    if len(clean) == 0 or len(partial) == 0:
        raise ValueError(f"no clouds to train on: {len(clean)} clean, {len(partial)} partial")
    if settings.recon_target == "gt":
        if partial_gt is None:
            raise ValueError(f"mode {TrainingMode(mode).value} needs paired partial_gt clouds")
        gt = np.asarray(partial_gt, dtype=np.float64)
        if gt.shape != partial.shape:
            raise ValueError("partial_gt must align with partial_clouds")
    spec = GanSpec(k=clean_ae.spec.k)

    root = Rng(cfg.seed)
    gen = build_generator(spec, root.spawn(0))
    pipeline = _mode_pipeline(mode, clean_ae, partial_ae, gen)
    disc = build_discriminator(spec, root.spawn(1))
    order_rng = root.spawn(2)
    opt_g = AdamState(lr=cfg.lr, beta1=cfg.beta1)
    opt_d = AdamState(lr=cfg.lr, beta1=cfg.beta1)

    # Encoders are frozen, so latent codes are fixed; compute them once.  Only
    # the discriminator reads clean codes; clean batches are drawn regardless,
    # so the random stream is the same in every mode.
    z_clean = clean_ae.encoder.predict(clean) if settings.train_disc else None
    z_partial = pipeline.source_encoder().predict(partial)
    decoder = clean_ae.decoder.frozen()
    n_pts = clean_ae.spec.n

    curves: list[dict] = []
    snapshot = (gen.param_vector(), disc.param_vector())
    diverged = False
    n_partial, n_clean = partial.shape[0], clean.shape[0]
    # Overflow is caught by the finiteness checks below, which restore the
    # last finite epoch, so numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            p_order = order_rng.permutation(n_partial)
            c_order = order_rng.permutation(n_clean)
            sums = dict.fromkeys(GanTrainResult.CURVE_COLUMNS[1:], 0.0)
            batches = 0
            c_pos = 0
            for start in range(0, n_partial, cfg.batch_size):
                p_sel = p_order[start : start + cfg.batch_size]
                bsz = len(p_sel)
                c_sel = np.empty(bsz, dtype=np.int64)
                for j in range(bsz):  # cycle through the clean pool, reshuffling on wrap
                    if c_pos == n_clean:
                        c_order = order_rng.permutation(n_clean)
                        c_pos = 0
                    c_sel[j] = c_order[c_pos]
                    c_pos += 1
                loss_f_val = 0.0
                try:
                    gen.zero_grad()
                    fake = gen.forward(Tensor(z_partial[p_sel], constant=True))
                    if settings.train_disc:
                        disc.zero_grad()
                        l_f = disc_loss(
                            disc.forward(Tensor(z_clean[c_sel], constant=True)),
                            # the fake batch as a constant, detached from G
                            disc.forward(Tensor(fake.data, constant=True)),
                        )
                        loss_f_val = float(l_f.data)
                        if not np.isfinite(loss_f_val):
                            diverged = True
                            break
                        l_f.backward()
                        disc.set_param_vector(
                            adam_step(opt_d, disc.param_vector(), disc.grad_vector())
                        )

                    f_fake = None
                    if settings.train_disc:
                        # The discriminator as its step left it, with constant weights.
                        f_fake = disc.frozen().forward(fake)
                    # The decoder holds no BatchNorm, so its forward moves no statistic.
                    completion = decoder.forward(fake).reshape(bsz, n_pts, 3)
                    anchor = partial[p_sel] if settings.recon_target == "input" else gt[p_sel]
                    l_g, hard, adv = _gen_loss_and_hard(f_fake, anchor, completion, settings.weights)
                    loss_g_val = float(l_g.data)
                    if not np.isfinite(loss_g_val):
                        diverged = True
                        break
                    l_g.backward()
                    gen.set_param_vector(adam_step(opt_g, gen.param_vector(), gen.grad_vector()))
                except FloatingPointError:
                    diverged = True
                    break

                # Every soft-Hausdorff mode anchors on the input, so its hard
                # distance is the curve's; the other modes compute it here.
                if hard is None:
                    hard = hausdorff_directed_batch(partial[p_sel], completion.data)
                # backward() freed the interior nodes; drop the root and the outputs
                # held here before the next batch's forward builds a graph.
                del fake, f_fake, completion, l_g
                sums["L_F"] += loss_f_val
                sums["L_G"] += loss_g_val
                sums["hard_HL"] += float(np.mean(hard))
                sums["adv_term"] += adv
                batches += 1
            if diverged:
                gen.set_param_vector(snapshot[0])
                disc.set_param_vector(snapshot[1])
                break
            snapshot = (gen.param_vector(), disc.param_vector())
            curves.append(
                {"epoch": epoch + 1, **{k: v / max(batches, 1) for k, v in sums.items()}}
            )
    return GanTrainResult(pipeline=pipeline, discriminator=disc, curves=curves, diverged=diverged)


# ---- persistence ----


def save_gan(
    path,
    result: GanTrainResult,
    *,
    seed: int,
    clean_ae_hash: str,
    partial_ae_hash: str | None = None,
    gan_loss: str = "ls",  # only because perfbench/workloads.py passes it
) -> str:
    """Write the result's checkpoint; partial_ae_hash is recorded only for a
    mode that runs the partial autoencoder, null otherwise.  CheckpointError,
    and no file, where load_gan would reject what would be written."""
    if gan_loss != "ls":
        raise ValueError(f"gan_loss must be 'ls', got {gan_loss!r}")
    pipeline = result.pipeline
    extra = {
        "mode": pipeline.mode,
        "k": pipeline.clean_ae.spec.k,
        "gan_loss": "ls",  # a fixed field of checkpoint format v1
        "clean_ae_hash": clean_ae_hash,
        "partial_ae_hash": (
            partial_ae_hash if "partial" in autoencoder_targets(pipeline.mode) else None
        ),
    }
    _check_gan_extra(path, extra)
    return save_bundle(
        path,
        {"generator": pipeline.generator, "discriminator": result.discriminator},
        kind="latent-gan",
        seed=seed,
        extra=extra,
    )


def _gan_networks(k) -> dict[str, Network]:
    spec = GanSpec(k)  # zero weights, which load_bundle fills
    return dict(generator=build_generator(spec, None), discriminator=build_discriminator(spec, None))


def _check_gan_extra(path, extra: dict) -> None:
    """CheckpointError naming `path` unless extra.mode is a TrainingMode value
    and extra.<target>_ae_hash a string for each autoencoder the mode runs."""
    mode = extra.get("mode")
    if mode not in [m.value for m in TrainingMode]:
        raise CheckpointError(f"{path}: entry extra.mode is {mode!r}, not a training mode")
    for target in autoencoder_targets(mode):
        digest = extra.get(f"{target}_ae_hash")
        if not isinstance(digest, str):
            raise CheckpointError(
                f"{path}: entry extra.{target}_ae_hash is {digest!r}, not a checkpoint hash"
            )


def load_gan(path) -> Bundle:
    """A latent-GAN bundle, its generator and discriminator built from extra.k,
    and its extra checked as save_gan checks it; CheckpointError otherwise."""
    bundle = load_bundle(path, "k", _gan_networks, expect_kind="latent-gan")
    _check_gan_extra(path, bundle.extra)
    return bundle


def assemble_pipeline(
    bundle: Bundle, clean_ae: Autoencoder, partial_ae: Autoencoder | None = None
) -> CompletionPipeline:
    return _mode_pipeline(bundle.extra["mode"], clean_ae, partial_ae, bundle.nets["generator"])
