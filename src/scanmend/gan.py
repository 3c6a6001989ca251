"""Latent-space mapping GAN and the completion pipeline.

A generator maps partial-shape latent codes to clean-shape latent codes; a
discriminator scores codes as real (from clean shapes) or fake (generated).
Default training is least-squares adversarial plus a directed-Hausdorff
anchor that keeps the decoded completion consistent with the partial input:

    L_F = mean[(F(real) - 1)^2] + mean[F(fake)^2]
    L_G = alpha * mean[(F(fake) - 1)^2] + beta * L_recon(input -> completion)

with alpha = 0.25 and beta = 0.75.  The autoencoders are pretrained and
frozen: gradients flow through the decoder weights but only the generator
and discriminator are updated.  Ablation and supervised variants are driven
entirely by TrainingMode.  The classic log-loss min-max objective is kept
behind gan_loss="log" (sigmoid discriminator, saturating generator term).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autoencoder import Autoencoder
from .distances import hausdorff_directed_batch
from .nn.checkpoint import Bundle, load_bundle, save_bundle
from .nn.layers import Dense, Network, ReLU
from .nn.lossops import emd_loss, soft_hausdorff_loss
from .nn.optim import AdamState, adam_step
from .nn.tensor import Tensor
from .pointset import PointSet
from .rng import Rng

GENERATOR_HIDDEN = 128
DISCRIMINATOR_HIDDEN = (256, 512)

PAPER_GAN_LR = 0.0001
PAPER_GAN_BETA1 = 0.5
PAPER_GAN_BATCH = 24
PAPER_GAN_EPOCHS = 1000


@dataclass(frozen=True)
class GanSpec:
    """Latent width plus the fixed generator/discriminator layer widths."""

    k: int

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
    train_disc: bool


def mode_settings(mode: TrainingMode, tau: float = 0.01) -> ModeSettings:
    mode = TrainingMode(mode)
    table = {
        TrainingMode.DEFAULT: (LossWeights(0.25, 0.75, "hl", tau), "input", "clean", True),
        TrainingMode.PARTIAL_AE: (LossWeights(0.25, 0.75, "hl", tau), "input", "partial", True),
        TrainingMode.EMD_RECON: (LossWeights(0.25, 0.75, "emd", tau), "input", "clean", True),
        TrainingMode.NO_GAN: (LossWeights(0.0, 1.0, "hl", tau), "input", "clean", False),
        TrainingMode.NO_RECON: (LossWeights(1.0, 0.0, "hl", tau), "input", "clean", True),
        TrainingMode.SUPERVISED_EMD: (LossWeights(0.0, 1.0, "emd", tau), "gt", "clean", False),
        TrainingMode.SUPERVISED_EMD_GAN: (
            LossWeights(0.25, 0.75, "emd", tau),
            "gt",
            "clean",
            True,
        ),
    }
    return ModeSettings(*table[mode])


def build_generator(spec: GanSpec, rng: Rng) -> Network:
    return Network(
        [
            Dense(spec.k, GENERATOR_HIDDEN, rng, init="kaiming"),
            ReLU(),
            Dense(GENERATOR_HIDDEN, spec.k, rng, init="xavier"),
        ],
        name="generator",
    )


def build_discriminator(spec: GanSpec, rng: Rng) -> Network:
    w1, w2 = DISCRIMINATOR_HIDDEN
    return Network(
        [
            Dense(spec.k, w1, rng, init="kaiming"),
            ReLU(),
            Dense(w1, w2, rng, init="kaiming"),
            ReLU(),
            Dense(w2, 1, rng, init="xavier"),
        ],
        name="discriminator",
    )


# ---- losses ----


def disc_loss(f_real: Tensor, f_fake: Tensor, kind: str = "ls") -> Tensor:
    """Discriminator objective on raw scores: least-squares by default."""
    if kind == "ls":
        return ((f_real - 1.0) ** 2.0).mean() + (f_fake**2.0).mean()
    if kind == "log":
        eps = 1e-12
        return -((f_real.sigmoid() + eps).log()).mean() - (
            (1.0 - f_fake.sigmoid() + eps).log()
        ).mean()
    raise ValueError(f"unknown gan loss kind {kind!r}")


def _gen_adv_term(f_fake: Tensor, kind: str) -> Tensor:
    if kind == "ls":
        return ((f_fake - 1.0) ** 2.0).mean()
    if kind == "log":  # saturating min-max form
        return ((1.0 - f_fake.sigmoid() + 1e-12).log()).mean()
    raise ValueError(f"unknown gan loss kind {kind!r}")


def gen_loss(
    f_fake: Tensor | None,
    anchor,
    completion: Tensor,
    w: LossWeights,
    kind: str = "ls",
) -> Tensor:
    """Generator objective: alpha * adversarial + beta * reconstruction.

    `anchor` is the cloud the completion must stay close to: the partial
    input in unsupervised modes, the paired ground truth in supervised ones.
    Reconstruction is the soft directed Hausdorff (anchor -> completion) for
    recon_kind="hl", EMD for "emd".
    """
    anchor_arr = anchor.points if isinstance(anchor, PointSet) else np.asarray(anchor)
    terms = []
    if w.alpha > 0:
        if f_fake is None:
            raise ValueError("alpha > 0 requires discriminator scores")
        terms.append(w.alpha * _gen_adv_term(f_fake, kind))
    if w.beta > 0:
        if w.recon_kind == "hl":
            recon = soft_hausdorff_loss(anchor_arr, completion, w.tau)
        else:
            recon = emd_loss(completion, anchor_arr)
        terms.append(w.beta * recon)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


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
        """(batch, n, 3) partials -> (batch, n, 3) completions (infer mode)."""
        enc = self.source_encoder()
        enc.infer()
        self.generator.infer()
        self.clean_ae.decoder.infer()
        codes = enc.forward(Tensor(np.asarray(partials, dtype=np.float64)))
        mapped = self.generator.forward(codes)
        flat = self.clean_ae.decoder.forward(mapped)
        n = self.clean_ae.spec.n
        return flat.data.reshape(-1, n, 3).copy()

    def complete(self, partial: PointSet) -> PointSet:
        if partial.n != self.clean_ae.spec.n:
            raise ValueError(f"expected {self.clean_ae.spec.n} points, got {partial.n}")
        return PointSet(self.complete_batch(partial.points[None])[0])


def complete(pipeline: CompletionPipeline, partial: PointSet) -> PointSet:
    return pipeline.complete(partial)


# ---- training ----


@dataclass
class GanTrainConfig:
    lr: float = PAPER_GAN_LR
    beta1: float = PAPER_GAN_BETA1
    batch_size: int = PAPER_GAN_BATCH
    epochs: int = PAPER_GAN_EPOCHS
    seed: int = 0
    tau: float = 0.01
    gan_loss: str = "ls"  # "ls" | "log"
    # Generator step size for the modes that train no discriminator (pure
    # regression objectives).  Adversarial step-size limits do not apply
    # there, and at short step budgets EMD regression stalls in a mean-shape
    # plateau below them.  None means: use lr.
    lr_regression: float | None = None


@dataclass
class GanTrainResult:
    pipeline: CompletionPipeline
    discriminator: Network
    curves: list  # rows: {"epoch", "L_F", "L_G", "hard_HL", "adv_term"}
    diverged: bool = False


def _encode_all(encoder: Network, clouds: np.ndarray) -> np.ndarray:
    encoder.infer()
    return encoder.forward(Tensor(clouds)).data.copy()


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
    independent shuffles); partial_gt, aligned with partial_clouds, is used
    only by the supervised modes.  Alternation is one discriminator step then
    one generator step per batch.  On divergence the last finite epoch's
    parameters are restored and training stops early (diverged=True).
    """
    settings = mode_settings(mode, tau=cfg.tau)
    clean = np.asarray(clean_clouds, dtype=np.float64)
    partial = np.asarray(partial_clouds, dtype=np.float64)
    if settings.recon_target == "gt":
        if partial_gt is None:
            raise ValueError(f"mode {TrainingMode(mode).value} needs paired partial_gt clouds")
        gt = np.asarray(partial_gt, dtype=np.float64)
        if gt.shape != partial.shape:
            raise ValueError("partial_gt must align with partial_clouds")
    if settings.latent_source == "partial":
        if partial_ae is None:
            raise ValueError("mode partial_ae needs a trained partial autoencoder")
        source_enc = partial_ae.encoder
    else:
        source_enc = clean_ae.encoder
    clean_ae.infer()
    if partial_ae is not None:
        partial_ae.infer()
    spec = GanSpec(k=clean_ae.spec.k)

    root = Rng(cfg.seed)
    gen = build_generator(spec, root.spawn(0))
    disc = build_discriminator(spec, root.spawn(1))
    order_rng = root.spawn(2)
    gen_lr = cfg.lr if settings.train_disc else (cfg.lr_regression or cfg.lr)
    opt_g = AdamState(lr=gen_lr, beta1=cfg.beta1)
    opt_d = AdamState(lr=cfg.lr, beta1=cfg.beta1)

    # Encoders are frozen, so latent codes are fixed; compute them once.
    z_clean = _encode_all(clean_ae.encoder, clean)
    z_partial = _encode_all(source_enc, partial)
    decoder = clean_ae.decoder
    n_pts = clean_ae.spec.n

    curves: list[dict] = []
    snapshot = (gen.param_vector(), disc.param_vector())
    diverged = False
    n_partial, n_clean = partial.shape[0], clean.shape[0]
    for epoch in range(cfg.epochs):
        p_order = order_rng.permutation(n_partial)
        c_order = order_rng.permutation(n_clean)
        sums = {"L_F": 0.0, "L_G": 0.0, "hard_HL": 0.0, "adv_term": 0.0}
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
            zr = Tensor(z_partial[p_sel])
            loss_f_val = 0.0
            try:
                if settings.train_disc:
                    fake_codes = gen.forward(zr).data.copy()  # detached from G
                    disc.zero_grad()
                    l_f = disc_loss(
                        disc.forward(Tensor(z_clean[c_sel])),
                        disc.forward(Tensor(fake_codes)),
                        kind=cfg.gan_loss,
                    )
                    loss_f_val = float(l_f.data)
                    if not np.isfinite(loss_f_val):
                        diverged = True
                        break
                    l_f.backward()
                    disc.set_param_vector(
                        adam_step(opt_d, disc.param_vector(), disc.grad_vector())
                    )

                gen.zero_grad()
                disc.zero_grad()
                decoder.zero_grad()
                fake = gen.forward(zr)
                f_fake = disc.forward(fake) if settings.weights.alpha > 0 else None
                completion = decoder.forward(fake).reshape(bsz, n_pts, 3)
                anchor = partial[p_sel] if settings.recon_target == "input" else gt[p_sel]
                l_g = gen_loss(f_fake, anchor, completion, settings.weights, kind=cfg.gan_loss)
                loss_g_val = float(l_g.data)
                if not np.isfinite(loss_g_val):
                    diverged = True
                    break
                l_g.backward()
                gen.set_param_vector(adam_step(opt_g, gen.param_vector(), gen.grad_vector()))
            except FloatingPointError:
                diverged = True
                break

            hard = np.mean(hausdorff_directed_batch(partial[p_sel], completion.data))
            adv = float(_gen_adv_term(f_fake, cfg.gan_loss).data) if f_fake is not None else 0.0
            # Free this step's graph before the next batch's forward builds one.
            del fake, f_fake, completion, l_g
            sums["L_F"] += loss_f_val
            sums["L_G"] += loss_g_val
            sums["hard_HL"] += float(hard)
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
    pipeline = CompletionPipeline(
        clean_ae=clean_ae,
        generator=gen,
        partial_ae=partial_ae if settings.latent_source == "partial" else None,
        mode=TrainingMode(mode).value,
    )
    return GanTrainResult(pipeline=pipeline, discriminator=disc, curves=curves, diverged=diverged)


# ---- persistence ----


def save_gan(
    path,
    result_or_pipeline,
    *,
    seed: int,
    clean_ae_hash: str,
    partial_ae_hash: str | None = None,
    gan_loss: str = "ls",
) -> str:
    if isinstance(result_or_pipeline, GanTrainResult):
        pipeline = result_or_pipeline.pipeline
        nets = {"generator": pipeline.generator, "discriminator": result_or_pipeline.discriminator}
    else:
        pipeline = result_or_pipeline
        nets = {"generator": pipeline.generator}
    return save_bundle(
        path,
        nets,
        kind="latent-gan",
        seed=seed,
        extra={
            "mode": pipeline.mode,
            "k": pipeline.clean_ae.spec.k,
            "gan_loss": gan_loss,
            "clean_ae_hash": clean_ae_hash,
            "partial_ae_hash": partial_ae_hash,
        },
    )


def load_gan(path) -> Bundle:
    return load_bundle(path, expect_kind="latent-gan")


def assemble_pipeline(
    bundle: Bundle, clean_ae: Autoencoder, partial_ae: Autoencoder | None = None
) -> CompletionPipeline:
    mode = bundle.extra.get("mode", TrainingMode.DEFAULT.value)
    needs_partial = mode_settings(mode).latent_source == "partial"
    if needs_partial and partial_ae is None:
        raise ValueError(f"mode {mode} requires the partial autoencoder")
    return CompletionPipeline(
        clean_ae=clean_ae,
        generator=bundle.nets["generator"],
        partial_ae=partial_ae if needs_partial else None,
        mode=mode,
    )
