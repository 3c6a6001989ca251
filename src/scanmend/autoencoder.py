"""Point-set autoencoders: permutation-invariant encoder, dense decoder.

The encoder applies five shared per-point MLP layers (filters 64, 128, 128,
256, k), each followed by batch normalization and ReLU, then a feature-wise
maximum over points that yields the k-dim latent code and makes the encoding
exactly permutation invariant.  The decoder maps the code through fully
connected layers of 256, 256 and 3n neurons back to a cloud of n points.
Training minimizes the mean EMD between inputs and reconstructions.

Batch normalization is applied to all five encoder layers, including the
final one before the max; with `linear=True` a stripped-down variant (single
linear per-point layer + max, single linear decoder) is available as a
capacity sanity check that can memorize a single shape when k >= 3n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn.checkpoint import Bundle, load_bundle, save_bundle
from .nn.layers import BatchNorm, Dense, MaxPool, Network, PointwiseDense, ReLU
from .nn.lossops import emd_loss
from .nn.optim import AdamState, adam_step
from .nn.tensor import Tensor
from .pointset import PointSet
from .rng import Rng

ENCODER_FILTERS = (64, 128, 128, 256)  # fifth filter bank is the latent width k
DECODER_HIDDEN = (256, 256)

# Optimizer values of the reference training setup.
PAPER_AE_LR = 0.0005
PAPER_AE_BETA1 = 0.9
PAPER_AE_BATCH = 200
PAPER_AE_EPOCHS = 2000


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class AutoencoderSpec:
    """Shape of one autoencoder: n points per cloud, k-dim latent."""

    n: int
    k: int
    linear: bool = False

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be positive, got n={self.n} k={self.k}")

    @property
    def encoder_widths(self) -> tuple:
        if self.linear:
            return (self.k,)
        return ENCODER_FILTERS + (self.k,)

    @property
    def decoder_widths(self) -> tuple:
        if self.linear:
            return (3 * self.n,)
        return DECODER_HIDDEN + (3 * self.n,)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "linear": self.linear}

    @staticmethod
    def from_dict(d: dict) -> "AutoencoderSpec":
        return AutoencoderSpec(n=int(d["n"]), k=int(d["k"]), linear=bool(d.get("linear", False)))


@dataclass(frozen=True)
class LatentCode:
    """A k-dim encoder output."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("latent code must be finite")
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.size


def _build_encoder(spec: AutoencoderSpec, rng: Rng) -> Network:
    layers: list = []
    prev = 3
    if spec.linear:
        layers.append(PointwiseDense(prev, spec.k, rng, init="xavier"))
    else:
        for width in spec.encoder_widths:
            layers.append(PointwiseDense(prev, width, rng, init="kaiming"))
            layers.append(BatchNorm(width))
            layers.append(ReLU())
            prev = width
    layers.append(MaxPool())
    return Network(layers, name="encoder")


def _build_decoder(spec: AutoencoderSpec, rng: Rng) -> Network:
    layers: list = []
    prev = spec.k
    widths = spec.decoder_widths
    for width in widths[:-1]:
        layers.append(Dense(prev, width, rng, init="kaiming"))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, widths[-1], rng, init="xavier"))
    return Network(layers, name="decoder")


class Autoencoder:
    """Encoder + decoder pair with shared train/infer mode."""

    def __init__(self, spec: AutoencoderSpec, rng: Rng):
        self.spec = spec
        self.encoder = _build_encoder(spec, rng)
        self.decoder = _build_decoder(spec, rng)

    @classmethod
    def from_networks(cls, spec: AutoencoderSpec, encoder: Network, decoder: Network):
        ae = cls.__new__(cls)
        ae.spec = spec
        ae.encoder = encoder
        ae.decoder = decoder
        return ae

    def train(self) -> "Autoencoder":
        self.encoder.train()
        self.decoder.train()
        return self

    def infer(self) -> "Autoencoder":
        self.encoder.infer()
        self.decoder.infer()
        return self

    def zero_grad(self) -> None:
        self.encoder.zero_grad()
        self.decoder.zero_grad()

    def param_vector(self) -> np.ndarray:
        return np.concatenate([self.encoder.param_vector(), self.decoder.param_vector()])

    def grad_vector(self) -> np.ndarray:
        return np.concatenate([self.encoder.grad_vector(), self.decoder.grad_vector()])

    def set_param_vector(self, vec: np.ndarray) -> None:
        cut = self.encoder.param_vector().size
        self.encoder.set_param_vector(vec[:cut])
        self.decoder.set_param_vector(vec[cut:])

    def forward_batch(self, x: Tensor) -> Tensor:
        """(batch, n, 3) -> reconstructed (batch, n, 3), differentiable."""
        code = self.encoder.forward(x)
        flat = self.decoder.forward(code)
        return flat.reshape(flat.data.shape[0], self.spec.n, 3)

    def as_single_network(self) -> Network:
        """Layer-sharing view of encoder + decoder for gradient checks."""
        return Network(self.encoder.layers + self.decoder.layers, name="autoencoder")


def encode(ae: Autoencoder, pset: PointSet) -> LatentCode:
    """Infer-mode latent code of one cloud; exactly permutation invariant."""
    if pset.n != ae.spec.n:
        raise ValueError(f"expected {ae.spec.n} points, got {pset.n}")
    mode = ae.encoder.mode
    ae.encoder.infer()
    try:
        out = ae.encoder.forward(Tensor(pset.points[None]))
    finally:
        ae.encoder.mode = mode
    return LatentCode(out.data[0].copy())


def decode(ae: Autoencoder, z: LatentCode) -> PointSet:
    """Infer-mode decoding of a latent code to a cloud of exactly n points."""
    values = z.values if isinstance(z, LatentCode) else np.asarray(z, dtype=np.float64)
    if values.size != ae.spec.k:
        raise ValueError(f"latent length {values.size}, expected {ae.spec.k}")
    mode = ae.decoder.mode
    ae.decoder.infer()
    try:
        out = ae.decoder.forward(Tensor(values.reshape(1, -1)))
    finally:
        ae.decoder.mode = mode
    return PointSet(out.data.reshape(ae.spec.n, 3))


def _as_batch(clouds) -> np.ndarray:
    if isinstance(clouds, np.ndarray):
        arr = clouds
    else:
        arr = np.stack([c.points if isinstance(c, PointSet) else np.asarray(c) for c in clouds])
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1:
        raise ValueError(f"expected non-empty (batch, n, 3) clouds, got {arr.shape}")
    return np.asarray(arr, dtype=np.float64)


def ae_loss(ae: Autoencoder, batch) -> Tensor:
    """Mean EMD between the batch and its reconstructions (differentiable)."""
    data = _as_batch(batch)
    if data.shape[1] != ae.spec.n:
        raise ValueError(f"clouds have {data.shape[1]} points, expected {ae.spec.n}")
    recon = ae.forward_batch(Tensor(data))
    return emd_loss(recon, data)


@dataclass
class AeTrainConfig:
    lr: float = PAPER_AE_LR
    beta1: float = PAPER_AE_BETA1
    batch_size: int = PAPER_AE_BATCH
    epochs: int = PAPER_AE_EPOCHS
    seed: int = 0


def train_ae(clouds, spec: AutoencoderSpec, cfg: AeTrainConfig) -> tuple[Autoencoder, list]:
    """Train an autoencoder on normalized clouds; returns (ae, per-epoch loss).

    Deterministic under a fixed config: initialization and batch order derive
    from cfg.seed only.  Raises TrainingDivergedError on a non-finite loss.
    """
    data = _as_batch(clouds)
    if data.shape[1] != spec.n:
        raise ValueError(f"dataset clouds have {data.shape[1]} points, expected {spec.n}")
    root = Rng(cfg.seed)
    ae = Autoencoder(spec, root.spawn(0))
    ae.train()
    order_rng = root.spawn(1)
    opt = AdamState(lr=cfg.lr, beta1=cfg.beta1)
    num = data.shape[0]
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        idx = order_rng.permutation(num)
        total = 0.0
        for start in range(0, num, cfg.batch_size):
            sel = idx[start : start + cfg.batch_size]
            ae.zero_grad()
            try:
                loss = ae_loss(ae, data[sel])
                val = float(loss.data)
                if not np.isfinite(val):
                    raise TrainingDivergedError(
                        f"autoencoder loss became non-finite at epoch {epoch + 1}"
                    )
                loss.backward()
                del loss  # free this step's graph before the next forward
                ae.set_param_vector(adam_step(opt, ae.param_vector(), ae.grad_vector()))
            except FloatingPointError as e:
                raise TrainingDivergedError(
                    f"autoencoder training diverged at epoch {epoch + 1}: {e}"
                ) from e
            total += val * len(sel)
        losses.append(total / num)
    ae.infer()
    return ae, losses


def reconstruction_emd(ae: Autoencoder, clouds) -> float:
    """Mean infer-mode reconstruction EMD over a collection of clouds."""
    data = _as_batch(clouds)
    mode = ae.encoder.mode
    ae.infer()
    try:
        loss = ae_loss(ae, data)
    finally:
        if mode == "train":
            ae.train()
    return float(loss.data)


def save_autoencoder(path, ae: Autoencoder, *, seed: int, optimizer: AdamState | None = None) -> str:
    opts = {"ae": optimizer} if optimizer is not None else None
    return save_bundle(
        path,
        {"encoder": ae.encoder, "decoder": ae.decoder},
        kind="autoencoder",
        seed=seed,
        optimizers=opts,
        extra={"spec": ae.spec.as_dict()},
    )


def load_autoencoder(path) -> tuple[Autoencoder, Bundle]:
    bundle = load_bundle(path, expect_kind="autoencoder")
    spec = AutoencoderSpec.from_dict(bundle.extra["spec"])
    ae = Autoencoder.from_networks(spec, bundle.nets["encoder"], bundle.nets["decoder"])
    ae.infer()
    return ae, bundle
