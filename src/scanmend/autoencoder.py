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

An autoencoder holds no run mode.  Training calls `forward_batch(x,
train=True)`, which normalizes by batch statistics and updates the encoder's
running statistics; every other caller runs `encode`, `decode` or
`reconstruct`, which go through Network.predict and use the running
statistics only, so a trained autoencoder is frozen for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import emd
from .nn.checkpoint import Bundle, load_bundle, save_bundle
from .nn.layers import BatchNorm, MaxPool, Network, PointwiseDense, ReLU, dense_stack
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


class Autoencoder:
    """Encoder + decoder pair."""

    def __init__(self, spec: AutoencoderSpec, rng: Rng):
        self.spec = spec
        self.encoder = _build_encoder(spec, rng)
        self.decoder = dense_stack(spec.k, spec.decoder_widths, rng, "decoder")

    @classmethod
    def from_networks(cls, spec: AutoencoderSpec, encoder: Network, decoder: Network):
        ae = cls.__new__(cls)
        ae.spec = spec
        ae.encoder = encoder
        ae.decoder = decoder
        return ae

    def forward_batch(self, x: Tensor, *, train: bool) -> Tensor:
        """(batch, n, 3) -> reconstructed (batch, n, 3), differentiable, with
        train or infer arithmetic as `train` says."""
        code = self.encoder.forward(x, train=train)
        flat = self.decoder.forward(code, train=train)
        return flat.reshape(flat.data.shape[0], self.spec.n, 3)

    def reconstruct(self, clouds) -> np.ndarray:
        """(batch, n, 3) clouds -> their reconstructions under the running
        statistics, through Network.predict: no graph, and no running
        statistic changes."""
        return self.decode(self.encode(clouds))

    def encode(self, clouds) -> np.ndarray:
        """(batch, n, 3) clouds -> (batch, k) codes, through Network.predict."""
        return self.encoder.predict(_as_batch(clouds, self.spec.n))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """(batch, k) codes -> (batch, n, 3) clouds, through Network.predict."""
        return self.decoder.predict(codes).reshape(-1, self.spec.n, 3)

    def as_single_network(self) -> Network:
        """Layer-sharing view of encoder + decoder: their parameters in one
        flat vector, encoder first, for the optimizer and gradient checks."""
        return Network(self.encoder.layers + self.decoder.layers, name="autoencoder")


def _as_batch(clouds, n: int) -> np.ndarray:
    """Clouds as one (batch, n, 3) float64 array; ValueError on any other shape."""
    if isinstance(clouds, np.ndarray):
        arr = clouds
    else:
        arr = np.stack([c.points if isinstance(c, PointSet) else np.asarray(c) for c in clouds])
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1:
        raise ValueError(f"expected non-empty (batch, n, 3) clouds, got {arr.shape}")
    if arr.shape[1] != n:
        raise ValueError(f"clouds have {arr.shape[1]} points, expected {n}")
    return np.asarray(arr, dtype=np.float64)


def ae_loss(ae: Autoencoder, batch) -> Tensor:
    """Mean EMD between the batch and its train-call reconstructions
    (differentiable)."""
    data = _as_batch(batch, ae.spec.n)
    recon = ae.forward_batch(Tensor(data), train=True)
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
    data = _as_batch(clouds, spec.n)
    root = Rng(cfg.seed)
    ae = Autoencoder(spec, root.spawn(0))
    net = ae.as_single_network()
    order_rng = root.spawn(1)
    opt = AdamState(lr=cfg.lr, beta1=cfg.beta1)
    num = data.shape[0]
    losses: list[float] = []
    # Overflow is caught by the finiteness checks below and reported as one
    # TrainingDivergedError, so numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            idx = order_rng.permutation(num)
            total = 0.0
            for start in range(0, num, cfg.batch_size):
                sel = idx[start : start + cfg.batch_size]
                net.zero_grad()
                try:
                    loss = ae_loss(ae, data[sel])
                    val = float(loss.data)
                    if not np.isfinite(val):
                        raise TrainingDivergedError(
                            f"autoencoder loss became non-finite at epoch {epoch + 1}"
                        )
                    loss.backward()
                    # backward() freed the interior nodes; drop the root too.
                    del loss
                    net.set_param_vector(adam_step(opt, net.param_vector(), net.grad_vector()))
                except FloatingPointError as e:
                    raise TrainingDivergedError(
                        f"autoencoder training diverged at epoch {epoch + 1}: {e}"
                    ) from e
                total += val * len(sel)
            losses.append(total / num)
    return ae, losses


def reconstruction_emd(ae: Autoencoder, clouds) -> float:
    """Mean reconstruction EMD over a collection of clouds, through
    Autoencoder.reconstruct."""
    data = _as_batch(clouds, ae.spec.n)
    recon = ae.reconstruct(data)
    return float(np.array([emd(r, d)[0] for r, d in zip(recon, data)]).mean())


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
    return ae, bundle
