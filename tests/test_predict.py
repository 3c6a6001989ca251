"""Network.predict, the graph-free inference path, against Network.forward.

predict must return the output of forward(x, train=False) bit for bit on
every network the system builds and on ad-hoc stacks, whatever the input's
memory layout and whatever the tile size of a point block, and must leave
its input and the max-pool tie count as they were.  The inference callers
(completion, reconstruction EMD, the incompleteness sweep) must build no
Tensor at all, and the encoder's tiles bound its working set.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanmend.autoencoder import Autoencoder, AutoencoderSpec, reconstruction_emd
from scanmend.gan import CompletionPipeline, GanSpec, build_discriminator, build_generator
from scanmend.metrics import incompleteness_sweep
from scanmend.nn import layers as layers_module
from scanmend.nn.layers import BatchNorm, Dense, MaxPool, Network, PointwiseDense, ReLU
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng

K = 5  # latent width of the built networks


def _build(kind: str, rng: Rng) -> tuple:
    """(network, input feature width, whether the input has a points axis)."""
    if kind in ("encoder", "linear_encoder", "decoder"):
        ae = Autoencoder(AutoencoderSpec(n=4, k=K, linear=kind == "linear_encoder"), rng)
        return (ae.decoder, K, False) if kind == "decoder" else (ae.encoder, 3, True)
    if kind == "generator":
        return build_generator(GanSpec(k=K), rng), K, False
    if kind == "discriminator":
        return build_discriminator(GanSpec(k=K), rng), K, False
    layers = {
        # BatchNorm without its ReLU, twice: no triple fuses
        "unfused": lambda: [PointwiseDense(3, 4, rng), BatchNorm(4),
                            PointwiseDense(4, 6, rng), BatchNorm(6), MaxPool()],
        # widths differ, so the triple runs layer by layer and BatchNorm rejects it
        "mismatched": lambda: [PointwiseDense(3, 4, rng), BatchNorm(6), ReLU(), MaxPool()],
        # two triples fuse, but the second GEMM rejects the first one's output
        "mismatched_chain": lambda: [PointwiseDense(3, 4, rng), BatchNorm(4), ReLU(),
                                     PointwiseDense(5, 6, rng), BatchNorm(6), ReLU(), MaxPool()],
        "leading_relu": lambda: [ReLU(), PointwiseDense(3, 4, rng), BatchNorm(4), ReLU(),
                                 MaxPool()],
        "leading_batchnorm": lambda: [BatchNorm(3), PointwiseDense(3, 4, rng), BatchNorm(4),
                                      ReLU(), MaxPool(), Dense(4, 2, rng)],
    }[kind]()
    return Network(layers, name=kind), 3, True


def _perturb(net: Network, rng: Rng) -> None:
    """Move biases and BatchNorm statistics off their initial values, so that
    running statistics and batch statistics give different outputs."""
    for layer in net.layers:
        if isinstance(layer, Dense):
            layer.b.data = rng.normal(layer.n_out)
        elif isinstance(layer, BatchNorm):
            layer.gamma.data = rng.normal(layer.width) * 2.0
            layer.beta.data = rng.normal(layer.width)
            layer.running_mean = rng.normal(layer.width)
            layer.running_var = rng.uniform(layer.width) + 0.1
        elif isinstance(layer, MaxPool):
            layer.last_tie_count = -1


def _same(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


KINDS = ["encoder", "linear_encoder", "decoder", "generator", "discriminator",
         "unfused", "mismatched", "mismatched_chain", "leading_relu", "leading_batchnorm"]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    batch=st.integers(1, 12),
    points=st.integers(1, 6),
    layout=st.sampled_from(["contiguous", "strided", "fortran", "readonly"]),
    tile_rows=st.sampled_from([1, 2, 7, layers_module._TILE_ROWS]),
    seed=st.integers(0, 2**16),
)
@example(kind="leading_relu", batch=2, points=3, layout="readonly", tile_rows=2, seed=1)
@example(kind="leading_batchnorm", batch=1, points=1, layout="strided", tile_rows=512, seed=2)
@example(kind="encoder", batch=3, points=6, layout="fortran", tile_rows=7, seed=3)
@example(kind="encoder", batch=2, points=1, layout="contiguous", tile_rows=1, seed=4)
@example(kind="encoder", batch=12, points=5, layout="strided", tile_rows=7, seed=5)
@example(kind="mismatched_chain", batch=4, points=3, layout="contiguous", tile_rows=2, seed=6)
def test_predict_bit_identical_to_infer_forward(kind, batch, points, layout, tile_rows, seed):
    # A point block's predict runs in tiles of whole clouds of at most
    # tile_rows rows, one cloud when a cloud has more; forward never tiles.
    with mock.patch.object(layers_module, "_TILE_ROWS", tile_rows):
        _check_predict(kind, batch, points, layout, seed)


def _check_predict(kind, batch, points, layout, seed):
    rng = Rng(seed)
    net, width, has_points = _build(kind, rng)
    _perturb(net, rng)
    shape = (batch, points, width) if has_points else (batch, width)
    x = rng.normal(shape[:-1] + (2 * width,)) * 2.0  # mixed signs, for the leading ReLU
    x = x[..., ::2] if layout == "strided" else x[..., :width]
    if layout == "fortran":
        x = np.asfortranarray(x)
    x.flags.writeable = layout != "readonly"
    before = x.copy()

    if kind.startswith("mismatched"):
        with pytest.raises(ValueError) as got:
            net.predict(x)
        with pytest.raises(ValueError) as want:
            net.forward(Tensor(x), train=False)
        assert str(got.value) == str(want.value)
        return
    got = net.predict(x)
    assert _same(x, before) and x.flags.writeable == (layout != "readonly")
    assert all(l.last_tie_count == -1 for l in net.layers if isinstance(l, MaxPool))
    assert _same(got, net.forward(Tensor(x), train=False).data)


def test_encoder_predict_working_set_is_bounded():
    # 24 clouds of 128 points: whole-batch layer outputs would be 6 MiB each
    # (3,072 rows of 256 float64); 512-row tiles peak at about 2 MiB.
    ae = Autoencoder(AutoencoderSpec(n=128, k=16), Rng(40))
    clouds = Rng(41).normal((24, 128, 3))
    tracemalloc.start()
    try:
        ae.encoder.predict(clouds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _counting_tensors(monkeypatch) -> list:
    count = [0]
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    return count


def test_inference_callers_build_no_tensor(monkeypatch):
    rng = Rng(30)
    ae = Autoencoder(AutoencoderSpec(n=16, k=K), rng.spawn(0))
    partial_ae = Autoencoder(AutoencoderSpec(n=16, k=K), rng.spawn(1))
    gen = build_generator(GanSpec(k=K), rng.spawn(2))
    clouds = rng.normal((4, 16, 3)) * 0.3
    want = ae.forward_batch(Tensor(clouds), train=False).data

    count = _counting_tensors(monkeypatch)
    assert _same(ae.reconstruct(clouds), want)
    for source in (None, partial_ae):
        pipeline = CompletionPipeline(clean_ae=ae, generator=gen, partial_ae=source)
        pipeline.complete_batch(clouds)
        reconstruction_emd(ae, clouds)
        incompleteness_sweep(pipeline, ae, clouds, [0.1, 0.3], seed=4)
    assert count[0] == 0
    Tensor(np.zeros(1))  # the counter is live
    assert count[0] == 1
