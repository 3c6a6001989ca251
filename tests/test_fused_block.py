"""The fused point block against the layers it runs.

The reference below is the three-node training form the encoder ran before
each PointwiseDense -> BatchNorm -> ReLU triple became one node: the
flattened GEMM with the bias added in place, the BatchNorm batch-statistics
arithmetic, and ReLU with its mask taken from the output.  Network.forward
always trains (it hands every layer train=True), so that is the only form.
A point block runs a whole run of triples; it must equal the reference
chained triple by triple, bit for bit, forward and backward, at every tile
size of its training forward.  The block's predict is held to the layers'
own predict in tests/test_predict.py.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanmend.autoencoder import AeTrainConfig, AutoencoderSpec, save_autoencoder, train_ae
from scanmend.gan import GanTrainConfig, TrainingMode, train_gan
from scanmend.nn import layers as layers_module
from scanmend.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    MaxPool,
    Network,
    PointBlock,
    PointwiseDense,
    ReLU,
)
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng
from scanmend.synth import generate_shape, sample_params

# Rows per point-block tile: one cloud per tile, a few clouds, and the default.
TILE_ROWS = [1, 2, 7, layers_module._TILE_ROWS]


def _reference(x, w, b, gamma, beta, mean, var, g):
    """The three-node form: (output, running mean, running var, grads of
    x, w, b, gamma, beta) for the output gradient g."""
    n_in, c = w.shape
    # PointwiseDense: flattened GEMM, bias added in place.
    flat = np.ascontiguousarray(x).reshape(-1, n_in)
    h = flat @ w
    h += b
    h = h.reshape(x.shape[:-1] + (c,))
    m = h.size // c
    mu = h.reshape(m, c).mean(axis=0)
    xhat = h - mu
    bvar = np.einsum("ij,ij->j", xhat.reshape(m, c), xhat.reshape(m, c)) / m
    mean = BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * mu
    var = BN_MOMENTUM * var + (1 - BN_MOMENTUM) * bvar
    inv = 1.0 / np.sqrt(bvar + BN_EPS)
    xhat *= inv
    ybn = xhat * gamma
    ybn += beta
    y = np.maximum(ybn, 0.0)
    # ReLU backward, mask from its output.
    gr = g * (y > 0.0)
    dy = gr.reshape(m, c)
    xh = xhat.reshape(m, c)
    dbeta = dy.sum(axis=0)
    dgamma = np.einsum("ij,ij->j", dy, xh)
    dxhat = dy * gamma
    c1 = dxhat.mean(axis=0)
    c2 = np.einsum("ij,ij->j", dxhat, xh) / m
    dxhat -= c1
    dxhat -= xh * c2
    dxhat *= inv
    gh = dxhat.reshape(h.shape)
    g2 = np.ascontiguousarray(gh).reshape(-1, c)
    dx = (g2 @ w.T).reshape(x.shape)
    return y, mean, var, dx, flat.T @ g2, g2.sum(axis=0), dgamma, dbeta


def _same(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _check_run(batch, points, n_in, widths, layout, reshaped, seed):
    """A Network of one PointwiseDense -> BatchNorm -> ReLU triple per width
    against the reference chained triple by triple: output, running
    statistics and every gradient, bit for bit."""
    rng = Rng(seed)
    layers, triples, prev = [], [], n_in
    for width in widths:
        dense, bn = PointwiseDense(prev, width, rng), BatchNorm(width)
        dense.b.data = rng.normal(width)
        bn.gamma.data = rng.normal(width) * 2.0
        bn.beta.data = rng.normal(width)
        bn.running_mean = rng.normal(width)
        bn.running_var = rng.uniform(width) + 0.1
        layers += [dense, bn, ReLU()]
        triples.append((dense, bn))
        prev = width
    net = Network(layers)
    data = rng.normal((batch, 2 * points, n_in)) * 3.0 + 0.5
    if layout == "strided":
        data = data[:, ::2]
    else:
        data = data[:, :points]
        if layout == "fortran":
            data = np.asfortranarray(data)
    g = rng.normal((batch, points, widths[-1]))
    g[rng.uniform((batch, points, widths[-1])) < 0.2] = 0.0

    # Reference forward, triple by triple from the stored statistics; then
    # backward in reverse, each triple's input gradient the previous one's
    # output gradient.  _reference recomputes its forward for the backward.
    args = [
        (dense.w.data, dense.b.data, bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var)
        for dense, bn in triples
    ]
    inputs, stats = [data], []
    for a in args:
        y, mean, var = _reference(inputs[-1], *a, np.zeros(a[0].shape[1]))[:3]
        inputs.append(y)
        stats.append((mean, var))
    grads, up = [], g
    for x_j, a in reversed(list(zip(inputs, args))):
        dx, dw, db, dgamma, dbeta = _reference(x_j, *a, up)[3:]
        grads.append((dw, db, dgamma, dbeta))
        up = dx
    grads.reverse()

    x = Tensor(data)
    out = net.forward(x)
    # The triples run as one node.
    assert out._parents == (x, *[t for d, b in triples for t in (d.w, d.b, b.gamma, b.beta)])
    if reshaped:
        # The consumer passes its own gradient array through a reshape; the
        # block's backward must leave that array as it was.
        consumer = out.reshape(batch, points * widths[-1])
        up = g.reshape(batch, points * widths[-1]).copy()
        consumer.backward(up)
        assert consumer.grad is up and _same(up, g.reshape(batch, points * widths[-1]))
    else:
        out.backward(g.copy())
    assert _same(out.data, inputs[-1]), "output"
    assert _same(x.grad, dx), "x grad"
    for j, ((dense, bn), (mean, var), want) in enumerate(zip(triples, stats, grads)):
        got = (bn.running_mean, bn.running_var, dense.w.grad, dense.b.grad, bn.gamma.grad,
               bn.beta.grad)
        names = ("running mean", "running var", "w grad", "b grad", "gamma grad", "beta grad")
        for name, a, b in zip(names, got, (mean, var, *want)):
            assert _same(a, b), f"triple {j} {name}"


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    points=st.integers(1, 6),
    n_in=st.sampled_from([1, 3, 5]),
    width=st.integers(1, 9),
    layout=st.sampled_from(["contiguous", "strided", "fortran"]),
    reshaped=st.booleans(),
    seed=st.integers(0, 2**16),
)
# One row (m = 1): the batch variance is 0 and x-hat is 0.
@example(batch=1, points=1, n_in=3, width=9, layout="strided", reshaped=False, seed=1)
@example(batch=1, points=1, n_in=1, width=9, layout="fortran", reshaped=True, seed=2)
def test_point_block_bit_identical_to_three_layers(
    batch, points, n_in, width, layout, reshaped, seed
):
    _check_run(batch, points, n_in, [width], layout, reshaped, seed)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    points=st.integers(1, 6),
    n_in=st.sampled_from([1, 3, 5]),
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    layout=st.sampled_from(["contiguous", "strided", "fortran"]),
    reshaped=st.booleans(),
    tile_rows=st.sampled_from(TILE_ROWS),
    seed=st.integers(0, 2**16),
)
@example(batch=1, points=1, n_in=3, widths=[9, 4, 7], layout="strided", reshaped=False,
         tile_rows=2, seed=1)
@example(batch=2, points=3, n_in=1, widths=[2, 9, 1], layout="fortran", reshaped=True,
         tile_rows=512, seed=2)
@example(batch=4, points=5, n_in=3, widths=[6, 9, 4], layout="strided", reshaped=False,
         tile_rows=7, seed=3)
@example(batch=3, points=2, n_in=5, widths=[3, 8], layout="contiguous", reshaped=True,
         tile_rows=1, seed=4)
def test_point_block_run_bit_identical_to_chained_layers(
    batch, points, n_in, widths, layout, reshaped, tile_rows, seed
):
    # The block's training forward runs each triple but the last, after its
    # batch statistics, in tiles of whole clouds of at most tile_rows rows
    # (one cloud when a cloud has more); the reference never tiles.
    with mock.patch.object(layers_module, "_TILE_ROWS", tile_rows):
        _check_run(batch, points, n_in, widths, layout, reshaped, seed)


def test_network_fuses_only_matching_triples():
    rng = Rng(3)
    layers = [
        PointwiseDense(3, 4, rng), BatchNorm(4), ReLU(),
        PointwiseDense(4, 5, rng), BatchNorm(5),
        PointwiseDense(5, 2, rng), BatchNorm(2), ReLU(),
        PointwiseDense(2, 2, rng), BatchNorm(3), ReLU(),
        PointwiseDense(3, 6, rng), BatchNorm(6), ReLU(),
        PointwiseDense(6, 2, rng), BatchNorm(2), ReLU(),
        MaxPool(),
    ]
    steps = Network(layers)._steps
    assert [(i, type(s).__name__) for i, s in steps] == [
        (0, "PointBlock"),
        (3, "PointwiseDense"), (4, "BatchNorm"),
        (5, "PointBlock"),
        (8, "PointwiseDense"), (9, "BatchNorm"), (10, "ReLU"),
        (11, "PointBlock"),
        (17, "MaxPool"),
    ]
    # Adjacent triples run as one node.
    assert [len(s.triples) for _, s in steps if isinstance(s, PointBlock)] == [1, 1, 2]
    assert steps[-2][1].triples == [(layers[11], layers[12]), (layers[14], layers[15])]


def _faulty_net(fault: str):
    """Two fused triples ahead of a max-pool, with one fault that makes a
    layer's output not finite, and an input for it."""
    rng = Rng(81)
    net = Network(
        [
            PointwiseDense(3, 4, rng), BatchNorm(4), ReLU(),
            PointwiseDense(4, 5, rng), BatchNorm(5), ReLU(),
            MaxPool(),
        ],
        name="enc",
    )
    x = Rng(82).normal((2, 6, 3))
    if fault == "gemm-0":  # the first GEMM overflows
        x[1, 2] = 1e308
        net.layers[0].w.data = np.full((3, 4), 2.0)
    elif fault == "gemm-3":
        net.layers[3].w.data = np.full((4, 5), np.inf)
    elif fault == "gamma-1":
        net.layers[1].gamma.data = np.full(4, np.inf)
    elif fault == "mean-1":  # finite GEMM output whose batch mean overflows
        x[...] = 1.5e308
        net.layers[0].w.data = np.eye(3, 4)
    elif fault == "gemm-3-then-0":  # cloud 0 overflows at the second GEMM, cloud 1 at the first
        x[0, 0] = 1e300
        x[1, 2] = 1e308
        net.layers[0].w.data = np.full((3, 4), 2.0)
        net.layers[3].w.data = np.full((4, 5), 1e10)
    elif fault == "gemm-3-late":  # only cloud 1 overflows, at the second GEMM
        x[1, 2] = 1e3  # x-hat about 3.3 in that row, -0.3 elsewhere
        net.layers[0].w.data = np.full((3, 4), 2.0)
        net.layers[1].gamma.data = np.full(4, 1e300)
        net.layers[3].w.data = np.full((4, 5), 1e10)
    elif fault == "gemm-3-then-1":  # cloud 0 overflows at the second GEMM, cloud 1 at layer 1
        x[0, 0] = 1e3  # x-hat about 1.3 in that row
        x[1, 2] = 2e3  # and about 2.9 in this one
        net.layers[0].w.data = np.full((3, 4), 2.0)
        net.layers[1].gamma.data = np.full(4, 1e308)
    return net, x


CALLS = ("train", "train-tiled", "predict", "predict-tiled")


@pytest.mark.parametrize(
    "call,fault,layer",
    [
        *[(call, "gemm-0", "0 (pointwise)") for call in CALLS],
        *[(call, "gemm-3", "3 (pointwise)") for call in CALLS],
        *[(call, "gamma-1", "1 (batchnorm)") for call in CALLS],
        *[(call, "mean-1", "1 (batchnorm)") for call in ("train", "train-tiled")],
        *[(call, "gemm-3-then-0", "0 (pointwise)") for call in CALLS],
        *[(call, "gemm-3-late", "3 (pointwise)") for call in ("train", "train-tiled")],
        *[(call, "gemm-3-then-1", "1 (batchnorm)") for call in ("train", "train-tiled")],
    ],
)
def test_point_block_names_the_layer_whose_output_is_not_finite(
    monkeypatch, call, fault, layer
):
    # The block scans each triple once, at its BatchNorm output; the error
    # must still name the dense layer when the GEMM output is the one that is
    # not finite, and a train call must raise before that triple's BatchNorm
    # changes its running statistics.  The tiled calls run one cloud per
    # tile.  predict-tiled: the faulty cloud of gemm-0 is in the second tile,
    # and in gemm-3-then-0 the first tile fails at a later layer than the
    # batch.  train-tiled: in gemm-3-late the fault is in the second tile of
    # the second triple, and in gemm-3-then-1 the first tile's next GEMM
    # overflows before the second tile's BatchNorm output is scanned.
    if call.endswith("-tiled"):
        monkeypatch.setattr(layers_module, "_TILE_ROWS", 6)
    net, x = _faulty_net(fault)
    second_bn = net.layers[4]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            if call.startswith("predict"):
                net.predict(x)
            else:
                net.forward(Tensor(x))
    assert str(exc.value) == f"non-finite activation after layer {layer} of enc"
    assert np.array_equal(second_bn.running_mean, np.zeros(5))
    assert np.array_equal(second_bn.running_var, np.ones(5))
    if fault in ("gemm-0", "gemm-3-then-0"):
        assert np.array_equal(net.layers[1].running_mean, np.zeros(4))
        assert np.array_equal(net.layers[1].running_var, np.ones(4))


def _pipeline_digest(tmp_path) -> str:
    h = hashlib.sha256()

    def put(arr):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    rng = Rng(71)
    clean = rng.normal((12, 16, 3)) * 0.4
    partial = clean[:, :8].repeat(2, axis=1) + rng.normal((12, 16, 3)) * 0.02
    spec = AutoencoderSpec(n=16, k=8)
    ae, losses = train_ae(clean, spec, AeTrainConfig(lr=1e-3, beta1=0.9, batch_size=6, epochs=4, seed=2))
    put(ae.as_single_network().param_vector())
    put(losses)
    for layer in ae.encoder.layers:
        if isinstance(layer, BatchNorm):
            put(layer.running_mean)
            put(layer.running_var)
    path = tmp_path / "ae.json"
    save_autoencoder(path, ae, seed=2)
    h.update(path.read_bytes())
    cfg = GanTrainConfig(lr=1e-3, beta1=0.5, batch_size=4, epochs=2, seed=3)
    for mode in (TrainingMode.DEFAULT, TrainingMode.SUPERVISED_EMD):
        res = train_gan(clean, partial, mode, cfg, clean_ae=ae, partial_gt=clean)
        put(res.pipeline.generator.param_vector())
        put(res.discriminator.param_vector())
        put([[row[k] for k in ("L_F", "L_G", "hard_HL", "adv_term")] for row in res.curves])
        put(res.pipeline.complete_batch(partial[:5]))
    return h.hexdigest()


def test_train_and_complete_output_pinned(tmp_path):
    # Digest of a short AE training (parameters, per-epoch losses, BatchNorm
    # running statistics, checkpoint bytes) and of two GAN modes on top of it
    # (parameters, curves, completions).  Float64 GEMM results depend on the
    # BLAS kernels, so another BLAS build may need a new pin; re-pin only
    # after the reference tests above pass.
    assert (
        _pipeline_digest(tmp_path)
        == "5205b375bba77284670b780413aada4e96add6715db2a7e8f583461cff420e73"
    )


def _desk_shape_digest() -> str:
    h = hashlib.sha256()

    def put(arr):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    root = Rng(91)
    clouds = np.empty((50, 128, 3))
    for i in range(len(clouds)):
        rng = root.spawn(i)
        clouds[i] = generate_shape("chair5", sample_params("chair5", rng), 128, rng, 32)[1].points
    cfg = AeTrainConfig(lr=5e-4, beta1=0.9, batch_size=50, epochs=1, seed=0)
    ae, losses = train_ae(clouds, AutoencoderSpec(n=128, k=16), cfg)
    put(losses)
    put(ae.as_single_network().param_vector())
    for layer in ae.encoder.layers:
        if isinstance(layer, BatchNorm):
            put(layer.running_mean)
            put(layer.running_var)
    return h.hexdigest()


def test_training_at_desk_shapes_pinned():
    # One epoch of train_ae at the desk-scale shapes (50 chair5 clouds of 128
    # points, k = 16, one batch of 50): 6,400 rows per encoder GEMM, so the
    # point block's training forward runs in several tiles.  Digest of the
    # loss, the parameters and the BatchNorm running statistics, pinned
    # before that forward was tiled.  Another BLAS build may need a new pin,
    # as above.
    assert (
        _desk_shape_digest()
        == "b09f4184ad449af0ea91dbb332e11eb212ec3302f62e580b13c8a8dfe9430bef"
    )


def _all_modes_digest() -> str:
    h = hashlib.sha256()

    def put(arr):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    rng = Rng(73)
    clean = rng.normal((10, 16, 3)) * 0.4
    partial = clean[:, :8].repeat(2, axis=1) + rng.normal((10, 16, 3)) * 0.02
    spec = AutoencoderSpec(n=16, k=8)
    ae_cfg = AeTrainConfig(lr=1e-3, beta1=0.9, batch_size=5, epochs=3, seed=4)
    clean_ae, _ = train_ae(clean, spec, ae_cfg)
    partial_ae, _ = train_ae(partial, spec, ae_cfg)
    cfg = GanTrainConfig(lr=1e-3, beta1=0.5, batch_size=4, epochs=2, seed=5)
    for mode in TrainingMode:
        res = train_gan(
            clean, partial, mode, cfg, clean_ae=clean_ae, partial_ae=partial_ae, partial_gt=clean
        )
        assert not res.diverged and len(res.curves) == cfg.epochs
        put(res.pipeline.generator.param_vector())
        put(res.discriminator.param_vector())
        put([[row[k] for k in ("L_F", "L_G", "hard_HL", "adv_term")] for row in res.curves])
        put(res.pipeline.complete_batch(partial[:5]))
    return h.hexdigest()


def test_every_training_mode_output_pinned():
    # Digest of every TrainingMode over the same two small autoencoders:
    # generator and discriminator parameters, the curves (hard_HL included)
    # and completions.  Pinned before the GAN step stopped repeating work
    # (one distance pass, one generator forward, no discarded gradients), so
    # it holds that change to bit identity in every mode.  Another BLAS
    # build may need a new pin, as above.
    assert (
        _all_modes_digest()
        == "d6bb14b312c07fb7b7fb87843e6aa35101256a371bc108dfd05757f6bc1fde42"
    )
