"""The fused PointwiseDense -> BatchNorm -> ReLU node against its three layers.

The reference below is the three-node form the encoder ran before the triple
became one node: the flattened GEMM with the bias added in place, the
BatchNorm arithmetic, and ReLU with its mask taken from the output.  The
fused node must equal it bit for bit, forward and backward, in both modes.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanmend.autoencoder import AeTrainConfig, AutoencoderSpec, save_autoencoder, train_ae
from scanmend.gan import GanTrainConfig, TrainingMode, train_gan
from scanmend.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    Network,
    PointwiseDense,
    ReLU,
)
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng


def _reference(x, w, b, gamma, beta, mean, var, train, g):
    """The three-node form: (output, running mean, running var, grads of
    x, w, b, gamma, beta) for the output gradient g."""
    n_in, c = w.shape
    # PointwiseDense: flattened GEMM, bias added in place.
    flat = np.ascontiguousarray(x).reshape(-1, n_in)
    h = flat @ w
    h += b
    h = h.reshape(x.shape[:-1] + (c,))
    m = h.size // c
    if train:
        mu = h.reshape(m, c).mean(axis=0)
        xhat = h - mu
        bvar = np.einsum("ij,ij->j", xhat.reshape(m, c), xhat.reshape(m, c)) / m
        mean = BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * mu
        var = BN_MOMENTUM * var + (1 - BN_MOMENTUM) * bvar
        inv = 1.0 / np.sqrt(bvar + BN_EPS)
        xhat *= inv
        ybn = xhat * gamma
        ybn += beta
    else:
        inv = 1.0 / np.sqrt(var + BN_EPS)
        ybn = h - mean
        ybn *= inv
        ybn *= gamma
        ybn += beta
    y = np.maximum(ybn, 0.0)
    # ReLU backward, mask from its output.
    gr = g * (y > 0.0)
    dy = gr.reshape(m, c)
    if train:
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
    else:
        xh = (h.reshape(m, c) - mean) * inv
        dbeta = dy.sum(axis=0)
        dgamma = np.einsum("ij,ij->j", dy, xh)
        gh = gr * (gamma * inv)
    g2 = np.ascontiguousarray(gh).reshape(-1, c)
    dx = (g2 @ w.T).reshape(x.shape)
    return y, mean, var, dx, flat.T @ g2, g2.sum(axis=0), dgamma, dbeta


def _same(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    points=st.integers(1, 6),
    n_in=st.sampled_from([1, 3, 5]),
    width=st.integers(1, 9),
    train=st.booleans(),
    layout=st.sampled_from(["contiguous", "strided", "fortran"]),
    reshaped=st.booleans(),
    seed=st.integers(0, 2**16),
)
# One row (m = 1): the batch variance is 0 and x-hat is 0 in train mode.
@example(batch=1, points=1, n_in=3, width=9, train=True, layout="strided", reshaped=False, seed=1)
@example(batch=1, points=1, n_in=1, width=9, train=False, layout="fortran", reshaped=True, seed=2)
def test_point_block_bit_identical_to_three_layers(
    batch, points, n_in, width, train, layout, reshaped, seed
):
    rng = Rng(seed)
    dense, bn = PointwiseDense(n_in, width, rng), BatchNorm(width)
    dense.b.data = rng.normal(width)
    bn.gamma.data = rng.normal(width) * 2.0
    bn.beta.data = rng.normal(width)
    bn.running_mean = rng.normal(width)
    bn.running_var = rng.uniform(width) + 0.1
    net = Network([dense, bn, ReLU()])
    data = rng.normal((batch, 2 * points, n_in)) * 3.0 + 0.5
    if layout == "strided":
        data = data[:, ::2]
    else:
        data = data[:, :points]
        if layout == "fortran":
            data = np.asfortranarray(data)
    g = rng.normal((batch, points, width))
    g[rng.uniform((batch, points, width)) < 0.2] = 0.0
    want = _reference(
        data, dense.w.data, dense.b.data, bn.gamma.data, bn.beta.data,
        bn.running_mean, bn.running_var, train, g,
    )

    x = Tensor(data)
    out = net.forward(x, train=train)
    assert out._parents == (x, dense.w, dense.b, bn.gamma, bn.beta)
    if reshaped:
        # The consumer passes its own gradient array through a reshape; the
        # block's backward must leave that array as it was.
        consumer = out.reshape(batch, points * width)
        up = g.reshape(batch, points * width).copy()
        consumer.backward(up)
        assert consumer.grad is up and _same(up, g.reshape(batch, points * width))
    else:
        out.backward(g.copy())
    got = (out.data, bn.running_mean, bn.running_var, x.grad, dense.w.grad, dense.b.grad,
           bn.gamma.grad, bn.beta.grad)
    names = ("output", "running mean", "running var", "x grad", "w grad", "b grad",
             "gamma grad", "beta grad")
    for name, a, b in zip(names, got, want):
        assert _same(a, b), name


def test_network_fuses_only_matching_triples():
    rng = Rng(3)
    layers = [
        PointwiseDense(3, 4, rng), BatchNorm(4), ReLU(),
        PointwiseDense(4, 5, rng), BatchNorm(5),
        PointwiseDense(5, 2, rng), BatchNorm(2), ReLU(),
        PointwiseDense(2, 2, rng), BatchNorm(3), ReLU(),
    ]
    assert [(i, type(s).__name__) for i, s in Network(layers)._steps] == [
        (0, "PointBlock"),
        (3, "PointwiseDense"), (4, "BatchNorm"),
        (5, "PointBlock"),
        (8, "PointwiseDense"), (9, "BatchNorm"), (10, "ReLU"),
    ]


def _pipeline_digest(tmp_path) -> str:
    h = hashlib.sha256()

    def put(arr):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    rng = Rng(71)
    clean = rng.normal((12, 16, 3)) * 0.4
    partial = clean[:, :8].repeat(2, axis=1) + rng.normal((12, 16, 3)) * 0.02
    spec = AutoencoderSpec(n=16, k=8)
    ae, losses = train_ae(clean, spec, AeTrainConfig(lr=1e-3, batch_size=6, epochs=4, seed=2))
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
