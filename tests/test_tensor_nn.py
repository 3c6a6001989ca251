"""Autodiff core, layers, optimizer, and checkpoint tests.

Every differentiable operation is verified against central finite
differences through grad_check; the Adam and batchnorm update rules are
verified against hand-computed recurrences rather than against the
implementation itself.
"""

import gc

import numpy as np
import pytest

from scanmend.nn.checkpoint import (
    ArchitectureMismatchError,
    CheckpointError,
    load_bundle,
    save_bundle,
)
from scanmend.nn.gradcheck import grad_check
from scanmend.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    Dense,
    MaxPool,
    Network,
    PointwiseDense,
    ReLU,
    build_layer,
)
from scanmend.nn.lossops import emd_loss, soft_hausdorff_loss
from scanmend.nn.optim import AdamState, adam_step
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng


# ---- Tensor ops against finite differences ----


def fd_check(build_loss, x0, h=1e-6, tol=1e-6):
    """Scalar-loss FD check on a raw array input."""
    x = Tensor(x0.copy())
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad.copy()
    flat = x0.reshape(-1)
    for i in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += h
        xm[i] -= h
        lp = float(build_loss(Tensor(xp.reshape(x0.shape))).data)
        lm = float(build_loss(Tensor(xm.reshape(x0.shape))).data)
        num = (lp - lm) / (2 * h)
        a = analytic.reshape(-1)[i]
        assert abs(a - num) / max(abs(a), abs(num), 1e-12) < tol, (i, a, num)


def test_elementwise_op_gradients():
    rng = Rng(30)
    x0 = rng.uniform((3, 4)) + 0.5  # positive, away from relu kink and log(0)
    y = rng.normal((3, 4))
    fd_check(lambda x: (x * 2.0 + 1.0).sum(), x0)
    fd_check(lambda x: (x * Tensor(y)).sum(), x0)
    fd_check(lambda x: (x - Tensor(y)).sum(), x0)
    fd_check(lambda x: (Tensor(y) - x).sum(), x0)
    fd_check(lambda x: (-x).sum(), x0)
    fd_check(lambda x: (x**3.0).sum(), x0)
    fd_check(lambda x: (x / 4.0).sum(), x0)
    fd_check(lambda x: (1.0 / x).sum(), x0)
    fd_check(lambda x: x.relu().sum(), x0 - 1.0)
    fd_check(lambda x: x.sigmoid().sum(), x0)
    fd_check(lambda x: x.exp().sum(), x0)
    fd_check(lambda x: x.log().sum(), x0)
    fd_check(lambda x: x.sqrt().sum(), x0)


def test_reduction_and_shape_gradients():
    rng = Rng(31)
    x0 = rng.normal((2, 3, 4))
    fd_check(lambda x: x.sum(), x0)
    fd_check(lambda x: x.sum(axis=1).sum(), x0, tol=1e-5)
    fd_check(lambda x: (x.mean(axis=(0, 1)) ** 2.0).sum(), x0, tol=1e-5)
    fd_check(lambda x: x.reshape(6, 4).sum(axis=0).sum(), x0, tol=1e-5)
    fd_check(lambda x: x.max_over_axis(1)[0].sum(), x0, tol=1e-5)


def test_matmul_gradients_2d_and_3d():
    rng = Rng(32)
    w0 = rng.normal((4, 5))
    x2 = rng.normal((3, 4))
    x3 = rng.normal((2, 3, 4))

    def loss2(x):
        return (x.matmul(Tensor(w0)) ** 2.0).sum()

    fd_check(loss2, x2, tol=1e-5)
    fd_check(loss2, x3, tol=1e-5)

    # gradient w.r.t. the weight as well
    x = Tensor(x3)
    w = Tensor(w0.copy())
    (x.matmul(w) ** 2.0).sum().backward()
    analytic = w.grad.copy()
    h = 1e-6
    for i in range(w0.size):
        wp, wm = w0.reshape(-1).copy(), w0.reshape(-1).copy()
        wp[i] += h
        wm[i] -= h
        lp = float((Tensor(x3).matmul(Tensor(wp.reshape(4, 5))) ** 2.0).sum().data)
        lm = float((Tensor(x3).matmul(Tensor(wm.reshape(4, 5))) ** 2.0).sum().data)
        num = (lp - lm) / (2 * h)
        a = analytic.reshape(-1)[i]
        assert abs(a - num) / max(abs(a), abs(num), 1e-12) < 1e-5


def test_matmul_rejects_non_2d_weight():
    with pytest.raises(ValueError, match="2-D"):
        Tensor(np.zeros((2, 3))).matmul(Tensor(np.zeros(3)))


def test_broadcast_add_unbroadcasts_gradient():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.arange(3.0))
    (x + b).sum().backward()
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_shared_node_accumulates():
    x = Tensor(np.array([2.0]))
    y = x * 3.0 + x * 4.0
    y.backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_requires_scalar_without_upstream():
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros((2, 2))).backward()
    with pytest.raises(ValueError, match="shape"):
        Tensor(np.zeros((2, 2))).backward(upstream=np.ones(3))


def test_grad_lazy_until_backward():
    x = Tensor(np.ones(3))
    assert x.grad is None
    y = (x * 2.0).sum()
    y.backward()
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
    assert np.array_equal(Tensor(np.ones(2)).grad_or_zeros(), [0.0, 0.0])


def test_graph_frees_without_cycle_collector():
    """A training step's graph must die by refcount alone."""
    gc.disable()
    try:
        gc.collect()
        x = Tensor(Rng(33).normal((8, 4)))
        w = Tensor(Rng(34).normal((4, 4)))
        before = len(gc.get_objects())
        for _ in range(50):
            loss = ((x.matmul(w)).relu() ** 2.0).mean()
            loss.backward()
        loss = None
        after = len(gc.get_objects())
        assert after - before < 200, f"leaked {after - before} objects over 50 steps"
    finally:
        gc.enable()


def test_max_over_axis_example_and_ties():
    t = Tensor(np.array([[[1.0, 5.0], [3.0, 2.0]]]))  # (1, points=2, f=2)
    out, ties = t.max_over_axis(1)
    assert out.data.tolist() == [[3.0, 5.0]]
    assert ties == 0
    tied = Tensor(np.array([[[2.0, 1.0], [2.0, 0.0]]]))
    out, ties = tied.max_over_axis(1)
    assert ties == 1
    out.backward(np.ones_like(out.data))
    # gradient goes to the first of the tied maxima
    assert tied.grad[0, 0, 0] == 1.0 and tied.grad[0, 1, 0] == 0.0


# ---- layers ----


def test_dense_shape_validation():
    d = Dense(4, 2, Rng(0))
    with pytest.raises(ValueError, match="dense expects"):
        d.forward(Tensor(np.zeros((2, 3))), train=True)
    pw = PointwiseDense(3, 8, Rng(0))
    with pytest.raises(ValueError, match="pointwise"):
        pw.forward(Tensor(np.zeros((2, 5))), train=True)


def test_init_bounds_and_determinism():
    d1 = Dense(64, 32, Rng(7), init="kaiming")
    d2 = Dense(64, 32, Rng(7), init="kaiming")
    assert np.array_equal(d1.w.data, d2.w.data)
    assert np.abs(d1.w.data).max() <= np.sqrt(6.0 / 64)
    assert np.all(d1.b.data == 0.0)
    x = Dense(64, 32, Rng(7), init="xavier")
    assert np.abs(x.w.data).max() <= np.sqrt(6.0 / 96)
    with pytest.raises(ValueError, match="init"):
        Dense(4, 4, Rng(0), init="orthogonal")


def test_batchnorm_train_semantics():
    bn = BatchNorm(3)
    x = Rng(40).normal((20, 3)) * 4.0 + 2.0
    out = bn.forward(Tensor(x), train=True)
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    expected = (x - mu) / np.sqrt(var + BN_EPS)
    assert np.allclose(out.data, expected, atol=1e-12)
    # running stats after one step: momentum * init + (1 - momentum) * batch
    assert np.allclose(bn.running_mean, (1 - BN_MOMENTUM) * mu, atol=1e-12)
    assert np.allclose(bn.running_var, BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * var, atol=1e-12)


def test_batchnorm_infer_independent_of_batch_composition():
    bn = BatchNorm(4)
    rng = Rng(41)
    for _ in range(3):  # accumulate some running stats
        bn.forward(Tensor(rng.normal((10, 4))), train=True)
    a = rng.normal((6, 4))
    full = bn.forward(Tensor(a), train=False).data
    half = bn.forward(Tensor(a[:2]), train=False).data
    assert np.array_equal(full[:2], half)
    # and infer mode must not move the running stats
    m0 = bn.running_mean.copy()
    bn.forward(Tensor(rng.normal((5, 4))), train=False)
    assert np.array_equal(bn.running_mean, m0)


def test_batchnorm_3d_statistics_over_batch_and_points():
    bn = BatchNorm(2)
    x = Rng(42).normal((3, 5, 2))
    out = bn.forward(Tensor(x), train=True)
    flat = x.reshape(15, 2)
    expected = (flat - flat.mean(0)) / np.sqrt(flat.var(0) + BN_EPS)
    assert np.allclose(out.data.reshape(15, 2), expected, atol=1e-12)


def test_batchnorm_gradients_train_and_infer():
    # train mode couples every batch element through the statistics, so the
    # check exercises the full mu/var backward, not just the affine part
    for train in (True, False):
        net = Network([PointwiseDense(3, 6, Rng(43)), BatchNorm(6)])
        if not train:
            # give the running stats some life, then freeze
            net.forward(Tensor(Rng(44).normal((4, 5, 3))))
            net.infer()
        res = grad_check(net, lambda out: (out**2.0).mean(), Rng(45).normal((4, 5, 3)))
        assert res.max_rel_err < 1e-4, (train, res.max_rel_err)


def test_maxpool_permutation_invariance_and_tie_flag():
    mp = MaxPool()
    x = Rng(46).normal((2, 9, 4))
    out = mp.forward(Tensor(x), train=True).data
    perm = Rng(47).permutation(9)
    out_p = mp.forward(Tensor(x[:, perm]), train=True).data
    assert np.array_equal(out, out_p)
    assert mp.last_tie_count == 0
    mp.forward(Tensor(np.ones((1, 3, 2))), train=True)
    assert mp.last_tie_count == 2


def test_network_forward_names_nonfinite_layer():
    net = Network([Dense(2, 2, Rng(0))], name="probe")
    net.layers[0].w.data[:] = np.inf
    with pytest.raises(FloatingPointError, match="layer 0 .*dense.* probe"):
        net.forward(Tensor(np.ones((1, 2))))


@pytest.mark.parametrize(
    "layers, x, expect",
    [
        # a -inf dense output that the ReLU after it would zero
        (lambda: [Dense(2, 2, Rng(0)), ReLU()], np.ones((1, 2)), "layer 0 .*dense"),
        # a -inf point that the max over points would hide
        (lambda: [PointwiseDense(3, 2, Rng(0)), MaxPool()], np.ones((1, 4, 3)), "layer 0 .*pointwise"),
        # a NaN network input caught at the first layer even when it is a ReLU
        (lambda: [ReLU()], np.full((1, 2), np.nan), "layer 0 .*relu"),
        (lambda: [ReLU(), Dense(2, 2, Rng(0))], np.full((1, 2), np.nan), "layer 0 .*relu"),
    ],
)
def test_network_forward_nonfinite_not_masked_by_later_layers(layers, x, expect):
    layers = layers()
    if hasattr(layers[0], "b"):
        layers[0].b.data[0] = -np.inf
    net = Network(layers, name="probe")
    with pytest.raises(FloatingPointError, match=expect + ".* probe"):
        net.forward(Tensor(x))


def test_batchnorm_infer_bit_identical_to_formula():
    bn = BatchNorm(5)
    rng = Rng(63)
    for _ in range(3):
        bn.forward(Tensor(rng.normal((4, 6, 5)) * 3.0 + 1.0), train=True)
    bn.gamma.data = rng.normal(5)
    bn.beta.data = rng.normal(5)
    x = rng.normal((3, 7, 5)) * 2.0
    inv = 1.0 / np.sqrt(bn.running_var + BN_EPS)
    expected = ((x - bn.running_mean) * inv) * bn.gamma.data + bn.beta.data
    assert np.array_equal(bn.forward(Tensor(x), train=False).data, expected)


def test_dense_is_one_node_bit_identical_to_matmul_plus_bias():
    rng = Rng(64)
    for layer, shape in ((Dense(4, 6, Rng(65)), (5, 4)), (PointwiseDense(4, 6, Rng(66)), (2, 5, 4))):
        layer.b.data = rng.normal(6)
        x = Tensor(rng.normal(shape))
        out = layer.forward(x, train=True)
        assert np.array_equal(out.data, x.data @ layer.w.data + layer.b.data)
        assert out._parents == (x, layer.w, layer.b)


def test_relu_gradient_zero_at_and_below_kink():
    x = Tensor(np.array([-1.0, 0.0, -0.0, 2.0, 3.0]))
    x.relu().backward(np.full(5, 2.0))
    assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 2.0, 2.0])


def test_param_vector_round_trip():
    net = Network([PointwiseDense(3, 4, Rng(48)), BatchNorm(4), ReLU(), MaxPool()])
    v = net.param_vector()
    assert v.size == 3 * 4 + 4 + 4 + 4  # w, b, gamma, beta
    net.set_param_vector(v * 2.0)
    assert np.allclose(net.param_vector(), v * 2.0)
    with pytest.raises(ValueError, match="length"):
        net.set_param_vector(np.zeros(v.size + 1))
    empty = Network([ReLU()])
    assert empty.param_vector().size == 0
    assert empty.grad_vector().size == 0


def test_architecture_hash_sensitivity():
    a = Network([Dense(4, 8, Rng(0)), ReLU()])
    b = Network([Dense(4, 8, Rng(9)), ReLU()])  # same shape, different weights
    c = Network([Dense(4, 9, Rng(0)), ReLU()])
    assert a.architecture_hash() == b.architecture_hash()
    assert a.architecture_hash() != c.architecture_hash()


def test_build_layer_round_trip_and_unknown():
    for layer in [Dense(3, 5, Rng(0)), PointwiseDense(3, 5, Rng(0)), BatchNorm(5), ReLU(), MaxPool()]:
        again = build_layer(layer.spec(), Rng(1))
        assert again.spec() == layer.spec()
    with pytest.raises(ValueError, match="unknown layer"):
        build_layer({"type": "conv"}, Rng(0))


# ---- optimizer ----


def test_adam_first_step_example():
    state = AdamState(lr=0.001)
    p = adam_step(state, np.array([0.0]), np.array([1.0]))
    # bias correction makes the first step exactly lr / (1 + eps)
    assert p[0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-15)


def test_adam_matches_reference_recurrence():
    state = AdamState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    rng = Rng(50)
    p = rng.normal(5)
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 8):
        g = rng.normal(5)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        expected = p - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        p_new = adam_step(state, p, g)
        assert np.allclose(p_new, expected, atol=1e-15)
        p = p_new


def test_adam_converges_on_quadratic():
    state = AdamState(lr=0.1)
    p = np.array([5.0, -3.0])
    for _ in range(400):
        p = adam_step(state, p, 2.0 * (p - np.array([1.0, 2.0])))
    assert np.allclose(p, [1.0, 2.0], atol=1e-3)


def test_adam_rejects_nonfinite_gradients():
    state = AdamState(lr=0.1)
    with pytest.raises(FloatingPointError, match="non-finite"):
        adam_step(state, np.zeros(2), np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="params"):
        adam_step(state, np.zeros(2), np.zeros(3))


# ---- grad_check harness on real objectives ----


def test_grad_check_encoder_stack():
    net = Network([PointwiseDense(3, 8, Rng(51)), BatchNorm(8), ReLU(), MaxPool()])
    res = grad_check(net, lambda out: (out**2.0).sum(), Rng(52).normal((2, 6, 3)))
    assert res.max_rel_err < 1e-4
    assert res.n_checked == net.param_vector().size


def test_grad_check_emd_objective():
    net = Network([Dense(4, 18, Rng(53), init="xavier")])
    target = Rng(54).normal((2, 6, 3))
    res = grad_check(
        net, lambda out: emd_loss(out.reshape(2, 6, 3), target), Rng(55).normal((2, 4))
    )
    assert res.max_rel_err < 1e-4


def test_grad_check_soft_hausdorff_objective():
    net = Network([Dense(4, 18, Rng(56), init="xavier")])
    src = Rng(57).normal((2, 6, 3))
    res = grad_check(
        net,
        lambda out: soft_hausdorff_loss(src, out.reshape(2, 6, 3), tau=0.01),
        Rng(58).normal((2, 4)),
    )
    assert res.max_rel_err < 1e-4


def test_grad_check_skips_maxpool_tie():
    net = Network([MaxPool()])
    res = grad_check(net, lambda out: out.sum(), np.ones((1, 4, 2)))
    assert res.skipped == ["maxpool: skipped (nondifferentiable point)"]


def test_grad_check_restores_batchnorm_stats():
    net = Network([PointwiseDense(3, 4, Rng(59)), BatchNorm(4)])
    bn = net.layers[1]
    net.forward(Tensor(Rng(60).normal((3, 5, 3))))
    m0, v0 = bn.running_mean.copy(), bn.running_var.copy()
    grad_check(net, lambda out: out.sum(), Rng(61).normal((3, 5, 3)))
    assert np.array_equal(bn.running_mean, m0)
    assert np.array_equal(bn.running_var, v0)


# ---- checkpoints ----


def _toy_net(seed=0):
    return Network(
        [PointwiseDense(3, 4, Rng(seed)), BatchNorm(4), ReLU(), MaxPool()], name="enc"
    )


def test_checkpoint_round_trip(tmp_path):
    net = _toy_net()
    net.forward(Tensor(Rng(62).normal((2, 5, 3))))  # move BN stats off init
    opt = AdamState(lr=0.01)
    adam_step(opt, net.param_vector(), np.ones(net.param_vector().size))
    path = tmp_path / "ck.json"
    save_bundle(path, {"enc": net}, kind="test", seed=7, optimizers={"enc": opt})
    bundle = load_bundle(path, expect_kind="test")
    assert bundle.seed == 7
    got = bundle.nets["enc"]
    assert np.array_equal(got.param_vector(), net.param_vector())
    assert np.array_equal(got.layers[1].running_mean, net.layers[1].running_mean)
    assert np.array_equal(got.layers[1].running_var, net.layers[1].running_var)
    assert bundle.optimizers["enc"].t == 1
    assert np.array_equal(bundle.optimizers["enc"].m, opt.m)


def test_checkpoint_same_bytes_on_rewrite(tmp_path):
    net = _toy_net()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_bundle(a, {"enc": net}, kind="test", seed=0)
    save_bundle(b, {"enc": net}, kind="test", seed=0)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_kind_and_corruption_errors(tmp_path):
    net = _toy_net()
    path = tmp_path / "ck.json"
    save_bundle(path, {"enc": net}, kind="test", seed=0)
    with pytest.raises(CheckpointError, match="kind"):
        load_bundle(path, expect_kind="other")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_bundle(bad)
    import json as _json

    doc = _json.loads(path.read_text())
    doc["networks"]["enc"]["architecture_hash"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(_json.dumps(doc))
    with pytest.raises(ArchitectureMismatchError):
        load_bundle(tampered)
