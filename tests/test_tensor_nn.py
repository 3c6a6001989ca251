"""Autodiff core, layers, optimizer, and checkpoint tests.

Every differentiable operation is verified against central finite
differences through grad_check; the Adam and batchnorm update rules are
verified against hand-computed recurrences rather than against the
implementation itself.
"""

import base64
import gc
import json

import numpy as np
import pytest

from scanmend.nn.checkpoint import CheckpointError, load_bundle, save_bundle
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
    dense_stack,
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
    x0 = rng.uniform((3, 4)) + 0.5  # positive, away from zero
    y = rng.normal((3, 4))
    fd_check(lambda x: (x * 2.0 + 1.0).sum(), x0)
    fd_check(lambda x: (x * Tensor(y)).sum(), x0)
    fd_check(lambda x: (x - Tensor(y)).sum(), x0)
    fd_check(lambda x: (Tensor(y) - x).sum(), x0)
    fd_check(lambda x: (x**3.0).sum(), x0)
    fd_check(lambda x: x.relu().sum(), x0 - 1.0)


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


def _recording(t: Tensor, seen: dict, name: str) -> None:
    """Make t's backward closure record the gradient array it receives."""
    fn = t._backward

    def backward(g):
        seen[name] = g
        fn(g)

    t._backward = backward


def test_backward_consumes_interior_nodes_and_keeps_leaf_grads():
    rng = Rng(35)
    x = Tensor(rng.normal((3, 4)))
    w = Tensor(rng.normal((4, 2)))
    hidden = x.matmul(w).relu()
    loss = (hidden**2.0).mean()
    loss.backward()
    assert hidden.grad is None and hidden._parents == ()
    assert hidden.data.shape == (3, 2)  # a consumed node keeps its value
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert loss.grad.shape == ()


def test_root_keeps_its_upstream_unchanged():
    # The fused block's backward works in place in the gradient it receives,
    # so as a root it must receive a copy of the caller's array.
    rng = Rng(36)
    net = Network([PointwiseDense(3, 4, rng), BatchNorm(4), ReLU()])
    out = net.forward(Tensor(rng.normal((2, 5, 3))))
    up = rng.normal((2, 5, 4))
    kept = up.copy()
    out.backward(up)
    assert out.grad is up and up.tobytes() == kept.tobytes()


def test_add_hands_same_shape_parents_distinct_gradients():
    x = Tensor(np.ones((2, 3)))
    a, b = x * 2.0, x * 3.0
    seen: dict = {}
    _recording(a, seen, "a")
    _recording(b, seen, "b")
    (a + b).backward(np.ones((2, 3)))
    assert not np.shares_memory(seen["a"], seen["b"])
    seen["a"][...] = 7.0
    assert np.array_equal(seen["b"], np.ones((2, 3)))
    assert np.array_equal(x.grad, np.full((2, 3), 5.0))


def test_second_backward_through_consumed_graph_raises():
    x = Tensor(np.arange(3.0))
    hidden = x * 2.0
    loss = hidden.sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    # A new graph over a consumed node fails before any closure runs, so no
    # leaf receives a partial gradient, whichever branch the walk takes first.
    for first in (True, False):
        y = Tensor(np.ones(3))
        old, fresh = (hidden * 3.0).sum(), (y * 5.0).sum()
        again = old + fresh if first else fresh + old
        with pytest.raises(RuntimeError, match="consumed"):
            again.backward()
        assert y.grad is None
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_point_block_read_only_sum_gradient_matches_explicit_upstream():
    x0 = Rng(37).normal((2, 5, 3))

    def run(upstream: bool):
        rng = Rng(38)
        dense, bn = PointwiseDense(3, 4, rng), BatchNorm(4)
        bn.beta.data = rng.normal(4)  # some outputs positive, some masked
        net = Network([dense, bn, ReLU()])
        x = Tensor(x0.copy())
        out = net.forward(x)
        if upstream:
            out.backward(np.ones_like(out.data))
        else:
            out.sum().backward()  # the block receives a read-only broadcast
        return [x.grad] + [t.grad for t in net.parameters()]

    for a, b in zip(run(False), run(True)):
        assert a.tobytes() == b.tobytes()


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
    full = bn.predict(a)
    half = bn.predict(a[:2])
    assert np.array_equal(full[:2], half)
    # and predict must not move the running stats
    m0 = bn.running_mean.copy()
    bn.predict(rng.normal((5, 4)))
    assert np.array_equal(bn.running_mean, m0)


def test_batchnorm_3d_statistics_over_batch_and_points():
    bn = BatchNorm(2)
    x = Rng(42).normal((3, 5, 2))
    out = bn.forward(Tensor(x), train=True)
    flat = x.reshape(15, 2)
    expected = (flat - flat.mean(0)) / np.sqrt(flat.var(0) + BN_EPS)
    assert np.allclose(out.data.reshape(15, 2), expected, atol=1e-12)


def test_batchnorm_gradients_train_and_infer():
    # the batch statistics couple every batch element, so the check
    # exercises the full mu/var backward, not just the affine part; with a
    # ReLU after it, the triple runs as one fused node.  Only the train
    # arithmetic is differentiable: inference runs through predict.
    for tail in ([], [ReLU()]):
        net = Network([PointwiseDense(3, 6, Rng(43)), BatchNorm(6)] + tail)
        res = grad_check(net, lambda out: (out**2.0).mean(), Rng(45).normal((4, 5, 3)))
        assert res.max_rel_err < 1e-4, (tail, res.max_rel_err)


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


def _poison(layer, attr, value):
    getattr(layer, attr).data[0] = value
    return layer


def _triple(dense_bias=0.0, gamma=1.0, beta=0.0):
    return [
        _poison(PointwiseDense(3, 2, Rng(0)), "b", dense_bias),
        _poison(_poison(BatchNorm(2), "gamma", gamma), "beta", beta),
        ReLU(),
    ]


@pytest.mark.parametrize("call", ["forward", "predict"])
@pytest.mark.parametrize(
    "layers, x, expect",
    [
        # a -inf dense output that the ReLU after it would zero
        (lambda: [_poison(Dense(2, 2, Rng(0)), "b", -np.inf), ReLU()], np.ones((1, 2)),
         "layer 0 .*dense"),
        # a -inf point that the max over points would hide
        (lambda: [_poison(PointwiseDense(3, 2, Rng(0)), "b", -np.inf), MaxPool()],
         np.ones((1, 4, 3)), "layer 0 .*pointwise"),
        # a NaN network input caught at the first layer even when it is a ReLU
        (lambda: [ReLU()], np.full((1, 2), np.nan), "layer 0 .*relu"),
        (lambda: [ReLU(), Dense(2, 2, Rng(0))], np.full((1, 2), np.nan), "layer 0 .*relu"),
        # inside a fused PointwiseDense -> BatchNorm -> ReLU block: the dense
        # output, and BatchNorm outputs that are NaN (forward) or +-inf (predict),
        # or -inf, which the block's ReLU would zero
        (lambda: _triple(dense_bias=-np.inf), np.ones((1, 4, 3)), "layer 0 .*pointwise"),
        (lambda: _triple(gamma=np.inf), np.ones((1, 4, 3)), "layer 1 .*batchnorm"),
        (lambda: _triple(beta=-np.inf), np.ones((1, 4, 3)), "layer 1 .*batchnorm"),
        (lambda: _triple(beta=-np.inf) + [MaxPool()], np.ones((1, 4, 3)), "layer 1 .*batchnorm"),
    ],
)
def test_network_forward_nonfinite_not_masked_by_later_layers(layers, x, expect, call):
    net = Network(layers(), name="probe")
    # forward (batch statistics) and predict (running statistics) name the same layer
    run = {"forward": lambda: net.forward(Tensor(x)), "predict": lambda: net.predict(x)}[call]
    with pytest.raises(FloatingPointError, match=expect + ".* probe"), np.errstate(invalid="ignore"):
        run()


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
    assert np.array_equal(bn.predict(x), expected)


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
    # A wrong length raises before any parameter changes.
    for size in (v.size + 1, v.size - 1):
        with pytest.raises(ValueError, match="parameter vector length"):
            net.set_param_vector(np.zeros(size))
        assert np.array_equal(net.param_vector(), v * 2.0)
    stack = dense_stack(2, (3, 2), Rng(49), "stack")
    before = stack.param_vector()
    for size in (before.size + 1, before.size - 1):
        with pytest.raises(ValueError, match="parameter vector length"):
            stack.set_param_vector(np.zeros(size))
        assert np.array_equal(stack.param_vector(), before)
    empty = Network([ReLU()])
    assert empty.param_vector().size == 0
    assert empty.grad_vector().size == 0


def test_architecture_hash_sensitivity():
    a = Network([Dense(4, 8, Rng(0)), ReLU()])
    b = Network([Dense(4, 8, Rng(9)), ReLU()])  # same shape, different weights
    c = Network([Dense(4, 9, Rng(0)), ReLU()])
    assert a.architecture_hash() == b.architecture_hash()
    assert a.architecture_hash() != c.architecture_hash()


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


def test_adam_in_place_equals_out_of_place_formula_bit_for_bit():
    # The formula as adam_step wrote it before it updated the moments in
    # place; the in-place form must keep its order of operations.
    state = AdamState(lr=0.003, beta1=0.5, beta2=0.999, eps=1e-8)
    rng = Rng(53)
    p = rng.normal(40) * 3.0
    m, v = np.zeros(40), np.zeros(40)
    for t in range(1, 6):
        g = rng.normal(40) * 10.0 ** (t - 3)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        expected = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p_bytes, g_bytes = p.tobytes(), g.tobytes()
        moments = (state.m, state.v)
        p_new = adam_step(state, p, g)
        assert p_new.tobytes() == expected.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        # Neither argument is written, and the result is a new array.
        assert p.tobytes() == p_bytes and g.tobytes() == g_bytes
        assert not np.shares_memory(p_new, p) and not np.shares_memory(p_new, g)
        if t > 1:  # the moments are updated in their own arrays
            assert state.m is moments[0] and state.v is moments[1]
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


def test_adam_rejects_state_of_another_size_unchanged():
    state = AdamState(lr=0.1)
    adam_step(state, np.zeros(3), np.ones(3))
    t, m, v = state.t, state.m.copy(), state.v.copy()
    with pytest.raises(ValueError, match="3 moments.* 4"):
        adam_step(state, np.zeros(4), np.ones(4))
    assert state.t == t and np.array_equal(state.m, m) and np.array_equal(state.v, v)


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
        net,
        lambda out: emd_loss(out.reshape(2, 6, 3), target),
        Rng(55).normal((2, 4)),
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


def _toy_net(width=4, seed=0):
    return Network(
        [PointwiseDense(3, width, Rng(seed)), BatchNorm(width), ReLU(), MaxPool()], name="enc"
    )


def _save_toy(path, net, seed=0):
    """Save a _toy_net with its width as the spec in extra."""
    save_bundle(path, {"enc": net}, kind="test", seed=seed, extra={"width": net.layers[1].width})


def _load_toy(path, expect_kind="test"):
    """Load a _toy_net checkpoint into a network built from its stored width."""
    return load_bundle(path, "width", lambda width: {"enc": _toy_net(width)}, expect_kind)


def test_checkpoint_round_trip(tmp_path):
    net = _toy_net()
    net.forward(Tensor(Rng(62).normal((2, 5, 3))))  # move BN stats off init
    path = tmp_path / "ck.json"
    _save_toy(path, net, seed=7)
    bundle = _load_toy(path, expect_kind="test")
    assert bundle.seed == 7
    got = bundle.nets["enc"]
    assert np.array_equal(got.param_vector(), net.param_vector())
    assert np.array_equal(got.layers[1].running_mean, net.layers[1].running_mean)
    assert np.array_equal(got.layers[1].running_var, net.layers[1].running_var)
    assert b'"optimizers":{}' in path.read_bytes()  # a fixed, empty field of format v1


def test_checkpoint_loader_ignores_stored_adam_state(tmp_path):
    # A v1 file may carry Adam state in "optimizers"; loading reads only the networks.
    import base64
    import json as _json

    net = _toy_net()
    net.forward(Tensor(Rng(63).normal((2, 5, 3))))
    path = tmp_path / "ck.json"
    _save_toy(path, net)
    doc = _json.loads(path.read_text())
    size = net.param_vector().size
    moment = {"shape": [size], "data": base64.b64encode(np.ones(size, "<f8").tobytes()).decode()}
    doc["optimizers"] = {
        "enc": {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "t": 3,
                "m": moment, "v": moment}
    }
    with_adam = tmp_path / "with_adam.json"
    with_adam.write_text(_json.dumps(doc))
    for bundle in (_load_toy(path), _load_toy(with_adam)):
        got = bundle.nets["enc"]
        assert np.array_equal(got.param_vector(), net.param_vector())
        assert np.array_equal(got.layers[1].running_mean, net.layers[1].running_mean)
        assert np.array_equal(got.layers[1].running_var, net.layers[1].running_var)


def test_checkpoint_same_bytes_on_rewrite(tmp_path):
    net = _toy_net()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_bundle(a, {"enc": net}, kind="test", seed=0)
    save_bundle(b, {"enc": net}, kind="test", seed=0)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_kind_and_corruption_errors(tmp_path):
    net = _toy_net()
    path = tmp_path / "ck.json"
    _save_toy(path, net)
    with pytest.raises(CheckpointError, match="kind"):
        _load_toy(path, expect_kind="other")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        _load_toy(bad)
    import json as _json

    doc = _json.loads(path.read_text())
    doc["networks"]["enc"]["architecture_hash"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(_json.dumps(doc))
    with pytest.raises(CheckpointError, match="stored architecture does not match extra.width"):
        _load_toy(tampered)


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


@pytest.mark.parametrize(
    "tamper,msg",
    [
        # A running mean of one value would broadcast over all four features.
        pytest.param(
            lambda s: s["batchnorm"]["1"].update(mean={"shape": [1], "data": _b64([0.5])}),
            r"entry batchnorm\.1\.mean has shape \(1,\), expected \(4,\)",
            id="running-mean-shape",
        ),
        pytest.param(
            lambda s: s["batchnorm"].pop("1"), r"missing entry batchnorm\.1\.mean",
            id="missing-batchnorm-entry",
        ),
        pytest.param(
            lambda s: s["batchnorm"]["1"].pop("var"), r"missing entry batchnorm\.1\.var",
            id="missing-running-var",
        ),
        pytest.param(
            lambda s: s["params"].pop("0.pointwise.b"), r"missing entry params\.0\.pointwise\.b",
            id="missing-parameter",
        ),
        pytest.param(
            lambda s: s["params"]["0.pointwise.w"].update(data=_b64(np.zeros(5))),
            r"unreadable entry params\.0\.pointwise\.w \(",
            id="mis-sized-array",
        ),
        pytest.param(
            lambda s: s["batchnorm"]["1"]["var"].update(data="not base64!"),
            r"unreadable entry batchnorm\.1\.var \(",
            id="bad-base64",
        ),
    ],
)
def test_checkpoint_rejects_bad_entries(tmp_path, tamper, msg):
    path = tmp_path / "ck.json"
    _save_toy(path, _toy_net())
    doc = json.loads(path.read_text())
    tamper(doc["networks"]["enc"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=msg) as exc:
        _load_toy(bad)
    assert str(exc.value).startswith(f"{bad}: network 'enc': ")


MISMATCH = r"stored architecture does not match extra\.width$"


def _drop(*keys):
    """Tamper that deletes section[keys[0]][keys[1]]...[keys[-1]]."""

    def tamper(section):
        for key in keys[:-1]:
            section = section[key]
        del section[keys[-1]]

    return tamper


def _put(value, *keys):
    def tamper(section):
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value

    return tamper


@pytest.mark.parametrize(
    "tamper,msg",
    [
        pytest.param(_drop("architecture"), "missing entry architecture$", id="architecture"),
        pytest.param(_drop("architecture_hash"), "missing entry architecture_hash$",
                     id="architecture_hash"),
        pytest.param(_drop("architecture", 0, "type"), MISMATCH, id="type"),
        pytest.param(_drop("architecture", 0, "in"), MISMATCH, id="in"),
        pytest.param(_drop("architecture", 0, "out"), MISMATCH, id="out"),
        pytest.param(_drop("architecture", 0, "init"), MISMATCH, id="init"),
        pytest.param(_drop("architecture", 1, "width"), MISMATCH, id="width"),
        pytest.param(_put("conv", "architecture", 2, "type"), MISMATCH, id="bad-type"),
        pytest.param(_put("orthogonal", "architecture", 0, "init"), MISMATCH, id="bad-init"),
        pytest.param(_put(0, "architecture", 0, "in"), MISMATCH, id="zero-width"),
        pytest.param(_put("4", "architecture", 1, "width"), MISMATCH, id="string-width"),
        pytest.param(_put({}, "architecture"), MISMATCH, id="not-a-list"),
    ],
)
def test_checkpoint_rejects_bad_layer_specs(tmp_path, tamper, msg):
    # The network is built from extra.width; a stored architecture that is
    # not exactly its own is one error, whatever the difference.
    path = tmp_path / "ck.json"
    _save_toy(path, _toy_net())
    doc = json.loads(path.read_text())
    tamper(doc["networks"]["enc"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=msg) as exc:
        _load_toy(bad)
    assert str(exc.value).startswith(f"{bad}: network 'enc': ")

