"""Property tests of the batched soft directed Hausdorff.

The batched matmul-form value and gradient are compared with a per-sample
reference kept here: the unit-vector formula the loss used before it was
batched.  Coordinates are drawn from a grid of spacing 1/16, so distinct
points are at least 1/16 apart and hypothesis readily produces coincident
ones; the matmul form's cancellation error then stays near machine epsilon.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from scanmend.distances import (
    hausdorff_directed,
    hausdorff_directed_batch,
    soft_hausdorff_batch,
)
from scanmend.nn.lossops import soft_hausdorff_loss
from scanmend.nn.tensor import Tensor

VALUE_ATOL = 1e-12
GRAD_RTOL = 1e-10  # relative to the largest gradient entry of the sample


def reference_value_grad(ps, pr, tau):
    """Soft directed Hausdorff ps -> pr and its gradient in pr, one sample,
    summing unit vectors over an (|s|, |r|, 3) tensor."""
    dist = cdist(ps, pr)
    lo = dist.min(axis=1, keepdims=True)
    inner = np.exp(-(dist - lo) / tau)
    inner_sum = inner.sum(axis=1, keepdims=True)
    softmin = lo[:, 0] - tau * np.log(inner_sum[:, 0])
    hi = softmin.max()
    outer = np.exp((softmin - hi) / tau)
    outer_sum = outer.sum()
    value = hi + tau * np.log(outer_sum)
    w = (outer / outer_sum)[:, None] * (inner / inner_sum)
    diff = pr[None, :, :] - ps[:, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[:, :, None] > 0.0, diff / dist[:, :, None], 0.0)
    return float(value), (w[:, :, None] * unit).sum(axis=0)


def clouds(batch, n):
    return st.lists(
        st.integers(-16, 16), min_size=batch * n * 3, max_size=batch * n * 3
    ).map(lambda v: np.array(v, dtype=np.float64).reshape(batch, n, 3) / 16.0)


@st.composite
def problems(draw):
    batch = draw(st.integers(1, 4))
    n_s, n_r = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    s, r = draw(clouds(batch, n_s)), draw(clouds(batch, n_r))
    if draw(st.booleans()):  # plant coincident points
        k = min(n_s, n_r)
        r[:, :k] = s[:, :k]
    tau = draw(st.sampled_from([0.005, 0.01, 0.05, 0.2]))
    return s, r, tau


def assert_matches_reference(s, r, tau, values, grads):
    for b in range(s.shape[0]):
        v_ref, g_ref = reference_value_grad(s[b], r[b], tau)
        assert abs(values[b] - v_ref) <= VALUE_ATOL
        scale = max(np.abs(g_ref).max(), 1e-300)
        assert np.abs(grads[b] - g_ref).max() <= GRAD_RTOL * scale


@settings(max_examples=150, deadline=None)
@given(problems())
def test_batched_matches_per_sample_reference(problem):
    s, r, tau = problem
    values, grads, _ = soft_hausdorff_batch(s, r, tau)
    assert values.shape == (s.shape[0],) and grads.shape == r.shape
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))
    assert_matches_reference(s, r, tau, values, grads)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_loss_value_and_gradient_match_reference(problem):
    s, r, tau = problem
    completion = Tensor(r.copy())
    loss = soft_hausdorff_loss(s, completion, tau)
    loss.backward()
    batch = s.shape[0]
    refs = [reference_value_grad(s[b], r[b], tau) for b in range(batch)]
    assert abs(float(loss.data) - np.mean([v for v, _ in refs])) <= VALUE_ATOL
    g_ref = np.stack([g for _, g in refs]) / batch
    assert np.abs(completion.grad - g_ref).max() <= GRAD_RTOL * max(np.abs(g_ref).max(), 1e-300)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_unbatched_2d_input_is_batch_of_one(problem):
    s, r, tau = problem
    completion = Tensor(r[0].copy())
    loss = soft_hausdorff_loss(s[0], completion, tau)
    loss.backward()
    v_ref, g_ref = reference_value_grad(s[0], r[0], tau)
    assert completion.grad.shape == r[0].shape
    assert abs(float(loss.data) - v_ref) <= VALUE_ATOL
    assert np.abs(completion.grad - g_ref).max() <= GRAD_RTOL * max(np.abs(g_ref).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), clouds(1, 1))
def test_coincident_points_give_zero_gradient(batch, n_s, n_r, point):
    # every source and reference point at one spot: distance 0 everywhere
    s = np.broadcast_to(point, (batch, n_s, 3)).copy()
    r = np.broadcast_to(point, (batch, n_r, 3)).copy()
    values, grads, _ = soft_hausdorff_batch(s, r, 0.01)
    assert np.array_equal(grads, np.zeros_like(r))
    assert np.all(np.isfinite(values))


@settings(max_examples=100, deadline=None)
@given(problems())
def test_value_within_log_bound_of_hard_value(problem):
    s, r, tau = problem
    values, _, _ = soft_hausdorff_batch(s, r, tau)
    hard = hausdorff_directed_batch(s, r)
    bound = tau * np.log(s.shape[1] * r.shape[1])
    assert np.all(np.abs(values - hard) <= bound + 1e-12)


def float_clouds(batch, n):
    return st.lists(
        st.floats(-10.0, 10.0, allow_subnormal=False), min_size=batch * n * 3, max_size=batch * n * 3
    ).map(lambda v: np.array(v).reshape(batch, n, 3))


@st.composite
def float_pairs(draw):
    batch, n_s, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return draw(float_clouds(batch, n_s)), draw(float_clouds(batch, n_r))


@settings(max_examples=100, deadline=None)
@given(float_pairs())
def test_hard_batch_is_bit_identical_to_per_pair(pair):
    s, r = pair
    got = hausdorff_directed_batch(s, r)
    want = [hausdorff_directed(s[b], r[b]) for b in range(s.shape[0])]
    assert got.tolist() == want


@pytest.mark.parametrize("case", ["random", "coincident", "duplicated"])
@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_hard_distance_of_soft_pass_equals_hausdorff_directed_batch(scale, case):
    # The GAN curve's hard_HL is read from the soft-Hausdorff pass's nearest
    # distances instead of a second cdist; it must equal the direct
    # computation bit for bit.  15 draws per case, 315 in all.
    rng = np.random.default_rng([int(np.log10(scale)) + 3, len(case)])
    for _ in range(15):
        s = rng.normal(size=(3, 24, 3)) * scale
        r = rng.normal(size=(3, 32, 3)) * scale
        if case == "coincident":  # lo == 0 for some points, all of cloud 0
            r[:, :8] = s[:, :8]
            r[0, 8:] = s[0, rng.integers(0, 24, size=24)]
            s[0, 8:] = r[0, 8:24]
        elif case == "duplicated":
            s[:, 12:] = s[:, :12]
            r[:, 16:] = r[:, :16]
        tau = rng.choice([0.005, 0.01, 0.2])
        expected = hausdorff_directed_batch(s, r)
        if case == "coincident":
            assert expected[0] == 0.0
        assert soft_hausdorff_batch(s, r, tau)[2].tobytes() == expected.tobytes()
        loss = soft_hausdorff_loss(s, Tensor(r), tau)
        assert loss.hard.tobytes() == expected.tobytes()
