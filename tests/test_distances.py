"""Distance-function tests.

EMD is checked against a brute-force oracle that enumerates every bijection,
so any systematic error in the assignment solver shows up
as a mismatch rather than hiding behind a shared implementation.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from scanmend import distances
from scanmend.distances import (
    chamfer,
    emd,
    hausdorff_directed,
    hausdorff_from_sq,
    soft_hausdorff_batch,
)
from scanmend.metrics import evaluate_completions
from scanmend.nn.lossops import emd_loss
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng


def brute_force_emd(a, b):
    """Minimum mean matched distance over all n! bijections."""
    dist = cdist(a, b)
    n = len(a)
    perms = np.array(list(permutations(range(n))))
    costs = dist[np.arange(n)[None, :], perms].mean(axis=1)
    return float(costs.min())


def test_emd_two_point_example():
    a = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    b = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]
    cost, mapping = emd(a, b)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert mapping.tolist() == [0, 1]


def test_emd_brute_force_oracle():
    rng = Rng(11)
    for trial in range(60):
        n = 2 + trial % 6
        a = rng.uniform((n, 3)) * 2.0 - 1.0
        b = rng.uniform((n, 3)) * 2.0 - 1.0
        cost, mapping = emd(a, b)
        assert cost == pytest.approx(brute_force_emd(a, b), abs=1e-9)
        assert sorted(mapping.tolist()) == list(range(n))


def test_emd_properties():
    rng = Rng(12)
    for _ in range(10):
        a = rng.normal((20, 3))
        b = rng.normal((20, 3))
        cab, _ = emd(a, b)
        cba, _ = emd(b, a)
        assert cab == pytest.approx(cba, abs=1e-12)
        assert emd(a, a)[0] == 0.0
        perm = Rng(13).permutation(20)
        assert emd(a[perm], b)[0] == pytest.approx(cab, abs=1e-12)
        # mean convention: uniform scaling scales the distance linearly
        c2, _ = emd(2.0 * a, 2.0 * b)
        assert c2 == pytest.approx(2.0 * cab, rel=1e-12)


def test_emd_rejects_count_mismatch():
    with pytest.raises(ValueError, match="counts differ"):
        emd(np.zeros((3, 3)), np.zeros((4, 3)))


def emd_grad(a, b):
    """Gradient of emd(a, b) in the points of a, from the emd_loss backward."""
    pred = Tensor(a)
    emd_loss(pred, b).backward()
    return pred.grad


def test_emd_grad_single_point_example():
    g = emd_grad([[0.0, 0.0, 0.0]], [[0.0, 0.0, 2.0]])
    assert np.allclose(g, [[0.0, 0.0, -1.0]])


def test_emd_grad_finite_difference():
    rng = Rng(14)
    a = rng.uniform((6, 3))
    b = rng.uniform((6, 3)) + 0.5  # offset keeps the assignment stable
    g = emd_grad(a, b)
    h = 1e-6
    for i in range(6):
        for c in range(3):
            ap, am = a.copy(), a.copy()
            ap[i, c] += h
            am[i, c] -= h
            num = (emd(ap, b)[0] - emd(am, b)[0]) / (2 * h)
            assert g[i, c] == pytest.approx(num, abs=1e-5)


def test_emd_grad_zero_at_coincident_points():
    a = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0]])
    g = emd_grad(a, b)
    assert np.all(g[0] == 0.0)
    assert np.allclose(g[1], [-0.5, 0.0, 0.0])


def test_emd_exact_above_512_points(monkeypatch):
    n = 520
    rng = Rng(15)
    a = rng.uniform((n, 3))
    b = rng.uniform((n, 3))
    dist = cdist(a, b)
    rows, cols = linear_sum_assignment(dist)
    calls = []

    def spy(d):
        calls.append(d.shape)
        return linear_sum_assignment(d)

    monkeypatch.setattr(distances, "linear_sum_assignment", spy)
    cost, mapping = emd(a, b)
    assert calls == [(n, n)]  # one solve per emd, as the tracer counts
    assert sorted(mapping.tolist()) == list(range(n))
    assert cost == dist[rows, cols].mean()


def test_chamfer_examples():
    # 4 in each direction
    assert chamfer([[0.0, 0.0, 0.0]], [[0.0, 0.0, 2.0]]) == pytest.approx(8.0, abs=1e-12)
    # subset: 0 one way, (0 + 4)/2 the other
    a = [[0.0, 0.0, 0.0]]
    b = [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
    assert chamfer(a, b) == pytest.approx(2.0, abs=1e-12)


def test_chamfer_properties():
    rng = Rng(17)
    a = rng.normal((15, 3))
    b = rng.normal((25, 3))
    assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)
    assert chamfer(a, a) == 0.0
    # squared convention: uniform scaling scales the value quadratically
    assert chamfer(3.0 * a, 3.0 * b) == pytest.approx(9.0 * chamfer(a, b), rel=1e-12)


def test_hausdorff_example():
    s = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 5.0, 0.0]]
    r = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assert hausdorff_directed(s, r) == pytest.approx(5.0, abs=1e-12)
    assert hausdorff_directed(r, s) == pytest.approx(0.0, abs=1e-12)
    # the symmetric score of evaluate_completions, from one matrix
    for a, b in ((s, r), (r, s)):
        assert evaluate_completions([a], [b]).rows[0]["hausdorff_sym"] == pytest.approx(5.0, abs=1e-12)
    d2 = cdist(s, r, "sqeuclidean")
    assert hausdorff_from_sq(d2) == hausdorff_directed(s, r)
    assert hausdorff_from_sq(d2.T) == hausdorff_directed(r, s)


def test_hausdorff_directed_is_max_of_nn():
    rng = Rng(18)
    s = rng.uniform((30, 3))
    r = rng.uniform((12, 3))
    d = cdist(s, r)
    assert hausdorff_directed(s, r) == pytest.approx(d.min(axis=1).max(), abs=1e-12)


def test_hausdorff_monotone_in_reference():
    # adding points to the reference can only shrink the directed distance
    rng = Rng(19)
    s = rng.uniform((20, 3))
    r = rng.uniform((5, 3))
    extra = rng.uniform((10, 3))
    assert hausdorff_directed(s, np.vstack([r, extra])) <= hausdorff_directed(s, r) + 1e-15


def _soft_hausdorff(s, r, tau):
    """Value and gradient in r of soft_hausdorff_batch on a batch of one."""
    values, grads, _ = soft_hausdorff_batch(
        np.asarray(s, dtype=np.float64)[None], np.asarray(r, dtype=np.float64)[None], tau
    )
    return float(values[0]), grads[0]


def test_soft_hausdorff_bound_and_convergence():
    rng = Rng(20)
    for _ in range(10):
        s = rng.uniform((25, 3))
        r = rng.uniform((40, 3))
        hard = hausdorff_directed(s, r)
        for tau in (0.05, 0.01, 0.001):
            soft, _ = _soft_hausdorff(s, r, tau)
            assert abs(soft - hard) <= tau * np.log(25 * 40) + 1e-12


def test_soft_hausdorff_grad_example():
    # one scan point at origin, one reference point straight above it:
    # moving the reference up increases the distance at unit rate
    _, g = _soft_hausdorff([[0.0, 0.0, 0.0]], [[0.0, 0.0, 2.0]], tau=0.01)
    assert np.allclose(g, [[0.0, 0.0, 1.0]], atol=1e-12)


def test_soft_hausdorff_subset_bound():
    rng = Rng(22)
    r = rng.uniform((20, 3))
    s = r[:8]  # hard value is exactly 0
    tau = 0.01
    assert abs(_soft_hausdorff(s, r, tau)[0]) <= tau * np.log(8 * 20)


def test_soft_hausdorff_grad_finite_difference():
    rng = Rng(21)
    s = rng.uniform((8, 3))
    r = rng.uniform((6, 3))
    tau = 0.05
    _, g = _soft_hausdorff(s, r, tau)
    h = 1e-6
    for i in range(6):
        for c in range(3):
            rp, rm = r.copy(), r.copy()
            rp[i, c] += h
            rm[i, c] -= h
            num = (_soft_hausdorff(s, rp, tau)[0] - _soft_hausdorff(s, rm, tau)[0]) / (2 * h)
            assert g[i, c] == pytest.approx(num, abs=1e-5)


def test_soft_hausdorff_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        _soft_hausdorff([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], tau=0.0)


def test_input_validation():
    with pytest.raises(ValueError, match="ValueError|expected"):
        chamfer(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hausdorff_directed(np.zeros((0, 3)), np.zeros((2, 3)))


def _cloud_pair_and_permutation(n):
    cloud = hnp.arrays(np.float64, (n, 3), elements=st.floats(-10.0, 10.0))
    return st.tuples(cloud, cloud, st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 16).flatmap(_cloud_pair_and_permutation))
def test_emd_symmetric_and_permutation_invariant(case):
    # Equal to 1e-12 relative, not bitwise: another order of the points sums
    # the matched distances in another order.
    a, b, perm = case
    cost = emd(a, b)[0]
    for other in (emd(b, a)[0], emd(a[list(perm)], b)[0]):
        assert abs(other - cost) <= 1e-12 * max(abs(other), abs(cost))
