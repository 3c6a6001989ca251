"""Point-set representation and the core geometric operations on it.

A :class:`PointSet` is an ordered, immutable sequence of n points in 3-space.
All shapes are expressed in normalized model units: after
:func:`normalize_unit_sphere` the centroid sits at the origin and the farthest
point has norm 1, which fixes the coordinate scale that every distance
threshold in this package assumes.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .rng import Rng


class DegenerateShapeError(ValueError):
    """Raised when a point set has zero spatial extent."""


class PointSet:
    """Immutable ordered set of n >= 1 finite points in R^3."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (n, 3) coordinates, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point set must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(n={self.n})"


def normalize_unit_sphere(pset: PointSet) -> PointSet:
    """Translate the centroid to the origin and scale the max norm to 1.

    Uniform scale + translation only, so relative geometry is preserved.
    Raises DegenerateShapeError when all points coincide.
    """
    pts = pset.points
    centered = pts - pts.mean(axis=0)
    radius = np.sqrt((centered * centered).sum(axis=1).max())
    if radius == 0.0:
        raise DegenerateShapeError("zero extent: all points coincide")
    return PointSet(centered / radius)


def nearest_neighbors(pset: PointSet, query, k: int) -> np.ndarray:
    """Indices of the k points closest to `query`, ascending by distance.

    Ties broken by lower index.  Brute force; fine for the point counts this
    package works at.
    """
    if not 1 <= k <= pset.n:
        raise ValueError(f"k must be in [1, {pset.n}], got {k}")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d2 = ((pset.points - q) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(pset.n), d2))
    return order[:k]


def downsample(pset: PointSet, m: int, rng: Rng) -> PointSet:
    """Farthest-point sampling of m distinct points, in selection order.

    The first point is drawn uniformly from `rng`; each further point
    maximizes the distance to everything already selected.
    """
    if m > pset.n:
        raise ValueError(f"cannot downsample {pset.n} points to {m}")
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = farthest_point_indices(pset.points, m, rng.randint(pset.n))
    return PointSet(pset.points[idx])


def farthest_point_indices(points: np.ndarray, m: int, start: int) -> np.ndarray:
    """FPS index sequence starting from `start` (ties broken by lower index).

    Each pick's squared distances come from one sqeuclidean cdist call,
    which sums (dx^2 + dy^2) + dz^2, the order of a sum over a trailing
    axis of three, so the sequence is that of the (n, 3) form.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    min_d2 = cdist(pts[start : start + 1], pts, "sqeuclidean")[0]
    d2 = np.empty((1, pts.shape[0]))
    for i in range(1, m):
        nxt = int(min_d2.argmax())
        selected[i] = nxt
        cdist(pts[nxt : nxt + 1], pts, "sqeuclidean", out=d2)
        np.minimum(min_d2, d2[0], out=min_d2)
    return selected


def duplicate_to_count(pset: PointSet, m: int, rng: Rng) -> PointSet:
    """Pad to exactly m points: the input first, then uniform-with-replacement
    copies of input points."""
    if m < pset.n:
        raise ValueError(f"cannot duplicate {pset.n} points down to {m}")
    if m == pset.n:
        return pset
    extra = rng.randint_array(pset.n, (m - pset.n,))
    return PointSet(np.concatenate([pset.points, pset.points[extra]], axis=0))
