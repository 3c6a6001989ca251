"""Ray casting and farthest-point sampling against their broadcast forms.

`synth._first_hits` and `pointset.farthest_point_indices` work one
coordinate at a time in reused buffers.  The references below are the
(rays, tris, 3) and (n, 3) broadcast forms they replaced; both must agree
bit for bit, because every synthesized dataset is built from them.
"""

import hashlib
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scanmend import synth
from scanmend.pointset import farthest_point_indices
from scanmend.rng import Rng


def reference_first_hits(origins, direction, tris):
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    pvec = np.cross(direction[None, :], e2)
    det = (e1 * pvec).sum(axis=1)
    ok_det = np.abs(det) > 1e-12
    inv_det = np.where(ok_det, 1.0 / np.where(ok_det, det, 1.0), 0.0)
    tvec = origins[:, None, :] - v0[None, :, :]
    u = (tvec * pvec[None, :, :]).sum(axis=2) * inv_det[None, :]
    qvec = np.cross(tvec, e1[None, :, :])
    v = (qvec * direction[None, None, :]).sum(axis=2) * inv_det[None, :]
    t = (qvec * e2[None, :, :]).sum(axis=2) * inv_det[None, :]
    tol = 1e-12
    hit = ok_det[None, :] & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > 1e-9)
    return np.where(hit, t, np.inf).min(axis=1)


def reference_fps(points, m, start):
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    min_d2 = ((points - points[start]) ** 2).sum(axis=1)
    for i in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        min_d2 = np.minimum(min_d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return selected


def _assert_hits_match(origins, direction, tris):
    got = synth._first_hits(origins, direction, tris)
    want = reference_first_hits(origins, direction, tris)
    assert got.tobytes() == want.tobytes()
    return got


_AXES = [np.eye(3)[i] * s for i in range(3) for s in (1.0, -1.0)]
_DIAGONALS = [np.array([x, y, z]) / np.sqrt(3.0) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
_coord = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
_vec = st.tuples(_coord, _coord, _coord).map(np.array)


@st.composite
def _direction(draw):
    kind = draw(st.sampled_from(["axis", "diagonal", "random"]))
    if kind == "axis":
        return draw(st.sampled_from(_AXES))
    if kind == "diagonal":
        return draw(st.sampled_from(_DIAGONALS))
    d = draw(_vec.filter(lambda v: (v * v).sum() > 1e-3))
    return d / np.sqrt((d * d).sum())


@st.composite
def _triangle(draw, direction):
    v0, v1, v2 = draw(_vec), draw(_vec), draw(_vec)
    kind = draw(st.sampled_from(["random", "point", "collinear", "parallel"]))
    if kind == "point":  # zero area, all corners equal
        v1 = v2 = v0
    elif kind == "collinear":  # zero area, corners on one line
        v2 = v0 + draw(st.floats(-2.0, 2.0)) * (v1 - v0)
    elif kind == "parallel":  # the triangle's plane contains the ray direction
        v2 = v0 + draw(st.floats(0.1, 2.0)) * direction
    return np.stack([v0, v1, v2])


@st.composite
def _scene(draw):
    direction = draw(_direction())
    tris = np.stack(draw(st.lists(_triangle(direction), min_size=1, max_size=8)))
    if draw(st.booleans()):  # a fan sharing vertex 0 and its edges
        hub = tris[0, 0]
        tris = np.concatenate([tris, np.stack([np.stack([hub, t[1], t[2]]) for t in tris])])
    # Rays aimed through corners, edge midpoints and interior points of the
    # triangles, plus free rays.
    targets = [tri[i] for tri in tris for i in range(3)]
    targets += [0.5 * (tri[i] + tri[(i + 1) % 3]) for tri in tris for i in range(3)]
    targets += [tri.mean(axis=0) for tri in tris]
    targets += draw(st.lists(_vec, max_size=6))
    back = draw(st.floats(0.5, 4.0))
    origins = np.stack(targets) - back * direction
    return origins, direction, tris


@settings(max_examples=200, deadline=None)
@given(scene=_scene(), block_elems=st.sampled_from([1, 7, 64, synth._BLOCK_ELEMS]))
def test_first_hits_bit_identical_to_broadcast_form(scene, block_elems):
    # Small block sizes put block boundaries inside the ray grid.
    with mock.patch.object(synth, "_BLOCK_ELEMS", block_elems):
        _assert_hits_match(*scene)


def test_first_hits_rays_through_shared_vertex_and_edge_hit():
    # Two triangles share the edge (0,0,0)-(1,1,0); rays along -z through
    # that edge and through the shared vertex must hit at t = 1.
    tris = np.array(
        [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
         [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]]
    )
    origins = np.array([[0.5, 0.5, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]])
    t = _assert_hits_match(origins, np.array([0.0, 0.0, -1.0]), tris)
    assert t[:3].tolist() == [1.0, 1.0, 1.0]
    assert t[3] == np.inf


def test_first_hits_every_family_at_scan_resolution():
    for i, family in enumerate(synth.FAMILIES):
        mesh = synth.build_mesh(family, synth.sample_params(family, Rng(40 + i)))
        tris = mesh.triangles()
        center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
        for d in (_DIAGONALS[i], _AXES[i]):
            span = np.linspace(-1.5, 1.5, 32)
            uu, vv = np.meshgrid(span, span, indexing="ij")
            bu = np.cross(d, [0.0, 0.0, 1.0] if abs(d[2]) < 0.9 else [1.0, 0.0, 0.0])
            bu /= np.sqrt((bu * bu).sum())
            bv = np.cross(d, bu)
            origins = center - 3.0 * d + uu.reshape(-1, 1) * bu + vv.reshape(-1, 1) * bv
            t = _assert_hits_match(origins, d, tris)
            assert np.isfinite(t).any()


_cloud_coord = st.integers(-2, 2).map(float)


@st.composite
def _cloud(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):  # few distinct values: duplicates and distance ties
        pts = draw(st.lists(st.tuples(_cloud_coord, _cloud_coord, _cloud_coord),
                            min_size=n, max_size=n))
        return np.array(pts, dtype=np.float64)
    return Rng(draw(st.integers(0, 2**32))).normal((n, 3))


@settings(max_examples=200, deadline=None)
@given(points=_cloud(), data=st.data())
def test_fps_matches_reference(points, data):
    n = points.shape[0]
    m = data.draw(st.integers(1, n))
    start = data.draw(st.integers(0, n - 1))
    got = farthest_point_indices(points, m, start)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_fps(points, m, start))


def test_fps_ties_go_to_lower_index():
    # Corners of a square plus a duplicate of the start: from point 0 the
    # two adjacent corners tie at distance 1 and the diagonal wins; then
    # corners 1 and 3 tie again and the lower index comes first.
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=np.float64)
    assert farthest_point_indices(pts, 4, 0).tolist() == [0, 2, 1, 3]
    # Everything selected or duplicated: all distances are 0, argmax is 0.
    assert farthest_point_indices(np.zeros((3, 3)), 3, 2).tolist() == [2, 0, 0]


def _dataset_digest(ds) -> str:
    h = hashlib.sha256()
    for split in ("clean_train", "partial_train", "clean_test", "partial_test", "partial_train_gt"):
        h.update(np.ascontiguousarray(getattr(ds, split), dtype="<f8").tobytes())
    h.update(json.dumps(ds.manifest, sort_keys=True).encode())
    return h.hexdigest()


def test_make_dataset_output_pinned():
    # Digest of the output of the broadcast forms above.
    # The mesh builders and the noise use numpy's sin, cos and log, so a
    # numpy build with different transcendental kernels may need a new pin;
    # re-pin only after the reference tests above pass.
    cfg = synth.DatasetConfig(
        families=("box", "cylinder", "ellipsoid", "table4", "chair5", "lampoid"),
        n=48,
        total=12,
        r=(0.1, 0.5),
        seed=5,
        scan_resolution=20,
    )
    assert (
        _dataset_digest(synth.make_dataset(cfg))
        == "99a6e17989718abfc875eb6c5acd49b1ff469189d4543622dba137ffbabf791b"
    )
