"""Ray casting and farthest-point sampling against their broadcast forms.

`synth._first_hits` casts every camera of a grid in one pass and tests
only the ray-triangle pairs whose projected boxes meet, and
`pointset.farthest_point_indices` takes each pick's distances from cdist.
The references below are the (rays, tris, 3) broadcast form for one camera
and the (n, 3) form over every pair; both must agree bit for bit, because
every synthesized dataset is built from them.
"""

import hashlib
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def _assert_hits_match(rays, tris):
    """_first_hits over every camera of `rays`, checked camera by camera."""
    got = synth._first_hits(rays, tris)
    assert got.shape == (rays.direction.shape[0], rays.span.shape[0] ** 2)
    for k, hits in enumerate(got):
        want = reference_first_hits(rays.origins[k], rays.direction[k], tris)
        assert hits.tobytes() == want.tobytes()
    return got


def _view(rays, k=0):
    """Camera k of a ray grid, with one vector per field."""
    return SimpleNamespace(base=rays.base[k], direction=rays.direction[k], bu=rays.bu[k],
                           bv=rays.bv[k], span=rays.span, origins=rays.origins[k])


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
def _camera_grid(draw):
    cam = synth.Camera(direction=tuple(draw(_direction())), res=draw(st.integers(1, 9)))
    return synth.camera_rays([cam], draw(_vec), draw(st.floats(0.1, 3.0)))


@st.composite
def _point(draw, rays, kind=None):
    """A point in front of (or behind) the grid: on a ray origin, on a grid
    line, anywhere near the grid, or outside it."""
    span, res = rays.span, rays.span.shape[0]
    half = 1.0 + abs(span[0])  # more than the grid's half-width
    depth = draw(st.floats(-0.5, 5.0)) * half
    kind = kind or draw(st.sampled_from(["node", "line", "near", "outside"]))
    i, j = draw(st.integers(0, res - 1)), draw(st.integers(0, res - 1))
    if kind == "node":
        return rays.origins[i * res + j] + depth * rays.direction
    a, b = (draw(st.floats(-1.2, 1.2)) * half for _ in range(2))
    if kind == "line":
        a = span[i]
    elif kind == "outside":
        a += draw(st.sampled_from([-3.0, 3.0])) * half
    if draw(st.booleans()):
        a, b = b, a
    return rays.base + a * rays.bu + b * rays.bv + depth * rays.direction


@st.composite
def _triangle(draw, rays):
    kind = draw(st.sampled_from(
        ["random", "nodes", "point", "collinear", "parallel", "edge_on", "huge"]))
    d = rays.direction
    if kind == "nodes":  # every corner on a ray: edges along grid lines
        return np.stack([draw(_point(rays, "node")) for _ in range(3)])
    if kind == "huge":  # larger than the whole grid
        size = draw(st.floats(3.0, 50.0)) * (1.0 + abs(rays.span[0]))
        depth = draw(st.floats(0.5, 4.0)) * (1.0 + abs(rays.span[0]))
        corners = [(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)]
        return np.stack([rays.base + size * (a * rays.bu + b * rays.bv) + depth * d
                         for a, b in corners])
    v0, v1, v2 = (draw(_point(rays)) for _ in range(3))
    if kind == "point":  # zero area, all corners equal
        v1 = v2 = v0
    elif kind == "collinear":  # zero area, corners on one line
        v2 = v0 + draw(st.floats(-2.0, 2.0)) * (v1 - v0)
    elif kind == "parallel":  # the triangle's plane contains the ray direction
        v2 = v0 + draw(st.floats(0.1, 2.0)) * d
    elif kind == "edge_on":
        # Nearly edge-on: det = e1 . (d x e2) lands just below or above the
        # 1e-12 cut.  v0 and v1 sit on rays, so rays run along the sliver.
        v0, v1 = draw(_point(rays, "node")), draw(_point(rays, "node"))
        w = draw(st.sampled_from([rays.bu, rays.bv]))
        c = float(np.dot(v1 - v0, np.cross(d, w)))
        if abs(c) > 1e-3:
            target = draw(st.sampled_from([0.5, 0.99, 1.01, 2.0, 10.0, 1e3])) * 1e-12
            v2 = v0 + draw(st.floats(-2.0, 2.0)) * d + (draw(st.sampled_from([-1, 1])) * target / c) * w
    return np.stack([v0, v1, v2])


@st.composite
def _scene(draw):
    rays = draw(_camera_grid())
    tris = np.stack(draw(st.lists(_triangle(_view(rays)), min_size=1, max_size=6)))
    return rays, draw(_maybe_fan(tris))


@st.composite
def _maybe_fan(draw, tris):
    if draw(st.booleans()):  # a fan sharing vertex 0 and its edges
        hub = tris[0, 0]
        tris = np.concatenate([tris, np.stack([np.stack([hub, t[1], t[2]]) for t in tris])])
    return tris


@settings(max_examples=400, deadline=None)
@given(scene=_scene(), block_elems=st.sampled_from([1, 7, 64, synth._BLOCK_ELEMS]))
def test_first_hits_bit_identical_to_broadcast_form(scene, block_elems):
    # Small block sizes put block boundaries inside one triangle's rays.
    with mock.patch.object(synth, "_BLOCK_ELEMS", block_elems):
        _assert_hits_match(*scene)


def _det(direction, tris):
    """The hit test's det per triangle, as the reference computes it."""
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    return (e1 * np.cross(direction[None, :], e2)).sum(axis=1)


def _not_along(axis):
    return lambda d: np.abs(np.cross(d, axis)).max() > 1e-3


@st.composite
def _multi_scene(draw):
    """2-8 cameras of one res with different directions around one sphere.

    "mixed": triangles drawn about random cameras of the grid.  "culled":
    camera 0 looks along an axis that every triangle's plane contains, so
    its det is exactly 0 for every triangle, while the other cameras keep
    theirs.  "wall": camera 0 looks at a triangle that covers its whole
    grid, which lies behind camera 1, looking the other way; camera 1 keeps
    the triangle but hits nothing.
    """
    kind = draw(st.sampled_from(["mixed", "culled", "wall"]))
    first = draw(st.sampled_from(_AXES) if kind == "culled" else _direction())
    others = _direction().filter(_not_along(first))
    dirs = [first] + draw(st.lists(others, min_size=1, max_size=7,
                                   unique_by=lambda d: tuple(d.tolist())))
    if kind == "wall":
        dirs[1] = -first
    res = draw(st.integers(1, 9))
    center, radius = draw(_vec), draw(st.floats(0.1, 3.0))
    rays = synth.camera_rays([synth.Camera(tuple(d), res) for d in dirs], center, radius)
    cam_views = st.integers(0, len(dirs) - 1).map(lambda k: _view(rays, k))
    if kind == "wall":
        r, size = _view(rays), 2.1 * radius
        wall = [r.base + size * (a * r.bu + b * r.bv) + 5.0 * radius * r.direction
                for a, b in [(-1.0, -1.0), (3.0, -1.0), (-1.0, 3.0)]]
        return rays, np.stack(wall)[None], kind
    if kind == "culled":
        tris = []
        for _ in range(draw(st.integers(1, 6))):
            v0, v1 = (draw(_point(draw(cam_views))) for _ in range(2))
            tris.append(np.stack([v0, v1, v0 + draw(st.floats(0.1, 2.0)) * first]))
        return rays, np.stack(tris), kind
    tris = np.stack([draw(_triangle(draw(cam_views))) for _ in range(draw(st.integers(1, 6)))])
    return rays, draw(_maybe_fan(tris)), kind


@settings(max_examples=300, deadline=None)
@given(scene=_multi_scene(), block_elems=st.sampled_from([1, 7, 64, 500, synth._BLOCK_ELEMS]))
def test_first_hits_of_stacked_cameras_match_each_camera(scene, block_elems):
    # Small block sizes put block boundaries between and inside cameras.
    rays, tris, kind = scene
    if kind == "culled":
        assert (np.abs(_det(rays.direction[0], tris)) <= 1e-12).all()
        assume(all((np.abs(_det(d, tris)) > 1e-12).any() for d in rays.direction[1:]))
    with mock.patch.object(synth, "_BLOCK_ELEMS", block_elems):
        hits = _assert_hits_match(rays, tris)
    if kind == "culled":
        assert np.isinf(hits[0]).all()
    if kind == "wall":
        assert np.isfinite(hits[0]).all()
        assert (np.abs(_det(rays.direction[1], tris)) > 1e-12).all()
        assert np.isinf(hits[1]).all()


def _axis_grid(span):
    """Rays along -z from z = 1 through (span[i], span[j], 0)."""
    ex, ey = np.eye(3)[:2]
    return synth.RayGrid(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]), ex[None],
                         ey[None], np.asarray(span, dtype=np.float64))


def test_first_hits_rays_through_shared_vertex_and_edge_hit():
    # Two triangles share the edge (0,0,0)-(1,1,0); rays along -z through
    # that edge and through the shared vertex must hit at t = 1.
    tris = np.array(
        [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
         [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]]
    )
    t = _assert_hits_match(_axis_grid([0.0, 0.5, 1.0, 2.0]), tris).reshape(4, 4)
    assert t[[0, 1, 2], [0, 1, 2]].tolist() == [1.0, 1.0, 1.0]
    assert t[3, 3] == np.inf


def test_first_hits_rays_along_box_edges():
    # A square whose corners and edges lie on rays of a camera grid, seen
    # straight on and at a slant: every ray on its border grazes an edge.
    mesh = synth.build_mesh("box", {"hx": 0.5, "hy": 0.5, "hz": 0.5})
    rays = _axis_grid(np.linspace(-1.0, 1.0, 9))
    t = _assert_hits_match(rays, mesh.triangles()).reshape(9, 9)
    assert np.isfinite(t[2:7, 2:7]).all()
    assert np.isinf(np.delete(np.delete(t, range(2, 7), 0), range(2, 7), 1)).all()
    for res in (7, 9, 17, 33):
        cams = synth.cube_corner_cameras(res)
        _assert_hits_match(synth.camera_rays(cams, np.zeros(3), 0.5 / 1.05), mesh.triangles())


def test_first_hits_nearly_edge_on_sliver():
    # Edge v0-v1 runs almost along the rays and v2 stops just short of a
    # ray on the grid line through v0.  det sits a little above the 1e-12
    # cut, so rounding in v, about ulp * |tvec| * |e1| / det, can accept
    # that ray although it lies beyond the tip by far more than 1e-6 of
    # the scene: the pad has to grow with L**2 / |det|.
    rng = np.random.default_rng(0)
    beyond_tip = 0
    for _ in range(300):
        d = rng.normal(size=3)
        cam = synth.Camera(tuple(d / np.sqrt((d * d).sum())), res=3)
        rays = synth.camera_rays([cam], np.zeros(3), 1.0)
        r = _view(rays)
        v0 = r.base - r.bv + 2.0 * r.direction
        v2 = r.base + (r.span[2] - 10 ** rng.uniform(-7, -3)) * r.bv + 2.0 * r.direction
        v1 = v0 + 10 ** rng.uniform(-12.3, -11.5) * r.bu + 2.0 * r.direction
        t = _assert_hits_match(rays, np.stack([v0, v1, v2])[None])[0]
        beyond_tip += bool(np.isfinite(t[1 * 3 + 2]))
    assert beyond_tip > 0


def _camera_rays(mesh, res):
    center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    radius = float(np.sqrt(((mesh.vertices - center) ** 2).sum(axis=1).max()))
    return synth.camera_rays(synth.cube_corner_cameras(res), center, radius)


def test_first_hits_every_family_at_scan_resolution():
    for i, family in enumerate(synth.FAMILIES):
        mesh = synth.build_mesh(family, synth.sample_params(family, Rng(40 + i)))
        hits = _assert_hits_match(_camera_rays(mesh, 32), mesh.triangles())
        assert all(np.isfinite(t).any() for t in hits)


def test_scan_res_one_and_two():
    # With one or two rays per side every ray runs along a corner of the
    # square around the bounding sphere, so none can hit the mesh.
    mesh = synth.build_mesh("chair5", synth.sample_params("chair5", Rng(3)))
    for res in (1, 2):
        assert np.isinf(_assert_hits_match(_camera_rays(mesh, res), mesh.triangles())).all()
        with pytest.raises(synth.ScanError, match="outside all frusta"):
            synth.virtual_scan(mesh, synth.cube_corner_cameras(res))
    assert synth.virtual_scan(mesh, synth.cube_corner_cameras(3)).n > 0


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
        train_fraction=0.9,
        r=(0.1, 0.5),
        sigma=0.01,
        seed=5,
        scan_resolution=20,
    )
    assert (
        _dataset_digest(synth.make_dataset(cfg))
        == "99a6e17989718abfc875eb6c5acd49b1ff469189d4543622dba137ffbabf791b"
    )
