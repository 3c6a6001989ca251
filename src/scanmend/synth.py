"""Procedural shape synthesis, virtual scanning, and corruption.

Stand-in for a scanned-object corpus at desk scale.  Parametric families
(boxes, cylinders, ellipsoids, and furniture-like assemblies with legs, tops
and backs) are built as triangle meshes, scanned into clean clouds by
orthographic ray casting from cameras surrounding the model, and corrupted
into partials by removing a contiguous nearest-neighbor patch, adding
Gaussian noise, and duplicating surviving points back to the original count.
A family is one FAMILIES entry, which holds its parameter ranges and its
mesh builder.

All shapes are canonically oriented: z up, backs toward +y.  Randomness is
fully determined by (seed, instance id), so synthesis order does not matter.
"""

from __future__ import annotations

import json
import numbers
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .fileio import write_atomic
from .pointset import (
    PointSet,
    downsample,
    duplicate_to_count,
    nearest_neighbors,
    normalize_unit_sphere,
)
from .ply import read_ply, write_ply
from .rng import Rng

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (v, 3)
    faces: np.ndarray  # (f, 3) vertex indices

    def triangles(self) -> np.ndarray:
        return self.vertices[self.faces]


def _merge(meshes: list[Mesh]) -> Mesh:
    verts, faces, offset = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + offset)
        offset += m.vertices.shape[0]
    return Mesh(np.concatenate(verts), np.concatenate(faces))


def _box(vmin, vmax) -> Mesh:
    x0, y0, z0 = vmin
    x1, y1, z1 = vmax
    v = np.array(
        [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ],
        dtype=np.float64,
    )
    f = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom
            [4, 5, 6], [4, 6, 7],  # top
            [0, 1, 5], [0, 5, 4],  # y0 side
            [2, 3, 7], [2, 7, 6],  # y1 side
            [1, 2, 6], [1, 6, 5],  # x1 side
            [3, 0, 4], [3, 4, 7],  # x0 side
        ],
        dtype=np.int64,
    )
    return Mesh(v, f)


def _cylinder(center_xy, z0, z1, radius, segments: int = 20) -> Mesh:
    cx, cy = center_xy
    ang = 2.0 * np.pi * np.arange(segments) / segments
    ring = np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=1)
    bot = np.column_stack([ring, np.full(segments, float(z0))])
    top = np.column_stack([ring, np.full(segments, float(z1))])
    centers = np.array([[cx, cy, z0], [cx, cy, z1]])
    v = np.concatenate([bot, top, centers])
    cb, ct = 2 * segments, 2 * segments + 1
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces.append([i, j, segments + i])  # side lower tri
        faces.append([j, segments + j, segments + i])  # side upper tri
        faces.append([j, i, cb])  # bottom cap
        faces.append([segments + i, segments + j, ct])  # top cap
    return Mesh(v, np.array(faces, dtype=np.int64))


def _ellipsoid(radii, lat: int = 10, lon: int = 18) -> Mesh:
    rx, ry, rz = radii
    verts = [[0.0, 0.0, rz]]
    for i in range(1, lat):
        th = np.pi * i / lat
        for j in range(lon):
            ph = 2.0 * np.pi * j / lon
            verts.append(
                [rx * np.sin(th) * np.cos(ph), ry * np.sin(th) * np.sin(ph), rz * np.cos(th)]
            )
    verts.append([0.0, 0.0, -rz])
    south = len(verts) - 1
    faces = []
    for j in range(lon):  # north cap
        faces.append([0, 1 + j, 1 + (j + 1) % lon])
    for i in range(lat - 2):  # bands
        a, b = 1 + i * lon, 1 + (i + 1) * lon
        for j in range(lon):
            j2 = (j + 1) % lon
            faces.append([a + j, b + j, b + j2])
            faces.append([a + j, b + j2, a + j2])
    base = 1 + (lat - 2) * lon
    for j in range(lon):  # south cap
        faces.append([south, base + (j + 1) % lon, base + j])
    return Mesh(np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64))


def _legs(w: float, d: float, s: float, top: float) -> list:
    corners = [(-w / 2, -d / 2), (w / 2 - s, -d / 2), (-w / 2, d / 2 - s), (w / 2 - s, d / 2 - s)]
    return [_box([x, y, 0.0], [x + s, y + s, top]) for x, y in corners]


def _table4(p: dict) -> Mesh:
    w, d, h, t = p["width"], p["depth"], p["height"], p["top_t"]
    top = _box([-w / 2, -d / 2, h - t], [w / 2, d / 2, h])
    return _merge([top, *_legs(w, d, p["leg_s"], h - t)])


def _chair5(p: dict) -> Mesh:
    w, d, h, t = p["seat_w"], p["seat_d"], p["seat_h"], p["seat_t"]
    seat = _box([-w / 2, -d / 2, h - t], [w / 2, d / 2, h])
    back = _box([-w / 2, d / 2 - p["back_t"], h], [w / 2, d / 2, h + p["back_h"]])
    return _merge([seat, back, *_legs(w, d, p["leg_s"], h - t)])


def _lampoid(p: dict) -> Mesh:
    top = 0.05 + p["pole_h"]
    return _merge([
        _cylinder((0.0, 0.0), 0.0, 0.05, p["base_r"]),
        _cylinder((0.0, 0.0), 0.05, top, p["pole_r"], segments=12),
        _cylinder((0.0, 0.0), top, top + p["shade_h"], p["shade_r"]),
    ])


@dataclass(frozen=True)
class ShapeFamily:
    ranges: dict  # param name -> (lo, hi)
    build: Callable[[dict], Mesh]  # params within ranges -> mesh


FAMILIES = {
    "box": ShapeFamily(
        {"hx": (0.3, 1.0), "hy": (0.3, 1.0), "hz": (0.3, 1.0)},
        lambda p: _box([-p["hx"], -p["hy"], -p["hz"]], [p["hx"], p["hy"], p["hz"]]),
    ),
    "cylinder": ShapeFamily(
        {"radius": (0.2, 0.8), "height": (0.6, 2.0)},
        lambda p: _cylinder((0.0, 0.0), 0.0, p["height"], p["radius"]),
    ),
    "ellipsoid": ShapeFamily(
        {"rx": (0.3, 1.0), "ry": (0.3, 1.0), "rz": (0.3, 1.0)},
        lambda p: _ellipsoid((p["rx"], p["ry"], p["rz"])),
    ),
    "table4": ShapeFamily(
        {
            "width": (0.9, 1.5),
            "depth": (0.7, 1.2),
            "height": (0.6, 1.0),
            "top_t": (0.05, 0.12),
            "leg_s": (0.05, 0.1),
        },
        _table4,
    ),
    "chair5": ShapeFamily(
        {
            "seat_w": (0.8, 1.2),
            "seat_d": (0.7, 1.1),
            "seat_h": (0.8, 1.1),
            "seat_t": (0.06, 0.1),
            "back_h": (0.7, 1.1),
            "back_t": (0.05, 0.09),
            "leg_s": (0.06, 0.11),
        },
        _chair5,
    ),
    "lampoid": ShapeFamily(
        {
            "base_r": (0.15, 0.3),
            "pole_r": (0.03, 0.06),
            "pole_h": (0.8, 1.4),
            "shade_r": (0.18, 0.38),
            "shade_h": (0.2, 0.4),
        },
        _lampoid,
    ),
}


def _family(name: str) -> ShapeFamily:
    fam = FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown shape family {name!r}")
    return fam


def sample_params(family: str, rng: Rng) -> dict:
    ranges = sorted(_family(family).ranges.items())
    return {name: lo + (hi - lo) * rng.uniform() for name, (lo, hi) in ranges}


def build_mesh(family: str, params: dict) -> Mesh:
    fam = _family(family)
    for name, (lo, hi) in fam.ranges.items():
        if name not in params:
            raise ValueError(f"{family}: missing parameter {name!r}")
        if not lo <= params[name] <= hi:
            raise ValueError(f"{family}: parameter {name}={params[name]} outside [{lo}, {hi}]")
    return fam.build(params)


# ---- virtual scanning ----


@dataclass(frozen=True)
class RayGrid:
    """Parallel rays of one or more cameras, each on the same square grid.

    base, direction, bu and bv hold one row per camera.  Camera k's ray
    i * res + j starts at base[k] + span[i] * bu[k] + span[j] * bv[k] and
    runs along direction[k], where res is len(span); direction[k], bu[k]
    and bv[k] are orthonormal and span increases.  origins[k] holds camera
    k's res * res ray origins.
    """

    base: np.ndarray
    direction: np.ndarray
    bu: np.ndarray
    bv: np.ndarray
    span: np.ndarray
    origins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        uu, vv = np.meshgrid(self.span, self.span, indexing="ij")
        # Built coordinate-major, so each product runs over a camera's rays
        # and _first_hits reads the (coordinate, ray) layout without a copy.
        axes = [np.ascontiguousarray(w.T)[:, :, None] for w in (self.base, self.bu, self.bv)]
        grid = uu.reshape(-1) * axes[1] + vv.reshape(-1) * axes[2]
        object.__setattr__(self, "origins", (axes[0] + grid).transpose(1, 2, 0))


@dataclass(frozen=True)
class Camera:
    """Orthographic camera: a res x res grid of parallel rays along `direction`."""

    direction: tuple
    res: int

    def __post_init__(self):
        if isinstance(self.res, bool) or not isinstance(self.res, numbers.Integral) or self.res < 1:
            raise ValueError(f"camera res must be an int >= 1, got {self.res!r}")


def camera_rays(cameras: list, center: np.ndarray, radius: float) -> RayGrid:
    """Every camera's rays over a square of half-width 1.05 * radius about
    `center`, starting 2 * radius behind it, so they cover the sphere
    (center, radius) from outside.  The cameras must share one res."""
    if not cameras:
        raise ValueError("at least one camera required")
    res = {int(cam.res) for cam in cameras}
    if len(res) > 1:
        raise ValueError(f"cameras of one scan must share one res, got {sorted(res)}")
    d = np.array([cam.direction for cam in cameras], dtype=np.float64)
    d = d / np.sqrt((d * d).sum(axis=1, keepdims=True))
    # orthonormal basis perpendicular to each ray direction
    up = np.where(np.abs(d[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    bu = np.column_stack(_cross(d.T, up.T))
    bu /= np.sqrt((bu * bu).sum(axis=1, keepdims=True))
    bv = np.column_stack(_cross(d.T, bu.T))
    span = np.linspace(-1.05 * radius, 1.05 * radius, res.pop())
    return RayGrid(center - d * (2.0 * radius), d, bu, bv, span)


def cube_corner_cameras(res: int) -> list:
    dirs = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                dirs.append((-sx, -sy, -sz))  # placed at the corner, looking inward
    return [Camera(direction=d, res=res) for d in dirs]


class ScanError(ValueError):
    pass


# (Camera, triangle, ray) triples per block: 256 KiB per float64 buffer, and
# 4 MiB for the 16 rows of per-pair data the triples gather.  A chair5 scan
# at scan_resolution 32 tests about 13,000 triples over its eight cameras.
_BLOCK_ELEMS = 1 << 15
# Pad of a projected triangle box, per unit of scene scale times the
# triangle's L**2 / |det|; see _first_hits.
_PAD = 1e-6


def _dot3(xs, ws):
    """(x0*w0 + x1*w1) + x2*w2 for three coordinates each: the order of
    numpy's sum over a trailing axis of three, so the result matches the
    (rays, tris, 3) broadcast form bit for bit."""
    return (xs[0] * ws[0] + xs[1] * ws[1]) + xs[2] * ws[2]


def _cross(a, b) -> tuple:
    """a x b by np.cross's formula, for three coordinates each."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _first_hits(rays: RayGrid, tris: np.ndarray) -> np.ndarray:
    """Nearest ray-triangle intersection distance per camera and ray, as a
    (cameras, res * res) array (inf where a ray hits nothing).

    Moller-Trumbore on only the (camera, triangle, ray) triples that can
    hit.  A ray hits a triangle only inside the triangle's projection onto
    its camera's (bu, bv) plane, so each (camera, triangle) pair with
    |det| > 1e-12 (no other ever hits) is tested against the camera's rays
    inside the triangle's projected bounding box, padded by

        pad = 1e-6 * scale * L**2 / |det|,

    where scale is the largest grid coordinate plus the camera's largest
    vertex coordinate about its base (it bounds |tvec|), L is the
    triangle's longest edge and |det| twice its projected area.  The pad is
    safe because it covers everything that lets the hit test accept a ray
    outside the box:
    - the 1e-12 tolerance on u, v and u + v enlarges the triangle by a
      factor 1 + 3e-12 about its centroid;
    - rounding in u and v moves an edge of the accepted region by a few
      ulps of scale, times the ratio of a 3-D edge to its projection or
      the thinness of the projected triangle, and neither ratio exceeds
      L**2 / |det|;
    - ray origins and projected vertices are rounded to an ulp of scale.
    L**2 / |det| >= 2 / sqrt(3) for every triangle, so the pad is at least
    1.1e-6 * scale, eight orders of magnitude above these; a triangle seen
    nearly edge-on gets a wider pad, up to the whole grid.

    Each kept triple runs the arithmetic of the full rays x triangles grid
    of its camera: qvec = tvec x e1 uses np.cross's formula, every dot
    product sums in _dot3's order, and each ray keeps the exact minimum of
    its hits, so the result is bit-identical to testing every pair.  The
    triples are listed camera by camera, then triangle by triangle, and run
    in blocks of _BLOCK_ELEMS.
    """
    span = rays.span
    cams, res = rays.direction.shape[0], span.shape[0]
    nearest = np.full(cams * res * res, np.inf)
    corners = tris.transpose(1, 2, 0)  # (corner, coordinate, triangle)
    v0 = corners[0]
    e1 = corners[1] - v0
    e2 = corners[2] - v0
    d = rays.direction.T[:, :, None]  # (coordinate, camera, 1)
    pvec = _cross(d, e2[:, None])  # three (camera, triangle) arrays
    det = _dot3(e1[:, None], pvec)
    keep = np.abs(det) > 1e-12
    if not keep.any():
        return nearest.reshape(cams, res * res)
    # Vertices about each camera's base: (coordinate, corner, camera, triangle).
    rel = tris.transpose(2, 1, 0)[:, :, None] - rays.base.T[:, None, :, None]
    reach = np.where(keep, np.abs(rel).max(axis=(0, 1)), 0.0).max(axis=1)
    scale = np.abs(span).max() + reach  # per camera
    # (axis, corner, camera, triangle)
    proj = np.stack([_dot3(rel, w.T[:, None, :, None]) for w in (rays.bu, rays.bv)])
    # One column per kept (camera, triangle) pair, camera by camera.
    col = np.flatnonzero(keep)
    cam, tri = np.divmod(col, tris.shape[0])
    longest2 = np.maximum.reduce([(e * e).sum(axis=0) for e in (e1, e2, e2 - e1)])
    det = det.ravel()[col]
    pad = _PAD * scale[cam] * longest2[tri] / np.abs(det)
    proj = proj.reshape(2, 3, -1)[:, :, col]  # (axis, corner, pair)
    # Each pair meets rays i0 <= i < i1 along bu and j0 <= j < j1 along bv.
    i0, j0 = np.searchsorted(span, proj.min(axis=1) - pad, "left")
    i1, j1 = np.searchsorted(span, proj.max(axis=1) + pad, "right")
    # Rows v0, pvec, e1, e2, direction (three each) and 1 / det.
    per_pair = np.vstack([
        v0[:, tri], np.stack(pvec).reshape(3, -1)[:, col], e1[:, tri], e2[:, tri],
        rays.direction.T[:, cam], 1.0 / det,
    ])
    width = j1 - j0
    count = (i1 - i0) * width
    end = np.cumsum(count)
    start = end - count
    first = (cam * res + i0) * res + j0
    origins = np.ascontiguousarray(rays.origins.reshape(-1, 3).T)
    total = int(end[-1])
    tol = 1e-12
    for lo in range(0, total, _BLOCK_ELEMS):
        triple = np.arange(lo, min(lo + _BLOCK_ELEMS, total))
        pair = np.searchsorted(end, triple, "right")
        di, dj = np.divmod(triple - start[pair], width[pair])
        ray = first[pair] + di * res + dj
        g = np.take(per_pair, pair, axis=1)
        inv_det = g[15]
        tvec = np.take(origins, ray, axis=1) - g[0:3]
        u = _dot3(tvec, g[3:6]) * inv_det
        qvec = _cross(tvec, g[6:9])
        v = _dot3(qvec, g[12:15]) * inv_det
        t = _dot3(qvec, g[9:12]) * inv_det
        hit = (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > 1e-9)
        np.minimum.at(nearest, ray[hit], t[hit])
    return nearest.reshape(cams, res * res)


def virtual_scan(mesh: Mesh, cameras: list) -> PointSet:
    """Union of first-hit points over all cameras, camera by camera.

    Each camera shoots a res x res grid of parallel rays covering the mesh
    bounding sphere from outside; only the nearest surface along each ray is
    kept, so self-occluded backsides are absent, as with a real scanner.
    All cameras are cast in one pass, so they must share one res.
    """
    tris = mesh.triangles()
    center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    radius = float(np.sqrt(((mesh.vertices - center) ** 2).sum(axis=1).max()))
    if radius == 0.0:
        raise ScanError("degenerate mesh")
    rays = camera_rays(cameras, center, radius)
    t = _first_hits(rays, tris)
    hit = np.isfinite(t)
    if not hit.any():
        raise ScanError("shape outside all frusta")
    cam = np.nonzero(hit)[0]
    return PointSet(rays.origins[hit] + t[hit][:, None] * rays.direction[cam])


def generate_shape(family: str, params: dict, n: int, rng: Rng, scan_res: int):
    """Mesh + clean cloud: scan, farthest-point downsample to n, normalize."""
    if n < 8:
        raise ValueError(f"n must be >= 8, got {n}")
    mesh = build_mesh(family, params)
    dense = virtual_scan(mesh, cube_corner_cameras(scan_res))
    if dense.n < n:
        raise ScanError(f"scan produced {dense.n} points, fewer than n={n}; raise scan_res")
    cloud = normalize_unit_sphere(downsample(dense, n, rng))
    return mesh, cloud


# ---- corruption ----


@dataclass(frozen=True)
class CorruptionSpec:
    """Incompleteness fraction r, noise sigma, and the draw seed."""

    r: float
    sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must be in [0, 1), got {self.r}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def _survivor_mask(clean: PointSet, removed: int, pick: int) -> np.ndarray:
    """Mask of points kept after removing `pick` and its removed-1 nearest."""
    doomed = nearest_neighbors(clean, clean.points[pick], removed)
    mask = np.ones(clean.n, dtype=bool)
    mask[doomed] = False
    return mask


def corrupt(clean: PointSet, spec: CorruptionSpec) -> PointSet:
    """Partial view of a clean cloud, same point count.

    Draw order under spec.seed: (1) the removal center (uniform point pick),
    (2) per-coordinate Gaussian noise on the survivors, (3) duplication
    indices.  floor(n*r) points are removed: the picked point plus its
    floor(n*r)-1 nearest neighbors.  Noise precedes duplication, so
    duplicates are exact copies of noisy survivors.
    """
    n = clean.n
    removed = int(np.floor(n * spec.r))
    if removed >= n:
        raise ValueError(f"removal count {removed} leaves no survivors (n={n})")
    rng = Rng(spec.seed)
    if removed > 0:
        pick = rng.randint(n)
        survivors = clean.points[_survivor_mask(clean, removed, pick)]
    else:
        survivors = clean.points
    if spec.sigma > 0.0:
        survivors = survivors + rng.normal(survivors.shape, std=spec.sigma)
    return duplicate_to_count(PointSet(survivors), n, rng)


# ---- dataset assembly ----


@dataclass(frozen=True)
class DatasetConfig:
    """Recipe for an unpaired completion dataset.

    `r` may be a single fraction or a (lo, hi) range randomized per instance
    (used when training across incompleteness levels).  `total` instances are
    split train/test by `train_fraction` (floor); the train side is divided
    into disjoint clean and partial halves so no training correspondence
    exists.  No field has a default: the presets in config.py hold the only
    copy of each setting.
    """

    families: tuple
    n: int
    total: int
    train_fraction: float
    r: object
    sigma: float
    seed: int
    scan_resolution: int

    def r_range(self) -> tuple:
        if isinstance(self.r, (tuple, list)):
            lo, hi = float(self.r[0]), float(self.r[1])
        else:
            lo = hi = float(self.r)
        if not 0.0 <= lo <= hi < 1.0:
            raise ValueError(f"r range [{lo}, {hi}] must lie in [0, 1)")
        return lo, hi


@dataclass
class Dataset:
    """In-memory dataset; arrays are (count, n, 3).

    partial_test[i] is the corruption of clean_test[i] (the hidden test
    pairs); partial_train_gt[i] is the clean cloud behind partial_train[i]
    and is consumed only by the supervised training modes.
    """

    clean_train: np.ndarray
    partial_train: np.ndarray
    clean_test: np.ndarray
    partial_test: np.ndarray
    partial_train_gt: np.ndarray
    manifest: dict = field(default_factory=dict)


def _instance_rngs(root: Rng, i: int) -> tuple:
    return root.spawn(3 * i), root.spawn(3 * i + 1), root.spawn(3 * i + 2)


def make_dataset(cfg: DatasetConfig, threads: int = 1) -> Dataset:
    """Generate, corrupt and split a dataset.

    Every instance draws from rng streams derived only from (seed, id).
    Shapes are built serially: ray casting makes many small numpy calls that
    hold the interpreter lock, so worker threads only slowed synthesis down.
    `threads` remains for callers that pass 1 and accepts nothing else.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    if not cfg.families:
        raise ValueError("family list must be non-empty")
    for fam in cfg.families:
        _family(fam)
    lo, hi = cfg.r_range()
    root = Rng(cfg.seed)
    clean = np.empty((cfg.total, cfg.n, 3))
    records: list = []
    for i in range(cfg.total):
        fam = cfg.families[i % len(cfg.families)]
        shape_rng, corr_rng, r_rng = _instance_rngs(root, i)
        params = sample_params(fam, shape_rng)
        _, cloud = generate_shape(fam, params, cfg.n, shape_rng, cfg.scan_resolution)
        clean[i] = cloud.points
        records.append({
            "id": i,
            "family": fam,
            "params": params,
            "r": lo if lo == hi else lo + (hi - lo) * r_rng.uniform(),
            "corruption_seed": corr_rng.seed,
        })
    split_rng = root.spawn(2**62)
    order = split_rng.permutation(cfg.total)
    n_train = int(np.floor(cfg.total * cfg.train_fraction))
    n_clean = (n_train + 1) // 2
    clean_ids = np.sort(order[:n_clean])
    partial_ids = np.sort(order[n_clean:n_train])
    test_ids = np.sort(order[n_train:])
    splits = {"clean_train": clean_ids, "partial_train": partial_ids, "test": test_ids}
    for split, ids in splits.items():
        for i in ids:
            records[i]["split"] = split

    def corrupt_ids(ids) -> np.ndarray:
        out = np.empty((len(ids), cfg.n, 3))
        for row, i in enumerate(ids):
            rec = records[i]
            spec = CorruptionSpec(r=rec["r"], sigma=cfg.sigma, seed=rec["corruption_seed"])
            out[row] = corrupt(PointSet(clean[i]), spec).points
        return out

    manifest = {
        **asdict(cfg),
        "version": MANIFEST_VERSION,
        "families": list(cfg.families),
        "r": [lo, hi],
        "instances": records,
    }
    return Dataset(
        clean_train=clean[clean_ids],
        partial_train=corrupt_ids(partial_ids),
        clean_test=clean[test_ids],
        partial_test=corrupt_ids(test_ids),
        partial_train_gt=clean[partial_ids],
        manifest=manifest,
    )


# ---- disk layout ----

# Split directory -> the manifest split of the records whose clouds it holds.
_SPLIT_DIRS = {"clean_train": "clean_train", "partial_train": "partial_train",
               "clean_test": "test", "partial_test": "test", "partial_train_gt": "partial_train"}


def save_dataset(dataset: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for split in _SPLIT_DIRS:
        arr = getattr(dataset, split)
        d = os.path.join(out_dir, split)
        os.makedirs(d, exist_ok=True)
        for i in range(arr.shape[0]):
            write_ply(os.path.join(d, f"{i:04d}.ply"), PointSet(arr[i]))
    text = json.dumps(dataset.manifest, sort_keys=True, indent=1) + "\n"
    write_atomic(os.path.join(out_dir, "manifest.json"), text.encode())


def load_dataset(in_dir) -> Dataset:
    """The dataset that save_dataset wrote to `in_dir`.  FileNotFoundError
    when it has no manifest; one ValueError naming the file or directory when
    the manifest is not a JSON object of this version with an int n and a
    list of instance records with known splits, a split directory is missing
    or holds another number of PLY files than the manifest has records for
    it, or a PLY file does not hold n points."""
    path = os.path.join(in_dir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no dataset manifest at {path}")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON dataset manifest: {e}") from e
    n = manifest.get("n") if isinstance(manifest, dict) else None
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: not a dataset manifest with a positive int n")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {manifest.get('version')!r}")
    records = manifest.get("instances")
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and rec.get("split") in _SPLIT_DIRS.values() for rec in records
    ):
        raise ValueError(f"{path}: instances is not a list of records with a known split")
    parts = {}
    for split, record_split in _SPLIT_DIRS.items():
        d = os.path.join(in_dir, split)
        if not os.path.isdir(d):
            raise ValueError(f"{d}: dataset split directory is missing")
        names = sorted(fn for fn in os.listdir(d) if fn.endswith(".ply"))
        want = sum(rec["split"] == record_split for rec in records)
        if len(names) != want:
            raise ValueError(f"{d}: {len(names)} PLY files, but the manifest lists {want}")
        clouds = []
        for fn in names:
            cloud = read_ply(os.path.join(d, fn)).points
            if len(cloud) != n:
                raise ValueError(f"{os.path.join(d, fn)}: point count {len(cloud)}, manifest n {n}")
            clouds.append(cloud)
        parts[split] = np.stack(clouds) if clouds else np.zeros((0, n, 3))
    return Dataset(manifest=manifest, **parts)
