"""Procedural shape synthesis, virtual scanning, and corruption.

Stand-in for a scanned-object corpus at desk scale.  Parametric families
(boxes, cylinders, ellipsoids, and furniture-like assemblies with legs, tops
and backs) are built as triangle meshes, scanned into clean clouds by
orthographic ray casting from cameras surrounding the model, and corrupted
into partials by removing a contiguous nearest-neighbor patch, adding
Gaussian noise, and duplicating surviving points back to the original count.

All shapes are canonically oriented: z up, backs toward +y.  Randomness is
fully determined by (seed, instance id), so synthesis order does not matter.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class ShapeFamily:
    name: str
    ranges: dict  # param name -> (lo, hi)


FAMILIES = {
    "box": ShapeFamily("box", {"hx": (0.3, 1.0), "hy": (0.3, 1.0), "hz": (0.3, 1.0)}),
    "cylinder": ShapeFamily("cylinder", {"radius": (0.2, 0.8), "height": (0.6, 2.0)}),
    "ellipsoid": ShapeFamily(
        "ellipsoid", {"rx": (0.3, 1.0), "ry": (0.3, 1.0), "rz": (0.3, 1.0)}
    ),
    "table4": ShapeFamily(
        "table4",
        {
            "width": (0.9, 1.5),
            "depth": (0.7, 1.2),
            "height": (0.6, 1.0),
            "top_t": (0.05, 0.12),
            "leg_s": (0.05, 0.1),
        },
    ),
    "chair5": ShapeFamily(
        "chair5",
        {
            "seat_w": (0.8, 1.2),
            "seat_d": (0.7, 1.1),
            "seat_h": (0.8, 1.1),
            "seat_t": (0.06, 0.1),
            "back_h": (0.7, 1.1),
            "back_t": (0.05, 0.09),
            "leg_s": (0.06, 0.11),
        },
    ),
    "lampoid": ShapeFamily(
        "lampoid",
        {
            "base_r": (0.15, 0.3),
            "pole_r": (0.03, 0.06),
            "pole_h": (0.8, 1.4),
            "shade_r": (0.18, 0.38),
            "shade_h": (0.2, 0.4),
        },
    ),
}


def sample_params(family: str, rng: Rng) -> dict:
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown shape family {family!r}")
    return {
        name: lo + (hi - lo) * rng.uniform() for name, (lo, hi) in sorted(fam.ranges.items())
    }


def build_mesh(family: str, params: dict) -> Mesh:
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown shape family {family!r}")
    for name, (lo, hi) in fam.ranges.items():
        if name not in params:
            raise ValueError(f"{family}: missing parameter {name!r}")
        if not lo <= params[name] <= hi:
            raise ValueError(f"{family}: parameter {name}={params[name]} outside [{lo}, {hi}]")
    p = params
    if family == "box":
        return _box([-p["hx"], -p["hy"], -p["hz"]], [p["hx"], p["hy"], p["hz"]])
    if family == "cylinder":
        return _cylinder((0.0, 0.0), 0.0, p["height"], p["radius"])
    if family == "ellipsoid":
        return _ellipsoid((p["rx"], p["ry"], p["rz"]))
    if family == "table4":
        w, d, h, t, s = p["width"], p["depth"], p["height"], p["top_t"], p["leg_s"]
        parts = [_box([-w / 2, -d / 2, h - t], [w / 2, d / 2, h])]
        parts += _legs(w, d, s, h - t)
        return _merge(parts)
    if family == "chair5":
        w, d, h, t = p["seat_w"], p["seat_d"], p["seat_h"], p["seat_t"]
        parts = [_box([-w / 2, -d / 2, h - t], [w / 2, d / 2, h])]
        parts.append(_box([-w / 2, d / 2 - p["back_t"], h], [w / 2, d / 2, h + p["back_h"]]))
        parts += _legs(w, d, p["leg_s"], h - t)
        return _merge(parts)
    if family == "lampoid":
        parts = [
            _cylinder((0.0, 0.0), 0.0, 0.05, p["base_r"]),
            _cylinder((0.0, 0.0), 0.05, 0.05 + p["pole_h"], p["pole_r"], segments=12),
            _cylinder(
                (0.0, 0.0),
                0.05 + p["pole_h"],
                0.05 + p["pole_h"] + p["shade_h"],
                p["shade_r"],
            ),
        ]
        return _merge(parts)
    raise ValueError(f"unknown shape family {family!r}")


def _legs(w: float, d: float, s: float, top: float) -> list:
    corners = [(-w / 2, -d / 2), (w / 2 - s, -d / 2), (-w / 2, d / 2 - s), (w / 2 - s, d / 2 - s)]
    return [_box([x, y, 0.0], [x + s, y + s, top]) for x, y in corners]


# ---- virtual scanning ----


@dataclass(frozen=True)
class Camera:
    """Orthographic camera: parallel rays along `direction` through a grid."""

    direction: tuple
    res: int = 48


def cube_corner_cameras(res: int = 48) -> list:
    dirs = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                dirs.append((-sx, -sy, -sz))  # placed at the corner, looking inward
    return [Camera(direction=d, res=res) for d in dirs]


class ScanError(ValueError):
    pass


# Rays per block times triangles: about 256 KiB per float64 buffer, so the
# six buffers of one block stay in cache.
_BLOCK_ELEMS = 1 << 15


def _dot3(xs, ws, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(x0*w0 + x1*w1) + x2*w2 into `out`, the order of a sum over a trailing
    axis of three, so the result matches the (r, t, 3) broadcast form bit for
    bit.  `out` may alias xs[0]."""
    np.multiply(xs[0], ws[0], out=out)
    for x, w in zip(xs[1:], ws[1:]):
        out += np.multiply(x, w, out=tmp)
    return out


def _first_hits(origins: np.ndarray, direction: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Nearest ray-triangle intersection distance per ray (inf if none).

    Moller-Trumbore over the rays x triangles grid, in blocks of rays, with
    one (rays, tris) buffer per coordinate: no (rays, tris, 3) array is
    built.  qvec = tvec x e1 uses np.cross's formula, and every dot product
    sums in _dot3's order.
    """
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    pvec = np.cross(direction[None, :], e2)  # (t, 3)
    det = (e1 * pvec).sum(axis=1)
    ok_det = np.abs(det) > 1e-12
    inv_det = np.where(ok_det, 1.0 / np.where(ok_det, det, 1.0), 0.0)
    e1x, e1y, e1z = e1.T
    n_rays = origins.shape[0]
    block = max(1, _BLOCK_ELEMS // tris.shape[0])
    bufs = np.empty((6, min(block, n_rays), tris.shape[0]))
    nearest = np.empty(n_rays)
    tol = 1e-12
    for lo in range(0, n_rays, block):
        rows = origins[lo : lo + block]
        tx, ty, tz, u, qx, tmp = bufs[:, : rows.shape[0]]
        for k, out in enumerate((tx, ty, tz)):
            np.subtract.outer(rows[:, k], v0[:, k], out=out)
        _dot3((tx, ty, tz), pvec.T, u, tmp)
        u *= inv_det
        # qvec = tvec x e1; qy is written over tz, then qz over tx.
        np.multiply(ty, e1z, out=qx)
        qx -= np.multiply(tz, e1y, out=tmp)
        np.multiply(tx, e1z, out=tmp)
        qy = np.multiply(tz, e1x, out=tz)
        qy -= tmp
        np.multiply(ty, e1x, out=tmp)
        qz = np.multiply(tx, e1y, out=tx)
        qz -= tmp
        v = _dot3((qx, qy, qz), direction, ty, tmp)
        v *= inv_det
        t = _dot3((qx, qy, qz), e2.T, qx, tmp)
        t *= inv_det
        hit = (
            ok_det[None, :]
            & (u >= -tol)
            & (v >= -tol)
            & (u + v <= 1.0 + tol)
            & (t > 1e-9)
        )
        nearest[lo : lo + block] = np.where(hit, t, np.inf).min(axis=1)
    return nearest


def virtual_scan(mesh: Mesh, cameras: list) -> PointSet:
    """Union of first-hit points over all cameras.

    Each camera shoots a res x res grid of parallel rays covering the mesh
    bounding sphere from outside; only the nearest surface along each ray is
    kept, so self-occluded backsides are absent, as with a real scanner.
    """
    if not cameras:
        raise ValueError("at least one camera required")
    tris = mesh.triangles()
    center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    radius = float(np.sqrt(((mesh.vertices - center) ** 2).sum(axis=1).max()))
    if radius == 0.0:
        raise ScanError("degenerate mesh")
    clouds = []
    for cam in cameras:
        d = np.asarray(cam.direction, dtype=np.float64)
        d = d / np.sqrt((d * d).sum())
        # orthonormal basis perpendicular to the ray direction
        up = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        bu = np.cross(d, up)
        bu /= np.sqrt((bu * bu).sum())
        bv = np.cross(d, bu)
        span = np.linspace(-1.05 * radius, 1.05 * radius, cam.res)
        uu, vv = np.meshgrid(span, span, indexing="ij")
        grid = uu.reshape(-1, 1) * bu + vv.reshape(-1, 1) * bv
        origins = center - d * (2.0 * radius) + grid
        t = _first_hits(origins, d, tris)
        mask = np.isfinite(t)
        if mask.any():
            clouds.append(origins[mask] + t[mask, None] * d)
    if not clouds:
        raise ScanError("shape outside all frusta")
    return PointSet(np.concatenate(clouds))


def generate_shape(family: str, params: dict | None, n: int, rng: Rng, scan_res: int = 48):
    """Mesh + clean cloud: scan, farthest-point downsample to n, normalize."""
    if n < 8:
        raise ValueError(f"n must be >= 8, got {n}")
    if params is None:
        params = sample_params(family, rng)
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
    exists.
    """

    families: tuple
    n: int = 128
    total: int = 100
    train_fraction: float = 0.9
    r: object = 0.25
    sigma: float = 0.01
    seed: int = 0
    scan_resolution: int = 48

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

    Every instance draws from rng streams derived only from (seed, id), so
    the result is identical whether shapes are built serially or on a thread
    pool.
    """
    if not cfg.families:
        raise ValueError("family list must be non-empty")
    for fam in cfg.families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown shape family {fam!r}")
    lo, hi = cfg.r_range()
    root = Rng(cfg.seed)
    clean = np.empty((cfg.total, cfg.n, 3))
    records: list = [None] * cfg.total

    def build(i: int):
        fam = cfg.families[i % len(cfg.families)]
        shape_rng, corr_rng, r_rng = _instance_rngs(root, i)
        params = sample_params(fam, shape_rng)
        _, cloud = generate_shape(fam, params, cfg.n, shape_rng, cfg.scan_resolution)
        r_i = lo if lo == hi else lo + (hi - lo) * r_rng.uniform()
        return cloud.points, {
            "id": i,
            "family": fam,
            "params": params,
            "r": r_i,
            "corruption_seed": corr_rng.seed,
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = pool.map(build, range(cfg.total))
            for i, (points, rec) in enumerate(built):
                clean[i] = points
                records[i] = rec
    else:
        for i in range(cfg.total):
            clean[i], records[i] = build(i)
    split_rng = root.spawn(2**62)
    order = split_rng.permutation(cfg.total)
    n_train = int(np.floor(cfg.total * cfg.train_fraction))
    n_clean = (n_train + 1) // 2
    clean_ids = np.sort(order[:n_clean])
    partial_ids = np.sort(order[n_clean:n_train])
    test_ids = np.sort(order[n_train:])
    clean_set, partial_set = set(clean_ids.tolist()), set(partial_ids.tolist())
    for i, rec in enumerate(records):
        if i in clean_set:
            rec["split"] = "clean_train"
        elif i in partial_set:
            rec["split"] = "partial_train"
        else:
            rec["split"] = "test"

    def corrupt_ids(ids) -> np.ndarray:
        out = np.empty((len(ids), cfg.n, 3))
        for row, i in enumerate(ids):
            rec = records[i]
            spec = CorruptionSpec(r=rec["r"], sigma=cfg.sigma, seed=rec["corruption_seed"])
            out[row] = corrupt(PointSet(clean[i]), spec).points
        return out

    manifest = {
        "version": MANIFEST_VERSION,
        "seed": cfg.seed,
        "families": list(cfg.families),
        "n": cfg.n,
        "total": cfg.total,
        "train_fraction": cfg.train_fraction,
        "r": [lo, hi],
        "sigma": cfg.sigma,
        "scan_resolution": cfg.scan_resolution,
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

_SPLIT_DIRS = ("clean_train", "partial_train", "clean_test", "partial_test", "partial_train_gt")


def save_dataset(dataset: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for split in _SPLIT_DIRS:
        arr = getattr(dataset, split)
        d = os.path.join(out_dir, split)
        os.makedirs(d, exist_ok=True)
        for i in range(arr.shape[0]):
            write_ply(os.path.join(d, f"{i:04d}.ply"), PointSet(arr[i]))
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(dataset.manifest, f, sort_keys=True, indent=1)
        f.write("\n")


def load_dataset(in_dir) -> Dataset:
    path = os.path.join(in_dir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no dataset manifest at {path}")
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported dataset manifest version {manifest.get('version')!r}")
    parts = {}
    for split in _SPLIT_DIRS:
        d = os.path.join(in_dir, split)
        names = sorted(fn for fn in os.listdir(d) if fn.endswith(".ply"))
        if names:
            parts[split] = np.stack([read_ply(os.path.join(d, fn)).points for fn in names])
        else:
            parts[split] = np.zeros((0, manifest["n"], 3))
    return Dataset(manifest=manifest, **parts)
