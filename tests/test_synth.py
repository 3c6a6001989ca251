import numpy as np
import pytest

from scanmend.pointset import PointSet
from scanmend.rng import Rng
from scanmend.synth import (
    FAMILIES,
    Camera,
    CorruptionSpec,
    DatasetConfig,
    ScanError,
    build_mesh,
    corrupt,
    cube_corner_cameras,
    generate_shape,
    load_dataset,
    make_dataset,
    sample_params,
    save_dataset,
    virtual_scan,
)


def test_sample_params_in_range_and_deterministic():
    for fam in FAMILIES:
        p1 = sample_params(fam, Rng(5))
        p2 = sample_params(fam, Rng(5))
        assert p1 == p2
        for name, (lo, hi) in FAMILIES[fam].ranges.items():
            assert lo <= p1[name] <= hi
    with pytest.raises(ValueError, match="unknown shape family"):
        sample_params("torus", Rng(0))


def test_meshes_have_finite_triangles():
    for fam in FAMILIES:
        mesh = build_mesh(fam, sample_params(fam, Rng(1)))
        tris = mesh.triangles()
        assert tris.shape[1:] == (3, 3)
        assert np.all(np.isfinite(tris))
        # nondegenerate: every triangle has positive area
        a = tris[:, 1] - tris[:, 0]
        b = tris[:, 2] - tris[:, 0]
        areas = 0.5 * np.sqrt((np.cross(a, b) ** 2).sum(axis=1))
        assert np.all(areas > 1e-12)


def test_scan_hits_lie_on_axis_aligned_plane():
    # a box face viewed straight on: every hit must land exactly on the face
    mesh = build_mesh("box", {"hx": 0.5, "hy": 0.5, "hz": 0.5})
    cam = Camera(direction=np.array([0.0, 0.0, -1.0]), res=16)
    pts = virtual_scan(mesh, [cam]).points
    assert np.all(np.abs(pts[:, 2] - 0.5) < 1e-9)


def test_scan_single_camera_sees_only_near_hemisphere():
    mesh = build_mesh("ellipsoid", {"rx": 0.8, "ry": 0.8, "rz": 0.8})
    cam = Camera(direction=np.array([0.0, 0.0, -1.0]), res=24)
    pts = virtual_scan(mesh, [cam]).points
    assert pts.shape[0] > 20
    assert np.all(pts[:, 2] > -1e-9)


def test_scan_antipodal_cameras_cover_both_hemispheres():
    mesh = build_mesh("ellipsoid", {"rx": 0.7, "ry": 0.7, "rz": 0.7})
    cams = [
        Camera(direction=np.array([0.0, 0.0, -1.0]), res=24),
        Camera(direction=np.array([0.0, 0.0, 1.0]), res=24),
    ]
    pts = virtual_scan(mesh, cams).points
    assert (pts[:, 2] > 0.1).any() and (pts[:, 2] < -0.1).any()


def test_scan_points_on_surface():
    mesh = build_mesh("box", {"hx": 0.4, "hy": 0.6, "hz": 0.5})
    pts = virtual_scan(mesh, cube_corner_cameras(24)).points
    # every point on some face plane of the box
    on_face = (
        (np.abs(np.abs(pts[:, 0]) - 0.4) < 1e-9)
        | (np.abs(np.abs(pts[:, 1]) - 0.6) < 1e-9)
        | (np.abs(np.abs(pts[:, 2]) - 0.5) < 1e-9)
    )
    assert np.all(on_face)


def test_scan_miss_and_degenerate_raise():
    from scanmend.synth import Mesh

    # a single triangle viewed exactly edge-on is invisible to every ray
    flat = Mesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        faces=np.array([[0, 1, 2]]),
    )
    with pytest.raises(ScanError, match="outside"):
        virtual_scan(flat, [Camera(direction=(1.0, 0.0, 0.0), res=4)])
    point = Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 2]]))
    with pytest.raises(ScanError, match="degenerate"):
        virtual_scan(point, [Camera(direction=(0.0, 0.0, -1.0), res=4)])
    with pytest.raises(ValueError, match="camera"):
        virtual_scan(flat, [])


def test_scan_rejects_cameras_of_different_res():
    # All cameras of a scan are cast as one grid, which has one span.
    mesh = build_mesh("box", {"hx": 0.5, "hy": 0.5, "hz": 0.5})
    cams = [Camera(direction=(0.0, 0.0, -1.0), res=8), Camera(direction=(1.0, 0.0, 0.0), res=9),
            Camera(direction=(0.0, 1.0, 0.0), res=8)]
    with pytest.raises(ValueError, match=r"^cameras of one scan must share one res, got \[8, 9\]$"):
        virtual_scan(mesh, cams)


@pytest.mark.parametrize("res", [0, -3, 1.5, 2.0, "4", True, None])
def test_camera_rejects_bad_res(res):
    with pytest.raises(ValueError, match=r"^camera res must be an int >= 1, got .*$"):
        Camera(direction=(0.0, 0.0, -1.0), res=res)
    assert Camera(direction=(0.0, 0.0, -1.0), res=np.int64(1)).res == 1


def test_generate_shape_contract():
    rng = Rng(3)
    mesh, cloud = generate_shape("box", sample_params("box", rng), 64, rng, scan_res=24)
    assert cloud.n == 64
    radii = np.sqrt((cloud.points**2).sum(axis=1))
    assert abs(radii.max() - 1.0) < 1e-9
    assert np.allclose(cloud.points.mean(axis=0), 0.0, atol=1e-9)
    with pytest.raises(ValueError, match="n must be"):
        generate_shape("box", sample_params("box", Rng(0)), 4, Rng(0), scan_res=24)


def test_generate_box_shows_all_six_faces():
    params = {"hx": 0.5, "hy": 0.5, "hz": 0.5}
    mesh, cloud = generate_shape("box", params, 128, Rng(4), scan_res=32)
    # recover pre-normalization geometry: cube of half-side s scaled about 0
    pts = cloud.points
    for axis in range(3):
        lo, hi = pts[:, axis].min(), pts[:, axis].max()
        near_lo = np.abs(pts[:, axis] - lo) < 1e-6
        near_hi = np.abs(pts[:, axis] - hi) < 1e-6
        assert near_lo.sum() >= 3 and near_hi.sum() >= 3, f"axis {axis} face missing"


def test_corruption_spec_validation():
    with pytest.raises(ValueError, match="r must be"):
        CorruptionSpec(r=1.0)
    with pytest.raises(ValueError, match="r must be"):
        CorruptionSpec(r=-0.1)
    with pytest.raises(ValueError, match="sigma"):
        CorruptionSpec(r=0.2, sigma=-1.0)


def test_corrupt_r_zero_is_noise_only():
    clean = PointSet(Rng(6).uniform((30, 3)))
    out = corrupt(clean, CorruptionSpec(r=0.0, sigma=0.01, seed=1))
    assert out.n == 30
    # no removal, no duplication: every point moved slightly, none replaced
    d = np.sqrt(((out.points - clean.points) ** 2).sum(axis=1))
    assert np.all(d < 0.1) and np.all(d > 0.0)
    exact = corrupt(clean, CorruptionSpec(r=0.0, sigma=0.0, seed=1))
    assert np.array_equal(exact.points, clean.points)


def test_corrupt_collinear_example():
    pts = np.zeros((8, 3))
    pts[:, 0] = np.arange(8.0)
    clean = PointSet(pts)
    # try seeds until the uniform pick lands on index 0 (x=0)
    for seed in range(200):
        rng = Rng(seed)
        if rng.randint(8) == 0:
            break
    else:
        pytest.fail("no seed picked index 0")
    out = corrupt(clean, CorruptionSpec(r=0.5, sigma=0.0, seed=seed))
    assert out.n == 8
    survivors = set(np.unique(out.points[:, 0]).tolist())
    assert survivors == {4.0, 5.0, 6.0, 7.0}


def test_corrupt_removal_fraction_exact():
    clean = PointSet(Rng(7).uniform((40, 3)))
    for r in (0.1, 0.25, 0.5, 0.73):
        out = corrupt(clean, CorruptionSpec(r=r, sigma=0.0, seed=3))
        kept = {tuple(p) for p in out.points}
        orig = {tuple(p) for p in clean.points}
        assert kept <= orig  # survivors are a subset of the clean set
        assert len(kept) == 40 - int(np.floor(40 * r))
        assert out.n == 40


def test_corrupt_determinism_and_seed_sensitivity():
    clean = PointSet(Rng(8).uniform((25, 3)))
    a = corrupt(clean, CorruptionSpec(r=0.3, sigma=0.01, seed=5)).points
    b = corrupt(clean, CorruptionSpec(r=0.3, sigma=0.01, seed=5)).points
    c = corrupt(clean, CorruptionSpec(r=0.3, sigma=0.01, seed=6)).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _tiny_cfg(**kw):
    base = dict(
        families=("box", "cylinder"),
        n=32,
        total=12,
        train_fraction=0.75,
        r=0.3,
        sigma=0.01,
        seed=9,
        scan_resolution=24,
    )
    base.update(kw)
    return DatasetConfig(**base)


def test_make_dataset_split_sizes_and_unpairedness():
    ds = make_dataset(_tiny_cfg())
    # 12 * 0.75 = 9 train -> 5 clean + 4 partial, 3 test
    assert ds.clean_train.shape == (5, 32, 3)
    assert ds.partial_train.shape == (4, 32, 3)
    assert ds.clean_test.shape == (3, 32, 3)
    assert ds.partial_test.shape == (3, 32, 3)
    assert ds.partial_train_gt.shape == (4, 32, 3)
    by_split = {}
    for rec in ds.manifest["instances"]:
        by_split.setdefault(rec["split"], set()).add(rec["id"])
    assert by_split["clean_train"] & by_split["partial_train"] == set()
    assert len(by_split["clean_train"] | by_split["partial_train"] | by_split["test"]) == 12


def test_make_dataset_90_10_split():
    cfg = _tiny_cfg(total=100, train_fraction=0.9, families=("box",), n=16, scan_resolution=16)
    ds = make_dataset(cfg)
    assert ds.clean_train.shape[0] + ds.partial_train.shape[0] == 90
    assert ds.clean_test.shape[0] == 10


def test_make_dataset_deterministic_and_thread_invariant():
    a = make_dataset(_tiny_cfg())
    b = make_dataset(_tiny_cfg(), threads=1)
    for split in ("clean_train", "partial_train", "clean_test", "partial_test"):
        assert np.array_equal(getattr(a, split), getattr(b, split))
    assert a.manifest == b.manifest
    for threads in (2, 0):  # synthesis has no thread pool
        with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
            make_dataset(_tiny_cfg(), threads=threads)


def test_make_dataset_test_pairs_correspond():
    ds = make_dataset(_tiny_cfg(sigma=0.0))
    # with sigma 0 every test partial's points are a subset of its own clean
    for partial, clean in zip(ds.partial_test, ds.clean_test):
        kept = {tuple(p) for p in partial}
        orig = {tuple(p) for p in clean}
        assert kept <= orig


def test_make_dataset_r_range_per_instance():
    ds = make_dataset(_tiny_cfg(r=(0.1, 0.5), total=16))
    rs = [rec["r"] for rec in ds.manifest["instances"]]
    assert all(0.1 <= r <= 0.5 for r in rs)
    assert len(set(rs)) > 4  # actually varies across instances


def test_make_dataset_validation():
    with pytest.raises(ValueError, match="non-empty"):
        make_dataset(_tiny_cfg(families=()))
    with pytest.raises(ValueError, match="unknown shape family"):
        make_dataset(_tiny_cfg(families=("box", "pyramid")))
    with pytest.raises(ValueError, match="r range"):
        make_dataset(_tiny_cfg(r=(0.5, 0.1)))


def test_save_load_round_trip(tmp_path):
    ds = make_dataset(_tiny_cfg())
    save_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    for split in ("clean_train", "partial_train", "clean_test", "partial_test", "partial_train_gt"):
        assert np.array_equal(getattr(ds, split), getattr(back, split))
    assert back.manifest == ds.manifest
    with pytest.raises(FileNotFoundError, match="manifest"):
        load_dataset(tmp_path / "nowhere")
