import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scanmend.ply import read_ply, write_ply
from scanmend.pointset import PointSet
from scanmend.rng import Rng


def test_ply_round_trip_bit_exact(tmp_path):
    pts = Rng(0).normal((64, 3)) * np.pi
    p = tmp_path / "a.ply"
    write_ply(p, PointSet(pts))
    back = read_ply(p)
    assert np.array_equal(back.points, pts)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pts=hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 64), st.just(3)),
    elements=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
))
@example(pts=np.array([[0.0, -0.0, 5e-324], [-2.2250738585072014e-308, 1e300, -1e300]]))
def test_ply_round_trip_any_finite_cloud(tmp_path, pts):
    # signed zeros, subnormals and magnitudes up to 1e300 come back bit for bit
    p = tmp_path / "a.ply"
    write_ply(p, PointSet(pts))
    assert read_ply(p).points.tobytes() == pts.tobytes()


def test_ply_rewrite_identical_bytes(tmp_path):
    pts = Rng(1).uniform((32, 3)) - 0.5
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    write_ply(a, PointSet(pts))
    write_ply(b, read_ply(a))
    assert a.read_bytes() == b.read_bytes()


def test_ply_header_contents(tmp_path):
    p = tmp_path / "a.ply"
    write_ply(p, PointSet([[0.0, 1.0, 2.0]]))
    lines = p.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert lines[2] == "element vertex 1"
    assert lines[3:6] == ["property double x", "property double y", "property double z"]
    assert lines[6] == "end_header"
    assert lines[7].split() == ["0", "1", "2"]


def test_ply_accepts_comments_and_extra_props(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment made elsewhere\n"
        "element vertex 2\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "end_header\n"
        "0 0 0 255\n"
        "1 2 3 0\n"
    )
    got = read_ply(p)
    assert np.array_equal(got.points, [[0, 0, 0], [1, 2, 3]])


def test_ply_rejects_bad_magic(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text("off\n3 0 0\n")
    with pytest.raises(ValueError, match="not a PLY"):
        read_ply(p)


def test_ply_rejects_binary_format(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(ValueError, match="ascii"):
        read_ply(p)


def test_ply_rejects_missing_end_header(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n")
    with pytest.raises(ValueError, match="end_header"):
        read_ply(p)


def test_ply_rejects_wrong_row_count(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n0 0 0\n1 1 1\n"
    )
    with pytest.raises(ValueError, match="expected 3"):
        read_ply(p)


def test_ply_rejects_wrong_property_order(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double y\nproperty double x\nproperty double z\n"
        "end_header\n0 0 0\n"
    )
    with pytest.raises(ValueError, match="x y z"):
        read_ply(p)


def test_ply_rejects_short_row(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n0 0\n"
    )
    with pytest.raises(ValueError, match="row 0"):
        read_ply(p)


@pytest.mark.parametrize(
    "count, row, message",
    [
        ("x", "0 0 0", "invalid literal for int"),
        ("", "0 0 0", "malformed header line"),
        ("1", "nan 0 0", "point coordinates must be finite"),
    ],
)
def test_ply_errors_name_the_file_once(tmp_path, count, row, message):
    p = tmp_path / "bad.ply"
    p.write_text(
        f"ply\nformat ascii 1.0\nelement vertex {count}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"end_header\n{row}\n"
    )
    with pytest.raises(ValueError, match=message) as err:
        read_ply(p)
    assert str(err.value).count(str(p)) == 1
