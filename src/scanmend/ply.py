"""ASCII PLY point-cloud I/O.

Coordinates are written with repr-exact precision (%.17g) so a write/read
round trip reproduces the array bit for bit, which the byte-identical rerun
guarantee depends on.
"""

from __future__ import annotations

import numpy as np

from .fileio import write_atomic
from .pointset import PointSet

_HEADER = (
    "ply\n"
    "format ascii 1.0\n"
    "element vertex {n}\n"
    "property double x\n"
    "property double y\n"
    "property double z\n"
    "end_header\n"
)
_ROW = "%.17g %.17g %.17g\n"


def write_ply(path, pset: PointSet) -> None:
    pts = pset.points
    n = pts.shape[0]
    text = _HEADER.format(n=n) + (_ROW * n) % tuple(pts.ravel().tolist())
    write_atomic(path, text.encode())


def read_ply(path) -> PointSet:
    """The vertices of an ASCII PLY file; any malformed content raises a
    ValueError whose message names `path` once."""
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f]
        if not lines or lines[0] != "ply":
            raise ValueError("not a PLY file")
        n = None
        props = []
        i = 1
        while i < len(lines):
            ln = lines[i]
            i += 1
            if ln == "end_header":
                break
            parts = ln.split()
            if not parts or parts[0] == "comment":
                continue
            if parts[0] in ("format", "element", "property") and len(parts) < 3:
                raise ValueError(f"malformed header line {ln!r}")
            if parts[0] == "format":
                if parts[1] != "ascii":
                    raise ValueError("only ascii PLY is supported")
            elif parts[0] == "element":
                if parts[1] == "vertex":
                    n = int(parts[2])
                elif n is not None:
                    raise ValueError("elements after vertex are not supported")
            elif parts[0] == "property":
                if n is not None:
                    props.append(parts[-1])
        else:
            raise ValueError("missing end_header")
        if n is None:
            raise ValueError("no vertex element")
        if props[:3] != ["x", "y", "z"]:
            raise ValueError(f"vertex properties must start with x y z, got {props}")
        body = [ln for ln in lines[i:] if ln]
        if len(body) != n:
            raise ValueError(f"expected {n} vertex rows, found {len(body)}")
        rows = [ln.split() for ln in body]
        for row, vals in enumerate(rows):
            if len(vals) != len(props):
                raise ValueError(f"row {row} has {len(vals)} values, expected {len(props)}")
        coords = [float(v) for vals in rows for v in vals[:3]]
        return PointSet(np.array(coords, dtype=np.float64).reshape(n, 3))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
