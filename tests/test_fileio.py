"""Every artifact write goes through fileio.write_atomic, so a write that
fails midway leaves the old file's bytes and no temp file behind."""

import os
import re

import numpy as np
import pytest

from scanmend import cli, fileio
from scanmend.gan import GanSpec, build_generator
from scanmend.nn.checkpoint import save_bundle
from scanmend.ply import write_ply
from scanmend.pointset import PointSet
from scanmend.rng import Rng
from scanmend.synth import Dataset, save_dataset


def _dataset() -> Dataset:
    clouds = Rng(0).normal((1, 4, 3))
    return Dataset(clouds, clouds, clouds, clouds, clouds, manifest={"version": 1, "n": 4})


# name -> (file the writer replaces, the writer given its directory)
WRITERS = {
    "ply": ("a.ply", lambda d: write_ply(os.path.join(d, "a.ply"), PointSet(np.ones((4, 3))))),
    "checkpoint": ("g.json", lambda d: save_bundle(
        os.path.join(d, "g.json"), {"generator": build_generator(GanSpec(k=2), Rng(0))},
        kind="gan", seed=0)),
    "manifest": ("manifest.json", lambda d: save_dataset(_dataset(), d)),
    "csv": ("r.csv", lambda d: cli._write_csv(os.path.join(d, "r.csv"), ["a", "b"], [[1, 0.5]])),
    "json": ("r.json", lambda d: cli._write_json(os.path.join(d, "r.json"), {"a": [1, 2]})),
}


class _HalfWriter:
    """A file whose write puts half the data on disk, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("name", list(WRITERS))
def test_write_failing_midway_keeps_old_file(tmp_path, monkeypatch, name):
    target, write = WRITERS[name]
    path = tmp_path / target
    path.write_bytes(b"old bytes\n")
    hit = []

    def failing_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        if os.path.basename(file).startswith(target + "."):
            hit.append(file)
            return _HalfWriter(f)
        return f

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space left"):
        write(str(tmp_path))
    assert len(hit) == 1
    # The temp name carries the writer's PID, which the run-lock sweep reads.
    assert re.fullmatch(rf"{re.escape(target)}\.{os.getpid()}\.[0-9a-f]{{32}}\.tmp",
                        os.path.basename(hit[0]))
    assert path.read_bytes() == b"old bytes\n"
    assert not [fn for fn in os.listdir(tmp_path) if fn.endswith(".tmp")]

    monkeypatch.undo()  # the same write, unhindered, replaces the file
    write(str(tmp_path))
    assert path.read_bytes() != b"old bytes\n"
    assert not [fn for fn in os.listdir(tmp_path) if fn.endswith(".tmp")]
