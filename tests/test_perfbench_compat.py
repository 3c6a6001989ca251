"""The entry points that perfbench/tracer.py wraps, by name and signature,
and what perfbench/workloads.py passes into scanmend.

The tracer wraps functions and methods of scanmend at run time and reads
their arguments by position: a layer's train flag as the third argument of
its forward, a train_gan call's mode as the third, the clouds of a
soft_hausdorff_loss call as its first two, and the mesh and cameras of a
virtual_scan call, whose faces and camera res it counts.  The workloads
pass keywords that nothing else in the project uses.  A renamed function,
a deleted keyword or a reordered parameter would break only the benchmark's own smoke test, so
this Tier-1 test pins what the benchmark reads and passes.
"""

import importlib.util
import inspect
import os
import sys

import pytest

from scanmend import autoencoder, distances, gan, metrics, ply, pointset, synth
from scanmend.nn import checkpoint, layers, lossops, optim, tensor

POS = inspect.Parameter.POSITIONAL_OR_KEYWORD


def _params(fn) -> list:
    return list(inspect.signature(fn).parameters.values())


def _positional(fn) -> list:
    return [p.name for p in _params(fn) if p.kind == POS]


def _load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tensor_backward_takes_only_an_optional_upstream():
    params = _params(tensor.Tensor.backward)
    assert [(p.name, p.kind) for p in params] == [("self", POS), ("upstream", POS)]
    assert params[1].default is None


@pytest.mark.parametrize(
    "cls", [layers.PointwiseDense, layers.Dense, layers.BatchNorm, layers.ReLU, layers.MaxPool]
)
def test_layer_forward_is_self_x_train(cls):
    # The tracer wraps cls.__dict__["forward"], so each class binds its own.
    fn = cls.__dict__["forward"]
    assert [(p.name, p.kind, p.default) for p in _params(fn)] == [
        ("self", POS, inspect.Parameter.empty),
        ("x", POS, inspect.Parameter.empty),
        ("train", POS, inspect.Parameter.empty),
    ]


def test_adam_step_is_state_params_grads():
    assert [(p.name, p.kind) for p in _params(optim.adam_step)] == [
        ("state", POS), ("params", POS), ("grads", POS)
    ]


def test_soft_hausdorff_loss_starts_with_source_and_completion():
    assert _positional(lossops.soft_hausdorff_loss)[:2] == ["source", "completion"]


def test_train_gan_takes_clouds_mode_and_config_by_position_and_the_rest_by_keyword():
    params = _params(gan.train_gan)
    assert _positional(gan.train_gan) == ["clean_clouds", "partial_clouds", "mode", "cfg"]
    assert all(p.kind == inspect.Parameter.KEYWORD_ONLY for p in params[4:])


def test_scan_and_fps_take_what_the_tracer_reads_by_position(monkeypatch):
    # scan_counts reads virtual_scan's mesh and cameras by position, then
    # each camera's res and the mesh's faces: the synth.rays,
    # synth.ray_tri_tests and synth.hit_ratio counters come from them.
    assert _positional(synth.virtual_scan) == ["mesh", "cameras"]
    assert _positional(pointset.farthest_point_indices) == ["points", "m", "start"]
    tracer = _load_perfbench(monkeypatch, "tracer").Tracer()
    mesh = synth.build_mesh("box", {"hx": 0.5, "hy": 0.6, "hz": 0.7})
    cams = synth.cube_corner_cameras(6)
    tracer.install()
    try:
        tracer.begin_chunk()
        dense = synth.virtual_scan(mesh, cams)
        pointset.farthest_point_indices(dense.points, 4, 0)
        tracer.end_chunk()
    finally:
        tracer.uninstall()
    (stats,) = tracer.chunk_stats()
    assert dict(stats.counts) == {
        "synth.rays": 8 * 6 * 6,
        "synth.ray_tri_tests": 8 * 6 * 6 * 12,
        "synth.hits": dense.n,
    }
    assert stats.calls["synth.virtual_scan"] == stats.calls["pointset.fps"] == 1


def test_every_traced_name_exists():
    traced = {
        synth: ("make_dataset", "save_dataset", "load_dataset", "generate_shape",
                "virtual_scan", "corrupt"),
        pointset: ("farthest_point_indices",),
        ply: ("write_ply", "read_ply"),
        checkpoint: ("load_bundle",),
        optim: ("adam_step",),
        lossops: ("emd_loss", "soft_hausdorff_loss"),
        distances: ("emd", "linear_sum_assignment", "hausdorff_directed", "chamfer"),
        autoencoder: ("train_ae", "reconstruction_emd"),
        gan: ("train_gan",),
        metrics: ("evaluate_completions", "jsd", "incompleteness_sweep"),
        gan.CompletionPipeline: ("complete_batch",),
        layers.Network: ("forward", "param_vector", "grad_vector", "set_param_vector"),
    }
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, names in traced.items()
        for name in names
        if not callable(getattr(owner, name, None))
    ]
    assert missing == []


def test_workloads_build_their_configs_and_find_the_keywords_they_pass(monkeypatch):
    workloads = _load_perfbench(monkeypatch, "workloads")
    assert workloads.gan_config(1).epochs == 1
    assert workloads.ae_config(1).epochs == 1
    assert "gan_loss" in inspect.signature(gan.save_gan).parameters
    assert "threads" in inspect.signature(synth.make_dataset).parameters
    assert callable(checkpoint.content_hash)
