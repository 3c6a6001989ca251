import argparse
import builtins
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanmend import cli
from scanmend.cli import main
from scanmend.config import (
    SCHEMA,
    ConfigError,
    PRESETS,
    load_config,
    override_seed,
    resolve_config,
    validate_config,
)
from scanmend.autoencoder import load_autoencoder
from scanmend.gan import (
    GanSpec,
    GanTrainResult,
    TrainingMode,
    assemble_pipeline,
    build_generator,
    load_gan,
    save_gan,
)
from scanmend.ply import read_ply, write_ply
from scanmend.pointset import PointSet
from scanmend.rng import Rng
from scanmend.synth import FAMILIES


# ---- config resolution ----


def test_presets_are_valid_and_default_is_desk_scale():
    for preset in PRESETS.values():
        validate_config(preset)
    cfg = resolve_config()
    assert cfg["dataset"]["n"] == 128
    assert cfg["ae"]["k"] == 16
    # the clean-train split of the default preset holds 200 shapes
    n_train = int(cfg["dataset"]["total"] * cfg["dataset"]["train_fraction"])
    assert (n_train + 1) // 2 == 200
    paper = resolve_config(preset="paper-scale")
    assert paper["dataset"]["n"] == 2048 and paper["ae"]["k"] == 128
    toy = resolve_config(preset="toy-chairs")
    assert toy["dataset"]["families"] == ["chair5"]
    assert toy["dataset"]["r"] == [0.1, 0.5]


def test_overlay_and_preset_precedence():
    cfg = resolve_config({"ae": {"epochs": 7}}, preset="desk-scale")
    assert cfg["ae"]["epochs"] == 7
    assert cfg["ae"]["k"] == 16  # untouched sibling key
    # a preset named inside the config wins over the argument
    cfg = resolve_config({"preset": "toy-chairs"}, preset="paper-scale")
    assert cfg["dataset"]["families"] == ["chair5"]
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(preset="warehouse-scale")


@pytest.mark.parametrize(
    "patch,msg",
    [
        pytest.param({"typo_section": {}}, "unknown top-level", id="patch0-unknown top-level"),
        pytest.param(
            {"ae": {"momentum": 0.9}}, "unknown keys in 'ae'", id="patch1-unknown keys in 'ae'"
        ),
        pytest.param({"version": 99}, "version", id="patch2-version"),
        pytest.param({"dataset": {"families": []}}, "non-empty", id="patch3-non-empty"),
        pytest.param(
            {"dataset": {"families": ["teapot"]}}, "unknown shape family",
            id="patch4-unknown shape family"
        ),
        pytest.param({"dataset": {"n": 4}}, "dataset.n", id="patch5-dataset.n"),
        pytest.param(
            {"dataset": {"train_fraction": 1.0}}, "train_fraction", id="patch6-train_fraction"
        ),
        pytest.param({"dataset": {"r": [0.5, 0.1]}}, "dataset.r", id="patch7-dataset.r"),
        pytest.param({"dataset": {"r": 1.2}}, "dataset.r", id="patch8-dataset.r"),
        pytest.param({"ae": {"lr": 0}}, "ae.lr", id="patch9-ae.lr"),
        pytest.param({"ae": {"linear": 1}}, "ae.linear", id="patch10-ae.linear"),
        pytest.param({"gan": {"mode": "wgan"}}, "gan.mode", id="patch11-gan.mode"),
        pytest.param(
            {"gan": {"gan_loss": "ls"}}, "unknown keys in 'gan'", id="patch12-gan.gan_loss"
        ),
        pytest.param({"gan": {"tau": 0.0}}, "gan.tau", id="patch13-gan.tau"),
        pytest.param({"eval": {"r_sweep": []}}, "r_sweep", id="patch14-r_sweep"),
        pytest.param({"eval": {"jsd_grid": 1}}, "jsd_grid", id="patch15-jsd_grid"),
        pytest.param({"dataset": {"seed": 1.5}}, "seed", id="patch16-seed"),
        pytest.param({"paths": {"reports": ""}}, "paths.reports", id="patch17-paths.reports"),
        pytest.param(
            {"dataset": {"families": [{}]}}, "unknown shape family",
            id="patch18-unknown shape family"
        ),
        pytest.param(
            {"dataset": {"families": [["chair5"]]}}, "unknown shape family",
            id="patch19-unknown shape family"
        ),
        pytest.param(
            {"preset": ["x"]}, "preset must be a string", id="patch20-preset must be a string"
        ),
        pytest.param(
            {"preset": []}, "preset must be a string", id="patch21-preset must be a string"
        ),
        pytest.param(
            {"preset": 0}, "preset must be a string", id="patch22-preset must be a string"
        ),
        pytest.param({"ae": {"k": True}}, "ae.k", id="patch23-ae.k"),
        pytest.param({"ae": {"batch_size": True}}, "ae.batch_size", id="patch24-ae.batch_size"),
        pytest.param({"dataset": {"seed": True}}, "dataset.seed", id="patch25-dataset.seed"),
        pytest.param({"ae": {"seed": True}}, "ae.seed", id="patch26-ae.seed"),
        pytest.param({"gan": {"seed": True}}, "gan.seed", id="patch27-gan.seed"),
        pytest.param({"eval": {"seed": True}}, "eval.seed", id="patch28-eval.seed"),
        pytest.param({"version": True}, "version", id="patch29-version"),
        pytest.param({"ae": {"lr": float("inf")}}, "ae.lr", id="patch30-ae.lr"),
        pytest.param(
            {"dataset": {"sigma": float("inf")}}, "dataset.sigma", id="patch31-dataset.sigma"
        ),
        pytest.param({"eval": {"eps": float("inf")}}, "eval.eps", id="patch32-eval.eps"),
        pytest.param({"gan": {"lr": float("inf")}}, "gan.lr", id="patch33-gan.lr"),
        pytest.param({"gan": {"tau": float("nan")}}, "gan.tau", id="patch34-gan.tau"),
        # ints too large for a float
        pytest.param({"ae": {"lr": 10**400}}, "ae.lr", id="patch35-ae.lr"),
        pytest.param({"dataset": {"sigma": 10**400}}, "dataset.sigma", id="patch36-dataset.sigma"),
        pytest.param({"dataset": {"r": [0, 10**400]}}, "dataset.r", id="patch37-dataset.r"),
        pytest.param(
            {"eval": {"r_sweep": [0.1, -(10**400)]}}, "eval.r_sweep", id="patch38-eval.r_sweep"
        ),
    ],
)
def test_validation_rejects_bad_values(patch, msg):
    with pytest.raises(ConfigError, match=msg):
        resolve_config(patch)


@pytest.mark.parametrize(
    "text",
    [
        '{"dataset": {"families": [{}]}}',
        '{"preset": ["x"]}',
        '{"ae": {"batch_size": true}}',
        '{"ae": {"lr": Infinity}}',
        pytest.param('{"ae": {"lr": 1%s}}' % ("0" * 400), id="int-too-large-for-float"),
        '[1, 2]',
    ],
)
def test_bad_config_file_is_one_line_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["synth", "--run", str(tmp_path / "r"), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violation: ") and err.count("\n") == 1


_LEAF = (
    st.sampled_from([None, True, False, 0, 1, -1, 0.5, float("inf"), float("nan"), "", [], {}])
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([*FAMILIES, *(m.value for m in TrainingMode), *PRESETS])
)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Where an overlay may put a value: every schema key, whole sections, and
# unknown names at both levels.
_PLACES = (
    [(section, key) for section, rules in SCHEMA.items() for key in rules]
    + [(name, None) for name in (*SCHEMA, "preset", "version", "bogus")]
    + [(section, "bogus") for section in SCHEMA]
)


@st.composite
def _overlays(draw):
    overlay = {}
    for section, key in draw(st.lists(st.sampled_from(_PLACES), max_size=3)):
        if key is None:
            overlay[section] = draw(_JSON)
            continue
        if not isinstance(overlay.get(section), dict):
            overlay[section] = {}
        overlay[section][key] = draw(_JSON)
    return overlay


@settings(max_examples=400, deadline=None)
@given(overlay=_overlays() | _JSON)
def test_any_overlay_resolves_or_raises_config_error(overlay):
    try:
        cfg = resolve_config(overlay)
    except ConfigError:
        return
    json.dumps(cfg, allow_nan=False)  # what the run directory records is standard JSON


def test_override_seed_touches_every_section():
    cfg = override_seed(resolve_config(), 42)
    assert all(cfg[s]["seed"] == 42 for s in ("dataset", "ae", "gan", "eval"))


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


# ---- CLI end-to-end on a micro preset ----


MICRO = {
    "preset": "desk-scale",
    "dataset": {"families": ["box"], "n": 16, "total": 8, "train_fraction": 0.75,
                "scan_resolution": 16, "r": 0.25},
    "ae": {"k": 4, "epochs": 2, "batch_size": 2},
    "gan": {"epochs": 2, "batch_size": 2},
    "eval": {"r_sweep": [0.1, 0.3], "jsd_grid": 8},
}


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """One full pipeline pass: synth, both AEs, GAN, complete, eval, sweep."""
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(MICRO))
    run = base / "run"
    args = ["--run", str(run), "--config", str(cfg_path)]
    assert main(["synth", *args]) == 0
    assert main(["train-ae", *args]) == 0
    assert main(["train-ae", *args, "--target", "partial"]) == 0
    assert main(["train-gan", *args]) == 0
    completions = base / "completions"
    assert main(["complete", *args, "--input", str(run / "dataset" / "partial_test"),
                 "--output", str(completions)]) == 0
    with warnings.catch_warnings():
        # the untrained micro decoder emits points outside the JSD grid
        warnings.simplefilter("ignore", UserWarning)
        assert main(["eval", *args, "--completions", str(completions),
                     "--gt", str(run / "dataset" / "clean_test"), "--label", "t"]) == 0
    assert main(["sweep", *args]) == 0
    return {"base": base, "run": run, "cfg": cfg_path, "completions": completions,
            "args": args}


def test_run_directory_layout(micro_run):
    run = micro_run["run"]
    for rel in (
        "config.resolved.json",
        "dataset/manifest.json",
        "checkpoints/clean_ae.json",
        "checkpoints/partial_ae.json",
        "checkpoints/gan_default.json",
        "reports/ae_clean_loss.csv",
        "reports/ae_partial_loss.csv",
        "reports/gan_default_loss.csv",
        "reports/t_per_shape.csv",
        "reports/t_summary.json",
        "reports/sweep.csv",
    ):
        assert (run / rel).is_file(), rel
    assert not (run / "run.lock").exists()  # released after each invocation
    resolved = json.loads((run / "config.resolved.json").read_text())
    assert resolved["dataset"]["families"] == ["box"]
    assert resolved["ae"]["k"] == 4  # overlay applied on the preset


def test_completions_match_input_names_and_count(micro_run):
    run, completions = micro_run["run"], micro_run["completions"]
    in_names = sorted(os.listdir(run / "dataset" / "partial_test"))
    out_names = sorted(os.listdir(completions))
    assert in_names == out_names
    for name in out_names:
        assert read_ply(completions / name).n == 16


def test_reports_content(micro_run):
    run = micro_run["run"]
    summary = json.loads((run / "reports" / "t_summary.json").read_text())
    assert set(summary) == {"accuracy", "completeness", "f1", "emd", "chamfer",
                            "hausdorff_sym", "jsd", "jsd_mode_collapse", "count"}
    assert summary["count"] == 2
    sweep = (run / "reports" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "r,f1_ae,emd_ae,f1_ours,emd_ours"
    assert [line.split(",")[0] for line in sweep[1:]] == ["0.1", "0.3"]
    gan_csv = (run / "reports" / "gan_default_loss.csv").read_text().splitlines()
    assert gan_csv[0] == "epoch,L_F,L_G,hard_HL,adv_term"
    assert len(gan_csv) == 3  # header + 2 epochs


def test_rerun_is_byte_identical(micro_run):
    run, args = micro_run["run"], micro_run["args"]
    gan_csv = run / "reports" / "gan_default_loss.csv"
    gan_ckpt = run / "checkpoints" / "gan_default.json"
    sweep_csv = run / "reports" / "sweep.csv"
    before = {p: p.read_bytes() for p in (gan_csv, gan_ckpt, sweep_csv)}
    assert main(["train-gan", *args]) == 0
    assert main(["sweep", *args]) == 0
    for p, data in before.items():
        assert p.read_bytes() == data, p


def test_seed_override_recorded(micro_run, tmp_path):
    run = tmp_path / "seeded"
    assert main(["synth", "--run", str(run), "--config", str(micro_run["cfg"]),
                 "--seed", "7"]) == 0
    resolved = json.loads((run / "config.resolved.json").read_text())
    assert all(resolved[s]["seed"] == 7 for s in ("dataset", "ae", "gan", "eval"))


def _assert_locked(micro_run, capsys, content):
    run, args = micro_run["run"], micro_run["args"]
    lock = run / "run.lock"
    lock.write_text(content)
    try:
        assert main(["sweep", *args]) == 1
        assert "locked" in capsys.readouterr().err
        assert lock.read_text() == content  # left as it was
    finally:
        lock.unlink()


def test_lock_blocks_second_invocation(micro_run, capsys):
    _assert_locked(micro_run, capsys, f"{os.getpid()}\n")  # a live owner


@pytest.mark.parametrize(
    "content",
    ["not a pid\n", "", "0\n", "-1\n", "1e99\n", "99999999999999999999\n"],
    ids=["text", "empty", "zero", "negative", "float", "huge"],
)
def test_lock_with_garbage_content_blocks(micro_run, capsys, content):
    # Content that names no process cannot show the owner has exited.
    _assert_locked(micro_run, capsys, content)


def test_lock_of_exited_owner_is_taken_over(micro_run, capsys):
    run, args = micro_run["run"], micro_run["args"]
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID names no process now
    lock = run / "run.lock"
    lock.write_text(f"{child.pid}\n")
    assert main(["sweep", *args]) == 0
    err = capsys.readouterr().err
    assert f"taking over {lock} from process {child.pid}" in err
    assert len(err.strip().splitlines()) == 1
    assert not lock.exists()


@pytest.mark.parametrize("command, code", [
    (["sweep"], 0),
    (["eval", "--completions", "missing", "--gt", "missing"], 1),
], ids=["sweep", "failing-eval"])
def test_lock_owner_removes_temp_files_of_killed_writes(micro_run, command, code):
    # write_atomic names a temp file NAME.<PID>.<uuid4 hex>.tmp; a process
    # killed before its rename leaves it.  The next invocation to hold the
    # lock removes those whose writer has exited, and nothing else: another
    # process may be writing under RUN through an absolute `paths` entry.
    run, args = micro_run["run"], micro_run["args"]
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID names no process now
    hex32 = "0123456789abcdef" * 2
    dead, live = f"{child.pid}.{hex32}", f"{os.getpid()}.{hex32}"
    left = [run / "checkpoints" / f"clean_ae.json.{dead}.tmp",
            run / "reports" / f"sweep.csv.{dead}.tmp",
            run / f"config.resolved.json.{dead}.tmp"]
    kept = [run / "notes.tmp", run / "reports" / f"sweep.csv.{dead[:-1]}.tmp",
            run / "checkpoints" / f"partial_ae.json.{live}.tmp"]
    for path in left + kept:
        path.write_bytes(b"partial")
    try:
        assert main([*command, *args]) == code
        assert [p for p in left if p.exists()] == []
        assert all(p.read_bytes() == b"partial" for p in kept)
    finally:
        for path in left + kept:
            path.unlink(missing_ok=True)


def test_missing_artifacts_are_distinct_errors(micro_run, tmp_path, capsys):
    cfg = str(micro_run["cfg"])
    empty = tmp_path / "empty-run"
    assert main(["train-ae", "--run", str(empty), "--config", cfg]) == 1
    assert "dataset not found" in capsys.readouterr().err
    # dataset present but no AE checkpoint
    half = tmp_path / "half-run"
    assert main(["synth", "--run", str(half), "--config", cfg]) == 0
    assert main(["train-gan", "--run", str(half), "--config", cfg]) == 1
    assert "missing checkpoint" in capsys.readouterr().err


def test_malformed_ply_is_reported(micro_run, tmp_path, capsys):
    nan_row = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
               "property double y\nproperty double z\nend_header\nnan 0 0\n")
    for i, text in enumerate(["solid nonsense\n", nan_row]):
        bad = tmp_path / f"bad{i}" / "0000.ply"
        bad.parent.mkdir()
        bad.write_text(text)
        assert main(["complete", *micro_run["args"], "--input", str(bad.parent),
                     "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed PLY") and err.count(str(bad)) == 1


def test_complete_rejects_wrong_point_count(micro_run, tmp_path, capsys):
    in_dir = tmp_path / "five"
    in_dir.mkdir()
    write_ply(in_dir / "0000.ply", PointSet(np.zeros((5, 3))))
    assert main(["complete", *micro_run["args"], "--input", str(in_dir),
                 "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot complete 0000.ply: expected 16 points, got 5\n"


def test_complete_overflow_is_one_line(micro_run, tmp_path, capsys):
    # Finite coordinates this large overflow the encoder's first GEMM.  The
    # error names the file, and no numpy warning is printed: pytest turns
    # scanmend's RuntimeWarnings into errors.
    in_dir = tmp_path / "huge"
    in_dir.mkdir()
    write_ply(in_dir / "0000.ply", PointSet(Rng(0).normal((16, 3)) * 5e307))
    capsys.readouterr()
    assert main(["complete", *micro_run["args"], "--input", str(in_dir),
                 "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: cannot complete 0000.ply:"
        " non-finite activation after layer 0 (pointwise) of encoder\n"
    )


@pytest.mark.parametrize(
    "entry,value,msg",
    [
        pytest.param("mean", {"shape": [1], "data": "AAAAAAAA4D8="},
                     "entry batchnorm.1.mean has shape (1,), expected (64,)", id="shape"),
        pytest.param("mean", None, "missing entry batchnorm.1.mean", id="missing"),
        pytest.param("var", {"shape": [64], "data": "AAAAAAAA4D8="},
                     "unreadable entry batchnorm.1.var", id="mis-sized"),
    ],
)
def test_complete_rejects_bad_checkpoint_entry(micro_run, tmp_path, capsys, entry, value, msg):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    ckpt = clone / "checkpoints" / "clean_ae.json"
    doc = json.loads(ckpt.read_text())
    stats = doc["networks"]["encoder"]["batchnorm"]["1"]
    if value is None:
        del stats[entry]
    else:
        stats[entry] = value
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", "--run", str(clone), "--config", str(micro_run["cfg"]),
                 "--input", str(clone / "dataset" / "partial_test"),
                 "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: network 'encoder': {msg}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_complete_rejects_checkpoint_spec_without_init(micro_run, tmp_path, capsys):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    ckpt = clone / "checkpoints" / "clean_ae.json"
    doc = json.loads(ckpt.read_text())
    del doc["networks"]["encoder"]["architecture"][0]["init"]
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", "--run", str(clone), "--config", str(micro_run["cfg"]),
                 "--input", str(clone / "dataset" / "partial_test"),
                 "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: network 'encoder': stored architecture does not match extra.spec\n"
    )


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["extra"].pop("mode"), "entry extra.mode is None, not a training mode"),
    (lambda doc: doc["extra"].update(mode="bogus"),
     "entry extra.mode is 'bogus', not a training mode"),
    (lambda doc: doc["networks"].pop("generator"), "missing network 'generator'"),
    (lambda doc: doc["extra"].pop("k"), "missing entry extra.k"),
    (lambda doc: doc["extra"].update(k=0), "bad entry extra.k (k must be a positive int, got 0)"),
    (lambda doc: doc["extra"].update(k="4"),
     "bad entry extra.k (k must be a positive int, got '4')"),
    # MICRO's k is 4: a generator built for k = 5 is not the stored one.
    (lambda doc: doc["extra"].update(k=5),
     "network 'generator': stored architecture does not match extra.k"),
    (lambda doc: doc["extra"].pop("clean_ae_hash"),
     "entry extra.clean_ae_hash is None, not a checkpoint hash"),
    (lambda doc: doc["extra"].update(clean_ae_hash=None),
     "entry extra.clean_ae_hash is None, not a checkpoint hash"),
    (lambda doc: doc["extra"].update(clean_ae_hash=7),
     "entry extra.clean_ae_hash is 7, not a checkpoint hash"),
    # The default-mode checkpoint stores no partial hash.
    (lambda doc: doc["extra"].update(mode="partial_ae"),
     "entry extra.partial_ae_hash is None, not a checkpoint hash"),
], ids=["no-mode", "bogus-mode", "no-generator", "no-k", "zero-k", "string-k", "other-k",
        "no-clean-hash", "null-clean-hash", "int-clean-hash", "partial-mode-no-partial-hash"])
def test_complete_rejects_gan_checkpoint_without_mode_or_generator(
    micro_run, tmp_path, capsys, edit, message
):
    # The checkpoint's mode picks the source encoder, and its hashes the
    # autoencoders it runs with; no other value stands in.
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    ckpt = clone / "checkpoints" / "gan_default.json"
    doc = json.loads(ckpt.read_text())
    edit(doc)
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", "--run", str(clone), "--config", str(micro_run["cfg"]),
                 "--input", str(clone / "dataset" / "partial_test"),
                 "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _spec(**entries):
    """Edit that sets entries of an autoencoder checkpoint's extra.spec."""
    return lambda doc: {**doc, "extra": {"spec": {**doc["extra"]["spec"], **entries}}}


SPEC_VALUES = "n and k must be positive ints and linear a bool, got AutoencoderSpec"


@pytest.mark.parametrize("name, edit, message", [
    ("gan_default", _without("networks"), "missing entry networks"),
    ("gan_default", lambda doc: {**doc, "networks": list(doc["networks"])},
     "entry networks is not a dict of networks"),
    ("gan_default", lambda doc: {**doc, "extra": "default"}, "entry extra is not a dict"),
    ("gan_default", _without("kind"), "missing entry kind"),
    ("gan_default", _without("seed"), "missing entry seed"),
    ("gan_default", lambda doc: [doc], "unrecognized format None"),
    ("clean_ae", lambda doc: {**doc, "extra": {}}, "missing entry extra.spec"),
    ("clean_ae", _spec(n=0), f"bad entry extra.spec ({SPEC_VALUES}(n=0, k=4, linear=False))"),
    ("clean_ae", _spec(k=4.0),
     f"bad entry extra.spec ({SPEC_VALUES}(n=16, k=4.0, linear=False))"),
    ("clean_ae", _spec(n="16"),
     f"bad entry extra.spec ({SPEC_VALUES}(n='16', k=4, linear=False))"),
    ("clean_ae", _spec(linear=0),
     f"bad entry extra.spec ({SPEC_VALUES}(n=16, k=4, linear=0))"),
    # The stored decoder emits 16 points; one built for 8 is not it.
    ("clean_ae", _spec(n=8), "network 'decoder': stored architecture does not match extra.spec"),
    ("clean_ae", _spec(k=5), "network 'encoder': stored architecture does not match extra.spec"),
], ids=["no-networks", "networks-list", "extra-string", "no-kind", "no-seed", "not-a-dict",
        "no-spec", "zero-n", "float-k", "string-n", "int-linear", "other-n", "other-k"])
def test_complete_rejects_checkpoint_without_top_level_entries(
    micro_run, tmp_path, capsys, name, edit, message
):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    ckpt = clone / "checkpoints" / f"{name}.json"
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    capsys.readouterr()
    assert main(["complete", "--run", str(clone), "--config", str(micro_run["cfg"]),
                 "--input", str(clone / "dataset" / "partial_test"),
                 "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_eval_name_mismatch_is_reported(micro_run, tmp_path, capsys):
    run = micro_run["run"]
    renamed = tmp_path / "renamed"
    shutil.copytree(micro_run["completions"], renamed)
    os.rename(renamed / "0000.ply", renamed / "9999.ply")
    assert main(["eval", *micro_run["args"], "--completions", str(renamed),
                 "--gt", str(run / "dataset" / "clean_test")]) == 1
    assert "names differ" in capsys.readouterr().err


def test_checkpoint_mismatch_detected(micro_run, tmp_path, capsys):
    # retraining the clean AE with a new seed invalidates the GAN checkpoint
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    cfg = str(micro_run["cfg"])
    assert main(["train-ae", "--run", str(clone), "--config", cfg, "--seed", "9"]) == 0
    assert main(["complete", "--run", str(clone), "--config", cfg,
                 "--input", str(clone / "dataset" / "partial_test"),
                 "--output", str(tmp_path / "out")]) == 1
    assert "checkpoint mismatch" in capsys.readouterr().err


def test_config_error_paths(micro_run, tmp_path, capsys):
    run = str(tmp_path / "r")
    assert main(["synth", "--run", run, "--config", str(tmp_path / "nope.json")]) == 1
    assert "config file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"n": 2}}))
    assert main(["synth", "--run", run, "--config", str(bad)]) == 2
    assert "config schema violation" in capsys.readouterr().err


def test_readme_command_block_matches_parser_flags():
    """Each subcommand's --flags in README's command block are exactly its
    parser options; --config, --preset and --seed are described in prose."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command-line use", 1)[1].split("```")[1]
    documented = {}
    for line in block.splitlines():
        code = line.split("#")[0]  # drop the trailing comment
        if code.startswith("scanmend "):
            documented.setdefault(code.split()[1], set()).update(re.findall(r"--[a-z-]+", code))
    prose = {"--help", "--config", "--preset", "--seed"}
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - prose
        for name, p in sub.choices.items()
    }
    assert documented == parsed


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["disassemble", "--run", "x"])
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "scanmend" in capsys.readouterr().out


def test_train_gan_diverging_in_first_epoch_is_one_line(micro_run, tmp_path, capsys):
    # A step size this large overflows the second batch of epoch 1, so no
    # epoch finishes and the loss curve has no row.
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps({**MICRO, "gan": {**MICRO["gan"], "lr": 1e300}}))
    capsys.readouterr()
    assert main(["train-gan", "--run", str(clone), "--config", str(cfg_path)]) == 0
    ckpt = clone / "checkpoints" / "gan_default.json"
    assert capsys.readouterr() == (
        f"gan [default]: diverged in epoch 1, kept the initial parameters, saved {ckpt}\n", ""
    )
    curve = (clone / "reports" / "gan_default_loss.csv").read_text().splitlines()
    assert curve == ["epoch,L_F,L_G,hard_HL,adv_term"]
    seed = json.loads((clone / "config.resolved.json").read_text())["gan"]["seed"]
    initial = build_generator(GanSpec(k=MICRO["ae"]["k"]), Rng(seed).spawn(0))
    saved = load_gan(ckpt).nets["generator"]
    assert np.array_equal(saved.param_vector(), initial.param_vector())


def test_train_gan_without_partial_shapes_is_one_line(tmp_path, capsys):
    # total 3 at train fraction 0.34 leaves one clean and no partial training shape
    cfg_path = tmp_path / "one_clean.json"
    cfg_path.write_text(json.dumps(
        {**MICRO, "dataset": {**MICRO["dataset"], "total": 3, "train_fraction": 0.34}}
    ))
    run = tmp_path / "run"
    args = ["--run", str(run), "--config", str(cfg_path)]
    assert main(["synth", *args]) == 0
    assert main(["train-ae", *args]) == 0
    capsys.readouterr()
    assert main(["train-gan", *args]) == 1
    assert capsys.readouterr() == ("", "error: dataset has no partial_train shapes to train on\n")
    assert not (run / "checkpoints" / "gan_default.json").exists()
    assert not (run / "reports" / "gan_default_loss.csv").exists()


def test_train_gan_reads_and_hashes_clean_ae_once(micro_run, tmp_path, monkeypatch):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    ae_file = clone / "checkpoints" / "clean_ae.json"
    reads = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == str(ae_file):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert main(["train-gan", "--run", str(clone), "--config", str(micro_run["cfg"])]) == 0
    monkeypatch.undo()
    assert len(reads) == 1
    recorded = load_gan(clone / "checkpoints" / "gan_default.json").extra["clean_ae_hash"]
    assert recorded == hashlib.sha256(ae_file.read_bytes()).hexdigest()


def test_ablate_gan_checkpoints_name_the_autoencoders_their_mode_runs(micro_run, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(["ablate", "--run", str(clone), "--config", str(micro_run["cfg"])]) == 0
    ckpts = clone / "checkpoints"
    digest = {t: hashlib.sha256((ckpts / f"{t}_ae.json").read_bytes()).hexdigest()
              for t in ("clean", "partial")}
    clean_ae, _ = load_autoencoder(ckpts / "clean_ae.json")
    partial_ae, _ = load_autoencoder(ckpts / "partial_ae.json")
    for mode in TrainingMode:
        path = ckpts / f"gan_{mode.value}.json"
        bundle = load_gan(path)
        assert bundle.extra["clean_ae_hash"] == digest["clean"], mode
        expected = digest["partial"] if mode is TrainingMode.PARTIAL_AE else None
        assert bundle.extra["partial_ae_hash"] == expected, mode
        # Loading and saving again gives the same bytes.
        loaded = GanTrainResult(assemble_pipeline(bundle, clean_ae, partial_ae),
                                bundle.nets["discriminator"], curves=[])
        again = tmp_path / f"again_{mode.value}.json"
        save_gan(again, loaded, seed=bundle.seed, clean_ae_hash=bundle.extra["clean_ae_hash"],
                 partial_ae_hash=bundle.extra["partial_ae_hash"])
        assert again.read_bytes() == path.read_bytes(), mode


def test_train_ae_diverging_is_one_line(micro_run, tmp_path, capsys):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps({**MICRO, "ae": {**MICRO["ae"], "lr": 1e300}}))
    capsys.readouterr()
    assert main(["train-ae", "--run", str(clone), "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: training diverged: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_unexpected_error_is_one_line(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise KeyError("lr_regression")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    monkeypatch.delenv("SCANMEND_DEBUG", raising=False)
    run = tmp_path / "r"
    assert main(["synth", "--run", str(run)]) == 1
    assert capsys.readouterr().err == "error: KeyError: 'lr_regression'\n"
    monkeypatch.setenv("SCANMEND_DEBUG", "1")
    assert main(["synth", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("error: KeyError: 'lr_regression'\n")
    assert not (run / "run.lock").exists()


# ---- every schema key reaches the code it configures ----


def _arg(name, pos, attr=None):
    """Observer: argument `pos` (an index or keyword) of each call to cli.<name>,
    or that argument's attribute `attr`."""

    def observe(seen, run):
        vals = [kw[pos] if isinstance(pos, str) else args[pos] for args, kw in seen[name]]
        return vals if attr is None else [getattr(v, attr) for v in vals]

    return observe


def _all(*observers):
    return lambda seen, run: [v for observe in observers for v in observe(seen, run)]


def _dirs_holding(filename):
    """Observer: the run-relative directories that hold `filename`."""

    def observe(seen, run):
        return sorted(os.path.relpath(d, run) for d, _, files in os.walk(run) if filename in files)

    return observe


# (section, key) -> (a legal value that no preset uses, observer of what the CLI
# handed on).  A schema key without an entry here fails the test.
_REACH = {
    ("dataset", "families"): (["box", "cylinder"], _arg("make_dataset", 0, "families")),
    ("dataset", "n"): (12, _arg("make_dataset", 0, "n")),
    ("dataset", "total"): (9, _arg("make_dataset", 0, "total")),
    ("dataset", "train_fraction"): (0.7, _arg("make_dataset", 0, "train_fraction")),
    ("dataset", "r"): ([0.2, 0.3], _arg("make_dataset", 0, "r")),
    ("dataset", "sigma"): (0.02, _arg("make_dataset", 0, "sigma")),
    ("dataset", "scan_resolution"): (16, _arg("make_dataset", 0, "scan_resolution")),
    ("dataset", "seed"): (3, _arg("make_dataset", 0, "seed")),
    ("ae", "k"): (5, _arg("train_ae", 1, "k")),
    ("ae", "linear"): (True, _arg("train_ae", 1, "linear")),
    ("ae", "lr"): (0.002, _arg("train_ae", 2, "lr")),
    ("ae", "beta1"): (0.8, _arg("train_ae", 2, "beta1")),
    ("ae", "batch_size"): (3, _arg("train_ae", 2, "batch_size")),
    ("ae", "epochs"): (2, _arg("train_ae", 2, "epochs")),
    ("ae", "seed"): (4, _arg("train_ae", 2, "seed")),
    ("gan", "mode"): ("partial_ae", _arg("train_gan", 2, "value")),
    ("gan", "lr"): (0.003, _arg("train_gan", 3, "lr")),
    ("gan", "beta1"): (0.6, _arg("train_gan", 3, "beta1")),
    ("gan", "batch_size"): (3, _arg("train_gan", 3, "batch_size")),
    ("gan", "epochs"): (2, _arg("train_gan", 3, "epochs")),
    ("gan", "tau"): (0.02, _arg("train_gan", 3, "tau")),
    ("gan", "seed"): (5, _arg("train_gan", 3, "seed")),
    ("eval", "eps"): (
        0.05,
        _all(_arg("evaluate_completions", "eps"), _arg("incompleteness_sweep", "eps")),
    ),
    ("eval", "jsd_grid"): (6, _arg("jsd", "g")),
    ("eval", "r_sweep"): ([0.15], _arg("incompleteness_sweep", 3)),
    ("eval", "seed"): (6, _all(_arg("Rng", 0), _arg("incompleteness_sweep", "seed"))),
    ("paths", "dataset"): ("ds", _dirs_holding("manifest.json")),
    ("paths", "checkpoints"): ("ck", _dirs_holding("clean_ae.json")),
    ("paths", "reports"): ("rp", _dirs_holding("sweep.csv")),
}


def test_every_schema_key_reaches_its_code(tmp_path, monkeypatch):
    assert set(_REACH) == {(s, k) for s, rules in SCHEMA.items() for k in rules}
    overlay = {}
    for (section, key), (value, _) in _REACH.items():
        for preset in PRESETS.values():
            assert preset[section].get(key) != value, (section, key)
        overlay.setdefault(section, {})[key] = value
    cfg_path = tmp_path / "reach.json"
    cfg_path.write_text(json.dumps(overlay))
    seen = {}
    for name in ("make_dataset", "train_ae", "train_gan", "evaluate_completions", "jsd",
                 "incompleteness_sweep", "Rng"):
        def spy(*args, _real=getattr(cli, name), _calls=seen.setdefault(name, []), **kwargs):
            _calls.append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    run, out = tmp_path / "run", tmp_path / "out"
    commands = [
        ["synth"],
        ["train-ae"],
        ["train-ae", "--target", "partial"],
        ["train-gan"],
        ["complete", "--input", str(run / "ds" / "partial_test"), "--output", str(out)],
        ["eval", "--completions", str(out), "--gt", str(run / "ds" / "clean_test")],
        ["sweep"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # untrained decoder leaves the JSD grid
        for command in commands:
            assert main([command[0], "--run", str(run), "--config", str(cfg_path),
                         *command[1:]]) == 0, command
    for (section, key), (value, observe) in _REACH.items():
        got = [list(v) if isinstance(v, tuple) else v for v in observe(seen, run)]
        assert got and all(v == value for v in got), (section, key, got)
