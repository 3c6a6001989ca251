import json
import os
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
from scanmend.gan import GanSpec, TrainingMode, build_generator, load_gan
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
        ({"typo_section": {}}, "unknown top-level"),
        ({"ae": {"momentum": 0.9}}, "unknown keys in 'ae'"),
        ({"version": 99}, "version"),
        ({"dataset": {"families": []}}, "non-empty"),
        ({"dataset": {"families": ["teapot"]}}, "unknown shape family"),
        ({"dataset": {"n": 4}}, "dataset.n"),
        ({"dataset": {"train_fraction": 1.0}}, "train_fraction"),
        ({"dataset": {"r": [0.5, 0.1]}}, "dataset.r"),
        ({"dataset": {"r": 1.2}}, "dataset.r"),
        ({"ae": {"lr": 0}}, "ae.lr"),
        ({"ae": {"linear": 1}}, "ae.linear"),
        ({"gan": {"mode": "wgan"}}, "gan.mode"),
        ({"gan": {"gan_loss": "hinge"}}, "gan.gan_loss"),
        ({"gan": {"tau": 0.0}}, "gan.tau"),
        ({"eval": {"r_sweep": []}}, "r_sweep"),
        ({"eval": {"jsd_grid": 1}}, "jsd_grid"),
        ({"dataset": {"seed": 1.5}}, "seed"),
        ({"paths": {"reports": ""}}, "paths.reports"),
        ({"gan": {"lr_regression": 0}}, "gan.lr_regression"),
        ({"gan": {"lr_regression": "fast"}}, "gan.lr_regression"),
        ({"dataset": {"families": [{}]}}, "unknown shape family"),
        ({"dataset": {"families": [["chair5"]]}}, "unknown shape family"),
        ({"preset": ["x"]}, "preset must be a string"),
        ({"preset": []}, "preset must be a string"),
        ({"preset": 0}, "preset must be a string"),
        ({"ae": {"k": True}}, "ae.k"),
        ({"ae": {"batch_size": True}}, "ae.batch_size"),
        ({"dataset": {"seed": True}}, "dataset.seed"),
        ({"ae": {"seed": True}}, "ae.seed"),
        ({"gan": {"seed": True}}, "gan.seed"),
        ({"eval": {"seed": True}}, "eval.seed"),
        ({"version": True}, "version"),
        ({"ae": {"lr": float("inf")}}, "ae.lr"),
        ({"dataset": {"sigma": float("inf")}}, "dataset.sigma"),
        ({"eval": {"eps": float("inf")}}, "eval.eps"),
        ({"gan": {"lr": float("inf")}}, "gan.lr"),
        ({"gan": {"lr_regression": float("inf")}}, "gan.lr_regression"),
        ({"gan": {"tau": float("nan")}}, "gan.tau"),
        # ints too large for a float
        ({"ae": {"lr": 10**400}}, "ae.lr"),
        ({"dataset": {"sigma": 10**400}}, "dataset.sigma"),
        ({"dataset": {"r": [0, 10**400]}}, "dataset.r"),
        ({"eval": {"r_sweep": [0.1, -(10**400)]}}, "eval.r_sweep"),
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
    | st.sampled_from([*FAMILIES, *(m.value for m in TrainingMode), "ls", "log", *PRESETS])
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


def test_lr_regression_optional():
    # absent (the desk presets) or null means "use gan.lr"
    assert "lr_regression" not in resolve_config()["gan"]
    assert resolve_config({"gan": {"lr_regression": None}})["gan"]["lr_regression"] is None
    assert resolve_config(preset="paper-scale")["gan"]["lr_regression"] == 0.0001


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


def test_thread_env_validation(micro_run, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCANMEND_THREADS", "zero")
    assert main(["synth", "--run", str(tmp_path / "r"), "--config",
                 str(micro_run["cfg"])]) == 1
    assert "SCANMEND_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("SCANMEND_THREADS", "2")
    assert main(["synth", "--run", str(tmp_path / "r2"), "--config",
                 str(micro_run["cfg"])]) == 0


def test_threaded_synth_matches_serial(micro_run, tmp_path, monkeypatch):
    serial = np.stack([read_ply(micro_run["run"] / "dataset" / "clean_test" / n).points
                       for n in sorted(os.listdir(micro_run["run"] / "dataset" / "clean_test"))])
    monkeypatch.setenv("SCANMEND_THREADS", "3")
    run2 = tmp_path / "threaded"
    assert main(["synth", "--run", str(run2), "--config", str(micro_run["cfg"])]) == 0
    threaded = np.stack([read_ply(run2 / "dataset" / "clean_test" / n).points
                         for n in sorted(os.listdir(run2 / "dataset" / "clean_test"))])
    assert np.array_equal(serial, threaded)


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


def test_lr_regression_reaches_gan_config(micro_run, tmp_path, monkeypatch):
    clone = tmp_path / "clone"
    shutil.copytree(micro_run["run"], clone)
    cfg_path = tmp_path / "lr.json"
    cfg_path.write_text(json.dumps({**MICRO, "gan": {**MICRO["gan"], "lr_regression": 0.0125}}))
    seen = []
    real_train_gan = cli.train_gan

    def spy(*args, **kwargs):
        seen.append(args[3].lr_regression)
        return real_train_gan(*args, **kwargs)

    monkeypatch.setattr(cli, "train_gan", spy)
    args = ["--run", str(clone), "--config", str(cfg_path)]
    assert main(["train-gan", *args, "--mode", "no_gan"]) == 0
    assert main(["ablate", *args]) == 0
    assert seen == [0.0125] * (1 + len(TrainingMode))


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
    ("gan", "lr_regression"): (0.004, _arg("train_gan", 3, "lr_regression")),
    ("gan", "beta1"): (0.6, _arg("train_gan", 3, "beta1")),
    ("gan", "batch_size"): (3, _arg("train_gan", 3, "batch_size")),
    ("gan", "epochs"): (2, _arg("train_gan", 3, "epochs")),
    ("gan", "tau"): (0.02, _arg("train_gan", 3, "tau")),
    ("gan", "gan_loss"): ("log", _arg("train_gan", 3, "gan_loss")),
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
