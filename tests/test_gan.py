import numpy as np
import pytest

from scanmend import gan
from scanmend.autoencoder import Autoencoder, AutoencoderSpec, reconstruction_emd
from scanmend.gan import (
    CompletionPipeline,
    GanSpec,
    GanTrainConfig,
    GanTrainResult,
    LossWeights,
    TrainingMode,
    assemble_pipeline,
    build_discriminator,
    build_generator,
    disc_loss,
    gen_loss,
    load_gan,
    mode_settings,
    save_gan,
    train_gan,
)
from scanmend.metrics import incompleteness_sweep
from scanmend.nn.checkpoint import CheckpointError
from scanmend.nn.gradcheck import grad_check
from scanmend.nn.layers import BatchNorm
from scanmend.nn.tensor import Tensor
from scanmend.pointset import PointSet
from scanmend.rng import Rng


def scores(*vals):
    return Tensor(np.array(vals, dtype=np.float64).reshape(-1, 1))


def tiny_setup(seed=0, n=16, k=4, shapes=8):
    ae = Autoencoder(AutoencoderSpec(n=n, k=k), Rng(seed))
    rng = Rng(seed + 100)
    clean = rng.normal((shapes, n, 3)) * 0.3
    partial = rng.normal((shapes, n, 3)) * 0.3
    return ae, clean, partial


# ---- losses ----


def test_disc_loss_substitution_examples():
    assert float(disc_loss(scores(1.0), scores(0.0)).data) == pytest.approx(0.0, abs=1e-12)
    assert float(disc_loss(scores(0.5), scores(0.5)).data) == pytest.approx(0.5, abs=1e-12)
    assert float(disc_loss(scores(0.0), scores(1.0)).data) == pytest.approx(2.0, abs=1e-12)
    # batch means, not sums
    val = disc_loss(scores(1.0, 1.0), scores(1.0, 0.0))
    assert float(val.data) == pytest.approx(0.5, abs=1e-12)


def test_gen_loss_weighted_substitution():
    w = LossWeights(0.25, 0.75, "hl", tau=0.01)
    anchor = np.zeros((1, 1, 3))
    # single source and reference point: soft directed Hausdorff is exact
    completion = Tensor(np.array([[[0.0, 0.0, 0.2]]]))
    val = gen_loss(scores(0.0), anchor, completion, w)
    assert float(val.data) == pytest.approx(0.25 * 1.0 + 0.75 * 0.2, abs=1e-9)
    # perfect fake score and zero reconstruction -> 0
    zero = gen_loss(scores(1.0), anchor, Tensor(anchor.copy()), w)
    assert float(zero.data) == pytest.approx(0.0, abs=1e-9)


def test_gen_loss_pure_adversarial_matches_lsgan_term():
    w = LossWeights(1.0, 0.0)
    f = scores(0.3, -0.2, 0.9)
    val = gen_loss(f, np.zeros((1, 1, 3)), Tensor(np.ones((1, 1, 3))), w)
    assert float(val.data) == pytest.approx(np.mean((f.data - 1.0) ** 2), abs=1e-12)


def test_gen_loss_emd_recon_kind():
    w = LossWeights(0.0, 1.0, "emd")
    anchor = np.zeros((1, 1, 3))
    completion = Tensor(np.array([[[0.0, 0.0, 1.0]]]))
    val = gen_loss(None, anchor, completion, w)
    assert float(val.data) == pytest.approx(1.0, abs=1e-12)


def test_gen_loss_requires_scores_when_adversarial():
    with pytest.raises(ValueError, match="discriminator scores"):
        gen_loss(None, np.zeros((1, 1, 3)), Tensor(np.ones((1, 1, 3))), LossWeights(0.5, 0.5))


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(-0.1, 0.5)
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ValueError, match="recon_kind"):
        LossWeights(0.25, 0.75, "chamfer")


def test_gen_loss_gradients_through_emd_and_disc():
    # full generator objective differentiated w.r.t. generator parameters,
    # with the decoder and discriminator downstream in the same graph
    spec = GanSpec(k=4)
    gen = build_generator(spec, Rng(0))
    disc = build_discriminator(spec, Rng(1))
    ae = Autoencoder(AutoencoderSpec(n=6, k=4), Rng(2))
    anchor = Rng(3).normal((2, 6, 3))
    w = LossWeights(0.25, 0.75, "emd")

    def loss_fn(fake):
        disc.zero_grad()
        ae.decoder.zero_grad()
        completion = ae.decoder.forward(fake).reshape(2, 6, 3)
        return gen_loss(disc.forward(fake), anchor, completion, w)

    res = grad_check(gen, loss_fn, Rng(4).normal((2, 4)))
    assert res.max_rel_err < 1e-4


# ---- mode table ----


def test_mode_settings_table():
    rows = {
        "default": (0.25, 0.75, "hl", "input", "clean", True),
        "partial_ae": (0.25, 0.75, "hl", "input", "partial", True),
        "emd_recon": (0.25, 0.75, "emd", "input", "clean", True),
        "no_gan": (0.0, 1.0, "hl", "input", "clean", False),
        "no_recon": (1.0, 0.0, "hl", "input", "clean", True),
        "supervised_emd": (0.0, 1.0, "emd", "gt", "clean", False),
        "supervised_emd_gan": (0.25, 0.75, "emd", "gt", "clean", True),
    }
    assert set(rows) == {m.value for m in TrainingMode}
    for name, (alpha, beta, kind, target, source, train_disc) in rows.items():
        s = mode_settings(name, tau=0.02)
        assert s.weights.alpha == alpha
        assert s.weights.beta == beta
        if beta > 0:
            assert s.weights.recon_kind == kind
        assert s.recon_target == target
        assert s.latent_source == source
        assert s.train_disc == train_disc
        assert s.weights.tau == 0.02


def test_gan_spec_widths_and_network_shapes():
    spec = GanSpec(k=16)
    assert spec.generator_widths == (128, 16)
    assert spec.discriminator_widths == (256, 512, 1)
    gen = build_generator(spec, Rng(0))
    disc = build_discriminator(spec, Rng(1))
    z = Tensor(Rng(2).normal((5, 16)))
    assert gen.forward(z).data.shape == (5, 16)
    assert disc.forward(z).data.shape == (5, 1)


# ---- pipeline ----


def test_complete_point_count_and_permutation_invariance():
    ae, _, _ = tiny_setup()
    pipeline = CompletionPipeline(clean_ae=ae, generator=build_generator(GanSpec(k=4), Rng(5)))
    rng = Rng(6)
    cloud = rng.normal((16, 3))
    out = pipeline.complete(PointSet(cloud))
    assert out.n == 16
    for _ in range(10):
        perm = rng.permutation(16)
        again = pipeline.complete(PointSet(cloud[perm]))
        assert np.array_equal(out.points, again.points)


def test_complete_rejects_wrong_point_count():
    ae, _, _ = tiny_setup()
    pipeline = CompletionPipeline(clean_ae=ae, generator=build_generator(GanSpec(k=4), Rng(5)))
    with pytest.raises(ValueError, match="expected 16"):
        pipeline.complete(PointSet(Rng(0).normal((9, 3))))


# ---- training ----


def small_cfg(epochs=3, seed=0):
    return GanTrainConfig(lr=1e-3, beta1=0.5, batch_size=4, epochs=epochs, seed=seed)


def test_train_gan_curves_and_determinism():
    ae, clean, partial = tiny_setup()
    r1 = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(), clean_ae=ae)
    r2 = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(), clean_ae=ae)
    assert [row["epoch"] for row in r1.curves] == [1, 2, 3]
    for row in r1.curves:
        assert set(row) == {"epoch", "L_F", "L_G", "hard_HL", "adv_term"}
        assert all(isinstance(v, float) for k, v in row.items() if k != "epoch")
        assert row["L_F"] >= 0.0 and row["hard_HL"] >= 0.0
    assert r1.curves == r2.curves
    assert np.array_equal(r1.pipeline.generator.param_vector(), r2.pipeline.generator.param_vector())
    assert not r1.diverged

    r3 = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(seed=9), clean_ae=ae)
    assert r3.curves != r1.curves


def test_hard_hl_curve_equals_the_direct_computation(monkeypatch):
    # hard_HL is the directed Hausdorff partial -> completion.  In the
    # soft-Hausdorff modes train_gan reads it from the loss's own distances;
    # forcing the direct computation must give the same curves bit for bit.
    # The reuse holds because every soft-Hausdorff mode anchors on the input.
    assert all(
        mode_settings(m).recon_target == "input"
        for m in TrainingMode
        if mode_settings(m).weights.recon_kind == "hl"
    )
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))

    def curves():
        return [
            train_gan(clean, partial, mode, small_cfg(), clean_ae=ae, partial_ae=pae,
                      partial_gt=clean).curves
            for mode in TrainingMode
        ]

    from_loss = curves()
    split = gan._gen_loss_and_hard

    def without_hard(*args):
        loss, _, adv = split(*args)
        return loss, None, adv

    monkeypatch.setattr(gan, "_gen_loss_and_hard", without_hard)
    assert curves() == from_loss


def test_adversarial_term_is_built_once_per_generator_step(monkeypatch):
    # The curve's adv_term is read from the term the generator loss built.
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    cfg = small_cfg(epochs=2)
    steps = cfg.epochs * -(-len(partial) // cfg.batch_size)
    term, built = gan._gen_adv_term, []
    monkeypatch.setattr(gan, "_gen_adv_term", lambda f_fake: built.append(1) or term(f_fake))
    for mode in TrainingMode:
        built.clear()
        train_gan(clean, partial, mode, cfg, clean_ae=ae, partial_ae=pae, partial_gt=clean)
        assert len(built) == (steps if mode_settings(mode).train_disc else 0), mode


def _frozen_state(ae) -> list:
    """Every parameter and BatchNorm running statistic of ae, as bytes."""
    layers = ae.as_single_network().layers
    params = [t.data.tobytes() for l in layers for _, t in l.param_items()]
    stats = [a.tobytes() for l in layers if isinstance(l, BatchNorm)
             for a in (l.running_mean, l.running_var)]
    return params + stats


def test_train_gan_freezes_autoencoder():
    # Neither training nor any inference caller may move a parameter or a
    # BatchNorm running statistic of either autoencoder.
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    for a in (ae, pae):  # move the running statistics off their initial values
        a.forward_batch(Tensor(clean))
    before = [_frozen_state(ae), _frozen_state(pae)]
    for mode in (TrainingMode.DEFAULT, TrainingMode.PARTIAL_AE):
        res = train_gan(clean, partial, mode, small_cfg(), clean_ae=ae, partial_ae=pae)
        assert [_frozen_state(ae), _frozen_state(pae)] == before, mode
        res.pipeline.complete_batch(partial)
        reconstruction_emd(ae, clean)
        reconstruction_emd(pae, partial)
        incompleteness_sweep(res.pipeline, ae, clean, [0.1, 0.3], seed=4)
        assert [_frozen_state(ae), _frozen_state(pae)] == before, mode


def test_no_gan_mode_never_touches_discriminator():
    ae, clean, partial = tiny_setup()
    res = train_gan(clean, partial, TrainingMode.NO_GAN, small_cfg(), clean_ae=ae)
    fresh = build_discriminator(GanSpec(k=4), Rng(0).spawn(1))
    assert np.array_equal(res.discriminator.param_vector(), fresh.param_vector())
    assert all(row["L_F"] == 0.0 and row["adv_term"] == 0.0 for row in res.curves)
    # the generator still trains
    gen0 = build_generator(GanSpec(k=4), Rng(0).spawn(0))
    assert not np.array_equal(res.pipeline.generator.param_vector(), gen0.param_vector())


def test_supervised_modes_require_ground_truth():
    ae, clean, partial = tiny_setup()
    for mode in (TrainingMode.SUPERVISED_EMD, TrainingMode.SUPERVISED_EMD_GAN):
        with pytest.raises(ValueError, match="needs paired"):
            train_gan(clean, partial, mode, small_cfg(), clean_ae=ae)
    with pytest.raises(ValueError, match="align"):
        train_gan(clean, partial, TrainingMode.SUPERVISED_EMD, small_cfg(),
                  clean_ae=ae, partial_gt=clean[:3])
    res = train_gan(clean, partial, TrainingMode.SUPERVISED_EMD, small_cfg(),
                    clean_ae=ae, partial_gt=clean)
    assert not res.diverged


def test_partial_ae_mode_requires_partial_autoencoder():
    ae, clean, partial = tiny_setup()
    with pytest.raises(ValueError, match="partial autoencoder"):
        train_gan(clean, partial, TrainingMode.PARTIAL_AE, small_cfg(), clean_ae=ae)
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    res = train_gan(clean, partial, TrainingMode.PARTIAL_AE, small_cfg(),
                    clean_ae=ae, partial_ae=pae)
    assert res.pipeline.partial_ae is pae
    assert res.pipeline.source_encoder() is pae.encoder
    # other modes encode with the clean AE
    res2 = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(), clean_ae=ae)
    assert res2.pipeline.partial_ae is None
    assert res2.pipeline.source_encoder() is ae.encoder


def test_train_gan_rejects_an_empty_pool():
    # Every mode draws clean batches, so neither pool may be empty.
    ae, clean, partial = tiny_setup()
    for mode in TrainingMode:
        with pytest.raises(ValueError, match="no clouds to train on: 0 clean, 8 partial"):
            train_gan(clean[:0], partial, mode, small_cfg(), clean_ae=ae)
        with pytest.raises(ValueError, match="no clouds to train on: 8 clean, 0 partial"):
            train_gan(clean, partial[:0], mode, small_cfg(), clean_ae=ae, partial_gt=clean[:0])


def test_train_gan_divergence_restores_last_finite_params():
    ae, clean, partial = tiny_setup()
    # a decoder with absurd weights overflows the first completion batch
    ae.decoder.set_param_vector(ae.decoder.param_vector() * 1e200)
    with np.errstate(over="ignore"):
        res = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(), clean_ae=ae)
    assert res.diverged
    assert res.curves == []
    gen0 = build_generator(GanSpec(k=4), Rng(0).spawn(0))
    assert np.array_equal(res.pipeline.generator.param_vector(), gen0.param_vector())


# ---- persistence ----


def _no_draw(*args, **kwargs):
    raise AssertionError("a checkpoint load drew initial weights")


def test_save_load_round_trip_rebuilds_pipeline(tmp_path, monkeypatch):
    ae, clean, partial = tiny_setup()
    res = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(), clean_ae=ae)
    path = tmp_path / "gan.json"
    save_gan(path, res, seed=0, clean_ae_hash="cafe")
    with monkeypatch.context() as m:  # loading draws no initial weights
        m.setattr(Rng, "uniform", _no_draw)
        bundle = load_gan(path)
    assert bundle.extra["mode"] == "default"
    assert bundle.extra["clean_ae_hash"] == "cafe"
    assert bundle.extra["k"] == 4
    assert bundle.extra["gan_loss"] == "ls"
    rebuilt = assemble_pipeline(bundle, ae)
    probe = Rng(11).normal((3, 16, 3))
    assert np.array_equal(rebuilt.complete_batch(probe), res.pipeline.complete_batch(probe))
    # The loaded networks save to the same bytes.
    again = tmp_path / "again.json"
    loaded = GanTrainResult(rebuilt, bundle.nets["discriminator"], curves=[])
    save_gan(again, loaded, seed=bundle.seed, clean_ae_hash=bundle.extra["clean_ae_hash"])
    assert again.read_bytes() == path.read_bytes()


def test_gan_loss_accepts_only_least_squares(tmp_path):
    ae, clean, partial = tiny_setup()
    res = train_gan(clean, partial, TrainingMode.DEFAULT, small_cfg(epochs=1), clean_ae=ae)
    for loss in ("log", "hinge"):
        with pytest.raises(ValueError, match=f"gan_loss must be 'ls', got '{loss}'"):
            GanTrainConfig(lr=0.0001, beta1=0.5, batch_size=24, epochs=1000, gan_loss=loss)
        with pytest.raises(ValueError, match=f"gan_loss must be 'ls', got '{loss}'"):
            save_gan(tmp_path / "gan.json", res, seed=0, clean_ae_hash="cafe", gan_loss=loss)
    assert not (tmp_path / "gan.json").exists()


def test_assemble_pipeline_checks_partial_ae(tmp_path):
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    res = train_gan(clean, partial, TrainingMode.PARTIAL_AE, small_cfg(),
                    clean_ae=ae, partial_ae=pae)
    path = tmp_path / "gan.json"
    save_gan(path, res, seed=0, clean_ae_hash="cafe", partial_ae_hash="f00d")
    bundle = load_gan(path)
    with pytest.raises(ValueError, match="partial autoencoder"):
        assemble_pipeline(bundle, ae)
    rebuilt = assemble_pipeline(bundle, ae, partial_ae=pae)
    probe = Rng(11).normal((2, 16, 3))
    assert np.array_equal(rebuilt.complete_batch(probe), res.pipeline.complete_batch(probe))


@pytest.mark.parametrize("mode, hashes, message", [
    (TrainingMode.PARTIAL_AE, dict(clean_ae_hash="cafe", partial_ae_hash=None),
     "entry extra.partial_ae_hash is None, not a checkpoint hash"),
    (TrainingMode.DEFAULT, dict(clean_ae_hash=7),
     "entry extra.clean_ae_hash is 7, not a checkpoint hash"),
    (TrainingMode.PARTIAL_AE, dict(clean_ae_hash=None, partial_ae_hash="f00d"),
     "entry extra.clean_ae_hash is None, not a checkpoint hash"),
], ids=["partial-mode-no-partial-hash", "int-clean-hash", "null-clean-hash"])
def test_save_gan_refuses_what_load_gan_rejects(tmp_path, mode, hashes, message):
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    res = train_gan(clean, partial, mode, small_cfg(epochs=1), clean_ae=ae, partial_ae=pae)
    path = tmp_path / "gan.json"
    with pytest.raises(CheckpointError) as info:
        save_gan(path, res, seed=0, **hashes)
    assert str(info.value) == f"{path}: {message}"
    assert list(tmp_path.iterdir()) == []


def test_save_gan_records_partial_hash_only_where_the_mode_runs_it(tmp_path):
    ae, clean, partial = tiny_setup()
    pae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(42))
    for mode in (TrainingMode.DEFAULT, TrainingMode.PARTIAL_AE):
        res = train_gan(clean, partial, mode, small_cfg(epochs=1), clean_ae=ae, partial_ae=pae)
        path = tmp_path / f"{mode.value}.json"
        save_gan(path, res, seed=0, clean_ae_hash="cafe", partial_ae_hash="f00d")
        expected = "f00d" if mode is TrainingMode.PARTIAL_AE else None
        assert load_gan(path).extra["partial_ae_hash"] == expected
        assert (res.pipeline.partial_ae is pae) == (mode is TrainingMode.PARTIAL_AE)


def test_load_gan_rejects_wrong_kind(tmp_path):
    from scanmend.autoencoder import save_autoencoder

    ae, _, _ = tiny_setup()
    path = tmp_path / "ae.json"
    save_autoencoder(path, ae, seed=0)
    with pytest.raises(Exception, match="kind"):
        load_gan(path)
