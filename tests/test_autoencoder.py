import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from scanmend.autoencoder import (
    AeTrainConfig,
    Autoencoder,
    AutoencoderSpec,
    TrainingDivergedError,
    ae_loss,
    load_autoencoder,
    reconstruction_emd,
    save_autoencoder,
    train_ae,
)
from scanmend.nn.checkpoint import CheckpointError
from scanmend.rng import Rng


def test_spec_validation_and_widths():
    with pytest.raises(ValueError):
        AutoencoderSpec(n=0, k=4)
    with pytest.raises(ValueError):
        AutoencoderSpec(n=16, k=0)
    spec = AutoencoderSpec(n=128, k=16)
    assert spec.encoder_widths == (64, 128, 128, 256, 16)
    assert spec.decoder_widths == (256, 256, 384)
    assert AutoencoderSpec(**asdict(spec)) == spec
    for bad in ({"n": 16.0, "k": 4}, {"n": 16, "k": True}, {"n": 16, "k": 4, "linear": 1}):
        with pytest.raises(ValueError, match="positive ints and linear a bool"):
            AutoencoderSpec(**bad)


def test_ae_loss_unit_shift_example():
    # identity reconstruction offset by a unit vector has mean EMD exactly 1
    spec = AutoencoderSpec(n=4, k=3)
    ae = Autoencoder(spec, Rng(0))
    batch = Rng(1).normal((2, 4, 3))

    class Shifted:
        spec = ae.spec

        def forward_batch(self, x, *, train):
            return x + np.array([0.0, 0.0, 1.0])

    loss = ae_loss(Shifted(), batch)
    assert float(loss.data) == pytest.approx(1.0, abs=1e-12)


def test_ae_loss_count_mismatch():
    ae = Autoencoder(AutoencoderSpec(n=8, k=4), Rng(0))
    with pytest.raises(ValueError, match="expected 8"):
        ae_loss(ae, Rng(1).normal((2, 9, 3)))


def test_encoder_permutation_invariance_exact():
    ae = Autoencoder(AutoencoderSpec(n=32, k=8), Rng(2))
    rng = Rng(3)
    cloud = rng.normal((32, 3))
    z0 = ae.encoder.predict(cloud[None])
    for _ in range(25):
        perm = rng.permutation(32)
        z = ae.encoder.predict(cloud[perm][None])
        assert np.array_equal(z, z0)  # bit-identical, not just close


def test_encode_decode_contracts():
    ae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(4))
    clouds = Rng(5).normal((2, 16, 3))
    z = ae.encoder.predict(clouds)
    assert z.shape == (2, 4)
    assert ae.decoder.predict(z).shape == (2, 48)
    assert ae.reconstruct(clouds).shape == (2, 16, 3)
    with pytest.raises(ValueError, match="expected 16"):
        ae.reconstruct(Rng(6).normal((2, 15, 3)))
    with pytest.raises(ValueError, match="dense expects 2 axes ending in 4"):
        ae.decoder.predict(np.zeros((1, 5)))


def test_linear_ae_memorizes_single_shape():
    # k >= 3n makes a single shape exactly representable (the decoder bias
    # alone suffices); training must drive its reconstruction loss near zero.
    # EMD subgradients have unit magnitude, so the achievable floor scales
    # with the learning rate; a small lr is needed to get under 1e-3.
    spec = AutoencoderSpec(n=4, k=12, linear=True)
    data = Rng(9).normal((1, 4, 3)) * 0.5
    cfg = AeTrainConfig(lr=2e-4, batch_size=1, epochs=3000, seed=0)
    ae, losses = train_ae(data, spec, cfg)
    assert losses[-1] < 1e-3, losses[-1]
    assert reconstruction_emd(ae, data) < 1e-3


def test_train_ae_loss_decreases_and_is_deterministic():
    spec = AutoencoderSpec(n=16, k=8)
    data = Rng(10).normal((20, 16, 3)) * 0.5
    cfg = AeTrainConfig(lr=5e-4, batch_size=10, epochs=12, seed=3)
    ae1, l1 = train_ae(data, spec, cfg)
    ae2, l2 = train_ae(data, spec, cfg)
    assert l1 == l2
    assert np.array_equal(
        ae1.as_single_network().param_vector(), ae2.as_single_network().param_vector()
    )
    assert l1[-1] < l1[0]
    assert len(l1) == 12
    # a different seed gives a different trajectory
    _, l3 = train_ae(data, spec, AeTrainConfig(lr=5e-4, batch_size=10, epochs=12, seed=4))
    assert l3 != l1


def test_train_step_peak_allocation():
    # One desk-scale training step (batch 50, n = 128, k = 16) may peak at
    # the x-hat of each encoder triple, the only activation the point block
    # saves, plus two arrays of the widest triple: the gradient the backward
    # is in and the input it recomputes or the input gradient it allocates.
    # Saving each triple's output too, holding every gradient until the walk
    # ends, or a full-size temporary per triple exceeds it.
    spec = AutoencoderSpec(n=128, k=16)
    ae = Autoencoder(spec, Rng(0))
    batch = Rng(1).normal((50, spec.n, 3)) * 0.3
    rows, item = batch.shape[0] * spec.n, 8
    widths = spec.encoder_widths
    bound = rows * sum(widths) * item + 2 * rows * max(widths) * item
    tracemalloc.start()
    try:
        ae_loss(ae, batch).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


def test_train_ae_rejects_wrong_point_count():
    with pytest.raises(ValueError, match="expected 8"):
        train_ae(Rng(11).normal((4, 6, 3)), AutoencoderSpec(n=8, k=4), AeTrainConfig(epochs=1))


def test_train_ae_divergence_raises():
    # coordinates large enough that squared pairwise distances overflow
    spec = AutoencoderSpec(n=8, k=4)
    data = Rng(12).normal((4, 8, 3)) * 1e200
    with pytest.raises(TrainingDivergedError, match="diverged|non-finite"):
        train_ae(data, spec, AeTrainConfig(lr=1.0, batch_size=4, epochs=5, seed=0))


def _no_draw(*args, **kwargs):
    raise AssertionError("a checkpoint load drew initial weights")


@pytest.mark.parametrize("linear", [False, True])
def test_save_load_round_trip(tmp_path, monkeypatch, linear):
    ae = Autoencoder(AutoencoderSpec(n=16, k=4, linear=linear), Rng(13))
    # move BN stats off init so the round trip covers them
    ae.forward_batch(__import__("scanmend.nn.tensor", fromlist=["Tensor"]).Tensor(
        Rng(14).normal((3, 16, 3))
    ), train=True)
    path = tmp_path / "ae.json"
    save_autoencoder(path, ae, seed=5)
    with monkeypatch.context() as m:  # loading draws no initial weights
        m.setattr(Rng, "uniform", _no_draw)
        back, bundle = load_autoencoder(path)
    assert bundle.seed == 5
    assert back.spec == ae.spec
    assert bundle.nets == {"encoder": back.encoder, "decoder": back.decoder}
    assert np.array_equal(
        back.as_single_network().param_vector(), ae.as_single_network().param_vector()
    )
    # loaded model reproduces latent codes and reconstructions bit for bit
    clouds = Rng(15).normal((1, 16, 3))
    assert np.array_equal(back.encoder.predict(clouds), ae.encoder.predict(clouds))
    assert np.array_equal(back.reconstruct(clouds), ae.reconstruct(clouds))
    # and saves to the same bytes
    again = tmp_path / "again.json"
    save_autoencoder(again, back, seed=bundle.seed)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("entry,value,network", [("n", 8, "decoder"), ("k", 5, "encoder")])
def test_load_rejects_a_spec_the_stored_networks_disagree_with(tmp_path, entry, value, network):
    # Loaded under n = 8, a decoder that emits 16 points would give clouds
    # cut to their first 8 points.
    path = tmp_path / "ae.json"
    save_autoencoder(path, Autoencoder(AutoencoderSpec(n=16, k=4), Rng(0)), seed=0)
    doc = json.loads(path.read_text())
    doc["extra"]["spec"][entry] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as exc:
        load_autoencoder(path)
    assert str(exc.value) == (
        f"{path}: network '{network}': stored architecture does not match extra.spec"
    )
