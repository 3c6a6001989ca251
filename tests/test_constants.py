"""Constant tensors and frozen network views.

A constant receives no gradient, and the affine backward computes none for
it.  Every gradient that is still asked for must equal the one a full
backward computes, bit for bit, so a GAN step that makes its codes, its
discriminator batches and its frozen networks constant trains exactly as
before.
"""

import numpy as np
import pytest

from scanmend.autoencoder import Autoencoder, AutoencoderSpec, ae_loss
from scanmend.gan import (
    GanSpec,
    GanTrainConfig,
    LossWeights,
    TrainingMode,
    build_discriminator,
    build_generator,
    disc_loss,
    gen_loss,
    train_gan,
)
from scanmend.nn.lossops import emd_loss
from scanmend.nn.tensor import Tensor
from scanmend.rng import Rng

N, K = 6, 4


def _grads(net) -> list:
    return [None if t.grad is None else t.grad.tobytes() for t in net.parameters()]


def _gen_step(gen, disc, decoder, z, anchor, kind, constant):
    """One generator objective's backward, with the codes constant or not."""
    fake = gen.forward(Tensor(z, constant=constant))
    completion = decoder.forward(fake).reshape(-1, N, 3)
    weights = LossWeights(0.25, 0.75, kind)
    gen_loss(disc.forward(fake), anchor, completion, weights).backward()


@pytest.mark.parametrize("kind", ["hl", "emd"])
def test_frozen_views_give_the_generator_gradients_of_a_full_backward(kind):
    spec = GanSpec(k=K)
    gen, disc = build_generator(spec, Rng(0)), build_discriminator(spec, Rng(1))
    decoder = Autoencoder(AutoencoderSpec(n=N, k=K), Rng(2)).decoder
    z, anchor = Rng(3).normal((5, K)), Rng(4).normal((5, N, 3))

    _gen_step(gen, disc, decoder, z, anchor, kind, constant=False)
    full = _grads(gen)
    assert all(g is not None for g in full + _grads(disc) + _grads(decoder))

    for net in (gen, disc, decoder):
        net.zero_grad()
    disc_view, decoder_view = disc.frozen(), decoder.frozen()
    _gen_step(gen, disc_view, decoder_view, z, anchor, kind, constant=True)
    assert _grads(gen) == full
    # Frozen weights get no gradient, in the view or in the network.
    for view in (disc_view, decoder_view):
        assert all(t.constant and t.grad is None for t in view.parameters())
    for net in (disc, decoder):
        assert all(not t.constant and t.grad is None for t in net.parameters())
    # The view holds the network's arrays, not copies.
    assert all(a.data is b.data for a, b in zip(disc.parameters(), disc_view.parameters()))


def test_constant_batches_give_the_discriminator_gradients_of_a_full_backward():
    disc = build_discriminator(GanSpec(k=K), Rng(1))
    real, fake = Rng(5).normal((5, K)), Rng(6).normal((5, K))
    full_inputs = [Tensor(real), Tensor(fake)]
    disc_loss(*(disc.forward(x) for x in full_inputs)).backward()
    full = _grads(disc)
    assert all(x.grad is not None for x in full_inputs)

    disc.zero_grad()
    inputs = [Tensor(real, constant=True), Tensor(fake, constant=True)]
    disc_loss(*(disc.forward(x) for x in inputs)).backward()
    assert _grads(disc) == full
    assert all(x.grad is None for x in inputs)


def test_constant_autoencoder_input_keeps_parameter_gradients():
    # Two autoencoders from one seed, so the BatchNorm running statistics
    # that forward_batch updates are the same on both sides.
    spec, data = AutoencoderSpec(n=8, k=K), Rng(7).normal((3, 8, 3))
    ref, ae = Autoencoder(spec, Rng(8)), Autoencoder(spec, Rng(8))
    x = Tensor(data)
    emd_loss(ref.forward_batch(x), data).backward()
    assert x.grad is not None
    ae_loss(ae, data).backward()
    assert _grads(ae.as_single_network()) == _grads(ref.as_single_network())


def test_a_constant_receives_no_gradient_through_any_op():
    c, x = Tensor(Rng(14).normal((2, 3)), constant=True), Tensor(Rng(15).normal((2, 3)))
    ((c * x + c).relu().sum() * 2.0).backward()
    assert c.grad is None and x.grad is not None


def test_backward_through_frozen_views_computes_no_gradient_for_a_constant(monkeypatch):
    # A constant's gradient is skipped, not computed and then dropped: the
    # affine backward never hands one to accum_grad.
    spec = GanSpec(k=K)
    gen, disc = build_generator(spec, Rng(0)), build_discriminator(spec, Rng(1))
    decoder = Autoencoder(AutoencoderSpec(n=N, k=K), Rng(2)).decoder
    handed = []
    accum = Tensor.accum_grad

    def recording(self, g):
        handed.append(self.constant)
        accum(self, g)

    monkeypatch.setattr(Tensor, "accum_grad", recording)
    z, anchor = Rng(3).normal((5, K)), Rng(4).normal((5, N, 3))
    _gen_step(gen, disc.frozen(), decoder.frozen(), z, anchor, "hl", constant=True)
    assert handed and not any(handed)


class _CountingWeight(np.ndarray):
    """A weight array that records the shape it has in each GEMM whose
    right operand it is: (n_in, n_out) forward, (n_out, n_in) for the input
    gradient, through the transposed view."""

    calls: list = []

    def __rmatmul__(self, other):
        _CountingWeight.calls.append(self.shape)
        return np.matmul(other, self.view(np.ndarray))


@pytest.mark.parametrize("constant", [True, False])
def test_encoder_first_layer_computes_no_input_gradient_for_constant_data(constant):
    spec, data = AutoencoderSpec(n=8, k=K), Rng(9).normal((3, 8, 3))
    ae = Autoencoder(spec, Rng(10))
    first = ae.encoder.layers[0]
    first.w.data = first.w.data.view(_CountingWeight)
    _CountingWeight.calls = []
    if constant:
        ae_loss(ae, data).backward()  # the training objective: its data is a constant
    else:
        emd_loss(ae.forward_batch(Tensor(data)), data).backward()
    forward, input_grad = (3, first.n_out), (first.n_out, 3)
    assert _CountingWeight.calls == ([forward] if constant else [forward, input_grad])
    assert first.w.grad is not None and first.b.grad is not None


def test_train_gan_leaves_the_frozen_decoder_without_gradients():
    # The generator step differentiates through a frozen view of the
    # decoder, so no gradient of its weights is computed, let alone kept.
    spec = AutoencoderSpec(n=N, k=K)
    ae = Autoencoder(spec, Rng(11))
    clean, partial = Rng(12).normal((6, N, 3)), Rng(13).normal((6, N, 3))
    cfg = GanTrainConfig(lr=1e-3, beta1=0.5, batch_size=3, epochs=1, seed=0)
    for mode in (TrainingMode.DEFAULT, TrainingMode.SUPERVISED_EMD):
        train_gan(clean, partial, mode, cfg, clean_ae=ae, partial_gt=clean)
        assert all(t.grad is None for t in ae.decoder.parameters())
