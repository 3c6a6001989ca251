import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from scanmend.autoencoder import Autoencoder, AutoencoderSpec
from scanmend.distances import emd
from scanmend.gan import CompletionPipeline, GanSpec, build_generator
from scanmend.metrics import (
    DEFAULT_EPS,
    MetricsReport,
    OccupancyDistribution,
    evaluate_completions,
    f1,
    incompleteness_sweep,
    jsd,
    mode_collapse_reference,
)
from scanmend.nn.layers import Network
from scanmend.pointset import PointSet
from scanmend.rng import Rng
from scanmend.synth import CorruptionSpec, corrupt


def _row(comp, gt, eps=DEFAULT_EPS) -> dict:
    return evaluate_completions([comp], [gt], eps).rows[0]


def test_accuracy_hand_example():
    comp = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    gt = np.array([[0.0, 0.0, 0.01]])
    row = _row(comp, gt, 0.03)
    # one of two completion points lies within 0.03 of the ground truth
    assert row["accuracy"] == pytest.approx(50.0, abs=1e-12)
    # the single ground-truth point is 0.01 from the completion
    assert row["completeness"] == pytest.approx(100.0, abs=1e-12)
    assert row["f1"] == pytest.approx(200.0 / 3.0, abs=1e-12)
    assert f1(50.0, 100.0) == pytest.approx(200.0 / 3.0, abs=1e-12)


def test_accuracy_identity_and_zero_eps():
    pts = Rng(0).normal((20, 3))
    assert _row(pts, pts)["accuracy"] == 100.0
    far = pts + np.array([10.0, 0.0, 0.0])
    assert _row(pts, far, 0.0)["accuracy"] == 0.0
    assert _row(pts, far, 0.0)["completeness"] == 0.0
    assert _row(pts, pts.copy(), 0.0)["accuracy"] == 100.0
    assert _row(pts, pts.copy(), 0.0)["completeness"] == 100.0


def test_accuracy_validation():
    pts = np.zeros((2, 3))
    with pytest.raises(ValueError, match="eps"):
        evaluate_completions([pts], [pts], -0.1)
    with pytest.raises(ValueError, match="non-empty"):
        evaluate_completions([np.zeros((0, 3))], [pts])
    with pytest.raises(ValueError, match="non-empty"):
        evaluate_completions([pts], [np.zeros((0, 3))])


def test_accuracy_monotone_in_eps_and_order_invariant():
    rng = Rng(1)
    for _ in range(10):
        a = rng.normal((15, 3)) * 0.5
        b = rng.normal((12, 3)) * 0.5
        rows = [_row(a, b, e) for e in (0.0, 0.05, 0.1, 0.5, 2.0)]
        for col in ("accuracy", "completeness"):
            vals = [row[col] for row in rows]
            assert all(x <= y for x, y in zip(vals, vals[1:]))
            assert vals[-1] == 100.0
        perm = rng.permutation(15)
        assert _row(a[perm], b, 0.1)["accuracy"] == _row(a, b, 0.1)["accuracy"]
        assert _row(a[perm], b, 0.1)["completeness"] == _row(a, b, 0.1)["completeness"]


def test_f1_reference_values():
    # published chair-row values recovered from their own components
    assert f1(80.7, 80.8) == pytest.approx(80.8, abs=0.1)
    assert f1(39.6, 61.8) == pytest.approx(48.2, abs=0.1)
    assert f1(73.0, 73.0) == 73.0
    assert f1(0.0, 0.0) == 0.0
    assert f1(0.0, 80.0) == 0.0


def test_f1_validation_and_bounds():
    with pytest.raises(ValueError, match="out of range"):
        f1(-1.0, 50.0)
    with pytest.raises(ValueError, match="out of range"):
        f1(50.0, 100.5)
    rng = Rng(2)
    for _ in range(50):
        a, b = 100.0 * rng.uniform(2)
        v = f1(a, b)
        assert min(a, b) <= v <= max(a, b) + 1e-12


def test_occupancy_distribution_normalized():
    rng = Rng(3)
    clouds = [rng.normal((30, 3)) * 0.2 for _ in range(4)]
    dist = OccupancyDistribution.from_clouds(clouds, g=16)
    assert dist.probs.shape == (16, 16, 16)
    assert np.all(dist.probs >= 0.0)
    assert float(dist.probs.sum()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="no points"):
        OccupancyDistribution.from_clouds([np.zeros((0, 3))])


def test_occupancy_clamps_outside_points_with_warning():
    cloud = np.array([[1.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.warns(UserWarning, match="clamped"):
        dist = OccupancyDistribution.from_clouds([cloud])
    assert float(dist.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_jsd_identical_and_disjoint():
    rng = Rng(4)
    a = [rng.normal((20, 3)) * 0.3 for _ in range(3)]
    assert jsd(a, [c.copy() for c in a]) == pytest.approx(0.0, abs=1e-12)
    # single occupied cells on opposite corners: disjoint support, base-2 -> 1
    lo = [np.full((10, 3), -0.9)]
    hi = [np.full((10, 3), 0.9)]
    assert jsd(lo, hi) == pytest.approx(1.0, abs=1e-12)


def test_jsd_symmetric_and_bounded():
    rng = Rng(5)
    for _ in range(5):
        a = [rng.normal((25, 3)) * 0.3 for _ in range(2)]
        b = [rng.normal((25, 3)) * 0.3 for _ in range(2)]
        v = jsd(a, b)
        assert v == pytest.approx(jsd(b, a), abs=1e-12)
        assert 0.0 <= v <= 1.0


def test_jsd_accepts_point_sets():
    a = [PointSet(Rng(6).normal((20, 3)) * 0.2)]
    assert jsd(a, a) == 0.0


def test_mode_collapse_reference():
    rng = Rng(7)
    gts = [rng.normal((15, 3)) * 0.3 for _ in range(6)]
    ref = mode_collapse_reference(gts, Rng(0))
    assert len(ref) == 6
    for c in ref[1:]:
        assert np.array_equal(c.points, ref[0].points)
    # the chosen cloud is one of the inputs
    assert any(np.array_equal(ref[0].points, g) for g in gts)
    assert jsd(gts, ref) > jsd(gts, gts)
    again = mode_collapse_reference(gts, Rng(0))
    assert np.array_equal(again[0].points, ref[0].points)
    with pytest.raises(ValueError, match="non-empty"):
        mode_collapse_reference([], Rng(0))


def test_evaluate_completions_rows_and_aggregate():
    rng = Rng(8)
    gts = [rng.normal((10, 3)) * 0.3 for _ in range(3)]
    comps = [g + 0.001 * rng.normal((10, 3)) for g in gts]
    rep = evaluate_completions(comps, gts)
    assert len(rep.rows) == 3
    for i, row in enumerate(rep.rows):
        assert row["index"] == i
        assert row["accuracy"] == 100.0 and row["completeness"] == 100.0
        assert row["f1"] == 100.0
        assert min(row["accuracy"], row["completeness"]) <= row["f1"] <= max(
            row["accuracy"], row["completeness"]
        )
        assert row["emd"] < 0.01 and row["chamfer"] < 1e-4 and row["hausdorff_sym"] < 0.01
    for col in ("accuracy", "completeness", "f1", "emd", "chamfer", "hausdorff_sym"):
        assert rep.aggregate[col] == pytest.approx(np.mean([r[col] for r in rep.rows]))


def test_evaluate_completions_size_mismatch_gives_nan_emd():
    gt = [Rng(9).normal((10, 3))]
    comp = [Rng(10).normal((8, 3))]
    rep = evaluate_completions(comp, gt)
    assert np.isnan(rep.rows[0]["emd"])
    assert np.isfinite(rep.rows[0]["chamfer"])
    with pytest.raises(ValueError, match="completions vs"):
        evaluate_completions(comp, gt + gt)


def tiny_pipeline(n=16, k=4):
    ae = Autoencoder(AutoencoderSpec(n=n, k=k), Rng(20))
    return ae, CompletionPipeline(clean_ae=ae, generator=build_generator(GanSpec(k=k), Rng(21)))


def test_incompleteness_sweep_structure_and_determinism():
    ae, pipeline = tiny_pipeline()
    rng = Rng(22)
    gts = [PointSet(rng.normal((16, 3)) * 0.3) for _ in range(4)]
    rows = incompleteness_sweep(pipeline, ae, gts, [0.1, 0.3], seed=5)
    assert [row["r"] for row in rows] == [0.1, 0.3]
    for row in rows:
        assert set(row) == {"r", "f1_ae", "emd_ae", "f1_ours", "emd_ours"}
        assert all(np.isfinite(v) for v in row.values())
    again = incompleteness_sweep(pipeline, ae, gts, [0.1, 0.3], seed=5)
    assert rows == again
    other = incompleteness_sweep(pipeline, ae, gts, [0.1, 0.3], seed=6)
    assert rows != other


# ---- one distance matrix per pair, against the per-pair formulas ----


def _oracle_row(i, c, g, eps) -> dict:
    """The per-pair formulas evaluate_completions replaced: six cdist calls
    plus emd."""
    acc = 100.0 * float((cdist(c, g).min(axis=1) <= eps).mean())
    com = 100.0 * float((cdist(g, c).min(axis=1) <= eps).mean())
    d2 = cdist(c, g, "sqeuclidean")
    return {
        "index": i,
        "accuracy": acc,
        "completeness": com,
        "f1": f1(acc, com),
        "emd": emd(c, g)[0] if len(c) == len(g) else float("nan"),
        "chamfer": float(d2.min(axis=1).mean() + d2.min(axis=0).mean()),
        "hausdorff_sym": max(
            float(np.sqrt(cdist(c, g, "sqeuclidean").min(axis=1).max())),
            float(np.sqrt(cdist(g, c, "sqeuclidean").min(axis=1).max())),
        ),
    }


def _bits(values) -> list:
    return [np.float64(v).tobytes() for v in values]


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.floats(-1.0, 1.0))


@st.composite
def _scored_pairs(draw):
    """Pairs of 1-64 points at one scale, equal or unequal counts, with
    duplicated points in a cloud and points shared by both clouds; eps 0, the
    default, or a nearest-neighbour distance that occurs in the data."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 64))
        m = draw(st.one_of(st.just(n), st.integers(1, 64)))
        c = draw(hnp.arrays(np.float64, (n, 3), elements=_COORD)) * scale
        g = draw(hnp.arrays(np.float64, (m, 3), elements=_COORD)) * scale
        shared = draw(st.integers(0, min(n, m)))
        g[:shared] = c[draw(st.permutations(range(n)))[:shared]]
        pairs.append((c, g))
    c, g = pairs[0]
    eps = draw(st.one_of(
        st.sampled_from([0.0, DEFAULT_EPS]),
        st.integers(0, len(c) - 1).map(lambda j: float(cdist(c, g).min(axis=1)[j])),
    ))
    return pairs, eps


@settings(max_examples=200, deadline=None)
@given(case=_scored_pairs())
@example(case=([(np.zeros((3, 3)), np.zeros((3, 3)))], 0.0))
@example(case=([(np.ones((1, 3)), np.zeros((2, 3)))], float(np.sqrt(3.0))))
def test_evaluate_completions_bit_identical_to_per_pair_formulas(case):
    pairs, eps = case
    rep = evaluate_completions([c for c, _ in pairs], [g for _, g in pairs], eps)
    want = [_oracle_row(i, c, g, eps) for i, (c, g) in enumerate(pairs)]
    assert [list(row) for row in rep.rows] == [list(row) for row in want]
    for got_row, want_row in zip(rep.rows, want):
        assert _bits(got_row.values()) == _bits(want_row.values())
    cols = MetricsReport.COLUMNS
    assert _bits(rep.aggregate[c] for c in cols) == _bits(
        np.mean([row[c] for row in want]) for c in cols
    )


@settings(max_examples=300, deadline=None)
@given(
    a=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=_COORD),
    b=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=_COORD),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_cdist_identities_the_scores_rely_on(a, b, scale):
    # evaluate_completions reads every score from cdist(c, g, "sqeuclidean")
    # and its sqrt; a scipy whose cdist breaks either identity must fail here.
    a, b = a * scale, b * scale
    d2 = cdist(a, b, "sqeuclidean")
    assert cdist(a, b).tobytes() == np.sqrt(d2).tobytes()
    assert cdist(b, a, "sqeuclidean").tobytes() == np.ascontiguousarray(d2.T).tobytes()
    assert cdist(b, a).tobytes() == np.ascontiguousarray(cdist(a, b).T).tobytes()


def _two_call_sweep(pipeline, ae, gts, r_values, sigma, eps, seed) -> list:
    """The sweep as written before it encoded once: complete_batch and
    reconstruct each encode the partials."""
    root = Rng(seed)
    rows = []
    for ri, r in enumerate(r_values):
        partials = np.empty_like(gts)
        for i in range(gts.shape[0]):
            spec = CorruptionSpec(r=float(r), sigma=sigma, seed=root.spawn(ri * 1_000_003 + i).seed)
            partials[i] = corrupt(PointSet(gts[i]), spec).points
        ours = evaluate_completions(pipeline.complete_batch(partials), gts, eps).aggregate
        ae_out = evaluate_completions(ae.reconstruct(partials), gts, eps).aggregate
        rows.append({"r": float(r), "f1_ae": ae_out["f1"], "emd_ae": ae_out["emd"],
                     "f1_ours": ours["f1"], "emd_ours": ours["emd"]})
    return rows


def test_incompleteness_sweep_encodes_each_r_once(monkeypatch):
    ae, pipeline = tiny_pipeline()
    partial_ae = Autoencoder(AutoencoderSpec(n=16, k=4), Rng(23))
    partial_pipe = CompletionPipeline(clean_ae=ae, generator=pipeline.generator,
                                      partial_ae=partial_ae, mode="partial_ae")
    gts = Rng(24).normal((4, 16, 3)) * 0.3
    r_values = [0.1, 0.3, 0.5]
    calls = []
    real_predict = Network.predict

    def spy(self, x):
        calls.append(self)
        return real_predict(self, x)

    for pipe, encoders in ((pipeline, [ae.encoder]), (partial_pipe, [ae.encoder, partial_ae.encoder])):
        want = _two_call_sweep(pipe, ae, gts, r_values, 0.02, 0.05, 9)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Network, "predict", spy)
            rows = incompleteness_sweep(pipe, ae, gts, r_values, sigma=0.02, eps=0.05, seed=9)
        assert rows == want
        for enc in encoders:
            assert sum(net is enc for net in calls) == len(r_values)
        assert sum(net is pipe.generator for net in calls) == len(r_values)
        assert sum(net is ae.decoder for net in calls) == 2 * len(r_values)
