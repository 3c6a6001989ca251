"""Completion quality metrics and diversity diagnostics.

Accuracy: percentage of completion points within epsilon of the ground
truth.  Completeness: the mirror image.  F1: their harmonic mean.  The JSD
diagnostic compares aggregate occupancy distributions of two cloud
collections on a 32^3 grid over [-1, 1]^3 (base-2 logarithm, so the value
lies in [0, 1]); a high value against the repeated-single-cloud reference
indicates mode collapse.  Everything assumes unit-sphere-normalized clouds
and epsilon defaults to 0.03 in those units.

evaluate_completions scores each pair from one matrix: d2 = cdist(c, g,
"sqeuclidean") and d = sqrt(d2).  Accuracy takes the row minima of d,
completeness its column minima, Chamfer and both directed Hausdorff terms
come from d2, and EMD from d.  The scores equal those of the per-pair
formulas (six cdist calls) bit for bit, because of two identities of scipy's
cdist that tests/test_metrics.py pins: the euclidean metric equals the sqrt
of the sqeuclidean one, and cdist(g, c) equals cdist(c, g).T.  Minima and
maxima are exact, so reading them off either orientation changes nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .distances import chamfer_from_sq, emd_from_dist, hausdorff_from_sq
from .pointset import PointSet
from .rng import Rng
from .synth import CorruptionSpec, corrupt

DEFAULT_EPS = 0.03
DEFAULT_GRID = 32
# The keys of an incompleteness_sweep row, in sweep.csv's column order.
SWEEP_COLUMNS = ("r", "f1_ae", "emd_ae", "f1_ours", "emd_ours")


def _pts(x) -> np.ndarray:
    return x.points if isinstance(x, PointSet) else np.asarray(x, dtype=np.float64)


def f1(acc: float, comp: float) -> float:
    """Harmonic mean of accuracy and completeness percentages."""
    if not (0.0 <= acc <= 100.0 and 0.0 <= comp <= 100.0):
        raise ValueError(f"percentages out of range: acc={acc}, comp={comp}")
    if acc == 0.0 and comp == 0.0:
        return 0.0
    return 2.0 * acc * comp / (acc + comp)


# ---- occupancy / JSD ----


@dataclass(frozen=True)
class OccupancyDistribution:
    """Normalized cell probabilities over a g^3 grid spanning [-1, 1]^3."""

    g: int
    probs: np.ndarray  # (g, g, g), sums to 1

    @staticmethod
    def from_clouds(clouds, g: int = DEFAULT_GRID) -> "OccupancyDistribution":
        pts = np.concatenate([_pts(c).reshape(-1, 3) for c in clouds])
        if pts.shape[0] == 0:
            raise ValueError("no points to build an occupancy distribution from")
        outside = int(((pts < -1.0) | (pts > 1.0)).any(axis=1).sum())
        if outside:
            warnings.warn(
                f"{outside} points outside [-1,1]^3 clamped to the grid", stacklevel=2
            )
        cells = np.clip(((pts + 1.0) * 0.5 * g).astype(np.int64), 0, g - 1)
        flat = cells[:, 0] * g * g + cells[:, 1] * g + cells[:, 2]
        counts = np.bincount(flat, minlength=g**3).astype(np.float64)
        return OccupancyDistribution(g=g, probs=(counts / counts.sum()).reshape(g, g, g))


def _kl_base2(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def jsd(set_a, set_b, g: int = DEFAULT_GRID) -> float:
    """Base-2 Jensen-Shannon divergence of two cloud collections' occupancy."""
    pa = OccupancyDistribution.from_clouds(set_a, g).probs.reshape(-1)
    pb = OccupancyDistribution.from_clouds(set_b, g).probs.reshape(-1)
    m = 0.5 * (pa + pb)
    return 0.5 * _kl_base2(pa, m) + 0.5 * _kl_base2(pb, m)


def mode_collapse_reference(gt_sets, rng: Rng) -> list:
    """One uniformly chosen cloud repeated as many times as there are inputs."""
    clouds = [PointSet(_pts(c)) for c in gt_sets]
    if not clouds:
        raise ValueError("gt_sets must be non-empty")
    chosen = clouds[rng.randint(len(clouds))]
    return [chosen for _ in clouds]


# ---- per-set reports ----


@dataclass
class MetricsReport:
    """Per-shape metric rows plus their means."""

    rows: list
    aggregate: dict

    COLUMNS = ("accuracy", "completeness", "f1", "emd", "chamfer", "hausdorff_sym")


def evaluate_completions(completions, gts, eps: float = DEFAULT_EPS) -> MetricsReport:
    """Per-pair scores and their means; EMD is NaN where the counts differ.

    Accuracy is the percent of completion points within eps of some
    ground-truth point, completeness the percent of ground-truth points
    within eps of some completion point.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    comp_list = [_pts(c) for c in completions]
    gt_list = [_pts(g) for g in gts]
    if len(comp_list) != len(gt_list):
        raise ValueError(f"{len(comp_list)} completions vs {len(gt_list)} ground truths")
    rows = []
    for i, (c, g) in enumerate(zip(comp_list, gt_list)):
        if c.shape[0] == 0 or g.shape[0] == 0:
            raise ValueError("evaluation needs non-empty point sets")
        d2 = cdist(c, g, "sqeuclidean")
        d = np.sqrt(d2)
        acc = 100.0 * float((d.min(axis=1) <= eps).mean())
        com = 100.0 * float((d.min(axis=0) <= eps).mean())
        hd = max(float(hausdorff_from_sq(d2)), float(hausdorff_from_sq(d2.T)))
        rows.append(
            {
                "index": i,
                "accuracy": acc,
                "completeness": com,
                "f1": f1(acc, com),
                "emd": emd_from_dist(d)[0] if c.shape[0] == g.shape[0] else float("nan"),
                "chamfer": chamfer_from_sq(d2),
                "hausdorff_sym": hd,
            }
        )
    aggregate = {
        col: float(np.mean([r[col] for r in rows])) for col in MetricsReport.COLUMNS
    }
    return MetricsReport(rows=rows, aggregate=aggregate)


def incompleteness_sweep(
    pipeline,
    ae_baseline,
    gt_clouds,
    r_values,
    *,
    sigma: float = 0.01,
    eps: float = DEFAULT_EPS,
    seed: int = 0,
) -> list:
    """F1 and EMD at each incompleteness level for the pipeline and the
    AE-only baseline (`ae_baseline.reconstruct(partials)`).

    Partials are regenerated from the ground-truth clouds at every r with
    seeds derived from (seed, r index, instance), so the sweep is
    deterministic and independent of any stored dataset corruption.  Each
    r's partials are encoded once by the baseline's encoder; when that is
    also the pipeline's source encoder (every mode but partial_ae), the
    pipeline completes those same codes.  Both completions run through
    Network.predict: no autodiff node, the BatchNorm running statistics, and
    no write into the partials, any network or any other array the caller
    holds.
    """
    gts = np.stack([_pts(c) for c in gt_clouds])
    shared = pipeline.source_encoder() is ae_baseline.encoder
    root = Rng(seed)
    rows = []
    for ri, r in enumerate(r_values):
        partials = np.empty_like(gts)
        for i in range(gts.shape[0]):
            spec = CorruptionSpec(r=float(r), sigma=sigma, seed=root.spawn(ri * 1_000_003 + i).seed)
            partials[i] = corrupt(PointSet(gts[i]), spec).points
        codes = ae_baseline.encode(partials)
        ours = pipeline.complete_codes(codes) if shared else pipeline.complete_batch(partials)
        ae_out = ae_baseline.decode(codes)
        ours_agg = evaluate_completions(ours, gts, eps).aggregate
        ae_agg = evaluate_completions(ae_out, gts, eps).aggregate
        values = (float(r), ae_agg["f1"], ae_agg["emd"], ours_agg["f1"], ours_agg["emd"])
        rows.append(dict(zip(SWEEP_COLUMNS, values)))
    return rows
