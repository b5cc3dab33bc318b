"""Acquisition: MC-dropout uncertainty, k-means diversity, hybrid scoring,
pool partitioning, and iterative core-set construction.

Higher combined score means more desirable: high diversity (distance to the
nearest feature-space centroid) and low uncertainty (BALD mutual
information from the rotation model's dropout posterior). The pool is
sorted once per cycle, split into batches of near-equal size, and the
top-k of the current batch joins the core-set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import models
from .errors import BudgetError, ConfigError, ContractError, ShapeError


@dataclass
class AcquisitionRecord:
    """Per-sample scoring row: pool index, uncertainty, diversity, score."""

    sample_index: int
    uncertainty: float
    diversity: float
    a3_score: float

    def __post_init__(self) -> None:
        if self.uncertainty < 0:
            raise ContractError(
                f"uncertainty must be >= 0, got {self.uncertainty}")
        if self.diversity < 0:
            raise ContractError(f"diversity must be >= 0, got {self.diversity}")


@dataclass
class CoreSet:
    """Ordered unique pool indices accumulated across cycles."""

    selected: list[int] = field(default_factory=list)
    budget_total: int = 0
    budget_used: int = 0
    stage: int = 0

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ContractError("core-set contains duplicate indices")
        if self.budget_used != len(self.selected):
            raise ContractError(
                f"budget_used {self.budget_used} != selected count "
                f"{len(self.selected)}")
        if self.budget_used > self.budget_total:
            raise BudgetError(
                f"budget_used {self.budget_used} exceeds budget_total "
                f"{self.budget_total}")


@dataclass
class PoolPartition:
    """Index batches covering the pool once, in descending score order."""

    batches: list[list[int]]


# ---------------------------------------------------------------------------
# Uncertainty
# ---------------------------------------------------------------------------

def mc_dropout_probs(rot_model: models.RotationClassifierParams, x: np.ndarray,
                     t_passes: int, seed: int) -> np.ndarray:
    """Stack of T stochastic rotation predictions, shape (B, T, 4), one
    `models.dropout_mask` draw per pass."""
    if t_passes < 2:
        raise ConfigError(
            f"mc_dropout_probs needs at least 2 passes, got {t_passes}")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = np.empty((x.shape[0], t_passes, 4))
    with ad.no_grad():
        # The mask acts after the trunk, so one trunk pass serves all T heads.
        feats = models.encode(rot_model.trunk, x)
        for t in range(t_passes):
            mask = models.dropout_mask(rng, feats.shape, rot_model.dropout_rate)
            out[:, t, :] = models.rotation_head(rot_model, feats, mask).data
    return out


def bald_mutual_info(stack: np.ndarray) -> float:
    """Mutual information H(mean) - mean(H) of a T x K probability stack.

    Uses the exact 0 log 0 = 0 convention; bitwise-identical rows return
    exactly 0 (no disagreement), and tiny negative rounding residue is
    clipped to 0.
    """
    p = np.asarray(stack, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError(f"bald_mutual_info expects a T x K stack, got {p.shape}")
    if np.all(p == p[0]):
        return 0.0

    def entropy(rows: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(rows > 0.0, rows * np.log(rows), 0.0)
        return -terms.sum(axis=-1)

    mi = entropy(p.mean(axis=0)) - entropy(p).mean()
    return float(max(mi, 0.0))


# ---------------------------------------------------------------------------
# Diversity
# ---------------------------------------------------------------------------

def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("nkp,nkp->nk", diff, diff)


def _nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, equal to
    `_sq_dists(x, centroids).argmin(axis=1)` bit for bit.

    Candidates come from the GEMM form |x|^2 - 2 x.c + |c|^2. Each form of a
    squared distance is within (p + 2) roundings of the true value, scaled
    by (|x| + |c|)^2: the exact form rounds the p differences, the p squares
    and p - 1 additions of terms that sum to |x - c|^2; the GEMM form rounds
    two p-term dot products and two additions of terms bounded by
    (|x| + |c|)^2. So the two forms differ by at most
    2 (p + 2) u (|x| + |c|)^2 with u = eps / 2, and a GEMM winner whose lead
    over the runner-up exceeds twice that is the exact form's unique
    minimum. `tol` covers it with room for the rounding of the bound itself.
    Rows within `tol` of a tie, and non-finite rows (the comparison with NaN
    is false), take the exact form.
    """
    k = centroids.shape[0]
    if k == 1:
        return np.zeros(x.shape[0], dtype=np.int64)
    x_sq = (x * x).sum(axis=1)
    c_sq = (centroids * centroids).sum(axis=1)
    approx = x_sq[:, None] - 2.0 * (x @ centroids.T) + c_sq[None, :]
    best = approx.argmin(axis=1)
    two = np.partition(approx, 1, axis=1)
    gap = two[:, 1] - two[:, 0]
    tol = (4.0 * (x.shape[1] + 3) * np.finfo(np.float64).eps
           * (math.sqrt(x_sq.max()) + math.sqrt(c_sq.max())) ** 2)
    unsure = ~(gap > tol)
    if unsure.any():
        best[unsure] = _sq_dists(x[unsure], centroids).argmin(axis=1)
    return best


def kmeans(embeddings: np.ndarray, k: int, max_iter: int = 100, seed: int = 0):
    """Lloyd's algorithm with seeded k-means++ initialization.

    Returns (centroids k x p, assignment of length N, inertia). Empty
    clusters keep their previous centroid.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise ContractError(f"kmeans needs at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)
    # An explicit uniform p draws different numbers from p=None.
    uniform = np.full(n, 1.0 / n)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.choice(n, p=uniform)]
    d2 = _sq_dists(x, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        else:
            centroids[j] = x[rng.choice(n, p=uniform)]
        d2 = np.minimum(d2, _sq_dists(x, centroids[j:j + 1]).min(axis=1))

    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        new_assignment = _nearest(x, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = x[assignment == j]
            if members.shape[0]:
                centroids[j] = members.sum(axis=0) / members.shape[0]
    inertia = float(_sq_dists(x, centroids).min(axis=1).sum())
    return centroids, assignment, inertia


def diversity_distances(embeddings: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Euclidean distance from each embedding row to its nearest centroid."""
    return np.sqrt(_sq_dists(np.asarray(embeddings, dtype=np.float64),
                             centroids).min(axis=1))


# ---------------------------------------------------------------------------
# Scoring and selection
# ---------------------------------------------------------------------------

def a3_score(uncertainty: float, diversity: float, beta: float) -> float:
    """Combined ranking key: diversity - beta * uncertainty, higher better."""
    return diversity - beta * uncertainty


SCORING_MODES = ("hybrid", "uncertainty", "random")


def score_pool(indices, uncertainties, diversities, mode: str = "hybrid",
               beta: float = 1.0, seed: int = 0) -> list[AcquisitionRecord]:
    """One AcquisitionRecord per pool sample under the chosen ranking mode.

    hybrid ranks by diversity - beta * uncertainty, uncertainty ranks by
    -uncertainty alone (least uncertain first), random assigns seeded
    uniform scores; uncertainty and diversity are logged truthfully in all
    modes.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of "
                          f"{', '.join(SCORING_MODES)}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")
    indices = list(indices)
    u = np.asarray(uncertainties, dtype=np.float64)
    d = np.asarray(diversities, dtype=np.float64)
    if not (len(indices) == u.shape[0] == d.shape[0]):
        raise ShapeError("indices, uncertainties, diversities disagree in length")
    if mode == "hybrid":
        scores = [a3_score(float(ui), float(di), beta) for ui, di in zip(u, d)]
    elif mode == "uncertainty":
        scores = [-float(ui) for ui in u]
    else:
        scores = list(np.random.default_rng(seed).random(len(indices)))
    return [AcquisitionRecord(int(i), float(ui), float(di), s)
            for i, ui, di, s in zip(indices, u, d, scores)]


def partition_pool(records: list[AcquisitionRecord], n: int) -> PoolPartition:
    """Sort by descending score (ties by index) and split into n batches.

    Batch sizes differ by at most one, larger batches first.
    """
    if not records:
        raise ContractError("partition_pool requires a nonempty record list")
    if n < 1:
        raise ConfigError(f"partition count must be >= 1, got {n}")
    if n > len(records):
        raise ConfigError(
            f"partition count {n} exceeds pool size {len(records)}")
    ordered = sorted(records, key=lambda r: (-r.a3_score, r.sample_index))
    base, extra = divmod(len(ordered), n)
    batches = []
    at = 0
    for j in range(n):
        size = base + (1 if j < extra else 0)
        batches.append([r.sample_index for r in ordered[at:at + size]])
        at += size
    return PoolPartition(batches)


def select_topk(batch_records: list[AcquisitionRecord], core: CoreSet,
                k: int) -> CoreSet:
    """New CoreSet with the k best-scored batch samples appended."""
    if k < 0 or k > len(batch_records):
        raise ContractError(
            f"select_topk k={k} outside [0, batch size {len(batch_records)}]")
    if core.budget_used + k > core.budget_total:
        raise BudgetError(
            f"selecting {k} samples would exceed budget "
            f"{core.budget_total} (used {core.budget_used})")
    taken = set(core.selected)
    overlap = [r.sample_index for r in batch_records if r.sample_index in taken]
    if overlap:
        raise ContractError(
            f"batch indices already in the core-set: {overlap[:5]}")
    ranked = sorted(batch_records, key=lambda r: (-r.a3_score, r.sample_index))
    new_indices = [r.sample_index for r in ranked[:k]]
    return CoreSet(selected=core.selected + new_indices,
                   budget_total=core.budget_total,
                   budget_used=core.budget_used + k,
                   stage=core.stage)


# ---------------------------------------------------------------------------
# Rotation pretext pool
# ---------------------------------------------------------------------------

def _square_side(d: int) -> int:
    side = math.isqrt(d)
    if side * side != d:
        raise ContractError(
            f"rotation needs square images; {d} pixels is not a perfect square")
    return side


def build_rotation_pool(target_pool: np.ndarray, seed: int):
    """Each pool image once per rotation class, shuffled deterministically.

    Returns (x of shape (4N, d), labels of shape (4N,)) where label j means
    j quarter turns. Row m is image order[m] // 4 turned order[m] % 4 times,
    for a seeded permutation `order` of range(4N).
    """
    x = np.asarray(target_pool, dtype=np.float64)
    n, d = x.shape
    side = _square_side(d)
    order = np.random.default_rng(seed).permutation(4 * n)
    image, turns = np.divmod(order, 4)
    grids = x.reshape(n, side, side)
    xs = np.empty((4 * n, d))
    for j in range(4):
        rows = turns == j
        xs[rows] = np.rot90(grids, j, axes=(1, 2))[image[rows]].reshape(-1, d)
    return xs, turns.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Core-set serialization
# ---------------------------------------------------------------------------

def save_coreset(path: str | Path, core: CoreSet) -> None:
    lines = [f"# a3-coreset v1 stage={core.stage} budget={core.budget_total}"]
    lines += [str(i) for i in core.selected]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

