"""Acquisition: MC-dropout uncertainty, k-means diversity, the ranking of
the pool, and the core-set that the ranking fills.

Higher combined score means more desirable: high diversity (distance to the
nearest feature-space centroid) and low uncertainty (BALD mutual
information from the rotation model's dropout posterior). `rank_pool`
orders the pool indices best first. When the pool is rescored every cycle,
the first k of the ranking join the core-set; only a static partition
splits its one ranking into batches of near-equal size, larger batches
first, and takes the first k of each cycle's batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import models
from .errors import BudgetError, ConfigError, ContractError, ShapeError


@dataclass
class CoreSet:
    """Ordered unique pool indices accumulated across cycles."""

    selected: list[int]
    budget_total: int
    stage: int

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ContractError("core-set contains duplicate indices")
        if len(self.selected) > self.budget_total:
            raise BudgetError(
                f"core-set of {len(self.selected)} indices exceeds "
                f"budget_total {self.budget_total}")


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

# Elements of the (rows, k, p) difference that `_sq_dists` holds at once.
_DIST_BLOCK = 1 << 16


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared distances, (N, k), from the (N, k, p) difference array
    taken in row blocks of about `_DIST_BLOCK` elements. Each element's p-sum
    is the same einsum whatever the block, so the result does not depend on
    it bit for bit."""
    n = x.shape[0]
    k, p = centroids.shape
    rows = max(1, _DIST_BLOCK // (k * p))
    out = np.empty((n, k))
    for start in range(0, n, rows):
        diff = x[start:start + rows, None, :] - centroids[None, :, :]
        out[start:start + rows] = np.einsum("nkp,nkp->nk", diff, diff)
    return out


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


def kmeans(embeddings: np.ndarray, k: int, seed: int, max_iter: int = 100):
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
# Ranking
# ---------------------------------------------------------------------------

SCORING_MODES = ("hybrid", "uncertainty", "random")


def rank_pool(indices, uncertainties, diversities, mode: str, beta: float,
              seed: int) -> np.ndarray:
    """Pool indices best first under the chosen scoring mode, ties broken by
    ascending index.

    hybrid scores diversity - beta * uncertainty, uncertainty scores
    -uncertainty alone (least uncertain first), random draws seeded uniform
    scores; higher scores rank first.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of "
                          f"{', '.join(SCORING_MODES)}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")
    idx = np.asarray(indices, dtype=np.int64)
    u = np.asarray(uncertainties, dtype=np.float64)
    d = np.asarray(diversities, dtype=np.float64)
    if not (idx.ndim == 1 and idx.shape == u.shape == d.shape):
        raise ShapeError("indices, uncertainties, diversities must be "
                         "vectors of one length")
    if (u < 0).any() or (d < 0).any():
        raise ContractError("uncertainties and diversities must be >= 0")
    if mode == "hybrid":
        scores = d - beta * u
    elif mode == "uncertainty":
        scores = -u
    else:
        scores = np.random.default_rng(seed).random(idx.shape[0])
    return idx[np.lexsort((idx, -scores))]


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
    """Each pool image once per rotation class, shuffled deterministically,
    without building the 4N rotated rows.

    Returns (rows, labels): labels has shape (4N,), label j meaning j
    quarter turns, and rows(m) gathers rotated rows m as a new (len(m), d)
    array. Row m is image order[m] // 4 turned order[m] % 4 times, for a
    seeded permutation `order` of range(4N). A turn only moves pixels, so
    each row equals `np.rot90` of its image bit for bit.
    """
    x = np.asarray(target_pool, dtype=np.float64)
    n, d = x.shape
    side = _square_side(d)
    order = np.random.default_rng(seed).permutation(4 * n)
    image, turns = np.divmod(order, 4)
    # perms[j, q] is the pixel that j quarter turns move to position q
    pixels = np.arange(d).reshape(side, side)
    perms = np.stack([np.rot90(pixels, j).reshape(-1) for j in range(4)])
    offsets = image * d
    flat = x.reshape(-1)

    def rows(m: np.ndarray) -> np.ndarray:
        return flat.take(offsets[m, None] + perms[turns[m]])

    return rows, turns.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Core-set serialization
# ---------------------------------------------------------------------------

def save_coreset(path: str | Path, core: CoreSet) -> None:
    lines = [f"# a3-coreset v1 stage={core.stage} budget={core.budget_total}"]
    lines += [str(i) for i in core.selected]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

