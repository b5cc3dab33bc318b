"""Swap-prediction self-supervised objective.

Two augmented views are embedded, scored against shared prototypes, and
each view must predict the other view's soft cluster assignment. The
assignments (codes) come from a few Sinkhorn-Knopp normalization passes
that enforce equipartition across prototypes, and they are treated as
constants: gradient flows only through the prediction side.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError
from .models import Prototypes, prototype_scores


@dataclass
class CodeMatrix:
    """B x K soft assignments: rows sum to 1, columns approach B/K."""

    q: np.ndarray
    iters: int


def sinkhorn_codes(scores, epsilon: float, iters: int,
                   tol: float | None = None) -> CodeMatrix:
    """Balanced soft assignments from a B x K score matrix.

    Alternating normalization of exp(scores/epsilon): columns are scaled
    toward mass B/K, rows toward mass 1, ending with the row pass so each
    row is an exact distribution. No gradient flows through the result.
    When `tol` is given, iteration stops once every column sum is within
    `tol` of B/K, with `iters` acting as the cap; the returned CodeMatrix
    records the iteration count actually used.
    """
    s = np.asarray(scores.data if isinstance(scores, Tensor) else scores,
                   dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"sinkhorn_codes expects a 2-D score matrix, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NumericError("sinkhorn_codes received non-finite scores")
    if epsilon <= 0:
        raise ConfigError(f"sinkhorn epsilon must be positive, got {epsilon}")
    if iters < 1:
        raise ConfigError(f"sinkhorn iters must be a positive int, got {iters}")
    b, k = s.shape
    if b < k:
        warnings.warn(
            f"sinkhorn_codes: batch size {b} below prototype count {k}; "
            "equipartition targets fewer than one sample per prototype",
            stacklevel=2)
    q = np.exp((s - s.max()) / epsilon)
    used = 0
    for _ in range(iters):
        col = q.sum(axis=0, keepdims=True)
        if np.any(col == 0.0):
            raise NumericError(
                "sinkhorn_codes underflowed a full column to zero; "
                "increase epsilon or rescale the scores")
        q = q / col * (b / k)
        q = q / q.sum(axis=1, keepdims=True)
        used += 1
        if tol is not None and np.max(np.abs(q.sum(axis=0) - b / k)) <= tol:
            break
    return CodeMatrix(q=q, iters=used)


def _cross_entropy_vs_codes(scores: Tensor, codes: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(scores) rows against fixed code rows."""
    log_probs = ad.log(ad.softmax(scores, axis=1))
    weighted = ad.mul(Tensor(codes), log_probs)
    return ad.mul(ad.tsum(weighted), -1.0 / scores.shape[0])


def swap_loss_given_codes(z_a: Tensor, z_b: Tensor, protos: Prototypes,
                          tau: float, q_a: np.ndarray, q_b: np.ndarray) -> Tensor:
    """Swapped prediction loss with externally supplied constant codes."""
    if z_a.shape != z_b.shape:
        raise ShapeError(
            f"swap_loss views disagree in shape: {z_a.shape} vs {z_b.shape}")
    scores_a = prototype_scores(z_a, protos, tau)
    scores_b = prototype_scores(z_b, protos, tau)
    return ad.add(_cross_entropy_vs_codes(scores_a, q_b),
                  _cross_entropy_vs_codes(scores_b, q_a))


def swap_loss(z_a: Tensor, z_b: Tensor, protos: Prototypes, tau: float,
              epsilon: float, iters: int) -> Tensor:
    """Each view predicts the other view's Sinkhorn codes.

    Codes are computed from the raw (unscaled) prototype dot products; the
    prediction side uses the temperature-scaled softmax. Symmetric in the
    two views.
    """
    if z_a.shape != z_b.shape:
        raise ShapeError(
            f"swap_loss views disagree in shape: {z_a.shape} vs {z_b.shape}")
    dots_a = z_a.data @ protos.vectors.data.T
    dots_b = z_b.data @ protos.vectors.data.T
    q_a = sinkhorn_codes(dots_a, epsilon, iters).q
    q_b = sinkhorn_codes(dots_b, epsilon, iters).q
    return swap_loss_given_codes(z_a, z_b, protos, tau, q_a, q_b)


def prototype_normalize(protos: Prototypes) -> Prototypes:
    """Re-unit-norm prototype rows in place; bitwise idempotent.

    Rows already within 1e-12 of unit norm are left untouched so repeated
    application cannot drift bits.
    """
    c = protos.vectors.data
    norms = np.linalg.norm(c, axis=1)
    stale = np.abs(norms - 1.0) > 1e-12
    if np.any(stale):
        c[stale] /= (norms[stale] + ad.NORM_EPS)[:, None]
    return protos
