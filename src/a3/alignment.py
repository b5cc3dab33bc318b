"""Adaptation losses: entropy minimization, virtual adversarial training,
domain adversarial alignment through gradient reversal, and their weighted
combination.

The VAT helpers treat the model as a black-box callable from an input
Tensor to a row-stochastic probability Tensor. The caller supplies the
clean-branch distribution as an array, computed once per step, so it is a
constant and gradient flows only through the perturbed branch. The domain
adversarial loss realizes its min-max game in a single backward pass: the
discriminator sees ordinary gradients while the target encoder receives
them sign-flipped and scaled.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .models import DomainClassifierParams, domain_prob

PROB_FLOOR = 1e-7

ModelFn = Callable[[Tensor], Tensor]


def entropy_loss(probs: Tensor) -> Tensor:
    """Mean Shannon entropy of probability rows, using 0 log 0 = 0."""
    p = probs.data
    if p.ndim != 2:
        raise ContractError(f"entropy_loss expects B x K probabilities, got {p.shape}")
    if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
        raise ContractError("entropy_loss probabilities fall outside [0, 1]")
    row_sums = p.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-6:
        raise ContractError(
            f"entropy_loss rows must sum to 1 within 1e-6; worst deviation "
            f"{np.max(np.abs(row_sums - 1.0)):.3e}")
    logp = ad.log(ad.clamp(probs, PROB_FLOOR, 1.0))
    return ad.mul(ad.tsum(ad.mul(probs, logp)), -1.0 / p.shape[0])


def _kl_from_constant(p_const: np.ndarray, q: Tensor) -> Tensor:
    """KL(p_const || q), mean over rows; gradient flows only through q."""
    pc = np.clip(p_const, PROB_FLOOR, 1.0)
    log_q = ad.log(ad.clamp(q, PROB_FLOOR, 1.0))
    gap = ad.sub(Tensor(np.log(pc)), log_q)
    return ad.mul(ad.tsum(ad.mul(Tensor(pc), gap)), 1.0 / pc.shape[0])


def vat_perturbation(model: ModelFn, x: np.ndarray, p_clean: np.ndarray,
                     xi: float, eps_radius: float, power_iters: int,
                     seed: int) -> np.ndarray:
    """Worst-case input perturbation of radius eps_radius, by power iteration.

    Starts from seeded unit noise; each round differentiates
    KL(p_clean || model(x + xi * d)) with respect to d and renormalizes.
    Rows whose gradient vanishes keep their previous direction so the
    returned rows always have norm eps_radius.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=x.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True) + ad.NORM_EPS
    for _ in range(power_iters):
        d_t = Tensor(d, requires_grad=True)
        perturbed = model(ad.add(Tensor(x), ad.mul(d_t, xi)))
        ad.backward(_kl_from_constant(p_clean, perturbed))
        g = d_t.grad
        bad = ~np.all(np.isfinite(g), axis=1)
        if np.any(bad):
            raise NumericError(
                f"non-finite VAT gradient at sample index {int(np.where(bad)[0][0])}")
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        live = norms[:, 0] > 0.0
        unit = np.divide(g, norms, out=np.zeros_like(g), where=norms > 0.0)
        d = np.where(live[:, None], unit, d)
    return eps_radius * d


def vat_loss(model: ModelFn, x: np.ndarray, p_clean: np.ndarray,
             r_vadv: np.ndarray) -> Tensor:
    """KL(p_clean || model(x + r_vadv)), mean over rows."""
    return _kl_from_constant(p_clean, model(ad.add(Tensor(x), Tensor(r_vadv))))


def dal_loss(dp: DomainClassifierParams, z_source_model: Tensor,
             z_target_model: Tensor, grl_lambda: float) -> Tensor:
    """Domain adversarial loss over two embedding views of target samples.

    The source-model embeddings are detached (that model is frozen); the
    target-model embeddings pass through gradient reversal so one backward
    pass trains the discriminator normally while pushing the target encoder
    toward domain confusion.
    """
    if z_source_model.shape[0] == 0 or z_target_model.shape[0] == 0:
        raise ContractError("dal_loss requires nonempty embedding batches")
    z_s = Tensor(z_source_model.data)
    z_t = ad.gradient_reversal(z_target_model, grl_lambda)
    p_s = ad.clamp(domain_prob(dp, z_s), PROB_FLOOR, 1.0 - PROB_FLOOR)
    p_t = ad.clamp(domain_prob(dp, z_t), PROB_FLOOR, 1.0 - PROB_FLOOR)
    loss_s = ad.neg(ad.tmean(ad.log(p_s)))
    loss_t = ad.neg(ad.tmean(ad.log(ad.sub(1.0, p_t))))
    return ad.add(loss_s, loss_t)


def total_loss(swap: Tensor, dal: Tensor, ent: Tensor, vat: Tensor,
               lambda1: float, lambda2: float) -> Tensor:
    """Weighted sum: swap + lambda1 * dal + lambda2 * (ent + vat)."""
    for name, t in (("swap", swap), ("dal", dal), ("ent", ent), ("vat", vat)):
        if t.shape != ():
            raise ContractError(f"total_loss component {name} must be scalar")
        if not np.isfinite(t.data):
            raise NumericError(f"total_loss component {name} is non-finite")
    return ad.add(swap, ad.add(ad.mul(dal, lambda1),
                               ad.mul(ad.add(ent, vat), lambda2)))
