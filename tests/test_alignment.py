"""Entropy, VAT, domain adversarial, and combined loss behavior."""

import numpy as np
import pytest

from a3 import alignment as al
from a3 import autodiff as ad
from a3.autodiff import Tensor
from a3.errors import ContractError, NumericError
from a3.models import DomainClassifierParams, init_domain_classifier

from helpers import max_rel_err


def softmax_np(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def kl_np(p, q):
    pc = np.clip(p, 1e-7, 1.0)
    qc = np.clip(q, 1e-7, 1.0)
    return float(np.mean((pc * (np.log(pc) - np.log(qc))).sum(axis=1)))


def linear_softmax_model(w):
    def model(xt):
        return ad.softmax(ad.matmul(xt, ad.transpose(Tensor(w))), axis=1)
    return model


def clean_probs(w, x):
    """The clean distribution that the caller hands to the VAT helpers."""
    return linear_softmax_model(w)(Tensor(x)).data


class TestEntropyLoss:
    def test_one_hot_rows_give_zero(self):
        probs = Tensor(np.eye(4)[[0, 2, 3]])
        assert al.entropy_loss(probs).item() == 0.0

    def test_uniform_rows_give_log_k(self):
        probs = Tensor(np.full((5, 4), 0.25))
        assert al.entropy_loss(probs).item() == pytest.approx(np.log(4.0), rel=1e-12)

    def test_half_half_gives_log_two(self):
        probs = Tensor(np.array([[0.5, 0.5, 0.0, 0.0]]))
        assert al.entropy_loss(probs).item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_range_invariant_on_random_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b, k = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            probs = Tensor(softmax_np(rng.normal(size=(b, k)) * 3.0))
            v = al.entropy_loss(probs).item()
            assert -1e-12 <= v <= np.log(k) + 1e-9

    def test_contract_violations_raise(self):
        with pytest.raises(ContractError):
            al.entropy_loss(Tensor(np.array([[0.9, 0.2]])))
        with pytest.raises(ContractError):
            al.entropy_loss(Tensor(np.array([[1.2, -0.2]])))
        with pytest.raises(ContractError):
            al.entropy_loss(Tensor(np.ones(3)))

    def test_gradient_along_simplex_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.full(5, 4.0), size=6)
        p = np.clip(p, 0.05, None)
        p /= p.sum(axis=1, keepdims=True)
        probs = Tensor(p, requires_grad=True)
        ad.backward(al.entropy_loss(probs))
        g = probs.grad
        h = 1e-6
        for row in range(6):
            for i, j in ((0, 1), (2, 4), (3, 0)):
                bump = np.zeros_like(p)
                bump[row, i] = h
                bump[row, j] = -h
                up = al.entropy_loss(Tensor(p + bump)).item()
                dn = al.entropy_loss(Tensor(p - bump)).item()
                num = (up - dn) / (2 * h)
                ana = g[row, i] - g[row, j]
                assert abs(ana - num) <= 1e-4 * max(1.0, abs(num))

    def test_gradient_through_softmax_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        ad.backward(al.entropy_loss(ad.softmax(logits, axis=1)))
        g = logits.grad
        h = 1e-5
        flat = logits.data.copy()
        num = np.zeros_like(flat)
        for idx in np.ndindex(flat.shape):
            for sgn in (1.0, -1.0):
                probe = flat.copy()
                probe[idx] += sgn * h
                val = al.entropy_loss(ad.softmax(Tensor(probe), axis=1)).item()
                num[idx] += sgn * val / (2 * h)
        assert max_rel_err(g, num) <= 1e-4


class TestVat:
    def test_rows_have_radius_norm(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        x = rng.normal(size=(7, 6))
        for radius in (0.5, 1.0, 2.0):
            r = al.vat_perturbation(linear_softmax_model(w), x,
                                    clean_probs(w, x), 1e-6, radius, 2,
                                    seed=5)
            np.testing.assert_allclose(np.linalg.norm(r, axis=1), radius, atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 5))
        x = rng.normal(size=(4, 5))
        model, p = linear_softmax_model(w), clean_probs(w, x)
        a = al.vat_perturbation(model, x, p, 1e-6, 1.0, 1, seed=9)
        b = al.vat_perturbation(model, x, p, 1e-6, 1.0, 1, seed=9)
        assert np.array_equal(a, b)
        c = al.vat_perturbation(model, x, p, 1e-6, 1.0, 1, seed=10)
        assert not np.array_equal(a, c)

    def test_zero_perturbation_gives_zero_loss(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(6, 3))
        loss = al.vat_loss(linear_softmax_model(w), x, clean_probs(w, x),
                           np.zeros_like(x))
        assert loss.item() == 0.0

    def test_constant_model_gives_zero_loss(self):
        probs = np.full((5, 3), 1.0 / 3.0)

        def model(xt):
            return Tensor(probs)

        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 4))
        assert al.vat_loss(model, x, probs, r).item() == 0.0

    def test_loss_matches_direct_kl_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.normal(size=(5, 4))
            x = rng.normal(size=(3, 4))
            r = rng.normal(size=(3, 4)) * 0.3
            got = al.vat_loss(linear_softmax_model(w), x, clean_probs(w, x),
                              r).item()
            want = kl_np(softmax_np(x @ w.T), softmax_np((x + r) @ w.T))
            assert got == pytest.approx(want, abs=1e-10)
            assert got >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_direction_matches_random_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(3, 2))
        x = rng.normal(size=(1, 2))
        eps_radius = 0.1
        r = al.vat_perturbation(linear_softmax_model(w), x, clean_probs(w, x),
                                1e-6, eps_radius, 4, seed=seed + 100)

        dirs = rng.normal(size=(10000, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        p_clean = softmax_np(x @ w.T)
        perturbed = softmax_np((x + eps_radius * dirs) @ w.T)
        pc = np.clip(p_clean, 1e-7, 1.0)
        qc = np.clip(perturbed, 1e-7, 1.0)
        kls = (pc * (np.log(pc) - np.log(qc))).sum(axis=1)
        u_star = dirs[np.argmax(kls)]
        cos = abs(float(r[0] @ u_star) / eps_radius)
        assert cos >= 0.99

    @pytest.mark.parametrize("seed", [0, 1, 4, 6, 8])
    def test_more_power_iterations_do_not_reduce_kl(self, seed):
        rng = np.random.default_rng(40 + seed)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 3))
        model = linear_softmax_model(w)
        p = clean_probs(w, x)
        r1 = al.vat_perturbation(model, x, p, 1e-6, 1.0, 1, seed=seed)
        r4 = al.vat_perturbation(model, x, p, 1e-6, 1.0, 4, seed=seed)
        kl1 = al.vat_loss(model, x, p, r1).item()
        kl4 = al.vat_loss(model, x, p, r4).item()
        assert kl4 >= kl1 - 1e-12

    @pytest.mark.parametrize("power_iters", [1, 3])
    def test_model_never_runs_on_the_clean_batch(self, power_iters):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 5))
        x = rng.normal(size=(6, 5))
        inputs = []

        def model(xt):
            inputs.append(xt.data.copy())
            return linear_softmax_model(w)(xt)

        p = clean_probs(w, x)
        al.vat_loss(model, x, p, al.vat_perturbation(model, x, p, 1e-6, 1.0,
                                                     power_iters, seed=3))
        assert len(inputs) == power_iters + 1
        assert not any(np.array_equal(seen, x) for seen in inputs)

    def test_nonfinite_gradient_names_sample(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(3, 4))
        x[1] = np.inf
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="sample index 1"):
                al.vat_perturbation(linear_softmax_model(w), x,
                                    clean_probs(w, x), 1e-6, 1.0, 1, seed=0)


def zeroed_domain_classifier(embed_dim=6, hidden=5) -> DomainClassifierParams:
    dp = init_domain_classifier(np.random.default_rng(0), embed_dim, hidden)
    for t in (dp.w1, dp.b1, dp.w2, dp.b2):
        t.data[:] = 0.0
    return dp


class TestDalLoss:
    def test_uninformative_classifier_gives_two_log_two(self):
        rng = np.random.default_rng(9)
        dp = zeroed_domain_classifier()
        loss = al.dal_loss(dp, Tensor(rng.normal(size=(8, 6))),
                           Tensor(rng.normal(size=(8, 6))), grl_lambda=1.0)
        assert loss.item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_perfect_discrimination_floors_at_clamp(self):
        rng = np.random.default_rng(10)
        dp = init_domain_classifier(rng, 2, hidden=4)
        dp.w1.data = np.array([[50.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        dp.b1.data[:] = 0.0
        dp.w2.data = np.array([[50.0], [0.0], [0.0], [0.0]])
        dp.b2.data = np.array([-25.0])
        z_s = Tensor(np.tile([2.0, 0.0], (4, 1)))
        z_t = Tensor(np.tile([-2.0, 0.0], (4, 1)))
        loss = al.dal_loss(dp, z_s, z_t, grl_lambda=1.0).item()
        floor = 2.0 * -np.log1p(-1e-7)
        assert floor - 1e-15 <= loss < 1e-5

    def test_empty_batch_rejected(self):
        dp = zeroed_domain_classifier()
        with pytest.raises(ContractError):
            al.dal_loss(dp, Tensor(np.zeros((0, 6))), Tensor(np.ones((2, 6))), 1.0)

    def _encoder_grads(self, grl_lambda):
        rng = np.random.default_rng(11)
        dp = init_domain_classifier(rng, 4, hidden=5)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 3)))
        z_t = ad.matmul(x, ad.transpose(w))
        z_s = Tensor(rng.normal(size=(6, 4)))
        loss = al.dal_loss(dp, z_s, z_t, grl_lambda)
        ad.backward(loss)
        return w.grad.copy(), {k: t.grad.copy() for k, t in
                               (("w1", dp.w1), ("b1", dp.b1),
                                ("w2", dp.w2), ("b2", dp.b2))}

    def test_reversal_scales_and_flips_encoder_gradient(self):
        base_w, base_dp = self._encoder_grads(grl_lambda=-1.0)
        for lam in (1.0, 0.7):
            got_w, got_dp = self._encoder_grads(grl_lambda=lam)
            np.testing.assert_allclose(got_w, -lam * base_w, atol=1e-10)
            for k in base_dp:
                np.testing.assert_allclose(got_dp[k], base_dp[k], atol=1e-10)

    def test_lambda_one_is_exact_negation(self):
        base_w, _ = self._encoder_grads(grl_lambda=-1.0)
        got_w, _ = self._encoder_grads(grl_lambda=1.0)
        assert np.array_equal(got_w, -base_w)

    def test_source_side_is_detached(self):
        rng = np.random.default_rng(12)
        dp = zeroed_domain_classifier(4)
        z_s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z_t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ad.backward(al.dal_loss(dp, z_s, z_t, grl_lambda=1.0))
        assert z_s.grad is None
        assert z_t.grad is not None


class TestTotalLoss:
    def scalars(self, *vals):
        return [Tensor(np.asarray(v)) for v in vals]

    def test_zero_weights_reduce_to_swap(self):
        swap, dal, ent, vat = self.scalars(1.7, 2.0, 3.0, 4.0)
        assert al.total_loss(swap, dal, ent, vat, 0.0, 0.0).item() == 1.7

    def test_weighted_sum_arithmetic(self):
        swap, dal, ent, vat = self.scalars(1.0, 2.0, 3.0, 4.0)
        total = al.total_loss(swap, dal, ent, vat, 0.5, 0.1).item()
        assert total == pytest.approx(2.7, rel=1e-12)

    def test_linear_in_each_component(self):
        swap, dal, ent, vat = self.scalars(0.3, 1.1, 0.7, 0.9)
        lo = al.total_loss(swap, dal, ent, vat, 0.4, 0.2).item()
        hi = al.total_loss(swap, dal, ent, vat, 0.8, 0.2).item()
        assert hi - lo == pytest.approx(0.4 * 1.1, rel=1e-12)

    def test_nonfinite_component_named(self):
        swap, dal, ent, vat = self.scalars(1.0, 2.0, 3.0, np.nan)
        with pytest.raises(NumericError, match="vat"):
            al.total_loss(swap, dal, ent, vat, 1.0, 0.1)

    def test_nonscalar_component_rejected(self):
        swap, dal, ent = self.scalars(1.0, 2.0, 3.0)
        with pytest.raises(ContractError):
            al.total_loss(swap, dal, ent, Tensor(np.ones(2)), 1.0, 0.1)

    def test_gradient_reaches_all_components(self):
        comps = [Tensor(np.asarray(v), requires_grad=True) for v in
                 (1.0, 2.0, 3.0, 4.0)]
        ad.backward(al.total_loss(*comps, 0.5, 0.1))
        assert comps[0].grad == pytest.approx(1.0)
        assert comps[1].grad == pytest.approx(0.5)
        assert comps[2].grad == pytest.approx(0.1)
        assert comps[3].grad == pytest.approx(0.1)
