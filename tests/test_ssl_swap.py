"""Sinkhorn code computation and the swapped-prediction loss."""

import numpy as np
import pytest

from a3 import autodiff as ad
from a3 import ssl_swap as ssl
from a3.autodiff import Tensor
from a3.errors import ConfigError, NumericError, ShapeError
from a3.models import Prototypes

from helpers import fd_grad, max_rel_err


def unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_codes(rng, b, k):
    q = rng.random((b, k)) + 0.05
    return q / q.sum(axis=1, keepdims=True)


class TestSinkhornCodes:
    def test_dominant_diagonal_gives_identity_like_codes(self):
        s = np.full((4, 4), -20.0)
        np.fill_diagonal(s, 20.0)
        cm = ssl.sinkhorn_codes(s, epsilon=0.05, iters=3)
        np.testing.assert_allclose(cm.q, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(cm.q.sum(axis=1), 1.0, atol=1e-12)

    def test_equal_scores_give_uniform_codes(self):
        cm = ssl.sinkhorn_codes(np.ones((8, 4)) * 0.3, epsilon=0.05, iters=3)
        np.testing.assert_allclose(cm.q, 0.25, rtol=1e-12)

    def test_converged_codes_hit_both_marginals(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.normal(size=(8, 4))
            cm = ssl.sinkhorn_codes(s, epsilon=0.05, iters=100000, tol=1e-4)
            np.testing.assert_allclose(cm.q.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(cm.q.sum(axis=0), 2.0, atol=1e-3)
            assert np.all(cm.q >= 0.0)
            assert cm.iters < 100000

    def test_few_iterations_keep_rows_exact(self):
        rng = np.random.default_rng(1)
        cm = ssl.sinkhorn_codes(rng.normal(size=(8, 4)), epsilon=0.05, iters=3)
        np.testing.assert_allclose(cm.q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cm.q >= 0.0)
        assert cm.iters == 3

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(12, 5))
        q0 = ssl.sinkhorn_codes(s, 0.05, 50).q
        q1 = ssl.sinkhorn_codes(s + 7.25, 0.05, 50).q
        assert np.max(np.abs(q1 - q0)) <= 1e-8

    def test_accepts_tensor_input_without_gradient(self):
        rng = np.random.default_rng(3)
        t = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        cm = ssl.sinkhorn_codes(t, 0.1, 5)
        assert isinstance(cm.q, np.ndarray)

    def test_error_paths(self):
        good = np.ones((4, 2))
        with pytest.raises(ConfigError):
            ssl.sinkhorn_codes(good, epsilon=0.0, iters=3)
        with pytest.raises(ConfigError):
            ssl.sinkhorn_codes(good, epsilon=0.05, iters=0)
        with pytest.raises(NumericError):
            ssl.sinkhorn_codes(np.array([[np.nan, 1.0]]), 0.05, 3)
        with pytest.raises(ShapeError):
            ssl.sinkhorn_codes(np.ones(4), 0.05, 3)

    def test_small_batch_warns(self):
        with pytest.warns(UserWarning, match="batch size"):
            ssl.sinkhorn_codes(np.ones((2, 5)), 0.05, 3)


class TestSwapLoss:
    def make_instance(self, seed, b=8, k=4, p=6):
        rng = np.random.default_rng(seed)
        z_a = Tensor(unit_rows(rng, (b, p)), requires_grad=True)
        z_b = Tensor(unit_rows(rng, (b, p)), requires_grad=True)
        protos = Prototypes(Tensor(unit_rows(rng, (k, p)), requires_grad=True))
        return rng, z_a, z_b, protos

    def test_symmetry_is_exact(self):
        _, z_a, z_b, protos = self.make_instance(0)
        l_ab = ssl.swap_loss(z_a, z_b, protos, 0.1, 0.05, 3).item()
        l_ba = ssl.swap_loss(z_b, z_a, protos, 0.1, 0.05, 3).item()
        assert l_ab == l_ba

    def test_identical_views_give_twice_self_cross_entropy(self):
        _, z_a, _, protos = self.make_instance(1)
        tau = 0.1
        loss = ssl.swap_loss(z_a, z_a, protos, tau, 0.05, 3).item()
        dots = z_a.data @ protos.vectors.data.T
        q = ssl.sinkhorn_codes(dots, 0.05, 3).q
        scores = dots / tau
        logp = scores - np.log(np.exp(scores - scores.max(axis=1, keepdims=True))
                               .sum(axis=1, keepdims=True)) - scores.max(axis=1, keepdims=True)
        ce = -(q * logp).sum() / z_a.shape[0]
        assert loss == pytest.approx(2.0 * ce, rel=1e-12)

    def test_matches_direct_formula_oracle_with_fixed_codes(self):
        for seed in range(10):
            rng, z_a, z_b, protos = self.make_instance(seed, b=8, k=4)
            tau = 0.1
            q_a = random_codes(rng, 8, 4)
            q_b = random_codes(rng, 8, 4)
            loss = ssl.swap_loss_given_codes(z_a, z_b, protos, tau, q_a, q_b).item()

            c = protos.vectors.data
            sa = z_a.data @ c.T / tau
            sb = z_b.data @ c.T / tau
            lse_a = np.log(np.exp(sa).sum(axis=1))
            lse_b = np.log(np.exp(sb).sum(axis=1))
            oracle = -np.mean((q_b * sa).sum(axis=1) + (q_a * sb).sum(axis=1)
                              - lse_a - lse_b)
            assert loss == pytest.approx(oracle, abs=1e-10)

    def test_sinkhorn_codes_are_the_ones_used(self):
        _, z_a, z_b, protos = self.make_instance(3)
        q_a = ssl.sinkhorn_codes(z_a.data @ protos.vectors.data.T, 0.05, 3).q
        q_b = ssl.sinkhorn_codes(z_b.data @ protos.vectors.data.T, 0.05, 3).q
        direct = ssl.swap_loss_given_codes(z_a, z_b, protos, 0.1, q_a, q_b).item()
        assert ssl.swap_loss(z_a, z_b, protos, 0.1, 0.05, 3).item() == direct

    def test_per_sample_loss_at_least_code_entropy(self):
        for seed in range(5):
            _, z_a, z_b, protos = self.make_instance(seed + 20)
            tau = 0.1
            dots_b = z_b.data @ protos.vectors.data.T
            q_b = ssl.sinkhorn_codes(dots_b, 0.05, 3).q
            sa = z_a.data @ protos.vectors.data.T / tau
            logp = sa - np.log(np.exp(sa).sum(axis=1, keepdims=True))
            ce_rows = -(q_b * logp).sum(axis=1)
            ent_rows = -(q_b * np.log(np.clip(q_b, 1e-300, None))).sum(axis=1)
            assert np.all(ce_rows + 1e-10 >= ent_rows)

    def test_batch_permutation_invariance(self):
        rng, z_a, z_b, protos = self.make_instance(4)
        perm = rng.permutation(8)
        base = ssl.swap_loss(z_a, z_b, protos, 0.1, 0.05, 3).item()
        permuted = ssl.swap_loss(Tensor(z_a.data[perm]), Tensor(z_b.data[perm]),
                                 protos, 0.1, 0.05, 3).item()
        assert permuted == pytest.approx(base, rel=1e-10)

    def test_batch_mismatch_raises(self):
        rng = np.random.default_rng(5)
        protos = Prototypes(Tensor(unit_rows(rng, (4, 6))))
        with pytest.raises(ShapeError):
            ssl.swap_loss(Tensor(unit_rows(rng, (8, 6))),
                          Tensor(unit_rows(rng, (7, 6))), protos, 0.1, 0.05, 3)

    def test_gradient_matches_finite_differences_with_codes_fixed(self):
        for seed in range(5):
            rng, z_a, z_b, protos = self.make_instance(seed + 40, b=5, k=3, p=4)
            tau = 0.1
            q_a = random_codes(rng, 5, 3)
            q_b = random_codes(rng, 5, 3)

            loss = ssl.swap_loss_given_codes(z_a, z_b, protos, tau, q_a, q_b)
            ad.backward(loss)

            def f_za(x):
                za = Tensor(x)
                return ssl.swap_loss_given_codes(za, Tensor(z_b.data), protos,
                                                 tau, q_a, q_b).item()

            num = fd_grad(f_za, z_a.data)
            assert max_rel_err(z_a.grad, num) <= 1e-4

            def f_c(cmat):
                pr = Prototypes(Tensor(cmat))
                return ssl.swap_loss_given_codes(Tensor(z_a.data), Tensor(z_b.data),
                                                 pr, tau, q_a, q_b).item()

            num_c = fd_grad(f_c, protos.vectors.data)
            assert max_rel_err(protos.vectors.grad, num_c) <= 1e-4


class TestPrototypeNormalize:
    def test_unit_rows_unchanged_bitwise(self):
        rng = np.random.default_rng(6)
        c = unit_rows(rng, (5, 7))
        protos = Prototypes(Tensor(c.copy()))
        ssl.prototype_normalize(protos)
        ssl.prototype_normalize(protos)
        norms = np.linalg.norm(protos.vectors.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_norm_two_row_is_halved(self):
        protos = Prototypes(Tensor(np.array([[2.0, 0.0, 0.0]])))
        ssl.prototype_normalize(protos)
        np.testing.assert_allclose(protos.vectors.data, [[1.0, 0.0, 0.0]],
                                   rtol=1e-9)

    def test_zero_row_stays_finite(self):
        protos = Prototypes(Tensor(np.zeros((2, 3))))
        ssl.prototype_normalize(protos)
        assert np.all(np.isfinite(protos.vectors.data))
        np.testing.assert_array_equal(protos.vectors.data, np.zeros((2, 3)))

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(7)
        protos = Prototypes(Tensor(rng.normal(size=(6, 4)) * 3.0))
        once = ssl.prototype_normalize(protos).vectors.data.copy()
        twice = ssl.prototype_normalize(protos).vectors.data
        assert np.array_equal(once, twice)
