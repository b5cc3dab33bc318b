"""Tensor engine tests: forward values, graph semantics, gradient checks.

Every differentiable op kind is checked against a central finite-difference
oracle over many random seeds and shapes.
"""

import gc
import weakref

import numpy as np
import pytest

from a3 import autodiff as ad
from a3.autodiff import Tensor, backward
from a3.errors import ContractError, ShapeError

from helpers import fd_grad, max_rel_err


class TestForwardValues:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)

    def test_relu_backward_matches_finite_differences(self):
        # upstream [1, 1] on x = [-1, 2]; oracle: fd with h = 1e-6 per coord
        x = np.array([-1.0, 2.0])

        def f(v):
            return float(np.maximum(v, 0.0).sum())

        oracle = fd_grad(f, x.copy(), h=1e-6)
        xt = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.relu(xt)))
        np.testing.assert_allclose(xt.grad, oracle, atol=1e-9)
        np.testing.assert_array_equal(xt.grad, [0.0, 1.0])

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert backward(ad.tsum(ad.mul(x, x))) is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_mean_softmax_matches_fd(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 4))

        def f(wv):
            z = wv @ x
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return float((e / e.sum(axis=1, keepdims=True)).mean())

        oracle = fd_grad(f, w.copy(), h=1e-5)
        wt = Tensor(w, requires_grad=True)
        backward(ad.tmean(ad.softmax(ad.matmul(wt, Tensor(x)), axis=1)))
        assert max_rel_err(wt.grad, oracle) <= 1e-4

    def test_reuse_accumulates_sum_of_per_use_grads(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3))
        x1 = rng.normal(size=(3, 3))
        x2 = rng.normal(size=(3, 3))

        wt = Tensor(w, requires_grad=True)
        loss = ad.tsum(ad.add(ad.matmul(wt, Tensor(x1)), ad.matmul(wt, Tensor(x2))))
        backward(loss)
        both = wt.grad.copy()

        wa = Tensor(w, requires_grad=True)
        backward(ad.tsum(ad.matmul(wa, Tensor(x1))))
        wb = Tensor(w, requires_grad=True)
        backward(ad.tsum(ad.matmul(wb, Tensor(x2))))
        np.testing.assert_allclose(both, wa.grad + wb.grad, atol=1e-12)

    def test_only_leaves_receive_grad(self):
        rng = np.random.default_rng(4)
        w_val = rng.normal(size=(3, 4))
        x_val = rng.normal(size=(4, 2))
        w = Tensor(w_val, requires_grad=True)
        h = ad.relu(ad.matmul(w, Tensor(x_val)))
        loss = ad.tsum(ad.mul(h, h))
        backward(loss)
        assert h.grad is None and loss.grad is None
        hv = np.maximum(w_val @ x_val, 0.0)
        np.testing.assert_allclose(w.grad, (2.0 * hv) @ x_val.T, atol=1e-12)

    def test_matmul_skips_gradient_of_constant_operand(self):
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        g = np.ones((3, 2))
        g_x, g_w = ad.matmul(Tensor(np.ones((3, 4))), w).node.grad_fn(g)
        assert g_x is None
        np.testing.assert_array_equal(g_w, np.full((4, 2), 3.0))
        g_v, g_c = ad.matmul(Tensor(np.ones((3, 4)), requires_grad=True),
                             Tensor(np.ones((4, 2)))).node.grad_fn(g)
        assert g_c is None
        np.testing.assert_array_equal(g_v, np.full((3, 4), 2.0))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ContractError, match="scalar"):
            backward(y)

    def test_tape_is_single_use(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.tsum(x)
        backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(loss)

    def test_graph_freed_without_cycle_collector(self):
        # a step's intermediates die by reference counting alone once the
        # caller drops the loss after backward
        gc.disable()
        try:
            w = Tensor(np.ones((3, 4)), requires_grad=True)
            h = ad.relu(ad.matmul(w, Tensor(np.ones((4, 2)))))
            ref = weakref.ref(h)
            loss = ad.tsum(ad.mul(h, h))
            del h
            backward(loss)
            np.testing.assert_array_equal(w.grad, np.full((3, 4), 16.0))
            del loss
            assert ref() is None
        finally:
            gc.enable()

    def test_branch_order_independence(self):
        # disjoint-parameter branches combined in either order give
        # bitwise-equal gradients
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))

        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        backward(ad.add(ad.tsum(ad.relu(at)), ad.tmean(ad.mul(bt, bt))))
        ga1, gb1 = at.grad.copy(), bt.grad.copy()

        at2, bt2 = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        right = ad.tmean(ad.mul(bt2, bt2))
        left = ad.tsum(ad.relu(at2))
        backward(ad.add(left, right))
        assert np.array_equal(ga1, at2.grad)
        assert np.array_equal(gb1, bt2.grad)


def _reference_dense(h, w, b):
    return ad.relu(ad.add_bias(ad.matmul(h, w), b))


class TestDense:
    """The fused layer equals relu, add_bias and matmul recorded one after
    another, bit for bit, in its output and in every gradient."""

    @pytest.mark.parametrize("h_grad", [True, False])
    def test_equals_unfused_composition(self, h_grad):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=(6, 5)), rng.normal(size=(5, 3)),
                  rng.normal(size=3), rng.normal(size=(6, 3))]
        results = []
        for layer in (ad.dense, _reference_dense):
            h = Tensor(arrays[0], requires_grad=h_grad)
            w = Tensor(arrays[1], requires_grad=True)
            b = Tensor(arrays[2], requires_grad=True)
            out = layer(h, w, b)
            backward(ad.tsum(ad.mul(out, Tensor(arrays[3]))))
            results.append((out.data, h.grad, w.grad, b.grad))
        fused, ref = results
        assert 0 < np.count_nonzero(fused[0]) < fused[0].size
        assert (fused[1] is None) == (not h_grad)
        for got, want in zip(fused, ref):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_shared_weight_accumulates_like_unfused(self):
        # one weight feeds three layer nodes, two of them chained
        rng = np.random.default_rng(22)
        x1, x2 = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        w, b = rng.normal(size=(4, 4)), rng.normal(size=4)
        upstream = rng.normal(size=(7, 4))
        results = []
        for layer in (ad.dense, _reference_dense):
            t1 = Tensor(x1, requires_grad=True)
            t2 = Tensor(x2, requires_grad=True)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            out = ad.add(layer(layer(t1, wt, bt), wt, bt), layer(t2, wt, bt))
            backward(ad.tsum(ad.mul(out, Tensor(upstream))))
            results.append((out.data, t1.grad, t2.grad, wt.grad, bt.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_records_one_node(self):
        out = ad.dense(Tensor(np.ones((2, 3))),
                       Tensor(np.ones((3, 4)), requires_grad=True),
                       Tensor(np.zeros(4)))
        assert out.node.op == "dense"
        assert all(t.node is None for t in out.node.inputs)

    @pytest.mark.parametrize("h,w,b", [
        ((2, 3), (4, 5), (5,)),
        ((2, 3), (3, 5), (4,)),
        ((3,), (3, 5), (5,)),
        ((2, 3), (3,), (3,)),
        ((2, 3), (3, 5), (1, 5)),
    ], ids=["inner", "bias", "h_1d", "w_1d", "b_2d"])
    def test_bad_shapes_rejected(self, h, w, b):
        with pytest.raises(ShapeError, match="dense"):
            ad.dense(Tensor(np.zeros(h)), Tensor(np.zeros(w)),
                     Tensor(np.zeros(b)))


class TestGradientReversal:
    def test_forward_is_bitwise_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        out = ad.gradient_reversal(Tensor(x, requires_grad=True), lam=0.7)
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("lam", [1.0, 0.5, 2.5])
    def test_backward_scales_by_minus_lambda(self, lam):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5,))
        xt = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.gradient_reversal(xt, lam=lam)))
        np.testing.assert_array_equal(xt.grad, -lam * np.ones(5))

    def test_lambda_zero_blocks_gradient(self):
        xt = Tensor(np.ones(4), requires_grad=True)
        backward(ad.tsum(ad.gradient_reversal(xt, lam=0.0)))
        np.testing.assert_array_equal(xt.grad, np.zeros(4))

    def test_matches_negated_identity_backward(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))

        xt = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.matmul(ad.gradient_reversal(xt, lam=1.0), Tensor(w))))
        g_rev = xt.grad.copy()

        xt2 = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.matmul(xt2, Tensor(w))))
        np.testing.assert_array_equal(g_rev, -xt2.grad)


def _random_inputs(kind, rng):
    """Draw a random test case for one op kind; returns (fn_of_arrays, arrays)."""
    m, n = rng.integers(2, 9), rng.integers(2, 9)
    if kind == "matmul":
        k = rng.integers(2, 9)
        return lambda a, b: a @ b, [rng.normal(size=(m, k)), rng.normal(size=(k, n))]
    if kind == "transpose":
        return lambda a: a.T, [rng.normal(size=(m, n))]
    if kind == "dense":
        k = rng.integers(2, 9)
        while True:  # keep every pre-activation away from the kink at 0
            h, w, b = (rng.normal(size=(m, k)), rng.normal(size=(k, n)),
                       rng.normal(size=n))
            if np.min(np.abs(h @ w + b)) > 0.1:
                return lambda h, w, b: np.maximum(h @ w + b, 0.0), [h, w, b]
    if kind in ("add", "sub", "mul"):
        f = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[kind]
        return f, [rng.normal(size=(m, n)), rng.normal(size=(m, n))]
    if kind == "div":
        return np.divide, [rng.normal(size=(m, n)),
                           rng.uniform(0.5, 2.0, size=(m, n))]
    if kind == "add_bias":
        return lambda a, b: a + b[None, :], [rng.normal(size=(m, n)),
                                             rng.normal(size=(n,))]
    if kind == "neg":
        return np.negative, [rng.normal(size=(m, n))]
    if kind == "relu":
        # keep away from the kink at 0
        x = rng.normal(size=(m, n))
        x[np.abs(x) < 1e-2] += 0.1
        return lambda a: np.maximum(a, 0.0), [x]
    if kind == "log":
        return np.log, [rng.uniform(0.2, 3.0, size=(m, n))]
    if kind == "exp":
        return np.exp, [rng.normal(size=(m, n))]
    if kind == "sigmoid":
        return lambda a: 1.0 / (1.0 + np.exp(-a)), [rng.normal(size=(m, n))]
    if kind == "softmax":
        def f(a):
            e = np.exp(a - a.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)
        return f, [rng.normal(size=(m, n))]
    if kind == "l2_normalize":
        x = rng.normal(size=(m, n)) + 0.5
        return lambda a: a / (np.linalg.norm(a, axis=1, keepdims=True) + 1e-12), [x]
    if kind == "mean":
        return lambda a: np.mean(a, axis=0), [rng.normal(size=(m, n))]
    if kind == "sum":
        return lambda a: np.sum(a, axis=1), [rng.normal(size=(m, n))]
    if kind == "concat":
        return lambda a, b: np.concatenate([a, b], axis=0), [
            rng.normal(size=(m, n)), rng.normal(size=(m, n))]
    if kind == "slice":
        return lambda a: a[:, 1:n], [rng.normal(size=(m, n))]
    if kind == "reshape":
        return lambda a: a.reshape(n, m), [rng.normal(size=(m, n))]
    if kind == "clamp":
        x = rng.normal(size=(m, n)) * 2
        x[np.abs(np.abs(x) - 1.5) < 1e-2] += 0.1  # keep away from the clip edges
        return lambda a: np.clip(a, -1.5, 1.5), [x]
    raise AssertionError(kind)


_AD_CALLS = {
    "matmul": lambda ts: ad.matmul(*ts),
    "transpose": lambda ts: ad.transpose(*ts),
    "dense": lambda ts: ad.dense(*ts),
    "add": lambda ts: ad.add(*ts),
    "sub": lambda ts: ad.sub(*ts),
    "mul": lambda ts: ad.mul(*ts),
    "div": lambda ts: ad.div(*ts),
    "add_bias": lambda ts: ad.add_bias(*ts),
    "neg": lambda ts: ad.neg(*ts),
    "relu": lambda ts: ad.relu(*ts),
    "log": lambda ts: ad.log(*ts),
    "exp": lambda ts: ad.exp(*ts),
    "sigmoid": lambda ts: ad.sigmoid(*ts),
    "softmax": lambda ts: ad.softmax(*ts, axis=1),
    "l2_normalize": lambda ts: ad.l2_normalize(*ts, axis=1),
    "mean": lambda ts: ad.tmean(*ts, axis=0),
    "sum": lambda ts: ad.tsum(*ts, axis=1),
    "concat": lambda ts: ad.concat(ts, axis=0),
    "slice": lambda ts: ad.tslice(ts[0], 1, 1, ts[0].shape[1]),
    "reshape": lambda ts: ad.reshape(ts[0], ts[0].shape[::-1]),
    "clamp": lambda ts: ad.clamp(ts[0], -1.5, 1.5),
}


class TestGradientChecks:
    """Randomized finite-difference checks for every differentiable op kind."""

    @pytest.mark.parametrize("kind", sorted(_AD_CALLS))
    def test_op_gradient_matches_fd(self, kind):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            np_fn, arrays = _random_inputs(kind, rng)
            weights = rng.normal(size=np.asarray(np_fn(*arrays)).shape)

            for argi in range(len(arrays)):
                def scalar_of(x):
                    args = [a for a in arrays]
                    args[argi] = x
                    return float((np_fn(*args) * weights).sum())

                oracle = fd_grad(scalar_of, arrays[argi].copy(), h=1e-5)
                tensors = [Tensor(a, requires_grad=(i == argi))
                           for i, a in enumerate(arrays)]
                out = _AD_CALLS[kind](tensors)
                backward(ad.tsum(ad.mul(out, Tensor(weights))))
                err = max_rel_err(tensors[argi].grad, oracle)
                assert err <= 1e-4, f"{kind} arg{argi} seed {seed}: rel err {err}"

    def test_dropout_gradient_is_masked(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 4))
        mask = (rng.random((5, 4)) > 0.4).astype(np.float64)
        xt = Tensor(x, requires_grad=True)
        backward(ad.tsum(ad.dropout(xt, mask)))
        np.testing.assert_array_equal(xt.grad, mask)

    def test_dropout_mask_shape_checked(self):
        with pytest.raises(ShapeError, match="dropout"):
            ad.dropout(Tensor(np.zeros((2, 3))), np.ones((3, 2)))


class TestTapeIsolation:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
        assert y.node is None and not y.requires_grad

    def test_inner_backward_preserves_outer_graph(self):
        # an inner forward/backward (VAT's power iteration) runs while an
        # outer graph over the same leaf is pending
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        outer = ad.mul(x, x)
        z = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        backward(ad.tsum(ad.mul(z, ad.add(z, x))))
        np.testing.assert_array_equal(z.grad, [4.0, 5.0])
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        backward(ad.tsum(outer))
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])

    def test_abandoned_forward_is_freed_without_backward(self):
        # nothing outside the output holds a graph, so dropping it frees
        # every intermediate by reference counting alone
        gc.disable()
        try:
            x = Tensor(np.ones((2, 4)))
            w = Tensor(np.ones((4, 3)), requires_grad=True)
            h = ad.matmul(x, w)
            ref = weakref.ref(h)
            out = ad.relu(h)
            del h
            assert ref() is not None
            del out
            assert ref() is None
        finally:
            gc.enable()

    def test_second_loss_over_consumed_graph_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = ad.mul(x, x)
        backward(ad.tsum(h))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(ContractError, match="consumed"):
            backward(ad.tsum(ad.mul(h, 3.0)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
