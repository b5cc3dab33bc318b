"""Dense float64 tensors with reverse-mode differentiation.

Every loss in the package is composed from the primitives here. Design
constraints that shape the implementation:

* float64 everywhere, so finite-difference checks stay tight;
* no broadcasting beyond scalar-vs-tensor (plus an explicit row-bias add),
  so shape mistakes fail loudly;
* dropout takes a caller-supplied 0/1 mask, never an internal RNG;
* each recorded tensor points at the node that made it, and each node at
  its inputs, so a graph lives exactly as long as its output is held;
* a graph is single-use: ``backward`` consumes every node it walks.
"""

from __future__ import annotations

import contextlib
import itertools
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "matmul",
    "dense",
    "transpose",
    "add",
    "add_bias",
    "sub",
    "neg",
    "mul",
    "div",
    "relu",
    "log",
    "exp",
    "sigmoid",
    "softmax",
    "l2_normalize",
    "tsum",
    "tmean",
    "concat",
    "tslice",
    "reshape",
    "dropout",
    "clamp",
    "gradient_reversal",
]

NORM_EPS = 1e-12  # added to L2 norms before division


class Tensor:
    """A dense float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: "Node | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: its inputs, a local gradient rule, and a
    creation index; a later node never feeds an earlier one."""

    __slots__ = ("op", "inputs", "grad_fn", "seq")

    def __init__(self, op: str, inputs: tuple[Tensor, ...],
                 grad_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]):
        self.op = op
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.seq = next(_SEQ)


_SEQ = itertools.count()
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            grad_fn) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Node(op, inputs, grad_fn)
    return out


def _graph(root: Node) -> list[Node]:
    """Every node ``root`` depends on, itself included, newest first."""
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.grad_fn is None:
            raise ContractError(
                f"graph already consumed: its {node.op!r} node was walked by "
                f"an earlier backward")
        for t in node.inputs:
            if t.node is not None and t.node not in seen:
                seen.add(t.node)
                stack.append(t.node)
    return sorted(seen, key=attrgetter("seq"), reverse=True)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Visits every node the loss depends on exactly once, newest first, and
    sets ``.grad`` on every reachable leaf (a tensor with ``requires_grad``
    that no recorded op produced). Intermediate gradients are dropped once
    propagated. Each visited node is consumed: its inputs and gradient rule
    are released, so the graph is freed while the caller still holds the
    loss, and a later backward that reaches it raises ContractError.
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ContractError("loss has no recorded ops to differentiate")
    nodes = _graph(loss.node)

    # keyed by the producing node for intermediates, by the tensor for leaves
    grads: dict[object, np.ndarray] = {loss.node: np.ones((), dtype=np.float64)}
    leaves: list[Tensor] = []
    for node in nodes:
        g = grads.pop(node, None)
        if g is not None:
            for t, gi in zip(node.inputs, node.grad_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                key = t if t.node is None else t.node
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = np.asarray(gi, dtype=np.float64)
                    if t.node is None:
                        leaves.append(t)
        node.inputs, node.grad_fn = (), None

    for t in leaves:
        g = np.broadcast_to(grads[t], t.shape).astype(np.float64, copy=False)
        t.grad = np.array(g, copy=True)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def _binary_shapes_ok(op: str, a: Tensor, b: Tensor) -> None:
    # scalar-vs-tensor is the only permitted broadcast
    if a.shape == () or b.shape == ():
        return
    _require_same_shape(op, a, b)


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if shape == ():
        return np.asarray(grad.sum(), dtype=np.float64)
    return grad


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes_ok("add", a, b)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _record("add", (a, b), a.data + b.data, grad_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes_ok("sub", a, b)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _record("sub", (a, b), a.data - b.data, grad_fn)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes_ok("mul", a, b)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return _reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)

    return _record("mul", (a, b), ad * bd, grad_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes_ok("div", a, b)
    ad, bd = a.data, b.data

    def grad_fn(g):
        return _reduce_to(g / bd, a.shape), _reduce_to(-g * ad / (bd * bd), b.shape)

    return _record("div", (a, b), ad / bd, grad_fn)


def add_bias(x, b) -> Tensor:
    """Add a length-d bias row to every row of a B x d matrix."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} do not match")

    def grad_fn(g):
        return g, g.sum(axis=0)

    return _record("add_bias", (x, b), x.data + b.data[None, :], grad_fn)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def grad_fn(g):
        # a constant operand's gradient would only be dropped by backward
        return (g @ bd.T if need_a else None), (ad.T @ g if need_b else None)

    return _record("matmul", (a, b), ad @ bd, grad_fn)


def dense(h, w, b) -> Tensor:
    """relu(h @ w + b) for a B x d_in batch, a d_in x d_out weight and a
    length-d_out bias, recorded as one node. Forward and backward evaluate
    the same NumPy expressions, in the same order, as relu, add_bias and
    matmul recorded one after another."""
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    if (h.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or h.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"dense: shapes {h.shape}, {w.shape} and {b.shape} "
                         f"do not conform")
    hd, wd = h.data, w.data
    need_h, need_w = h.requires_grad, w.requires_grad
    pre = hd @ wd + b.data[None, :]
    mask = pre > 0

    def grad_fn(g):
        g = g * mask
        return ((g @ wd.T if need_h else None), (hd.T @ g if need_w else None),
                g.sum(axis=0))

    return _record("dense", (h, w, b), np.where(mask, pre, 0.0), grad_fn)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return _record("transpose", (a,), a.data.T.copy(), lambda g: (g.T,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _record("relu", (a,), np.where(mask, a.data, 0.0), grad_fn)


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data

    def grad_fn(g):
        return (g / ad,)

    return _record("log", (a,), np.log(ad), grad_fn)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def grad_fn(g):
        return (g * out,)

    return _record("exp", (a,), out, grad_fn)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", (a,), out, grad_fn)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", (a,), out, grad_fn)


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit L2 norm, guarded against zeros.

    The norm gets ``NORM_EPS`` added before division, so a zero slice maps
    to zero instead of NaN and the backward pass stays finite everywhere.
    """
    a = _as_tensor(a)
    ad = a.data
    norm = np.sqrt((ad * ad).sum(axis=axis, keepdims=True)) + NORM_EPS
    out = ad / norm

    def grad_fn(g):
        dot = (g * ad).sum(axis=axis, keepdims=True)
        return (g / norm - ad * (dot / (norm * norm * norm)),)

    return _record("l2_normalize", (a,), out, grad_fn)


def tsum(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    out = a.data.sum() if axis is None else a.data.sum(axis=axis)
    return _record("sum", (a,), out, grad_fn)


def tmean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g / count, axis), shape).copy(),)

    out = a.data.mean() if axis is None else a.data.mean(axis=axis)
    return _record("mean", (a,), out, grad_fn)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise ShapeError("concat: no inputs")
    nd = ts[0].data.ndim
    for t in ts[1:]:
        if t.data.ndim != nd:
            raise ShapeError(
                f"concat: shapes {ts[0].shape} and {t.shape} do not conform")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        slicer = [slice(None)] * nd
        parts = []
        for i in range(len(ts)):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            parts.append(g[tuple(slicer)])
        return tuple(parts)

    return _record("concat", ts, np.concatenate([t.data for t in ts], axis=axis),
                   grad_fn)


def tslice(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(
            f"slice: range [{start}:{stop}] out of bounds for shape {a.shape} "
            f"axis {axis}")
    slicer = [slice(None)] * a.data.ndim
    slicer[axis] = slice(start, stop)
    slicer = tuple(slicer)
    shape = a.shape

    def grad_fn(g):
        full = np.zeros(shape, dtype=np.float64)
        full[slicer] = g
        return (full,)

    return _record("slice", (a,), a.data[slicer].copy(), grad_fn)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def grad_fn(g):
        return (g.reshape(old),)

    try:
        out = a.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"reshape: {old} -> {shape}: {err}") from None
    return _record("reshape", (a,), out.copy(), grad_fn)


def dropout(a, mask: np.ndarray) -> Tensor:
    """Multiply by an externally supplied 0/1 mask of identical shape."""
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} does not match "
                         f"input shape {a.shape}")

    def grad_fn(g):
        return (g * mask,)

    return _record("dropout", (a,), a.data * mask, grad_fn)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only where unclipped."""
    a = _as_tensor(a)
    inside = (a.data > lo) & (a.data < hi)

    def grad_fn(g):
        return (g * inside,)

    return _record("clamp", (a,), np.clip(a.data, lo, hi), grad_fn)


def gradient_reversal(a, lam: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    a = _as_tensor(a)
    lam = float(lam)
    if not np.isfinite(lam):
        raise ContractError(f"gradient_reversal: lambda must be finite, got {lam}")

    def grad_fn(g):
        return (-lam * g,)

    return _record("grad_reverse", (a,), a.data, grad_fn)
