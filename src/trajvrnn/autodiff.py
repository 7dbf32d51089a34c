"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation eagerly computes a numpy result and, when gradients are
enabled and at least one input requires them, records a backward closure
on the output node. The recorded graph is the tape: `backward` walks it
once in reverse topological order, so each node's closure fires exactly
once and accumulation order is fixed (deterministic, bit-reproducible).

Tensors are capped at 4 axes. Any op that produces a NaN or Inf raises
NumericError immediately rather than letting it propagate.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NumericError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure numpy forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus the bookkeeping for backward."""

    __slots__ = ("data", "requires_grad", "grad", "parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise ShapeError(f"tensors are limited to 4 axes, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A constant view of this tensor's values, cut from the tape."""
        return Tensor(self.data, op="detach")

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # operator sugar; all dispatch to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)


class Parameter(Tensor):
    """A named leaf tensor with a persistent gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True, op="parameter")
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def new_parameter(registry: dict, name: str, shape, rng, fill=None) -> Parameter:
    """Create parameter `name` in `registry`: every entry `fill`, or drawn
    from N(0, 1/fan_in) with `rng`, fan_in being a matrix's first axis."""
    if fill is None:
        fan_in = shape[0] if len(shape) > 1 else 1
        data = rng.normal(0.0, 1.0 / np.sqrt(max(1, fan_in)), size=shape)
    else:
        data = np.full(shape, float(fill))
    registry[name] = param = Parameter(name, data)
    return param


def _check_finite(arr: np.ndarray, op: str, parents) -> None:
    if not np.all(np.isfinite(arr)):
        srcs = ", ".join(p.op for p in parents) or "none"
        raise NumericError(f"non-finite values produced by op '{op}' (inputs from: {srcs})")


def _make(data, op, parents, backward):
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, op, parents)
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents), backward=backward, op=op)
    return Tensor(data, op=op)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad, b.shape))

    return _make(out, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-grad, b.shape))

    return _make(out, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad * a.data, b.shape))

    return _make(out, "mul", (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

    return _make(out, "div", (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, -grad)

    return _make(-a.data, "neg", (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: batch shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            ga = np.matmul(grad, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            if b.ndim == 2 and grad.ndim > 2:
                # shared weight against a batched operand: fold the batch
                # axes into rows instead of summing a batched product
                gb = a.data.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])
                _accumulate(b, gb)
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
                _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out, "matmul", (a, b), backward)


def concat(tensors, axis=-1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}") from None
    ax = axis if axis >= 0 else out.ndim + axis
    sizes = [t.shape[ax] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[ax] = slice(start, stop)
                _accumulate(t, grad[tuple(index)])

    return _make(out, "concat", tuple(ts), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * out)

    return _make(out, "exp", (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad / a.data)

    return _make(out, "log", (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * (a.data > 0.0))

    return _make(out, "relu", (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * (1.0 - out * out))

    return _make(out, "tanh", (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * out * (1.0 - out))

    return _make(out, "sigmoid", (a,), backward)


def maximum_scalar(a, value: float) -> Tensor:
    """Elementwise max(a, value); gradient is zero where the scalar wins."""
    a = as_tensor(a)
    out = np.maximum(a.data, value)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * (a.data > value))

    return _make(out, "maximum_scalar", (a,), backward)


def minimum_scalar(a, value: float) -> Tensor:
    a = as_tensor(a)
    out = np.minimum(a.data, value)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad * (a.data < value))

    return _make(out, "minimum_scalar", (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    return minimum_scalar(maximum_scalar(a, lo), hi)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if a.requires_grad:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(out, "sum", (a,), backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]

    def backward(grad):
        if a.requires_grad:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.shape) / count)

    return _make(out, "mean", (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, grad.reshape(a.shape))

    return _make(out, "reshape", (a,), backward)


def transpose(a, ax1=-2, ax2=-1) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(grad):
        if a.requires_grad:
            _accumulate(a, np.swapaxes(grad, ax1, ax2))

    return _make(out, "transpose", (a,), backward)


def getitem(a, index) -> Tensor:
    """Basic slicing and integer-array gather, with scatter-add backward."""
    a = as_tensor(a)
    out = a.data[index]

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            _accumulate(a, full)

    return _make(out, "getitem", (a,), backward)


def take(a, indices, axis=0) -> Tensor:
    """Gather rows along an axis by an integer index vector."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(a.data, idx, axis=axis)

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            sel = [slice(None)] * a.ndim
            sel[axis] = idx
            np.add.at(full, tuple(sel), grad)
            _accumulate(a, full)

    return _make(out, "take", (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64)  # own a dense copy
    else:
        node.grad += grad  # in place: .grad is always our own buffer


def _topo_order(root: Tensor):
    """Iterative post-order over the tape; parents precede children."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's .grad.

    The root must be a scalar (single element). Interior gradients are
    discarded after use; Parameter leaves keep theirs.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None  # interior grads are transient


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def grad_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` is a zero-argument callable returning a scalar Tensor and must be
    deterministic (freeze any sampling noise before calling). Relative
    error per coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|).
    """
    params = list(params)
    zero_grads(params)
    out = f()
    backward(out)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)
            ana_flat = ana.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                f_plus = f().item()
                flat[i] = saved - h
                f_minus = f().item()
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = ana_flat[i]
                rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                worst = max(worst, rel)
    return worst
