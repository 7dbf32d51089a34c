"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op eagerly computes a numpy result and, when gradients are enabled
and an input requires them, records a backward function on the output
node; an elementwise op is a forward plus one vector-Jacobian product
per input (`_pointwise`). The recorded graph is the tape: `backward`
walks it once in reverse topological order, so each node's backward
fires exactly once and accumulation order is fixed (bit-reproducible).

- Fold: a `(..., K) @ (K, H)` matmul, a batched left operand against a
  2-D right one, runs as one 2-D GEMM over the rows of the batch axes,
  forward and for both gradients. A batched right operand keeps
  `np.matmul`.
- Ownership: the first gradient to reach a node is stored as is when the
  op has just made it (a GEMM product, a scatter, a vjp result) and
  copied when it is a view, a broadcast or an array passed through to
  several parents, so a later in-place `+=` never writes into another
  node's gradient.
- Fused cell: `gru` records a whole gated recurrent cell as one node with
  a hand-written backward of 2-D GEMMs; of its intermediates it keeps
  only the gate values, r * h and the candidate.
- Linear: `linear` records an affine map over concatenated inputs,
  `concat(inputs, -1) @ w + b`, as one node that keeps nothing but its
  parents: neither the concatenation nor the product before the bias
  stays on the tape.

Tensors are capped at 4 axes. Any op that produces a NaN or Inf raises
NumericError immediately rather than letting it propagate.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

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


def new_parameter(registry: dict, name: str, shape, rng, fill=None, load=None) -> Parameter:
    """Create parameter `name` in `registry`: `load(name, shape)` when
    restoring, else every entry `fill`, or drawn from N(0, 1/fan_in) with
    `rng`, fan_in being a matrix's first axis."""
    if load is not None:
        data = load(name, shape)
    elif fill is None:
        fan_in = shape[0] if len(shape) > 1 else 1
        data = rng.normal(0.0, 1.0 / np.sqrt(max(1, fan_in)), size=shape)
    else:
        data = np.full(shape, float(fill))
    registry[name] = param = Parameter(name, data)
    return param


def _make(data, op, parents, backward):
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        srcs = ", ".join(p.op for p in parents) or "none"
        raise NumericError(f"non-finite values produced by op '{op}' (inputs from: {srcs})")
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


def _pointwise(op, forward, vjps, *inputs) -> Tensor:
    """Record elementwise op `op`: `forward(*arrays)` computes the output
    and `vjps[i](grad, out, *arrays)` the gradient of input i (None: the
    gradient itself), which is then summed back to that input's shape.
    Inputs beyond the last vjp are constants (a clamp's bound), passed to
    `forward` and the vjps as given and kept off the tape."""
    n = len(vjps)
    parents, consts = tuple(map(as_tensor, inputs[:n])), inputs[n:]
    try:
        out = forward(*[t.data for t in parents], *consts)
    except ValueError:
        shapes = " and ".join(str(t.shape) for t in parents)
        raise ShapeError(f"{op}: shapes {shapes} do not broadcast") from None
    # a partial of module-level functions, not a closure: fewer objects
    # per node for the cyclic GC to scan while the tape grows
    return _make(out, op, parents, partial(_pointwise_backward, vjps, parents, consts, out))


def _pointwise_backward(vjps, parents, consts, out, grad):
    arrays = [t.data for t in parents]
    for t, vjp in zip(parents, vjps):
        if t.requires_grad:
            g = grad if vjp is None else vjp(grad, out, *arrays, *consts)
            if g.shape != t.shape:
                g = _unbroadcast(g, t.shape)
            _accumulate(t, g, owned=g is not grad)


# numpy warnings off for these forwards; _make rejects non-finite results
_divide = np.errstate(divide="ignore", invalid="ignore")(np.divide)
_log = np.errstate(divide="ignore", invalid="ignore")(np.log)
_exp = np.errstate(over="ignore")(np.exp)


@np.errstate(over="ignore")  # exp(-a) -> inf for a << 0 gives a finite 0.0
def _sigmoid(a, out=None):
    """1 / (1 + exp(-a)), computed in `out` when given (which may be `a`)."""
    out = np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _negate(grad, out, a, b):
    return -grad


def _times_b(grad, out, a, b):
    return grad * b


def _times_a(grad, out, a, b):
    return grad * a


def _over_b(grad, out, a, b):
    return grad / b


def _div_b(grad, out, a, b):
    return -grad * a / (b * b)


def _times_out(grad, out, a):
    return grad * out


def _over_a(grad, out, a):
    return grad / a


def _tanh_vjp(grad, out, a):
    return grad * (1.0 - out * out)


def _sigmoid_vjp(grad, out, a):
    return grad * out * (1.0 - out)


def _above(grad, out, a, value):
    return grad * (a > value)


def _below(grad, out, a, value):
    return grad * (a < value)


def _clip(a, lo, hi):
    return np.minimum(np.maximum(a, lo), hi)


def _inside(grad, out, a, lo, hi):
    return grad * ((a > lo) & (a < hi))


def add(a, b) -> Tensor:
    return _pointwise("add", np.add, (None, None), a, b)


def sub(a, b) -> Tensor:
    return _pointwise("sub", np.subtract, (None, _negate), a, b)


def mul(a, b) -> Tensor:
    return _pointwise("mul", np.multiply, (_times_b, _times_a), a, b)


def div(a, b) -> Tensor:
    return _pointwise("div", _divide, (_over_b, _div_b), a, b)


def exp(a) -> Tensor:
    return _pointwise("exp", _exp, (_times_out,), a)


def log(a) -> Tensor:
    return _pointwise("log", _log, (_over_a,), a)


def relu(a) -> Tensor:
    return _pointwise("relu", np.maximum, (_above,), a, 0.0)


def tanh(a) -> Tensor:
    return _pointwise("tanh", np.tanh, (_tanh_vjp,), a)


def sigmoid(a) -> Tensor:
    return _pointwise("sigmoid", _sigmoid, (_sigmoid_vjp,), a)


def maximum_scalar(a, value: float) -> Tensor:
    """Elementwise max(a, value); gradient is zero where the scalar wins."""
    return _pointwise("maximum_scalar", np.maximum, (_above,), a, value)


def minimum_scalar(a, value: float) -> Tensor:
    return _pointwise("minimum_scalar", np.minimum, (_below,), a, value)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Elementwise min(max(a, lo), hi); gradient is zero where a bound wins."""
    return _pointwise("clamp", _clip, (_inside,), a, lo, hi)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes. A shared 2-D right operand
    against a batched left one folds the batch axes into rows: one 2-D
    GEMM forward and one per gradient."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    fold = b.ndim == 2 and a.ndim > 2
    if fold:
        out = (a.data.reshape(-1, b.shape[0]) @ b.data).reshape(*a.shape[:-1], b.shape[1])
    else:
        try:
            out = np.matmul(a.data, b.data)
        except ValueError:
            raise ShapeError(f"matmul: batch shapes {a.shape} and {b.shape} "
                             "do not broadcast") from None

    def backward(grad):
        rows = grad.reshape(-1, grad.shape[-1]) if fold else None
        if a.requires_grad:
            if fold:
                ga = (rows @ b.data.T).reshape(a.shape)
            else:
                ga = _unbroadcast(np.matmul(grad, np.swapaxes(b.data, -1, -2)), a.shape)
            _accumulate(a, ga, owned=True)
        if b.requires_grad:
            if fold:
                gb = a.data.reshape(-1, a.shape[-1]).T @ rows
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), grad), b.shape)
            _accumulate(b, gb, owned=True)

    return _make(out, "matmul", (a, b), backward)


def gru(x, h, wz, bz, wr, br, wh, bh) -> Tensor:
    """Gated recurrent cell recorded as one tape node with op "gru":

        z = sigmoid([x, h] @ wz + bz)      r = sigmoid([x, h] @ wr + br)
        c = tanh([x, r * h] @ wh + bh)     out = (1 - z) * h + z * c

    x is (..., X) and h (..., H) with the same leading axes; the weights
    are (X + H, H) and the biases (H,). The forward runs the 2-D GEMMs and
    elementwise steps of that composition of primitives, so its values are
    bit-identical to it, with bias, sigmoid and tanh applied in place. The
    node keeps z|r, r * h and c for backward; x and h are its parents."""
    parents = tuple(map(as_tensor, (x, h, wz, bz, wr, br, wh, bh)))
    x, h, wz, bz, wr, br, wh, bh = (t.data for t in parents)
    n_x, n_h = x.shape[-1], h.shape[-1]
    if (x.shape[:-1] != h.shape[:-1]
            or any(w.shape != (n_x + n_h, n_h) for w in (wz, wr, wh))
            or any(b.shape != (n_h,) for b in (bz, br, bh))):
        raise ShapeError(f"gru: x {x.shape} and h {h.shape} do not fit gate weights "
                         f"{wz.shape}, {wr.shape}, {wh.shape} and biases "
                         f"{bz.shape}, {br.shape}, {bh.shape}")
    xs, hs = x.reshape(-1, n_x), h.reshape(-1, n_h)
    xh = np.concatenate([xs, hs], axis=1)
    zr = np.empty((2, len(hs), n_h))
    np.matmul(xh, wz, out=zr[0])
    zr[0] += bz
    np.matmul(xh, wr, out=zr[1])
    zr[1] += br
    del xh  # freed before the second concat: it sets the no-grad peak
    z, r = _sigmoid(zr, out=zr)
    rh = r * hs
    cand = np.concatenate([xs, rh], axis=1) @ wh
    cand += bh
    np.tanh(cand, out=cand)
    out = 1.0 - z
    out *= hs
    out += z * cand
    return _make(out.reshape(h.shape), "gru", parents,
                 partial(_gru_backward, parents, zr, rh, cand))


def _gru_backward(parents, zr, rh, cand, grad):
    x, h, wz, bz, wr, br, wh, bh = parents
    xs, hs = x.data.reshape(-1, x.shape[-1]), h.data.reshape(-1, h.shape[-1])
    n_x = xs.shape[1]
    g = grad.reshape(cand.shape)
    z, r = zr
    dc = g * z  # through out = (1 - z) * h + z * c, then c = tanh(.)
    dc *= 1.0 - cand * cand
    dz = g * cand
    dz -= g * hs
    dz *= z  # through z = sigmoid(.)
    dz *= 1.0 - z
    dxrh = dc @ wh.data.T
    dr = dxrh[:, n_x:] * hs  # through r * h, then r = sigmoid(.)
    dr *= r
    dr *= 1.0 - r
    dxh = dz @ wz.data.T
    dxh += dr @ wr.data.T
    for w, b, d, below in ((wz, bz, dz, hs), (wr, br, dr, hs), (wh, bh, dc, rh)):
        if w.requires_grad:
            _accumulate(w, _stacked_t_at((xs, below), d), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(d.reshape(grad.shape), b.shape), owned=True)
    if x.requires_grad:
        _accumulate(x, (dxh[:, :n_x] + dxrh[:, :n_x]).reshape(x.shape), owned=True)
    if h.requires_grad:
        dh = g * (1.0 - z)
        dh += dxrh[:, n_x:] * r
        dh += dxh[:, n_x:]
        _accumulate(h, dh.reshape(h.shape), owned=True)


def _stacked_t_at(blocks, d):
    """[b_1, ..., b_k].T @ d, where the operand is the column concatenation
    of k row blocks: a weight gradient that skips building it."""
    out = np.empty((sum(block.shape[1] for block in blocks), d.shape[1]))
    start = 0
    for block in blocks:
        np.matmul(block.T, d, out=out[start:start + block.shape[1]])
        start += block.shape[1]
    return out


def linear(inputs, w, b) -> Tensor:
    """Affine map `concat(inputs, -1) @ w + b` recorded as one tape node
    with op "linear".

    The inputs share their leading axes, their widths add up to w's rows,
    and b is (w's columns,). The forward concatenates the inputs' rows
    into a temporary 2-D buffer, runs one 2-D GEMM and adds the bias in
    place, so its values are bit-identical to the composition of concat,
    matmul and add. The node keeps only its parents: backward takes the
    weight gradient block by block and input k's gradient from w's rows
    for that input."""
    parents = (*map(as_tensor, inputs), as_tensor(w), as_tensor(b))
    xs, (w, b) = parents[:-2], (t.data for t in parents[-2:])
    lead = xs[0].shape[:-1] if xs else None
    if (not xs or any(x.ndim == 0 or x.shape[:-1] != lead for x in xs)
            or w.ndim != 2 or sum(x.shape[-1] for x in xs) != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"linear: inputs {[x.shape for x in xs]} do not fit "
                         f"weight {w.shape} and bias {b.shape}")
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    out = (rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)) @ w
    out += b
    return _make(out.reshape(*lead, w.shape[1]), "linear", parents,
                 partial(_linear_backward, parents))


def _linear_backward(parents, grad):
    *xs, w, b = parents
    g = grad.reshape(-1, grad.shape[-1])
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    if w.requires_grad:
        _accumulate(w, _stacked_t_at(rows, g), owned=True)
    if b.requires_grad:
        gb = _unbroadcast(grad, b.shape)
        _accumulate(b, gb, owned=gb is not grad)
    start = 0
    for x, r in zip(xs, rows):
        stop = start + r.shape[1]
        if x.requires_grad:
            _accumulate(x, (g @ w.data[start:stop].T).reshape(x.shape), owned=True)
        start = stop


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
            _accumulate(a, np.broadcast_to(g, a.shape) / count, owned=True)

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
            _accumulate(a, full, owned=True)

    return _make(out, "getitem", (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(node: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add `grad` into `node.grad`. The first gradient is stored as is when
    `owned` (the op has just made it and nothing else refers to it), else
    copied: a view, a broadcast or an array sent to two parents must not
    become a buffer that a later `+=` writes through."""
    if node.grad is None:
        node.grad = np.asarray(grad) if owned else np.array(grad, dtype=np.float64)
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


def grad_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` is a zero-argument callable returning a scalar Tensor and must be
    deterministic (freeze any sampling noise before calling). Relative
    error per coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
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
