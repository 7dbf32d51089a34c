"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op eagerly computes a numpy result and, when gradients are enabled
and an input requires them, records a backward function on the output
node; an elementwise op is a forward plus one vector-Jacobian product
per input (`_pointwise`). The recorded graph is the tape. Its ten ops
are `add`, `mul`, `matmul`, `getitem`, `reshape`, `transpose`, `tmean`
and the fused `linear`, `gru` and `weighted_sum`; each model term (the
decay, the latent draw, the NLL, the KL) is one `_make` node in
`trajvrnn.model`. Each tensor gets a sequence number when it is made,
after its parents, so creation order is a topological order: `backward`
fires the nodes the root reaches in reverse creation order, each once
(bit-reproducible). On an unrolled recurrence that is step-by-step BPTT
order, so about one step's gradients wait at a time.

- Fold: every product of an activation with a weight matrix is a
  `linear` node, `concat(inputs, -1) @ w (+ b)` with an optional tanh,
  relu or clip epilogue, which runs as one 2-D GEMM over the rows of the
  batch axes, forward and for both gradients. It keeps nothing but its
  parents and its own output, from which backward reads the epilogue's
  derivative (as In-Place Activated BatchNorm, arXiv:1712.02616).
  `weighted_sum` fuses the graph branches in one node. `matmul` is left
  with products of node features and a non-weight array (the learned
  adjacency, a visibility selector) and is one `np.matmul` path.
- Ownership: the first gradient to reach a node is stored as is when the
  op has just made it (a GEMM product, a scatter, a vjp result) and
  copied when it is a view, a broadcast or an array passed through to
  several parents, so a later in-place `+=` never writes into another
  node's gradient.
- Fused cell: `gru` records a whole gated recurrent cell as one node with
  a hand-written backward of 2-D GEMMs; like `linear` it takes its inputs
  as a list of blocks, and it takes an optional decay that it applies to
  h itself. Of its intermediates it keeps only the gate values and the
  candidate: backward recomputes the decayed h and r * h.
- Rows on every CPU: `gru` and `linear` fill their outputs by
  `_split_rows`, one row block per free CPU once an op carries enough
  multiply-adds, block 0 on the caller and the rest on worker threads,
  each block running the affine kernel `_affine_rows`. Workers touch only
  numpy arrays, so the tape stays on the calling thread, and every value
  and gradient is bit-identical to one thread.
- Weight gradients on their own stream (the B/W split of Zero Bubble,
  arXiv:2401.10241): a backward queues each large weight-gradient GEMM of
  a Parameter, with its `+=` into `.grad`, and goes on. Terms run in queue
  order; an inline write into a `.grad` waits for its last term; the
  caller waits for the oldest at `_STREAM_DEPTH` queued; `backward` joins
  the stream once, before it returns or raises.

Tensors are capped at 4 axes. Any op that produces a NaN or Inf raises
NumericError immediately rather than letting it propagate.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import copy_context
from functools import partial
from itertools import count
from operator import attrgetter

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_grad_enabled = True
_creation = count()  # each tensor's sequence number; see `backward`

# Least multiply-adds a row block carries, so an op spreads from twice
# this; every desk-shape op (the H=64 GRU: 3 x 256 x 96 x 64 = 4.7e6)
# must stay one block. Set by sweeps on a 2-vCPU Xeon, as are the next two.
_BLOCK_MACS = 5e6
# Least multiply-adds of a weight gradient that goes on the stream; the
# desk DL layer's and past embedding's 2.6e6 (10240 x 16 x 16) stay inline.
_STREAM_MACS = 3e6
_STREAM_DEPTH = 16  # most terms queued, each holding arrays (1.3 MB at H=256)
# OpenBLAS's dgemm (0.3.31, AVX-512) sums a partial tile of the last 8
# output columns in an order that depends on where the row range ends, so
# only widths of whole 8-column tiles are split.
_TILE_COLS = 8
_POOL = None  # made on first use; see `_pool`
_STREAM = []  # the terms this backward queued, oldest first; see `_weight_grad`
_QUEUED = {}  # Parameter -> its last queued term


def _free_cpus() -> int:
    """CPUs the row blocks may use: those the process may run on, over the
    threads each BLAS call takes. OpenBLAS reads the first of these
    variables that is set when it loads, else takes every CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "")
        if threads.isdigit() and int(threads) > 0:
            return max(1, (cpus or 1) // int(threads))
    return 1


_CPUS = _free_cpus()


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
    """A dense float64 array plus the bookkeeping for backward: `seq`
    numbers tensors in creation order."""

    __slots__ = ("data", "requires_grad", "grad", "parents", "_backward", "op", "seq")

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
        self.seq = next(_creation)

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

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

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


def _check_finite(data, op, parents):
    if not np.all(np.isfinite(data)):
        srcs = ", ".join(p.op for p in parents) or "none"
        raise NumericError(f"non-finite values produced by op '{op}' (inputs from: {srcs})")


def _make(data, op, parents, backward, checked=False):
    """The op's output tensor, on the tape when it needs a gradient;
    `checked`: the op ran `_check_finite` itself."""
    data = np.asarray(data, dtype=np.float64)
    if not checked:
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


def _pool():
    """The worker threads, one per CPU besides the caller's, made (and
    their module loaded) only when an op first hands one work."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max(1, _CPUS - 1), thread_name_prefix="trajvrnn-rows")
    return _POOL


def _drop_pool():
    global _POOL
    _POOL = None  # a forked child has none of the parent's threads
    _STREAM.clear()
    _QUEUED.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _submit(fn, *args):
    # in a copy of the caller's context, so numpy's error state carries over
    return _pool().submit(copy_context().run, fn, *args)


def _row_blocks(m, cols, macs):
    """Bounds of the row blocks, one per CPU, that an op over m rows with
    outputs `cols` wide and `macs` multiply-adds runs as; one block for
    few multiply-adds, on one CPU, for widths that are not whole tiles,
    or below 2 rows a block (numpy sends a one-row product to gemv, which
    sums in another order)."""
    n = min(_CPUS, m // 2, int(macs // _BLOCK_MACS)) if cols % _TILE_COLS == 0 else 1
    return [m * i // n for i in range(n + 1)] if n > 1 else [0, m]


def _split_rows(bounds, part):
    """Run `part(lo, hi)` over the row blocks, block 0 on the caller and
    the rest on workers; join every block, then raise the first block's
    exception in block order."""
    if len(bounds) == 2:
        return part(0, bounds[1])
    futures = [_submit(part, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        part(0, bounds[1])
    finally:
        for future in futures:
            future.exception()  # waits for the block, raising nothing
    for future in futures:
        future.result()


def _weight_grad(w, macs, fn, *args):
    """Add the weight gradient fn(*args), a GEMM of `macs` multiply-adds,
    into w.grad: queued behind the stream's last term for a Parameter w
    when a CPU is free and macs reach _STREAM_MACS, else now."""
    if not w.requires_grad:
        return
    if _CPUS < 2 or macs < _STREAM_MACS or not isinstance(w, Parameter) or w.grad is None:
        _accumulate(w, fn(*args), owned=True)
        return
    if len(_STREAM) >= _STREAM_DEPTH:
        _STREAM[-_STREAM_DEPTH].exception()  # the oldest still held; waits, raising nothing
    _QUEUED[w] = term = _submit(_add_term, _STREAM[-1] if _STREAM else None, w, fn, args)
    _STREAM.append(term)


def _add_term(prev, w, fn, args):
    if prev is not None:
        prev.exception()  # in queue order on a pool of any width
    w.grad += fn(*args)


# ---------------------------------------------------------------------------
# primitive ops


def _pointwise(op, forward, vjps, *inputs) -> Tensor:
    """Record elementwise op `op`: `forward(*arrays)` computes the output
    and `vjps[i](grad, out, *arrays)` the gradient of input i (None: the
    gradient itself), which is then summed back to that input's shape."""
    parents = tuple(map(as_tensor, inputs))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # _make rejects non-finite
            out = forward(*[t.data for t in parents])
    except ValueError:
        shapes = " and ".join(str(t.shape) for t in parents)
        raise ShapeError(f"{op}: shapes {shapes} do not broadcast") from None
    # a partial of module-level functions, not a closure: fewer objects
    # per node for the cyclic GC to scan while the tape grows
    return _make(out, op, parents, partial(_pointwise_backward, vjps, parents, out))


def _pointwise_backward(vjps, parents, out, grad):
    arrays = [t.data for t in parents]
    for t, vjp in zip(parents, vjps):
        if t.requires_grad:
            g = grad if vjp is None else vjp(grad, out, *arrays)
            if g.shape != t.shape:
                g = _unbroadcast(g, t.shape)
            _accumulate(t, g, owned=g is not grad)


# numpy warnings off for this forward; _make rejects non-finite results
_matmul = np.errstate(over="ignore", invalid="ignore")(np.matmul)


@np.errstate(over="ignore")  # exp(-a) -> inf for a << 0 gives a finite 0.0
def _sigmoid(a, out=None):
    """1 / (1 + exp(-a)), computed in `out` when given (which may be `a`)."""
    out = np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _times_b(grad, out, a, b):
    return grad * b


def _times_a(grad, out, a, b):
    return grad * a


def add(a, b) -> Tensor:
    return _pointwise("add", np.add, (None, None), a, b)


def mul(a, b) -> Tensor:
    return _pointwise("mul", np.multiply, (_times_b, _times_a), a, b)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, batch axes broadcast. For
    products of two activations; a weight matrix goes through `linear`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    try:
        out = _matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: batch shapes {a.shape} and {b.shape} "
                         "do not broadcast") from None

    def backward(grad):
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(grad, np.swapaxes(b.data, -1, -2)), a.shape)
            _accumulate(a, ga, owned=True)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), grad), b.shape)
            _accumulate(b, gb, owned=True)

    return _make(out, "matmul", (a, b), backward)


def gru(inputs, h, wz, bz, wr, br, wh, bh, decay=None) -> Tensor:
    """Gated recurrent cell over x = concat(inputs, -1), one tape node "gru":

        z = sigmoid([x, h] @ wz + bz)      r = sigmoid([x, h] @ wr + br)
        c = tanh([x, r * h] @ wh + bh)     out = (1 - z) * h + z * c

    The input blocks and h (..., H) share their leading axes; the weights
    are (X + H, H) and the biases (H,). With `decay` (broadcasting to h's
    shape, such as (..., 1)) the cell runs on h * decay in place of h, and
    decay is a parent whose gradient sums d(h * decay) * h over the
    broadcast axes. Its values are bit-identical to that formula composed
    of primitives. The node keeps z|r and c; backward recomputes h * decay
    and r * h."""
    xs = tuple(map(as_tensor, inputs))
    cell = tuple(map(as_tensor, (h, wz, bz, wr, br, wh, bh)))
    decay = None if decay is None else as_tensor(decay)
    h, wz, bz, wr, br, wh, bh = (t.data for t in cell)
    n_x = sum(x.shape[-1] for x in xs if x.ndim)
    n_h = h.shape[-1] if h.ndim else 0
    if (not xs or h.ndim == 0 or any(x.ndim == 0 or x.shape[:-1] != h.shape[:-1] for x in xs)
            or any(w.shape != (n_x + n_h, n_h) for w in (wz, wr, wh))
            or any(b.shape != (n_h,) for b in (bz, br, bh))
            or (decay is not None and not _broadcasts_to(decay.shape, h.shape))):
        with_decay = "" if decay is None else f" (decay {decay.shape})"
        raise ShapeError(f"gru: inputs {[x.shape for x in xs]} and h {h.shape}{with_decay} do not "
                         f"fit gate weights {wz.shape}, {wr.shape}, {wh.shape} and biases "
                         f"{bz.shape}, {br.shape}, {bh.shape}")
    parents = (*xs, *cell) if decay is None else (*xs, *cell, decay)
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    hs = _decayed(h, decay).reshape(-1, n_h)
    # zr first: zr last read train-desk 0.6% faster, infer-eval 5% slower (2-vCPU Xeon)
    zr, cand, out = np.empty((2, *hs.shape)), np.empty(hs.shape), np.empty(hs.shape)
    _split_rows(_row_blocks(len(hs), n_h, 3 * hs.size * wz.shape[0]), lambda lo, hi: _gru_rows(
        parents, [row[lo:hi] for row in rows], hs[lo:hi], wz, bz, wr, br, wh, bh,
        zr[:, lo:hi], cand[lo:hi], out[lo:hi]))
    return _make(out.reshape(h.shape), "gru", parents,
                 partial(_gru_backward, xs, cell, decay, zr, cand), checked=True)


def _gru_rows(parents, rows, hs, wz, bz, wr, br, wh, bh, zr, cand, out):
    """The cell over rows, into zr, cand and out: three affine maps, the
    two gates sharing one concatenation of the rows and h."""
    xh = [np.concatenate([*rows, hs], axis=1)]
    _affine_rows("gru", parents, xh, wz, bz, None, zr[0])
    _affine_rows("gru", parents, xh, wr, br, None, zr[1])
    del xh  # freed before the second concat: it sets the no-grad peak
    z, r = _sigmoid(zr, out=zr)
    _affine_rows("gru", parents, [*rows, r * hs], wh, bh, "tanh", cand)
    np.subtract(1.0, z, out=out)
    out *= hs
    out += z * cand


def _broadcasts_to(shape, target) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def _decayed(h: np.ndarray, decay) -> np.ndarray:
    return h if decay is None else h * decay.data


def _gru_backward(xs, cell, decay, zr, cand, grad):
    h, wz, bz, wr, br, wh, bh = cell
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    hs = _decayed(h.data, decay).reshape(-1, h.shape[-1])
    n_x = sum(row.shape[1] for row in rows)
    g = grad.reshape(cand.shape)
    z, r = zr
    dc = g * z  # through out = (1 - z) * h + z * c, then c = tanh(.)
    dc *= 1.0 - cand * cand
    dz = g * cand
    dz -= g * hs
    dz *= z  # through z = sigmoid(.)
    dz *= 1.0 - z
    macs = cand.size * wz.shape[0]  # of each weight gradient; dz, dr and dc stay unchanged
    _weight_grad(wz, macs, _stacked_t_at, (*rows, hs), dz)
    _weight_grad(wh, macs, lambda: _stacked_t_at((*rows, r * hs), dc))
    dxrh = dc @ wh.data.T
    dr = dxrh[:, n_x:] * hs  # through r * h, then r = sigmoid(.)
    dr *= r
    dr *= 1.0 - r
    _weight_grad(wr, macs, _stacked_t_at, (*rows, hs), dr)
    dxh = dz @ wz.data.T
    dxh += dr @ wr.data.T
    for b, d in ((bz, dz), (br, dr), (bh, dc)):
        if b.requires_grad:  # a view of d, which a queued term may still read, is copied
            gb = _unbroadcast(d.reshape(grad.shape), b.shape)
            _accumulate(b, gb, owned=gb.base is None)
    start = 0
    for x, row in zip(xs, rows):
        stop = start + row.shape[1]
        if x.requires_grad:
            _accumulate(x, (dxh[:, start:stop] + dxrh[:, start:stop]).reshape(x.shape), owned=True)
        start = stop
    scaled = decay is not None and decay.requires_grad
    if h.requires_grad or scaled:
        dh = g * (1.0 - z)  # with respect to h * decay
        dh += dxrh[:, n_x:] * r
        dh += dxh[:, n_x:]
        dh = dh.reshape(h.shape)
    if scaled:
        _accumulate(decay, _unbroadcast(dh * h.data, decay.shape), owned=True)
    if h.requires_grad:
        _accumulate(h, dh if decay is None else dh * decay.data, owned=True)


def _stacked_t_at(blocks, d):
    """[b_1, ..., b_k].T @ d, where the operand is the column concatenation
    of k row blocks: a weight gradient that skips building it."""
    out = np.empty((sum(block.shape[1] for block in blocks), d.shape[1]))
    start = 0
    for block in blocks:
        np.matmul(block.T, d, out=out[start:start + block.shape[1]])
        start += block.shape[1]
    return out


def linear(inputs, w, b=None, act=None) -> Tensor:
    """Affine map `concat(inputs, -1) @ w + b` recorded as one tape node
    with op "linear"; without `b` it is the product alone, and with `act`
    ("tanh", "relu" or a clip `(lo, hi)`) the node's value is that
    activation of the map.

    The inputs share their leading axes, their widths add up to w's rows,
    and b is (w's columns,). Its values are bit-identical to concat,
    matmul, add and the activation composed; the finite check runs before
    the activation, which could hide an overflow. The node keeps only its
    parents and its output y, from which backward takes the activation's
    derivative (1 - y^2, y > 0, lo < y < hi)."""
    xs, w = tuple(map(as_tensor, inputs)), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if act not in (None, "tanh", "relu") and not (isinstance(act, tuple) and len(act) == 2):
        raise ConfigError(f"linear: act must be None, 'tanh', 'relu' or (lo, hi), got {act!r}")
    lead = xs[0].shape[:-1] if xs else None
    if (not xs or any(x.ndim == 0 or x.shape[:-1] != lead for x in xs)
            or w.ndim != 2 or sum(x.shape[-1] for x in xs) != w.shape[0]
            or (b is not None and b.shape != w.shape[1:])):
        bias = "no bias" if b is None else f"bias {b.shape}"
        raise ShapeError(f"linear: inputs {[x.shape for x in xs]} do not fit "
                         f"weight {w.shape} and {bias}")
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    parents = (*xs, w) if b is None else (*xs, w, b)
    m, (k, n) = len(rows[0]), w.shape
    bias = None if b is None else b.data
    out = np.empty((m, n))
    _split_rows(_row_blocks(m, n, m * k * n), lambda lo, hi: _affine_rows(
        "linear", parents, [row[lo:hi] for row in rows], w.data, bias, act, out[lo:hi]))
    out = out.reshape(*lead, n)
    return _make(out, "linear", parents, partial(_linear_backward, xs, w, b, act, out),
                 checked=True)


@np.errstate(over="ignore", invalid="ignore")  # checked before the epilogue
def _affine_rows(op, parents, rows, w, b, act, out):
    """concat(rows, 1) @ w, plus b when given, into out; then the finite
    check naming `op`, then the epilogue `act` in place."""
    np.matmul(rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1), w, out=out)
    if b is not None:
        out += b
    _check_finite(out, op, parents)
    if act == "tanh":
        np.tanh(out, out=out)
    elif act == "relu":
        np.maximum(out, 0.0, out=out)
    elif act is not None:
        np.minimum(np.maximum(out, act[0], out=out), act[1], out=out)


def _linear_backward(xs, w, b, act, y, grad):
    # through the epilogue, whose derivative reads its output y
    if act == "tanh":
        grad = grad * (1.0 - y * y)
    elif act == "relu":
        grad = grad * (y > 0.0)
    elif act is not None:
        grad = grad * ((y > act[0]) & (y < act[1]))
    g = grad.reshape(-1, grad.shape[-1])
    rows = [x.data.reshape(-1, x.shape[-1]) for x in xs]
    _weight_grad(w, g.size * w.shape[0], _stacked_t_at, rows, g)
    if b is not None and b.requires_grad:
        gb = _unbroadcast(grad, b.shape)
        _accumulate(b, gb, owned=gb is not grad)
    start = 0
    for x, r in zip(xs, rows):
        stop = start + r.shape[1]
        if x.requires_grad:
            _accumulate(x, (g @ w.data[start:stop].T).reshape(x.shape), owned=True)
        start = stop


def weighted_sum(terms) -> Tensor:
    """Sum of `a * w` over the (a, w) pairs of `terms` (at least one), left
    to right, as one tape node "weighted_sum" that keeps only its parents;
    its values and gradients are bit-identical to the composed muls and adds."""
    pairs = tuple((as_tensor(a), as_tensor(w)) for a, w in terms)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # _make rejects non-finite
            out = None
            for a, w in pairs:
                out = a.data * w.data if out is None else out + a.data * w.data
    except ValueError:
        shapes = " and ".join(str(t.shape) for pair in pairs for t in pair)
        raise ShapeError(f"weighted_sum: shapes {shapes} do not broadcast") from None
    return _make(out, "weighted_sum", tuple(t for pair in pairs for t in pair),
                 partial(_weighted_sum_backward, pairs))


def _weighted_sum_backward(pairs, grad):
    for pair in pairs:  # as the product's `mul` node would
        _pointwise_backward((_times_b, _times_a), pair, None, grad)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore", invalid="ignore"):  # _make rejects non-finite
        out = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(grad):
        if a.requires_grad:
            g = grad if axis is None else np.expand_dims(grad, axis)
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


def _is_basic(index) -> bool:
    """True if `index` selects a view (ints, slices, None, Ellipsis), so
    no entry is picked twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(i is None or i is Ellipsis or isinstance(i, slice)
               or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in items)


def getitem(a, index) -> Tensor:
    """Basic slicing and integer-array gather. Backward adds the gradient
    into the selected entries of the parent's own `.grad` buffer (made
    once, zero, by the first slice to reach it): `+=` for a basic index,
    `np.add.at` for an integer array, which sums repeated entries."""
    a = as_tensor(a)
    out = a.data[index]
    basic = _is_basic(index)

    def backward(grad):
        if a.requires_grad:
            if _QUEUED and a in _QUEUED:  # its last queued term goes first
                _QUEUED.pop(a).exception()
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if basic:
                a.grad[index] += grad
            else:
                np.add.at(a.grad, index, grad)

    return _make(out, "getitem", (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(node: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add `grad` into `node.grad`. The first gradient is stored as is when
    `owned` (the op has just made it and nothing else refers to it), else
    copied: a view, a broadcast or an array sent to two parents must not
    become a buffer that a later `+=` writes through."""
    if _QUEUED and node in _QUEUED:  # its last queued term goes first
        _QUEUED.pop(node).exception()
    if node.grad is None:
        node.grad = np.asarray(grad) if owned else np.array(grad, dtype=np.float64)
    else:
        node.grad += grad  # in place: .grad is always our own buffer


def _reached(root: Tensor):
    """The nodes whose gradient `root` needs, latest created first: a
    node's children are all made after it, so each fires after them."""
    seen = {id(root)}
    stack, nodes = [root], [root]
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
                nodes.append(parent)
    nodes.sort(key=attrgetter("seq"), reverse=True)
    return nodes


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's .grad.

    The root must be a scalar (single element). Nodes fire in reverse
    creation order, and each interior gradient is discarded once its
    node has fired; Parameter leaves keep theirs. A node's exception
    comes before a queued weight gradient's.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    root.grad = np.ones_like(root.data)
    try:
        for node in _reached(root):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # interior grads are transient
    finally:  # every term is in before backward returns or raises
        errors = [term.exception() for term in _STREAM]  # waits, raising nothing
        _STREAM.clear()
        _QUEUED.clear()
    for error in filter(None, errors):
        raise error
