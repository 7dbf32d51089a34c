"""Ops that only the tests' oracles use: autodiff primitives for composing
the fused nodes out of smaller ones, and the per-pair visibility
categories that the edge-conditioned branch is checked against.

The library has no subtraction, log or concatenation node, and the
edge-conditioned branch builds nothing per pair. These are built on the
autodiff engine's own `_pointwise`, `_make` and `_accumulate`, so the
grad checks cover them like any primitive.
"""

import numpy as np

from trajvrnn.autodiff import _accumulate, _make, _pointwise, as_tensor
from trajvrnn.errors import ShapeError

CAT_BOTH_VISIBLE = 0
CAT_ONE_VISIBLE = 1
CAT_NONE_VISIBLE = 2

_log = np.errstate(divide="ignore", invalid="ignore")(np.log)


def _negate(grad, out, a, b):
    return -grad


def _over_a(grad, out, a):
    return grad / a


def sub(a, b):
    return _pointwise("sub", np.subtract, (None, _negate), a, b)


def log(a):
    return _pointwise("log", _log, (_over_a,), a)


def concat(tensors, axis=-1):
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}") from None
    ax = axis if axis >= 0 else out.ndim + axis
    offsets = np.cumsum([0] + [t.shape[ax] for t in ts])

    def backward(grad):
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[ax] = slice(start, stop)
                _accumulate(t, grad[tuple(index)])

    return _make(out, "concat", tuple(ts), backward)


def edge_categories(mask):
    """Per-pair visibility category codes (..., N, N), symmetric in (i, j):
    2 minus the number of visible endpoints."""
    m = np.asarray(mask, dtype=np.int64)
    return 2 - (m[..., :, None] + m[..., None, :])
