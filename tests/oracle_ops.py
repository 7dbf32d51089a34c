"""Ops that only the tests' oracles use: autodiff primitives for composing
the fused nodes out of smaller ones, and the per-pair arrays that the
graph branches are checked against: the normalised static adjacency
and the edge categories.

The library has no subtraction, log, concatenation or standalone tanh
node (a tanh is an epilogue of `linear` or `gru`), and its static and
edge-conditioned branches build nothing per pair. These are built on the
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


def build_static_adjacency(mask):
    """Visibility adjacency and self-loop matrix from a binary mask.

    mask: (..., N). Returns (A, I) with shape (..., N, N):
    A[i, j] = 1 iff i != j and both visible; I = diag(mask).
    """
    m = np.asarray(mask, dtype=np.float64)
    a = m[..., :, None] * m[..., None, :]
    eye = np.eye(m.shape[-1], dtype=bool)
    a[..., eye] = 0.0
    i = np.zeros_like(a)
    i[..., eye] = m
    return a, i


def normalize_static(a, i):
    """Symmetric degree normalisation D^{-1/2} (A + I) D^{-1/2}. Zero
    degrees are clamped to 1 first, so fully invisible nodes keep
    all-zero rows and columns."""
    s = np.asarray(a, dtype=np.float64) + np.asarray(i, dtype=np.float64)
    deg = np.maximum(s.sum(axis=-1), 1.0)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return inv_sqrt[..., :, None] * s * inv_sqrt[..., None, :]


def _tanh_vjp(grad, out, a):
    return grad * (1.0 - out * out)


def tanh(a):
    return _pointwise("tanh", np.tanh, (_tanh_vjp,), a)
