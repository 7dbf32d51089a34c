"""Code that only the tests use: the central-difference gradient check,
autodiff primitives for composing the fused nodes out of smaller ones,
the per-pair arrays that the graph branches are checked against (the
normalised static adjacency and the edge categories), the visibility
masks and the pooled metric distance written as reductions over the
(x, y) axis, and a loader for `scripts/tape_memory.py`, whose
`held_arrays(node)` lists the arrays a node's backward keeps.

The library has no subtraction, division, exp, log, sum, concatenation,
clamp, relu or standalone tanh node: a tanh, a relu after a weight
product or a clip is an epilogue of `linear` (a tanh also of `gru`), the
temporal decay 1 / exp(relu(w * lag + b)) is one node, and the NLL and
the KL sum over the agents inside their own nodes. Its static and
edge-conditioned branches build nothing per pair. These are built on the
autodiff engine's own `_pointwise`, `_make` and `_accumulate`, so the
grad checks cover them like any primitive, and the fused nodes are
checked against their compositions.
"""

import importlib.util
from functools import partial
from pathlib import Path

import numpy as np

from trajvrnn.autodiff import _accumulate, _make, _pointwise, as_tensor, backward, no_grad
from trajvrnn.errors import ShapeError

CAT_BOTH_VISIBLE = 0
CAT_ONE_VISIBLE = 1
CAT_NONE_VISIBLE = 2

# numpy warnings off for these forwards; _make rejects non-finite results
_log = np.errstate(divide="ignore", invalid="ignore")(np.log)
_divide = np.errstate(divide="ignore", invalid="ignore")(np.divide)
_exp = np.errstate(over="ignore")(np.exp)


def _negate(grad, out, a, b):
    return -grad


def _over_a(grad, out, a):
    return grad / a


def _over_b(grad, out, a, b):
    return grad / b


def _div_b(grad, out, a, b):
    return -grad * a / (b * b)


def _times_out(grad, out, a):
    return grad * out


def _relu(a):
    return np.maximum(a, 0.0)


def _positive(grad, out, a):
    return grad * (a > 0.0)


def sub(a, b):
    return _pointwise("sub", np.subtract, (None, _negate), a, b)


def div(a, b):
    return _pointwise("div", _divide, (_over_b, _div_b), a, b)


def exp(a):
    return _pointwise("exp", _exp, (_times_out,), a)


def log(a):
    return _pointwise("log", _log, (_over_a,), a)


def relu(a):
    return _pointwise("relu", _relu, (_positive,), a)


def tsum(a, axis=None):
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def backward(grad):
        if a.requires_grad:
            g = grad if axis is None else np.expand_dims(grad, axis)
            _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(out, "sum", (a,), backward)


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


def _clip(a, lo, hi):
    return np.minimum(np.maximum(a, lo), hi)


def _inside(grad, out, a, lo, hi):
    return grad * ((a > lo) & (a < hi))


def clamp(a, lo, hi):
    """Elementwise min(max(a, lo), hi); gradient is zero where a bound wins."""
    return _pointwise("clamp", partial(_clip, lo=lo, hi=hi), (partial(_inside, lo=lo, hi=hi),), a)


def circle_mask(past, ref, radius):
    """`apply_circle_mask` with `np.linalg.norm` over the (x, y) axis."""
    dist = np.linalg.norm(past - ref[..., None, :], axis=-1)
    return (dist <= radius).astype(np.float64)


def camera_cosines(past, ref, camera):
    """Cosine between each agent's and the reference's direction from the
    camera, 1 for an agent at the camera, with `np.linalg.norm` and a sum
    over the (x, y) axis."""
    cam = np.asarray(camera, dtype=np.float64)
    view = ref - cam
    view_norm = np.linalg.norm(view, axis=-1)
    rel = past - cam
    rel_norm = np.linalg.norm(rel, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = (rel * view[..., None, :]).sum(axis=-1) / (rel_norm * view_norm[..., None])
    return np.where(rel_norm == 0, 1.0, cos_ang)


def camera_mask(past, ref, angle_deg, camera):
    """`apply_camera_mask` from `camera_cosines`."""
    return (camera_cosines(past, ref, camera) >= np.cos(np.radians(angle_deg))).astype(np.float64)


def pooled_distance(estimate, truth, select=None):
    """The metrics' mean Euclidean distance, with `np.linalg.norm` over the
    (x, y) axis; 0.0 when `select` picks nothing."""
    dist = np.linalg.norm(estimate - truth, axis=-1)
    if select is not None:
        if not select.any():
            return 0.0
        dist = dist[select]
    return float(dist.mean())


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


def tape_memory_script():
    """`scripts/tape_memory.py`, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "tape_memory.py"
    spec = importlib.util.spec_from_file_location("tape_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
