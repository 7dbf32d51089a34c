import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from trajvrnn import autodiff as ad
from trajvrnn.autodiff import (
    Parameter, Tensor, backward, getitem, gru, linear, matmul, mul, no_grad, reshape, tmean,
    transpose,
)
from trajvrnn.data import MaskingSpec, build_dataset, generate_sequences, stack_arrays
from trajvrnn.errors import ConfigError, NumericError, ShapeError
from trajvrnn.model import (LOGVAR_LIMIT, LatentDistribution, ModelConfig, TrajectoryModel,
                            bigauss_nll, gauss_kl, sample_latent, temporal_decay)
from trajvrnn.optim import Adam

from oracle_ops import (clamp, concat, div, exp, grad_check, log, relu, sub, tanh,
                        tape_memory_script, tsum)


def test_matmul_manual_product():
    # hand matrix product: [[1,2],[3,4]] x [[1],[1]]
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_concat_last_axis():
    out = concat([Tensor([1.0, 2.0]), Tensor([3.0])])
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_elementwise_forward_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    y = np.abs(rng.normal(size=(3, 4))) + 0.5
    checks = [
        (ad.add, x + y),
        (sub, x - y),
        (ad.mul, x * y),
        (div, x / y),
    ]
    for op, expected in checks:
        np.testing.assert_allclose(op(Tensor(x), Tensor(y)).data, expected)
    np.testing.assert_allclose(exp(Tensor(x)).data, np.exp(x))
    np.testing.assert_allclose(log(Tensor(y)).data, np.log(y))
    np.testing.assert_allclose(tanh(Tensor(x)).data, np.tanh(x))
    np.testing.assert_allclose(clamp(Tensor(x), -0.5, 0.5).data, np.clip(x, -0.5, 0.5))
    np.testing.assert_allclose(tsum(Tensor(x), axis=1).data, x.sum(axis=1))
    np.testing.assert_allclose(tmean(Tensor(x)).data, x.mean())


def test_backward_linear_rows():
    # root = sum(W @ x) with x = [1, 2]: droot/dW = [1, 2] per row
    w = Parameter("w", [[0.5, -0.3], [1.0, 2.0]])
    x = Tensor([[1.0], [2.0]])
    backward(tsum(matmul(w, x)))
    np.testing.assert_array_equal(w.grad, [[1.0, 2.0], [1.0, 2.0]])


def test_backward_constant_root_leaves_grads_zero():
    w = Parameter("w", [[1.0]])
    root = tsum(Tensor([[3.0]]))
    backward(root)
    np.testing.assert_array_equal(w.grad, [[0.0]])


def test_backward_inactive_relu():
    w = Parameter("w", [-1.0])
    backward(tsum(relu(w)))
    np.testing.assert_array_equal(w.grad, [0.0])


def test_backward_rejects_non_scalar_root():
    w = Parameter("w", [1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(mul(w, 2.0))


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    w = Parameter("w", rng.normal(size=(5, 5)))
    x = Tensor(rng.normal(size=(5, 3)))

    def run():
        w.zero_grad()
        backward(tsum(tanh(matmul(w, x))))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("op_name", ["matmul", "add", "sub", "mul", "div"])
def test_shape_error_names_both_shapes(op_name):
    with pytest.raises(ShapeError) as err:
        op = {"sub": sub, "div": div}.get(op_name) or getattr(ad, op_name)
        op(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    message = str(err.value)
    assert message.startswith(op_name) and "(2, 3)" in message and "(4, 5)" in message


def test_non_finite_forward_raises():
    with pytest.raises(NumericError, match="'log'"):
        log(Tensor([-1.0]))
    with pytest.raises(NumericError, match="'div'"):
        div(Tensor([1.0]), Tensor([0.0]))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="'exp'"):
        exp(Tensor([1000.0]))


def test_exp_and_sigmoid_overflow_is_silent():
    """The in-place sigmoid that the `gru` gates use overflows exp(-a) to
    inf without a warning and gives 0.0; a closed update gate then passes
    h through unchanged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ad._sigmoid(np.array([-1000.0]))[0] == 0.0
        h = np.array([[0.5, -2.0]])
        closed = gru([np.ones((1, 1))], h, np.zeros((3, 2)), np.full(2, -1000.0),
                     np.zeros((3, 2)), np.zeros(2), np.ones((3, 2)), np.zeros(2))
        assert np.array_equal(closed.data, h)
        with pytest.raises(NumericError, match="'exp'"):
            exp(Tensor([1000.0]))


def test_fused_loss_non_finite_forward_raises_silently():
    """An overflow inside a fused loss node raises NumericError naming that
    node, without a numpy warning: a log sigma of 800 makes sigma infinite,
    a log-variance of 1000 the variance."""
    unit = LatentDistribution(mu=Tensor([[0.0]]), logvar=Tensor([[0.0]]))
    wide = LatentDistribution(mu=Tensor([[0.0]]), logvar=Tensor([[1000.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="'bigauss_nll'"):
            bigauss_nll(np.zeros((1, 2)), Tensor([[0.0, 0.0, 800.0, 0.0, 0.0]]))
        with pytest.raises(NumericError, match="'gauss_kl'"):
            gauss_kl(wide, unit)
        with pytest.raises(NumericError, match="'gauss_kl'"):
            gauss_kl(wide, wide)  # inf / inf


def test_tensor_axis_limit():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2, 2, 2)))


def test_broadcast_row_vector_grad():
    # bias vector broadcast over rows accumulates the column sums
    b = Parameter("b", [1.0, 2.0, 3.0])
    x = Tensor(np.arange(6.0).reshape(2, 3))
    backward(tsum(ad.add(x, b)))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_getitem_grads():
    w = Parameter("w", np.arange(12.0).reshape(3, 4))
    backward(tsum(getitem(w, (slice(None), slice(1, 3)))))
    expected = np.zeros((3, 4))
    expected[:, 1:3] = 1.0
    np.testing.assert_array_equal(w.grad, expected)


@pytest.mark.parametrize("whole_first", [True, False])
def test_getitem_slices_accumulate_into_one_grad(whole_first):
    """An interior tensor sliced at every index of an axis, gathered by an
    integer array with repeats and also used whole by another op: the
    slices add into its one gradient buffer, whichever use reaches it
    first, and the gather sums its repeated rows (np.add.at)."""
    rng = np.random.default_rng(6)
    w = Parameter("w", rng.normal(size=(3, 4, 2)))
    coef = rng.normal(size=(3, 2))
    rows = np.array([2, 0, 2, 2])

    def f():
        a = mul(w, 1.5)
        whole = tsum(tanh(a))
        parts = [tsum(mul(getitem(a, (slice(None), t)), coef) * float(t + 1))
                 for t in range(4)]
        parts.append(tsum(exp(getitem(a, rows) * 0.1)))
        uses = [whole, *parts] if whole_first else [*parts, whole]
        return sum(uses[1:], uses[0])

    assert grad_check(f, [w]) <= 1e-8
    w.zero_grad()
    backward(f())
    a = 1.5 * w.data
    expected = 1.0 - np.tanh(a) ** 2
    expected += coef[:, None, :] * np.arange(1.0, 5.0)[None, :, None]
    for r in rows:
        expected[r] += 0.1 * np.exp(0.1 * a[r])
    np.testing.assert_allclose(w.grad, 1.5 * expected, rtol=1e-13)


def test_no_grad_suppresses_tape():
    w = Parameter("w", [2.0])
    with no_grad():
        out = mul(w, w)
    assert not out.requires_grad and out.parents == ()


def test_detach_cuts_gradient():
    w = Parameter("w", [3.0])
    backward(tsum(mul(w.detach(), w)))
    np.testing.assert_array_equal(w.grad, [3.0])


def test_grad_check_square_closed_form():
    w = Parameter("w", [3.0])
    err = grad_check(lambda: tsum(mul(w, w)), [w])
    assert err < 1e-8
    # analytic derivative of w^2 at 3 is 6
    w.zero_grad()
    backward(tsum(mul(w, w)))
    np.testing.assert_allclose(w.grad, [6.0])


def test_grad_check_constant_is_zero():
    w = Parameter("w", [1.0])
    c = Tensor([5.0])
    assert grad_check(lambda: tsum(mul(c, c)) + 0.0 * tsum(w), [w]) == 0.0


GRU_SHAPES = {"x": (2, 3, 3), "h": (2, 3, 4), "wz": (7, 4), "bz": (4,),
              "wr": (7, 4), "br": (4,), "wh": (7, 4), "bh": (4,)}
# two input blocks of unequal widths, 2 + 5 + H = 11 weight rows
GRU2_SHAPES = {"x1": (2, 3, 2), "x2": (2, 3, 5), "h2": (2, 3, 4), "wz2": (11, 4),
               "bz2": (4,), "wr2": (11, 4), "br2": (4,), "wh2": (11, 4), "bh2": (4,)}
# posterior then prior mean and log-variance
KL_NAMES = ("mu_q", "lv_q", "mu_p", "lv_p")


@pytest.mark.parametrize("op_name", [
    "matmul", "matmul3d", "add", "add_fanout", "sub", "mul", "div", "concat",
    "exp", "log", "tanh", "relu", "sum", "mean", "reshape", "slice",
    "bcast", "gru", "gru2", "linear", "linear2", "clamp", "linear_nobias",
    "bigauss_nll", "gauss_kl", "sample_latent", "gru_decay", "linear_tanh",
    "linear_relu", "linear_clip", "weighted_sum", "temporal_decay",
])
def test_grad_check_every_primitive(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    a = Parameter("a", rng.normal(size=(3, 4)))
    b = Parameter("b", rng.normal(size=(3, 4)) + 3.0)  # kept positive-ish for div/log
    w = Parameter("w", rng.normal(size=(4, 2)))
    c = Parameter("c", rng.normal(size=(2, 3, 4)))
    cell = [Parameter(name, rng.normal(size=shape)) for name, shape in GRU_SHAPES.items()]
    # drawn after the parameters above, so their values do not depend on these
    d = Parameter("d", rng.normal(size=(2, 3, 2)))
    v = Parameter("v", rng.normal(size=(6, 2)))
    lb = Parameter("lb", rng.normal(size=(2,)))
    k = Parameter("k", np.linspace(-2.0, 2.0, 12).reshape(3, 4))  # both sides of +-1
    u = Parameter("u", rng.normal(size=(3, 4)))
    cell2 = [Parameter(name, rng.normal(size=shape)) for name, shape in GRU2_SHAPES.items()]
    raw = Parameter("raw", rng.normal(size=(2, 3, 5)))
    target = rng.normal(size=(2, 3, 2))
    dists = [Parameter(name, rng.normal(size=(2, 3, 4))) for name in KL_NAMES]
    noise = rng.normal(size=(2, 3, 4))
    post, prior = LatentDistribution(*dists[:2]), LatentDistribution(*dists[2:])
    dk = Parameter("dk", rng.uniform(0.2, 1.0, size=(2, 3, 1)))  # one decay per row
    # w * lag + b from -0.5 to 1.0 in steps of 0.3, off the max(0, .) kink
    lags = rng.integers(0, 6, size=(2, 4, 3, 1)).astype(np.float64)
    tw, tb = Parameter("tw", [0.3]), Parameter("tb", [-0.5])

    def add_fanout():
        # backward reaches the add first, which hands one gradient to the
        # interior nodes ta and tb; the mul then adds a second one into
        # each. Had both stored that gradient uncopied, the `+=` on ta's
        # buffer would also land in tb's.
        ta, tb = tanh(a), tanh(b * 0.3)
        return tsum(tanh(ta + tb)) + tsum(ta * tb)

    builders = {
        "matmul": lambda: tsum(tanh(matmul(a, w))),
        # a batched left operand against a 2-D right one, also non-contiguous
        "matmul3d": lambda: (tsum(tanh(matmul(c, w)))
                             + tsum(tanh(matmul(transpose(c, 0, 1), w)))),
        "add_fanout": add_fanout,
        "gru": lambda: tsum(tanh(gru([cell[0]], *cell[1:]))),
        # two blocks of different widths, so a block offset mix-up shows
        "gru2": lambda: tsum(tanh(gru(cell2[:2], *cell2[2:]))),
        "gru_decay": lambda: tsum(tanh(gru([cell[0]], *cell[1:], decay=dk))),
        "linear": lambda: tsum(tanh(linear([a], w, lb))),
        # two inputs of different widths, so a block offset mix-up shows
        "linear2": lambda: tsum(tanh(linear([c, d], v, lb))),
        # no bias, and a transposed (non-contiguous) weight off the tape
        "linear_nobias": lambda: tsum(tanh(linear([c], transpose(u)))),
        "linear_tanh": lambda: tsum(exp(linear([c, d], v, lb, act="tanh"))),
        "linear_relu": lambda: tsum(tanh(linear([c, d], v, lb, act="relu"))),
        "linear_clip": lambda: tsum(tanh(linear([c, d], v, lb, act=(-0.5, 0.5)))),
        # a used twice and u broadcast over the rows
        "weighted_sum": lambda: tsum(tanh(ad.weighted_sum([(a, b), (u[0], a)]))),
        "clamp": lambda: tsum(tanh(clamp(k, -1.0, 1.0) * 1.5)),
        "add": lambda: tsum(tanh(a + b)),
        "sub": lambda: tsum(tanh(sub(a, b))),
        "mul": lambda: tsum(tanh(a * b)),
        "div": lambda: tsum(tanh(div(a, b))),
        "concat": lambda: tsum(tanh(concat([a, b], axis=-1))),
        "exp": lambda: tsum(exp(a * 0.3)),
        "log": lambda: tsum(log(b)),
        "tanh": lambda: tsum(tanh(a)),
        "relu": lambda: tsum(relu(a + 0.05)),
        "sum": lambda: tsum(tanh(tsum(a, axis=0))),
        "mean": lambda: tsum(tanh(tmean(a, axis=1))),
        "reshape": lambda: tsum(tanh(reshape(a, (2, 6)))),
        "slice": lambda: tsum(tanh(a[:, 1:3])),
        "bcast": lambda: tsum(tanh(a * b[0:1, :])),
        "bigauss_nll": lambda: tsum(tanh(bigauss_nll(target, raw) * 0.3)),
        "gauss_kl": lambda: tsum(tanh(gauss_kl(post, prior) * 0.3)),
        "sample_latent": lambda: tsum(tanh(sample_latent(post, noise))),
        "temporal_decay": lambda: tsum(tanh(temporal_decay(lags, tw, tb) * 2.0)),
    }
    params = [p for p in (a, b, w, c, *cell, d, v, lb, k, u, *cell2, raw, *dists, dk, tw, tb)
              if _touches(op_name, p.name)]
    assert grad_check(builders[op_name], params) <= 1e-4


def _touches(op_name, pname):
    if op_name == "matmul":
        return pname in ("a", "w")
    if op_name == "matmul3d":
        return pname in ("c", "w")
    if op_name == "gru":
        return pname in GRU_SHAPES
    if op_name == "gru2":
        return pname in GRU2_SHAPES
    if op_name == "gru_decay":
        return pname in GRU_SHAPES or pname == "dk"
    if op_name == "linear":
        return pname in ("a", "w", "lb")
    if op_name in ("linear2", "linear_tanh", "linear_relu", "linear_clip"):
        return pname in ("c", "d", "v", "lb")
    if op_name == "linear_nobias":
        return pname in ("c", "u")
    if op_name == "clamp":
        return pname == "k"
    if op_name == "weighted_sum":
        return pname in ("a", "b", "u")
    if op_name == "bigauss_nll":
        return pname == "raw"
    if op_name == "gauss_kl":
        return pname in KL_NAMES
    if op_name == "sample_latent":
        return pname in KL_NAMES[:2]
    if op_name == "temporal_decay":
        return pname in ("tw", "tb")
    if op_name in ("exp", "tanh", "relu", "sum", "mean", "reshape", "slice"):
        return pname == "a"
    if op_name == "log":
        return pname == "b"
    return pname in ("a", "b")


def _sigmoid(a):
    return div(1.0, 1.0 + exp(sub(0.0, a)))


def _composed_gru(inputs, h, wz, bz, wr, br, wh, bh):
    xh = concat([*inputs, h], axis=-1)
    z = _sigmoid(matmul(xh, wz) + bz)
    r = _sigmoid(matmul(xh, wr) + br)
    cand = tanh(matmul(concat([*inputs, r * h], axis=-1), wh) + bh)
    return sub(1.0, z) * h + z * cand


# the last case is the model's [graph features, latent features] at H=256
@pytest.mark.parametrize("lead,n_x,n_h", [((2, 3), 3, 4), ((64, 10), 80, 256),
                                          ((64, 10), (16, 64), 256)])
def test_gru_matches_composed_cell(lead, n_x, n_h):
    """Forward bit-equal to the cell composed of primitives, with and
    without the tape; gradients equal to it up to reassociation. `n_x` is
    one input's width or a tuple of block widths."""
    widths = n_x if isinstance(n_x, tuple) else (n_x,)
    rng = np.random.default_rng(n_h + len(widths) - 1)
    shapes = ([lead + (n,) for n in widths] + [lead + (n_h,)]
              + [(sum(widths) + n_h, n_h), (n_h,)] * 3)
    cell = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
            for i, shape in enumerate(shapes)]
    inputs, rest = cell[:len(widths)], cell[len(widths):]
    composed = _composed_gru(inputs, *rest)
    fused = gru(inputs, *rest)
    assert fused.op == "gru" and fused.parents == tuple(cell)
    assert np.array_equal(fused.data, composed.data)
    with no_grad():
        assert np.array_equal(gru(inputs, *rest).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in cell:
            p.zero_grad()
        backward(tsum(tanh(out)))
        grads.append([p.grad.copy() for p in cell])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# the middle case is the model's past step: one decay per agent, at H=256
@pytest.mark.parametrize("lead,widths,n_h,per_unit", [((2, 3), (3,), 4, True),
                                                      ((64, 10), (16, 64), 256, False),
                                                      ((2, 3), (2, 5), 4, False)])
def test_gru_decay_matches_decayed_h(lead, widths, n_h, per_unit):
    """gru(..., decay=d) against gru(inputs, h * d) with the product on the
    tape: forward bit-equal, with and without the tape; gradients, d's
    included, within 1e-12 of it. d is (.., 1) or one factor per unit."""
    rng = np.random.default_rng(n_h + len(widths))
    shapes = ([lead + (n,) for n in widths] + [lead + (n_h,)]
              + [(sum(widths) + n_h, n_h), (n_h,)] * 3)
    cell = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
            for i, shape in enumerate(shapes)]
    decay = Parameter("decay", rng.uniform(0.1, 1.0, size=lead + ((n_h,) if per_unit else (1,))))
    inputs, (h, *weights) = cell[:len(widths)], cell[len(widths):]
    composed = gru(inputs, h * decay, *weights)
    fused = gru(inputs, h, *weights, decay=decay)
    assert fused.op == "gru" and fused.parents == (*cell, decay)
    assert np.array_equal(fused.data, composed.data)
    with no_grad():
        assert np.array_equal(gru(inputs, h, *weights, decay=decay).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in (*cell, decay):
            p.zero_grad()
        backward(tsum(tanh(out)))
        grads.append([p.grad.copy() for p in (*cell, decay)])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tape", [True, False])
@pytest.mark.parametrize("huge", ["wz", "wh", "both"])
def test_gru_overflow_raises_silently(huge, tape):
    """A GEMM that overflows a gate or the candidate pre-activation raises
    NumericError naming `gru`, with no numpy warning; the sigmoid and the
    tanh would squash the inf into a finite 0 or 1."""
    x, h = np.array([[10.0]]), np.zeros((1, 2))
    weights = {name: np.zeros((3, 2)) for name in ("wz", "wr", "wh")}
    for name in ("wz", "wh") if huge == "both" else (huge,):
        weights[name] = np.full((3, 2), 1e308)
    x = Parameter("x", x) if tape else x
    with pytest.raises(NumericError, match="'gru'"):
        gru([x], h, weights["wz"], np.zeros(2), weights["wr"], np.zeros(2),
            weights["wh"], np.zeros(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", [[1e308, 1e308], [1e308, -1e308]])
def test_matmul_overflow_raises_silently(row):
    """An inf, or an inf - inf, from the product raises NumericError naming
    `matmul` with no numpy warning."""
    with pytest.raises(NumericError, match="'matmul'"):
        matmul(Tensor([row]), Tensor([[10.0], [10.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op,args", [
    ("add", ([1e308], [1e308])), ("mul", ([1e308], [1e308])), ("mul", ([np.inf], [0.0])),
    ("mean", ([1e308, 1e308],)),
])
def test_pointwise_and_mean_overflow_raises_silently(op, args):
    """An overflow, or an inf * 0, in add, mul or tmean raises NumericError
    naming the op with no numpy warning."""
    fn = {"add": ad.add, "mul": mul, "mean": tmean}[op]
    with pytest.raises(NumericError, match=f"'{op}'"):
        fn(*map(Tensor, args))


def test_gru_decay_shape_error_names_it():
    cell = [Tensor(np.ones(shape)) for shape in GRU_SHAPES.values()]
    with pytest.raises(ShapeError) as err:
        gru([cell[0]], *cell[1:], decay=Tensor(np.ones((2, 3, 3))))
    assert str(err.value).startswith("gru") and "decay (2, 3, 3)" in str(err.value)


def test_gru_rejects_mismatched_shapes():
    cell = [Tensor(np.ones(shape)) for shape in GRU_SHAPES.values()]
    cell[1] = Tensor(np.ones((3, 2, 4)))
    with pytest.raises(ShapeError, match="gru"):
        gru([cell[0]], *cell[1:])


@pytest.mark.parametrize("shapes", [
    [(2, 3), (3, 2), (5, 2), (2,), (5, 2), (2,), (5, 2), (2,)],  # leading axes differ
    [(3, 3), (3, 1), (3, 2), (5, 2), (2,), (5, 2), (2,), (5, 2), (2,)],  # 3 + 1 + 2 rows
    [(3, 3), (3, 2), (5, 2), (2,), (5, 2), (3,), (5, 2), (2,)],  # a bias is not (H,)
])
def test_gru_shape_error_names_every_shape(shapes):
    *inputs, h = (Tensor(np.ones(shape)) for shape in shapes[:-6])
    with pytest.raises(ShapeError) as err:
        gru(inputs, h, *(Tensor(np.ones(shape)) for shape in shapes[-6:]))
    message = str(err.value)
    assert message.startswith("gru") and all(str(s) in message for s in shapes)


@pytest.mark.parametrize("widths", [(16,), (16, 256)])
@pytest.mark.parametrize("lead", [(2, 3), (64, 10)])
def test_linear_matches_composed_affine(lead, widths):
    """Forward bit-equal to matmul(concat(inputs), w) + b, with and without
    the tape; gradients equal to it up to reassociation."""
    rng = np.random.default_rng(sum(widths) + lead[0])
    shapes = [lead + (n,) for n in widths] + [(sum(widths), 64), (64,)]
    params = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
              for i, shape in enumerate(shapes)]
    *inputs, w, b = params
    composed = matmul(concat(inputs, axis=-1), w) + b
    fused = linear(inputs, w, b)
    assert fused.op == "linear" and fused.parents == tuple(params)
    assert np.array_equal(fused.data, composed.data)
    with no_grad():
        assert np.array_equal(linear(inputs, w, b).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in params:
            p.zero_grad()
        backward(tsum(tanh(out)))
        grads.append([p.grad.copy() for p in params])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("widths", [(16,), (16, 256)])
@pytest.mark.parametrize("lead", [(2, 3), (64, 10)])
def test_linear_tanh_matches_composed(lead, widths):
    """The tanh epilogue against tanh(linear(...)) with a tanh node on the
    tape: forward bit-equal, with and without the tape; gradients within
    1e-12 of it. The node keeps no array but its own value."""
    rng = np.random.default_rng(sum(widths) + lead[0] + 1)
    shapes = [lead + (n,) for n in widths] + [(sum(widths), 64), (64,)]
    params = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
              for i, shape in enumerate(shapes)]
    *inputs, w, b = params
    composed = tanh(linear(inputs, w, b))
    fused = linear(inputs, w, b, act="tanh")
    assert fused.op == "linear" and fused.parents == tuple(params)
    assert np.array_equal(fused.data, composed.data)
    [held] = [a for a in fused._backward.args if isinstance(a, np.ndarray)]
    assert held is fused.data
    with no_grad():
        assert np.array_equal(linear(inputs, w, b, act="tanh").data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in params:
            p.zero_grad()
        backward(tsum(tanh(out)))
        grads.append([p.grad.copy() for p in params])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# the model's log-variance bound
LIMIT = LOGVAR_LIMIT
EPILOGUES = {"relu": ("relu", relu),
             "clip": ((-LIMIT, LIMIT), lambda t: clamp(t, -LIMIT, LIMIT))}


@pytest.mark.parametrize("name", sorted(EPILOGUES))
@pytest.mark.parametrize("lead", [(2, 3), (64, 10)])
def test_linear_epilogue_matches_composed(lead, name):
    """The relu and clip epilogues against relu(linear(...)) and
    clamp(linear(...)) with relu and clamp nodes on the tape. Zero input
    rows make the map equal the bias, which puts pre-activations exactly
    at 0, at +-LIMIT and beyond them. Forward bit-equal, with and without
    the tape; gradients within 1e-12 of it; the node keeps no array but
    its own value."""
    act, composed_act = EPILOGUES[name]
    rng = np.random.default_rng(lead[0] + len(name))
    edges = [0.0, LIMIT, -LIMIT, 1.5 * LIMIT, -1.5 * LIMIT, -0.0, 0.5, -0.5]
    rows = rng.normal(size=lead + (16,)) * LIMIT
    rows[0] = 0.0
    x, w, b = params = [Parameter("x", rows), Parameter("w", rng.normal(size=(16, 8)) / 4.0),
                        Parameter("b", np.array(edges))]
    upstream = rng.normal(size=lead + (8,))
    composed = composed_act(linear([x], w, b))
    fused = linear([x], w, b, act=act)
    assert fused.op == "linear" and fused.parents == tuple(params)
    assert np.array_equal(fused.data, composed.data)
    at_edges = composed_act(Tensor(edges)).data
    assert all(np.array_equal(row, at_edges) for row in fused.data[0])
    [held] = tape_memory_script().held_arrays(fused)
    assert held is fused.data
    with no_grad():
        assert np.array_equal(linear([x], w, b, act=act).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in params:
            p.zero_grad()
        backward(tsum(out * upstream))
        grads.append([p.grad.copy() for p in params])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("bias", [0.0, -np.inf])
@pytest.mark.parametrize("act", [False, True])
def test_linear_overflow_raises_silently(act, bias):
    """A weight that overflows the map raises NumericError naming `linear`
    without a numpy warning, also under the tanh epilogue, which would
    turn the inf into 1.0; an inf - inf from the bias likewise."""
    x = Tensor(np.full((2, 3), 10.0))
    w = Parameter("w", np.full((3, 4), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="'linear'"):
            linear([x], w, np.full(4, bias), act="tanh" if act else None)


@pytest.mark.parametrize("shapes", [
    [(2, 3), (4, 2), (5, 6), (6,)],   # leading axes differ
    [(2, 3), (2, 2), (6, 6), (6,)],   # widths add up to 5, not 6 rows
    [(2, 3), (2, 3), (6, 6), (5,)],   # bias does not match the columns
])
def test_linear_shape_error_names_every_shape(shapes):
    *inputs, w, b = (Tensor(np.ones(shape)) for shape in shapes)
    with pytest.raises(ShapeError) as err:
        linear(inputs, w, b)
    message = str(err.value)
    assert message.startswith("linear") and all(str(s) in message for s in shapes)


@pytest.mark.parametrize("act", ["sigmoid", (1.0,), True])
def test_linear_rejects_unknown_act(act):
    with pytest.raises(ConfigError, match="act"):
        linear([Tensor(np.ones((2, 3)))], Tensor(np.ones((3, 4))), act=act)


def test_linear_without_bias():
    """The product alone, equal to a zero bias; a shape error names the
    bias as absent."""
    rng = np.random.default_rng(21)
    x, w = Parameter("x", rng.normal(size=(2, 3, 4))), Parameter("w", rng.normal(size=(4, 5)))
    out = linear([x], w)
    assert out.parents == (x, w)
    assert np.array_equal(out.data, linear([x], w, np.zeros(5)).data)
    with pytest.raises(ShapeError) as err:
        linear([x], Tensor(np.ones((5, 4))))
    assert "(5, 4)" in str(err.value) and "no bias" in str(err.value)


# ---------------------------------------------------------------------------
# row blocks on several CPUs: forced on by lowering the module's cutoff


@pytest.fixture
def handed_off(monkeypatch):
    """Two CPUs and a pool of its own, at the module's cutoff; yields the
    list of (function, args) handed to a worker."""
    handed = []
    submit = ad._submit

    def counting(fn, *args):
        handed.append((fn, args))
        return submit(fn, *args)

    monkeypatch.setattr(ad, "_CPUS", 2)
    monkeypatch.setattr(ad, "_POOL", None)
    monkeypatch.setattr(ad, "_submit", counting)
    yield handed
    if ad._POOL is not None:
        ad._POOL.shutdown()


@pytest.fixture
def split_everywhere(monkeypatch, handed_off):
    """As `handed_off`, but every op of 4 or more rows spreads over up to
    3 CPUs and every Parameter's weight gradient goes on the stream."""
    monkeypatch.setattr(ad, "_BLOCK_MACS", 1)
    monkeypatch.setattr(ad, "_CPUS", 3)
    return handed_off


def test_desk_train_step_and_single_inference_stay_on_one_thread(handed_off):
    """At the module's cutoff on two CPUs, no op of a desk-shape train step
    (H=64, Z=16, B=16, N=16, T=40+10), forward or backward, and none of a
    B=1 run_inference of the default model goes to a worker."""
    seqs = generate_sequences(16, 16, 40, 10, seed=8)
    coords, masks = stack_arrays(build_dataset(seqs, MaskingSpec(mode="camera", angle=20.0),
                                               split="train", seed=8))
    model = TrajectoryModel(ModelConfig(d_hidden=64, d_latent=16, seed=8))
    model.train_step(coords, masks, Adam(model.parameters()), rng=np.random.default_rng(8))
    assert handed_off == []
    TrajectoryModel(ModelConfig(seed=8)).run_inference(coords[0, :40, :10], masks[0, :, :10])
    assert handed_off == []


def test_reference_gru_hands_one_block_to_a_worker(handed_off):
    """A reference-shape gru (640 rows, inputs 16 + 64, H=256) at the
    module's cutoff on two CPUs runs as two row blocks."""
    rng = np.random.default_rng(9)
    weights = [rng.normal(size=shape) for shape in [(336, 256), (256,)] * 3]
    gru([rng.normal(size=(640, 16)), rng.normal(size=(640, 64))],
        rng.normal(size=(640, 256)), *weights)
    assert len(handed_off) == 1


# (leading axes, row blocks of the forward at 3 CPUs): one and two rows stay
# inline (a one-row block would be a gemv), 5 rows split 2 + 3, 7 rows
# 2 + 2 + 3 and 2 x 5 rows 3 + 3 + 4
SPLITS = [((1,), 1), ((2,), 1), ((5,), 2), ((7,), 3), ((2, 5), 3)]


@pytest.mark.parametrize("lead,blocks", SPLITS)
def test_split_gru_is_bit_identical(monkeypatch, split_everywhere, lead, blocks):
    """gru split into row blocks gives the inline values and every
    gradient, decay included, bit for bit."""
    rng = np.random.default_rng(len(lead) + lead[-1])
    shapes = [lead + (3,), lead + (5,), lead + (8,)] + [(16, 8), (8,)] * 3
    cell = [Parameter(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]
    decay = Parameter("decay", rng.uniform(0.1, 1.0, size=lead + (1,)))
    (*inputs, h), weights = cell[:3], cell[3:]
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        with no_grad():
            before = len(split_everywhere)
            gru(inputs, h, *weights, decay=decay)
            assert len(split_everywhere) - before == (blocks - 1 if cpus == 3 else 0)
        for p in (*cell, decay):
            p.zero_grad()
        out = gru(inputs, h, *weights, decay=decay)
        backward(tsum(tanh(out)))
        runs.append([out.data.copy()] + [p.grad.copy() for p in (*cell, decay)])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("act", [None, "tanh", "relu", (-0.5, 0.5)])
@pytest.mark.parametrize("lead,blocks", SPLITS)
def test_split_linear_is_bit_identical(monkeypatch, split_everywhere, lead, blocks, act):
    """linear split into row blocks gives the inline values and every
    gradient bit for bit, with each epilogue."""
    rng = np.random.default_rng(len(lead) + lead[-1])
    shapes = [lead + (3,), lead + (6,), (9, 16), (16,)]
    params = [Parameter(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]
    runs = []
    for cpus in (1, 3):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        with no_grad():
            before = len(split_everywhere)
            linear(params[:2], *params[2:], act=act)
            assert len(split_everywhere) - before == (blocks - 1 if cpus == 3 else 0)
        for p in params:
            p.zero_grad()
        out = linear(params[:2], *params[2:], act=act)
        backward(tsum(tanh(out)))
        runs.append([out.data.copy()] + [p.grad.copy() for p in params])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_split_holds_with_more_workers_than_cores(monkeypatch, split_everywhere):
    """Eight blocks of a gru, forward and backward, with threads switching
    every microsecond: 20 rounds give the inline values and gradients."""
    monkeypatch.setattr(ad, "_CPUS", 8)
    rng = np.random.default_rng(8)
    shapes = [(5, 8, 3), (5, 8, 8), (11, 8), (8,), (11, 8), (8,), (11, 8), (8,)]
    cell = [Parameter(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]

    def run():
        for p in cell:
            p.zero_grad()
        out = gru([cell[0]], *cell[1:])
        backward(tsum(tanh(out)))
        return [out.data] + [p.grad.copy() for p in cell]

    with monkeypatch.context() as inline:
        inline.setattr(ad, "_CPUS", 1)
        want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert all(np.array_equal(a, b) for a, b in zip(want, run()))
    finally:
        sys.setswitchinterval(interval)
    assert len(split_everywhere) == 20 * (7 + 3)


@pytest.mark.parametrize("env,cpus", [
    ({}, 1),  # OpenBLAS takes every CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
])
def test_row_blocks_leave_blas_threads_their_cpus(monkeypatch, env, cpus):
    """Of 4 CPUs the row blocks take those the BLAS threads, as OpenBLAS
    reads them from the environment, leave over."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert ad._free_cpus() == cpus


def test_partial_column_tile_stays_inline(split_everywhere):
    """An output width that is not a whole number of 8-column tiles is not
    split, since its edge rows would round differently; the backward's
    weight gradient still goes to a worker, on the stream."""
    x = Parameter("x", np.ones((7, 3)))
    w = Parameter("w", np.ones((3, 12)))
    out = linear([x], w)
    assert split_everywhere == []
    backward(tsum(out))
    assert [(fn, args[1:3]) for fn, args in split_everywhere] == [
        (ad._add_term, (w, ad._stacked_t_at))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tape", [True, False])
@pytest.mark.parametrize("op", ["gru", "linear"])
def test_overflow_in_last_row_block_raises_silently(split_everywhere, op, tape):
    """A product that overflows only in rows a worker computes raises
    NumericError naming the op, with no numpy warning from that thread."""
    x = np.ones((7, 8))
    x[-1] = 1e300
    x = Parameter("x", x) if tape else x
    w = np.full((16, 8), 1e10)
    with pytest.raises(NumericError, match=f"'{op}'"):
        if op == "gru":
            gru([x], np.zeros((7, 8)), w, np.zeros(8), w, np.zeros(8), w, np.zeros(8))
        else:
            linear([x], w[:8], np.zeros(8), act="tanh")
    assert len(split_everywhere) == 2


def test_split_rows_joins_every_block_then_raises_the_first(split_everywhere):
    """Blocks 1 and 2 both fail: the caller sees block 1's error, and only
    after block 2, the slower one, has finished."""
    finished = []

    def part(lo, hi):
        if lo > 0:
            time.sleep(0.05 * lo)
            finished.append(lo)
            raise ValueError(lo)
        assert threading.current_thread() is threading.main_thread()

    with pytest.raises(ValueError) as err:
        ad._split_rows([0, 3, 6, 9], part)
    assert err.value.args == (3,) and sorted(finished) == [3, 6]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_split_op(monkeypatch, split_everywhere):
    """After a fork the child has none of the parent's worker threads; it
    makes its own pool and a split op in it finishes with the parent's
    values. With one worker, which is idle at the fork, the parent's pool
    would queue the child's block for a thread that does not exist."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    rng = np.random.default_rng(5)
    x, w = rng.normal(size=(7, 4)), rng.normal(size=(4, 8))
    want = linear([x], w).data
    assert ad._POOL is not None and split_everywhere
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(linear([x], w).data, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on a split op")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


# ---------------------------------------------------------------------------
# gru row tiles


@pytest.fixture
def tiles(monkeypatch):
    """Yields the row count of every tile `gru` runs, in any order."""
    counts = []
    rows = ad._gru_rows

    def counting(parents, xs, h, *rest):
        counts.append(len(h))
        return rows(parents, xs, h, *rest)

    monkeypatch.setattr(ad, "_gru_rows", counting)
    return counts


def _gru_cell(rng, lead, widths, n_h):
    """Inputs, h, the six weights and a decay slice of the model's layout
    (one factor per agent, cut from a (B, T, N, 1) array), as Parameters."""
    shapes = [lead + (n,) for n in widths] + [lead + (n_h,)] + [(sum(widths) + n_h, n_h),
                                                                 (n_h,)] * 3
    cell = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
            for i, shape in enumerate(shapes)]
    decay = rng.uniform(0.1, 1.0, size=(lead[0], 3, *lead[1:], 1))[:, 1]
    return cell, Parameter("decay", decay)


@pytest.mark.parametrize("decayed", [False, True])
def test_tiled_gru_is_bit_identical(monkeypatch, handed_off, tiles, decayed):
    """1,025 rows at H=16 run as 3 tiles on one CPU and as blocks of 512
    and 513 rows, the second in 2 tiles, on two: a no-grad call equals a
    recorded one, and both equal one untiled block, values and gradients
    bit for bit."""
    rng = np.random.default_rng(16 + decayed)
    cell, decay = _gru_cell(rng, (41, 25), (16, 224), 16)
    params = (*cell, decay) if decayed else cell
    (*inputs, h), weights = cell[:3], cell[3:]
    runs = []
    for cpus, tile_rows, want in ((1, 2048, [1025]), (1, 512, [341, 342, 342]),
                                  (2, 512, [256, 257, 512])):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        monkeypatch.setattr(ad, "_TILE_ROWS", tile_rows)
        with no_grad():
            free = gru(inputs, h, *weights, decay=decay if decayed else None).data
        for p in params:
            p.zero_grad()
        out = gru(inputs, h, *weights, decay=decay if decayed else None)
        backward(tsum(tanh(out)))
        assert sorted(tiles) == sorted(want * 2)
        tiles.clear()
        assert np.array_equal(free, out.data)
        runs.append([out.data] + [p.grad.copy() for p in params])
    assert len(handed_off) == 2  # the forwards on two CPUs; each weight gradient inline
    assert all(np.array_equal(a, b) for run in runs[1:] for a, b in zip(runs[0], run))


# (H, rows, _TILE_ROWS, tile rows): H=20 is not whole 8-column tiles, and no
# tile has fewer than 2 rows
TILINGS = [(20, 1025, 512, [1025]), (16, 5, 1, [2, 3])]


@pytest.mark.parametrize("n_h,m,tile_rows,want", TILINGS)
def test_gru_tiles_only_whole_column_tiles_of_two_rows(monkeypatch, tiles, n_h, m,
                                                       tile_rows, want):
    """The tiles of a one-block call, and its values against one tile."""
    rng = np.random.default_rng(n_h + m)
    cell, decay = _gru_cell(rng, (m,), (8,), n_h)
    monkeypatch.setattr(ad, "_CPUS", 1)
    with no_grad():
        whole = gru(cell[:1], *cell[1:], decay=decay).data
        monkeypatch.setattr(ad, "_TILE_ROWS", tile_rows)
        tiles.clear()
        assert np.array_equal(gru(cell[:1], *cell[1:], decay=decay).data, whole)
    assert tiles == want


def test_gru_of_no_rows(tiles):
    """A call over 0 rows, recorded or not, gives a (0, H) output and zero
    gradients."""
    rng = np.random.default_rng(17)
    cell, decay = _gru_cell(rng, (0,), (3,), 8)
    with no_grad():
        assert gru(cell[:1], *cell[1:], decay=decay).shape == (0, 8)
    out = gru(cell[:1], *cell[1:], decay=decay)
    backward(tsum(out))
    assert out.shape == (0, 8) and tiles == [0, 0]
    assert all(not p.grad.any() for p in (*cell, decay))


def test_unrecorded_gru_keeps_no_full_gate_array(monkeypatch):
    """A no-grad call at 8,192 rows, H=64, with the model's decay, peaks
    below one (2, rows, H) z|r array: it holds its output and one tile."""
    monkeypatch.setattr(ad, "_CPUS", 1)
    rng = np.random.default_rng(18)
    cell, decay = _gru_cell(rng, (128, 64), (16,), 64)
    tracemalloc.start()
    try:
        with no_grad():
            gru(cell[:1], *cell[1:], decay=decay)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8192 * 64 * 8


# ---------------------------------------------------------------------------
# the weight-gradient stream


def _terms(handed):
    return [args for fn, args in handed if fn is ad._add_term]


def test_reference_gru_backward_queues_its_weight_gradients(handed_off):
    """At the module's cutoffs on two CPUs, the backward of a
    reference-shape gru hands its three weight gradients, one per gate,
    to the stream, and the counter sees them."""
    rng = np.random.default_rng(9)
    weights = [Parameter(f"p{i}", rng.normal(size=shape))
               for i, shape in enumerate([(336, 256), (256,)] * 3)]
    out = gru([rng.normal(size=(640, 16)), rng.normal(size=(640, 64))],
              rng.normal(size=(640, 256)), *weights)
    assert len(handed_off) == 1
    backward(tmean(out))
    assert sorted(args[1].name for args in _terms(handed_off)) == ["p0", "p2", "p4"]
    assert ad._STREAM == [] and ad._QUEUED == {}


def test_train_step_with_queued_weight_gradients_is_bit_identical(monkeypatch, handed_off):
    """A train step at H=256, Z=64 on 16 x 10 agents, at the module's
    cutoffs on two CPUs, queues weight gradients and gives the losses,
    every gradient and every updated parameter of one CPU bit for bit."""
    seqs = generate_sequences(16, 10, 12, 3, seed=4)
    coords, masks = stack_arrays(build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                                               split="train", seed=4))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        model = TrajectoryModel(ModelConfig(t_past=12, t_future=3, seed=4))
        before = len(_terms(handed_off))
        losses = model.train_step(coords, masks, Adam(model.parameters()),
                                  rng=np.random.default_rng(4))
        assert (len(_terms(handed_off)) > before) == (cpus == 2)
        runs.append([np.float64(losses[k]) for k in sorted(losses)]
                    + [a for p in model.params.values() for a in (p.grad, p.data)])
    assert len(runs[0]) == len(runs[1])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("queued_first", [True, False])
def test_parameter_with_queued_and_inline_terms_is_bit_identical(monkeypatch, handed_off,
                                                                 queued_first):
    """One weight feeds a linear whose gradient is queued and one whose
    gradient runs inline, on top of a gradient already in .grad: the sum
    is added in firing order, as on one CPU, whichever fires first."""
    rng = np.random.default_rng(12)
    big, small = rng.normal(size=(2000, 64)), rng.normal(size=(3, 64))
    w = Parameter("w", rng.normal(size=(64, 64)))
    start = rng.normal(size=(64, 64))
    grads = []
    for cpus in (1, 2):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        w.grad[...] = start
        order = (small, big) if queued_first else (big, small)  # the later fires first
        outs = [linear([x], w) for x in order]
        backward(tmean(outs[0]) + tmean(outs[1]))
        grads.append(w.grad.copy())
    assert len(_terms(handed_off)) == 1
    assert np.array_equal(*grads)


def test_terms_of_one_weight_add_in_firing_order_on_a_wide_pool(monkeypatch, split_everywhere):
    """Twelve queued terms of one weight on a pool of 7 workers, each
    slower than the one after it, add up to the one-CPU bits: each term
    waits for the one queued before it."""
    monkeypatch.setattr(ad, "_CPUS", 8)
    rng = np.random.default_rng(15)
    w = Parameter("w", rng.normal(size=(16, 16)))
    xs = [rng.normal(scale=10.0 ** (i % 5), size=(4, 16)) for i in range(12)]
    start = rng.normal(size=(16, 16))
    product, calls = ad._stacked_t_at, []

    def slower_first(blocks, d):
        calls.append(None)
        time.sleep(0.002 * (12 - len(calls) % 12))
        return product(blocks, d)

    def run():
        w.grad[...] = start
        loss = tmean(linear([xs[0]], w))
        for x in xs[1:]:
            loss = loss + tmean(linear([x], w))
        backward(loss)
        return w.grad.copy()

    with monkeypatch.context() as inline:
        inline.setattr(ad, "_CPUS", 1)
        want = run()
    monkeypatch.setattr(ad, "_stacked_t_at", slower_first)
    for _ in range(3):
        assert np.array_equal(run(), want)
    assert len(_terms(split_everywhere)) == 36


@pytest.mark.parametrize("failing", ["node", "term", "both"])
def test_backward_that_raises_joins_every_queued_term(monkeypatch, split_everywhere, failing):
    """A node's backward raises while a slow queued term runs: backward
    joins the term before the error leaves it, so no .grad changes
    afterwards. A term's own error is raised only when no node failed."""
    rng = np.random.default_rng(13)
    a = Parameter("a", rng.normal(size=(4, 8)))
    w = Parameter("w", rng.normal(size=(8, 8)))
    x = rng.normal(size=(6, 8))
    want = x.T @ np.full((6, 8), 1.0 / 48)  # d mean(x @ w) / dw
    product = ad._stacked_t_at

    def slow(blocks, d):
        time.sleep(0.2)
        if failing != "node":
            raise ValueError("term")
        return product(blocks, d)

    monkeypatch.setattr(ad, "_stacked_t_at", slow)
    scaled = mul(a, 2.0)  # made first, so it fires last
    loss = tmean(scaled) + tmean(linear([x], w))
    if failing != "term":
        scaled._backward = lambda grad: (_ for _ in ()).throw(RuntimeError("node"))
    with pytest.raises(RuntimeError if failing != "term" else ValueError):
        backward(loss)
    assert ad._STREAM == [] and ad._QUEUED == {}
    after = w.grad.copy()
    time.sleep(0.3)
    assert np.array_equal(w.grad, after)
    assert np.array_equal(after, np.zeros((8, 8)) if failing != "node" else want)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_backward_with_queued_terms(monkeypatch, split_everywhere):
    """After a fork the child has neither the parent's worker nor its
    stream; a backward in it queues its weight gradients on a pool of its
    own and leaves the parent's gradients."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    rng = np.random.default_rng(6)
    x, w = rng.normal(size=(7, 4)), Parameter("w", rng.normal(size=(4, 8)))
    backward(tmean(linear([x], w)))
    want = w.grad.copy()
    assert _terms(split_everywhere) and ad._POOL is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            w.zero_grad()
            backward(tmean(linear([x], w)))
            code = 0 if np.array_equal(w.grad, want) and _terms(split_everywhere) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on a queued weight gradient")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_stream_holds_at_most_its_depth(monkeypatch, split_everywhere):
    """With a slow worker the caller waits for the oldest term, so no more
    than `_STREAM_DEPTH` terms are ever outstanding, and each is added."""
    monkeypatch.setattr(ad, "_STREAM_DEPTH", 3)
    product, submit, outstanding = ad._stacked_t_at, ad._submit, []

    def slow(blocks, d):
        time.sleep(0.01)
        return product(blocks, d)

    def watched(fn, *args):
        if fn is ad._add_term:
            outstanding.append(sum(not term.done() for term in ad._STREAM))
        return submit(fn, *args)

    monkeypatch.setattr(ad, "_stacked_t_at", slow)
    monkeypatch.setattr(ad, "_submit", watched)
    rng = np.random.default_rng(14)
    ws = [Parameter(f"w{i}", np.zeros((4, 8))) for i in range(10)]
    x = rng.normal(size=(5, 4))
    loss = tmean(linear([x], ws[0]))
    for w in ws[1:]:
        loss = loss + tmean(linear([x], w))
    backward(loss)
    assert len(outstanding) == 10 and max(outstanding) == 2
    assert all(np.array_equal(w.grad, x.T @ np.full((5, 8), 1.0 / 40)) for w in ws)
