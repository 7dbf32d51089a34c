import warnings
import zlib

import numpy as np
import pytest

from trajvrnn import autodiff as ad
from trajvrnn.autodiff import (
    Parameter, Tensor, backward, clamp, concat, div, exp, getitem, grad_check,
    gru, linear, log, matmul, maximum_scalar, minimum_scalar, mul, no_grad,
    relu, reshape, sigmoid, tanh, tmean, transpose, tsum,
)
from trajvrnn.errors import NumericError, ShapeError


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
        (ad.sub, x - y),
        (ad.mul, x * y),
        (ad.div, x / y),
    ]
    for op, expected in checks:
        np.testing.assert_allclose(op(Tensor(x), Tensor(y)).data, expected)
    np.testing.assert_allclose(exp(Tensor(x)).data, np.exp(x))
    np.testing.assert_allclose(log(Tensor(y)).data, np.log(y))
    np.testing.assert_allclose(tanh(Tensor(x)).data, np.tanh(x))
    np.testing.assert_allclose(sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)))
    np.testing.assert_allclose(maximum_scalar(Tensor(x), 0.1).data, np.maximum(x, 0.1))
    np.testing.assert_allclose(minimum_scalar(Tensor(x), 0.1).data, np.minimum(x, 0.1))
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
        getattr(ad, op_name)(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid(Tensor([-1000.0])).data[0] == 0.0
        with pytest.raises(NumericError, match="'exp'"):
            exp(Tensor([1000.0]))


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


@pytest.mark.parametrize("op_name", [
    "matmul", "matmul3d", "add", "add_fanout", "sub", "mul", "div", "concat",
    "exp", "log", "tanh", "sigmoid", "relu", "maxs", "mins", "sum", "mean",
    "reshape", "slice", "bcast", "gru", "linear", "linear2", "clamp",
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

    def add_fanout():
        # backward reaches the add first, which hands one gradient to the
        # interior nodes ta and tb; the mul then adds a second one into
        # each. Had both stored that gradient uncopied, the `+=` on ta's
        # buffer would also land in tb's.
        ta, tb = tanh(a), tanh(b * 0.3)
        return tsum(tanh(ta + tb)) + tsum(ta * tb)

    builders = {
        "matmul": lambda: tsum(tanh(matmul(a, w))),
        # a batched left operand against a 2-D weight, also non-contiguous
        "matmul3d": lambda: (tsum(tanh(matmul(c, w)))
                             + tsum(tanh(matmul(transpose(c, 0, 1), w)))),
        "add_fanout": add_fanout,
        "gru": lambda: tsum(tanh(gru(*cell))),
        "linear": lambda: tsum(tanh(linear([a], w, lb))),
        # two inputs of different widths, so a block offset mix-up shows
        "linear2": lambda: tsum(tanh(linear([c, d], v, lb))),
        "clamp": lambda: tsum(tanh(clamp(k, -1.0, 1.0) * 1.5)),
        "add": lambda: tsum(tanh(a + b)),
        "sub": lambda: tsum(tanh(a - b)),
        "mul": lambda: tsum(tanh(a * b)),
        "div": lambda: tsum(tanh(a / b)),
        "concat": lambda: tsum(tanh(concat([a, b], axis=-1))),
        "exp": lambda: tsum(exp(a * 0.3)),
        "log": lambda: tsum(log(b)),
        "tanh": lambda: tsum(tanh(a)),
        "sigmoid": lambda: tsum(sigmoid(a)),
        "relu": lambda: tsum(relu(a + 0.05)),
        "maxs": lambda: tsum(maximum_scalar(a, 0.25)),
        "mins": lambda: tsum(minimum_scalar(a, -0.25)),
        "sum": lambda: tsum(tanh(tsum(a, axis=0))),
        "mean": lambda: tsum(tanh(tmean(a, axis=1))),
        "reshape": lambda: tsum(tanh(reshape(a, (2, 6)))),
        "slice": lambda: tsum(tanh(a[:, 1:3])),
        "bcast": lambda: tsum(tanh(a * b[0:1, :])),
    }
    params = [p for p in (a, b, w, c, *cell, d, v, lb, k) if _touches(op_name, p.name)]
    assert grad_check(builders[op_name], params) <= 1e-4


def _touches(op_name, pname):
    if op_name == "matmul":
        return pname in ("a", "w")
    if op_name == "matmul3d":
        return pname in ("c", "w")
    if op_name == "gru":
        return pname in GRU_SHAPES
    if op_name == "linear":
        return pname in ("a", "w", "lb")
    if op_name == "linear2":
        return pname in ("c", "d", "v", "lb")
    if op_name == "clamp":
        return pname == "k"
    if op_name in ("exp", "tanh", "sigmoid", "relu", "maxs", "mins", "sum",
                   "mean", "reshape", "slice"):
        return pname == "a"
    if op_name == "log":
        return pname == "b"
    return pname in ("a", "b")


def _composed_gru(x, h, wz, bz, wr, br, wh, bh):
    xh = concat([x, h], axis=-1)
    z = sigmoid(matmul(xh, wz) + bz)
    r = sigmoid(matmul(xh, wr) + br)
    cand = tanh(matmul(concat([x, r * h], axis=-1), wh) + bh)
    return (1.0 - z) * h + z * cand


@pytest.mark.parametrize("lead,n_x,n_h", [((2, 3), 3, 4), ((64, 10), 80, 256)])
def test_gru_matches_composed_cell(lead, n_x, n_h):
    """Forward bit-equal to the cell composed of primitives, with and
    without the tape; gradients equal to it up to reassociation."""
    rng = np.random.default_rng(n_h)
    shapes = [lead + (n_x,), lead + (n_h,)] + [(n_x + n_h, n_h), (n_h,)] * 3
    cell = [Parameter(f"p{i}", rng.normal(size=shape) / np.sqrt(shape[0]))
            for i, shape in enumerate(shapes)]
    composed = _composed_gru(*cell)
    fused = gru(*cell)
    assert fused.op == "gru" and fused.parents == tuple(cell)
    assert np.array_equal(fused.data, composed.data)
    with no_grad():
        assert np.array_equal(gru(*cell).data, composed.data)
    grads = []
    for out in (composed, fused):
        for p in cell:
            p.zero_grad()
        backward(tsum(tanh(out)))
        grads.append([p.grad.copy() for p in cell])
    for want, got in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gru_rejects_mismatched_shapes():
    cell = [Tensor(np.ones(shape)) for shape in GRU_SHAPES.values()]
    cell[1] = Tensor(np.ones((3, 2, 4)))
    with pytest.raises(ShapeError, match="gru"):
        gru(*cell)


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
