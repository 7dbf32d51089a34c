import numpy as np
import pytest

from trajvrnn.autodiff import Parameter
from trajvrnn.errors import ConfigError, NumericError
from trajvrnn.optim import Adam


def test_first_step_closed_form():
    # g=1 everywhere: m_hat = v_hat = 1, so the step is lr / (1 + eps)
    p = Parameter("p", [1.0, 1.0])
    opt = Adam([p], lr=0.001)
    p.grad[...] = 1.0
    opt.step()
    expected = 1.0 - 0.001 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected, expected], rtol=0, atol=1e-15)
    assert abs(1.0 - p.data[0] - 0.001) < 1e-6


def test_zero_gradient_is_identity():
    p = Parameter("p", [[0.3, -0.7]])
    before = p.data.copy()
    opt = Adam([p])
    for _ in range(5):
        opt.zero_grad()
        opt.step()
    assert np.array_equal(p.data, before)


def test_lr_decay_every_20_epochs():
    opt = Adam([Parameter("p", [0.0])], lr=0.001)
    for epoch in range(1, 21):
        opt.epoch_tick(epoch)
    assert opt.lr == 0.001 * 0.9
    for epoch in range(21, 41):
        opt.epoch_tick(epoch)
    assert opt.lr == 0.001 * 0.9 * 0.9


def test_non_boundary_epochs_keep_lr():
    opt = Adam([Parameter("p", [0.0])], lr=0.001)
    for epoch in (1, 5, 19):
        opt.epoch_tick(epoch)
    assert opt.lr == 0.001


def test_missing_gradient_rejected():
    p = Parameter("p", [1.0])
    opt = Adam([p])
    p.grad = None
    with pytest.raises(ConfigError):
        opt.step()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_raises_before_any_update(bad):
    """A non-finite entry in the second of two gradients raises
    NumericError naming that parameter, with no warning, and leaves both
    parameters, both moments and the step count as they were."""
    q, w = Parameter("q", [0.5, -0.5]), Parameter("w", [1.0, 2.0, 3.0])
    opt = Adam([q, w], lr=0.01)
    q.grad[...] = 1.0
    w.grad[...] = 1.0
    opt.step()
    state = [a.copy() for a in (q.data, w.data, *opt.state_arrays().values())]
    w.grad[...] = [1.0, bad, 0.0]
    with pytest.raises(NumericError, match="'w'"):
        opt.step()
    assert opt.step_count == 1
    after = (q.data, w.data, *opt.state_arrays().values())
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


def test_misshapen_gradient_leaves_earlier_parameters(monkeypatch):
    """A gradient of the wrong shape on the second parameter raises before
    the first one moves."""
    q, w = Parameter("q", [0.5]), Parameter("w", [1.0, 2.0])
    opt = Adam([q, w])
    q.grad[...] = 1.0
    w.grad = np.ones(3)
    with pytest.raises(ConfigError, match="'w'"):
        opt.step()
    assert q.data[0] == 0.5 and opt.step_count == 0


def test_state_roundtrip():
    rng = np.random.default_rng(3)
    p = Parameter("p", rng.normal(size=(2, 2)))
    opt = Adam([p], lr=0.01)
    for _ in range(3):
        p.grad = rng.normal(size=(2, 2))
        opt.step()
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}

    opt2 = Adam([p], lr=0.01)
    opt2.load_state(arrays, step_count=opt.step_count, lr=opt.lr)
    assert opt2.step_count == opt.step_count
    assert np.array_equal(opt2.m["p"], opt.m["p"])
    assert np.array_equal(opt2.v["p"], opt.v["p"])


@pytest.mark.parametrize("kwargs", [dict(lr=-0.1), dict(lr=float("nan")), dict(lr=float("inf")),
                                    dict(decay_factor=-0.5), dict(decay_factor=float("nan")),
                                    dict(decay_factor=float("inf")), dict(decay_interval=-5)])
def test_bad_schedule_is_a_config_error(kwargs):
    """Library callers build Adam without a checked ModelConfig, so the
    optimizer checks its own schedule; 0 stays allowed for each."""
    with pytest.raises(ConfigError, match="Adam"):
        Adam([Parameter("p", [1.0])], **kwargs)
    Adam([Parameter("p", [1.0])], lr=0.0, decay_factor=0.0, decay_interval=0)
