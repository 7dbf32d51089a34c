"""The benchmark's tracer still finds every library name it wraps.

`perfbench/tracing.py` replaces public callables of the library with
timed wrappers, looked up by name; a renamed or deleted one would only
show when the benchmark runs with `--trace 1`. This test installs the
tracer, runs one small train step and one inference, and checks the call
counts of the recurrence, the encoder and the two loss terms and that
`close` puts every original back.
"""

import importlib.util
from pathlib import Path

import numpy as np

from trajvrnn.model import ModelConfig, TrajectoryModel
from trajvrnn.optim import Adam

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_wrap_and_restore_the_library():
    tracing = _load_tracing()
    cfg = ModelConfig(n_agents_max=4, d_embed=4, d_graph=4, d_hidden=8, d_latent=8,
                      ec_hidden=4, ec_pool=2, t_past=4, t_future=2, seed=0)
    model = TrajectoryModel(cfg)
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(2, cfg.t_past + cfg.t_future, 3, 2)).cumsum(axis=1)
    mask = (rng.random((2, cfg.t_past, 3)) > 0.3).astype(float)
    steps = cfg.t_past + cfg.t_future

    tracer = tracing.Tracer()
    tracing.install(tracer)
    hooks = list(tracer._restore)
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in hooks)
        tracer.step = "train"
        model.train_step(coords, mask, Adam(model.parameters(), lr=0.0),
                         rng=np.random.default_rng(1))
        tracer.step = "infer"
        model.run_inference(coords[:, :cfg.t_past], mask, seed=2)
    finally:
        tracer.close()

    spans = tracer.per_step()
    # the last future step's recurrence is skipped: its state is never read
    assert spans["train"]["model.gru"][2] == steps - 1
    # training encodes each window once, inference each step it runs
    assert spans["train"]["graph.encoder"][2] == 2
    # the loss terms are looked up through the module on every step
    assert spans["train"]["model.nll"][2] == steps
    assert spans["train"]["model.kl"][2] == steps
    assert spans["infer"]["model.gru"][2] == steps - 1
    assert spans["infer"]["graph.encoder"][2] == steps - 1
    assert tracer.counts["train"]["tape.nodes"] > 0
    assert tracer.counts["train"]["tape.concat"] == 0
    assert all(getattr(owner, attr) is orig for owner, attr, orig in hooks)
