"""Run configuration: a strict key=value text format.

One `key=value` per line, `#` comments and blank lines allowed. Unknown
keys are rejected outright so an ablation-flag typo cannot silently run
the wrong experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .data import DEFAULT_CAMERA
from .errors import ConfigError
from .model import ModelConfig

_MODEL_FIELDS = {f.name: f for f in fields(ModelConfig)}


@dataclass
class RunConfig(ModelConfig):
    # datasets and artifacts
    train_path: str = ""
    test_path: str = ""
    # training loop
    epochs: int = 200
    batch_size: int = 64
    checkpoint_every: int = 20
    normalize: bool = True   # fit coord_center/coord_scale on the train data
    # dataset generation
    gen_count: int = 1000
    gen_n_agents: int = 10
    gen_modes: tuple = ("circle", "camera")
    gen_circle_radii: tuple = (3.0, 5.0, 7.0)
    gen_camera_angles: tuple = (10.0, 20.0, 30.0)
    gen_camera: tuple = DEFAULT_CAMERA
    gen_split: str = "train"          # or "test", drawn from seed + cli.TEST_SEED_OFFSET

    def __post_init__(self):
        super().__post_init__()
        if self.gen_split not in ("train", "test"):
            raise ConfigError(f"gen_split must be train or test, got {self.gen_split!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0 (0: no periodic checkpoints)")
        for mode in self.gen_modes:
            if mode not in ("circle", "camera"):
                raise ConfigError(f"unknown generation mode {mode!r}")

    def model_config(self) -> ModelConfig:
        values = {name: getattr(self, name) for name in _MODEL_FIELDS}
        return ModelConfig(**values)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_STR_TUPLES = {"gen_modes"}
_DEFAULTS = RunConfig()


def format_value(name: str, value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(format_value(name, v) for v in value)
    if isinstance(value, float):
        return repr(float(value))  # shortest exact round-trip
    return str(value)


def parse_value(name: str, text: str, py_type):
    text = text.strip()
    try:
        if py_type is bool:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if py_type is int:
            return int(text)
        if py_type is float:
            return float(text)
        if py_type is tuple:
            if not text:
                return ()
            items = [t.strip() for t in text.split(",")]
            if name in _STR_TUPLES:
                return tuple(items)
            return tuple(float(t) for t in items)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from None


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse key=value text into a RunConfig; unknown keys are an error."""
    values = asdict(base) if base is not None else {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        values[key] = parse_value(key, value, type(getattr(_DEFAULTS, key)))
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def format_config(cfg) -> str:
    lines = [f"{f.name}={format_value(f.name, getattr(cfg, f.name))}"
             for f in fields(cfg)]
    return "\n".join(lines) + "\n"
