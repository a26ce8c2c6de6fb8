"""Flat key = value run configuration with lossless file round-tripping.

Every knob has an overridable default. A config file sets keys first, then
each ``key=value`` override in order; no environment variable sets a key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .hashing import MAX_LABELS


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    tile_px: int = 500
    n_bits: int = 32
    k: int = 0  # 0 selects the bucket count from [k_min, k_max]
    k_min: int = 2
    k_max: int = 10
    feature_dim: int = 48
    workers: int = 4
    devices: int = 4
    tickets_per_device: int = 2
    ticket_timeout_s: float = 30.0
    batch: int = 12
    seed: int = 0
    task: str = "building"
    scenes: int = 3
    scene_px: int = 1500
    gsd_m: float = 0.5
    distributions: int = 6

    def validate(self) -> "RunConfig":
        if self.tile_px <= 0:
            raise ConfigError(f"tile_px must be positive, got {self.tile_px}")
        if self.n_bits <= 0:
            raise ConfigError(f"n_bits must be positive, got {self.n_bits}")
        if self.k < 0 or self.k_min < 1 or self.k_max < self.k_min:
            raise ConfigError("bucket count range is inconsistent")
        if max(self.k, self.k_max) > MAX_LABELS:
            raise ConfigError(
                f"k and k_max must be at most {MAX_LABELS}, the most buckets fit_hash scores"
            )
        if min(self.workers, self.devices, self.tickets_per_device, self.batch) < 1:
            raise ConfigError("workers, devices, tickets_per_device, batch must be >= 1")
        if self.scenes < 1 or self.scene_px < 1:
            raise ConfigError("scenes and scene_px must be >= 1")
        if self.distributions < 1:
            raise ConfigError("distributions must be >= 1")
        if self.gsd_m <= 0:
            raise ConfigError("gsd_m must be positive")
        return self


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(raw: str, typ, key: str):
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def emit_config(config: RunConfig) -> str:
    return "".join(f"{f.name} = {_render(getattr(config, f.name))}\n" for f in fields(RunConfig))


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    config = base if base is not None else RunConfig()
    # field annotations are strings under future annotations; take types from defaults
    field_types = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in field_types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        setattr(config, key, _parse_value(raw, field_types[key], key))
    return config


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a config from file, then ``key=value`` overrides."""
    config = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {p} is not UTF-8: {e}") from e
        config = parse_config(text, base=config)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        config = parse_config(item, base=config)
    return config.validate()
