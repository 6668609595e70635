"""Run configuration with 12-factor style layering.

Precedence, lowest to highest: built-in defaults, then a flat key = value
config file, then command-line flags, then environment variables prefixed
LH_ (e.g. LH_J_MAX=400).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

ENV_PREFIX = "LH_"

FORMAT_CHOICES = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    j_max: int = 200
    cauchy_tolerance: float = 1e-6
    cauchy_window: int = 10
    format: str = "json"
    out: Optional[str] = None
    det_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")
        if self.cauchy_tolerance <= 0 or self.det_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.cauchy_window < 1:
            raise ValueError("cauchy_window must be >= 1")
        if self.format not in FORMAT_CHOICES:
            raise ValueError(f"format must be one of {FORMAT_CHOICES}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str) -> Any:
    raw = raw.strip()
    if name in ("j_max", "cauchy_window"):
        return int(raw)
    if name in ("cauchy_tolerance", "det_tolerance"):
        return float(raw)
    if name == "out":
        return raw or None
    return raw


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    out: dict[str, Any] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def env_overrides(environ: Optional[dict] = None) -> dict[str, Any]:
    environ = os.environ if environ is None else environ
    out: dict[str, Any] = {}
    for name in _FIELD_TYPES:
        env_name = ENV_PREFIX + name.upper()
        if env_name in environ:
            out[name] = _coerce(name, environ[env_name])
    return out


def load_run_config(
    config_path: Optional[str] = None,
    flag_overrides: Optional[dict[str, Any]] = None,
    environ: Optional[dict] = None,
) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **parse_config_file(config_path))
    if flag_overrides:
        cfg = replace(cfg, **{k: v for k, v in flag_overrides.items() if v is not None})
    env = env_overrides(environ)
    if env:
        cfg = replace(cfg, **env)
    return cfg


__all__ = [
    "ENV_PREFIX",
    "FORMAT_CHOICES",
    "RunConfig",
    "env_overrides",
    "load_run_config",
    "parse_config_file",
]
