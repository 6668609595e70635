"""Run configuration with 12-factor style layering.

RunConfig's fields are the one list of settings.  Each is a config-file key
and an environment variable LH_<NAME> (e.g. LH_J_MAX=400), and the CLI flag
for it, if any, has the field's name as its dest.  Text from the file or the
environment is read by the parser of the field's annotation.  Precedence,
lowest to highest: built-in defaults, then a flat key = value config file,
then command-line flags, then environment variables; each layer is checked
by its own dataclasses.replace.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Optional

from .reports import check_cauchy

ENV_PREFIX = "LH_"

FORMAT_CHOICES = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    j_max: int = 200
    cauchy_tolerance: float = 1e-6
    cauchy_window: int = 10
    format: str = "json"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")
        check_cauchy(self.cauchy_tolerance, self.cauchy_window)
        if self.format not in FORMAT_CHOICES:
            raise ValueError(f"format must be one of {FORMAT_CHOICES}")


# each setting's parser, keyed by its RunConfig annotation
_PARSERS = {"int": int, "float": float, "str": str, "Optional[str]": lambda raw: raw or None}


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
    out: dict[str, Any] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = parsers[key](value.strip())
    return out


def env_overrides(environ: Optional[dict] = None) -> dict[str, Any]:
    environ = os.environ if environ is None else environ
    out: dict[str, Any] = {}
    for f in fields(RunConfig):
        env_name = ENV_PREFIX + f.name.upper()
        if env_name in environ:
            out[f.name] = _PARSERS[f.type](environ[env_name].strip())
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
