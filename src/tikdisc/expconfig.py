"""Flat key=value experiment configs with bracketed section headers.

The format is deliberately dependency-free and diff-friendly: sections in
brackets, ``key = value`` lines, comma-separated lists.  Every key is
validated against the schema of the experiment kind; unknown sections or
keys are errors naming the offender.  ``effective_text`` prints the fully
resolved configuration (defaults filled in), which the runners echo into
``summary.txt`` so a run can be reproduced from its output alone.

The alpha grid may contain the data-dependent tokens ``sqrt_delta``,
``delta``, and ``delta_sq`` alongside plain numbers (including 0), resolved
once the noise level of the generated data is known.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .discrepancy import DiscrepancyBand

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config_text",
           "resolve_alphas", "ALPHA_TOKENS"]

KINDS = ("pde-sweep", "linear-oracle", "rate-study", "sequential-demo")
ALPHA_TOKENS = ("sqrt_delta", "delta", "delta_sq")

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration problem; the message names the section/key at fault."""


def _parse_float_list(text: str) -> tuple:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(float(t) for t in items)


def _parse_int_list(text: str) -> tuple:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(int(t) for t in items)


def _parse_alpha_list(text: str) -> tuple:
    out = []
    for token in (t.strip() for t in text.split(",") if t.strip()):
        if token in ALPHA_TOKENS:
            out.append(token)
        else:
            out.append(float(token))
    return tuple(out)


def _parse_choice(*choices):
    def parse(text: str) -> str:
        t = text.strip()
        if t not in choices:
            raise ValueError(f"expected one of {choices}, got {t!r}")
        return t
    return parse


_COMMON = {
    "experiment": {
        "kind": (_parse_choice(*KINDS), _REQUIRED),
        "seed": (int, 0),
        "out": (str, "out"),
        "workers": (int, 1),
    },
    "band": {
        "tau": (float, 1.025),
        "lambda": (float, 1.125),
        "tau1": (float, None),
        "tau2": (float, None),
    },
}

_SCHEMAS = {
    "pde-sweep": {
        **_COMMON,
        "noise": {
            "std": (float, 0.01),
        },
        "grids": {
            "fine_dtau": (float, 0.0025),
            "fine_dy": (float, 0.01),
            "solver_dtau": (float, 0.02),
            "solver_dy": (float, 0.1),
        },
        "coefficient_meshes": {
            "dtau_list": (_parse_float_list,
                          (0.1, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01,
                           0.0075, 0.005, 0.0025)),
            "dy_list": (_parse_float_list,
                        (0.25, 0.22, 0.20, 0.17, 0.15, 0.13, 0.11, 0.1, 0.05,
                         0.04, 0.02, 0.01)),
        },
        "pde": {
            "b": (float, 0.03),
            "a0": (float, 0.08),
            "a_min": (float, 0.005),
            "a_max": (float, 1.0),
        },
        "penalty": {
            "beta1": (float, 0.5),
            "beta2_per_dy": (float, 0.25),
            "beta3_per_dtau": (float, 0.25),
        },
        "alphas": {
            "values": (_parse_alpha_list,
                       (0.25, 0.1, "sqrt_delta", 0.01, 0.006, "delta", 0.001,
                        5e-4, 1e-4, 5e-5, "delta_sq", 0.0)),
        },
        "optimize": {
            "max_iters": (int, 500),
            "rel_residual_tol": (float, 1e-4),
        },
    },
    "linear-oracle": {
        **_COMMON,
        "oracle": {
            "instances": (int, 100),
            "n_max": (int, 8),
            "cond_max": (float, 100.0),
            "alpha_min": (float, 1e-4),
            "alpha_max": (float, 1e2),
            "noise": (float, 0.05),
            "tolerance": (float, 1e-6),
        },
    },
    "rate-study": {
        **_COMMON,
        "rates": {
            "deltas": (_parse_float_list, (1e-1, 1e-2, 1e-3, 1e-4)),
            "n": (int, 6),
            "levels": (_parse_int_list, (3, 6)),
            "spectrum_min": (float, 1.0),
            "spectrum_max": (float, 3.0),
            "tol": (float, 1e-3),
        },
    },
    "sequential-demo": {
        **_COMMON,
        "sequential": {
            "tau_tilde": (float, 1.2),
            "alpha0": (float, 1.0),
            "q": (float, 0.5),
            "kmax": (int, 30),
            "delta": (float, 0.1),
        },
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration (defaults filled)."""

    kind: str
    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def effective_text(self) -> str:
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                val = self.values[section][key]
                lines.append(f"{key} = {_format_value(val)}")
            lines.append("")
        return "\n".join(lines)


def _format_value(val) -> str:
    if isinstance(val, tuple):
        return ", ".join(_format_value(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    if val is None:
        return "none"
    return str(val)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    if not parser.has_section("experiment") or not parser.has_option("experiment", "kind"):
        raise ConfigError(f"{source}: missing [experiment] kind")
    kind = parser.get("experiment", "kind").strip()
    if kind not in KINDS:
        raise ConfigError(f"{source}: unknown experiment kind {kind!r}, expected one of {KINDS}")
    schema = _SCHEMAS[kind]

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"{source}: unknown section [{section}] for kind {kind}")
        for key in parser.options(section):
            if key not in schema[section]:
                raise ConfigError(f"{source}: unknown key {key!r} in section [{section}]")

    values = {}
    for section, keys in schema.items():
        values[section] = {}
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[section][key] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"{source}: bad value for [{section}] {key}: {exc}") from exc
            elif default is _REQUIRED:
                raise ConfigError(f"{source}: missing required key {key!r} in [{section}]")
            else:
                values[section][key] = default

    band = values["band"]
    try:
        resolved = DiscrepancyBand(tau=band["tau"], lam=band["lambda"],
                                   tau1=band["tau1"], tau2=band["tau2"])
    except ValueError as exc:
        raise ConfigError(f"{source}: bad [band]: {exc}") from exc
    band["tau1"], band["tau2"] = resolved.tau1, resolved.tau2

    cfg = ExperimentConfig(kind=kind, values=values)
    _validate_semantics(cfg, source)
    return cfg


def _validate_semantics(cfg: ExperimentConfig, source: str) -> None:
    if cfg.kind == "pde-sweep":
        meshes = cfg.get("coefficient_meshes", "dtau_list"), cfg.get("coefficient_meshes", "dy_list")
        if not meshes[0] or not meshes[1]:
            raise ConfigError(f"{source}: coefficient mesh lists must be non-empty")
        if len(meshes[0]) != len(meshes[1]):
            raise ConfigError(f"{source}: dtau_list and dy_list are zipped and need equal "
                              f"lengths ({len(meshes[0])} vs {len(meshes[1])})")
        if not 0.0 < cfg.get("pde", "a_min") <= cfg.get("pde", "a_max"):
            raise ConfigError(f"{source}: need 0 < a_min <= a_max")
        if not cfg.get("pde", "a_min") <= cfg.get("pde", "a0") <= cfg.get("pde", "a_max"):
            raise ConfigError(f"{source}: [pde] a0 must lie in [a_min, a_max]")
        if cfg.get("noise", "std") < 0.0:
            raise ConfigError(f"{source}: [noise] std must be non-negative")
        if any(isinstance(a, float) and a < 0.0 for a in cfg.get("alphas", "values")):
            raise ConfigError(f"{source}: alpha values must be non-negative")
        if cfg.get("optimize", "max_iters") < 1:
            raise ConfigError(f"{source}: [optimize] max_iters must be >= 1")
        if not cfg.get("optimize", "rel_residual_tol") > 0.0:
            raise ConfigError(f"{source}: [optimize] rel_residual_tol must be positive")
    if cfg.kind == "linear-oracle":
        if cfg.get("oracle", "n_max") < 2:
            raise ConfigError(f"{source}: [oracle] n_max must be >= 2")
        if not 0.0 < cfg.get("oracle", "alpha_min") <= cfg.get("oracle", "alpha_max"):
            raise ConfigError(f"{source}: [oracle] need 0 < alpha_min <= alpha_max")
    if cfg.kind == "rate-study":
        deltas = cfg.get("rates", "deltas")
        if len(deltas) < 3:
            raise ConfigError(f"{source}: a rate study needs at least 3 noise levels")
        if not all(d > 0.0 for d in deltas):
            raise ConfigError(f"{source}: [rates] deltas must all be positive")
        levels, n = cfg.get("rates", "levels"), cfg.get("rates", "n")
        if (not levels or levels[0] < 1 or levels[-1] != n
                or any(a >= b for a, b in zip(levels, levels[1:]))):
            raise ConfigError(f"{source}: [rates] levels must be >= 1, strictly increasing "
                              f"and end at n = {n}")
    if cfg.kind == "sequential-demo":
        if not cfg.get("sequential", "tau_tilde") > 1.0:
            raise ConfigError(f"{source}: [sequential] tau_tilde must exceed 1")
        if not cfg.get("sequential", "alpha0") > 0.0:
            raise ConfigError(f"{source}: [sequential] alpha0 must be positive")
        if not 0.0 < cfg.get("sequential", "q") < 1.0:
            raise ConfigError(f"{source}: [sequential] q must lie in (0, 1)")
    if cfg.get("experiment", "seed") < 0:
        raise ConfigError(f"{source}: [experiment] seed must be >= 0")
    if cfg.get("experiment", "workers") < 1:
        raise ConfigError(f"{source}: workers must be >= 1")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def resolve_alphas(tokens, delta: float) -> tuple:
    """Replace data-dependent tokens with their values for the given delta."""
    out = []
    for token in tokens:
        if token == "sqrt_delta":
            out.append(float(delta) ** 0.5)
        elif token == "delta":
            out.append(float(delta))
        elif token == "delta_sq":
            out.append(float(delta) ** 2)
        else:
            out.append(float(token))
    return tuple(out)
