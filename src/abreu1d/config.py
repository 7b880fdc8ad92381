"""Run configuration: a JSON document validated into typed pieces."""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from .grid import Grid, build_grid
from .lagrangian import CUSTOM_REGISTRY, LagrangianSpec, check_partials, make_rochet_chone
from .solver import ProblemSetup, Tolerances, check_schedule, default_eps_schedule, make_setup


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _check_keys(doc, allowed, where: str) -> None:
    """Reject a `doc` that is not a mapping or holds a key outside `allowed`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _integer(value, name: str) -> int:
    """`value` if JSON gave an integer: 64.9 or "64" is an error, not a truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _finite(value, name: str) -> float:
    """`float(value)` if that is finite: JSON's NaN and Infinity are errors."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


@dataclass
class RunConfig:
    grid_n: int
    grid_a: float
    grid_b: float
    phi: list[float]
    preset: str
    eta0: Optional[list[float]]  # polynomial weight; given for `rochet_chone` only
    rho_minus: float
    rho_plus: float
    eps_schedule: Union[dict, list[float]]
    tolerances: Tolerances = field(default_factory=Tolerances)
    outputs: str = "out"

    def to_dict(self) -> dict:
        lagrangian = {"preset": self.preset}
        if self.eta0 is not None:
            lagrangian["eta0"] = list(self.eta0)
        return {
            "grid": {"n": self.grid_n, "a": self.grid_a, "b": self.grid_b},
            "phi": list(self.phi),
            "lagrangian": lagrangian,
            "rho_minus": self.rho_minus,
            "rho_plus": self.rho_plus,
            "eps_schedule": self.eps_schedule,
            "tolerances": asdict(self.tolerances),
            "outputs": self.outputs,
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        sections = {
            "grid": ("n", "a", "b"),
            "lagrangian": ("preset", "eta0"),
            "tolerances": [f.name for f in fields(Tolerances)],
        }
        _check_keys(doc, ("phi", "rho_minus", "rho_plus", "eps_schedule", "outputs", *sections),
                    "config")
        for key, allowed in sections.items():
            _check_keys(doc.get(key, {}), allowed, key)
        if isinstance(doc.get("eps_schedule"), dict):
            _check_keys(doc["eps_schedule"], ("start", "ratio", "stages"), "eps_schedule")
        tols = doc.get("tolerances", {})
        try:
            grid = doc["grid"]
            lag = doc["lagrangian"]
            cfg = RunConfig(
                grid_n=_integer(grid["n"], "grid.n"),
                grid_a=_finite(grid["a"], "grid.a"),
                grid_b=_finite(grid["b"], "grid.b"),
                phi=[_finite(c, "phi") for c in doc["phi"]],
                preset=str(lag["preset"]),
                eta0=[_finite(c, "lagrangian.eta0") for c in lag["eta0"]] if "eta0" in lag else None,
                rho_minus=_finite(doc["rho_minus"], "rho_minus"),
                rho_plus=_finite(doc["rho_plus"], "rho_plus"),
                eps_schedule=doc["eps_schedule"],
                tolerances=Tolerances(**{name: float(v) for name, v in tols.items()}),
                outputs=str(doc.get("outputs", "out")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"missing or malformed config field: {exc}") from exc
        if cfg.rho_minus <= 0.0 or cfg.rho_plus <= 0.0:
            raise ConfigError("boundary data must satisfy rho+- > 0")
        if not (-1.0 < cfg.grid_a < cfg.grid_b < 1.0):
            raise ConfigError("window must satisfy -1 < a < b < 1")
        if cfg.preset not in ("rochet_chone", "zero") and not cfg.preset.startswith("custom:"):
            raise ConfigError(f"unknown lagrangian preset: {cfg.preset!r}")
        if (cfg.eta0 is None) == (cfg.preset == "rochet_chone"):
            raise ConfigError(f"lagrangian.eta0 is for 'rochet_chone' only, and required there "
                              f"(preset {cfg.preset!r})")
        try:
            check_schedule(cfg.schedule())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def schedule(self) -> list[float]:
        s = self.eps_schedule
        try:
            if isinstance(s, list):
                return [float(e) for e in s]
            if isinstance(s, dict):
                return default_eps_schedule(float(s["start"]), float(s["ratio"]),
                                            _integer(s["stages"], "stages"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad eps_schedule: {exc}") from exc
        raise ConfigError("eps_schedule must be a list or {start, ratio, stages}")

    def build_lagrangian(self, grid: Grid) -> LagrangianSpec:
        """The preset's Lagrangian; a `custom:` one must pass `check_partials`."""
        if self.preset.startswith("custom:"):
            key = self.preset.removeprefix("custom:")
            if key not in CUSTOM_REGISTRY:
                raise ValueError(f"unregistered custom lagrangian: {key!r}")
            spec = CUSTOM_REGISTRY[key]()
            try:
                check_partials(spec)
            except ValueError as exc:
                raise ValueError(f"custom lagrangian {key!r}: {exc}") from exc
            return spec
        eta0 = self.eta0 if self.preset == "rochet_chone" else [0.0]
        return make_rochet_chone(eta0, sample_nodes=grid.nodes)

    def build_setup(self) -> ProblemSetup:
        """The problem at the schedule's first eps.

        The one place where a ValueError from building the grid, the
        Lagrangian or the setup becomes a ConfigError with its message.
        """
        try:
            grid = build_grid(self.grid_n, self.grid_a, self.grid_b)
            lag = self.build_lagrangian(grid)
            return make_setup(grid, lag, self.phi, self.rho_minus, self.rho_plus, self.schedule()[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: Union[str, Path]) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)


def save_config(cfg: RunConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
