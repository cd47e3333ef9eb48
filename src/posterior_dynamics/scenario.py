"""Scenario files: the JSON unit of CLI work, and method dispatch.

Schema (version 1):

    {
      "schema": 1,
      "name": "...",                        # optional; a plain file name
      "family": {"kind": "bernoulli"},      # sigma required iff kind=normal
      "prior": {"type": "atoms", "atoms": [{"theta": "1/2", "weight": "1/2"}, ...]}
               | {"type": "uniform01"} | {"type": "beta", "a": .., "b": ..}
               | {"type": "stdnormal"} | {"type": "exp", "lambda": ..},
      "theta0": "1/2" | number,
      "theta1": "13/20" | number,
      "horizon": 200,
      "numeric_mode": "exact" | "float" | "auto",   # optional, default auto
      "outputs": ["csv", "json", "svg"]             # optional
    }

Rationals travel as "p/q" strings so exact mode has exact inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import engine
from . import families as fam
from . import priors as pr
from .families import BERNOULLI, EXPONENTIAL, NORMAL, FamilySpec
from .priors import Beta, DiscreteAtoms, ExpPrior, Prior, StdNormal, Uniform01

Real = Union[int, float, Fraction]


class ScenarioError(ValueError):
    """Scenario file violates the schema."""


@dataclass
class Scenario:
    family: FamilySpec
    prior: Prior
    theta0: Real
    theta1: Real
    horizon: int
    numeric_mode: str = "auto"
    outputs: tuple[str, ...] = ("csv", "json")
    name: str = "scenario"

    def __post_init__(self):
        if self.numeric_mode not in engine.NUMERIC_MODES:
            raise ScenarioError(f"numeric_mode {self.numeric_mode!r} not in exact/float/auto")
        pr.require_inputs(self.family, self.prior, self.theta0, self.theta1, self.horizon)
        if self.horizon < 3:
            raise ScenarioError(f"horizon={self.horizon} must be >= 3 for diagnostics")
        if self.name in ("", ".", "..") or os.path.isabs(self.name) or any(
            sep and sep in self.name for sep in ("/", "\\", os.sep, os.altsep)
        ):
            raise ScenarioError(f"name {self.name!r} must be a plain file name")
        for out in self.outputs:
            if out not in ("csv", "json", "svg"):
                raise ScenarioError(f"unknown output kind {out!r}")


def scenario_from_json(obj: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario; every malformed field is a ScenarioError."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    missing = {"family", "prior", "theta0", "theta1", "horizon"} - set(obj)
    if missing:
        raise ScenarioError(f"scenario missing fields: {sorted(missing)}")
    name = obj.get("name", name)
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    outputs = obj.get("outputs", ["csv", "json"])
    if not isinstance(outputs, list):
        raise ScenarioError(f"outputs must be a list, got {type(outputs).__name__}")
    try:
        return Scenario(
            family=FamilySpec.from_json(obj["family"]),
            prior=pr.prior_from_json(obj["prior"]),
            theta0=pr.rational_from_json(obj["theta0"]),
            theta1=pr.rational_from_json(obj["theta1"]),
            horizon=obj["horizon"],
            numeric_mode=obj.get("numeric_mode", "auto"),
            outputs=tuple(outputs),
            name=name,
        )
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ScenarioError(detail) from exc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return scenario_from_json(obj, name=os.path.splitext(os.path.basename(path))[0])


def run_scenario(scenario: Scenario) -> engine.ExpectedPosteriorSequence:
    """Dispatch to the route for the (family, prior) pairing.  Only the
    Bernoulli routes have an exact mode; asking the float closed forms for
    it is refused rather than silently downgraded."""
    family, prior = scenario.family, scenario.prior
    t0, t1, horizon = scenario.theta0, scenario.theta1, scenario.horizon
    mode = scenario.numeric_mode
    if mode == "exact" and family.kind != BERNOULLI:
        raise fam.DomainError(f"exact mode is not available for the {family.kind} family")
    if family.kind == NORMAL and isinstance(prior, StdNormal):
        return engine.expected_posterior_normal(float(t0), float(t1), family.sigma, horizon)
    if family.kind == EXPONENTIAL and isinstance(prior, ExpPrior):
        return engine.expected_posterior_exponential(
            float(t0), float(t1), horizon, rate=float(prior.rate)
        )
    if family.kind == BERNOULLI and isinstance(prior, Uniform01):
        return engine.expected_posterior_uniform(t0, t1, horizon, mode=mode)
    if family.kind == BERNOULLI and isinstance(prior, DiscreteAtoms):
        return engine.expected_posterior_discrete(prior, t0, t1, horizon, mode=mode)
    if family.kind == BERNOULLI and isinstance(prior, Beta):
        return engine.expected_posterior_beta(prior, t0, t1, horizon, mode=mode)
    raise pr.UnsupportedConjugacyError.of(family, prior)


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "schema": 1,
        "name": scenario.name,
        "family": scenario.family.to_json(),
        "prior": pr.prior_to_json(scenario.prior),
        "theta0": pr.rational_to_json(scenario.theta0),
        "theta1": pr.rational_to_json(scenario.theta1),
        "horizon": scenario.horizon,
        "numeric_mode": scenario.numeric_mode,
        "outputs": list(scenario.outputs),
    }
