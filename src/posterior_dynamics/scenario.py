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

Each object passes one field rule, ``_fields``, and each number one reader,
``rational_from_json``; rationals travel as "p/q" strings so exact mode has
exact inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

from . import engine
from . import families as fam
from . import priors as pr
from .families import BERNOULLI, EXPONENTIAL, NORMAL, FamilySpec
from .priors import Beta, DiscreteAtoms, ExpPrior, Prior, StdNormal, Uniform01

Real = Union[int, float, Fraction]

OUTPUT_KINDS = ("csv", "json", "svg")
DEFAULT_OUTPUTS = ("csv", "json")

# prior type -> (class, required fields, optional fields): the JSON names of
# the class's fields, in order; a missing lambda takes ExpPrior's default rate
_PRIOR_TYPES = {
    "atoms": (DiscreteAtoms, ("atoms",), ()),
    "uniform01": (Uniform01, (), ()),
    "beta": (Beta, ("a", "b"), ()),
    "stdnormal": (StdNormal, (), ()),
    "exp": (ExpPrior, (), ("lambda",)),
}
_PRIOR_NAMES = {cls: (name, req + opt) for name, (cls, req, opt) in _PRIOR_TYPES.items()}
_ATOM = ("theta", "weight")  # the fields of one entry of an atom prior


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
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    name: str = "scenario"

    def __post_init__(self):
        if self.numeric_mode not in engine.NUMERIC_MODES:
            raise ScenarioError(f"numeric_mode {self.numeric_mode!r} not in {engine.NUMERIC_MODES}")
        pr.require_inputs(self.family, self.prior, self.theta0, self.theta1, self.horizon)
        if self.horizon < 3:
            raise ScenarioError(f"horizon={self.horizon} must be >= 3 for diagnostics")
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or any(
            sep in self.name for sep in ("/", "\\", "\0")
        ):
            raise ScenarioError(f"name {self.name!r} must be a plain file name")
        for out in self.outputs:
            if out not in OUTPUT_KINDS:
                raise ScenarioError(f"unknown output kind {out!r}")


def _fields(obj, what: str, required: tuple[str, ...], optional=()) -> list:
    """The values of ``obj``'s required fields, then of its optional fields
    present, once it is a JSON object that holds every required field and
    nothing beyond the optional ones; else a ScenarioError."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioError(f"{what} missing fields: {sorted(missing)}")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise ScenarioError(f"unexpected {what} fields {sorted(extra)}")
    return [obj[key] for key in (*required, *optional) if key in obj]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, got {type(value).__name__}")
    return value


def rational_from_json(value) -> Real:
    """The one number reader: a "p/q" string or an int becomes an exact
    Fraction and a float stays a float; a number past the float range is the
    infinity it rounds to, which each value rule then refuses as it refuses
    any infinity.  A bool or anything else is refused."""
    if isinstance(value, float):
        return value
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            rounded = fam.float_of(exact)
            return exact if math.isfinite(rounded) else rounded
    raise ScenarioError(f"cannot parse rational {value!r}")


def rational_to_json(value: Real):
    if isinstance(value, (int, Fraction)):
        return f"{value.numerator}/{value.denominator}"
    return value


def family_from_json(obj) -> FamilySpec:
    """FamilySpec holds the rule that sigma comes with the normal kind only."""
    kind, *sigma = _fields(obj, "family", ("kind",), ("sigma",))
    return FamilySpec(kind, *(float(rational_from_json(s)) for s in sigma))


def family_to_json(family: FamilySpec) -> dict:
    return {"kind": family.kind, **({} if family.sigma is None else {"sigma": family.sigma})}


def prior_from_json(obj) -> Prior:
    """The prior classes hold their own value rules."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _PRIOR_TYPES:
        raise ScenarioError(f"prior type {kind!r} is not one of {list(_PRIOR_TYPES)}")
    cls, required, optional = _PRIOR_TYPES[kind]
    _, *values = _fields(obj, f"{kind} prior", ("type", *required), optional)
    if cls is DiscreteAtoms:
        atoms = [_fields(atom, "atom", _ATOM) for atom in _list(values[0], "atoms")]
        return cls(tuple((rational_from_json(t), rational_from_json(w)) for t, w in atoms))
    return cls(*map(rational_from_json, values))


def prior_to_json(prior: Prior) -> dict:
    name, keys = _PRIOR_NAMES[type(prior)]
    if isinstance(prior, DiscreteAtoms):
        atoms = [dict(zip(_ATOM, map(rational_to_json, atom))) for atom in prior.atoms]
        return {"type": name, "atoms": atoms}
    values = (getattr(prior, field.name) for field in fields(prior))
    return {"type": name, **dict(zip(keys, map(rational_to_json, values)))}


def scenario_from_json(obj, name: str = "scenario") -> Scenario:
    """Build a Scenario; every malformed field is a ScenarioError."""
    _fields(obj, "scenario", ("family", "prior", "theta0", "theta1", "horizon"),
            ("schema", "name", "numeric_mode", "outputs"))
    try:
        return Scenario(
            family=family_from_json(obj["family"]),
            prior=prior_from_json(obj["prior"]),
            theta0=rational_from_json(obj["theta0"]),
            theta1=rational_from_json(obj["theta1"]),
            horizon=obj["horizon"],
            numeric_mode=obj.get("numeric_mode", "auto"),
            outputs=tuple(_list(obj.get("outputs", list(DEFAULT_OUTPUTS)), "outputs")),
            name=obj.get("name", name),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


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
    """Dispatch to the route for the (family, prior) pairing, with the
    scenario's thetas as they are: each route gates the floats it reads.
    Only the Bernoulli routes have an exact mode; asking the float closed
    forms for it is refused rather than silently downgraded."""
    family, prior = scenario.family, scenario.prior
    t0, t1, horizon = scenario.theta0, scenario.theta1, scenario.horizon
    mode = scenario.numeric_mode
    if mode == "exact" and family.kind != BERNOULLI:
        raise fam.DomainError(f"exact mode is not available for the {family.kind} family")
    if family.kind == NORMAL and isinstance(prior, StdNormal):
        return engine.expected_posterior_normal(t0, t1, family.sigma, horizon)
    if family.kind == EXPONENTIAL and isinstance(prior, ExpPrior):
        return engine.expected_posterior_exponential(t0, t1, horizon, rate=prior.rate)
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
        "family": family_to_json(scenario.family),
        "prior": prior_to_json(scenario.prior),
        "theta0": rational_to_json(scenario.theta0),
        "theta1": rational_to_json(scenario.theta1),
        "horizon": scenario.horizon,
        "numeric_mode": scenario.numeric_mode,
        "outputs": list(scenario.outputs),
    }
