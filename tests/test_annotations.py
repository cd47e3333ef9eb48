"""Every annotation in the package resolves: typing.get_type_hints succeeds
on each function, class and method that a module defines."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import posterior_dynamics

MODULES = [
    importlib.import_module(f"posterior_dynamics.{info.name}")
    for info in pkgutil.iter_modules(posterior_dynamics.__path__)
]


def _annotated(module):
    """(qualified name, object) for the functions, classes and methods
    defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_type_hints_resolve(module):
    unresolved = []
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved
