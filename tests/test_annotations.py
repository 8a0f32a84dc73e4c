import importlib
import inspect
import pkgutil
import typing

import pytest

import rescue_triage


def _modules():
    yield rescue_triage
    for info in pkgutil.walk_packages(rescue_triage.__path__, "rescue_triage."):
        yield importlib.import_module(info.name)


def _annotated(module):
    """Every function, class and method that the module defines."""
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


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    unresolved = {}
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            unresolved[name] = f"{type(exc).__name__}: {exc}"
    assert unresolved == {}
