"""Every dataclass annotation in the simulator's hot modules resolves.

ruff (F821) and ``mypy --strict`` catch a name used in an annotation but never
imported; neither runs in the development container, and ``from __future__
import annotations`` keeps the interpreter from noticing.  This is the part of
that check tier-1 can hold: ``typing.get_type_hints`` on each dataclass.  No
class here needs a ``TYPE_CHECKING``-only import, so none is exempt.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import repro.sim

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(repro.sim.__path__, "repro.sim.")
) + ["repro.core.lifecycle", "repro.core.query", "repro.core.scale"]


def _dataclasses():
    for name in MODULES:
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == name
                    and dataclasses.is_dataclass(cls)):
                yield pytest.param(cls, id=f"{name}.{cls.__name__}")


@pytest.mark.parametrize("cls", _dataclasses())
def test_dataclass_annotations_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert set(hints) >= {f.name for f in dataclasses.fields(cls)}
