import inspect
import sys
import types
from unittest import mock

import pytest


def _mutated(module, old, new):
    """A copy of a marginlab module with one planted source change: the
    string old, which must occur once in its source, replaced by new."""
    source = inspect.getsource(module)
    assert source.count(old) == 1
    name = module.__name__.rpartition(".")[2]
    copy = types.ModuleType(f"{module.__package__}.mutated_{name}")
    copy.__package__ = module.__package__
    # dataclasses look their module up in sys.modules
    with mock.patch.dict(sys.modules, {copy.__name__: copy}):
        exec(compile(source.replace(old, new), module.__file__, "exec"),
             copy.__dict__)
    return copy


@pytest.fixture
def mutated():
    """mutated(module, old, new): a module copy with one planted change."""
    return _mutated
