"""The error taxonomy: one TriageError subclass per kind of skip."""

from __future__ import annotations

import importlib
import pkgutil

import droidtriage
from droidtriage.errors import TriageError


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def test_one_error_class_per_kind():
    # every module, so that a subclass defined outside errors.py is seen too
    for info in pkgutil.iter_modules(droidtriage.__path__):
        importlib.import_module(f"droidtriage.{info.name}")
    classes = _subclasses(TriageError)
    kinds = [cls.kind for cls in classes]
    assert len(kinds) == len(set(kinds)), kinds
    assert all(cls.__module__ == "droidtriage.errors" for cls in classes)
