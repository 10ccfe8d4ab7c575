"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import pingpong_eve


def package_memos() -> dict:
    """Every object with a ``cache_clear`` in the namespaces of the package's
    modules, each imported first, one entry per object, named
    ``module.attribute`` after the module that defines it."""
    memos = {}
    for info in pkgutil.iter_modules(pingpong_eve.__path__):
        module = importlib.import_module(f"{pingpong_eve.__name__}.{info.name}")
        for name, value in vars(module).items():
            if not hasattr(value, "cache_clear"):
                continue
            home = getattr(value, "__module__", None) == module.__name__
            if home or id(value) not in memos:
                memos[id(value)] = (f"{info.name}.{name}", value)
    return dict(memos.values())


@pytest.fixture
def fresh_memos():
    """Drop every memo of the package before and after the test, and yield
    the function that drops them.  A test that patches what a memo is built
    from (``attacks._IMAGES``, ``protocol.conditionals``, ``conventions.solve``)
    then reads no value built before its patch, and leaves none built during
    it to later tests."""
    memos = package_memos().values()

    def clear():
        for memo in memos:
            memo.cache_clear()

    clear()
    yield clear
    clear()
