"""The Hypothesis constant pool drawn from the package's own modules.

Now and then Hypothesis draws a literal constant of a local module in place
of a fresh example, so a float or large int literal added to or removed
from the package moves the examples of the float and integer strategies,
pinned seeds included.  This test pins that pool: a change to it must be
deliberate, and the examples it moves named when it lands.
"""

import importlib
import pkgutil

import pytest

constants_ast = pytest.importorskip("hypothesis.internal.constants_ast")

import pingpong_eve  # noqa: E402

FLOATS = [
    -1.0, -0.176239, 0.0, 1e-12, 1e-10, 1e-09, 1e-08, 1e-06, 0.0001, 0.073761, 0.188722,
    0.25, 0.3, 0.311278, 0.5, 0.51, 0.554594, 0.75, 0.76, 0.777297, 0.890812, 1.0, 2.0,
]
INTEGERS = [100, 101, 438, 576, 2026, 100000, 20260817]


def test_constant_pool_is_pinned():
    modules = [pingpong_eve] + [
        importlib.import_module(f"pingpong_eve.{info.name}")
        for info in pkgutil.iter_modules(pingpong_eve.__path__)
    ]
    floats, integers = set(), set()
    for module in modules:
        constants = constants_ast.constants_from_module(module)
        floats |= constants.floats
        integers |= constants.integers
    assert sorted(floats) == FLOATS
    assert sorted(integers) == INTEGERS
