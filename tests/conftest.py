"""Fixtures shared by the test modules."""

import pytest

from pingpong_eve import protocol


@pytest.fixture
def fresh_tables():
    """Drop the process's run tables before and after the test.  A test that
    patches what a table is built from (``protocol.conditionals``,
    ``protocol._row_texts``, ``attacks._IMAGES``) then reads no table built
    before its patch, and leaves none built during it to later tests."""
    protocol._tables.cache_clear()
    yield
    protocol._tables.cache_clear()
