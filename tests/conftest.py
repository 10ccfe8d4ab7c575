"""Fixtures shared by the test modules."""

import pytest

from pingpong_eve import cli, conventions, protocol


@pytest.fixture
def fresh_tables():
    """Drop the process's run tables before and after the test.  A test that
    patches what a table is built from (``protocol.conditionals``,
    ``protocol._row_texts``, ``attacks._IMAGES``) then reads no table built
    before its patch, and leaves none built during it to later tests."""
    protocol._tables.cache_clear()
    yield
    protocol._tables.cache_clear()


@pytest.fixture
def fresh_census():
    """Drop the process's census memo before and after the test, as
    fresh_tables drops the run tables: a test that patches what the census
    is composed from (``conventions.solve``, ``attacks._IMAGES``) reads no
    census composed before its patch, and leaves none composed during it."""
    conventions.census.cache_clear()
    yield
    conventions.census.cache_clear()


@pytest.fixture
def fresh_curves():
    """Drop the process's rendered curve texts before and after the test, so
    that a test counting renders starts from none."""
    cli._curve_text.cache_clear()
    yield
    cli._curve_text.cache_clear()
