"""Run the docstring examples as tests (they appear in user-facing docs)."""

import doctest

import repro.utils.seeding
import repro.utils.logstar


def test_seeding_doctests():
    results = doctest.testmod(repro.utils.seeding, verbose=False)
    assert results.failed == 0


def test_logstar_doctests():
    results = doctest.testmod(repro.utils.logstar, verbose=False)
    assert results.failed == 0


def test_package_docstring_example():
    """The quickstart claim in the package docstring must stay true."""
    import repro

    result = repro.run_heavy(m=1_000_000, n=1_000, seed=7)
    assert result.complete
    assert result.max_load - result.m // result.n <= 4
