"""Tests of the differential fuzzing harness (repro.verify.differential).

The quick smoke runs in tier-1; the 200-case acceptance run carries
``@pytest.mark.verify`` and is executed by the CI ``verify`` job (or
locally with ``pytest -m verify``).
"""

import numpy as np
import pytest

from repro.verify import (
    DifferentialFailure,
    compare_case,
    random_case,
    run_differential,
)

#: Every backend the fast side of the diff runs on.  The "reference"
#: entry diffs the oracle backend against the (stateless, cache-free)
#: oracle itself — a self-consistency check of the core's dirty tracking.
BACKEND_SPECS = ["einsum", "reference"]


def test_random_case_is_deterministic():
    a, b = random_case(7), random_case(7)
    assert a.description == b.description
    assert a.tree.to_newick(digits=17) == b.tree.to_newick(digits=17)
    assert (a.patterns.patterns == b.patterns.patterns).all()


def test_random_cases_cover_model_and_rate_space():
    """The seed sweep must exercise every model family and rate mode."""
    descriptions = " ".join(random_case(i).description for i in range(40))
    for token in ("JC69", "K80", "HKY85", "GTR", "uniform", "gamma", "cat"):
        assert token.lower() in descriptions.lower(), token


def test_compare_case_smoke():
    result = compare_case(random_case(3))
    assert result.ok, result.failures
    assert result.comparisons  # lnL + newview + derivatives all recorded
    assert result.max_rel_err < 1e-9


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_compare_case_every_backend(backend):
    """lnL within 1e-9 of the oracle and bit-identical scale counts,
    whatever backend the fast engine runs on."""
    for seed in (3, 11, 19):
        result = compare_case(random_case(seed), backend=backend)
        assert result.ok, (backend, result.failures)
        assert result.max_rel_err < 1e-9


@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_run_differential_accepts_backend(backend):
    report = run_differential(n_cases=4, seed=50, backend=backend)
    assert not report.failures, report.summary()


def test_run_differential_quick():
    report = run_differential(n_cases=15, seed=0)
    assert not report.failures, report.summary()
    assert report.max_rel_err < 1e-9
    assert "all cases agree" in report.summary()


def test_impossible_tolerance_reports_reproducible_seed():
    """With a sub-ULP tolerance the harness must fail and carry the
    seed needed to reproduce the failing case."""
    report = run_differential(n_cases=5, seed=100, rel_tol=0.0)
    assert report.failures
    summary = report.summary()
    assert "reproduce:" in summary
    failing_seed = report.failures[0].seed
    assert f"--seed {failing_seed}" in summary
    # ...and the seed does reproduce the divergence.
    again = compare_case(random_case(failing_seed), rel_tol=0.0)
    assert not again.ok

    with pytest.raises(DifferentialFailure, match="reproduce:"):
        run_differential(n_cases=5, seed=100, rel_tol=0.0,
                         raise_on_failure=True)


@pytest.mark.verify
def test_differential_acceptance_200_cases():
    """The acceptance bar: 200 random (alignment, tree, model) cases
    with fast-vs-oracle agreement within 1e-9 relative tolerance."""
    report = run_differential(n_cases=200, seed=0, rel_tol=1e-9)
    assert not report.failures, report.summary()
    assert report.max_rel_err < 1e-9


@pytest.mark.verify
@pytest.mark.parametrize("backend", BACKEND_SPECS)
def test_differential_acceptance_every_backend(backend):
    """The same acceptance bar for every registered backend (fewer cases
    per backend; the seed ranges are disjoint from the 200-case run so
    the sweep widens coverage instead of repeating it)."""
    report = run_differential(n_cases=40, seed=1000, rel_tol=1e-9,
                              backend=backend)
    assert not report.failures, f"[{backend}] {report.summary()}"
    assert report.max_rel_err < 1e-9
