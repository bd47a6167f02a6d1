"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.phylo import (
    Alignment,
    GammaRates,
    LikelihoodEngine,
    SearchConfig,
    Tree,
    default_gtr,
    stepwise_addition_tree,
    synthetic_dataset,
)

# Hypothesis profiles: `ci` is fully seeded (derandomized) so CI runs —
# including the repro.verify differential/metamorphic suite — are
# reproducible; `dev` is the fast randomized default for local work;
# `thorough` is the long soak.  Select with REPRO_HYPOTHESIS_PROFILE.
try:
    import os

    from hypothesis import HealthCheck, settings

    _COMMON = dict(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("ci", max_examples=20, derandomize=True,
                              **_COMMON)
    settings.register_profile("dev", max_examples=25, **_COMMON)
    settings.register_profile("thorough", max_examples=250, **_COMMON)
    # Back-compat alias for the original profile name.
    settings.register_profile("repro", max_examples=25, **_COMMON)
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(scope="session")
def small_alignment() -> Alignment:
    """8 taxa x 300 sites; compresses to a few dozen patterns."""
    return synthetic_dataset(n_taxa=8, n_sites=300, seed=11)


@pytest.fixture(scope="session")
def medium_alignment() -> Alignment:
    """12 taxa x 600 sites (the quick trace profile's size)."""
    return synthetic_dataset(n_taxa=12, n_sites=600, seed=7)


@pytest.fixture(scope="session")
def small_patterns(small_alignment):
    return small_alignment.compress()


@pytest.fixture(scope="session")
def medium_patterns(medium_alignment):
    return medium_alignment.compress()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def small_tree(small_patterns, rng) -> Tree:
    return stepwise_addition_tree(small_patterns, rng)


@pytest.fixture()
def engine(small_patterns, small_tree) -> LikelihoodEngine:
    model = default_gtr().with_frequencies(small_patterns.base_frequencies())
    eng = LikelihoodEngine(
        small_patterns, model, GammaRates(0.7, 4), small_tree
    )
    yield eng
    eng.detach()


@pytest.fixture(scope="session")
def tiny_search_config() -> SearchConfig:
    return SearchConfig(initial_radius=2, max_radius=3, max_rounds=2)


# -- cluster fixtures --------------------------------------------------------

@pytest.fixture(scope="session")
def tiny_alignment() -> Alignment:
    """6 taxa x 120 sites — small enough for many-process cluster tests."""
    return synthetic_dataset(n_taxa=6, n_sites=120, seed=3)


@pytest.fixture(scope="session")
def tiny_patterns(tiny_alignment):
    return tiny_alignment.compress()


@pytest.fixture(scope="session")
def fast_config() -> SearchConfig:
    return SearchConfig(initial_radius=1, max_radius=1, max_rounds=1,
                        smoothing_passes=1, final_smoothing_passes=1)


@pytest.fixture(scope="session")
def cluster_workers() -> int:
    """Worker count for cluster tests; CI sweeps 2 and 4 to catch
    scheduling nondeterminism."""
    import os

    return int(os.environ.get("REPRO_CLUSTER_WORKERS", "2"))


@pytest.fixture(scope="session")
def serial_reference(tiny_patterns, fast_config):
    """The uninterrupted single-core result every cluster run must
    reproduce bit-identically: 1 inference + 4 bootstraps, seed 9."""
    from repro.phylo import run_full_analysis

    return run_full_analysis(tiny_patterns, n_inferences=1, n_bootstraps=4,
                             config=fast_config, seed=9)


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """No cluster worker may outlive its pool's owner: asserted once,
    after every test (and whatever services they dropped) is gone."""
    yield
    import gc
    import multiprocessing

    gc.collect()  # a pool dropped without close() retires in its finalizer
    assert not multiprocessing.active_children()
