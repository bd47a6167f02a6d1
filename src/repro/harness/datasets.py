"""Canonical datasets and cached workload traces for the experiments.

Two trace profiles are provided:

* ``"quick"`` — a 12-taxon / 600-site dataset; the search finishes in
  under a second.  Because the cost model scales any trace to the
  paper's canonical task size (230,500 ``newview`` calls), the derived
  tables differ only marginally from the full profile.  This is the
  default for the benchmark suite.
* ``"full"`` — the synthetic ``42_SC`` stand-in (42 taxa, 1167 sites,
  ~239 patterns) with a reduced-effort search (a few seconds).

Traces are cached per (profile, seed) within the process, so a
benchmark session pays the search cost once.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..phylo import (
    Alignment,
    PatternAlignment,
    SearchConfig,
    infer_tree,
    synthetic_dataset,
)
from ..port.trace import Tracer, TraceSummary

__all__ = [
    "quick_alignment",
    "full_alignment",
    "get_trace",
    "get_cat_trace",
    "TRACE_PROFILES",
]

_ALIGNMENT_CACHE: Dict[Tuple[str, int], Alignment] = {}
_TRACE_CACHE: Dict[Tuple[str, int], TraceSummary] = {}

#: Search-effort settings per trace profile.
TRACE_PROFILES = {
    "quick": dict(
        n_taxa=12,
        n_sites=600,
        search=SearchConfig(initial_radius=2, max_radius=3, max_rounds=3),
    ),
    "full": dict(
        n_taxa=42,
        n_sites=1167,
        search=SearchConfig(initial_radius=1, max_radius=2, max_rounds=2),
    ),
}


def quick_alignment(seed: int = 2) -> Alignment:
    """The small benchmark dataset (cached)."""
    return _alignment("quick", seed)


def full_alignment(seed: int = 42) -> Alignment:
    """The synthetic ``42_SC`` stand-in (cached)."""
    return _alignment("full", seed)


def _alignment(profile: str, seed: int) -> Alignment:
    key = (profile, seed)
    if key not in _ALIGNMENT_CACHE:
        settings = TRACE_PROFILES[profile]
        _ALIGNMENT_CACHE[key] = synthetic_dataset(
            n_taxa=settings["n_taxa"], n_sites=settings["n_sites"], seed=seed
        )
    return _ALIGNMENT_CACHE[key]


def get_cat_trace(seed: int = 2) -> TraceSummary:
    """A workload trace of a CAT-mode search on the quick dataset.

    CAT assigns each site one rate category (instead of integrating
    over four), shrinking the likelihood loops fourfold — the
    cat-vs-gamma ablation compares this trace's kernel shape against
    the Gamma trace.  Site rates are estimated on the parsimony
    starting tree, as RAxML does before switching to CAT.
    """
    key = ("quick-cat", seed)
    if key not in _TRACE_CACHE:
        import numpy as np

        from ..phylo import (
            CatRates,
            create_engine,
            estimate_site_rates,
            hill_climb,
            stepwise_addition_tree,
        )
        from ..phylo.inference import default_model_for

        patterns = _alignment("quick", seed).compress()
        rng = np.random.default_rng(seed)
        tree = stepwise_addition_tree(patterns, rng)
        model = default_model_for(patterns)
        site_rates = estimate_site_rates(patterns, model, tree)
        cat = CatRates(site_rates, n_categories=8)
        tracer = Tracer()
        engine = create_engine(patterns, model, cat, tree, tracer=tracer)
        try:
            hill_climb(engine, TRACE_PROFILES["quick"]["search"], rng)
        finally:
            engine.detach()
        _TRACE_CACHE[key] = tracer.summary()
    return _TRACE_CACHE[key]


def get_trace(profile: str = "quick", seed: int = 2) -> TraceSummary:
    """A cached per-task workload trace for the given profile.

    Runs one instrumented tree search (once per process) and returns
    its :class:`~repro.port.trace.TraceSummary`.
    """
    if profile not in TRACE_PROFILES:
        raise KeyError(f"unknown trace profile {profile!r}")
    key = (profile, seed)
    if key not in _TRACE_CACHE:
        alignment = _alignment(profile, seed)
        tracer = Tracer()
        infer_tree(
            alignment.compress(),
            config=TRACE_PROFILES[profile]["search"],
            seed=seed,
            tracer=tracer,
        )
        _TRACE_CACHE[key] = tracer.summary()
    return _TRACE_CACHE[key]
