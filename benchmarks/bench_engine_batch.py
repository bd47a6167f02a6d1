"""Before/after benchmark for the batched likelihood pipeline.

Scores a fixed set of SPR neighborhoods on the synthetic 42-taxon
``42_SC`` stand-in twice — once with the serial per-candidate path (the
pre-batching behaviour: apply, three ``makenewz`` calls, ``evaluate``,
revert, for every candidate) and once with the fused multi-candidate
scorer (:meth:`LikelihoodEngine.score_spr_candidates`).  Every
neighborhood is rebuilt from the same base tree, so both paths score the
exact same candidate insertions.  Results (plus full hill-climb wall
times in both modes, for context) are written to ``BENCH_engine.json``
at the repository root so future PRs have a perf trajectory.

Claims checked:

* the batched sweep is at least ``MIN_SPEEDUP`` times faster than the
  serial sweep on the identical candidate set;
* a steady-state smoothing sweep performs zero new CLV-slot
  allocations (the arena's ``grown`` counter stays flat).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batch.py -q -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.phylo import (
    GammaRates,
    LikelihoodEngine,
    SearchConfig,
    Tree,
    default_gtr,
    hill_climb,
    stepwise_addition_tree,
    synthetic_dataset,
)
from repro.phylo.search import _apply_spr, _revert_spr, spr_neighborhood

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The fixed workload: the synthetic ``42_SC`` stand-in.
N_TAXA = 42
N_SITES = 1167
DATA_SEED = 42
TREE_SEED = 7
N_NEIGHBORHOODS = 15
RADIUS = 3
NEWTON_ITERATIONS = 8

#: Acceptance bar: the batched path must at least halve the sweep time.
MIN_SPEEDUP = 2.0


def _setup():
    patterns = synthetic_dataset(
        n_taxa=N_TAXA, n_sites=N_SITES, seed=DATA_SEED
    ).compress()
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    base = stepwise_addition_tree(patterns, np.random.default_rng(TREE_SEED))
    engine = LikelihoodEngine(patterns, model, GammaRates(0.7, 4), base)
    engine.optimize_all_branches(passes=1)
    base_newick = base.to_newick()
    engine.detach()
    return patterns, model, base_newick


def _fresh_engine(patterns, model, base_newick):
    tree = Tree.from_newick(base_newick)
    engine = LikelihoodEngine(patterns, model, GammaRates(0.7, 4), tree)
    engine.evaluate()  # warm the CLV cache, like a search in flight
    return engine, tree


def _score_neighborhood_serial(engine, tree, prune, keep, targets) -> int:
    """The pre-batching hot loop: K full apply/score/revert cycles."""
    scored = 0
    for target in list(targets):
        if target.retired:
            continue
        move = _apply_spr(tree, prune, keep, target)
        for local in list(move.junction.branches):
            engine.makenewz(local, max_iterations=NEWTON_ITERATIONS)
        engine.evaluate(move.connect_branch)
        scored += 1
        prune = _revert_spr(tree, move)
        keep = prune.nodes[0]
    return scored


def _sweep(mode: str) -> dict:
    """Score ``N_NEIGHBORHOODS`` fixed SPR neighborhoods; time it."""
    patterns, model, base_newick = _setup()
    total = 0.0
    candidates = 0
    counters = {}
    for i in range(N_NEIGHBORHOODS):
        engine, tree = _fresh_engine(patterns, model, base_newick)
        inner = [b for b in tree.branches if not b.nodes[0].is_tip]
        prune = inner[i % len(inner)]
        keep = prune.nodes[0]
        targets = spr_neighborhood(tree, prune, keep, RADIUS)
        start = time.perf_counter()
        if mode == "batched":
            engine.score_spr_candidates(
                prune, keep, targets, max_iterations=NEWTON_ITERATIONS
            )
            candidates += len(targets)
        else:
            candidates += _score_neighborhood_serial(
                engine, tree, prune, keep, targets
            )
        total += time.perf_counter() - start
        counters = engine.perf_counters()
        engine.detach()
    return {
        "mode": mode,
        "wall_seconds": total,
        "candidates": candidates,
        "final_engine_counters": counters,
    }


def _full_hill_climb(batch_spr: bool) -> dict:
    """Context numbers: one bounded hill climb in each mode."""
    patterns, model, base_newick = _setup()
    tree = Tree.from_newick(base_newick)
    engine = LikelihoodEngine(patterns, model, GammaRates(0.7, 4), tree)
    try:
        # Warm caches, then verify the steady-state allocation claim.
        engine.optimize_all_branches(passes=1)
        grown_warm = engine._arena.grown
        engine.optimize_all_branches(passes=1)
        steady_state_growth = engine._arena.grown - grown_warm

        config = SearchConfig(
            initial_radius=2, max_radius=3, max_rounds=1, batch_spr=batch_spr
        )
        start = time.perf_counter()
        result = hill_climb(engine, config, np.random.default_rng(TREE_SEED))
        elapsed = time.perf_counter() - start
    finally:
        engine.detach()
    return {
        "batch_spr": batch_spr,
        "wall_seconds": elapsed,
        "log_likelihood": result.log_likelihood,
        "evaluated_moves": result.evaluated_moves,
        "accepted_moves": result.accepted_moves,
        "steady_state_arena_growth": steady_state_growth,
    }


def run_benchmark(write: bool = True, include_context: bool = True) -> dict:
    """Measure both sweep modes; optionally persist to BENCH_engine.json.

    ``write=False`` leaves the committed baseline untouched (the CI
    regression gate in ``bench_engine_regression.py`` measures against
    it and must not overwrite it); ``include_context=False`` skips the
    two full hill climbs for a faster measurement-only run.
    """
    serial = _sweep("serial")
    batched = _sweep("batched")
    speedup = serial["wall_seconds"] / batched["wall_seconds"]
    report = {
        "workload": {
            "n_taxa": N_TAXA,
            "n_sites": N_SITES,
            "data_seed": DATA_SEED,
            "tree_seed": TREE_SEED,
            "neighborhoods": N_NEIGHBORHOODS,
            "radius": RADIUS,
        },
        "neighborhood_sweep": {
            "serial": serial,
            "batched": batched,
            "speedup": speedup,
        },
    }
    if include_context:
        report["hill_climb_context"] = {
            "serial": _full_hill_climb(batch_spr=False),
            "batched": _full_hill_climb(batch_spr=True),
        }
    if write:
        # Merge: other sections (e.g. backend_scaling from
        # bench_engine_backends.py) live in the same file.
        from repro.harness.report import merge_bench_section

        for section, payload in report.items():
            merge_bench_section(RESULT_PATH, section, payload)
    return report


def test_batched_sweep_is_at_least_twice_as_fast():
    report = run_benchmark()
    sweep = report["neighborhood_sweep"]
    serial, batched = sweep["serial"], sweep["batched"]
    # Identical fixed workload on both paths.
    assert serial["candidates"] == batched["candidates"]
    print(
        f"\nserial  : {serial['wall_seconds']:.3f} s "
        f"for {serial['candidates']} candidates"
    )
    print(
        f"batched : {batched['wall_seconds']:.3f} s "
        f"for {batched['candidates']} candidates"
    )
    print(f"speedup : {sweep['speedup']:.2f}x  ->  {RESULT_PATH.name}")
    # Steady-state smoothing sweeps allocate no new CLV slots.
    context = report["hill_climb_context"]
    assert context["serial"]["steady_state_arena_growth"] == 0
    assert context["batched"]["steady_state_arena_growth"] == 0
    # The fused scorer actually ran, and the P-matrix cache pulled its
    # weight.
    final = batched["final_engine_counters"]
    assert final["spr_batch_calls"] > 0
    assert final["pmat_hits"] > 0
    # The headline claim.
    assert sweep["speedup"] >= MIN_SPEEDUP, (
        f"batched sweep only {sweep['speedup']:.2f}x faster "
        f"(need >= {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_batched_sweep_is_at_least_twice_as_fast()
