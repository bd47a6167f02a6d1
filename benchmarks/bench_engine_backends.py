"""Thread-scaling benchmark for the striped kernel backends.

Runs the same kernel-bound workload — one full-tree CLV computation plus
one Newton branch-smoothing pass over every branch — on a >= 1000-pattern
synthetic alignment (the regime where the paper reports SPE partitioning
pays off; below ~1000 patterns the stripe fan-out overhead dominates,
exactly like the paper's loop-level parallelization overhead) through:

* the flat single-thread ``einsum`` backend (baseline),
* the ``partitioned`` backend at 1, 2 and 4 stripes/threads (einsum
  inner kernels: stripes overlap only where NumPy drops the GIL), and
* the ``compiled`` backend at 1, 2 and 4 stripes/threads (nogil
  machine-code inner kernels), when a flavor is available on the host.

Results merge into the ``backend_scaling`` section of the committed
``BENCH_engine.json`` (every other section is left untouched)
together with ``os.cpu_count()`` and the compiled flavor's one-time
JIT/build warmup time (charged to ``backend_warmup_us``, never to the
timed workload).  Assertions:

* always: every backend lands on the same lnL within 1e-9 and on
  bit-identical underflow-scaling totals; ``partitioned:1/2/4`` and
  ``compiled:1/2/4`` each report **bit-identical** log likelihoods
  across thread counts (the fixed-block pairwise reduction).
* compiled available: ``compiled:1`` must beat single-thread einsum
  (the kernels win before threading even starts).
* compiled available and ``cpu_count >= 2``: ``compiled:2`` must beat
  einsum *and* run faster than ``compiled:1`` — the tentpole claim that
  multi-threaded stripes finally pay.  On a single-core container the
  stripes cannot overlap, so the multicore gates are skipped (and
  printed as skipped).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_backends.py -q -s
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.phylo import Tree, create_engine, default_gtr, synthetic_dataset
from repro.phylo.engine.backends.compiled import compiled_available
from repro.phylo.rates import GammaRates

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The >= 1000-pattern workload: a divergent synthetic alignment (long
#: branches, almost no invariant sites) so compression keeps most columns.
N_TAXA = 42
N_SITES = 2400
DATA_SEED = 42
TREE_SEED = 7
MEAN_BRANCH_LENGTH = 0.15
INVARIANT_FRACTION = 0.05

#: Backend specs always swept, in reporting order.
BASE_SPECS = ("einsum", "partitioned:1", "partitioned:2", "partitioned:4")

#: Swept additionally when a compiled kernel flavor loads on this host.
COMPILED_SPECS = ("compiled:1", "compiled:2", "compiled:4")

#: Timed repetitions per spec (best-of, to shed scheduler noise).
ROUNDS = 3

#: Multicore gate: compiled:2 must beat single-thread einsum.
MIN_MULTICORE_SPEEDUP = 1.0


def _specs():
    if compiled_available() is not None:
        return BASE_SPECS + COMPILED_SPECS
    return BASE_SPECS


def _setup():
    patterns = synthetic_dataset(
        n_taxa=N_TAXA,
        n_sites=N_SITES,
        seed=DATA_SEED,
        mean_branch_length=MEAN_BRANCH_LENGTH,
        invariant_fraction=INVARIANT_FRACTION,
    ).compress()
    assert patterns.n_patterns >= 1000, patterns.n_patterns
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    tree = Tree.from_tip_names(
        patterns.taxa, np.random.default_rng(TREE_SEED)
    )
    return patterns, model, tree.to_newick(digits=17)


def _measure(spec: str, patterns, model, base_newick: str) -> dict:
    """Best-of-``ROUNDS`` wall time for one full-likelihood workload."""
    best = float("inf")
    lnl = scale_total = counters = None
    for _ in range(ROUNDS):
        tree = Tree.from_newick(base_newick)
        engine = create_engine(
            patterns, model, GammaRates(0.7, 4), tree, backend=spec
        )
        try:
            start = time.perf_counter()
            engine.evaluate()  # full bottom-up CLV traversal
            engine.optimize_all_branches(passes=1)
            lnl = engine.evaluate()
            best = min(best, time.perf_counter() - start)
            anchor = tree.branches[0]
            inner = anchor.nodes[0] if not anchor.nodes[0].is_tip \
                else anchor.nodes[1]
            scale_total = int(engine.clv(inner, anchor).scale_counts.sum())
            counters = engine.perf_counters()
        finally:
            engine.detach()
    return {
        "backend": spec,
        "wall_seconds": best,
        "log_likelihood": lnl,
        "scale_count_total": scale_total,
        "backend_counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith("backend_")
        },
    }


def run_benchmark(write: bool = True) -> dict:
    specs = _specs()
    patterns, model, base_newick = _setup()
    runs = {
        spec: _measure(spec, patterns, model, base_newick) for spec in specs
    }
    baseline = runs["einsum"]["wall_seconds"]
    flavor = compiled_available()
    report = {
        "workload": {
            "n_taxa": N_TAXA,
            "n_sites": N_SITES,
            "n_patterns": patterns.n_patterns,
            "data_seed": DATA_SEED,
            "tree_seed": TREE_SEED,
            "mean_branch_length": MEAN_BRANCH_LENGTH,
            "invariant_fraction": INVARIANT_FRACTION,
        },
        "cpu_count": os.cpu_count(),
        "compiled_flavor": flavor,
        "jit_warmup_us": (
            runs["compiled:1"]["backend_counters"]["backend_warmup_us"]
            if flavor else None
        ),
        "runs": runs,
        "speedup_vs_einsum": {
            spec: baseline / runs[spec]["wall_seconds"] for spec in specs
        },
    }
    if write:
        from repro.harness.report import merge_bench_section

        merge_bench_section(RESULT_PATH, "backend_scaling", report)
    return report


def test_backend_scaling():
    report = run_benchmark()
    runs = report["runs"]
    specs = list(runs)
    for spec in specs:
        r = runs[spec]
        print(
            f"\n{spec:15s}: {r['wall_seconds']:.3f} s  "
            f"lnL {r['log_likelihood']:.6f}  "
            f"({report['speedup_vs_einsum'][spec]:.2f}x vs einsum)"
        )
    # Correctness on the big instance, whatever the host: every backend
    # lands on the same likelihood and the same underflow-scaling totals.
    base = runs["einsum"]
    for spec in specs[1:]:
        assert runs[spec]["log_likelihood"] == pytest.approx(
            base["log_likelihood"], rel=1e-9
        ), spec
        assert runs[spec]["scale_count_total"] == base["scale_count_total"]
    # Thread count must not move a single bit of the striped backends'
    # reductions (the fixed-block pairwise sum).
    for family in ("partitioned", "compiled"):
        lnls = {
            spec: runs[spec]["log_likelihood"]
            for spec in specs if spec.startswith(family)
        }
        assert len(set(lnls.values())) <= 1, (
            f"{family} lnL drifts with thread count: {lnls}"
        )
    cpus = report["cpu_count"] or 1
    if report["compiled_flavor"] is not None:
        # The kernels must win before threading even starts.
        speedup1 = report["speedup_vs_einsum"]["compiled:1"]
        assert speedup1 > 1.0, (
            f"compiled:1 only {speedup1:.2f}x vs single-thread einsum "
            f"(flavor {report['compiled_flavor']!r})"
        )
        if cpus >= 2:
            speedup2 = report["speedup_vs_einsum"]["compiled:2"]
            assert speedup2 >= MIN_MULTICORE_SPEEDUP, (
                f"compiled:2 only {speedup2:.2f}x vs single-thread einsum "
                f"on {cpus} cores (need >= {MIN_MULTICORE_SPEEDUP}x)"
            )
            assert (runs["compiled:2"]["wall_seconds"]
                    < runs["compiled:1"]["wall_seconds"]), (
                "compiled:2 is not faster than compiled:1 on "
                f"{cpus} cores: "
                f"{runs['compiled:2']['wall_seconds']:.3f}s vs "
                f"{runs['compiled:1']['wall_seconds']:.3f}s"
            )
        else:
            print(
                f"single-core host (cpu_count={cpus}): stripe threads "
                "cannot overlap, skipping the multi-thread speedup gates"
            )
    else:
        print("no compiled kernel flavor available: compiled rows and "
              "speedup gates skipped")


if __name__ == "__main__":
    test_backend_scaling()
