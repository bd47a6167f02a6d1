#!/usr/bin/env python
"""Real parallel bootstrapping on host cores (the MPI layer, executed).

The paper's master-worker MPI scheme (section 3.1) distributes
independent tree searches across ranks; this example runs the same
workload on the fault-tolerant work queue (:func:`repro.cluster.run_job`)
and shows that parallel results are bit-identical to serial ones
(deterministic per-task seeding), then prints the best tree as an
ASCII cladogram with bootstrap supports.

Run:  python examples/parallel_bootstrap.py
"""

import time

from repro.cluster import JobSpec, run_job
from repro.phylo import (
    SearchConfig,
    Tree,
    ascii_tree,
    newick_with_support,
    run_full_analysis,
    synthetic_dataset,
)


def main() -> None:
    alignment = synthetic_dataset(n_taxa=10, n_sites=500, seed=11)
    patterns = alignment.compress()
    config = SearchConfig(initial_radius=2, max_radius=3, max_rounds=2)
    jobs = dict(n_inferences=2, n_bootstraps=6, config=config, seed=3)

    t0 = time.time()
    serial = run_full_analysis(patterns, **jobs)
    t_serial = time.time() - t0

    t0 = time.time()
    parallel = run_job(JobSpec(**jobs), alignment=patterns, n_workers=4)
    t_parallel = time.time() - t0

    print(f"serial   : {t_serial:.1f}s")
    print(f"parallel : {t_parallel:.1f}s (4 workers)")
    identical = (
        parallel.best.newick == serial.best.newick
        and parallel.supports == serial.supports
    )
    print(f"results bit-identical to serial: {identical}")

    best_tree = Tree.from_newick(parallel.best.newick)
    print(f"\nbest tree (lnL {parallel.best.log_likelihood:.2f}):")
    print(ascii_tree(best_tree))
    print("\nwith bootstrap supports (RAxML bipartition convention):")
    print(newick_with_support(best_tree, parallel.supports))


if __name__ == "__main__":
    main()
