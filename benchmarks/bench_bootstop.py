"""autoMRE bootstopping benchmark: early stop vs the full fixed budget.

Runs the same bootstrap job twice on a 12-taxon synthetic workload (a
scaled-down stand-in for the paper's 42_SC dataset, sized so both arms
actually execute in CI):

* **autoMRE** — requested budget of ``REQUESTED`` replicates with the
  RAxML-default convergence criterion (permuted half-split support
  agreement); the run stops at the journalled ``stop_at`` checkpoint.
* **fixed** — the full ``REQUESTED``-replicate budget executed for
  real, no stopping criterion.

Both arms are genuinely executed; no replicate count is extrapolated.
The section written to ``BENCH_engine.json`` records the wall time of
each arm, the executed replicate counts, the journalled convergence
decision, and the support agreement between the early-stopped consensus
and the full-budget consensus.

Claims checked:

* autoMRE stops strictly before the requested budget and executes
  exactly ``stop_at`` replicates;
* the early-stopped supports agree with the full-budget supports to
  within ``MAX_MEAN_SUPPORT_DIFF`` on average, and every
  majority-rule verdict (support >= 0.5) matches.

Wall times are recorded for context but not asserted on: the savings
metric that is deterministic across machines is the executed replicate
count (wall clock on a loaded CI runner is too noisy to gate on).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_bootstop.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.cluster import BootstopConfig, JobSpec, job_status, run_job
from repro.harness.report import merge_bench_section
from repro.phylo import SearchConfig, synthetic_dataset

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

N_TAXA = 12
N_SITES = 300
DATA_SEED = 42
JOB_SEED = 7
REQUESTED = 200
N_WORKERS = 2
BOOTSTOP = BootstopConfig(check_every=25, n_permutations=100,
                          threshold=0.03, quorum=0.99)
CONFIG = SearchConfig(initial_radius=1, max_radius=2, max_rounds=2,
                      smoothing_passes=1, final_smoothing_passes=1)

MAX_MEAN_SUPPORT_DIFF = 0.05


def _run(spec: JobSpec, alignment, journal: Path):
    start = time.perf_counter()
    result = run_job(spec, alignment, n_workers=N_WORKERS,
                     journal_path=str(journal))
    return result, time.perf_counter() - start


def _agreement(auto_supports, fixed_supports):
    """Support agreement over the union of observed bipartitions."""
    splits = set(auto_supports) | set(fixed_supports)
    diffs = [abs(auto_supports.get(s, 0.0) - fixed_supports.get(s, 0.0))
             for s in splits]
    majority_match = sum(
        (auto_supports.get(s, 0.0) >= 0.5) == (fixed_supports.get(s, 0.0) >= 0.5)
        for s in splits
    )
    return {
        "n_bipartitions": len(splits),
        "mean_abs_support_diff": sum(diffs) / len(diffs) if diffs else 0.0,
        "max_abs_support_diff": max(diffs, default=0.0),
        "majority_verdicts_matching": majority_match,
        "majority_agreement": majority_match / len(splits) if splits else 1.0,
    }


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-bootstop-") as workdir:
        return _compare(Path(workdir))


def _compare(workdir: Path) -> int:
    """autoMRE against the fixed budget, journals under *workdir*."""
    alignment = synthetic_dataset(n_taxa=N_TAXA, n_sites=N_SITES,
                                  seed=DATA_SEED)

    auto_spec = JobSpec(n_inferences=1, n_bootstraps=REQUESTED,
                        seed=JOB_SEED, batch_size=5, config=CONFIG,
                        bootstop=BOOTSTOP)
    auto, auto_wall = _run(auto_spec, alignment, workdir / "auto.jsonl")
    decision = job_status(str(workdir / "auto.jsonl"))["bootstop"]
    stop_at = decision["stop_at"]
    print(f"autoMRE:   {len(auto.bootstraps)}/{REQUESTED} replicates "
          f"in {auto_wall:.1f}s (stopped at {stop_at}, "
          f"metric {decision['metric']:.4f})")

    fixed_spec = JobSpec(n_inferences=1, n_bootstraps=REQUESTED,
                         seed=JOB_SEED, batch_size=5, config=CONFIG)
    fixed, fixed_wall = _run(fixed_spec, alignment, workdir / "fixed.jsonl")
    print(f"fixed:     {len(fixed.bootstraps)}/{REQUESTED} replicates "
          f"in {fixed_wall:.1f}s")

    agreement = _agreement(auto.supports, fixed.supports)
    print(f"agreement: mean |d| {agreement['mean_abs_support_diff']:.4f}, "
          f"max |d| {agreement['max_abs_support_diff']:.4f}, "
          f"majority {agreement['majority_verdicts_matching']}"
          f"/{agreement['n_bipartitions']}")

    assert stop_at < REQUESTED, "autoMRE never converged within the budget"
    assert len(auto.bootstraps) == stop_at
    assert len(fixed.bootstraps) == REQUESTED
    assert agreement["mean_abs_support_diff"] <= MAX_MEAN_SUPPORT_DIFF, \
        agreement
    assert agreement["majority_agreement"] == 1.0, agreement

    section = {
        "workload": {"n_taxa": N_TAXA, "n_sites": N_SITES,
                     "data_seed": DATA_SEED, "job_seed": JOB_SEED},
        "bootstop_config": BOOTSTOP.to_json(),
        "requested_replicates": REQUESTED,
        "auto": {
            "executed_replicates": len(auto.bootstraps),
            "wall_seconds": auto_wall,
            "decision": decision,
        },
        "fixed": {
            "executed_replicates": len(fixed.bootstraps),
            "wall_seconds": fixed_wall,
        },
        "replicate_savings": 1.0 - stop_at / REQUESTED,
        "wall_speedup": fixed_wall / auto_wall,
        "support_agreement": agreement,
    }
    merge_bench_section(RESULT_PATH, "bootstop", section)
    print(f"bench_bootstop: OK — wrote 'bootstop' section to "
          f"{RESULT_PATH.name} ({section['replicate_savings']:.0%} fewer "
          f"replicates, {section['wall_speedup']:.2f}x faster)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
