"""Text rendering of experiment results (paper-vs-measured tables)."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Iterable, List, Optional

import numpy as np

from .experiments import ExperimentResult, run_all_experiments

__all__ = [
    "render_experiment",
    "render_report",
    "render_markdown",
    "render_cluster_status",
    "merge_bench_section",
    "main",
]


def merge_bench_section(path, section: str, payload: dict) -> dict:
    """Merge one named section into a committed benchmark JSON file.

    The shared writer behind every ``BENCH_*.json`` producer: reads the
    committed document (tolerating a missing file), replaces exactly
    ``section``, and rewrites the whole file through
    :func:`repro.cluster.checkpoint.atomic_write` so a crash mid-write
    can never tear a committed benchmark artifact.  Every section is
    stamped with the ``host`` that measured it (platform, python, numpy,
    ``cpu_count``): sections are re-recorded one at a time, on whatever
    machine ran that benchmark.  Returns the merged document.
    """
    from ..cluster.checkpoint import atomic_write

    path = Path(path)
    committed = json.loads(path.read_text()) if path.is_file() else {}
    committed[section] = {
        **payload,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    atomic_write(str(path), json.dumps(committed, indent=2) + "\n")
    return committed


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def render_experiment(result: ExperimentResult) -> str:
    """One experiment as a fixed-width text block."""
    lines: List[str] = []
    lines.append(f"== {result.title} [{result.experiment}] ==")
    if result.notes:
        lines.append(f"   {result.notes}")
    width = max((len(r.label) for r in result.rows), default=10) + 2
    lines.append(
        f"   {'metric'.ljust(width)}{'paper':>12}{'measured':>12}{'delta':>9}"
    )
    for row in result.rows:
        err = row.relative_error
        delta = f"{err * 100:+.1f}%" if err is not None else "-"
        lines.append(
            f"   {row.label.ljust(width)}{_fmt(row.paper):>12}"
            f"{_fmt(row.measured):>12}{delta:>9}"
        )
    for check in result.checks:
        mark = "PASS" if check.passed else "FAIL"
        detail = f" — {check.detail}" if check.detail else ""
        lines.append(f"   [{mark}] {check.claim}{detail}")
    return "\n".join(lines)


def render_report(results: Optional[Iterable[ExperimentResult]] = None) -> str:
    """The full evaluation report."""
    if results is None:
        results = run_all_experiments()
    results = list(results)
    blocks = [render_experiment(r) for r in results]
    passed = sum(1 for r in results if r.all_passed)
    header = (
        "RAxML-Cell reproduction — full evaluation\n"
        f"{passed}/{len(results)} experiments pass all shape checks\n"
    )
    return header + "\n\n".join(blocks) + "\n"


def render_markdown(results: Optional[Iterable[ExperimentResult]] = None) -> str:
    """The full evaluation as GitHub-flavoured markdown.

    ``python -m repro.harness.report --markdown`` regenerates the
    numeric sections of EXPERIMENTS.md.
    """
    if results is None:
        results = run_all_experiments()
    results = list(results)
    out: List[str] = []
    passed = sum(1 for r in results if r.all_passed)
    out.append("# RAxML-Cell reproduction — evaluation report")
    out.append("")
    out.append(
        f"**{passed}/{len(results)} experiments pass all "
        f"{sum(len(r.checks) for r in results)} shape checks.**"
    )
    for result in results:
        out.append("")
        out.append(f"## {result.title}")
        if result.notes:
            out.append("")
            out.append(f"> {result.notes}")
        out.append("")
        out.append("| metric | paper | measured | delta |")
        out.append("|---|---|---|---|")
        for row in result.rows:
            err = row.relative_error
            delta = f"{err * 100:+.1f}%" if err is not None else "—"
            out.append(
                f"| {row.label} | {_fmt(row.paper)} | "
                f"{_fmt(row.measured)} | {delta} |"
            )
        out.append("")
        for check in result.checks:
            mark = "✅" if check.passed else "❌"
            detail = f" — {check.detail}" if check.detail else ""
            out.append(f"- {mark} {check.claim}{detail}")
    out.append("")
    return "\n".join(out)


def render_cluster_status(journal_path: str) -> str:
    """Summarize a :mod:`repro.cluster` run journal as a text block.

    Backs ``repro-phylo cluster status``: progress, fault/retry
    accounting, shard topology for manifest-backed journals (shard
    count, compaction generation, steal count, per-shard record
    counts), the merged per-task engine perf counters (PR 1's
    cache/arena statistics, now visible for distributed runs), and the
    streaming partial results (running best tree and majority-rule
    consensus) that are servable before the run completes.
    """
    from ..cluster.runner import job_status

    status = job_status(journal_path)
    state = status["state"]
    lines: List[str] = [f"== cluster run {journal_path} =="]
    if status["spec"] is not None:
        spec = status["spec"]
        lines.append(
            f"   job: {spec.n_inferences} inference(s) + "
            f"{spec.n_bootstraps} bootstrap(s), seed {spec.seed}, "
            f"batch size {spec.batch_size}"
        )
    bootstop = status.get("bootstop")
    lines.append(
        f"   progress: inferences {status['n_inferences_done']}"
        f"/{status['n_inferences_total'] or '?'}, "
        f"bootstraps {status['n_bootstraps_done']}"
        f"/{status['n_bootstraps_total'] or '?'}"
        f"{' (autoMRE)' if bootstop else ''}"
        f"{'  [finished]' if status['finished'] else ''}"
    )
    if bootstop:
        # The replicate count is a budget, not a promise: report the
        # convergence state instead of implying a fixed campaign size.
        if bootstop["stop_at"] is not None:
            metric = bootstop.get("metric")
            metric_text = (f", metric {metric:.4f} <= "
                           f"{bootstop['threshold']:.4f}"
                           if metric is not None else "")
            lines.append(
                f"   bootstopping: converged at {bootstop['stop_at']}"
                f"/{bootstop['requested']} requested replicate(s)"
                f"{metric_text}"
            )
        else:
            lines.append(
                f"   bootstopping: not yet converged "
                f"({status['n_bootstraps_done']}"
                f"/{bootstop['requested']} budgeted, checks every "
                f"{bootstop['check_every']}, threshold "
                f"{bootstop['threshold']:.4f})"
            )
    lines.append(
        f"   faults: {len(status['retries'])} retr"
        f"{'y' if len(status['retries']) == 1 else 'ies'}, "
        f"{len(status['worker_deaths'])} worker death(s), "
        f"{state.resumes} resume(s)"
    )
    shards = status.get("shards")
    if shards:
        lines.append(
            f"   shards: {shards['n_shards']} WAL shard(s), "
            f"generation {shards['generation']}, "
            f"{shards['compactions']} compaction(s), "
            f"{len(status['steals'])} steal(s)"
        )
        counts = shards.get("records") or {}
        if counts:
            per_file = ", ".join(f"{name}={counts[name]}"
                                 for name in sorted(counts))
            snapshot = shards.get("snapshot_records")
            snapshot_text = (f" (+{snapshot} snapshot record(s))"
                             if snapshot else "")
            lines.append(f"   shard records: {per_file}{snapshot_text}")
    elif status.get("steals"):
        lines.append(f"   steals: {len(status['steals'])}")
    if state.corrupt_records:
        lines.append(
            f"   corrupt journal records skipped: {state.corrupt_records} "
            f"(torn writes / CRC failures / malformed payloads)"
        )
    if status["best"] is not None:
        lines.append(
            f"   best so far: replicate {status['best']['replicate']}, "
            f"lnL = {status['best']['log_likelihood']:.4f}"
        )
    for split, support in sorted(status["supports"].items(),
                                 key=lambda kv: (-kv[1], sorted(kv[0]))):
        lines.append(f"   support {support * 100:5.1f}%  "
                     f"{{{','.join(sorted(split))}}}")
    if status["consensus_newick"]:
        lines.append(f"   majority-rule consensus: "
                     f"{status['consensus_newick']}")
    perf = status["perf"]
    if perf:
        interesting = [
            "newview_calls", "pmat_hits", "pmat_misses",
            "arena_acquires",
        ]
        shown = {k: perf[k] for k in interesting if k in perf}
        if shown:
            lines.append(
                "   engine counters: "
                + ", ".join(f"{k}={v}" for k, v in shown.items())
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> None:  # pragma: no cover
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if "--markdown" in argv:
        print(render_markdown())
    else:
        print(render_report())


if __name__ == "__main__":  # pragma: no cover
    main()
