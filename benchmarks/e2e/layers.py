"""The traced pass: spans recorded from this directory only, around the
calls into each layer's public functions, and the per-layer metrics read
off them.  Nothing here runs in an untraced (end-to-end) measurement.

A layer is a module of ``repro``.  A metric a workload's path never
reaches reads 0 there: the layer did no work (e.g. every ``phylo.engine``
count on ``serve_dup``), which is the "no change expected" prediction of
the README's interaction list made checkable.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

PAPER_PROFILE = {"newview": 76.8, "makenewz": 19.16, "evaluate": 2.37}

#: name -> (unit, better).  Direction is nominal for shares and counts.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "serve.app.healthz_ms": ("ms", "lower"),
    "serve.app.submit_ack_ms_p50": ("ms", "lower"),
    "serve.app.job_latency_p75_s": ("s", "lower"),
    "serve.app.hit_latency_p90_ms": ("ms", "lower"),
    "serve.app.hit_latency_p99_ms": ("ms", "lower"),
    "serve.app.result_get_ms_p50": ("ms", "lower"),
    "serve.app.status_get_ms_p50": ("ms", "lower"),
    "serve.api.parse_submission_ms": ("ms", "lower"),
    "phylo.alignment.parse_ms": ("ms", "lower"),
    "phylo.alignment.compress_ms": ("ms", "lower"),
    "serve.cache.job_digest_ms": ("ms", "lower"),
    "serve.cache.hit_ratio": ("ratio", "higher"),
    "serve.jobstore.submit_miss_ms": ("ms", "lower"),
    "serve.jobstore.submit_hit_ms": ("ms", "lower"),
    "serve.jobstore.result_ms": ("ms", "lower"),
    "serve.jobstore.execute_s": ("s", "lower"),
    "serve.fairness.queue_wait_p50_s": ("s", "lower"),
    "serve.fairness.next_job_ms": ("ms", "lower"),
    "serve.fairness.rejected": ("count", "lower"),
    "serve.sse.events_per_job": ("count", "lower"),
    "serve.sse.terminal_lag_ms": ("ms", "lower"),
    "cluster.run_job_s.w1": ("s", "lower"),
    "cluster.run_job_s.w2": ("s", "lower"),
    "cluster.scaling_efficiency_w2": ("ratio", "higher"),
    "cluster.overhead_s": ("s", "lower"),
    "cluster.queue.retries": ("count", "lower"),
    "cluster.queue.worker_deaths": ("count", "lower"),
    "cluster.checkpoint.append_us": ("us", "lower"),
    "cluster.shards.append_us": ("us", "lower"),
    "cluster.checkpoint.replay_ms": ("ms", "lower"),
    "cluster.checkpoint.records_per_job": ("count", "lower"),
    "cluster.checkpoint.bytes_per_job": ("B", "lower"),
    "cluster.aggregate.ingest_us": ("us", "lower"),
    "cluster.aggregate.analysis_ms": ("ms", "lower"),
    "phylo.parsimony.start_tree_s": ("s", "lower"),
    "phylo.search.hill_climb_s": ("s", "lower"),
    "phylo.search.rounds": ("count", "lower"),
    "phylo.search.evaluated_moves": ("count", "lower"),
    "phylo.search.accepted_moves": ("count", "higher"),
    "phylo.search.accept_ratio": ("ratio", "higher"),
    "phylo.search.self_share": ("ratio", "lower"),
    "phylo.optimize.smooth_passes": ("count", "lower"),
    "phylo.optimize.makenewz_per_pass": ("count", "lower"),
    "phylo.engine.newview_calls": ("count", "lower"),
    "phylo.engine.makenewz_calls": ("count", "lower"),
    "phylo.engine.evaluate_calls": ("count", "lower"),
    "phylo.engine.newview_patterncats": ("count", "lower"),
    "phylo.engine.newview_us_per_call": ("us", "lower"),
    "phylo.engine.newview_share": ("ratio", "lower"),
    "phylo.engine.makenewz_share": ("ratio", "lower"),
    "phylo.engine.evaluate_share": ("ratio", "lower"),
    "phylo.engine.kernel_share_of_wall": ("ratio", "higher"),
    "phylo.engine.pmat_hit_ratio": ("ratio", "higher"),
    "phylo.engine.arena_high_water": ("count", "lower"),
    "phylo.engine.numerical_faults": ("count", "lower"),
    "phylo.engine.degraded": ("count", "lower"),
}
BACKEND_SPECS = {"einsum": "einsum", "compiled-1": "compiled:1",
                 "compiled-2": "compiled:2", "partitioned-2": "partitioned:2"}
for _label in BACKEND_SPECS:
    for _name, _unit, _better in (
            ("sweep_s", "s", "lower"), ("kernel_calls", "count", "lower"),
            ("patterncats_per_s", "1/s", "higher"),
            ("warmup_us", "us", "lower"),
            ("lnl_gap_vs_einsum", "lnL", "lower")):
        PER_LAYER[f"phylo.engine.backends.{_label}.{_name}"] = (_unit, _better)
PER_LAYER["benchmark.trace_overhead_share"] = ("ratio", "lower")
PER_LAYER["benchmark.loadgen_late_ms_p99"] = ("ms", "lower")

#: Span name -> the method that is one invocation of it.  ``newview`` is
#: the private ``_newview``: ``makenewz`` and ``evaluate`` fill CLVs
#: through it, never through the public copy-returning ``newview``.
ENGINE_METHODS = {"newview": "_newview", "makenewz": "makenewz",
                  "evaluate": "evaluate"}


class Spans:
    """In-memory span recorder for one trace (single-threaded use)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        #: [name, start, end, parent index or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrapping(self, owner: object, attribute: str, name: str
                 ) -> Callable[[], None]:
        """Replace ``owner.attribute`` by a version that records a span
        per call; returns the function that puts the original back."""
        original = getattr(owner, attribute)
        spans = self

        def traced(*args, **kwargs):
            with spans.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        return lambda: setattr(owner, attribute, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds
        (duration minus the part its child spans cover)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - covered[index]
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "trace_id": self.trace_id,
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": [[i, *span] for i, span in enumerate(self.spans)],
            }, fh)


@contextmanager
def instrumented(spans: Spans):
    """Span every kernel entry point and the search stages around them."""
    import repro.phylo.inference as inference
    from repro.phylo.engine.core import LikelihoodEngine

    undo = [spans.wrapping(LikelihoodEngine, method, f"phylo.engine.{name}")
            for name, method in ENGINE_METHODS.items()]
    undo.append(spans.wrapping(inference, "stepwise_addition_tree",
                               "phylo.parsimony.stepwise_addition_tree"))
    undo.append(spans.wrapping(inference, "hill_climb",
                               "phylo.search.hill_climb"))
    try:
        yield
    finally:
        for restore in undo:
            restore()


def ms(seconds: float) -> float:
    return seconds * 1e3


def median_time(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: List[float], q: float, metric: str, notes) -> float:
    """A tail percentile with its sample count; labelled when fewer than
    ten samples lie beyond it, the least a percentile can rest on."""
    notes["sample_counts"][metric] = len(values)
    if len(values) * (1 - q) < 10:
        notes["labels"][metric] = "fewer than 10 samples beyond it"
    return percentile(values, q)


def engine_metrics(spans: Spans, tracer, wall: float) -> Dict[str, float]:
    """The three-function profile and the engine's own counters.

    Engine spans nest only in each other, so their self times add up to
    the time spent anywhere inside the engine.
    """
    totals = spans.totals()
    rows = {m: totals.get(f"phylo.engine.{m}",
                          {"calls": 0, "total": 0.0, "self": 0.0})
            for m in ENGINE_METHODS}
    engine_time = sum(row["self"] for row in rows.values())
    counters = tracer.perf_counters()
    lookups = counters.get("pmat_hits", 0) + counters.get("pmat_misses", 0)
    values = {
        "phylo.engine.newview_patterncats":
            tracer.summary().newview_patterncats,
        "phylo.engine.newview_us_per_call":
            rows["newview"]["self"] / max(1, rows["newview"]["calls"]) * 1e6,
        "phylo.engine.kernel_share_of_wall": engine_time / wall,
        "phylo.engine.pmat_hit_ratio":
            counters.get("pmat_hits", 0) / lookups if lookups else 0.0,
        "phylo.engine.arena_high_water": max(
            (source()["arena_high_water"]
             for source in tracer.counter_sources), default=0),
        "phylo.engine.numerical_faults": counters.get("numerical_faults", 0),
        "phylo.engine.degraded": counters.get("degraded", 0),
    }
    for method, row in rows.items():
        values[f"phylo.engine.{method}_calls"] = row["calls"]
        values[f"phylo.engine.{method}_share"] = (
            row["self"] / engine_time if engine_time else 0.0)
    return values


def search_metrics(spans: Spans, results) -> Dict[str, float]:
    totals = spans.totals()
    climb = totals.get("phylo.search.hill_climb", {"total": 0.0, "self": 0.0})
    evaluated = sum(r.search.evaluated_moves for r in results)
    accepted = sum(r.search.accepted_moves for r in results)
    return {
        "phylo.parsimony.start_tree_s": totals.get(
            "phylo.parsimony.stepwise_addition_tree", {"total": 0.0})["total"],
        "phylo.search.hill_climb_s": climb["total"],
        "phylo.search.rounds": sum(r.search.rounds for r in results),
        "phylo.search.evaluated_moves": evaluated,
        "phylo.search.accepted_moves": accepted,
        "phylo.search.accept_ratio": accepted / evaluated if evaluated else 0.0,
        "phylo.search.self_share":
            climb["self"] / climb["total"] if climb["total"] else 0.0,
    }


# -- engine_smooth ---------------------------------------------------------


def backend_sweeps(notes: Dict[str, object], repeats: int) -> Dict[str, float]:
    """One evaluate + one smoothing pass + evaluate per available backend
    on the 1277-pattern alignment of ``bench_engine_backends``: the best
    of *repeats*, like that benchmark."""
    import numpy as np
    from repro.phylo import (Tree, create_engine, default_gtr,
                             synthetic_dataset)
    from repro.phylo.engine import available_backends
    from repro.phylo.engine.backends.compiled import compiled_available
    from repro.phylo.rates import GammaRates
    from repro.port.trace import Tracer

    patterns = synthetic_dataset(
        n_taxa=42, n_sites=2400, seed=42, mean_branch_length=0.15,
        invariant_fraction=0.05).compress()
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    start = Tree.from_tip_names(
        patterns.taxa, np.random.default_rng(7)).to_newick(digits=17)
    offered = available_backends()
    notes["compiled"] = {"flavor": compiled_available()}
    labels = notes.setdefault("labels", {})
    if (os.cpu_count() or 1) < 2:
        labels["thread_scaling"] = "unmeasured: cpu_count < 2"
    values: Dict[str, float] = {}
    reference_lnl: Optional[float] = None
    for label, spec in BACKEND_SPECS.items():
        if spec.split(":")[0] not in offered:
            labels[f"phylo.engine.backends.{label}"] = "backend not offered"
            continue
        best = float("inf")
        for _ in range(repeats):
            tracer = Tracer()
            engine = create_engine(patterns, model, GammaRates(0.7, 4),
                                   Tree.from_newick(start), tracer=tracer,
                                   backend=spec)
            try:
                started = time.perf_counter()
                engine.evaluate()
                engine.optimize_all_branches(passes=1)
                lnl = engine.evaluate()
                best = min(best, time.perf_counter() - started)
                counters = engine.perf_counters()
            finally:
                engine.detach()
        summary = tracer.summary()
        work = (summary.newview_patterncats + summary.makenewz_patterncats
                + summary.evaluate_patterncats)
        if reference_lnl is None:
            reference_lnl = lnl
        prefix = f"phylo.engine.backends.{label}."
        values[prefix + "sweep_s"] = best
        values[prefix + "kernel_calls"] = counters["backend_kernel_calls"]
        values[prefix + "patterncats_per_s"] = work / best
        values[prefix + "warmup_us"] = counters["backend_warmup_us"]
        values[prefix + "lnl_gap_vs_einsum"] = abs(lnl - reference_lnl)
        if label.startswith("compiled"):
            notes["compiled"]["build_us"] = counters["backend_warmup_us"]
    return values


def overhead_share(untraced: List[float], traced: List[float]) -> float:
    """(traced - untraced) / untraced, the median over alternated pairs."""
    return statistics.median((t - u) / u for u, t in zip(untraced, traced))


def trace_engine_smooth(workload, seconds: float, notes) -> Dict[str, float]:
    from repro.port.trace import Tracer

    pairs = 1 if workload.ctx["smoke"] else 5
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(median_time(workload.converge, 1))
        spans = Spans(f"{workload.name}-{workload.seed}")
        tracer = Tracer()
        with instrumented(spans):
            with spans.span("engine_smooth.round") as round_span:
                _, engine = workload.converge(tracer=tracer)
        traced.append(round_span[2] - round_span[1])
    values = engine_metrics(spans, tracer, traced[-1])
    n_branches = len(engine.tree.branches)
    values["phylo.optimize.makenewz_per_pass"] = n_branches
    values["phylo.optimize.smooth_passes"] = (
        values["phylo.engine.makenewz_calls"] / n_branches)
    values["phylo.alignment.compress_ms"] = ms(median_time(
        workload.alignment.compress, pairs))
    values["benchmark.trace_overhead_share"] = overhead_share(untraced, traced)
    values.update(backend_sweeps(notes, 1 if workload.ctx["smoke"] else 2))
    spans.dump(os.path.join(workload.ctx["out"], f"trace-{workload.name}.json"))
    notes["attempted"] = 2 * pairs
    return values


# -- search_sc -------------------------------------------------------------


def trace_search_sc(workload, seconds: float, notes) -> Dict[str, float]:
    """Cycles of the three searches, untraced and traced by turns; counts
    and seconds below are totals over the last traced cycle."""
    from repro.port.trace import Tracer

    pairs = 1 if workload.ctx["smoke"] else 3
    cycle = range(workload.cycle)
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(sum(workload.op(0, i)["latency"] for i in cycle))
        spans = Spans(f"{workload.name}-{workload.seed}")
        tracer = Tracer()
        with instrumented(spans):
            traced.append(sum(workload.op(0, i, tracer=tracer)["latency"]
                              for i in cycle))
    values = engine_metrics(spans, tracer, traced[-1])
    values.update(search_metrics(spans, workload.results.values()))
    values["phylo.alignment.compress_ms"] = ms(median_time(
        workload.alignment.compress, 3))
    values["benchmark.trace_overhead_share"] = overhead_share(untraced, traced)
    spans.dump(os.path.join(workload.ctx["out"], f"trace-{workload.name}.json"))
    notes["attempted"] = 2 * pairs * workload.cycle
    notes["paper_profile_percent"] = PAPER_PROFILE
    return values


# -- the serve workloads ---------------------------------------------------


def live_loop(workload, seconds: float, notes) -> Tuple[Dict[str, float], list]:
    """A shorter run of the workload's own closed loop against the live
    server, read per request instead of per operation."""
    import loadgen

    port = workload.port
    values = {"serve.app.healthz_ms": ms(median_time(
        lambda: loadgen.http_json(port, "GET", "/healthz", expect=200), 20))}
    loop = loadgen.closed_loop(workload.n_clients, seconds, workload.op)
    samples = loop["samples"]
    failures = list(loop["failures"]) + workload.finish(samples)
    notes["failures"] = failures
    notes["attempted"] = len(samples) + len(failures)
    counts = notes.setdefault("sample_counts", {})
    counts["live_operations"] = len(samples)
    if not samples:
        return values, samples

    def column(key: str) -> List[float]:
        return [s[key] for s in samples if key in s]

    values["serve.app.submit_ack_ms_p50"] = ms(statistics.median(column("ack")))
    values["serve.cache.hit_ratio"] = statistics.mean(column("cached"))
    values["serve.fairness.rejected"] = \
        workload.stats()["scheduler"]["rejected"]
    if loop["late"]:
        values["benchmark.loadgen_late_ms_p99"] = ms(tail(
            loop["late"], 0.99, "benchmark.loadgen_late_ms_p99", notes))
    return values, samples


def local_root(ctx) -> str:
    """A fresh directory under the checkout's scratch area."""
    os.makedirs(ctx["scratch"], exist_ok=True)
    return tempfile.mkdtemp(prefix="local-root-", dir=ctx["scratch"])


def followed_job(spans: Spans, service, body: bytes):
    """One submission through the transport-free core, a span per layer
    boundary.  Returns each boundary's seconds, whether the submission
    hit the cache, and its record, patterns and spec."""
    from repro.serve.api import parse_submission
    from repro.serve.cache import job_digest
    from repro.serve.jobstore import load_alignment_text

    seconds: Dict[str, float] = {}

    def step(name: str, fn: Callable[[], object]) -> object:
        with spans.span(name) as record:
            out = fn()
        seconds[name] = record[2] - record[1]
        return out

    with spans.span("serve.submission"):
        text, spec, client, priority = step(
            "serve.api.parse_submission", lambda: parse_submission(body))
        alignment = step("phylo.alignment.parse",
                         lambda: load_alignment_text(text, aa=spec.aa))
        patterns = step("phylo.alignment.compress", alignment.compress)
        step("serve.cache.job_digest", lambda: job_digest(patterns, spec))
        record, hit = step(
            "serve.jobstore.submit",
            lambda: service.submit(text, spec, client=client,
                                   priority=priority))
        if not hit:
            claimed = step("serve.fairness.next_job", service.next_job)
            step("serve.jobstore.execute", lambda: service.execute(claimed))
        step("serve.jobstore.result", lambda: service.result(record.job_id))
    return seconds, hit, record, patterns, spec


def submission_metrics(seconds: Dict[str, float], hit: bool) -> Dict[str, float]:
    # JobService.submit parses, compresses and digests again inside; what
    # is left of it is the JobStore's record and alignment-file writes.
    store = seconds["serve.jobstore.submit"] - sum(
        seconds[k] for k in ("phylo.alignment.parse",
                             "phylo.alignment.compress",
                             "serve.cache.job_digest"))
    return {
        "serve.api.parse_submission_ms":
            ms(seconds["serve.api.parse_submission"]),
        "phylo.alignment.parse_ms": ms(seconds["phylo.alignment.parse"]),
        "phylo.alignment.compress_ms": ms(seconds["phylo.alignment.compress"]),
        "serve.cache.job_digest_ms": ms(seconds["serve.cache.job_digest"]),
        f"serve.jobstore.submit_{'hit' if hit else 'miss'}_ms": ms(store),
        "serve.jobstore.result_ms": ms(seconds["serve.jobstore.result"]),
    }


def journal_metrics(journal_path: str, scratch: str) -> Dict[str, float]:
    """Append, replay and aggregation cost on the followed job's own
    journal and its own ``replicate_done``-sized records."""
    from repro.cluster.aggregate import StreamingAggregator
    from repro.cluster.checkpoint import RunJournal, replay
    from repro.cluster.shards import ShardWriter

    state = replay(journal_path)
    payloads = list(state.payloads.values())
    biggest = max(state.events, key=lambda e: len(json.dumps(e)))
    fields = {k: v for k, v in biggest.items() if k not in ("event", "time")}
    appends = 500
    plain = os.path.join(scratch, "append-plain.jsonl")
    shard = os.path.join(scratch, "append-shard.jsonl")
    with RunJournal(plain) as journal:
        started = time.perf_counter()
        for _ in range(appends):
            journal.append(biggest["event"], **fields)
        plain_s = time.perf_counter() - started
    with ShardWriter(shard, group=0) as writer:
        started = time.perf_counter()
        for _ in range(appends):
            writer.append(biggest["event"], **fields)
        shard_s = time.perf_counter() - started

    def ingest_all():
        aggregator = StreamingAggregator()
        for payload in payloads:
            aggregator.ingest(payload)
        return aggregator

    aggregator = ingest_all()

    def analyse():
        aggregator.analysis()
        aggregator.consensus()

    return {
        "cluster.checkpoint.append_us": plain_s / appends * 1e6,
        "cluster.shards.append_us": shard_s / appends * 1e6,
        "cluster.checkpoint.replay_ms": ms(median_time(
            lambda: replay(journal_path), 5)),
        "cluster.checkpoint.records_per_job": len(state.events),
        "cluster.checkpoint.bytes_per_job": os.path.getsize(journal_path),
        "cluster.queue.retries": len(state.retries),
        "cluster.queue.worker_deaths": len(state.worker_deaths),
        "cluster.aggregate.ingest_us": median_time(ingest_all, 20)
        / max(1, len(payloads)) * 1e6,
        "cluster.aggregate.analysis_ms": ms(median_time(analyse, 20)),
    }


def trace_serve_jobs(workload, seconds: float, notes) -> Dict[str, float]:
    import repro.serve.jobstore as jobstore
    from repro.cluster.runner import run_job
    from repro.phylo import run_full_analysis
    from repro.port.trace import Tracer
    from repro.serve import JobService

    values, samples = live_loop(workload, seconds / 2, notes)
    representative = len(workload.SHAPES) - 1  # the largest job of the mix
    of_kind = [s for s in samples if s["kind"] == representative]
    if samples:
        values["serve.app.job_latency_p75_s"] = tail(
            [s["latency"] for s in samples], 0.75,
            "serve.app.job_latency_p75_s", notes)
        values["serve.fairness.queue_wait_p50_s"] = statistics.median(
            s["queue_wait"] for s in samples)
        values["serve.sse.events_per_job"] = statistics.mean(
            s["events"] for s in of_kind or samples)
        values["serve.sse.terminal_lag_ms"] = ms(statistics.median(
            s["terminal_lag"] for s in samples))
        values["serve.app.result_get_ms_p50"] = ms(statistics.median(
            s["result_get"] for s in samples))

    # One job of the representative shape, followed in process.
    body = workload.body(0, next(
        i for i in range(10_000, 10_000 + workload.cycle)
        if workload.kind_of(0, i) == representative))
    root = local_root(workload.ctx)
    spans = Spans(f"{workload.name}-{workload.seed}")
    try:
        service = JobService(root, n_workers=2)
        undo = spans.wrapping(jobstore, "run_job", "cluster.runner.run_job")
        try:
            seconds_of, hit, record, patterns, spec = followed_job(
                spans, service, body)
        finally:
            undo()
        values.update(submission_metrics(seconds_of, hit))
        values["serve.fairness.next_job_ms"] = ms(
            seconds_of["serve.fairness.next_job"])
        values["serve.jobstore.execute_s"] = seconds_of["serve.jobstore.execute"]
        values["cluster.run_job_s.w2"] = spans.totals()[
            "cluster.runner.run_job"]["total"]
        values.update(journal_metrics(
            service.store.journal_path(record.job_id), root))
        started = time.perf_counter()
        run_job(spec, patterns, n_workers=1,
                journal_path=os.path.join(root, "w1.jsonl"))
        w1 = time.perf_counter() - started
        values["cluster.run_job_s.w1"] = w1
        if (os.cpu_count() or 1) >= 2:
            values["cluster.scaling_efficiency_w2"] = w1 / (
                2 * values["cluster.run_job_s.w2"])
        else:
            notes.setdefault("labels", {})[
                "cluster.scaling_efficiency_w2"] = "unmeasured: cpu_count < 2"

        def analysis(tracer=None):
            return run_full_analysis(patterns, spec.n_inferences,
                                     spec.n_bootstraps, seed=spec.seed,
                                     tracer=tracer)

        # Engine and search spans only arise here (the followed job ran
        # its replicates in forked workers), so all but the last pair go
        # to a recorder that is thrown away.
        pairs = 1 if workload.ctx["smoke"] else 3
        untraced, traced_walls = [], []
        for k in range(pairs):
            untraced.append(median_time(analysis, 1))
            recorder = spans if k == pairs - 1 else Spans("discarded")
            tracer = Tracer()
            with instrumented(recorder):
                with recorder.span("phylo.inference.run_full_analysis") as top:
                    result = analysis(tracer)
            traced_walls.append(top[2] - top[1])
        traced = traced_walls[-1]
        values["cluster.overhead_s"] = w1 - statistics.median(untraced)
        values["benchmark.trace_overhead_share"] = overhead_share(
            untraced, traced_walls)
        values.update(engine_metrics(spans, tracer, traced))
        values.update(search_metrics(
            spans, result.inferences + result.bootstraps))
        if of_kind:
            # Kernel seconds of the job against what its caller waited.
            engine_time = values["phylo.engine.kernel_share_of_wall"] * traced
            values["phylo.engine.kernel_share_of_wall"] = (
                engine_time / statistics.median(
                    s["latency"] for s in of_kind))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    spans.dump(os.path.join(workload.ctx["out"], f"trace-{workload.name}.json"))
    return values


def trace_serve_dup(workload, seconds: float, notes) -> Dict[str, float]:
    from repro.port.trace import Tracer
    from repro.serve import JobService

    values, samples = live_loop(workload, seconds / 2, notes)
    if samples:
        hits = [s["latency"] for s in samples]
        for q in (90, 99):
            metric = f"serve.app.hit_latency_p{q}_ms"
            values[metric] = ms(tail(hits, q / 100, metric, notes))
        values["serve.app.result_get_ms_p50"] = ms(statistics.median(
            s["result_get"] for s in samples))
        values["serve.app.status_get_ms_p50"] = ms(statistics.median(
            s["status_get"] for s in samples))

    # The duplicate's path followed in process: prime once, then hits.
    root = local_root(workload.ctx)
    spans = Spans(f"{workload.name}-{workload.seed}")
    repeats = 3 if workload.ctx["smoke"] else 20
    try:
        service = JobService(root, n_workers=2)
        followed_job(Spans("priming"), service, workload.primes[0])
        duplicates = workload.duplicates[0]
        tracer = Tracer()
        untraced, traced, steps = [], [], []
        for k in range(repeats):
            body = duplicates[k % len(duplicates)]
            # By turns, so neither side always finds the caches warm.
            for with_spans in ((False, True) if k % 2 else (True, False)):
                started = time.perf_counter()
                if with_spans:
                    with instrumented(spans):
                        steps.append(followed_job(spans, service, body))
                else:
                    followed_job(Spans("untraced"), service, body)
                (traced if with_spans else untraced).append(
                    time.perf_counter() - started)
        if not all(hit for _, hit, *_ in steps):
            notes["failures"].append("an in-process duplicate missed the cache")
        values.update(submission_metrics(
            {key: statistics.median(seconds_of[key] for seconds_of, *_ in steps)
             for key in steps[0][0]}, hit=True))
        # No kernel entry point may be reached on the duplicate's path.
        values.update(engine_metrics(spans, tracer, sum(traced)))
        values["benchmark.trace_overhead_share"] = overhead_share(
            untraced, traced)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    spans.dump(os.path.join(workload.ctx["out"], f"trace-{workload.name}.json"))
    return values


TRACERS = {"engine_smooth": trace_engine_smooth, "search_sc": trace_search_sc,
           "serve_jobs": trace_serve_jobs, "serve_dup": trace_serve_dup}


def traced_pass(workload, seconds: float):
    notes: Dict[str, object] = {"failures": [], "labels": {},
                                "sample_counts": {}}
    values = TRACERS[workload.name](workload, seconds, notes)
    return {k: float(v) for k, v in values.items()}, notes
