"""The four workloads: seeded inputs, set-up, the timed operation, and
the correctness checks of each.

Everything a workload feeds the program derives from ``--seed``, and the
program under test only ever sees the generated inputs (FASTA text, a
start tree, request bodies).  The seed varies what the layers' cost does
*not* depend on — taxon row order, site column order, the per-run
taxon-name tag that makes every serve job a distinct cache key, where in
the mix each client starts — and leaves the generating trees, dimensions
and inference seeds fixed.  That is deliberate: smoothing to convergence
and hill climbing are step functions of the data (resampling the sites
of the 2400-column alignment moved smoothing between 10 and 13 sweeps,
±15 %; a new inference seed moves a search between 2 and 6 rounds),
which is more than any regression bound this benchmark may set, so runs
on different seeds must do the same amount of work to be comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.phylo import (
    Tree,
    create_engine,
    default_gtr,
    infer_tree,
    run_full_analysis,
    synthetic_dataset,
)
from repro.phylo.alignment import Alignment
from repro.phylo.inference import default_model_for
from repro.phylo.rates import GammaRates

import loadgen
from loadgen import OpFailed

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


class Letters:
    """A generated alignment as taxon names over a byte matrix of IUPAC
    letters: cheap to shuffle and to print as FASTA."""

    def __init__(self, alignment: Alignment):
        self.taxa = list(alignment.taxa)
        self.matrix = np.array([
            np.frombuffer(alignment.sequence(t).encode(), dtype=np.uint8)
            for t in self.taxa])

    def fasta(self, rng: np.random.Generator, rows: bool = True,
              prefix: str = "") -> str:
        """The same alignment in another presentation: permuted site
        columns, optionally permuted rows, optionally prefixed names."""
        cols = rng.permutation(self.matrix.shape[1])
        order = rng.permutation(len(self.taxa)) if rows \
            else range(len(self.taxa))
        return "".join(
            f">{prefix}{self.taxa[i]}\n{self.matrix[i][cols].tobytes().decode()}\n"
            for i in order)


def sha256_of(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class Workload:
    """One workload.  ``setup`` may run several times (the run reports
    the median); the state of the last call is what ``op`` uses."""

    name = ""
    why = ""
    n_clients = 1
    #: operations per cycle of the mix, one of each kind.
    cycle = 1
    #: What one run makes of the latencies of one kind of operation.  In
    #: process a kind is the same computation every time, so whatever a
    #: round took beyond the fastest was the host (interference only adds
    #: time): the best round.  The servers override this.
    typical = staticmethod(min)

    def __init__(self, seed: int, ctx: Dict[str, object]):
        self.seed = seed
        self.ctx = ctx
        self.inputs_sha256 = ""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, client: int, i: int) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self, samples: List[Dict[str, float]]) -> List[str]:
        """Post-loop correctness checks; returns one line per failure."""
        return []

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_latency_s(self, samples: List[Dict[str, float]]) -> float:
        """The typical latency of each kind of operation, averaged over
        the kinds: each kind weighs the same however many of each a run
        happened to complete."""
        kinds: Dict[float, List[float]] = {}
        for sample in samples:
            kinds.setdefault(sample["kind"], []).append(sample["latency"])
        return statistics.mean(self.typical(v) for v in kinds.values())

    def ops_per_s(self, samples: List[Dict[str, float]]) -> float:
        """One caller back to back: the rate of a loop whose operations
        each take their typical time."""
        return 1.0 / self.op_latency_s(samples)


# -- engine_smooth ---------------------------------------------------------


class EngineSmooth(Workload):
    name = "engine_smooth"
    why = ("Kernels do nearly all the work, no search, cluster or HTTP: "
           "backend, kernel and smoothing-algorithm changes show here; "
           "timed to convergence so cheaper sweeps that need more do not win")

    #: The ``bench_engine_backends`` generating process cut from 42 to 12
    #: taxa (~600 patterns, ~0.5 s a round instead of ~5.5) so that a run
    #: of the contract's length still medians over dozens of rounds.
    N_TAXA, N_SITES, DATA_SEED, TREE_SEED = 12, 2400, 42, 7
    PASSES, TOLERANCE = 25, 1e-6

    def setup(self) -> None:
        base = synthetic_dataset(
            n_taxa=self.N_TAXA, n_sites=self.N_SITES, seed=self.DATA_SEED,
            mean_branch_length=0.15, invariant_fraction=0.05)
        self.start_newick = Tree.from_tip_names(
            base.taxa, np.random.default_rng(self.TREE_SEED)
        ).to_newick(digits=17)
        fasta = Letters(base).fasta(np.random.default_rng([self.seed, 1]))
        self.inputs_sha256 = sha256_of(fasta, self.start_newick)
        self.alignment = Alignment.from_fasta(fasta)
        self.patterns = self.alignment.compress()
        self.model = default_gtr().with_frequencies(
            self.patterns.base_frequencies())
        self.first_lnl: Optional[float] = None
        self.converge()  # warm-up: backend resolution, caches, allocator

    def converge(self, tracer=None) -> Tuple[float, object]:
        engine = create_engine(
            self.patterns, self.model, GammaRates(0.7, 4),
            Tree.from_newick(self.start_newick), tracer=tracer)
        try:
            engine.evaluate()
            engine.optimize_all_branches(passes=self.PASSES,
                                         tolerance=self.TOLERANCE)
            return engine.evaluate(), engine
        finally:
            engine.detach()

    def op(self, client: int, i: int) -> Dict[str, float]:
        begin = time.perf_counter()
        lnl, _ = self.converge()
        latency = time.perf_counter() - begin
        expected = EXPECTED["engine_smooth"]["log_likelihood"]
        if abs(lnl - expected) > 1e-6:
            raise OpFailed(f"lnL {lnl!r} is not the pinned {expected!r}")
        if self.first_lnl is None:
            self.first_lnl = lnl
        elif lnl != self.first_lnl:
            raise OpFailed(f"lnL {lnl!r} differs from round 0 {self.first_lnl!r}")
        return {"kind": 0, "latency": latency}


# -- search_sc -------------------------------------------------------------


class SearchSC(Workload):
    name = "search_sc"
    why = ("The paper's workload, time to a tree: few patterns per call, so "
           "search/optimize/engine.core Python overhead and call counts "
           "matter as much as kernel speed; batch_spr-style changes show here")

    #: The 42_SC generating process (``synthetic_dataset`` defaults) cut
    #: to 12 taxa; 3000 sites keep ~200 patterns per kernel call, the
    #: 42_SC regime, while a search takes ~1 s instead of ~8.
    N_TAXA, N_SITES, DATA_SEED = 12, 3000, 42
    INFERENCE_SEEDS = (0, 1, 2)
    cycle = len(INFERENCE_SEEDS)

    def setup(self) -> None:
        base = synthetic_dataset(n_taxa=self.N_TAXA, n_sites=self.N_SITES,
                                 seed=self.DATA_SEED)
        rng = np.random.default_rng([self.seed, 2])
        # Rows keep their order: stepwise addition draws taxa by row index.
        fasta = Letters(base).fasta(rng, rows=False)
        self.offset = int(rng.integers(self.cycle))
        self.inputs_sha256 = sha256_of(fasta, str(self.offset))
        self.alignment = Alignment.from_fasta(fasta)
        self.patterns = self.alignment.compress()
        self.results: Dict[int, object] = {}
        self.rescore(Tree.from_tip_names(  # warm-up
            self.patterns.taxa, np.random.default_rng(0)).to_newick(), None)

    def rescore(self, newick: str, backend: Optional[str]) -> float:
        engine = create_engine(
            self.patterns, default_model_for(self.patterns),
            GammaRates(1.0, 4), Tree.from_newick(newick), backend=backend)
        try:
            return engine.evaluate()
        finally:
            engine.detach()

    def kind_of(self, i: int) -> int:
        return (i + self.offset) % self.cycle

    def op(self, client: int, i: int, tracer=None) -> Dict[str, float]:
        kind = self.kind_of(i)
        begin = time.perf_counter()
        result = infer_tree(self.patterns, seed=self.INFERENCE_SEEDS[kind],
                            tracer=tracer)
        latency = time.perf_counter() - begin
        self.results[kind] = result
        floor = EXPECTED["search_sc"]["log_likelihood"][kind] - 1.0
        if result.log_likelihood < floor:
            raise OpFailed(f"search {kind}: lnL {result.log_likelihood} is "
                           f"below the quality band {floor}")
        return {"kind": kind, "latency": latency}

    def finish(self, samples) -> List[str]:
        """Re-score each final tree, outside the timed region, on the
        default backend and on the ``reference`` oracle."""
        failures = []
        for kind, result in sorted(self.results.items()):
            default = self.rescore(result.newick, None)
            oracle = self.rescore(result.newick, "reference")
            if abs(default - oracle) > 1e-9 * abs(oracle):
                failures.append(f"search {kind}: default backend {default!r} "
                                f"vs reference {oracle!r}")
            # The newick carries rounded branch lengths, hence the slack.
            if abs(default - result.log_likelihood) \
                    > 1e-6 * abs(result.log_likelihood):
                failures.append(f"search {kind}: re-scored {default!r} vs "
                                f"reported {result.log_likelihood!r}")
        return failures


# -- the two serve workloads -----------------------------------------------


def submission(fasta: str, n_bootstraps: int, seed: int, client: str) -> bytes:
    return json.dumps({
        "alignment": fasta,
        "model": {"n_inferences": 1, "n_bootstraps": n_bootstraps,
                  "seed": seed},
        "client": client,
    }).encode()


class ServeWorkload(Workload):
    """Shared: a live two-worker server, two closed-loop clients."""

    n_clients = 2
    #: A request's latency has a distribution of its own (it may queue
    #: behind the other client's): the median.
    typical = staticmethod(statistics.median)

    def __init__(self, seed, ctx):
        super().__init__(seed, ctx)
        self.server: Optional[loadgen.Server] = None
        self.tag = "%08x" % np.random.default_rng([seed, 3]).integers(2 ** 32)

    def start_server(self) -> None:
        self.teardown()
        self.server = loadgen.Server(self.ctx["src"], self.ctx["scratch"],
                                     self.ctx["env"])
        self.server.start()

    @property
    def port(self) -> int:
        return self.server.port

    def stats(self) -> Dict[str, object]:
        return loadgen.http_json(self.port, "GET", "/stats", expect=200)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        # The largest process of the reaped server tree (servers of earlier
        # set-up repeats included; they are the same program).
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def ops_per_s(self, samples: List[Dict[str, float]]) -> float:
        """Units of work per second over whole cycles of the mix, summed
        over the clients, so a run that stops mid-cycle does not count a
        cheap or a dear operation more."""
        total = 0.0
        for client in range(self.n_clients):
            own = [s for s in samples if s["client"] == client]
            whole = len(own) - len(own) % self.cycle or len(own)
            if whole:
                total += sum(s.get("units", 1.0) for s in own[:whole]) \
                    / own[whole - 1]["end"]
        return total

    def run_to_result(self, job_id: str) -> Tuple[List[str], float, float,
                                                  Dict[str, object], float]:
        """Stream a job's events to the end, then fetch ``/result``,
        polling through the documented 409 window between the journal's
        ``run_finished`` and the record turning ``done``.

        Returns the events, when the first arrived, when the stream
        ended, the result, and the seconds its final GET took.
        """
        events, first_event = loadgen.sse_events(self.port, job_id)
        streamed = time.perf_counter()
        if events[-1:] != ["run_finished"]:
            raise OpFailed(f"stream {job_id} ended in {events[-1:]}")
        deadline = streamed + loadgen.HTTP_TIMEOUT_S
        while True:
            asked = time.perf_counter()
            status, raw = loadgen.http_call(self.port, "GET",
                                            f"/jobs/{job_id}/result")
            if status == 200:
                return (events, first_event, streamed, json.loads(raw),
                        time.perf_counter() - asked)
            if status != 409 or b"job_not_finished" not in raw \
                    or asked > deadline:
                raise OpFailed(f"result {job_id}: status {status} {raw[:120]!r}")
            time.sleep(0.002)


class ServeJobs(ServeWorkload):
    name = "serve_jobs"
    why = ("Every submission is a cache miss crossing HTTP, parse, digest, "
           "JobStore, FairScheduler, fork, journal and aggregation while "
           "kernels do little: service/cluster overhead shows, kernels barely")

    #: (taxa, sites, bootstraps, job seed); every job runs 1 inference.
    #: One size down from the issue's 6x120 / 8x200 / 12x300 mix: on
    #: that one the kernels of a job (2.2 s for the 12 x 300) outweigh
    #: everything around them, which is the other workloads' subject.
    SHAPES = ((5, 100, 1, 11), (6, 120, 2, 12), (8, 200, 3, 13))
    DATA_SEED = 3
    cycle = len(SHAPES)

    def setup(self) -> None:
        self.bases = [Letters(synthetic_dataset(n_taxa=t, n_sites=s,
                                                seed=self.DATA_SEED))
                      for t, s, _, _ in self.SHAPES]
        # The seed picks where in the mix the clients start; they stay one
        # kind apart, so every seed interleaves the two loops the same way.
        start = int(np.random.default_rng([self.seed, 4]).integers(self.cycle))
        self.offsets = [start + c for c in range(self.n_clients)]
        self.inputs_sha256 = sha256_of(
            *(self.body(c, i).decode() for c in range(self.n_clients)
              for i in range(2 * self.cycle)))
        self.sampled: Dict[int, Tuple[str, Dict[str, object]]] = {}
        self.served = [0] * self.n_clients  # one slot per client thread
        self.start_server()

    def kind_of(self, client: int, i: int) -> int:
        return (i + self.offsets[client]) % self.cycle

    def fasta(self, client: int, i: int) -> str:
        # Rows keep their order (stepwise addition draws by row index);
        # the tag makes the digest new, so the job is a cache miss.
        return self.bases[self.kind_of(client, i)].fasta(
            np.random.default_rng([self.seed, 5, client, i]), rows=False,
            prefix=f"{self.tag}c{client}j{i:05d}_")

    def body(self, client: int, i: int) -> bytes:
        _, _, n_boot, job_seed = self.SHAPES[self.kind_of(client, i)]
        return submission(self.fasta(client, i), n_boot, job_seed,
                          f"client-{client}")

    def op(self, client: int, i: int) -> Dict[str, float]:
        kind = self.kind_of(client, i)
        entered = time.perf_counter()
        body = self.body(client, i)
        sent = time.perf_counter()
        status, raw = loadgen.http_call(self.port, "POST", "/jobs", body)
        acked = time.perf_counter()
        if status != 201:
            raise OpFailed(f"submit: status {status} {raw[:120]!r}")
        ack = json.loads(raw)
        if ack["cached"]:
            raise OpFailed(f"submit {ack['job_id']}: unexpected cache hit")
        events, first_event, streamed, result, result_get = \
            self.run_to_result(ack["job_id"])
        done = time.perf_counter()
        if result["digest"] != ack["digest"] or result["degraded"]:
            raise OpFailed(f"result {ack['job_id']}: wrong digest or degraded")
        self.served[client] += 1
        if kind not in self.sampled:
            self.sampled[kind] = (self.fasta(client, i), result)
        return {
            "kind": kind, "latency": done - sent, "prep": sent - entered,
            "ack": acked - sent, "queue_wait": first_event - acked,
            "events": len(events), "terminal_lag": done - streamed,
            "result_get": result_get, "cached": 0.0,
        }

    def finish(self, samples) -> List[str]:
        failures = []
        stats = self.stats()
        if stats["runs_executed"] != sum(self.served):
            failures.append(f"runs_executed {stats['runs_executed']} != "
                            f"{sum(self.served)} jobs served")
        if stats["scheduler"]["rejected"]:
            failures.append(f"{stats['scheduler']['rejected']} rejected")
        # One sampled job per shape against the serial in-process analysis.
        for kind, (fasta, served) in sorted(self.sampled.items()):
            _, _, n_boot, job_seed = self.SHAPES[kind]
            local = run_full_analysis(Alignment.from_fasta(fasta).compress(),
                                      1, n_boot, seed=job_seed)
            supports = sorted([sorted(split), value]
                              for split, value in local.supports.items())
            if (served["best_newick"] != local.best.newick
                    or served["best_log_likelihood"]
                    != local.best.log_likelihood
                    or served["supports"] != supports):
                failures.append(f"shape {kind}: served result differs from "
                                f"run_full_analysis")
        return failures


class ServeDup(ServeWorkload):
    name = "serve_dup"
    why = ("The serve layers the other way, reads and cache hits: alignment "
           "parse + compress, canonical digest, JobStore record write, zero "
           "cluster or kernel work; per-request cost vs stored-job count")

    #: 8 taxa x 4000 sites is the ~32 KB body of the issue's 16 x 2000 at
    #: a fifth of the priming time, and two primed alignments exercise
    #: the hit path like four: set-up runs several times in every run.
    N_TAXA, N_SITES, JOB_SEED, N_SHUFFLES = 8, 4000, 7, 6
    DATA_SEEDS = (21, 22)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 6])
        self.primes, self.duplicates = [], []
        for k, data_seed in enumerate(self.DATA_SEEDS):
            base = Letters(synthetic_dataset(
                n_taxa=self.N_TAXA, n_sites=self.N_SITES, seed=data_seed))
            prefix = f"{self.tag}a{k}_"
            self.primes.append(submission(
                base.fasta(rng, prefix=prefix), 0, self.JOB_SEED, "primer"))
            self.duplicates.append([
                submission(base.fasta(rng, prefix=prefix), 0, self.JOB_SEED,
                           "reader")
                for _ in range(self.N_SHUFFLES)])
        self.inputs_sha256 = sha256_of(
            *(b.decode() for b in self.primes),
            *(b.decode() for per in self.duplicates for b in per))
        self.start_server()
        self.digests = []
        for body in self.primes:
            ack = loadgen.http_json(self.port, "POST", "/jobs", body,
                                    expect=201)
            self.run_to_result(ack["job_id"])
            self.digests.append(ack["digest"])

    def op(self, client: int, i: int) -> Dict[str, float]:
        k = (i + client) % len(self.primes)
        body = self.duplicates[k][(i // len(self.primes)) % self.N_SHUFFLES]
        sent = time.perf_counter()
        status, raw = loadgen.http_call(self.port, "POST", "/jobs", body)
        acked = time.perf_counter()
        ack = json.loads(raw) if status == 200 else {}
        if ack.get("cached") is not True:
            raise OpFailed(f"duplicate: status {status} {raw[:120]!r}")
        result = loadgen.http_json(self.port, "GET",
                                   f"/jobs/{ack['job_id']}/result", expect=200)
        got_result = time.perf_counter()
        record = loadgen.http_json(self.port, "GET", f"/jobs/{ack['job_id']}",
                                   expect=200)
        got_status = time.perf_counter()
        if result["digest"] != self.digests[k] or record["state"] != "done":
            raise OpFailed(f"duplicate {ack['job_id']}: wrong digest or state")
        return {
            "kind": 0, "latency": acked - sent, "units": 3.0,
            "ack": acked - sent, "result_get": got_result - acked,
            "status_get": got_status - got_result, "cached": 1.0,
        }

    def finish(self, samples) -> List[str]:
        stats = self.stats()
        if stats["runs_executed"] != len(self.primes):
            return [f"runs_executed {stats['runs_executed']} != "
                    f"{len(self.primes)} primed"]
        return []


WORKLOADS = {cls.name: cls
             for cls in (EngineSmooth, SearchSC, ServeJobs, ServeDup)}
