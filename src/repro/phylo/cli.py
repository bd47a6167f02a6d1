"""Command-line interface for the phylogenetics library.

RAxML-flavoured usage::

    python -m repro.phylo.cli infer -s data.phy -n 3 -b 10 -o out.nwk
    python -m repro.phylo.cli simulate --taxa 42 --sites 1167 -o synth.fasta
    python -m repro.phylo.cli distances -s data.fasta --method ml --nj
    python -m repro.phylo.cli report
    python -m repro.phylo.cli cluster run -s data.phy -n 2 -b 20 \
        --journal run.jsonl --workers 4
    python -m repro.phylo.cli cluster resume --journal run.jsonl
    python -m repro.phylo.cli cluster status --journal run.jsonl
    python -m repro.phylo.cli verify --check
    python -m repro.phylo.cli verify --fuzz 200
    python -m repro.phylo.cli serve --root /var/lib/repro-serve --port 8642

``infer`` runs the full workflow of the paper's section 3.1: ``-n``
independent searches from randomized stepwise-addition parsimony
starting trees plus ``-b`` non-parametric bootstraps, then maps support
values onto the best tree.  ``cluster`` runs the same workflow on the
fault-tolerant master-worker queue (:mod:`repro.cluster`) with an
append-only journal: an interrupted run resumed from its journal is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .alignment import Alignment
from .distances import distance_matrix, neighbor_joining
from .inference import run_full_analysis
from .models import GTR, HKY85, JC69, K80
from .rates import GammaRates
from .search import SearchConfig
from .simulate import synthetic_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-phylo",
        description="Maximum-likelihood phylogenetic inference "
        "(RAxML-Cell reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="run tree searches + bootstraps")
    infer.add_argument("-s", "--sequences", required=True,
                       help="alignment file (FASTA or PHYLIP)")
    infer.add_argument("-n", "--runs", type=int, default=1,
                       help="independent inferences (default 1)")
    infer.add_argument("-b", "--bootstraps", type=int, default=0,
                       help="bootstrap replicates (default 0)")
    infer.add_argument("-m", "--model", default="GTR",
                       choices=["GTR", "JC69", "K80", "HKY85"],
                       help="substitution model (default GTR, empirical "
                       "base frequencies; ignored with --aa, which uses "
                       "Poisson+F)")
    infer.add_argument("--aa", action="store_true",
                       help="treat the input as amino-acid sequences")
    infer.add_argument("--alpha", type=float, default=1.0,
                       help="Gamma shape (default 1.0)")
    infer.add_argument("--categories", type=int, default=4,
                       help="Gamma rate categories (default 4)")
    infer.add_argument("--radius", type=int, default=3,
                       help="initial SPR rearrangement radius (default 3)")
    infer.add_argument("--max-radius", type=int, default=6,
                       help="maximum SPR radius (default 6)")
    infer.add_argument("--rounds", type=int, default=8,
                       help="maximum SPR rounds (default 8)")
    infer.add_argument("--seed", type=int, default=0, help="RNG seed")
    infer.add_argument("--draw", action="store_true",
                       help="print an ASCII cladogram of the best tree")
    infer.add_argument("-o", "--output",
                       help="write the best tree (newick) here; with "
                       "bootstraps, internal nodes carry support labels")

    simulate = sub.add_parser("simulate", help="generate a synthetic "
                              "alignment (42_SC-style)")
    simulate.add_argument("--taxa", type=int, default=42)
    simulate.add_argument("--sites", type=int, default=1167)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--format", choices=["fasta", "phylip"],
                          default="fasta")
    simulate.add_argument("-o", "--output", help="output file (default "
                          "stdout)")

    distances = sub.add_parser("distances", help="pairwise distances / "
                               "neighbor-joining tree")
    distances.add_argument("-s", "--sequences", required=True)
    distances.add_argument("--method", choices=["jc", "ml"], default="jc")
    distances.add_argument("--nj", action="store_true",
                           help="print a neighbor-joining tree instead of "
                           "the matrix")

    sub.add_parser("report", help="run the full paper-vs-measured report")

    cluster = sub.add_parser(
        "cluster", help="fault-tolerant journalled master-worker runs"
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    crun = csub.add_parser("run", help="start a journalled cluster run")
    crun.add_argument("-s", "--sequences", required=True,
                      help="alignment file (FASTA or PHYLIP)")
    crun.add_argument("-n", "--runs", type=int, default=1,
                      help="independent inferences (default 1)")
    crun.add_argument("-b", "--bootstraps", type=int, default=0,
                      help="bootstrap replicates (default 0)")
    crun.add_argument("-m", "--model", default="GTR",
                      choices=["GTR", "JC69", "K80", "HKY85"],
                      help="substitution model (default GTR)")
    crun.add_argument("--aa", action="store_true",
                      help="treat the input as amino-acid sequences")
    crun.add_argument("--alpha", type=float, default=1.0,
                      help="Gamma shape (default 1.0)")
    crun.add_argument("--categories", type=int, default=4,
                      help="Gamma rate categories (default 4)")
    crun.add_argument("--radius", type=int, default=3,
                      help="initial SPR rearrangement radius (default 3)")
    crun.add_argument("--max-radius", type=int, default=6,
                      help="maximum SPR radius (default 6)")
    crun.add_argument("--rounds", type=int, default=8,
                      help="maximum SPR rounds (default 8)")
    crun.add_argument("--seed", type=int, default=0, help="RNG seed")
    crun.add_argument("--workers", type=int, default=2,
                      help="worker processes (default 2)")
    crun.add_argument("--batch-size", type=int, default=4,
                      help="bootstraps per coarse task before the "
                      "multigrain scheduler splits them (default 4)")
    crun.add_argument("--journal", required=True,
                      help="append-only JSONL run journal path")
    crun.add_argument("-o", "--output",
                      help="write the best tree (newick, with support "
                      "labels when bootstrapping) here")

    cresume = csub.add_parser("resume",
                              help="resume an interrupted run bit-"
                              "identically from its journal")
    cresume.add_argument("--journal", required=True)
    cresume.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: as journalled)")
    cresume.add_argument("-o", "--output", help="best-tree output path")

    crun.add_argument("--bootstop", action="store_true",
                      help="autoMRE bootstopping: treat -b as a budget and "
                      "stop early once support values converge")
    crun.add_argument("--bootstop-check-every", type=int, default=50,
                      metavar="K",
                      help="convergence checkpoint spacing in replicates "
                      "(default 50)")
    crun.add_argument("--bootstop-threshold", type=float, default=0.03,
                      metavar="T",
                      help="mean support distance threshold per permuted "
                      "half-split (default 0.03)")

    cstatus = csub.add_parser("status",
                              help="summarize a run journal (streaming "
                              "partial results included)")
    cstatus.add_argument("--journal", required=True)

    ccompact = csub.add_parser(
        "compact",
        help="atomically rewrite a journal keeping only the records "
        "resume needs (header, first result per replicate, footer)",
    )
    ccompact.add_argument("--journal", required=True)

    verify = sub.add_parser(
        "verify",
        help="differential / metamorphic / golden-corpus verification",
        description="Check the fast likelihood engine against the "
        "loop-based oracle (repro.verify). Default: validate the "
        "committed golden corpus and run a short differential fuzz; "
        "--write regenerates the corpus after an intentional numeric "
        "change.",
    )
    verify.add_argument("--check", action="store_true",
                        help="only validate the committed golden corpus")
    verify.add_argument("--write", action="store_true",
                        help="regenerate the golden corpus in place")
    verify.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="differential fuzz case count (default 25; "
                        "0 disables; acceptance bar is 200)")
    verify.add_argument("--seed", type=int, default=0,
                        help="base fuzz seed; case i uses seed+i "
                        "(default 0)")
    verify.add_argument("--rel-tol", type=float, default=1e-9,
                        help="fast-vs-oracle relative tolerance "
                        "(default 1e-9)")
    verify.add_argument("--corpus-dir", default=None,
                        help="golden corpus directory (default "
                        "tests/golden/ in the checkout)")
    verify.add_argument("--backend", default=None, metavar="NAME",
                        help="kernel backend for the fast engine in the "
                        "fuzz pass: einsum, reference, or 'all' for both "
                        "(default: the REPRO_ENGINE_BACKEND override, "
                        "else einsum)")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaigns (repro.chaos)",
        description="Run K-seed chaos campaigns against fault-free "
        "baselines. Every run must either complete bit-identical to "
        "the baseline (or loudly degraded within tolerance) or fail "
        "with a typed error; any silent corruption or untyped failure "
        "exits nonzero.",
    )
    chaos.add_argument("--seeds", type=int, default=25,
                       help="campaign seeds per flavour (default 25)")
    chaos.add_argument("--mode",
                       choices=["engine", "cluster", "serve", "resilience",
                                "both", "all"],
                       default="both",
                       help="which fault layer to campaign against: "
                       "engine, cluster, serve (server-kill/restart "
                       "loops), resilience (live HTTP server under "
                       "hostile clients + wedged workers), both = "
                       "engine+cluster, all = every layer (default both)")
    chaos.add_argument("--backend", default=None, metavar="NAME",
                       help="kernel backend for the engine campaign: "
                       "einsum, reference, or 'all' for both (default: "
                       "the REPRO_ENGINE_BACKEND override, else einsum)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="cluster campaign worker processes "
                       "(default 2)")
    chaos.add_argument("--start-seed", type=int, default=0,
                       help="first campaign seed (default 0)")
    chaos.add_argument("--workdir", default=None,
                       help="cluster campaign journal directory (default: "
                       "a fresh temp dir)")
    chaos.add_argument("--json", action="store_true",
                       help="print the full JSON reports instead of "
                       "summaries")
    chaos.add_argument("--bench", default=None, metavar="PATH",
                       help="merge campaign stats into this benchmark "
                       "JSON file as the 'chaos_campaign' section "
                       "(e.g. BENCH_engine.json)")

    serve = sub.add_parser(
        "serve",
        help="run the async inference service (repro.serve)",
        description="Serve tree inference over HTTP/JSON: POST /jobs "
        "submits an alignment + model + seed, GET /jobs/{id}/events "
        "streams the run journal as server-sent events, and GET "
        "/jobs/{id}/result returns the best tree with supports and "
        "consensus. Results are cached content-addressed, so duplicate "
        "submissions return instantly; an interrupted server resumes "
        "its jobs bit-identically on restart.",
    )
    serve.add_argument("--root", required=True,
                       help="service state directory (jobs, journals, "
                       "result cache, alignments)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (default 8642; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="cluster worker processes per job (default 2)")
    serve.add_argument("--max-inflight-per-client", type=int, default=1,
                       help="concurrent jobs allowed per client "
                       "(default 1)")
    serve.add_argument("--max-queued", type=int, default=None,
                       metavar="N",
                       help="total queued-job watermark: submissions "
                       "beyond N queued jobs are rejected with 429 + "
                       "Retry-After (default: unbounded)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                       "in-flight jobs get this long to reach a "
                       "checkpoint before the process exits (they "
                       "resume bit-identically on restart; default 10)")
    serve.add_argument("--max-job-memory-mb", type=float, default=None,
                       metavar="MB",
                       help="admission-time memory ceiling: submissions "
                       "whose estimated working set exceeds this are "
                       "rejected with 413 job_too_large (default: no "
                       "ceiling)")
    serve.add_argument("--max-queued-per-client", type=int, default=None,
                       metavar="N",
                       help="per-client queued-job watermark (default: "
                       "unbounded)")
    return parser


def _load_alignment(path: str, amino_acids: bool = False):
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if amino_acids:
        from .protein import ProteinAlignment

        if stripped.startswith(">"):
            return ProteinAlignment.from_fasta(text)
        return ProteinAlignment.from_phylip(text)
    if stripped.startswith(">"):
        return Alignment.from_fasta(text)
    return Alignment.from_phylip(text)


def _model_for(name: str, patterns):
    if name == "GTR":
        return GTR((1.0, 2.5, 1.0, 1.0, 2.5, 1.0),
                   tuple(patterns.base_frequencies()))
    if name == "JC69":
        return JC69()
    if name == "K80":
        return K80()
    if name == "HKY85":
        return HKY85(2.0, tuple(patterns.base_frequencies()))
    raise ValueError(f"unknown model {name}")


def _cmd_infer(args) -> int:
    alignment = _load_alignment(args.sequences, amino_acids=args.aa)
    patterns = alignment.compress()
    kind = "AA" if args.aa else "DNA"
    print(f"alignment: {alignment.n_taxa} taxa x {alignment.n_sites} "
          f"{kind} sites ({patterns.n_patterns} patterns)")
    config = SearchConfig(
        initial_radius=args.radius,
        max_radius=args.max_radius,
        max_rounds=args.rounds,
    )
    if args.aa:
        from .inference import default_model_for

        model = default_model_for(patterns)
    else:
        model = _model_for(args.model, patterns)
    analysis = run_full_analysis(
        patterns,
        n_inferences=args.runs,
        n_bootstraps=args.bootstraps,
        model=model,
        rate_model=GammaRates(args.alpha, args.categories),
        config=config,
        seed=args.seed,
    )
    _print_analysis(analysis)
    if args.draw:
        from .drawing import ascii_tree
        from .tree import Tree

        print()
        print(ascii_tree(Tree.from_newick(analysis.best.newick)))
    if args.output:
        _write_best_tree(analysis, args.output)
    return 0


def _cmd_simulate(args) -> int:
    alignment = synthetic_dataset(n_taxa=args.taxa, n_sites=args.sites,
                                  seed=args.seed)
    text = (alignment.to_fasta() if args.format == "fasta"
            else alignment.to_phylip())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({args.taxa} taxa x {args.sites} sites, "
              f"{alignment.compress().n_patterns} patterns)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distances(args) -> int:
    alignment = _load_alignment(args.sequences)
    patterns = alignment.compress()
    matrix = distance_matrix(patterns, method=args.method)
    if args.nj:
        tree = neighbor_joining(matrix, patterns.taxa)
        print(tree.to_newick())
        return 0
    width = max(len(t) for t in patterns.taxa) + 2
    print("".ljust(width) + "".join(t.rjust(10) for t in patterns.taxa))
    for i, name in enumerate(patterns.taxa):
        row = "".join(f"{matrix[i, j]:10.4f}" for j in range(patterns.n_taxa))
        print(name.ljust(width) + row)
    return 0


def _cmd_report(_args) -> int:
    from ..harness.report import render_report

    print(render_report())
    return 0


def _print_analysis(analysis) -> None:
    for result in analysis.inferences:
        marker = "  *best*" if result is analysis.best else ""
        print(f"inference {result.replicate}: "
              f"lnL = {result.log_likelihood:.4f}{marker}")
    if analysis.bootstraps:
        print(f"bootstraps: {len(analysis.bootstraps)}")
        for split, support in sorted(analysis.supports.items(),
                                     key=lambda kv: -kv[1]):
            print(f"  support {support * 100:5.1f}%  "
                  f"{{{','.join(sorted(split))}}}")
    print(f"best tree:\n{analysis.best.newick}")


def _write_best_tree(analysis, output: str) -> None:
    from ..cluster.checkpoint import atomic_write

    out_newick = analysis.best.newick
    if analysis.bootstraps:
        from .drawing import newick_with_support
        from .tree import Tree

        out_newick = newick_with_support(
            Tree.from_newick(analysis.best.newick), analysis.supports
        )
    # Atomic (temp + fsync + rename): a crash mid-write can never leave
    # a torn best-tree file where a previous good one stood.
    atomic_write(output, out_newick + "\n")
    print(f"wrote {output}")


def _cmd_cluster(args) -> int:
    from ..cluster.checkpoint import RetiredJournalFormatError

    try:
        return _cluster_command(args)
    except RetiredJournalFormatError as exc:
        print(f"cluster {args.cluster_command}: {exc}", file=sys.stderr)
        return 2


def _cluster_command(args) -> int:
    from ..cluster import JobSpec, resume_job, run_job

    if args.cluster_command == "status":
        from ..harness.report import render_cluster_status

        print(render_cluster_status(args.journal))
        return 0

    if args.cluster_command == "compact":
        from ..cluster.checkpoint import compact_journal

        state = compact_journal(args.journal)
        done = len(state.payloads)
        print(f"compacted {args.journal}: {done} replicate record(s) kept"
              + (f", {state.corrupt_records} corrupt record(s) dropped"
                 if state.corrupt_records else ""))
        return 0

    if args.cluster_command == "run":
        bootstop = None
        if args.bootstop:
            from ..cluster import BootstopConfig

            bootstop = BootstopConfig(
                check_every=args.bootstop_check_every,
                threshold=args.bootstop_threshold,
            )
        spec = JobSpec(
            n_inferences=args.runs,
            n_bootstraps=args.bootstraps,
            seed=args.seed,
            batch_size=args.batch_size,
            alignment_path=args.sequences,
            aa=args.aa,
            model_name="default" if args.aa else args.model,
            alpha=args.alpha,
            categories=args.categories,
            config=SearchConfig(
                initial_radius=args.radius,
                max_radius=args.max_radius,
                max_rounds=args.rounds,
            ),
            bootstop=bootstop,
        )
        analysis = run_job(spec, n_workers=args.workers,
                           journal_path=args.journal)
    else:  # resume
        analysis = resume_job(args.journal, n_workers=args.workers)
    _print_analysis(analysis)
    if args.output:
        _write_best_tree(analysis, args.output)
    print(f"journal: {args.journal}")
    return 0


def _backend_specs(choice: Optional[str], command: str):
    """The backends a ``--backend`` choice names (``all`` = every
    registered one, ``None`` = the session default), each checked up
    front; ``None`` after printing why when one is refused."""
    from .engine import available_backends, resolve_backend

    specs = available_backends() if choice == "all" else [choice]
    for spec in specs:
        try:
            resolve_backend(spec)
        except ValueError as exc:
            print(f"{command}: {exc}", file=sys.stderr)
            return None
    return specs


def _cmd_verify(args) -> int:
    from pathlib import Path

    from ..verify import check_corpus, run_differential, write_corpus

    if args.check and args.write:
        print("verify: --check and --write are mutually exclusive",
              file=sys.stderr)
        return 2
    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None

    if args.write:
        for path in write_corpus(corpus_dir):
            print(f"wrote {path}")
        return 0

    n_cases = 25 if args.fuzz is None else args.fuzz
    backends = []
    if n_cases and not args.check:
        backends = _backend_specs(args.backend, "verify")
        if backends is None:
            return 2

    mismatches = check_corpus(corpus_dir)
    if mismatches:
        print(f"golden corpus: {len(mismatches)} mismatch(es)")
        for message in mismatches:
            print(f"  {message}")
        print("(regenerate with `repro-phylo verify --write` only after "
              "an intentional numeric change)")
        return 1
    print("golden corpus: OK")
    if args.check:
        return 0

    failed = False
    for backend in backends:
        report = run_differential(
            n_cases=n_cases, seed=args.seed, rel_tol=args.rel_tol,
            backend=backend,
        )
        label = backend if backend is not None else "default"
        print(f"[backend={label}] {report.summary()}")
        if report.failures:
            failed = True
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    from ..chaos import (
        run_cluster_campaign,
        run_engine_campaign,
        run_resilience_campaign,
        run_serve_campaign,
    )

    reports = []
    if args.mode in ("engine", "both", "all"):
        backends = _backend_specs(args.backend, "chaos")
        if backends is None:
            return 2
        for backend in backends:
            reports.append(run_engine_campaign(
                n_seeds=args.seeds, backend=backend,
                start_seed=args.start_seed,
            ))
    if args.mode in ("cluster", "both", "all"):
        reports.append(run_cluster_campaign(
            n_seeds=args.seeds, n_workers=args.workers,
            workdir=args.workdir, start_seed=args.start_seed,
        ))
    if args.mode in ("serve", "all"):
        reports.append(run_serve_campaign(
            n_seeds=args.seeds, n_workers=args.workers,
            workdir=args.workdir, start_seed=args.start_seed,
        ))
    if args.mode in ("resilience", "all"):
        reports.append(run_resilience_campaign(
            n_seeds=args.seeds, n_workers=args.workers,
            workdir=args.workdir, start_seed=args.start_seed,
        ))

    for report in reports:
        if args.json:
            print(report.to_json_text())
        else:
            print(report.summary())

    if args.bench:
        import json as _json
        import os as _os

        from ..harness.report import merge_bench_section

        # Merge per campaign label, never replace the section wholesale:
        # CI runs engine, cluster, and resilience arms as separate
        # invocations against the same file, and each must keep the
        # others' committed stats.
        campaigns = {}
        if _os.path.isfile(args.bench):
            with open(args.bench) as fh:
                campaigns = dict(
                    _json.load(fh).get("chaos_campaign", {})
                    .get("campaigns", {})
                )
        for report in reports:
            campaigns[report.label] = {
                "n_seeds": args.seeds,
                "start_seed": args.start_seed,
                "n_runs": len(report.runs),
                "counts": report.counts,
                "faults_fired": report.faults_fired,
                "ok": report.ok,
            }
        merge_bench_section(args.bench, "chaos_campaign",
                            {"campaigns": campaigns})
        print(f"merged chaos_campaign section into {args.bench}")

    return 0 if all(report.ok for report in reports) else 1


def _cmd_serve(args) -> int:
    import asyncio

    from ..serve import serve_forever

    print(f"repro-serve: root={args.root} listening on "
          f"{args.host}:{args.port} (ctrl-c to stop; queued and running "
          f"jobs resume on restart)")
    try:
        asyncio.run(serve_forever(
            args.root, host=args.host, port=args.port,
            n_workers=args.workers,
            max_inflight_per_client=args.max_inflight_per_client,
            max_queued_total=args.max_queued,
            max_queued_per_client=args.max_queued_per_client,
            drain_grace_s=args.drain_grace,
            max_job_memory_mb=args.max_job_memory_mb,
        ))
    except KeyboardInterrupt:
        print(f"serve: interrupted; unfinished jobs remain resumable "
              f"under {args.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "infer": _cmd_infer,
        "simulate": _cmd_simulate,
        "distances": _cmd_distances,
        "report": _cmd_report,
        "cluster": _cmd_cluster,
        "verify": _cmd_verify,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
