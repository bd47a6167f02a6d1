"""Golden corpus: committed exact values for fixed seeds.

Each :class:`GoldenCase` deterministically derives an (alignment, tree,
model) instance from its seed and records, into ``tests/golden/*.json``:

* the exact log likelihood of the fast engine *and* the loop oracle,
* one ``makenewz`` branch optimization (length + lnL) — per-branch
  derivatives are not recorded: on these cases they are pinned by
  ``tests/test_sumtable.py``'s every-branch tests (the engine's
  ``makenewz`` probe against its public ``(P, dP, d2P)`` probe, and
  sumtable ``makenewz`` against the oracle's on every branch),
* a tiny but full inference: hill-climb search, bootstrap replicates,
  streaming majority-rule consensus with supports,
* the shape (sorted key list) of ``perf_counters()``.

Floats survive the JSON round trip exactly (shortest-repr), and files
are serialized with sorted keys, so regeneration on the same platform is
byte-for-byte deterministic — ``repro-phylo verify --write`` twice must
produce identical bytes.  ``check_corpus`` compares structure and
strings exactly but allows a tiny relative tolerance on floats (default
``1e-12``) so a different BLAS backing ``eigh`` does not produce false
alarms; pass ``rel_tol=0.0`` for bit-exactness on one machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.aggregate import StreamingAggregator
from ..phylo.alignment import Alignment
from ..phylo.engine import LikelihoodEngine
from ..phylo.models import GTR, HKY85, JC69, K80, SubstitutionModel
from ..phylo.rates import CatRates, GammaRates, RateModel, UniformRate
from ..phylo.search import SearchConfig, hill_climb
from ..phylo.tree import Tree
from .oracle import ReferenceEngine

__all__ = [
    "GOLDEN_CASES",
    "GoldenCase",
    "build_case_instance",
    "check_corpus",
    "compute_case",
    "default_corpus_dir",
    "write_corpus",
]

#: Relative float tolerance used by :func:`check_corpus` by default.
DEFAULT_CHECK_REL_TOL = 1e-12


@dataclass(frozen=True)
class GoldenCase:
    """A self-describing seed for one golden record."""

    name: str
    seed: int
    n_taxa: int
    n_sites: int
    #: ("jc69",) | ("k80", kappa) | ("hky85", kappa, freqs) |
    #: ("gtr", rates, freqs)
    model: Tuple
    #: ("uniform",) | ("gamma", alpha, n_categories) | ("cat", n_categories)
    rates: Tuple
    n_bootstraps: int = 3


GOLDEN_CASES: Tuple[GoldenCase, ...] = (
    GoldenCase("jc69_uniform", seed=101, n_taxa=6, n_sites=80,
               model=("jc69",), rates=("uniform",)),
    GoldenCase("gtr_gamma", seed=202, n_taxa=7, n_sites=100,
               model=("gtr",
                      (1.2, 2.9, 0.7, 1.1, 3.4, 1.0),
                      (0.32, 0.18, 0.24, 0.26)),
               rates=("gamma", 0.5, 4)),
    GoldenCase("hky_cat", seed=303, n_taxa=6, n_sites=90,
               model=("hky85", 3.0, (0.3, 0.2, 0.2, 0.3)),
               rates=("cat", 3), n_bootstraps=2),
)

#: The small search configuration every golden inference uses.
_SEARCH_CONFIG = SearchConfig(
    initial_radius=1, max_radius=1, max_rounds=1,
    smoothing_passes=1, final_smoothing_passes=1,
)


def _build_model(spec: Tuple) -> SubstitutionModel:
    kind = spec[0]
    if kind == "jc69":
        return JC69()
    if kind == "k80":
        return K80(kappa=spec[1])
    if kind == "hky85":
        return HKY85(kappa=spec[1], frequencies=tuple(spec[2]))
    if kind == "gtr":
        return GTR(tuple(spec[1]), tuple(spec[2]))
    raise ValueError(f"unknown model spec {spec!r}")


def _build_rates(spec: Tuple, n_patterns: int,
                 rng: np.random.Generator) -> RateModel:
    kind = spec[0]
    if kind == "uniform":
        return UniformRate()
    if kind == "gamma":
        return GammaRates(alpha=spec[1], n_categories=spec[2])
    if kind == "cat":
        site_rates = rng.uniform(0.25, 4.0, n_patterns)
        return CatRates(site_rates, n_categories=spec[1])
    raise ValueError(f"unknown rate spec {spec!r}")


def _split_key(split) -> str:
    return "|".join(sorted(split))


def build_case_instance(case: GoldenCase):
    """The deterministic (patterns, model, rate_model, tree, rng) for a
    golden case.  The returned ``rng`` has consumed exactly the draws
    :func:`compute_case` would have made up to this point, so callers
    (e.g. the sumtable-vs-oracle ``makenewz`` test) reproduce the same
    instance the committed record describes."""
    rng = np.random.default_rng(np.random.SeedSequence([0x601D, case.seed]))
    seqs = {
        f"t{i}": "".join(rng.choice(list("ACGT"), case.n_sites))
        for i in range(case.n_taxa)
    }
    patterns = Alignment.from_sequences(seqs).compress()
    model = _build_model(case.model)
    rate_model = _build_rates(case.rates, patterns.n_patterns, rng)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    return patterns, model, rate_model, tree, rng


def compute_case(case: GoldenCase) -> Dict:
    """Recompute one golden record from scratch (fully seeded)."""
    patterns, model, rate_model, tree, rng = build_case_instance(case)

    # Golden records are pinned to the einsum backend: a committed file
    # must not depend on the REPRO_ENGINE_BACKEND override the suite
    # happens to run under (another backend's round-off moves lnL bits).
    engine = LikelihoodEngine(
        patterns, model, rate_model, tree, backend="einsum"
    )
    try:
        log_likelihood = engine.evaluate(tree.branches[0])
        oracle = ReferenceEngine(patterns, model, rate_model, tree)
        oracle_log_likelihood = oracle.evaluate(tree.branches[0])

        mk_branch = tree.branches[int(rng.integers(len(tree.branches)))]
        mk_length, mk_lnl = engine.makenewz(mk_branch)

        aggregator = StreamingAggregator()
        inference = hill_climb(engine, _SEARCH_CONFIG, rng)
        aggregator.ingest({
            "replicate": 0,
            "is_bootstrap": False,
            "newick": inference.newick,
            "log_likelihood": inference.log_likelihood,
        })
        for replicate in range(case.n_bootstraps):
            replicate_patterns = patterns.bootstrap_replicate(rng)
            replicate_tree = Tree.from_tip_names(patterns.taxa, rng)
            replicate_engine = LikelihoodEngine(
                replicate_patterns, model, rate_model, replicate_tree,
                backend="einsum",
            )
            try:
                replicate_result = hill_climb(
                    replicate_engine, _SEARCH_CONFIG, rng
                )
            finally:
                replicate_engine.detach()
            aggregator.ingest({
                "replicate": replicate,
                "is_bootstrap": True,
                "newick": replicate_result.newick,
                "log_likelihood": replicate_result.log_likelihood,
            })
        consensus_supports, consensus_newick = aggregator.consensus()
        perf_counter_keys = sorted(engine.perf_counters())
    finally:
        engine.detach()

    return {
        "name": case.name,
        "seed": case.seed,
        "config": {
            "n_taxa": case.n_taxa,
            "n_sites": case.n_sites,
            "n_patterns": patterns.n_patterns,
            "model": list(case.model[:1]) + [
                list(x) if isinstance(x, tuple) else x for x in case.model[1:]
            ],
            "rates": list(case.rates),
            "n_bootstraps": case.n_bootstraps,
        },
        "log_likelihood": log_likelihood,
        "oracle_log_likelihood": oracle_log_likelihood,
        "makenewz": {"length": mk_length, "log_likelihood": mk_lnl},
        "inference": {
            "newick": inference.newick,
            "log_likelihood": inference.log_likelihood,
        },
        "consensus": {
            "newick": consensus_newick,
            "supports": {
                _split_key(split): support
                for split, support in sorted(
                    consensus_supports.items(), key=lambda kv: _split_key(kv[0])
                )
            },
        },
        "perf_counter_keys": perf_counter_keys,
    }


def default_corpus_dir() -> Path:
    """``tests/golden/`` next to the package's source checkout."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _case_path(corpus_dir: Path, case: GoldenCase) -> Path:
    return corpus_dir / f"{case.name}.json"


def _dump(record: Dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_corpus(
    corpus_dir: Optional[Path] = None,
    cases: Sequence[GoldenCase] = GOLDEN_CASES,
) -> List[Path]:
    """(Re)generate every golden file; returns the written paths."""
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    corpus_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for case in cases:
        path = _case_path(corpus_dir, case)
        path.write_text(_dump(compute_case(case)))
        written.append(path)
    return written


def _diff(prefix: str, expected, actual, rel_tol: float,
          mismatches: List[str]) -> None:
    """Recursive comparison: exact for structure/strings/ints, relative
    tolerance for floats."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                mismatches.append(f"{prefix}.{key}: unexpected key")
            elif key not in actual:
                mismatches.append(f"{prefix}.{key}: missing")
            else:
                _diff(f"{prefix}.{key}", expected[key], actual[key],
                      rel_tol, mismatches)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            mismatches.append(
                f"{prefix}: length {len(actual)} != {len(expected)}"
            )
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{prefix}[{i}]", e, a, rel_tol, mismatches)
        return
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        scale = max(abs(expected), abs(float(actual)), 1e-300)
        if abs(expected - float(actual)) > rel_tol * scale:
            mismatches.append(
                f"{prefix}: {actual!r} != {expected!r} "
                f"(rel err {abs(expected - actual) / scale:.3e})"
            )
        return
    if expected != actual:
        mismatches.append(f"{prefix}: {actual!r} != {expected!r}")


def check_corpus(
    corpus_dir: Optional[Path] = None,
    cases: Sequence[GoldenCase] = GOLDEN_CASES,
    rel_tol: float = DEFAULT_CHECK_REL_TOL,
) -> List[str]:
    """Recompute every case and diff against the committed files.

    Returns a (possibly empty) list of human-readable mismatch strings —
    empty means the corpus is valid.
    """
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    mismatches: List[str] = []
    for case in cases:
        path = _case_path(corpus_dir, case)
        if not path.exists():
            mismatches.append(f"{case.name}: missing golden file {path}")
            continue
        try:
            committed = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            mismatches.append(f"{case.name}: unreadable golden file ({exc})")
            continue
        _diff(case.name, committed, compute_case(case), rel_tol, mismatches)
    return mismatches
