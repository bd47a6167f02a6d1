"""Differential fuzzing: fast engine vs. loop-based oracle.

Every case is a random (alignment, tree, model, rate model) quadruple
derived deterministically from one integer seed.  The fast
:class:`~repro.phylo.engine.LikelihoodEngine` — on any registered
kernel backend, selectable per run — and the
:class:`~repro.verify.oracle.ReferenceEngine` score the identical
instance, and the harness compares:

* the log likelihood at several branches (``evaluate``),
* one inner conditional likelihood vector and its scale counts
  (``newview``) — scale counts must match *exactly*,
* the branch-length derivative triple taken from the sumtable probe
  ``makenewz`` iterates — against the oracle at a couple of branches,
  against the engine's own ``(P, dP, d2P)`` probe
  (``branch_derivatives``) on **every** branch, and — for ``d1`` —
  against a central finite difference of the oracle's log likelihood.

Divergence is reported both as relative error and in ULPs (units in the
last place) of the larger magnitude, and a failing case carries its seed
so ``run_differential(n_cases=1, seed=<seed>)`` — or
``repro-phylo verify --fuzz 1 --seed <seed>`` — reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.engine import LikelihoodEngine
from ..phylo.models import GTR, HKY85, JC69, K80, SubstitutionModel
from ..phylo.rates import CatRates, GammaRates, RateModel, UniformRate
from ..phylo.tree import Tree
from .oracle import ReferenceEngine

__all__ = [
    "Case",
    "CaseResult",
    "DifferentialFailure",
    "FuzzReport",
    "compare_case",
    "random_case",
    "run_differential",
]

#: Default agreement bar: 1e-9 *relative* on every compared value.
DEFAULT_REL_TOL = 1e-9


class DifferentialFailure(AssertionError):
    """Fast engine and oracle disagreed beyond tolerance."""


@dataclass
class Case:
    """One reproducible fuzz instance."""

    seed: int
    patterns: PatternAlignment
    tree: Tree
    model: SubstitutionModel
    rate_model: RateModel
    description: str


@dataclass
class Comparison:
    """One compared scalar: where it came from and how far apart.

    ``loose`` marks probes whose relative gap says nothing about the
    kernels: the finite-difference slope checks (their own coarser bar,
    truncation error dwarfs 1e-9) and probe-vs-probe derivatives at
    near-zero lengths (cancellation).  They still fail a case when
    violated but are excluded from the tight ``max_rel_err``/``max_ulps``
    aggregates.
    """

    what: str
    fast: float
    oracle: float
    rel_err: float
    ulps: float
    loose: bool = False


@dataclass
class CaseResult:
    """Outcome of diffing one case."""

    seed: int
    description: str
    comparisons: List[Comparison] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def max_ulps(self) -> float:
        return max(
            (c.ulps for c in self.comparisons if not c.loose), default=0.0
        )

    @property
    def max_rel_err(self) -> float:
        return max(
            (c.rel_err for c in self.comparisons if not c.loose), default=0.0
        )


@dataclass
class FuzzReport:
    """Aggregate of a whole fuzzing run."""

    n_cases: int
    seed: int
    rel_tol: float
    results: List[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def max_ulps(self) -> float:
        return max((r.max_ulps for r in self.results), default=0.0)

    @property
    def max_rel_err(self) -> float:
        return max((r.max_rel_err for r in self.results), default=0.0)

    def summary(self) -> str:
        lines = [
            f"differential fuzz: {self.n_cases} cases "
            f"(base seed {self.seed}, rel tol {self.rel_tol:g})",
            f"  max divergence: {self.max_rel_err:.3e} relative, "
            f"{self.max_ulps:.1f} ulps",
        ]
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for result in self.failures:
                lines.append(f"    seed {result.seed}: {result.description}")
                for message in result.failures:
                    lines.append(f"      {message}")
                lines.append(
                    f"      reproduce: repro-phylo verify --fuzz 1 "
                    f"--seed {result.seed}"
                )
        else:
            lines.append("  all cases agree")
        return "\n".join(lines)


def _ulps(a: float, b: float) -> float:
    """Distance between *a* and *b* in units-in-the-last-place of the
    larger magnitude (0 when equal)."""
    if a == b:
        return 0.0
    spacing = float(np.spacing(max(abs(a), abs(b))))
    return abs(a - b) / spacing if spacing else float("inf")


def random_case(seed: int, max_taxa: int = 8, max_sites: int = 40) -> Case:
    """The deterministic fuzz instance for one seed.

    Sweeps taxon/site counts, all four named DNA models plus random
    GTRs, and all three rate treatments (uniform, Gamma, CAT) so every
    kernel path of the fast engine (integrated and per-site) is diffed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xD1FF, seed]))
    n_taxa = int(rng.integers(4, max_taxa + 1))
    n_sites = int(rng.integers(12, max_sites + 1))
    seqs = {
        f"t{i}": "".join(rng.choice(list("ACGT"), n_sites))
        for i in range(n_taxa)
    }
    patterns = Alignment.from_sequences(seqs).compress()
    tree = Tree.from_tip_names(
        patterns.taxa, rng, mean_branch_length=float(rng.uniform(0.02, 0.6))
    )

    model_kind = int(rng.integers(0, 4))
    if model_kind == 0:
        model = JC69()
    elif model_kind == 1:
        model = K80(kappa=float(rng.uniform(0.5, 6.0)))
    elif model_kind == 2:
        freqs = rng.uniform(0.05, 1.0, 4)
        model = HKY85(kappa=float(rng.uniform(0.5, 6.0)), frequencies=tuple(freqs))
    else:
        rates = rng.uniform(0.1, 8.0, 6)
        freqs = rng.uniform(0.05, 1.0, 4)
        model = GTR(tuple(rates), tuple(freqs))

    rate_kind = int(rng.integers(0, 3))
    if rate_kind == 0:
        rate_model = UniformRate()
    elif rate_kind == 1:
        rate_model = GammaRates(
            alpha=float(rng.uniform(0.2, 2.0)),
            n_categories=int(rng.choice([2, 4])),
        )
    else:
        site_rates = rng.uniform(0.25, 4.0, patterns.n_patterns)
        rate_model = CatRates(site_rates, n_categories=int(rng.choice([2, 3])))

    description = (
        f"{n_taxa} taxa x {n_sites} sites ({patterns.n_patterns} patterns), "
        f"{model.name}, {rate_model.name}"
    )
    return Case(seed, patterns, tree, model, rate_model, description)


def _compare(result: CaseResult, what: str, fast: float, oracle: float,
             rel_tol: float, abs_tol: float = 0.0,
             loose: bool = False) -> None:
    scale = max(abs(fast), abs(oracle), 1e-300)
    rel_err = abs(fast - oracle) / scale
    result.comparisons.append(
        Comparison(what, fast, oracle, rel_err, _ulps(fast, oracle),
                   loose=loose)
    )
    if abs(fast - oracle) > rel_tol * scale + abs_tol:
        result.failures.append(
            f"{what}: fast={fast!r} oracle={oracle!r} "
            f"(rel err {rel_err:.3e} > {rel_tol:g})"
        )


def compare_case(
    case: Case, rel_tol: float = DEFAULT_REL_TOL, backend=None
) -> CaseResult:
    """Diff the fast engine (on *backend*) against the oracle on one case.

    *backend* is any spec :func:`repro.phylo.engine.resolve_backend`
    accepts — a registry name like ``"einsum"`` or ``"reference"``,
    a live backend, or ``None`` for the session default.  Scale counts
    must match the oracle **exactly** whatever the backend; log
    likelihoods must agree within *rel_tol*.
    """
    result = CaseResult(seed=case.seed, description=case.description)
    tree = case.tree
    fast = LikelihoodEngine(
        case.patterns, case.model, case.rate_model, tree, backend=backend
    )
    oracle = ReferenceEngine(case.patterns, case.model, case.rate_model, tree)
    rng = np.random.default_rng(np.random.SeedSequence([0xD1FF + 1, case.seed]))
    try:
        branches = tree.branches
        # Log likelihood at three branches (spread over the tree).
        picks = sorted(
            set(int(i) for i in rng.integers(0, len(branches), 3))
        )
        for b in (branches[i] for i in picks):
            _compare(
                result, f"loglik@branch{b.index}",
                fast.evaluate(b), oracle.evaluate(b), rel_tol,
            )
        # One inner CLV, element-for-element, plus exact scale counts.
        inner_dirs = [
            (node, branch)
            for branch in branches
            for node in branch.nodes
            if not node.is_tip
        ]
        node, entry = inner_dirs[int(rng.integers(0, len(inner_dirs)))]
        fast_entry = fast.clv(node, entry)
        oracle_clv, oracle_sc = oracle.newview(node, entry)
        if not np.array_equal(fast_entry.scale_counts, oracle_sc):
            result.failures.append(
                f"newview@({node.index},{entry.index}): scale counts differ"
            )
        clv_scale = max(
            float(np.abs(fast_entry.clv).max()),
            float(np.abs(oracle_clv).max()),
            1e-300,
        )
        clv_err = float(np.abs(fast_entry.clv - oracle_clv).max()) / clv_scale
        result.comparisons.append(
            Comparison(
                f"newview@({node.index},{entry.index})",
                clv_err, 0.0, clv_err,
                clv_err / float(np.spacing(1.0)),
            )
        )
        if clv_err > rel_tol:
            result.failures.append(
                f"newview@({node.index},{entry.index}): max element rel "
                f"err {clv_err:.3e} > {rel_tol:g}"
            )
        # Branch-length derivatives from the probe makenewz iterates:
        # against the oracle at two sampled branches, against the same
        # engine's explicit (P, dP, d2P) probe on EVERY branch.  First
        # and second derivatives involve cancellation the plain lnL does
        # not, so they get a small absolute floor on top of the relative
        # bar.  Below t = 1e-5 any eigenbasis evaluation loses log10(1/t)
        # digits to cancellation, each in its own way
        # (tests/test_sumtable.py): off the sampled branches those
        # comparisons keep their bar but stay out of the aggregates.
        deriv_picks = {int(i) for i in rng.integers(0, len(branches), 2)}
        probe_d1 = {}
        for k, b in enumerate(branches):
            at = f"@branch{b.index}"
            f_lnl, f_d1, f_d2 = fast_makenewz_derivatives(fast, b)
            probe_d1[b.index] = f_d1
            if k in deriv_picks:
                o_lnl, o_d1, o_d2 = oracle.branch_derivatives(b)
                _compare(result, "deriv.lnl" + at, f_lnl, o_lnl, rel_tol)
                _compare(result, "deriv.d1" + at, f_d1, o_d1,
                         rel_tol * 10, abs_tol=1e-7)
                _compare(result, "deriv.d2" + at, f_d2, o_d2,
                         rel_tol * 10, abs_tol=1e-7)
            loose = b.length < 1e-5 and k not in deriv_picks
            p_lnl, p_d1, p_d2 = fast.branch_derivatives(b)
            _compare(result, "sumtable.lnl" + at, f_lnl, p_lnl, rel_tol,
                     loose=loose)
            _compare(result, "sumtable.d1" + at, f_d1, p_d1, rel_tol * 10,
                     abs_tol=1e-7, loose=loose)
            _compare(result, "sumtable.d2" + at, f_d2, p_d2, rel_tol * 10,
                     abs_tol=1e-7, loose=loose)
        # Central finite difference on the reference lnL: the analytic
        # d1 really is the derivative of the log likelihood, not just
        # internally consistent between the two analytic paths.  FD is
        # ill-conditioned at near-zero branch lengths, so the probe
        # length is clamped; with h = 1e-3 * t the truncation error is
        # ~1e-6 relative and the subtraction round-off ~eps|lnL|/h.
        b = branches[int(rng.integers(0, len(branches)))]
        t0 = max(float(b.length), 1e-4)
        h = 1e-3 * t0
        o_d1 = oracle.branch_derivatives(b, t0)[1]
        lnl_plus = oracle.branch_derivatives(b, t0 + h)[0]
        lnl_minus = oracle.branch_derivatives(b, t0 - h)[0]
        fd = (lnl_plus - lnl_minus) / (2.0 * h)
        _compare(result, f"fd.d1@branch{b.index}", o_d1, fd,
                 1e-5, abs_tol=1e-4, loose=True)
        if t0 == float(b.length):
            # Unclamped: the makenewz probe's d1 must match the FD
            # slope too (same loose FD bar).
            _compare(result, f"fd.probe.d1@branch{b.index}",
                     probe_d1[b.index], fd, 1e-5, abs_tol=1e-4, loose=True)
    finally:
        fast.detach()
    return result


def fast_makenewz_derivatives(
    engine: LikelihoodEngine, branch, length: Optional[float] = None
) -> Tuple[float, float, float]:
    """The fast engine's ``(lnL, d1, d2)`` at a branch from the very
    probe :meth:`LikelihoodEngine.makenewz` iterates: the sumtable pair
    on every backend but the oracle's."""
    t = branch.length if length is None else length
    return engine._newton_probe(branch)(t)


def run_differential(
    n_cases: int = 200,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    max_taxa: int = 8,
    max_sites: int = 40,
    raise_on_failure: bool = False,
    backend=None,
) -> FuzzReport:
    """Fuzz *n_cases* random instances; every case seed is ``seed + i``.

    *backend* selects the fast engine's kernel backend (default: the
    session default, i.e. ``REPRO_ENGINE_BACKEND`` or ``einsum``); the
    oracle side always runs the ``reference`` backend.  With
    ``raise_on_failure`` a :class:`DifferentialFailure` carrying the
    full summary (including reproduction seeds) is raised at the end if
    any case diverged; otherwise inspect ``report.failures``.
    """
    report = FuzzReport(n_cases=n_cases, seed=seed, rel_tol=rel_tol)
    for i in range(n_cases):
        case = random_case(seed + i, max_taxa=max_taxa, max_sites=max_sites)
        report.results.append(
            compare_case(case, rel_tol=rel_tol, backend=backend)
        )
    if raise_on_failure and report.failures:
        raise DifferentialFailure(report.summary())
    return report
