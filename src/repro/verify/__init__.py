"""Differential verification: correctness as an executable artifact.

The likelihood engine's entire claim to fidelity is numeric —
``newview()``, ``makenewz()`` and ``evaluate()`` must produce the same
log likelihoods no matter how aggressively the hot path is rewritten
(fused kernels, P-matrix caches, CLV arenas).  This package makes
that claim checkable at three independent tiers:

* :mod:`repro.verify.oracle` — :class:`ReferenceEngine`, a deliberately
  slow, loop-based reimplementation of the likelihood recursion with no
  einsum, no arena, no P-matrix cache and full per-call recomputation.
  It exposes the same ``loglik`` / ``newview`` / ``branch_derivatives``
  surface as the fast engine, so any two implementations can be diffed.
* :mod:`repro.verify.differential` — a seeded fuzzing harness that
  generates random (alignment, tree, model) triples, runs the fast
  engine against the oracle, and reports the maximum ULP divergence
  (with the failing case's seed, so every failure reproduces).
* :mod:`repro.verify.invariants` — metamorphic checks: algebraic
  properties the likelihood must satisfy regardless of implementation
  (pulley-principle re-rooting invariance, taxon/site permutation
  invariance, pattern compression, SPR apply→revert round trips,
  fault-recovery transparency under :mod:`repro.chaos` injection, and
  a JC69 two-taxon analytic closed form).
* :mod:`repro.verify.golden` — a committed corpus of exact values for
  fixed seeds, regenerated or checked by ``repro-phylo verify``.

Every future kernel or search change inherits a push-button answer to
"did you break the math?" — see DESIGN.md §9.
"""

from .oracle import ReferenceEngine
from .differential import (
    CaseResult,
    DifferentialFailure,
    FuzzReport,
    compare_case,
    random_case,
    run_differential,
)
from .invariants import (
    InvariantViolation,
    fault_recovery_invariance,
    jc69_two_taxon_closed_form,
    pattern_compression_invariance,
    rerooting_invariance,
    site_permutation_invariance,
    spr_roundtrip_invariance,
    taxon_permutation_invariance,
    two_taxon_tree,
)
from .golden import (
    GOLDEN_CASES,
    build_case_instance,
    check_corpus,
    compute_case,
    default_corpus_dir,
    write_corpus,
)

__all__ = [
    "ReferenceEngine",
    "CaseResult",
    "DifferentialFailure",
    "FuzzReport",
    "compare_case",
    "random_case",
    "run_differential",
    "InvariantViolation",
    "fault_recovery_invariance",
    "jc69_two_taxon_closed_form",
    "pattern_compression_invariance",
    "rerooting_invariance",
    "site_permutation_invariance",
    "spr_roundtrip_invariance",
    "taxon_permutation_invariance",
    "two_taxon_tree",
    "GOLDEN_CASES",
    "build_case_instance",
    "check_corpus",
    "compute_case",
    "default_corpus_dir",
    "write_corpus",
]
