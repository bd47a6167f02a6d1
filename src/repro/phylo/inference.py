"""High-level inference API: multiple inferences and bootstrapping.

This is the workload layer of the paper's master-worker scheme (section
3.1): a "publishable" analysis consists of several independent tree
searches on the original alignment — each from a distinct randomized
stepwise-addition parsimony starting tree — plus a larger number of
non-parametric bootstrap replicates used to attach confidence values to
the branches of the best-scoring tree.  Each search is one *task* in the
Cell port's task-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import Alignment, PatternAlignment
from .engine import create_engine
from .models import GTR, HKY85, JC69, K80, SubstitutionModel
from .parsimony import stepwise_addition_tree
from .rates import GammaRates, RateModel
from .search import SearchConfig, SearchResult, hill_climb
from .tree import Tree

__all__ = [
    "InferenceResult",
    "AnalysisResult",
    "assemble_analysis",
    "infer_tree",
    "multiple_inferences",
    "bootstrap_analysis",
    "bootstrap_inputs",
    "support_values",
    "default_model_for",
    "MODEL_NAMES",
    "named_model",
]


@dataclass
class InferenceResult:
    """One completed tree search.

    ``perf`` is the engine's :meth:`perf_counters` snapshot at the end
    of the search, before its caches were dropped.
    """

    newick: str
    log_likelihood: float
    search: SearchResult
    newview_calls: int
    makenewz_calls: int
    evaluate_calls: int
    is_bootstrap: bool = False
    replicate: int = 0
    perf: Dict[str, int] = field(default_factory=dict)


@dataclass
class AnalysisResult:
    """A full analysis: best tree, all searches, branch supports.

    ``degraded`` marks a deadline-salvaged analysis: the best tree and
    supports were assembled from the replicates that *completed* before
    the run's deadline, not the full requested set.  Degraded analyses
    are served but never enter the content-addressed result cache.
    """

    best: InferenceResult
    inferences: List[InferenceResult]
    bootstraps: List[InferenceResult]
    supports: Dict[FrozenSet[str], float] = field(default_factory=dict)
    degraded: bool = False

    @property
    def best_tree(self) -> Tree:
        return Tree.from_newick(self.best.newick)


def default_model_for(patterns: PatternAlignment) -> SubstitutionModel:
    """The default model for an alignment's state space.

    DNA (4 states): GTR with empirical base frequencies — RAxML's
    default.  Amino acids (20 states): Poisson+F.
    """
    frequencies = patterns.base_frequencies()
    if len(frequencies) == 4:
        return GTR(
            exchangeabilities=(1.0, 2.5, 1.0, 1.0, 2.5, 1.0),
            frequencies=tuple(frequencies),
        )
    from .protein import PoissonAA

    return PoissonAA(tuple(frequencies))


#: The DNA models :func:`named_model` builds by name.
_NAMED_MODELS = {
    "GTR": lambda p: GTR((1.0, 2.5, 1.0, 1.0, 2.5, 1.0),
                         tuple(p.base_frequencies())),
    "JC69": lambda p: JC69(),
    "K80": lambda p: K80(),
    "HKY85": lambda p: HKY85(2.0, tuple(p.base_frequencies())),
}
MODEL_NAMES = tuple(_NAMED_MODELS)


def named_model(name: Optional[str],
                patterns: PatternAlignment) -> Optional[SubstitutionModel]:
    """The model a command or job spec names: one of
    :data:`MODEL_NAMES` or ``"default"`` (:func:`default_model_for`);
    ``None`` leaves the choice to :func:`infer_tree`."""
    if name is None:
        return None
    if name == "default":
        return default_model_for(patterns)
    if name not in _NAMED_MODELS:
        raise ValueError(f"unknown model {name}")
    return _NAMED_MODELS[name](patterns)


def _as_patterns(alignment) -> PatternAlignment:
    if isinstance(alignment, PatternAlignment):
        return alignment
    if isinstance(alignment, Alignment):
        return alignment.compress()
    raise TypeError("expected an alignment or pattern alignment")


def infer_tree(
    alignment,
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
    config: Optional[SearchConfig] = None,
    seed: int = 0,
    tracer=None,
    is_bootstrap: bool = False,
    replicate: int = 0,
    backend=None,
    cancel=None,
) -> InferenceResult:
    """One complete ML tree search from a randomized parsimony start.

    Parameters mirror RAxML's defaults: GTR with empirical base
    frequencies and four discrete Gamma rate categories.  Pass a
    ``tracer`` (see :mod:`repro.port.trace`) to record the kernel-level
    workload for platform simulation.  ``backend`` selects the kernel
    backend (default: the ``REPRO_ENGINE_BACKEND`` environment
    override); chaos campaigns use it to sweep all backends through the
    same inference seeds.  ``cancel`` is a cooperative cancellation
    token threaded into the search loop (and the engine's guarded
    kernel dispatch); a tripped token unwinds with
    ``TaskCancelled`` and the partial replicate is discarded whole.
    """
    patterns = _as_patterns(alignment)
    model = model or default_model_for(patterns)
    rate_model = rate_model or GammaRates(alpha=1.0, n_categories=4)
    rng = np.random.default_rng(np.random.SeedSequence([seed, replicate]))

    if cancel is not None:
        cancel.check()
    tree = stepwise_addition_tree(patterns, rng)
    engine = create_engine(
        patterns, model, rate_model, tree, tracer=tracer, backend=backend
    )
    if cancel is not None:
        engine.cancel = cancel
    try:
        search = hill_climb(engine, config, rng, cancel=cancel)
        perf = engine.perf_counters()
    finally:
        engine.detach()
    return InferenceResult(
        newick=search.newick,
        log_likelihood=search.log_likelihood,
        search=search,
        newview_calls=engine.newview_calls,
        makenewz_calls=engine.makenewz_calls,
        evaluate_calls=engine.evaluate_calls,
        is_bootstrap=is_bootstrap,
        replicate=replicate,
        perf=perf,
    )


def multiple_inferences(
    alignment,
    count: int,
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
    config: Optional[SearchConfig] = None,
    seed: int = 0,
    tracer=None,
) -> List[InferenceResult]:
    """Independent searches from distinct starting trees (paper sec. 3.1)."""
    patterns = _as_patterns(alignment)
    return [
        infer_tree(
            patterns,
            model=model,
            rate_model=rate_model,
            config=config,
            seed=seed,
            tracer=tracer,
            replicate=i,
        )
        for i in range(count)
    ]


def bootstrap_inputs(patterns: PatternAlignment, seed: int, replicate: int
                     ) -> Tuple[PatternAlignment, int]:
    """Bootstrap ``replicate`` of a run seeded ``seed``: its re-weighted
    patterns, drawn from ``(seed, 7919, replicate)`` alone, and the seed
    of its search.  The serial path and every cluster worker draw
    replicates by this one rule, so their results agree."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7919, replicate]))
    return patterns.bootstrap_replicate(rng), seed + 1


def bootstrap_analysis(
    alignment,
    n_replicates: int,
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
    config: Optional[SearchConfig] = None,
    seed: int = 0,
    tracer=None,
) -> List[InferenceResult]:
    """Non-parametric bootstrap searches on re-weighted alignments."""
    patterns = _as_patterns(alignment)
    results = []
    for i in range(n_replicates):
        replicate, search_seed = bootstrap_inputs(patterns, seed, i)
        results.append(
            infer_tree(
                replicate,
                model=model,
                rate_model=rate_model,
                config=config,
                seed=search_seed,
                tracer=tracer,
                is_bootstrap=True,
                replicate=i,
            )
        )
    return results


def support_values(
    best_tree: Tree, bootstrap_trees: Sequence[Tree]
) -> Dict[FrozenSet[str], float]:
    """Bootstrap support (0..1) for each non-trivial split of *best_tree*."""
    if not bootstrap_trees:
        return {split: 0.0 for split in best_tree.bipartitions()}
    replicate_splits = [t.bipartitions() for t in bootstrap_trees]
    supports = {}
    for split in best_tree.bipartitions():
        hits = sum(1 for splits in replicate_splits if split in splits)
        supports[split] = hits / len(bootstrap_trees)
    return supports


def assemble_analysis(
    inferences: List[InferenceResult],
    bootstraps: List[InferenceResult],
) -> AnalysisResult:
    """Pick the best tree and attach supports (the analysis epilogue).

    The single assembly point shared by the serial workflow, the
    process-parallel facade, and the cluster aggregator — all three
    must agree bit for bit, so the best-tree tie-break (``max`` keeps
    the first, i.e. lowest-replicate, maximal element) and the support
    arithmetic live here once.  *inferences* and *bootstraps* must be
    in replicate order.
    """
    if not inferences:
        raise ValueError("need at least one inference to pick a best tree")
    best = max(inferences, key=lambda r: r.log_likelihood)
    supports = support_values(
        Tree.from_newick(best.newick),
        [Tree.from_newick(b.newick) for b in bootstraps],
    )
    return AnalysisResult(
        best=best, inferences=inferences, bootstraps=bootstraps,
        supports=supports,
    )


def run_full_analysis(
    alignment,
    n_inferences: int = 2,
    n_bootstraps: int = 4,
    model: Optional[SubstitutionModel] = None,
    rate_model: Optional[RateModel] = None,
    config: Optional[SearchConfig] = None,
    seed: int = 0,
    tracer=None,
) -> AnalysisResult:
    """The paper's full workflow: inferences + bootstraps + supports."""
    inferences = multiple_inferences(
        alignment, n_inferences, model, rate_model, config, seed, tracer
    )
    bootstraps = bootstrap_analysis(
        alignment, n_bootstraps, model, rate_model, config, seed, tracer
    )
    return assemble_analysis(inferences, bootstraps)
