"""Maximum-likelihood phylogenetic inference (the RAxML-side substrate).

This package is a from-scratch, pure-Python/numpy reimplementation of the
application the paper ports to Cell: RAxML-style maximum-likelihood
phylogenetic tree inference.  It is fully functional on its own — see
``examples/quickstart.py`` — and doubles as the workload generator for
the Cell-platform simulation in :mod:`repro.cell` / :mod:`repro.port`.
"""

from .alignment import Alignment, PatternAlignment, parse_fasta, parse_phylip
from .dna import DNA, Alphabet
from .inference import (
    AnalysisResult,
    InferenceResult,
    assemble_analysis,
    bootstrap_analysis,
    infer_tree,
    multiple_inferences,
    run_full_analysis,
    support_values,
)
from .drawing import ascii_tree, newick_with_support
from .distances import (
    distance_matrix,
    jc69_distance,
    ml_distance,
    neighbor_joining,
)
from .engine import (
    KernelBackend,
    LikelihoodEngine,
    NewviewCase,
    available_backends,
    create_engine,
    estimate_site_rates,
    register_backend,
)
from .models import GTR, HKY85, JC69, K80, SubstitutionModel
from .optimize import (
    ModelOptimizationResult,
    optimize_alpha,
    optimize_exchangeabilities,
    optimize_gamma_inv,
    optimize_model,
)
from .protein import AA, AA_STATES, PoissonAA, protein_model
from .parsimony import fitch_score, random_starting_trees, stepwise_addition_tree
from .rates import (
    CatRates,
    GammaInvRates,
    GammaRates,
    RateModel,
    UniformRate,
    discrete_gamma_rates,
)
from .search import SearchConfig, SearchResult, hill_climb, spr_neighborhood
from .simulate import default_gtr, evolve_alignment, random_tree, synthetic_dataset
from .tree import Branch, Node, Tree, robinson_foulds

__all__ = [
    "Alignment",
    "PatternAlignment",
    "parse_fasta",
    "parse_phylip",
    "AnalysisResult",
    "InferenceResult",
    "assemble_analysis",
    "bootstrap_analysis",
    "infer_tree",
    "multiple_inferences",
    "run_full_analysis",
    "support_values",
    "KernelBackend",
    "LikelihoodEngine",
    "NewviewCase",
    "available_backends",
    "create_engine",
    "estimate_site_rates",
    "register_backend",
    "ascii_tree",
    "newick_with_support",
    "distance_matrix",
    "jc69_distance",
    "ml_distance",
    "neighbor_joining",
    "ModelOptimizationResult",
    "optimize_alpha",
    "optimize_exchangeabilities",
    "optimize_gamma_inv",
    "optimize_model",
    "GTR",
    "HKY85",
    "JC69",
    "K80",
    "SubstitutionModel",
    "AA_STATES",
    "PoissonAA",
    "AA",
    "Alphabet",
    "DNA",
    "protein_model",
    "fitch_score",
    "random_starting_trees",
    "stepwise_addition_tree",
    "CatRates",
    "GammaInvRates",
    "GammaRates",
    "RateModel",
    "UniformRate",
    "discrete_gamma_rates",
    "SearchConfig",
    "SearchResult",
    "hill_climb",
    "spr_neighborhood",
    "default_gtr",
    "evolve_alignment",
    "random_tree",
    "synthetic_dataset",
    "Branch",
    "Node",
    "Tree",
    "robinson_foulds",
]
