"""Model-parameter optimization (the part of RAxML around the kernels).

RAxML alternates three optimization phases until convergence: branch
lengths (``makenewz``, already in :mod:`repro.phylo.engine`), the
Gamma shape parameter ``alpha``, and the GTR exchangeability rates.
This module supplies the latter two plus the alternating driver.

All optimizers are derivative-free single-parameter searches (Brent's
method via scipy), applied coordinate-wise for the five free GTR rates
— the same structure RAxML uses, which is robust because the likelihood
is smooth and unimodal in each parameter near the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .engine import LikelihoodEngine
from .models import SubstitutionModel
from .rates import GammaRates

__all__ = [
    "optimize_alpha",
    "optimize_gamma_inv",
    "optimize_exchangeabilities",
    "optimize_model",
    "ModelOptimizationResult",
]

#: Search bounds for the Gamma shape parameter (RAxML uses a similar
#: clamp; below ~0.02 the discretization degenerates).
ALPHA_BOUNDS = (0.02, 100.0)

#: Search bounds for a single exchangeability rate (relative to GT = 1).
RATE_BOUNDS = (1e-4, 100.0)


def _bounded_minimum(fn, bounds, tolerance: float):
    """Bounded Brent search.  ``scipy.optimize`` is imported here, not
    at module top: it drags ``sparse``/``linalg``/``spatial`` (~25 MB,
    ~0.15 s) into every ``import repro.phylo``, and only model
    optimization — off the default inference path — needs it."""
    from scipy.optimize import minimize_scalar

    return minimize_scalar(fn, bounds=bounds, method="bounded",
                           options={"xatol": tolerance})


@dataclass
class ModelOptimizationResult:
    """Outcome of a full model-optimization run."""

    log_likelihood: float
    model: SubstitutionModel
    alpha: Optional[float]
    rounds: int


def optimize_alpha(
    engine: LikelihoodEngine,
    current_alpha: float,
    n_categories: Optional[int] = None,
    tolerance: float = 1e-4,
) -> Tuple[float, float]:
    """ML estimate of the Gamma shape alpha on the engine's fixed tree.

    Returns ``(alpha, log_likelihood)``.  The engine's rate model is
    replaced in place.  Requires an integrated (non-CAT) rate model.
    """
    if engine.rate_model.is_per_site:
        raise ValueError("alpha optimization applies to the Gamma model")
    n_categories = n_categories or engine.rate_model.n_categories

    def negative_lnl(log_alpha: float) -> float:
        alpha = float(np.exp(log_alpha))
        engine.set_rate_model(GammaRates(alpha, n_categories))
        return -engine.evaluate()

    lo, hi = np.log(ALPHA_BOUNDS[0]), np.log(ALPHA_BOUNDS[1])
    result = _bounded_minimum(negative_lnl, (lo, hi), tolerance)
    best_alpha = float(np.exp(result.x))
    engine.set_rate_model(GammaRates(best_alpha, n_categories))
    return best_alpha, engine.evaluate()


def optimize_gamma_inv(
    engine: LikelihoodEngine,
    alpha: float = 1.0,
    p_invariant: float = 0.1,
    n_categories: Optional[int] = None,
    sweeps: int = 2,
    tolerance: float = 1e-4,
) -> Tuple[float, float, float]:
    """Joint ML fit of the Gamma shape and invariant-site proportion.

    Alternates bounded Brent searches on ``log alpha`` and
    ``p_invariant`` (the GTR+I+G model).  Returns
    ``(alpha, p_invariant, log_likelihood)`` and leaves the engine on
    the fitted rate model.
    """
    from .rates import GammaInvRates

    if engine.rate_model.is_per_site:
        raise ValueError("GTR+I+G optimization applies to integrated models")
    n_gamma = n_categories or 4

    def set_and_score(a: float, p: float) -> float:
        engine.set_rate_model(GammaInvRates(a, p, n_gamma))
        return engine.evaluate()

    best = set_and_score(alpha, p_invariant)
    for _ in range(sweeps):
        result = _bounded_minimum(
            lambda la: -set_and_score(float(np.exp(la)), p_invariant),
            (np.log(ALPHA_BOUNDS[0]), np.log(ALPHA_BOUNDS[1])), tolerance,
        )
        alpha = float(np.exp(result.x))
        result = _bounded_minimum(
            lambda p: -set_and_score(alpha, float(p)), (0.0, 0.9), tolerance,
        )
        p_invariant = float(result.x)
        now = set_and_score(alpha, p_invariant)
        if now - best < tolerance:
            best = now
            break
        best = now
    return alpha, p_invariant, best


def optimize_exchangeabilities(
    engine: LikelihoodEngine,
    tolerance: float = 1e-3,
    max_sweeps: int = 3,
) -> Tuple[SubstitutionModel, float]:
    """Coordinate-descent ML fit of the five free GTR rates.

    The sixth rate (GT) stays pinned at 1 — the usual identifiability
    convention.  Returns ``(model, log_likelihood)`` and updates the
    engine's model in place.
    """
    best = engine.evaluate()
    for _ in range(max_sweeps):
        improved = False
        for index in range(5):  # GT (index 5) is the reference rate
            rates = list(engine.model.exchangeabilities)

            def negative_lnl(log_rate: float) -> float:
                trial = list(rates)
                trial[index] = float(np.exp(log_rate))
                engine.set_model(engine.model.with_exchangeabilities(trial))
                return -engine.evaluate()

            lo, hi = np.log(RATE_BOUNDS[0]), np.log(RATE_BOUNDS[1])
            result = _bounded_minimum(negative_lnl, (lo, hi), tolerance)
            rates[index] = float(np.exp(result.x))
            engine.set_model(engine.model.with_exchangeabilities(rates))
            now = engine.evaluate()
            if now > best + 1e-9:
                best = now
                improved = True
        if not improved:
            break
    return engine.model, best


def optimize_model(
    engine: LikelihoodEngine,
    optimize_rates: bool = True,
    optimize_shape: bool = True,
    branch_passes: int = 2,
    max_rounds: int = 5,
    tolerance: float = 0.01,
) -> ModelOptimizationResult:
    """RAxML's alternating optimization: branches / alpha / GTR rates.

    Each round smooths all branch lengths, re-fits alpha (if the rate
    model is Gamma) and re-fits the exchangeabilities; rounds repeat
    until the likelihood gain drops below *tolerance*.
    """
    best = engine.optimize_all_branches(passes=branch_passes)
    alpha: Optional[float] = None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        before = best
        if optimize_shape and not engine.rate_model.is_per_site:
            # Recover the current alpha from the model name if possible;
            # otherwise restart from 1.0 (the optimizer is global anyway).
            alpha, best = optimize_alpha(engine, alpha or 1.0)
        if optimize_rates:
            _, best = optimize_exchangeabilities(engine)
        best = engine.optimize_all_branches(passes=branch_passes)
        if best - before < tolerance:
            break
    return ModelOptimizationResult(
        log_likelihood=best,
        model=engine.model,
        alpha=alpha,
        rounds=rounds,
    )
