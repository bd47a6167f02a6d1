"""Among-site rate heterogeneity models.

RAxML supports two treatments of rate variation across alignment sites,
both reproduced here:

* **Gamma** (Yang 1994): site rates follow a discretized Gamma(alpha,
  alpha) distribution with equal-probability categories; every site sums
  its likelihood over all categories.  This is the model behind the
  paper's "CAT or Gamma models of rate heterogeneity" remark, and the
  per-category loop is the small (4-25 iteration) loop of ``newview()``.
* **CAT** (Stamatakis 2006): each site is *assigned* to one of ``k`` rate
  categories, so its likelihood takes a single category's term instead
  of ``k`` — a quarter of Gamma-4's loop volume.  Like RAxML, the engine
  keeps ``k`` transition matrices per branch, not one per site: it sorts
  the patterns by category into ``k`` blocks once and propagates block
  ``c`` with category ``c``'s matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammainc, gammaincinv

__all__ = [
    "RateModel",
    "GammaRates",
    "GammaInvRates",
    "UniformRate",
    "CatRates",
    "discrete_gamma_rates",
]


def discrete_gamma_rates(alpha: float, n_categories: int, median: bool = False) -> np.ndarray:
    """Discretize Gamma(alpha, alpha) into equal-probability category rates.

    Uses the category *mean* method of Yang (1994) by default (the RAxML
    choice), or the quantile-median method when ``median=True``.  The
    returned rates are normalized to mean 1 so branch lengths keep their
    expected-substitutions interpretation.
    """
    if alpha <= 0:
        raise ValueError("gamma shape alpha must be positive")
    if n_categories < 1:
        raise ValueError("need at least one rate category")
    if n_categories == 1:
        return np.ones(1)
    # Quantiles and CDF of Gamma(shape, scale=1/alpha) written as the
    # scipy.special calls the frozen scipy.stats distribution evaluates
    # (bit-identical, tests/test_rates.py) — importing scipy.stats costs
    # ~0.8 s that every CLI command and server start would pay.
    scale = 1.0 / alpha
    edges = gammaincinv(alpha, np.linspace(0.0, 1.0, n_categories + 1)) * scale
    if median:
        rates = gammaincinv(
            alpha, (np.arange(n_categories) + 0.5) / n_categories) * scale
    else:
        # Mean of each slice: alpha/beta * [I(k+1 shape) cdf difference].
        cdf = gammainc(alpha + 1.0, edges / scale)
        rates = (cdf[1:] - cdf[:-1]) * n_categories
    return rates / rates.mean()


@dataclass(frozen=True)
class RateModel:
    """Base class: a set of per-category rates plus category weighting.

    ``site_categories`` is ``None`` for models where each site integrates
    over all categories (Gamma), or an assignment array for CAT.
    """

    rates: np.ndarray
    weights: np.ndarray
    site_categories: Optional[np.ndarray] = None
    name: str = "custom"

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if rates.ndim != 1 or weights.shape != rates.shape:
            raise ValueError("rates and weights must be 1-D and equal length")
        if (rates < 0).any():
            raise ValueError("category rates must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("category weights must sum to 1")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)

    @property
    def n_categories(self) -> int:
        return len(self.rates)

    @property
    def is_per_site(self) -> bool:
        """True for CAT-style per-site category assignment."""
        return self.site_categories is not None


def UniformRate() -> RateModel:
    """No rate heterogeneity: a single category of rate 1."""
    return RateModel(np.ones(1), np.ones(1), name="uniform")


def GammaRates(alpha: float = 1.0, n_categories: int = 4, median: bool = False) -> RateModel:
    """Discrete Gamma model (the RAxML/paper default of four categories)."""
    rates = discrete_gamma_rates(alpha, n_categories, median=median)
    weights = np.full(n_categories, 1.0 / n_categories)
    return RateModel(rates, weights, name=f"GAMMA({alpha:g},{n_categories})")


def GammaInvRates(alpha: float = 1.0, p_invariant: float = 0.2,
                  n_categories: int = 4) -> RateModel:
    """Gamma rate heterogeneity plus a proportion of invariant sites.

    The classic "GTR+I+G" treatment: with probability ``p_invariant`` a
    site evolves at rate zero; the remaining probability mass is spread
    over the discrete Gamma categories, whose rates are inflated by
    ``1 / (1 - p_invariant)`` so the expected rate stays one (branch
    lengths keep their substitutions-per-site meaning).
    """
    if not 0.0 <= p_invariant < 1.0:
        raise ValueError("p_invariant must be in [0, 1)")
    if p_invariant == 0.0:
        return GammaRates(alpha, n_categories)
    gamma = discrete_gamma_rates(alpha, n_categories)
    rates = np.concatenate([[0.0], gamma / (1.0 - p_invariant)])
    weights = np.concatenate(
        [[p_invariant], np.full(n_categories, (1.0 - p_invariant) / n_categories)]
    )
    return RateModel(
        rates, weights, name=f"GAMMA+I({alpha:g},{p_invariant:g},{n_categories})"
    )


def CatRates(site_rates: np.ndarray, n_categories: int = 4) -> RateModel:
    """CAT approximation: bin per-site rates into ``k`` categories.

    Sites are sorted by their (externally estimated) rates and split into
    equal-population bins; each bin's representative rate is the mean of
    its member rates, renormalized so the weighted mean rate is one.

    Parameters
    ----------
    site_rates:
        A positive rate estimate per site/pattern.
    n_categories:
        Number of CAT categories (RAxML default 25; tests use fewer).
    """
    site_rates = np.asarray(site_rates, dtype=np.float64)
    if site_rates.ndim != 1 or site_rates.size == 0:
        raise ValueError("site_rates must be a non-empty 1-D array")
    if (site_rates <= 0).any():
        raise ValueError("site rates must be positive")
    k = min(n_categories, len(np.unique(site_rates)))
    order = np.argsort(site_rates, kind="stable")
    assignment = np.empty(len(site_rates), dtype=np.intp)
    bins = np.array_split(order, k)
    rates = np.empty(k)
    for c, members in enumerate(bins):
        assignment[members] = c
        rates[c] = site_rates[members].mean()
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    weights = counts / counts.sum()
    # Normalize so the expected rate over sites is 1.
    rates = rates / (rates * weights).sum()
    return RateModel(rates, weights, site_categories=assignment, name=f"CAT({k})")
