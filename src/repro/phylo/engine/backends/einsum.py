"""The vectorized default backend: a thin adapter over
:mod:`repro.phylo.kernels`.

Every method delegates to the corresponding NumPy kernel, adding only
the per-backend call counter required by the shared instrumentation
seam.  The kernels on the default hot path — the fused ``newview``,
the propagations, ``evaluate_loglik`` and the sumtable pair — are
direct ``np.matmul`` forms; only the three-operand derivative kernel
still goes through ``np.einsum`` (with the module-level, lock-guarded
contraction-path cache).  The backend keeps its name: it
is the registry's, the environment override's and the golden corpus'.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ... import kernels
from ..protocol import BACKEND_COUNTER_KEYS, KernelBackend, register_backend

__all__ = ["EinsumBackend"]


@register_backend("einsum")
class EinsumBackend(KernelBackend):
    """Vectorized NumPy kernels — the fast serial default."""

    name = "einsum"
    uses_pmat_cache = True

    def __init__(self) -> None:
        self.kernel_calls = 0

    # -- newview -------------------------------------------------------------

    def newview(self, left, p_left, right, p_right, out_clv, out_scale,
                code_table, hook=None) -> int:
        """The fused kernel: one counted call per CLV."""
        self.kernel_calls += 1
        return kernels.newview(
            left, p_left, right, p_right, out_clv, out_scale, code_table,
            self._newview_scratch(out_clv), hook,
        )

    def tip_terms(self, p, masks, code_table, out=None):
        self.kernel_calls += 1
        return kernels.tip_terms(p, masks, code_table, out=out)

    def inner_terms(self, p, clv, out=None):
        self.kernel_calls += 1
        return kernels.inner_terms(p, clv, out=out)

    def newview_combine(self, left_term, right_term, out=None):
        self.kernel_calls += 1
        return kernels.newview_combine(left_term, right_term, out=out)

    def scale_clv(self, clv, scale_counts) -> int:
        self.kernel_calls += 1
        return kernels.scale_clv(clv, scale_counts)

    # -- evaluate ------------------------------------------------------------

    def evaluate_loglik(self, pi, cat_weights, pattern_weights, u_term,
                        v_term, scale_counts) -> float:
        self.kernel_calls += 1
        return kernels.evaluate_loglik(
            pi, cat_weights, pattern_weights, u_term, v_term, scale_counts
        )

    # -- makenewz ------------------------------------------------------------

    def branch_derivatives(self, model_terms, pi, cat_weights,
                           pattern_weights, u_clv, v_clv, scale_counts
                           ) -> Tuple[float, float, float]:
        self.kernel_calls += 1
        return kernels.branch_derivatives(
            model_terms, pi, cat_weights, pattern_weights, u_clv, v_clv,
            scale_counts,
        )

    # -- instrumentation -----------------------------------------------------

    def perf_counters(self) -> Dict[str, int]:
        return {
            "backend_kernel_calls": self.kernel_calls,
            "backend_warmup_us": 0,
        }


# Consumers import the key tuple from the protocol; re-assert here that
# the adapter honours it (cheap, import-time only).
assert tuple(sorted(EinsumBackend().perf_counters())) == tuple(
    sorted(BACKEND_COUNTER_KEYS)
)
