"""The calibrated kernel cost model (how seconds are produced).

The reproduction cannot time code on Cell silicon, so execution times
are produced by a component cost model whose constants are **derived
algebraically from the paper's own measurements** and whose structure
follows the mechanisms the paper describes.  The derivation (all
quantities per canonical task — one ``42_SC`` search, 230,500
``newview`` invocations):

Let ``rest`` be the PPE time of the never-offloaded remainder
(makenewz + evaluate + other until table 7), from the gprof shares of
section 5.2 applied to Table 1a's 36.9 s.  Subtracting ``rest`` from
each staged table's (1 worker, 1 bootstrap) cell isolates the offloaded
``newview`` path ``S_k`` at stage ``k``; successive differences then
yield the per-component times:

======================  =============================================
component               derivation
======================  =============================================
``M_dm`` (comm/offload)  2 x direct-signal latency + SPU poll (timing)
``M_mb``                 ``M_dm + (S5 - S6) / N``      [Table 5 vs 6]
``K_k`` (kernel only)    ``S_k - M`` at the stage's comm mechanism
``E_lib``                ``0.50 x K_1``                 [section 5.2.2]
``E_sdk``                ``E_lib - (K_1 - K_2)``        [Table 1b vs 2]
``B_int``                ``0.06 x K_3``                 [section 5.2.3]
``B_float``              ``B_int + (K_2 - K_3)``        [Table 2 vs 3]
``D`` (DMA wait)         ``K_3 - K_4``                  [Table 3 vs 4]
``C_scalar`` (loops)     ``0.694 x K_4``                [section 5.2.5]
``C_vec``                ``C_scalar - (K_4 - K_5)``     [Table 4 vs 5]
``R`` (per-call rest)    ``K_4 - C_scalar - E_sdk - B_int``
======================  =============================================

Two-worker rows expose two further mechanisms the model carries:
the PPE SMT slowdown (1.407, from Table 1a) applied to all
PPE-resident time, and a per-offload *communication contention* cost
per additional worker (~9.8 us mailbox / ~2.3 us direct, the residual
of Tables 1b-6 two-worker rows after SMT) — the effect behind the
paper's remark that direct memory-to-memory communication "scales with
parallelism".

Stage 7 (all three kernels on the SPE) uses the SPE/PPE speed ratio
``sigma = K_5 / newview-PPE-time`` for the migrated kernels plus a
co-residency factor ``phi`` solved from Table 7's 27.7 s — the paper's
stage-7 measurement implies a joint speedup beyond the component sum
(nested calls lose their per-call setup), which ``phi`` absorbs.

The scheduling constants (EDTLP PPE service per offload, LLP overhead
share) are solved from Table 8 in the same spirit; see
:class:`CellCostModel` attributes.

Everything downstream — every other cell of Tables 1-8, all worker /
bootstrap scalings, the MGPS composition, and Figure 3's platform
comparison — is *derived*, and EXPERIMENTS.md reports paper-vs-model
for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cell.timing import CellTiming, DEFAULT_TIMING
from . import paperdata as P
from .optimizations import OptimizationConfig, stage
from .trace import TraceSummary

__all__ = ["CellCostModel", "TaskCost"]


@dataclass(frozen=True)
class TaskCost:
    """Cost breakdown of one task (one bootstrap/inference search)."""

    ppe_s: float  # PPE-resident compute (incl. SMT inflation)
    spe_s: float  # SPE kernel time
    comm_s: float  # PPE<->SPE signalling (incl. contention)
    offloads: int  # PPE->SPE dispatches

    @property
    def total_s(self) -> float:
        return self.ppe_s + self.spe_s + self.comm_s


class CellCostModel:
    """Prices a traced workload on the simulated Cell under any
    optimization configuration and worker count.

    Parameters
    ----------
    summary:
        The per-task workload trace (scaled internally to the paper's
        canonical 230,500 ``newview`` calls so absolute seconds are
        comparable to the paper's tables).
    timing:
        Cell architecture constants.
    """

    def __init__(self, summary: TraceSummary,
                 timing: CellTiming = DEFAULT_TIMING):
        if summary.newview_count <= 0:
            raise ValueError("trace has no newview calls")
        self.timing = timing
        self.canonical = summary.scale(P.NEWVIEW_CALLS / summary.newview_count)
        n = float(P.NEWVIEW_CALLS)

        shares = P.PROFILE_SHARES
        t1a = P.TABLES["table1a"][(1, 1)]
        #: PPE sequential task time (the calibration anchor).
        self.ppe_task_s = t1a
        #: makenewz+evaluate+other on the PPE (resident until table 7).
        self.ppe_rest_s = (
            shares["makenewz"] + shares["evaluate"] + shares["other"]
        ) * t1a
        self.ppe_other_s = shares["other"] * t1a
        self.ppe_mz_ev_s = (shares["makenewz"] + shares["evaluate"]) * t1a
        self.ppe_newview_s = shares["newview"] * t1a

        # --- per-offload communication -------------------------------------
        self.comm_direct_per_offload = (
            2.0 * timing.direct_signal_latency_s + timing.spe_poll_interval_s
        )
        s = {
            k: P.TABLES[k][(1, 1)] - self.ppe_rest_s
            for k in ("table1b", "table2", "table3", "table4", "table5", "table6")
        }
        self.comm_mailbox_per_offload = (
            self.comm_direct_per_offload + (s["table5"] - s["table6"]) / n
        )

        # --- newview kernel components (totals per canonical task) -----------
        mb_total = self.comm_mailbox_per_offload * n
        dm_total = self.comm_direct_per_offload * n
        k1 = s["table1b"] - mb_total
        k2 = s["table2"] - mb_total
        k3 = s["table3"] - mb_total
        k4 = s["table4"] - mb_total
        k5 = s["table5"] - mb_total
        frac = P.SECTION52_FRACTIONS
        self.nv_exp_lib_s = frac["exp_share_of_unoptimized_spe"] * k1
        self.nv_exp_sdk_s = self.nv_exp_lib_s - (k1 - k2)
        self.nv_cond_int_s = frac["conditional_share_after"] * k3
        self.nv_cond_float_s = self.nv_cond_int_s + (k2 - k3)
        self.nv_dma_wait_s = k3 - k4
        self.nv_loops_scalar_s = frac["loops_share_before_simd"] * k4
        self.nv_loops_vector_s = self.nv_loops_scalar_s - (k4 - k5)
        self.nv_residual_s = (
            k4 - self.nv_loops_scalar_s - self.nv_exp_sdk_s - self.nv_cond_int_s
        )
        self._k5 = k5
        for name in (
            "nv_exp_sdk_s",
            "nv_cond_int_s",
            "nv_dma_wait_s",
            "nv_loops_vector_s",
            "nv_residual_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"derived component {name} is non-positive")

        # --- two-worker communication contention ----------------------------
        # Residual per-offload cost per additional worker after SMT, averaged
        # over the mailbox-stage tables (see module docstring).
        smt = timing.ppe_smt_slowdown
        residuals = []
        for key, kernel in (
            ("table1b", k1), ("table2", k2), ("table3", k3),
            ("table4", k4), ("table5", k5),
        ):
            t_2w32 = P.TABLES[key][(2, 32)]
            predicted = 16.0 * (self.ppe_rest_s * smt + kernel + mb_total * smt)
            residuals.append((t_2w32 - predicted) / (32.0 * n))
        self.comm_contention_mailbox = max(sum(residuals) / len(residuals), 0.0)
        t6_2w32 = P.TABLES["table6"][(2, 32)]
        predicted6 = 16.0 * (self.ppe_rest_s * smt + k5 + dm_total * smt)
        self.comm_contention_direct = max(
            (t6_2w32 - predicted6) / (32.0 * n), 0.0
        )

        # --- stage 7: all three kernels on the SPE ---------------------------
        #: SPE/PPE speed ratio for fully optimized kernels.
        self.sigma_spe_over_ppe = k5 / self.ppe_newview_s
        offloads7 = self.canonical.offload_count(offload_all=True)
        comm7 = offloads7 * self.comm_direct_per_offload
        t7 = P.TABLES["table7"][(1, 1)]
        raw7 = k5 + self.sigma_spe_over_ppe * self.ppe_mz_ev_s
        #: Co-residency factor (joint speedup of the single-module port).
        self.stage7_phi = (t7 - self.ppe_other_s - comm7) / raw7
        self._spe7_s = self.stage7_phi * raw7

        # --- LLP loop-parallelization constants (from Table 8, 1 bootstrap) ---
        #: Parallelizable fraction: the vectorized likelihood loops' share.
        self.llp_parallel_fraction = self.nv_loops_vector_s / k5
        t8_1 = P.TABLE8[1]
        target_speedup = self._spe7_s / (t8_1 - self.ppe_other_s - comm7)
        p = self.llp_parallel_fraction
        n_spes = timing.n_spes
        #: Per-SPE overhead share of LLP: speedup(n) =
        #: 1 / ((1-p) + p/n + eta*(n-1)/(n_spes-1)), so eta is the full
        #: overhead share at the maximum split (n = n_spes).
        self.llp_overhead_eta = max(
            1.0 / target_speedup - (1.0 - p) - p / n_spes, 0.0
        )

        # --- EDTLP PPE service time per offload (from Table 8, 32 bootstraps) ---
        # With the PPE saturated by 8 oversubscribed workers, makespan =
        # B * offloads * g_eff / threads; solve g from the 32-bootstrap row.
        t8_32 = P.TABLE8[32]
        self.edtlp_ppe_service_s = (
            t8_32 * timing.ppe_smt_threads / (32.0 * offloads7)
        ) / smt  # store the uncontended value; SMT applies at use

    # ------------------------------------------------------------------
    # newview kernel time under a configuration
    # ------------------------------------------------------------------

    def sp_arithmetic_speedup(self) -> float:
        """SPU single- vs double-precision arithmetic throughput ratio.

        Paper section 6: "the use of single-precision arithmetic would
        widen the margin" — SP is fully pipelined (1 issue/cycle) with
        4-wide SIMD, against DP's 2 ops per 6 cycles at 2-wide SIMD:
        (1 x 4) / (2/6 x 2) = 6.
        """
        t = self.timing
        sp = t.sp_issue_per_cycle * t.sp_simd_width
        dp = (t.dp_ops_per_issue / t.dp_issue_interval_cycles) * t.dp_simd_width
        return sp / dp

    def newview_kernel_s(self, config: OptimizationConfig,
                         single_precision: bool = False) -> float:
        """SPE time of the newview path per canonical task (no comm).

        With ``single_precision=True`` the arithmetic components (loops,
        exp) speed up by :meth:`sp_arithmetic_speedup` and the DMA wait
        halves (half-width data); the integer-compare conditional and
        the per-call residual are unchanged.
        """
        if not config.any_offload:
            raise ValueError("newview_kernel_s requires an offload config")
        loops = self.nv_loops_vector_s if config.vectorize else self.nv_loops_scalar_s
        exp_t = self.nv_exp_sdk_s if config.sdk_exp else self.nv_exp_lib_s
        cond = self.nv_cond_int_s if config.int_conditionals else self.nv_cond_float_s
        dma = 0.0 if config.double_buffering else self.nv_dma_wait_s
        if single_precision:
            speedup = self.sp_arithmetic_speedup()
            loops /= speedup
            exp_t /= speedup
            dma /= 2.0
        return loops + exp_t + cond + dma + self.nv_residual_s

    def comm_per_offload(self, config: OptimizationConfig, workers: int) -> float:
        """Per-offload signalling cost including SMT and contention."""
        smt = self.timing.ppe_smt_slowdown if workers >= 2 else 1.0
        if config.direct_comm:
            base = self.comm_direct_per_offload
            contention = self.comm_contention_direct
        else:
            base = self.comm_mailbox_per_offload
            contention = self.comm_contention_mailbox
        return base * smt + (workers - 1) * contention

    # ------------------------------------------------------------------
    # per-task cost
    # ------------------------------------------------------------------

    def task_cost(self, config: OptimizationConfig, workers: int = 1) -> TaskCost:
        """Cost of one task under *config* with *workers* co-scheduled MPI
        processes on the PPE (1 or 2 — the dedicated-thread regimes of
        Tables 1-7; oversubscription is the schedulers' job)."""
        if workers not in (1, 2):
            raise ValueError("task_cost covers the 1- and 2-worker regimes")
        smt = self.timing.ppe_smt_slowdown if workers >= 2 else 1.0
        if not config.any_offload:
            return TaskCost(ppe_s=self.ppe_task_s * smt, spe_s=0.0,
                            comm_s=0.0, offloads=0)
        if config.offload_all:
            offloads = self.canonical.offload_count(offload_all=True)
            comm = offloads * self.comm_per_offload(config, workers)
            # The migrated makenewz/evaluate scale with the newview
            # kernel's optimization state (they share the loop structure),
            # so the SPE time is phi * nv_kernel * (1 + mz_ev/nv PPE ratio).
            spe = (
                self.stage7_phi
                * self.newview_kernel_s(config)
                * (1.0 + self.ppe_mz_ev_s / self.ppe_newview_s)
            )
            return TaskCost(
                ppe_s=self.ppe_other_s * smt,
                spe_s=spe,
                comm_s=comm,
                offloads=offloads,
            )
        offloads = self.canonical.offload_count(offload_all=False)
        comm = offloads * self.comm_per_offload(config, workers)
        return TaskCost(
            ppe_s=self.ppe_rest_s * smt,
            spe_s=self.newview_kernel_s(config),
            comm_s=comm,
            offloads=offloads,
        )

    def run_total_s(self, config: OptimizationConfig, workers: int,
                    bootstraps: int) -> float:
        """Wall-clock of *bootstraps* tasks over *workers* processes.

        Tables 1-7 regime: each worker owns one PPE hardware thread and
        one SPE; tasks are statically divided (the table rows all divide
        evenly, but stragglers are handled for other inputs).
        """
        if bootstraps < 1 or workers < 1:
            raise ValueError("need at least one bootstrap and one worker")
        per_task = self.task_cost(config, workers=min(workers, 2)).total_s
        tasks_on_busiest = -(-bootstraps // workers)  # ceil
        return tasks_on_busiest * per_task

    def stage_total_s(self, stage_name: str, workers: int,
                      bootstraps: int) -> float:
        """Table lookup-compatible entry: price a named cumulative stage."""
        return self.run_total_s(stage(stage_name), workers, bootstraps)

    # ------------------------------------------------------------------
    # scheduling models (analytic forms; DEVS versions in repro.sched)
    # ------------------------------------------------------------------

    def llp_speedup(self, n_spes: int) -> float:
        """Loop-level-parallelization speedup of the SPE part on n SPEs."""
        if n_spes < 1:
            raise ValueError("need at least one SPE")
        if n_spes == 1:
            return 1.0
        p = self.llp_parallel_fraction
        eta = self.llp_overhead_eta
        denom = (1.0 - p) + p / n_spes + eta * (n_spes - 1) / (
            self.timing.n_spes - 1
        )
        return 1.0 / denom

    def llp_task_s(self, n_spes: int, active_workers: int = 1) -> float:
        """One task with its SPE work loop-parallelized over *n_spes*."""
        config = stage("table7")
        cost = self.task_cost(config, workers=min(active_workers, 2))
        return cost.ppe_s + cost.spe_s / self.llp_speedup(n_spes) + cost.comm_s

    def edtlp_total_s(self, bootstraps: int, n_workers: Optional[int] = None
                      ) -> float:
        """EDTLP makespan: *n_workers* oversubscribed on the PPE.

        The PPE serves every offload (context switch + signalling +
        result handling, ``edtlp_ppe_service_s`` each, SMT-inflated);
        the makespan is the larger of the SPE-side and PPE-side bounds.
        """
        n_workers = n_workers or self.timing.n_spes
        if bootstraps < 1:
            raise ValueError("need at least one bootstrap")
        config = stage("table7")
        cost = self.task_cost(config, workers=2)  # PPE threads always shared
        smt = self.timing.ppe_smt_slowdown
        spe_bound = -(-bootstraps // n_workers) * (cost.spe_s + cost.ppe_s)
        ppe_demand_s = (
            bootstraps * cost.offloads * self.edtlp_ppe_service_s * smt
        )
        ppe_bound = ppe_demand_s / self.timing.ppe_smt_threads
        return max(spe_bound, ppe_bound)

    def mgps_total_s(self, bootstraps: int) -> float:
        """MGPS: EDTLP for full batches of 8 tasks, LLP for the remainder.

        Mirrors the paper's policy (section 5.3): start with eight
        EDTLP workers; when fewer than eight tasks remain, suspend idle
        workers and switch the stragglers to loop-level parallelism
        (up to four concurrent tasks, two SPEs per loop)."""
        if bootstraps < 1:
            raise ValueError("need at least one bootstrap")
        n = self.timing.n_spes
        full_batches, remainder = divmod(bootstraps, n)
        # edtlp_total_s(n) prices exactly one batch of n tasks.
        total = full_batches * self.edtlp_total_s(n, n_workers=n)
        remaining = remainder
        while remaining:
            workers = min(remaining, 4)
            spes_each = max(1, n // workers)
            total += self.llp_task_s(spes_each, active_workers=workers)
            remaining -= workers
        return total

    # ------------------------------------------------------------------
    # extensions beyond the paper's tables
    # ------------------------------------------------------------------

    def mgps_total_sp_s(self, bootstraps: int) -> float:
        """MGPS makespan in the single-precision projection (section 6).

        The SPE kernel shrinks by the SP arithmetic factor on its
        compute components; per-offload communication and PPE-side time
        are unchanged, so the EDTLP regime becomes even more PPE-bound
        (the SPE bound drops, the PPE bound stays) — the SP projection
        mainly pays off in the LLP/low-parallelism regime and when the
        PPE service time is amortized.
        """
        config = stage("table7")
        dp_kernel = self.newview_kernel_s(config)
        sp_kernel = self.newview_kernel_s(config, single_precision=True)
        ratio = sp_kernel / dp_kernel
        n = self.timing.n_spes
        full_batches, remainder = divmod(bootstraps, n)
        cost = self.task_cost(config, workers=2)
        smt = self.timing.ppe_smt_slowdown
        # EDTLP batch: SPE bound shrinks, PPE bound unchanged.
        spe_bound = cost.spe_s * ratio + cost.ppe_s
        ppe_bound = (
            n * cost.offloads * self.edtlp_ppe_service_s * smt
            / self.timing.ppe_smt_threads
        )
        total = full_batches * max(spe_bound, ppe_bound)
        remaining = remainder
        while remaining:
            workers = min(remaining, 4)
            spes_each = max(1, n // workers)
            c1 = self.task_cost(config, workers=min(workers, 2))
            total += (
                c1.ppe_s
                + c1.spe_s * ratio / self.llp_speedup(spes_each)
                + c1.comm_s
            )
            remaining -= workers
        return total

    def dual_cell_mgps_s(self, bootstraps: int) -> float:
        """Projection onto both chips of the dual-Cell blade.

        The paper uses one processor of the BSC blade; with two, each
        chip (own PPE, own 8 SPEs, own EIB) runs MGPS over half the
        tasks independently — the makespan is the busier chip's.
        """
        if bootstraps < 1:
            raise ValueError("need at least one bootstrap")
        busier = -(-bootstraps // 2)
        return self.mgps_total_s(busier)

    def overlay_penalty_s(self, module_bytes: int,
                          swaps_per_call: float = 2.0,
                          resident_bytes: int = 24 * 1024) -> float:
        """Per-task cost of code overlays for an oversized SPE module.

        The paper avoided overlays by keeping the three functions at
        117 KB (section 5.2.4: "recursive function calls in general
        necessitate the use of manually managed code overlays").  This
        prices the alternative, with two cost channels:

        * **swap traffic** — every kernel invocation crossing an
          overlay boundary DMAs the overflowing code segment in (and
          the displaced one out): ``swaps_per_call`` segment transfers
          per ``newview``-class call;
        * **lost double buffering** — code pressure evicts the 2 KB
          DMA staging buffers, so the strip-mined likelihood-vector
          transfers become synchronous again, re-paying the Table 4
          DMA-wait component.

        Returns added seconds per canonical task (0 when the module
        fits next to the stack and buffers).
        """
        if module_bytes <= 0:
            raise ValueError("module size must be positive")
        available = self.timing.local_store_bytes - resident_bytes
        if module_bytes <= available:
            return 0.0
        overflow = module_bytes - available
        n_chunks = -(-overflow // self.timing.dma_max_transfer_bytes)
        per_swap = (
            n_chunks * self.timing.dma_latency_s
            + overflow / self.timing.eib_bandwidth_bytes_per_s
        )
        calls = self.canonical.newview_count
        swap_cost = calls * swaps_per_call * per_swap
        return swap_cost + self.nv_dma_wait_s

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def paper_comparison(self) -> Dict[str, Dict[Tuple[int, int], Tuple[float, float]]]:
        """(paper, model) value pairs for every cell of Tables 1-7."""
        out: Dict[str, Dict[Tuple[int, int], Tuple[float, float]]] = {}
        for table, cells in P.TABLES.items():
            out[table] = {
                key: (paper_value, self.stage_total_s(table, *key))
                for key, paper_value in cells.items()
            }
        return out
