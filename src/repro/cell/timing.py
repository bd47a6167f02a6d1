"""Cell Broadband Engine architecture constants.

Every number here is either quoted directly in the paper (section 4 and
section 5.2.3) or taken from the public Cell documentation the paper
cites (Kistler et al., *Cell Multiprocessor Communication Network: Built
for Speed*, IEEE Micro 2006; the IBM CBE tutorial).  These constants
parameterize both the component-level simulator (:mod:`repro.cell`) and
the calibrated kernel cost model (:mod:`repro.port.profilemodel`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CellTiming", "DEFAULT_TIMING"]


@dataclass(frozen=True)
class CellTiming:
    """Timing/geometry parameters of one Cell BE chip."""

    # --- clocks (paper section 1/4: "3.2 GHz for current models") ---
    clock_hz: float = 3.2e9

    # --- chip geometry (paper section 4) ---
    n_spes: int = 8
    ppe_smt_threads: int = 2

    # --- SPU floating point issue (paper section 4) ---
    # "All single precision floating point operations on the SPU are
    #  fully pipelined, and the SPU can issue one single-precision
    #  floating point operation per cycle."
    sp_issue_per_cycle: float = 1.0
    # "Double precision floating point operations are partially
    #  pipelined and two double-precision floating point operations can
    #  be issued every six cycles."
    dp_ops_per_issue: float = 2.0
    dp_issue_interval_cycles: float = 6.0
    # Paper-quoted aggregate peaks (8 SPEs, SIMD+FMA):
    peak_dp_gflops: float = 21.03
    peak_sp_gflops: float = 230.4
    # SIMD width: a 128-bit register holds two doubles / four floats.
    dp_simd_width: int = 2
    sp_simd_width: int = 4

    # --- branches (paper section 5.2.3, citing the IBM CBE tutorial) ---
    # "Mispredicted branches ... incur a penalty of approximately 20
    #  cycles."
    branch_miss_penalty_cycles: float = 20.0

    # --- local store (paper section 4) ---
    local_store_bytes: int = 256 * 1024
    # "the code footprints of the offloaded functions are small enough
    #  (117 Kbytes in total) ... still leave 139 Kbytes free"
    offloaded_code_bytes: int = 117 * 1024

    # --- MFC / DMA (paper section 4) ---
    dma_max_transfer_bytes: int = 16 * 1024
    dma_list_max_entries: int = 2048
    # "The MFC supports only DMA transfer sizes that are 1, 2, 4, 8 or
    #  multiples of 16 bytes long", 128-bit alignment.
    dma_alignment_bytes: int = 16
    dma_small_sizes: tuple = (1, 2, 4, 8)
    # Small-transfer DMA latency (local store <-> main memory), from
    # Kistler et al. (IEEE Micro 2006): on the order of a hundred ns.
    dma_latency_s: float = 100e-9
    # Per-element overhead of a DMA-list transfer.
    dma_list_element_overhead_s: float = 20e-9

    # --- EIB (paper section 4) ---
    # "a 4-ring structure ... can transmit 96 bytes per cycle, for a
    #  bandwidth of 204.8 Gigabytes/second ... more than 100 outstanding
    #  DMA requests."
    eib_rings: int = 4
    eib_bytes_per_cycle: float = 96.0
    eib_bandwidth_bytes_per_s: float = 204.8e9
    eib_max_outstanding: int = 100

    # --- XDR memory bandwidth (Cell BE public spec, 25.6 GB/s) ---
    memory_bandwidth_bytes_per_s: float = 25.6e9

    # --- PPE <-> SPE signalling ---
    # Mailbox access from the PPE goes through MMIO and is slow (~ a
    # microsecond round trip per IBM programming guidance); direct
    # writes into SPE local store / main memory avoid the MMIO stall.
    # The paper's section 5.2.6 measures a 2-11 % total-time gain from
    # replacing mailboxes; these latencies are calibrated to that range.
    mailbox_latency_s: float = 2.2e-6
    direct_signal_latency_s: float = 0.3e-6
    # SPU-side busy-wait poll interval on the signal word.
    spe_poll_interval_s: float = 0.05e-6

    # --- PPE scheduling ---
    # Process context switch on the PPE (Linux, per-switch direct cost).
    context_switch_s: float = 3.0e-6
    # SMT slowdown: with both PPE hardware threads busy each runs this
    # factor slower.  Derived from the paper's Table 1a:
    # (2 workers, 8 bootstraps) / (4 x single-worker time)
    # = 207.67 / (4 * 36.9) = 1.407.
    ppe_smt_slowdown: float = 207.67 / (4 * 36.9)

    # -- derived helpers ------------------------------------------------------

    def cycles(self, n: float) -> float:
        """Seconds taken by *n* cycles."""
        return n / self.clock_hz


#: The 3.2 GHz Cell blade configuration used throughout the paper.
DEFAULT_TIMING = CellTiming()
