"""Thousand-replicate campaign: kill it three times, lose nothing.

The acceptance bar for the run journal at scale (DESIGN.md section 15):
a large bootstrap campaign, SIGKILLed and resumed at three seeded
points, must finish with aggregates bit-identical to an uninterrupted
run — and after compaction its journal must replay in O(live results),
not O(history).

Two arms, both genuinely executed:

* **baseline** — the campaign runs uninterrupted in a child process;
* **interrupted** — the same campaign in a child process group that the
  parent SIGKILLs (``os.killpg``, no cleanup handlers run) once the
  journal shows the next seeded fraction of replicates done, then
  resumes in a fresh child; three kills, then a final resume to
  completion.

The comparison reads only the journals, so it exercises exactly what an
operator has after a crash: journal replay.  The two journals must
agree on every result payload (a canonical digest over ``(kind,
replicate, newick, log likelihood)``), and the interrupted arm must
journal exactly ``N_KILLS`` resumes.

Claims checked:

* the interrupted campaign's payload digest equals the baseline's
  (bit-identical best tree, likelihoods, and supports follow, since
  aggregation is a pure function of the payload set).  The digest
  itself follows the BLAS build's CPU dispatch, so ``BENCH_engine.json``
  keeps one ``payload_digests`` entry per ``host``; compare a change
  against its parent on the same host, never against another host's;
* every kill actually interrupted the run (three ``run_resumed``
  records) and no replicate was lost or duplicated;
* after compaction the finished journal replays within
  ``REPLAY_BUDGET_S`` and holds at most ``live results + 4`` records.

``REPRO_SCALE_REPLICATES`` (default 1000) sizes the campaign so local
smoke runs can shrink it; CI runs the full thousand.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster_scale.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO / "BENCH_engine.json"

REPLICATES = int(os.environ.get("REPRO_SCALE_REPLICATES", "1000"))
N_WORKERS = 4
JOB_SEED = 17
DATA_SEED = 3
N_KILLS = 3
KILL_SEED = 2026
REPLAY_BUDGET_S = 5.0
POLL_S = 0.2
#: A kill is only interesting while work remains; keep the seeded
#: fractions away from both ends so every segment does real work.
KILL_FRACTION_RANGE = (0.15, 0.80)


def _spec():
    from repro.cluster import JobSpec
    from repro.phylo import SearchConfig

    return JobSpec(
        n_inferences=1, n_bootstraps=REPLICATES, seed=JOB_SEED,
        batch_size=10,
        config=SearchConfig(initial_radius=1, max_radius=1, max_rounds=1,
                            smoothing_passes=1, final_smoothing_passes=1),
    )


def _alignment():
    from repro.phylo import synthetic_dataset

    return synthetic_dataset(n_taxa=6, n_sites=120, seed=DATA_SEED)


def _child(mode: str, journal: str) -> int:
    """Run one campaign segment (``run`` from scratch, ``resume`` from
    the journal) in this process; the parent may SIGKILL us any time."""
    from repro.cluster import resume_job, run_job

    if mode == "run":
        run_job(_spec(), _alignment(), n_workers=N_WORKERS,
                journal_path=journal)
    else:
        resume_job(journal, _alignment(), n_workers=N_WORKERS)
    return 0


def _spawn(mode: str, journal: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               REPRO_SCALE_REPLICATES=str(REPLICATES))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--child", mode, journal],
        env=env, start_new_session=True,
    )


def _done_replicates(journal: str) -> int:
    from repro.cluster import replay

    if not os.path.exists(journal):
        return 0
    state = replay(journal)
    return len(state.done_bootstraps) + len(state.done_inferences)


def _kill_at(proc: subprocess.Popen, journal: str, target: int) -> bool:
    """SIGKILL *proc*'s whole group once *target* replicates are
    journalled; False when the run finished before reaching it."""
    while True:
        if proc.poll() is not None:
            return False
        if _done_replicates(journal) >= target:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait()
            return True
        time.sleep(POLL_S)


def _payload_digest(journal: str) -> str:
    """Canonical digest of every result payload in the journal."""
    from repro.cluster import replay

    state = replay(journal)
    blob = json.dumps(
        [(kind, replicate, payload["newick"], payload["log_likelihood"])
         for (kind, replicate), payload in sorted(state.payloads.items())],
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def main() -> int:
    import tempfile

    from repro.cluster import compact_journal, replay

    workdir = Path(tempfile.mkdtemp(prefix="bench-cluster-scale-"))
    total = REPLICATES + 1  # bootstraps + the single inference

    baseline_journal = str(workdir / "baseline.jsonl")
    start = time.perf_counter()
    proc = _spawn("run", baseline_journal)
    assert proc.wait() == 0, "baseline campaign failed"
    baseline_wall = time.perf_counter() - start
    baseline = replay(baseline_journal)
    assert baseline.finished and len(baseline.payloads) == total
    print(f"baseline:    {REPLICATES} replicates x {N_WORKERS} workers "
          f"in {baseline_wall:.1f}s")

    rng = random.Random(KILL_SEED)
    fractions = sorted(rng.uniform(*KILL_FRACTION_RANGE)
                       for _ in range(N_KILLS))
    targets = [max(1, int(f * total)) for f in fractions]
    print(f"kill plan:   seed {KILL_SEED} -> replicate targets {targets}")

    interrupted_journal = str(workdir / "interrupted.jsonl")
    start = time.perf_counter()
    kills = 0
    effective_targets = []
    proc = _spawn("run", interrupted_journal)
    for target in targets:
        # A kill can overshoot its target (a whole batch of results
        # lands between polls); the next target must demand *new*
        # progress, or we would kill the resumed child before it
        # journals anything.
        target = max(target, _done_replicates(interrupted_journal) + 1)
        effective_targets.append(target)
        if not _kill_at(proc, interrupted_journal, target):
            break
        kills += 1
        print(f"  killed at >= {target} replicates done; resuming")
        proc = _spawn("resume", interrupted_journal)
    assert proc.wait() == 0, "final resume failed"
    interrupted_wall = time.perf_counter() - start

    final = replay(interrupted_journal)
    assert kills == N_KILLS, (
        f"only {kills}/{N_KILLS} kills landed — the campaign finished "
        f"too fast for the seeded targets {effective_targets}"
    )
    assert final.resumes == N_KILLS
    assert final.finished
    assert len(final.payloads) == total, "lost or duplicated replicates"

    baseline_digest = _payload_digest(baseline_journal)
    final_digest = _payload_digest(interrupted_journal)
    assert final_digest == baseline_digest, (
        "interrupted campaign diverged from the uninterrupted baseline"
    )
    print(f"interrupted: {kills} SIGKILLs + resumes in "
          f"{interrupted_wall:.1f}s, digest matches baseline "
          f"({final_digest[:12]}...)")

    # Resume cost after compaction: O(live results), within budget.
    compact_journal(interrupted_journal)
    start = time.perf_counter()
    compacted = replay(interrupted_journal)
    replay_s = time.perf_counter() - start
    with open(interrupted_journal) as fh:
        compacted_records = sum(1 for _ in fh)
    assert compacted.payloads == final.payloads
    assert compacted_records <= total + 4, (
        f"{compacted_records} records after compaction for {total} "
        f"live results"
    )
    assert replay_s <= REPLAY_BUDGET_S, (
        f"compacted replay took {replay_s:.2f}s "
        f"(budget {REPLAY_BUDGET_S}s)"
    )
    print(f"compacted:   {compacted_records} records replay in "
          f"{replay_s:.3f}s (budget {REPLAY_BUDGET_S}s)")

    from repro.harness.report import host_fingerprint, merge_bench_section

    # The digest follows the BLAS build's CPU dispatch, so it is recorded
    # per host: this host's entry is replaced, other hosts' are kept.
    host = host_fingerprint()
    committed = (json.loads(RESULT_PATH.read_text()).get("cluster_scale", {})
                 if RESULT_PATH.is_file() else {})
    digests = [entry for entry in committed.get("payload_digests", [])
               if entry["host"] != host]
    digests.append({"host": host, "payload_digest": final_digest})
    section = {
        "replicates": REPLICATES,
        "n_workers": N_WORKERS,
        "kill_seed": KILL_SEED,
        "kill_targets": targets,
        "effective_kill_targets": effective_targets,
        "kills": kills,
        "resumes": final.resumes,
        "worker_deaths": len(final.worker_deaths),
        "baseline_wall_seconds": baseline_wall,
        "interrupted_wall_seconds": interrupted_wall,
        "payload_digests": digests,
        "digest_matches_baseline": final_digest == baseline_digest,
        "compacted_records": compacted_records,
        "compacted_replay_seconds": replay_s,
        "replay_budget_seconds": REPLAY_BUDGET_S,
    }
    merge_bench_section(RESULT_PATH, "cluster_scale", section)
    print(f"bench_cluster_scale: OK — wrote 'cluster_scale' section to "
          f"{RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "--child":
        sys.exit(_child(sys.argv[2], sys.argv[3]))
    raise SystemExit(main())
