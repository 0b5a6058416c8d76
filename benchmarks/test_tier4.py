"""Tier-4 fast-path benchmark: warm pool + warm session specs vs tier 3.

Times a serve-style stream of identical small jobs two ways through
the shared :func:`repro.bench.tier4_bench` helper: the tier-3
*session-batch* reference (a fresh process pool per job with cold
session specs) and the tier-4 fast path (one persistent
:class:`repro.runner.warm.WarmPool` across every job, and
``SessionSpec(warm=True)`` cache reuse inside the workers).  Each leg
runs in a fresh child interpreter so the reference cannot borrow the
parent's already-warm import/PHY state.

``tier4_bench`` itself asserts the two legs' per-job value digests are
identical before any timing compares — a faster-but-wrong pool fails
loudly — and this test asserts the speedup floor
``max(2.5, 0.8 * baseline)`` where ``baseline`` is the
``speedup_tier4_vs_session_batch`` recorded in
``benchmarks/baselines.json`` by ``repro bench --tier4
--update-baseline``.

Marked ``bench`` (wall-clock sensitive): excluded from the default
pytest split, run with ``pytest benchmarks/test_tier4.py -m bench``.
The tiny ``bench_smoke`` twin in ``tests/test_bench_smoke.py`` keeps
this machinery exercised by tier-1.
"""

import os

import pytest

from conftest import print_banner
from repro.analysis.reporting import Table
from repro.bench import (
    bench_payload,
    load_baseline,
    record_bench_trajectory,
    three_tier_bench,
    tier4_bench,
)

JOBS = 8
SESSIONS = 4
QUERIES = 16
SEED = 0
N_WORKERS = 2
REPEATS = 2  # best-of-N wall clock per leg: robust to scheduler noise

_BENCH_DIR = os.path.dirname(__file__)
_BASELINES = os.path.join(_BENCH_DIR, "baselines.json")
_TRAJECTORY = os.path.join(_BENCH_DIR, "BENCH_session_batch.json")


@pytest.mark.bench
def test_tier4_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: tier4_bench(
            JOBS,
            SESSIONS,
            QUERIES,
            seed=SEED,
            n_workers=N_WORKERS,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    legs = result["legs"]
    speedup = result["speedup_tier4_vs_session_batch"]

    baseline_entry = load_baseline("tier4", _BASELINES)
    baseline = (
        float(baseline_entry["speedup_tier4_vs_session_batch"])
        if baseline_entry
        else 2.5
    )
    floor = max(2.5, 0.8 * baseline)

    # Record the trajectory before asserting: a regression run still
    # leaves its numbers behind for the post-mortem.  The tier-4 block
    # rides in the shared trajectory file as a schema-2 entry; a tiny
    # three-tier run keeps the entry shape uniform with the
    # session-batch bench's entries.
    context = three_tier_bench(
        QUERIES, distance_m=4.0, seed=SEED, repeats=1
    )
    payload = bench_payload(context, tier4=result)
    payload["floor_tier4"] = floor
    payload["baseline_speedup_tier4_vs_session_batch"] = baseline
    record_bench_trajectory(_TRAJECTORY, payload)
    benchmark.extra_info["tier4"] = payload["tier4"]

    print_banner(
        "tier-4 fast path: warm pool + warm specs vs session-batch"
    )
    table = Table(
        f"{JOBS} jobs x {SESSIONS} sessions x {QUERIES} queries, "
        f"{N_WORKERS} worker(s), seed {SEED} (cold child per leg)",
        ["mode", "wall (s)", "jobs/s", "sessions/s"],
    )
    for mode in ("session-batch", "tier4"):
        leg = legs[mode]
        table.add_row(
            [mode, leg["wall_s"], leg["jobs_per_s"], leg["sessions_per_s"]]
        )
    print(table.render())
    print(
        f"tier4/session-batch {speedup:.2f}x "
        f"(floor {floor:.2f}x from baseline {baseline:.2f}x)"
    )

    # Correctness before speed: tier4_bench already raised if the
    # per-job digests diverged; restate the invariant loudly here.
    assert result["identical"], "tier-4 values diverged from reference"

    # The loud regression gate (ISSUE: >= 3x measured at record time;
    # the enforced floor is max(2.5, 0.8 * recorded baseline)).
    assert speedup >= floor, (
        f"tier-4 fast path regressed: {speedup:.2f}x < {floor:.2f}x "
        f"(baseline {baseline:.2f}x)"
    )
