"""PHY fast-path benchmark: scalar reference loop vs vectorized batch.

Runs the same LOS session twice through :func:`repro.sim.scenario.
los_scenario` — once with ``phy_fast_path=False`` (per-subframe scalar
reference) and once with the vectorized batch decode — and records both
wall-clocks, queries/sec and the per-stage timing counters into the
benchmark JSON trajectory.

Unlike the engine-scaling smoke, this bench *does* assert a speedup:
the vectorized path must stay at or above ``max(3.0, 0.8 * baseline)``
where ``baseline`` is the ratio recorded in ``benchmarks/baselines.json``
when the fast path landed.  A regression below that floor fails loudly.

Both paths draw randomness in the same per-subframe order, so the two
sessions simulate the same physics; their BERs differ only through the
coded-BER interpolation table (~1e-6 outcome-flip probability per
subframe).

Marked ``bench`` (wall-clock sensitive): excluded from the default
pytest split, run with ``pytest benchmarks/test_phy_fastpath.py -m bench``.
"""

import json
import os

import numpy as np
import pytest

from conftest import print_banner
from repro.analysis.reporting import Table
from repro.core.session import MeasurementSession
from repro.sim.scenario import los_scenario

QUERIES = 200
WARMUP_QUERIES = 10
DISTANCE_M = 4.0
SEED = 0

_BASELINES = os.path.join(os.path.dirname(__file__), "baselines.json")


def _baseline_speedup() -> float:
    with open(_BASELINES) as fh:
        return float(json.load(fh)["phy_fastpath"]["speedup"])


def _timed_session(fast: bool):
    """Build, warm up, and run one session; returns (stats, wall_s, timings)."""
    import time

    system, _info = los_scenario(
        DISTANCE_M, seed=SEED, phy_fast_path=fast
    )
    # The per-query loop: the session engine ignores phy_fast_path and
    # would time itself on both legs.
    session = MeasurementSession(
        system, rng=np.random.default_rng(SEED + 1), session_fast_path=False
    )
    session.run_queries(WARMUP_QUERIES)  # warms caches/tables
    session.results.clear()  # stats aggregate results; drop the warmup
    system.counters.reset()
    system.error_model.counters.reset()
    start = time.perf_counter()
    stats = session.run_queries(QUERIES)
    wall = time.perf_counter() - start
    return stats, wall, session.stage_timings()


def both():
    return _timed_session(False), _timed_session(True)


@pytest.mark.bench
def test_phy_fastpath_speedup(benchmark):
    (scalar, parallel) = benchmark.pedantic(both, rounds=1, iterations=1)
    scalar_stats, scalar_wall, scalar_timings = scalar
    fast_stats, fast_wall, fast_timings = parallel

    scalar_qps = QUERIES / scalar_wall
    fast_qps = QUERIES / fast_wall
    speedup = scalar_wall / fast_wall
    baseline = _baseline_speedup()
    floor = max(3.0, 0.8 * baseline)

    benchmark.extra_info["phy_fastpath"] = {
        "queries": QUERIES,
        "distance_m": DISTANCE_M,
        "seed": SEED,
        "scalar_wall_s": scalar_wall,
        "vectorized_wall_s": fast_wall,
        "scalar_queries_per_s": scalar_qps,
        "vectorized_queries_per_s": fast_qps,
        "speedup": speedup,
        "baseline_speedup": baseline,
        "floor": floor,
        "scalar_ber": scalar_stats.ber,
        "vectorized_ber": fast_stats.ber,
        "vectorized_stage_timings": fast_timings,
    }

    print_banner("PHY fast path: scalar reference vs vectorized batch")
    table = Table(
        f"{QUERIES} queries, LOS tag@{DISTANCE_M:g}m, seed {SEED}",
        ["path", "wall (s)", "queries/s", "BER"],
    )
    table.add_row(["scalar", scalar_wall, scalar_qps, scalar_stats.ber])
    table.add_row(["vectorized", fast_wall, fast_qps, fast_stats.ber])
    print(table.render())
    print(
        f"speedup {speedup:.2f}x (floor {floor:.2f}x from "
        f"baseline {baseline:.2f}x)"
    )

    # Same physics both ways: the sessions ran identical query counts and
    # their BERs may differ only via the coded-BER table (~1e-3 relative
    # on success probabilities), never grossly.
    assert scalar_stats.queries == fast_stats.queries == QUERIES
    assert scalar_stats.bits_sent == fast_stats.bits_sent
    assert abs(scalar_stats.ber - fast_stats.ber) < 0.01

    # The loud regression gate (ISSUE: >= 3x, and within 20% of the
    # recorded baseline trajectory).
    assert speedup >= floor, (
        f"vectorized PHY fast path regressed: {speedup:.2f}x < "
        f"{floor:.2f}x (baseline {baseline:.2f}x)"
    )
