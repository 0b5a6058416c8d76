"""Shared benchmark helpers: the three-tier fast-path hierarchy.

The simulator has three execution tiers for the same physics:

1. **scalar reference** (``phy_fast_path=False``,
   ``session_fast_path=False``) — per-subframe, per-query Python loops;
   the ground truth every optimisation is verified against.
2. **vectorized** (``phy_fast_path=True``) — the per-query loop, each
   A-MPDU decoded as one row of the numpy 2-D decode path
   (:meth:`repro.phy.error_model.LinkErrorModel.subframe_outcomes_batch2d`).
3. **session-batch** (``session_fast_path=True``) — whole chunks of
   query cycles run as one ``(n_queries, n_subframes)`` pass of the same
   2-D decode path in
   :meth:`repro.core.system.WiTagSystem.run_queries_batch`.

Tiers 2 and 3 are bitwise identical to each other; tier 1 differs only
through the coded-BER interpolation table unless ``phy_exact_coding``
is set.  The ``repro bench`` CLI, the asserted benchmark in
``benchmarks/test_session_batch.py`` and the tier-1 bench smoke all
measure through these helpers so the three consumers cannot drift
apart.  Timing numbers feed a JSON *trajectory* file (append-only list
of timestamped runs) and a *baseline* file (the floor the benchmarks
assert against); both live under ``benchmarks/``.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .core.session import MeasurementSession
from .sim.scenario import los_scenario

__all__ = [
    "BENCH_SCHEMA",
    "TIERS",
    "adaptive_bench",
    "adaptive_payload",
    "bench_check",
    "fault_tolerance_bench",
    "fleet_bench",
    "fleet_payload",
    "three_tier_bench",
    "tier4_bench",
    "tier4_leg",
    "tier4_payload",
    "timed_session",
    "record_bench_trajectory",
    "load_baseline",
    "update_baseline",
]

#: Version stamp of the ``bench_payload`` / trajectory-entry layout.
#: Schema 2 added the optional ``tier4`` block (PR 7); schema 3 the
#: optional ``fleet`` block (PR 8); schema 4 the optional ``adaptive``
#: block (traffic-aware scheduling + adaptive FEC).  Readers must
#: tolerate entries of any schema in one trajectory file.
BENCH_SCHEMA = 4

#: (label, phy_fast_path, session_fast_path) for each execution tier,
#: slowest first.
TIERS: tuple[tuple[str, bool, bool], ...] = (
    ("scalar", False, False),
    ("vectorized", True, False),
    ("session-batch", True, True),
)


def timed_session(
    queries: int,
    *,
    distance_m: float = 4.0,
    seed: int = 0,
    phy_fast_path: bool = True,
    session_fast_path: bool = True,
    warmup: int = 10,
    telemetry: Any = None,
) -> dict[str, Any]:
    """Build, warm up, and time one LOS measurement session.

    Builds the paper's Figure-5 LOS geometry at ``distance_m``, runs
    ``warmup`` throwaway queries (fills the coded-BER table, channel
    caches and frame memo so the timed region measures steady state),
    resets counters, then times ``run_queries(queries)``.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) is attached
    *after* the warmup, so the timed region measures instrumented
    steady-state throughput and the captured metrics/trace cover exactly
    the timed queries — the telemetry-overhead acceptance test and the
    ``repro bench --metrics-out/--trace-out`` flags use this.

    Returns a dict with the live objects (``stats``, ``session``) plus
    JSON-safe numbers (``wall_s``, ``queries_per_s``, ``ber``,
    ``stage_timings``).  Callers that serialize should pick the
    JSON-safe keys.
    """
    if queries < 1:
        raise ValueError("queries must be >= 1")
    system, _info = los_scenario(
        distance_m, seed=seed, phy_fast_path=phy_fast_path
    )
    session = MeasurementSession(
        system,
        rng=np.random.default_rng(seed + 1),
        session_fast_path=session_fast_path,
    )
    if warmup:
        session.run_queries(warmup)
        session.results.clear()  # stats aggregate results; drop the warmup
        system.counters.reset()
        system.error_model.counters.reset()
    if telemetry is not None:
        telemetry.attach(system)
    start = time.perf_counter()
    stats = session.run_queries(queries)
    wall_s = time.perf_counter() - start
    return {
        "stats": stats,
        "session": session,
        "queries": queries,
        "wall_s": wall_s,
        "queries_per_s": queries / wall_s,
        "ber": stats.ber,
        "stage_timings": session.stage_timings(),
    }


def three_tier_bench(
    queries: int,
    *,
    distance_m: float = 4.0,
    seed: int = 0,
    warmup: int = 10,
    repeats: int = 1,
) -> dict[str, Any]:
    """Time all three execution tiers on the same physics.

    Returns ``{"tiers": {label: timed_session(...)}, "speedups": {...},
    "queries": ..., "distance_m": ..., "seed": ...}`` where the speedup
    keys are ``vectorized_vs_scalar``, ``session_vs_scalar`` and
    ``session_vs_vectorized`` (wall-clock ratios, higher is better).

    ``repeats`` runs each tier that many times and keeps its
    fastest run: the minimum wall-clock is the standard noise-robust
    estimator on shared machines, and every repeat simulates identical
    physics (same seeds), so only the timing varies.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    tiers: dict[str, dict[str, Any]] = {}
    for label, phy_fast, session_fast in TIERS:
        best: dict[str, Any] | None = None
        for _ in range(repeats):
            run = timed_session(
                queries,
                distance_m=distance_m,
                seed=seed,
                phy_fast_path=phy_fast,
                session_fast_path=session_fast,
                warmup=warmup,
            )
            if best is None or run["wall_s"] < best["wall_s"]:
                best = run
        tiers[label] = best
    scalar = tiers["scalar"]["wall_s"]
    vectorized = tiers["vectorized"]["wall_s"]
    session = tiers["session-batch"]["wall_s"]
    return {
        "queries": queries,
        "distance_m": distance_m,
        "seed": seed,
        "tiers": tiers,
        "speedups": {
            "vectorized_vs_scalar": scalar / vectorized,
            "session_vs_scalar": scalar / session,
            "session_vs_vectorized": vectorized / session,
        },
    }


def _values_digest(values: list) -> str:
    """Stable digest of a result's values for cross-leg bit-identity."""
    import hashlib
    import pickle

    raw = pickle.dumps(list(values), protocol=4)
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def tier4_leg(
    mode: str,
    *,
    jobs: int = 8,
    sessions: int = 4,
    queries: int = 16,
    seed: int = 0,
    n_workers: int = 2,
) -> dict[str, Any]:
    """Run one leg of the tier-4 benchmark in *this* process.

    Both legs model a serve-style workload: ``jobs`` identical requests,
    each running ``sessions`` sessions of ``queries`` queries through
    the parallel engine.

    * ``mode="session-batch"`` — the tier-3 reference: every job spins
      up a fresh process pool (``executor="process"``) and ships chunks
      with the pickle codec, the way the engine worked before the
      zero-copy transport landed.
    * ``mode="tier4"`` — one persistent :class:`repro.runner.WarmPool`
      shared by every job (its startup is *inside* the timed region),
      shared-memory chunk transport and warm session specs.

    Returns ``{"mode", "wall_s", "jobs_per_s", "sessions_per_s",
    "transport", "digests"}`` where ``digests`` has one entry per job —
    the two legs must produce identical digest lists
    (:func:`tier4_bench` asserts this before it compares any timing).
    """
    from .runner import WarmPool, resolve_transport, run_sessions
    from .runner.workers import SessionSpec

    if mode not in ("session-batch", "tier4"):
        raise ValueError(f"unknown tier4 leg mode {mode!r}")
    if min(jobs, sessions, queries) < 1:
        raise ValueError("jobs, sessions and queries must all be >= 1")
    common: dict[str, Any] = dict(
        queries=queries, seed=seed, chunk_size=1
    )
    digests: list[str] = []
    if mode == "tier4":
        spec = SessionSpec(warm=True)
        transport = resolve_transport("auto")
        start = time.perf_counter()
        with WarmPool(n_workers) as pool:
            for _ in range(jobs):
                result = run_sessions(
                    spec, sessions, pool=pool, transport="auto", **common
                )
                digests.append(_values_digest(result.values))
        wall_s = time.perf_counter() - start
    else:
        spec = SessionSpec()
        transport = "pickle"
        start = time.perf_counter()
        for _ in range(jobs):
            result = run_sessions(
                spec,
                sessions,
                executor="process",
                n_workers=n_workers,
                transport="pickle",
                **common,
            )
            digests.append(_values_digest(result.values))
        wall_s = time.perf_counter() - start
    return {
        "mode": mode,
        "wall_s": wall_s,
        "jobs_per_s": jobs / wall_s,
        "sessions_per_s": jobs * sessions / wall_s,
        "transport": transport,
        "digests": digests,
    }


def _run_leg_subprocess(params: dict[str, Any]) -> dict[str, Any]:
    """Run :func:`tier4_leg` in a cold child interpreter.

    A cold parent is the honest harness for this benchmark: the serve
    and sweep coordinators never execute physics themselves, so every
    fresh pool worker pays the full first-use cost (coded-BER table,
    channel caches, frame memo) that the warm pool exists to amortise.
    Running legs in the *bench* process would let leftover parent state
    leak into the fork-based reference leg and understate that cost.
    """
    import json as json_mod
    import subprocess
    import sys as sys_mod

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else os.pathsep.join([src_dir, existing])
    )
    code = (
        "import sys, json\n"
        "from repro.bench import tier4_leg\n"
        "print(json.dumps(tier4_leg(**json.loads(sys.argv[1]))))\n"
    )
    proc = subprocess.run(
        [sys_mod.executable, "-c", code, json_mod.dumps(params)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"tier4 bench leg failed (rc={proc.returncode}):\n{proc.stderr}"
        )
    return json_mod.loads(proc.stdout.splitlines()[-1])


def tier4_bench(
    jobs: int = 8,
    sessions: int = 4,
    queries: int = 16,
    *,
    seed: int = 0,
    n_workers: int = 2,
    repeats: int = 1,
    cold_parent: bool = True,
) -> dict[str, Any]:
    """Time the tier-4 fast path against the tier-3 parallel reference.

    Runs both :func:`tier4_leg` modes (``repeats`` times each, keeping
    the fastest), asserts their per-job value digests are identical —
    a faster-but-wrong pool fails before any timing compares — and
    reports the wall-clock ratio.

    ``cold_parent=True`` (the default, used by ``repro bench --tier4``
    and the gated benchmark) executes each leg in a fresh child
    interpreter; see :func:`_run_leg_subprocess` for why.  The
    ``bench_smoke`` twin sets it to ``False`` to keep tier-1 cheap
    while exercising the same code path in-process.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    params = dict(
        jobs=jobs,
        sessions=sessions,
        queries=queries,
        seed=seed,
        n_workers=n_workers,
    )
    legs: dict[str, dict[str, Any]] = {}
    for mode in ("session-batch", "tier4"):
        best: dict[str, Any] | None = None
        for _ in range(repeats):
            if cold_parent:
                run = _run_leg_subprocess({"mode": mode, **params})
            else:
                run = tier4_leg(mode, **params)
            if best is None or run["wall_s"] < best["wall_s"]:
                best = run
        legs[mode] = best
    identical = legs["session-batch"]["digests"] == legs["tier4"]["digests"]
    if not identical:
        raise AssertionError(
            "tier4 leg produced different results than the session-batch "
            "reference — digests diverge"
        )
    return {
        **params,
        "cold_parent": cold_parent,
        "legs": legs,
        "identical": identical,
        "speedup_tier4_vs_session_batch": (
            legs["session-batch"]["wall_s"] / legs["tier4"]["wall_s"]
        ),
    }


def tier4_payload(result: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe view of a :func:`tier4_bench` result (drops digests)."""
    return {
        key: result[key]
        for key in (
            "jobs",
            "sessions",
            "queries",
            "seed",
            "n_workers",
            "cold_parent",
            "identical",
            "speedup_tier4_vs_session_batch",
        )
    } | {
        "legs": {
            mode: {
                k: leg[k]
                for k in (
                    "wall_s",
                    "jobs_per_s",
                    "sessions_per_s",
                    "transport",
                )
            }
            for mode, leg in result["legs"].items()
        }
    }


def _fleet_round_digest(results: dict[str, Any]) -> str:
    """Stable digest of one poll round's results (fleet or scalar)."""
    normalized = [
        (
            name,
            result.block_ack.ssn,
            result.block_ack.bitmap,
            result.raw_bits,
            result.responded,
            tuple(sorted(result.per_tag_sent.items())),
        )
        for name, result in sorted(results.items())
    ]
    return _values_digest(normalized)


def fleet_bench(
    n_tags: int = 2000,
    rounds: int = 1,
    *,
    seed: int = 0,
    bits_per_tag: int = 64,
    batch_tags: int = 256,
    equivalence_tags: int = 64,
    repeats: int = 1,
) -> dict[str, Any]:
    """Time the struct-of-arrays fleet engine against the scalar cell.

    The warehouse headline benchmark: one reader polling ``n_tags``
    tags for ``rounds`` addressed rounds, run twice —

    * ``scalar`` — the reference :class:`repro.core.multitag.MultiTagCell`
      (``fleet.reference_cell()``), one ``poll_round`` loop of
      per-query, per-MPDU Python;
    * ``fleet`` — the vectorized :class:`repro.core.fleet.TagFleet`
      decoding each round as chunked ``(n_tags, n_subframes)`` batch
      passes, in its default configuration (interpolated coded-BER
      table, like execution tiers 2–4).

    Before any timing, an **equivalence gate** builds a small
    ``equivalence_tags`` fleet with ``phy_exact_coding=True`` and
    asserts one full poll round is bit-identical to its scalar
    reference cell — a faster-but-wrong engine fails here, before any
    timing compares (same contract as :func:`tier4_bench`; the full
    equivalence matrix lives in ``tests/test_fleet.py``).  The timed
    legs then load identical data bits and differ only through the
    coded-BER interpolation, exactly like tiers 2–4 versus tier 1.
    Builds happen outside the timed region; ``repeats`` reruns each
    leg from a fresh build and keeps the fastest wall-clock.

    Fleet construction goes through
    :class:`repro.runner.workers.FleetSpec` (the same picklable spec
    the parallel engine ships to workers), so the benchmark and the
    runner wiring cannot drift apart.
    """
    from .runner.engine import UnitContext
    from .runner.workers import FleetSpec

    if min(n_tags, rounds, repeats, equivalence_tags) < 1:
        raise ValueError(
            "n_tags, rounds, repeats and equivalence_tags must be >= 1"
        )
    ctx = UnitContext(index=0, parameters={}, root_seed=seed)
    data_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0xF1EE7,))
    )

    # Equivalence gate: exact-coding fleet vs scalar reference,
    # bit for bit, before any timing is trusted.
    gate_spec = FleetSpec(
        n_tags=equivalence_tags,
        batch_tags=batch_tags,
        phy_exact_coding=True,
    )
    gate_fleet = gate_spec(ctx)
    gate_cell = gate_fleet.reference_cell()
    gate_bits = [
        [int(b) for b in data_rng.integers(0, 2, bits_per_tag)]
        for _ in range(equivalence_tags)
    ]
    for name, bits in zip(gate_fleet.names, gate_bits):
        gate_fleet.load_bits(name, list(bits))
        gate_cell.load_bits(name, list(bits))
    identical = _fleet_round_digest(
        gate_fleet.poll_round()
    ) == _fleet_round_digest(gate_cell.poll_round())
    if not identical:
        raise AssertionError(
            "fleet engine produced different results than the scalar "
            "MultiTagCell reference — equivalence gate digests diverge"
        )

    spec = FleetSpec(n_tags=n_tags, batch_tags=batch_tags)
    payloads = [
        [int(b) for b in data_rng.integers(0, 2, bits_per_tag * rounds)]
        for _ in range(n_tags)
    ]

    def run_leg(mode: str) -> dict[str, Any]:
        fleet = spec(ctx)
        target: Any = fleet if mode == "fleet" else fleet.reference_cell()
        for name, bits in zip(fleet.names, payloads):
            target.load_bits(name, list(bits))
        start = time.perf_counter()
        for _ in range(rounds):
            target.poll_round()
        wall_s = time.perf_counter() - start
        return {
            "mode": mode,
            "wall_s": wall_s,
            "queries_per_s": n_tags * rounds / wall_s,
        }

    legs: dict[str, dict[str, Any]] = {}
    for mode in ("scalar", "fleet"):
        best: dict[str, Any] | None = None
        for _ in range(repeats):
            run = run_leg(mode)
            if best is None or run["wall_s"] < best["wall_s"]:
                best = run
        legs[mode] = best
    return {
        "n_tags": n_tags,
        "rounds": rounds,
        "seed": seed,
        "bits_per_tag": bits_per_tag,
        "batch_tags": batch_tags,
        "equivalence_tags": equivalence_tags,
        "legs": legs,
        "identical": identical,
        "speedup_fleet_vs_scalar": (
            legs["scalar"]["wall_s"] / legs["fleet"]["wall_s"]
        ),
    }


def fleet_payload(result: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe view of a :func:`fleet_bench` result (drops digests)."""
    return {
        key: result[key]
        for key in (
            "n_tags",
            "rounds",
            "seed",
            "bits_per_tag",
            "batch_tags",
            "equivalence_tags",
            "identical",
            "speedup_fleet_vs_scalar",
        )
    } | {
        "legs": {
            mode: {k: leg[k] for k in ("wall_s", "queries_per_s")}
            for mode, leg in result["legs"].items()
        }
    }


def adaptive_bench(
    units: int = 3,
    rounds: int = 6,
    windows_per_round: int = 100,
    *,
    seed: int = 0,
    n_workers: int = 2,
    equivalence_rounds: int = 2,
    equivalence_windows: int = 40,
) -> dict[str, Any]:
    """Adaptive vs static-paper FEC under bursty ambient traffic.

    The quality benchmark of the traffic layer: ``units`` independent
    deployments (seeded from ``seed`` via the engine's unit substreams)
    each run two :class:`repro.runner.workers.AdaptiveLinkSpec` legs —

    * ``static`` — the paper's scheme: the tag rides every
      transmission opportunity and uses one fixed Reed-Solomon
      redundancy;
    * ``adaptive`` — the predictive opportunity scheduler skips
      forecast-busy windows and the redundancy controller walks the
      parity ladder against observed block corruption.

    Before any comparison, an **equivalence gate** runs one adaptive
    unit three ways — scalar session engine (serial), batch session
    engine (serial), and batch engine under a process pool — and
    asserts the reports (ride/skip decision string, rung trajectory,
    delivered bits, goodput) are bit-identical; a faster-but-different
    traffic layer fails here, before any quality numbers are compared
    (same contract as :func:`tier4_bench` / :func:`fleet_bench`).

    Returns per-leg aggregates plus the headline ratios:
    ``goodput_ratio_adaptive_vs_static`` (mean adaptive goodput over
    mean static goodput; > 1 means the adaptive scheme delivers more
    correct message bits per second of tag existence) and
    ``energy_ratio_static_vs_adaptive`` (energy per delivered bit,
    static over adaptive; > 1 means the adaptive tag spends less
    energy per delivered bit).
    """
    from functools import partial

    from .runner import SweepSpec, run_sweep
    from .runner.workers import AdaptiveLinkSpec, adaptive_link_stats

    if min(units, rounds, windows_per_round) < 1:
        raise ValueError("units, rounds and windows_per_round must be >= 1")

    # Equivalence gate: one adaptive unit, three execution tiers,
    # bit-identical reports before any quality numbers are trusted.
    gate_sweep = SweepSpec(axes={"unit": [0]}, seed=seed)
    digests: dict[str, str] = {}
    for label, fast_path, executor, workers in (
        ("serial-scalar", False, "serial", 1),
        ("serial-batch", True, "serial", 1),
        ("process-batch", True, "process", 2),
    ):
        measure = partial(
            adaptive_link_stats,
            spec=AdaptiveLinkSpec(session_fast_path=fast_path),
            rounds=equivalence_rounds,
            windows_per_round=equivalence_windows,
        )
        result = run_sweep(
            measure, gate_sweep, executor=executor, n_workers=workers
        )
        digests[label] = _values_digest(result.values)
    identical = len(set(digests.values())) == 1
    if not identical:
        raise AssertionError(
            "adaptive link produced different results across execution "
            f"tiers — equivalence gate digests diverge: {digests}"
        )

    sweep = SweepSpec(axes={"unit": list(range(units))}, seed=seed)
    legs: dict[str, dict[str, Any]] = {}
    for label, adaptive in (("static", False), ("adaptive", True)):
        measure = partial(
            adaptive_link_stats,
            spec=AdaptiveLinkSpec(adaptive=adaptive),
            rounds=rounds,
            windows_per_round=windows_per_round,
        )
        start = time.perf_counter()
        result = run_sweep(measure, sweep, n_workers=n_workers)
        wall_s = time.perf_counter() - start
        values = list(result.values)
        delivered = sum(v["delivered_bits"] for v in values)
        legs[label] = {
            "wall_s": wall_s,
            "units": [
                {
                    key: value[key]
                    for key in (
                        "seed",
                        "rides",
                        "windows",
                        "rungs",
                        "message_bits",
                        "delivered_bits",
                        "block_error_rate",
                        "goodput_bps",
                        "energy_per_bit_uj",
                    )
                }
                for value in values
            ],
            "delivered_bits": delivered,
            "mean_goodput_bps": (
                sum(v["goodput_bps"] for v in values) / len(values)
            ),
            "mean_energy_per_bit_uj": (
                sum(v["energy_per_bit_uj"] for v in values) / len(values)
            ),
        }
    goodput_ratio = (
        legs["adaptive"]["mean_goodput_bps"]
        / legs["static"]["mean_goodput_bps"]
    )
    energy_ratio = (
        legs["static"]["mean_energy_per_bit_uj"]
        / legs["adaptive"]["mean_energy_per_bit_uj"]
    )
    wins = sum(
        1
        for a, s in zip(
            legs["adaptive"]["units"], legs["static"]["units"]
        )
        if a["goodput_bps"] > s["goodput_bps"]
    )
    return {
        "units": units,
        "rounds": rounds,
        "windows_per_round": windows_per_round,
        "seed": seed,
        "identical": identical,
        "gate_digests": digests,
        "legs": legs,
        "adaptive_wins": wins,
        "goodput_ratio_adaptive_vs_static": goodput_ratio,
        "energy_ratio_static_vs_adaptive": energy_ratio,
    }


def adaptive_payload(result: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe view of an :func:`adaptive_bench` result (drops units)."""
    return {
        key: result[key]
        for key in (
            "units",
            "rounds",
            "windows_per_round",
            "seed",
            "identical",
            "adaptive_wins",
            "goodput_ratio_adaptive_vs_static",
            "energy_ratio_static_vs_adaptive",
        )
    } | {
        "legs": {
            label: {
                k: leg[k]
                for k in (
                    "wall_s",
                    "delivered_bits",
                    "mean_goodput_bps",
                    "mean_energy_per_bit_uj",
                )
            }
            for label, leg in result["legs"].items()
        }
    }


def fault_tolerance_bench(
    n_units: int = 64,
    *,
    seed: int = 0,
    chunk_size: int = 8,
    checkpoint_path: str | None = None,
) -> dict[str, Any]:
    """Overhead microbench for the engine's fault-tolerance layer.

    Runs the same cheap physics-free sweep
    (:func:`repro.runner.workers.rng_probe`) four ways on the serial
    executor — plain, with a :class:`RetryPolicy` armed (no faults),
    with chunk checkpointing, and under injected crashes with retries —
    and reports wall-clock ratios against the plain run plus whether all
    four produced identical values (they must: the determinism contract
    covers retried and checkpointed runs).

    ``checkpoint_path`` defaults to a throwaway temporary file; pass a
    path to inspect the spilled chunks afterwards.
    """
    import tempfile

    from .runner import FaultSpec, RetryPolicy, SweepSpec, run_sweep
    from .runner.workers import rng_probe

    if n_units < 2:
        raise ValueError("n_units must be >= 2")
    spec = SweepSpec(
        axes={"unit": list(range(n_units))},
        seed=seed,
        chunk_size=chunk_size,
    )

    def timed(**kwargs: Any) -> tuple[Any, float]:
        start = time.perf_counter()
        result = run_sweep(rng_probe, spec, **kwargs)
        return result, time.perf_counter() - start

    plain, plain_wall = timed()
    armed, armed_wall = timed(retry=RetryPolicy(max_attempts=3))
    cleanup: str | None = None
    if checkpoint_path is None:
        handle = tempfile.NamedTemporaryFile(
            suffix=".ckpt.jsonl", delete=False
        )
        handle.close()
        os.unlink(handle.name)
        checkpoint_path = cleanup = handle.name
    try:
        spilled, spill_wall = timed(checkpoint=checkpoint_path, resume=False)
    finally:
        if cleanup is not None and os.path.exists(cleanup):
            os.unlink(cleanup)
    faults = FaultSpec(crash=(0, n_units // 2))
    faulty, faulty_wall = timed(
        retry=RetryPolicy(max_attempts=3), faults=faults
    )
    return {
        "n_units": n_units,
        "chunk_size": chunk_size,
        "seed": seed,
        "identical": (
            plain.values == armed.values == spilled.values == faulty.values
        ),
        "walls_s": {
            "plain": plain_wall,
            "retry_armed": armed_wall,
            "checkpointed": spill_wall,
            "faulty_retried": faulty_wall,
        },
        "overhead": {
            "retry_armed": armed_wall / plain_wall,
            "checkpointed": spill_wall / plain_wall,
            "faulty_retried": faulty_wall / plain_wall,
        },
        "retry_events": faulty.retry_summary(),
    }


def _json_safe_tier(tier: dict[str, Any]) -> dict[str, Any]:
    """The JSON-serializable slice of a :func:`timed_session` result."""
    return {
        key: tier[key]
        for key in (
            "queries",
            "wall_s",
            "queries_per_s",
            "ber",
            "stage_timings",
        )
    }


def bench_payload(
    result: dict[str, Any],
    *,
    tier4: dict[str, Any] | None = None,
    fleet: dict[str, Any] | None = None,
    adaptive: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """JSON-serializable view of a :func:`three_tier_bench` result.

    ``tier4`` optionally attaches a :func:`tier4_bench` result as a
    fourth-tier block (stored via :func:`tier4_payload`); ``fleet``
    likewise attaches a :func:`fleet_bench` result (via
    :func:`fleet_payload`); ``adaptive`` an :func:`adaptive_bench`
    result (via :func:`adaptive_payload`).  Entries without these
    blocks remain valid — trajectory readers must treat ``tier4``,
    ``fleet`` and ``adaptive`` as optional, and schema-1 entries (no
    ``schema`` field) as equivalent to ``schema: 1``.
    """
    payload = {
        "schema": BENCH_SCHEMA,
        "queries": result["queries"],
        "distance_m": result["distance_m"],
        "seed": result["seed"],
        "speedups": dict(result["speedups"]),
        "tiers": {
            label: _json_safe_tier(tier)
            for label, tier in result["tiers"].items()
        },
    }
    if tier4 is not None:
        payload["tier4"] = tier4_payload(tier4)
    if fleet is not None:
        payload["fleet"] = fleet_payload(fleet)
    if adaptive is not None:
        payload["adaptive"] = adaptive_payload(adaptive)
    return payload


def record_bench_trajectory(
    path: str, entry: dict[str, Any], *, timestamp: str | None = None
) -> dict[str, Any]:
    """Append a timestamped entry to the JSON trajectory list at ``path``.

    The file holds a JSON list, one object per bench run; a missing or
    empty file starts a new list.  ``timestamp`` defaults to the current
    UTC time in ISO-8601.  Returns the entry as written (with its
    ``recorded_at`` field) so callers can report it.
    """
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    stamped = {"recorded_at": timestamp, **entry}
    history: list[dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read().strip()
        if text:
            history = json.loads(text)
            if not isinstance(history, list):
                raise ValueError(
                    f"trajectory file {path} does not hold a JSON list"
                )
    history.append(stamped)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
    return stamped


def load_baseline(
    key: str, path: str, default: dict[str, Any] | None = None
) -> dict[str, Any] | None:
    """Read one baseline entry from a ``baselines.json``-style file."""
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as handle:
        baselines = json.load(handle)
    return baselines.get(key, default)


#: The regression gates ``bench_check`` walks: each maps a check name
#: to (baseline key, baseline field, extractor over a trajectory
#: entry).  Extractors return ``None`` when the entry doesn't carry
#: the measurement — schema 1 entries have no ``tier4``/``fleet``
#: blocks, and readers must tolerate every schema in one file.
_BENCH_CHECKS: tuple[tuple[str, str, str, Any], ...] = (
    (
        "session_batch",
        "session_batch",
        "speedup_session_vs_vectorized",
        lambda entry: (entry.get("speedups") or {}).get(
            "session_vs_vectorized"
        ),
    ),
    (
        "tier4",
        "tier4",
        "speedup_tier4_vs_session_batch",
        lambda entry: (
            entry["tier4"].get("speedup_tier4_vs_session_batch")
            if isinstance(entry.get("tier4"), dict)
            else None
        ),
    ),
    (
        "fleet",
        "fleet",
        "speedup_fleet_vs_scalar",
        lambda entry: (
            entry["fleet"].get("speedup_fleet_vs_scalar")
            if isinstance(entry.get("fleet"), dict)
            else None
        ),
    ),
    (
        "adaptive",
        "adaptive",
        "goodput_ratio_adaptive_vs_static",
        lambda entry: (
            entry["adaptive"].get("goodput_ratio_adaptive_vs_static")
            if isinstance(entry.get("adaptive"), dict)
            else None
        ),
    ),
)


def bench_check(
    trajectory_path: str,
    baselines_path: str,
    *,
    threshold: float = 0.8,
) -> dict[str, Any]:
    """The bench regression watchdog: latest trajectory vs baselines.

    For each gate in :data:`_BENCH_CHECKS`, finds the *latest*
    trajectory entry carrying that measurement (entries are
    append-only, mixed schema 1-3; older schemas simply lack the newer
    blocks) and compares it against the pinned baseline ratio: the
    check fails when ``measured < threshold * baseline``.  A gate with
    no baseline pinned or no trajectory entry is reported as skipped,
    not failed — a fresh clone with an empty trajectory passes.

    Returns ``{"ok", "threshold", "checks": [...], "skipped": [...]}``
    where each check carries ``name``, ``measured``, ``baseline``,
    ``floor``, ``recorded_at`` and ``ok``.  The CLI (``repro bench
    check``) renders this and exits nonzero when any check fails.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(
            f"threshold must be in (0, 1], got {threshold}"
        )
    entries: list[dict[str, Any]] = []
    if os.path.exists(trajectory_path):
        with open(trajectory_path, encoding="utf-8") as handle:
            text = handle.read().strip()
        if text:
            entries = json.loads(text)
            if not isinstance(entries, list):
                raise ValueError(
                    f"trajectory file {trajectory_path} does not hold "
                    "a JSON list"
                )
    checks: list[dict[str, Any]] = []
    skipped: list[dict[str, Any]] = []
    for name, baseline_key, field, extract in _BENCH_CHECKS:
        baseline_entry = load_baseline(baseline_key, baselines_path)
        baseline = (
            baseline_entry.get(field)
            if isinstance(baseline_entry, dict)
            else None
        )
        measured = None
        recorded_at = None
        for entry in entries:
            value = extract(entry)
            if value is not None:
                measured = float(value)
                recorded_at = entry.get("recorded_at")
        if baseline is None or measured is None:
            skipped.append(
                {
                    "name": name,
                    "reason": (
                        "no baseline pinned"
                        if baseline is None
                        else "no trajectory entry"
                    ),
                }
            )
            continue
        floor = threshold * float(baseline)
        checks.append(
            {
                "name": name,
                "measured": measured,
                "baseline": float(baseline),
                "floor": floor,
                "recorded_at": recorded_at,
                "ok": measured >= floor,
            }
        )
    return {
        "ok": all(check["ok"] for check in checks),
        "threshold": threshold,
        "checks": checks,
        "skipped": skipped,
    }


def update_baseline(key: str, entry: dict[str, Any], path: str) -> None:
    """Rewrite one key of a baselines file, preserving all other keys."""
    baselines: dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            baselines = json.load(handle)
    baselines[key] = entry
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baselines, handle, indent=2)
        handle.write("\n")
