"""The benchmark's four workloads.

Each workload is a closed loop with one client: the harness in
``run.py`` calls ``prepare(i)`` (untimed), times ``op(i)``, then calls
``check(i, result)`` (untimed), and starts op ``i + 1`` only after that.
Every op of a workload does the same amount of work, so the latency
percentiles of a run describe one kind of op.  Inputs come only from
the ``--seed`` the harness passes in; the program under test receives
the generated inputs, never the seed of a different stream.

The ``repro`` package is imported inside ``setup`` so that import time
counts towards ``setup_s``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time
from typing import Any

import numpy as np

#: Fig. 5 LOS geometry: tag this far from the client, AP 8 m away.
LOS_DISTANCE_M = 4.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator for one input stream of one seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids() -> list[int]:
    """Direct children of this process, from every thread's list."""
    pids: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as children:
                pids.extend(int(p) for p in children.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def query_digest(result) -> tuple:
    """The observable content of one single-tag query cycle."""
    return (
        result.query.ssn,
        result.block_ack.bitmap,
        result.detected,
        tuple(result.sent_bits),
        tuple(result.received_bits),
        result.cycle_s,
    )


def cell_digest(results: dict) -> list[tuple]:
    """The observable content of one multi-tag poll, in address order."""
    return [
        (
            name,
            result.block_ack.ssn,
            result.block_ack.bitmap,
            tuple(result.raw_bits),
            tuple(result.responded),
            tuple(sorted(result.per_tag_sent.items())),
        )
        for name, result in sorted(results.items())
    ]


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: Ops run (and discarded) before the first timed op.
    warmup_ops = 1
    #: A run times at least this many ops, so at least ten lie beyond
    #: p90, even when --seconds has run out.
    min_ops = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self) -> dict[str, Any]:
        """Everything that defines the workload except the seed."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed work before op ``i``."""

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> int:
        """Validate op ``i``'s result; return its simulated query count.

        Raises ``AssertionError`` (via :func:`require`) when the result
        is malformed or wrong.
        """
        raise NotImplementedError

    def gates(self) -> list[tuple[str, bool, str]]:
        """Correctness gates run after the timed window."""
        return []

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def trace_targets(self, recorder) -> None:
        """Register the functions to wrap in traced ops."""

    def counters(self) -> dict[str, Any]:
        """Layer name -> the program's StageCounters for this workload."""
        return {}

    def decompose(self, op_s: float, spans: list, deltas: dict, result: Any) -> dict:
        """Per-layer figures of one traced op (see ``run.py``)."""
        return {}

    def after_traced_op(self, recorder, result: Any) -> None:
        """Record spans the workload measured itself during a traced op."""

    def close(self) -> None:
        """Release everything ``setup`` started."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _span_sum(spans: list, name: str) -> tuple[float, int, float]:
    """(busy seconds, calls, summed ``bytes`` attr) of spans ``name``."""
    busy = 0.0
    calls = 0
    nbytes = 0.0
    for _op, span_name, start, end, attrs in spans:
        if span_name == name:
            busy += end - start
            calls += 1
            if attrs and "bytes" in attrs:
                nbytes += attrs["bytes"]
    return busy, calls, nbytes


PHY_STAGES = ("channel", "csi", "eesm", "coding")
SYSTEM_STAGES = ("query-build", "tag-fsm", "phy-decode", "mac-ba")


# -- single-link sessions ----------------------------------------------------


class _SessionWorkload(Workload):
    """A Fig. 5 LOS session run through the session-batch engine."""

    encryption = "open"
    queries_per_op = 256
    #: Prefix length of the scalar-reference gate, in queries.
    gate_queries = 64

    def config(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "scenario": "los_scenario",
            "distance_m": LOS_DISTANCE_M,
            "encryption": self.encryption,
            "engine": "session-batch",
            "op": f"MeasurementSession.run_queries({self.queries_per_op})",
            "warmup_ops": self.warmup_ops,
            "gate_queries": self.gate_queries,
        }

    def _build(self, *, exact: bool = False, scalar: bool = False):
        from repro.core.config import EncryptionMode
        from repro.core.session import MeasurementSession
        from repro.sim.scenario import los_scenario

        system, _info = los_scenario(
            LOS_DISTANCE_M,
            seed=self.seed,
            encryption=EncryptionMode(self.encryption),
            phy_fast_path=not scalar,
        )
        system.phy_exact_coding = exact
        return MeasurementSession(
            system, rng=_rng(self.seed, 1), session_fast_path=not scalar
        )

    def setup(self) -> None:
        self.session = self._build()
        self.warmup_sent: list[tuple] = []
        for _ in range(self.warmup_ops):
            self.session.run_queries(self.queries_per_op)
            self.warmup_sent.extend(
                tuple(r.sent_bits) for r in self.session.results
            )
            self.session.results.clear()

    def prepare(self, i: int) -> None:
        # stats() re-sums every kept result, so keeping them would make
        # each op slower than the last.
        self.session.results.clear()

    def op(self, i: int):
        return self.session.run_queries(self.queries_per_op)

    def check(self, i: int, stats) -> int:
        n = self.queries_per_op
        require(stats.queries == n, f"stats cover {stats.queries} queries")
        require(len(self.session.results) == n, "result count mismatch")
        require(stats.bits_sent > 0, "no bits sent")
        require(0 <= stats.bit_errors <= stats.bits_sent, "bad error count")
        require(stats.elapsed_s > 0, "no simulated time elapsed")
        return n

    def gates(self) -> list[tuple[str, bool, str]]:
        """Fast engine vs scalar reference on a prefix of the same seed.

        Both sides use exact coded BER, which makes the two engines bit
        identical.  The fast side's data bits must also equal the ones
        the timed run's warm-up sent: coding does not touch the tag's
        data stream, so this ties the gate to the measured session.
        """
        n = self.gate_queries
        fast = self._build(exact=True)
        scalar = self._build(exact=True, scalar=True)
        fast_stats = fast.run_queries(n)
        scalar_stats = scalar.run_queries(n)
        fast_q = [query_digest(r) for r in fast.results]
        scalar_q = [query_digest(r) for r in scalar.results]
        first_diff = next(
            (k for k, (a, b) in enumerate(zip(fast_q, scalar_q)) if a != b),
            None,
        )
        sent = [q[3] for q in fast_q]
        prefix = self.warmup_sent[:n]
        return [
            (
                "scalar-reference-queries",
                fast_q == scalar_q,
                f"first differing query: {first_diff}",
            ),
            (
                "scalar-reference-stats",
                fast_stats == scalar_stats,
                f"{fast_stats} vs {scalar_stats}",
            ),
            (
                "timed-run-data-bits",
                sent[: len(prefix)] == prefix,
                "warm-up data bits differ from the gate's",
            ),
        ]

    def trace_targets(self, recorder) -> None:
        from repro.core.query import QueryBuilder
        from repro.mac.security.ccmp import CcmpContext
        from repro.perf import StageCounters
        from repro.phy.error_model import LinkErrorModel

        recorder.target_stage_counters(StageCounters)
        recorder.target(
            LinkErrorModel, "sample_fading_batch", "phy.error_model.fading"
        )
        recorder.target(QueryBuilder, "build_fast", "core.query.build_fast")
        recorder.target(
            CcmpContext,
            "encrypt",
            "mac.security.ccmp.encrypt",
            lambda args, kwargs, result: {"bytes": len(args[1])},
        )

    def counters(self) -> dict[str, Any]:
        system = self.session.system
        return {
            "core.system": system.counters,
            "phy.error_model": system.error_model.counters,
        }

    def decompose(self, op_s: float, spans: list, deltas: dict, result: Any) -> dict:
        system = deltas["core.system"]
        phy = deltas["phy.error_model"]
        fading, _, _ = _span_sum(spans, "phy.error_model.fading")
        parts = {
            f"core.system.{stage}.busy_s": system.get(stage, (0.0, 0))[0]
            for stage in SYSTEM_STAGES
        }
        parts["phy.error_model.fading.busy_s"] = fading
        out = dict(parts)
        out["core.session.unattributed_s"] = op_s - sum(parts.values())
        out.update(_phy_figures(phy, op_s))
        out.update(_query_and_ccmp_figures(spans))
        return {"parts": list(parts), "unattributed": "core.session.unattributed_s", "figures": out}


def _phy_figures(phy: dict, op_s: float) -> dict:
    out = {
        f"phy.error_model.{stage}.busy_s": phy.get(stage, (0.0, 0))[0]
        for stage in PHY_STAGES
    }
    out["phy.error_model.subframes"] = phy.get("channel", (0.0, 0))[1]
    out["phy.error_model.csi.share"] = (
        out["phy.error_model.csi.busy_s"] / op_s if op_s > 0 else 0.0
    )
    return out


def _query_and_ccmp_figures(spans: list) -> dict:
    build_s, build_calls, _ = _span_sum(spans, "core.query.build_fast")
    enc_s, enc_calls, enc_bytes = _span_sum(spans, "mac.security.ccmp.encrypt")
    return {
        "core.query.build_fast.calls": build_calls,
        "core.query.build_fast.busy_s": build_s,
        "mac.security.ccmp.encrypt.calls": enc_calls,
        "mac.security.ccmp.encrypt.busy_s": enc_s,
        "mac.security.ccmp.encrypt.bytes": enc_bytes,
    }


class SessionLos(_SessionWorkload):
    name = "session_los"


class SessionCcmp(_SessionWorkload):
    name = "session_ccmp"
    encryption = "wpa2-ccmp"
    queries_per_op = 1
    warmup_ops = 2
    gate_queries = 3

    def setup(self) -> None:
        super().setup()
        self.sample_rng = _rng(self.seed, 3)

    def config(self) -> dict[str, Any]:
        return super().config() | {"check": "decrypt 1 trigger + 1 data MPDU per op"}

    def check(self, i: int, stats) -> int:
        """Decrypt a trigger and a payload MPDU back to their plaintext.

        Trigger payloads repeat the trigger pattern; data payloads are
        zero bytes (the tag's bits ride in the block-ACK bitmap, not in
        the frames).
        """
        from repro.core.query import TRIGGER_PATTERN
        from repro.mac.frames import QosDataFrame
        from repro.mac.security.ccmp import CcmpContext

        n = super().check(i, stats)
        frame = self.session.results[0].query
        key = self.session.system.config.encryption_key
        n_trigger = frame.n_trigger_subframes
        picks = (
            int(self.sample_rng.integers(0, n_trigger)),
            int(self.sample_rng.integers(n_trigger, len(frame.mpdus))),
        )
        for index in picks:
            mpdu = QosDataFrame.parse(frame.mpdus[index])
            plain = CcmpContext(key).decrypt(
                mpdu.payload, bytes(mpdu.transmitter)
            )
            if index < n_trigger:
                reps = len(plain) // len(TRIGGER_PATTERN) + 1
                expected = (TRIGGER_PATTERN * reps)[: len(plain)]
            else:
                expected = bytes(len(plain))
            require(plain == expected, f"MPDU {index} decrypts wrongly")
        return n


# -- fleet -------------------------------------------------------------------


class FleetWarehouse(Workload):
    name = "fleet_warehouse"
    n_tags = 2000
    n_cells = 8
    #: Bits queued on a tag whenever it runs low.
    topup_bits = 256

    def config(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "spec": f"FleetSpec(n_tags={self.n_tags})",
            "cells": self.n_cells,
            "cell_tags": self.n_tags // self.n_cells,
            "op": "TagFleet.poll_tags(cell)",
            "topup_bits": self.topup_bits,
            "warmup_ops": self.warmup_ops,
        }

    def _build(self, **spec_kwargs):
        from repro.runner.engine import UnitContext
        from repro.runner.workers import FleetSpec

        ctx = UnitContext(index=0, parameters={}, root_seed=self.seed)
        return FleetSpec(n_tags=self.n_tags, **spec_kwargs)(ctx)

    def _initial_bits(self) -> list[list[int]]:
        rng = _rng(self.seed, 2)
        return [
            [int(b) for b in rng.integers(0, 2, self.topup_bits)]
            for _ in range(self.n_tags)
        ]

    def setup(self) -> None:
        start = time.perf_counter()
        self.fleet = self._build()
        self.build_s = time.perf_counter() - start
        names = sorted(self.fleet.names)
        size = self.n_tags // self.n_cells
        self.cells = [names[c * size : (c + 1) * size] for c in range(self.n_cells)]
        for name, bits in zip(self.fleet.names, self._initial_bits()):
            self.fleet.load_bits(name, bits)
        self.topup_rng = _rng(self.seed, 3)
        self.low_water = self.fleet.config.bits_per_query
        # Warm-up polls cell 0; timed op i polls cell (i + 1) mod 8.
        self.warmup = self.fleet.poll_tags(self.cells[0])

    def _cell(self, i: int) -> list[str]:
        return self.cells[(i + 1) % self.n_cells]

    def prepare(self, i: int) -> None:
        for name in self._cell(i):
            if self.fleet.pending_bits(name) < self.low_water:
                bits = self.topup_rng.integers(0, 2, self.topup_bits)
                self.fleet.load_bits(name, [int(b) for b in bits])

    def op(self, i: int):
        return self.fleet.poll_tags(self._cell(i))

    def check(self, i: int, results) -> int:
        cell = self._cell(i)
        require(list(results) == cell, "results do not match the cell")
        lengths = {len(r.raw_bits) for r in results.values()}
        require(len(lengths) == 1, "ragged raw-bit rows")
        require(
            all(set(r.raw_bits) <= {0, 1} for r in results.values()),
            "non-binary raw bits",
        )
        require(
            sum(1 for r in results.values() if r.responded) > 0,
            "no tag in the cell responded",
        )
        return len(cell)

    def gates(self) -> list[tuple[str, bool, str]]:
        """Exact-coding fleet vs its scalar reference cell, cell 0.

        The reference cell is built before the fleet polls, so both
        start from the same generator states; the same initial bits go
        into both.  The exact fleet's per-tag data must also equal what
        the timed fleet sent in its warm-up poll of the same cell.
        """
        fleet = self._build(phy_exact_coding=True)
        reference = fleet.reference_cell()
        for name, bits in zip(fleet.names, self._initial_bits()):
            fleet.load_bits(name, list(bits))
            reference.load_bits(name, list(bits))
        cell = self.cells[0]
        fast = fleet.poll_tags(cell)
        scalar = {name: reference.run_query(name) for name in cell}
        fast_d = cell_digest(fast)
        sent = [d[5] for d in fast_d]
        warm_sent = [d[5] for d in cell_digest(self.warmup)]
        return [
            ("scalar-reference-cell", fast_d == cell_digest(scalar), "cell 0 digests differ"),
            ("timed-run-data-bits", sent == warm_sent, "warm-up data bits differ from the gate's"),
        ]

    def trace_targets(self, recorder) -> None:
        from repro.core.fleet import TagFleet
        from repro.core.query import QueryBuilder
        from repro.perf import StageCounters

        recorder.target_stage_counters(StageCounters)
        recorder.target(TagFleet, "poll_tags", "core.fleet.poll_tags")
        recorder.target(QueryBuilder, "build_fast", "core.query.build_fast")
        # Private, so a refactor may drop it; the recorder then lists it
        # as missing and the time falls into core.fleet.unattributed_s.
        recorder.target(TagFleet, "_draw_fading", "phy.error_model.fading")

    def counters(self) -> dict[str, Any]:
        return {"phy.error_model": self.fleet.counters}

    def decompose(self, op_s: float, spans: list, deltas: dict, result: Any) -> dict:
        phy = deltas["phy.error_model"]
        poll_s, _, _ = _span_sum(spans, "core.fleet.poll_tags")
        build_s, _, _ = _span_sum(spans, "core.query.build_fast")
        fading, _, _ = _span_sum(spans, "phy.error_model.fading")
        parts = {
            f"phy.error_model.{stage}.busy_s": phy.get(stage, (0.0, 0))[0]
            for stage in PHY_STAGES
        }
        parts["phy.error_model.fading.busy_s"] = fading
        parts["core.query.build_fast.busy_s"] = build_s
        out = dict(parts)
        out["core.fleet.unattributed_s"] = op_s - sum(parts.values())
        out.update(_phy_figures(phy, op_s))
        out.update(_query_and_ccmp_figures(spans))
        out["core.fleet.poll_tags.busy_s"] = poll_s
        out["core.fleet.queries"] = len(self._cell(0))
        out["core.fleet.build_s"] = self.build_s
        return {"parts": list(parts), "unattributed": "core.fleet.unattributed_s", "figures": out}


# -- serve -------------------------------------------------------------------


class ServeJobs(Workload):
    name = "serve_jobs"
    sessions_job = {"n_sessions": 4, "queries": 16, "n_workers": 2}
    sweep_distances = [1.0, 2.0, 3.0, 4.0]
    #: Simulated seconds per sweep point: about 16 query cycles, the
    #: same work per point as one session of the sessions jobs.
    sweep_sim_seconds = 0.025
    #: Job specs in the rotation; each is served many times per run.
    n_specs = 8
    #: With the ~200 ops of a 12 s window, the spread of op_p90 across
    #: runs reached 16 %; 400 ops put 40 samples beyond p90.
    min_ops = 400

    def config(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "service": {"slots": 1, "warm_workers": 2},
            "sessions_job": self.sessions_job | {"distance_m": LOS_DISTANCE_M},
            "sweep_job": {
                "fn": "los_ber_point",
                "distances": self.sweep_distances,
                "sim_seconds": self.sweep_sim_seconds,
                "n_workers": 2,
            },
            "rotation": self.n_specs,
            "op": "POST /jobs, SSE to done, GET result",
        }

    def _specs(self) -> list[dict]:
        seeds = _rng(self.seed, 4).integers(0, 2**31 - 1, self.n_specs)
        specs = []
        for k, seed in enumerate(int(s) for s in seeds):
            if k % 2 == 0:
                specs.append({
                    "kind": "sessions",
                    "sessions": {"kind": "los", "distance_m": LOS_DISTANCE_M},
                    "seed": seed,
                    **self.sessions_job,
                })
            else:
                specs.append({
                    "kind": "sweep",
                    "fn": "los_ber_point",
                    "fn_kwargs": {"sim_seconds": self.sweep_sim_seconds},
                    "sweep": {"axes": {"distance_m": self.sweep_distances}, "seed": seed},
                    "n_workers": 2,
                })
        return specs

    def setup(self) -> None:
        from repro.serve import ServeConfig, SweepService

        self.specs = self._specs()
        self.service = SweepService(ServeConfig(slots=1, warm_workers=2))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result()
        self.port = self.service.port
        # The warm-up serves every spec once; those first servings are
        # what every later repeat must reproduce exactly.
        self.first: list[dict] = []
        for spec in self.specs:
            served = self._serve(spec)
            self.first.append(served["result"])
            self._delete(served["job_id"])

    def _request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        conn.close()
        return response.status, data

    def _serve(self, spec: dict) -> dict:
        """POST one job, follow its SSE stream to ``done``, GET its result."""
        clock = time.perf_counter
        t0 = clock()
        status, data = self._request("POST", "/jobs", spec)
        t_submit = clock()
        require(status == 202, f"POST /jobs returned {status}: {data[:200]!r}")
        job_id = json.loads(data)["id"]
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.request("GET", f"/jobs/{job_id}/events")
        stream = conn.getresponse()
        require(stream.status == 200, f"SSE returned {stream.status}")
        t_running = t_first_chunk = None
        final_state = None
        event = None
        while True:
            line = stream.readline()
            require(bool(line), "SSE stream ended before 'done'")
            line = line.rstrip(b"\r\n")
            if line.startswith(b"event:"):
                event = line[6:].strip().decode()
                if event == "done":
                    break
            elif line.startswith(b"data:") and event == "state":
                state = json.loads(line[5:])["state"]
                final_state = state
                if state == "running" and t_running is None:
                    t_running = clock()
            elif line.startswith(b"data:") and event == "chunk":
                if t_first_chunk is None:
                    t_first_chunk = clock()
        t_done = clock()
        conn.close()
        require(final_state == "completed", f"job ended {final_state}")
        status, data = self._request("GET", f"/jobs/{job_id}/result")
        t_end = clock()
        require(status == 200, f"GET result returned {status}")
        return {
            "job_id": job_id,
            "result": json.loads(data),
            "times": {
                "start": t0,
                "submit": t_submit,
                "running": t_running if t_running is not None else t_submit,
                "first_chunk": t_first_chunk if t_first_chunk is not None else t_done,
                "done": t_done,
                "end": t_end,
            },
        }

    def _delete(self, job_id: str) -> None:
        # Finished jobs stay in the server's store until deleted; a
        # steady client cleans up, so the store does not grow per op.
        status, _ = self._request("DELETE", f"/jobs/{job_id}")
        require(status == 200, f"DELETE returned {status}")

    def op(self, i: int):
        return self._serve(self.specs[i % self.n_specs])

    def check(self, i: int, served: dict) -> int:
        self._delete(served["job_id"])
        require(
            served["result"] == self.first[i % self.n_specs],
            "repeat differs from the first serving",
        )
        return _served_queries(served["result"])

    def peak_rss_mb(self) -> float:
        total = vm_hwm_mb()
        for pid in child_pids():
            try:
                total += vm_hwm_mb(pid)
            except (OSError, RuntimeError):
                continue  # exited between listing and reading
        return total

    def trace_targets(self, recorder) -> None:
        import repro.serve.jobs as jobs

        def runner_attrs(args, kwargs, result):
            if result is None:
                return None
            timings = result.worker_timings
            return {
                "wall_s": result.wall_s,
                "busy_s": result.busy_s,
                "max_busy_s": max((w.busy_s for w in timings), default=0.0),
                "n_workers": result.n_workers,
                "chunks": sum(w.n_chunks for w in timings),
                "retries": len(result.retries),
                "transport": result.transport,
            }

        recorder.target(jobs, "execute_request", "serve.exec", runner_attrs)

    def decompose(self, op_s: float, spans: list, deltas: dict, result: Any) -> dict:
        from tracing import union_length

        intervals = {
            name: (start, end)
            for _op, name, start, end, _a in spans
            if name in ("serve.submit", "serve.queue_wait", "serve.exec", "serve.result")
        }
        parts = {f"{name}_s": end - start for name, (start, end) in intervals.items()}
        out = dict(parts)
        out["serve.unattributed_s"] = op_s - union_length(list(intervals.values()))
        out["serve.overlap_s"] = sum(parts.values()) - union_length(list(intervals.values()))
        out["serve.first_chunk_s"] = result["first_chunk_s"]
        runner = next((a for _o, n, _s, _e, a in spans if n == "serve.exec" and a), None)
        if runner is not None:
            wall = runner["wall_s"]
            out["runner.wall_s"] = wall
            out["runner.worker_busy_s"] = runner["busy_s"]
            out["runner.dispatch_s"] = wall - runner["max_busy_s"]
            out["runner.utilization"] = (
                runner["busy_s"] / (wall * runner["n_workers"]) if wall > 0 else 0.0
            )
            out["runner.chunks"] = runner["chunks"]
            out["runner.retries"] = runner["retries"]
            out["labels"] = {"runner.transport": runner["transport"]}
        return {"parts": list(parts), "unattributed": "serve.unattributed_s", "figures": out}

    def after_traced_op(self, recorder, served: dict) -> None:
        """Client-side serve spans of one traced op, from its timestamps.

        The client sees the SSE ``running`` event only after it has
        opened the stream, which is often after execution began; the
        queue wait therefore ends at whichever comes first, so it never
        overlaps ``serve.exec`` (and is 0 when execution began before
        the 202 arrived).  ``first_chunk_s`` runs from the start
        of execution to the first ``chunk`` event the client sees.
        """
        t = served["times"]
        exec_start = next(
            (s[2] for s in recorder.op_spans(recorder.op_id) if s[1] == "serve.exec"),
            t["running"],
        )
        recorder.add_span("serve.submit", t["start"], t["submit"])
        # Execution may start before the client has read the 202.
        queue_end = max(t["submit"], min(t["running"], exec_start))
        recorder.add_span("serve.queue_wait", t["submit"], queue_end)
        recorder.add_span("serve.result", t["done"], t["end"])
        served["first_chunk_s"] = t["first_chunk"] - exec_start

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            asyncio.run_coroutine_threadsafe(service.stop(), self.loop).result(60)
            self.service = None
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            self.thread.join(60)
            loop.close()
            self.loop = None
        # The warm pool's shared-memory bookkeeping runs in a resource
        # tracker process; stop it too, so the run leaves no process.
        from multiprocessing import resource_tracker

        tracker = getattr(resource_tracker, "_resource_tracker", None)
        if tracker is not None and hasattr(tracker, "_stop"):
            tracker._stop()


def _served_queries(result: dict) -> int:
    """Simulated query cycles in one served job's result JSON."""
    total = 0
    for point in result["points"]:
        value = point["value"]
        require(isinstance(value, dict) and "queries" in value, "point without queries")
        total += int(value["queries"])
    require(total > 0, "job simulated no queries")
    return total


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SessionLos, FleetWarehouse, SessionCcmp, ServeJobs)
}
