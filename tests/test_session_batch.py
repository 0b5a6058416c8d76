"""Equivalence suite for the cross-query batched session engine.

The batch engine (:meth:`repro.core.system.WiTagSystem.run_queries_batch`
behind ``MeasurementSession(session_fast_path=True)``) runs whole chunks
of query cycles as one ``(n_queries, n_subframes)`` numpy computation.
Its contract is *bitwise* equality with the scalar per-query loop: every
simulation component owns its generator and the batch engine consumes
every stream in exact scalar order, so SessionStats, per-query BER
vectors, block-ACK bitmaps and generator end-states must all be
identical for any chunk size — and, through the parallel engine, for
any worker count.  With ``phy_exact_coding=True`` the equality extends
all the way down to the scalar per-subframe PHY reference.
"""

import functools
import pickle
import warnings

import numpy as np
import pytest

from repro.core.config import EncryptionMode
from repro.core.session import MeasurementSession, run_parallel_sessions
from repro.phy.channel import BackscatterChannel, ChannelGeometry, TagState
from repro.runner import SessionSpec, UnitContext
from repro.sim.scenario import build_system, los_scenario, nlos_scenario

QUERIES = 30


def _session(fast: bool, *, batch: int = 8, data_seed: int = 6,
             system=None, **scenario_kwargs) -> MeasurementSession:
    if system is None:
        system, _ = los_scenario(4.0, seed=5, **scenario_kwargs)
    return MeasurementSession(
        system,
        rng=np.random.default_rng(data_seed),
        session_fast_path=fast,
        batch_queries=batch,
    )


def _bitmaps(session: MeasurementSession) -> list[int]:
    return [r.block_ack.bitmap for r in session.results]


def _rng_states(session: MeasurementSession) -> list[dict]:
    system = session.system
    return [
        g.bit_generator.state
        for g in (
            session.rng,
            system.rng,
            system.tag.rng,
            system.error_model.rng,
            system.error_model.channel.rng,
        )
    ]


def _assert_sessions_identical(slow: MeasurementSession,
                               fast: MeasurementSession) -> None:
    """The full bitwise contract between two finished sessions."""
    assert len(slow.results) == len(fast.results)
    assert _bitmaps(slow) == _bitmaps(fast)
    assert slow.per_query_ber() == fast.per_query_ber()
    assert [r.cycle_s for r in slow.results] == [
        r.cycle_s for r in fast.results
    ]
    assert [r.detected for r in slow.results] == [
        r.detected for r in fast.results
    ]
    assert _rng_states(slow) == _rng_states(fast)


class TestBitwiseEquivalence:
    def test_run_queries_matches_per_query_loop(self):
        slow = _session(False)
        fast = _session(True)
        assert slow.run_queries(QUERIES) == fast.run_queries(QUERIES)
        _assert_sessions_identical(slow, fast)
        assert [r.query.psdu for r in slow.results] == [
            r.query.psdu for r in fast.results
        ]

    def test_exact_coding_matches_scalar_phy_reference(self):
        # With the interpolated coded-BER table bypassed, the batch
        # engine is bitwise equal to the per-subframe scalar reference.
        ref_system, _ = los_scenario(4.0, seed=5, phy_fast_path=False)
        slow = _session(False, system=ref_system)
        fast = _session(True)
        fast.system.phy_exact_coding = True
        assert slow.run_queries(QUERIES) == fast.run_queries(QUERIES)
        assert _bitmaps(slow) == _bitmaps(fast)
        assert slow.per_query_ber() == fast.per_query_ber()

    @pytest.mark.parametrize("run", ["queries", "duration"])
    def test_scalar_reference_system_keeps_per_query_loop(
        self, run, monkeypatch
    ):
        # A system built as the scalar reference (phy_fast_path=False)
        # must never reach the batch engine, even with the default
        # session_fast_path=True: its session is the scalar loop.
        def measure(session):
            if run == "queries":
                return session.run_queries(QUERIES)
            return session.run_for(0.05)

        def no_batch(*args, **kwargs):
            raise AssertionError("batch engine ran on a scalar system")

        default_system, _ = los_scenario(4.0, seed=5, phy_fast_path=False)
        monkeypatch.setattr(default_system, "run_queries_batch", no_batch)
        default = _session(True, system=default_system)
        loop_system, _ = los_scenario(4.0, seed=5, phy_fast_path=False)
        loop = _session(False, system=loop_system)
        assert measure(default) == measure(loop)
        _assert_sessions_identical(loop, default)

    @pytest.mark.parametrize("batch", [1, 3, 29, 1000])
    def test_chunk_size_invariance(self, batch):
        reference = _session(False)
        chunked = _session(True, batch=batch)
        assert reference.run_queries(QUERIES) == chunked.run_queries(
            QUERIES
        )
        _assert_sessions_identical(reference, chunked)

    def test_run_for_matches_scalar_loop(self):
        # 0.5 s is ~340 cycles: the count both crosses many chunk
        # boundaries (batch_queries=16) and exercises the predicted
        # float-accumulation replay.
        slow = _session(False, batch=16)
        fast = _session(True, batch=16)
        assert slow.run_for(0.5) == fast.run_for(0.5)
        _assert_sessions_identical(slow, fast)

    def test_contention_falls_back_and_matches(self):
        # Random backoffs make cycle durations unpredictable: run_for
        # must take the scalar loop, run_queries still batches.
        slow = _session(False, n_contenders=3)
        fast = _session(True, n_contenders=3)
        assert fast._predicted_cycle_s() is None
        assert slow.run_queries(QUERIES) == fast.run_queries(QUERIES)
        _assert_sessions_identical(slow, fast)
        slow2 = _session(False, n_contenders=3)
        fast2 = _session(True, n_contenders=3)
        assert slow2.run_for(0.3) == fast2.run_for(0.3)

    def test_correlated_fading_matches(self):
        # The AR(1) fading process is sequential inside; the batch
        # engine must advance it by the same per-cycle dts.
        slow = _session(False, coherence_time_s=0.1)
        fast = _session(True, coherence_time_s=0.1)
        assert slow.run_queries(QUERIES) == fast.run_queries(QUERIES)
        _assert_sessions_identical(slow, fast)
        slow2 = _session(False, coherence_time_s=0.1)
        fast2 = _session(True, coherence_time_s=0.1)
        assert slow2.run_for(0.3) == fast2.run_for(0.3)
        _assert_sessions_identical(slow2, fast2)

    def test_encrypted_queries_match(self):
        # CCMP packet numbers must advance one build at a time: the
        # frame memo is bypassed and run_for cannot predict the count.
        kwargs = dict(
            encryption=EncryptionMode.WPA2_CCMP,
            encryption_key=bytes(range(16)),
        )
        slow = _session(False, **kwargs)
        fast = _session(True, **kwargs)
        assert fast._predicted_cycle_s() is None
        assert slow.run_queries(12) == fast.run_queries(12)
        _assert_sessions_identical(slow, fast)

    def test_missed_triggers_match(self):
        # A weak tag link (tag 10 m from the client) misses some
        # queries; detection outcomes and the zero-bit results they
        # produce must agree.
        def build(fast):
            system, _ = build_system(
                ChannelGeometry.on_line(20.0, 10.0), seed=5
            )
            return _session(fast, system=system)

        slow, fast = build(False), build(True)
        slow_stats = slow.run_queries(40)
        assert slow_stats == fast.run_queries(40)
        assert slow_stats.missed_triggers > 0
        _assert_sessions_identical(slow, fast)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rician_k_db": None, "tag_rician_k_db": None},
            {"rician_k_db": None},
            {"tag_rician_k_db": None},
        ],
        ids=["no-fading", "direct-static", "tag-static"],
    )
    def test_disabled_fading_variants_match(self, kwargs):
        slow = _session(False, **kwargs)
        fast = _session(True, **kwargs)
        assert slow.run_queries(15) == fast.run_queries(15)
        _assert_sessions_identical(slow, fast)

    def test_nlos_scenario_matches(self):
        def build(fast):
            system, _ = nlos_scenario("B", seed=5)
            return _session(fast, system=system)

        slow, fast = build(False), build(True)
        assert slow.run_queries(20) == fast.run_queries(20)
        _assert_sessions_identical(slow, fast)


@pytest.mark.adaptive
class TestScheduledSessionEquivalence:
    """Traffic-aware scheduling inherits the bitwise tier contract.

    Ride/skip decisions depend only on the traffic stream and predictor
    state, ridden-window activities drain through the CSMA FIFO in
    identical per-query order, and interference draws happen per ridden
    query in window order — so the scalar and batch session engines
    must agree bit for bit on decisions, results and stats.
    """

    @staticmethod
    def _scheduled(fast: bool):
        from repro.traffic import (
            HoltPredictor,
            OnOffTraffic,
            OpportunityScheduler,
            ScheduledSession,
        )

        system, _ = los_scenario(2.0, seed=5, n_contenders=4)
        session = MeasurementSession(
            system,
            rng=np.random.default_rng(6),
            session_fast_path=fast,
        )
        system.load_tag_bits([1, 0] * 600)
        return ScheduledSession(
            session=session,
            traffic=OnOffTraffic(
                rate_fps=600.0,
                mean_on_s=0.30,
                mean_off_s=0.45,
                rng=np.random.default_rng(11),
            ),
            scheduler=OpportunityScheduler(predictor=HoltPredictor()),
            interference_rng=np.random.default_rng(12),
        )

    def test_decisions_and_stats_match_across_session_tiers(self):
        slow = self._scheduled(False)
        fast = self._scheduled(True)
        assert slow.run_queries(80) == fast.run_queries(80)
        assert slow.decisions == fast.decisions
        assert slow.rides == fast.rides and slow.rides == len(slow.results)
        assert [r.received_bits for r in slow.results] == [
            r.received_bits for r in fast.results
        ]
        assert slow.per_query_ber() == fast.per_query_ber()
        assert slow._elapsed_s == fast._elapsed_s

    def test_adaptive_link_reports_match_across_session_tiers(self):
        # The full closed loop (scheduler + RS codec + redundancy
        # controller) through both session engines: round reports,
        # rung trajectories and energy ledgers must be identical.
        from repro.runner.workers import AdaptiveLinkSpec

        def link(fast):
            spec = AdaptiveLinkSpec(session_fast_path=fast)
            return spec(
                UnitContext(index=0, parameters={}, root_seed=21)
            )

        slow, fast = link(False), link(True)
        assert slow.run(3, 60) == fast.run(3, 60)
        assert slow.scheduled.decisions == fast.scheduled.decisions
        assert slow.controller.index == fast.controller.index

    @pytest.mark.runner
    def test_link_stats_independent_of_workers(self):
        from repro.runner import run_units
        from repro.runner.workers import AdaptiveLinkSpec, adaptive_link_stats

        fn = functools.partial(
            adaptive_link_stats,
            spec=AdaptiveLinkSpec(),
            rounds=2,
            windows_per_round=40,
        )
        units = [
            UnitContext(index=i, parameters={"unit": i}, root_seed=13)
            for i in range(3)
        ]
        serial = run_units(fn, list(units), seed=13, n_workers=1)
        parallel = run_units(
            fn, list(units), seed=13, n_workers=2, executor="process"
        )
        assert serial.values == parallel.values
        assert all(v["windows"] == 80 for v in serial.values)


class TestStageTimingsParity:
    """Satellite: observability must not change under the batch path."""

    def test_stage_structure_and_call_counts_identical(self):
        slow = _session(False)
        fast = _session(True)
        slow.run_queries(QUERIES)
        fast.run_queries(QUERIES)
        slow_t, fast_t = slow.stage_timings(), fast.stage_timings()
        assert set(slow_t) == set(fast_t) == {"system", "error_model"}
        for group in slow_t:
            assert set(slow_t[group]) == set(fast_t[group])
            for stage in slow_t[group]:
                assert (
                    slow_t[group][stage]["calls"]
                    == fast_t[group][stage]["calls"]
                ), (group, stage)
                assert fast_t[group][stage]["seconds"] >= 0.0
        assert slow.per_query_ber() == fast.per_query_ber()

    def test_per_call_us(self):
        fast = _session(True)
        fast.run_queries(5)
        counters = fast.system.counters
        assert counters.per_call_us("phy-decode") >= 0.0
        assert counters.per_call_us("never-recorded") == 0.0


class TestTelemetryEquivalence:
    """Telemetry is execution-tier invariant: all three tiers emit
    identical metric snapshots and identical trace streams for the same
    seed (with ``phy_exact_coding`` pinning the fast tiers to the scalar
    PHY reference)."""

    def _instrumented(self, tmp_path, name, *, fast, phy_fast):
        from repro.obs import Telemetry, TraceWriter

        telemetry = Telemetry(
            writer=TraceWriter(str(tmp_path / f"{name}.jsonl"))
        )
        session = _session(fast, phy_fast_path=phy_fast)
        if phy_fast:
            session.system.phy_exact_coding = True
        telemetry.attach(session.system)
        stats = session.run_queries(QUERIES)
        telemetry.close()
        return telemetry, stats, tmp_path / f"{name}.jsonl"

    @staticmethod
    def _records(path):
        from repro.obs import read_trace

        queries, sessions = [], []
        for record in read_trace(str(path), validate=True):
            if record["kind"] == "query":
                queries.append(record)
            elif record["kind"] == "session":
                # Wall-clock stage timings legitimately differ per run.
                sessions.append(
                    {
                        k: v
                        for k, v in record.items()
                        if k != "stage_timings"
                    }
                )
        return queries, sessions

    def test_all_tiers_emit_identical_telemetry(self, tmp_path):
        scalar = self._instrumented(
            tmp_path, "scalar", fast=False, phy_fast=False
        )
        vector = self._instrumented(
            tmp_path, "vector", fast=False, phy_fast=True
        )
        batch = self._instrumented(
            tmp_path, "batch", fast=True, phy_fast=True
        )
        assert scalar[1] == vector[1] == batch[1]
        scalar_snap = scalar[0].metrics_snapshot()
        assert scalar_snap == vector[0].metrics_snapshot()
        assert scalar_snap == batch[0].metrics_snapshot()
        scalar_trace = self._records(scalar[2])
        assert scalar_trace == self._records(vector[2])
        assert scalar_trace == self._records(batch[2])
        queries, sessions = scalar_trace
        assert len(queries) == QUERIES
        assert len(sessions) == 1

    def test_batch_scoreboard_counters_match_scalar(self, tmp_path):
        # The batch engine replays only each chunk's final query onto
        # the real scoreboard; the bulk hook must account for the rest.
        from repro.obs import Telemetry

        def run(fast):
            telemetry = Telemetry()
            session = _session(fast)
            telemetry.attach(session.system)
            session.run_queries(QUERIES)
            snap = telemetry.metrics_snapshot()["metrics"]
            return {
                name: snap[name]["series"][0]["value"]
                for name in (
                    "mac_scoreboard_records_total",
                    "mac_scoreboard_resets_total",
                )
            }

        assert run(False) == run(True)


@pytest.mark.runner
class TestWorkerInvariance:
    def test_results_independent_of_workers_and_fast_path(self):
        spec = SessionSpec(distance_m=4.0, batch_queries=7)
        outcomes = []
        for n_workers, fast in (
            (1, True),
            (2, True),
            (1, False),
            (2, False),
        ):
            result = run_parallel_sessions(
                spec,
                3,
                queries=20,
                seed=9,
                n_workers=n_workers,
                session_fast_path=fast,
            )
            outcomes.append(result.values)
        first = outcomes[0]
        assert all(values == first for values in outcomes[1:])

    def test_session_spec_is_picklable_and_validates(self):
        spec = SessionSpec(kind="nlos", location="B")
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(ValueError):
            SessionSpec(kind="underwater")

    def test_small_batch_falls_back_to_serial_with_warning(self):
        # Satellite bugfix: queries < chunk_size used to raise inside
        # the engine; now it warns and runs serially, like run_units.
        from repro.core.session import reset_small_query_warnings

        reset_small_query_warnings()
        with pytest.warns(RuntimeWarning, match="chunk_size"):
            result = run_parallel_sessions(
                SessionSpec(),
                2,
                queries=2,
                seed=3,
                n_workers=2,
                chunk_size=5,
            )
        assert result.executor == "serial"
        assert len(result.values) == 2


class TestCacheInvalidationFromSession:
    """Satellite: mutating geometry mid-run must propagate everywhere."""

    def test_mid_run_mutation_keeps_paths_identical(self):
        slow = _session(False)
        fast = _session(True)
        control = _session(True)
        for session in (slow, fast, control):
            session.run_queries(10)

        def mutate(session):
            channel = session.system.error_model.channel
            # Weaken the tag-reflected path in place — the kind of
            # derived-attribute mutation invalidate_caches() exists for.
            # (Corrupted subframes start surviving, so the change is
            # observable in the bitmaps, unlike a strengthening, which
            # only deepens already-certain failures.)
            channel._h_tag_los = channel._h_tag_los * 0.02
            channel.invalidate_caches()

        mutate(slow)
        mutate(fast)
        slow.run_queries(10)
        fast.run_queries(10)
        control.run_queries(10)
        _assert_sessions_identical(slow, fast)
        # The mutation visibly changed the physics of the second half
        # (weaker reflection -> different decode outcomes) — i.e. the
        # batch engine saw the new geometry, not a stale cache.
        assert _bitmaps(fast)[10:] != _bitmaps(control)[10:]
        assert _bitmaps(fast)[:10] == _bitmaps(control)[:10]

    def test_invalidate_refreshes_static_vectors_via_session(self):
        session = _session(True)
        session.run_queries(3)
        channel = session.system.error_model.channel
        before = channel.channel_vector(TagState.ABSORB)
        channel.invalidate_caches()
        after = channel.channel_vector(TagState.ABSORB)
        assert before is not after
        np.testing.assert_array_equal(before, after)


class TestBuilderMemo:
    def test_build_fast_matches_build_across_memo_cycle(self):
        # Unencrypted frames are pure functions of the SSN, which wraps
        # through a 64-value cycle for the default 64-subframe A-MPDU:
        # 130 builds revisit every memo entry at least once.
        ref_system, _ = los_scenario(4.0, seed=5)
        memo_system, _ = los_scenario(4.0, seed=5)
        for _ in range(130):
            expected = ref_system.builder.build()
            got = memo_system.builder.build_fast()
            assert got.psdu == expected.psdu
            assert got.mpdus == expected.mpdus
            assert got.ssn == expected.ssn
            assert got.airtime_s == expected.airtime_s
        assert (
            memo_system.builder.sequence.next_value
            == ref_system.builder.sequence.next_value
        )

    def test_peek_airtime_does_not_consume_sequence(self):
        system, _ = los_scenario(4.0, seed=5)
        before = system.builder.sequence.next_value
        airtime = system.builder.peek_airtime_s()
        assert system.builder.sequence.next_value == before
        assert airtime == system.builder.build().airtime_s


class TestFadingBatch:
    @pytest.mark.parametrize(
        "k_direct,k_tag",
        [(15.0, 5.0), (None, 5.0), (15.0, None), (None, None)],
    )
    def test_sample_fading_batch_matches_scalar_order(
        self, k_direct, k_tag
    ):
        def make():
            return BackscatterChannel(
                ChannelGeometry.on_line(8.0, 3.0),
                rician_k_db=k_direct,
                tag_rician_k_db=k_tag,
                rng=np.random.default_rng(17),
            )

        scalar, batch = make(), make()
        expected = []
        for _ in range(9):
            expected.append(
                (scalar.sample_direct_fading(), scalar.sample_tag_fading())
            )
        direct, tag = batch.sample_fading_batch(9)
        assert direct.tolist() == [d for d, _ in expected]
        assert tag.tolist() == [t for _, t in expected]
        assert (
            scalar.rng.bit_generator.state
            == batch.rng.bit_generator.state
        )


class TestTagFastPath:
    def test_process_query_fast_matches_reference(self):
        def make():
            system, _ = los_scenario(4.0, seed=5)
            system.load_tag_bits([1, 0] * 31)
            return system

        ref, fast = make(), make()
        for _ in range(5):
            frame = ref.builder.build()
            fast.builder.build()
            from repro.core.system import QueryObservation

            observation = QueryObservation(
                n_subframes=frame.n_subframes,
                n_trigger_subframes=frame.n_trigger_subframes,
                subframe_s=frame.mean_subframe_s,
                rx_power_dbm=ref._rx_at_tag_dbm,
                temperature_c=ref.temperature_c,
            )
            expected = ref.tag.process_query(observation)
            got = fast.tag.process_query_fast(observation)
            assert got == expected
        assert (
            ref.tag.rng.bit_generator.state
            == fast.tag.rng.bit_generator.state
        )
