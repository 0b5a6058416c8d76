"""Equivalence and regression suite for the numpy PHY decode path.

Three layers of guarantees:

* **Bitwise**: the 2-D decode APIs draw randomness in exactly the
  scalar order, so from the same generator state a one-row call (one
  A-MPDU, the per-query path of ``WiTagSystem.run_query``) must leave
  the same generator state, the same SINRs bit for bit and, with exact
  coding, the same outcomes as the per-subframe reference loop; a
  chunk's rows match one-row calls bit for bit.
* **Tolerance**: the interpolated coded-BER table (the one deliberate
  approximation on the fast path) stays within ~1e-3 relative of the
  exact union bound, and whole sessions agree with the scalar path.
* **Pinned**: headline Figure 5 / Figure 3 numbers recorded before the
  optimization landed must keep reproducing (exact query/bit counts,
  banded BER) with the fast path on.
"""

import numpy as np
import pytest

from repro.core.config import EncryptionMode
from repro.core.session import MeasurementSession
from repro.phy.channel import (
    BackscatterChannel,
    ChannelGeometry,
    TagState,
)
from repro.phy.coding import (
    coded_bit_error_rate,
    coded_bit_error_rate_batch,
    packet_error_rate,
    packet_error_rate_batch,
)
from repro.phy.csi import (
    EESM_BETA,
    eesm_effective_sinr,
    eesm_effective_sinr_batch,
)
from repro.phy.error_model import (
    FadingBatch,
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
    mpdu_success_probability,
)
from repro.phy.mcs import ht_mcs, vht_mcs

MCS_TABLE = [ht_mcs(i) for i in range(8)]
from repro.sim.scenario import los_scenario

STATES = [
    TagState.REFLECT_0,
    TagState.ABSORB,
    TagState.REFLECT_0,
    TagState.REFLECT_0,
    TagState.ABSORB,
    TagState.ABSORB,
    TagState.REFLECT_0,
    TagState.ABSORB,
]


def _model(seed=7, mcs_index=3):
    channel = BackscatterChannel(
        ChannelGeometry.on_line(8.0, 3.0),
        rng=np.random.default_rng(seed),
    )
    return LinkErrorModel(
        channel,
        MCS_TABLE[mcs_index],
        rng=np.random.default_rng(seed + 1),
    )


def _fading():
    return FadingSample(
        direct_gain=0.9e-4 + 0.2e-4j, tag_fading=1.1 - 0.05j
    )


def _one_row(fading):
    """The one-row :class:`FadingBatch` of a single A-MPDU."""
    return FadingBatch(
        direct_gains=np.array([fading.direct_gain]),
        tag_fadings=np.array([fading.tag_fading]),
    )


def _probe_sinrs():
    """Deterministic linear SINRs: deep fades, mid-range, very strong."""
    probe = np.random.default_rng(0x5EED_CAFE).uniform(
        0.0, 40.0, size=(17, 56)
    )
    probe[3] *= 1e-6
    probe[5] *= 1e4
    probe[7, :] = 0.0
    probe[11, ::3] = 0.0
    return probe


def _assert_matches_scalar(row, expected):
    # Bitwise, not approximate: same RNG draws, same float op order.
    assert np.asarray(row).tolist() == np.asarray(expected).tolist()


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitwiseEquivalence:
    def test_batch_sinrs_match_scalar_with_estimation_noise(self):
        scalar_model = _model()
        batch_model = _model()
        fading = _fading()
        expected = np.array(
            [
                scalar_model.subframe_effective_sinr(
                    TagState.REFLECT_0, state, fading
                )
                for state in STATES
            ]
        )
        got = batch_model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0, [STATES], _one_row(fading)
        )
        assert got.shape == (1, len(STATES))
        _assert_matches_scalar(got[0], expected)
        # Both paths consumed the identical randomness stream.
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_batch_sinrs_match_scalar_without_estimation_noise(self):
        # The noise-free estimate is a scalar-reference option only: it
        # draws nothing, and a subframe in the preamble state sees just
        # thermal noise on the true channel.
        model = _model()
        before = model.rng.bit_generator.state
        fading = _fading()
        got = [
            model.subframe_effective_sinr(
                TagState.REFLECT_0,
                state,
                fading,
                include_estimation_noise=False,
            )
            for state in STATES
        ]
        assert model.rng.bit_generator.state == before
        h = model.channel.channel_vector(
            TagState.REFLECT_0, fading.direct_gain, fading.tag_fading
        )
        thermal = model.tx_referred_snr_linear * np.maximum(
            np.abs(h) ** 2, 1e-30
        )
        idle = eesm_effective_sinr(thermal, model.mcs.modulation)
        by_state = dict(zip(STATES, got))
        assert by_state[TagState.REFLECT_0] == idle
        assert by_state[TagState.ABSORB] < idle
        assert got == [by_state[state] for state in STATES]

    def test_batch_outcomes_match_scalar_with_exact_coding(self):
        scalar_model = _model(seed=21)
        batch_model = _model(seed=21)
        fading = _fading()
        bits = [8 * 120] * len(STATES)
        expected = [
            scalar_model.subframe_outcome(
                bits[i], TagState.REFLECT_0, STATES[i], fading
            )
            for i in range(len(STATES))
        ]
        got = batch_model.subframe_outcomes_batch2d(
            bits,
            TagState.REFLECT_0,
            [STATES],
            _one_row(fading),
            exact_coding=True,
        )
        assert got[0].tolist() == expected
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_eesm_batch_matches_scalar_rows(self):
        probe = _probe_sinrs()
        for modulation in EESM_BETA:
            expected = [
                eesm_effective_sinr(row, modulation) for row in probe
            ]
            got = eesm_effective_sinr_batch(probe, modulation)
            assert got.tolist() == expected

    def test_mpdu_success_probabilities_exact_matches_scalar(self):
        mcs = MCS_TABLE[4]
        sinrs = np.geomspace(0.1, 300.0, 17)
        expected = [
            mpdu_success_probability(mcs, 960, float(s)) for s in sinrs
        ]
        got = mpdu_success_probabilities(mcs, 960, sinrs, exact=True)
        assert got.tolist() == expected

    def test_per_mcs_uncoded_ber_array_matches_scalar(self):
        snrs = np.geomspace(1e-3, 1e3, 25)
        for mcs in MCS_TABLE:
            scalar = np.array(
                [mcs.modulation.bit_error_rate(float(s)) for s in snrs]
            )
            vector = mcs.modulation.bit_error_rate_array(snrs)
            np.testing.assert_allclose(vector, scalar, rtol=1e-12)


class TestDedup:
    def test_repeated_states_equal_unique_rows(self):
        # One distinct state across the row: the channel-change power is
        # computed once and shared, yet every subframe still draws its
        # own CSI noise exactly as the scalar loop does.
        scalar_model = _model(seed=3)
        batch_model = _model(seed=3)
        fading = _fading()
        states = [TagState.REFLECT_0] * 5
        expected = [
            scalar_model.subframe_effective_sinr(
                TagState.REFLECT_0, state, fading
            )
            for state in states
        ]
        sinrs = batch_model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0, [states], _one_row(fading)
        )
        assert sinrs.shape == (1, 5)
        _assert_matches_scalar(sinrs[0], expected)
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_empty_batch(self):
        model = _model()
        before = model.rng.bit_generator.state
        sinrs = model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0, [[]], _one_row(_fading())
        )
        assert sinrs.shape == (1, 0)
        outcomes = model.subframe_outcomes_batch2d(
            [], TagState.REFLECT_0, [[]], _one_row(_fading())
        )
        assert outcomes.shape == (1, 0)
        assert model.rng.bit_generator.state == before

    def test_all_three_states_one_ampdu(self):
        scalar_model = _model(seed=9)
        batch_model = _model(seed=9)
        fading = _fading()
        states = [
            TagState.ABSORB,
            TagState.REFLECT_0,
            TagState.REFLECT_180,
            TagState.REFLECT_180,
            TagState.ABSORB,
        ]
        expected = [
            scalar_model.subframe_effective_sinr(
                TagState.REFLECT_180, s, fading
            )
            for s in states
        ]
        got = batch_model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_180, [states], _one_row(fading)
        )
        _assert_matches_scalar(got[0], expected)
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_one_row_equals_its_row_in_a_chunk(self):
        # The per-query path decodes one row at a time; the session
        # engine decodes the same rows as one chunk.  Bit for bit equal.
        chunk_model = _model(seed=13)
        row_model = _model(seed=13)
        fading = chunk_model.sample_fading_batch(3)
        row_model.sample_fading_batch(3)
        rows = [STATES, STATES[::-1], [TagState.REFLECT_180] * len(STATES)]
        bits = [8 * 120] * len(STATES)
        chunk = chunk_model.subframe_outcomes_batch2d(
            bits, TagState.REFLECT_0, rows, fading
        )
        singles = []
        for q, row in enumerate(rows):
            one = FadingBatch(
                direct_gains=fading.direct_gains[q : q + 1],
                tag_fadings=fading.tag_fadings[q : q + 1],
            )
            singles.append(
                row_model.subframe_outcomes_batch2d(
                    bits, TagState.REFLECT_0, [row], one
                )[0]
            )
        assert _bitwise(np.stack(singles), chunk)
        assert (
            chunk_model.rng.bit_generator.state
            == row_model.rng.bit_generator.state
        )


class TestFastSuccessProbabilities:
    """The numpy uncoded -> coded -> PER form of the fast path."""

    def test_mpdu_success_matches_composed_reference(self):
        probe = _probe_sinrs()
        bits = np.full(probe.shape, 12000.0)
        bits[::2] = 288.0
        for index in range(10):
            mcs = vht_mcs(index)
            uncoded = mcs.modulation.bit_error_rate_array(
                np.maximum(probe, 0.0)
            )
            coded = coded_bit_error_rate_batch(mcs.coding_rate, uncoded)
            expected = 1.0 - packet_error_rate_batch(coded, bits)
            assert _bitwise(
                mpdu_success_probabilities(mcs, bits, probe), expected
            )

    def test_mpdu_success_broadcasts_scalar_bits(self):
        row = _probe_sinrs()[0]
        out = mpdu_success_probabilities(vht_mcs(4), 8000, row)
        assert out.shape == row.shape
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert _bitwise(
            out,
            mpdu_success_probabilities(
                vht_mcs(4), np.full(row.shape, 8000), row
            ),
        )


class TestCodedBerTable:
    def test_table_tracks_exact_union_bound(self):
        # The scalar reference rounds p to 9 decimals for its own cache,
        # so sample at 9-decimal-representable points where it evaluates
        # the true bound; the table interpolates the same unrounded p.
        probabilities = np.unique(
            np.round(np.geomspace(1e-8, 0.5, 400), 9)
        )
        probabilities = probabilities[probabilities > 0]
        for mcs in MCS_TABLE:
            exact = np.array(
                [
                    coded_bit_error_rate(mcs.coding_rate, float(p))
                    for p in probabilities
                ]
            )
            table = coded_bit_error_rate_batch(
                mcs.coding_rate, probabilities
            )
            np.testing.assert_allclose(table, exact, rtol=2e-3)

    def test_tiny_probabilities_map_to_zero(self):
        out = coded_bit_error_rate_batch(
            MCS_TABLE[0].coding_rate, np.array([0.0, 1e-13])
        )
        assert out.tolist() == [0.0, 0.0]

    def test_packet_error_rate_batch_matches_scalar(self):
        bers = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.2, 0.5])
        bits = 8 * 150
        expected = [packet_error_rate(float(b), bits) for b in bers]
        got = packet_error_rate_batch(bers, bits)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_fast_success_probabilities_close_to_exact(self):
        mcs = MCS_TABLE[3]
        sinrs = np.geomspace(0.5, 200.0, 60)
        exact = mpdu_success_probabilities(mcs, 1200, sinrs, exact=True)
        fast = mpdu_success_probabilities(mcs, 1200, sinrs)
        # The table's ~1e-3 relative coded-BER error translates to a few
        # 1e-6 absolute on success probabilities (observed max ~3.4e-6).
        np.testing.assert_allclose(fast, exact, atol=1e-4)


class TestChannelVectorCache:
    def test_static_vector_cached_and_read_only(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        first = channel.channel_vector(TagState.REFLECT_0)
        second = channel.channel_vector(TagState.REFLECT_0)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_cached_value_matches_uncached_formula(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        cached = channel.channel_vector(TagState.REFLECT_180)
        explicit = channel.channel_vector(
            TagState.REFLECT_180, channel.direct_gain
        )
        np.testing.assert_allclose(cached, explicit, rtol=1e-15)

    def test_faded_calls_bypass_cache(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        faded = channel.channel_vector(
            TagState.REFLECT_0, 1e-4 + 1e-4j, 0.8 + 0.1j
        )
        assert faded.flags.writeable  # fresh array, not the cache
        again = channel.channel_vector(
            TagState.REFLECT_0, 1e-4 + 1e-4j, 0.8 + 0.1j
        )
        assert faded is not again

    def test_invalidate_caches(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        first = channel.channel_vector(TagState.ABSORB)
        channel.invalidate_caches()
        second = channel.channel_vector(TagState.ABSORB)
        assert first is not second
        np.testing.assert_array_equal(first, second)


def _per_query_session(phy_fast_path, **scenario_kwargs):
    system, _ = los_scenario(
        4.0, seed=42, phy_fast_path=phy_fast_path, **scenario_kwargs
    )
    return MeasurementSession(
        system, rng=np.random.default_rng(43), session_fast_path=False
    )


class TestSystemFastPath:
    def test_session_stats_match_scalar_path(self):
        # Both sessions run the per-query loop, so the flag alone picks
        # the one-row numpy decode or the scalar per-subframe loop.
        fast_session = _per_query_session(True)
        slow_session = _per_query_session(False)
        assert fast_session.system.phy_fast_path
        assert not slow_session.system.phy_fast_path
        fast = fast_session.run_queries(40)
        slow = slow_session.run_queries(40)
        assert fast.queries == slow.queries == 40
        assert fast.bits_sent == slow.bits_sent
        assert fast.elapsed_s == slow.elapsed_s
        # Outcomes may differ only via the coded-BER table (~1e-6 flip
        # probability per subframe); at this sample size they never
        # diverge measurably.
        assert abs(fast.ber - slow.ber) < 5e-3

    @pytest.mark.parametrize(
        "scenario_kwargs,queries",
        [
            ({}, 30),
            ({"coherence_time_s": 0.1}, 30),
            ({"n_contenders": 3}, 30),
            ({"encryption": EncryptionMode.WPA2_CCMP}, 3),
        ],
        ids=["open", "correlated-fading", "contention", "ccmp"],
    )
    def test_per_query_path_matches_scalar_reference(
        self, scenario_kwargs, queries
    ):
        # With exact coding the one-row 2-D decode is the scalar loop,
        # bit for bit: stats, bitmaps and every generator it touches.
        fast = _per_query_session(True, **scenario_kwargs)
        slow = _per_query_session(False, **scenario_kwargs)
        fast.system.phy_exact_coding = True
        assert fast.run_queries(queries) == slow.run_queries(queries)
        assert [r.block_ack.bitmap for r in fast.results] == [
            r.block_ack.bitmap for r in slow.results
        ]
        assert (
            fast.system.error_model.rng.bit_generator.state
            == slow.system.error_model.rng.bit_generator.state
        )
        assert (
            fast.system.rng.bit_generator.state
            == slow.system.rng.bit_generator.state
        )

    def test_counters_populated(self):
        system, _ = los_scenario(4.0, seed=11)
        session = MeasurementSession(
            system, rng=np.random.default_rng(12)
        )
        session.run_queries(2)
        timings = session.stage_timings()
        assert set(timings) == {"system", "error_model"}
        assert timings["system"]["phy-decode"]["calls"] == 2
        assert timings["system"]["query-build"]["calls"] == 2
        for stage in ("channel", "csi", "eesm", "coding"):
            assert timings["error_model"][stage]["seconds"] >= 0.0
            assert timings["error_model"][stage]["calls"] > 0


class TestPinnedBaselines:
    """Headline numbers recorded before the fast path landed.

    Query/bit counts are timing-driven and must reproduce exactly; BER
    is pinned to the recorded value with a band wide enough for the
    coded-BER table's ~1e-6 per-subframe outcome-flip probability yet
    far tighter than any physical effect in the figures.
    """

    # (distance_m, queries, bits_sent, ber) with scenario seed
    # 100 + distance and session rng seed 200 + distance, run_for(0.4).
    FIG5_BASELINE = [
        (1.0, 275, 17050, 0.003988269794721408),
        (4.0, 275, 17050, 0.03741935483870968),
        (7.0, 275, 17050, 0.004398826979472141),
    ]

    @pytest.mark.parametrize(
        "distance_m,queries,bits_sent,ber", FIG5_BASELINE
    )
    def test_fig5_points_reproduce(
        self, distance_m, queries, bits_sent, ber
    ):
        system, _ = los_scenario(distance_m, seed=100 + int(distance_m))
        session = MeasurementSession(
            system, rng=np.random.default_rng(200 + int(distance_m))
        )
        stats = session.run_for(0.4)
        assert stats.queries == queries
        assert stats.bits_sent == bits_sent
        assert stats.ber == pytest.approx(ber, abs=2e-3)

    def test_fig3_channel_change_magnitudes(self):
        system, _ = los_scenario(4.0, seed=104)
        channel = system.error_model.channel
        assert channel.mean_change_magnitude(
            TagState.ABSORB, TagState.REFLECT_0
        ) == pytest.approx(7.876669245162025e-06, rel=1e-9)
        assert channel.mean_change_magnitude(
            TagState.REFLECT_0, TagState.REFLECT_180
        ) == pytest.approx(1.7503709433693393e-05, rel=1e-9)
