"""Per-MPDU decode model under tag-induced channel mismatch.

This is where the PHY substrate meets WiTAG's mechanism.  For each subframe
of a query A-MPDU we ask: given the channel estimate the receiver formed
during the preamble (with the tag in its idle state) and the channel that
actually prevailed while this subframe was on the air (tag idle, or tag
flipped), what is the probability the subframe's FCS passes?

The pipeline is:

    channels (``repro.phy.channel``)
      -> preamble CSI estimate (``repro.phy.csi``)
      -> per-subcarrier post-equalization SINR
      -> EESM effective SINR
      -> uncoded BER (``repro.phy.modulation``)
      -> coded BER via union bound (``repro.phy.coding``)
      -> MPDU error probability ``1 - (1 - BER)^bits``

Calibration
-----------

An ideal zero-forcing equalizer understates how badly a real 802.11
receiver reacts to a *mid-frame* channel change.  Three effects, all absent
from the textbook math, amplify the damage in practice:

* **MIMO stream separation.**  The paper's testbed uses 3x3:3 adapters;
  spatial-stream demultiplexing inverts the channel matrix, so a rank-one
  perturbation is amplified by the matrix condition number (MOXcatter,
  MobiSys 2018, builds its entire design around this fragility).
* **Pilot tracking.**  Receivers track residual phase/frequency offset on
  pilot subcarriers; a step change in the channel derails these loops for
  many symbols.
* **Indoor multipath.**  The tag's perturbation reaches the receiver over
  every environmental path, not just the single geometric bounce of the
  bistatic radar equation.

Rather than simulate each, :class:`LinkErrorModel` exposes a single
documented knob, ``mismatch_gain_db``, that scales the *power* of the
tag-induced mismatch term.  The default (22 dB: approximately 12 dB MIMO
fragility + 5 dB pilot-tracking disturbance + 5 dB multipath) is calibrated so that the simulated LOS
BER-vs-position curve lands in the magnitude range of paper Figure 5; all
*relative* behaviour (the U-shape, NLOS ordering, design ablations) comes
from the physics, not from the knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

from ..perf import StageCounters
from ..seeding import component_rng
from .channel import BackscatterChannel, TagState
from .coding import (
    coded_bit_error_rate,
    coded_bit_error_rate_batch,
    packet_error_rate,
    packet_error_rate_batch,
)
from .csi import (
    csi_noise_scale,
    eesm_effective_sinr,
    eesm_effective_sinr_batch,
    estimate_csi,
)
from .mcs import Mcs
from .noise import ReceiverNoise, dbm_to_watts


def mpdu_success_probability(
    mcs: Mcs, mpdu_bits: int, effective_sinr_linear: float
) -> float:
    """Probability that an MPDU of ``mpdu_bits`` passes its FCS.

    Args:
        mcs: modulation and coding of the PPDU.
        mpdu_bits: MPDU length in bits (header + payload + FCS).
        effective_sinr_linear: AWGN-equivalent SINR (post EESM).

    Returns:
        Success probability in [0, 1].
    """
    if mpdu_bits <= 0:
        raise ValueError(f"mpdu_bits must be > 0, got {mpdu_bits}")
    uncoded = mcs.modulation.bit_error_rate(max(effective_sinr_linear, 0.0))
    coded = coded_bit_error_rate(mcs.coding_rate, uncoded)
    return 1.0 - packet_error_rate(coded, mpdu_bits)


def mpdu_success_probabilities(
    mcs: Mcs,
    mpdu_bits,
    effective_sinrs_linear,
    *,
    exact: bool = False,
) -> np.ndarray:
    """Vectorized :func:`mpdu_success_probability` over many subframes.

    Args:
        mpdu_bits: MPDU length(s) in bits — scalar or array broadcastable
            against the SINR vector.
        effective_sinrs_linear: AWGN-equivalent SINRs (post EESM).
        exact: when True, evaluate the scalar reference per element
            (bit-identical to :func:`mpdu_success_probability`); when
            False (the fast path), use the vectorized uncoded-BER curve
            and the interpolated coded-BER table — accurate to ~1e-3
            relative on the coded BER, which is far below anything
            observable at packet level.

    Returns:
        Array of success probabilities in [0, 1].
    """
    sinrs = np.asarray(effective_sinrs_linear, dtype=float)
    bits = np.asarray(mpdu_bits)
    if np.any(bits <= 0):
        raise ValueError(f"mpdu_bits must be > 0, got {mpdu_bits}")
    if exact:
        bits_by_subframe = np.broadcast_to(bits, sinrs.shape)
        return np.array(
            [
                mpdu_success_probability(mcs, int(b), float(s))
                for b, s in zip(bits_by_subframe.ravel(), sinrs.ravel())
            ]
        ).reshape(sinrs.shape)
    uncoded = mcs.modulation.bit_error_rate_array(np.maximum(sinrs, 0.0))
    coded = coded_bit_error_rate_batch(mcs.coding_rate, uncoded)
    return 1.0 - packet_error_rate_batch(coded, bits)


@dataclass(frozen=True)
class FadingSample:
    """One coherence-interval snapshot of the channel's random state.

    Within a single A-MPDU the channel is coherent (frame time of a few
    milliseconds << ~100 ms coherence time, paper §5 footnote 2), so the
    same sample applies to the preamble and every subframe of one PPDU.
    """

    direct_gain: complex
    tag_fading: complex


@dataclass(frozen=True)
class FadingBatch:
    """Per-query fading samples for a whole session chunk.

    Row ``i`` holds the coherence-interval state of query ``i`` — the
    2-D decode APIs broadcast each row across that query's subframes
    exactly as :class:`FadingSample` is shared within one A-MPDU.
    """

    direct_gains: np.ndarray
    tag_fadings: np.ndarray

    def __post_init__(self) -> None:
        if self.direct_gains.shape != self.tag_fadings.shape:
            raise ValueError(
                "direct/tag fading shapes differ: "
                f"{self.direct_gains.shape} vs {self.tag_fadings.shape}"
            )

    def __len__(self) -> int:
        return int(self.direct_gains.shape[0])

    def sample(self, index: int) -> FadingSample:
        """The scalar :class:`FadingSample` view of row ``index``."""
        return FadingSample(
            direct_gain=complex(self.direct_gains[index]),
            tag_fading=complex(self.tag_fadings[index]),
        )


@dataclass
class LinkErrorModel:
    """Decode model for one client->AP link with a tag in the environment.

    Attributes:
        channel: the backscatter channel (geometry + tag reflection).
        mcs: MCS of query PPDUs.
        tx_power_dbm: client transmit power.
        receiver: AP receiver noise model.
        mismatch_gain_db: receiver-fragility / multipath calibration (see
            module docstring).  Applied to the power of the tag-induced
            channel mismatch only — never to thermal noise or to the
            benign (tag idle) case.
        rng: randomness source for CSI estimation noise and fading.
        counters: cumulative per-stage timing of the 2-D decode path
            (``channel``, ``csi``, ``eesm``, ``coding``); sampled once
            per decoded matrix, so the instrumentation overhead is a few
            microseconds per call.  The scalar reference methods are
            deliberately left un-instrumented.
        telemetry: optional :class:`repro.obs.Telemetry`; when attached,
            every effective-SINR evaluation feeds the
            ``phy_effective_sinr`` histogram.  The scalar reference and
            the 2-D path observe the same values in the same order, so
            histograms do not depend on the execution tier.
    """

    channel: BackscatterChannel
    mcs: Mcs
    tx_power_dbm: float = 15.0
    receiver: ReceiverNoise = field(default_factory=ReceiverNoise)
    mismatch_gain_db: float = 22.0
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("error-model")
    )
    counters: StageCounters = field(default_factory=StageCounters, repr=False)
    telemetry: "Telemetry | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._tx_ref_snr = (
            dbm_to_watts(self.tx_power_dbm) / self.receiver.noise_floor_w
        )
        self._mismatch_gain = 10.0 ** (self.mismatch_gain_db / 10.0)

    @property
    def tx_referred_snr_linear(self) -> float:
        """``P_tx / N``: SNR before applying any channel gain."""
        return self._tx_ref_snr

    def received_snr_db(self, idle_state: TagState) -> float:
        """Mean received SNR (dB) across subcarriers with the tag idle."""
        h = self.channel.channel_vector(idle_state)
        rx = self._tx_ref_snr * float(np.mean(np.abs(h) ** 2))
        return 10.0 * float(np.log10(max(rx, 1e-30)))

    def sample_fading(self) -> FadingSample:
        """Draw the channel's random state for one coherence interval."""
        return FadingSample(
            direct_gain=self.channel.sample_direct_fading(),
            tag_fading=self.channel.sample_tag_fading(),
        )

    def sample_fading_batch(self, count: int) -> FadingBatch:
        """Draw ``count`` coherence intervals in exact scalar order.

        Bitwise equal, per row, to ``count`` sequential calls of
        :meth:`sample_fading` on the same generator state (see
        :meth:`repro.phy.channel.BackscatterChannel.sample_fading_batch`).
        """
        direct, tag = self.channel.sample_fading_batch(count)
        return FadingBatch(direct_gains=direct, tag_fadings=tag)

    def subframe_effective_sinrs_batch2d(
        self,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Effective SINR of every subframe of ``n_queries`` A-MPDUs.

        The numpy fast path of :meth:`subframe_effective_sinr`: one
        ``(n_queries, n_subframes)`` pass serves a whole session chunk,
        a fleet round, or a single A-MPDU as a one-row matrix.  Tag
        states are deduplicated across the *whole matrix* (the design only ever
        uses a handful of states, so the channel-change power is one
        ``(n_distinct, n_queries, n_subcarriers)`` stack), and all CSI
        noise is drawn as one row-major ``standard_normal`` buffer whose
        layout reproduces the scalar draw order (per query, per
        subframe: n real draws, n imaginary draws, then optionally the
        outcome uniform).  Given the same generator state, row ``q``
        consumes exactly the draws of calling
        ``subframe_effective_sinr(preamble_state, state,
        fading.sample(q))`` for each ``state`` of
        ``subframe_state_rows[q]`` in turn, and matches those SINRs bit
        for bit.  Rows do not interact: a row's SINRs are bitwise the
        same whether it is decoded alone or inside a larger chunk.

        Args:
            preamble_state: tag state during every PHY preamble.
            subframe_state_rows: per-query tag states; all rows must
                have equal length (one A-MPDU shape per chunk).
            fading: one coherence-interval sample per query.
            rngs: optional per-row generators (one per query row).
                When given, row ``q``'s CSI noise (and outcome
                uniforms) are drawn from ``rngs[q]`` instead of
                ``self.rng`` — the fleet engine uses this so each
                tag's row consumes that tag's own error stream,
                bitwise as the scalar per-tag loop would.  ``None``
                (the default) keeps the historical shared-generator
                path byte for byte.
            _uniforms: internal — a preallocated ``(n_queries,
                n_subframes)`` float array; when provided, one uniform
                per subframe is drawn into it after that subframe's
                noise draws, replicating the outcome stream.

        Returns:
            ``(n_queries, n_subframes)`` array of effective SINRs.
        """
        rows = [list(row) for row in subframe_state_rows]
        n_q = len(rows)
        if n_q != len(fading):
            raise ValueError(
                f"{n_q} state rows but {len(fading)} fading samples"
            )
        if n_q == 0:
            return np.empty((0, 0), dtype=float)
        k = len(rows[0])
        for row in rows:
            if len(row) != k:
                raise ValueError(
                    "all queries in a chunk must have the same subframe "
                    f"count, got {len(row)} vs {k}"
                )
        if k == 0:
            return np.empty((n_q, 0), dtype=float)

        start = time.perf_counter()
        h_preamble = self.channel.channel_vector_batch(
            preamble_state, fading.direct_gains, fading.tag_fadings
        )
        distinct: list[TagState] = []
        index_of: dict[TagState, int] = {}
        flat_codes: list[int] = []
        for row in rows:
            for state in row:
                j = index_of.get(state)
                if j is None:
                    j = index_of[state] = len(distinct)
                    distinct.append(state)
                flat_codes.append(j)
        codes = np.array(flat_codes, dtype=np.intp).reshape(n_q, k)
        change_sq = np.stack(
            [
                np.abs(
                    self.channel.channel_vector_batch(
                        state, fading.direct_gains, fading.tag_fadings
                    )
                    - h_preamble
                )
                ** 2
                for state in distinct
            ]
        )
        self.counters.add("channel", time.perf_counter() - start, n_q * k)

        start = time.perf_counter()
        n = h_preamble.shape[1]
        rx_snr = self._tx_ref_snr * np.mean(np.abs(h_preamble) ** 2, axis=1)
        scale = csi_noise_scale(
            h_preamble, np.maximum(rx_snr, 1e-12)[:, None]
        )
        buffer = np.empty((n_q, k, 2 * n))
        if rngs is not None and len(rngs) != n_q:
            raise ValueError(
                f"{n_q} state rows but {len(rngs)} per-row generators"
            )
        if _uniforms is None:
            if rngs is None:
                draw_normals = self.rng.standard_normal
                for q in range(n_q):
                    per_query = buffer[q]
                    for i in range(k):
                        draw_normals(out=per_query[i])
            else:
                for q in range(n_q):
                    per_query = buffer[q]
                    draw_normals = rngs[q].standard_normal
                    for i in range(k):
                        draw_normals(out=per_query[i])
        else:
            if rngs is None:
                draw_normals = self.rng.standard_normal
                draw_uniform = self.rng.random
                for q in range(n_q):
                    per_query = buffer[q]
                    uniform_row = _uniforms[q]
                    for i in range(k):
                        draw_normals(out=per_query[i])
                        uniform_row[i] = draw_uniform()
            else:
                for q in range(n_q):
                    per_query = buffer[q]
                    uniform_row = _uniforms[q]
                    rng = rngs[q]
                    draw_normals = rng.standard_normal
                    draw_uniform = rng.random
                    for i in range(k):
                        draw_normals(out=per_query[i])
                        uniform_row[i] = draw_uniform()
        # The matrices below are tens of MB per chunk, so the algebra
        # runs in place on a handful of scratch buffers.  Every rewrite
        # is bitwise-neutral: in-place multiply/add keep the scalar
        # expression's operand order up to commutativity (exact for
        # float multiply/add), and building the complex noise by field
        # assignment instead of ``re + 1j * im`` can only flip the sign
        # of a zero real part, which ``abs()**2`` erases.
        estimate = np.empty((n_q, k, n), dtype=complex)
        estimate.real = buffer[..., :n]
        estimate.imag = buffer[..., n:]
        estimate *= scale[:, None, :]
        estimate += h_preamble[:, None, :]
        safe_est_sq = np.abs(estimate)
        np.multiply(safe_est_sq, safe_est_sq, out=safe_est_sq)
        np.maximum(safe_est_sq, 1e-30, out=safe_est_sq)
        query_index = np.arange(n_q)[:, None]
        tag_mismatch = change_sq[codes, query_index]
        np.divide(tag_mismatch, safe_est_sq, out=tag_mismatch)
        np.multiply(tag_mismatch, self._mismatch_gain, out=tag_mismatch)
        diff = h_preamble[:, None, :] - estimate
        est_mismatch = np.abs(diff)
        np.multiply(est_mismatch, est_mismatch, out=est_mismatch)
        np.divide(est_mismatch, safe_est_sq, out=est_mismatch)
        np.multiply(safe_est_sq, self._tx_ref_snr, out=safe_est_sq)
        np.divide(1.0, safe_est_sq, out=safe_est_sq)  # now the noise term
        np.add(tag_mismatch, est_mismatch, out=tag_mismatch)
        np.add(tag_mismatch, safe_est_sq, out=tag_mismatch)
        np.divide(1.0, tag_mismatch, out=tag_mismatch)
        sinr_rows = tag_mismatch
        self.counters.add("csi", time.perf_counter() - start, n_q * k)

        start = time.perf_counter()
        effective = eesm_effective_sinr_batch(
            sinr_rows.reshape(n_q * k, n), self.mcs.modulation
        ).reshape(n_q, k)
        self.counters.add("eesm", time.perf_counter() - start, n_q * k)
        if self.telemetry is not None:
            self.telemetry.observe_sinrs(effective)
        return effective

    def subframe_success_probabilities_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        exact_coding: bool = False,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode probability of every subframe in the chunk.

        The SINRs of :meth:`subframe_effective_sinrs_batch2d` mapped
        through :func:`mpdu_success_probabilities` (``exact_coding``
        selects the scalar union bound instead of the table).
        ``mpdu_bits`` may be scalar, a length-``n_subframes`` row shared
        by every query, or a full ``(n_queries, n_subframes)`` matrix.
        """
        sinrs = self.subframe_effective_sinrs_batch2d(
            preamble_state,
            subframe_state_rows,
            fading,
            rngs=rngs,
            _uniforms=_uniforms,
        )
        start = time.perf_counter()
        probabilities = mpdu_success_probabilities(
            self.mcs, mpdu_bits, sinrs, exact=exact_coding
        )
        self.counters.add("coding", time.perf_counter() - start, sinrs.size)
        return probabilities

    def subframe_outcomes_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        exact_coding: bool = False,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """One Bernoulli decode outcome per subframe of the chunk.

        Returns a ``(n_queries, n_subframes)`` boolean matrix, True where
        the subframe's FCS passes.  Each subframe's uniform is drawn
        right after its CSI noise, as the scalar loop draws it, so with
        ``exact_coding=True`` the matrix equals the scalar
        :meth:`subframe_outcome` loop over the rows in order, from the
        same generator state.
        With ``rngs`` each row draws from its own generator instead
        (see :meth:`subframe_effective_sinrs_batch2d`).
        """
        rows = [list(row) for row in subframe_state_rows]
        n_q = len(rows)
        k = len(rows[0]) if n_q else 0
        uniforms = np.empty((n_q, k))
        probabilities = self.subframe_success_probabilities_batch2d(
            mpdu_bits,
            preamble_state,
            rows,
            fading,
            exact_coding=exact_coding,
            rngs=rngs,
            _uniforms=uniforms,
        )
        return uniforms < probabilities

    def subframe_effective_sinr(
        self,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
        *,
        include_estimation_noise: bool = True,
    ) -> float:
        """AWGN-equivalent SINR for one subframe.

        The receiver estimated the channel with the tag in
        ``preamble_state``; the subframe was transmitted with the tag in
        ``subframe_state``.  When the states coincide, the only impairments
        are thermal noise and CSI estimation error; when they differ, the
        stale estimate turns the tag's channel change into distortion,
        amplified by :attr:`mismatch_gain_db`.

        Args:
            fading: one coherence-interval sample shared by the preamble
                and the subframe; drawn fresh when omitted.
        """
        if fading is None:
            fading = self.sample_fading()
        h_preamble = self.channel.channel_vector(
            preamble_state, fading.direct_gain, fading.tag_fading
        )
        h_actual = self.channel.channel_vector(
            subframe_state, fading.direct_gain, fading.tag_fading
        )
        if include_estimation_noise:
            rx_snr = self._tx_ref_snr * float(
                np.mean(np.abs(h_preamble) ** 2)
            )
            estimate = estimate_csi(h_preamble, max(rx_snr, 1e-12), self.rng).h
        else:
            estimate = h_preamble
        safe_est_sq = np.maximum(np.abs(estimate) ** 2, 1e-30)
        # Tag-induced channel change: amplified by the fragility gain.
        tag_mismatch = self._mismatch_gain * (
            np.abs(h_actual - h_preamble) ** 2 / safe_est_sq
        )
        # CSI estimation error: an ordinary receiver impairment, NOT
        # amplified (the fragility gain models the reaction to mid-frame
        # channel *changes*, which a static estimation error is not).
        est_mismatch = np.abs(h_preamble - estimate) ** 2 / safe_est_sq
        noise = 1.0 / (self._tx_ref_snr * safe_est_sq)
        sinrs = 1.0 / (tag_mismatch + est_mismatch + noise)
        effective = eesm_effective_sinr(sinrs, self.mcs.modulation)
        if self.telemetry is not None:
            self.telemetry.observe_sinr(effective)
        return effective

    def subframe_success_probability(
        self,
        mpdu_bits: int,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
    ) -> float:
        """Probability that a subframe decodes, given tag behaviour."""
        sinr = self.subframe_effective_sinr(
            preamble_state, subframe_state, fading
        )
        return mpdu_success_probability(self.mcs, mpdu_bits, sinr)

    def subframe_outcome(
        self,
        mpdu_bits: int,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
    ) -> bool:
        """Draw one Bernoulli decode outcome for a subframe."""
        p = self.subframe_success_probability(
            mpdu_bits, preamble_state, subframe_state, fading
        )
        return bool(self.rng.random() < p)
