"""Chunk payload codec: roundtrips, integrity retries, determinism.

Every pooled chunk crosses the process boundary as one pickle stream
encoded once by the worker, digest-checked by the coordinator, and
spilled verbatim into the checkpoint.  The engine's determinism
contract requires that crossing to be invisible in the results
(bit-identical values for every executor, under worker faults, and
through kill-and-resume).  This suite pins that, plus the codec
layer's own invariants: roundtrips, stable encodings, truncated and
unknown streams, and a corrupted stream retried as ``transport``.
"""

import base64
import json

import numpy as np
import pytest

from repro.runner import (
    FaultSpec,
    RetryPolicy,
    SweepSpec,
    TelemetrySpec,
    UnitContext,
    WorkUnitError,
    load_checkpoint,
    run_sweep,
    run_units,
)
from repro.runner.transport import (
    TransportError,
    decode_payload,
    encode_chunk,
    payload_digest,
)
from repro.runner.workers import rng_probe

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.runner


def units(n, seed=0):
    return [
        UnitContext(index=i, parameters={"x": i}, root_seed=seed)
        for i in range(n)
    ]


def canon(obj):
    """Canonical form for bitwise value comparison.

    ``pickle.dumps(a) == pickle.dumps(b)`` is too strict across a
    process boundary: the pickler memoizes *object identity*, so two
    structurally identical payloads serialize differently when one
    shares interned key strings and the other was rebuilt by a worker.
    Arrays compare by dtype/shape/raw bytes; floats by exact equality.
    """
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return {key: canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(value) for value in obj]
    return obj


def array_probe(ctx: UnitContext):
    """A unit whose payload is numpy-heavy."""
    rng = ctx.rng(0)
    return {
        "index": ctx.index,
        "draws": rng.random(64),
        "counts": rng.integers(0, 255, size=33, dtype=np.uint8),
        "scalar": float(rng.random()),
    }


def payload_values():
    rng = np.random.default_rng(7)
    return [
        {"a": rng.random(17), "b": [1, 2, 3], "c": None},
        {"a": rng.integers(0, 9, size=5), "empty": np.empty(0)},
        "plain string",
        42,
    ]


class TestCodecLayer:
    def test_pickle_roundtrip(self):
        values = payload_values()
        encoded = encode_chunk(values, {"k": 1})
        assert encoded.codec == "pickle"
        assert encoded.nbytes == len(encoded.payload)
        assert encoded.digest == payload_digest(encoded.payload)
        decoded, telemetry = decode_payload(encoded.payload, "pickle")
        assert telemetry == {"k": 1}
        assert canon(decoded) == canon(values)

    def test_encoding_is_deterministic(self):
        # The checkpoint records the digest of the worker's stream; a
        # re-encode of the same values must reproduce it exactly.
        values = payload_values()
        a = encode_chunk(values, {"t": 1})
        b = encode_chunk(values, {"t": 1})
        assert a.payload == b.payload
        assert a.digest == b.digest

    def test_decoded_arrays_are_usable_after_fetch(self):
        values = [np.arange(1000, dtype=np.float64)]
        decoded, _ = decode_payload(encode_chunk(values, None).payload)
        assert float(decoded[0].sum()) == float(values[0].sum())

    def test_truncated_stream_raises(self):
        raw = encode_chunk(payload_values(), None).payload
        with pytest.raises(TransportError):
            decode_payload(raw[: len(raw) // 2])
        with pytest.raises(TransportError):
            decode_payload(b"")

    def test_unknown_codec_raises(self):
        raw = encode_chunk([1], None).payload
        with pytest.raises(ValueError):
            decode_payload(raw, "gzip")


if HAVE_HYPOTHESIS:

    json_scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False),
        st.text(max_size=20),
    )

    arrays = st.builds(
        lambda seed, n: np.random.default_rng(seed).random(n),
        st.integers(0, 2**16),
        st.integers(0, 64),
    )

    payloads = st.lists(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(json_scalars, arrays),
            max_size=4,
        ),
        max_size=4,
    )

    @settings(max_examples=40, deadline=None)
    @given(values=payloads)
    def test_property_roundtrip_any_codec(values):
        encoded = encode_chunk(values, None)
        decoded, telemetry = decode_payload(encoded.payload, encoded.codec)
        assert telemetry is None
        assert canon(decoded) == canon(values)


class TestEngineTransport:
    def test_values_identical_across_executors(self):
        serial = run_units(array_probe, units(6), seed=1)
        assert serial.transport == "none"  # serial runs never encode
        for executor in ("process", "warm"):
            pooled = run_units(
                array_probe,
                units(6),
                seed=1,
                n_workers=2,
                executor=executor,
                chunk_size=2,
            )
            assert pooled.executor == executor
            assert pooled.transport == "pickle"
            assert canon(pooled.values) == canon(serial.values)

    def test_pooled_run_with_telemetry_and_arrays(self):
        result = run_units(
            rng_probe,
            units(8),
            seed=3,
            n_workers=2,
            executor="process",
            chunk_size=2,
            telemetry=TelemetrySpec(metrics=True),
        )
        assert result.transport == "pickle"
        assert result.values == run_units(rng_probe, units(8), seed=3).values
        snapshot = json.dumps(result.telemetry.transport_snapshot())
        assert "runner_chunk_bytes_total" in snapshot
        assert "pickle" in snapshot

    def test_corrupted_stream_retried_as_transport(self, monkeypatch):
        # The coordinator's digest check sees one mangled stream; the
        # chunk must re-run (reason "transport") and the values must
        # still equal a clean run's.
        import repro.runner.engine as engine

        real_digest = engine.payload_digest
        calls = []

        def flaky_digest(raw):
            calls.append(len(raw))
            return "0" * 32 if len(calls) == 1 else real_digest(raw)

        monkeypatch.setattr(engine, "payload_digest", flaky_digest)
        clean = run_units(rng_probe, units(6), seed=2)
        result = run_units(
            rng_probe,
            units(6),
            seed=2,
            n_workers=2,
            executor="process",
            chunk_size=2,
            retry=RetryPolicy(max_attempts=3),
        )
        assert result.retry_summary() == {"transport": 1}
        assert result.values == clean.values


class TestChaos:
    """Worker faults on the pickle channel keep values bit-identical."""

    def test_crash_faults_bit_identical(self, chaos):
        _, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(8),
            faults=chaos.faults(crash=(1, 5)),
            n_workers=2,
            executor="process",
            chunk_size=2,
        )
        assert chaotic.retries

    def test_worker_exit_faults_bit_identical(self, chaos):
        chaos.check_bit_identical(
            rng_probe,
            units(8),
            faults=chaos.faults(exit=(2,)),
            n_workers=2,
            executor="process",
            chunk_size=2,
        )

    def test_permanent_failure_raises(self):
        with pytest.raises(WorkUnitError):
            run_units(
                rng_probe,
                units(6),
                faults=FaultSpec(crash=(3,), failures=10**6),
                retry=RetryPolicy(max_attempts=2),
                n_workers=2,
                executor="process",
                chunk_size=2,
            )


class TestResume:
    def test_kill_and_resume_bit_identical(self, tmp_path, chaos):
        """A killed run's checkpoint resumes on a pool bit-identical."""
        spec = SweepSpec(
            axes={"x": list(range(8))}, seed=5, chunk_size=2
        )
        clean = run_sweep(rng_probe, spec)
        path = tmp_path / "ckpt.jsonl"
        chaos.partial_checkpoint(
            rng_probe, spec, str(path), crash_unit=5
        )
        resumed = run_sweep(
            rng_probe,
            spec,
            checkpoint=str(path),
            resume=True,
            n_workers=2,
            executor="process",
        )
        assert resumed.resumed_chunks > 0
        assert canon(resumed.values) == canon(clean.values)

    def test_checkpoint_records_carry_pickle_stream(self, tmp_path):
        """Chunks spilled from a pooled run reload from the worker bytes."""
        spec = SweepSpec(
            axes={"x": list(range(4))}, seed=2, chunk_size=2
        )
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(
            rng_probe,
            spec,
            checkpoint=str(path),
            n_workers=2,
            executor="process",
        )
        loaded = load_checkpoint(str(path))
        assert all(
            chunk.codec == "pickle" and chunk.payload_bytes > 0
            for chunk in loaded.chunks.values()
        )
        values = [
            v
            for _, chunk in sorted(loaded.chunks.items())
            for v in chunk.values
        ]
        assert canon(values) == canon(first.values)

    def test_checkpoint_record_with_other_codec_reruns(self, tmp_path):
        """A chunk line spilled by the retired shared-memory codec reruns.

        Older checkpoints may hold records whose ``codec`` names that
        codec (a protocol-5 stream with out-of-band buffers).  Loading skips
        such a line like any undecodable one, so resume re-runs that
        chunk and still matches an uninterrupted run bit-for-bit.
        """
        spec = SweepSpec(
            axes={"x": list(range(6))}, seed=9, chunk_size=2
        )
        clean = run_sweep(rng_probe, spec)
        path = tmp_path / "ckpt.jsonl"
        run_sweep(rng_probe, spec, checkpoint=str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        assert record["kind"] == "chunk"
        stream = b"RPC1" + bytes(12)
        record.update(
            codec="shm",
            payload=base64.b64encode(stream).decode("ascii"),
            payload_bytes=len(stream),
            digest=payload_digest(stream),
        )
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

        state = load_checkpoint(str(path))
        assert state.skipped_lines == 1
        assert record["chunk"] not in state.chunks
        resumed = run_sweep(rng_probe, spec, checkpoint=str(path))
        assert resumed.resumed_chunks == 2
        assert resumed.values == clean.values
        assert resumed.points == clean.points
