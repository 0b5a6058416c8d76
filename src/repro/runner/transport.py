"""Chunk payload codec for the runner's result and checkpoint channels.

Every chunk a worker completes has to cross two boundaries: the
process boundary back to the coordinator, and (optionally) the spill
boundary into a checkpoint file.  Both crossings share one encoding:
the worker pickles ``(values, telemetry)`` once into an inline byte
stream, the coordinator verifies the stream's BLAKE2b digest and
decodes it, and the checkpoint writer spills the same bytes instead of
re-pickling — values are encoded exactly once per chunk no matter how
many boundaries they cross.

The stream records its codec name (``"pickle"``, the only one) so a
checkpoint record written with any other codec fails to decode and is
skipped, which makes its chunk re-run on resume.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CODEC",
    "EncodedChunk",
    "TransportError",
    "TransportEvent",
    "decode_payload",
    "encode_chunk",
    "payload_digest",
]

#: The codec every chunk stream is encoded with.
CODEC = "pickle"

_DIGEST_BYTES = 16


class TransportError(RuntimeError):
    """A chunk payload could not be decoded."""


@dataclass(frozen=True)
class EncodedChunk:
    """One chunk payload, encoded but not yet crossed to the coordinator.

    Attributes:
        codec: always ``"pickle"``.
        payload: the byte stream.
        nbytes: length of the stream in bytes.
        digest: BLAKE2b hexdigest of the stream (integrity check; the
            checkpoint layer reuses it verbatim).
        encode_s: wall-clock seconds spent encoding.
    """

    codec: str
    payload: bytes
    nbytes: int
    digest: str
    encode_s: float


@dataclass(frozen=True)
class TransportEvent:
    """One chunk payload's trip across the process boundary.

    Collected by the coordinator as it decodes chunk outcomes; feeds
    ``runner_chunk_bytes_total{codec}`` and
    ``runner_chunk_encode_seconds`` through
    :meth:`repro.obs.aggregate.TelemetryAggregate.record_transport`
    and the live :meth:`repro.obs.telemetry.Telemetry.on_chunk_transport`
    hook.
    """

    chunk_index: int
    codec: str
    nbytes: int
    encode_s: float
    decode_s: float


def payload_digest(raw: bytes | bytearray | memoryview) -> str:
    """BLAKE2b integrity digest of an encoded stream."""
    return hashlib.blake2b(raw, digest_size=_DIGEST_BYTES).hexdigest()


def encode_chunk(
    values: list[Any], telemetry: dict[str, Any] | None
) -> EncodedChunk:
    """Encode one chunk payload into an inline pickle stream."""
    start = time.perf_counter()
    raw = pickle.dumps(
        (values, telemetry), protocol=pickle.HIGHEST_PROTOCOL
    )
    return EncodedChunk(
        codec=CODEC,
        payload=raw,
        nbytes=len(raw),
        digest=payload_digest(raw),
        encode_s=time.perf_counter() - start,
    )


def decode_payload(
    raw: bytes | bytearray, codec: str = CODEC
) -> tuple[list[Any], dict[str, Any] | None]:
    """Decode a stream produced by :func:`encode_chunk`.

    Raises ``ValueError`` for a codec other than ``"pickle"`` and
    :class:`TransportError` for a truncated or mangled stream.
    """
    if codec != CODEC:
        raise ValueError(f"unknown transport codec {codec!r}")
    try:
        values, telemetry = pickle.loads(raw)
    except (pickle.UnpicklingError, EOFError) as exc:
        raise TransportError(
            f"chunk stream truncated or corrupt: {exc}"
        ) from exc
    return values, telemetry
