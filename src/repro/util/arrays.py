"""Bit-exact array <-> JSON-safe wire/disk encoding.

The persistence layer (WAL + snapshots in :mod:`repro.core.storage`) and the
live network codec (:mod:`repro.net.codec`) both need to move NumPy arrays
through JSON without losing a single bit: crash recovery asserts the restored
shard is *bit-identical* to the pre-crash one, and a float round-tripped
through decimal text is not guaranteed to be.  The encoding is therefore the
raw little-endian buffer, base64-armoured, plus dtype and shape:

    {"__nd__": "<f8", "shape": [3, 2], "data": "<base64>"}

Decoding validates the payload length against ``dtype.itemsize * prod(shape)``
so a truncated or tampered record fails loudly instead of producing a
silently short array.
"""

from __future__ import annotations

import base64
from math import prod
from typing import Any

import numpy as np

__all__ = ["TAG", "encode_array", "decode_array"]

#: marker key of an encoded array payload
TAG = "__nd__"


def encode_array(arr: np.ndarray) -> dict[str, Any]:
    """JSON-safe dict representation of ``arr``, bit-exact on round-trip."""
    a = np.ascontiguousarray(arr)
    # normalise to little-endian so the encoding is machine-independent
    dt = a.dtype.newbyteorder("<")
    if dt != a.dtype:
        a = a.astype(dt)
    return {
        TAG: a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; raises ``ValueError`` on corruption."""
    try:
        dtype = np.dtype(payload[TAG])
        shape = tuple(int(s) for s in payload["shape"])
        raw = base64.b64decode(payload["data"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"malformed array payload: {exc}") from exc
    expected = dtype.itemsize * prod(shape)
    if len(raw) != expected:
        raise ValueError(
            f"array payload carries {len(raw)} bytes, "
            f"dtype {dtype.str} x shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
