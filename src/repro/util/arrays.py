"""Bit-exact array <-> JSON-safe wire/disk encoding.

The persistence layer (WAL + snapshots in :mod:`repro.core.storage`) and the
live network codec (:mod:`repro.net.codec`) both need to move NumPy arrays
through JSON without losing a single bit: crash recovery asserts the restored
shard is *bit-identical* to the pre-crash one, and a float round-tripped
through decimal text is not guaranteed to be.  The encoding is therefore the
raw little-endian buffer, base64-armoured, plus dtype and shape:

    {"__nd__": "<f8", "shape": [3, 2], "data": "<base64>"}

Decoding accepts only exact non-negative ``int`` shape entries and validates
the payload length against ``dtype.itemsize * prod(shape)``, so a truncated
or tampered record fails loudly instead of producing a silently short or
reshaped array.  The base64 is :mod:`binascii`'s, called directly.

:func:`issparse` is the one sparse-matrix test of the package: it answers
without importing SciPy, so dense and live runs never load it; :func:`take`
indexes a dataset of any of the three kinds.
"""

from __future__ import annotations

import binascii
import sys
from _json import encode_basestring_ascii, make_encoder
from collections.abc import Callable
from math import prod
from typing import Any

import numpy as np

__all__ = ["TAG", "encode_array", "decode_array", "compact_json_encoder", "issparse"]

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
        "data": binascii.b2a_base64(a.tobytes(), newline=False).decode("ascii"),
    }


def decode_array(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; raises ``ValueError`` on corruption."""
    try:
        dtype = np.dtype(payload[TAG])  # a dict spelling can overflow
        shape = payload["shape"]
        raw = binascii.a2b_base64(payload["data"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed array payload: {exc}") from exc
    # a list of exact non-negative ints: not 2.9, "2", True or a string
    if type(shape) is not list:
        raise ValueError(f"malformed array payload: shape {shape!r}")
    for s in shape:
        if type(s) is not int or s < 0:
            raise ValueError(f"malformed array payload: shape {shape!r}")
    shape = tuple(shape)
    expected = dtype.itemsize * prod(shape)
    if len(raw) != expected:
        raise ValueError(
            f"array payload carries {len(raw)} bytes, "
            f"dtype {dtype.str} x shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def compact_json_encoder(default: Callable[[Any], Any]) -> make_encoder:
    """The C encoder ``json.JSONEncoder(separators=(",", ":"), default=default)``
    builds on every ``encode`` call (``ensure_ascii`` and ``allow_nan`` on),
    for the WAL and the wire codec to build once: ``"".join(enc(value, 0))``
    is the text that ``encode`` returns.  It keeps no circular-reference
    markers, because a shared markers dict would keep the ids of a failed
    encode; a cycle recurses until ``RecursionError`` instead."""
    return make_encoder(None, default, encode_basestring_ascii, None, ":", ",",
                        False, False, True)


def issparse(x: Any) -> bool:
    """``scipy.sparse.issparse(x)``, without importing SciPy: a sparse
    matrix can only exist once ``scipy.sparse`` has been imported."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and bool(sp.issparse(x))


def take(dataset: Any, idx: Any) -> Any:
    """Index a dataset that may be an ndarray, CSR matrix or plain sequence.

    A sequence answers as an array would: a scalar index — 0-d arrays
    included — is one object, any other index a list of them."""
    if issparse(dataset) or isinstance(dataset, np.ndarray):
        return dataset[idx]
    if np.ndim(idx) == 0:
        return dataset[int(idx)]
    return [dataset[int(i)] for i in np.atleast_1d(idx)]
