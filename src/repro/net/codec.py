"""Wire codec: length-prefixed framing + the value encoding of the envelopes.

Two layers, both independent of asyncio so they are unit-testable byte by
byte (the Hypothesis round-trip suite splits encoded streams at arbitrary
chunk boundaries):

**Value codec** — :func:`encode_value` / :func:`decode_value` translate
between Python objects and a JSON-safe tree.  It carries exactly what the
live node sends (``None``, ring-entry dicts, ``{"target": int}``, dicts of
arrays): the JSON scalars, lists, ``str``-keyed dicts and, bit-exactly,

* ``bytes`` — base64, tagged ``{"__bytes__": ...}``;
* NumPy arrays and scalars — raw-buffer base64 via
  :mod:`repro.util.arrays` (the same encoding the WAL uses on disk).

No class is ever constructed from network bytes: the most a frame can make
the decoder do is build lists, dicts, arrays and scalars.  The tag keys —
and ``__obj__`` / ``__msg__``, which tagged typed messages in earlier
versions and stay reserved — are refused as payload dict keys on encode,
and a value that carries one without being a well-formed tagged value is
refused on decode, always as :class:`CodecError`.  The RPC kinds registered
with ``register_rpc`` are the wire contract; :data:`WIRE_VERSION` is the
version of the envelope they travel in.

**Framing** — :class:`Framer` produces ``[u32 length][u8 format][body]``
frames (big-endian length of format byte + body) and :class:`FrameDecoder`
incrementally reassembles them from arbitrary chunk boundaries, with a
maximum-frame guard against corrupt or hostile length prefixes.  The body is
the serialised value tree: JSON (always available) or msgpack (when the
optional ``msgpack`` package is installed; negotiated per frame by the
format byte, so mixed-format peers interoperate).
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.util.arrays import decode_array, encode_array, is_encoded_array

try:  # optional accelerator; JSON is the always-available baseline
    import msgpack  # type: ignore[import-not-found]

    _HAVE_MSGPACK = True
except ImportError:  # pragma: no cover - exercised on hosts without msgpack
    msgpack = None
    _HAVE_MSGPACK = False

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "CodecError",
    "available_formats",
    "encode_value",
    "decode_value",
    "Framer",
    "FrameDecoder",
]

#: version of the envelope (its ``v`` field): the transport stamps it on every
#: frame and a listener ignores requests that carry another (bump on any
#: change to the envelope fields or the value encoding)
WIRE_VERSION = 1

#: refuse frames longer than this (corrupt length prefix / resource abuse)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: format byte -> name
_FMT_JSON = 0x4A  # "J"
_FMT_MSGPACK = 0x4D  # "M"
_FORMATS = {"json": _FMT_JSON, "msgpack": _FMT_MSGPACK}

_BYTES_TAG = "__bytes__"
_SCALAR_TAG = "__npscalar__"
#: tags of the retired typed-message vocabulary: still reserved, so a peer
#: that sends one is refused instead of handed a dict that looks like data
_OBJ_TAG = "__obj__"
_MSG_TAG = "__msg__"

#: dict keys user payloads may not use (they would be mistaken for tags)
_RESERVED_KEYS = frozenset({_OBJ_TAG, _MSG_TAG, _BYTES_TAG, _SCALAR_TAG, "__nd__"})


class CodecError(ValueError):
    """Malformed frame, reserved tag, or a value the wire does not carry."""


def available_formats() -> tuple[str, ...]:
    """Wire formats usable in this environment (JSON always; msgpack if
    the optional dependency is installed)."""
    return ("json", "msgpack") if _HAVE_MSGPACK else ("json",)


# -- value codec ----------------------------------------------------------------


def encode_value(obj: Any) -> Any:
    """Translate ``obj`` into a JSON-safe tree (see module docstring)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {_BYTES_TAG: base64.b64encode(obj).decode("ascii")}
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, np.generic):
        return {_SCALAR_TAG: None, "v": encode_array(np.asarray(obj))}
    if isinstance(obj, (list, tuple)):
        return [encode_value(v) for v in obj]
    if isinstance(obj, dict):
        out: dict[str, Any] = {}
        for key, val in obj.items():
            if not isinstance(key, str):
                raise CodecError(f"non-string dict key {key!r} cannot cross the wire")
            if key in _RESERVED_KEYS:
                raise CodecError(f"dict key {key!r} collides with a codec tag")
            out[key] = encode_value(val)
        return out
    raise CodecError(f"{type(obj).__name__} is not wire-encodable")


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`; every undecodable tree is a
    :class:`CodecError`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [decode_value(v) for v in obj]
    if not isinstance(obj, dict):
        raise CodecError(f"undecodable wire value of type {type(obj).__name__}")
    if _BYTES_TAG in obj:
        try:
            return base64.b64decode(obj[_BYTES_TAG])
        except (TypeError, ValueError) as exc:
            raise CodecError(f"malformed bytes payload: {exc}") from exc
    if is_encoded_array(obj):
        return _decode_array(obj)
    if _SCALAR_TAG in obj:
        inner = obj.get("v")
        if not is_encoded_array(inner):
            raise CodecError("malformed NumPy scalar payload: no encoded array under 'v'")
        arr = _decode_array(inner)
        if arr.size != 1:  # the encoder writes shape [1]: ascontiguousarray lifts 0-d
            raise CodecError(f"malformed NumPy scalar payload: shape {arr.shape}")
        return arr.reshape(())[()]
    if _OBJ_TAG in obj or _MSG_TAG in obj:
        raise CodecError(f"tags {_OBJ_TAG} / {_MSG_TAG} are reserved and carry no value")
    return {k: decode_value(v) for k, v in obj.items()}


def _decode_array(payload: dict[str, Any]) -> np.ndarray:
    try:
        return decode_array(payload)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


# -- framing --------------------------------------------------------------------


class Framer:
    """Serialises values into ``[u32 length][u8 format][body]`` frames."""

    def __init__(self, fmt: str = "json") -> None:
        if fmt not in _FORMATS:
            raise CodecError(f"unknown wire format {fmt!r}")
        if fmt == "msgpack" and not _HAVE_MSGPACK:
            raise CodecError("msgpack format requested but msgpack is not installed")
        self.fmt = fmt
        self._fmt_byte = _FORMATS[fmt]

    def encode(self, obj: Any) -> bytes:
        tree = encode_value(obj)
        if self.fmt == "msgpack":
            body = msgpack.packb(tree, use_bin_type=True)
        else:
            body = json.dumps(tree, separators=(",", ":")).encode("utf-8")
        length = len(body) + 1
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        return length.to_bytes(4, "big") + bytes((self._fmt_byte,)) + body


class FrameDecoder:
    """Incremental frame reassembly from arbitrary chunk boundaries.

    Feed any byte slicing of a frame stream; complete frames come back
    decoded, partial ones wait in the buffer.  Raises :class:`CodecError`
    on oversized or undecodable frames (the connection should be dropped —
    framing is unrecoverable once misaligned).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Any]:
        self._buf.extend(data)
        out: list[Any] = []
        while True:
            if len(self._buf) < 4:
                return out
            length = int.from_bytes(self._buf[:4], "big")
            if length < 1 or length > MAX_FRAME_BYTES:
                raise CodecError(f"invalid frame length {length}")
            if len(self._buf) < 4 + length:
                return out
            fmt_byte = self._buf[4]
            body = bytes(self._buf[5 : 4 + length])
            del self._buf[: 4 + length]
            out.append(self._decode_body(fmt_byte, body))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buf)

    @staticmethod
    def _decode_body(fmt_byte: int, body: bytes) -> Any:
        if fmt_byte == _FMT_JSON:
            try:
                tree = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError, RecursionError) as exc:
                raise CodecError(f"undecodable JSON frame: {exc}") from exc
        elif fmt_byte == _FMT_MSGPACK:
            if not _HAVE_MSGPACK:
                raise CodecError("received a msgpack frame but msgpack is not installed")
            try:
                tree = msgpack.unpackb(body, raw=False)
            except Exception as exc:
                raise CodecError(f"undecodable msgpack frame: {exc}") from exc
        else:
            raise CodecError(f"unknown frame format byte {fmt_byte:#x}")
        try:
            return decode_value(tree)
        except RecursionError as exc:  # nested past what the parser refuses
            raise CodecError(f"frame nests too deeply: {exc}") from exc
