"""Wire codec: length-prefixed framing + the value encoding of the envelopes.

Independent of asyncio, so it is unit-testable byte by byte (the Hypothesis
round-trip suite splits encoded streams at arbitrary chunk boundaries).

**Values** — a frame body is JSON.  It carries exactly what the live node
sends (``None``, ring-entry dicts, ``{"target": int}``, dicts of arrays): the
JSON scalars, lists, ``str``-keyed dicts and, bit-exactly,

* ``bytes`` — base64, tagged ``{"__bytes__": ...}``;
* NumPy arrays and scalars — raw-buffer base64 via
  :mod:`repro.util.arrays` (the same encoding the WAL uses on disk).

The walk over a value runs inside the C JSON encoder and parser, one C call
per frame each way.  The C encoder is built once per process (what
``JSONEncoder(separators=(",", ":"), default=...).iterencode`` builds on every
call) and calls back into Python only for those three kinds of leaf.  The C
parser is ``JSONDecoder.raw_decode``, without ``decode``'s two whitespace
regexes: a body is refused unless its value ends it, and only a body whose
first or last character is JSON whitespace (which ``json.loads`` skips and no
peer of ours writes) is stripped first.  The parser calls back once per JSON
object, innermost first — and not at all for a body that holds neither
``"__`` nor ``\\u``, where no tag can be.  No class is ever
constructed from network bytes: the most a frame can make the decoder do is
build lists, dicts, arrays and scalars.  The tag keys — and ``__obj__`` / ``__msg__``, which
tagged typed messages in earlier versions and stay reserved — are refused as
payload dict keys on encode, and an object that carries one without being a
well-formed tagged value is refused on decode, always as
:class:`CodecError`.  The RPC kinds registered with ``register_rpc`` are the
wire contract; :data:`WIRE_VERSION` is the version of the envelope they
travel in.

**Framing** — :class:`Framer` produces ``[u32 length][u8 format][body]``
frames (big-endian length of format byte + body; the format byte is ``J``)
and :class:`FrameDecoder` incrementally reassembles them from arbitrary
chunk boundaries, with a maximum-frame guard against corrupt or hostile
length prefixes.
"""

from __future__ import annotations

import binascii
import json
from typing import Any

import numpy as np

from repro.util.arrays import TAG as _ND_TAG, compact_json_encoder, decode_array, encode_array

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "CodecError",
    "Framer",
    "FrameDecoder",
]

#: version of the envelope (its ``v`` field): the transport stamps it on every
#: frame and a listener ignores requests that carry another (bump on any
#: change to the envelope fields or the value encoding)
WIRE_VERSION = 1

#: refuse frames longer than this (corrupt length prefix / resource abuse)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: the format byte of a JSON body (the only format)
_FMT_JSON = b"J"

_BYTES_TAG = "__bytes__"
_SCALAR_TAG = "__npscalar__"
#: tags of the retired typed-message vocabulary: still reserved, so a peer
#: that sends one is refused instead of handed a dict that looks like data
_OBJ_TAG = "__obj__"
_MSG_TAG = "__msg__"

#: dict keys user payloads may not use (they would be mistaken for tags)
_RESERVED_KEYS = frozenset({_OBJ_TAG, _MSG_TAG, _BYTES_TAG, _SCALAR_TAG, _ND_TAG})


class CodecError(ValueError):
    """Malformed frame, reserved tag, or a value the wire does not carry."""


# -- values ---------------------------------------------------------------------


_CONTAINERS = (dict, list, tuple)


def _check_keys(obj: Any) -> None:
    """Refuse, in the container ``obj``, the dict keys the JSON encoder would
    coerce to strings or the decoder mistake for a tag.  Visits containers
    only: the leaves are the encoder's."""
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise CodecError(f"non-string dict key {key!r} cannot cross the wire")
            if key in _RESERVED_KEYS:
                raise CodecError(f"dict key {key!r} collides with a codec tag")
        obj = obj.values()
    for val in obj:
        if isinstance(val, _CONTAINERS):
            _check_keys(val)


def _encode_leaf(obj: Any) -> Any:
    """``default`` of the JSON encoder: the leaves JSON has no spelling for."""
    if isinstance(obj, bytes):
        return {_BYTES_TAG: binascii.b2a_base64(obj, newline=False).decode("ascii")}
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, np.generic):
        return {_SCALAR_TAG: None, "v": encode_array(np.asarray(obj))}
    raise CodecError(f"{type(obj).__name__} is not wire-encodable")


def _decode_object(obj: dict[str, Any]) -> Any:
    """``object_hook`` of the JSON parser: called per object, innermost first,
    so the values of ``obj`` are decoded already."""
    if _RESERVED_KEYS.isdisjoint(obj):
        return obj
    if _BYTES_TAG in obj:
        data = obj[_BYTES_TAG]
        if not isinstance(data, str):
            raise CodecError(f"malformed bytes payload: {type(data).__name__} for base64 text")
        try:
            return binascii.a2b_base64(data)
        except ValueError as exc:
            raise CodecError(f"malformed bytes payload: {exc}") from exc
    if _ND_TAG in obj:
        try:
            return decode_array(obj)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc
    if _SCALAR_TAG in obj:
        arr = obj.get("v")
        if not isinstance(arr, np.ndarray):
            raise CodecError("malformed NumPy scalar payload: no encoded array under 'v'")
        if arr.size != 1:  # the encoder writes shape [1]: ascontiguousarray lifts 0-d
            raise CodecError(f"malformed NumPy scalar payload: shape {arr.shape}")
        return arr.reshape(())[()]
    raise CodecError(f"tags {_OBJ_TAG} / {_MSG_TAG} are reserved and carry no value")


#: built once; it keeps no circular-reference markers, but ``_check_keys``
#: walks every container first, so a cycle ends there
_ENCODE = compact_json_encoder(_encode_leaf)
_DECODE = json.JSONDecoder(object_hook=_decode_object).raw_decode
#: what :data:`_DECODE` does to a body that can hold no reserved key
_DECODE_PLAIN = json.JSONDecoder().raw_decode
#: what ``json.loads`` skips around the value
_JSON_WS = " \t\n\r"


# -- framing --------------------------------------------------------------------


class Framer:
    """Serialises values into ``[u32 length][u8 format][body]`` frames."""

    def __init__(self, fmt: str = "json") -> None:
        if fmt != "json":
            raise CodecError(f"unknown wire format {fmt!r}")
        self.fmt = fmt

    def encode(self, obj: Any) -> bytes:
        try:
            if isinstance(obj, _CONTAINERS):
                _check_keys(obj)
            body = "".join(_ENCODE(obj, 0)).encode("utf-8")
        except RecursionError as exc:  # a cycle, or nesting past the interpreter's limit
            raise CodecError(f"value nests too deeply: {exc}") from exc
        length = len(body) + 1
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        return length.to_bytes(4, "big") + _FMT_JSON + body


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
            fmt, body = self._buf[4:5], self._buf[5 : 4 + length]
            del self._buf[: 4 + length]
            out.append(self._decode_body(fmt, body))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buf)

    @staticmethod
    def _decode_body(fmt: bytearray, body: bytearray) -> Any:
        if fmt != _FMT_JSON:
            raise CodecError(f"unknown frame format byte {fmt[0]:#x}")
        try:
            text = body.decode("utf-8")
            # json.loads skips whitespace around the value; no peer of ours
            # writes any, so a frame pays a one-character test at each end
            # (an empty body takes the strip too: "" is in every str)
            if text[:1] in _JSON_WS or text[-1:] in _JSON_WS:
                text = text.strip(_JSON_WS)
            # every reserved key starts with "__", which raw JSON can only
            # spell as "__ or with a \u escape: without either, the hook
            # would hand every object back unchanged
            value, end = (_DECODE if '"__' in text or "\\u" in text else _DECODE_PLAIN)(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
            return value
        except CodecError:
            raise
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise CodecError(f"undecodable JSON frame: {exc}") from exc
