"""Wire-codec properties: round trips, framing, chunk splits, hostile frames.

Hypothesis drives three invariants end to end:

* **value round trip** — any encodable value tree (scalars, bytes, arrays,
  NumPy scalars, lists, str-keyed dicts) survives encode → frame → decode
  bit-exactly;
* **chunk-boundary independence** — a frame stream split at *arbitrary*
  byte boundaries decodes to the same values in the same order (the
  property that makes the TCP receive path correct no matter how the
  kernel slices the stream);
* **one error type** — any JSON tree, salted with the codec's reserved tag
  keys, either decodes or raises :class:`CodecError`; the links of
  ``TcpTransport`` catch nothing else;
* **no hook, same value** — a body the decoder parses without its tag hook
  (no ``"__``, no ``\\u``) decodes to what the hooked parser makes of it;
* **floats as JSON numbers** — a rectangle sent as lists of floats comes
  back bit-exact.

Plus directed tests for the failure modes (reserved keys and tags, corrupt
length prefixes, truncated arrays, malformed tagged values), the byte
fixtures that pin every frame the live node speaks
(``tests/fixtures/wire_pr18.json``, written by an earlier commit, and
``wire_tiled.json`` for the list-rectangle and ``tiled`` shapes of
``range_solve`` that came after it), and the live cases: an envelope of
another ``WIRE_VERSION`` gets no answer, and a hostile frame — or a frame
that decodes to an envelope with a field of the wrong type — costs its own
connection, nothing more.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import struct
import warnings
from pathlib import Path
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net import codec
from repro.net.codec import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    Framer,
)
from repro.net.transport import RpcTimeout, TcpTransport
from repro.util.arrays import decode_array, encode_array

from tests.net_helpers import json_frame

WIRE_FIXTURE = Path(__file__).parent / "fixtures" / "wire_pr18.json"
WIRE_TILED_FIXTURE = Path(__file__).parent / "fixtures" / "wire_tiled.json"
RESERVED_KEYS = ("__msg__", "__obj__", "__bytes__", "__nd__", "__npscalar__")

# -- strategies -----------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),  # NaN != NaN breaks equality, not the codec
    st.text(max_size=40),
    st.binary(max_size=64),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float32),
)

small_arrays = st.one_of(
    st.lists(st.floats(allow_nan=False, width=64), max_size=8).map(
        lambda v: np.asarray(v, dtype=np.float64)),
    st.lists(st.integers(0, 2**63 - 1), max_size=8).map(
        lambda v: np.asarray(v, dtype=np.uint64)),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8).map(
        lambda v: np.asarray(v, dtype=np.int64)),
)

trees = st.recursive(
    st.one_of(scalars, small_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(min_size=1, max_size=10).filter(lambda s: not s.startswith("__")),
            children, max_size=4),
    ),
    max_leaves=12,
)

#: what a peer that ignores the encoder can put in a JSON frame: any JSON
#: tree, its dicts keyed by the reserved tags and by the field names the
#: tagged values use ("v", "shape", "data") as often as by anything else
hostile_trees = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=12),
        st.sampled_from(["<f8", "<u8", "|O", "V0", "AAAA", "AAAAAAAAAAA=", "i4,i4"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(RESERVED_KEYS + ("v", "shape", "data")) | st.text(max_size=4),
            children, max_size=5),
    ),
    max_leaves=16,
)


def round_trip(value: Any) -> Any:
    (out,) = FrameDecoder().feed(Framer("json").encode(value))
    return out


def assert_same(a, b) -> None:
    """Structural equality across the types the codec carries."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit-exact, not approx
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, list)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert isinstance(b, dict)
        assert set(a) == set(b)
        for k in a:
            assert_same(a[k], b[k])
    else:
        assert a == b and type(a) is type(b)


# -- properties -----------------------------------------------------------------


@given(trees)
def test_value_round_trip(value):
    assert_same(value, round_trip(value))


@pytest.mark.parametrize("fmt", ["json"])
@given(values=st.lists(trees, min_size=1, max_size=5), data=st.data())
def test_frame_stream_survives_arbitrary_chunking(fmt, values, data):
    framer = Framer(fmt)
    stream = b"".join(framer.encode(v) for v in values)
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(stream)), max_size=8)))
    decoder = FrameDecoder()
    out = []
    prev = 0
    for cut in cuts + [len(stream)]:
        out.extend(decoder.feed(stream[prev:cut]))
        prev = cut
    assert decoder.pending_bytes == 0
    assert len(out) == len(values)
    for want, got in zip(values, out):
        assert_same(want, got)


def _canonical(value: Any) -> Any:
    """``value`` as plain data that ``==`` compares exactly: arrays by dtype,
    shape and bytes, floats by their bits (so NaN equals NaN and -0.0 is not
    0.0), and every other scalar with its type."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return [(k, _canonical(v)) for k, v in value.items()]
    if isinstance(value, float):
        return (type(value), struct.pack("<d", value))
    return (type(value), value)


def _decoded(frame: bytes) -> Any:
    try:
        (value,) = FrameDecoder().feed(frame)
    except CodecError as exc:
        return ("CodecError", str(exc))
    return _canonical(value)


@given(hostile_trees, st.data())
def test_a_body_with_no_tag_spelling_decodes_as_with_the_hook(tree, data):
    """``FrameDecoder`` skips the tag hook on a body that holds neither
    ``"__`` nor ``\\u``.  For any JSON tree — its keys drawn from the
    reserved tags as often as not, and each ``"__`` of the text spelled
    ``"\\u005f_`` at random — the frame decodes to what the hooked parser
    makes of it, or fails with the same :class:`CodecError`."""
    body = json.dumps(tree)
    escape = data.draw(st.lists(st.booleans(), min_size=body.count('"__'),
                                max_size=body.count('"__')))
    parts = body.split('"__')
    body = parts[0] + "".join(('"\\u005f_' if e else '"__') + p
                              for e, p in zip(escape, parts[1:]))
    frame = (len(body.encode()) + 1).to_bytes(4, "big") + b"J" + body.encode()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # NumPy's dtype-spelling deprecations
        got = _decoded(frame)
        with mock.patch.object(codec, "_DECODE_PLAIN", codec._DECODE):
            assert _decoded(frame) == got


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=8))
def test_a_rectangle_as_json_numbers_round_trips_bit_exactly(values):
    """A rectangle travels as lists of Python floats: ``repr`` spells every
    float64 so that it parses back to the same bits, ±inf, -0.0 and
    subnormals included; NaN comes back as the one NaN float64 NumPy and
    Python make."""
    bound = np.array(values, dtype=np.float64)
    bound[np.isnan(bound)] = np.nan
    payload = {"lows": bound.tolist(), "highs": bound[::-1].tolist(), "key_lo": 1, "key_hi": 2}
    got = round_trip(payload)
    assert np.asarray(got["lows"], dtype=np.float64).tobytes() == bound.tobytes()
    assert np.asarray(got["highs"], dtype=np.float64).tobytes() == bound[::-1].tobytes()


def test_the_special_floats_of_a_rectangle_cross_the_wire():
    bound = np.array([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                      2.2250738585072009e-308, 1.7976931348623157e308, 0.1])
    wire = Framer("json").encode({"lows": bound.tolist()})
    assert b"Infinity" in wire and b"NaN" in wire and b"-0.0" in wire
    (got,) = FrameDecoder().feed(wire)
    assert np.asarray(got["lows"]).tobytes() == bound.tobytes()


@given(hostile_trees)
def test_hostile_tree_decodes_or_raises_codec_error(tree):
    with warnings.catch_warnings():
        # NumPy deprecates dtype spellings by warning; the suite turns
        # warnings into errors, a live node does not
        warnings.simplefilter("ignore")
        try:
            FrameDecoder().feed(json_frame(tree))
        except CodecError:
            pass


def test_byte_by_byte_feed():
    framer = Framer("json")
    msg = {"v": WIRE_VERSION, "t": "req", "kind": "lookup_step", "rid": 7,
           "payload": {"target": 2**63 + 5}}
    stream = framer.encode(msg) + framer.encode({"tail": [1, 2, 3]})
    decoder = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(decoder.feed(stream[i:i + 1]))
    assert out == [msg, {"tail": [1, 2, 3]}]


# -- the frames the live node speaks --------------------------------------------


def _wire_envelopes() -> dict[str, dict[str, Any]]:
    """One ``req`` and one ``res`` envelope per payload shape of
    ``net/node.py`` and ``net/cluster.py``, field order as
    ``TcpTransport.rpc`` / ``_dispatch`` write it.  The two fixtures hold
    the bytes ``Framer("json").encode`` produced for these at the commit
    named in each one's ``written_by`` (its ``recipe`` field says how)."""
    entry = {"id": 2**63 + 5, "addr": "127.0.0.1:7001", "name": "n1"}
    succ = {"id": 17, "addr": "127.0.0.1:7002", "name": "n2"}
    batch = {
        "keys": np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        "points": np.array([[0.1, -2.5], [1e-300, 3.0], [7.0, 1e300]], dtype=np.float64),
        "ids": np.array([-1, 0, 2**62], dtype=np.int64),
    }
    rect = {"lows": np.array([0.0, 0.25]), "highs": np.array([0.5, 1.0])}
    #: (fixture name, RPC kind, request payload, reply payload)
    shapes: list[tuple[str, str, Any, Any]] = [
        ("ping", "ping", None, entry),
        ("get_successor", "get_successor", None, succ),
        ("get_successor_list", "get_successor_list", None, [succ, entry]),
        ("get_predecessor", "get_predecessor", None, None),
        ("notify", "notify", entry, {"ok": True}),
        ("lookup_step.next", "lookup_step", {"target": 2**64 - 3}, {"next": [succ, entry]}),
        ("lookup_step.owner", "lookup_step", {"target": 0}, {"owner": entry}),
        ("insert", "insert", batch, {"accepted": 3, "seq": 12}),
        ("route_insert", "route_insert", batch, {"accepted": 3}),
        ("range_solve", "range_solve",
         {**rect, "key_lo": 2**40, "key_hi": 2**41 - 1},
         {"ids": np.array([4, 9], dtype=np.int64), "arc": [17, 2**63 + 5],
          "successors": [succ]}),
        ("range_solve.not_owner", "range_solve",
         {**rect, "key_lo": 0, "key_hi": 2**64 - 1},
         {"not_owner": True, "predecessor": succ}),
        ("query", "query", rect, {"ids": np.empty(0, dtype=np.int64)}),
        ("status", "status", None, {
            "id": 17, "name": "n2", "addr": "127.0.0.1:7002", "predecessor": entry,
            "successors": [entry], "entries": 512, "digest": "9f2c" * 16,
            "wal_records": 3, "stats": {"sent": 40, "delivered": 38}}),
        ("snapshot", "snapshot", None, {"ok": True, "digest": "00ff" * 16}),
        ("unknown_kind", "nope", None, {"__rpc_error__": "no handler for 'nope'"}),
        # newer than wire_pr18.json, so their rids come last: a querying peer
        # sends the rectangle as JSON numbers, and says "tiled" once its ring
        # view tiles the ring (no successors come back)
        ("range_solve.lists", "range_solve",
         {"lows": [0.0, 0.25], "highs": [0.5, 1.0], "key_lo": 2**40, "key_hi": 2**41 - 1},
         {"ids": np.array([4, 9], dtype=np.int64), "arc": [17, 2**63 + 5],
          "successors": [succ]}),
        ("range_solve.tiled", "range_solve",
         {"lows": [-0.0, float("-inf"), 5e-324], "highs": [0.1, float("inf"), 1e300],
          "key_lo": 0, "key_hi": 2**64 - 1, "tiled": True},
         {"ids": np.array([4, 9], dtype=np.int64), "arc": [17, 2**63 + 5]}),
    ]
    src = {"id": 17, "host": 2, "addr": "127.0.0.1:7002"}
    out: dict[str, dict[str, Any]] = {}
    for rid, (name, kind, request, reply) in enumerate(shapes, start=1):
        out[f"{name}:req"] = {
            "v": WIRE_VERSION, "t": "req", "kind": kind, "rid": rid, "src": src,
            "qid": None, "size": 0, "sent_at": 12.345678, "payload": request}
        out[f"{name}:res"] = {"v": WIRE_VERSION, "t": "res", "rid": rid, "payload": reply}
    return out


def _assert_fixture_frames(path: Path) -> set[str]:
    """Each frame of the fixture at ``path`` is what ``Framer`` writes for
    its envelope and decodes back to it; returns the names it pins."""
    frames = json.loads(path.read_text())["frames"]
    envelopes = _wire_envelopes()
    assert set(frames) <= set(envelopes)
    framer = Framer("json")
    for name, hexed in frames.items():
        wire = bytes.fromhex(hexed)
        assert framer.encode(envelopes[name]) == wire, name
        (got,) = FrameDecoder().feed(wire)
        assert_same(envelopes[name], got)
    return set(frames)


def test_wire_bytes_match_the_parent_written_fixture():
    assert len(_assert_fixture_frames(WIRE_FIXTURE)) == 30


def test_wire_bytes_of_the_list_rectangle_and_tiled_shapes_match_their_fixture():
    """The shapes ``wire_pr18.json`` predates are pinned by a fixture of
    their own; between them the two pin every envelope above."""
    new = _assert_fixture_frames(WIRE_TILED_FIXTURE)
    assert new | _assert_fixture_frames(WIRE_FIXTURE) == set(_wire_envelopes())
    assert new == {f"range_solve.{shape}:{t}" for shape in ("lists", "tiled")
                   for t in ("req", "res")}


# -- directed failure modes -----------------------------------------------------


def test_unknown_message_and_object_tags_rejected():
    # the typed vocabulary is gone: its tags build nothing, whatever they name
    for tree in ({"__msg__": "ResultMessage", "__v__": 1, "qid": 1, "entries": 3,
                  "from_node": None},
                 {"__msg__": "NopeMessage", "__v__": 1},
                 {"__obj__": "ResultEntry", "object_id": 1, "distance": 0.5},
                 {"__obj__": "Nope"}):
        with pytest.raises(CodecError, match="reserved"):
            FrameDecoder().feed(json_frame(tree))
        with pytest.raises(CodecError, match="reserved"):
            FrameDecoder().feed(json_frame({"payload": [tree]}))


def test_reserved_payload_keys_rejected():
    for key in RESERVED_KEYS:
        with pytest.raises(CodecError, match="collides"):
            Framer("json").encode({"data": [{key: 1}]})


@pytest.mark.parametrize("tree", [
    {"__npscalar__": None},
    {"__npscalar__": None, "v": 3},
    {"__npscalar__": None, "v": [1]},
    {"__npscalar__": None, "v": encode_array(np.arange(2))},  # two values
    {"__nd__": "<f8", "shape": [float("inf")], "data": ""},
    {"__bytes__": 7},
], ids=["scalar-no-v", "scalar-int-v", "scalar-list-v", "scalar-2-values",
        "array-inf-shape", "bytes-int"])
def test_malformed_tagged_values_raise_codec_error(tree):
    with pytest.raises(CodecError):
        FrameDecoder().feed(json_frame(tree))
    with pytest.raises(CodecError):
        FrameDecoder().feed(json_frame({"v": WIRE_VERSION, "t": "req", "payload": [tree]}))


def test_tagged_value_with_a_malformed_sibling_raises_codec_error():
    # objects are decoded innermost first, so a tag does not hide what sits beside it
    good = {"__bytes__": "AAAA"}
    (value,) = FrameDecoder().feed(json_frame({**good, "note": [1, "x"]}))
    assert value == b"\x00\x00\x00"
    for sibling in ({"__npscalar__": None}, {"__bytes__": 7}, {"__obj__": "X"}):
        with pytest.raises(CodecError):
            FrameDecoder().feed(json_frame({**good, "note": sibling}))
    with pytest.raises(CodecError):  # nor is a tagged value accepted where base64 text goes
        FrameDecoder().feed(json_frame({"__bytes__": good}))


def test_deeply_nested_frame_decodes_or_raises_codec_error():
    """Whatever the interpreter's recursion limit makes of the depth, ``feed``
    returns a value or raises ``CodecError`` — never ``RecursionError``."""
    for depth in (900, 100_000):  # nothing recurses in Python; the C parser gives up in between
        body = b"[" * depth + b"]" * depth
        try:
            (value,) = FrameDecoder().feed((len(body) + 1).to_bytes(4, "big") + b"J" + body)
        except CodecError:
            continue
        for _ in range(depth - 1):
            (value,) = value
        assert value == []


def test_value_nested_past_the_recursion_limit_is_a_codec_error_on_encode():
    value: list[Any] = []
    for _ in range(100_000):
        value = [value]
    cycle: list[Any] = []
    cycle.append({"again": cycle})
    for hostile in (value, cycle):
        with pytest.raises(CodecError, match="nests too deeply"):
            Framer("json").encode(hostile)


def test_non_string_keys_rejected():
    for value in ({1: "x"}, {"a": [{None: 1}]}, {"a": ({2.5: 1},)}):
        with pytest.raises(CodecError, match="non-string"):
            Framer("json").encode(value)


def test_unencodable_type_rejected():
    for value in (object(), {"a": [{1, 2}]}, {"a": 1j}):
        with pytest.raises(CodecError, match="not wire-encodable"):
            Framer("json").encode(value)


def test_only_the_json_format_exists():
    for fmt in ("msgpack", "", "JSON"):
        with pytest.raises(CodecError, match="unknown wire format"):
            Framer(fmt)
    with pytest.raises(CodecError, match="unknown frame format byte 0x4d"):
        FrameDecoder().feed((2).to_bytes(4, "big") + b"M\x80")


def test_float_subclass_tuple_and_bytes_encode_as_at_the_parent_commit():
    # np.float64 is a float to the encoder (no tag, comes back a float), a tuple
    # a list; the hex is what Framer("json").encode returned at 0268814
    value = {"x": np.float64(1.5), "t": (1, (2, "a")), "b": b"ab\xff",
             "n": np.float64("nan"), "i": np.int64(-3)}
    wire = bytes.fromhex(
        "0000008c4a7b2278223a312e352c2274223a5b312c5b322c2261225d5d2c2262223a7b225f5f627974"
        "65735f5f223a2259574c2f227d2c226e223a4e614e2c2269223a7b225f5f6e707363616c61725f5f22"
        "3a6e756c6c2c2276223a7b225f5f6e645f5f223a223c6938222c227368617065223a5b315d2c226461"
        "7461223a222f662f2f2f2f2f2f2f2f383d227d7d7d")
    assert Framer("json").encode(value) == wire
    (got,) = FrameDecoder().feed(wire)
    assert type(got["x"]) is float and got["t"] == [1, [2, "a"]] and got["b"] == b"ab\xff"
    assert got["n"] != got["n"] and type(got["i"]) is np.int64 and got["i"] == -3


def test_invalid_frame_length_rejected():
    decoder = FrameDecoder()
    with pytest.raises(CodecError, match="invalid frame length"):
        decoder.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    decoder = FrameDecoder()
    with pytest.raises(CodecError, match="invalid frame length"):
        decoder.feed((0).to_bytes(4, "big") + b"x")


def test_undecodable_body_rejected():
    decoder = FrameDecoder()
    body = b"{not json"
    frame = (len(body) + 1).to_bytes(4, "big") + b"J" + body
    with pytest.raises(CodecError, match="undecodable JSON"):
        decoder.feed(frame)
    decoder = FrameDecoder()
    frame = (2).to_bytes(4, "big") + b"\x00x"
    with pytest.raises(CodecError, match="unknown frame format"):
        decoder.feed(frame)


def test_truncated_array_payload_rejected():
    payload = encode_array(np.arange(4, dtype=np.float64))
    payload["shape"] = [8]  # claims more elements than the buffer holds
    with pytest.raises(CodecError, match="bytes"):
        FrameDecoder().feed(json_frame(payload))


def test_array_disk_wire_encoding_is_shared():
    # the WAL and the wire use the same raw-buffer encoding, so a shard
    # batch can move between them without re-encoding
    arr = np.array([0.1, 0.2, -1.5e300], dtype=np.float64)
    assert decode_array(encode_array(arr)).tobytes() == arr.tobytes()
    assert_same(arr, round_trip(arr))


# -- live: what a listener does with frames it will not serve --------------------


async def _ping_server() -> tuple[TcpTransport, str, int]:
    server = TcpTransport(node_id=1)

    async def ping(payload: Any, src: dict[str, Any]) -> Any:
        return {"pong": payload}

    server.register_rpc("ping", ping)
    host, _, port = (await server.start()).rpartition(":")
    return server, host, int(port)


@pytest.mark.timeout(30)
def test_version_mismatch_rejected():
    """A listener answers only envelopes stamped with its ``WIRE_VERSION``."""
    async def scenario() -> None:
        server, host, port = await _ping_server()
        reader, writer = await asyncio.open_connection(host, port)
        for rid, version in ((1, WIRE_VERSION + 1), (2, WIRE_VERSION)):
            writer.write(json_frame({
                "v": version, "t": "req", "kind": "ping", "rid": rid, "payload": rid}))
        await writer.drain()
        decoder = FrameDecoder()
        replies: list[Any] = []
        while not replies:
            chunk = await reader.read(65536)
            assert chunk, "connection closed without a reply"
            replies = decoder.feed(chunk)
        # one connection is served in order: rid 2 first means rid 1 got nothing
        assert replies == [
            {"v": WIRE_VERSION, "t": "res", "rid": 2, "payload": {"pong": 2}}]
        writer.close()
        await writer.wait_closed()
        await server.close()

    asyncio.run(scenario())


@pytest.mark.timeout(30)
def test_malformed_frame_drops_the_connection_not_the_listener():
    async def scenario() -> None:
        unhandled: list[dict[str, Any]] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        server, host, port = await _ping_server()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(json_frame({
            "v": WIRE_VERSION, "t": "req", "kind": "ping", "rid": 1,
            "payload": {"__npscalar__": None}}))
        await writer.drain()
        assert await reader.read() == b""  # dropped without a reply
        writer.close()
        await writer.wait_closed()

        client = TcpTransport(node_id=2)
        await client.start(listen=False)
        assert await client.rpc(server.addr, "ping", 7) == {"pong": 7}
        await client.close()
        await server.close()
        gc.collect()  # a task that died unhandled reports when collected
        await asyncio.sleep(0)
        assert unhandled == []

    asyncio.run(scenario())


BAD_ENVELOPES = [
    pytest.param({"t": "msg", "kind": "note", "sent_at": "x"}, id="msg-sent_at-str"),
    pytest.param({"t": "msg", "kind": "note", "sent_at": [1]}, id="msg-sent_at-list"),
    pytest.param({"t": "req", "kind": [1], "rid": 1}, id="req-kind-list"),
    pytest.param({"t": "req", "kind": "ping", "rid": [1]}, id="req-rid-list"),
    pytest.param({"t": "req", "kind": "ping", "rid": 1, "src": "x"}, id="req-src-str"),
    pytest.param({"t": "req", "kind": "ping", "rid": 1, "sent_at": "x"},
                 id="req-sent_at-str"),
    pytest.param({"t": "res", "rid": [1]}, id="res-rid-list"),
]


async def _bad_envelope_at_listener(bad: bytes) -> None:
    server, host, port = await _ping_server()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(bad)
    await writer.drain()
    assert await reader.read() == b""  # dropped without a reply
    writer.close()
    await writer.wait_closed()

    client = TcpTransport(node_id=2)
    await client.start(listen=False)
    assert await client.rpc(server.addr, "ping", 7) == {"pong": 7}
    await client.close()
    await server.close()


async def _bad_envelope_on_outgoing_connection(bad: bytes) -> None:
    """A peer answers the first request it ever reads with ``bad`` and every
    later one properly, on whichever connection it arrives."""
    requests = 0
    served: list[asyncio.Task[None]] = []

    async def peer(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal requests
        served.append(asyncio.current_task())
        decoder = FrameDecoder()
        try:
            while chunk := await reader.read(65536):
                for env in decoder.feed(chunk):
                    requests += 1
                    writer.write(bad if requests == 1 else json_frame({
                        "v": WIRE_VERSION, "t": "res", "rid": env["rid"],
                        "payload": {"pong": env["payload"]}}))
                await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()

    listener = await asyncio.start_server(peer, "127.0.0.1", 0)
    addr = f"127.0.0.1:{listener.sockets[0].getsockname()[1]}"
    client = TcpTransport(node_id=2, rpc_timeout=0.5)
    await client.start(listen=False)
    with pytest.raises(RpcTimeout):
        await client.rpc(addr, "ping", 1)
    # the connection that carried the bad envelope is gone: this one reconnects
    assert await client.rpc(addr, "ping", 2) == {"pong": 2}
    await client.close()
    listener.close()
    await listener.wait_closed()
    # both connections saw EOF: let their handlers close their sockets
    await asyncio.wait_for(asyncio.gather(*served), timeout=5.0)
    assert len(served) == 2


@pytest.mark.timeout(30)
@pytest.mark.parametrize("fields", BAD_ENVELOPES)
def test_malformed_envelope_drops_the_connection_not_the_listener(fields: dict[str, Any]):
    """A frame that decodes, but to an envelope with a field of the wrong
    type, is treated like a bad frame: its connection is dropped, the
    transport lives on and no task dies unhandled."""
    bad = json_frame({"v": WIRE_VERSION, **fields})

    async def scenario() -> None:
        unhandled: list[dict[str, Any]] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        if fields["t"] == "res":
            await _bad_envelope_on_outgoing_connection(bad)
        else:
            await _bad_envelope_at_listener(bad)
        gc.collect()  # a task that died unhandled reports when collected
        await asyncio.sleep(0)
        assert unhandled == []

    asyncio.run(scenario())
