"""A deterministic gate on the wire codec's per-frame Python cost.

A timing cannot gate on a shared CI runner; a count of Python ``call`` events
(``sys.setprofile``) repeats exactly for a fixed set of frames and moves
whenever a Python function call is added to — or taken off — the path of a
frame through ``Framer.encode`` and ``FrameDecoder.feed``.

Readings, calls ÷ frames, over one ``Framer.encode`` and one
``FrameDecoder.feed`` of each of the 34 envelopes the wire fixtures pin (one
decoder for all of them, built outside the count):

* parent ``5c4b9ec`` (``JSONEncoder.encode`` → ``iterencode`` building a C
  encoder per frame, ``JSONDecoder.decode`` → ``raw_decode``, the
  ``base64`` wrappers, a generator over the array shape): 15.00 (510 / 34)
* one C encoder per process, ``raw_decode`` called directly, ``binascii``
  called directly, the shape checked in a loop: 9.59 (326 / 34)
"""

import sys

from repro.net.codec import FrameDecoder, Framer

from tests.test_net_codec import _wire_envelopes

#: the measured reading + 10 %
CALLS_PER_FRAME_BUDGET = 10.55


def test_python_calls_per_frame_stay_within_budget():
    envelopes = list(_wire_envelopes().values())
    framer, decoder = Framer("json"), FrameDecoder()
    calls = 0
    decoded = []

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        for env in envelopes:
            decoded.extend(decoder.feed(framer.encode(env)))
    finally:
        sys.setprofile(None)
    assert len(envelopes) == len(decoded) == 34
    per_frame = calls / len(envelopes)
    print(f"calls={calls} frames={len(envelopes)} calls/frame={per_frame:.2f}")
    assert per_frame <= CALLS_PER_FRAME_BUDGET
