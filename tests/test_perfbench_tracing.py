"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py replaces program functions where their callers look
them up (module and class attributes). A refactor that renames or removes
one of those attributes, or stops calling through it, silently breaks the
traced benchmark run; this test fails instead.
"""

import sys
from pathlib import Path

from peerdeploy import scenario, store
from peerdeploy.store import ComponentPayload
import pins

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import SPANS, Tracer  # noqa: E402


def test_tracer_records_calls_and_restores_every_patch_point():
    originals = [(owner, attr, getattr(owner, attr))
                 for _, owners, attr in SPANS for owner in owners]
    tracer = Tracer().install()
    try:
        net, names = scenario.build_network(8, seed=1)
        store.publish(net, names["n1"], "t.jar", ComponentPayload.from_bytes(b"t" * 64))
        store.lookup(net, names["n6"], "t.jar")
        for span in ("routing.next_hop", "ids.derive_key", "simnet.loop",
                     "store.handoff", "overlay.join"):
            assert tracer.calls_of(span) > 0, span
        assert tracer.calls_of("store.lookup") == 1
        assert tracer.calls_of("store.publish") == 1
        # The hot path calls through these wrapped functions once per insert,
        # learned contact, message and live-id query; inlining one past its
        # span would change these counts, pinned in pins.json's "tracing"
        # section. learn counts only the contacts a node had not been offered
        # since it last lost a routing entry.
        for span in ("routing.leaf_insert", "overlay.learn", "simnet.send",
                     "simnet.live_ids"):
            pins.check("tracing", span, tracer.calls_of(span))
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
