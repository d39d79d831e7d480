"""Run a ``repro`` command with its layers' public functions traced.

Usage::

    python perfbench/launch.py {serve,chaos,cli} OUT -- <repro arguments>

Before handing the arguments to ``repro.cli.main``, the launcher
replaces each traced function under the name its caller looks it up by
(a module global such as ``repro.serve.server.decode_line``, or a class
attribute such as ``Ledger.commit``) with a :class:`spans.Recorder`
wrapper.  Nothing in the program changes.  When the command returns
(the server on SIGTERM), the spans, call counts, garbage-collector
pauses and the list of loaded ``repro`` modules are written to ``OUT``.
"""

from __future__ import annotations

import gc
import selectors
import sys

from spans import Recorder


def trace_serve(recorder: Recorder) -> None:
    import repro.core.engine as engine
    import repro.serve.server as server
    import repro.serve.shard as shard
    from repro.ledger.store import Ledger
    from repro.obs.registry import Histogram

    wrap = recorder.wrap
    server.decode_line = wrap(
        "serve.protocol.decode_line", server.decode_line
    )
    server.action_from_dict = wrap(
        "serve.protocol.action_from_dict", server.action_from_dict
    )
    server.canonical_json = wrap(
        "serve.server.canonical_json", server.canonical_json
    )
    server.ruling_to_dict = wrap(
        "serve.server.ruling_to_dict", server.ruling_to_dict
    )
    server.RulingServer._encode_rule_response = wrap(
        "serve.server.encode",
        server.RulingServer._encode_rule_response,
        size=lambda self, request_id, rulings: len(rulings),
    )
    shard.ShardRouter.partition = wrap(
        "serve.shard.partition", shard.ShardRouter.partition
    )
    shard.ShardRouter.prime_from_ledger = wrap(
        "ledger.store.prime", shard.ShardRouter.prime_from_ledger
    )
    shard.Shard.evaluate_many = wrap(
        "serve.shard.evaluate_many",
        shard.Shard.evaluate_many,
        size=lambda self, actions: len(actions),
    )
    engine.ComplianceEngine.evaluate_many = wrap(
        "core.engine.evaluate_many", engine.ComplianceEngine.evaluate_many
    )
    Ledger.record_ruling = wrap(
        "ledger.store.record_ruling", Ledger.record_ruling
    )
    Ledger.commit = wrap("ledger.store.commit", Ledger.commit, thread_cpu=True)
    Histogram.observe = wrap("obs.histogram.observe", Histogram.observe)
    for module in (shard, engine):
        module.action_fingerprint = recorder.counter(
            "core.fingerprint.action_fingerprint", module.action_fingerprint
        )
    # The event loop's wait for I/O: the server's idle time.
    selectors.EpollSelector.select = wrap(
        "idle.select", selectors.EpollSelector.select
    )


def trace_chaos(recorder: Recorder) -> None:
    import repro.faults.chaos as chaos

    chaos.run_plan = recorder.wrap("faults.chaos.run_plan", chaos.run_plan)


def trace_gc(recorder: Recorder) -> None:
    """Record each collection as a span sized by its generation."""
    name_id = recorder.name_id("runtime.gc")
    open_spans: list[int] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            open_spans.append(recorder.open(name_id, info["generation"]))
        elif open_spans:
            recorder.close(open_spans.pop())

    gc.callbacks.append(on_gc)


_MODES = {"serve": trace_serve, "chaos": trace_chaos, "cli": None}


def main(argv: list[str]) -> int:
    mode, out = argv[0], argv[1]
    if argv[2] != "--" or mode not in _MODES:
        raise SystemExit(f"usage: launch.py {{{','.join(_MODES)}}} OUT -- ARGS")
    recorder = Recorder()
    if _MODES[mode] is not None:
        _MODES[mode](recorder)
    trace_gc(recorder)
    from repro.cli import main as repro_main

    try:
        code = repro_main(argv[3:])
    finally:
        loaded = sorted(name for name in sys.modules if name.startswith("repro."))
        recorder.dump(out, {"modules": loaded})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
