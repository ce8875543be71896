"""One traced `berbench` CLI run, with a span around every layer call.

Usage (the benchmark starts it as a child process, with the program's
``src`` directory on PYTHONPATH):

    python3 perfbench/traced.py SPANS_JSON RUN_ID -- run --config C --out O

The program itself is not changed: each function is replaced at the name
its caller looks it up under (``berbench.meter.loopback`` is what
``meter.measure`` calls, ``berbench.testbed.hdb3_encode`` is what the
loopback calls), and every channel stream returned through
``berbench.testbed.open_stream`` gets its ``apply`` wrapped.  Spans stay
in memory and are written to SPANS_JSON when the run ends, together with
the traced wall time measured from the first line of this script.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: Span name for the tracer's own bookkeeping (flip counting).  Layers
#: that enclose it do not get its time as self time.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans as (name, start, end, parent index, run id, bits, extra)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "run": self.run_id, "bits": 0}
        )
        self._stack.append(index)
        return index

    def end(self, index: int, **fields) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span.update(fields)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, module, attr: str, name: str, bits=None, extra=None) -> None:
        """Replace module.attr with a spanned call to the original.

        `bits(args, kwargs, result)` gives the span's bit count;
        `extra(result)` any further fields.  An exception closes the span with `raised` set.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.end(index, raised=type(exc).__name__)
                raise
            fields = {}
            if bits is not None:
                fields["bits"] = int(bits(args, kwargs, result))
            if extra is not None:
                fields.update(extra(result))
            self.end(index, **fields)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)

    def wrap_stream(self, stream) -> None:
        """Span every `apply` of one channel stream; count flipped bits."""
        import numpy as np

        original = stream.apply

        def apply(bits):
            index = self.begin("channel.apply")
            out = original(bits)
            self.end(index, bits=len(bits))
            book = self.begin(BOOKKEEPING)
            flipped = int(np.count_nonzero(np.asarray(out) != np.asarray(bits)))
            self.end(book)
            self.spans[index]["flipped"] = flipped
            return out

        stream.apply = apply

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)


def install(tracer: Tracer):
    """Wrap the layer calls; return the CLI module to run."""
    import berbench.cli as cli
    import berbench.meter as meter
    import berbench.prbs as prbs
    import berbench.procedure as procedure
    import berbench.testbed as testbed

    w = tracer.wrap
    w(cli, "load_config", "cli.load_config")
    w(cli, "run_campaign", "procedure.run_campaign")
    for attr in ("report_to_dict", "_dump_json", "render_report_text", "_write_text"):
        w(cli, attr, "cli.report")
    w(procedure, "analyzer_self_test", "meter.analyzer_self_test")
    w(procedure, "resolve_chain", "testbed.resolve_chain")
    w(procedure, "dut_open_session", "testbed.dut_open_session")
    w(procedure, "measure", "meter.measure")
    w(meter, "loopback", "testbed.loopback", bits=lambda a, k, r: len(a[1]))
    w(prbs, "generate", "prbs.generate", bits=lambda a, k, r: len(r))
    w(prbs, "synchronize", "prbs.synchronize", bits=lambda a, k, r: len(a[1]),
      extra=lambda r: {"locked": bool(r.locked)})
    w(prbs, "count_errors", "prbs.count_errors", bits=lambda a, k, r: r[0])
    w(testbed, "hdb3_encode", "framing.hdb3_encode", bits=lambda a, k, r: len(a[0]))
    w(testbed, "hdb3_decode", "framing.hdb3_decode", bits=lambda a, k, r: len(a[0]))
    w(testbed, "build_multiframes", "framing.build_multiframes", bits=lambda a, k, r: len(r))
    w(testbed, "g704_align", "framing.g704_align", bits=lambda a, k, r: len(a[0]))

    open_stream = testbed.open_stream

    def traced_open_stream(model):
        stream = open_stream(model)
        tracer.wrap_stream(stream)
        return stream

    testbed.open_stream = traced_open_stream
    return cli


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID -- <berbench args>")
    tracer = Tracer(run_id)
    with tracer.span("setup"):
        cli = install(tracer)
    code = cli.main(cli_args)
    sys.stdout.flush()
    wall = time.perf_counter() - T_START
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "wall_s": wall, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
