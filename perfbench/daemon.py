"""Start the stock array daemon for the ``served-rw`` workload.

Runs exactly what ``drx-serve --pfs 4`` starts (default admission
limits, journal on) through ``repro.serve.cli.main``.  The benchmark
only observes it: the file system the CLI builds is recorded so the
file sizes can be reported after the drain, and with ``--spans`` the
daemon's own calls are traced and written out once it has drained.

    python3 perfbench/daemon.py --report out.json [--spans spans.json.gz]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import DAEMON_TARGETS, Tracer, write_spans  # noqa: E402

import repro.pfs  # noqa: E402
import repro.serve.server as server_mod  # noqa: E402
from repro.serve import cli  # noqa: E402


def trace_requests(tracer: Tracer) -> None:
    """One ``serve.request`` span per request, tagged with its verb:
    from the request frame received to the reply sent."""
    recv = server_mod.recv_frame
    send = server_mod.DRXServer.__dict__["_send_reply"].__func__
    tls = threading.local()

    def traced_recv(*args, **kwargs):
        kind, header, payload = recv(*args, **kwargs)
        tls.span = tracer.begin("serve.request", header.get("verb"))
        return kind, header, payload

    def traced_send(*args, **kwargs):
        try:
            return send(*args, **kwargs)
        finally:
            span = getattr(tls, "span", None)
            if span is not None:
                tracer.end(span)
                tls.span = None

    server_mod.recv_frame = traced_recv
    server_mod.DRXServer._send_reply = staticmethod(traced_send)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--report", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    created: list = []
    stock = repro.pfs.ParallelFileSystem

    class Recorded(stock):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            created.append(self)

    # the CLI looks the class up on the package when it starts
    repro.pfs.ParallelFileSystem = Recorded
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(DAEMON_TARGETS)
        trace_requests(tracer)
    rc = cli.main(["--pfs", "4", "--port", "0"])
    fs = created[0]
    report = {"rc": rc,
              "files": {n: fs.open(n).size for n in fs.listdir()}}
    if tracer is not None:
        write_spans(args.spans, tracer.take(), {"process": "daemon"})
    Path(args.report).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
