"""Traced server launcher: ``python perfbench/serve_server.py SPANS_JSON serve ...``.

Runs the same ``repro.service`` CLI as ``python -m repro.service``, with
the layer wrappers of :mod:`spans` installed inside the server process.
On shutdown (SIGINT) it writes the recorded spans and counters to
``SPANS_JSON`` for the client to turn into per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys

import spans


def main(argv) -> int:
    out_path, service_args = argv[0], argv[1:]
    from repro.experiments import engine
    from repro.service import __main__ as service_cli
    from repro.service import server  # noqa: F401  (binds cachekey names first)

    engine.load_registry()
    rec = spans.Recorder()
    spans.install(rec)
    try:
        code = service_cli.main(service_args)
    finally:
        rec.uninstall()
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
        os.replace(tmp, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
