"""Traced server launcher: ``repro serve`` with the tracing wrappers on.

    python3 perfbench/launcher.py SPANS_PREFIX serve FILE --tau 2 --port 0 ...

Installs the span wrappers of :mod:`spans` around the public calls of
every layer, then runs the ``repro`` command line as usual.  When the
server shuts down, the server process writes its spans to
``SPANS_PREFIX.<pid>.json``; forked shard workers start from an empty
tracer and write theirs the same way when the router closes them.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    prefix, command = argv[0], argv[1:]

    from repro import cli
    from repro.service import sharding
    from spans import Tracer, install_core, install_service

    tracer = Tracer()
    install_core(tracer)
    install_service(tracer)

    def dump() -> None:
        tracer.dump(f"{prefix}.{os.getpid()}.json")

    worker_main = sharding._shard_worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump()

    sharding._shard_worker_main = traced_worker_main
    try:
        return cli.main(command)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
