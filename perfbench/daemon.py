"""Start ksymmetryd for the benchmark, optionally tracing its layers.

    python3 perfbench/daemon.py [--spans-out PATH] -- <ksymmetryd flags>

Without ``--spans-out`` this is ``python -m repro.service`` with the given
flags. With it, the public functions of the daemon's layers are wrapped
before the daemon starts (parsing, canonicalization, artifact computation,
rendering, the runtime's map and its process pools), and the spans are
written to PATH when the daemon exits after its drain. Work inside pool
worker processes is not traced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import program_src


def install(tracer) -> None:
    import concurrent.futures

    import repro.runtime.executor as executor_mod
    import repro.service.daemon as daemon_mod
    import repro.service.handlers as handlers
    from repro.runtime import ParallelMap

    for name in ("parse_publish", "parse_sample", "parse_audit", "parse_republish",
                 "parse_graph"):
        tracer.wrap(daemon_mod, name, "service.parse")
    tracer.wrap(handlers, "execute_canonicalize", "service.canonicalize")
    tracer.wrap(handlers, "execute_artifact", "service.artifact",
                attrs=lambda result, spec, *a, **k: {"kind": spec.get("kind")})
    for name in ("build_publish_lines", "build_sample_lines", "build_republish_lines",
                 "build_audit_obj"):
        tracer.wrap(handlers, name, "service.render")
    tracer.wrap(ParallelMap, "map", "runtime.map")

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.call("runtime.pool_start", lambda: None, (), {}, None, False)
            super().__init__(*args, **kwargs)

    tracer.replace(executor_mod, "ProcessPoolExecutor", CountedPool)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("daemon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(program_src()))
    from repro.service.__main__ import main as daemon_main

    flags = [a for a in args.daemon_args if a != "--"]
    if args.spans_out is None:
        return daemon_main(flags)
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    try:
        return daemon_main(flags)
    finally:
        tracer.restore()
        tracer.write(args.spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
