"""Server process for the ``serve-mix`` workload.

Registers the workload's datasets (generated from ``--seed``) on a
fresh engine and serves them with the default ``ServingConfig``. With
``--trace 1`` the span tracer is installed in this process before the
server starts.

Protocol over stdin/stdout, one JSON object per stdout line:

* on start: ``{"port": N}``;
* stdin ``mark``: counters are snapshotted and recorded spans dropped
  (the timed phase starts), answered with ``{"marked": true}``;
* stdin ``stop`` or end of input: the server stops, writes its spans to
  ``--trace-file`` (traced runs) and prints its final counters.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

import benchutil


async def _serve(engine: object, tracer: object) -> dict[str, object]:
    from repro.serving import KSJQServer, ServingConfig

    server = KSJQServer(engine, ServingConfig())
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    marked: dict[str, object] = engine.cache_info()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "mark":
                marked = engine.cache_info()
                if tracer is not None:
                    tracer.reset()
                print(json.dumps({"marked": True}), flush=True)
            else:
                break
    finally:
        await server.stop()
    return marked


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args()

    benchutil.use_repo_sources()
    benchutil.ignore_soundness_warnings()
    from repro.api import Engine

    import serve_mix

    engine = Engine()
    for name, relation in serve_mix.datasets(args.seed).items():
        engine.register(name, relation)
    tracer = None
    if args.trace:
        import repro.serving.server  # noqa: F401 - load before rebinding

        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    marked = asyncio.run(_serve(engine, tracer))
    final = engine.cache_info()
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_file, "w") as fh:
            json.dump({"spans": [s.to_json() for s in tracer.spans],
                       "values": tracer.values}, fh)
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_cpu_s": benchutil.children_cpu_seconds(),
        "cache_marked": marked,
        "cache_final": final,
    }, default=str), flush=True)


if __name__ == "__main__":
    main()
