"""Start ``repro serve`` for the benchmark and report its peak memory.

    python3 perfbench/serve_launcher.py --rss-out FILE [--span-log FILE] [repro serve options...]

On a clean exit it writes ``{"daemon_mb", "workers_mb"}`` to ``--rss-out``:
the daemon's own resident high-water mark (``VmHWM``, which starts afresh
at exec, unlike ``ru_maxrss``, which also counts the process that forked
it) and the largest ``ru_maxrss`` among the workers it reaped.

With ``--span-log`` every job's execution is recorded as an
``exec.run_job`` span: the daemon's forked workers look ``run_job`` and
``run_injection`` up in ``repro.serve.server`` on each job, so wrapping
those two module globals before ``main`` runs is enough.  A worker
leaves through ``os._exit``, so each span is appended as soon as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from repro.serve import server

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.report import high_water_mb  # noqa: E402


def _spanned(fn, name: str, log_path: str):
    def span(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            line = json.dumps([name, start, time.perf_counter()]) + "\n"
            with open(log_path, "a") as log:
                log.write(line)

    return span


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--span-log", default=None)
    args, server_args = parser.parse_known_args()
    if args.span_log:
        log_path = os.path.abspath(args.span_log)
        server.run_job = _spanned(server.run_job, "exec.run_job", log_path)
        server.run_injection = _spanned(server.run_injection, "exec.run_job", log_path)
    code = server.main(server_args)
    with open(args.rss_out, "w") as out:
        json.dump({
            "daemon_mb": high_water_mb(),
            "workers_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
