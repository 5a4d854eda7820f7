"""One untraced sample: run CLI invocations in this fresh interpreter.

Usage: ``python3 perfbench/child.py '<json list of {"argv": [...], "out_file": path|null}>'``

``apnforge.cli`` is imported before any clock starts (its cost is the
benchmark's ``setup_s``).  Each ``cli.main(argv)`` call is timed in wall
and CPU time; stdout is captured in memory, and a written file is hashed
and deleted once the clock has stopped.  One JSON object goes to stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from apnforge import cli


def file_digest(path: str | None) -> dict:
    """sha256 and size of a file the invocation wrote, which is then removed."""
    if path is None or not os.path.exists(path):
        return {}
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    size = os.path.getsize(path)
    os.remove(path)
    return {"file_sha256": h.hexdigest(), "file_bytes": size}


def run(invocations: list[dict]) -> dict:
    results = []
    for inv in invocations:
        buf = io.StringIO()
        cpu0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inv["argv"])
        t1, cpu1 = time.perf_counter(), time.process_time()
        results.append(
            {
                "rc": rc,
                "wall_s": t1 - t0,
                "cpu_s": cpu1 - cpu0,
                "stdout": buf.getvalue(),
                **file_digest(inv["out_file"]),
            }
        )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"invocations": results, "peak_rss_mib": peak_rss_mib, "module": cli.__file__}


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
