"""Record the correctness gate's expected values into expected.json.

Usage (from the root of a checkout): ``python3 perfbench/record_expected.py``

Runs every workload once, at seed 0, through the same child process as
the benchmark and stores the gated view of each invocation's output
(``workloads.project``).  The committed file was recorded from the
commit that introduced the benchmark; outputs must stay equal to it, so
re-record only when a change to the reports is intended and reviewed.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from run import EXPECTED, HERE, OUT_DIR, run_child
from workloads import WORKLOADS, invocations, project


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        expected = {}
        for name in WORKLOADS:
            invs = invocations(name, 0, tmp)
            res = run_child([str(HERE / "child.py"), json.dumps(invs)])
            for inv, out in zip(invs, res["invocations"]):
                if out["rc"] != 0:
                    raise SystemExit(f"{' '.join(inv['argv'])} exited {out['rc']}")
            expected[name] = [project(i["argv"], o) for i, o in zip(invs, res["invocations"])]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
