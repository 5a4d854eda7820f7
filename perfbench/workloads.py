"""Workload definitions and the per-invocation correctness gate.

A workload is a fixed list of ``apnforge`` CLI invocations.  ``{seed}``
is replaced by the benchmark's ``--seed`` (the spot-check RNG of
``verify``; verdicts do not depend on it) and ``{tmp}`` by a scratch
directory inside the checkout.  Why each workload exists, and which
layer it loads, is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # w = 10, 12, 14, all APN: histogram route and kernel route dominate.
    "verify-ladder": (
        ("verify", "--m", "5", "--n", "2", "--seed", "{seed}"),
        ("verify", "--m", "6", "--n", "1", "--seed", "{seed}"),
        ("verify", "--m", "7", "--n", "2", "--seed", "{seed}"),
    ),
    # 128 rows of scalar brute-force c search; no differential code runs.
    "sweep-exhaust": (
        ("sweep", "--m-range", "1..8", "--n-range", "1..16", "--format", "csv"),
    ),
    # The write path: a 32 MiB DDT CSV beside the w = 12 verify report.
    "ddt-write": (
        ("verify", "--m", "6", "--n", "1", "--seed", "{seed}", "--ddt-out", "{tmp}/ddt.csv"),
    ),
    # w = 18..24: the only workload on the shift-and-reduce field path.
    "field-wide": (("bc-empirical", "--max-2m", "24"),),
}

# Report keys a later change may not alter; the rest of a verify report
# (spot-check seed, provenance, fields added by later changes) is free.
VERIFY_GATED_KEYS = ("params", "verdicts", "per_a_histogram_summary")


def invocations(workload: str, seed: int, tmp: str) -> list[dict]:
    """The workload's argv lists, each with the file it writes (or None)."""
    out = []
    for template in WORKLOADS[workload]:
        argv = [a.format(seed=seed, tmp=tmp) for a in template]
        out_file = argv[argv.index("--ddt-out") + 1] if "--ddt-out" in argv else None
        out.append({"argv": argv, "out_file": out_file})
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def project(argv: list[str], result: dict) -> dict:
    """The part of one invocation's output that the gate compares.

    ``result`` holds the invocation's ``stdout`` and, when it wrote a
    file, that file's ``file_sha256`` and ``file_bytes``.
    """
    command = argv[0]
    if command == "sweep":
        view = {"stdout_sha256": sha256(result["stdout"])}
    elif command == "verify":
        doc = json.loads(result["stdout"])
        view = {"report": {k: doc[k] for k in VERIFY_GATED_KEYS}}
    elif command == "bc-empirical":
        doc = json.loads(result["stdout"])
        view = {
            "rows": [
                {
                    "m": r["m"],
                    "found_c_hex": r["found_c_hex"],
                    "exists_c": r["exists_c"],
                    "consistent": r["predicate"] == r["exists_c"],
                }
                for r in doc["rows"]
            ]
        }
    else:
        raise ValueError(f"no gate for command {command!r}")
    if "file_sha256" in result:
        view["file_sha256"] = result["file_sha256"]
        view["file_bytes"] = result["file_bytes"]
    return view


def check(argv: list[str], result: dict, expected: dict) -> str | None:
    """None when the invocation passed the gate, else the reason it failed."""
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}"
    try:
        view = project(argv, result)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    wrong = sorted(k for k in set(view) | set(expected) if view.get(k) != expected.get(k))
    return f"output differs from the recorded value in {wrong}" if wrong else None
