"""apnforge benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

With ``--trace 0`` it times ``import apnforge.cli`` in fresh interpreters
(``setup_s``), then starts one fresh child process per sample
(``child.py``), each running the workload's CLI invocations through
``apnforge.cli.main``, until ``--seconds`` are used up.  Every invocation
passes through the correctness gate of ``workloads.py``; end-to-end
metrics are medians over the samples.

With ``--trace 1`` it alternates an untraced sample with a traced replay
of the same invocations (``replay.py``) and reports per-layer metrics,
medians over the replays.  The spans of every replay are written once at
the end to ``.perfbench/results/``.

Human-readable lines go first; the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the environment it ran in, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check, invocations, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

# Imports timed before and again after the samples, so setup_s spans the run.
SETUP_REPEATS = 4
# A traced pair is two children in a row; a hung pair still ends within three minutes.
CHILD_TIMEOUT_S = 80

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "frac",
}

# Field degrees of the verify invocations; a workload without one reports 0.
LAYER_DEGREES = (10, 12, 14)

PER_LAYER_UNITS = {
    "field.build_s": "s",
    "field.roots_of_unity_s": "s",
    "compatibility.search_s": "s",
    "compatibility.candidates": "count",
    "compatibility.rows": "count",
    **{f"hexanomial.value_table_s.w{w}": "s" for w in LAYER_DEGREES},
    "hexanomial.spot_check_s": "s",
    "hexanomial.derivative_coeffs.hits": "count",
    "hexanomial.derivative_coeffs.misses": "count",
    **{f"differential.histogram_route_s.w{w}": "s" for w in LAYER_DEGREES},
    **{f"differential.kernel_route_s.w{w}": "s" for w in LAYER_DEGREES},
    "differential.histogram_route.elems_per_s": "1/s",
    "differential.kernel_route.elems_per_s": "1/s",
    "differential.report_s": "s",
    "differential.ddt_s": "s",
    "differential.ddt.peak_alloc_mib": "MiB",
    "cli.serialize_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.span_share": "frac",
}


class ChildFailed(RuntimeError):
    """A child process exited nonzero, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> dict:
    """Run a Python child from the checkout root; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"unreadable child output: {exc}") from exc


def measure_setup(repeats: int) -> list[float]:
    """Seconds from a fresh interpreter's first statement to `import apnforge.cli` done."""
    code = (
        "import time, json; t = time.perf_counter(); import apnforge.cli; "
        "print(json.dumps(time.perf_counter() - t))"
    )
    return [run_child(["-c", code]) for _ in range(repeats)]


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load1_start": os.getloadavg()[0],
    }


def until_spent(seconds: float, once) -> list:
    """Call once() until another call would overrun the budget; at least one call."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


class Sampler:
    """Runs samples of one workload and keeps the failure count."""

    def __init__(self, workload: str, seed: int, tmp: Path, expected: list[dict]):
        self.workload = workload
        self.invs = invocations(workload, seed, str(tmp))
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def cli_sample(self) -> dict | None:
        """One fresh child through cli.main; None when the child itself failed."""
        self.attempted += len(self.invs)
        try:
            res = run_child([str(HERE / "child.py"), json.dumps(self.invs)])
        except ChildFailed as exc:
            self.failures += [f"{self.workload}: {exc}"] * len(self.invs)
            return None
        if not res["module"].startswith(str(SRC)):
            raise SystemExit(f"child imported apnforge from {res['module']}, not {SRC}")
        for inv, out, exp in zip(self.invs, res["invocations"], self.expected):
            reason = check(inv["argv"], out, exp)
            if reason:
                self.failures.append(f"{' '.join(inv['argv'])}: {reason}")
        return res

    def traced_pair(self) -> tuple[dict, dict] | None:
        """An untraced sample, then a traced replay that must reproduce its output."""
        sample = self.cli_sample()
        if sample is None:
            return None
        self.attempted += len(self.invs)
        try:
            replay = run_child([str(HERE / "replay.py"), json.dumps(self.invs)])
        except ChildFailed as exc:
            self.failures += [f"{self.workload} replay: {exc}"] * len(self.invs)
            return None
        for inv, cli_out, rep_out in zip(self.invs, sample["invocations"], replay["invocations"]):
            cli_view = {k: v for k, v in cli_out.items() if k.startswith("file_")}
            cli_view["stdout_sha256"] = sha256(cli_out["stdout"])
            if cli_view != rep_out:
                self.failures.append(f"{' '.join(inv['argv'])}: traced replay output differs from the CLI")
        return sample, replay


def end_to_end(samples: list[dict], setup: list[float], attempted: int, failed: int) -> dict:
    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": med([sum(i["wall_s"] for i in s["invocations"]) for s in samples]),
        "cpu_s": med([sum(i["cpu_s"] for i in s["invocations"]) for s in samples]),
        "peak_rss_mib": med([s["peak_rss_mib"] for s in samples]),
        "setup_s": med(setup),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(replay: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced replay; see README.md for the definitions."""
    spans = replay["spans"]
    invocation_ids = {s["id"] for s in spans if s["name"] == "invocation"}

    def dur(s):
        return s["end"] - s["start"]

    def total(name, w=None):
        return sum(dur(s) for s in spans if s["name"] == name and w in (None, s.get("w")))

    def rate(route, probe=None):
        ws = {s["w"] for s in spans if s["name"] == route}
        busy = sum(total(route, w) - (total(probe, w) if probe else 0.0) for w in ws)
        elems = sum(((1 << s["w"]) - 1) << s["w"] for s in spans if s["name"] == route)
        return elems / busy if busy > 0 else 0.0

    stages = [s for s in spans if s["parent"] in invocation_ids]
    traced_total = total("invocation")
    m = {
        "field.build_s": total("field_build"),
        "field.roots_of_unity_s": total("roots_of_unity"),
        "compatibility.search_s": total("c_search") - total("roots_of_unity"),
        "compatibility.candidates": sum(s.get("candidates", 0) for s in spans),
        "compatibility.rows": sum(s.get("rows", 0) for s in spans),
        "hexanomial.spot_check_s": total("spot_check"),
        "hexanomial.derivative_coeffs.hits": replay["derivative_coeffs"]["hits"],
        "hexanomial.derivative_coeffs.misses": replay["derivative_coeffs"]["misses"],
        "differential.histogram_route.elems_per_s": rate("histogram_route", "value_table"),
        "differential.kernel_route.elems_per_s": rate("kernel_route"),
        "differential.report_s": total("report"),
        "differential.ddt_s": total("ddt"),
        "differential.ddt.peak_alloc_mib": max(
            [s["peak_alloc_mib"] for s in spans if "peak_alloc_mib" in s], default=0.0
        ),
        "cli.serialize_s": total("serialize"),
        "cli.write_s": total("write"),
        "cli.output_bytes": sum(s.get("bytes", 0) for s in spans),
        "trace.overhead_s": traced_total - untraced_wall,
        "trace.unaccounted_s": traced_total - sum(dur(s) for s in stages),
        "trace.span_share": sum(dur(s) for s in stages if not s.get("probe")) / untraced_wall,
    }
    for w in LAYER_DEGREES:
        m[f"hexanomial.value_table_s.w{w}"] = total("value_table", w)
        m[f"differential.histogram_route_s.w{w}"] = total("histogram_route", w) - total("value_table", w)
        m[f"differential.kernel_route_s.w{w}"] = total("kernel_route", w)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: list[dict]) -> dict:
    """Measure one workload; returns the result record."""
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        sampler = Sampler(workload, seed, tmp, expected)
        if trace:
            pairs = [p for p in until_spent(seconds, sampler.traced_pair) if p]
            layers = [
                per_layer(replay, sum(i["wall_s"] for i in sample["invocations"]))
                for sample, replay in pairs
            ]
            metrics = {
                name: (statistics.median(v[name] for v in layers) if layers else 0.0, unit)
                for name, unit in PER_LAYER_UNITS.items()
            }
            spans = [{"replay": k, "spans": replay["spans"]} for k, (_, replay) in enumerate(pairs)]
            samples = [sample for sample, _ in pairs]
        else:
            measure_setup(1)  # compiles bytecode and warms the file cache
            setup = measure_setup(SETUP_REPEATS)
            samples = [s for s in until_spent(seconds, sampler.cli_sample) if s]
            setup += measure_setup(SETUP_REPEATS)
            values = end_to_end(samples, setup, sampler.attempted, len(sampler.failures))
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            spans = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]
    record = {
        "schema": 1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "attempted": sampler.attempted,
        "failed": len(sampler.failures),
        "failures": sampler.failures,
        "samples": [
            {k: v for k, v in s.items() if k != "invocations"}
            | {"invocations": [{k: v for k, v in i.items() if k != "stdout"} for i in s["invocations"]]}
            for s in samples
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = OUT_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.parent.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"samples={len(record['samples'])} attempted={record['attempted']} failed={record['failed']}"
    )
    print(
        f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu_model']}, "
        f"load1 {env['load1_start']:.2f} -> {env['load1_end']:.2f}"
    )
    for reason in record["failures"]:
        print(f"# FAILED {reason}")
    for name, m in record["metrics"].items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "apnforge" / "cli.py").is_file():
        print(f"error: no apnforge sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), expected[name]))
        print_record(records[-1])
    metrics = {
        (k if len(names) == 1 else f"{r['workload']}/{k}"): v
        for r in records
        for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
