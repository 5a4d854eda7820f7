"""One traced sample: replay CLI invocations stage by stage, with spans.

Usage: ``python3 perfbench/replay.py '<json list of {"argv": [...], "out_file": path|null}>'``

Each argv is parsed by the CLI's own parser, then replayed through the
public functions ``apnforge.cli`` calls, in the same order, with a span
around each call.  Nothing inside ``src/`` is instrumented.  Span names
are the pipeline stage names: ``field_build``, ``c_search``,
``value_table``, ``histogram_route``, ``kernel_route``, ``spot_check``,
``serialize``, plus ``report``, ``ddt`` and ``write``.

Some stages run inside a library call and cannot be timed from outside.
They are timed by one extra call just before it, in a span marked
``probe``; the per-layer metrics subtract a probe from the span that
contains the same work:

* ``value_table`` (``differential.value_table``) runs again inside
  ``histogram_route`` (``derivative_spectrum``);
* ``roots_of_unity`` runs again inside ``c_search``;
* ``ddt_alloc`` repeats ``ddt`` under tracemalloc for its peak allocation.

Stdout text and written files are hashed so the benchmark can check that
the replay produced exactly what the CLI produced.  Spans stay in memory
and go out with the one JSON object printed at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

from apnforge import cli
from apnforge.compatibility import (
    compat_report,
    compatibility_predicate,
    find_compatible_c,
    reports_to_csv,
    reports_to_json,
)
from apnforge.differential import (
    cross_check_spectrum,
    ddt,
    ddt_to_csv,
    derivative_spectrum,
    spectrum_report,
    value_table,
)
from apnforge.field import make_field, roots_of_unity
from apnforge.hexanomial import (
    BCParams,
    default_d,
    derivative_coeffs,
    eval_derivative,
    eval_derivative_linear,
)
from child import file_digest
from workloads import sha256


class Tracer:
    """Spans in memory: id, name, parent id, start, end, plus counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _write(tr: Tracer, text: str, path: str | None, out: io.StringIO) -> None:
    with tr.span("write", bytes=len(text.encode())):
        if path is None:
            out.write(text)
        else:
            Path(path).write_text(text)


def _c_search(tr: Tracer, fld, m: int, search):
    """Time the c search, with a probe for the unity roots it computes inside."""
    with tr.span("roots_of_unity", probe=True, w=fld.w):
        roots_of_unity(fld, (1 << m) + 1)
    with tr.span("c_search", w=fld.w) as rec:
        result = search()
    return rec, result


def _spot_check(tr: Tracer, p: BCParams, seed: int) -> dict:
    """The CLI's seeded agreement check, through the public hexanomial forms."""
    with tr.span("spot_check", w=p.field.w):
        rng = random.Random(seed)
        size = p.field.size
        for _ in range(cli.SPOT_CHECK_SAMPLES):
            a = rng.randrange(1, size)
            x = rng.randrange(size)
            if eval_derivative(p, a, x) != eval_derivative_linear(p, a, x):
                raise cli.CrossCheckError(f"forms disagree at a={a:#x}, x={x:#x}")
    return {"seed": seed, "samples": cli.SPOT_CHECK_SAMPLES, "agree": True}


def _verify(tr: Tracer, args, cfg: cli.RunConfig, out: io.StringIO) -> None:
    m, n = args.m, args.n
    with tr.span("field_build", w=2 * m):
        fld = make_field(2 * m, cfg.modulus_table.get(2 * m))
    if not compatibility_predicate(m, n):
        raise ValueError(f"replay covers verify with a compatible c, not (m, n) = ({m}, {n})")
    rec, c = _c_search(tr, fld, m, lambda: find_compatible_c(m, n, fld))
    rec["candidates"] = c + 1
    p = BCParams(m=m, n=n, field=fld, c=c, d=default_d(fld, m))
    w = fld.w
    with tr.span("value_table", probe=True, w=w):
        value_table(p)
    with tr.span("histogram_route", w=w):
        spec = derivative_spectrum(p, cfg.cap_spectrum)
    with tr.span("kernel_route", w=w):
        cross_check_spectrum(p, spec)
    with tr.span("report", w=w):
        report = spectrum_report(p, spec)
    report.update(
        {
            "kind": "verify",
            "status": "ok",
            "c_source": "search",
            "d_source": "default",
            "spot_check": _spot_check(tr, p, cfg.seed),
        }
    )
    with tr.span("serialize"):
        text = json.dumps(report, indent=2) + "\n"
    _write(tr, text, cfg.out, out)
    if args.ddt_out is None:
        return
    with tr.span("ddt", w=w):
        table = ddt(p, cfg.cap_ddt)
    with tr.span("serialize"):
        text = ddt_to_csv(table)
    _write(tr, text, args.ddt_out, out)
    del table, text
    with tr.span("ddt_alloc", probe=True, w=w) as rec:
        tracemalloc.start()
        ddt(p, cfg.cap_ddt)
        rec["peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / (1 << 20)
        tracemalloc.stop()


def _compat_rows(tr: Tracer, cfg: cli.RunConfig, out: io.StringIO, pairs, to_json) -> None:
    """compat_report per (m, n), with the field built once per m as the CLI does."""
    rows, fields = [], {}
    for m, n in pairs:
        if m not in fields:
            with tr.span("field_build", w=2 * m):
                fields[m] = make_field(2 * m, cfg.modulus_table.get(2 * m))
        fld = fields[m]
        rec, row = _c_search(tr, fld, m, lambda: compat_report(m, n, fld))
        rec["candidates"] = row.search_size
        rec["rows"] = 1
        rows.append(row)
    with tr.span("serialize"):
        text = to_json(rows) if cfg.fmt == "json" else reports_to_csv(rows)
    _write(tr, text, cfg.out, out)


def _sweep(tr: Tracer, args, cfg: cli.RunConfig, out: io.StringIO) -> None:
    (m0, m1), (n0, n1) = cfg.m_range, cfg.n_range
    pairs = [(m, n) for m in range(m0, m1 + 1) for n in range(n0, n1 + 1)]
    _compat_rows(tr, cfg, out, pairs, reports_to_json)


def _bc_empirical_json(rows) -> str:
    doc = {"schema": 1, "kind": "bc-empirical", "rows": [r.to_dict() for r in rows]}
    return json.dumps(doc, indent=2) + "\n"


def _bc_empirical(tr: Tracer, args, cfg: cli.RunConfig, out: io.StringIO) -> None:
    pairs = [(m, 1) for m in range(3, args.max_2m // 2 + 1)]
    _compat_rows(tr, cfg, out, pairs, _bc_empirical_json)


REPLAYS = {"verify": _verify, "sweep": _sweep, "bc-empirical": _bc_empirical}


def run(invocations: list[dict]) -> dict:
    tr = Tracer()
    parser = cli.build_parser()
    results = []
    for inv in invocations:
        out = io.StringIO()
        with tr.span("invocation", argv=inv["argv"]):
            args = parser.parse_args(inv["argv"])
            REPLAYS[args.command](tr, args, cli.RunConfig.from_args(args), out)
        results.append({"stdout_sha256": sha256(out.getvalue()), **file_digest(inv["out_file"])})
    info = derivative_coeffs.cache_info()
    return {
        "invocations": results,
        "spans": tr.spans,
        "derivative_coeffs": {"hits": info.hits, "misses": info.misses},
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
