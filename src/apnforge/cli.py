"""Command-line entry points.

Subcommands:

* ``sweep``         -- compatibility grid: closed-form criterion vs brute force
* ``verify``        -- build one hexanomial instance and verify its fiber structure
* ``witness``       -- closed-form incompatible coefficients for one unity root
* ``bc-empirical``  -- the classic (r, s) = (2^m, 2) family across field sizes

Exit codes: 0 all checks pass; 1 a mathematical check failed; 2 bad
usage or configuration; 3 I/O failure.  Reports are deterministic --
same inputs, byte-identical output, no timestamps.

Moduli default to the least irreducible polynomial per degree; a JSON
table ``{"<degree>": "<hex>", ...}`` supplied via ``--modulus-table`` or
the ``APNFORGE_MODULUS_TABLE`` environment variable overrides individual
degrees.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

# apnforge makes no BLAS call, so OpenBLAS's workers would only spin; OpenBLAS reads this at load.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .compatibility import (
    compatibility_predicate,
    eval_compat_poly,
    find_compatible_c,
    reports_to_csv,
    reports_to_json,
    rows_to_csv,
    sweep_reports,
    witnesses,
)
from .differential import (
    DDT_DEGREE_CAP,
    SPECTRUM_DEGREE_CAP,
    SPOT_CHECK_SAMPLES,
    CrossCheckError,
    check_degree,
    ddt_csv_blocks,
    derivative_spectrum,
    spectrum_report,
)
from .hexanomial import BCParams, default_d, instance_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

ENV_MODULUS_TABLE = "APNFORGE_MODULUS_TABLE"
WITNESS_CSV_COLUMNS = ("witness_hex", "in_subfield_r", "in_unity_roots", "poly_value_hex")


def parse_range(text: str) -> tuple[int, int]:
    """Parse an inclusive range flag of the form A..B."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a < 1 or b < a:
        raise ValueError(f"range bounds must satisfy 1 <= A <= B, got {text!r}")
    return a, b


def load_modulus_table(path: str) -> dict[int, int]:
    """JSON mapping of field degree to modulus hex."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"modulus table {path} must be a JSON object")
    if bad := {k: v for k, v in obj.items() if not isinstance(v, str)}:
        raise ValueError(f"modulus table {path}: moduli must be hex strings, got {bad}")
    try:
        return {int(k): int(v, 16) for k, v in obj.items()}
    except ValueError as exc:  # a degree key or a modulus that does not parse
        raise ValueError(f"modulus table {path}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Knobs resolved from flags and environment; a flag the subcommand lacks is None."""

    m_range: tuple[int, int] | None
    n_range: tuple[int, int] | None
    modulus_table: Mapping[int, int]
    fmt: str
    out: str | None
    cap_spectrum: int | None
    cap_ddt: int | None
    seed: int | None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        table_path = args.modulus_table or os.environ.get(ENV_MODULUS_TABLE)
        return cls(
            m_range=parse_range(args.m_range) if "m_range" in args else None,
            n_range=parse_range(args.n_range) if "n_range" in args else None,
            modulus_table=load_modulus_table(table_path) if table_path else {},
            fmt=args.format,
            out=args.out,
            cap_spectrum=getattr(args, "cap_spectrum", None),
            cap_ddt=getattr(args, "cap_ddt", None),
            seed=getattr(args, "seed", None),
        )


def _write_file(path: str, blocks: Iterable[bytes]) -> None:
    """Write byte blocks to path by a temp file beside it and a rename: no partial file."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(blocks)
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno:  # name the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, [text.encode()])


def _emit_reports(rows, kind: str, cfg: RunConfig, ok: bool) -> int:
    _emit(reports_to_json(rows, kind) if cfg.fmt == "json" else reports_to_csv(rows), cfg.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    (m0, m1), (n0, n1) = cfg.m_range, cfg.n_range
    rows = sweep_reports(range(m0, m1 + 1), range(n0, n1 + 1), cfg.modulus_table)
    return _emit_reports(rows, "compatibility-sweep", cfg, all(r.consistent for r in rows))


def _resolve_params(args: argparse.Namespace, cfg: RunConfig):
    """(params, provenance dict) for verify."""
    if getattr(args, "params", None):
        if given := [f"--{k}" for k in "mncd" if getattr(args, k) is not None]:
            raise ValueError(f"--params cannot be combined with {', '.join(given)}")
        p = BCParams.from_dict(json.loads(Path(args.params).read_text()))
        return p, {"c_source": "params-file", "d_source": "params-file"}
    if args.m is None or args.n is None:
        raise ValueError("either --params or both --m and --n are required")
    m, n = args.m, args.n
    fld = instance_field(m, n, modulus=cfg.modulus_table.get(2 * m))
    if args.c is not None:
        c, c_source = fld.element_from_hex(args.c), "given"
    elif compatibility_predicate(m, n):
        c = find_compatible_c(m, n, fld)
        if c is None:
            raise CrossCheckError(
                f"criterion promises a compatible c for (m, n) = ({m}, {n})"
                " but the exhaustive search found none"
            )
        c_source = "search"
    elif n % m == 0:
        # No compatible c exists, but with n/m an odd integer every c gives
        # the same uniform fiber structure, so verify the canonical least.
        c, c_source = 0, "canonical-any"
    else:
        # Unreachable given the closed-form criterion (its failure modes
        # all force m | n); kept as a guard so a wrong predicate cannot
        # silently verify the wrong instance.
        raise CrossCheckError(f"criterion excludes c for (m, n) = ({m}, {n}) with n % m != 0")
    if args.d is not None:
        d, d_source = fld.element_from_hex(args.d), "given"
    else:
        d, d_source = default_d(fld, m), "default"
    return BCParams(m=m, n=n, field=fld, c=c, d=d), {
        "c_source": c_source,
        "d_source": d_source,
    }


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    p, meta = _resolve_params(args, cfg)
    if args.ddt_out is not None:  # refused before the spectrum's work
        check_degree("ddt", p.field.w, cfg.cap_ddt)
    # never above w = 16: the routes hold all 2^w shifts at once (145 MiB at w = 20)
    spec = derivative_spectrum(p, min(cfg.cap_spectrum, SPECTRUM_DEGREE_CAP), cfg.seed)
    spot = {"seed": cfg.seed, "samples": SPOT_CHECK_SAMPLES, "agree": True}
    report = {
        **spectrum_report(p, spec), "kind": "verify", "status": "ok", **meta, "spot_check": spot
    }
    # the rows need only their residues, not the spectrum's basis: it goes before the write
    rows = None if args.ddt_out is None else ddt_csv_blocks(spec)
    del spec
    _emit(json.dumps(report, indent=2) + "\n", cfg.out)
    if rows is not None:
        _write_file(args.ddt_out, rows)
    return EXIT_OK if report["verdicts"]["is_2k_to_one"] else EXIT_CHECK_FAILED


def _cmd_witness(args: argparse.Namespace, cfg: RunConfig) -> int:
    m, n = args.m, args.n
    fld = instance_field(m, n, modulus=cfg.modulus_table.get(2 * m))
    y = fld.element_from_hex(args.y)
    found = witnesses(y, m, n, fld)
    unity = (1 << m) + 1
    rows, all_vanish = [], True
    for wv in found:
        val = eval_compat_poly(fld, m, n, wv, y)
        all_vanish &= val == 0
        rows.append(
            {
                "witness_hex": fld.element_hex(wv),
                "in_subfield_r": fld.in_subfield(wv, m),
                "in_unity_roots": wv != 0 and fld.pow(wv, unity) == 1,
                "poly_value_hex": fld.element_hex(val),
            }
        )
    if cfg.fmt == "json":
        doc = {
            "schema": 1,
            "kind": "witness",
            "m": m,
            "n": n,
            "y_hex": fld.element_hex(y),
            "modulus_hex": fld.modulus_hex,
            "witnesses": rows,
            "all_vanish": all_vanish,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = rows_to_csv(WITNESS_CSV_COLUMNS, rows)
    _emit(text, cfg.out)
    return EXIT_OK if all_vanish else EXIT_CHECK_FAILED


def _cmd_bc_empirical(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.max_2m < 6:
        raise ValueError(f"--max-2m must be at least 6, got {args.max_2m}")
    rows = sweep_reports(range(3, args.max_2m // 2 + 1), [1], cfg.modulus_table)
    return _emit_reports(rows, "bc-empirical", cfg, all(r.exists_c and r.consistent for r in rows))


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sp.add_argument("--modulus-table", help="JSON file {degree: modulus hex}")
    sp.add_argument("--format", choices=formats, default="json")
    sp.add_argument("--out", help="write the report here instead of stdout")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every :func:`main` call
    of the process (each parse returns a fresh namespace); callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="apnforge",
        description="Budaghyan-Carlet hexanomials: compatibility search and derivative verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="compatibility criterion vs brute force over a grid")
    sp.add_argument("--m-range", default="1..6", help="inclusive range A..B")
    sp.add_argument("--n-range", default="1..12", help="inclusive range A..B")
    _add_common(sp, ("json", "csv"))
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("verify", help="verify the fiber structure of one instance")
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--c", help="coefficient c as hex (default: resolve per criterion)")
    sp.add_argument("--d", help="coefficient d as hex (default: least element outside F_r)")
    sp.add_argument("--params", help="JSON params file (alternative to --m/--n/--c/--d)")
    sp.add_argument("--cap-spectrum", type=int, default=SPECTRUM_DEGREE_CAP)
    sp.add_argument("--cap-ddt", type=int, default=DDT_DEGREE_CAP)
    sp.add_argument("--ddt-out", help="also write the full DDT as CSV here")
    sp.add_argument("--seed", type=int, default=0, help="spot-check RNG seed")
    _add_common(sp, ("json",))
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("witness", help="closed-form incompatible coefficients at one unity root")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--y", required=True, help="unity root y != 1 as hex")
    _add_common(sp, ("json", "csv"))
    sp.set_defaults(handler=_cmd_witness)

    sp = sub.add_parser("bc-empirical", help="the (2^m, 2) family for 6 <= 2m <= --max-2m")
    sp.add_argument("--max-2m", type=int, default=24)
    _add_common(sp, ("json", "csv"))
    sp.set_defaults(handler=_cmd_bc_empirical)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = RunConfig.from_args(args)
        return args.handler(args, cfg)
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:  # SizeLimitError and FieldMismatchError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
