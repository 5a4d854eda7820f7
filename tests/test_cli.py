"""End-to-end CLI behavior: outputs, exit codes, config plumbing."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle
from apnforge import bitplanes, cli, compatibility, differential
from apnforge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ENV_MODULUS_TABLE,
    main,
    parse_range,
)
from apnforge.differential import CrossCheckError
from apnforge.hexanomial import BCParams


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_range():
    assert parse_range("1..6") == (1, 6)
    assert parse_range("3..3") == (3, 3)
    for bad in ("6..1", "0..4", "1-4", "x..y"):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_run_config_holds_only_the_subcommands_flags(monkeypatch):
    """Defaults live in the parser alone: a flag the subcommand lacks is None."""
    monkeypatch.delenv(ENV_MODULUS_TABLE, raising=False)
    parser = cli.build_parser()
    verify = cli.RunConfig.from_args(parser.parse_args(["verify", "--m", "2", "--n", "1"]))
    assert verify.m_range is None and verify.n_range is None
    assert (verify.cap_spectrum, verify.cap_ddt, verify.seed) == (16, 12, 0)
    sweep = cli.RunConfig.from_args(parser.parse_args(["sweep"]))
    assert (sweep.m_range, sweep.n_range, sweep.fmt) == ((1, 6), (1, 12), "json")
    assert (sweep.cap_spectrum, sweep.cap_ddt, sweep.seed) == (None, None, None)


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--m-range", "1..2", "--n-range", "1..2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "compatibility-sweep"
    assert [(r["m"], r["n"]) for r in doc["rows"]] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert doc["rows"][2] == {
        "m": 2,
        "n": 1,
        "predicate": True,
        "exists_c": True,
        "found_c_hex": "9",
        "modulus_hex": "13",
        "search_size": 10,
    }


def test_sweep_csv_header(capsys):
    code, out, _ = run(capsys, "sweep", "--m-range", "2..2", "--n-range", "1..1", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "m,n,predicate,exists_c,found_c_hex,modulus_hex,search_size"
    assert out.splitlines()[1] == "2,1,true,true,9,13,10"


def test_sweep_deterministic_output(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sweep", "--m-range", "1..3", "--n-range", "1..4", "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--m-range", "1..3", "--n-range", "1..4", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_verify_resolves_c_by_search(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["c_source"] == "search"
    assert doc["d_source"] == "default"
    assert doc["params"]["c_hex"] == "9"
    assert doc["verdicts"] == {"is_apn": True, "is_2k_to_one": True, "k": 1}
    assert doc["spot_check"]["agree"] is True


def test_verify_canonical_c_when_no_compatible_exists(capsys):
    code, out, _ = run(capsys, "verify", "--m", "1", "--n", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["c_source"] == "canonical-any"
    assert doc["params"]["c_hex"] == "0"
    assert doc["verdicts"]["is_2k_to_one"] is True
    code, out, _ = run(capsys, "verify", "--m", "3", "--n", "3")
    assert code == EXIT_OK
    assert json.loads(out)["verdicts"]["k"] == 3


def test_verify_explicit_incompatible_c_fails_check(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "1", "--c", "2")
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["c_source"] == "given"
    assert doc["verdicts"]["is_2k_to_one"] is False


def test_verify_rejects_d_inside_subfield(capsys):
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1", "--d", "6")
    assert code == EXIT_USAGE
    assert "subfield" in err


def test_verify_requires_m_and_n(capsys):
    code, _, err = run(capsys, "verify", "--m", "2")
    assert code == EXIT_USAGE
    assert "--m and --n" in err


GOOD_PARAMS = {"m": 2, "n": 1, "c_hex": "b", "d_hex": "2", "modulus_hex": "13"}


def test_verify_params_file(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(GOOD_PARAMS))
    code, out, _ = run(capsys, "verify", "--params", str(pfile))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["c_source"] == "params-file"
    assert doc["params"]["c_hex"] == "b"


@pytest.mark.parametrize("flag, value", [("--m", "3"), ("--n", "2"), ("--c", "5"), ("--d", "2")])
def test_verify_params_file_with_instance_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(GOOD_PARAMS))
    code, out, err = run(capsys, "verify", "--params", str(pfile), flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and f"--params cannot be combined with {flag}" in err


@pytest.mark.parametrize(
    "params, message",
    [({"m": 2}, "missing keys ['c_hex', 'd_hex', 'modulus_hex', 'n']"),
     ([1, 2], "must be a JSON object, got list"),
     ({**GOOD_PARAMS, "m": None}, "params key 'm'"),
     ({**GOOD_PARAMS, "c_hex": 11}, "params key 'c_hex'"),
     ({**GOOD_PARAMS, "modulus_hex": 19}, "params key 'modulus_hex'"),
     ({**GOOD_PARAMS, "n": float("inf")}, "params key 'n'"),
     ({**GOOD_PARAMS, "m": 2.5}, "params key 'm'"),
     ({**GOOD_PARAMS, "n": True}, "params key 'n'"),
     ({**GOOD_PARAMS, "m": "3"}, "params key 'm'")],
)
def test_verify_malformed_params_file_is_a_usage_error(tmp_path, capsys, params, message):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    code, out, err = run(capsys, "verify", "--params", str(pfile))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_verify_ddt_export(tmp_path, capsys, monkeypatch):
    ddt_path = tmp_path / "ddt.csv"
    code, _, _ = run(capsys, "verify", "--m", "2", "--n", "1", "--ddt-out", str(ddt_path))
    assert code == EXIT_OK
    rows = ddt_path.read_text().strip().split("\n")
    assert len(rows) == 16
    assert rows[0].split(",")[0] == "16"
    # File bytes pinned so the write path keeps them byte-identical, also with
    # blocks of 1 and 3 rows, whose edges fall mid-table.  (4, 4) has 256 in
    # row 0 and 0s and 16s elsewhere: cell widths differ inside and across blocks.
    for block_rows in (None, 1, 3):
        for m, n, size, digest in [
            ("3", "2", 8193, "26ce68611e240749c47b8bfa62931be359bcaa5f98459c26aab19ad5fafacbb6"),
            ("4", "1", 131074, "b91a35a66b9c8feda8116350f83c42de356a2988eaf48f5805848a60ef3298f1"),
            ("4", "4", 135154, "206f5e714d9c614c9db915526c9d24d1a4ba10ffd208565678f2ff8ea9511435"),
        ]:
            if block_rows is not None:
                monkeypatch.setattr(differential, "_DDT_BLOCK_CELLS", block_rows << 2 * int(m))
            code, _, _ = run(capsys, "verify", "--m", m, "--n", n, "--ddt-out", str(ddt_path))
            assert code == EXIT_OK
            data = ddt_path.read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest), block_rows


def test_verify_ddt_export_at_w12(tmp_path, capsys, monkeypatch):
    """The benchmark's w = 12 file, also with blocks of 5 rows, whose edges fall mid-table."""
    ddt_path = tmp_path / "ddt.csv"
    for block_rows in (None, 5):
        if block_rows is not None:
            monkeypatch.setattr(differential, "_DDT_BLOCK_CELLS", block_rows << 12)
        code, _, _ = run(capsys, "verify", "--m", "6", "--n", "1", "--ddt-out", str(ddt_path))
        assert code == EXIT_OK
        data = ddt_path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            33554435, "e282b6c339ecad215e0968b89c4936a90ba684601f7dfd7b9e39eafecb0688a5"
        ), block_rows


def test_verify_ddt_export_builds_one_table_and_runs_one_elimination(
    tmp_path, capsys, monkeypatch
):
    """The DDT is written from the spectrum verify certified, not counted again from a
    second value table."""
    calls = {"value_table": 0, "eliminate": 0}
    for module, name in [(differential, "value_table"), (bitplanes, "eliminate")]:
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "verify", "--m", "3", "--n", "2", "--ddt-out",
                     str(tmp_path / "ddt.csv"))
    assert code == EXIT_OK
    assert calls == {"value_table": 1, "eliminate": 1}  # w = 6: one chunk


def test_verify_ddt_out_above_the_default_cap_keeps_the_basis(capsys, monkeypatch):
    """--cap-ddt 14 --ddt-out at w = 14 streams the DDT: verify keeps the basis because a
    DDT was asked for, whatever w.  Only row 0's line and the first block are taken (the
    whole file would be 512 MiB), and they are the definition's rows."""
    taken = []

    def first_blocks(path, blocks):
        blocks = iter(blocks)
        taken.extend(bytes(next(blocks)) for _ in range(2))

    monkeypatch.setattr(cli, "_write_file", first_blocks)
    code, out, _ = run(capsys, "verify", "--m", "7", "--n", "2", "--cap-ddt", "14",
                       "--ddt-out", "ddt.csv")
    report = json.loads(out)
    assert code == EXIT_OK and report["verdicts"]["is_apn"]
    p = BCParams.from_dict(report["params"])
    rows = 1 + len(taken[1].splitlines())
    assert rows == differential._DDT_BLOCK_CELLS >> 14
    assert b"".join(taken) == differential.ddt_to_csv(oracle.ddt_by_definition(p, 0, rows)).encode()


def test_verify_ddt_export_refuses_uncertified_images(tmp_path, capsys, monkeypatch):
    """Images the value table contradicts raise before any DDT byte is written."""
    orig = differential._chunk_planes

    def swapped(route, lo, words):  # B(4, X^0) and B(4, X^1) swapped: bit 4 of word 0
        planes = orig(route, lo, words)
        moved = (planes[0, :, 0] ^ planes[1, :, 0]) & np.uint64(1 << 4)
        planes[0, :, 0] ^= moved
        planes[1, :, 0] ^= moved
        return planes

    monkeypatch.setattr(differential, "_chunk_planes", swapped)
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "1", "--ddt-out",
                         str(tmp_path / "ddt.csv"))
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err.startswith("cross-check failure: shift a=0x4, basis X^0: ")
    assert list(tmp_path.iterdir()) == []


def _ddt_export_peak(tmp_path, capsys, m, n):
    """tracemalloc's peak over one verify --ddt-out run, which must succeed."""
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "verify", "--m", m, "--n", n,
                         "--ddt-out", str(tmp_path / "ddt.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    return peak


def test_ddt_export_holds_blocks_not_the_table(tmp_path, capsys):
    """At w = 10 the whole int32 table alone would take 4 MiB; the stream stays below it."""
    peak = _ddt_export_peak(tmp_path, capsys, "5", "2")
    assert peak < 4 << 20, peak


def test_ddt_export_at_w12_holds_blocks_not_the_table(tmp_path, capsys):
    """At w = 12 the int32 table would take 64 MiB and its CSV 32 MiB; the stream holds
    a block of 2^18 cells at a time and stays below 4 MiB, as at w = 10."""
    peak = _ddt_export_peak(tmp_path, capsys, "6", "1")
    assert peak < 4 << 20, peak


def test_verify_spectrum_cap(capsys):
    code, _, err = run(capsys, "verify", "--m", "9", "--n", "1", "--c", "0")
    assert code == EXIT_USAGE
    assert "cap" in err


def _must_not_run(*args, **kwargs):
    pytest.fail("expensive work started before the cap was checked")


def test_verify_ddt_cap_refused_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(differential, "value_table", _must_not_run)
    ddt_path = tmp_path / "ddt.csv"
    code, out, err = run(capsys, "verify", "--m", "3", "--n", "1", "--cap-ddt", "4",
                         "--ddt-out", str(ddt_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "ddt for w=6 exceeds cap 4" in err
    assert not ddt_path.exists()


def test_verify_beyond_kernel_tables_refused_before_histogram_route(capsys, monkeypatch):
    monkeypatch.setattr(differential, "value_table", _must_not_run)
    code, out, err = run(capsys, "verify", "--m", "9", "--n", "1", "--cap-spectrum", "18")
    assert code == EXIT_USAGE
    assert out == ""
    assert "w=18" in err


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--m-range", "8..13", "--n-range", "8..8"), ("bc-empirical", "--max-2m", "26")],
)
def test_field_beyond_degree_cap_refused_before_any_search(capsys, monkeypatch, argv):
    monkeypatch.setattr(compatibility, "_search_c", _must_not_run)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "field degree 26 exceeds cap 24" in err


def test_verify_criterion_guard_is_a_cross_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compatibility_predicate", lambda m, n: False)
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert "criterion excludes" in err


def test_verify_search_guard_is_a_cross_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_compatible_c", lambda m, n, fld: None)
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert ("criterion promises a compatible c for (m, n) = (2, 1)"
            " but the exhaustive search found none") in err


# stdout of fixed invocations, pinned so refactors keep reports byte-identical.
PINNED_STDOUT = [
    (("verify", "--m", "3", "--n", "2"), EXIT_OK,
     "9a44763a60a56cccbc7fe515d9e5ddbc5b0b3ffa70f063cb11e5928ba87f9a1c"),
    (("verify", "--m", "2", "--n", "1", "--c", "2"), EXIT_CHECK_FAILED,
     "9bdc7cf0838fee431026c77a340bb718be1613399933ca35f2727b147f7cf563"),
    (("verify", "--m", "1", "--n", "2"), EXIT_OK,
     "847acfe7d3755fc68d222af2e5454af90804713ea16775a21760a0fb44f946b5"),
    (("witness", "--m", "2", "--n", "1", "--y", "8"), EXIT_OK,
     "9a93bb7280440a08b33a5517526a32295c88f207aa8f5c08e401891ad7f224b7"),
    (("witness", "--m", "2", "--n", "1", "--y", "8", "--format", "csv"), EXIT_OK,
     "0583ca426dea135653c64c99ba1a9af0ca8632d83241c5ff1e14e3b90fbb144d"),
    (("bc-empirical", "--max-2m", "12"), EXIT_OK,
     "da2bc609e6916f243c0822d0a115fb39b2656532c0a0b91dc3c1e414076b2b08"),
    (("verify", "--m", "7", "--n", "2"), EXIT_OK,
     "adf40da3547cf61b02f472c7cd26488c9dd31ddab2c5fb134ff194eadad3fa04"),
    (("verify", "--m", "8", "--n", "1"), EXIT_OK,
     "c35aa9c36bd7f9c276501492325d4743aceca450557278fc1a5c313eb66f0430"),
    (("sweep", "--m-range", "1..4", "--n-range", "1..6", "--format", "csv"), EXIT_OK,
     "d2c8af65a953a72b92f79ea3b91dad0532ea0739077a60a006b8c6bfe2fa2af1"),
    (("sweep", "--m-range", "1..3", "--n-range", "1..4"), EXIT_OK,
     "77c19f82e5d6bf90f32aad54516bef615a6ca0e4a030248f4e849007176cc288"),
    # Rows (11, 1) and (12, 1) find c = 10 and 9, past the search's first chunk.
    (("bc-empirical", "--max-2m", "24"), EXIT_OK,
     "318a92b61692cd9fd7dd7684d6c81582c1327c9e50b8d84325ee285eb04fb0ef"),
    # Every exhaustive row up to w = 14.
    (("sweep", "--m-range", "1..7", "--n-range", "1..14", "--format", "csv"), EXIT_OK,
     "ccc9903d445972e327522ef195ca237852663ab44fa72a09155656b886c3fe88"),
    # The full grid up to the field cap, every row of bc-empirical's m included.
    (("sweep", "--m-range", "1..12", "--n-range", "1..24", "--format", "csv"), EXIT_OK,
     "75a9236c07d7fe3bcbaeb18463ea65bff8063c890094053346de3d2c2a02a7fa"),
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_STDOUT)
def test_stdout_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_back_to_back_runs_share_one_parser_and_no_flags(capsys, tmp_path):
    """main builds its parser once per process, and every call parses afresh: after
    calls with --out, --seed, --ddt-out, --format csv and a usage error, pinned argv
    lists without those flags still print their pinned bytes and exit codes."""
    pinned = {argv: (code, digest) for argv, code, digest in PINNED_STDOUT}
    report, ddt = tmp_path / "report.json", tmp_path / "ddt.csv"
    code, out, _ = run(capsys, "verify", "--m", "3", "--n", "2", "--seed", "5",
                       "--out", str(report), "--ddt-out", str(ddt))
    assert (code, out) == (EXIT_OK, "") and report.exists() and ddt.exists()
    ddt.unlink()
    sequence = [
        ("verify", "--m", "3", "--n", "2"),
        ("sweep", "--m-range", "1..4", "--n-range", "1..6", "--format", "csv"),
        ("sweep", "--m-range", "1..3", "--n-range", "1..4"),
        ("verify", "--m", "2", "--n", "1", "--c", "2"),
        ("verify", "--m", "x"),
        ("witness", "--m", "2", "--n", "1", "--y", "8"),
        ("verify", "--m", "1", "--n", "2"),
    ]
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        if argv in pinned:
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned[argv], argv
        else:
            assert code == EXIT_USAGE
    assert not ddt.exists()
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "3", "--n", "2"],
    ["verify", "--m", "3", "--n", "2", "--ddt-out", "{tmp}/ddt.csv"],
    ["sweep", "--m-range", "1..3", "--n-range", "1..4"],
    ["bc-empirical", "--max-2m", "12"],
], ids=["verify", "verify-ddt-out", "sweep", "bc-empirical"])
def test_traced_benchmark_replay_reproduces_cli_stdout(capsys, tmp_path, argv):
    """perfbench/replay.py re-runs the command through public calls (the spectrum and the
    whole-table DDT among them); its stdout and written file must match the CLI's bytes."""
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(tmp=tmp_path) for a in argv]
    out_file = argv[argv.index("--ddt-out") + 1] if "--ddt-out" in argv else None
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    expected = {"stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    if out_file is not None:
        written = Path(out_file).read_bytes()
        Path(out_file).unlink()
        expected.update(file_sha256=hashlib.sha256(written).hexdigest(), file_bytes=len(written))
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "replay.py"),
         json.dumps([{"argv": argv, "out_file": out_file}])],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert json.loads(proc.stdout)["invocations"] == [expected]


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "3", "--n", "2"],
    ["verify", "--m", "3", "--n", "2", "--ddt-out", "{tmp}/ddt.csv"],
    ["sweep", "--m-range", "1..3", "--n-range", "1..4"],
])
def test_verify_does_not_import_numpy_ma(tmp_path, argv):
    """np.unique imports numpy.ma, about 18 ms in every fresh process, and a first
    numpy.random generator costs about as much; verify and sweep need neither."""
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(tmp=tmp_path) for a in argv]
    script = (
        "import sys\n"
        "from apnforge import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.stderr.splitlines()[-1] == f"{EXIT_OK} False False", proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["verify", "--m", "3", "--n", "2"], EXIT_OK),
    (["verify", "--m", "6", "--n", "2", "--c", "5"], EXIT_CHECK_FAILED),  # kernels of 4 and 64
    (["verify", "--m", "9", "--n", "1"], EXIT_USAGE),
    (["verify", "--m", "3", "--n", "2", "--out", "{tmp}"], EXIT_IO),  # a directory
])
def test_exit_codes_through_a_real_process(capsys, tmp_path, argv, code):
    """`python -m apnforge.cli` reaches entrypoint(), whose sys.exit carries main's code
    to the process, with the stdout main writes in-process."""
    root = Path(__file__).resolve().parents[1]
    argv = [a.format(tmp=tmp_path) for a in argv]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "apnforge.cli", *argv], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == code, proc.stderr
    assert run(capsys, *argv)[:2] == (code, proc.stdout)


def test_witness_json_and_failure_modes(capsys):
    code, out, _ = run(capsys, "witness", "--m", "2", "--n", "1", "--y", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_vanish"] is True
    assert [w["witness_hex"] for w in doc["witnesses"]] == ["6", "8", "a"]
    assert [w["in_subfield_r"] for w in doc["witnesses"]] == [True, False, False]
    assert [w["in_unity_roots"] for w in doc["witnesses"]] == [False, True, True]

    code, _, err = run(capsys, "witness", "--m", "2", "--n", "1", "--y", "1")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "witness", "--m", "2", "--n", "1", "--y", "3")
    assert code == EXIT_USAGE


def test_witness_csv(capsys):
    code, out, _ = run(capsys, "witness", "--m", "2", "--n", "1", "--y", "8", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "witness_hex,in_subfield_r,in_unity_roots,poly_value_hex"
    assert lines[1] == "6,true,false,0"


def test_bc_empirical(capsys):
    code, out, _ = run(capsys, "bc-empirical", "--max-2m", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "bc-empirical"
    assert [r["m"] for r in doc["rows"]] == [3, 4, 5, 6]
    assert all(r["exists_c"] for r in doc["rows"])
    code, _, _ = run(capsys, "bc-empirical", "--max-2m", "4")
    assert code == EXIT_USAGE


def test_modulus_table_flag_and_env(tmp_path, capsys, monkeypatch):
    table = tmp_path / "mods.json"
    table.write_text(json.dumps({"4": "19"}))
    code, out, _ = run(capsys, "sweep", "--m-range", "2..2", "--n-range", "1..1",
                       "--modulus-table", str(table))
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["modulus_hex"] == "19"

    monkeypatch.setenv(ENV_MODULUS_TABLE, str(table))
    code, out, _ = run(capsys, "sweep", "--m-range", "2..2", "--n-range", "1..1")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["modulus_hex"] == "19"


def test_modulus_table_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "sweep", "--modulus-table", str(missing))
    assert code == EXIT_IO
    garbled = tmp_path / "bad.json"
    garbled.write_text("[1, 2]")
    code, _, err = run(capsys, "sweep", "--modulus-table", str(garbled))
    assert code == EXIT_USAGE
    reducible = tmp_path / "red.json"
    reducible.write_text(json.dumps({"4": "15"}))
    code, _, err = run(capsys, "sweep", "--m-range", "2..2", "--modulus-table", str(reducible))
    assert code == EXIT_USAGE


def test_negative_modulus_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """"-13" parses to a polynomial with the right degree and constant term; it must
    be refused, not reduced by forever."""
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({**GOOD_PARAMS, "modulus_hex": "-13"}))
    table = tmp_path / "mods.json"
    table.write_text(json.dumps({"4": "-13"}))
    sweep = ("sweep", "--m-range", "2..2", "--n-range", "1..1")
    for argv in [("verify", "--params", str(pfile)), (*sweep, "--modulus-table", str(table))]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "-0x13 is negative" in err
    monkeypatch.setenv(ENV_MODULUS_TABLE, str(table))
    code, out, err = run(capsys, *sweep)
    assert (code, out) == (EXIT_USAGE, "")
    assert "-0x13 is negative" in err


def test_modulus_table_non_string_value_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "mods.json"
    table.write_text(json.dumps({"4": 19}))
    code, out, err = run(capsys, "sweep", "--m-range", "2..2", "--modulus-table", str(table))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "must be hex strings, got {'4': 19}" in err


def test_modulus_table_non_integer_degree_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "mods.json"
    table.write_text(json.dumps({"4": "19", "x": "13"}))
    code, out, err = run(capsys, "sweep", "--m-range", "2..2", "--modulus-table", str(table))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: modulus table {table}: ") and "'x'" in err


def test_out_path_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir.json"
    code, _, err = run(capsys, "sweep", "--m-range", "1..1", "--n-range", "1..1", "--out", str(out))
    assert code == EXIT_IO
    assert err == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"


@pytest.mark.parametrize("argv, flag", [
    (("sweep", "--m-range", "1..1", "--n-range", "1..1"), "--out"),
    (("verify", "--m", "2", "--n", "1"), "--ddt-out"),
])
def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, argv, flag):
    path_open = Path.open

    class FullDisk(io.FileIO):
        """Takes half of the first write, then fails as a full disk does."""

        def write(self, data):
            super().write(bytes(data)[: len(data) // 2])
            raise OSError(28, "No space left on device")

    def open_full_disk(self, mode="r", *args, **kwargs):
        return FullDisk(self, mode) if "w" in mode else path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_full_disk)
    target = tmp_path / "report.out"
    code, _, err = run(capsys, *argv, flag, str(target))
    assert code == EXIT_IO
    assert "No space left" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, exit_code", [
    (OSError(28, "No space left on device"), EXIT_IO),
    (CrossCheckError("rows disagree"), EXIT_CHECK_FAILED),
])
def test_ddt_stream_failing_after_its_first_block_leaves_no_file(
    tmp_path, capsys, monkeypatch, exc, exit_code
):
    target = tmp_path / "ddt.csv"
    tmp = tmp_path / f".ddt.csv.{os.getpid()}.tmp"

    def first_block_then_fail(spec):
        yield next(differential.ddt_csv_blocks(spec))
        assert tmp.exists()  # the stream is being written, not collected first
        raise exc

    monkeypatch.setattr(cli, "ddt_csv_blocks", first_block_then_fail)
    code, _, err = run(capsys, "verify", "--m", "3", "--n", "1", "--ddt-out", str(target))
    assert code == exit_code
    assert str(exc) in err
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_from_argparse(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["verify", "--m", "2", "--n", "1", "--format", "csv"]) == EXIT_USAGE
    capsys.readouterr()


def test_bad_range_flag(capsys):
    code, _, err = run(capsys, "sweep", "--m-range", "5..2")
    assert code == EXIT_USAGE
    assert "range" in err


def test_verify_is_periodic_in_n_with_period_2m(capsys):
    """n enters F only through x^(2^n) in F_{2^(2m)}, so (m, n) and (m, n + 2m) are one instance:
    their verify reports agree in everything but params.n."""
    for m in range(1, 5):
        for n in range(1, 2 * m + 1):
            reports = []
            for n_run in (n, n + 2 * m):
                code, out, _ = run(capsys, "verify", "--m", str(m), "--n", str(n_run))
                doc = json.loads(out)
                assert doc["params"].pop("n") == n_run
                reports.append((code, doc))
            assert reports[0] == reports[1], (m, n)
