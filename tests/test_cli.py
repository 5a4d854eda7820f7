"""End-to-end CLI behavior: outputs, exit codes, config plumbing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apnforge import cli, compatibility, differential
from apnforge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ENV_MODULUS_TABLE,
    main,
    parse_range,
)


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


def test_verify_ddt_export(tmp_path, capsys):
    ddt_path = tmp_path / "ddt.csv"
    code, _, _ = run(capsys, "verify", "--m", "2", "--n", "1", "--ddt-out", str(ddt_path))
    assert code == EXIT_OK
    rows = ddt_path.read_text().strip().split("\n")
    assert len(rows) == 16
    assert rows[0].split(",")[0] == "16"
    # File bytes pinned so the write path keeps them byte-identical.
    for m, n, size, digest in [
        ("3", "2", 8193, "26ce68611e240749c47b8bfa62931be359bcaa5f98459c26aab19ad5fafacbb6"),
        ("4", "1", 131074, "b91a35a66b9c8feda8116350f83c42de356a2988eaf48f5805848a60ef3298f1"),
    ]:
        code, _, _ = run(capsys, "verify", "--m", m, "--n", n, "--ddt-out", str(ddt_path))
        assert code == EXIT_OK
        data = ddt_path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


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
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_STDOUT)
def test_stdout_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_traced_benchmark_replay_reproduces_cli_stdout(capsys):
    """perfbench/replay.py re-runs verify through public calls; its bytes must match."""
    root = Path(__file__).resolve().parents[1]
    argv = ["verify", "--m", "3", "--n", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "replay.py"),
         json.dumps([{"argv": argv, "out_file": None}])],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    replayed = json.loads(proc.stdout)["invocations"][0]["stdout_sha256"]
    assert replayed == hashlib.sha256(out.encode()).hexdigest()


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


def test_modulus_table_non_string_value_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "mods.json"
    table.write_text(json.dumps({"4": 19}))
    code, out, err = run(capsys, "sweep", "--m-range", "2..2", "--modulus-table", str(table))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "must be hex strings, got {'4': 19}" in err


def test_out_path_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--m-range", "1..1", "--n-range", "1..1",
                       "--out", str(tmp_path / "no" / "such" / "dir.json"))
    assert code == EXIT_IO


@pytest.mark.parametrize("argv, flag", [
    (("sweep", "--m-range", "1..1", "--n-range", "1..1"), "--out"),
    (("verify", "--m", "2", "--n", "1"), "--ddt-out"),
])
def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, argv, flag):
    write_text = Path.write_text

    def fail_partway(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", fail_partway)
    target = tmp_path / "report.out"
    code, _, err = run(capsys, *argv, flag, str(target))
    assert code == EXIT_IO
    assert "No space left" in err
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
