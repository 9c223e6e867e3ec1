"""Command line behavior: outputs, exit codes, determinism."""

import io

import pytest

from quantimatch import cli

from conftest import OVERSHOOT_SPEC

LONG_SIGNAL = "x\n7.5 10\n10 40\n13 60\n"
SHORT_SIGNAL = "x\n2.5 10\n1 40\n3 60\n"
TWO_STEP_SIGNAL = "x\n3.5 7\n3.5 12\n"

EXPECTED_GRID = (
    "t\tt'\tvalue\n"
    "0\t10\t5\n"
    "0\t20\t-inf\n"
    "0\t30\t-inf\n"
    "10\t20\t-25\n"
    "10\t30\t-inf\n"
    "20\t30\t-45\n"
)


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "overshoot.tsa"
    p.write_text(OVERSHOOT_SPEC)
    return str(p)


def sig_path(tmp_path, text, name="sig.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tracevalue_supinf(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, SHORT_SIGNAL),
    )
    assert (code, out, err) == (0, "5\n", "")


def test_tracevalue_other_pairings(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, SHORT_SIGNAL)
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "tropical",
        "--cost", "t", "--signal", sig,
    )
    assert (code, out) == (0, "-10\n")
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "boolean",
        "--cost", "b", "--signal", sig,
    )
    assert (code, out) == (0, "true\n")


def test_tracevalue_no_match_prints_zero(capsys, tmp_path, spec_path):
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, LONG_SIGNAL),
    )
    assert (code, out) == (0, "-inf\n")


def test_tracevalue_reads_stdin(capsys, monkeypatch, spec_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(SHORT_SIGNAL))
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
    )
    assert (code, out) == (0, "5\n")


def test_pairing_mismatch_is_usage_error(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "t", "--signal", sig_path(tmp_path, SHORT_SIGNAL),
    )
    assert code == 64 and out == ""
    assert "tropical" in err


def test_unreadable_spec(capsys, tmp_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", str(tmp_path / "missing.tsa"),
        "--semiring", "supinf", "--cost", "r", "--signal", "-",
    )
    assert code == 1 and "cannot read" in err


def test_spec_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsa"
    bad.write_text("var x;\nlocation l0 [y < 1];\n")
    code, _, err = run(
        capsys, "tracevalue", "--spec", str(bad), "--semiring", "supinf",
        "--cost", "r", "--signal", "-",
    )
    assert code == 1 and "line 2" in err and "unknown variable" in err


def test_malformed_signal(capsys, tmp_path, spec_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, "x\n1 2\nbroken row\n"),
    )
    assert code == 1 and "line 3" in err


def test_header_only_signal_is_evaluation_error(capsys, tmp_path, spec_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, "x\n"),
    )
    assert code == 2 and "empty signal" in err


def test_query(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    base = ["query", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
            "--signal", sig, "--query"]
    code, out, _ = run(capsys, *base, "3", "15")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, *base, "10", "15")
    assert (code, out) == (0, "-25\n")
    code, out, _ = run(capsys, *base, "0", "25")
    assert (code, out) == (0, "-inf\n")


def test_query_usage_errors(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    base = ["query", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
            "--signal", sig, "--query"]
    for t, tp in [("abc", "2"), ("5", "5"), ("7", "3"), ("-1", "4")]:
        code, out, err = run(capsys, *base, t, tp)
        assert code == 64 and out == ""
        assert err


def test_grid_output_exact(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "grid", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
        "--signal", sig_path(tmp_path, LONG_SIGNAL), "--grid", "10",
    )
    assert (code, err) == (0, "")
    assert out == EXPECTED_GRID


def test_grid_usage_errors(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    for delta in ("0", "-2", "x"):
        code, _, err = run(
            capsys, "grid", "--spec", spec_path, "--semiring", "supinf",
            "--cost", "r", "--signal", sig, "--grid", delta,
        )
        assert code == 64 and err


def test_usage_errors_come_before_evaluation(capsys, tmp_path, spec_path):
    # the pattern reads x, which this signal lacks
    sig = sig_path(tmp_path, "y\n1 7\n2 12\n")
    base = ["--spec", spec_path, "--semiring", "supinf", "--cost", "r", "--signal", sig]
    code, _, err = run(capsys, "grid", *base, "--grid", "1")
    assert code == 2 and "missing" in err
    code, out, err = run(capsys, "grid", *base, "--grid", "0")
    assert (code, out) == (64, "") and "positive" in err
    code, out, err = run(capsys, "query", *base, "--query", "5", "5")
    assert (code, out) == (64, "") and err


def test_monitor_streams_rows(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, LONG_SIGNAL),
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "t in [0,0], t' in [7.5,7.5], t'-t in [7.5,7.5] : 5"
    assert lines[1] == "t in [0,0], t' in (0,7.5), t'-t in (0,7.5) : 5"
    assert lines[2] == "t in (0,7.5), t' in [7.5,7.5], t'-t in (0,7.5) : 5"
    assert len(lines) > 10
    assert all(" : " in l for l in lines)


def test_monitor_from_stdin(capsys, monkeypatch, spec_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(TWO_STEP_SIGNAL))
    code, out, _ = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
    )
    assert code == 0
    assert any(l.endswith(" : 7") for l in out.splitlines())


def test_monitor_reports_bad_row_after_output(capsys, tmp_path, spec_path):
    text = "x\n7.5 10\n10 40\nno good\n"
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, text),
    )
    assert code == 1
    assert "line 4" in err
    assert len(out.splitlines()) > 3  # rows from the first two segments made it out


def test_usage_exit_codes(capsys, spec_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["tracevalue"])
    assert e.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.main(
            ["tracevalue", "--spec", spec_path, "--semiring", "galois", "--cost", "r"]
        )
    assert e.value.code == 64
    capsys.readouterr()


def test_reruns_are_byte_identical(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
            "--cost", "r", "--signal", sig,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
