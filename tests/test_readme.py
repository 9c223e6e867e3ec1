"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from quantimatch import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(opening: str) -> str:
    """Text of the first fenced block whose first line is `opening`."""
    m = re.search(r"^```[a-z]*\n(" + re.escape(opening) + r"\n.*?)^```", README,
                  re.MULTILINE | re.DOTALL)
    assert m, opening
    return m.group(1)


def test_python_api_example_prints_its_values(capsys):
    code = _block("from quantimatch.automaton import parse_automaton, WeightedAutomaton, CostKind")
    exec(code, {"spec_text": _block("var x;")})
    assert capsys.readouterr().out.splitlines() == ["5.0", "5.0"]


def test_tracevalue_example_prints_its_value(capsys, monkeypatch, tmp_path):
    (tmp_path / "overshoot.tsa").write_text(_block("var x;"))
    (tmp_path / "short.txt").write_text(_block("x\n2.5 10"))
    m = re.search(r"^\$ quantimatch (tracevalue [^\n]*)\n(.*?)^```", README,
                  re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(m.group(1))) == 0
    assert capsys.readouterr().out == m.group(2) == "5\n"
