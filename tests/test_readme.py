"""The README's examples run as written."""

import re
from pathlib import Path

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
