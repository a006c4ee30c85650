"""The README's library example and inline commands fit the current API and CLI."""

import re
import shlex
from pathlib import Path

from geouio import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the snippet prints the final estimation error
    assert float(capsys.readouterr().out) < 1e-2


def test_inline_commands_parse():
    """Every concrete `geo-uio ...` command quoted inline in the README
    parses; synopsis lines, with their brackets and bars, are skipped."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    commands = [" ".join(c.split()) for c in re.findall(r"`(geo-uio [^`]*)`", text)]
    concrete = [c for c in commands if not set(c) & set("[({|")]
    assert len(concrete) >= 4
    for command in concrete:
        cli._build_parser().parse_args(shlex.split(command)[1:])
