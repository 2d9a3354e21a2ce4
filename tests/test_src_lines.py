"""tools/src_lines.py counts the lines and code lines of src/thetarel."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module
docstring."""

# a comment
X = 1  # a trailing comment keeps its line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return "not a docstring"
'''
    assert _load().count(source) == (14, 4)


def test_runs_on_the_repository():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT)], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    modules = {name: (int(lines), int(code)) for name, lines, code in rows[:-1]}
    assert rows[-1][0] == "total"
    assert {path.name for path in (ROOT / "src" / "thetarel").glob("*.py")} == set(modules)
    assert [sum(col) for col in zip(*modules.values())] == [int(v) for v in rows[-1][1:]]
    assert all(0 < code < lines for lines, code in modules.values())
