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


def _tree(root, modules):
    package = root / "src" / "thetarel"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    return root


def test_two_roots_print_parent_change_and_delta(tmp_path):
    parent = _tree(tmp_path / "parent", {"a.py": "X = 1\n", "b.py": '"""Doc."""\nY = 2\nZ = 3\n'})
    change = _tree(tmp_path / "change", {"b.py": "Y = 2\n\n", "c.py": "# c\nW = 4\n"})
    done = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["module", "p-lines", "p-code", "c-lines", "c-code",
                                "d-lines", "d-code"]
    rows = {row[0]: [int(v) for v in row[1:]] for row in map(str.split, lines[1:])}
    assert rows == {
        "a.py": [1, 1, 0, 0, -1, -1],
        "b.py": [3, 2, 2, 1, -1, -1],
        "c.py": [0, 0, 2, 1, 2, 1],
        "total": [4, 3, 4, 2, 0, -1],
    }


def test_the_repository_against_itself_has_no_delta():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT)],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert all(row[1:3] == row[3:5] and row[5:] == ["0", "0"] for row in rows)
    assert rows[-1][0] == "total"
