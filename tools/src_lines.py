"""Line counts of src/thetarel, per module and in total.

Usage: python3 tools/src_lines.py [ROOT [CHANGED_ROOT]]

For each module prints its lines and its code lines.  Code lines are
the lines that are not blank, not comment-only and not part of a
docstring (a string literal that is the first statement of a module,
class or function), found with ast and tokenize.  Given two roots, the
parent (p-, say a copy of the parent commit) and the change (c-, say
the working tree), it prints both counts of each module and the delta
(d-, change minus parent); a module that one root lacks counts 0 lines
there.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def _counts(root: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (lines, code lines)} of root/src/thetarel."""
    modules = sorted((root / "src" / "thetarel").glob("*.py"))
    if not modules:
        raise SystemExit(f"no modules under {root / 'src' / 'thetarel'}")
    return {path.name: count(path.read_text(encoding="utf-8")) for path in modules}


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:3]] or [Path(".")]
    tables = [_counts(root) for root in roots]
    rows = {
        name: [v for table in tables for v in table.get(name, (0, 0))]
        for name in sorted(set().union(*tables))
    }
    rows["total"] = [sum(column) for column in zip(*rows.values())]
    heads = ["lines", "code"]
    if len(tables) == 2:
        heads = ["p-lines", "p-code", "c-lines", "c-code", "d-lines", "d-code"]
        for cells in rows.values():
            cells += [cells[2] - cells[0], cells[3] - cells[1]]
    print(f"{'module':20s}" + "".join(f" {head:>7s}" for head in heads))
    for name, cells in rows.items():
        print(f"{name:20s}" + "".join(f" {v:7d}" for v in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
