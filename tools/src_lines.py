"""Line counts of src/thetarel, per module and in total.

Usage: python3 tools/src_lines.py [REPO_ROOT]

For each module prints its lines and its code lines.  Code lines are
the lines that are not blank, not comment-only and not part of a
docstring (a string literal that is the first statement of a module,
class or function), found with ast and tokenize.  Stdlib only.
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


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else ".")
    modules = sorted((root / "src" / "thetarel").glob("*.py"))
    if not modules:
        print(f"no modules under {root / 'src' / 'thetarel'}", file=sys.stderr)
        return 1
    total_lines = total_code = 0
    print(f"{'module':20s} {'lines':>6s} {'code':>6s}")
    for path in modules:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:20s} {lines:6d} {code:6d}")
    print(f"{'total':20s} {total_lines:6d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
