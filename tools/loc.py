"""The package's size by the counts the roadmap's north star takes.

    python tools/loc.py [SRC_DIR]

It prints four counts over the ``.py`` files of ``src/j6opt`` (or of
SRC_DIR): all lines; code lines, those holding a token that is neither
a comment nor part of a docstring, blanks left out; docstring lines,
those a module, class or function docstring spans; and the public
names, ``len(j6opt.__all__)`` of the package imported from that
directory.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "j6opt"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def docstring_lines(text: str) -> set[int]:
    """The 1-based numbers of the lines the docstrings of ``text`` span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int, int]:
    """Lines, code lines and docstring lines of one source file."""
    docs = docstring_lines(text)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code), len(docs)


def public_names(src: Path) -> int:
    """``len(__all__)`` of the package at ``src``, imported under a name of
    its own so that an installed j6opt is not the one read."""
    spec = importlib.util.spec_from_file_location("j6opt_loc", src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return len(package.__all__)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else SRC
    files = sorted(src.glob("*.py"))
    if not files:
        print(f"error: no .py files in {src}", file=sys.stderr)
        return 2
    total = [sum(x) for x in zip(*(counts(f.read_text(encoding="utf-8")) for f in files))]
    print(f"src lines: {total[0]}")
    print(f"code lines: {total[1]}")
    print(f"docstring lines: {total[2]}")
    print(f"public names: {public_names(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
