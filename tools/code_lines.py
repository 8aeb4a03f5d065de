"""Count code lines per module under src/, exported names, and settable values.

A line counts when it holds at least one token that is not a comment, a
newline or indentation, after the module, class and function docstrings
(found with ``ast``) are dropped. A settable value of the library is a
parameter with a default of a callable in ``conforminv.__all__`` (a class
counts its constructor's, so a dataclass its fields with a default),
booked to the module that defines the callable. A settable value of the
CLI is an argparse action of a subcommand other than its --help: a
positional, an option or a flag of ``conforminv.cli.build_parser()``.
The exported names are the entries of each submodule's ``__all__``, and
of the package's. All three are imported from ROOT. Run from anywhere:

    python3 tools/code_lines.py [ROOT]

ROOT defaults to the ``src`` directory beside this script's parent.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import io
import pkgutil
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def exported_names() -> dict[str, int]:
    """Submodule name -> length of its __all__, for the submodules that have one."""
    import conforminv

    counts = {}
    for info in pkgutil.iter_modules(conforminv.__path__):
        names = getattr(importlib.import_module(f"conforminv.{info.name}"), "__all__", None)
        if names is not None:
            counts[info.name] = len(names)
    return counts


def library_values() -> dict[str, int]:
    """Module name -> parameters with a default of the exported callables it defines."""
    import conforminv

    counts: dict[str, int] = {}
    for obj in (getattr(conforminv, name) for name in conforminv.__all__):
        if callable(obj):
            module = obj.__module__.rpartition(".")[2]
            params = inspect.signature(obj).parameters.values()
            counts[module] = counts.get(module, 0) + sum(
                param.default is not inspect.Parameter.empty for param in params)
    return dict(sorted(counts.items()))


def settable_values() -> dict[str, int]:
    """Subcommand name -> number of its argparse actions other than --help."""
    from conforminv.cli import build_parser

    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return {name: sum(not isinstance(action, argparse._HelpAction) for action in sub._actions)
            for name, sub in subs.choices.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    sys.path.insert(0, str(root))
    import conforminv

    for title, values in (("Exported names:", exported_names()),
                          ("Library settable values:", library_values()),
                          ("CLI settable values:", settable_values())):
        print(title)
        for name, count in values.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(values.values()):6d}  total")
    print(f"Package exports: {len(conforminv.__all__)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
