"""Statement coverage of `src/simskip` by the tests under `tests/`, stdlib only.

Run from anywhere:  python tests/statement_coverage.py

It runs pytest in this process under `sys.settrace` and `threading.settrace`,
with line events on only for frames whose code lives in `src/simskip`. A
statement is every `ast.stmt` of the package's modules except docstrings,
and it is reached when a line of its own ran: its header for a compound
statement, any of its lines for a simple one. The script prints
`statement_coverage` and each unreached statement. It exits 1 on an
unreached statement that `ALLOWED` does not list, or on an `ALLOWED` entry
that no longer names an unreached statement, and with pytest's code when a
test fails. Tests that run the CLI in a child process add nothing here.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "simskip"

# (file, the statement's first line of text) -> why no test can reach it
ALLOWED = {
    ("cli.py", "sys.exit(parse_and_run(sys.argv[1:]))"):
        "the console-script entry's body; tests call parse_and_run, which it wraps",
    ("cli.py", "main()"):
        "runs under `python -m simskip.cli` only, which tests start as a child process",
}


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path) -> dict[int, tuple[str, set[int]]]:
    """First line -> (its text, the lines that are the statement's own) for
    every non-docstring statement in `path`."""
    source = path.read_text()
    text = source.splitlines()
    found = {}
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(first, node.end_lineno + 1))
            for child in ast.walk(node):
                if child is not node and isinstance(child, ast.stmt):
                    own -= set(range(child.lineno, child.end_lineno + 1))
            found[node.lineno] = (text[node.lineno - 1].strip(), own or {node.lineno})
    return found


def main() -> int:
    hits = defaultdict(set)  # file name -> lines that ran
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    threading.settrace(start)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total, unreached = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = hits[str(path)]
        for line, (text, own) in sorted(statements(path).items()):
            total += 1
            if not own & ran:
                unreached.append((path.relative_to(PACKAGE).as_posix(), line, text))
    print(f"statement_coverage {(total - len(unreached)) / total:.4f} "
          f"({total - len(unreached)} of {total} statements reached)")
    seen, failed = set(), False
    for name, line, text in unreached:
        reason = ALLOWED.get((name, text))
        seen.add((name, text))
        print(f"  {name}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
        failed |= reason is None
    for name, text in sorted(ALLOWED.keys() - seen):
        print(f"  allowed but not unreached: {name}: {text}")
        failed = True
    return int(code) or int(failed)


if __name__ == "__main__":
    sys.exit(main())
