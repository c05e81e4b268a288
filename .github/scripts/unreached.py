"""Report the statements of src/metasgld that the tier-1 tests never execute.

Runs pytest in this process under ``sys.settrace``, tracing only code that
lives under src/metasgld, then prints each statement line (by the ``ast``)
that no test reached, as ``path:line  source``, and their count.  The body of
an ``if __name__ == "__main__":`` block runs only as a script, so it is not
counted.  It exits with pytest's status if the tests failed, else 1 if any
statement is unreached, else 0.  The perfbench smoke test is deselected,
since its runs happen in worker processes, out of the trace.

    python .github/scripts/unreached.py [extra pytest arguments]

Run it from the repository root.  Standard library and pytest only.
"""
import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "metasgld"
SMOKE = "tests/test_perfbench_smoke.py::test_perfbench_selftest_passes"


def statement_lines(path: Path) -> set:
    """The first line of every statement that compiles to code and runs on
    import or call: a function's docstring compiles to none, and the body of
    an ``if __name__ == "__main__":`` block runs only as a script."""
    tree = ast.parse(path.read_text(), str(path))
    skipped = {id(node.body[0]) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and ast.get_docstring(node, clean=False) is not None}
    skipped |= {id(inner) for node in ast.walk(tree)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
                for stmt in node.body for inner in ast.walk(stmt)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in skipped}


def main(argv) -> int:
    hits = {}             # source file under SRC -> lines executed
    inside = {}           # co_filename -> its path under SRC, or None

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(os.path.realpath(name))
            inside[name] = path if SRC in path.parents else None
            hits.setdefault(inside[name], set())
        return local if inside[name] else None

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", SMOKE, *argv])
    finally:
        sys.settrace(None)

    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - hits.get(path, set())):
            unreached.append(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(*unreached, sep="\n")
    print(f"statements under {SRC.relative_to(ROOT)} that no test executed: {len(unreached)}")
    return int(status) or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
