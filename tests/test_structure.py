"""Structural rules of the package, each a scan of its source, with a
planted violation that the scan must flag."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "padic_fourier"


def oracle_functions(root):
    """(file, line, name) of each function under ``root`` whose docstring
    calls it an oracle.  A slow reference computation serves the tests, in
    ``tests/oracles.py``; the package keeps none on a job path."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if re.search(r"\boracle", ast.get_docstring(node) or "", re.IGNORECASE):
                    found.append((path.name, node.lineno, node.name))
    return found


def test_no_function_in_the_package_is_an_oracle():
    assert oracle_functions(SRC) == []


def test_oracle_scan_flags_a_planted_oracle(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def slow(self):\n"
        '        """Independent oracle: the schoolbook product."""\n'
        "\n\n"
        "def fast():\n"
        '    """The packed product."""\n'
    )
    assert oracle_functions(tmp_path) == [("mod.py", 2, "slow")]
