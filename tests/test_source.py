import ast
from pathlib import Path

import gorlab

SRC = Path(gorlab.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no served value or
    # certificate check may rest on one; failures raise GorlabError instead
    paths = sorted(SRC.rglob("*.py"))
    assert paths, "package sources not found"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in gorlab: {found}"
