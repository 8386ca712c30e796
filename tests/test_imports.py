"""Static checks over the halab sources: every imported name is used, and
every quotient projection goes through project or apply."""

import ast
from pathlib import Path

import pytest

import halab.linalg

SRC = Path(halab.linalg.__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (path.name, unused)


def _is_proj(node):
    return isinstance(node, ast.Attribute) and node.attr == "proj"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_projection_path(path):
    """No module multiplies by a quotient's dense .proj or calls
    .proj.matvec: every projection goes through project or apply."""
    tree = ast.parse(path.read_text(), filename=str(path))
    dense = sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_is_proj(node.left) or _is_proj(node.right)))
        or (isinstance(node, ast.Attribute) and node.attr == "matvec"
            and _is_proj(node.value)))
    assert not dense, "%s applies a dense proj at lines %s" % (path.name,
                                                               dense)
