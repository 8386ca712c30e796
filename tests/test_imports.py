"""Static checks over the halab sources: every imported name is used,
every quotient projection goes through project or apply, tensor quotients
have one builder and rows one elimination engine, products with a basis
element are lookups, a Mat is written only before it is read, no module
uses floating point, and true division appears only in fields.py."""

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


def _callers(name):
    """(module file, top-level definition) for every call of name in the
    halab sources, as a bare name or as an attribute."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for call in ast.walk(top):
                if isinstance(call, ast.Call) and name in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None)):
                    out.add((path.name, getattr(top, "name", "<module>")))
    return out


def test_one_quotient_builder_and_one_engine():
    """quotient_by is called only by bimod.tensor_over, so every tensor
    quotient has one builder; _echelon_dict is called only in linalg."""
    assert _callers("quotient_by") == {("bimod.py", "tensor_over")}
    engine = _callers("_echelon_dict")
    assert engine and {module for module, _ in engine} == {"linalg.py"}


def _call_name(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_products_with_basis_elements_are_lookups(path):
    """A product with a basis element passes its index (mul_vec(i, y),
    left_mult_matrix(i)) or reads a column (M.col(i)); no call of
    mul_vec, matvec or a multiplication matrix builds basis_vec(...) as
    an argument."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_name(node) in ("mul_vec", "matvec", "left_mult_matrix",
                                 "right_mult_matrix")
        and any(isinstance(arg, ast.Call) and _call_name(arg) == "basis_vec"
                for arg in node.args))
    assert not lines, "%s multiplies by basis_vec(...) at lines %s" % (
        path.name, lines)


def _written_mat(target):
    """X for an assignment target X.data[..] or X.data[..][..], else None."""
    if not isinstance(target, ast.Subscript):
        return None
    while isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute) and target.attr == "data"
            and isinstance(target.value, ast.Name)):
        return target.value.id
    return None


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_mat_is_written_before_it_is_read(path):
    """Mat readers use a sparse column view cached on the first read, so
    the sources write X.data[..] only on a Mat X that the same function
    made with Mat.zero, Mat.identity or copy(), and use X in no other way
    than X.data, X.rows, X.cols or X.field between making it and its last
    write (in source order)."""
    bad = []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        made, writes = {}, {}
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AugAssign)
                       else [])
            for t in targets:
                if _written_mat(t):
                    writes.setdefault(_written_mat(t), []).append(t.lineno)
                elif (isinstance(t, ast.Name)
                      and isinstance(node.value, ast.Call)
                      and _call_name(node.value) in ("zero", "identity",
                                                     "copy")):
                    made[t.id] = t.lineno
        plain = {id(node.value) for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("data", "rows", "cols", "field")}
        for name, lines in writes.items():
            early = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, ast.Name) and node.id == name
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in plain
                     and made.get(name, max(lines)) < node.lineno
                     < max(lines)]
            if name not in made or early:
                bad.append((fn.name, name, max(lines)))
    assert not bad, "%s writes a Mat it did not just make: %s" % (path.name,
                                                                  bad)


def _float_uses(tree):
    """Lines with a float or complex literal, a use of the name float,
    complex or cmath, or an import of cmath."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Constant)
            and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name)
            and node.id in ("float", "complex", "cmath"))
        or (isinstance(node, ast.alias) and node.name == "cmath")
        or (isinstance(node, ast.ImportFrom) and node.module == "cmath"))


def test_torus_verdicts_are_exact():
    torus = ast.parse((SRC / "torus.py").read_text())
    cli = ast.parse((SRC / "cli.py").read_text())
    battery = next(node for node in ast.walk(cli)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_torus_battery")
    assert not _float_uses(torus), "torus.py uses floating point"
    assert not _float_uses(battery), "cli._torus_battery uses floating point"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    lines = _float_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "%s uses floating point at lines %s" % (path.name,
                                                              lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_true_division_only_in_fields(path):
    """int / int is a float, so every quotient goes through field.div and
    the operator / appears in fields.py only."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div))
    assert path.name == "fields.py" or not lines, (
        "%s divides with / at lines %s; use field.div" % (path.name, lines))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    """pyproject.toml declares requires-python >= 3.10, so no module may use
    newer syntax."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
