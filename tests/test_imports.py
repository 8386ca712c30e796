"""Static checks over the halab sources: every imported name is used,
every quotient projection goes through project or apply, tensor quotients
have one builder, rows one elimination engine and systems for an unknown
linear map one solver (linalg.solve_map), products with a basis
element are lookups, no product takes a kron(...) operand outside
hopfalgebroid.check_coupled (lifts go through FDAlgebra.convolve and
kron_cols), no Mat's .data is ever written, no module uses floating
point, and true division appears only in fields.py."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_projection_path(path):
    """No module reads a quotient's dense .proj or .section: every
    projection goes through project or apply, and every lift of a
    quotient coordinate through section_cols."""
    tree = ast.parse(path.read_text(), filename=str(path))
    dense = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("proj", "section"))
    assert not dense, "%s reads a dense proj or section at lines %s" % (
        path.name, dense)


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


def test_one_solver_for_unknown_maps():
    """solve_affine_sparse is called only in linalg, so every system for an
    unknown linear map is built by linalg.solve_map, and no function in
    the sources is named unk: no module numbers unknowns by hand."""
    solver = _callers("solve_affine_sparse")
    assert solver and {module for module, _ in solver} == {"linalg.py"}
    unk = sorted(
        (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "unk")
    assert not unk, "functions named unk at %s" % unk


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


def _kron_products(tree):
    """The top-level definitions of tree that hold a product with a
    kron(...) call as an operand, at any depth."""
    return {getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(x, ast.Call) and _call_name(x) == "kron"
                    for x in (node.left, node.right))}


def test_kron_products_are_found():
    tree = ast.parse("def f():\n    return m * (kron(F, G) * X)\n"
                     "def g():\n    return linalg.kron(A, B) * M\n"
                     "def h():\n    return M * kron(A, B)\n"
                     "def k():\n    return kron_cols(A, B, M), kron(A, B)\n")
    assert _kron_products(tree) == {"f", "g", "h"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lifts_are_not_multiplied_through_kron(path):
    """Coproduct lifts go through FDAlgebra.convolve (mu (F (x) G) lift)
    or kron_cols (kron(A, B) * M): no product forms a Kronecker product.
    check_coupled keeps its coupled:commute lines until the benchmark
    stops reading hopfalgebroid.kron."""
    found = _kron_products(ast.parse(path.read_text(), filename=str(path)))
    allowed = {"check_coupled"} if path.name == "hopfalgebroid.py" else set()
    assert found <= allowed, "%s multiplies by kron(...) in %s" % (
        path.name, sorted(found - allowed))


def _data_writes(tree):
    """Lines that assign to or delete X.data, an item of it or an item of
    its rows, in any target form (plain, augmented, tuple)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            continue
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute) and base.attr == "data":
            lines.append(node.lineno)
    return sorted(lines)


def test_data_writes_are_found():
    tree = ast.parse("M.data[i][j] = 1\n"
                     "M.data[0], P.data[1] = a, b\n"
                     "N.data[i][j] += 1\n"
                     "Q.data = []\n"
                     "x = R.data[0][1]\n")
    assert _data_writes(tree) == [1, 2, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_mat_is_written_before_it_is_read(path):
    """The sources never write a Mat's .data at all, so no Mat is written
    after it was read: the library builds every Mat from its columns, and
    only tests and benchmark mutations write the dense rows of a Mat made
    by Mat(...), Mat.zero or copy()."""
    lines = _data_writes(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "%s writes .data at lines %s" % (path.name, lines)


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
