"""Static checks over the halab sources: every imported name is used,
every quotient projection goes through project or apply, no comparison
projects both of its sides through a quotient (two lifts are compared by
linalg.equal_in, which projects only the pairs that differ), tensor
quotients have one builder, rows one elimination engine and systems for an unknown
linear map one solver (linalg.solve_map), products with a basis
element are lookups, nothing calls kron(...) outside
hopfalgebroid.check_coupled (lifts go through FDAlgebra.convolve and
kron_cols, and projectivity through Hom_A(M, A)), vectors have one form
(dicts of their nonzeros: no dense [x.zero] * n list outside fields and
the dense Mat views, and no list-or-dict helper), no Mat's .data is ever
written, no module imports random or reads HALAB_SEED, no module uses
floating point, true division appears only in
fields.py,
torus.recompose and torus.chi_product accumulate into supports in place
instead of multiplying and adding elements, the torus products and
Cyc.__mul__ share one scalar convolution (CyclotomicField.times), and the
JSON document format
(its readers and writers, json.load and open) lives in cli.py alone, which
no other module imports.  Every top-level definition in the sources is
referenced by name somewhere in src/, tests/ or bench/, and those that
only tests reference are a pinned list that may only shrink."""

import ast
from pathlib import Path

import pytest

import halab.linalg

SRC = Path(halab.linalg.__file__).parent
REPO = Path(__file__).resolve().parent.parent


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


def _is_projection(node):
    return isinstance(node, ast.Call) and _call_name(node) in ("apply",
                                                                "project")


def _eager_comparisons(tree):
    """(top-level definition, line) of every comparison in tree whose
    operands each contain a quotient projection at any depth: an
    .apply(...) or .project(...) call, or a name whose latest binding in
    the same definition before that line is an expression containing one
    (q.apply(a) * g == h * x with x = q.apply(b)).  A name rebound to a
    plain product before the comparison does not count."""
    found = []
    for top in tree.body:
        bound = {}      # name -> [(line, value)] of its bindings
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    pairs = (zip(t.elts, node.value.elts)
                             if isinstance(t, ast.Tuple)
                             and isinstance(node.value, ast.Tuple)
                             else [(t, node.value)])
                    for n, v in pairs:
                        if isinstance(n, ast.Name):
                            bound.setdefault(n.id, []).append(
                                (node.lineno, v))

        def projects(node, line):
            """Whether node, read at line, contains a projection."""
            return any(_is_projection(n) or isinstance(n, ast.Name)
                       and applied(n.id, line) for n in ast.walk(node))

        def applied(name, line):
            """Whether the latest binding of name before line projects
            (its names read at its own, earlier, line)."""
            before = [b for b in bound.get(name, ()) if b[0] < line]
            if not before:
                return False
            at, value = max(before, key=lambda b: b[0])
            return projects(value, at)
        found.extend(
            (getattr(top, "name", "<module>"), node.lineno)
            for node in ast.walk(top) if isinstance(node, ast.Compare)
            and all(projects(x, node.lineno)
                    for x in [node.left] + node.comparators))
    return sorted(found)


def test_eager_comparisons_are_found():
    tree = ast.parse("def f(q):\n    return q.apply(a) == q.apply(b)\n"
                     "def g(q):\n    lhs = q.apply(a)\n"
                     "    rhs = q.apply(b)\n    return lhs == rhs\n"
                     "def h(q):\n    x, y = q.apply(a), q.apply(b)\n"
                     "    return x != y\n"
                     "def k(q):\n    x = q.apply(a) * g\n"
                     "    return x == h * q.apply(b), equal_in(q, a, b)\n"
                     "def p(q):\n    return q.project(a) == q.project(b)\n"
                     "def r(q):\n    lhs = q.project(a)\n"
                     "    return lhs == q.project(b), q.project(a) == b\n"
                     "def s(q):\n    p = q.apply(a)\n    x = g * p\n"
                     "    return x == h * q.apply(b), x == g\n"
                     "def t(q):\n    lhs = q.apply(a)\n"
                     "    rhs = q.apply(b)\n    ok = lhs == rhs\n"
                     "    lhs = psi * phi\n    rhs = s * counit\n"
                     "    return ok and lhs == rhs\n")
    # t's first comparison reads projections, its second the rebound
    # plain products
    assert _eager_comparisons(tree) == [("f", 2), ("g", 6), ("h", 9),
                                        ("k", 12), ("p", 14), ("r", 17),
                                        ("s", 21), ("t", 25)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lifts_are_compared_before_projecting(path):
    """No comparison projects both of its sides through a quotient, by
    apply or by project at any depth of either side (a product of
    projected maps included): linalg.equal_in, the one exemption,
    compares two lifts as vectors and builds and projects the quotient
    only for pairs that differ."""
    found = _eager_comparisons(ast.parse(path.read_text(),
                                         filename=str(path)))
    if path.name == "linalg.py":
        found = [(name, line) for name, line in found if name != "equal_in"]
    assert not found, "%s compares two quotient applications at %s" % (
        path.name, found)


def test_three_leg_identities_go_through_equal_in():
    """Coassociativity of a bialgebroid and of a coaction, the identities
    that live in a 3-leg quotient, are decided by linalg.equal_in."""
    assert {("hopfalgebroid.py", "_coassociative"),
            ("galois.py", "check_comodule")} <= _callers("equal_in")


def test_composition_squares_compare_lifts():
    """check_composition decides its Galois squares and the prop4 square
    on lifts through linalg.equal_in, and builds no Galois map."""
    assert {("galois.py", "check_composition"),
            ("galois.py", "_prop4_square")} <= _callers("equal_in")
    for builder in ("_galois_pair", "galois_maps"):
        assert ("galois.py", "check_composition") not in _callers(builder)


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


def _kron_calls(tree):
    """The top-level definitions of tree that call kron(...) at any depth,
    and the names under which tree imports kron."""
    calls = {getattr(top, "name", "<module>") for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _call_name(node) == "kron"}
    imports = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "kron"}
    return calls, imports


def test_kron_calls_are_found():
    tree = ast.parse("from .linalg import kron, kron_cols\n"
                     "def f():\n    return solve([(kron(I, L), None)])\n"
                     "def g():\n    return linalg.kron(A, B)\n"
                     "def k():\n    return kron_cols(A, B, M)\n")
    assert _kron_calls(tree) == ({"f", "g"}, {"kron"})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_kron_is_called_only_by_check_coupled(path):
    """No Kronecker product is built in src, as a product operand or
    otherwise: lifts go through FDAlgebra.convolve and kron_cols, and
    is_projective solves for Hom_A(M, A), with no I_g (x) act_x term.
    hopfalgebroid.check_coupled, which the benchmark harness reaches
    through hopfalgebroid.kron, is the one caller and its module the one
    importer."""
    calls, imports = _kron_calls(ast.parse(path.read_text(),
                                           filename=str(path)))
    owner = path.name == "hopfalgebroid.py"
    assert calls <= ({"check_coupled"} if owner else set()), \
        "%s calls kron(...) in %s" % (path.name, sorted(calls))
    assert owner or not imports, "%s imports kron" % path.name


def _dense_vectors(tree):
    """(definition, line) of every list [x.zero] * n or n * [x.zero] in
    tree, also where x.zero was first bound to a name; definition is the
    innermost function (Class.method for a method)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, where + child.name)
                visit(child, where + child.name + ".")

    def scan(func, name):
        zeros = {t.id for node in ast.walk(func)
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Attribute)
                 and node.value.attr == "zero"
                 for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for x in (node.left, node.right):
                    if isinstance(x, ast.List) and len(x.elts) == 1 and (
                            (isinstance(x.elts[0], ast.Attribute)
                             and x.elts[0].attr == "zero")
                            or (isinstance(x.elts[0], ast.Name)
                                and x.elts[0].id in zeros)):
                        found.append((name, node.lineno))
    visit(tree, "")
    return sorted(set(found))


def test_dense_vectors_are_found():
    tree = ast.parse("def f(A):\n    return [A.field.zero] * A.dim\n"
                     "class M:\n    def g(self):\n        z = F.zero\n"
                     "        return [[z] * 2 for _ in range(3)]\n"
                     "def h(n):\n    return n * [QQ.zero], [None] * n, "
                     "[{}] * n, [x.one] * n\n")
    assert _dense_vectors(tree) == [("M.g", 6), ("f", 2), ("h", 8)]


def test_one_vector_form():
    """Every vector is a dict of its nonzeros: no module defines or calls
    a list-or-dict helper (_items, nonzeros) or zero_vec, and no dense
    [x.zero] * n list is built outside fields (polynomial coefficients)
    and the dense Mat views Mat.zero and Mat.data."""
    helpers = ("_items", "nonzeros", "zero_vec")
    for name in helpers:
        assert not _callers(name), "%s is called in %s" % (name,
                                                          _callers(name))
    allowed = {("linalg.py", "Mat.zero"), ("linalg.py", "Mat.data")}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = sorted(node.name for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                         and node.name in helpers)
        assert not defined, "%s defines %s" % (path.name, defined)
        if path.name == "fields.py":
            continue
        dense = [(where, line) for where, line in _dense_vectors(tree)
                 if (path.name, where) not in allowed]
        assert not dense, "%s builds dense vectors at %s" % (path.name,
                                                             dense)


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


# the calls that build a quantum-torus element
_QT_BUILDERS = {"QTElement", "qt_mul", "qt_monomial", "qt_one", "L_operator",
                "random_qt", "recompose"}


def _element_sums(func):
    """Lines of func with a + or += of quantum-torus elements: an operand
    is a call that builds one, an entry of a decomposition (a list of
    components passed as an argument of func), or a name bound to either
    (by assignment or by a loop over a decomposition, also through
    enumerate)."""
    params = {arg.arg for arg in func.args.args}

    def decomposition(node):
        return isinstance(node, ast.Name) and node.id in params

    def builds(node):
        return (isinstance(node, ast.Call) and _call_name(node) in _QT_BUILDERS
                or isinstance(node, ast.Subscript)
                and decomposition(node.value))
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and builds(node.value):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.For):
            it, target = node.iter, node.target
            if isinstance(it, ast.Call) and _call_name(it) == "enumerate" \
                    and isinstance(target, ast.Tuple):
                it, target = it.args[0], target.elts[1]
            if decomposition(it) and isinstance(target, ast.Name):
                names.add(target.id)

    def element(node):
        return builds(node) or isinstance(node, ast.Name) and node.id in names
    return sorted(
        node.lineno for node in ast.walk(func)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (element(node.left) or element(node.right))
        or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
        and (element(node.target) or element(node.value)))


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_element_sums_are_found():
    tree = ast.parse(
        "def f(d):\n"
        "    out = QTElement(2, 1)\n"
        "    for i, a in enumerate(d):\n"
        "        out = out + qt_mul(a, qt_monomial(2, 1, 0, i))\n"
        "def g(d):\n"
        "    for a in d:\n"
        "        s += a\n"
        "    return d[0] + s\n"
        "def h(d, support):\n"
        "    for i, a in enumerate(d):\n"
        "        for (x, b), c in a.support.items():\n"
        "            support[(x, b + i)] = support.get((x, b + i)) + c\n")
    assert [_element_sums(_function(tree, name)) for name in "fgh"] == [
        [4], [7, 8], []]


def _calls(func):
    return {_call_name(node) for node in ast.walk(func)
            if isinstance(node, ast.Call)}


def _element_arithmetic(func):
    """The qt_mul, qt_monomial and L_operator calls of func, and the lines
    of its QTElement sums (_element_sums)."""
    return sorted(_calls(func) & {"qt_mul", "qt_monomial", "L_operator"}), \
        _element_sums(func)


def test_recompose_shifts_exponents():
    """torus.recompose adds each term at its shifted key in one support:
    it multiplies by no V-monomial (no qt_mul, no qt_monomial) and sums
    no QTElements with +."""
    func = _function(ast.parse((SRC / "torus.py").read_text()), "recompose")
    assert _element_arithmetic(func) == ([], [])


def test_componentwise_chi_product_is_found():
    """The component-wise chi_product that the one-pass one replaced
    fails the guard below, at its qt_mul, qt_monomial and L_operator calls
    and at its comps[k] = comps[k] + term line."""
    tree = ast.parse(
        "def chi_product(d1, d2):\n"
        "    n = len(d1)\n"
        "    comps = [QTElement(2, 1) for _ in range(n)]\n"
        "    vn = qt_monomial(2, 1, 0, n)\n"
        "    for i in range(n):\n"
        "        for j in range(n):\n"
        "            k = (i + j) % n\n"
        "            term = qt_mul(d1[i],\n"
        "                          L_operator(d2[j], i))\n"
        "            if i + j >= n:\n"
        "                term = qt_mul(term, vn)\n"
        "            comps[k] = comps[k] + term\n")
    assert _element_arithmetic(_function(tree, "chi_product")) == (
        ["L_operator", "qt_monomial", "qt_mul"], [12])


def test_chi_product_accumulates_in_place():
    """torus.chi_product adds each term pair at its key of one component's
    support: the L^i twist and the V^n carry are exponent arithmetic (no
    qt_mul, qt_monomial or L_operator) and no QTElements are summed."""
    func = _function(ast.parse((SRC / "torus.py").read_text()),
                     "chi_product")
    assert _element_arithmetic(func) == ([], [])


def test_torus_products_take_phases_in_the_kernel():
    """qt_mul and chi_product multiply each term pair by one call of the
    field's kernel times(x, y, k) = x * y * zeta^k: no phase q^k is looked
    up (in _params' table of roots or by zeta) and multiplied in
    afterwards."""
    tree = ast.parse((SRC / "torus.py").read_text())
    for name in ("qt_mul", "chi_product"):
        calls = _calls(_function(tree, name))
        assert not calls & {"_params", "zeta"} and "times" in calls, name


def _convolutions(tree):
    """The definitions (Class.method for a method) of tree that hold a
    convolution loop: a for loop inside another, storing to a subscript
    whose index reads a target of both loops.  An inner enumerate started
    at an expression of the outer targets makes its index count as
    both."""
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = set()

    def scan(func, where):
        for outer in ast.walk(func):
            if not isinstance(outer, ast.For):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.For):
                    continue
                own, both = names(inner.target), names(outer.target)
                it = inner.iter
                if isinstance(it, ast.Call) and _call_name(it) == "enumerate" \
                        and len(it.args) == 2 and names(it.args[1]) & both \
                        and isinstance(inner.target, ast.Tuple):
                    both |= names(inner.target.elts[0])
                if any(isinstance(node, ast.Subscript)
                       and isinstance(node.ctx, ast.Store)
                       and names(node.slice) & own
                       and names(node.slice) & both
                       for node in ast.walk(inner)):
                    found.add(where)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                scan(child, where + child.name)
                visit(child, where + child.name + ".")
    visit(tree, "")
    return found


def test_convolutions_are_found():
    """The product that the kernel replaced and the kernel's own loop are
    convolutions; a root's row sum and a fold through rows are not."""
    tree = ast.parse(
        "class Cyc:\n"
        "    def __mul__(self, o):\n"
        "        nz = [(j, y) for j, y in enumerate(o.num) if y]\n"
        "        for i, x in enumerate(self.num):\n"
        "            for j, y in nz:\n"
        "                out[i + j] += x * y\n"
        "        for k, row in fold:\n"
        "            for i, r in row:\n"
        "                out[i] += out[k] * r\n"
        "def times(x, y, k):\n"
        "    for i, a in enumerate(x.num):\n"
        "        for t, b in enumerate(y.num, i + k):\n"
        "            out[t] += a * b\n"
        "def row_sum(o, rows):\n"
        "    for x, row in zip(o.num, rows):\n"
        "        for j, c in row:\n"
        "            out[j] += x * c\n")
    assert _convolutions(tree) == {"Cyc.__mul__", "times"}


def test_one_scalar_convolution():
    """fields holds one convolution of integer numerators, the kernel
    CyclotomicField.times that Cyc.__mul__ and the torus products share
    (its loop runs above degree 8; below it the straight-line kernels
    that _kernel_source writes hold no loop); the others are the
    polynomial toolkit's, over a field's elements."""
    found = _convolutions(ast.parse((SRC / "fields.py").read_text()))
    assert {name for name in found if not name.startswith("_poly_")} \
        == {"CyclotomicField.times"}
    assert found - {"CyclotomicField.times"} == {"_poly_mul", "_poly_divmod"}


def test_torus_verdicts_are_exact():
    torus = ast.parse((SRC / "torus.py").read_text())
    cli = ast.parse((SRC / "cli.py").read_text())
    battery = next(node for node in ast.walk(cli)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_torus_battery")
    assert not _float_uses(torus), "torus.py uses floating point"
    assert not _float_uses(battery), "cli._torus_battery uses floating point"
    # no verdict from a sample: neither imports random or draws an element
    for name, tree in (("torus.py", torus), ("cli._torus_battery", battery)):
        imports = {alias.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names} | {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)}
        assert "random" not in imports, "%s imports random" % name
        assert "random_qt" not in _calls(tree), "%s calls random_qt" % name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_verdict_depends_on_a_seed(path):
    """No module imports random or reads HALAB_SEED, and check_cleft, which
    decides the normal basis through the witness's own map, takes no
    seed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = {alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names} | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)}
    assert "random" not in imports, "%s imports random" % path.name
    assert not any(isinstance(node, ast.Constant) and node.value == "HALAB_SEED"
                   for node in ast.walk(tree)), \
        "%s reads HALAB_SEED" % path.name
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "check_cleft":
            assert [a.arg for a in node.args.args] == ["D", "c"]


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


def _document_format_uses(tree):
    """(line, what) of every reader or writer of the document format that
    tree defines and of every file or JSON read: a function named
    from_json, *_from_json, *_to_json, parse_field or field_to_json, a
    to_json method outside the report classes, a call of open, json.load
    or json.loads, and an import of the cli module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "to_json" \
                        and node.name not in ("ViolationReport",
                                              "CoveringVerdict"):
                    found.append((item.lineno, node.name + ".to_json"))
        elif isinstance(node, ast.FunctionDef) and (
                node.name in ("from_json", "parse_field", "field_to_json")
                or node.name.endswith(("_from_json", "_to_json"))):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "open"
                or (getattr(node.func, "attr", None) in ("load", "loads")
                    and getattr(node.func.value, "id", None) == "json")):
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.ImportFrom) and (
                node.module in ("cli", "halab.cli")
                or any(alias.name == "cli" for alias in node.names)):
            found.append((node.lineno, "import of cli"))
    return sorted(found)


def test_document_format_uses_are_found():
    tree = ast.parse("class FDAlgebra:\n    def to_json(self): pass\n"
                     "class ViolationReport:\n    def to_json(self): pass\n"
                     "def hopf_from_json(doc): pass\n"
                     "def parse_field(desc): pass\n"
                     "json.load(open(path))\n"
                     "from .cli import load\n"
                     "from . import cli\n")
    assert [what for _, what in _document_format_uses(tree)] == [
        "FDAlgebra.to_json", "hopf_from_json", "parse_field", "json.load",
        "open", "import of cli", "import of cli"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_document_module(path):
    """The document format is known by cli.py alone: no other module
    defines a reader or writer of it, opens a file or reads JSON, and
    none imports cli."""
    found = _document_format_uses(ast.parse(path.read_text(),
                                            filename=str(path)))
    assert path.name == "cli.py" or not found, (
        "%s knows the document format at %s" % (path.name, found))


def _unreferenced(defining, referencing):
    """(file, name) of every top-level def or class of the (file, tree)
    pairs in defining whose name no Name, Attribute or import alias of
    the trees in referencing carries."""
    refs = set()
    for tree in referencing:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
    return sorted((name, node.name) for name, tree in defining
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in refs)


def test_unreferenced_definitions_are_found():
    defs = ast.parse("class SizeLimit(ValueError):\n    pass\n"
                     "def used(): pass\ndef called(): pass\n"
                     "def imported(): pass\ndef dead(): used()\n")
    refs = ast.parse("zoo.called()\nfrom halab.zoo import imported\n")
    assert _unreferenced([("zoo.py", defs)], [defs, refs]) == [
        ("zoo.py", "SizeLimit"), ("zoo.py", "dead")]


def test_every_definition_is_referenced():
    """No top-level def or class in the sources is a leftover: each is
    referenced by name in src/, tests/ or bench/, so a removed special
    case leaves no exception class or helper behind."""
    sources = [(path.name, ast.parse(path.read_text(), filename=str(path)))
               for path in sorted(SRC.glob("*.py"))]
    others = [ast.parse(path.read_text(), filename=str(path))
              for folder in (REPO / "tests", REPO / "bench")
              for path in sorted(folder.rglob("*.py"))]
    dead = _unreferenced(sources, [tree for _, tree in sources] + others)
    assert not dead, "definitions referenced nowhere: %s" % dead


# Top-level definitions that only tests reference.  The list may only
# shrink: a definition leaves it when a src or bench caller appears or
# when it is deleted, and a new test-only definition is not added.  The
# first group checks claims of the paper and stays (ROADMAP item 6).
TEST_ONLY = {
    ("zoo.py", "theorem1_automorphisms"), ("zoo.py", "example7_extract"),
    ("zoo.py", "reconstruct_groupoid"), ("galois.py", "verify_morita_data"),
    ("galois.py", "verify_topological_equiv"),
    ("galois.py", "HopfBimoduleWitness"),
    ("galois.py", "check_gal_factorization"),
    ("galois.py", "crossed_product"),
    # helpers with no paper claim of their own
    ("algebra.py", "direct_product"), ("algebra.py", "regular_module"), ("cli.py", "cocycle_to_json"),
    ("cli.py", "composition_to_json"), ("galois.py", "BimoduleWitness"),
    ("galois.py", "trivial_comodule"), ("hopfalgebroid.py", "check_coupled"),
    ("hopfalgebroid.py", "solve_antipode"), ("linalg.py", "rref"),
    ("torus.py", "L_operator"), ("torus.py", "omega_matrix"),
    ("torus.py", "qt_one"), ("zoo.py", "and_monoid_table"),
    ("zoo.py", "monoid_bialgebra"),
    ("zoo.py", "nontransitive_control_instance")}


def test_test_only_definitions_only_shrink():
    """The top-level src definitions that no src or bench file references
    (by the name rule of _unreferenced) are exactly TEST_ONLY."""
    sources = [(path.name, ast.parse(path.read_text(), filename=str(path)))
               for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((REPO / "bench").rglob("*.py"))]
    found = set(_unreferenced(sources, [tree for _, tree in sources] + bench))
    assert not found - TEST_ONLY, \
        "new test-only definitions: %s" % sorted(found - TEST_ONLY)
    assert not TEST_ONLY - found, \
        "no longer test-only, drop from TEST_ONLY: %s" \
        % sorted(TEST_ONLY - found)
