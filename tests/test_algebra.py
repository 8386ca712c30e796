import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField, _poly_mul, _poly_divmod
from halab import algebra
from halab.linalg import (Mat, Subspace, rank, kron, inverse, solve_map,
                          NoSolution, _combine)
from halab.algebra import (FDAlgebra, validate_algebra, check_group_table,
                           group_algebra, monoid_algebra, matrix_algebra,
                           product_field_algebra, opposite, enveloping,
                           tensor_algebra, direct_product, subalgebra_on_rows,
                           check_algebra_morphism, regular_module,
                           is_projective, center, jacobson_radical,
                           minimal_polynomial, central_idempotents_split,
                           split_central_idempotent,
                           wedderburn_shape, ModuleOverA, NotAGroup, NotSplit,
                           Inconclusive)
from halab.zoo import (cyclic_table, klein_table, s3_table, and_monoid_table,
                       groupoid_algebra, indiscrete_groupoid,
                       action_groupoid, twisted_group_algebra)
from halab.cli import algebra_to_json, algebra_from_json
from halab.reports import ViolationReport

from conftest import sparse, dual_numbers, projective_modules


def constructor_corpus():
    kz3 = group_algebra(cyclic_table(3))
    return [
        ("kZ3", kz3),
        ("kS3", group_algebra(s3_table())),
        ("M2", matrix_algebra(2)),
        ("k3", product_field_algebra(3)),
        ("kS3 opposite", opposite(group_algebra(s3_table()))),
        ("M2 enveloping", enveloping(matrix_algebra(2))),
        ("kZ3 x M2", direct_product(kz3, matrix_algebra(2))),
        ("kZ3 (x) k2", tensor_algebra(kz3, product_field_algebra(2))),
        ("AND monoid", monoid_algebra(and_monoid_table(), 1)),
    ]


def test_constructors_validate():
    for name, A in constructor_corpus():
        assert validate_algebra(A).ok, name


def test_group_table_rejects_non_groups():
    with pytest.raises(NotAGroup):
        check_group_table(and_monoid_table())     # no inverses
    with pytest.raises(NotAGroup):
        check_group_table([[0, 1], [1, 1]])       # not associative/cancellable


def test_validate_flags_broken_product():
    # k[Z2] with g*g = g (associativity survives) and g*e = e, so the unit
    # law fails on the right at g, and only there
    one = QQ.one
    A = FDAlgebra(2, [[{0: one}, {1: one}], [{0: one}, {1: one}]],
                  [one, QQ.zero], QQ)
    rep = validate_algebra(A)
    assert [(e["tag"], e["indices"], e["note"]) for e in rep.entries] == [
        ("unit", (1,), "e_1*1 != e_1")]


def in_basis(A, P):
    """A with the columns of the invertible P as its basis."""
    Pi = inverse(P)
    cols = [P.col(i) for i in range(A.dim)]
    return FDAlgebra(A.dim, [[Pi.matvec(A.mul_vec(x, y))
                              for y in cols] for x in cols],
                     Pi.matvec(A.unit), A.field)


def test_validate_compares_values_where_products_cancel():
    """In a general basis both sides of an associativity triple have
    entries that cancel; M2 and kS3 still validate, and a bumped
    structure constant is still flagged."""
    # unit upper triangular columns, so every leading block is invertible
    P = [[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 2, 1, 0, 0, 0],
         [0, 0, -1, 1, 0, 0], [0, 0, 0, 1, 1, 0], [1, 0, 0, 0, 2, 1]]
    for A in (matrix_algebra(2), group_algebra(s3_table())):
        d = A.dim
        B = in_basis(A, Mat.from_cols([sparse(col[:d]) for col in P[:d]], d,
                                      QQ))
        assert validate_algebra(B).ok
        B.mul[1][2][0] = B.mul[1][2].get(0, 0) + 1
        assert not validate_algebra(B).ok


class TestStructureTheory:
    def test_center_of_matrix_algebra(self):
        assert center(matrix_algebra(2)).dim == 1
        assert center(group_algebra(s3_table())).dim == 3

    def test_radical_of_group_algebra_vanishes(self):
        # char 0 group algebras are semisimple
        for table in (cyclic_table(4), klein_table(), s3_table()):
            assert jacobson_radical(group_algebra(table)).dim == 0

    def test_radical_of_dual_numbers(self):
        # k[x]/(x^2)
        mul = [[{0: QQ.one}, {1: QQ.one}], [{1: QQ.one}, {}]]
        A = FDAlgebra(2, mul, [QQ.one, QQ.zero], QQ, name="dual numbers")
        assert validate_algebra(A).ok
        assert jacobson_radical(A).dim == 1

    def test_wedderburn_shapes(self):
        assert wedderburn_shape(matrix_algebra(2)) == (2,)
        assert wedderburn_shape(product_field_algebra(3)) == (1, 1, 1)
        assert wedderburn_shape(group_algebra(cyclic_table(2))) == (1, 1)
        assert wedderburn_shape(group_algebra(
            cyclic_table(3), CyclotomicField(3))) == (1, 1, 1)
        # Q(i) = Q[x]/(x^2 + 1) is commutative but one block over Q, not
        # (1, 1): its centre does not split
        QI = FDAlgebra(2, [[{0: 1}, {1: 1}], [{1: 1}, {0: -1}]], {0: 1})
        with pytest.raises(Inconclusive, match="does not split"):
            wedderburn_shape(QI)

    def test_central_idempotents(self):
        idems = central_idempotents_split(product_field_algebra(3))
        assert len(idems) == 3
        A = product_field_algebra(3)
        for e in idems:
            assert A.mul_vec(e, e) == e
        # kZ3 over Q needs the cube roots of unity
        with pytest.raises(NotSplit):
            central_idempotents_split(group_algebra(cyclic_table(3)))
        F3 = CyclotomicField(3)
        assert len(central_idempotents_split(
            group_algebra(cyclic_table(3), F3))) == 3

    def test_one_split(self):
        """One step splits e into orthogonal central idempotents summing to
        e, and returns [] on a primitive one; the full decomposition is
        the queue over this step."""
        A = product_field_algebra(4)
        zs = [A.basis_vec(i) for i in range(A.dim)]
        pieces = split_central_idempotent(A, zs, A.unit)
        assert len(pieces) >= 2
        total = {}
        for i, e in enumerate(pieces):
            assert A.mul_vec(e, e) == e
            assert all(not A.mul_vec(e, f) for f in pieces[i + 1:])
            for k, c in e.items():
                total[k] = total.get(k, 0) + c
        assert {k: c for k, c in total.items() if c} == A.unit
        for e in central_idempotents_split(A):
            assert split_central_idempotent(A, zs, e) == []

    def test_divisors_match_trial_division(self):
        """The divisors of n, listed in pairs up to isqrt(|n|), are the
        sorted list of trial division up to |n|; 0 has the list [1]."""
        for n in range(-2000, 2001):
            brute = [d for d in range(1, abs(n) + 1) if n % d == 0] or [1]
            assert algebra._divisors(n) == brute, n

    def test_minimal_polynomial(self):
        A = group_algebra(cyclic_table(3))
        w = A.basis_vec(1)
        e = A.unit
        coeffs = minimal_polynomial(A, w, e, 4)
        # g^3 = 1, and no smaller relation: x^3 - 1
        assert coeffs == [-QQ.one, QQ.zero, QQ.zero, QQ.one]


def free_cover_is_projective(M):
    """The free-cover solver that is_projective replaced, as a reference:
    M is projective iff pi: A^g -> M, (slot t, a) -> a . m_t, has a
    module-map section sigma, pi sigma = I and sigma X_x = (I_g (x) act_x)
    sigma for every basis element x."""
    A = M.algebra
    field, g = A.field, M.dim
    pi = Mat.from_cols([M.action[a].sparse_cols()[t] for t in range(g)
                        for a in range(A.dim)], g, field)
    mult = A.left_mult_matrix if M.side == "left" else A.right_mult_matrix
    I_g = Mat.identity(g, field)
    blocks = [([(pi, None)], I_g)]
    blocks += [([(kron(I_g, mult(x)), None),
                 (None, M.action[x].scale(-field.one))], None)
               for x in range(A.dim)]
    try:
        solve_map(blocks, g * A.dim, g, field)
    except NoSolution:
        return False
    return True


def truncated_polynomials(n):
    """k[x]/(x^n) with the basis 1, x, ..., x^(n-1)."""
    mul = [[{i + j: QQ.one} if i + j < n else {} for j in range(n)]
           for i in range(n)]
    return FDAlgebra(n, mul, {0: QQ.one}, QQ, name="k[x]/(x^%d)" % n)


def jordan_module(A, sizes, side):
    """The module over k[x]/(x^n) on which x acts by nilpotent Jordan
    blocks of the given sizes; projective iff every size is n."""
    g = sum(sizes)
    shift, start = {}, 0
    for s in sizes:
        shift.update((i, i + 1) for i in range(start, start + s - 1))
        start += s
    acts, power = [], Mat.identity(g, QQ)
    for _ in range(A.dim):
        acts.append(power)
        power = Mat.from_cols([{shift[j]: QQ.one} if j in shift else {}
                               for j in range(g)], g, QQ) * power
    return ModuleOverA(A, g, acts, side)


def upper_triangular():
    """The upper-triangular 2 x 2 matrices, with the basis e11, e12, e22."""
    one = QQ.one
    mul = [[{} for _ in range(3)] for _ in range(3)]
    mul[0][0], mul[0][1], mul[1][2], mul[2][2] = {0: one}, {1: one}, \
        {1: one}, {2: one}
    return FDAlgebra(3, mul, {0: one, 2: one}, QQ, name="T2")


def module_direct_sum(M, N):
    """M (+) N, with the basis of N after that of M."""
    g = M.dim + N.dim
    acts = [Mat.from_cols(
        P.sparse_cols() + [{M.dim + i: v for i, v in col.items()}
                           for col in Q.sparse_cols()], g, QQ)
        for P, Q in zip(M.action, N.action)]
    return ModuleOverA(M.algebra, g, acts, M.side)


class TestModules:
    def test_regular_module_projective(self):
        for A in (group_algebra(s3_table()), matrix_algebra(2)):
            flag = is_projective(regular_module(A))
            assert flag

    def test_non_projective_module(self):
        # over the dual numbers, k with x acting by zero is not projective
        mul = [[{0: QQ.one}, {1: QQ.one}], [{1: QQ.one}, {}]]
        A = FDAlgebra(2, mul, [QQ.one, QQ.zero], QQ)
        acts = [Mat.identity(1, QQ), Mat.zero(1, 1, QQ)]
        flag = is_projective(ModuleOverA(A, 1, acts, side="left"))
        assert not flag

    def test_dual_basis_matches_free_cover_on_the_corpus(self):
        for name, modules in projective_modules():
            for M in modules:
                assert is_projective(M) == free_cover_is_projective(M), name

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jordan_blocks(self, n, side):
        A = truncated_polynomials(n)
        for count in (1, 2, 3):
            for sizes in itertools.combinations_with_replacement(
                    range(1, n + 1), count):
                M = jordan_module(A, sizes, side)
                assert M.validate().ok
                flag = is_projective(M)
                assert flag == free_cover_is_projective(M), sizes
                assert flag == all(s == n for s in sizes), sizes

    def test_simple_modules_of_upper_triangular(self):
        A = upper_triangular()
        one, zero = Mat.identity(1, QQ), Mat.zero(1, 1, QQ)
        simple = {"S1": [one, zero, zero], "S2": [zero, zero, one]}
        expected = {("S1", "left"): True, ("S2", "left"): False,
                    ("S1", "right"): False, ("S2", "right"): True}
        for (name, side), want in expected.items():
            M = ModuleOverA(A, 1, simple[name], side)
            assert M.validate().ok
            assert is_projective(M) == free_cover_is_projective(M) == want

    def test_trivial_plus_regular_dual_numbers_module(self):
        A = dual_numbers()
        trivial = ModuleOverA(A, 1, [Mat.identity(1, QQ), Mat.zero(1, 1, QQ)])
        M = module_direct_sum(trivial, regular_module(A))
        assert M.validate().ok
        assert is_projective(M) is free_cover_is_projective(M) is False

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_twisted_group_algebra_regular_module(self, side):
        # not run against the free-cover solver, which takes 4-5 s on each
        M = regular_module(twisted_group_algebra(4, 1), side)
        assert is_projective(M) is True


class TestSubalgebras:
    def test_even_part_of_kz4(self):
        A = group_algebra(cyclic_table(4))
        span = Subspace.from_spanning(4, [A.basis_vec(0), A.basis_vec(2)])
        sub, incl = subalgebra_on_rows(A, span)
        assert sub.dim == 2
        assert validate_algebra(sub).ok
        # inclusion is multiplicative
        assert check_algebra_morphism(incl, sub, A).ok

    def test_morphism_check_catches_order_mismatch(self):
        kz2 = group_algebra(cyclic_table(2))
        kz4 = group_algebra(cyclic_table(4))
        good = Mat.from_cols([kz4.basis_vec(0), kz4.basis_vec(2)], 4, QQ)
        assert check_algebra_morphism(good, kz2, kz4).ok
        bad = Mat.from_cols([kz4.basis_vec(0), kz4.basis_vec(1)], 4, QQ)
        assert not check_algebra_morphism(bad, kz2, kz4).ok


def test_algebra_json_round_trip():
    A = group_algebra(s3_table())
    doc = algebra_to_json(A)
    B = algebra_from_json(doc)
    assert B.dim == A.dim and B.unit == A.unit and B.mul == A.mul


# ---------------------------------------------------------------------------
# sparse structure constants against a dense reference product

F3 = CyclotomicField(3)


@lru_cache(maxsize=None)
def product_corpus(field):
    """Group, groupoid, matrix and tensor algebras over field."""
    kz3 = group_algebra(cyclic_table(3), field)
    m2 = matrix_algebra(2, field)
    return [
        ("kZ3", kz3),
        ("kS3", group_algebra(s3_table(), field)),
        ("groupoid indiscrete2",
         groupoid_algebra(indiscrete_groupoid(2), field).total),
        ("groupoid Z2-swap", groupoid_algebra(
            action_groupoid(cyclic_table(2), [[0, 1], [1, 0]]), field).total),
        ("M2", m2),
        ("M3", matrix_algebra(3, field)),
        ("kZ3 (x) M2", tensor_algebra(kz3, m2)),
        ("M2 enveloping", enveloping(m2)),
    ]


def dense_product(A, x, y):
    """x * y through the structure constants spelled out as dense vectors
    from the algebra_to_json triples, visiting every k of every (i, j) that x and
    y pick."""
    field = A.field
    table = [[[field.zero] * A.dim for _ in range(A.dim)]
             for _ in range(A.dim)]
    for t in algebra_to_json(A)["mul"]:
        table[t["i"]][t["j"]][t["k"]] = field.parse(t["c"])
    out = [field.zero] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            if x[i] and y[j]:
                c = x[i] * y[j]
                for k, s in enumerate(table[i][j]):
                    out[k] = out[k] + c * s
    return out


def coordinates(field, dim):
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), -3])
    if field is QQ:
        entry = coeff
    else:
        entry = st.tuples(coeff, coeff).map(
            lambda cs: field.from_rational(cs[0])
            + field.from_rational(cs[1]) * field.zeta(1))
    return st.lists(entry, min_size=dim, max_size=dim)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_products_match_the_dense_reference(data):
    """mul_vec on dicts of nonzeros, its basis-index forms and the
    multiplication matrices equal the dense reference, over Q and
    Q(zeta_3)."""
    field = data.draw(st.sampled_from([QQ, F3]))
    name, A = data.draw(st.sampled_from(product_corpus(field)))
    x = data.draw(coordinates(field, A.dim))
    y = data.draw(coordinates(field, A.dim))
    i = data.draw(st.integers(0, A.dim - 1))
    j = data.draw(st.integers(0, A.dim - 1))
    ei, ej = A.basis_vec(i), A.basis_vec(j)
    di = [field.one if k == i else field.zero for k in range(A.dim)]
    dj = [field.one if k == j else field.zero for k in range(A.dim)]
    xs, ys = sparse(x), sparse(y)
    assert A.mul_vec(xs, ys) == sparse(dense_product(A, x, y)), name
    assert A.mul_vec(i, ys) == sparse(dense_product(A, di, y)), name
    assert A.mul_vec(xs, j) == sparse(dense_product(A, x, dj)), name
    assert A.mul_vec(i, j) == sparse(dense_product(A, di, dj)), name
    assert A.mul_vec(ei, ej) == sparse(dense_product(A, di, dj)), name
    assert A.left_mult_matrix(xs).col(j) == sparse(
        dense_product(A, x, dj)), name
    assert A.right_mult_matrix(xs).col(j) == sparse(
        dense_product(A, dj, x)), name
    assert A.left_mult_matrix(i) == A.left_mult_matrix(ei), name
    assert A.right_mult_matrix(i) == A.right_mult_matrix(ei), name


def reference_convolution(A, F, G, lift):
    """mu (F (x) G) lift through the multiplication matrix A (x) A -> A and
    the Kronecker product."""
    mul = Mat.from_cols([c for row in A.mul for c in row], A.dim, A.field)
    return mul * (kron(F, G) * lift)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_convolve_matches_the_kron_reference(data):
    """FDAlgebra.convolve equals the multiplication matrix times kron(F, G)
    times the lift, over Q and Q(zeta_3), for rectangular F and G (fewer
    or more columns than rows, as for a counit into a small base or a
    source map out of it), for identities in either place, and for lifts
    with a zero column."""
    field = data.draw(st.sampled_from([QQ, F3]))
    name, A = data.draw(st.sampled_from(
        product_corpus(field) + [("k", product_field_algebra(1, field)),
                                 ("k2", product_field_algebra(2, field))]))

    def draw_map():
        if data.draw(st.booleans()):
            return Mat.identity(A.dim, field)
        cols = data.draw(st.integers(1, min(A.dim + 2, 5)))
        return Mat.from_cols([sparse(data.draw(coordinates(field, A.dim)))
                              for _ in range(cols)], A.dim, field)

    F, G = draw_map(), draw_map()
    cols = [sparse(data.draw(coordinates(field, F.cols * G.cols)))
            for _ in range(data.draw(st.integers(0, 3)))]
    cols.insert(data.draw(st.integers(0, len(cols))), {})
    lift = Mat.from_cols(cols, F.cols * G.cols, field)
    assert A.convolve(F, G, lift) == reference_convolution(A, F, G, lift), \
        name


def restart_scan(coeffs, field):
    """The linear factors by a scan that restarts at the first candidate
    after every root: the reference for algebra._split_linear."""
    work, roots = list(coeffs), []
    cands = algebra._candidate_roots(field, coeffs)
    while len(work) > 1:
        found = next((lam for lam in cands
                      if not algebra._poly_eval(work, lam, field)), None)
        if found is None:
            break
        work = _poly_divmod(work, [-found, field.one], field)[0]
        for r, m in roots:
            if r == found:
                roots.remove((r, m))
                roots.append((found, m + 1))
                break
        else:
            roots.append((found, 1))
    return roots, work


def test_one_scan_splits_like_the_restart_scan():
    """Seeded products of (x - c)^m, m <= 3, over candidate roots c, times
    x^2 - 7, x^3 - 7 or 1 (no candidate has absolute value 7^(1/2) or
    7^(1/3)), over Q and Q(zeta_N): the one scan gives the restart scan's
    (root, multiplicity) list, in its order, and its cofactor."""
    rng = random.Random(11)
    small = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3), 3]
    for field in [QQ] + [CyclotomicField(n) for n in (3, 4, 8, 12)]:
        one = field.one
        if field == QQ:
            roots, seven = small, 7
        else:
            roots = algebra._candidate_roots(field, [one])
            seven = field.from_rational(7)
        tails = [[-seven, field.zero, one],
                 [-seven, field.zero, field.zero, one], [one]]
        split = 0
        for _ in range(12):
            poly = rng.choice(tails)
            for c in rng.sample(roots, rng.randint(1, 3)):
                for _ in range(rng.randint(1, 3)):
                    poly = _poly_mul(poly, [-c, one], field)
            got = algebra._split_linear(poly, field)
            assert got == restart_scan(poly, field), field
            split += got[1] == [one]
        assert 0 < split < 12


def validate_algebra_reference(A):
    """Reference: the unit law, then associativity on every basis triple,
    as validated before the triples containing a basis unit were
    skipped."""
    rep = ViolationReport()
    zero = A.field.zero
    right = [[row[k] for row in A.mul] for k in range(A.dim)]
    for i in range(A.dim):
        ei = {i: A.field.one}
        rep.require(_combine(right[i], A.unit, zero) == ei, "unit",
                    (i,), note="1*e_%d != e_%d" % (i, i))
        rep.require(_combine(A.mul[i], A.unit, zero) == ei, "unit",
                    (i,), note="e_%d*1 != e_%d" % (i, i))
    for i in range(A.dim):
        for j in range(A.dim):
            ij = A.mul[i][j]
            for k in range(A.dim):
                rep.require(_combine(right[k], ij, zero)
                            == _combine(A.mul[i], A.mul[j][k], zero),
                            "associativity", (i, j, k))
    return rep


def mutate_mul(A, i, j, k, delta):
    """A copy of A with delta added to coordinate k of e_i e_j."""
    mul = [[dict(p) for p in row] for row in A.mul]
    mul[i][j][k] = mul[i][j].get(k, A.field.zero) + delta
    return FDAlgebra(A.dim, mul, A.unit, A.field)


def test_validation_matches_the_reference(hopf_corpus):
    """validate_algebra gives entry for entry (tags, indices, notes,
    order) the reference's report on the constructor corpus, the Q
    corpus's total and base algebras up to dimension 12, and seeded
    single-entry mutations of each product: some anywhere, some at
    e_u e_j or e_i e_u for a basis unit e_u, which break the unit law and
    so turn the skip of the unit's triples off."""
    rng = random.Random(26)
    algebras = list(constructor_corpus())
    for name, Hd in hopf_corpus:
        if Hd.total.field == QQ and Hd.total.dim <= 12:
            algebras += [(name, Hd.total), (name + " base", Hd.leftb.base)]
    cases, at_unit = [], 0
    for name, A in algebras:
        cases.append((name, A))
        units = [u for u in range(A.dim) if A.unit == {u: A.field.one}]
        for n in range(6):
            i, j, k = (rng.randrange(A.dim) for _ in range(3))
            if units and n % 2:
                i, j = (units[0], j) if n % 4 == 1 else (i, units[0])
                at_unit += 1
            cases.append(("%s mul[%d][%d][%d]" % (name, i, j, k),
                          mutate_mul(A, i, j, k, rng.choice([-1, 1]))))
    tags, skipped_and_failed = set(), 0
    for name, A in cases:
        entries = validate_algebra(A).entries
        assert entries == validate_algebra_reference(A).entries, name
        tags.update(e["tag"] for e in entries)
        skipped_and_failed += bool(entries) and all(
            e["tag"] == "associativity" for e in entries) and any(
            A.unit == {u: A.field.one} for u in range(A.dim))
    assert tags == {"unit", "associativity"}
    assert at_unit >= 50 and skipped_and_failed >= 20
