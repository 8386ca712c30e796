from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, Subspace, rank, kron, inverse
from halab.algebra import (FDAlgebra, validate_algebra, check_group_table,
                           group_algebra, monoid_algebra, matrix_algebra,
                           product_field_algebra, opposite, enveloping,
                           tensor_algebra, direct_product, subalgebra_on_rows,
                           check_algebra_morphism, regular_module,
                           is_projective, center, jacobson_radical,
                           minimal_polynomial, central_idempotents_split,
                           wedderburn_shape, ModuleOverA, NotAGroup, NotSplit)
from halab.zoo import (cyclic_table, klein_table, s3_table, and_monoid_table,
                       groupoid_algebra, indiscrete_groupoid,
                       action_groupoid)

from conftest import sparse


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

    def test_minimal_polynomial(self):
        A = group_algebra(cyclic_table(3))
        w = A.basis_vec(1)
        e = A.unit
        coeffs = minimal_polynomial(A, w, e, 4)
        # g^3 = 1, and no smaller relation: x^3 - 1
        assert coeffs == [-QQ.one, QQ.zero, QQ.zero, QQ.one]


class TestModules:
    def test_regular_module_projective(self):
        for A in (group_algebra(s3_table()), matrix_algebra(2)):
            flag, _ = is_projective(regular_module(A))
            assert flag

    def test_non_projective_module(self):
        # over the dual numbers, k with x acting by zero is not projective
        mul = [[{0: QQ.one}, {1: QQ.one}], [{1: QQ.one}, {}]]
        A = FDAlgebra(2, mul, [QQ.one, QQ.zero], QQ)
        acts = [Mat.identity(1, QQ), Mat.zero(1, 1, QQ)]
        flag, _ = is_projective(ModuleOverA(A, 1, acts, side="left"))
        assert not flag


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
    doc = A.to_json()
    B = FDAlgebra.from_json(doc)
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
    from the to_json triples, visiting every k of every (i, j) that x and
    y pick."""
    field = A.field
    table = [[[field.zero] * A.dim for _ in range(A.dim)]
             for _ in range(A.dim)]
    for t in A.to_json()["mul"]:
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
