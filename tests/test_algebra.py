import pytest

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, Subspace, rank
from halab.algebra import (FDAlgebra, validate_algebra, check_group_table,
                           group_algebra, monoid_algebra, matrix_algebra,
                           product_field_algebra, opposite, enveloping,
                           tensor_algebra, direct_product, subalgebra_on_rows,
                           check_algebra_morphism, regular_module,
                           is_projective, center, jacobson_radical,
                           minimal_polynomial, central_idempotents_split,
                           wedderburn_shape, ModuleOverA, NotAGroup, NotSplit)
from halab.zoo import cyclic_table, klein_table, s3_table, and_monoid_table


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
    A = group_algebra(cyclic_table(2))
    A.mul[1][1] = A.basis_vec(1)                  # now g*g = g: associativity survives
    A.mul[1][0] = A.basis_vec(0)                  # but unit axiom breaks
    rep = validate_algebra(A)
    assert not rep.ok


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
        mul = [[[QQ.one, QQ.zero], [QQ.zero, QQ.one]],
               [[QQ.zero, QQ.one], [QQ.zero, QQ.zero]]]
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
        mul = [[[QQ.one, QQ.zero], [QQ.zero, QQ.one]],
               [[QQ.zero, QQ.one], [QQ.zero, QQ.zero]]]
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
