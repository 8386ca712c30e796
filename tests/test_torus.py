import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField
from halab.linalg import Mat, det
from halab.torus import (QTElement, qt_monomial, qt_one, qt_mul, decompose,
                         recompose, L_operator, chi_product, omega_matrix,
                         random_qt, fiber_matrices, best_fiber_variant,
                         torus_coaction_check, torus_galois_matrix,
                         DecomposedElement, ParameterMismatch, NotInA)


class TestRelations:
    def test_defining_relation(self):
        for n in (2, 3, 4):
            U = qt_monomial(n, 1, 1, 0)
            V = qt_monomial(n, 1, 0, 1)
            # UV = q VU, with UV the normal-order generator
            assert qt_mul(U, V).support == {(1, 1): U.field.one}
            assert qt_mul(U, V) == qt_mul(V, U).scale(U.q)

    def test_uv_squared(self):
        U = qt_monomial(3, 1, 1, 0)
        V = qt_monomial(3, 1, 0, 1)
        UV = qt_mul(U, V)
        qinv = qt_one(3, 1).field.zeta(-1)
        assert qt_mul(UV, UV).support == {(2, 2): qinv}

    def test_exponents_accumulate(self):
        # Laurent exponents are not truncated; only the phase is periodic
        n = 3
        U = qt_monomial(n, 1, 1, 0)
        x = U
        for _ in range(n - 1):
            x = qt_mul(x, U)
        assert x.support == {(3, 0): U.field.one}

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatch):
            qt_mul(qt_monomial(2, 1, 1, 0), qt_monomial(3, 1, 1, 0))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3))
    @settings(max_examples=40)
    def test_monomial_product_rule(self, a, b, c, d):
        n = 4
        f = qt_monomial(n, 1, a, b)
        g = qt_monomial(n, 1, c, d)
        h = qt_mul(f, g)
        key = (a + c, b + d)
        assert list(h.support) == [key]
        # phase is q^{-bc}
        assert h.support[key] == f.field.zeta(-b * c)


class TestDecomposition:
    def test_round_trip(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(20):
                f = random_qt(n, 1, rng)
                assert recompose(decompose(f)) == f

    def test_chi_oracle(self):
        rng = random.Random(13)
        for n in (2, 3, 4):
            for _ in range(50):
                f = random_qt(n, 1, rng)
                g = random_qt(n, 1, rng)
                lhs = recompose(chi_product(decompose(f), decompose(g)))
                assert lhs == qt_mul(f, g)

    def test_components_live_in_base(self):
        f = random_qt(3, 1, random.Random(3))
        for comp in decompose(f).components:
            for (a, b) in comp.support:
                assert b % 3 == 0

    def test_l_operator_rejects_outsiders(self):
        with pytest.raises(NotInA):
            L_operator(qt_monomial(3, 1, 0, 1))

    def test_l_operator_twists(self):
        # L(U^a) multiplies by q^{-a}
        n = 3
        a = qt_monomial(n, 1, 2, 0)
        out = L_operator(a)
        F = a.field
        assert out.support == {(2, 0): F.zeta(-2 % n)}


def _recompose_reference(d):
    """The sum a_i V^i through qt_mul, one component at a time."""
    if not d.components:
        raise ParameterMismatch("empty decomposition")
    base = d.components[0]
    out = QTElement(base.n, base.m)
    for i, a in enumerate(d.components):
        out = out + qt_mul(a, qt_monomial(base.n, base.m, 0, i))
    return out


class TestRecompose:
    """recompose (one pass, V^i as an exponent shift) against the
    component-wise qt_mul formula, over Q, Q(zeta_3) and Q(zeta_4)."""

    PARAMS = [(2, 1), (1, 2), (3, 1), (4, 1), (2, 2)]

    @staticmethod
    def _agree(d):
        before = [dict(a.support) for a in d.components]
        got = recompose(d)
        want = _recompose_reference(d)
        assert got == want
        assert all(got.support.values()), "a cancelled term was kept"
        assert [a.support for a in d.components] == before
        return got

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_random_components_outside_A(self, n, m):
        """Components with any V-exponent, in any number, some empty."""
        rng = random.Random(100 * n + m)
        for _ in range(30):
            comps = [random_qt(n, m, rng, radius=3, terms=rng.randint(0, 5))
                     for _ in range(rng.randint(1, 5))]
            self._agree(DecomposedElement(len(comps), comps))

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_cancelling_components(self, n, m):
        """a_0 = c U V + c' U^2, a_1 = -c U - c' U^2 V^-1: both terms of
        the sum cancel, and a_2 = c U V^-1 brings U V back."""
        rng = random.Random(7 * n + m)
        F = QTElement(n, m).field
        for _ in range(10):
            c = F.random(rng) or F.one
            c2 = F.random(rng) or F.one
            a0 = QTElement(n, m, {(1, 1): c, (2, 0): c2})
            a1 = QTElement(n, m, {(1, 0): -c, (2, -1): -c2})
            assert self._agree(DecomposedElement(2, [a0, a1])) \
                == QTElement(n, m)
            a2 = QTElement(n, m, {(1, -1): c})
            got = self._agree(DecomposedElement(3, [a0, a1, a2]))
            assert got.support == {(1, 1): c}

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_decompose_at_another_n(self, n, m):
        rng = random.Random(31 * n + m)
        for k in (1, 2, 3, 5):
            for _ in range(10):
                f = random_qt(n, m, rng)
                assert self._agree(decompose(f, k)) == f

    def test_empty_components(self):
        for n, m in self.PARAMS:
            zero = QTElement(n, m)
            d = DecomposedElement(3, [QTElement(n, m) for _ in range(3)])
            assert self._agree(d) == zero
            U = qt_monomial(n, m, 1, 0)
            d = DecomposedElement(3, [QTElement(n, m), QTElement(n, m), U])
            assert self._agree(d).support == {(1, 2): U.field.one}

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatch):
            recompose(DecomposedElement(1, []))
        for comps in ([qt_one(2, 1), qt_one(3, 1)],
                      [qt_one(2, 1), QTElement(2, 2)],
                      [QTElement(3, 1), QTElement(1, 3)]):
            with pytest.raises(ParameterMismatch):
                recompose(DecomposedElement(2, comps))
            with pytest.raises(ParameterMismatch):
                _recompose_reference(DecomposedElement(2, comps))


class TestOmega:
    def test_displayed_matrices(self):
        assert omega_matrix(3, 0) == [[0, None, None],
                                      [None, None, 1],
                                      [None, 2, None]]
        assert omega_matrix(3, 1) == [[None, 0, None],
                                      [1, None, None],
                                      [None, None, 2]]
        assert omega_matrix(3, 2) == [[None, None, 0],
                                      [None, 1, None],
                                      [2, None, None]]

    def test_rule(self):
        for n in (2, 4):
            for k in range(n):
                M = omega_matrix(n, k)
                for i in range(n):
                    for j in range(n):
                        if (i + j) % n == k:
                            assert M[i][j] == i
                        else:
                            assert M[i][j] is None


class TestFibers:
    def test_some_variant_is_exact(self):
        for (n, m) in ((1, 2), (1, 3), (2, 3)):
            rep = fiber_matrices(n, m, Fraction(3, 10), Fraction(7, 10))
            name = best_fiber_variant(rep)
            assert name is not None, (n, m)
            assert name.startswith("uniform")

    def test_printed_shift_discrepancy_reported(self):
        # the as-printed V fails V^m = e^{2 pi i y} unless m divides n
        rep = fiber_matrices(1, 3, Fraction(0), Fraction(0))
        assert not rep["variants"]["printed-sub"]["V_power"]
        assert rep["variants"]["uniform-sub"]["V_power"]

    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 3), (3, 1),
                                      (2, 5), (3, 4), (2, 2)])
    def test_closed_form_over_quarter_grid(self, n, m):
        """U is always unitary with U^m = e^{2 pi i x}; the shift below the
        diagonal always commutes correctly, the one above iff m | 2n; the
        printed V has V^m = e^{2 pi i y} iff m | n, the uniform one always."""
        grid = [Fraction(i, 4) for i in range(5)]
        for x in grid:
            for y in grid:
                for name, v in fiber_matrices(n, m, x, y)["variants"].items():
                    assert v["unitary_U"] and v["unitary_V"] and v["U_power"]
                    assert v["commutation"] == (name.endswith("-sub")
                                                or 2 * n % m == 0), name
                    assert v["V_power"] == (name.startswith("uniform")
                                            or n % m == 0), name

    def test_float_point_rejected(self):
        with pytest.raises(ParameterMismatch):
            fiber_matrices(1, 2, 0.25, Fraction(1, 2))


def test_coaction_battery():
    for n in (2, 3):
        out = torus_coaction_check(n, 4)
        assert out["action_multiplicative"]
        assert out["invariance_exact"]
        assert out["coassociative"]


class TestGaloisDeterminant:
    def test_frozen_units(self):
        g = torus_galois_matrix(1)
        assert g["det"] == {0: Fraction(1)} and g["unit"]
        g = torus_galois_matrix(2)
        assert g["det"] == {1: Fraction(-4)} and g["unit"]
        g = torus_galois_matrix(3)
        F = CyclotomicField(3)
        assert g["det"] == {3: F.from_int(81) + F.from_int(162) * F.zeta(1)}
        assert g["unit"]
        g = torus_galois_matrix(4)
        assert g["unit"]

    def test_units_beyond_four(self):
        for n in range(5, 9):
            assert torus_galois_matrix(n)["unit"], n

    def test_structure_against_full_determinant(self):
        """det of the matrix with the carry x set to t is t^{sum carry}
        times det M0, the exponent and scalar of the returned dict."""
        for n in range(1, 7):
            g = torus_galois_matrix(n)
            ((carries, d0),) = g["det"].items()
            field = qt_one(n, 1).field
            for t in (2, 3):
                Mt = Mat(n * n, n * n,
                         [[sum((c * t ** e for e, c in entry.items()),
                               field.zero) if entry else field.zero
                           for entry in row] for row in g["matrix"]], field)
                assert det(Mt) == d0 * t ** carries, (n, t)
