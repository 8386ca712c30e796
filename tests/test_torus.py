import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halab.fields import QQ, CyclotomicField, Cyc
from halab.linalg import Mat, det
import halab.torus
from halab.torus import (QTElement, qt_monomial, qt_one, qt_mul, decompose,
                         recompose, L_operator, chi_product, omega_matrix,
                         random_qt, fiber_matrices, best_fiber_variant,
                         oracle_mismatches, torus_coaction_check,
                         torus_galois_matrix,
                         ParameterMismatch, NotInA)

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "expected.json")


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
        """The bench's oracle at N = 2, 3, 4 and beyond it at N = 5, 8,
        12, where deg Phi_N = 4 and the roots have multi-term rows."""
        rng = random.Random(13)
        for n, m in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 4), (3, 4)):
            for _ in range(50):
                f = random_qt(n, m, rng)
                g = random_qt(n, m, rng)
                lhs = recompose(chi_product(decompose(f), decompose(g)))
                assert lhs == qt_mul(f, g)

    def test_components_live_in_base(self):
        f = random_qt(3, 1, random.Random(3))
        for comp in decompose(f):
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
    if not d:
        raise ParameterMismatch("empty decomposition")
    base = d[0]
    out = QTElement(base.n, base.m)
    for i, a in enumerate(d):
        out = out + qt_mul(a, qt_monomial(base.n, base.m, 0, i))
    return out


class TestRecompose:
    """recompose (one pass, V^i as an exponent shift) against the
    component-wise qt_mul formula, over Q, Q(zeta_3) and Q(zeta_4)."""

    PARAMS = [(2, 1), (1, 2), (3, 1), (4, 1), (2, 2)]

    @staticmethod
    def _agree(d):
        before = [dict(a.support) for a in d]
        got = recompose(d)
        want = _recompose_reference(d)
        assert got == want
        assert all(got.support.values()), "a cancelled term was kept"
        assert [a.support for a in d] == before
        return got

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_random_components_outside_A(self, n, m):
        """Components with any V-exponent, in any number, some empty."""
        rng = random.Random(100 * n + m)
        for _ in range(30):
            comps = [random_qt(n, m, rng, radius=3, terms=rng.randint(0, 5))
                     for _ in range(rng.randint(1, 5))]
            self._agree(comps)

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
            assert self._agree([a0, a1]) == QTElement(n, m)
            a2 = QTElement(n, m, {(1, -1): c})
            got = self._agree([a0, a1, a2])
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
            d = [QTElement(n, m) for _ in range(3)]
            assert self._agree(d) == zero
            U = qt_monomial(n, m, 1, 0)
            d = [QTElement(n, m), QTElement(n, m), U]
            assert self._agree(d).support == {(1, 2): U.field.one}

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatch):
            recompose([])
        for comps in ([qt_one(2, 1), qt_one(3, 1)],
                      [qt_one(2, 1), QTElement(2, 2)],
                      [QTElement(3, 1), QTElement(1, 3)]):
            with pytest.raises(ParameterMismatch):
                recompose(comps)
            with pytest.raises(ParameterMismatch):
                _recompose_reference(comps)


def _chi_product_reference(d1, d2):
    """Component k = sum_i a_i L^i(b_{k-i}) through qt_mul and L_operator,
    with the V^n carry multiplied in by qt_mul: the component-wise formula
    that the one-pass chi_product replaced."""
    if len(d1) != len(d2):
        raise ParameterMismatch("decompositions at different n")
    n = len(d1)
    base = d1[0]
    comps = [QTElement(base.n, base.m) for _ in range(n)]
    vn = qt_monomial(base.n, base.m, 0, n)
    for i in range(n):
        for j in range(n):
            term = qt_mul(d1[i], L_operator(d2[j], i))
            if i + j >= n:
                term = qt_mul(term, vn)
            comps[(i + j) % n] = comps[(i + j) % n] + term
    return comps


def _outcome(product, d1, d2):
    """The component supports of product(d1, d2), or the class of the
    NotInA or ParameterMismatch it raised."""
    try:
        return [a.support for a in product(d1, d2)]
    except (NotInA, ParameterMismatch) as exc:
        return type(exc)


class TestChiProduct:
    """chi_product (one pass, the L^i twist and the V^n carry as exponent
    arithmetic) against the component-wise qt_mul formula, over Q,
    Q(zeta_3), Q(zeta_4), Q(zeta_6) and, with deg Phi_N = 4, Q(zeta_5),
    Q(zeta_8) and Q(zeta_12)."""

    PARAMS = [(2, 1), (1, 2), (3, 1), (4, 1), (2, 2), (6, 1), (5, 1),
              (2, 4), (3, 4)]

    @staticmethod
    def _agree(d1, d2):
        before = [[dict(a.support) for a in d] for d in (d1, d2)]
        got = _outcome(chi_product, d1, d2)
        assert got == _outcome(_chi_product_reference, d1, d2)
        assert [[a.support for a in d] for d in (d1, d2)] == before
        if isinstance(got, list):
            assert all(all(s.values()) for s in got), \
                "a cancelled term was kept"
        return got

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_random_products(self, n, m):
        rng = random.Random(100 * n + m)
        for _ in range(30):
            radius = rng.randint(0, 5)
            f, g = (random_qt(n, m, rng, radius, rng.randint(0, 7))
                    for _ in range(2))
            got = self._agree(decompose(f), decompose(g))
            assert recompose([QTElement(n, m, s) for s in got]) \
                == qt_mul(f, g)

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_cancelling_terms(self, n, m):
        """Within one term pair: (c' + c U)(1 - (c/c') U) loses its U
        terms.  Across term pairs: (c + c2 V)(d0 + d1 V) with
        d0 = -c d1 / c2 loses its V term, which for n >= 2 comes from the
        pairs (a_0, b_1) and (a_1, b_0)."""
        rng = random.Random(7 * n + m)
        F = QTElement(n, m).field
        for _ in range(10):
            c, c2, d1 = (F.random(rng) or F.one for _ in range(3))
            f = QTElement(n, m, {(0, 0): c2, (1, 0): c})
            g = QTElement(n, m, {(0, 0): F.one, (1, 0): -F.div(c, c2)})
            got = self._agree(decompose(f), decompose(g))
            assert all((1, 0) not in s for s in got)
            f = QTElement(n, m, {(0, 0): c, (0, 1): c2})
            g = QTElement(n, m, {(0, 0): -F.div(c * d1, c2), (0, 1): d1})
            got = self._agree(decompose(f), decompose(g))
            assert all(key[1] != 1 for s in got for key in s)
            assert recompose([QTElement(n, m, s) for s in got]) \
                == qt_mul(f, g)

    def test_empty_components(self):
        rng = random.Random(5)
        for n, m in self.PARAMS:
            zero = QTElement(n, m)
            f = random_qt(n, m, rng)
            for d1, d2 in ((decompose(zero), decompose(f)),
                           (decompose(f), decompose(zero)),
                           (decompose(zero), decompose(zero))):
                assert self._agree(d1, d2) == [{}] * n
            # one V-exponent class per factor: a in A, g in V^{n-1} A, so
            # every component but the last is empty on both sides
            a = QTElement(n, m, {(x, n * y): c
                                 for (x, y), c in f.support.items()})
            g = QTElement(n, m, {(x, n * y + n - 1): c
                                 for (x, y), c in f.support.items()})
            got = self._agree(decompose(g), decompose(a))
            assert not any(got[:-1]) and got[-1]

    @pytest.mark.parametrize("n, m", PARAMS)
    def test_decompose_at_another_n(self, n, m):
        """decompose(f, k) with k != f.n: L^i tests divisibility by the
        element's n, so k = 1 raises NotInA whenever some term of g has a
        V-exponent outside n Z, and k = 2n never does."""
        rng = random.Random(31 * n + m)
        outcomes = set()
        for k in (1, 2, 3, 2 * n):
            for _ in range(10):
                f, g = random_qt(n, m, rng), random_qt(n, m, rng)
                got = self._agree(decompose(f, k), decompose(g, k))
                outcomes.add(got if got is NotInA else k)
        assert 2 * n in outcomes
        assert (NotInA in outcomes) == (n > 1)

    def test_not_in_a(self):
        """The V-exponents of the second factor are tested against the
        element's n, not the decomposition's, and also when the first
        factor is zero."""
        for n, m in ((2, 1), (4, 1), (2, 2)):
            zero = QTElement(n, m)
            V = qt_monomial(n, m, 0, 1)
            V2 = qt_monomial(n, m, 0, 2)
            for k, b in ((1, V), (2, V), (n, V)):
                d = [b] + [zero] * (k - 1)
                for a in (zero, qt_one(n, m)):
                    d1 = [a] + [zero] * (k - 1)
                    assert self._agree(d1, d) is NotInA
                    with pytest.raises(NotInA):
                        chi_product(d1, d)
            # V^2 at n = 2, decomposed at 4: in A for the element, so no
            # NotInA although 4 does not divide 2
            if n == 2:
                d = [V2] + [zero] * 3
                assert isinstance(self._agree(d, d), list)

    def test_parameter_mismatch(self):
        one2, one3, z22 = qt_one(2, 1), qt_one(3, 1), QTElement(2, 2)
        good = [one2, one2]
        with pytest.raises(ParameterMismatch):
            chi_product(good, [one2] * 3)
        for bad in ([one2, one3], [one2, z22]):
            for d1, d2 in ((bad, good), (good, bad)):
                assert self._agree(d1, d2) is ParameterMismatch
                with pytest.raises(ParameterMismatch):
                    chi_product(d1, d2)
        with pytest.raises(ParameterMismatch):
            chi_product([], [])

    def test_too_few_components(self):
        """A decomposition with fewer components than the other factor's
        is a ParameterMismatch, not an IndexError, in either factor."""
        one = qt_one(3, 1)
        full = decompose(one)
        short = [one, QTElement(3, 1)]
        for d1, d2 in ((short, full), (full, short)):
            with pytest.raises(ParameterMismatch):
                chi_product(d1, d2)

    def test_too_many_components(self):
        """A decomposition with more components than the other factor's is
        a ParameterMismatch, not silently cut to the other's length, in
        either factor."""
        one = qt_one(2, 1)
        full = decompose(one)
        long = [one, QTElement(2, 1), one]
        for d1, d2 in ((long, full), (full, long)):
            with pytest.raises(ParameterMismatch):
                chi_product(d1, d2)


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
    for n in (1, 2, 3, 4, 6):
        out = torus_coaction_check(n)
        assert out["action_multiplicative"]
        assert out["invariance_exact"]
        assert out["coassociative"]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2),
                                  (5, 1), (2, 4), (3, 4)])
def test_exact_oracle_finds_no_mismatch(n, m):
    assert oracle_mismatches(n, m) == 0


def test_exact_oracle_counts_a_phase_wrong_on_one_residue_class(
        monkeypatch):
    """A chi_product whose phase is off by q on the pairs with
    b c = 7 mod 21 alone (n = 3, m = 7) is caught on each of them.  The
    seeded pairs of random_qt, whose exponents lie in [-6, 6], never reach
    that class, so no number of samples finds it."""
    n, m, r = 3, 7, 7
    N = n * m
    assert all(b * c % N != r for b in range(-6, 7) for c in range(-6, 7))
    product, q = chi_product, QTElement(n, m).q

    def mutant(d1, d2):
        # the oracle's pair (b, c, e) lands on U^(bN+c) V^(b+e)
        out = product(d1, d2)
        for comp in out:
            for (x, v), c in comp.support.items():
                if (x // N) * (x % N) % N == r:
                    comp.support[x, v] = c * q
        return out
    monkeypatch.setattr(halab.torus, "chi_product", mutant)
    wrong = sum(b * c % N == r for b in range(N) for c in range(N))
    assert oracle_mismatches(n, m) == n * wrong > 0


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

    def test_bench_determinants(self):
        """n = 1..4 give the determinants recorded in bench/expected.json."""
        with open(EXPECTED) as fh:
            want = json.load(fh)["torus"]["galois_matrix"]
        for n in range(1, 5):
            g = torus_galois_matrix(n)
            assert {str(k): str(v) for k, v in g["det"].items()} \
                == want[str(n)]["det"], n
            assert g["unit"] is want[str(n)]["unit"]

    def test_units_beyond_four(self):
        for n in range(5, 9):
            assert torus_galois_matrix(n)["unit"], n

    def test_structure_against_full_determinant(self):
        """det of the Galois matrix with the carry x set to t, written out
        entry by entry (V^i (x) V^j -> sum_g q^{jg} x^c V^{(i+j) mod n}
        (x) delta_g, c = floor((i + j) / n)), is t^{n(n-1)/2} det M0, the
        exponent and scalar of the returned dict."""
        for n in range(1, 7):
            ((carries, d0),) = torus_galois_matrix(n)["det"].items()
            assert carries == n * (n - 1) // 2
            field, roots = halab.torus._params(n)
            for t in (2, 3):
                Mt = Mat.zero(n * n, n * n, field)
                for i, j, g in itertools.product(range(n), repeat=3):
                    Mt.data[(i + j) % n * n + g][i * n + j] = \
                        roots[j * g % n] * t ** ((i + j) // n)
                assert det(Mt) == d0 * t ** carries, (n, t)

    def test_determinants_as_recorded(self):
        """det for n = 1..8, as recorded when the matrix was still built
        over the monomial ring with its carries checked column by column."""
        want = {
            1: "{0: 1}", 2: "{1: -4}", 3: "{3: 81 + 162*z}",
            4: "{6: 65536}",
            5: "{10: 244140625 + 488281250*z^2 + 488281250*z^3}",
            6: "{15: -101559956668416}",
            7: "{21: -191581231380566414401 + -383162462761132828802*z"
               " + -383162462761132828802*z^2"
               " + -383162462761132828802*z^4}",
            8: "{28: 79228162514264337593543950336}"}
        for n, text in want.items():
            g = torus_galois_matrix(n)
            assert repr(g["det"]) == text and g["unit"], n
            assert set(g) == {"det", "unit"}


# ---------------------------------------------------------------------------
# the sampler and the element sums

def _sample_digest(elements, rng):
    """sha256 prefix of the supports, as sorted (key, numerators,
    denominator), and of the generator's state after drawing them.  An
    element is its support as a dict: a key that cancels and is drawn
    again may come back at another place in the dict's order."""
    def scalar(c):
        if isinstance(c, Cyc):
            return ("Cyc", c.num, c.den)
        return (type(c).__name__, c.numerator, c.denominator)
    canon = [[(key, scalar(c)) for key, c in sorted(el.support.items())]
             for el in elements]
    text = repr((canon, rng.getstate()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# recorded from the sampler that drew with rng.randint and re-filtered its
# support: 40 elements per (n, m) from random.Random(10 n + m), with the
# defaults (radius 6, 4 terms) and with radius 1 and 8 terms, where keys
# collide and cancel
SAMPLE_DIGESTS = {
    (1, 1): ("7c4ca2c8a226f619", "ca0693fb2a718dc4"),
    (1, 2): ("3c883555964dc364", "dbb64fdfd9785eb2"),
    (1, 3): ("575020a880b451b7", "02a91f5e4e9ec7ce"),
    (2, 1): ("7436991916bffe1d", "97225263a51d2dad"),
    (2, 2): ("c35e6e78c44f5fe2", "513f99d35366a8d9"),
    (2, 3): ("9e0b0031e7babb40", "9ec927f6c1b8bcc0"),
    (3, 1): ("7ea45ff1c71bf94e", "f96f86bce208b0e1"),
    (3, 2): ("f23084383b855b3a", "ef4c104041bbc260"),
    (3, 3): ("03b062239c7067d8", "90dc9b1407c359e5"),
    (4, 1): ("0b3d4c8e0eb2b8d0", "fb05f1dc1e693738"),
    (4, 2): ("1eef2eae881e914d", "6a4c696d7af177f1"),
    (4, 3): ("7d1335f97f11363d", "36a5c9f5c232d726"),
}


@pytest.mark.parametrize("n, m", sorted(SAMPLE_DIGESTS))
def test_random_qt_keeps_its_stream(n, m):
    """random_qt draws what it drew before and builds the same elements,
    with no zero coefficient in a support."""
    for shape, want in zip(((6, 4), (1, 8)), SAMPLE_DIGESTS[n, m]):
        rng = random.Random(10 * n + m)
        els = [random_qt(n, m, rng, *shape) for _ in range(40)]
        assert _sample_digest(els, rng) == want, shape
        assert all(all(el.support.values()) for el in els)


def _sum_reference(f, g):
    """f + g as the filtering constructor builds it."""
    out = dict(f.support)
    for key, c in g.support.items():
        out[key] = out.get(key, f.field.zero) + c
    return QTElement(f.n, f.m, out)


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2), (3, 1), (4, 1), (2, 2),
                                  (5, 1), (3, 4)])
def test_sums_and_scales_build_the_filtered_support(n, m):
    """f + g and f.scale(c) have the support, in the same order, that the
    filtering constructor gives, also where terms cancel or c is zero."""
    rng = random.Random(100 * n + m)
    F = QTElement(n, m).field
    for _ in range(30):
        f, g = (random_qt(n, m, rng, rng.randint(0, 3), rng.randint(0, 6))
                for _ in range(2))
        c = F.random(rng)
        for x, y in ((f, g), (g, f), (f, f.scale(-1)), (f, QTElement(n, m))):
            got, want = x + y, _sum_reference(x, y)
            assert list(got.support.items()) == list(want.support.items())
            assert (got.n, got.m, got.field, got.q) \
                == (want.n, want.m, want.field, want.q)
        for s in (c, F.zero, F.one, 2):
            got = f.scale(s)
            want = QTElement(n, m, {k: s * v for k, v in f.support.items()})
            assert list(got.support.items()) == list(want.support.items())
    assert not (f + f.scale(-1)).support


def _q_power(n, m, k):
    """q^k by repeated multiplication, with k read mod N = n m."""
    q = QTElement(n, m).q
    out = QTElement(n, m).field.one
    for _ in range(k % (n * m)):
        out = out * q
    return out


def _qt_mul_reference(f, g):
    """f g as the sum of its single-monomial products
    (c U^a V^b)(c' U^x V^e) = c c' q^{-bx} U^{a+x} V^{b+e}, collected by
    key and then put through the filtering constructor."""
    out = {}
    for (a, b), cf in f.support.items():
        for (x, e), cg in g.support.items():
            term = cf * cg * _q_power(f.n, f.m, -b * x)
            out[a + x, b + e] = out.get((a + x, b + e), f.field.zero) + term
    return QTElement(f.n, f.m, out)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (2, 2), (5, 1),
                                  (4, 2)])
def test_qt_mul_matches_the_monomial_reference(n, m):
    """qt_mul, which adds a fresh key's term with no zero test, against
    the reference over Q, Q(zeta_3), Q(zeta_4), Q(zeta_5) and Q(zeta_8):
    the same product, with no zero coefficient, on seeded pairs with
    colliding keys and on pairs whose terms cancel, within one key
    ((c2 + c U)(1 - (c/c2) U) has no U term) and through a phase
    ((V + c U)(U - (q^-1/c) V) has no U V term, as V U = q^-1 U V)."""
    rng = random.Random(13 * n + m)
    F = QTElement(n, m).field
    q_inv = _q_power(n, m, -1)
    cases = [tuple(random_qt(n, m, rng, rng.randint(0, 2), rng.randint(0, 8))
                   for _ in range(2)) for _ in range(30)]
    cancelled = []
    for _ in range(5):
        c, c2 = (F.random(rng) or F.one for _ in range(2))
        cancelled.append(((1, 0), QTElement(n, m, {(0, 0): c2, (1, 0): c}),
                          QTElement(n, m, {(0, 0): F.one,
                                           (1, 0): -F.div(c, c2)})))
        cancelled.append(((1, 1), QTElement(n, m, {(0, 1): F.one, (1, 0): c}),
                          QTElement(n, m, {(1, 0): F.one,
                                           (0, 1): -F.div(q_inv, c)})))
    for key, f, g in cancelled:
        assert key not in qt_mul(f, g).support
        cases.append((f, g))
    for f, g in cases:
        got = qt_mul(f, g)
        assert got == _qt_mul_reference(f, g)
        assert all(got.support.values()), "a zero coefficient was stored"


def test_products_over_q_use_no_fraction_operator(monkeypatch):
    """Over Q every product term is built from numerators and
    denominators: with Fraction's *, reflected * and unary - raising,
    the oracle still finds no mismatch at (n, m) = (2, 1), and qt_mul
    and chi_product give on 50 seeded pairs what they gave before."""
    n, m = 2, 1
    rng = random.Random(21)
    pairs = [(random_qt(n, m, rng), random_qt(n, m, rng)) for _ in range(50)]
    assert any(isinstance(c, Fraction)
               for f, g in pairs for c in (*f.support.values(),
                                           *g.support.values()))
    want = [(qt_mul(f, g), chi_product(decompose(f), decompose(g)))
            for f, g in pairs]

    def forbidden(*args):
        raise AssertionError("a Fraction operator ran")
    for name in ("__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(AssertionError):
        -Fraction(1, 2)
    assert oracle_mismatches(n, m) == 0
    for (f, g), (product, chi) in zip(pairs, want):
        got = chi_product(decompose(f), decompose(g))
        assert [a.support for a in got] == [a.support for a in chi]
        assert qt_mul(f, g) == product == recompose(got)
