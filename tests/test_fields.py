from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from halab import fields
from halab.fields import (QQ, CyclotomicField, Cyc, cyclotomic_polynomial,
                          parse_field, field_to_json,
                          DivisionByZero)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestRationals:
    def test_constants(self):
        assert QQ.one == Fraction(1)
        assert QQ.zero == Fraction(0)
        assert QQ.from_int(-7) == Fraction(-7)

    def test_parse_format_round_trip(self):
        for text in ["0", "5", "-3/7", "22/7"]:
            assert QQ.format(QQ.parse(text)) == text

    @given(rationals, rationals)
    def test_field_ops(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


class TestRationalRepresentation:
    """Over Q an integral value is an int and any other a Fraction."""

    def test_integral_values_are_ints(self):
        for x in (QQ.parse("4/2"), QQ.div(6, 3), QQ.div(Fraction(3, 2),
                                                        Fraction(3, 4))):
            assert type(x) is int and x == 2
        assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.from_int(-7)))

    def test_other_values_are_fractions(self):
        for x in (QQ.parse("1/2"), QQ.div(1, 2), QQ.div(3, 6)):
            assert type(x) is Fraction and x == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, 0)

    @pytest.mark.parametrize("text", [
        "0", "-0", "+5", " 7 ", "12345678901234567890", "3/1", "-2/4",
        "1e3", "", "1/0", "abc", "1_0", "\u0663", "--5", "5 5"])
    def test_parse_agrees_with_the_fraction_path(self, text):
        """Integer literals are read by int(), the rest by Fraction: the
        value, its type and whether it raises do not depend on the path.
        The int path takes ASCII digits only, since int("1_0") is 10 where
        the Fraction of Python 3.10 raises."""
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                QQ.parse(text)
            return
        got = QQ.parse(text)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    @given(st.integers(-99, 99), st.integers(-20, 20).filter(bool))
    def test_div_matches_fraction(self, a, b):
        q = QQ.div(a, b)
        assert q == Fraction(a, b)
        assert type(q) is (int if a % b == 0 else Fraction)

    def test_cyclotomic_div_is_exact(self):
        F = CyclotomicField(3)
        half = F.div(1, 2)
        assert isinstance(half, Cyc)
        assert half == Fraction(1, 2) and half + half == F.one
        assert F.div(F.zeta(1), F.zeta(2)) == F.zeta(2)
        with pytest.raises(DivisionByZero):
            F.div(1, 0)

    def test_format_matches_fraction(self):
        for text in ["0", "-0", "7", " -12 ", "4/2", "-6/3", "0/5", "1/2",
                     "-3/7", "22/7", "10/4", "2.0", "-1.5", "1e3"]:
            assert QQ.format(QQ.parse(text)) == str(Fraction(text))

    def test_random_is_int_or_proper_fraction(self):
        import random
        rng = random.Random(3)
        xs = [QQ.random(rng) for _ in range(200)]
        assert all(type(x) is int or x.denominator != 1 for x in xs)
        assert {type(x) for x in xs} == {int, Fraction}


class TestCyclotomic:
    def test_singleton(self):
        assert CyclotomicField(4) is CyclotomicField(4)

    def test_primitive_root_relations(self):
        F = CyclotomicField(4)
        i = F.zeta(1)
        assert i * i == -F.one
        assert i * i * i * i == F.one
        F3 = CyclotomicField(3)
        w = F3.zeta(1)
        assert w * w + w + F3.one == F3.zero

    def test_inverse(self):
        F = CyclotomicField(5)
        x = F.zeta(1) + F.one
        assert x * x.inverse() == F.one
        with pytest.raises(DivisionByZero):
            F.zero.inverse()

    def test_zeta_powers_wrap(self):
        F = CyclotomicField(6)
        assert F.zeta(6) == F.one
        assert F.zeta(7) == F.zeta(1)

    def test_parse_format_round_trip(self):
        F = CyclotomicField(4)
        for text in ["1", "z", "-1*z", "1/2 + 3*z"]:
            assert F.parse(F.format(F.parse(text))) == F.parse(text)

    def test_embed_root(self):
        F = CyclotomicField(12)
        # the cube root of unity inside the 12th cyclotomic field
        w = F.zeta(4)
        assert w * w * w == F.one
        assert w != F.one

    @given(st.integers(0, 11), st.integers(0, 11))
    def test_zeta_multiplicativity(self, a, b):
        F = CyclotomicField(12)
        assert F.zeta(a) * F.zeta(b) == F.zeta(a + b)


def test_cyclotomic_polynomial_degrees():
    # degree = Euler phi
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for n, phi in expected.items():
        assert len(cyclotomic_polynomial(n)) - 1 == phi


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1), Fraction(1)]


def test_field_descriptor_round_trip():
    assert parse_field(field_to_json(QQ)) is QQ
    F = CyclotomicField(5)
    assert parse_field(field_to_json(F)) is F


def test_random_is_seeded():
    import random
    a = [CyclotomicField(3).random(random.Random(5)) for _ in range(4)]
    b = [CyclotomicField(3).random(random.Random(5)) for _ in range(4)]
    assert a == b


# ---------------------------------------------------------------------------
# Cyc against a reference: Fraction polynomials reduced mod Phi_N

def _ref_reduce(p, N):
    """p (Fractions, index = power) reduced mod the monic Phi_N."""
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    p = list(p) + [Fraction(0)] * max(0, d - len(p))
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        for j, y in enumerate(phi):
            p[k - d + j] -= c * y
    return tuple(p[:d])


def _ref_mul(a, b, N):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(out, N)


def _ref_const(r, N):
    return _ref_reduce([Fraction(r)], N)


def _element(F, cs):
    """The element with coefficients cs, written term by term."""
    return F.parse(" + ".join("%s*z^%d" % (c, k) for k, c in enumerate(cs)))


def _agrees(x, ref):
    """x equals ref and is stored in lowest terms."""
    assert isinstance(x, Cyc)
    assert x.coeffs == tuple(ref)
    assert x.den > 0 and gcd(x.den, *x.num) == 1


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
DIFF_ORDERS = (1, 2, 3, 4, 5, 8, 12)


@st.composite
def field_case(draw):
    N = draw(st.sampled_from(DIFF_ORDERS))
    d = len(cyclotomic_polynomial(N)) - 1
    coeffs = st.lists(small, min_size=d, max_size=d)
    return (N, draw(coeffs), draw(coeffs),
            draw(st.one_of(st.integers(-4, 4), small)))


@given(field_case())
def test_arithmetic_matches_reference(case):
    N, xs, ys, r = case
    F = CyclotomicField(N)
    x, y = _element(F, xs), _element(F, ys)
    _agrees(x, xs)
    rx, ry, rr = tuple(xs), tuple(ys), _ref_const(r, N)
    _agrees(x + y, [a + b for a, b in zip(rx, ry)])
    _agrees(x - y, [a - b for a, b in zip(rx, ry)])
    _agrees(x * y, _ref_mul(rx, ry, N))
    _agrees(-x, [-a for a in rx])
    _agrees(x + r, [a + b for a, b in zip(rx, rr)])
    _agrees(r + x, [a + b for a, b in zip(rx, rr)])
    _agrees(x - r, [a - b for a, b in zip(rx, rr)])
    _agrees(r - x, [b - a for a, b in zip(rx, rr)])
    _agrees(x * r, _ref_mul(rx, rr, N))
    _agrees(r * x, _ref_mul(rx, rr, N))
    one = _ref_const(1, N)
    if any(ry):
        q, inv = x / y, y.inverse()
        assert _ref_mul(q.coeffs, ry, N) == rx
        assert _ref_mul(inv.coeffs, ry, N) == one
        _agrees(q, _ref_mul(rx, inv.coeffs, N))
        _agrees(r / y, _ref_mul(rr, inv.coeffs, N))
    else:
        with pytest.raises(DivisionByZero):
            y.inverse()
    if r:
        _agrees(x / r, [a / r for a in rx])
    assert F.parse(F.format(x)) == x
    _agrees(F.parse(F.format(x)), rx)


@pytest.mark.parametrize("N", DIFF_ORDERS)
def test_zeta_matches_reference(N):
    F = CyclotomicField(N)
    for k in range(-2 * N, 2 * N + 1):
        ref = _ref_reduce([Fraction(0)] * (k % N) + [Fraction(1)], N)
        _agrees(F.zeta(k), ref)
    _agrees(F.zero, _ref_const(0, N))
    _agrees(F.one, _ref_const(1, N))
    _agrees(F.from_int(-7), _ref_const(-7, N))
    _agrees(F.from_rational(Fraction(-6, 4)), _ref_const(Fraction(-3, 2), N))


def test_cached_arithmetic_divides_no_polynomial(monkeypatch):
    F = CyclotomicField(12)

    def no_division(*args):
        raise AssertionError("polynomial division in cached arithmetic")
    monkeypatch.setattr(fields, "_poly_divmod", no_division)
    z = F.zeta(1)
    acc = F.one
    for k in range(1000):
        acc = (acc * F.zeta(k) + z) * Fraction(1, 2) - F.zero - k
    assert acc * F.one == acc and F.zero + acc == acc
    assert F.from_int(3) - F.from_rational(Fraction(1, 2)) == Fraction(5, 2)
    monkeypatch.undo()
    # cached elements are shared; no product may have changed them
    assert F.zeta(1) is z
    for k in range(12):
        _agrees(F.zeta(k),
                _ref_reduce([Fraction(0)] * k + [Fraction(1)], 12))
    _agrees(F.one, _ref_const(1, 12))
    _agrees(F.zero, _ref_const(0, 12))


# ---------------------------------------------------------------------------
# hash agrees with == across int, Fraction and Cyc

def scalars(F):
    elements = st.lists(small, min_size=F.degree, max_size=F.degree).map(
        lambda cs: _element(F, cs))
    return st.one_of(st.integers(-3, 3), small, small.map(F.from_rational),
                     elements)


def test_rational_cyc_hashes_as_rational():
    F = CyclotomicField(4)
    assert len({F.one, 1}) == 1
    assert {Fraction(1, 2): "half"}[F.from_rational(Fraction(1, 2))] == "half"
    assert hash(F.zero) == hash(0)


@given(st.sampled_from([3, 4, 12]).flatmap(
    lambda N: st.lists(scalars(CyclotomicField(N)), max_size=8)))
def test_hash_agrees_with_eq_over_mixed_scalars(xs):
    for a in xs:
        for b in xs:
            if a == b:
                assert hash(a) == hash(b)
    classes = []
    for x in xs:
        if not any(x == c for c in classes):
            classes.append(x)
    assert len(set(xs)) == len(classes)
    assert len({x: None for x in xs}) == len(classes)


def test_orders_compare_unequal_but_do_not_mix():
    one3, one4 = CyclotomicField(3).one, CyclotomicField(4).one
    assert len({one3, one4}) == 2
    assert one3 != one4 and not one3 == one4
    assert one3 == 1 and one4 == 1
    with pytest.raises(fields.FieldMismatch):
        one3 + one4
    with pytest.raises(fields.FieldMismatch):
        one3 * CyclotomicField(4).zeta(1)


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)])
def test_zero_denominator_is_a_value_error(field):
    for text in ("1/0", "-3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            field.parse(text)


def test_rational_zero_and_one_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert (QQ.zero, QQ.one) == (0, 1)
