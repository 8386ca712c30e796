"""Exact scalars: rationals and cyclotomic fields Q(zeta_N).

A rational is an int when integral and a reduced Fraction otherwise, so
the integer arithmetic of the paper's 0/+-1 examples runs in C; int / int
is a float, so every quotient goes through field.div.  Fraction(n) equals,
hashes and prints as n, so a Fraction of integral value costs speed only.
An element of Q(zeta_N) is the unique reduced remainder mod Phi_N in the
power basis 1, z, ..., z^(d-1), where d = deg Phi_N = phi(N).  It is
stored as d integer numerators over one positive common denominator, in
lowest terms, so every value has exactly one form and equality is a tuple
compare.

Phi_N is monic with integer coefficients, so z^k mod Phi_N has integer
coefficients for every k.  Each field tabulates once, when it is built,
the rows z^k mod Phi_N for d <= k <= 2d-2 and the N powers of zeta: a
product is an integer convolution folded through those rows followed by
one gcd, and zeta(k) is a lookup.  No Fraction is created and no
polynomial is divided on the way; only inverse runs extended Euclid.

The ground field is fixed per document: arithmetic that mixes scalars of
different cyclotomic orders raises FieldMismatch instead of
auto-promoting, and such scalars compare unequal.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub


class FieldMismatch(TypeError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers (dense lists of Fractions, index = power)

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Exact division with remainder, b monic-or-not, over Q."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return q, _poly_trim(a)


_CYCLO_CACHE = {}


def cyclotomic_polynomial(N):
    """Coefficient list of Phi_N, computed by dividing x^N - 1 by the
    product of Phi_d over proper divisors d of N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N in _CYCLO_CACHE:
        return list(_CYCLO_CACHE[N])
    num = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]  # x^N - 1
    den = [Fraction(1)]
    for d in range(1, N):
        if N % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    _CYCLO_CACHE[N] = q
    return list(q)


def _poly_ext_gcd(a, b):
    """Extended Euclid over Q[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
    return r0, u0, v0


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _poly_trim(out)


# ---------------------------------------------------------------------------
# field descriptors


def _fraction(text):
    """Fraction(text), with a zero denominator reported as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(
            "zero denominator in scalar literal %r" % text) from None


def _rational(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field Q.  Elements are ints when integral, else Fractions."""

    order = None
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def parse(self, text):
        text = text.strip()
        if _INTEGER.fullmatch(text):        # ASCII only: int("1_0") is 10
            return int(text)
        return _rational(_fraction(text))

    def div(self, a, b):
        """The exact quotient a / b, an int when it is integral."""
        return _rational(Fraction(a, b))

    def format(self, x):
        return str(x)

    def random(self, rng, span=9):
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        return _rational(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


_FIELD_CACHE = {}
_INTEGER = re.compile(r"[+-]?[0-9]+")

# a term: sign, then a coefficient (which may carry its own minus, as
# format writes "1 + -1*z"), then an optional power of z
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(-?\d+(?:/\d+)?)?\s*(?:\*?\s*z(?:\^(\d+))?)?\s*")


def _times_z(v, top):
    """z * v reduced mod Phi_N, for an integer vector v of length d, where
    top holds z^d mod Phi_N."""
    c = v[-1]
    out = [0] + v[:-1]
    if c:
        for i, t in enumerate(top):
            out[i] += c * t
    return out


class CyclotomicField:
    """Q(zeta_N): the quotient Q[z]/Phi_N(z).  One instance per N; its
    fold table, its N roots of unity, zero and one are built once."""

    def __new__(cls, N):
        if N in _FIELD_CACHE:
            return _FIELD_CACHE[N]
        self = super().__new__(cls)
        self.order = N
        self.poly = cyclotomic_polynomial(N)
        d = self.degree = len(self.poly) - 1
        top = [-int(c) for c in self.poly[:d]]          # z^d mod Phi_N
        # (k, nonzero (i, c) of z^k mod Phi_N) for d <= k <= 2d-2
        self._fold = []
        row = top
        for k in range(d, 2 * d - 1):
            self._fold.append((k, [(i, c) for i, c in enumerate(row) if c]))
            row = _times_z(row, top)
        self._tail = (0,) * (d - 1)
        v = [1] + [0] * (d - 1)
        self._zeta = []
        for _ in range(N):
            self._zeta.append(Cyc(self, tuple(v), 1))
            v = _times_z(v, top)
        self.zero = Cyc(self, (0,) * d, 1)
        self.one = self._zeta[0]
        _FIELD_CACHE[N] = self
        return self

    def from_int(self, n):
        return self.from_rational(n)

    def from_rational(self, q):
        if isinstance(q, int):
            return Cyc(self, (q,) + self._tail, 1)
        return Cyc(self, (q.numerator,) + self._tail, q.denominator)

    def div(self, a, b):
        """The exact quotient a / b, also when both are ints or Fractions."""
        return (a if isinstance(a, Cyc) else self.from_rational(a)) / b

    def zeta(self, k=1):
        """zeta_N^k reduced mod Phi_N (a shared, immutable element)."""
        return self._zeta[k % self.order]

    def _from_fractions(self, cs):
        """The element with power-basis coefficients cs (reduced Fractions
        or ints, at most degree of them)."""
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        return Cyc(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def parse(self, text):
        """Parse 'c0 + c1*z + c2*z^2' with rational coefficients."""
        coeffs = [Fraction(0)] * self.degree
        pos = 0
        text = text.strip()
        if not text:
            raise ValueError("empty scalar literal")
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError("bad scalar literal: %r" % text)
            sign, coef, power = m.groups()
            if coef is None and "z" not in text[pos:m.end()]:
                raise ValueError("bad scalar literal: %r" % text)
            c = _fraction(coef) if coef is not None else Fraction(1)
            if sign == "-":
                c = -c
            if "z" in text[pos:m.end()]:
                k = int(power) if power is not None else 1
            else:
                k = 0
            if k >= self.degree:
                # reduce z^k mod Phi_N
                for i, t in enumerate((self.zeta(k) * c).coeffs):
                    coeffs[i] += t
            else:
                coeffs[k] += c
            pos = m.end()
        return self._from_fractions(coeffs)

    def format(self, x):
        parts = []
        for k, c in enumerate(x.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*z" % c)
            else:
                parts.append("%s*z^%d" % (c, k))
        return " + ".join(parts) if parts else "0"

    def random(self, rng, span=4):
        return self._from_fractions([
            Fraction(rng.randint(-span, span), rng.randint(1, 3))
            for _ in range(self.degree)])

    def __repr__(self):
        return "Q(zeta_%d)" % self.order


QQ = RationalField()


def _canon(field, num, den):
    """The Cyc num/den in lowest terms (num a tuple of ints, den > 0)."""
    g = gcd(den, *num)
    if g == 1:
        return Cyc(field, num, den)
    return Cyc(field, tuple(x // g for x in num), den // g)


class Cyc:
    """An element of a fixed cyclotomic field: power-basis coefficients
    num[k] / den of the reduced remainder mod Phi_N, with num a tuple of
    ints of length deg Phi_N, den > 0 and gcd(den, *num) == 1.  Instances
    are immutable and may be shared (the field caches zero, one and its
    roots of unity)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.field.order != self.field.order:
                raise FieldMismatch(
                    "mixed cyclotomic orders %s vs %s"
                    % (self.field.order, other.field.order))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _add_sub(self, other, op):
        """self op other for op in (add, sub)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = tuple(map(op, self.num, o.num))
            return Cyc(self.field, num, 1) if da == 1 \
                else _canon(self.field, num, da)
        return _canon(self.field, tuple(
            op(x * db, y * da) for x, y in zip(self.num, o.num)), da * db)

    def __add__(self, other):
        return self._add_sub(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.field, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        return self._add_sub(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        d = field.degree
        out = [0] * (2 * d - 1)
        nz = [(j, y) for j, y in enumerate(o.num) if y]
        for i, x in enumerate(self.num):
            if x:
                for j, y in nz:
                    out[i + j] += x * y
        for k, row in field._fold:
            c = out[k]
            if c:
                for i, r in row:
                    out[i] += c * r
        return _canon(field, tuple(out[:d]), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("cyclotomic division by zero")
        g, u, _ = _poly_ext_gcd(list(self.coeffs), self.field.poly)
        # g is a nonzero constant since Phi_N is irreducible over Q
        assert len(g) == 1
        inv = [c / g[0] for c in u]
        _, r = _poly_divmod(inv, self.field.poly)
        return self.field._from_fractions(r)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        # a value of another order is not comparable, so it is unequal
        # (only arithmetic across orders raises FieldMismatch)
        if isinstance(other, Cyc) and other.field.order != self.field.order:
            return NotImplemented
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational value hashes as the equal int or Fraction does
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.order, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return self.field.format(self)


def parse_field(desc):
    """Field descriptor from JSON form: 'Q' or {'cyclotomic': N}."""
    if desc == "Q":
        return QQ
    if isinstance(desc, dict) and "cyclotomic" in desc:
        return CyclotomicField(int(desc["cyclotomic"]))
    raise ValueError("unknown field descriptor: %r" % (desc,))


def field_to_json(field):
    if field == QQ:
        return "Q"
    return {"cyclotomic": field.order}
