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

Phi_N is monic with integer coefficients, so z^t mod Phi_N has integer
coefficients for every t.  Each field tabulates once, when it is built,
one power table, z^t mod Phi_N for t < N.  Every general product goes
through field.times(x, y, k) = x * y * zeta^k with k reduced mod N, and
one gcd puts the result in lowest terms; x * y is times(x, y, 0).  Up to
degree 8, the numerators come from a straight-line kernel per phase k,
written from the table on the first product at k and cached: it takes
the d^2 products x_i * y_j once and returns each numerator as a signed
sum of them, read off the rows z^((i+j+k) mod N), with no loop and no
temporary list.  Above degree 8 (an order up to 1000 gives d up to 996)
that form grows as d^2 times the row weight, and at d = 12 it is already
slower than the loop on a rational operand, so there each x_i * y_j
lands at z^(i+j+k) of one integer convolution and every entry at or
above z^d is folded through its row of the table, by a fold list built
per phase on first use.  Over Q the roots of unity are +-1, so
QQ.times(x, y, k) is x * y * (-1)^k: an int product when both are ints,
else one Fraction of the signed product of the numerators over that of
the denominators, with one normalisation and no Fraction operator.
zeta(k) is a lookup of one of the N roots of unity the field caches,
plain elements whose products go through times like any other.  A Cyc product creates no Fraction and
divides no polynomial; only inverse runs extended Euclid.

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
# field descriptors


def _fraction(text):
    """Fraction(text), with a zero denominator reported as ValueError.  An
    exponent is rejected before Fraction sees it, since "1e800000" would
    build 10^800000."""
    if "e" in text or "E" in text:
        raise ValueError("exponent in scalar literal %r" % text)
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

    def times(self, x, y, k=0):
        """x * y * (-1)^k: the roots of unity in Q are +-1, so this is
        the kernel of CyclotomicField.times at N = 2.  Unless both are
        ints it is Fraction(+-x.numerator * y.numerator, x.denominator *
        y.denominator): one normalisation and no Fraction operator."""
        if x.__class__ is int is y.__class__:
            return -(x * y) if k & 1 else x * y
        p = x.numerator * y.numerator
        return Fraction(-p if k & 1 else p, x.denominator * y.denominator)

    def random(self, rng, span=9):
        # rng.choice(range(a, b + 1)) makes the one draw rng.randint(a, b)
        # makes, with less work around it
        num = rng.choice(range(-span, span + 1))
        den = rng.choice(range(1, span + 1))
        return num // den if num % den == 0 else Fraction(num, den)

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


# the largest degree whose products run straight-line kernels (see the
# module docstring for why the loop stays above it)
_STRAIGHT_LINE_DEGREE = 8


class CyclotomicField:
    """Q(zeta_N): the quotient Q[z]/Phi_N(z).  One instance per N; its
    power table, its N roots of unity, zero and one are built once."""

    def __new__(cls, N):
        if N in _FIELD_CACHE:
            return _FIELD_CACHE[N]
        self = super().__new__(cls)
        self.order = N
        self.poly = cyclotomic_polynomial(N)
        d = self.degree = len(self.poly) - 1
        top = [-int(c) for c in self.poly[:d]]          # z^d mod Phi_N
        # the one power table, z^t mod Phi_N for t < N, and its rows of
        # nonzero (i, c)
        table = []
        v = [1] + [0] * (d - 1)
        for _ in range(N):
            table.append(tuple(v))
            v = _times_z(v, top)
        self._rows = [[(i, c) for i, c in enumerate(t) if c] for t in table]
        if d <= _STRAIGHT_LINE_DEGREE:
            self._kernels = [None] * N      # built per phase on first use
        else:
            self._kernels = None
            # per phase k, built on first use: the (t, row of z^t) that
            # times(x, y, k) folds, d <= t <= 2d-2+k
            self._folds = [None] * N
        self._tail = (0,) * (d - 1)
        self._zeta = [Cyc(self, t, 1) for t in table]
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

    def times(self, x, y, k=0):
        """x * y * zeta^k with k reduced mod N, and one gcd for lowest
        terms.  Up to degree _STRAIGHT_LINE_DEGREE the numerators come
        from the straight-line kernel of phase k; above it each x_i * y_j
        lands at z^(i+j+k) of one integer convolution, and every entry at
        or above z^d is folded through its row of the power table.  x and
        y are elements of this field or ints or Fractions."""
        if x.__class__ is not Cyc or x.field is not self:
            x = self._operand(x)
        if y.__class__ is not Cyc or y.field is not self:
            y = self._operand(y)
        k %= self.order
        kernels = self._kernels
        if kernels is not None:
            kernel = kernels[k] or self._kernel(k)
            return _canon(self, kernel(x.num, y.num), x.den * y.den)
        d = self.degree
        out = [0] * (2 * d - 1 + k)
        ynum = y.num
        for i, a in enumerate(x.num):
            if a:
                for t, b in enumerate(ynum, i + k):
                    if b:
                        out[t] += a * b
        folds = self._folds[k]
        if folds is None:
            folds = self._folds[k] = [(t, self._rows[t % self.order])
                                      for t in range(max(d, k), 2 * d - 1 + k)]
        for t, row in folds:
            c = out[t]
            if c:
                for i, r in row:
                    out[i] += c * r
        return _canon(self, tuple(out[:d]), x.den * y.den)

    def _kernel(self, k):
        """The straight-line kernel of phase k, built on first use and
        cached: a function of the numerator tuples of x and y that
        returns the numerators of x * y * z^k."""
        namespace = {"__builtins__": {}}
        exec(self._kernel_source(k), namespace)
        kernel = self._kernels[k] = namespace["kernel"]
        return kernel

    def _kernel_source(self, k):
        """The source of the kernel of phase k.  Each product x_i * y_j is
        taken once, and numerator m is the signed sum of the products
        whose row z^((i+j+k) mod N) holds z^m, times that coefficient.
        The source holds only names and integer literals."""
        d = self.degree
        lines = ["def kernel(x, y):",
                 "    %s, = x" % ", ".join("x%d" % i for i in range(d)),
                 "    %s, = y" % ", ".join("y%d" % i for i in range(d))]
        sums = [[] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                row = self._rows[(i + j + k) % self.order]
                p = "x%d * y%d" % (i, j)
                if len(row) > 1:        # named once, read in every sum
                    lines.append("    x%dy%d = %s" % (i, j, p))
                    p = "x%dy%d" % (i, j)
                for m, c in row:
                    term = p if abs(c) == 1 else "%d * %s" % (abs(c), p)
                    sums[m].append(("- " if c < 0 else "+ ") + term)
        lines.append("    return (%s,)" % ", ".join(
            " ".join(terms).removeprefix("+ ") or "0" for terms in sums))
        return "\n".join(lines)

    def _operand(self, x):
        """x as an element of this field: a Cyc of it is kept, an int or
        Fraction embedded; a Cyc of another order raises FieldMismatch."""
        o = self.zero._coerce(x)
        if o is None:
            raise TypeError("not a scalar of %r: %r" % (self, x))
        return o

    def _from_fractions(self, cs):
        """The element with power-basis coefficients cs (reduced Fractions
        or ints, at most degree of them)."""
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        return Cyc(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def parse(self, text):
        """Parse 'c0 + c1*z + c2*z^2' with rational coefficients."""
        text = text.strip()
        if _INTEGER.fullmatch(text):        # ASCII only, as in QQ.parse
            return Cyc(self, (int(text),) + self._tail, 1)
        if not text:
            raise ValueError("empty scalar literal")
        coeffs = [Fraction(0)] * self.degree
        pos = 0
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
        # coefficient i is a_i / b_i, drawn as rng.randint(-span, span)
        # and rng.randint(1, 3) draw them: numerators a_i * (L // b_i)
        # over L = lcm of the b_i, then lowest terms
        nums, dens = range(-span, span + 1), range(1, 4)
        draws = [(rng.choice(nums), rng.choice(dens))
                 for _ in range(self.degree)]
        den = lcm(*(b for _, b in draws))
        return _canon(self, tuple(a * (den // b) for a, b in draws), den)

    def __repr__(self):
        return "Q(zeta_%d)" % self.order


QQ = RationalField()


# ---------------------------------------------------------------------------
# polynomials: coefficient lists over a field, index = power.  The one
# polynomial toolkit: cyclotomic_polynomial and Cyc.inverse use it over Q,
# and algebra's central idempotent splitting over the document's field.

def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b, field=QQ):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _poly_trim(out)


def _poly_divmod(a, b, field=QQ):
    """Exact division with remainder by b (monic or not)."""
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv = field.one if b[-1] == field.one else field.div(field.one, b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = a[i + j] - c * y
    return q, _poly_trim(a)


def _poly_sub(a, b, field=QQ):
    out = [field.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] - x
    return _poly_trim(out)


def _poly_ext_gcd(a, b, field=QQ):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = list(a), list(b)
    u0, u1 = [field.one], []
    v0, v1 = [], [field.one]
    while r1:
        q, r = _poly_divmod(r0, r1, field)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1, field), field)
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1, field), field)
    return r0, u0, v0


_CYCLO_CACHE = {}


def cyclotomic_polynomial(N):
    """Coefficient list of Phi_N, computed by dividing x^N - 1 by the
    product of Phi_d over proper divisors d of N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N in _CYCLO_CACHE:
        return list(_CYCLO_CACHE[N])
    num = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    den = [1]
    for d in range(1, N):
        if N % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    _CYCLO_CACHE[N] = q
    return list(q)


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
        # same field: skip _coerce (fields are one instance per N)
        if other.__class__ is Cyc and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return self.field.times(self, o, 0)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("cyclotomic division by zero")
        g, u, _ = _poly_ext_gcd(list(self.coeffs), self.field.poly)
        # g is a nonzero constant since Phi_N is irreducible over Q
        assert len(g) == 1
        inv = [QQ.div(c, g[0]) for c in u]
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
        if other.__class__ is Cyc and other.field is self.field:
            return self.num == other.num and self.den == other.den
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

