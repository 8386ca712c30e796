"""Exact quantum-torus arithmetic at a root of unity, the convolution-
pointwise product through the diagonal operator L and the operator
matrices Omega_k, the fiber-matrix presentation over rational points of
the torus with its relations decided exactly, and the Z/n coaction with
its Galois matrix and determinant.

Elements are finite-support Laurent polynomials in unitaries U, V with
U V = q V U, written in normal order (U powers to the left); the carry
rule V^b U^c = q^{-bc} U^c V^b follows from the defining relation.
Every scalar lives in Q or Q(zeta_N); no verdict here passes through
floating point.
"""

import random
from fractions import Fraction
from functools import cache
from math import lcm

from .fields import QQ, CyclotomicField
from .linalg import Mat, det


class ParameterMismatch(ValueError):
    pass


class NotInA(ValueError):
    pass


@cache
def _params(N):
    """The exact field of Q(zeta_N) (Q for N <= 2) and its primitive N-th
    root of unity q, resolved once per N."""
    if N <= 2:
        return QQ, (QQ.one if N == 1 else -QQ.one)
    field = CyclotomicField(N)
    return field, field.zeta(1)


class QTElement:
    """Sum of c_{ab} U^a V^b with q = zeta_{nm}; support maps (a, b) to a
    scalar of the matching exact field."""

    def __init__(self, n, m, support=None):
        self.n = n
        self.m = m
        self.field, self.q = _params(n * m)
        self.support = {}
        if support:
            for key, c in support.items():
                if c:
                    self.support[key] = c

    def _check(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ParameterMismatch("elements live at different parameters")

    def __add__(self, other):
        self._check(other)
        out = dict(self.support)
        for key, c in other.support.items():
            out[key] = out.get(key, self.field.zero) + c
        return QTElement(self.n, self.m, out)

    def scale(self, c):
        return QTElement(self.n, self.m,
                         {k: c * v for k, v in self.support.items()})

    def __eq__(self, other):
        if not isinstance(other, QTElement):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) \
            and self.support == other.support

    def __repr__(self):
        if not self.support:
            return "0"
        parts = []
        for (a, b), c in sorted(self.support.items()):
            parts.append("(%r)U^%dV^%d" % (c, a, b))
        return " + ".join(parts)


def qt_monomial(n, m, a, b, coeff=None):
    el = QTElement(n, m)
    c = coeff if coeff is not None else el.field.one
    if c:
        el.support[(a, b)] = c
    return el


def qt_one(n, m):
    return qt_monomial(n, m, 0, 0)


def qt_mul(f, g):
    """Exact product in normal order: (U^a V^b)(U^c V^e) =
    q^{-bc} U^{a+c} V^{b+e}."""
    f._check(g)
    out = QTElement(f.n, f.m)
    support = out.support
    N = f.n * f.m
    for (a, b), cf in f.support.items():
        for (c, e), cg in g.support.items():
            term = cf * cg
            k = (-b * c) % N
            if k:
                term = term * _power(f, k)
            key = (a + c, b + e)
            old = support.get(key)
            val = term if old is None else old + term
            if val:
                support[key] = val
            elif old is not None:
                del support[key]
    return out


def _power(el, k):
    """q^k with exponent reduced modulo the root order."""
    N = el.n * el.m
    k %= N
    if el.field is QQ:
        return el.field.one if k == 0 else -el.field.one
    return el.field.zeta(k)


class DecomposedElement:
    """Components a_0 .. a_{n-1}, each supported on V-exponents divisible
    by n, representing sum a_i V^i."""

    def __init__(self, n, components):
        self.n = n
        self.components = components


def decompose(f, n=None):
    """Split f into sum a_i V^i with a_i in A = span{U^x V^{ny}}."""
    n = n if n is not None else f.n
    comps = [QTElement(f.n, f.m) for _ in range(n)]
    for (a, b), c in f.support.items():
        i = b % n
        comps[i].support[(a, b - i)] = c
    return DecomposedElement(n, comps)


def recompose(d):
    """Sum a_i V^i, multiplied out exactly."""
    if not d.components:
        raise ParameterMismatch("empty decomposition")
    base = d.components[0]
    out = QTElement(base.n, base.m)
    for i, a in enumerate(d.components):
        out = out + qt_mul(a, qt_monomial(base.n, base.m, 0, i))
    return out


def L_operator(a, i=1):
    """L^i on A: multiplies the coefficient of U^x V^{ny} by q^{-xi}."""
    n = a.n
    out = QTElement(a.n, a.m)
    N = a.n * a.m
    for (x, b), c in a.support.items():
        if b % n != 0:
            raise NotInA("V-exponent %d not divisible by %d" % (b, n))
        k = (-x * i) % N
        out.support[(x, b)] = c * _power(a, k) if k else c
    return out


def chi_product(d1, d2):
    """Component k of the product is sum_i a_i L^i(b_{k-i}), with the V^n
    carry multiplied into the coefficient whenever the V-exponents wrap."""
    if d1.n != d2.n:
        raise ParameterMismatch("decompositions at different n")
    n = d1.n
    base = d1.components[0]
    base._check(d2.components[0])
    comps = [QTElement(base.n, base.m) for _ in range(n)]
    vn = qt_monomial(base.n, base.m, 0, n)
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            term = qt_mul(d1.components[i], L_operator(d2.components[j], i))
            if i + j >= n:
                term = qt_mul(term, vn)
            comps[k] = comps[k] + term
    return DecomposedElement(n, comps)


def omega_matrix(n, k):
    """The group table of Z/n with entries equal to k replaced by the
    power of L carried by their row, all other entries zero.  Entry (i, j)
    is the integer i when i + j = k mod n, else None."""
    if not 0 <= k < n:
        raise ParameterMismatch("component index out of range")
    return [[i if (i + j) % n == k else None for j in range(n)]
            for i in range(n)]


def random_qt(n, m, rng, radius=6, terms=4):
    el = QTElement(n, m)
    for _ in range(terms):
        a = rng.randint(-radius, radius)
        b = rng.randint(-radius, radius)
        c = el.field.random(rng)
        if c:
            el.support[(a, b)] = el.support.get((a, b), el.field.zero) + c
    el.support = {k: v for k, v in el.support.items() if v}
    return el


# ---------------------------------------------------------------------------
# fiber matrices

FIBER_RELATIONS = ("unitary_U", "unitary_V", "commutation", "U_power",
                   "V_power")


def fiber_matrices(n, m, x, y):
    """The explicit diagonal U and shift V over the rational point (x, y)
    of the torus, for theta = n/m, over the field of _params(N) with
    N = m * lcm(den x, den y), so that every entry is a power of zeta_N.
    Four V-variants are built: the matrix as printed (one shift entry
    e^{2 pi i (n+y)/m}, the rest e^{2 pi i y/m}) and the uniform clock
    shift, each with the shift running above or below the diagonal.  Each
    variant records the five FIBER_RELATIONS as exact booleans: unitarity
    of U and of V (conjugation takes zeta^k to zeta^-k), the commutation
    relation U V = e^{2 pi i theta} V U, and the m-th powers
    U^m = e^{2 pi i x} I and V^m = e^{2 pi i y} I."""
    if m <= 0:
        raise ParameterMismatch("m must be positive")
    if not all(isinstance(t, (int, Fraction)) for t in (x, y)):
        raise ParameterMismatch("fiber coordinates must be int or Fraction")
    L = lcm(x.denominator, y.denominator)
    N = m * L
    field, q = _params(N)
    roots = [field.one]
    for _ in range(N - 1):
        roots.append(roots[-1] * q)
    xe, ye = int(x * L), int(y * L)        # e^{2 pi i x / m} = zeta_N^xe

    def mat(exps):
        # {(i, j): k} -> the matrix with zeta_N^k at (i, j), zero elsewhere
        cols = [{} for _ in range(m)]
        for (i, j), k in exps.items():
            cols[j][i] = roots[k % N]
        return Mat.from_cols(cols, m, field)

    def unitary(exps):
        adjoint = mat({(j, i): -k for (i, j), k in exps.items()})
        return mat(exps) * adjoint == Mat.identity(m, field)

    def mth_power_is(A, k):
        P = A
        for _ in range(m - 1):
            P = P * A
        return P == mat({(i, i): k for i in range(m)})
    U_exps = {(k, k): k * n * L + xe for k in range(m)}
    U = mat(U_exps)
    unitary_U = unitary(U_exps)
    U_power = mth_power_is(U, xe * m)
    variants = {}
    for printed in (True, False):
        for orientation in ("super", "sub"):
            entries = [ye] * m
            if printed and m > 1:
                entries[0] = n * L + ye
            V_exps = {((k, (k + 1) % m) if orientation == "super"
                       else ((k + 1) % m, k)): e
                      for k, e in enumerate(entries)}
            V = mat(V_exps)
            name = "%s-%s" % ("printed" if printed else "uniform",
                              orientation)
            variants[name] = {
                "V": V,
                "unitary_U": unitary_U,
                "unitary_V": unitary(V_exps),
                "commutation": U * V == (V * U).scale(roots[n * L % N]),
                "U_power": U_power,
                "V_power": mth_power_is(V, ye * m),
            }
    return {"n": n, "m": m, "x": x, "y": y, "U": U, "variants": variants}


def best_fiber_variant(report):
    """The name of the first variant whose relations all hold, or None."""
    for name, v in report["variants"].items():
        if all(v[k] for k in FIBER_RELATIONS):
            return name
    return None


# ---------------------------------------------------------------------------
# the Z/n coaction

def torus_coaction_check(n, radius, seed=0):
    """The Z/n action g.(U^a V^b) = q^{gb} U^a V^b with q = zeta_n, on
    seeded random elements with exponents in [-radius, radius]: it is
    multiplicative through qt_mul, g.(fh) = (g.f)(g.h); an element is
    fixed by every g iff each of its V-exponents is divisible by n; and
    (g+h).f = g.(h.f), so the dual coaction is coassociative."""
    if radius < n:
        raise ParameterMismatch("radius below n")
    rng = random.Random(seed)

    def act(g, f):
        return QTElement(n, 1, {(a, b): c * _power(f, g * b)
                                for (a, b), c in f.support.items()})
    mult = inv = coassoc = True
    for _ in range(2 * radius + 1):
        f = random_qt(n, 1, rng, radius)
        h = random_qt(n, 1, rng, radius)
        for e in (f, decompose(f).components[0]):
            fixed = all(act(g, e) == e for g in range(n))
            inv = inv and fixed == all(b % n == 0 for _, b in e.support)
        for g in range(n):
            mult = mult and act(g, qt_mul(f, h)) == qt_mul(act(g, f),
                                                          act(g, h))
            coassoc = coassoc and all(act(g + k, f) == act(g, act(k, f))
                                      for k in range(n))
    return {"n": n, "radius": radius, "action_multiplicative": mult,
            "invariance_exact": inv, "coassociative": coassoc}


def torus_galois_matrix(n):
    """The Galois map on the free A-basis: V^i (x) V^j maps to
    sum_g q^{jg} V^{i+j} (x) delta_g, with the V^n carry kept as a
    monomial coefficient.  Returns the n^2 x n^2 matrix over the monomial
    ring (entries are dicts {V^n-power: scalar}, None for zero) together
    with its exact determinant and a unit verdict.  Every column carries
    one power x^c of the carry (checked), so M = M0 diag(x^c) with M0
    scalar and det M = x^{sum c} det M0: the determinant is
    {sum c: det M0}, or {} when det M0 = 0."""
    field, _ = _params(n)
    one = qt_one(n, 1)
    dim = n * n
    # row index: k * n + g  (V^k tensor delta_g); column: i * n + j
    M = [[None] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            carry = (i + j - k) // n
            for g in range(n):
                M[k * n + g][i * n + j] = {carry: _power(one, j * g)}
    carries = 0
    for col in range(dim):
        powers = {e for row in M if row[col] for e in row[col]}
        if len(powers) != 1:
            raise ValueError("column %d mixes powers of the carry" % col)
        carries += powers.pop()
    M0 = Mat.from_cols([{r: sum(row[c].values(), field.zero)
                         for r, row in enumerate(M) if row[c]}
                        for c in range(dim)], dim, field)
    d0 = det(M0)
    dpoly = {carries: d0} if d0 else {}
    return {"matrix": M, "det": dpoly, "unit": bool(dpoly)}
