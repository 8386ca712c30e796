"""Exact quantum-torus arithmetic at a root of unity, the convolution-
pointwise product through the diagonal operator L and the operator
matrices Omega_k, the fiber-matrix presentation over rational points of
the torus with its relations decided exactly, and the Z/n coaction with
the determinant of its Galois matrix.

Elements are finite-support Laurent polynomials in unitaries U, V with
U V = q V U, written in normal order (U powers to the left); the carry
rule V^b U^c = q^{-bc} U^c V^b follows from the defining relation.  An
element decomposes as the list [a_0, ..., a_{n-1}] of its Z/n
components, f = sum a_i V^i with each a_i in A = span{U^x V^{ny}}; the
list is what decompose returns and chi_product and recompose take.
Every scalar lives in Q or Q(zeta_N); no verdict here passes through
floating point.

The battery decides its identities on residues, not on samples.  Both
sides of each identity are bilinear, so monomials suffice, and the
product of two monomials is one monomial times a phase q^P, with P an
integer polynomial in the exponents: -b c in qt_mul, -(v + i) y in
chi_product (v + i = b, f's V-exponent, and y = c, g's U-exponent), g b
in the coaction.  Every phase is therefore periodic mod N = n m in b and
in c; f's U-exponent enters no phase, and g's V-exponent e matters only
mod n (it picks the component, and the V^n carry shifts an exponent by n
with no phase).  So oracle_mismatches takes f = sum_{b<N} U^(bN) V^b and
g = sum_{c<N, e<n} U^c V^e: the pair (b, c, e) lands on U^(bN+c) V^(b+e),
from which b, c and e can be read back, so no two pairs share a monomial,
nothing cancels, and one comparison of the two products decides all
N^2 n pairs.  torus_coaction_check decides its three laws in the same
way over residues mod n.  The fiber relations are decided exactly at a
fixed set of rational points (the battery takes the 5 x 5 grid of
quarters in [0, 1]^2), not for every point of the torus.
"""

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
    """The exact field of Q(zeta_N) (Q for N <= 2) and the tuple of its N
    roots of unity zeta_N^k, k < N, resolved once per N."""
    if N <= 2:
        return QQ, (1, -1)[:N]
    field = CyclotomicField(N)
    return field, tuple(field.zeta(k) for k in range(N))


class QTElement:
    """Sum of c_{ab} U^a V^b with q = zeta_{nm}; support maps (a, b) to a
    nonzero scalar of the matching exact field.  No constructor or product
    ever stores a zero: a product term is nonzero, so only sums are tested."""

    def __init__(self, n, m, support=None):
        self.n = n
        self.m = m
        self.field = _params(n * m)[0]
        self.support = {k: c for k, c in support.items() if c} \
            if support else {}

    @property
    def q(self):
        """q = zeta_{nm}, the root of unity of the commutation relation."""
        roots = _params(self.n * self.m)[1]
        return roots[1 % len(roots)]

    def _empty(self):
        """The zero element at self's n, m and field, not looked up."""
        out = QTElement.__new__(QTElement)
        out.n, out.m, out.field, out.support = self.n, self.m, self.field, {}
        return out

    def _check(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ParameterMismatch("elements live at different parameters")

    def __add__(self, other):
        self._check(other)
        out = self._empty()
        support = out.support = dict(self.support)
        for key, c in other.support.items():
            old = support.get(key)
            val = c if old is None else old + c
            if val:
                support[key] = val
            elif old is not None:
                del support[key]
        return out

    def scale(self, c):
        # a product of nonzero field elements is nonzero: nothing to filter
        out = self._empty()
        if c:
            out.support = {k: c * v for k, v in self.support.items()}
        return out

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
    c = coeff if coeff is not None else _params(n * m)[0].one
    return QTElement(n, m, {(a, b): c})


def qt_one(n, m):
    return qt_monomial(n, m, 0, 0)


def qt_mul(f, g):
    """Exact product in normal order: (U^a V^b)(U^c V^e) =
    q^{-bc} U^{a+c} V^{b+e}; a fresh key's term goes in untested."""
    f._check(g)
    out = f._empty()
    support = out.support
    get = support.get
    N = f.n * f.m
    times = f.field.times
    terms = list(g.support.items())
    for (a, b), cf in f.support.items():
        p = -b % N                    # times reduces p * c; 0 at N = 1
        for (c, e), cg in terms:
            term = times(cf, cg, p * c)
            key = (a + c, b + e)
            old = get(key)
            if old is None:
                support[key] = term
            elif val := old + term:
                support[key] = val
            else:
                del support[key]
    return out


def decompose(f, n=None):
    """Split f into sum a_i V^i with a_i in A = span{U^x V^{ny}}, as the
    list [a_0, ..., a_{n-1}]."""
    n = n if n is not None else f.n
    comps = [f._empty() for _ in range(n)]
    for (a, b), c in f.support.items():
        i = b % n
        comps[i].support[(a, b - i)] = c
    return comps


def recompose(d):
    """Sum a_i V^i over the list d = [a_0, ..., a_{n-1}] in one pass:
    U^x V^b V^i = U^x V^{b+i} carries no phase, so each term of a_i is
    added in place at (x, b + i)."""
    if not d:
        raise ParameterMismatch("empty decomposition")
    base = d[0]
    out = base._empty()
    support = out.support
    get = support.get
    for i, a in enumerate(d):
        base._check(a)
        for (x, b), c in a.support.items():
            key = (x, b + i)
            old = get(key)
            if old is None:
                support[key] = c
            elif val := old + c:
                support[key] = val
            else:
                del support[key]
    return out


def L_operator(a, i=1):
    """L^i on A: multiplies the coefficient of U^x V^{ny} by q^{-xi}."""
    n = a.n
    out = a._empty()
    N = a.n * a.m
    roots = _params(N)[1]
    for (x, b), c in a.support.items():
        if b % n != 0:
            raise NotInA("V-exponent %d not divisible by %d" % (b, n))
        k = (-x * i) % N
        out.support[(x, b)] = c * roots[k] if k else c
    return out


def chi_product(d1, d2):
    """The product of the decompositions d1 = [a_i] and d2 = [b_j], lists
    of one length n >= 1: component k is sum_i a_i L^i(b_{k-i}), with the
    V^n carry multiplied into the coefficient whenever the V-exponents
    wrap.  In normal order
    U^x V^b L^i(c U^y V^e) = q^{-(b+i)y} c U^{x+y} V^{b+e}
    and the carry V^n shifts e by n with no phase, so each term pair is
    added in place at its key of one component's support, as in qt_mul."""
    n = len(d1)
    if len(d2) != n:
        raise ParameterMismatch("decompositions at different n")
    if not n:
        raise ParameterMismatch("empty decomposition")
    base = d1[0]
    for a in (*d1, *d2):
        base._check(a)
    seconds = []                      # (j, terms of b_j), b_j nonzero
    for j, b in enumerate(d2):
        for _, e in b.support:        # L^i is defined on A alone
            if e % base.n:
                raise NotInA("V-exponent %d not divisible by %d"
                             % (e, base.n))
        if b.support:
            seconds.append((j, list(b.support.items())))
    N = base.n * base.m
    times = base.field.times
    comps = [base._empty() for _ in range(n)]
    for i, a in enumerate(d1):
        if not a.support:
            continue
        for j, terms in seconds:
            support = comps[(i + j) % n].support
            get = support.get
            carry = n if i + j >= n else 0
            for (x, v), c1 in a.support.items():
                p = -(v + i) % N      # as in qt_mul
                for (y, e), c2 in terms:
                    term = times(c1, c2, p * y)
                    key = (x + y, v + e + carry)
                    old = get(key)
                    if old is None:
                        support[key] = term
                    elif val := old + term:
                        support[key] = val
                    else:
                        del support[key]
    return comps


def oracle_mismatches(n, m):
    """The number of monomials on which recompose(chi_product(...)) and
    qt_mul differ for f = sum_{b<N} U^(bN) V^b and g = sum_{c<N, e<n}
    U^c V^e, N = n m: each of the N^2 n pairs lands on its own monomial,
    so 0 decides the product oracle for every pair of elements (see the
    module docstring)."""
    N = n * m
    one = _params(N)[0].one
    f = QTElement(n, m, {(b * N, b): one for b in range(N)})
    g = QTElement(n, m, {(c, e): one for c in range(N) for e in range(n)})
    lhs = recompose(chi_product(decompose(f), decompose(g))).support
    rhs = qt_mul(f, g).support
    return sum(lhs.get(key) != rhs.get(key) for key in lhs.keys() | rhs)


def omega_matrix(n, k):
    """The group table of Z/n with entries equal to k replaced by the
    power of L carried by their row, all other entries zero.  Entry (i, j)
    is the integer i when i + j = k mod n, else None."""
    if not 0 <= k < n:
        raise ParameterMismatch("component index out of range")
    return [[i if (i + j) % n == k else None for j in range(n)]
            for i in range(n)]


def random_qt(n, m, rng, radius=6, terms=4):
    """The sum of terms seeded terms c U^a V^b with |a|, |b| <= radius,
    drawn as a, b, then c = field.random(rng); a key drawn again adds to
    its coefficient."""
    el = QTElement(n, m)
    support, sample = el.support, el.field.random
    span = range(-radius, radius + 1)
    for _ in range(terms):
        key = (rng.choice(span), rng.choice(span))
        c = sample(rng)
        if c:
            old = support.get(key)
            val = c if old is None else old + c
            if val:
                support[key] = val
            else:
                del support[key]
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
    field, roots = _params(N)
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

def torus_coaction_check(n):
    """The Z/n action g.(U^a V^b) = q^{gb} U^a V^b with q = zeta_n, decided
    on residues mod n (see the module docstring): it is multiplicative
    through qt_mul, g.(fh) = (g.f)(g.h), on f = sum_{b<n} U^(bn) V^b and
    h = sum_{c<n, e<n} U^c V^e, whose pairs land on distinct monomials; a
    monomial is fixed by every g iff its V-exponent is divisible by n; and
    (g+k).f = g.(k.f) for all g, k < n, so the dual coaction is
    coassociative."""
    field, roots = _params(n)

    def act(g, f):
        return QTElement(n, 1, {(a, b): c * roots[g * b % n]
                                for (a, b), c in f.support.items()})

    def fixed(e):
        return all(act(g, e) == e for g in range(n))
    f = QTElement(n, 1, {(b * n, b): field.one for b in range(n)})
    h = QTElement(n, 1, {(c, e): field.one for c in range(n)
                         for e in range(n)})
    fh = qt_mul(f, h)
    mult = all(act(g, fh) == qt_mul(act(g, f), act(g, h)) for g in range(n))
    inv = all(fixed(qt_monomial(n, 1, a, b)) == (b % n == 0)
              for a, b in h.support)
    coassoc = all(act(g + k, f) == act(g, act(k, f))
                  for g in range(n) for k in range(n))
    return {"n": n, "action_multiplicative": mult, "invariance_exact": inv,
            "coassociative": coassoc}


def torus_galois_matrix(n):
    """The Galois map on the free A-basis: V^i (x) V^j maps to
    sum_g q^{jg} V^{i+j} (x) delta_g.  Column (i, j) carries the V^n power
    x^c, c = floor((i + j) / n), so M = M0 diag(x^c) with M0 scalar, built
    here in one pass, and det M = x^{n(n-1)/2} det M0, since n(n-1)/2
    pairs (i, j) have i + j >= n.  Returns the determinant {n(n-1)/2:
    det M0} ({} when det M0 = 0) and a unit verdict."""
    field, roots = _params(n)
    # row index: k * n + g  (V^k tensor delta_g); column: i * n + j
    M0 = Mat.from_cols([{(i + j) % n * n + g: roots[j * g % n]
                         for g in range(n)}
                        for i in range(n) for j in range(n)], n * n, field)
    d0 = det(M0)
    dpoly = {n * (n - 1) // 2: d0} if d0 else {}
    return {"det": dpoly, "unit": bool(dpoly)}
