"""Exact quantum-torus arithmetic at a root of unity, the convolution-
pointwise product through the diagonal operator L and the operator
matrices Omega_k, the explicit fiber-matrix presentation over the torus,
and the Z/n coaction with its Galois matrix.

Elements are finite-support Laurent polynomials in unitaries U, V with
U V = q V U, written in normal order (U powers to the left); the carry
rule V^b U^c = q^{-bc} U^c V^b follows from the defining relation.
"""

import cmath
import random

from .fields import QQ, CyclotomicField
from .linalg import Mat


class ParameterMismatch(ValueError):
    pass


class NotInA(ValueError):
    pass


class SizeLimit(ValueError):
    pass


def _field_for(N):
    if N <= 2:
        return QQ
    return CyclotomicField(N)


def _root(N):
    """A primitive N-th root of unity in the field of Q(zeta_N)."""
    field = _field_for(N)
    if N == 1:
        return field.one
    if N == 2:
        return -field.one
    return field.zeta(1)


class QTElement:
    """Sum of c_{ab} U^a V^b with q = zeta_{nm}; support maps (a, b) to a
    scalar of the matching exact field."""

    def __init__(self, n, m, support=None):
        self.n = n
        self.m = m
        self.field = _field_for(n * m)
        self.q = _root(n * m)
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

    def __sub__(self, other):
        self._check(other)
        out = dict(self.support)
        for key, c in other.support.items():
            out[key] = out.get(key, self.field.zero) - c
        return QTElement(self.n, self.m, out)

    def scale(self, c):
        return QTElement(self.n, self.m,
                         {k: c * v for k, v in self.support.items()})

    def __eq__(self, other):
        if not isinstance(other, QTElement):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) \
            and self.support == other.support

    def is_zero(self):
        return not self.support

    def to_json(self):
        return {"n": self.n, "m": self.m,
                "terms": [[a, b, repr(c)]
                          for (a, b), c in sorted(self.support.items())]}

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

def _mat_mul(A, B):
    m = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


def _mat_pow(A, p):
    m = len(A)
    R = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    for _ in range(p):
        R = _mat_mul(R, A)
    return R


def _max_dev(A, B):
    return max(abs(A[i][j] - B[i][j])
               for i in range(len(A)) for j in range(len(A)))


def _dev_unitary(A):
    m = len(A)
    Ah = [[A[j][i].conjugate() for j in range(m)] for i in range(m)]
    I = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    return _max_dev(_mat_mul(A, Ah), I)


def fiber_matrices(n, m, x, y):
    """The explicit diagonal U and shift V over the point (x, y) of the
    torus, for theta = n/m.  Four V-variants are evaluated: the matrix as
    printed (one shift entry exp(2*pi*i(n+y)/m), the rest exp(2*pi*iy/m))
    and the uniform clock shift, each with the shift running above or
    below the diagonal.  Each variant carries its deviation report
    (unitarity, the commutation relation U V = e^{2*pi*i*theta} V U, and
    the m-th powers e^{2*pi*ix} I and e^{2*pi*iy} I)."""
    if m <= 0:
        raise ParameterMismatch("m must be positive")
    tau = 2j * cmath.pi
    U = [[cmath.exp(tau * (k * n + x) / m) if k == j else 0.0
          for j in range(m)] for k in range(m)]
    theta_phase = cmath.exp(tau * n / m)
    variants = {}
    for printed in (True, False):
        for orientation in ("super", "sub"):
            V = [[0.0 + 0j] * m for _ in range(m)]
            entries = []
            for k in range(m):
                val = cmath.exp(tau * y / m)
                entries.append(val)
            if printed and m > 1:
                entries[0] = cmath.exp(tau * (n + y) / m)
            for k in range(m):
                if orientation == "super":
                    V[k][(k + 1) % m] = entries[k]
                else:
                    V[(k + 1) % m][k] = entries[k]
            UV = _mat_mul(U, V)
            VU = _mat_mul(V, U)
            qVU = [[theta_phase * VU[i][j] for j in range(m)]
                   for i in range(m)]
            xI = [[cmath.exp(tau * x) if i == j else 0.0 for j in range(m)]
                  for i in range(m)]
            yI = [[cmath.exp(tau * y) if i == j else 0.0 for j in range(m)]
                  for i in range(m)]
            name = "%s-%s" % ("printed" if printed else "uniform",
                              orientation)
            variants[name] = {
                "V": V,
                "unitary_U": _dev_unitary(U),
                "unitary_V": _dev_unitary(V),
                "commutation": _max_dev(UV, qVU),
                "U_power": _max_dev(_mat_pow(U, m), xI),
                "V_power": _max_dev(_mat_pow(V, m), yI),
            }
    return {"n": n, "m": m, "x": x, "y": y, "U": U, "variants": variants}


def best_fiber_variant(report):
    """The variant with the smallest worst deviation."""
    def worst(v):
        return max(v["unitary_U"], v["unitary_V"], v["commutation"],
                   v["U_power"], v["V_power"])
    name = min(report["variants"], key=lambda k: worst(report["variants"][k]))
    return name, worst(report["variants"][name])


# ---------------------------------------------------------------------------
# the Z/n coaction

def torus_coaction_check(n, radius, seed=0):
    """On all monomials U^a V^b with |a|, |b| <= radius: the generator
    action g.U = U, g.V = qV extends multiplicatively (consistent with
    qt_mul), a monomial is invariant iff its V-exponent is divisible by n,
    and the dual coaction is coassociative on the truncation."""
    if radius < n:
        raise ParameterMismatch("radius below n")
    out = {"n": n, "radius": radius, "action_multiplicative": True,
           "invariance_exact": True, "coassociative": True}
    field = _field_for(n)
    q = _root(n)

    def act_phase(b, g):
        # g^j . (U^a V^b) = q^{jb} U^a V^b
        return _power(qt_one(n, 1), (g * b) % n)
    rng = random.Random(seed)
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            inv = all(act_phase(b, g) == field.one for g in range(n))
            if inv != (b % n == 0):
                out["invariance_exact"] = False
            # multiplicativity against a random second monomial
            c = rng.randint(-radius, radius)
            e = rng.randint(-radius, radius)
            for g in range(n):
                lhs = act_phase(b + e, g)
                rhs = act_phase(b, g) * act_phase(e, g)
                if lhs != rhs:
                    out["action_multiplicative"] = False
            # coassociativity of the dual coaction: the phase map
            # b -> (q^{gb})_g is a character in g
            for g in range(n):
                for h in range(n):
                    if act_phase(b, g + h) != act_phase(b, g) * act_phase(b, h):
                        out["coassociative"] = False
    return out


def torus_galois_matrix(n):
    """The Galois map on the free A-basis: V^i (x) V^j maps to
    sum_g q^{jg} V^{i+j} (x) delta_g, with the V^n carry kept as a
    monomial coefficient.  Returns the n^2 x n^2 matrix over the monomial
    ring (entries are dicts {V^n-power: scalar}) together with its exact
    determinant and a unit verdict."""
    if n > 4:
        raise SizeLimit("exact determinant expansion limited to n <= 4")
    field = _field_for(n)
    q = _root(n)
    dim = n * n

    def qpow(k):
        return _power(qt_one(n, 1), k % n)
    # row index: k * n + g  (V^k tensor delta_g); column: i * n + j
    M = [[None] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            k = (i + j) % n
            carry = (i + j - k) // n
            for g in range(n):
                M[k * n + g][col] = {carry: qpow(j * g)}
    det = _poly_det(M, field)
    unit = len(det) == 1 and all(bool(c) for c in det.values())
    return {"matrix": M, "det": det, "unit": unit}


def _det_scalar(A, field):
    """Determinant over the field by Gaussian elimination."""
    d = len(A)
    A = [row[:] for row in A]
    det = field.one
    for c in range(d):
        piv = next((r for r in range(c, d) if A[r][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det = det * A[c][c]
        for r in range(c + 1, d):
            if A[r][c]:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def _poly_det(M, field):
    """Exact determinant of a matrix of {exponent: scalar} entries (None
    meaning zero), by evaluation at enough integer points followed by
    Lagrange interpolation back to coefficients."""
    d = len(M)
    deg = sum(max((max(e) for e in row if e), default=0) for row in M)
    xs = [field.from_int(k) for k in range(deg + 1)]
    ys = []
    for x in xs:
        powers = [field.one]
        for _ in range(deg):
            powers.append(powers[-1] * x)
        A = [[sum((c * powers[k] for k, c in (e or {}).items()),
                  field.zero) for e in row] for row in M]
        ys.append(_det_scalar(A, field))
    coeffs = [field.zero] * (deg + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if not yi:
            continue
        num = [field.one]
        denom = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = ([-xj * num[0]]
                   + [num[k - 1] - xj * num[k] for k in range(1, len(num))]
                   + [num[-1]])
            denom = denom * (xi - xj)
        scale = yi / denom
        for k, c in enumerate(num):
            if c:
                coeffs[k] = coeffs[k] + c * scale
    return {k: c for k, c in enumerate(coeffs) if c}
