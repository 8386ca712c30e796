"""Finite-dimensional unital associative algebras by structure constants.

An FDAlgebra stores its structure constants once, sparsely: mul[i][j] is
e_i * e_j as a dict {k: c} of its nonzero coordinates.  Every element is
such a dict too (unit, basis_vec, mul_vec's factors and product; a
coordinate list given to the constructor is converted there).  Products
walk only those nonzeros and drop the entries that cancel, and a product
with a basis element (an int index in place of a vector) is read off them
without building the basis vector; convolve(F, G, lift) evaluates
mu (F (x) G) lift on coproduct lifts the same way, with no Kronecker
product, and convolution_terms gives the same convolution with an unknown
leg as linalg.solve_map terms.  All the
predicates used downstream live here: validation (the unit law, then
associativity on the basis triples that do not contain a basis unit
once the unit law holds), centers, radicals
(Dickson trace form, characteristic 0), module projectivity by the dual
basis lemma (Hom_A(M, A) from one solve_map, then one span test),
central idempotent splitting by one rule (coprime_factors finds the first
e z whose minimal polynomial has two or more coprime factors over the
candidate roots, split_central_idempotent maps them to their CRT
idempotents with the polynomial toolkit in fields), and the Wedderburn
block shape.
"""

from fractions import Fraction
from math import isqrt, lcm

from .fields import QQ, _poly_mul, _poly_divmod, _poly_ext_gcd
from .linalg import (Mat, Subspace, kernel, leg_slices, rank, solve_map,
                     vstack, NoSolution, ShapeMismatch, _add_scaled, _combine)
from .reports import ViolationReport


class NotAGroup(ValueError):
    pass


class NotSplit(Exception):
    """A minimal polynomial does not split over the candidate roots."""


class NotSemisimple(Exception):
    pass


class Inconclusive(Exception):
    pass


class FDAlgebra:
    def __init__(self, dim, mul, unit, field=QQ, name=None):
        self.dim = dim
        self.mul = mul          # mul[i][j] = {k: c}, the nonzeros of e_i e_j
        # the nonzero coordinates of 1; a coordinate list is converted here
        self.unit = unit if isinstance(unit, dict) else {
            k: c for k, c in enumerate(unit) if c}
        self.field = field
        self.name = name

    # -- element arithmetic ----------------------------------------------

    def basis_vec(self, i):
        return {i: self.field.one}

    def mul_vec(self, x, y):
        """x * y as the dict {index: value} of its nonzeros (shared with
        mul when both factors are basis indices).  Each factor is a dict of
        nonzeros or an int i standing for e_i."""
        # A basis-index factor has its own loop, with no product by one:
        # turning it into {i: one} for the general loop made the mul_vec
        # calls of a `docs` pass 15 ms instead of 10 ms.
        mul, zero, acc = self.mul, self.field.zero, {}
        # A negative index would wrap in the lists of mul, so each index
        # is checked where it is used: a check by min() on each factor
        # made the mul_vec calls of a `docs` pass about 2% slower.
        try:
            if isinstance(x, int):
                if isinstance(y, int):
                    if x < 0 or y < 0:
                        raise IndexError
                    return mul[x][y]
                if x < 0 or y and min(y) < 0:
                    raise IndexError
                return _combine(mul[x], y, zero)
            if isinstance(y, int):
                if y < 0:
                    raise IndexError
                for i, a in x.items():
                    if i < 0:
                        raise IndexError
                    for k, s in mul[i][y].items():
                        acc[k] = acc.get(k, zero) + a * s
            else:
                ys = y.items()
                for i, a in x.items():
                    if i < 0:
                        raise IndexError
                    row = mul[i]
                    for j, b in ys:
                        if j < 0:
                            raise IndexError
                        c = a * b
                        for k, s in row[j].items():
                            acc[k] = acc.get(k, zero) + c * s
        except IndexError:
            raise ShapeMismatch("factor index outside dimension %d"
                                % self.dim) from None
        return {k: v for k, v in acc.items() if v}

    def left_mult_matrix(self, x):
        """The matrix of y -> x y; x is a dict of nonzeros or a basis index
        i, whose matrix has the columns mul[i][j]."""
        zero, mul = self.field.zero, self.mul
        return Mat.from_cols(
            mul[x] if isinstance(x, int) else
            [_combine([row[j] for row in mul], x, zero)
             for j in range(self.dim)], self.dim, self.field)

    def right_mult_matrix(self, x):
        """The matrix of y -> y x; x is a dict of nonzeros or a basis
        index, whose matrix has the columns mul[j][x]."""
        zero, mul = self.field.zero, self.mul
        return Mat.from_cols(
            [row[x] for row in mul] if isinstance(x, int) else
            [_combine(row, x, zero) for row in mul], self.dim, self.field)

    def convolve(self, F, G, lift):
        """The Mat mu (F (x) G) lift, the convolution of F and G along a
        coproduct lift: a nonzero v of a lift column at k (x) l adds
        v F(e_k) G(e_l), read off the structure constants mul[i][j].  F and G are Mats into
        this algebra and lift a Mat with F.cols * G.cols rows; neither a
        Kronecker product nor a multiplication matrix is formed."""
        if F.rows != self.dim or G.rows != self.dim \
                or lift.rows != F.cols * G.cols:
            raise ShapeMismatch("cannot convolve %dx%d and %dx%d along %dx%d"
                                % (F.rows, F.cols, G.rows, G.cols, lift.rows,
                                   lift.cols))
        fcols, gcols, n = F.sparse_cols(), G.sparse_cols(), G.cols
        mul, zero, out = self.mul, self.field.zero, []
        for col in lift.sparse_cols():
            acc = {}
            for kl, v in col.items():
                k, l = divmod(kl, n)
                gl = gcols[l].items()
                for i, a in fcols[k].items():
                    va, row = v * a, mul[i]
                    for j, b in gl:
                        c = va * b
                        for r, s in row[j].items():
                            acc[r] = acc.get(r, zero) + c * s
            out.append({r: x for r, x in acc.items() if x})
        return Mat.from_cols(out, self.dim, self.field)

    def convolution_terms(self, F, lift, unknown_leg):
        """The (L, R) terms of mu (F (x) X) lift (unknown_leg 1) or of
        mu (X (x) F) lift (unknown_leg 0), linear in the unknown map X, for
        linalg.solve_map: one term per nonzero F e_k, L the multiplication
        by F e_k on the side of its leg and R the slice of lift at k."""
        fcols = F.sparse_cols()
        if unknown_leg == 1:
            mult = self.left_mult_matrix
            slices = leg_slices(lift, lift.rows // F.cols, 0)
        else:
            mult, slices = self.right_mult_matrix, leg_slices(lift, F.cols, 1)
        return [(mult(fcols[k]), P) for k, P in enumerate(slices) if fcols[k]]

    def is_commutative(self):
        return self.noncommutative_witness() is None

    def noncommutative_witness(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mul[i][j] != self.mul[j][i]:
                    return (i, j)
        return None

    def __repr__(self):
        return "FDAlgebra(dim %d%s)" % (
            self.dim, ", %s" % self.name if self.name else "")


def validate_algebra(A):
    """Check the two-sided unit law and associativity on basis triples,
    comparing the nonzeros of both sides: (e_i e_j) e_k sums the columns
    e_a e_k over the nonzeros of e_i e_j, e_i (e_j e_k) the columns e_i e_b
    over those of e_j e_k.  When the unit is a basis element e_u and the
    unit law holds, a triple containing u is skipped: by the unit law
    each of its sides is the product of the other two factors."""
    rep = ViolationReport()
    one, zero = A.field.one, A.field.zero
    right = [[row[k] for row in A.mul] for k in range(A.dim)]  # e_a e_k
    for i in range(A.dim):
        ei = {i: one}
        rep.require(_combine(right[i], A.unit, zero) == ei, "unit",
                    (i,), note="1*e_%d != e_%d" % (i, i))
        rep.require(_combine(A.mul[i], A.unit, zero) == ei, "unit",
                    (i,), note="e_%d*1 != e_%d" % (i, i))
    basis = [i for i in range(A.dim)
             if not (rep.ok and A.unit == {i: one})]
    for i in basis:
        for j in basis:
            ij = A.mul[i][j]
            for k in basis:
                rep.require(_combine(right[k], ij, zero)
                            == _combine(A.mul[i], A.mul[j][k], zero),
                            "associativity", (i, j, k))
    return rep


# ---------------------------------------------------------------------------
# constructors


def check_group_table(table):
    """Return (identity index, inverse list) or raise NotAGroup."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise NotAGroup("table is not n x n over range(n)")
    e = None
    for i in range(n):
        if all(table[i][j] == j and table[j][i] == j for j in range(n)):
            e = i
            break
    if e is None:
        raise NotAGroup("no identity element")
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == e and table[j][i] == e:
                inv[i] = j
        if inv[i] is None:
            raise NotAGroup("element %d has no inverse" % i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup("associativity fails at (%d,%d,%d)"
                                    % (i, j, k))
    return e, inv


def group_algebra(table, field=QQ, name=None):
    e, _ = check_group_table(table)
    n = len(table)
    mul = [[{table[i][j]: field.one} for j in range(n)] for i in range(n)]
    return FDAlgebra(n, mul, {e: field.one}, field, name=name or "k[G]")


def monoid_algebra(table, identity, field=QQ, name=None):
    """Like group_algebra but only requires a unital associative table."""
    n = len(table)
    mul = [[{table[i][j]: field.one} for j in range(n)] for i in range(n)]
    A = FDAlgebra(n, mul, {identity: field.one}, field, name=name or "k[M]")
    if not validate_algebra(A).ok:
        raise ValueError("table is not a unital monoid")
    return A


def matrix_algebra(n, field=QQ):
    """Full matrix algebra with basis e_{ab}, index a*n + b."""
    d = n * n
    mul = [[{} for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for e in range(n):
                mul[a * n + b][b * n + e][a * n + e] = field.one
    unit = {a * n + a: field.one for a in range(n)}
    return FDAlgebra(d, mul, unit, field, name="M_%d" % n)


def product_field_algebra(n, field=QQ):
    """k^n with coordinatewise product (functions on an n-point set)."""
    mul = [[{i: field.one} if i == j else {} for j in range(n)]
           for i in range(n)]
    unit = {i: field.one for i in range(n)}
    return FDAlgebra(n, mul, unit, field, name="k^%d" % n)


def opposite(A):
    mul = [[A.mul[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return FDAlgebra(A.dim, mul, A.unit, A.field,
                     name=(A.name or "A") + "^op")


def enveloping(A):
    """A tensor A^op, basis index i*dim + j (kron convention)."""
    return tensor_algebra(A, opposite(A), name=(A.name or "A") + "^e")


def tensor_algebra(A, B, name=None):
    d = A.dim * B.dim
    field = A.field
    mul = [[None] * d for _ in range(d)]
    for i1 in range(A.dim):
        for j1 in range(B.dim):
            r = i1 * B.dim + j1
            for i2 in range(A.dim):
                ai = A.mul[i1][i2].items()
                for j2 in range(B.dim):
                    bj = B.mul[j1][j2].items()
                    mul[r][i2 * B.dim + j2] = {k1 * B.dim + k2: a * b
                                               for k1, a in ai
                                               for k2, b in bj}
    unit = {k1 * B.dim + k2: a * b for k1, a in A.unit.items()
            for k2, b in B.unit.items()}
    return FDAlgebra(d, mul, unit, field, name=name)


def subalgebra_on_rows(A, space):
    """The subalgebra of A spanned by the canonical basis rows of the
    Subspace space, as an FDAlgebra together with the inclusion matrix.
    Coordinates are read off at the pivots; raises ValueError if the span
    is not closed under multiplication or misses the unit."""
    field = A.field
    rows = [space.rows[p] for p in space.pivots]
    m = len(rows)

    def coords(vec):
        if not space.contains(vec):
            raise ValueError("vector outside the subalgebra span")
        return space.coords(vec)

    mul = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            mul[a][b] = coords(A.mul_vec(rows[a], rows[b]))
    unit = coords(A.unit)
    sub = FDAlgebra(m, mul, unit, field, name="subalgebra")
    return sub, space.basis


def direct_product(A, B):
    d, n = A.dim + B.dim, A.dim
    mul = [row + [{} for _ in range(B.dim)] for row in A.mul]
    mul += [[{} for _ in range(n)]
            + [{n + k: c for k, c in prod.items()} for prod in row]
            for row in B.mul]
    unit = dict(A.unit)
    unit.update((n + k, c) for k, c in B.unit.items())
    return FDAlgebra(d, mul, unit, A.field)


# ---------------------------------------------------------------------------
# morphisms and modules


def check_algebra_morphism(phi, A, B, tag="morphism", law="multiplicative"):
    """phi: Mat (dim B x dim A).  Checks phi(1) = 1 and multiplicativity.
    An antimorphism A -> B is a morphism A -> opposite(B), checked with
    law="antimultiplicative", the tag its failures carry."""
    rep = ViolationReport()
    rep.require(phi.matvec(A.unit) == B.unit, tag + ":unit")
    images = [phi.col(i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = phi.matvec(A.mul[i][j])
            rhs = B.mul_vec(images[i], images[j])
            rep.require(lhs == rhs, tag + ":" + law, (i, j))
    return rep


class ModuleOverA:
    """A finite-dimensional left or right module, given by the action
    matrices of the algebra basis elements."""

    def __init__(self, algebra, dim, action, side="left"):
        self.algebra = algebra
        self.dim = dim
        self.action = action  # list of dim(A) matrices, dim x dim
        self.side = side

    def act_matrix(self, x):
        """Action matrix of an algebra element x (a dict of nonzeros)."""
        M = Mat.from_cols([{}] * self.dim, self.dim, self.algebra.field)
        for i, c in x.items():
            M = M + self.action[i].scale(c)
        return M

    def validate(self):
        rep = ViolationReport()
        A = self.algebra
        one = self.act_matrix(A.unit)
        rep.require(one == Mat.identity(self.dim, A.field), "module:unital")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = self.act_matrix(A.mul[i][j])
                if self.side == "left":
                    comp = self.action[i] * self.action[j]
                else:
                    comp = self.action[j] * self.action[i]
                rep.require(prod == comp, "module:action", (i, j))
        return rep


def regular_module(A, side="left"):
    mult = A.left_mult_matrix if side == "left" else A.right_mult_matrix
    action = [mult(i) for i in range(A.dim)]
    return ModuleOverA(A, A.dim, action, side)


def is_projective(M):
    """Decide projectivity of a finite-dimensional module by the dual basis
    lemma: M is projective iff id_M is a k-combination of the maps
    m -> f(m) . m_t, for f in Hom_A(M, A) and m_t the module's basis.
    Hom_A(M, A) is the kernel of f X_x = act_x f for every basis element
    x, where X_x is the action of x on M and act_x multiplies A by x on
    the module's side; the map of f and t is pi_t f, where pi_t is
    a -> a . m_t.  Returns the flag."""
    A = M.algebra
    field, g = A.field, M.dim
    mult = A.left_mult_matrix if M.side == "left" else A.right_mult_matrix
    blocks = [([(None, M.action[x]), (mult(x).scale(-field.one), None)], None)
              for x in range(A.dim)]
    _, homs = solve_map(blocks, A.dim, g, field, want_kernel=True)
    acts = [act.sparse_cols() for act in M.action]
    maps = [{i * g + j: v for j, col in enumerate((pi * f).sparse_cols())
             for i, v in col.items()}
            for pi in (Mat.from_cols([cols[t] for cols in acts], g, field)
                       for t in range(g))
            for f in homs]
    return Subspace.from_spanning(g * g, maps, field).contains(
        {i * g + i: field.one for i in range(g)})


# ---------------------------------------------------------------------------
# center, radical, idempotents, shape


def center(A):
    """Kernel of the stacked commutator maps x -> x e_i - e_i x."""
    return kernel(vstack([A.right_mult_matrix(i) - A.left_mult_matrix(i)
                          for i in range(A.dim)], A.dim, A.field))


def jacobson_radical(A):
    """Kernel of the regular trace form T_ij = tr(L_i L_j) (Dickson;
    valid in characteristic 0)."""
    L = [A.left_mult_matrix(i) for i in range(A.dim)]
    zero = A.field.zero

    def trace(P):
        return sum((c.get(k, zero) for k, c in enumerate(P.sparse_cols())),
                   zero)
    traces = [[trace(L[i] * L[j]) for i in range(A.dim)]
              for j in range(A.dim)]
    return kernel(Mat.from_cols([{i: t for i, t in enumerate(col) if t}
                                 for col in traces], A.dim, A.field))


def _poly_eval_alg(A, coeffs, w, e):
    """Evaluate sum coeffs[i] * w^i inside A, with e as the unit (so
    w^0=e), as the dict of its nonzeros."""
    zero, out, p = A.field.zero, {}, e
    for c in coeffs:
        if c:
            _add_scaled(out, c, p, zero)
        p = A.mul_vec(p, w)
    return out


def _candidate_roots(field, coeffs):
    """Candidate roots used by the central splitting: 0, rational roots by
    the rational root theorem when the polynomial is rational, and roots of
    unity of the ambient cyclotomic order (times rational candidates)."""
    cands = [field.zero]
    rationals = set()
    if field == QQ:
        # clear denominators, then apply the rational root theorem to the
        # integer polynomial (ignoring a trailing power of x)
        den = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        while ints and ints[0] == 0:
            ints.pop(0)
        if ints:
            a0, an = abs(ints[0]), abs(ints[-1])
            for p in _divisors(a0):
                for q in _divisors(an):
                    rationals.add(field.div(p, q))
                    rationals.add(field.div(-p, q))
        cands.extend(sorted(rationals))
    else:
        rationals.update((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3,
                          -3, Fraction(1, 3), Fraction(-1, 3)))
        N = field.order
        for r in sorted(rationals):
            for k in range(N):
                cands.append(field.zeta(k) * field.from_rational(r))
        cands.extend(field.from_rational(r) for r in sorted(rationals))
    return cands


def _divisors(n):
    """The positive divisors of n, sorted ([1] for n = 0): the pairs
    d, |n| // d for d <= isqrt(|n|)."""
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d))
    return sorted(out) or [1]


def _poly_eval(coeffs, x, field):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _split_linear(coeffs, field):
    """The linear factors of the monic polynomial over the candidate root
    set: the list of (root, multiplicity) and the monic cofactor, which
    has no candidate root and is [one] when the polynomial splits.  One
    scan of the candidates: a candidate that is not a root of the
    polynomial is not one of a factor, so a root is divided out for its
    whole multiplicity before the scan moves on."""
    work, roots = list(coeffs), []
    for lam in _candidate_roots(field, coeffs):
        m = 0
        while len(work) > 1 and not _poly_eval(work, lam, field):
            work = _poly_divmod(work, [-lam, field.one], field)[0]
            m += 1
        if m:
            roots.append((lam, m))
    return roots, work


def minimal_polynomial(A, w, e, max_deg):
    """Monic minimal polynomial of w acting in the unital commutative
    algebra with unit e, by the first linear dependence among e, w, w^2..."""
    field = A.field
    powers = [e]
    for d in range(1, max_deg + 2):
        powers.append(A.mul_vec(powers[-1], w))
        # look for dependence: sum c_i powers[i] = powers[d]
        P = Mat.from_cols(powers[:-1], A.dim, field)
        target = Mat.from_cols(powers[-1:], A.dim, field)
        try:
            sol = solve_map([([(P, None)], target)], d, 1, field).col(0)
        except NoSolution:
            continue
        return [-sol.get(i, field.zero) for i in range(d)] + [field.one]
    raise RuntimeError("no minimal polynomial found (not an algebra element?)")


def coprime_factors(A, zs, e):
    """The coprime factors that split the central idempotent e, from the
    central elements zs (a spanning list of the center, as dicts or basis
    indices): (w, its minimal polynomial, factors) for the first w = e z
    whose minimal polynomial has two or more factors over the candidate
    roots, a power of (x - lam) for each root lam and the cofactor with no
    candidate root when it is not constant.  Returns None when e is
    primitive; raises NotSplit when no e z has two factors and some
    minimal polynomial does not split."""
    field = A.field
    ws = [A.mul_vec(e, z) for z in zs]
    if rank(Mat.from_cols(ws, A.dim, field)) == 1:
        return None    # e Z = k e: every e z is a scalar on e
    unsplit = []
    for w in ws:
        coeffs = minimal_polynomial(A, w, e, A.dim)
        roots, rest = _split_linear(coeffs, field)
        factors = []
        for lam, m in roots:
            power = [field.one]
            for _ in range(m):
                power = _poly_mul(power, [-lam, field.one], field)
            factors.append(power)
        if len(rest) > 1:
            factors.append(rest)
            unsplit.append(coeffs)
        if len(factors) >= 2:
            return w, coeffs, factors
    if unsplit:
        raise NotSplit("minimal polynomial does not split: %s" % (unsplit[0],))
    return None


def split_central_idempotent(A, zs, e):
    """One split of the central idempotent e by the central elements zs:
    the CRT idempotents of the coprime factors that coprime_factors finds,
    orthogonal, central and summing to e, or [] when e is primitive.
    Raises NotSplit as coprime_factors does, so the order of zs decides
    which e z splits e, but not whether one does."""
    found = coprime_factors(A, zs, e)
    if found is None:
        return []
    w, coeffs, factors = found
    field, pieces = A.field, []
    for f in factors:
        # q = coeffs / f times the inverse of q modulo f, from extended
        # Euclid, is 1 modulo f and 0 modulo every other factor
        q = _poly_divmod(coeffs, f, field)[0]
        g, inv, _ = _poly_ext_gcd(q, f, field)
        proj = _poly_mul(q, [field.div(c, g[0]) for c in inv], field)
        pieces.append(_poly_eval_alg(A, proj, w, e))
    return pieces


def central_idempotents_split(A):
    """Complete list of primitive orthogonal central idempotents, by
    repeated split_central_idempotent from the unit, when all needed
    minimal polynomials split; raises NotSplit otherwise."""
    Z = center(A)
    zs = [Z.rows[p] for p in Z.pivots]
    # a component that splits is replaced by its pieces at the end of the
    # queue; one that no central element splits is final, so none is
    # examined twice
    pending, components = [A.unit], []
    while pending:
        e = pending.pop(0)
        new = split_central_idempotent(A, zs, e)
        if new:
            pending.extend(new)
        else:
            components.append(e)
    return components


def wedderburn_shape(A):
    """Multiset (sorted tuple) of matrix block sizes of a semisimple A.
    Exact when the center splits; raises NotSemisimple or Inconclusive."""
    if jacobson_radical(A).dim != 0:
        raise NotSemisimple()
    Z = center(A)
    if Z.dim == 1:
        n = _isqrt_exact(A.dim)
        if n is None:
            raise Inconclusive("central simple block of non-square dim")
        return (n,)
    try:
        idems = central_idempotents_split(A)
    except NotSplit as exc:
        raise Inconclusive(str(exc))
    shape = []
    for e in idems:
        Re = A.right_mult_matrix(e)
        block_dim = rank(Re)
        n = _isqrt_exact(block_dim)
        if n is None:
            raise Inconclusive("block of non-square dim %d" % block_dim)
        shape.append(n)
    return tuple(sorted(shape))


def _isqrt_exact(d):
    n = isqrt(d)
    return n if n * n == d else None
