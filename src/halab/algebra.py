"""Finite-dimensional unital associative algebras by structure constants.

An FDAlgebra stores its structure constants once, sparsely: mul[i][j] is
e_i * e_j as a dict {k: c} of its nonzero coordinates.  Products walk only
those nonzeros, and a product with a basis element (an int index in place
of a vector) is read off them without building the basis vector;
convolve(F, G, lift) evaluates mu (F (x) G) lift on coproduct lifts the
same way, with no Kronecker product.  All the predicates used downstream
live here: validation, centers, radicals
(Dickson trace form, characteristic 0), module projectivity via an affine
splitting solve, central idempotent splitting over split fields, and the
Wedderburn block shape.
"""

from fractions import Fraction
from math import isqrt, lcm

from .fields import QQ, parse_field, field_to_json
from .linalg import (Mat, kernel, rank, solve_affine_sparse, vstack,
                     NoSolution, ShapeMismatch, _combine)
from .reports import ViolationReport


class NotAGroup(ValueError):
    pass


class NotSplit(Exception):
    pass


class NotSemisimple(Exception):
    pass


class Inconclusive(Exception):
    pass


def nonzeros(vec):
    """A coordinate list as a dict {index: value} of its nonzeros; a dict
    of nonzeros is returned as it is."""
    if isinstance(vec, dict):
        return vec
    return {k: c for k, c in enumerate(vec) if c}


class FDAlgebra:
    def __init__(self, dim, mul, unit, field=QQ, name=None):
        self.dim = dim
        self.mul = mul          # mul[i][j] = {k: c}, the nonzeros of e_i e_j
        self.unit = list(unit)  # coordinates of 1
        self.field = field
        self.name = name

    # -- element arithmetic ----------------------------------------------

    def zero_vec(self):
        return [self.field.zero] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one
        return v

    def mul_vec(self, x, y):
        """x * y as a coordinate list.  Each factor is a coordinate list, a
        dict {index: value} of nonzeros, or an int i standing for e_i."""
        # A basis-index factor has its own loop, with no scan of a list and
        # no product by one: turning it into {i: one} for the general loop
        # made the mul_vec calls of a `docs` pass 15 ms instead of 10 ms.
        mul, out = self.mul, [self.field.zero] * self.dim
        if isinstance(x, int):
            row = mul[x]
            if isinstance(y, int):
                for k, s in row[y].items():
                    out[k] = s
                return out
            for j, b in y.items() if isinstance(y, dict) else enumerate(y):
                if b:
                    for k, s in row[j].items():
                        out[k] = out[k] + b * s
            return out
        if isinstance(y, int):
            for i, a in x.items() if isinstance(x, dict) else enumerate(x):
                if a:
                    for k, s in mul[i][y].items():
                        out[k] = out[k] + a * s
            return out
        ys = nonzeros(y).items()
        for i, a in x.items() if isinstance(x, dict) else enumerate(x):
            if a:
                row = mul[i]
                for j, b in ys:
                    c = a * b
                    for k, s in row[j].items():
                        out[k] = out[k] + c * s
        return out

    def left_mult_matrix(self, x):
        """The matrix of y -> x y; x is a vector or a basis index i, whose
        matrix has the columns mul[i][j]."""
        return Mat.from_cols(
            self.mul[x] if isinstance(x, int) else
            [self.mul_vec(x, j) for j in range(self.dim)], self.dim,
            self.field)

    def right_mult_matrix(self, x):
        """The matrix of y -> y x; x is a vector or a basis index."""
        return Mat.from_cols(
            [row[x] for row in self.mul] if isinstance(x, int) else
            [self.mul_vec(j, x) for j in range(self.dim)], self.dim,
            self.field)

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
            out.append(acc)
        return Mat.from_cols(out, self.dim, self.field)

    def is_commutative(self):
        return self.noncommutative_witness() is None

    def noncommutative_witness(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mul[i][j] != self.mul[j][i]:
                    return (i, j)
        return None

    # -- serialization ----------------------------------------------------

    def to_json(self):
        triples = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in sorted(self.mul[i][j].items()):
                    triples.append({"i": i, "j": j, "k": k,
                                    "c": self.field.format(c)})
        return {"field": field_to_json(self.field),
                "dim": self.dim,
                "unit": [self.field.format(c) for c in self.unit],
                "mul": triples}

    @classmethod
    def from_json(cls, doc):
        field = parse_field(doc["field"])
        dim = int(doc["dim"])
        if dim < 0:
            raise ValueError("'dim' is %d, must be >= 0" % dim)
        mul = [[{} for _ in range(dim)] for _ in range(dim)]
        for t in doc["mul"]:
            i, j, k = int(t["i"]), int(t["j"]), int(t["k"])
            if not all(0 <= x < dim for x in (i, j, k)):
                raise ValueError("'mul' entry %r outside dim %d" % (t, dim))
            c = field.parse(t["c"])
            if c:
                mul[i][j][k] = c
            else:
                mul[i][j].pop(k, None)
        unit = [field.parse(c) for c in doc["unit"]]
        if len(unit) != dim:
            raise ValueError("'unit' has %d entries for dim %d"
                             % (len(unit), dim))
        return cls(dim, mul, unit, field)

    def __repr__(self):
        return "FDAlgebra(dim %d%s)" % (
            self.dim, ", %s" % self.name if self.name else "")


def validate_algebra(A):
    """Check associativity on all basis triples and the two-sided unit law,
    comparing the nonzeros of both sides: (e_i e_j) e_k sums the columns
    e_a e_k over the nonzeros of e_i e_j, e_i (e_j e_k) the columns e_i e_b
    over those of e_j e_k."""
    rep = ViolationReport()
    zero = A.field.zero

    def equal(lhs, rhs):
        # entries that cancel stay in _combine's dicts, as zeros
        return lhs == rhs or ({r: x for r, x in lhs.items() if x}
                              == {r: x for r, x in rhs.items() if x})
    right = [[row[k] for row in A.mul] for k in range(A.dim)]  # e_a e_k
    for i in range(A.dim):
        ei = {i: A.field.one}
        rep.require(equal(_combine(right[i], A.unit, zero), ei), "unit",
                    (i,), note="1*e_%d != e_%d" % (i, i))
        rep.require(equal(_combine(A.mul[i], A.unit, zero), ei), "unit",
                    (i,), note="e_%d*1 != e_%d" % (i, i))
    for i in range(A.dim):
        for j in range(A.dim):
            ij = A.mul[i][j]
            for k in range(A.dim):
                rep.require(equal(_combine(right[k], ij, zero),
                                  _combine(A.mul[i], A.mul[j][k], zero)),
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
    unit = [field.zero] * n
    unit[e] = field.one
    return FDAlgebra(n, mul, unit, field, name=name or "k[G]")


def monoid_algebra(table, identity, field=QQ, name=None):
    """Like group_algebra but only requires a unital associative table."""
    n = len(table)
    mul = [[{table[i][j]: field.one} for j in range(n)] for i in range(n)]
    unit = [field.zero] * n
    unit[identity] = field.one
    A = FDAlgebra(n, mul, unit, field, name=name or "k[M]")
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
    unit = [field.zero] * d
    for a in range(n):
        unit[a * n + a] = field.one
    return FDAlgebra(d, mul, unit, field, name="M_%d" % n)


def product_field_algebra(n, field=QQ):
    """k^n with coordinatewise product (functions on an n-point set)."""
    mul = [[{i: field.one} if i == j else {} for j in range(n)]
           for i in range(n)]
    unit = [field.one] * n
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
    unit = [field.zero] * d
    for k1, a in enumerate(A.unit):
        if a:
            for k2, b in enumerate(B.unit):
                if b:
                    unit[k1 * B.dim + k2] = a * b
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
            prod = A.mul_vec(rows[a], rows[b])
            mul[a][b] = nonzeros(coords(prod))
    unit = coords(A.unit)
    sub = FDAlgebra(m, mul, unit, field, name="subalgebra")
    return sub, space.basis


def direct_product(A, B):
    d, n = A.dim + B.dim, A.dim
    mul = [row + [{} for _ in range(B.dim)] for row in A.mul]
    mul += [[{} for _ in range(n)]
            + [{n + k: c for k, c in prod.items()} for prod in row]
            for row in B.mul]
    unit = list(A.unit) + list(B.unit)
    return FDAlgebra(d, mul, unit, A.field)


# ---------------------------------------------------------------------------
# morphisms and modules


def check_algebra_morphism(phi, A, B, tag="morphism"):
    """phi: Mat (dim B x dim A).  Checks phi(1) = 1 and multiplicativity."""
    rep = ViolationReport()
    rep.require(phi.matvec(A.unit) == B.unit, tag + ":unit")
    images = [phi.col(i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = phi.matvec(A.mul[i][j])
            rhs = B.mul_vec(images[i], images[j])
            rep.require(lhs == rhs, tag + ":multiplicative", (i, j))
    return rep


def check_algebra_antimorphism(phi, A, B, tag="antimorphism"):
    rep = ViolationReport()
    rep.require(phi.matvec(A.unit) == B.unit, tag + ":unit")
    images = [phi.col(i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = phi.matvec(A.mul[i][j])
            rhs = B.mul_vec(images[j], images[i])
            rep.require(lhs == rhs, tag + ":antimultiplicative", (i, j))
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
        """Action matrix of an algebra element x (a coordinate list or a
        dict of nonzeros)."""
        M = Mat.from_cols([{}] * self.dim, self.dim, self.algebra.field)
        for i, c in nonzeros(x).items():
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
    """Decide projectivity of a finite-dimensional module by solving for a
    module-map section of the free cover A^g -> M built on the module's
    basis as generators.  Returns (flag, section columns or None)."""
    A = M.algebra
    field = A.field
    g = M.dim
    nA = A.dim
    free_dim = g * nA      # A^g, coordinates (slot, algebra basis)
    # pi: A^g -> M,  (slot t, a) -> a . m_t  (or m_t . a on the right);
    # its rows as dicts
    pi_rows = [{} for _ in range(M.dim)]
    for t in range(g):
        for a in range(nA):
            for i, v in M.action[a].sparse_cols()[t].items():
                pi_rows[i][t * nA + a] = v
    # unknown sigma: M -> A^g, entries s[(t*nA+a), m]; constraints:
    #   pi . sigma = id_M
    #   sigma(x . m) = x . sigma(m) for algebra basis x
    nunk = free_dim * M.dim

    def unk(r, c):
        return r * M.dim + c

    rows = []
    rhs = []
    for i in range(M.dim):
        for m in range(M.dim):
            rows.append({unk(r, m): v for r, v in pi_rows[i].items()})
            rhs.append(field.one if i == m else field.zero)
    # module-map condition per algebra basis element x:
    # for each target slot t, algebra coordinate b, source m:
    #   sum_m' sigma[(t,b), m'] X[m', m]  = sum_a sigma[(t,a), m] * (x-action
    #   on A in coordinate b), where on A^g the action is componentwise
    #   left mult (left modules) or right mult by x (right modules).
    for xi in range(nA):
        X = M.action[xi].sparse_cols()
        actA = A.left_mult_matrix(xi) if M.side == "left" \
            else A.right_mult_matrix(xi)
        actA_rows = [{} for _ in range(nA)]
        for a, col in enumerate(actA.sparse_cols()):
            for b, v in col.items():
                actA_rows[b][a] = v
        for t in range(g):
            for b in range(nA):
                for m in range(M.dim):
                    row = {}
                    for mp, v in X[m].items():
                        key = unk(t * nA + b, mp)
                        row[key] = row.get(key, field.zero) + v
                    for a, v in actA_rows[b].items():
                        key = unk(t * nA + a, m)
                        row[key] = row.get(key, field.zero) - v
                    row = {k: v for k, v in row.items() if v}
                    if row:
                        rows.append(row)
                        rhs.append(field.zero)
    try:
        x, _ = solve_affine_sparse(rows, rhs, nunk, field)
    except NoSolution:
        return False, None
    return True, Mat.from_cols([x[c::M.dim] for c in range(M.dim)],
                               free_dim, field)


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
    return kernel(Mat.from_cols([[trace(L[i] * L[j]) for i in range(A.dim)]
                                 for j in range(A.dim)], A.dim, A.field))


def _poly_eval_alg(A, coeffs, w, e):
    """Evaluate sum coeffs[i] * w^i inside A, with e as the unit (so w^0=e)."""
    out = A.zero_vec()
    p = list(e)
    for c in coeffs:
        if c:
            for k in range(A.dim):
                if p[k]:
                    out[k] = out[k] + c * p[k]
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
    out = [d for d in range(1, abs(n) + 1) if n % d == 0]
    return out or [1]


def _poly_eval(coeffs, x, field):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _split_linear(coeffs, field):
    """Factor the monic polynomial into linear factors over the candidate
    root set.  Returns list of (root, multiplicity) or None if it does not
    split over the candidates."""
    work = list(coeffs)
    roots = []
    cands = _candidate_roots(field, coeffs)
    while len(work) > 1:
        found = None
        for lam in cands:
            if not _poly_eval(work, lam, field):
                found = lam
                break
        if found is None:
            return None
        # synthetic division of work by (x - lam)
        n = len(work) - 1
        q = [field.zero] * n
        q[n - 1] = work[n]
        for i in range(n - 2, -1, -1):
            q[i] = work[i + 1] + found * q[i + 1]
        work = q
        for r, m in roots:
            if r == found:
                roots.remove((r, m))
                roots.append((found, m + 1))
                break
        else:
            roots.append((found, 1))
    return roots


def minimal_polynomial(A, w, e, max_deg):
    """Monic minimal polynomial of w acting in the unital commutative
    algebra with unit e, by the first linear dependence among e, w, w^2..."""
    field = A.field
    powers = [list(e)]
    for d in range(1, max_deg + 2):
        powers.append(A.mul_vec(powers[-1], w))
        # look for dependence: sum c_i powers[i] = 0 with c_d = 1
        try:
            sol, _ = solve_affine_sparse(
                [{j: p[i] for j, p in enumerate(powers[:-1]) if p[i]}
                 for i in range(A.dim)],
                powers[-1], d, field)
        except NoSolution:
            continue
        coeffs = [-c for c in sol] + [field.one]
        return coeffs
    raise RuntimeError("no minimal polynomial found (not an algebra element?)")


def central_idempotents_split(A):
    """Complete list of primitive orthogonal central idempotents, when all
    needed minimal polynomials split into linear factors over the candidate
    roots; raises NotSplit otherwise."""
    field = A.field
    Z = center(A)
    components = [list(A.unit)]
    changed = True
    while changed:
        changed = False
        for e in list(components):
            for p in Z.pivots:
                w = A.mul_vec(e, Z.rows[p])
                coeffs = minimal_polynomial(A, w, e, A.dim)
                if len(coeffs) <= 2:
                    continue  # scalar action on this component
                roots = _split_linear(coeffs, field)
                if roots is None:
                    raise NotSplit("minimal polynomial does not split: %s"
                                   % (coeffs,))
                if len(roots) < 2:
                    continue
                # CRT idempotents for each distinct root
                new = []
                for lam, m in roots:
                    # q = prod over other roots of (x-mu)^mult
                    qpoly = [field.one]
                    for mu, mm in roots:
                        if mu == lam:
                            continue
                        for _ in range(mm):
                            qpoly = _poly_shift_mul(qpoly, mu, field)
                    # need inverse of q modulo (x-lam)^m: for m == 1 it is
                    # the scalar 1/q(lam); larger m via power series of
                    # 1/q around lam, truncated at degree m-1.
                    inv = _inverse_mod_power(qpoly, lam, m, field)
                    proj = _poly_mul_generic(qpoly, inv, field)
                    val = _poly_eval_alg(A, proj, w, e)
                    if any(val):
                        new.append(val)
                if len(new) >= 2:
                    components.remove(e)
                    components.extend(new)
                    changed = True
                    break
            if changed:
                break
    return components


def _poly_shift_mul(p, mu, field):
    """p(x) * (x - mu)."""
    out = [field.zero] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] - mu * c
    return out


def _poly_mul_generic(a, b, field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _inverse_mod_power(q, lam, m, field):
    """Inverse of q(x) modulo (x - lam)^m, as a polynomial in x.
    Computed via the Taylor expansion of 1/q at lam."""
    # shift: Q(u) = q(lam + u); invert as a power series in u to order m-1;
    # then substitute u = x - lam.
    Q = _poly_taylor_shift(q, lam, field)
    inv = [field.zero] * m
    inv[0] = field.div(field.one, Q[0])
    for k in range(1, m):
        acc = field.zero
        for i in range(1, k + 1):
            if i < len(Q) and Q[i]:
                acc = acc + Q[i] * inv[k - i]
        inv[k] = field.div(-acc, Q[0])
    # substitute back u = x - lam
    out = [field.zero]
    upow = [field.one]
    for k in range(m):
        if inv[k]:
            term = [inv[k] * c for c in upow]
            out = _poly_add(out, term, field)
        upow = _poly_shift_mul(upow, lam, field)
    return out


def _poly_taylor_shift(p, lam, field):
    """Coefficients of p(lam + u) as a polynomial in u."""
    out = [field.zero] * len(p)
    # Horner: p(lam + u) built by repeated synthetic division
    work = list(p)
    for k in range(len(p)):
        # remainder of division by (u) after shifting = p^(k)(lam)/k!
        acc = field.zero
        for c in reversed(work):
            acc = acc * lam + c
        out[k] = acc
        # divide work by (x - lam): quotient
        n = len(work) - 1
        if n == 0:
            break
        q = [field.zero] * n
        q[n - 1] = work[n]
        for i in range(n - 2, -1, -1):
            q[i] = work[i + 1] + lam * q[i + 1]
        work = q
    return out


def _poly_add(a, b, field):
    out = [field.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return out


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
    if A.is_commutative():
        return (1,) * A.dim
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
