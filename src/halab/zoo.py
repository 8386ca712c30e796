"""Instance constructors: finite groupoids and their two algebras, weak
Hopf algebras, smash products over noncommutative bases, coupled pairs from
characters, twisted group algebras, classical covering instances from free
group actions, and the automorphisms of Theorem 1.

Every constructor returns data that the checkers in hopfalgebroid / galois
accept verbatim; the test suite runs the full axiom suites on all of them.
Each structure has one writer: labelled_groupoid writes every groupoid
table, algebra.table_algebra every table algebra, and the smash product is
multiplied in enveloping(A); structure maps are checked by
algebra.check_algebra_morphism.
Products of coproduct lifts take the two paths of linalg: kron_cols for
(A (x) B) M and FDAlgebra.convolve for mu (F (x) G) Delta; no Kronecker
product is formed here (linalg.kron stays for tests and the benchmark
harness).
"""

import itertools

from .fields import QQ, CyclotomicField
from .linalg import Mat, kron_cols, inverse, solve_map, NoSolution, image
from .algebra import (FDAlgebra, check_group_table, product_field_algebra,
                      table_algebra, tensor_algebra, enveloping,
                      check_algebra_morphism, opposite,
                      central_idempotents_split, NotSplit, subalgebra_on_rows)
from .bimod import pair_mul
from .hopfalgebroid import BialgebroidData, HopfAlgebroidData
from .galois import ComoduleAlgebraData
from .reports import ViolationReport


class InvalidGroupoid(ValueError):
    pass


class NotAnAction(ValueError):
    pass


class NotFree(ValueError):
    pass


class NotACharacter(ValueError):
    pass


class NotCommutative(ValueError):
    pass


class WeakAxiomViolation(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("weak Hopf axioms fail: %s" % ", ".join(report.tags()))


# ---------------------------------------------------------------------------
# group tables

def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def trivial_table():
    return [[0]]


def direct_product_table(t1, t2):
    n1, n2 = len(t1), len(t2)

    def idx(a, b):
        return a * n2 + b
    out = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a in range(n1):
        for b in range(n2):
            for c in range(n1):
                for d in range(n2):
                    out[idx(a, b)][idx(c, d)] = idx(t1[a][c], t2[b][d])
    return out


def klein_table():
    return direct_product_table(cyclic_table(2), cyclic_table(2))


def s3_table():
    """Symmetric group on {0,1,2}; elements are the 6 permutation tuples in
    lexicographic order, product = composition (right factor first)."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            row.append(index[comp])
        table.append(row)
    return table


def and_monoid_table():
    """The two-element multiplicative monoid {0, 1}; 1 is the identity, 0 is
    absorbing.  Not a group: 0 has no inverse."""
    return [[0, 0], [0, 1]]


# ---------------------------------------------------------------------------
# groupoids

class FiniteGroupoid:
    """Objects, morphisms with src/tgt, a partial composition table, units
    and inverses.  compose[(f, g)] = f o g, defined iff src(f) == tgt(g)
    (g is applied first)."""

    def __init__(self, objects, src, tgt, compose, units, inv):
        self.objects = list(objects)
        self.src = list(src)
        self.tgt = list(tgt)
        self.compose = dict(compose)
        self.units = list(units)
        self.inv = list(inv)

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.src)

    def validate(self):
        n = self.n_morphisms
        m = self.n_objects
        if len(self.tgt) != n or len(self.inv) != n or len(self.units) != m:
            raise InvalidGroupoid("inconsistent sizes")
        for f in range(n):
            if not (0 <= self.src[f] < m and 0 <= self.tgt[f] < m):
                raise InvalidGroupoid("src/tgt out of range")
        for x in range(m):
            u = self.units[x]
            if self.src[u] != x or self.tgt[u] != x:
                raise InvalidGroupoid("unit of object %r has wrong ends" % x)
        for f in range(n):
            for g in range(n):
                defined = (f, g) in self.compose
                composable = self.src[f] == self.tgt[g]
                if defined != composable:
                    raise InvalidGroupoid(
                        "composition domain wrong at (%d, %d)" % (f, g))
                if defined:
                    h = self.compose[(f, g)]
                    if self.src[h] != self.src[g] or self.tgt[h] != self.tgt[f]:
                        raise InvalidGroupoid(
                            "composite has wrong ends at (%d, %d)" % (f, g))
        for x in range(m):
            u = self.units[x]
            for f in range(n):
                if self.tgt[f] == x and self.compose[(u, f)] != f:
                    raise InvalidGroupoid("left unit law fails at %d" % f)
                if self.src[f] == x and self.compose[(f, u)] != f:
                    raise InvalidGroupoid("right unit law fails at %d" % f)
        for f in range(n):
            for g in range(n):
                if (f, g) not in self.compose:
                    continue
                for h in range(n):
                    if (g, h) not in self.compose:
                        continue
                    if self.compose[(self.compose[(f, g)], h)] != \
                            self.compose[(f, self.compose[(g, h)])]:
                        raise InvalidGroupoid(
                            "associativity fails at (%d,%d,%d)" % (f, g, h))
        for f in range(n):
            fi = self.inv[f]
            if self.src[fi] != self.tgt[f] or self.tgt[fi] != self.src[f]:
                raise InvalidGroupoid("inverse of %d has wrong ends" % f)
            if self.compose[(f, fi)] != self.units[self.tgt[f]]:
                raise InvalidGroupoid("f o inv(f) is not a unit at %d" % f)
            if self.compose[(fi, f)] != self.units[self.src[f]]:
                raise InvalidGroupoid("inv(f) o f is not a unit at %d" % f)
        return True


def group_groupoid(table):
    """One-object groupoid with morphisms a group: the action groupoid of
    the group on one point."""
    return action_groupoid(table, [[0]] * len(table))


def discrete_groupoid(n):
    """n objects and their units alone: the action groupoid of the trivial
    group on n points."""
    return action_groupoid(trivial_table(), [list(range(n))])


def labelled_groupoid(n_objects, arrows, ends, compose, unit, inverse):
    """The groupoid on the objects 0 .. n_objects - 1 whose morphism i is
    the label arrows[i]: ends(a) is the pair (source, target) of the label
    a, compose(a, b) the label of a o b where src(a) == tgt(b), unit(x) the
    label of the unit at x and inverse(a) the label of the inverse of a.
    The one writer of FiniteGroupoid tables; compose is filled for f in
    index order, then g."""
    index = {a: i for i, a in enumerate(arrows)}
    src, tgt = [], []
    into = [[] for _ in range(n_objects)]   # the morphisms into each object
    for g, a in enumerate(arrows):
        x, y = ends(a)
        src.append(x)
        tgt.append(y)
        into[y].append(g)
    table = {(f, g): index[compose(a, arrows[g])]
             for f, a in enumerate(arrows) for g in into[src[f]]}
    return FiniteGroupoid(range(n_objects), src, tgt, table,
                          [index[unit(x)] for x in range(n_objects)],
                          [index[inverse(a)] for a in arrows])


def indiscrete_groupoid(n):
    """Exactly one morphism x -> y for every pair; morphism (x, y) has
    index y * n + x (source x, target y)."""
    return labelled_groupoid(
        n, [(x, y) for y in range(n) for x in range(n)], lambda a: a,
        lambda a, b: (b[0], a[1]), lambda x: (x, x), lambda a: a[::-1])


def action_groupoid(table, act):
    """Objects = points, morphism (g, x): x -> g.x with index g * |X| + x,
    composition (g, h.x) o (h, x) = (gh, x)."""
    GSet(table, act).validate()
    e, inv_g = check_group_table(table)
    points = range(len(act[0]))
    return labelled_groupoid(
        len(points), [(g, x) for g in range(len(table)) for x in points],
        lambda a: (a[1], act[a[0]][a[1]]),
        lambda a, b: (table[a[0]][b[0]], b[1]), lambda x: (e, x),
        lambda a: (inv_g[a[0]], act[a[0]][a[1]]))


def deck_groupoid(gset):
    """Finite shadow of the deck-transformation groupoid of a free action:
    objects = orbits, morphisms (o, g) all endomorphisms, composing through
    the group law.  Morphism (o, g) has index o * |G| + g."""
    gset.validate()
    if not gset.is_free():
        raise NotFree("action is not free")
    table = gset.table
    e, inv_g = check_group_table(table)
    m = len(gset.orbits())
    return labelled_groupoid(
        m, [(o, g) for o in range(m) for g in range(len(table))],
        lambda a: (a[0], a[0]), lambda a, b: (a[0], table[a[1]][b[1]]),
        lambda o: (o, e), lambda a: (a[0], inv_g[a[1]]))


# ---------------------------------------------------------------------------
# G-sets

class GSet:
    """A finite group acting on a finite set; act[g][y] = g.y."""

    def __init__(self, table, act):
        self.table = table
        self.act = act

    @property
    def n_points(self):
        return len(self.act[0]) if self.act else 0

    def validate(self):
        e, _ = check_group_table(self.table)
        n = len(self.table)
        npts = self.n_points
        if len(self.act) != n:
            raise NotAnAction("one permutation per group element required")
        for g in range(n):
            if sorted(self.act[g]) != list(range(npts)):
                raise NotAnAction("element %d does not act bijectively" % g)
        if self.act[e] != list(range(npts)):
            raise NotAnAction("identity does not act as identity")
        for g in range(n):
            for h in range(n):
                for y in range(npts):
                    if self.act[g][self.act[h][y]] != \
                            self.act[self.table[g][h]][y]:
                        raise NotAnAction(
                            "action fails at (%d, %d, %d)" % (g, h, y))
        return True

    def is_free(self):
        e, _ = check_group_table(self.table)
        for g in range(len(self.table)):
            if g == e:
                continue
            if any(self.act[g][y] == y for y in range(self.n_points)):
                return False
        return True

    def orbits(self):
        seen = set()
        out = []
        for y in range(self.n_points):
            if y in seen:
                continue
            orb = sorted({self.act[g][y] for g in range(len(self.table))})
            seen.update(orb)
            out.append(orb)
        return out

    def orbit_index(self):
        orbs = self.orbits()
        where = [0] * self.n_points
        for i, orb in enumerate(orbs):
            for y in orb:
                where[y] = i
        return where


def regular_gset(table):
    return GSet(table, [list(row) for row in table])


def disjoint_union_gset(gset, copies):
    """The same action repeated on several disjoint copies of the set."""
    npts = gset.n_points
    act = []
    for g in range(len(gset.table)):
        row = []
        for c in range(copies):
            row.extend(c * npts + y for y in gset.act[g])
        act.append(row)
    return GSet(gset.table, act)


# ---------------------------------------------------------------------------
# assembling a Hopf algebroid from a right bialgebroid plus antipode

def _swap_matrix(d, field):
    return Mat.from_cols([{j * d + i: field.one} for i in range(d)
                          for j in range(d)], d * d, field)


def assemble_hopf_algebroid(rightb, S, left_coproduct_lift=None, name=None):
    """Complete a right bialgebroid with antipode S into full Hopf
    algebroid data.  The left base is the opposite of the right base, the
    left source is t_R and the left target is s_R (their images swap under
    S).  The left coproduct defaults to the S-conjugate of the right one,
    and the left counit is solved from mu (id x S) Delta_R = s_L eps_L."""
    H = rightb.total
    field = H.field
    d = H.dim
    L = opposite(rightb.base)
    sL = rightb.t
    tL = rightb.s
    if left_coproduct_lift is None:
        Sinv = inverse(S)
        left_coproduct_lift = _swap_matrix(d, field) * Mat.from_cols(
            kron_cols(Sinv, Sinv, rightb.coproduct_lift * S), d * d, field)
    P = H.convolve(Mat.identity(d, field), S, rightb.coproduct_lift)
    try:
        epsL = solve_map([([(sL, None)], P)], rightb.base.dim, d, field)
    except NoSolution:
        raise ValueError("mu (id x S) Delta does not land in the image "
                         "of the would-be left source; no left counit")
    leftb = BialgebroidData(H, L, "left", sL, tL, left_coproduct_lift, epsL,
                            name=None if name is None else name + ":left")
    return HopfAlgebroidData(leftb, rightb, S, name=name)


# ---------------------------------------------------------------------------
# the two algebras of a groupoid

def groupoid_algebra(G, field=QQ):
    """Span of the morphisms with composition-or-zero product; a Hopf
    algebroid over functions on the objects.  The grouplike coproduct
    f -> f (x) f, counit dual to the source, antipode = inversion."""
    G.validate()
    d = G.n_morphisms
    m = G.n_objects
    H = table_algebra(d, G.compose, G.units, field, "groupoid algebra")
    base = product_field_algebra(m, field)
    one = field.one
    iota = Mat.from_cols([{G.units[x]: one} for x in range(m)], d, field)
    dR = _grouplike_coproduct(d, field)
    epsR = Mat.from_cols([{G.src[f]: one} for f in range(d)], m, field)
    S = Mat.from_cols([{G.inv[f]: one} for f in range(d)], d, field)
    rightb = BialgebroidData(H, base, "right", iota, iota, dR, epsR)
    return assemble_hopf_algebroid(rightb, S, name="groupoid algebra")


def function_algebroid(G, field=QQ):
    """Functions on the morphisms with pointwise product; the coproduct is
    dual to composition, the counit dual to the units, the antipode dual to
    inversion.  Commutative, with coinciding one-sided structures up to the
    source/target swap."""
    G.validate()
    d = G.n_morphisms
    m = G.n_objects
    H = product_field_algebra(d, field)
    H.name = "functions on morphisms"
    base = product_field_algebra(m, field)
    one = field.one
    sR = Mat.from_cols([{f: one for f in range(d) if G.src[f] == x}
                        for x in range(m)], d, field)
    tR = Mat.from_cols([{f: one for f in range(d) if G.tgt[f] == x}
                        for x in range(m)], d, field)
    dcols = [{} for _ in range(d)]
    for (g, h), f in G.compose.items():
        dcols[f][g * d + h] = one
    dR = Mat.from_cols(dcols, d * d, field)
    epsR = Mat.from_cols([{x: one for x in range(m) if G.units[x] == f}
                          for f in range(d)], m, field)
    S = Mat.from_cols([{G.inv[f]: one} for f in range(d)], d, field)
    rightb = BialgebroidData(H, base, "right", sR, tR, dR, epsR)
    return assemble_hopf_algebroid(rightb, S, name="function algebroid")


def group_hopf_algebra(table, field=QQ):
    """kG as a Hopf algebroid over k (one-object groupoid algebra)."""
    return groupoid_algebra(group_groupoid(table), field)


def monoid_bialgebra(table, identity, field=QQ):
    """The grouplike bialgebra of a finite monoid, as a one-sided
    bialgebroid over k.  Not Hopf unless the monoid is a group."""
    n = len(table)
    products = {(i, j): h for i, row in enumerate(table)
                for j, h in enumerate(row)}
    H = table_algebra(n, products, (identity,), field, "monoid algebra")
    base = product_field_algebra(1, field)
    eta = Mat.from_cols([H.unit], n, field)
    return BialgebroidData(H, base, "right", eta, eta,
                           _grouplike_coproduct(n, field),
                           _row([field.one] * n, field))


def _grouplike_coproduct(d, field):
    """The lift of e_f -> e_f (x) e_f."""
    return Mat.from_cols([{f * d + f: field.one} for f in range(d)], d * d,
                         field)


def _nonzero(vec):
    """The dict vec without its zero values (entries that cancelled)."""
    return {k: x for k, x in vec.items() if x}


def _row(vec, field):
    """The 1 x len(vec) matrix with the entries of the list vec."""
    return Mat.from_cols([{0: x} if x else {} for x in vec], 1, field)


# ---------------------------------------------------------------------------
# reconstruction

def _characters(A):
    """Characters of a commutative split algebra as (idempotent, row) pairs,
    ordered by the leading coordinate of the idempotent."""
    if not A.is_commutative():
        raise NotCommutative("characters need a commutative algebra")
    idems = central_idempotents_split(A)
    field = A.field
    out = []
    for q in idems:
        pivot = min(q)
        chi = []
        for i in range(A.dim):
            v = A.mul_vec(i, q)
            c = field.div(v.get(pivot, field.zero), q[pivot])
            if v != ({k: c * x for k, x in q.items()} if c else {}):
                raise NotSplit("a central idempotent does not define a "
                               "character")
            chi.append(c)
        out.append((q, chi))
    out.sort(key=lambda pair: min(pair[0]))
    return out


def reconstruct_groupoid(Hd):
    """Rebuild a finite groupoid from a commutative split Hopf algebroid:
    objects are characters of the base, morphisms characters of the total
    algebra, ends by composing with s/t, composition dual to the coproduct,
    inversion dual to the antipode."""
    R = Hd.rightb
    H = R.total
    field = H.field
    obj_chars = _characters(R.base)
    mor_chars = _characters(H)
    m, d = len(obj_chars), len(mor_chars)
    obj_rows = [_row(chi, field) for _, chi in obj_chars]
    mor_rows = [_row(chi, field) for _, chi in mor_chars]

    def find_object(row):
        for x in range(m):
            if row == obj_rows[x]:
                return x
        raise NotSplit("a character of the total algebra does not restrict "
                       "to a character of the base")

    def find_morphism(row):
        for f in range(d):
            if row == mor_rows[f]:
                return f
        return None

    src = [find_object(mor_rows[f] * R.s) for f in range(d)]
    tgt = [find_object(mor_rows[f] * R.t) for f in range(d)]
    compose = {}
    for f in range(d):
        for g in range(d):
            w = Mat.from_cols(kron_cols(mor_rows[f], mor_rows[g],
                                        R.coproduct_lift), 1, field)
            if w.is_zero():
                continue
            h = find_morphism(w)
            if h is None:
                raise NotSplit("composition character is not a point")
            compose[(f, g)] = h
    units = [find_morphism(obj_rows[x] * R.counit) for x in range(m)]
    if any(u is None for u in units):
        raise NotSplit("a unit character is not a point")
    inv = [find_morphism(mor_rows[f] * Hd.antipode) for f in range(d)]
    if any(i is None for i in inv):
        raise NotSplit("an inverse character is not a point")
    G = FiniteGroupoid(list(range(m)), src, tgt, compose, units, inv)
    G.validate()
    return G


# ---------------------------------------------------------------------------
# coupled pairs from characters

def coupled_from_character(Hd, sigma):
    """From a Hopf algebra (base k) and a character sigma, build the
    twisted partner structure and the coupling map:
        Delta_2(h) = h_(1) (x) sigma(S(h_(2))) h_(3),
        eps_2 = sigma,
        coupling(h) = sigma(h_(1)) S(h_(2)).
    Returns (H1, H2, coupling); HopfAlgebroidData(H1, H2, coupling) is the
    assembled algebroid."""
    R = Hd.rightb
    H = R.total
    if R.base.dim != 1:
        raise ValueError("needs a Hopf algebra over k")
    field = H.field
    d = H.dim
    sig = _row(sigma, field)
    base = product_field_algebra(1, field)
    rep = check_algebra_morphism(sig, H, base)
    if not rep.ok:
        at = rep.entries[0]["indices"]       # None for the unit
        raise NotACharacter("sigma(1) != 1" if at is None else
                            "sigma is not multiplicative at (%d, %d)" % at)
    S = Hd.antipode
    dR = R.coproduct_lift
    I = Mat.identity(d, field)
    # (I x sig S x I)(Delta x I) Delta, as ((I x sig S) Delta x I) Delta
    first = Mat.from_cols(kron_cols(I, sig * S, dR), d, field)
    d2lift = Mat.from_cols(kron_cols(first, I, dR), d * d, field)
    coupling = Mat.from_cols(kron_cols(sig, S, dR), d, field)
    eta = Mat.from_cols([H.unit], d, field)
    H1 = BialgebroidData(H, base, "left", eta, eta, dR, R.counit,
                         name="coupled pair, first structure")
    H2 = BialgebroidData(H, base, "right", eta, eta, d2lift, sig,
                         name="coupled pair, twisted structure")
    return H1, H2, coupling


# ---------------------------------------------------------------------------
# weak Hopf algebras

class WeakHopfData:
    def __init__(self, algebra, coproduct, counit, antipode, name=None):
        self.algebra = algebra          # FDAlgebra, dim d
        self.coproduct = coproduct      # Mat d^2 x d
        self.counit = counit            # Mat 1 x d
        self.antipode = antipode        # Mat d x d
        self.name = name
        self._eps_products = None

    def eps_products(self):
        """The d x d table eps(e_a e_b), read off the structure constants
        (built once)."""
        if self._eps_products is None:
            H = self.algebra
            zero = H.field.zero
            eps = [col.get(0, zero) for col in self.counit.sparse_cols()]
            self._eps_products = [
                [sum((c * eps[k] for k, c in prod.items()), zero)
                 for prod in row] for row in H.mul]
        return self._eps_products


def check_weak_hopf(W):
    """Axioms of a weak Hopf algebra: multiplicative coassociative weakly
    unital coproduct, counital weakly multiplicative counit, and the three
    antipode identities."""
    rep = ViolationReport()
    H = W.algebra
    d = H.dim
    field = H.field
    D = W.coproduct
    eps = W.counit
    S = W.antipode
    I = Mat.identity(d, field)
    # (i) multiplicative
    for i in range(d):
        Di = D.col(i)
        for j in range(d):
            lhs = D.matvec(H.mul[i][j])
            rhs = pair_mul(H, H, Di, D.col(j))
            rep.require(lhs == rhs, "weak:coproduct-multiplicative", (i, j))
    # (i) coassociative
    rep.require(kron_cols(D, I, D) == kron_cols(I, D, D),
                "weak:coassociative")
    # (i) weak unitality, products in (H (x) H) (x) H over the nonzeros of
    # Delta(1) and of 1, keyed (a * d + b) * d + c
    w = D.matvec(H.unit)
    units = H.unit.items()
    w_1 = {}    # Delta(1) (x) 1
    one_w = {}  # 1 (x) Delta(1)
    for ij, c in w.items():
        i, j = divmod(ij, d)
        for k, u in units:
            w_1[ij * d + k] = c * u
            one_w[(k * d + i) * d + j] = u * c
    D2unit = kron_cols(D, I, [w])[0]
    HH = tensor_algebra(H, H)
    rep.require(pair_mul(HH, H, w_1, one_w) == D2unit,
                "weak:unitality", note="(D(1) x 1)(1 x D(1)) != D2(1)")
    rep.require(pair_mul(HH, H, one_w, w_1) == D2unit,
                "weak:unitality", note="(1 x D(1))(D(1) x 1) != D2(1)")
    # (iii) counital
    rep.require(kron_cols(eps, I, D) == I.sparse_cols(), "weak:counital",
                note="left")
    rep.require(kron_cols(I, eps, D) == I.sparse_cols(), "weak:counital",
                note="right")
    # (iii) weak multiplicativity, read off the table E of eps(e_a e_b)
    E = W.eps_products()
    for x in range(d):
        for y in range(d):
            Dy = D.sparse_cols()[y].items()
            for z in range(d):
                mid = sum((c * E[k][z] for k, c in H.mul[x][y].items()),
                          field.zero)
                lhs = rhs = field.zero
                for ij, c in Dy:
                    i, j = divmod(ij, d)
                    lhs = lhs + c * E[x][i] * E[j][z]
                    rhs = rhs + c * E[x][j] * E[i][z]
                rep.require(lhs == mid, "weak:counit-multiplicative",
                            (x, y, z, 1))
                rep.require(rhs == mid, "weak:counit-multiplicative",
                            (x, y, z, 2))
    # (v) the antipode; S(h1) h2 S(h3) is read off (Delta x id) Delta
    pL, pR = weak_projections(W)
    sh = H.convolve(S, I, D)        # S(h1) h2
    cols = zip(H.convolve(sh, S, D).sparse_cols(), S.sparse_cols(),
               H.convolve(I, S, D).sparse_cols(), pL.sparse_cols(),
               sh.sparse_cols(), pR.sparse_cols())
    for h, (smid, s_h, hs, pl_h, sh_h, pr_h) in enumerate(cols):
        rep.require(smid == s_h, "weak:antipode", (h, 1),
                    note="S(h1) h2 S(h3) != S(h)")
        rep.require(hs == pl_h, "weak:antipode", (h, 2),
                    note="h1 S(h2) != pL(h)")
        rep.require(sh_h == pr_h, "weak:antipode", (h, 3),
                    note="S(h1) h2 != pR(h)")
    return rep


def weak_projections(W):
    """The idempotents pL(h) = eps(1_(1) h) 1_(2) and
    pR(h) = 1_(1) eps(h 1_(2))."""
    H = W.algebra
    d, zero, E = H.dim, H.field.zero, W.eps_products()
    pL = [{} for _ in range(d)]
    pR = [{} for _ in range(d)]
    for ij, c in W.coproduct.matvec(H.unit).items():
        i, j = divmod(ij, d)
        for h in range(d):
            pL[h][j] = pL[h].get(j, zero) + c * E[i][h]
            pR[h][i] = pR[h].get(i, zero) + c * E[h][j]
    return tuple(Mat.from_cols([_nonzero(col) for col in p], d, H.field)
                 for p in (pL, pR))


def weak_hopf_to_algebroid(W):
    """Base algebras from the canonical idempotents, source = inclusion,
    target t(r) = eps(r 1_(1)) 1_(2), counit = pR, coproduct = the weak
    coproduct projected to the base tensor square; the left structure uses
    the same coproduct lift over the opposite base."""
    rep = check_weak_hopf(W)
    if not rep.ok:
        raise WeakAxiomViolation(rep)
    H = W.algebra
    field = H.field
    d = H.dim
    pL, pR = weak_projections(W)
    Rspace = image(pR)
    Rbase, incl = subalgebra_on_rows(H, Rspace)
    m = Rbase.dim
    # t(r) = eps(r 1_(1)) 1_(2), read off the table of eps(e_a e_b)
    E = W.eps_products()
    tcols = [{} for _ in range(m)]
    for ij, c in W.coproduct.matvec(H.unit).items():
        i, j = divmod(ij, d)
        for r, rv in enumerate(incl.sparse_cols()):
            cr = sum((x * E[k][i] for k, x in rv.items()), field.zero)
            tcols[r][j] = tcols[r].get(j, field.zero) + c * cr
    tR = Mat.from_cols([_nonzero(col) for col in tcols], d, field)
    # eps_R = pR in base coordinates
    epsR = Mat.from_cols([Rspace.coords(pR.col(h)) for h in range(d)],
                         m, field)
    rightb = BialgebroidData(H, Rbase, "right", incl, tR, W.coproduct, epsR)
    return assemble_hopf_algebroid(rightb, W.antipode,
                                   left_coproduct_lift=W.coproduct,
                                   name="weak Hopf conversion")


def groupoid_weak_hopf(G, field=QQ):
    """The groupoid algebra as a weak Hopf algebra: Delta(f) = f (x) f,
    eps(f) = 1, S(f) = inverse."""
    G.validate()
    Hd = groupoid_algebra(G, field)
    H = Hd.total
    d = H.dim
    return WeakHopfData(H, _grouplike_coproduct(d, field),
                        _row([field.one] * d, field), Hd.antipode,
                        name="groupoid weak Hopf")


# ---------------------------------------------------------------------------
# smash products over a noncommutative base

def smash_algebroid(A, table, action):
    """The enveloping algebra of A smashed with a group acting by algebra
    automorphisms: carrier A (x) A^op (x) kG, product
    ((a x a')#g)((b x b')#h) = (a x a') alpha_g(b x b') # gh.
    Right bialgebroid over A with s(a) = (a x 1)#e, t(a) = (1 x a)#e,
    eps((a x a')#g) = aa', Delta((a x a')#g) = (1 x a')#g (x) (a x 1)#g and
    antipode (a x a')#g -> alpha_{g^{-1}}(a' x a)#g^{-1}."""
    e, inv_g = check_group_table(table)
    n = len(table)
    a = A.dim
    field = A.field
    if len(action) != n:
        raise NotAnAction("one automorphism per group element required")
    for g, M in enumerate(action):
        if M.rows != a or M.cols != a:
            raise NotAnAction("automorphism %d has wrong shape" % g)
        tags = check_algebra_morphism(M, A, A).tags()
        if "morphism:unit" in tags:
            raise NotAnAction("element %d does not fix the unit" % g)
        if tags:
            raise NotAnAction("element %d is not multiplicative" % g)
    if action[e] != Mat.identity(a, field):
        raise NotAnAction("identity must act as the identity")
    for g in range(n):
        for h in range(n):
            if action[g] * action[h] != action[table[g][h]]:
                raise NotAnAction("action is not a homomorphism at "
                                  "(%d, %d)" % (g, h))

    # the carrier is A^e (x) kG: (a_i (x) a_j) # g has index r * n + g for
    # r = i * a + j, the index of a_i (x) a_j in A^e
    E = enveloping(A)
    d = E.dim * n

    def idx(i, j, g):
        return (i * a + j) * n + g

    # alpha_g (x) alpha_g on A^e, as its columns
    alphas = [kron_cols(M, M, Mat.identity(E.dim, field)) for M in action]
    # (x # g)(y # h) = x alpha_g(y) # gh
    mul = [[None] * d for _ in range(d)]
    for r in range(E.dim):
        for g, alpha in enumerate(alphas):
            row = mul[r * n + g]
            for c, y in enumerate(alpha):
                xy = E.mul_vec(r, y).items()
                for h, gh in enumerate(table[g]):
                    row[c * n + h] = {p * n + gh: x for p, x in xy}
    H = FDAlgebra(d, mul, {p * n + e: x for p, x in E.unit.items()}, field,
                  name="smash product")

    sR = Mat.from_cols([{idx(r, j, e): u for j, u in A.unit.items()}
                        for r in range(a)], d, field)
    tR = Mat.from_cols([{idx(j, r, e): u for j, u in A.unit.items()}
                        for r in range(a)], d, field)
    # counit (a x a')#g -> alpha_{g^{-1}}(a a'); untwisted for trivial actions
    epsR = Mat.from_cols([action[inv_g[g]].matvec(A.mul[i][j])
                          for i in range(a) for j in range(a)
                          for g in range(n)], a, field)
    units = list(A.unit.items())
    dR = Mat.from_cols([{idx(p, j, g) * d + idx(i, q, g): u * v
                         for p, u in units for q, v in units}
                        for i in range(a) for j in range(a)
                        for g in range(n)], d * d, field)
    S = Mat.from_cols([{p * n + inv_g[g]: x for p, x
                        in alphas[inv_g[g]][j * a + i].items()}
                       for i in range(a) for j in range(a) for g in range(n)],
                      d, field)
    rightb = BialgebroidData(H, A, "right", sR, tR, dR, epsR)
    return assemble_hopf_algebroid(rightb, S, name="smash algebroid")


# ---------------------------------------------------------------------------
# twisted group algebras

def twisted_group_algebra(n, t, field=None):
    """The group Z/n x Z/n with product twisted by the bicharacter
    alpha((a,b),(c,d)) = zeta_n^(t b c).  For t coprime to n this is a
    matrix algebra; at t = 0 it is the plain group algebra."""
    if field is None:
        field = QQ if n <= 2 else CyclotomicField(n)
    if n <= 2:
        def scal(m):
            return field.one if m % n == 0 or n == 1 else -field.one
    else:
        if not isinstance(field, CyclotomicField) or field.order % n:
            raise ValueError("field must contain an n-th root of unity")
        step = field.order // n

        def scal(m):
            return field.zeta(step * (m % n))
    d = n * n

    def idx(aa, bb):
        return (aa % n) * n + (bb % n)
    mul = [[None] * d for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    mul[idx(a, b)][idx(c, e)] = {
                        idx(a + c, b + e): scal(t * b * c)}
    return FDAlgebra(d, mul, {idx(0, 0): field.one}, field,
                     name="twisted group algebra (n=%d, t=%d)" % (n, t))


# ---------------------------------------------------------------------------
# classical covering instances

def classical_covering_instance(table, gset, field=QQ):
    """Functions on a free G-set over functions on its orbit space, with
    the coaction dual to the deck action.  Returns comodule-algebra data
    over the function algebroid of the deck groupoid."""
    gset.validate()
    if not gset.is_free():
        raise NotFree("action is not free")
    e, inv_g = check_group_table(table)
    n = len(table)
    G = deck_groupoid(gset)
    Hd = function_algebroid(G, field)
    dH = Hd.total.dim
    npts = gset.n_points
    B = product_field_algebra(npts, field)
    B.name = "functions on the total space"
    orbit_of = gset.orbit_index()
    m = len(gset.orbits())
    one = field.one
    inclusion = Mat.from_cols([{y: one for y in range(npts)
                                if orbit_of[y] == o} for o in range(m)],
                              npts, field)
    # deck_groupoid morphism indexing: orbit * n + g
    rho = Mat.from_cols([{gset.act[inv_g[g]][z] * dH + orbit_of[z] * n + g:
                          one for g in range(n)} for z in range(npts)],
                        npts * dH, field)
    return ComoduleAlgebraData(Hd, B, inclusion, rho, rho,
                               name="classical covering")


def nontransitive_control_instance(field=QQ):
    """Functions on 4 points with the Z/2 swap action on two separate
    pairs, but with the declared base k (one pretended fiber): a valid
    comodule algebra whose coinvariants exceed the declared base and whose
    Galois map is rank deficient."""
    table = cyclic_table(2)
    Hd = function_algebroid(group_groupoid(table), field)
    dH = Hd.total.dim
    B = product_field_algebra(4, field)
    act = [[0, 1, 2, 3], [1, 0, 3, 2]]
    inclusion = Mat.from_cols([{z: field.one for z in range(4)}], 4, field)
    rho = Mat.from_cols([{act[g][z] * dH + g: field.one for g in range(2)}
                         for z in range(4)], 4 * dH, field)
    return ComoduleAlgebraData(Hd, B, inclusion, rho, rho,
                               name="nontransitive control")


# ---------------------------------------------------------------------------
# automorphisms of the forgetful functor

def theorem1_automorphisms(table):
    """The bijections of the regular G-set commuting with every
    equivariant self-map (the right multiplications), in lexicographic
    order.  Such a perm satisfies perm(h) = perm(e h) = perm(e) h, so it is
    the left translation by perm(e): the n rows of the table are the only
    candidates.  Returns the resulting permutation group with a witness
    isomorphism from G."""
    check_group_table(table)
    n = len(table)
    found = sorted(perm for perm in map(tuple, table)
                   if all(perm[table[x][h]] == table[perm[x]][h]
                          for h in range(n) for x in range(n)))
    index = {p: i for i, p in enumerate(found)}
    group_table = [[index[tuple(p[x] for x in q)] for q in found]
                   for p in found]
    witness = [index[tuple(row)] for row in table]
    return {"table": group_table, "perms": found, "witness": witness}


# ---------------------------------------------------------------------------
# permutation extraction from coverings of a point

def example7_extract(D):
    """For a covering of a point with split commutative B and commutative
    split Hopf algebra H, dualize the coaction to an action of the
    characters of H on the points of B; report the resulting subgroup of
    the symmetric group with transitivity and freeness flags."""
    B = D.B
    Hd = D.H
    H = Hd.total
    field = B.field
    if Hd.rightb.base.dim != 1:
        raise NotSplit("needs a Hopf algebra over k (covering of a point)")
    dR = Hd.rightb.coproduct_lift
    expect = {i * H.dim + j: x * y for i, x in H.unit.items()
              for j, y in H.unit.items()}
    if dR.matvec(H.unit) != expect:
        raise NotSplit("coproduct is not unital on this instance")
    pts = _characters(B)
    n = len(pts)
    if n != B.dim:
        raise NotSplit("B does not split into points")
    chars = _characters(H)
    if len(chars) != H.dim:
        raise NotSplit("H does not split into characters")
    pt_rows = [_row(chi, field) for _, chi in pts]
    dH = H.dim
    perms = set()
    for _, gamma in chars:
        pcols = []
        for col in D.rhoR_lift.sparse_cols():
            pcol = {}
            for idx, c in col.items():
                bp, h = divmod(idx, dH)
                pcol[bp] = pcol.get(bp, field.zero) + c * gamma[h]
            pcols.append(pcol)
        P = Mat.from_cols([_nonzero(col) for col in pcols], B.dim, field)
        perm = []
        for p in range(n):
            row = pt_rows[p] * P
            match = None
            for q in range(n):
                if row == pt_rows[q]:
                    match = q
                    break
            if match is None:
                raise NotSplit("a character does not act by a permutation")
            perm.append(match)
        perms.add(tuple(perm))
    # subgroup closure check
    closed = all(tuple(p[q[i]] for i in range(n)) in perms
                 for p in perms for q in perms)
    identity = tuple(range(n))
    transitive = len({p[0] for p in perms}) == n
    free = all(all(p[i] != i for i in range(n))
               for p in perms if p != identity)
    return {"order": len(perms), "permutations": sorted(perms),
            "transitive": transitive, "free": free, "closed": closed}
