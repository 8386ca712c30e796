"""Data carriers and axiom checkers for bialgebroids and Hopf algebroids.

Coproducts are stored as LIFTS: matrices H -> H (x)_k H.  Every axiom whose
statement lives in a tensor product over the base is evaluated after
projecting through the corresponding quotient presentation from bimod.
Lifts take one of two product paths: linalg.kron_cols builds (Delta (x)
id) Delta and its kin column by column for QuotientPresentation.apply, and
FDAlgebra.convolve evaluates mu (F (x) G) Delta (the counit laws, hopf:(d),
the coupling hexagons, geometric (b)) from the structure constants.  Only
the coupled:commute lines of check_coupled still multiply by kron(...):
the benchmark harness reads hopfalgebroid.kron, so the import stays until
the harness changes.  Checkers return ViolationReports: exact, no
tolerances.

Axiom tags:
  side:src:*, side:tgt:*       source/target (anti)multiplicativity
  side:commuting-images        s and t images commute
  side:coassociativity         coassociativity in the base quotient
  side:counit                  the two counit laws
  side:counit-bimodule         counit is a bimodule map
  side:counit-action           condition (c): the counit action
  side:takeuchi                coproduct corestricts to the Takeuchi product
  hopf:(a) hopf:(b) hopf:(c) hopf:(d) hopf:S-bijective
"""

from .linalg import (Mat, kron, kron_cols, rank, solve_map, NoSolution,
                     ShapeMismatch, shaped_mat_from_json)
from .bimod import tensor_over, takeuchi
from .algebra import (FDAlgebra, check_algebra_morphism,
                      check_algebra_antimorphism, opposite)
from .reports import ViolationReport


class NoAntipode(Exception):
    pass


class BialgebroidData:
    """One-sided bialgebroid: total algebra H, base algebra, source/target,
    a coproduct lift H -> H (x)_k H and a counit H -> base."""

    def __init__(self, total, base, side, s, t, coproduct_lift, counit,
                 name=None):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.total = total
        self.base = base
        self.side = side
        self.s = s                      # Mat, total.dim x base.dim
        self.t = t
        self.coproduct_lift = coproduct_lift  # Mat, dim^2 x dim
        self.counit = counit            # Mat, base.dim x dim
        self.name = name
        self._acts = None
        self._quotients = []    # shared by both sides of a Hopf algebroid
        self._takeuchi = None

    def _images(self, mult):
        """mult applied to the images of the base basis under (s, t) on the
        right side and under (t, s) on the left side."""
        first, second = ((self.s, self.t) if self.side == "right"
                         else (self.t, self.s))
        n = self.base.dim
        return ([mult(first.col(r)) for r in range(n)],
                [mult(second.col(r)) for r in range(n)])

    def acts(self):
        """The (right_acts, left_acts) pair balancing H (x)_base H, see the
        convention table in bimod (cached)."""
        if self._acts is None:
            H = self.total
            self._acts = self._images(H.right_mult_matrix
                                      if self.side == "right"
                                      else H.left_mult_matrix)
        return self._acts

    def square(self):
        """The coring tensor square H (x)_base H (built once)."""
        H = self.total
        return tensor_over([H.dim] * 2, [self.acts()], H.field,
                           self._quotients)

    def triple(self):
        """H (x)_base H (x)_base H, home of coassociativity (built once)."""
        H = self.total
        return tensor_over([H.dim] * 3, [self.acts()] * 2, H.field,
                           self._quotients)

    def takeuchi(self):
        if self._takeuchi is None:
            H = self.total
            self._takeuchi = takeuchi(
                self.square(), *self._images(
                    H.left_mult_matrix if self.side == "right"
                    else H.right_mult_matrix))
        return self._takeuchi

    def ring_tensor_square(self):
        """H (x)_base H over the base-ring structure via s (both legs):
        relations b s(r) (x) b' - b (x) s(r) b'.  This is the domain of the
        multiplication map, unlike the coring square above."""
        H = self.total
        n = self.base.dim
        acts = ([H.right_mult_matrix(self.s.col(r)) for r in range(n)],
                [H.left_mult_matrix(self.s.col(r)) for r in range(n)])
        return tensor_over([H.dim] * 2, [acts], H.field, self._quotients)


class HopfAlgebroidData:
    def __init__(self, leftb, rightb, antipode, name=None):
        self.leftb = leftb
        self.rightb = rightb
        rightb._quotients = leftb._quotients    # equal inputs, one quotient
        self.antipode = antipode
        self.name = name

    @property
    def total(self):
        return self.rightb.total


def _coassociative(first, second, qp):
    """(Delta_first (x) id) Delta_second = (id (x) Delta_second) Delta_first
    after projecting to the triple quotient qp."""
    H = first.total
    I = Mat.identity(H.dim, H.field)
    F, S = first.coproduct_lift, second.coproduct_lift
    return qp.apply(kron_cols(F, I, S)) == qp.apply(kron_cols(I, S, F))


def _counit_check(B, rep):
    """The two counit laws, evaluated on lifts.  For a right bialgebroid,
    writing the lift of Delta(b) as sum x_i (x) y_i:
        sum y_i t(eps(x_i)) = b   and   sum x_i s(eps(y_i)) = b;
    for a left bialgebroid:
        sum s(eps(x_i)) y_i = b   and   sum t(eps(y_i)) x_i = b.
    Each side is a convolution of the lift; a product y t(eps(x)) with
    the factors in reverse order is one in the opposite algebra."""
    H = B.total
    d = H.dim
    # s.eps and t.eps, built from columns: no Mat product
    s_eps = Mat.from_cols([B.s.matvec(B.counit.col(i)) for i in range(d)],
                          d, H.field)
    t_eps = Mat.from_cols([B.t.matvec(B.counit.col(i)) for i in range(d)],
                          d, H.field)
    I, lift, Hop = Mat.identity(d, H.field), B.coproduct_lift, opposite(H)
    if B.side == "right":
        lhs1, lhs2 = Hop.convolve(t_eps, I, lift), H.convolve(I, s_eps, lift)
    else:
        lhs1, lhs2 = H.convolve(s_eps, I, lift), Hop.convolve(I, t_eps, lift)
    for bidx, (c1, c2, target) in enumerate(zip(
            lhs1.sparse_cols(), lhs2.sparse_cols(), I.sparse_cols())):
        rep.require(c1 == target, "%s:counit" % B.side, (bidx, 1))
        rep.require(c2 == target, "%s:counit" % B.side, (bidx, 2))


def _counit_bimodule_check(B, rep):
    """eps(r . b . r') = r eps(b) r' in the base algebra."""
    H, base = B.total, B.base
    for r in range(base.dim):
        sr, tr = B.s.col(r), B.t.col(r)
        for rp in range(base.dim):
            srp, trp = B.s.col(rp), B.t.col(rp)
            if B.side == "left":
                st = H.mul_vec(sr, trp)
            for bidx in range(H.dim):
                if B.side == "right":
                    # r.b.r' = b s(r') t(r)
                    x = H.mul_vec(H.mul_vec(bidx, srp), tr)
                else:
                    # l.b.l' = s(l) t(l') b
                    x = H.mul_vec(st, bidx)
                lhs = B.counit.matvec(x)
                eb = B.counit.col(bidx)
                rhs = base.mul_vec(base.mul_vec(r, eb), rp)
                rep.require(lhs == rhs, "%s:counit-bimodule" % B.side,
                            (r, bidx, rp))


def _counit_action_check(B, rep):
    """Condition (c).  Right version: r . b := eps(s(r) b) is a right
    (B,s)-action on the base, i.e. (r . a) . b = r . (ab) and r . 1 = r.
    Left version: b . l := eps(b s(l)) with (ab) . l = a . (b . l).
    Per base element, the action is the matrix eps . (multiplication by
    s(r)), so r . (ab) is read off at the structure constants of ab;
    s(r . a) is computed once per a and s(b . l) once per b."""
    H, base = B.total, B.base

    def eps(x, y):
        return B.counit.matvec(H.mul_vec(x, y))

    for r in range(base.dim):
        rv = base.basis_vec(r)
        sr = B.s.col(r)
        if B.side == "right":
            dot = B.counit * H.left_mult_matrix(sr)     # b -> r . b
            rep.require(dot.matvec(H.unit) == rv,
                        "right:counit-action", (r,), note="r.1 != r")
        else:
            dot = B.counit * H.right_mult_matrix(sr)    # b -> b . l
            rep.require(dot.matvec(H.unit) == rv,
                        "left:counit-action", (r,), note="1.l != l")
            s_bl = [B.s.matvec(dot.col(b)) for b in range(H.dim)]
        for a in range(H.dim):
            if B.side == "right":
                s_ra = B.s.matvec(dot.col(a))
            for b in range(H.dim):
                ab = dot.matvec(H.mul[a][b])
                if B.side == "right":
                    rep.require(eps(s_ra, b) == ab,
                                "right:counit-action", (r, a, b))
                else:
                    rep.require(ab == eps(a, s_bl[b]),
                                "left:counit-action", (r, a, b))


def check_coring(B):
    """Coassociativity, in the iterated quotient over the base on both
    pairs of legs, and the two counit laws of the coring over the base."""
    rep = ViolationReport()
    rep.require(_coassociative(B, B, B.triple()),
                "%s:coassociativity" % B.side)
    _counit_check(B, rep)
    return rep


def check_bialgebroid(B, coring=None):
    """The bialgebroid axioms; coring is check_coring(B), if already run."""
    rep = ViolationReport()
    H, base = B.total, B.base
    if B.s.rows != H.dim or B.s.cols != base.dim:
        raise ShapeMismatch("source map shape")
    if B.coproduct_lift.rows != H.dim ** 2 or B.coproduct_lift.cols != H.dim:
        raise ShapeMismatch("coproduct lift shape")
    if B.counit.rows != base.dim or B.counit.cols != H.dim:
        raise ShapeMismatch("counit shape")
    rep.merge(check_algebra_morphism(B.s, base, H, tag="%s:src" % B.side))
    rep.merge(check_algebra_antimorphism(B.t, base, H, tag="%s:tgt" % B.side))
    for r in range(base.dim):
        sr = B.s.col(r)
        for rp in range(base.dim):
            trp = B.t.col(rp)
            rep.require(H.mul_vec(sr, trp) == H.mul_vec(trp, sr),
                        "%s:commuting-images" % B.side, (r, rp))
    rep.merge(check_coring(B) if coring is None else coring)
    _counit_bimodule_check(B, rep)
    _counit_action_check(B, rep)
    # Takeuchi corestriction
    sq = B.square()
    tk = B.takeuchi()
    for bidx in range(H.dim):
        q = sq.project(B.coproduct_lift.sparse_cols()[bidx])
        rep.require(tk.space.contains(q), "%s:takeuchi" % B.side, (bidx,))
    return rep


def check_hopf_algebroid(Hd, skip_bialgebroids=False):
    rep = ViolationReport()
    L, R = Hd.leftb, Hd.rightb
    H = Hd.total
    S = Hd.antipode
    if L.total is not R.total and L.total.dim != R.total.dim:
        raise ShapeMismatch("constituent bialgebroids on different carriers")
    if not skip_bialgebroids:
        rep.merge(check_bialgebroid(L))
        rep.merge(check_bialgebroid(R))
    # (a) the four triangles
    a_rep = ViolationReport()
    a_rep.require(L.s * (L.counit * R.t) == R.t, "hopf:(a)",
                  note="sL.epsL.tR != tR")
    a_rep.require(R.t * (R.counit * L.s) == L.s, "hopf:(a)",
                  note="tR.epsR.sL != sL")
    a_rep.require(L.t * (L.counit * R.s) == R.s, "hopf:(a)",
                  note="tL.epsL.sR != sR")
    a_rep.require(R.s * (R.counit * L.t) == L.t, "hopf:(a)",
                  note="sR.epsR.tL != tL")
    rep.merge(a_rep)
    # (b) mixed coassociativity, both squares; the sides share one memo,
    # so a mixed triple is a side's triple when the actions agree
    for first, second, note in ((L, R, "H xL H xR H square"),
                                (R, L, "H xR H xL H square")):
        qp = tensor_over([H.dim] * 3, [first.acts(), second.acts()],
                         H.field, first._quotients)
        rep.require(_coassociative(first, second, qp), "hopf:(b)", note=note)
    # An antipode of deficient rank pollutes (c) and (d) with cascading
    # failures, and broken counit triangles do the same to (d) -- both
    # convolution identities compare against s.eps compositions.  Gate the
    # dependent checks so reports point at the first broken axiom.
    s_bijective = rank(S) == H.dim
    rep.require(s_bijective, "hopf:S-bijective")
    if not s_bijective:
        return rep
    # (c) S(tL(l) h tR(r)) = sR(r) S(h) sL(l)
    for l in range(L.base.dim):
        tl, sl = L.t.col(l), L.s.col(l)
        for r in range(R.base.dim):
            tr, sr = R.t.col(r), R.s.col(r)
            for h in range(H.dim):
                lhs = S.matvec(H.mul_vec(H.mul_vec(tl, h), tr))
                rhs = H.mul_vec(H.mul_vec(sr, S.col(h)), sl)
                rep.require(lhs == rhs, "hopf:(c)", (l, h, r))
    if not a_rep.ok:
        return rep
    # (d) the two convolution identities, on lifts
    I = Mat.identity(H.dim, H.field)
    pairs = zip(H.convolve(S, I, L.coproduct_lift).sparse_cols(),
                (R.s * R.counit).sparse_cols(),
                H.convolve(I, S, R.coproduct_lift).sparse_cols(),
                (L.s * L.counit).sparse_cols())
    for bidx, (lhs1, rhs1, lhs2, rhs2) in enumerate(pairs):
        rep.require(lhs1 == rhs1, "hopf:(d)", (bidx,),
                    note="muL(S x id)DeltaL != sR.epsR")
        rep.require(lhs2 == rhs2, "hopf:(d)", (bidx,),
                    note="muR(id x S)DeltaR != sL.epsL")
    return rep


def solve_antipode(B, want_kernel=False):
    """Solve the convolution-inverse system mu (S (x) id) Delta = s eps =
    mu (id (x) S) Delta for a bialgebra over k (a bialgebroid with
    one-dimensional base).  Returns the antipode matrix, with the kernel
    basis of the system when want_kernel, or raises NoAntipode; the
    solution is unique when one exists."""
    H = B.total
    if B.base.dim != 1:
        raise ShapeMismatch("solve_antipode needs a bialgebra over k")
    I, lift, target = Mat.identity(H.dim, H.field), B.coproduct_lift, \
        B.s * B.counit
    try:
        S, kern = solve_map([(H.convolution_terms(I, lift, 0), target),
                             (H.convolution_terms(I, lift, 1), target)],
                            H.dim, H.dim, H.field, want_kernel=True)
    except NoSolution:
        raise NoAntipode()
    return (S, kern) if want_kernel else S


def check_coupled(H1, H2, C):
    """Coupling axioms for two bialgebra structures on one carrier:
    m1 (C x id) Delta1 = eta eps2,  m2 (id x C) Delta2 = eta eps1, and the
    two coproducts commute (both mixed squares over k)."""
    rep = ViolationReport()
    A1, A2 = H1.total, H2.total
    if A1.dim != A2.dim:
        raise ShapeMismatch("coupled pair on different carriers")
    I = Mat.identity(A1.dim, A1.field)
    unit1 = Mat.from_cols([A1.unit], A1.dim, A1.field)
    unit2 = Mat.from_cols([A2.unit], A2.dim, A2.field)
    rep.require(A1.convolve(C, I, H1.coproduct_lift) == unit1 * H2.counit,
                "coupled:hexagon-1")
    rep.require(A2.convolve(I, C, H2.coproduct_lift) == unit2 * H1.counit,
                "coupled:hexagon-2")
    # kron(...) * M stays here while the benchmark harness reads
    # hopfalgebroid.kron; elsewhere lifts go through kron_cols or convolve.
    d1, d2 = H1.coproduct_lift, H2.coproduct_lift
    rep.require(kron(d1, I) * d2 == kron(I, d2) * d1, "coupled:commute")
    rep.require(kron(d2, I) * d1 == kron(I, d1) * d2, "coupled:commute")
    return rep


def _bialgebroid_morphism_check(phi, src, tgt, tag):
    """Same-base bialgebroid morphism: algebra map intertwining s, t, eps
    and the coproducts at the quotient level."""
    rep = ViolationReport()
    rep.merge(check_algebra_morphism(phi, src.total, tgt.total,
                                     tag=tag + ":algebra"))
    rep.require(phi * src.s == tgt.s, tag + ":source")
    rep.require(phi * src.t == tgt.t, tag + ":target")
    rep.require(tgt.counit * phi == src.counit, tag + ":counit")
    sq = tgt.square()
    lhs = sq.apply(kron_cols(phi, phi, src.coproduct_lift))
    rhs = sq.apply(tgt.coproduct_lift * phi)
    rep.require(lhs == rhs, tag + ":coproduct")
    return rep


def check_algebraic_morphism(phiL, phiR, source, target):
    """Algebraic morphism of Hopf algebroids over the same bases: a pair
    of one-sided bialgebroid morphisms with the two antipode squares."""
    rep = ViolationReport()
    rep.merge(_bialgebroid_morphism_check(phiL, source.leftb, target.leftb,
                                          "alg-morphism:left"))
    rep.merge(_bialgebroid_morphism_check(phiR, source.rightb, target.rightb,
                                          "alg-morphism:right"))
    rep.require(phiR * source.antipode == target.antipode * phiL,
                "alg-morphism:antipode", note="phiR.S != S'.phiL")
    rep.require(phiL * source.antipode == target.antipode * phiR,
                "alg-morphism:antipode", note="phiL.S != S'.phiR")
    return rep


def _descends(phi, src, tgt):
    """phi (x) phi maps the relations of the quotient src into those of
    tgt: the image of each relation row of src projects to zero in tgt."""
    images = kron_cols(phi, phi, list(src.rows.values()))
    return not any(tgt.project(v) for v in images)


def check_geometric_morphism(f, phi, source, target):
    """Geometric morphism (f, phi) between Hopf algebroids over possibly
    different bases.  f: base of source -> base of target (applied to both
    one-sided bases, which share their carrier), phi: H -> K."""
    rep = ViolationReport()
    K = target.total
    for side, BS, BT in (("left", source.leftb, target.leftb),
                         ("right", source.rightb, target.rightb)):
        tag = "geo-morphism:(a):" + side
        rep.require(BT.counit * phi == f * BS.counit, tag,
                    note="counit square")
        rep.require(phi * BS.s == BT.s * f, tag, note="source square")
        rep.require(phi * BS.t == BT.t * f, tag, note="target square")
    # (b) multiplicativity over f in both ring-tensor quotients
    for side, BS, BT in (("left", source.leftb, target.leftb),
                         ("right", source.rightb, target.rightb)):
        tag = "geo-morphism:(b):" + side
        sqS = BS.ring_tensor_square()
        sqT = BT.ring_tensor_square()
        rep.require(_descends(phi, sqS, sqT), tag,
                    note="phi x_f phi does not descend")
        I = Mat.identity(BS.total.dim, K.field)
        section = Mat.from_cols(sqS.section_cols, sqS.ambient_dim, K.field)
        lhs = phi * BS.total.convolve(I, I, section)
        rep.require(lhs == K.convolve(phi, phi, section), tag,
                    note="multiplication square")
    # (c) coproduct compatibility at the coring-quotient level
    for side, BS, BT in (("left", source.leftb, target.leftb),
                         ("right", source.rightb, target.rightb)):
        tag = "geo-morphism:(c):" + side
        sqT = BT.square()
        sqS = BS.square()
        rep.require(_descends(phi, sqS, sqT), tag,
                    note="phi x_f phi does not descend (coring)")
        images = kron_cols(phi, phi, BS.coproduct_lift)
        lhs = sqT.apply(BT.coproduct_lift * phi)
        rep.require(lhs == sqT.apply(images), tag, note="coproduct square")
        tkT = BT.takeuchi()
        ok = all(tkT.space.contains(sqT.project(v)) for v in images)
        rep.require(ok, tag, note="image misses the Takeuchi subspace")
    # (d)
    rep.require(phi * source.antipode == target.antipode * phi,
                "geo-morphism:(d)", note="phi.S != S'.phi")
    return rep

# ---------------------------------------------------------------------------
# serialization

def bialgebroid_to_json(B):
    from .linalg import mat_to_json
    return {"base": B.base.to_json(),
            "side": B.side,
            "s": mat_to_json(B.s),
            "t": mat_to_json(B.t),
            "delta_lift": mat_to_json(B.coproduct_lift),
            "counit": mat_to_json(B.counit)}


def bialgebroid_from_json(doc, total):
    base = FDAlgebra.from_json(doc["base"])
    field = total.field
    H, b = total.dim, base.dim
    return BialgebroidData(
        total, base, doc["side"],
        shaped_mat_from_json(doc, "s", H, b, field),
        shaped_mat_from_json(doc, "t", H, b, field),
        shaped_mat_from_json(doc, "delta_lift", H * H, H, field),
        shaped_mat_from_json(doc, "counit", b, H, field))


def hopf_to_json(Hd):
    from .linalg import mat_to_json
    return {"total": Hd.total.to_json(),
            "left": bialgebroid_to_json(Hd.leftb),
            "right": bialgebroid_to_json(Hd.rightb),
            "antipode": mat_to_json(Hd.antipode),
            "name": Hd.name}


def hopf_from_json(doc):
    total = FDAlgebra.from_json(doc["total"])
    leftb = bialgebroid_from_json(doc["left"], total)
    rightb = bialgebroid_from_json(doc["right"], total)
    S = shaped_mat_from_json(doc, "antipode", total.dim, total.dim,
                             total.field)
    return HopfAlgebroidData(leftb, rightb, S, name=doc.get("name"))
