"""Comodule algebras over Hopf algebroids, coinvariants, the comparison
map between the two one-sided coaction tensor products, Galois maps
(lifted by one builder, _gal_lift, at the section columns of B (x)_A B
alone), covering verdicts, cleftness (the witness c: H -> B is a plain
B.dim x H.dim Mat, decided through its convolution inverse and its own
normal-basis map), cocycles with crossed products, composition diagrams
(their Galois squares compared on lifts with equal_in), and
witness-based equivalence checks.  Every verdict is exact.

Tensor conventions follow bimod:
  B (x)_R H : right R-action on B by right multiplication with eta_R,
              left R-action on H by right multiplication with t_R;
  B (x)_L H : right L-action on B given by explicit matrices (defaulting
              to right multiplication with eta_L), left L-action on H by
              left multiplication with s_L;
  B (x)_A B : A acts through its image in B by plain multiplication.
"""

from functools import cache, partial

from .linalg import (Mat, kron_cols, rank, inverse, kernel, image,
                     Subspace, solve_map, equal_in, NoSolution,
                     ShapeMismatch, _add_scaled)
from .algebra import (FDAlgebra, ModuleOverA, is_projective, Inconclusive,
                      check_algebra_morphism, subalgebra_on_rows,
                      coprime_factors, center, NotSplit)
from .bimod import tensor_over, pair_mul
from .hopfalgebroid import check_algebraic_morphism, check_geometric_morphism
from .reports import ViolationReport


class AntipodeNotInvertible(Exception):
    pass


# ---------------------------------------------------------------------------
# comodule algebras

class ComoduleAlgebraData:
    """A right comodule algebra: Hopf algebroid data H, carrier algebra B,
    a declared coinvariant subalgebra via inclusionA (independent columns),
    and lifts of the two coactions B -> B (x)_k H.

    etaR is the ring map base_R -> B (defaults to the unit for a
    one-dimensional base, and to inclusionA when the base has the same
    dimension as A); actL gives the right action of the left base on B
    (defaults to right multiplication by etaR, which is correct whenever
    the two bases share coordinates and act alike, as in all instances
    built here)."""

    def __init__(self, H, B, inclusionA, rhoR_lift, rhoL_lift, name=None,
                 etaR=None, actL=None):
        self.H = H
        self.B = B
        self.inclusionA = inclusionA
        self.rhoR_lift = rhoR_lift
        self.rhoL_lift = rhoL_lift
        self.name = name
        field = B.field
        baseR = H.rightb.base
        if etaR is None:
            if baseR.dim == 1:
                etaR = Mat.from_cols([B.unit], B.dim, field)
            elif inclusionA.cols == baseR.dim:
                etaR = inclusionA
            else:
                raise ShapeMismatch(
                    "cannot infer the base ring map into B; pass etaR")
        self.etaR = etaR
        if actL is None:
            actL = [B.right_mult_matrix(etaR.col(l))
                    for l in range(H.leftb.base.dim)]
        self.actL = actL
        self.actR = [B.right_mult_matrix(etaR.col(r))
                     for r in range(baseR.dim)]
        # one memo with H's sides: equal inputs give one quotient
        self._quotients = H.rightb._quotients

    @property
    def field(self):
        return self.B.field

    @property
    def dimA(self):
        return self.inclusionA.cols

    def _tensor(self, dims, pairs):
        return tensor_over(dims, pairs, self.field, self._quotients)

    def tensorRH(self):
        """B (x)_R H."""
        return self._tensor([self.B.dim, self.H.total.dim],
                            [(self.actR, self.H.rightb.acts()[1])])

    def tensorLH(self):
        """B (x)_L H."""
        return self._tensor([self.B.dim, self.H.total.dim],
                            [(self.actL, self.H.leftb.acts()[1])])

    def tensorBHH(self, actB, first, second):
        """B (x) H (x) H with the (B,H) pair balanced over the base of the
        bialgebroid first, whose base acts on B by actB, and the (H,H)
        pair over the base of the bialgebroid second."""
        dH = self.H.total.dim
        return self._tensor([self.B.dim, dH, dH],
                            [(actB, first.acts()[1]), second.acts()])

    def tensorAA(self):
        """B (x)_A B."""
        B = self.B
        cols = [self.inclusionA.col(a) for a in range(self.dimA)]
        return self._tensor([B.dim] * 2, [([B.right_mult_matrix(c)
                                            for c in cols],
                                           [B.left_mult_matrix(c)
                                            for c in cols])])


def regular_comodule(Hd, name=None):
    """The total algebra of a Hopf algebroid as a comodule algebra over
    itself: coactions are the coproduct lifts, declared coinvariants the
    image of t_R, ring map s_R, and the right action of the left base is
    left multiplication by t_L."""
    H = Hd.total
    R, L = Hd.rightb, Hd.leftb
    inclusionA = image(R.t).basis
    actL = [H.left_mult_matrix(L.t.col(l)) for l in range(L.base.dim)]
    return ComoduleAlgebraData(Hd, H, inclusionA, R.coproduct_lift,
                               L.coproduct_lift, name=name,
                               etaR=R.s, actL=actL)


def trivial_comodule(Hd, B, name=None):
    """b -> b (x) 1 on both sides, over a Hopf algebroid with base k."""
    if Hd.rightb.base.dim != 1:
        raise ShapeMismatch("trivial coaction needs base k")
    rho = _times_one(B, Hd.total)
    inclusionA = Mat.identity(B.dim, B.field)
    return ComoduleAlgebraData(Hd, B, inclusionA, rho, rho, name=name)


def _times_one(B, H):
    """The map b -> b (x) 1 from B to B (x)_k H."""
    return Mat.from_cols([{b * H.dim + h: x for h, x in H.unit.items()}
                          for b in range(B.dim)], B.dim * H.dim, B.field)


def check_comodule(D):
    """Coaction axioms: per-side coassociativity and counitality, the two
    mixed compatibility squares, module compatibility of each coaction with
    the other side's base action, and algebra-map properties."""
    rep = ViolationReport()
    H = D.H.total
    B = D.B
    R, L = D.H.rightb, D.H.leftb
    field = D.field
    dB, dH = B.dim, H.dim
    I_B = Mat.identity(dB, field)
    I_H = Mat.identity(dH, field)
    actR = D.actR
    for rho in (D.rhoR_lift, D.rhoL_lift):
        if rho.rows != dB * dH or rho.cols != dB:
            raise ShapeMismatch("coaction lift shape")
    # per-side coassociativity
    for side, rho, actB, Hb in (("R", D.rhoR_lift, actR, R),
                                ("L", D.rhoL_lift, D.actL, L)):
        rep.require(equal_in(partial(D.tensorBHH, actB, Hb, Hb),
                             kron_cols(rho, I_H, rho),
                             kron_cols(I_B, Hb.coproduct_lift, rho)),
                    "comodule:coassoc:%s" % side)
    # counitality: m -> m^[0] . eps(m^[1]) = m, action of the base on B
    for side, rho, eps, acts in (("R", D.rhoR_lift, R.counit, actR),
                                 ("L", D.rhoL_lift, L.counit, D.actL)):
        for b in range(dB):
            acc = {}
            for idx, c in rho.sparse_cols()[b].items():
                bp, h = divmod(idx, dH)
                for r, cr in eps.sparse_cols()[h].items():
                    _add_scaled(acc, c * cr, acts[r].sparse_cols()[bp],
                                field.zero)
            rep.require(acc == B.basis_vec(b), "comodule:counit:%s" % side,
                        (b,))
    # mixed squares
    for side, rho, act, first, second, other in (
            ("RL", D.rhoR_lift, actR, R, L, D.rhoL_lift),
            ("LR", D.rhoL_lift, D.actL, L, R, D.rhoR_lift)):
        rep.require(equal_in(partial(D.tensorBHH, act, first, second),
                             kron_cols(rho, I_H, other),
                             kron_cols(I_B, second.coproduct_lift, rho)),
                    "comodule:mixed:" + side)
    # module compatibility with the other side's base, which acts on H by
    # acts()[0] (t_L on the left, s_R on the right) and on B by act
    for side, rho, square, acts, act in (
            ("R", D.rhoR_lift, D.tensorRH, L.acts()[0], D.actL),
            ("L", D.rhoL_lift, D.tensorLH, R.acts()[0], actR)):
        for i, mult in enumerate(acts):
            rep.require(equal_in(square, rho * act[i],
                                 kron_cols(I_B, mult, rho)),
                        "comodule:module-compat:" + side, (i,))
    # algebra maps: lifts are compared first, and each side's square is
    # built at most once, when some pair of lifts differs
    one = {b * dH + h: x * y for b, x in B.unit.items()
           for h, y in H.unit.items()}
    for side, rho, square in (("R", D.rhoR_lift, D.tensorRH),
                              ("L", D.rhoL_lift, D.tensorLH)):
        sq = cache(square)
        for i in range(dB):
            ci = rho.col(i)
            for j in range(dB):
                rep.require(equal_in(sq, [rho.matvec(B.mul[i][j])],
                                     [pair_mul(B, H, ci, rho.col(j))]),
                            "comodule:multiplicative:%s" % side, (i, j))
        rep.require(equal_in(sq, [rho.matvec(B.unit)], [one]),
                    "comodule:unital:%s" % side)
    return rep


def coinvariants(D, side):
    """Kernel of rho_side - ((.) x 1) in the quotient presentation."""
    sq = D.tensorRH() if side == "R" else D.tensorLH()
    rho = D.rhoR_lift if side == "R" else D.rhoL_lift
    return kernel(sq.apply(rho - _times_one(D.B, D.H.total)))


def phi_map(D):
    """The comparison map Phi: B (x)_R H -> B (x)_L H,
    m (x) h -> rho_L(m).S(h), and its inverse m (x) h -> S^{-1}(h).rho_R(m),
    both at the quotient level, lifted at the section columns alone."""
    H, S = D.H.total, D.H.antipode
    try:
        Sinv = inverse(S)
    except NoSolution:
        raise AntipodeNotInvertible() from None
    sqR, sqL = D.tensorRH(), D.tensorLH()
    I_B = Mat.identity(D.B.dim, D.field)
    Rs = [H.right_mult_matrix(S.col(h)) for h in range(H.dim)]
    Ls = [H.left_mult_matrix(Sinv.col(h)) for h in range(H.dim)]
    Phi = sqL.apply(_section_lifts(sqR, H.dim, lambda m, h: kron_cols(
        I_B, Rs[h], [D.rhoL_lift.col(m)])[0]))
    Psi = sqR.apply(_section_lifts(sqL, H.dim, lambda m, h: kron_cols(
        I_B, Ls[h], [D.rhoR_lift.col(m)])[0]))
    return Phi, Psi


def _gal_lift(D, side, a, b):
    """The lift of gal_side(a (x) b) in B (x) H, (a (x) 1) rho_R(b) or
    rho_L(a) (b (x) 1), read off B.mul_vec and the coaction column; a and b
    are basis indices or dicts of B."""
    B, dH, zero, acc = D.B, D.H.total.dim, D.field.zero, {}
    rho, x = (D.rhoR_lift, b) if side == "R" else (D.rhoL_lift, a)
    for ih, c in (rho.col(x) if isinstance(x, int) else rho.matvec(x)).items():
        i, h = divmod(ih, dH)
        prod = B.mul_vec(a, i) if side == "R" else B.mul_vec(i, b)
        for k, y in prod.items():
            acc[k * dH + h] = acc.get(k * dH + h, zero) + c * y
    return {k: v for k, v in acc.items() if v}


def _section_lifts(source, d, lift):
    """lift(i, j) at each section column i * d + j of the quotient source."""
    return [lift(*divmod(c, d)) for c in source.index]


def _galois_pair(D):
    """(gal_R, gal_L): gal_R: a (x)_A b -> a b^[0] (x)_R b^[1] and
    gal_L: a (x)_A b -> a_[0] b (x)_L a_[1], on the quotient coordinates:
    the lifts at the section columns of B (x)_A B, projected."""
    sqAA = D.tensorAA()
    return tuple(sq.apply(_section_lifts(sqAA, D.B.dim,
                                         partial(_gal_lift, D, side)))
                 for side, sq in (("R", D.tensorRH()), ("L", D.tensorLH())))


def galois_maps(D):
    """The two Galois maps of _galois_pair with their bijectivity flags:
    each map is square (B (x)_A B onto B (x) H) and of full rank."""
    galR, galL = _galois_pair(D)
    return {
        "galR": galR,
        "galL": galL,
        "galR_bijective": galR.rows == galR.cols == rank(galR),
        "galL_bijective": galL.rows == galL.cols == rank(galL),
    }


def check_gal_factorization(D):
    """gal_L = Phi_B . gal_R, and Phi is invertible with the stated
    inverse."""
    rep = ViolationReport()
    Phi, Psi = phi_map(D)
    rep.require(Phi * Psi == Mat.identity(Phi.rows, D.field),
                "galois:phi-inverse", note="Phi . Psi != id")
    rep.require(Psi * Phi == Mat.identity(Psi.rows, D.field),
                "galois:phi-inverse", note="Psi . Phi != id")
    galR, galL = _galois_pair(D)
    rep.require(galL == Phi * galR, "galois:factorization")
    return rep


# ---------------------------------------------------------------------------
# covering verdicts

class CoveringVerdict:
    def __init__(self, flags):
        self.flags = dict(flags)

    def __getattr__(self, key):
        flags = object.__getattribute__(self, "flags")
        if key in flags:
            return flags[key]
        raise AttributeError(key)

    @property
    def is_covering(self):
        f = self.flags
        return (f["H_fgproj_over_base"] and f["gal_R_bijective"]
                and f["gal_L_bijective"] and f["coinvariants_equal_A"]
                and f["B_fgproj_over_A"])

    def to_json(self):
        return dict(self.flags)

    def __repr__(self):
        return "CoveringVerdict(%r)" % (self.flags,)


def _bialgebroids_coincide(Hd):
    L, R = Hd.leftb, Hd.rightb
    return (L.s == R.s and L.t == R.t and L.counit == R.counit
            and L.coproduct_lift == R.coproduct_lift)


def check_covering(D):
    """Fills the covering flags: projectivity of H over its base through
    the source, bijectivity of both Galois maps, coinvariants equal to the
    declared A, projectivity of B over A, central connectedness (the unit
    of Z(B) does not split), and the local/stratified/uniform
    classification."""
    H = D.H.total
    B = D.B
    R = D.H.rightb
    field = D.field
    # H as a right module over the base via s_R
    actH = [H.right_mult_matrix(R.s.col(r)) for r in range(R.base.dim)]
    MH = ModuleOverA(R.base, H.dim, actH, side="right")
    H_proj = is_projective(MH)
    g = galois_maps(D)
    coinv = coinvariants(D, "R")
    declared = Subspace.from_spanning(
        B.dim, [D.inclusionA.col(a) for a in range(D.dimA)], field)
    coinv_ok = coinv == declared
    # B over A: right module via right multiplication by the image of A
    Aalg, Aincl = subalgebra_on_rows(B, declared)
    actB = [B.right_mult_matrix(Aincl.col(a)) for a in range(Aalg.dim)]
    MB = ModuleOverA(Aalg, B.dim, actB, side="right")
    B_proj = is_projective(MB)
    # central connectedness: the unit of Z(B) has no two coprime factors
    # (Zalg is its own center); no idempotent is built
    Zalg, _ = subalgebra_on_rows(B, center(B))
    try:
        connected = coprime_factors(Zalg, range(Zalg.dim), Zalg.unit) is None
    except NotSplit as exc:
        raise Inconclusive("central connectedness: %s" % exc) from None
    # classification
    base_image = image(D.etaR)
    a_image = declared
    if base_image == a_image:
        if R.base.dim == 1 and _bialgebroids_coincide(D.H):
            classification = "uniform"
        else:
            classification = "local"
    else:
        classification = "stratified"
    flags = {
        "H_fgproj_over_base": H_proj,
        "gal_R_bijective": g["galR_bijective"],
        "gal_L_bijective": g["galL_bijective"],
        "coinvariants_equal_A": coinv_ok,
        "B_fgproj_over_A": B_proj,
        "centrally_connected": connected,
        "classification": classification,
    }
    if not coinv_ok:
        flags["coinvariant_dim"] = coinv.dim
    return CoveringVerdict(flags)


# ---------------------------------------------------------------------------
# cleftness

def _conv_inverse(D, c):
    """Solve for the witness c: H -> B's convolution inverse d: H -> B,
    with c * d = mu (c (x) d) Delta_R = etaR eps_L and
    d * c = mu (d (x) c) Delta_L = etaR eps_R."""
    B, Hd = D.B, D.H
    blocks = [(B.convolution_terms(c, Hd.rightb.coproduct_lift, 1),
               D.etaR * Hd.leftb.counit),
              (B.convolution_terms(c, Hd.leftb.coproduct_lift, 0),
               D.etaR * Hd.rightb.counit)]
    return solve_map(blocks, B.dim, Hd.total.dim, D.field)


def check_cleft(D, c):
    """Cleftness through the witness c: H -> B, a B.dim x H.dim Mat:
    bimodule type, linear solvability of a convolution inverse, the
    comodule-map square and, when these hold, the normal basis that c
    itself gives (normal_basis).  Every answer is exact."""
    rep = ViolationReport()
    B, H, Hd, field = D.B, D.H.total, D.H, D.field
    # L-R bimodule map: c(sL(l) h) = etaL(l) c(h), c(h sR(r)) = c(h) etaR(r)
    for l in range(Hd.leftb.base.dim):
        sl = H.left_mult_matrix(Hd.leftb.s.col(l))
        el = B.left_mult_matrix(D.etaR.col(l))
        rep.require(c * sl == el * c, "cleft:bimodule", (l,),
                    note="left structure")
    for r in range(Hd.rightb.base.dim):
        sr = H.right_mult_matrix(Hd.rightb.s.col(r))
        er = B.right_mult_matrix(D.etaR.col(r))
        rep.require(c * sr == er * c, "cleft:bimodule", (r,),
                    note="right structure")
    # convolution inverse
    try:
        _conv_inverse(D, c)
    except NoSolution:
        rep.require(False, "cleft:invertibility",
                    note="no convolution inverse exists")
    # comodule-map square
    rep.require(equal_in(D.tensorRH, D.rhoR_lift * c,
                         kron_cols(c, Mat.identity(H.dim, field),
                                   Hd.rightb.coproduct_lift)),
                "cleft:comodule-map")
    if rep.ok:
        for question, holds in normal_basis(D, c).items():
            rep.require(holds, "cleft:normal-basis",
                        note="Theta %s: false" % question)
    return rep


def normal_basis(D, c):
    """Whether the canonical map of the witness c, Theta: A (x)_L H -> B,
    a (x) h -> a c(h), is a normal basis (Montgomery, CBMS 82, Thm 7.2.2;
    Boehm-Brzezinski for Hopf algebroids), as three exact answers:
    "descends" (Theta vanishes on the relation rows of A (x)_L H),
    "colinear" (rho_R Theta = (Theta (x) id)(id_A (x) Delta_R) on lifts)
    and "bijective" (rank dim B = dim A (x)_L H on the section columns).
    A is the computed coinvariants; Theta is its own certificate."""
    B, Hd, field = D.B, D.H, D.field
    dB, dH = B.dim, Hd.total.dim
    coin = coinvariants(D, "R")
    dA = coin.dim
    Aalg, Aincl = subalgebra_on_rows(B, coin)
    # A (x)_L H with L acting on A through eta and on H through s_L
    etaA = Mat.from_cols([coin.coords(D.etaR.col(l))
                          for l in range(Hd.leftb.base.dim)], dA, field)
    right_acts = [Aalg.right_mult_matrix(etaA.col(l))
                  for l in range(Hd.leftb.base.dim)]
    sqAH = D._tensor([dA, dH], [(right_acts, Hd.leftb.acts()[1])])
    # Theta on the lifts a (x) h, keyed by the column a * dH + h
    theta = Mat.from_cols([B.mul_vec(Aincl.col(a), c.col(h))
                           for a in range(dA) for h in range(dH)], dB, field)
    coproduct = kron_cols(Mat.identity(dA, field), Hd.rightb.coproduct_lift,
                          Mat.identity(dA * dH, field))
    on_sections = Mat.from_cols([theta.col(col) for col in sqAH.index],
                                dB, field)
    return {
        "descends": not any(theta.matvec(row) for row in sqAH.rows.values()),
        "colinear": equal_in(D.tensorRH, D.rhoR_lift * theta, kron_cols(
            theta, Mat.identity(dH, field), coproduct)),
        "bijective": sqAH.dim == dB == rank(on_sections)}


# ---------------------------------------------------------------------------
# cocycles and crossed products

class CocycleData:
    """A left bialgebroid BL measuring an L-ring N, together with a
    candidate 2-cocycle sigma: B (x) B -> N (as a matrix on lifts)."""

    def __init__(self, BL, N, etaN, action, sigma, name=None):
        self.BL = BL            # BialgebroidData, side "left"
        self.N = N              # FDAlgebra
        self.etaN = etaN        # Mat dim N x base dim
        self.action = action    # Mat dim N x (dim B * dim N)
        self.sigma = sigma      # Mat dim N x (dim B)^2
        self.name = name

    def act(self, b, n):
        """The action b . n in N."""
        return _on_pair(self.action, b, n, self.N.dim)

    def sig(self, u, v):
        """The cocycle sigma(u, v) in N."""
        return _on_pair(self.sigma, u, v, self.BL.total.dim)


def _on_pair(M, u, v, d):
    """M applied to u (x) v, where v has d coordinates, as the dict of its
    nonzeros.  Each of u and v is a dict of nonzeros or an int i standing
    for e_i; for two ints the result is the column u * d + v of M."""
    if isinstance(u, int) and isinstance(v, int):
        return M.col(u * d + v)
    one = M.field.one
    u = {u: one} if isinstance(u, int) else u
    v = {v: one} if isinstance(v, int) else v
    return M.matvec({i * d + j: c * x for i, c in u.items()
                     for j, x in v.items()})


def validate_cocycle(C):
    """Measuring conditions (i)-(iii), normality, the cocycle condition,
    and the twisted-module conditions (unitality and associativity)."""
    rep = ViolationReport()
    Bb = C.BL
    Balg = Bb.total
    N = C.N
    dB, dN, zero = Balg.dim, N.dim, N.field.zero
    dd = Bb.coproduct_lift.sparse_cols()
    # measuring (i)
    for b in range(dB):
        lhs = C.act(b, N.unit)
        rhs = C.etaN.matvec(Bb.counit.col(b))
        rep.require(lhs == rhs, "measuring:(i)", (b,))
    # measuring (ii)
    for l in range(Bb.base.dim):
        tl = Bb.t.col(l)
        sl = Bb.s.col(l)
        el = C.etaN.col(l)
        for b in range(dB):
            tb, sb = Balg.mul_vec(tl, b), Balg.mul_vec(sl, b)
            for n in range(dN):
                bn = C.act(b, n)
                lhs = C.act(tb, n)
                rep.require(lhs == N.mul_vec(bn, el), "measuring:(ii)",
                            (l, b, n, 1))
                lhs = C.act(sb, n)
                rep.require(lhs == N.mul_vec(el, bn), "measuring:(ii)",
                            (l, b, n, 2))
    # measuring (iii)
    for b in range(dB):
        for n in range(dN):
            for np in range(dN):
                lhs = C.act(b, N.mul[n][np])
                acc = {}
                for idx, c in dd[b].items():
                    b1, b2 = divmod(idx, dB)
                    _add_scaled(acc, c, N.mul_vec(C.act(b1, n),
                                                  C.act(b2, np)), zero)
                rep.require(lhs == acc, "measuring:(iii)", (b, n, np))
    # normality
    for b in range(dB):
        target = C.etaN.matvec(Bb.counit.col(b))
        rep.require(C.sig(Balg.unit, b) == target, "cocycle:normality",
                    (b, 1))
        rep.require(C.sig(b, Balg.unit) == target, "cocycle:normality",
                    (b, 2))
    # cocycle condition
    for a in range(dB):
        for b in range(dB):
            for c in range(dB):
                lhs, rhs = {}, {}
                for ia, va in dd[a].items():
                    a1, a2 = divmod(ia, dB)
                    for ib, vb in dd[b].items():
                        b1, b2 = divmod(ib, dB)
                        # rhs uses only Delta(a), Delta(b)
                        _add_scaled(rhs, va * vb, N.mul_vec(
                            C.sig(a1, b1), C.sig(Balg.mul[a2][b2], c)), zero)
                        for ic, vc in dd[c].items():
                            c1, c2 = divmod(ic, dB)
                            _add_scaled(lhs, va * vb * vc, N.mul_vec(
                                C.act(a1, C.sig(b1, c1)),
                                C.sig(a2, Balg.mul[b2][c2])), zero)
                rep.require(lhs == rhs, "cocycle:condition", (a, b, c))
    # twisted module (iii): unitality
    for n in range(dN):
        rep.require(C.act(Balg.unit, n) == N.basis_vec(n),
                    "twisted:(iii)", (n,))
    # twisted module (iv)
    for a in range(dB):
        for b in range(dB):
            for n in range(dN):
                lhs, rhs = {}, {}
                for ia, va in dd[a].items():
                    a1, a2 = divmod(ia, dB)
                    for ib, vb in dd[b].items():
                        b1, b2 = divmod(ib, dB)
                        _add_scaled(lhs, va * vb, N.mul_vec(
                            C.act(a1, C.act(b1, n)), C.sig(a2, b2)), zero)
                        _add_scaled(rhs, va * vb, N.mul_vec(
                            C.sig(a1, b1), C.act(Balg.mul[a2][b2], n)), zero)
                rep.require(lhs == rhs, "twisted:(iv)", (a, b, n))
    return rep


def crossed_product(C):
    """N #_sigma B on N (x)_L B with
    (n # b)(n' # b') = n (b_(1).n') sigma(b_(2), b'_(1)) # b_(3) b'_(2)."""
    Bb = C.BL
    Balg = Bb.total
    N = C.N
    field, zero = N.field, N.field.zero
    dB, dN = Balg.dim, N.dim
    right_acts = [N.right_mult_matrix(C.etaN.col(l))
                  for l in range(Bb.base.dim)]
    left_acts = [Balg.left_mult_matrix(Bb.s.col(l))
                 for l in range(Bb.base.dim)]
    sq = tensor_over([dN, dB], [(right_acts, left_acts)], field)
    dd = Bb.coproduct_lift
    I_B = Mat.identity(dB, field)
    dd2 = kron_cols(dd, I_B, dd)     # b -> b1 x b2 x b3

    def lift_mul(u, v):
        """The product of two lifts, each a dict {index: value} of its
        nonzeros, as the dict of its nonzeros."""
        acc = {}
        for iu, cu in u.items():
            n1, b = divmod(iu, dB)
            trip = dd2[b]
            for iv, cv in v.items():
                n2, bp = divmod(iv, dB)
                pair = dd.col(bp).items()
                for it, ct in trip.items():
                    b1, r2 = divmod(it, dB * dB)
                    b2, b3 = divmod(r2, dB)
                    actn = C.act(b1, n2)
                    for ip, cp in pair:
                        bp1, bp2 = divmod(ip, dB)
                        nfac = N.mul_vec(N.mul_vec(n1, actn), C.sig(b2, bp1))
                        bfac = Balg.mul[b3][bp2].items()
                        coef = cu * cv * ct * cp
                        for kn, xn in nfac.items():
                            ck, base = coef * xn, kn * dB
                            for kb, y in bfac:
                                acc[base + kb] = \
                                    acc.get(base + kb, zero) + ck * y
        return {k: x for k, x in acc.items() if x}

    lifts = sq.section_cols
    mul = [[sq.project(lift_mul(ui, uj)) for uj in lifts] for ui in lifts]
    one = sq.project({i * dB + j: a * b for i, a in N.unit.items()
                      for j, b in Balg.unit.items()})
    return FDAlgebra(sq.dim, mul, one, field, name="crossed product")


# ---------------------------------------------------------------------------
# composition of coverings

def check_composition(D1, D, D2, phi, psi, f1=None, f=None):
    """Commutativity data for stacked coverings A => B1 => B2: geometric
    morphism checks for (f1, phi) and (f, psi), injectivity/surjectivity,
    the two Galois-map squares, and the factorization square (through the
    source for a local chain, through the counit and unit when both outer
    symmetries are Hopf algebras over k).  The Galois squares compare lifts
    with equal_in at the section columns of B1 (x)_A B1 ((i), in B (x) H)
    and of B (x)_A B ((ii), in B2 (x) H2).  That is the verdict on the
    projected maps whenever iota x phi and id x psi send relations to
    relations and gal descends on B (x)_A B: both hold when the comodule
    axioms do, and a symmetry over k has no relations."""
    rep = ViolationReport()
    field = D.field
    iota = D2.inclusionA      # B1 -> B2
    if f1 is None:
        f1 = Mat.identity(D1.H.rightb.base.dim, field)
    if f is None:
        if D.H.rightb.base.dim == D2.H.rightb.base.dim:
            f = Mat.identity(D.H.rightb.base.dim, field)
        else:
            raise ShapeMismatch("base map f required for these bases")
    rep.merge(check_geometric_morphism(f1, phi, D1.H, D.H))
    rep.merge(check_geometric_morphism(f, psi, D.H, D2.H))
    rep.require(rank(phi) == phi.cols, "composition:phi-injective")
    rep.require(rank(psi) == psi.rows, "composition:psi-surjective")
    I_B2 = Mat.identity(D.B.dim, field)
    Q1AA, QAA, d1, d = D1.tensorAA(), D.tensorAA(), D1.B.dim, D.B.dim
    for side in ("R", "L"):
        QBH = D.tensorRH if side == "R" else D.tensorLH
        Q2BH = D2.tensorRH if side == "R" else D2.tensorLH
        # (i): (iota x phi) gal_1 = gal (iota x iota)
        gal1 = _section_lifts(Q1AA, d1, partial(_gal_lift, D1, side))
        gal = _section_lifts(Q1AA, d1, lambda i, j: _gal_lift(
            D, side, iota.col(i), iota.col(j)))
        rep.require(equal_in(QBH, kron_cols(iota, phi, gal1), gal),
                    "composition:(i):%s" % side)
        # (ii): (id x psi) gal = gal_2 on B (x)_A B
        gal = _section_lifts(QAA, d, partial(_gal_lift, D, side))
        gal2 = _section_lifts(QAA, d, partial(_gal_lift, D2, side))
        rep.require(equal_in(Q2BH, kron_cols(I_B2, psi, gal), gal2),
                    "composition:(ii):%s" % side)
    hopf_chain = (D1.H.rightb.base.dim == 1 and D2.H.rightb.base.dim == 1
                  and _bialgebroids_coincide(D1.H)
                  and _bialgebroids_coincide(D2.H))
    if hopf_chain:
        # psi . phi = eta_2 . eps_1 as plain matrices
        lhs = psi * phi
        rhs = D2.H.rightb.s * D1.H.rightb.counit
        rep.require(lhs == rhs, "composition:prop5")
    else:
        _prop4_square(rep, D1, D2, phi, psi)
    return rep


def _prop4_square(rep, D1, D2, phi, psi):
    """(id (x) psi.phi) = (id (x) s_2 . eps_1) as maps
    B1 (x)_A H1 -> B1 (x)_{B1} H2, for both one-sided pairs."""
    field = D1.field
    B1, H2 = D1.B, D2.H.total
    if D2.inclusionA.cols != D2.H.rightb.base.dim:
        # s_2 acts on B1 only where B1 is the base of H2, in its coordinates
        raise ShapeMismatch("inner covering base does not match B1")
    I_B1, comp = Mat.identity(B1.dim, field), psi * phi
    # B1 (x)_{B1} H2: B1 acts on H2 through s_2
    right_acts = [B1.right_mult_matrix(b) for b in range(B1.dim)]
    for side in ("R", "L"):
        lifts = (D1.tensorRH() if side == "R" else D1.tensorLH()).section_cols
        H1b, H2b = ((D1.H.rightb, D2.H.rightb) if side == "R"
                    else (D1.H.leftb, D2.H.leftb))
        left_acts = [H2.left_mult_matrix(H2b.s.col(b))
                     for b in range(B1.dim)]
        T = partial(tensor_over, [B1.dim, H2.dim], [(right_acts, left_acts)],
                    field)
        se = H2b.s * (D1.etaR * H1b.counit)
        rep.require(equal_in(T, kron_cols(I_B1, comp, lifts),
                             kron_cols(I_B1, se, lifts)),
                    "composition:prop4:%s" % side)


# ---------------------------------------------------------------------------
# witness-based equivalences

def verify_topological_equiv(D1, D2, beta, phiL, phiR):
    """beta: B1 -> B2 an A-ring isomorphism intertwining both coactions;
    (phiL, phiR): an isomorphism of the Hopf algebroids."""
    rep = ViolationReport()
    rep.merge(check_algebra_morphism(beta, D1.B, D2.B, tag="topo:B-ring"))
    rep.require(rank(beta) == D1.B.dim and beta.rows == beta.cols,
                "topo:B-invertible")
    rep.require(beta * D1.inclusionA == D2.inclusionA, "topo:A-point")
    for side, phi in (("R", phiR), ("L", phiL)):
        rho1 = D1.rhoR_lift if side == "R" else D1.rhoL_lift
        rho2 = D2.rhoR_lift if side == "R" else D2.rhoL_lift
        sq = D2.tensorRH if side == "R" else D2.tensorLH
        rep.require(equal_in(sq, kron_cols(beta, phi, rho1), rho2 * beta),
                    "topo:coaction:%s" % side)
    rep.merge(check_algebraic_morphism(phiL, phiR, D1.H, D2.H))
    rep.require(rank(phiR) == D1.H.total.dim, "topo:H-invertible")
    rep.require(rank(phiL) == D1.H.total.dim, "topo:H-invertible")
    return rep


class BimoduleWitness:
    """A (P, Q)-bimodule given by action matrix families."""

    def __init__(self, left_algebra, right_algebra, dim, left_acts,
                 right_acts):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_acts = left_acts
        self.right_acts = right_acts

    def check(self, tag):
        rep = ViolationReport()
        ml = ModuleOverA(self.left_algebra, self.dim, self.left_acts,
                         side="left")
        mr = ModuleOverA(self.right_algebra, self.dim, self.right_acts,
                         side="right")
        for e in ml.validate().entries:
            rep.require(False, tag + ":left-module", e.get("indices"))
        for e in mr.validate().entries:
            rep.require(False, tag + ":right-module", e.get("indices"))
        for i in range(self.left_algebra.dim):
            for j in range(self.right_algebra.dim):
                rep.require(self.left_acts[i] * self.right_acts[j]
                            == self.right_acts[j] * self.left_acts[i],
                            tag + ":commuting-actions", (i, j))
        return rep


class HopfBimoduleWitness:
    """An (H, H')-Hopf bimodule over Hopf algebras (base k): a bimodule of
    the total algebras with a left H-coaction and right H'-coaction that
    are coassociative, counital, commute with each other, and intertwine
    the actions diagonally (through the respective coproducts), so that
    the regular object qualifies."""

    def __init__(self, H1d, H2d, bimodule, lcoact_lift, rcoact_lift):
        self.H1d = H1d
        self.H2d = H2d
        self.bimodule = bimodule          # BimoduleWitness over the totals
        self.lcoact = lcoact_lift         # U -> H (x) U, (dH*dU) x dU
        self.rcoact = rcoact_lift         # U -> U (x) H', (dU*dH') x dU

    def check(self, tag):
        rep = ViolationReport()
        if self.H1d.rightb.base.dim != 1 or self.H2d.rightb.base.dim != 1:
            raise ShapeMismatch("Hopf bimodule checks require base k; "
                                "name the module structure explicitly")
        rep.merge(self.bimodule.check(tag + ":bimodule"))
        H1 = self.H1d.total
        H2 = self.H2d.total
        dU = self.bimodule.dim
        field = H1.field
        I_U = Mat.identity(dU, field)
        I_1 = Mat.identity(H1.dim, field)
        I_2 = Mat.identity(H2.dim, field)
        d1 = self.H1d.rightb.coproduct_lift
        d2 = self.H2d.rightb.coproduct_lift
        lc, rc = self.lcoact, self.rcoact
        rep.require(kron_cols(d1, I_U, lc) == kron_cols(I_1, lc, lc),
                    tag + ":left-coassoc")
        rep.require(kron_cols(self.H1d.rightb.counit, I_U, lc)
                    == I_U.sparse_cols(), tag + ":left-counit")
        rep.require(kron_cols(rc, I_2, rc) == kron_cols(I_U, d2, rc),
                    tag + ":right-coassoc")
        rep.require(kron_cols(I_U, self.H2d.rightb.counit, rc)
                    == I_U.sparse_cols(), tag + ":right-counit")
        rep.require(kron_cols(I_1, rc, lc) == kron_cols(lc, I_2, rc),
                    tag + ":bicomodule")
        # coactions are bimodule maps: the coaction of x . u is Delta(x)
        # times the coaction of u, factor by factor, and likewise on the right
        acts = self.bimodule
        L1 = [H1.left_mult_matrix(h) for h in range(H1.dim)]
        R2 = [H2.right_mult_matrix(h) for h in range(H2.dim)]
        for i, col in enumerate(d1.sparse_cols()):
            rep.require(lc * acts.left_acts[i]
                        == _diagonal(col, L1, acts.left_acts, lc),
                        tag + ":left-equivariance", (i,))
        for j, col in enumerate(d2.sparse_cols()):
            rep.require(rc * acts.right_acts[j]
                        == _diagonal(col, acts.right_acts, R2, rc),
                        tag + ":right-equivariance", (j,))
        return rep


def _diagonal(delta, first, second, M):
    """The sum of c * (first[h1] (x) second[h2]) * M over the nonzeros c
    of the coproduct column delta at h1 (x) h2, built with kron_cols."""
    out = Mat.from_cols([{}] * M.cols, M.rows, M.field)
    for idx, c in delta.items():
        h1, h2 = divmod(idx, len(second))
        out = out + Mat.from_cols(kron_cols(first[h1], second[h2], M),
                                  M.rows, M.field).scale(c)
    return out


def _bimodule_tensor(X, Y):
    """X (x)_Q Y for a (P,Q)-bimodule X and (Q,S)-bimodule Y."""
    return tensor_over([X.dim, Y.dim], [(X.right_acts, Y.left_acts)],
                       X.left_algebra.field)


def _iso_check(rep, tag, iso, dim, target_dim):
    """iso, from a space of dimension dim to one of target_dim, is
    bijective."""
    rep.require(iso.rows == target_dim and iso.cols == dim
                and rank(iso) == dim and dim == target_dim,
                tag + ":bijective")


def _iso_equivariance(rep, tag, iso, sq, P, Q, C, right):
    """iso: P (x)_sq Q -> C intertwines the left action of C on P with left
    multiplication and, when right is set, the right action of C on Q
    with right multiplication."""
    field = C.field
    lifts = sq.section_cols
    for i in range(C.dim):
        lhs = iso * sq.apply(kron_cols(P.left_acts[i],
                                       Mat.identity(Q.dim, field), lifts))
        rep.require(lhs == C.left_mult_matrix(i) * iso, tag + ":equivariance",
                    (i, "left") if right else (i,))
        if right:
            lhs = iso * sq.apply(kron_cols(Mat.identity(P.dim, field),
                                           Q.right_acts[i], lifts))
            rep.require(lhs == C.right_mult_matrix(i) * iso,
                        tag + ":equivariance", (i, "right"))


def verify_morita_data(D1, D2, X, Y, U, V, isos):
    """Witness verification of Morita equivalence: bimodules X (B1,B2) and
    Y (B2,B1) with isomorphisms X (x) Y = B1 and Y (x) X = B2, the
    collapsed versions Y = B1 (as (A,B1)-bimodule) and X = B2, plus Hopf
    bimodules U, V with the corresponding tensor isomorphisms.  isos is a
    dict with keys XY, YX, Ycollapse, Xcollapse, UV, VU, Ucollapse,
    Vcollapse."""
    rep = ViolationReport()
    field = D1.field
    B1, B2 = D1.B, D2.B
    rep.merge(X.check("morita:X"))
    rep.merge(Y.check("morita:Y"))
    sqXY = _bimodule_tensor(X, Y)
    sqYX = _bimodule_tensor(Y, X)
    _iso_check(rep, "morita:XY", isos["XY"], sqXY.dim, B1.dim)
    _iso_check(rep, "morita:YX", isos["YX"], sqYX.dim, B2.dim)
    _iso_equivariance(rep, "morita:XY", isos["XY"], sqXY, X, Y, B1, True)
    _iso_equivariance(rep, "morita:YX", isos["YX"], sqYX, Y, X, B2, True)
    # collapsed (A, -)-bimodule isomorphisms
    for tag, W, target, incl_src, incl_tgt in (
            ("morita:Y-collapse", Y, B1, D2.inclusionA, D1.inclusionA),
            ("morita:X-collapse", X, B2, D1.inclusionA, D2.inclusionA)):
        iso = isos["Ycollapse" if W is Y else "Xcollapse"]
        _iso_check(rep, tag, iso, W.dim, target.dim)
        left = ModuleOverA(W.left_algebra, W.dim, W.left_acts)
        for a in range(D1.dimA):
            Lsrc = left.act_matrix(incl_src.col(a))
            Ltgt = target.left_mult_matrix(incl_tgt.col(a))
            rep.require(iso * Lsrc == Ltgt * iso, tag + ":A-equivariance",
                        (a,))
        for j in range(target.dim):
            Rt = target.right_mult_matrix(j)
            rep.require(iso * W.right_acts[j] == Rt * iso,
                        tag + ":right-equivariance", (j,))
    # Hopf side
    rep.merge(U.check("morita:U"))
    rep.merge(V.check("morita:V"))
    H1, H2 = D1.H.total, D2.H.total
    sqUV = _bimodule_tensor(U.bimodule, V.bimodule)
    sqVU = _bimodule_tensor(V.bimodule, U.bimodule)
    _iso_check(rep, "morita:UV", isos["UV"], sqUV.dim, H1.dim)
    _iso_check(rep, "morita:VU", isos["VU"], sqVU.dim, H2.dim)
    _iso_equivariance(rep, "morita:UV", isos["UV"], sqUV, U.bimodule,
                      V.bimodule, H1, False)
    _iso_equivariance(rep, "morita:VU", isos["VU"], sqVU, V.bimodule,
                      U.bimodule, H2, False)
    # collapsed Hopf isomorphisms: U = H2 and V = H1 as right modules and
    # right comodules
    for name, W, D in (("U", U, D2), ("V", V, D1)):
        iso, H = isos[name + "collapse"], D.H.total
        tag = "morita:%s-collapse" % name
        _iso_check(rep, tag, iso, W.bimodule.dim, H.dim)
        for j in range(H.dim):
            rep.require(iso * W.bimodule.right_acts[j]
                        == H.right_mult_matrix(j) * iso,
                        tag + ":equivariance", (j,))
        lifted = kron_cols(iso, Mat.identity(H.dim, field), W.rcoact)
        rep.require(Mat.from_cols(lifted, iso.rows * H.dim, field)
                    == D.H.rightb.coproduct_lift * iso, tag + ":comodule")
    return rep
