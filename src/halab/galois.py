"""Comodule algebras over Hopf algebroids, coinvariants, the comparison
map between the two one-sided coaction tensor products, Galois maps,
covering verdicts, cleftness, cocycles with crossed products, composition
diagrams, and witness-based equivalence checks.

Tensor conventions follow bimod:
  B (x)_R H : right R-action on B by right multiplication with eta_R,
              left R-action on H by right multiplication with t_R;
  B (x)_L H : right L-action on B given by explicit matrices (defaulting
              to right multiplication with eta_L), left L-action on H by
              left multiplication with s_L;
  B (x)_A B : A acts through its image in B by plain multiplication.
"""

import random

from .linalg import (Mat, kron_cols, leg_slices, rank, inverse, kernel,
                     image, Subspace, solve_map, NoSolution, ShapeMismatch,
                     _add_scaled)
from .algebra import (FDAlgebra, ModuleOverA, is_projective, Inconclusive,
                      check_algebra_morphism, subalgebra_on_rows,
                      central_idempotents_split, center, NotSplit)
from .bimod import tensor_over, pair_mul
from .hopfalgebroid import check_algebraic_morphism, check_geometric_morphism
from .reports import ViolationReport


class AntipodeNotInvertible(Exception):
    pass


class LabelMismatch(ValueError):
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
    # per-side coassociativity
    for side, rho, actB, Hb in (("R", D.rhoR_lift, actR, R),
                                ("L", D.rhoL_lift, D.actL, L)):
        dd = Hb.coproduct_lift
        qp = D.tensorBHH(actB, Hb, Hb)
        lhs = qp.apply(kron_cols(rho, I_H, rho))
        rhs = qp.apply(kron_cols(I_B, dd, rho))
        rep.require(lhs == rhs, "comodule:coassoc:%s" % side)
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
    qp = D.tensorBHH(actR, R, L)
    lhs = qp.apply(kron_cols(D.rhoR_lift, I_H, D.rhoL_lift))
    rhs = qp.apply(kron_cols(I_B, L.coproduct_lift, D.rhoR_lift))
    rep.require(lhs == rhs, "comodule:mixed:RL")
    qp = D.tensorBHH(D.actL, L, R)
    lhs = qp.apply(kron_cols(D.rhoL_lift, I_H, D.rhoR_lift))
    rhs = qp.apply(kron_cols(I_B, R.coproduct_lift, D.rhoL_lift))
    rep.require(lhs == rhs, "comodule:mixed:LR")
    # module compatibility
    sqR = D.tensorRH()
    for l in range(L.base.dim):
        tl = H.left_mult_matrix(L.t.col(l))
        lhs = sqR.apply(D.rhoR_lift * D.actL[l])
        rhs = sqR.apply(kron_cols(I_B, tl, D.rhoR_lift))
        rep.require(lhs == rhs, "comodule:module-compat:R", (l,))
    sqL = D.tensorLH()
    for r in range(R.base.dim):
        sr = H.right_mult_matrix(R.s.col(r))
        lhs = sqL.apply(D.rhoL_lift * actR[r])
        rhs = sqL.apply(kron_cols(I_B, sr, D.rhoL_lift))
        rep.require(lhs == rhs, "comodule:module-compat:L", (r,))
    # algebra maps
    for side, rho, sq in (("R", D.rhoR_lift, sqR), ("L", D.rhoL_lift, sqL)):
        for i in range(dB):
            ci = rho.col(i)
            for j in range(dB):
                lhs = sq.project(rho.matvec(B.mul[i][j]))
                rhs = sq.project(pair_mul(B, H, ci, rho.col(j)))
                rep.require(lhs == rhs, "comodule:multiplicative:%s" % side,
                            (i, j))
        one = {b * dH + h: x * y for b, x in B.unit.items()
               for h, y in H.unit.items()}
        rep.require(sq.project(rho.matvec(B.unit)) == sq.project(one),
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
    both at the quotient level."""
    H = D.H.total
    B = D.B
    field = D.field
    dB, dH = B.dim, H.dim
    S = D.H.antipode
    if rank(S) != dH:
        raise AntipodeNotInvertible()
    Sinv = inverse(S)
    sqR, sqL = D.tensorRH(), D.tensorLH()
    I_B = Mat.identity(dB, field)
    # the lifts of m (x) h, keyed by the column m * dH + h
    phi_lift, psi_lift = {}, {}
    for h in range(dH):
        Rs = H.right_mult_matrix(S.col(h))
        Ls = H.left_mult_matrix(Sinv.col(h))
        for b, v in enumerate(kron_cols(I_B, Rs, D.rhoL_lift)):
            phi_lift[b * dH + h] = v
        for b, v in enumerate(kron_cols(I_B, Ls, D.rhoR_lift)):
            psi_lift[b * dH + h] = v
    Phi = sqL.apply([phi_lift[c] for c in sqR.index])
    Psi = sqR.apply([psi_lift[c] for c in sqL.index])
    return Phi, Psi


def galois_maps(D):
    """gal_R: a (x)_A b -> a b^[0] (x)_R b^[1] and
    gal_L: a (x)_A b -> a_[0] b (x)_L a_[1], with bijectivity flags."""
    H = D.H.total
    B = D.B
    field = D.field
    dB, dH = B.dim, H.dim
    sqAA = D.tensorAA()
    sqR, sqL = D.tensorRH(), D.tensorLH()
    I_H = Mat.identity(dH, field)
    # the lifts of a (x) b, keyed by the column a * dB + b
    lift_R, lift_L = {}, {}
    for a in range(dB):
        La = B.left_mult_matrix(a)
        for b, v in enumerate(kron_cols(La, I_H, D.rhoR_lift)):
            lift_R[a * dB + b] = v
    for b in range(dB):
        Rb = B.right_mult_matrix(b)
        for a, v in enumerate(kron_cols(Rb, I_H, D.rhoL_lift)):
            lift_L[a * dB + b] = v
    galR = sqR.apply([lift_R[c] for c in sqAA.index])
    galL = sqL.apply([lift_L[c] for c in sqAA.index])
    rkR, rkL = rank(galR), rank(galL)
    return {
        "galR": galR,
        "galL": galL,
        "galR_bijective": sqAA.dim == sqR.dim and rkR == sqAA.dim,
        "galL_bijective": sqAA.dim == sqL.dim and rkL == sqAA.dim,
    }


def check_gal_factorization(D):
    """gal_L = Phi_B . gal_R, and Phi is invertible with the stated
    inverse."""
    rep = ViolationReport()
    Phi, Psi = phi_map(D)
    sqR, sqL = D.tensorRH(), D.tensorLH()
    rep.require(Phi * Psi == Mat.identity(sqL.dim, D.field),
                "galois:phi-inverse", note="Phi . Psi != id")
    rep.require(Psi * Phi == Mat.identity(sqR.dim, D.field),
                "galois:phi-inverse", note="Psi . Phi != id")
    g = galois_maps(D)
    rep.require(g["galL"] == Phi * g["galR"], "galois:factorization")
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
    declared A, projectivity of B over A, central connectedness, and the
    local/stratified/uniform classification."""
    H = D.H.total
    B = D.B
    R = D.H.rightb
    field = D.field
    # H as a right module over the base via s_R
    actH = [H.right_mult_matrix(R.s.col(r)) for r in range(R.base.dim)]
    MH = ModuleOverA(R.base, H.dim, actH, side="right")
    H_proj, _ = is_projective(MH)
    g = galois_maps(D)
    coinv = coinvariants(D, "R")
    declared = Subspace.from_spanning(
        B.dim, [D.inclusionA.col(a) for a in range(D.dimA)], field)
    coinv_ok = coinv == declared
    # B over A: right module via right multiplication by the image of A
    Aalg, Aincl = subalgebra_on_rows(B, declared)
    actB = [B.right_mult_matrix(Aincl.col(a)) for a in range(Aalg.dim)]
    MB = ModuleOverA(Aalg, B.dim, actB, side="right")
    B_proj, _ = is_projective(MB)
    # central connectedness: one primitive idempotent in the center
    Z = center(B)
    Zalg, _ = subalgebra_on_rows(B, Z)
    try:
        connected = len(central_idempotents_split(Zalg)) == 1
    except NotSplit:
        connected = False
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
# convolution category and cleftness

class ConvMorphism:
    """A morphism domain -> codomain (labels in {R, L}) of the two-object
    convolution category built from H's two corings and B's two ring
    structures; the underlying map is a matrix H -> B."""

    def __init__(self, ambient, domain, codomain, map):
        if domain not in ("R", "L") or codomain not in ("R", "L"):
            raise LabelMismatch("labels must be R or L")
        self.ambient = ambient       # ComoduleAlgebraData
        self.domain = domain
        self.codomain = codomain
        self.map = map


def conv_identity(D, label):
    """Identity of the object named by label: eta . eps_label."""
    Hd = D.H
    eps = Hd.rightb.counit if label == "R" else Hd.leftb.counit
    return ConvMorphism(D, label, label, D.etaR * eps)


def convolution_compose(f, g):
    """f * g = mu_J . (f (x)_J g) . Delta_J for f: J -> I and g: K -> J."""
    if f.ambient is not g.ambient:
        raise LabelMismatch("morphisms live over different instances")
    if f.domain != g.codomain:
        raise LabelMismatch("inner labels disagree: %s vs %s"
                            % (f.domain, g.codomain))
    D = f.ambient
    J = f.domain
    dd = D.H.rightb.coproduct_lift if J == "R" else D.H.leftb.coproduct_lift
    return ConvMorphism(D, g.domain, f.codomain,
                        D.B.convolve(f.map, g.map, dd))


def _conv_inverse(D, c):
    """Solve for d: L -> R with c * d = mu (c (x) d) Delta_R = id_L and
    d * c = mu (d (x) c) Delta_L = id_R."""
    B, Hd = D.B, D.H
    blocks = [(B.convolution_terms(c.map, Hd.rightb.coproduct_lift, 1),
               conv_identity(D, "L").map),
              (B.convolution_terms(c.map, Hd.leftb.coproduct_lift, 0),
               conv_identity(D, "R").map)]
    return ConvMorphism(D, "L", "R",
                        solve_map(blocks, B.dim, Hd.total.dim, D.field))


def check_cleft(D, c, seed=0):
    """Cleftness through the witness c: R -> L: bimodule type, linear
    solvability of a convolution inverse, the comodule-map square, and a
    bounded search, seeded by seed, for a normal-basis witness (raises
    Inconclusive when the search is exhausted without an invertible
    combination)."""
    rep = ViolationReport()
    B = D.B
    H = D.H.total
    Hd = D.H
    field = D.field
    dH = H.dim
    rep.require(c.domain == "R" and c.codomain == "L", "cleft:labels")
    # L-R bimodule map: c(sL(l) h) = etaL(l) c(h), c(h sR(r)) = c(h) etaR(r)
    for l in range(Hd.leftb.base.dim):
        sl = H.left_mult_matrix(Hd.leftb.s.col(l))
        el = B.left_mult_matrix(D.etaR.col(l))
        rep.require(c.map * sl == el * c.map, "cleft:bimodule", (l,),
                    note="left structure")
    for r in range(Hd.rightb.base.dim):
        sr = H.right_mult_matrix(Hd.rightb.s.col(r))
        er = B.right_mult_matrix(D.etaR.col(r))
        rep.require(c.map * sr == er * c.map, "cleft:bimodule", (r,),
                    note="right structure")
    # convolution inverse
    try:
        _conv_inverse(D, c)
    except NoSolution:
        rep.require(False, "cleft:invertibility",
                    note="no convolution inverse exists")
    # comodule-map square
    sqR = D.tensorRH()
    lhs = sqR.apply(D.rhoR_lift * c.map)
    rhs = sqR.apply(kron_cols(c.map, Mat.identity(dH, field),
                              Hd.rightb.coproduct_lift))
    rep.require(lhs == rhs, "cleft:comodule-map")
    if rep.ok:
        _normal_basis_witness(D, rep, seed)
    return rep


def _normal_basis_solutions(D):
    """The quotient A (x)_L H and the kernel basis, as (dA*dH) x dB Mats
    at lift level, of the linear system for a left-A-linear
    right-comodule map B -> A (x)_L H."""
    B = D.B
    H = D.H.total
    Hd = D.H
    field = D.field
    dB, dH = B.dim, H.dim
    coin = coinvariants(D, "R")
    dA = coin.dim
    Aalg, Aincl = subalgebra_on_rows(B, coin)
    # A (x)_L H with L acting on A through eta and on H through s_L
    etaA = Mat.from_cols([coin.coords(D.etaR.col(l))
                          for l in range(Hd.leftb.base.dim)], dA, field)
    right_acts = [Aalg.right_mult_matrix(etaA.col(l))
                  for l in range(Hd.leftb.base.dim)]
    sqAH = D._tensor([dA, dH], [(right_acts, Hd.leftb.acts()[1])])
    # triple quotient (A x H x H): legs (A,H) over L, (H,H) over R; its
    # stages are sqAH and H's square, so neither is built again
    T = tensor_over([dA, dH, dH], [(right_acts, Hd.leftb.acts()[1]),
                                   Hd.rightb.acts()], field, D._quotients)
    # unknown theta: B -> A (x) H at lift level, (dA*dH) x dB.  Left
    # A-linearity after projection to sqAH: P theta L_a = P (L_a (x) id)
    # theta for every a; the comodule-map square in the triple quotient:
    # T (id (x) Delta_R) theta = T (theta (x) id) rho, the right side a sum
    # over the H-leg h of rho of T E_h theta slice_h, where E_h is
    # alpha -> alpha (x) e_h
    units = [{alpha: field.one} for alpha in range(dA * dH)]
    P, I_H, minus = sqAH.apply(units), Mat.identity(dH, field), -field.one
    blocks = [([(P, B.left_mult_matrix(Aincl.col(a))),
                (sqAH.apply(kron_cols(Aalg.left_mult_matrix(a), I_H,
                                      units)).scale(minus), None)], None)
              for a in range(dA)]
    square = [(T.apply(kron_cols(Mat.identity(dA, field),
                                 Hd.rightb.coproduct_lift, units)), None)]
    for h, P in enumerate(leg_slices(D.rhoR_lift, dH, 1)):
        E_h = [{alpha * dH + h: minus} for alpha in range(dA * dH)]
        square.append((T.apply(E_h), P))
    blocks.append((square, None))
    return sqAH, solve_map(blocks, dA * dH, dB, field, want_kernel=True)[1]


def _normal_basis_witness(D, rep, seed):
    """Search the solutions of _normal_basis_solutions, then seeded
    combinations of them, for an invertible one."""
    sqAH, sols = _normal_basis_solutions(D)
    dB, field = D.B.dim, D.field
    if sqAH.dim != dB:
        rep.require(False, "cleft:normal-basis",
                    note="dimension mismatch: %d vs %d" % (sqAH.dim, dB))
        return
    if not sols:
        rep.require(False, "cleft:normal-basis", note="only zero solution")
        return
    for K in sols:
        if rank(sqAH.apply(K)) == dB:
            rep.require(True, "cleft:normal-basis")
            return
    rng = random.Random(seed)
    for _ in range(64):
        combo = [{} for _ in range(dB)]
        for K in sols:
            coeff = field.random(rng)
            if coeff:
                for col, kcol in zip(combo, K.sparse_cols()):
                    _add_scaled(col, coeff, kcol, field.zero)
        if rank(sqAH.apply(combo)) == dB:
            rep.require(True, "cleft:normal-basis")
            return
    raise Inconclusive("normal-basis search exhausted without an "
                       "invertible witness")


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
    symmetries are Hopf algebras over k)."""
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
    g1 = galois_maps(D1)
    g = galois_maps(D)
    g2 = galois_maps(D2)
    Q1AA, QAA, Q2AA = D1.tensorAA(), D.tensorAA(), D2.tensorAA()
    for side in ("R", "L"):
        Q1BH = D1.tensorRH() if side == "R" else D1.tensorLH()
        QBH = D.tensorRH() if side == "R" else D.tensorLH()
        Q2BH = D2.tensorRH() if side == "R" else D2.tensorLH()
        key = "gal%s" % side
        # (i): (iota x phi) gal_1 = gal (iota x iota)
        lhs = QBH.apply(kron_cols(iota, phi, Q1BH.section_cols)) * g1[key]
        rhs = g[key] * QAA.apply(kron_cols(iota, iota, Q1AA.section_cols))
        rep.require(lhs == rhs, "composition:(i):%s" % side)
        # (ii): (id x psi) gal = gal_2 surj
        surj = Q2AA.apply(QAA.section_cols)
        lhs = Q2BH.apply(kron_cols(I_B2, psi, QBH.section_cols)) * g[key]
        rhs = g2[key] * surj
        rep.require(lhs == rhs, "composition:(ii):%s" % side)
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
    B1 = D1.B
    for side in ("R", "L"):
        Q1BH = D1.tensorRH() if side == "R" else D1.tensorLH()
        H2b = D2.H.rightb if side == "R" else D2.H.leftb
        H1b = D1.H.rightb if side == "R" else D1.H.leftb
        H2 = D2.H.total
        # B1 (x)_{B1} H2: B1 acts on H2 through s_2
        right_acts = [B1.right_mult_matrix(b) for b in range(B1.dim)]
        left_acts = [H2.left_mult_matrix((H2b.s * _b1_to_base(D2)).col(b))
                     for b in range(B1.dim)]
        T = tensor_over([B1.dim, H2.dim], [(right_acts, left_acts)], field)
        comp = psi * phi
        se = (H2b.s * _b1_to_base(D2)) * (D1.etaR * H1b.counit)
        I_B1, lifts = Mat.identity(B1.dim, field), Q1BH.section_cols
        lhs = T.apply(kron_cols(I_B1, comp, lifts))
        rhs = T.apply(kron_cols(I_B1, se, lifts))
        rep.require(lhs == rhs, "composition:prop4:%s" % side)


def _b1_to_base(D2):
    """Coordinates of B1 (the declared A of the inner covering) in the base
    of its symmetry; identity when they already share coordinates."""
    b = D2.H.rightb.base.dim
    if D2.inclusionA.cols == b:
        return Mat.identity(b, D2.field)
    raise ShapeMismatch("inner covering base does not match B1")


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
        sq = D2.tensorRH() if side == "R" else D2.tensorLH()
        lhs = sq.apply(kron_cols(beta, phi, rho1))
        rhs = sq.apply(rho2 * beta)
        rep.require(lhs == rhs, "topo:coaction:%s" % side)
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


def _iso_check(rep, tag, iso, sq, target_dim):
    rep.require(iso.rows == target_dim and iso.cols == sq.dim
                and rank(iso) == sq.dim and sq.dim == target_dim,
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
    _iso_check(rep, "morita:XY", isos["XY"], sqXY, B1.dim)
    _iso_check(rep, "morita:YX", isos["YX"], sqYX, B2.dim)
    _iso_equivariance(rep, "morita:XY", isos["XY"], sqXY, X, Y, B1, True)
    _iso_equivariance(rep, "morita:YX", isos["YX"], sqYX, Y, X, B2, True)
    # collapsed (A, -)-bimodule isomorphisms
    for tag, W, target, incl_src, incl_tgt in (
            ("morita:Y-collapse", Y, B1, D2.inclusionA, D1.inclusionA),
            ("morita:X-collapse", X, B2, D1.inclusionA, D2.inclusionA)):
        iso = isos["Ycollapse" if W is Y else "Xcollapse"]
        rep.require(iso.rows == target.dim and iso.cols == W.dim
                    and rank(iso) == W.dim and W.dim == target.dim,
                    tag + ":bijective")
        for a in range(D1.dimA):
            Lsrc = Mat.from_cols([{}] * W.dim, W.dim, field)
            for i, c in incl_src.col(a).items():
                Lsrc = Lsrc + W.left_acts[i].scale(c)
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
    _iso_check(rep, "morita:UV", isos["UV"], sqUV, H1.dim)
    _iso_check(rep, "morita:VU", isos["VU"], sqVU, H2.dim)
    _iso_equivariance(rep, "morita:UV", isos["UV"], sqUV, U.bimodule,
                      V.bimodule, H1, False)
    _iso_equivariance(rep, "morita:VU", isos["VU"], sqVU, V.bimodule,
                      U.bimodule, H2, False)
    # collapsed Hopf isomorphisms: U = H2 and V = H1 as right modules and
    # right comodules
    for name, W, D in (("U", U, D2), ("V", V, D1)):
        iso, H, dim = isos[name + "collapse"], D.H.total, W.bimodule.dim
        tag = "morita:%s-collapse" % name
        rep.require(iso.rows == H.dim and iso.cols == dim
                    and rank(iso) == dim and dim == H.dim, tag + ":bijective")
        for j in range(H.dim):
            rep.require(iso * W.bimodule.right_acts[j]
                        == H.right_mult_matrix(j) * iso,
                        tag + ":equivariance", (j,))
        lifted = kron_cols(iso, Mat.identity(H.dim, field), W.rcoact)
        rep.require(Mat.from_cols(lifted, iso.rows * H.dim, field)
                    == D.H.rightb.coproduct_lift * iso, tag + ":comodule")
    return rep


# ---------------------------------------------------------------------------
# serialization

def comodule_to_json(D):
    from .linalg import mat_to_json
    from .hopfalgebroid import hopf_to_json
    return {"hopf_algebroid": hopf_to_json(D.H),
            "B": D.B.to_json(),
            "inclusionA": mat_to_json(D.inclusionA),
            "rhoR_lift": mat_to_json(D.rhoR_lift),
            "rhoL_lift": mat_to_json(D.rhoL_lift),
            "etaR": mat_to_json(D.etaR),
            "actL": [mat_to_json(a) for a in D.actL],
            "name": D.name}


def comodule_from_json(doc, H=None):
    """The comodule algebra of doc; H, when given, is the Hopf algebroid
    already parsed from doc["hopf_algebroid"]."""
    from .linalg import shaped_mat_from_json
    from .hopfalgebroid import hopf_from_json
    if H is None:
        H = hopf_from_json(doc["hopf_algebroid"])
    B = FDAlgebra.from_json(doc["B"])
    field, dB, dH = B.field, B.dim, H.total.dim
    etaR = (shaped_mat_from_json(doc, "etaR", dB, H.rightb.base.dim, field)
            if "etaR" in doc else None)
    actL = None
    if "actL" in doc:
        if len(doc["actL"]) != H.leftb.base.dim:
            raise ValueError("'actL' has %d matrices, must have %d" % (
                len(doc["actL"]), H.leftb.base.dim))
        actL = [shaped_mat_from_json({"actL": a}, "actL", dB, dB, field)
                for a in doc["actL"]]
    return ComoduleAlgebraData(
        H, B, shaped_mat_from_json(doc, "inclusionA", dB, None, field),
        shaped_mat_from_json(doc, "rhoR_lift", dB * dH, dB, field),
        shaped_mat_from_json(doc, "rhoL_lift", dB * dH, dB, field),
        name=doc.get("name"), etaR=etaR, actL=actL)


def cocycle_to_json(C):
    from .linalg import mat_to_json
    from .hopfalgebroid import bialgebroid_to_json
    return {"total": C.BL.total.to_json(),
            "bialgebroid": bialgebroid_to_json(C.BL),
            "N": C.N.to_json(),
            "etaN": mat_to_json(C.etaN),
            "action": mat_to_json(C.action),
            "sigma": mat_to_json(C.sigma),
            "name": C.name}


def cocycle_from_json(doc):
    from .linalg import shaped_mat_from_json
    from .hopfalgebroid import bialgebroid_from_json
    total = FDAlgebra.from_json(doc["total"])
    BL = bialgebroid_from_json(doc["bialgebroid"], total)
    N = FDAlgebra.from_json(doc["N"])
    field, dN, dB = N.field, N.dim, total.dim
    return CocycleData(
        BL, N, shaped_mat_from_json(doc, "etaN", dN, BL.base.dim, field),
        shaped_mat_from_json(doc, "action", dN, dB * dN, field),
        shaped_mat_from_json(doc, "sigma", dN, dB * dB, field),
        name=doc.get("name"))


def composition_to_json(D1, D, D2, phi, psi, f1=None, f=None):
    from .linalg import mat_to_json
    out = {"inner": comodule_to_json(D1),
           "middle": comodule_to_json(D),
           "outer": comodule_to_json(D2),
           "phi": mat_to_json(phi),
           "psi": mat_to_json(psi)}
    if f1 is not None:
        out["f1"] = mat_to_json(f1)
    if f is not None:
        out["f"] = mat_to_json(f)
    return out


def composition_from_json(doc):
    """The composition of doc.  Equal hopf_algebroid payloads are parsed
    once, so their comodule algebras share one H and its quotients."""
    from .linalg import shaped_mat_from_json
    from .hopfalgebroid import hopf_from_json
    parsed = []   # (payload, H)

    def comodule(part):
        payload = part["hopf_algebroid"]
        H = next((H for seen, H in parsed if seen == payload), None)
        if H is None:
            H = hopf_from_json(payload)
            parsed.append((payload, H))
        return comodule_from_json(part, H)
    D1 = comodule(doc["inner"])
    D = comodule(doc["middle"])
    D2 = comodule(doc["outer"])
    field = D.field
    h1, h, h2 = (E.H.total.dim for E in (D1, D, D2))
    b1, b, b2 = (E.H.rightb.base.dim for E in (D1, D, D2))
    phi = shaped_mat_from_json(doc, "phi", h, h1, field)
    psi = shaped_mat_from_json(doc, "psi", h2, h, field)
    f1 = shaped_mat_from_json(doc, "f1", b, b1, field) if "f1" in doc \
        else None
    f = shaped_mat_from_json(doc, "f", b2, b, field) if "f" in doc else None
    return D1, D, D2, phi, psi, f1, f
