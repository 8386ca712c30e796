"""Tensor products balanced over a base algebra and Takeuchi subspaces.

Every tensor quotient over a base is built by one function,
tensor_over(dims, pairs, field): the legs are coordinate spaces k^dims[i]
and pairs[i] = (right_acts, left_acts) balances leg i against leg i+1 by
the relations

    (x_i . r) (x) x_{i+1}  -  x_i (x) (r . x_{i+1})

for every base basis element r, all other legs held at basis vectors.
right_acts[r] is the matrix of the right action of r on leg i and
left_acts[r] that of the left action of r on leg i+1.

Convention table (BialgebroidData.acts() returns the pair for its side):

  [right bialgebroid]   r . b . r' := b s_R(r') t_R(r)
      acts() = (right mult by s_R(r), right mult by t_R(r))
      H (x)_R H relations:  b s_R(r) (x) b'  -  b (x) b' t_R(r)

  [left bialgebroid]    l . b . l' := s_L(l) t_L(l') b
      acts() = (left mult by t_L(l), left mult by s_L(l))
      H (x)_L H relations:  t_L(l) b (x) b'  -  b (x) s_L(l) b'

  [several legs]  H (x)_L H (x)_R H, B (x)_R H (x)_L H, ... are a single
      quotient of the plain tensor product by every pair's relations at
      once; association order is immaterial for the resulting subquotient.

  [Kronecker indexing]  as in linalg.kron: leg 0 is the slowest index,
      (i tensor j) -> i*dims[1] + j for two legs.

takeuchi and check_takeuchi_closure project sparse lifts with
QuotientPresentation.project/apply: no Kronecker or dense matrix product.
"""

import itertools

from .linalg import Mat, quotient_by, kernel, kron_cols
from .reports import ViolationReport


class BaseMismatch(ValueError):
    pass


def tensor_over(dims, pairs, field):
    """The QuotientPresentation of k^dims[0] (x) ... (x) k^dims[-1] by the
    balancing relations of every pairs[i] = (right_acts, left_acts)."""
    n = len(dims)
    for right_acts, left_acts in pairs:
        if len(right_acts) != len(left_acts):
            raise BaseMismatch("base dimension mismatch between the two legs")
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    rels = []
    for leg, (right_acts, left_acts) in enumerate(pairs):
        sa, sb = strides[leg], strides[leg + 1]
        other = [i for i in range(n) if i not in (leg, leg + 1)]
        for Ra, La in zip(right_acts, left_acts):
            # the nonzeros of each column of Ra and La, read once
            rcols = [[(k, c) for k, c in enumerate(Ra.col(i)) if c]
                     for i in range(dims[leg])]
            lcols = [[(l, c) for l, c in enumerate(La.col(j)) if c]
                     for j in range(dims[leg + 1])]
            for idx in itertools.product(*[range(dims[i]) for i in other]):
                base = sum(strides[i] * v for i, v in zip(other, idx))
                for i in range(dims[leg]):
                    for j in range(dims[leg + 1]):
                        v = {}
                        for k, c in rcols[i]:
                            key = base + k * sa + j * sb
                            v[key] = v.get(key, field.zero) + c
                        for l, c in lcols[j]:
                            key = base + i * sa + l * sb
                            v[key] = v.get(key, field.zero) - c
                        v = {k: x for k, x in v.items() if x}
                        if v:
                            rels.append(v)
    return quotient_by(strides[0] * dims[0], rels, field)


class TakeuchiSubspace:
    def __init__(self, ambient, space):
        self.ambient = ambient  # QuotientPresentation of the square
        self.space = space      # Subspace in quotient coordinates


def takeuchi(square, first, second):
    """The subspace of the tensor square where
    sum first[r] b_i (x) b_i' = sum b_i (x) second[r] b_i'
    for every base element r.  For a right bialgebroid first/second are
    left multiplication by s_R(r) and t_R(r); for a left one, right
    multiplication by t_L(l) and s_L(l).  The constraint's columns are the
    projections of A e_i (x) e_j - e_i (x) B e_j at the non-pivots (i, j)."""
    rows = []
    lifts, zero = square.section_cols, square.field.zero
    for A, B in zip(first, second):
        I = Mat.identity(A.rows, A.field)
        cols = kron_cols(A, I, lifts)
        for u, v in zip(cols, kron_cols(I, B, lifts)):
            for r, x in v.items():
                u[r] = u.get(r, zero) - x
        rows.extend(square.apply(cols).data)
    stacked = Mat(len(rows), square.dim, rows, square.field)
    return TakeuchiSubspace(square, kernel(stacked))


def check_takeuchi_closure(H, tk):
    """Factorwise products of spanning elements of the Takeuchi subspace
    stay inside it (so multiplication is well defined there)."""
    rep = ViolationReport()
    sq = tk.ambient
    # the lifts of the basis, as dicts at the non-pivot columns
    lifts = [{c: v[qi] for c, qi in sq.index.items() if v[qi]}
             for v in tk.space.basis_rows]
    d = H.dim
    for a, u in enumerate(lifts):
        for b, v in enumerate(lifts):
            prod = {}
            for iu, cu in u.items():
                i, j = divmod(iu, d)
                for iv, cv in v.items():
                    k, l = divmod(iv, d)
                    left = H.mul[i][k]
                    right = H.mul[j][l]
                    c = cu * cv
                    for p, x in enumerate(left):
                        if x:
                            for q, y in enumerate(right):
                                if y:
                                    key = p * d + q
                                    prod[key] = prod.get(
                                        key, H.field.zero) + c * x * y
            rep.require(tk.space.contains(sq.project(prod)),
                        "takeuchi:closure", (a, b))
    return rep
