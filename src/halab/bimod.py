"""Tensor products balanced over a base algebra.

Every tensor quotient over a base is built by one function,
tensor_over(dims, pairs, field, memo=None): the legs are coordinate spaces
k^dims[i] and pairs[i] = (right_acts, left_acts) balances leg i against
leg i+1 by the relations

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

  [several legs]  H (x)_L H (x)_R H, B (x)_R H (x)_L H, ... are built in
      stages: Q balances every leg but the last, the last pair is
      balanced on its own, and one elimination runs over the rows of Q
      (x) e_j and e_a (x) the last pair's rows, for every basis vector e_a
      of the legs before that pair.  These span the same relations as all
      pairs' relations at once (V (x) span R is V (x) R, bimodule or
      not), and canonical RREF rows are unique for a span, so the rows
      are those of the direct build.  For base k nothing is eliminated.
      A checker asks for one only when two lifts differ (linalg.equal_in).

  [Kronecker indexing]  as in linalg.kron: leg 0 is the slowest index,
      (i tensor j) -> i*dims[1] + j for two legs.

No Takeuchi subspace is built: hopfalgebroid decides the corestriction
of a coproduct to the Takeuchi product by comparing lifts in the square.
Vectors of a tensor product are dicts of their nonzeros, as in linalg:
pair_mul takes and returns them.
"""

import math

from .linalg import quotient_by, ShapeMismatch


class BaseMismatch(ValueError):
    pass


def tensor_over(dims, pairs, field, memo=None):
    """The QuotientPresentation of k^dims[0] (x) ... (x) k^dims[-1] by the
    balancing relations of every pairs[i] = (right_acts, left_acts); three
    or more legs are built in stages (see [several legs] above).  memo, a
    list shared by the callers that may ask for equal inputs, holds every
    quotient built on it, stages included: an equal build found there is
    returned as it is, so each distinct quotient is built once."""
    memo = [] if memo is None else memo
    key = (dims, pairs, field)
    for seen, qp in memo:
        if seen == key:
            return qp
    for right_acts, left_acts in pairs:
        if len(right_acts) != len(left_acts):
            raise BaseMismatch("base dimension mismatch between the two legs")
    if len(dims) <= 2:
        qp = quotient_by(math.prod(dims), [
            v for right_acts, left_acts in pairs
            for Ra, La in zip(right_acts, left_acts)
            for v in _balance(Ra, La, range(math.prod(dims))) if v], field)
    else:
        d = dims[-1]
        Q = tensor_over(dims[:-1], pairs[:-1], field, memo)
        last = tensor_over(dims[-2:], pairs[-1:], field, memo)
        step = last.ambient_dim
        qp = quotient_by(math.prod(dims), [
            {c * d + j: x for c, x in row.items()}  # Q's rows (x) e_j
            for row in Q.rows.values() for j in range(d)] + [
            {a * step + bj: x for bj, x in row.items()}  # e_a (x) last's rows
            for a in range(math.prod(dims[:-2]))
            for row in last.rows.values()], field)
    memo.append((key, qp))
    return qp


def _balance(A, B, cols):
    """A e_i (x) e_j - e_i (x) B e_j as a dict of its nonzeros, for every
    column i * B.rows + j in cols: the columns of kron(A, I) - kron(I, B)."""
    zero, d = A.field.zero, B.rows
    acols, bcols = A.sparse_cols(), B.sparse_cols()
    out = []
    for ij in cols:
        i, j = divmod(ij, d)
        v = {}
        for k, c in acols[i].items():
            v[k * d + j] = v.get(k * d + j, zero) + c
        for l, c in bcols[j].items():
            v[i * d + l] = v.get(i * d + l, zero) - c
        out.append({k: x for k, x in v.items() if x})
    return out


def pair_mul(A, B, u, v):
    """The factorwise product of u and v in A (x) B, each a dict of its
    nonzeros, as the dict of the product's nonzeros."""
    dB, zero, acc = B.dim, A.field.zero, {}
    nz_v = v.items()
    try:
        if u and min(u) < 0 or v and min(v) < 0:
            raise IndexError                    # a list would wrap it
        for iu, cu in u.items():
            a1, b1 = divmod(iu, dB)
            for iv, cv in nz_v:
                a2, b2 = divmod(iv, dB)
                bb = B.mul[b1][b2].items()
                c = cu * cv
                for p, x in A.mul[a1][a2].items():
                    cp, base = c * x, p * dB
                    for q, y in bb:
                        acc[base + q] = acc.get(base + q, zero) + cp * y
    except IndexError:
        raise ShapeMismatch("factor index outside dimension %d"
                            % (A.dim * dB)) from None
    return {k: x for k, x in acc.items() if x}
