"""Deterministic exact linear algebra over Q and Q(zeta_N).

Everything downstream (axiom checks, coinvariants, Galois maps) reduces to
row reduction, kernels, affine solves and quotient presentations computed
here.  A vector has one form: the dict {index: value} of its nonzeros,
with no zero values.  Every kernel keeps that invariant (_combine,
_add_scaled, Mat sums, scale, products, matvec, kron_cols, project,
solve_map, mat_from_json), so == on vectors and on Mats is a plain dict
comparison, and a cancelled entry is dropped where it cancels.  A Mat is
its nonzero columns, and the library builds every Mat from them:
Mat.from_cols stores dict columns as given, and products, sums, kron and
QuotientPresentation.apply build them, so no product, projection or
comparison walks a zero cell.  Results may be shared (col(j) is the
stored column), so no caller modifies one.  The dense constructors
Mat(rows, cols, data), zero and copy() stay for tests and benchmark
mutations, which write entries into .data; such a Mat builds its columns
on the first column read.  Pivots divide through field.div: over Q an
integral scalar is an int.  An index outside a vector's range raises
ShapeMismatch.

One elimination engine, _echelon_dict, does every row reduction: it takes
dict rows of nonzeros and returns the canonical RREF (leftmost-first-
nonzero pivots, fully back-substituted), so subspace equality is a plain
comparison of dict rows.  It reduces each incoming vector in one pass
(_reduce, which Subspace.contains shares) and back-substitutes a new
pivot only into the rows that are nonzero there, found through a column
index.  rref, rank, kernel, image, solve_affine_sparse, inverse, det,
Subspace and quotient_by are views of its output; a Mat reaches it as
dict rows read from its columns.  A QuotientPresentation stores only the
canonical relation rows: project(vec) returns the dict of a projected
vector's nonzeros and apply(M) = proj * M is the Mat of the projected
columns.

Every system for an unknown linear map goes through solve_map(blocks,
rows, cols, field): sum L X R = rhs per block, unknown X[p][q] at column
p * cols + q, solved by solve_affine_sparse, so no caller numbers
unknowns by hand.  leg_slices cuts a lift into the per-leg slices that
turn a convolution with an unknown leg into such terms.  Polynomials are
not here: fields holds the one polynomial toolkit.

A lift through a tensor product takes one of two product paths:
kron_cols(A, B, M), the columns of kron(A, B) * M built from the nonzeros
of the three factors (so (Delta (x) id) Delta is never a Kronecker
product), and algebra.FDAlgebra.convolve(F, G, lift), mu (F (x) G) lift
read off the structure constants.  kron itself is kron_cols over identity
columns; it stays for tests and the benchmark harness, which read it, and
for the coupled:commute lines of hopfalgebroid.check_coupled.

Kronecker convention, fixed once for the whole package:
    kron(A, B) acts on pure tensors by (i tensor j) -> i*dimB + j,
i.e. the second factor varies fastest.
"""

from operator import add, sub

from .fields import QQ


class ShapeMismatch(ValueError):
    pass


class NoSolution(Exception):
    """Signal: the affine system is infeasible.  Not a fault."""


class Mat:
    """A rows x cols matrix, held as its nonzero columns: dicts {row:
    value}.  The library builds every Mat from its columns (from_cols,
    identity, products, sums, kron, QuotientPresentation.apply).
    Mat(rows, cols, data), zero and copy() hold dense rows instead,
    because tests and benchmark mutations write entries into .data; such
    a Mat builds its columns on the first column read, and no reader sees
    a later write.  Reading .data of a Mat built from its columns builds
    the dense rows once, as a view.  To change entries of a Mat that was
    read, write them on a copy()."""

    __slots__ = ("rows", "cols", "field", "_data", "_cols")

    def __init__(self, rows, cols, data, field=QQ):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch("bad matrix data shape")
        self.rows = rows
        self.cols = cols
        self.field = field
        self._data = data
        self._cols = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_cols(cls, cols_list, ambient_dim, field=QQ):
        """The ambient_dim x len(cols_list) matrix with these columns, each
        a dict {row: value} of its nonzeros, stored as given (and shared:
        the caller does not modify them afterwards)."""
        M = cls.__new__(cls)
        M.rows = ambient_dim
        M.cols = len(cols_list)
        M.field = field
        M._data = None
        M._cols = list(cols_list)
        return M

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        z = field.zero
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        return cls.from_cols([{i: field.one} for i in range(n)], n, field)

    # -- the two forms ----------------------------------------------------

    @property
    def data(self):
        """The dense rows (built from the columns on the first read when
        the Mat was built from them)."""
        if self._data is None:
            z = self.field.zero
            rows = [[z] * self.cols for _ in range(self.rows)]
            for j, col in enumerate(self._cols):
                for i, x in col.items():
                    rows[i][j] = x
            self._data = rows
        return self._data

    def sparse_cols(self):
        """The columns as dicts {row: value} of their nonzeros, shared by
        every call (callers do not modify them)."""
        if self._cols is None:
            cols = [{} for _ in range(self.cols)]
            for i, r in enumerate(self._data):
                for j, x in enumerate(r):
                    if x:
                        cols[j][i] = x
            self._cols = cols
        return self._cols

    def copy(self):
        return Mat(self.rows, self.cols, [list(r) for r in self.data],
                   self.field)

    def col(self, j):
        """Column j as the shared dict {row: value} of its nonzeros."""
        return self.sparse_cols()[j]

    # -- arithmetic, column by column -------------------------------------

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def _merge(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("%dx%d vs %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        zero, out = self.field.zero, []
        for a, b in zip(self.sparse_cols(), other.sparse_cols()):
            c = dict(a)
            for i, x in b.items():
                v = op(c.get(i, zero), x)
                if v:
                    c[i] = v
                else:
                    del c[i]
            out.append(c)
        return Mat.from_cols(out, self.rows, self.field)

    def scale(self, c):
        return Mat.from_cols([{i: c * x for i, x in col.items()} if c else {}
                              for col in self.sparse_cols()],
                             self.rows, self.field)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("cannot multiply %dx%d by %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        cols, zero = self.sparse_cols(), self.field.zero
        return Mat.from_cols([_combine(cols, col, zero)
                              for col in other.sparse_cols()],
                             self.rows, self.field)

    def matvec(self, vec):
        """self * vec for a dict {col: value} of nonzeros, as the dict of
        the nonzeros of the product."""
        try:
            return _combine(self.sparse_cols(), vec, self.field.zero)
        except IndexError:
            raise ShapeMismatch("matvec index outside %d columns"
                                % self.cols) from None

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.sparse_cols() == other.sparse_cols()

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(
            frozenset(col.items()) for col in self.sparse_cols())))

    def is_zero(self):
        return not any(self.sparse_cols())

    def __repr__(self):
        return "Mat(%dx%d)" % (self.rows, self.cols)


def _combine(cols, vec, zero):
    """sum of v * cols[k] over the items (k, v) of the dict vec, as the
    dict of its nonzeros: entries that cancel are dropped."""
    acc = {}
    for k, v in vec.items():
        for i, a in cols[k].items():
            acc[i] = acc.get(i, zero) + a * v
    return {i: x for i, x in acc.items() if x}


def _add_scaled(acc, c, vec, zero):
    """acc += c * vec for dicts of nonzeros, in place; acc stays free of
    zeros."""
    for k, x in vec.items():
        v = acc.get(k, zero) + c * x
        if v:
            acc[k] = v
        else:
            del acc[k]


def _columns(M):
    """The sparse columns of a Mat; a list of dict columns is returned as
    it is."""
    return M.sparse_cols() if isinstance(M, Mat) else M


def kron_cols(A, B, M):
    """The columns of kron(A, B) * M as dicts {row: value}, built from the
    nonzeros of A, B and M without forming the Kronecker product.  M is a
    Mat or a list of dict columns."""
    acols, bcols = _columns(A), _columns(B)
    zero = A.field.zero
    out = []
    for col in _columns(M):
        acc = {}
        for kl, v in col.items():
            k, l = divmod(kl, B.cols)
            bl = bcols[l].items()
            for i, a in acols[k].items():
                va, base = v * a, i * B.rows
                for j, b in bl:
                    acc[base + j] = acc.get(base + j, zero) + va * b
        out.append({r: x for r, x in acc.items() if x})
    return out


def kron(A, B):
    """Kronecker product with (i tensor j) -> i*B.rows + j on row indices
    and (k tensor l) -> k*B.cols + l on column indices: kron_cols over the
    identity columns."""
    one = A.field.one
    return Mat.from_cols(
        kron_cols(A, B, [{c: one} for c in range(A.cols * B.cols)]),
        A.rows * B.rows, A.field)


def vstack(mats, ncols, field=QQ):
    """The Mats in mats, each with ncols columns, stacked top to bottom."""
    cols, top = [{} for _ in range(ncols)], 0
    for M in mats:
        for col, c in zip(cols, M.sparse_cols()):
            for i, x in c.items():
                col[top + i] = x
        top += M.rows
    return Mat.from_cols(cols, top, field)


def _rows(M):
    """The rows of M as dicts {col: value}, read from its columns."""
    rows = [{} for _ in range(M.rows)]
    for j, col in enumerate(M.sparse_cols()):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _reduce(vec, rows, zero):
    """The dict vec minus v[q] * rows[q] for every pivot q in its support,
    as a new dict of its nonzeros.  Every row of rows is zero at every
    other pivot, so this one pass leaves vec zero at every pivot."""
    v = dict(vec)
    for q in v.keys() & rows.keys():
        f = v[q]
        for c, x in rows[q].items():
            nv = v.get(c, zero) - f * x
            if nv:
                v[c] = nv
            elif c in v:
                del v[c]
    return v


def _echelon_dict(vectors, field):
    """The one elimination engine: canonical RREF of a spanning set of
    vectors, each a dict {col: value} of nonzeros.  Returns (rows, scalars):
    rows maps each pivot column to its fully back-substituted dict row, in
    the order the pivots were found; scalars are the pivot values the new
    rows were divided by, in the same order.

    One _reduce pass reduces an incoming vector completely.  where maps
    each non-pivot column to the pivots whose rows are nonzero there, so a
    new pivot is back-substituted into those rows only."""
    zero, div = field.zero, field.div
    rows = {}  # pivot column -> dict col -> value
    where = {}  # non-pivot column -> set of pivots nonzero there
    scalars = []
    for vec in vectors:
        v = _reduce(vec, rows, zero)
        if not v:
            continue
        p = min(v)
        piv = v.pop(p)
        row = v if piv == 1 else {c: div(x, piv) for c, x in v.items()}
        for c in row:
            where.setdefault(c, set()).add(p)
        for q in where.pop(p, ()):
            other = rows[q]
            f = other.pop(p)
            for c, x in row.items():
                nv = other.get(c, zero) - f * x
                if nv:
                    if c not in other:
                        where[c].add(q)
                    other[c] = nv
                elif c in other:
                    del other[c]
                    where[c].discard(q)
        row[p] = field.one
        rows[p] = row
        scalars.append(piv)
    return rows, scalars


def _kernel_vectors(rows, ncols, field):
    """One null vector per free column f below ncols of the echelon rows,
    as a dict: 1 at f, minus the rows' entries at f at their pivots."""
    kern = {f: {f: field.one} for f in range(ncols) if f not in rows}
    for p, row in rows.items():
        for c, x in row.items():
            if c in kern:
                kern[c][p] = -x
    return list(kern.values())


def rref(M):
    """Reduced row echelon form with the leftmost-first-nonzero pivot rule.
    Returns (R, pivot column list)."""
    rows = _echelon_dict(_rows(M), M.field)[0]
    pivots = sorted(rows)
    cols = [{} for _ in range(M.cols)]
    for i, p in enumerate(pivots):
        for c, x in rows[p].items():
            cols[c][i] = x
    return Mat.from_cols(cols, M.rows, M.field), pivots


def rank(M):
    return len(_echelon_dict(_rows(M), M.field)[0])


def det(M):
    """Determinant of a square matrix: the product of the pivot scalars
    times the sign of the order in which the pivot columns were found."""
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    rows, scalars = _echelon_dict(_rows(M), M.field)
    if len(rows) < M.rows:
        return M.field.zero
    out = M.field.one
    for s in scalars:
        out = out * s
    perm = list(rows)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            out = -out
    return out


class Subspace:
    """A subspace of k^n with a canonical basis: the RREF rows of
    _echelon_dict, kept as dicts by pivot, so two subspaces are equal
    exactly when these rows are."""

    __slots__ = ("ambient_dim", "rows", "pivots", "field")

    def __init__(self, ambient_dim, rows, field):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = sorted(rows)
        self.field = field

    @classmethod
    def from_spanning(cls, ambient_dim, vectors, field=QQ):
        return cls(ambient_dim, _echelon_dict(vectors, field)[0], field)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        """Basis vectors as the columns of a matrix (canonical order)."""
        return Mat.from_cols([self.rows[p] for p in self.pivots],
                             self.ambient_dim, self.field)

    def contains(self, vec):
        """Whether the dict vec lies in the subspace."""
        return not _reduce(vec, self.rows, self.field.zero)

    def coords(self, vec):
        """The nonzero values of the dict vec at the pivots, keyed by the
        pivot's position: its coordinates in the basis when vec lies in
        the subspace (a canonical row has 1 at its pivot)."""
        return {i: vec[p] for i, p in enumerate(self.pivots) if p in vec}

    def contains_all(self, vectors):
        return all(self.contains(v) for v in vectors)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __le__(self, other):
        return other.contains_all(self.rows.values())

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def kernel(M):
    """Null space of M with canonical basis."""
    rows, _ = _echelon_dict(_rows(M), M.field)
    return Subspace.from_spanning(
        M.cols, _kernel_vectors(rows, M.cols, M.field), M.field)


def image(M):
    """Column space of M with canonical basis."""
    return Subspace.from_spanning(M.rows, M.sparse_cols(), M.field)


def inverse(M):
    """Exact inverse of a square matrix; raises NoSolution if singular."""
    if M.rows != M.cols:
        raise ShapeMismatch("inverse of non-square matrix")
    n = M.rows
    field = M.field
    aug = _rows(M)
    for i, row in enumerate(aug):
        row[n + i] = field.one
    rows, _ = _echelon_dict(aug, field)
    if any(p >= n for p in rows):
        raise NoSolution("matrix is singular")
    cols = [{} for _ in range(n)]
    for p, row in rows.items():
        for c, x in row.items():
            if c >= n:
                cols[c - n][p] = x
    return Mat.from_cols(cols, n, field)


def solve_affine_sparse(constraint_rows, rhs, ncols, field=QQ, want_kernel=False):
    """Solve the system whose equations are the dicts {col: value} of
    constraint_rows, with right-hand sides rhs (one scalar per equation).
    Unknowns occupy columns 0..ncols-1; the right-hand side is treated as
    column ncols.  Returns (particular solution as the dict of its
    nonzeros, kernel vectors as dicts or None) or raises NoSolution."""
    aug = []
    for row, b in zip(constraint_rows, rhs):
        if b:
            row = dict(row)
            row[ncols] = b
        aug.append(row)
    rows, _ = _echelon_dict(aug, field)
    if ncols in rows:
        raise NoSolution()
    x = {p: row[ncols] for p, row in rows.items() if ncols in row}
    kern = _kernel_vectors(rows, ncols, field) if want_kernel else None
    return x, kern


def solve_map(blocks, rows, cols, field=QQ, want_kernel=False):
    """The rows x cols Mat X with sum(L * X * R for L, R in terms) == rhs
    for every (terms, rhs) in blocks; an L or R of None is the identity
    and an rhs of None is zero.  Unknown X[p][q] is column p * cols + q of
    the system that solve_affine_sparse solves, so the particular solution
    and the kernel basis are those of that row-major order.  Returns X, or
    (X, kernel basis as rows x cols Mats) when want_kernel; raises
    NoSolution."""
    zero, one = field.zero, field.one
    eqs, rhs = [], []
    for terms, target in blocks:
        acc = {}    # (i, j) -> the row of entry (i, j) of sum L X R
        for L, R in terms:
            lrows = [{p: one} for p in range(rows)] if L is None else _rows(L)
            rcols = [{q: one} for q in range(cols)] if R is None \
                else R.sparse_cols()
            rcols = [(j, col.items()) for j, col in enumerate(rcols) if col]
            for i, lrow in enumerate(lrows):
                if not lrow:
                    continue
                lterms = [(p * cols, a) for p, a in lrow.items()]
                for j, rcol in rcols:
                    row = acc.setdefault((i, j), {})
                    for base, a in lterms:
                        for q, b in rcol:
                            row[base + q] = row.get(base + q, zero) + a * b
        values = {} if target is None else {
            (i, j): v for j, col in enumerate(target.sparse_cols())
            for i, v in col.items()}
        for key, row in acc.items():
            row = {c: x for c, x in row.items() if x}     # terms may cancel
            b = values.pop(key, zero)
            if b or row:
                eqs.append(row)
                rhs.append(b)
        eqs.extend({} for _ in values)
        rhs.extend(values.values())
    x, kern = solve_affine_sparse(eqs, rhs, rows * cols, field, want_kernel)
    X = _unflatten(x, rows, cols, field)
    if not want_kernel:
        return X
    return X, [_unflatten(vec, rows, cols, field) for vec in kern]


def _unflatten(vec, rows, cols, field):
    """The rows x cols Mat whose entry (p, q) is vec[p * cols + q]."""
    kcols = [{} for _ in range(cols)]
    for k, v in vec.items():
        p, q = divmod(k, cols)
        kcols[q][p] = v
    return Mat.from_cols(kcols, rows, field)


def leg_slices(lift, n, fixed):
    """Cut a lift, whose rows k * n + l are pairs of legs, into one Mat per
    value of the fixed leg (0: the first leg k, 1: the second leg l); the
    slice of k has the rows l and the slice of l the rows k.  So a
    convolution with one unknown leg X is a sum of L X R terms:
        mu (F (x) X) lift = sum_k L_{F e_k} X slice_k   (fixed 0),
        mu (X (x) G) lift = sum_l R_{G e_l} X slice_l   (fixed 1)."""
    m = lift.rows // n
    count, size = (m, n) if fixed == 0 else (n, m)
    out = [[{} for _ in range(lift.cols)] for _ in range(count)]
    for c, col in enumerate(lift.sparse_cols()):
        for kl, v in col.items():
            k, l = divmod(kl, n)
            if fixed == 0:
                out[k][c][l] = v
            else:
                out[l][c][k] = v
    return [Mat.from_cols(cs, size, lift.field) for cs in out]


class QuotientPresentation:
    """Presentation of k^n / span(relations) by the canonical relation rows
    of _echelon_dict: rows maps each pivot column to its dict row (1 at the
    pivot, the rest at non-pivot columns).  The quotient coordinates are the
    non-pivot columns in increasing order; index maps each to its
    coordinate.  project and apply give sparse results: no dense
    projection matrix is ever formed."""

    __slots__ = ("ambient_dim", "rows", "pivots", "index", "dim", "field")

    def __init__(self, ambient_dim, rows, field):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = sorted(rows)
        self.index = {c: qi for qi, c in enumerate(
            c for c in range(ambient_dim) if c not in rows)}
        self.dim = len(self.index)
        self.field = field

    def project(self, vec):
        """proj . vec, for a dict {col: value} of nonzeros, as a dict
        {coordinate: value} of its nonzeros: a non-pivot column goes to
        its own coordinate; a pivot p spreads -v * row_p[c] onto the
        non-pivot columns c of its row."""
        index, rows, zero, out = self.index, self.rows, self.field.zero, {}
        for c, v in vec.items():
            qi = index.get(c)
            if qi is not None:
                out[qi] = out.get(qi, zero) + v
                continue
            row = rows.get(c)
            if row is None:
                raise ShapeMismatch("project index %r outside dimension %d"
                                    % (c, self.ambient_dim))
            for c2, x in row.items():
                if c2 != c:
                    qi = index[c2]
                    out[qi] = out.get(qi, zero) - v * x
        return {qi: x for qi, x in out.items() if x}

    def apply(self, M):
        """proj * M, built from the projected columns; M is a Mat or a
        list of dict columns."""
        return Mat.from_cols([self.project(col) for col in _columns(M)],
                             self.dim, self.field)

    @property
    def section_cols(self):
        """Coordinate qi -> e_c for its non-pivot column c, as dicts."""
        return [{c: self.field.one} for c in self.index]

    @property
    def relations(self):
        """The relation span, read from the stored rows."""
        return Subspace(self.ambient_dim, self.rows, self.field)


def quotient_by(ambient_dim, relation_vectors, field=QQ):
    """Quotient of k^ambient_dim by the span of the relation vectors (dicts
    of nonzeros), presented by their canonical rows."""
    return QuotientPresentation(
        ambient_dim, _echelon_dict(relation_vectors, field)[0], field)


def mat_to_json(M):
    """Sparse matrix form, entries in row-major order: omitted entries are
    zero."""
    entries = sorted((i, j, x) for j, col in enumerate(M.sparse_cols())
                     for i, x in col.items())
    return {"rows": M.rows, "cols": M.cols,
            "entries": [{"r": i, "c": j, "v": M.field.format(x)}
                        for i, j, x in entries]}


def mat_from_json(doc, field=QQ):
    rows, ncols = int(doc["rows"]), int(doc["cols"])
    if rows < 0 or ncols < 0:
        raise ShapeMismatch("bad matrix data shape")
    cols = [{} for _ in range(ncols)]
    for e in doc["entries"]:
        r, c = int(e["r"]), int(e["c"])
        if not (0 <= r < rows and 0 <= c < ncols):
            raise ValueError("matrix entry %r outside a %dx%d matrix"
                             % (e, rows, ncols))
        x = field.parse(e["v"])
        if x:
            cols[c][r] = x
        else:
            cols[c].pop(r, None)
    return Mat.from_cols(cols, rows, field)


def shaped_mat_from_json(doc, key, rows, cols, field=QQ):
    """The matrix doc[key], which must be rows x cols (any number of
    columns when cols is None); a wrong declared shape is a ValueError
    naming key, raised before any entry is read."""
    node = doc[key]
    r, c = int(node["rows"]), int(node["cols"])
    if r != rows or cols not in (None, c):
        raise ValueError("%r is %dx%d, must be %dx%s" % (
            key, r, c, rows, "n" if cols is None else cols))
    return mat_from_json(node, field)
