"""Deterministic exact linear algebra over Q and Q(zeta_N).

Everything downstream (axiom checks, coinvariants, Galois maps) reduces to
row reduction, kernels, affine solves and quotient presentations computed
here.  A Mat keeps its entries as dense row-major lists (data, the form
constructors write) and reads them through one sparse view: the columns
as dicts of their nonzeros, built on the first column read and kept.
matvec, col, kron_cols and QuotientPresentation.apply walk that view, so
they skip zero cells by construction.  Pivots divide through field.div:
over Q an integral scalar is an int.

One elimination engine, _echelon_dict, does every row reduction: it takes
list or dict rows, works on their nonzeros only and returns the canonical
RREF (leftmost-first-nonzero pivots, fully back-substituted), so subspace
equality is a plain entrywise comparison.  It reduces each incoming vector
in one pass and back-substitutes a new pivot only into the rows that are
nonzero there, found through a column index.  rref, rank, kernel, image,
solve_affine, solve_affine_sparse, inverse, det, Subspace and quotient_by
are views of its output.  A QuotientPresentation stores only those
canonical relation rows: project(vec) and apply(M) = proj * M reduce
against them, and the dense proj and section are built only when read.
kron_cols(A, B, M) gives the columns of kron(A, B) * M from the nonzeros
of the three factors, so lifts such as (Delta (x) id) Delta are projected
without forming a Kronecker product.

Kronecker convention, fixed once for the whole package:
    kron(A, B) acts on pure tensors by (i tensor j) -> i*dimB + j,
i.e. the second factor varies fastest.
"""

from .fields import QQ


class ShapeMismatch(ValueError):
    pass


class NoSolution(Exception):
    """Signal: the affine system is infeasible.  Not a fault."""


def _items(vec):
    """The (index, value) pairs of a list or of a dict {index: value}."""
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


class Mat:
    """A rows x cols matrix.  data is its dense, writable form; the sparse
    column view that the readers use is computed from data once, on the
    first column read.  The library writes no Mat after reading it; to
    change entries of a Mat that was read, write them on a copy()."""

    __slots__ = ("rows", "cols", "data", "field", "_sparse_cols")

    def __init__(self, rows, cols, data, field=QQ):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch("bad matrix data shape")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.field = field
        self._sparse_cols = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        z = field.zero
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        M = cls.zero(n, n, field)
        for i in range(n):
            M.data[i][i] = field.one
        return M

    @classmethod
    def from_cols(cls, cols_list, ambient_dim, field=QQ):
        M = cls.zero(ambient_dim, len(cols_list), field)
        for j, col in enumerate(cols_list):
            for i, v in _items(col):
                M.data[i][j] = v
        return M

    @classmethod
    def column(cls, vec, field=QQ):
        return cls(len(vec), 1, [[v] for v in vec], field)

    # -- basic ops --------------------------------------------------------

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def copy(self):
        return Mat(self.rows, self.cols, [list(r) for r in self.data], self.field)

    def sparse_cols(self):
        """The columns as dicts {row: value} of their nonzeros, built on the
        first call and shared by every later one (callers do not modify
        them)."""
        if self._sparse_cols is None:
            cols = [{} for _ in range(self.cols)]
            for i, r in enumerate(self.data):
                for j, x in enumerate(r):
                    if x:
                        cols[j][i] = x
            self._sparse_cols = cols
        return self._sparse_cols

    def col(self, j):
        out = [self.field.zero] * self.rows
        for i, x in self.sparse_cols()[j].items():
            out[i] = x
        return out

    def transpose(self):
        return Mat(self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)]
                    for j in range(self.cols)], self.field)

    def __add__(self, other):
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)], self.field)

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)], self.field)

    def __neg__(self):
        return Mat(self.rows, self.cols,
                   [[-a for a in r] for r in self.data], self.field)

    def scale(self, c):
        return Mat(self.rows, self.cols,
                   [[c * a for a in r] for r in self.data], self.field)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("%dx%d vs %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("cannot multiply %dx%d by %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        out = Mat.zero(self.rows, other.cols, self.field)
        for i in range(self.rows):
            ri = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ri[k]
                if a:
                    rk = other.data[k]
                    for j in range(other.cols):
                        b = rk[j]
                        if b:
                            oi[j] = oi[j] + a * b
        return out

    def matvec(self, vec):
        """self * vec for a list or a dict {col: value}, summed over the
        nonzeros of vec and of the columns they pick."""
        if not isinstance(vec, dict) and len(vec) != self.cols:
            raise ShapeMismatch("matvec length mismatch")
        cols = self.sparse_cols()
        out = [self.field.zero] * self.rows
        for k, v in _items(vec):
            if v:
                for i, a in cols[k].items():
                    out[i] = out[i] + a * v
        return out

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def is_zero(self):
        return all(not v for r in self.data for v in r)

    def __repr__(self):
        return "Mat(%dx%d)" % (self.rows, self.cols)


def kron(A, B):
    """Kronecker product with (i tensor j) -> i*B.rows + j on row indices
    and (k tensor l) -> k*B.cols + l on column indices."""
    out = Mat.zero(A.rows * B.rows, A.cols * B.cols, A.field)
    for i in range(A.rows):
        for k in range(A.cols):
            a = A.data[i][k]
            if not a:
                continue
            for j in range(B.rows):
                rb = B.data[j]
                ro = out.data[i * B.rows + j]
                base = k * B.cols
                for l in range(B.cols):
                    if rb[l]:
                        ro[base + l] = a * rb[l]
    return out


def _columns(M):
    """The sparse columns of a Mat; a list of columns (lists or dicts) is
    returned as it is."""
    return M.sparse_cols() if isinstance(M, Mat) else M


def kron_cols(A, B, M):
    """The columns of kron(A, B) * M as dicts {row: value}, built from the
    nonzeros of A, B and M without forming the Kronecker product.  M is a
    Mat or a list of columns (lists or dicts)."""
    acols, bcols = _columns(A), _columns(B)
    zero = A.field.zero
    out = []
    for col in _columns(M):
        acc = {}
        for kl, v in _items(col):
            if not v:
                continue
            k, l = divmod(kl, B.cols)
            bl = bcols[l].items()
            for i, a in acols[k].items():
                va, base = v * a, i * B.rows
                for j, b in bl:
                    acc[base + j] = acc.get(base + j, zero) + va * b
        out.append({r: x for r, x in acc.items() if x})
    return out


def _echelon_dict(vectors, field):
    """The one elimination engine: canonical RREF of a spanning set of
    vectors, each a list or a dict {col: value}.  Returns (rows, scalars):
    rows maps each pivot column to its fully back-substituted dict row, in
    the order the pivots were found; scalars are the pivot values the new
    rows were divided by, in the same order.

    Every stored row is zero at every other pivot, so one pass reduces an
    incoming vector completely: subtract v[q] * rows[q] for each pivot q
    in its support.  where maps each non-pivot column to the pivots whose
    rows are nonzero there, so a new pivot is back-substituted into those
    rows only."""
    zero, div = field.zero, field.div
    rows = {}  # pivot column -> dict col -> value
    where = {}  # non-pivot column -> set of pivots nonzero there
    scalars = []
    for vec in vectors:
        v = {c: x for c, x in _items(vec) if x}
        for q in v.keys() & rows.keys():
            f = v[q]
            for c, x in rows[q].items():
                nv = v.get(c, zero) - f * x
                if nv:
                    v[c] = nv
                elif c in v:
                    del v[c]
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


def _dense_rows(rows, ncols, field):
    """Dict rows keyed by pivot as dense lists, in increasing pivot order,
    and their pivots."""
    pivots = sorted(rows)
    out = []
    for p in pivots:
        r = [field.zero] * ncols
        for c, x in rows[p].items():
            r[c] = x
        out.append(r)
    return out, pivots


def _kernel_vectors(rows, ncols, field):
    """One null vector per free column below ncols of the echelon rows:
    1 at the free column, minus the rows' entries there at their pivots."""
    kern = []
    for f in range(ncols):
        if f in rows:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for p, row in rows.items():
            if f in row:
                v[p] = -row[f]
        kern.append(v)
    return kern


def rref(M):
    """Reduced row echelon form with the leftmost-first-nonzero pivot rule.
    Returns (R, pivot column list)."""
    R, pivots = _dense_rows(_echelon_dict(M.data, M.field)[0], M.cols,
                            M.field)
    R += [[M.field.zero] * M.cols for _ in range(M.rows - len(R))]
    return Mat(M.rows, M.cols, R, M.field), pivots


def rank(M):
    return len(_echelon_dict(M.data, M.field)[0])


def det(M):
    """Determinant of a square matrix: the product of the pivot scalars
    times the sign of the order in which the pivot columns were found."""
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    rows, scalars = _echelon_dict(M.data, M.field)
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
    """A subspace of k^n with a canonical (RREF-row) basis, so equality of
    subspaces is plain equality of basis matrices."""

    __slots__ = ("ambient_dim", "basis_rows", "pivots", "field")

    def __init__(self, ambient_dim, basis_rows, pivots, field):
        self.ambient_dim = ambient_dim
        self.basis_rows = basis_rows
        self.pivots = pivots
        self.field = field

    @classmethod
    def from_spanning(cls, ambient_dim, vectors, field=QQ):
        rows, pivots = _dense_rows(_echelon_dict(vectors, field)[0],
                                   ambient_dim, field)
        return cls(ambient_dim, rows, pivots, field)

    @property
    def dim(self):
        return len(self.basis_rows)

    @property
    def basis(self):
        """Basis vectors as the columns of a matrix (canonical order)."""
        return Mat.from_cols(self.basis_rows, self.ambient_dim, self.field)

    def contains(self, vec):
        v = list(vec)
        for row, p in zip(self.basis_rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def coords(self, vec):
        """The values of vec at the pivots: its coordinates in the basis
        when vec lies in the subspace (a canonical row has 1 at its
        pivot)."""
        return [vec[p] for p in self.pivots]

    def contains_all(self, vectors):
        return all(self.contains(v) for v in vectors)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis_rows == other.basis_rows)

    def __le__(self, other):
        return other.contains_all(self.basis_rows)

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def kernel(M):
    """Null space of M with canonical basis."""
    rows, _ = _echelon_dict(M.data, M.field)
    return Subspace.from_spanning(
        M.cols, _kernel_vectors(rows, M.cols, M.field), M.field)


def image(M):
    """Column space of M with canonical basis."""
    return Subspace.from_spanning(M.rows, M.sparse_cols(), M.field)


def solve_affine(constraint, rhs):
    """Solve constraint * x = rhs.  Returns (particular solution, kernel
    Subspace) or raises NoSolution."""
    if len(rhs) != constraint.rows:
        raise ShapeMismatch("rhs length mismatch")
    x, kern = solve_affine_sparse([dict(enumerate(r)) for r in constraint.data],
                                  rhs, constraint.cols, constraint.field,
                                  want_kernel=True)
    return x, Subspace.from_spanning(constraint.cols, kern, constraint.field)


def is_invertible(M):
    return M.rows == M.cols and rank(M) == M.rows


def inverse(M):
    """Exact inverse of a square matrix; raises NoSolution if singular."""
    if M.rows != M.cols:
        raise ShapeMismatch("inverse of non-square matrix")
    n = M.rows
    field = M.field
    aug = [{**dict(enumerate(r)), n + i: field.one}
           for i, r in enumerate(M.data)]
    rows, _ = _echelon_dict(aug, field)
    if any(p >= n for p in rows):
        raise NoSolution("matrix is singular")
    return Mat(n, n, [[rows[p].get(n + j, field.zero) for j in range(n)]
                      for p in range(n)], field)


def solve_affine_sparse(constraint_rows, rhs, ncols, field=QQ, want_kernel=False):
    """Sparse variant of solve_affine.  constraint_rows is a list of dicts
    {col: value}; rhs a dense list of the same length.  Unknowns occupy
    columns 0..ncols-1; the right-hand side is treated as column ncols.
    Returns (particular, kernel_vectors_or_None) or raises NoSolution."""
    aug = []
    for row, b in zip(constraint_rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    rows, _ = _echelon_dict(aug, field)
    if ncols in rows:
        raise NoSolution()
    x = [field.zero] * ncols
    for p, row in rows.items():
        x[p] = row.get(ncols, field.zero)
    kern = _kernel_vectors(rows, ncols, field) if want_kernel else None
    return x, kern


class QuotientPresentation:
    """Presentation of k^n / span(relations) by the canonical relation rows
    of _echelon_dict: rows maps each pivot column to its dict row (1 at the
    pivot, the rest at non-pivot columns).  The quotient coordinates are the
    non-pivot columns in increasing order; index maps each to its
    coordinate.  proj and section are dense views built on each read."""

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
        """proj . vec for a list or a dict {col: value}: a non-pivot column
        goes to its own coordinate; a pivot p spreads -v * row_p[c] onto the
        non-pivot columns c of its row."""
        if not isinstance(vec, dict) and len(vec) != self.ambient_dim:
            raise ShapeMismatch("project length mismatch")
        index, out = self.index, [self.field.zero] * self.dim
        for c, v in _items(vec):
            if not v:
                continue
            qi = index.get(c)
            if qi is not None:
                out[qi] = out[qi] + v
                continue
            for c2, x in self.rows[c].items():
                if c2 != c:
                    qi = index[c2]
                    out[qi] = out[qi] - v * x
        return out

    def apply(self, M):
        """proj * M, column by column through project; M is a Mat or a
        list of columns (lists or dicts)."""
        cols = [self.project(col) for col in _columns(M)]
        return Mat(self.dim, len(cols),
                   [[col[qi] for col in cols] for qi in range(self.dim)],
                   self.field)

    @property
    def proj(self):
        """The dim x ambient_dim projection matrix."""
        return self.apply(Mat.identity(self.ambient_dim, self.field))

    @property
    def section(self):
        """Coordinate qi -> e_c for its non-pivot column c."""
        return Mat.from_cols(self.section_cols, self.ambient_dim, self.field)

    @property
    def section_cols(self):
        """The columns of section as dicts."""
        return [{c: self.field.one} for c in self.index]

    @property
    def relations(self):
        """The relation span, read from the stored rows."""
        n, field = self.ambient_dim, self.field
        return Subspace(n, *_dense_rows(self.rows, n, field), field)


def quotient_by(ambient_dim, relation_vectors, field=QQ):
    """Quotient of k^ambient_dim by the span of the relation vectors (lists
    or dicts), presented by their canonical rows."""
    return QuotientPresentation(
        ambient_dim, _echelon_dict(relation_vectors, field)[0], field)


def mat_to_json(M):
    """Sparse matrix form: omitted entries are zero."""
    entries = []
    for i in range(M.rows):
        for j in range(M.cols):
            v = M.data[i][j]
            if v:
                entries.append({"r": i, "c": j, "v": M.field.format(v)})
    return {"rows": M.rows, "cols": M.cols, "entries": entries}


def mat_from_json(doc, field=QQ):
    M = Mat.zero(int(doc["rows"]), int(doc["cols"]), field)
    for e in doc["entries"]:
        r, c = int(e["r"]), int(e["c"])
        if not (0 <= r < M.rows and 0 <= c < M.cols):
            raise ValueError("matrix entry %r outside a %dx%d matrix"
                             % (e, M.rows, M.cols))
        M.data[r][c] = field.parse(e["v"])
    return M


def shaped_mat_from_json(doc, key, rows, cols, field=QQ):
    """The matrix doc[key], which must be rows x cols (any number of
    columns when cols is None); a wrong shape is a ValueError naming key."""
    M = mat_from_json(doc[key], field)
    if M.rows != rows or cols not in (None, M.cols):
        raise ValueError("%r is %dx%d, must be %dx%s" % (
            key, M.rows, M.cols, rows, "n" if cols is None else cols))
    return M
