"""Exact matrices and tensors, and the one exact elimination.

Conventions used throughout the package:

* ``Matrix`` stores rows as lists; ``data[r][c]`` is the entry in row r,
  column c.  ``entries`` flattens row-major for serialization.
* A linear map f stored as a Matrix uses the row-as-image convention:
  f(e_r) = Σ_c data[r][c] e_c.  Applying f to a coordinate vector v is
  the ``linear_combination`` of M's rows with v's entries (v·M), and
  "apply A then B" is ``mat_mul(A, B)``.
* ``kernel_basis``/``solve`` and their sparse forms use the usual
  column-vector reading m·x = b.
* The basis vector e_i⊗e_j of a tensor square has flat index i·n₂ + j;
  all tensor data is row-major over its shape.
* ``Bilinear`` is the one sparse structure-tensor kernel: the products,
  actions, coproducts and coactions of all structures are read through it.
  Its lifted tables (``lifted_rows``, ``lifted_terms``, ``flat_tables``)
  serve the loops that sum on plain ints over both fields
  (``Field.lift``); each comes as (table, scale), and
  ``Matrix.lifted_rows`` and ``lifted_nonzeros`` lift a matrix, dense and
  sparse, for the same loops, once per Matrix; ``Matrix.from_sums``
  builds a matrix from lifted sums and keeps them as its lifted rows.
  ``Tensor.bilinear()`` gives one Bilinear per Tensor object, and every
  structure on that tensor reads it.  The tables are shared per content:
  when a Bilinear builds its first table, it reads from then on the
  tables of a live Bilinear over the same field object with equal shape
  and data, if there is one, so equal tensors (H^σ = H for a lazy σ, the
  σ̲ images, M⊗N rebuilt for each check) build each table once.  The
  registry holds weak references only and no copy of the data, so a
  table lives only while some tensor of its content is read, and none
  crosses from one suite pass to the next.  The contract: a Tensor's data
  does not change once any table of it has been read, which keeps the
  tables right for every equal tensor that reads them too; a corruption
  or an edited copy is a new Tensor over a new list.
* There is one elimination, ``_reduce``, and it works on rows held as
  dicts {column: coefficient} of their nonzero entries: a Matrix row
  enters as its nonzero entries.  ``rank``, ``sparse_rank`` and
  ``row_space_echelon`` read its echelon rows; ``sparse_kernel`` and
  ``sparse_solve`` read the reduced row echelon form ``_rref`` built on
  it, which is unique, so their results do not depend on how the rows
  were reduced, and give the kernel vectors and the solution columns as
  sparse rows.  ``kernel_basis``, ``solve`` and ``mat_inverse`` are their
  Matrix wrappers.  The sparse entry points serve families that are built
  sparse and never exist as a Matrix: galois.py's relations (up to 2272
  rows of 256 columns, ~1.3 nonzeros each), Galois maps β (256 rows of
  64 columns on End(regular)) and βᵀ's kernel and preimages, Subspace
  equations, and yd.py's Azumaya maps F and G (256 rows of 256 columns
  on End(regular), 0.7% nonzero).
* ``linear_combination`` sums sparse rows, such as the ``Bilinear.row``
  products of basis vectors, into one dense vector; ``sparse_sum`` sums
  (key, value) pairs into one dict without zeros.
* ``Tensor.permuted`` permutes a 3-tensor's legs, which builds H*, M*, the
  opposite product and a product's coordinate functionals; ``are_inverse``
  is the one check that two matrices are mutually inverse.
* Constructors raise ``DimensionError`` on mis-shaped data.

Dimensions are capped by HOPFLAB_MAX_DIM (default 64).
"""

from __future__ import annotations

import os
import weakref
from functools import partial
from itertools import chain, compress
from operator import itemgetter


class DimensionError(ValueError):
    pass


def max_dim():
    """HOPFLAB_MAX_DIM, which must be a positive integer (default 64)."""
    text = os.environ.get("HOPFLAB_MAX_DIM", "64")
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise DimensionError("HOPFLAB_MAX_DIM=%r is not a positive integer"
                             % text)
    return limit


def check_dim(n):
    limit = max_dim()
    if n > limit:
        raise DimensionError(
            "dimension %d exceeds HOPFLAB_MAX_DIM=%d" % (n, limit))
    return n


def check_shape(what, shape, expected):
    """Raise DimensionError unless shape == expected (both tuples)."""
    if shape != expected:
        raise DimensionError("%s has shape %s, expected %s"
                             % (what, shape, expected))


class Matrix:
    """A matrix of field elements, rows as lists.  Its lifted rows, dense
    and sparse, are built on first use and kept, like a Tensor's tables,
    so the data must not change once either has been read: an edited copy
    is a new Matrix over new lists.  A matrix built from lifted sums
    (from_sums) keeps those sums as its lifted rows, so a loop that reads
    it lifted does not lift its reduced entries again."""
    __slots__ = ("field", "rows", "cols", "data", "_lifted", "_nonzeros")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionError("matrix data is not %d rows of %d entries"
                                 % (rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._lifted = None
        self._nonzeros = None

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_sums(cls, field, rows, cols, sums, scale):
        """The rows × cols matrix of the lifted sums (a flat row-major
        list) at scale, reduced once (Field.reduce_vec); it keeps the sums
        as its lifted rows."""
        out = field.reduce_vec(sums, scale)
        at = range(0, rows * cols, cols) if cols else [0] * rows
        m = cls(field, rows, cols, [out[r:r + cols] for r in at])
        m._lifted = [sums[r:r + cols] for r in at], scale
        return m

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @property
    def entries(self):
        return [x for row in self.data for x in row]

    def lifted_rows(self):
        """(rows, scale): data lifted (Field.lift) over one scale, as new
        lists, or data itself when lifting changes nothing (ℚ, integral);
        built once and kept."""
        if self._lifted is None:
            flat = list(chain.from_iterable(self.data))
            ints, scale = self.field.lift(flat)
            c = self.cols
            self._lifted = (self.data if ints is flat else
                            [ints[r:r + c] for r in range(0, len(ints), c)],
                            scale)
        return self._lifted

    def lifted_nonzeros(self):
        """(rows, scale): each row's nonzero entries as [(column, lifted
        entry)], read from lifted_rows where data is nonzero, for the
        loops that read a matrix sparsely.  Built once and kept."""
        if self._nonzeros is None:
            rows, scale = self.lifted_rows()
            cols = range(self.cols)
            self._nonzeros = [[(c, lifted[c]) for c in compress(cols, row)]
                              for row, lifted in zip(self.data, rows)], scale
        return self._nonzeros

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[r][c] for r in range(self.rows)]
                       for c in range(self.cols)])

    def column(self, c):
        return [self.data[r][c] for r in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)


def mat_mul(a, b):
    if a.cols != b.rows:
        raise DimensionError("matrix product %dx%d by %dx%d"
                             % (a.rows, a.cols, b.rows, b.cols))
    zero = a.field.zero
    bd = b.data
    out = []
    for row in a.data:
        acc = [zero] * b.cols
        for k, x in enumerate(row):
            if not x:
                continue
            bk = bd[k]
            for c in range(b.cols):
                y = bk[c]
                if y:
                    acc[c] = acc[c] + x * y
        out.append(acc)
    return Matrix(a.field, a.rows, b.cols, out)


def _subtract(zero, row, piv, mlt):
    """row -= mlt·piv in place, dropping the entries that cancel."""
    for c, v in piv.items():
        w = row.get(c, zero) - v * mlt
        if w:
            row[c] = w
        else:
            del row[c]


def _reduce(field, rows, cap=None, pivots=None):
    """Row echelon form of rows given as iterables of (column, coefficient)
    pairs: {pivot column: row}, each row a dict {column: coefficient} over
    its nonzero entries whose lowest column is its pivot.

    The one elimination of the package.  Each row is reduced against the
    pivot rows found so far, always at its lowest column, and becomes the
    pivot row of that column if anything is left; so no dense row is ever
    built, and a row of a few nonzeros costs a few dict operations per
    step.  The given rows are not changed.  With a cap the elimination
    stops once it has cap pivots, leaving the remaining rows unread.  Given
    pivots, an echelon this function returned, the rows are reduced into
    it: it gains their pivot rows, in the order found, and is returned.
    """
    zero, div = field.zero, field.div
    if pivots is None:
        pivots = {}
    if len(pivots) == cap:
        return pivots
    for row in rows:
        row = {c: v for c, v in row if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            _subtract(zero, row, piv, div(row[col], piv[col]))
        if len(pivots) == cap:
            break
    return pivots


def rank(m):
    """Row rank by exact elimination."""
    return len(_reduce(m.field, (enumerate(row) for row in m.data)))


def sparse_rank(field, rows, cap=None):
    """Rank of rows given as dicts {column: coefficient}, which may hold
    explicit zeros; no rows give 0.  The rows are not changed.  With a cap
    (an int ≥ 0) the result is min(cap, rank), and the elimination stops
    at cap pivots."""
    return len(_reduce(field, (row.items() for row in rows), cap))


def sparse_sum(pairs):
    """{k: Σ w} over the (k, w) given, keys in the order first given,
    without the keys whose sum is 0."""
    acc = {}
    for k, w in pairs:
        acc[k] = acc[k] + w if k in acc else w
    return {k: w for k, w in acc.items() if w}


def linear_combination(field, dim, terms):
    """Σ c·t over the (c, t) given, t a sparse row [(k, w)] of a vector of
    length dim, as a dense vector."""
    acc = [field.zero] * dim
    for c, t in terms:
        for k, w in t:
            acc[k] = acc[k] + c * w
    return acc


def _rref(field, rows):
    """Reduced row echelon form: ``_reduce``'s rows, each scaled to 1 at
    its pivot column and cleared at every other pivot column."""
    pivots = _reduce(field, rows)
    zero, one = field.zero, field.one
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        # the rows of the pivot columns right of col are already reduced
        for c in [c for c in row if c > col and c in pivots]:
            _subtract(zero, row, pivots[c], row[c])
        if row[col] != one:
            inv = field.div(one, row[col])
            for c in row:
                row[c] = row[c] * inv
    return pivots


def sparse_kernel(field, rows, ncols):
    """Basis of {x | M·x = 0} for the matrix M with ncols columns whose rows
    are given as iterables of (column, coefficient) pairs (a dict row as its
    items()).  One vector per free column fc of M's reduced row echelon
    form, in increasing fc: 1 at fc, −row[fc] at the pivot column of each
    pivot row, 0 elsewhere, as a sparse row [(index, coefficient)] over its
    nonzero entries in increasing index, so fc is its last index."""
    pivots = _rref(field, rows)
    at_free = {}
    for pc in sorted(pivots):
        for c, x in pivots[pc].items():
            if c != pc:
                at_free.setdefault(c, []).append((pc, -x))
    one = field.one
    return [at_free.get(fc, []) + [(fc, one)]
            for fc in range(ncols) if fc not in pivots]


def sparse_solve(field, rows, ncols, nrhs):
    """Some x with M·x = B (free variables set to 0), or None if unsolvable,
    for M with ncols columns and B with nrhs columns, given as the rows of
    [M | B] as iterables of (column, coefficient) pairs, B's column j at
    ncols + j.  x's column j is a sparse row [(index, coefficient)] over
    its nonzero entries in increasing index."""
    pivots = _rref(field, rows)
    if any(pc >= ncols for pc in pivots):
        return None
    out = [[] for _ in range(nrhs)]
    for pc in sorted(pivots):
        for c, x in pivots[pc].items():
            if c >= ncols:
                out[c - ncols].append((pc, x))
    return out


def kernel_basis(m):
    """Columns form a basis of {x | m·x = 0}: sparse_kernel's vectors."""
    vecs = sparse_kernel(m.field, (enumerate(row) for row in m.data), m.cols)
    data = [[m.field.zero] * len(vecs) for _ in range(m.cols)]
    for j, vec in enumerate(vecs):
        for i, x in vec:
            data[i][j] = x
    return Matrix(m.field, m.cols, len(vecs), data)


def solve(m, b):
    """Some x with m·x = b (free variables set to 0), or None if unsolvable:
    sparse_solve's columns.

    b is a Matrix with b.rows == m.rows; one solution column per RHS column.
    """
    if m.rows != b.rows:
        raise DimensionError("solve: %d equations vs %d RHS rows"
                             % (m.rows, b.rows))
    nc = m.cols
    cols = sparse_solve(m.field, (chain(enumerate(mr), enumerate(br, nc))
                                  for mr, br in zip(m.data, b.data)),
                        nc, b.cols)
    if cols is None:
        return None
    out = Matrix.zeros(m.field, nc, b.cols)
    for j, col in enumerate(cols):
        for i, x in col:
            out.data[i][j] = x
    return out


def _product_is_identity(a, b):
    """Is ab the identity matrix?  Each row of ab is summed lifted
    (Field.lift), at the product of a's and b's scales, over the sparse
    rows of a and b, and tested with Field.nonzero, so a product of
    sparse matrices costs its nonzero terms."""
    if a.cols != b.rows:
        raise DimensionError("matrix product %dx%d by %dx%d"
                             % (a.rows, a.cols, b.rows, b.cols))
    if a.rows != b.cols:
        return False
    nonzero = a.field.nonzero
    (arows, sa), (brows, sb) = a.lifted_nonzeros(), b.lifted_nonzeros()
    one = sa * sb               # the identity's diagonal at the sums' scale
    for r, row in enumerate(arows):
        acc = {}
        for k, x in row:
            for c, y in brows[k]:
                acc[c] = acc.get(c, 0) + x * y
        if nonzero(acc.pop(r, 0) - one) or any(map(nonzero, acc.values())):
            return False
    return True


def are_inverse(a, b):
    """Are the matrices a and b mutually inverse, ab = 1 and ba = 1?"""
    return _product_is_identity(a, b) and _product_is_identity(b, a)


def mat_inverse(m):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise DimensionError("inverse of non-square matrix")
    return solve(m, Matrix.identity(m.field, m.rows))


class Tensor:
    """A tensor of field elements, row-major over its shape.

    A 3-tensor's sparse and lifted tables are read through one Bilinear,
    made on first use by bilinear() and kept on the tensor; it holds the
    data list but not the tensor, so a Tensor is freed by reference
    counting alone.  The tables are shared with the live tensors of equal
    content over the same field object (see Bilinear), so the data must
    not change once any table of it has been read, by this tensor or by
    an equal one: a corrupted copy is a new Tensor over a new list."""
    __slots__ = ("field", "shape", "data", "_bilinear", "__weakref__")

    def __init__(self, field, shape, data):
        shape = tuple(shape)
        size = 1
        for s in shape:
            size *= s
        if len(data) != size:
            raise DimensionError("tensor of shape %s needs %d entries, got %d"
                                 % (shape, size, len(data)))
        self.field = field
        self.shape = shape
        self.data = data
        self._bilinear = None

    def bilinear(self):
        """The tensor's Bilinear, made on first use and then shared by
        every structure that reads this tensor.  Making it reads no table,
        so data edited before the first table is read is what it shows."""
        if self._bilinear is None:
            self._bilinear = Bilinear(self)
        return self._bilinear

    @classmethod
    def zeros(cls, field, shape):
        size = 1
        for s in shape:
            size *= s
        return cls(field, shape, [field.zero] * size)

    @classmethod
    def from_rows(cls, field, shape, rows):
        """The 3-tensor t with t[i,j,:] = rows[i][j]."""
        data = []
        for r in rows:
            for row in r:
                data += row
        return cls(field, shape, data)

    def strides(self):
        st = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            st[i] = st[i + 1] * self.shape[i + 1]
        return st

    def permuted(self, order):
        """The 3-tensor whose axis a is axis order[a] of this one:
        t.permuted((1, 2, 0))[p,q,i] = t[i,p,q]."""
        shape = tuple(self.shape[a] for a in order)
        st, d = self.strides(), self.data
        xs, ys, zs = ([x * st[a] for x in range(n)]
                      for n, a in zip(shape, order))
        return Tensor(self.field, shape,
                      [d[x + y + z] for x in xs for y in ys for z in zs])

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return "Tensor%s" % (self.shape,)


_second = itemgetter(1)


def _terms_of(table):
    """[i] is [(j, k, c)] over the sparse rows table[i][j] = [(k, c)]."""
    return [[(j, k, c) for j, row in enumerate(rows) for k, c in row]
            for rows in table]


# (id of the field, shape, hash of the data) → a weak reference to the live
# Bilinear whose tables every Bilinear of that content reads
_TABLES = {}
_UNSEEN = object()      # a Bilinear's twin before its first table is built


def _forget(key, ref):
    """ref's Bilinear is freed: drop its entry, unless a new one took it."""
    if _TABLES.get(key) is ref:
        del _TABLES[key]


class Bilinear:
    """The sparse structure-tensor kernel over a 3-tensor t[i,j,k].

    t is read as the bilinear map (e_i, e_j) ↦ Σ_k t[i,j,k] e_k (a product
    or an action) and as the linear map e_i ↦ Σ t[i,j,k] e_j⊗e_k (a
    coproduct or a coaction).  There is one per Tensor object, from
    ``Tensor.bilinear()``, so every structure built on one tensor (H^σ on
    H's Δ, σ̲M on M's coaction, the modules on one action) reads the same
    tables.  It keeps t's field, shape and data list, not t itself, so a
    tensor and its tables form no reference cycle.  Every product in the
    package reads its sparse rows; ``apply`` remains only as the body of
    the dense wrappers that perfbench traces (``mul_vec``, ``act_vec``).

    The tables are shared per content.  When a Bilinear builds its first
    table it looks for a live Bilinear over the same field object (not an
    equal field: two ``PrimeField(5)`` objects share nothing) with equal
    shape and data; if there is one, this Bilinear reads that one's tables
    from then on, and holds it alive, else it registers itself as the one
    to read.  The registry keeps weak references only, and no copy of the
    data, so an entry lives exactly as long as some Bilinear reads it.
    Each table is built once per content, on first use, and t's data must
    not change after any table has been read: the tables are those of
    every tensor of that content.  Data edited before the first table is
    read is what the tables show.  Callers must not change the lists and
    dicts it returns.

    The lifted tables hold the entries lifted (``Field.lift``) as ints
    over one scale, the lcm of the data's denominators over ℚ and 1 over
    F_p, for sums reduced once per compared coordinate or per output
    vector at the product of their factors' scales.  Each is returned
    with that scale, as (table, scale), and is built once with it:
    ``lifted_rows`` and ``lifted_terms`` are ``row`` and ``terms`` lifted,
    and ``flat_tables()[0][i]`` is t[i,:,:] as one dict {p·n₂+q: lifted
    t[i,p,q]}.  Over ℚ, integral data has scale 1 and its ``lifted_rows``
    and ``lifted_terms`` are the sparse tables of ``row`` and ``terms``
    themselves, not copies.  They are read by hopf.py's axiom checks,
    word table and copowers' users; yd.py's verify_yd and
    verify_yd_algebra, is_yd_map, σ̲, the term kernel, yd_tensor,
    braided_product, generating_set and azumaya_check (A's and Ā's
    products); twist.py's convolutions, the cocycle identities, S^σ and
    H* products; and galois.py's −▷, ◁− and ▷₂, Miyashita-Ulbrich
    action, relation parts and the words of χ, φ, ψ and ξ.
    """
    __slots__ = ("field", "shape", "_data", "_zeros", "_twin", "_rows",
                 "_terms", "_lrows", "_lterms", "_flat", "__weakref__")

    def __init__(self, tensor):
        self.field = tensor.field
        self.shape = tensor.shape
        self._data = tensor.data
        self._zeros = [tensor.field.zero] * tensor.shape[2]
        self._twin = _UNSEEN
        self._rows = None
        self._terms = None
        self._lrows = None
        self._lterms = None
        self._flat = None

    def _source(self):
        """The live Bilinear of equal content whose tables this one reads,
        or None if it builds its own; looked up when the first table is
        built, and then kept."""
        twin = self._twin
        if twin is _UNSEEN:
            data = self._data
            key = (id(self.field), self.shape, hash(tuple(data)))
            ref = _TABLES.get(key)
            twin = None if ref is None else ref()
            if twin is None:
                _TABLES[key] = weakref.ref(self, partial(_forget, key))
            elif twin._data is not data and twin._data != data:
                twin = None             # equal hashes only: build, unshared
            self._twin = twin
        return twin

    def _table(self):
        """rows[i][j] = [(k, c)] over the nonzero t[i,j,k], k ascending,
        read from the tensor's data."""
        if self._rows is None:
            twin = self._source()
            if twin is not None:
                self._rows = twin._table()
            else:
                n0, n1, n2 = self.shape
                d = self._data
                self._rows = [[[(k, c) for k, c in enumerate(
                    d[(i * n1 + j) * n2:(i * n1 + j + 1) * n2]) if c]
                    for j in range(n1)] for i in range(n0)]
        return self._rows

    def row(self, i, j):
        """t[i,j,:] as [(k, c)] over its nonzero entries."""
        return (self._rows or self._table())[i][j]

    def rows(self, i):
        """[row(i, j) for every j], the table's own list."""
        return (self._rows or self._table())[i]

    def _all_terms(self):
        if self._terms is None:
            twin = self._source()
            self._terms = (_terms_of(self._table()) if twin is None
                           else twin._all_terms())
        return self._terms

    def terms(self, i):
        """t[i,:,:] as [(j, k, c)] over its nonzero entries, j-major."""
        return (self._terms or self._all_terms())[i]

    def lifted_rows(self):
        """(table, scale): the table of row(i, j) with coefficients lifted
        over one scale (Field.lift), [i][j]."""
        if self._lrows is None:
            twin = self._source()
            if twin is not None:
                self._lrows = twin.lifted_rows()
            else:
                # the coefficients of the sparse table, lifted as one list
                table = self._table()
                values = list(map(_second, chain.from_iterable(
                    chain.from_iterable(table))))
                ints, scale = self.field.lift(values)
                if ints is not values:
                    it = iter(ints)
                    table = [[[(k, next(it)) for k, _ in row] for row in rows]
                             for rows in table]
                self._lrows = table, scale
        return self._lrows

    def lifted_terms(self):
        """(table, scale): the table of terms(i) with coefficients lifted
        over lifted_rows' scale, [i]."""
        if self._lterms is None:
            twin = self._source()
            if twin is not None:
                self._lterms = twin.lifted_terms()
            else:
                rows, scale = self.lifted_rows()
                self._lterms = (self._all_terms() if rows is self._rows
                                else _terms_of(rows)), scale
        return self._lterms

    def flat_tables(self):
        """(tables, scale): [i] is t[i,:,:] as {p·n₂+q: lifted t[i,p,q]} over
        its nonzero entries, in row-major order, at lifted_rows' scale."""
        if self._flat is None:
            twin = self._source()
            if twin is not None:
                self._flat = twin.flat_tables()
            else:
                n2 = self.shape[2]
                terms, scale = self.lifted_terms()
                self._flat = [{j * n2 + k: c for j, k, c in ts}
                              for ts in terms], scale
        return self._flat

    def apply(self, u, v):
        """Σ u_i v_j t[i,j,:] for dense coordinate vectors u and v: the
        body of the mul_vec and act_vec wrappers only."""
        rows = self._rows or self._table()
        out = self._zeros[:]
        for i, x in enumerate(u):
            if not x:
                continue
            ri = rows[i]
            for j, y in enumerate(v):
                if not y:
                    continue
                xy = x * y
                for k, c in ri[j]:
                    out[k] = out[k] + xy * c
        return out

    def apply_basis(self, i, v):
        """Σ v_j t[i,j,:], that is apply(e_i, v), read from rows(i)."""
        return linear_combination(
            self.field, self.shape[2],
            ((y, r) for y, r in zip(v, self.rows(i)) if y))


def row_space_echelon(field, vectors, dim):
    """Echelon basis of the span of the given row vectors, as dense rows
    in increasing order of their leading column."""
    pivots = _reduce(field, (enumerate(v) for v in vectors))
    out = []
    for col in sorted(pivots):
        row = [field.zero] * dim
        for c, x in pivots[col].items():
            row[c] = x
        out.append(row)
    return out


def same_span(field, vecs_a, vecs_b, dim):
    """Do two families of row vectors span the same subspace?"""
    ea = row_space_echelon(field, vecs_a, dim)
    eb = row_space_echelon(field, vecs_b, dim)
    if len(ea) != len(eb):
        return False
    combined = row_space_echelon(field, ea + eb, dim)
    return len(combined) == len(ea)


def in_span(field, vec, basis_rows, dim):
    ra = row_space_echelon(field, basis_rows, dim)
    rb = row_space_echelon(field, ra + [list(vec)], dim)
    return len(rb) == len(ra)
