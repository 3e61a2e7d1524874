"""Dense exact matrices and tensors with Gaussian elimination.

Conventions used throughout the package:

* ``Matrix`` stores rows as lists; ``data[r][c]`` is the entry in row r,
  column c.  ``entries`` flattens row-major for serialization.
* A linear map f stored as a Matrix uses the row-as-image convention:
  f(e_r) = Σ_c data[r][c] e_c.  Applying f to a coordinate vector v is
  ``apply_rowmap(v, M)`` (v·M) and "apply A then B" is ``mat_mul(A, B)``.
* ``kernel_basis``/``solve`` use the usual column-vector reading m·x = b.
* The basis vector e_i⊗e_j of a tensor square has flat index i·n₂ + j;
  all tensor data is row-major over its shape.
* ``Bilinear`` is the one sparse structure-tensor kernel: the products,
  actions, coproducts and coactions of all structures are read through it.

Dimensions are capped by HOPFLAB_MAX_DIM (default 64).
"""

from __future__ import annotations

import os


def max_dim():
    return int(os.environ.get("HOPFLAB_MAX_DIM", "64"))


class DimensionError(ValueError):
    pass


def check_dim(n):
    if n > max_dim():
        raise DimensionError(
            "dimension %d exceeds HOPFLAB_MAX_DIM=%d" % (n, max_dim()))
    return n


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        assert len(data) == rows and all(len(r) == cols for r in data)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

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
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @property
    def entries(self):
        return [x for row in self.data for x in row]

    def copy(self):
        return Matrix(self.field, self.rows, self.cols,
                      [row[:] for row in self.data])

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[r][c] for r in range(self.rows)]
                       for c in range(self.cols)])

    def column(self, c):
        return [self.data[r][c] for r in range(self.rows)]

    def is_zero(self):
        return not any(any(row) for row in self.data)

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


def apply_rowmap(vec, m):
    """Image of the coordinate vector under the row-as-image map m (v·M)."""
    zero = m.field.zero
    out = [zero] * m.cols
    for r, x in enumerate(vec):
        if not x:
            continue
        row = m.data[r]
        for c in range(m.cols):
            y = row[c]
            if y:
                out[c] = out[c] + x * y
    return out


def mat_vec(m, x):
    """m·x for a column vector x (list of length m.cols)."""
    zero = m.field.zero
    out = []
    for row in m.data:
        s = zero
        for c, v in enumerate(x):
            if v and row[c]:
                s = s + row[c] * v
        out.append(s)
    return out


def _echelon(rows, ncols, field):
    """In-place forward elimination; returns list of pivot (row, col)."""
    pivots = []
    pr = 0
    nrows = len(rows)
    for pc in range(ncols):
        pivot_row = -1
        for r in range(pr, nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row < 0:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        pivots.append((pr, pc))
        fp = rows[pr][pc]
        for r in range(pr + 1, nrows):
            fr = rows[r][pc]
            if not fr:
                continue
            mlt = field.div(fr, fp)
            rr = rows[r]
            rp = rows[pr]
            for c in range(pc, ncols):
                if rp[c]:
                    rr[c] = rr[c] - rp[c] * mlt
        pr += 1
        if pr == nrows:
            break
    return pivots


def rank(m):
    """Row rank by exact Gaussian elimination."""
    rows = [row[:] for row in m.data]
    return len(_echelon(rows, m.cols, m.field))


def _rref(rows, ncols, field):
    """Reduce to reduced row echelon form; returns pivot columns."""
    pivots = _echelon(rows, ncols, field)
    one = field.one
    for pr, pc in reversed(pivots):
        fp = rows[pr][pc]
        if fp != one:
            inv = field.div(one, fp)
            row = rows[pr]
            for c in range(pc, ncols):
                if row[c]:
                    row[c] = row[c] * inv
        for r in range(pr):
            fr = rows[r][pc]
            if not fr:
                continue
            rr = rows[r]
            rp = rows[pr]
            for c in range(pc, ncols):
                if rp[c]:
                    rr[c] = rr[c] - rp[c] * fr
    return [pc for _, pc in pivots]


def kernel_basis(m):
    """Columns form a basis of {x | m·x = 0}."""
    field = m.field
    rows = [row[:] for row in m.data]
    piv_cols = _rref(rows, m.cols, field)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(m.cols) if c not in piv_set]
    basis = []
    zero, one = field.zero, field.one
    for fc in free_cols:
        vec = [zero] * m.cols
        vec[fc] = one
        for r, pc in enumerate(piv_cols):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    data = [[basis[j][i] for j in range(len(basis))] for i in range(m.cols)]
    return Matrix(field, m.cols, len(basis), data)


def solve(m, b):
    """Some x with m·x = b (free variables set to 0), or None if unsolvable.

    b is a Matrix with b.rows == m.rows; one solution column per RHS column.
    """
    if m.rows != b.rows:
        raise DimensionError("solve: %d equations vs %d RHS rows"
                             % (m.rows, b.rows))
    field = m.field
    nc = m.cols
    k = b.cols
    rows = [m.data[r][:] + b.data[r][:] for r in range(m.rows)]
    piv_cols = _rref(rows, nc + k, field)
    if any(pc >= nc for pc in piv_cols):
        return None
    out = Matrix.zeros(field, nc, k)
    for r, pc in enumerate(piv_cols):
        for j in range(k):
            out.data[pc][j] = rows[r][nc + j]
    return out


def mat_inverse(m):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise DimensionError("inverse of non-square matrix")
    x = solve(m, Matrix.identity(m.field, m.rows))
    return x


class Tensor:
    __slots__ = ("field", "shape", "data")

    def __init__(self, field, shape, data):
        shape = tuple(shape)
        size = 1
        for s in shape:
            size *= s
        assert len(data) == size
        self.field = field
        self.shape = shape
        self.data = data

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

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return "Tensor%s" % (self.shape,)


class Bilinear:
    """The sparse structure-tensor kernel over a 3-tensor t[i,j,k].

    t is read as the bilinear map (e_i, e_j) ↦ Σ_k t[i,j,k] e_k (a product
    or an action) and as the linear map e_i ↦ Σ t[i,j,k] e_j⊗e_k (a
    coproduct or a coaction).  Each table is built once, on first use, and
    the tensor must not change after that; callers must not change the
    lists it returns.
    """
    __slots__ = ("tensor", "_zeros", "_dense", "_rows", "_terms")

    def __init__(self, tensor):
        self.tensor = tensor
        self._zeros = [tensor.field.zero] * tensor.shape[2]
        self._dense = None
        self._rows = None
        self._terms = None

    def _dense_table(self):
        """dense[i][j] = t[i,j,:] as a list."""
        if self._dense is None:
            n0, n1, n2 = self.tensor.shape
            d = self.tensor.data
            self._dense = [[d[(i * n1 + j) * n2:(i * n1 + j + 1) * n2]
                            for j in range(n1)] for i in range(n0)]
        return self._dense

    def _table(self):
        """rows[i][j] = [(k, c)] over the nonzero t[i,j,k], k ascending."""
        if self._rows is None:
            self._rows = [[[(k, c) for k, c in enumerate(row) if c]
                           for row in rows] for rows in self._dense_table()]
        return self._rows

    def dense_row(self, i, j):
        """t[i,j,:] as a dense list."""
        return (self._dense or self._dense_table())[i][j]

    def row(self, i, j):
        """t[i,j,:] as [(k, c)] over its nonzero entries."""
        return (self._rows or self._table())[i][j]

    def terms(self, i):
        """t[i,:,:] as [(j, k, c)] over its nonzero entries, j-major."""
        if self._terms is None:
            self._terms = [[(j, k, c) for j, row in enumerate(rows)
                            for k, c in row] for rows in self._table()]
        return self._terms[i]

    def apply(self, u, v):
        """Σ u_i v_j t[i,j,:] for coordinate vectors u and v."""
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
        """Σ v_j t[i,j,:], that is apply(e_i, v)."""
        field = self.tensor.field
        e = [field.zero] * self.tensor.shape[0]
        e[i] = field.one
        return self.apply(e, v)


def row_space_echelon(field, vectors, dim):
    """Echelon basis of the span of the given row vectors."""
    rows = [list(v) for v in vectors]
    _echelon(rows, dim, field)
    return [r for r in rows if any(r)]


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
