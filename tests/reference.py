"""Naive references for the differential tests, and the one corruption
generator they read.

Each reference computes one formula of the package the slow way, on field
elements, from the structures' own data: a tensor's ``.data``, a Matrix's
``.data``, and the unit and counit lists.  None reads a route it is meant
to check: no Bilinear table, lifted table or ``Field.lift``, no
``HopfAlgebra.copower``, ``product``, ``word_table`` or ``mul_vec``, no
``twist.eval2``, and none of linalg's ``linear_combination``, ``mat_mul``
or elimination.  A reference may build the package's containers
(``Matrix``, ``Tensor``, ``HopfAlgebra``, ``YdModule``, ``YdAlgebra``, …),
reproduce report rows with ``CheckReport`` and ``first_mismatch``, and
take as input an object a test builds with the package (H*, a
generating set); each such input has its own differential test.

Conventions, those of hopf.py:

- A 3-tensor t is row-major: t[i,j,k] is ``t.data[(i·n₁ + j)·n₂ + k]``
  for ``t.shape = (n₀, n₁, n₂)``, and ``dense_row(t, i, j)`` is the slice
  t[i,j,:].  mult[i,j,k] is the coefficient of e_k in e_i·e_j,
  comult[i,j,k] that of e_j⊗e_k in Δ(e_i), action[i,p,q] that of v_q in
  e_i·v_p and coaction[p,q,k] that of v_q⊗e_k in ρ(v_p).
- A Matrix is row-as-image: ``m.data[i][j]`` is the coefficient of e_j in
  the image of e_i, and a functional on H⊗H is f(e_i⊗e_j) =
  ``f.data[i][j]``.  An element of a tensor square, such as End(M)'s
  basis vector E_{pq} or the pair (u, v) of a product's input, has the
  flat index i·n₂ + j.
- Δ^(k−1)(e_i) is expanded left to right on its last leg (``copowers``).

Corruptions: ``changes(x)`` yields every copy of a Tensor, Matrix or
coordinate list x with one entry raised or lowered by 1 (in that order,
entry by entry in flat order), and with ``thirds`` over ℚ also by 1/3
and −1/3, so that a changed table has denominators 3, or 6 where it had
halves.  ``changed(x, flat, step)`` is the one copy that every seeded or
fixed corruption of the tests is built with.

A tensor's sparse rows are formed once while it is among the last ones
read (``rows_of``), so a tensor's data must not change once a reference
has read it.
"""

import importlib
import importlib.util
import os
import sys
from types import SimpleNamespace

from hopflab.galois import BimoduleActions, BraidedHopf
from hopflab.hopf import HopfAlgebra
from hopflab.linalg import Matrix, Tensor
from hopflab.report import (CheckReport, VerificationError, first_mismatch,
                            require_agree)
from hopflab.yd import YdAlgebra, YdModule


# -- reading the data ---------------------------------------------------------

def dense_row(t, i, j):
    """t[i,j,:] of a 3-tensor as a dense list: a slice of its data."""
    n1, n2 = t.shape[1], t.shape[2]
    start = (i * n1 + j) * n2
    return t.data[start:start + n2]


_ROWS = {}      # id(t) → (t, rows_of(t)), the tensors read last first out
_KEEP = 32      # tensors kept; a host stays among them through a long loop


def rows_of(t):
    """[i][j] is t[i,j,:] as [(k, c)] over its nonzero entries, k
    ascending.  A reference reads one table's rows once per product, so
    the rows of the _KEEP tensors read last are kept."""
    got = _ROWS.pop(id(t), None)
    if got is None:
        n0, n1, n2 = t.shape
        d = t.data
        got = (t, [[[(k, c) for k, c in enumerate(
            d[(i * n1 + j) * n2:(i * n1 + j + 1) * n2]) if c]
            for j in range(n1)] for i in range(n0)])
        if len(_ROWS) >= _KEEP:
            del _ROWS[next(iter(_ROWS))]
    _ROWS[id(t)] = got
    return got[1]


def terms_of(t):
    """[i] is t[i,:,:] as [(j, k, c)] over its nonzero entries, j-major."""
    return [[(j, k, c) for j, row in enumerate(rows) for k, c in row]
            for rows in rows_of(t)]


def basis(field, n):
    """The n basis vectors of kⁿ as coordinate lists."""
    return [[field.one if j == i else field.zero for j in range(n)]
            for i in range(n)]


def copowers(h, k):
    """[i] is Δ^(k−1)(e_i) as [(index tuple of length k, coefficient)]."""
    delta = terms_of(h.comult)
    out = [[((i,), h.field.one)] for i in range(h.dim)]
    for _ in range(k - 1):
        out = [[(idx[:-1] + (j, k2), c * c2) for idx, c in ts
                for j, k2, c2 in delta[idx[-1]]] for ts in out]
    return out


def word(h, c, k, a):
    """(e_c e_k)·S⁻¹(e_a) as a dense list."""
    return times(h.mult, dense_row(h.mult, c, k), h.antipode_inv.data[a])


def sinv_times(h, c, a):
    """S⁻¹(e_c)·e_a as a dense list."""
    e = [h.field.one if t == a else h.field.zero for t in range(h.dim)]
    return times(h.mult, h.antipode_inv.data[c], e)


def times(t, u, v):
    """Σ u_i v_j t[i,j,:] for coordinate lists u and v: the product (or
    action) the tensor t gives them, as a dense list."""
    rows = rows_of(t)
    vs = [(j, y) for j, y in enumerate(v) if y]
    return combine(t.field, t.shape[2], ((x * y, rows[i][j])
                                         for i, x in enumerate(u) if x
                                         for j, y in vs))


def combine(field, n, pairs):
    """Σ c·row over the (c, row) pairs, each row a sparse [(k, x)], as a
    dense list of length n."""
    out = [field.zero] * n
    for c, r in pairs:
        for k, x in r:
            out[k] = out[k] + c * x
    return out


def apply_rowmap(vec, m):
    """v·M: the image of the coordinate list vec under the row-as-image
    matrix m."""
    out = [m.field.zero] * m.cols
    for r, x in enumerate(vec):
        if not x:
            continue
        for c, y in enumerate(m.data[r]):
            if y:
                out[c] = out[c] + x * y
    return out


def pair(f, u, v):
    """f(u⊗v) for the Matrix f and u, v coordinate lists or basis
    indices."""
    acc = f.field.zero
    if type(u) is int:
        row = f.data[u]
        if type(v) is int:
            return row[v]
        for y, c in zip(v, row):
            if y and c:
                acc = acc + y * c
    elif type(v) is int:
        for x, row in zip(u, f.data):
            if x and row[v]:
                acc = acc + x * row[v]
    else:
        vs = [(j, y) for j, y in enumerate(v) if y]
        for x, row in zip(u, f.data):
            if x:
                for j, y in vs:
                    if row[j]:
                        acc = acc + x * y * row[j]
    return acc


def matrix_product(a, b):
    """The Matrix product a·b: row r is Σ_k a[r][k]·(row k of b)."""
    brows = [[(c, y) for c, y in enumerate(r) if y] for r in b.data]
    return Matrix(a.field, a.rows, b.cols, [
        combine(a.field, b.cols, ((x, brows[k]) for k, x in enumerate(r) if x))
        for r in a.data])


def mutually_inverse(a, b):
    """ab = 1 and ba = 1."""
    return (matrix_product(a, b) == Matrix.identity(a.field, a.rows)
            and matrix_product(b, a) == Matrix.identity(a.field, b.rows))


def columns_as_rows(mat):
    """The columns of mat as sparse rows [(index, entry)] of their nonzero
    entries."""
    return [[(i, x) for i, x in enumerate(mat.column(j)) if x]
            for j in range(mat.cols)]


# -- elimination: one Gauss–Jordan --------------------------------------------

def rref(field, rows, reduced=True):
    """The row echelon form of the span of rows, each an iterable of
    (column, entry) pairs over distinct columns (zeros allowed), as
    {pivot column: row dict} by increasing pivot, every pivot 1.  Each row
    is reduced at its lowest column until it is 0 or leads at a new pivot;
    with reduced (Gauss–Jordan) every pivot column is then cleared in the
    other pivot rows, which makes the form unique."""
    zero, one = field.zero, field.one
    pivots = {}

    def subtract(r, x, prow):
        for c, y in prow.items():
            v = r.get(c, zero) - x * y
            if v:
                r[c] = v
            else:
                del r[c]

    for given in rows:
        r = {c: x for c, x in given if x}
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = field.div(one, r[lead])
                pivots[lead] = {c: x * inv for c, x in r.items()}
                break
            subtract(r, r[lead], prow)
    order = sorted(pivots)
    if reduced:     # right to left: the rows right of pc are reduced
        for pc in reversed(order):
            prow = pivots[pc]
            for c in [c for c in prow if c > pc and c in pivots]:
                subtract(prow, prow[c], pivots[c])
    return {pc: pivots[pc] for pc in order}


def rank(m):
    return len(rref(m.field, (enumerate(row) for row in m.data), False))


def pivot_columns(m):
    """The pivot columns of m's row echelon form, increasing."""
    return list(rref(m.field, (enumerate(row) for row in m.data), False))


def kernel_vectors(m):
    """kernel_basis(m)'s columns as dense lists."""
    k = kernel_basis(m)
    return [k.column(j) for j in range(k.cols)]


def kernel_basis(m):
    """The kernel of m (as acting on columns) as the columns of a Matrix,
    one per free column of m's reduced echelon form, in increasing
    order: 1 there, 0 at the other free columns."""
    field = m.field
    pivots = rref(field, (enumerate(row) for row in m.data))
    basis_ = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        vec = [field.zero] * m.cols
        vec[fc] = field.one
        for pc, row in pivots.items():
            x = row.get(fc)
            if x:
                vec[pc] = -x
        basis_.append(vec)
    return Matrix(field, m.cols, len(basis_),
                  [[v[i] for v in basis_] for i in range(m.cols)])


def solve(m, b):
    """The solution X of m·X = b with every free variable 0, or None."""
    nc = m.cols
    pivots = rref(m.field, (list(enumerate(mr)) + list(enumerate(br, nc))
                            for mr, br in zip(m.data, b.data)))
    if any(pc >= nc for pc in pivots):
        return None
    out = Matrix.zeros(m.field, nc, b.cols)
    for pc, row in pivots.items():
        for c, x in row.items():
            if c >= nc:
                out.data[pc][c - nc] = x
    return out


def inverse(m):
    return solve(m, Matrix.identity(m.field, m.rows))


def echelon(field, vectors):
    """The reduced echelon basis of the span of the coordinate lists
    vectors, as dense lists by increasing pivot."""
    dim = len(vectors[0]) if vectors else 0
    out = []
    for row in rref(field, (enumerate(v) for v in vectors)).values():
        dense = [field.zero] * dim
        for c, x in row.items():
            dense[c] = x
        out.append(dense)
    return out


def coordinates_in(field, vectors):
    """The function giving the coordinates of a coordinate list in the
    independent coordinate lists vectors, or None outside their span: the
    reduced echelon form of [vectors | 1] read at the pivots."""
    size, zero = len(vectors[0]) if vectors else 0, field.zero
    pivots = rref(field, (list(enumerate(v)) + [(size + j, field.one)]
                          for j, v in enumerate(vectors)))

    def coordinates(vec):
        acc = {}
        for pc, r in pivots.items():
            x = vec[pc]
            if x:
                for c, y in r.items():
                    acc[c] = acc.get(c, zero) + x * y
        if any(acc.get(c, zero) != x for c, x in enumerate(vec)):
            return None
        return [acc.get(size + j, zero) for j in range(len(vectors))]
    return coordinates


class ColumnSpace:
    """A subspace read through the columns of a Matrix of its basis:
    coordinates from one echelon form, membership and equality by
    ranks."""

    def __init__(self, sub):
        self.field = sub.field
        self.ambient_dim = sub.ambient_dim
        self.basis = Matrix(sub.field, sub.ambient_dim, sub.dim,
                            [[v[i] for v in sub.vectors]
                             for i in range(sub.ambient_dim)])
        self.coordinates = coordinates_in(sub.field, self.column_vectors())
        self.span_dim = self._rank(self.column_vectors())

    def column_vectors(self):
        return [self.basis.column(j) for j in range(self.basis.cols)]

    def _rank(self, vectors):
        return len(rref(self.field, (enumerate(v) for v in vectors), False))

    def contains(self, vec):
        return self._rank(self.column_vectors() + [list(vec)]) == self.span_dim

    def equals(self, other):
        if self.ambient_dim != other.ambient_dim:
            return False
        both = self.column_vectors() + other.column_vectors()
        return self.span_dim == other.span_dim == self._rank(both)


class MatrixSubspace:
    """galois.Subspace's interface, with its basis read off a dense
    equation Matrix: the columns of its kernel, 1 at their free column and
    0 at the other free ones, so a vector's coordinates are its entries
    there."""

    def __init__(self, field, size, images):
        dim = len(images)
        eqs = [[field.zero] * dim for _ in range(size)]
        for p, image in enumerate(images):
            for k, c in image:
                eqs[k][p] = eqs[k][p] + c
        self.field = field
        self.ambient_dim = dim
        self.vectors = kernel_vectors(Matrix(field, size, dim, eqs))
        self.rows = [[(k, x) for k, x in enumerate(v) if x]
                     for v in self.vectors]
        self.free = [row[-1][0] for row in self.rows]

    @property
    def dim(self):
        return len(self.vectors)

    def coordinates(self, vec):
        coords = [vec[k] for k in self.free]
        back = [self.field.zero] * self.ambient_dim
        for c, v in zip(coords, self.vectors):
            back = [x + c * y for x, y in zip(back, v)]
        return coords if back == list(vec) else None

    def contains(self, vec):
        return self.coordinates(vec) is not None

    def equals(self, other):
        return (self.ambient_dim == other.ambient_dim
                and self.vectors == other.vectors)


def kernel_and_preimages(f, beta, n, unit):
    """ker βᵀ and the preimages under βᵀ of 1⊗e_k, as sparse rows, from a
    dense βᵀ and a dense right-hand side; raises as _mu_action_and_pi
    does when there are none."""
    size, rows = len(beta), len(unit) * n
    beta_t = Matrix(f, rows, size, [[row.get(c, f.zero) for row in beta]
                                    for c in range(rows)])
    rhs = Matrix.zeros(f, rows, n)
    for k in range(n):
        for y, u in enumerate(unit):
            if u:
                rhs.data[y * n + k][k] = u
    part = solve(beta_t, rhs)
    if part is None:
        raise VerificationError("β-preimages of 1⊗h do not exist")
    return columns_as_rows(kernel_basis(beta_t)), columns_as_rows(part)


# -- reports ----------------------------------------------------------------

def report_rows(rep, names=None):
    """The (name, status, witness, detail) tuples of the named checks, or
    of every check when names is None."""
    return [(c.name, c.status, c.witness, c.detail) for c in rep.checks
            if names is None or c.name in names]


def row(name, witness, detail=""):
    """A check's report row (name, status, witness, detail)."""
    return (name, "pass" if witness is None else "fail", witness, detail)


def outcome(build, *args):
    """build(*args), or the message of the VerificationError it raises."""
    try:
        return build(*args)
    except VerificationError as exc:
        return str(exc)


def agreed(what, field, shape, form, other):
    """The 3-tensor t[i,j,:] = form(i, j); other(i, j) must give the same
    rows, else VerificationError with the first differing (i, j, k)."""
    n0, n1, n2 = shape
    one = [[form(i, j) for j in range(n1)] for i in range(n0)]
    two = [[other(i, j) for j in range(n1)] for i in range(n0)]
    if one != two:
        require_agree(what, (range(n0), range(n1), range(n2)),
                      lambda i, j, k: (one[i][j][k], two[i][j][k]))
    return Tensor.from_rows(field, shape, one)


# -- corruptions --------------------------------------------------------------

def steps(field, thirds=False):
    """±1, and with thirds over ℚ also ±1/3."""
    one = field.one
    if thirds and field.kind == "Q":
        third = field.ratio(1, 3)
        return one, -one, third, -third
    return one, -one


def changed(x, flat, step):
    """A copy of the Tensor, Matrix or list x with step added to its entry
    at flat index flat (i·cols + j for a Matrix)."""
    if isinstance(x, Tensor):
        data = list(x.data)
        data[flat] = data[flat] + step
        return Tensor(x.field, x.shape, data)
    if isinstance(x, Matrix):
        i, j = divmod(flat, x.cols)
        data = [list(r) for r in x.data]
        data[i][j] = data[i][j] + step
        return Matrix(x.field, x.rows, x.cols, data)
    out = list(x)
    out[flat] = out[flat] + step
    return out


def changes(x, thirds=False, field=None, flats=None):
    """Every copy of the Tensor, Matrix or coordinate list x (over field)
    with one entry, at each flat index of flats (every entry by default),
    raised or lowered by 1, and with thirds over ℚ by ±1/3."""
    size = (len(x.data) if isinstance(x, Tensor) else
            x.rows * x.cols if isinstance(x, Matrix) else len(x))
    for flat in range(size) if flats is None else flats:
        for step in steps(field or x.field, thirds):
            yield changed(x, flat, step)


def bumped(x, idx):
    """A copy of x with 1 added at the index tuple idx."""
    if isinstance(x, Tensor):
        shape, one = x.shape, x.field.one
    elif isinstance(x, Matrix):
        shape, one = (x.rows, x.cols), x.field.one
    else:
        shape, one = (len(x),), 1
    flat = 0
    for i, s in zip(idx, shape):
        flat = flat * s + i
    return changed(x, flat, one)


def module_changes(mod, thirds=False):
    """mod, then every copy with one entry of its action or of its
    coaction changed (changes)."""
    yield mod
    for t in changes(mod.action, thirds):
        yield YdModule(mod.host, mod.dim, t, mod.coaction)
    for t in changes(mod.coaction, thirds):
        yield YdModule(mod.host, mod.dim, mod.action, t)


def hopf_with(h, **changed_parts):
    """h with the named structure tensors, vectors or matrices replaced."""
    parts = dict(field=h.field, dim=h.dim, basis_names=h.basis_names,
                 mult=h.mult, unit=h.unit, comult=h.comult, counit=h.counit,
                 antipode=h.antipode, antipode_inv=h.antipode_inv)
    parts.update(changed_parts)
    return HopfAlgebra(**parts)


# -- inputs the tests share ---------------------------------------------------

TAFT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "taft.py")


def taft_algebra(n, p):
    """T_n over F_p from perfbench/taft.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_taft", TAFT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    hl = SimpleNamespace(**{name: importlib.import_module("hopflab." + name)
                            for name in ("fields", "linalg", "hopf")})
    return mod.taft_algebra(hl, n, p)


def trivial_algebra(host):
    """The ground field as a YD module algebra."""
    from hopflab.catalog import trivial_module
    f = host.field
    return YdAlgebra(trivial_module(host, 1), Tensor(f, (1, 1, 1), [f.one]),
                     [f.one])


def yd_from_module(q, action):
    """YD module on a left module via the ℛ-induced coaction
    a ↦ Σ (ℛ²·a)⊗ℛ¹: the dual of yd_from_comodule for ℛ read as R on H*,
    applied to M's action as M*'s coaction."""
    from hopflab.hopf import dual_hopf
    from hopflab.linalg import check_shape
    from hopflab.quasitriangular import CqtStructure, yd_from_comodule
    from hopflab.yd import dual_module
    h = q.host
    m = action.shape[1]
    check_shape("action", action.shape, (h.dim, m, m))
    r = CqtStructure(dual_hopf(h), q.rr, q.rr_inv)
    return dual_module(yd_from_comodule(r, action.permuted((1, 2, 0))))


def count_calls(monkeypatch, name, owner="hopflab.yd"):
    """Wrap <owner>.<name> in every hopflab module that binds it; the
    returned list grows by one per call."""
    calls = []
    inner = getattr(importlib.import_module(owner), name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hopflab") and \
                getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


# -- Hopf algebras ------------------------------------------------------------

def associativity_mismatch(mult):
    """The first (p, q, r) with (e_p e_q)e_r ≠ e_p(e_q e_r), the product
    read from the tensor mult."""
    n, f, rows = mult.shape[0], mult.field, rows_of(mult)
    return first_mismatch((range(n),) * 3, lambda p, q, r: (
        combine(f, n, ((c, rows[t][r]) for t, c in rows[p][q])),
        combine(f, n, ((c, rows[p][t]) for t, c in rows[q][r]))))


def unit_mismatch(mult, unit):
    """The first p with 1·e_p ≠ e_p or e_p·1 ≠ e_p."""
    e = basis(mult.field, mult.shape[0])
    return first_mismatch((range(len(e)),), lambda p: (
        (times(mult, unit, e[p]), times(mult, e[p], unit)), (e[p], e[p])))


def product_checks(h):
    """verify_hopf_axioms' associativity and unit."""
    rep = CheckReport()
    bad = associativity_mismatch(h.mult)
    rep.add("associativity", bad is None, bad)
    bad = unit_mismatch(h.mult, h.unit)
    rep.add("unit", bad is None, bad)
    return rep


def coaction_mismatch(comult, coaction):
    """The first witness (p, q, k1, k2) of (ρ⊗id)ρ = (id⊗Δ)ρ for the
    coaction tensor under the comult tensor, dicts keyed (q, k1, k2)."""
    zero = coaction.field.zero
    delta, coact = terms_of(comult), terms_of(coaction)

    def sides(p):
        lhs = {}
        for q0, k, c in coact[p]:
            for q1, k1, c1 in coact[q0]:
                key = (q1, k1, k)
                lhs[key] = lhs.get(key, zero) + c * c1
        rhs = {}
        for q0, k, c in coact[p]:
            for a, b, c2 in delta[k]:
                key = (q0, a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        return lhs, rhs

    return first_mismatch((range(coaction.shape[0]),), sides)


def antipode_mismatch(h, mult, s):
    """The first i with Σ S(i₁)i₂ or Σ i₁S(i₂) ≠ ε(e_i)1, for h's Δ, unit
    and counit, the product tensor mult and the rows s of S."""
    n, zero = h.dim, h.field.zero
    e, delta = basis(h.field, n), terms_of(h.comult)

    def sides(i):
        left = [zero] * n
        right = [zero] * n
        for a, b, c in delta[i]:
            for k, x in enumerate(times(mult, s[a], e[b])):
                if x:
                    left[k] = left[k] + c * x
            for k, x in enumerate(times(mult, e[a], s[b])):
                if x:
                    right[k] = right[k] + c * x
        want = [h.counit[i] * x for x in h.unit]
        return (left, right), (want, want)

    return first_mismatch((range(n),), sides)


def hopf_checks(h):
    """verify_hopf_axioms' unit, coassociativity and antipode."""
    rep = CheckReport()
    bad = unit_mismatch(h.mult, h.unit)
    rep.add("unit", bad is None, bad)
    bad = coaction_mismatch(h.comult, h.comult)
    rep.add("coassociativity", bad is None, bad)
    bad = antipode_mismatch(h, h.mult, h.antipode.data)
    rep.add("antipode", bad is None, bad)
    return rep


def counit_of(h, vec):
    return sum((x * e for x, e in zip(vec, h.counit) if x and e),
               h.field.zero)


def algebra_map_checks(h):
    """verify_hopf_axioms' comult_algebra_map and counit_algebra_map,
    dict-key order included."""
    rep = CheckReport()
    f, zero, every = h.field, h.field.zero, range(h.dim)
    rows, delta = rows_of(h.mult), terms_of(h.comult)

    def comult_of_product(i, j):
        lhs = {}
        for k, c in rows[i][j]:
            for a, b, c2 in delta[k]:
                lhs[(a, b)] = lhs.get((a, b), zero) + c * c2
        rhs = {}
        for a1, b1, c1 in delta[i]:
            for a2, b2, c2 in delta[j]:
                for a, ca in rows[a1][a2]:
                    for b, cb in rows[b1][b2]:
                        rhs[(a, b)] = rhs.get((a, b), zero) + \
                            c1 * c2 * ca * cb
        return lhs, rhs

    bad = first_mismatch((every,) * 2, comult_of_product)
    if bad is None:
        du = {}
        for j, x in enumerate(h.unit):
            if x:
                for a, b, c in delta[j]:
                    du[(a, b)] = du.get((a, b), zero) + x * c
        bad = first_mismatch((every,) * 2, lambda a, b: (
            du.get((a, b), zero), h.unit[a] * h.unit[b]))
    rep.add("comult_algebra_map", bad is None, bad)
    bad = first_mismatch((every,) * 2, lambda i, j: (
        counit_of(h, dense_row(h.mult, i, j)), h.counit[i] * h.counit[j]))
    if bad is None:
        bad = first_mismatch((), lambda: (counit_of(h, h.unit), f.one))
    rep.add("counit_algebra_map", bad is None, bad)
    return rep


# verify_hopf_axioms' checks that a reference decides, in report order
HOPF_REFERENCED = ("associativity", "unit", "coassociativity",
                   "comult_algebra_map", "counit_algebra_map", "antipode")


def hopf_rows(h):
    """The HOPF_REFERENCED report tuples of the references above."""
    found = {}
    for rep in (product_checks(h), hopf_checks(h), algebra_map_checks(h)):
        for r in report_rows(rep):
            found.setdefault(r[0], r)
    return [found[name] for name in HOPF_REFERENCED]


def dual_product(h, mu, nu):
    """μν in H*: e_i ↦ Σ μ(i₁)ν(i₂) over Δ(e_i)."""
    delta = terms_of(h.comult)
    return [sum((cd * (mu[a] * nu[b]) for a, b, cd in delta[i]),
                h.field.zero) for i in range(h.dim)]


def unit_object_tensors(host):
    """I = H* written out: h·p = Σ p₁⟨p₂,h⟩ and the coaction dual to
    h*·p = Σ h*₂ p S⁻¹(h*₁), as (action, coaction, mult, unit)."""
    from hopflab.hopf import dual_hopf
    hd = dual_hopf(host)
    n, f, hs = host.dim, host.field, range(host.dim)
    delta = terms_of(hd.comult)

    def dual_action(i, j):
        acc = [f.zero] * n
        for a, b, c in delta[i]:
            u = times(hd.mult, dense_row(hd.mult, b, j),
                      hd.antipode_inv.data[a])
            for q, cv in enumerate(u):
                if cv:
                    acc[q] = acc[q] + c * cv
        return acc

    dual = [[dual_action(i, j) for j in hs] for i in hs]
    action = Tensor.from_rows(f, (n, n, n), [
        [[dense_row(host.mult, a, i)[j] for a in hs] for j in hs] for i in hs])
    coaction = Tensor.from_rows(f, (n, n, n), [
        [[dual[i][j][q] for i in hs] for q in hs] for j in hs])
    return action, coaction, list(hd.mult.data), list(hd.unit)


# -- convolutions and deformations --------------------------------------------

def convolve2(h, f, g):
    """(f * g)(x⊗y) = Σ f(x₁⊗y₁) g(x₂⊗y₂)."""
    delta = terms_of(h.comult)
    out = Matrix.zeros(h.field, h.dim, h.dim)
    for x in range(h.dim):
        for y in range(h.dim):
            acc = h.field.zero
            for a, b, ca in delta[x]:
                for c, d, cd in delta[y]:
                    fv = f.data[a][c]
                    if fv:
                        gv = g.data[b][d]
                        if gv:
                            acc = acc + ca * cd * fv * gv
            out.data[x][y] = acc
    return out


def conv_operator2(h, f):
    """The matrix of X ↦ f * X on functionals of H⊗H, flat x·n + y."""
    n = h.dim
    delta = terms_of(h.comult)
    op = Matrix.zeros(h.field, n * n, n * n)
    for x in range(n):
        for y in range(n):
            r = op.data[x * n + y]
            for a, b, ca in delta[x]:
                for c, d, cd in delta[y]:
                    fv = f.data[a][c]
                    if fv:
                        r[b * n + d] = r[b * n + d] + ca * cd * fv
    return op


def deform_sums(h, sig, inv):
    """mult, S and S⁻¹ of H^σ as the sums over Δ²(e_i)⊗Δ²(e_j) and
    Δ⁴(e_i): Σ σ(i₁⊗j₁) i₂j₂ σ⁻¹(i₃⊗j₃),
    σ(i₁⊗S(i₂)) S(i₃) σ⁻¹(S(i₄)⊗i₅) and
    σ(S⁻¹(i₂)⊗i₁) S⁻¹(i₃) σ⁻¹(i₅⊗S⁻¹(i₄))."""
    n, f = h.dim, h.field
    rows, cp3, cp5 = rows_of(h.mult), copowers(h, 3), copowers(h, 5)
    mult = [f.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            for (a, b, c1), w1 in cp3[i]:
                for (d, e, c2), w2 in cp3[j]:
                    w = w1 * w2 * sig.data[a][d] * inv.data[c1][c2]
                    if not w:
                        continue
                    for k, cm in rows[b][e]:
                        mult[(i * n + j) * n + k] += w * cm
    s_mat = Matrix.zeros(f, n, n)
    s_inv_mat = Matrix.zeros(f, n, n)
    s, sinv = h.antipode.data, h.antipode_inv.data
    for i in range(n):
        for (a, b, c1, d, e), w in cp5[i]:
            w2 = w * pair(sig, a, s[b]) * pair(inv, s[d], e)
            for k, cv in enumerate(s[c1]):
                s_mat.data[i][k] += w2 * cv
            w3 = w * pair(inv, e, sinv[d]) * pair(sig, sinv[b], a)
            for k, cv in enumerate(sinv[c1]):
                s_inv_mat.data[i][k] += w3 * cv
    return mult, s_mat, s_inv_mat


def deform_host(c):
    """H^σ for the TwoCocycle c, from deform_sums."""
    h = c.host
    n, f = h.dim, h.field
    mult, s_mat, s_inv_mat = deform_sums(h, c.sigma, c.sigma_inv)
    return HopfAlgebra(f, n, list(h.basis_names), Tensor(f, (n, n, n), mult),
                       list(h.unit), h.comult, list(h.counit), s_mat,
                       s_inv_mat, name=h.name + "^s")


def deform_cqt(h, r, sig, inv):
    """R^σ(g⊗x) = Σ σ(x₁⊗g₁) R(g₂⊗x₂) σ⁻¹(g₃⊗x₃)."""
    n = h.dim
    cp3 = copowers(h, 3)
    out = Matrix.zeros(h.field, n, n)
    for g in range(n):
        for x in range(n):
            for (g1, g2, g3), w1 in cp3[g]:
                for (x1, x2, x3), w2 in cp3[x]:
                    out.data[g][x] += (w1 * w2 * sig.data[x1][g1]
                                       * r.data[g2][x2] * inv.data[g3][x3])
    return out


def coboundary(h, mu, mu_inv):
    """∂μ(a⊗b) = Σ μ(a₁)μ(b₁)μ⁻¹(a₂b₂)."""
    n = h.dim
    rows, delta = rows_of(h.mult), terms_of(h.comult)
    out = Matrix.zeros(h.field, n, n)
    for i in range(n):
        for j in range(n):
            for a, b, ca in delta[i]:
                for c, d, cd in delta[j]:
                    for k, cm in rows[b][d]:
                        out.data[i][j] += (ca * cd * cm * mu[a] * mu[c]
                                           * mu_inv[k])
    return out


def is_lazy(h, sig):
    """Σ σ(i₁⊗j₁) i₂j₂ = Σ i₁j₁ σ(i₂⊗j₂) for every pair of basis
    elements."""
    n = h.dim
    rows, delta = rows_of(h.mult), terms_of(h.comult)
    for i in range(n):
        for j in range(n):
            lhs = [h.field.zero] * n
            rhs = [h.field.zero] * n
            for a, b, ca in delta[i]:
                for c, d, cd in delta[j]:
                    for k, cm in rows[b][d]:
                        lhs[k] += ca * cd * sig.data[a][c] * cm
                    for k, cm in rows[a][c]:
                        rhs[k] += ca * cd * sig.data[b][d] * cm
            if lhs != rhs:
                return False
    return True


# -- H⊗H⊗H on flat n³ coefficient lists --------------------------------------

def hhh_mul(h, a, b):
    """Product in H⊗H⊗H on flat n³ coefficient lists."""
    n, f = h.dim, h.field
    rows = rows_of(h.mult)
    out = [f.zero] * (n ** 3)
    nz_a = [(i, j, k, v) for i in range(n) for j in range(n)
            for k in range(n) if (v := a[(i * n + j) * n + k])]
    nz_b = [(i, j, k, v) for i in range(n) for j in range(n)
            for k in range(n) if (v := b[(i * n + j) * n + k])]
    for i, j, k, x in nz_a:
        for p, q, r, y in nz_b:
            xy = x * y
            for a1, c1 in rows[i][p]:
                for a2, c2 in rows[j][q]:
                    c12 = c1 * c2
                    for a3, c3 in rows[k][r]:
                        idx = (a1 * n + a2) * n + a3
                        out[idx] = out[idx] + xy * c12 * c3
    return out


def embed12(h, m):
    """m⊗1 in H⊗H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            x = m.data[i][j]
            if x:
                for k, u in enumerate(h.unit):
                    if u:
                        out[(i * n + j) * n + k] = x * u
    return out


def embed23(h, m):
    """1⊗m in H⊗H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for k, u in enumerate(h.unit):
        if u:
            for i in range(n):
                for j in range(n):
                    x = m.data[i][j]
                    if x:
                        out[(k * n + i) * n + j] = u * x
    return out


def delta_leg(h, m, leg):
    """(Δ⊗id)(m) for leg 0 and (id⊗Δ)(m) for leg 1, m ∈ H⊗H."""
    n = h.dim
    delta = terms_of(h.comult)
    out = [h.field.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            x = m.data[i][j]
            if not x:
                continue
            for a, b, c in delta[j if leg else i]:
                idx = ((i * n + a) * n + b) if leg else ((a * n + b) * n + j)
                out[idx] = out[idx] + x * c
    return out


def dual_cocycle_checks(d):
    """verify_dual_cocycle's dual_pentagon and counit_normalization on flat
    lists."""
    h = d.host
    n, f = h.dim, h.field
    rep = CheckReport()
    lhs = hhh_mul(h, embed12(h, d.theta), delta_leg(h, d.theta, 0))
    rhs = hhh_mul(h, embed23(h, d.theta), delta_leg(h, d.theta, 1))
    bad = first_mismatch((range(n),) * 3, lambda a, b, c: (
        lhs[(a * n + b) * n + c], rhs[(a * n + b) * n + c]))
    rep.add("dual_pentagon", bad is None, bad)
    left = [f.zero] * n
    right = [f.zero] * n
    for i in range(n):
        for j in range(n):
            x = d.theta.data[i][j]
            if not x:
                continue
            if h.counit[i]:
                left[j] = left[j] + h.counit[i] * x
            if h.counit[j]:
                right[i] = right[i] + h.counit[j] * x
    rep.add("counit_normalization", left == h.unit and right == h.unit)
    return rep


# -- the θ side ---------------------------------------------------------------

def pairs(mat):
    """The nonzero entries of mat as [(a, b, x)]: Σ x·e_a⊗e_b."""
    return [(a, b, x) for a, r in enumerate(mat.data)
            for b, x in enumerate(r) if x]


def hh_product(h, a, b):
    """(Σ a_ij e_i⊗e_j)(Σ b_kl e_k⊗e_l) = Σ a_ij b_kl e_ie_k ⊗ e_je_l."""
    n = h.dim
    out = [[h.field.zero] * n for _ in range(n)]
    for i, j, x in pairs(a):
        for k, l, y in pairs(b):
            left = dense_row(h.mult, i, k)
            right = dense_row(h.mult, j, l)
            for p in range(n):
                if left[p]:
                    for q in range(n):
                        out[p][q] = out[p][q] + x * y * left[p] * right[q]
    return Matrix(h.field, n, n, out)


def theta_conjugates(d):
    """Δ_θ(h) = θΔ(h)θ⁻¹ as a comult tensor and S_θ(h) =
    Σ θ¹S(θ²)S(h)S(θ̄¹)θ̄² as a Matrix, for θ⁻¹ = Σ θ̄¹⊗θ̄²."""
    h = d.host
    n, f, s = h.dim, h.field, h.antipode.data
    e = basis(f, n)
    comult, s_rows = [], []
    for i in range(n):
        di = Matrix(f, n, n, [dense_row(h.comult, i, a) for a in range(n)])
        comult.append(hh_product(h, d.theta,
                                 hh_product(h, di, d.theta_inv)).data)
        acc = [f.zero] * n
        for a, b, x in pairs(d.theta):
            for c, e2, y in pairs(d.theta_inv):
                v = e[a]
                for w in (s[b], s[i], s[c], e[e2]):
                    v = times(h.mult, v, w)
                acc = [z + x * y * u for z, u in zip(acc, v)]
        s_rows.append(acc)
    return Tensor.from_rows(f, (n, n, n), comult), Matrix(f, n, n, s_rows)


def rho_theta(d, mod):
    """ρ_θ(m) = Σ θ¹·(θ̄²·m)₀ ⊗ θ²(θ̄²·m)₁θ̄¹ for θ⁻¹ = Σ θ̄¹⊗θ̄², as the
    tensor coaction[p,q,k]."""
    h = mod.host
    n, m = h.dim, mod.dim
    e = basis(h.field, n)
    act, coact = rows_of(mod.action), terms_of(mod.coaction)
    middle = {(b, k, c): times(h.mult, times(h.mult, e[b], e[k]), e[c])
              for b in range(n) for k in range(n) for c in range(n)}
    co = [[[h.field.zero] * n for _ in range(m)] for _ in range(m)]
    for p in range(m):
        for a, b, x in pairs(d.theta):
            for c, e2, y in pairs(d.theta_inv):
                for q0, u in act[e2][p]:
                    for q1, k, cc in coact[q0]:
                        hv = middle[b, k, c]
                        for q2, v in act[a][q1]:
                            w = x * y * u * cc * v
                            r = co[p][q2]
                            for k2 in range(n):
                                if hv[k2]:
                                    r[k2] = r[k2] + w * hv[k2]
    return Tensor.from_rows(h.field, (m, m, n), co)


def rr_coaction(q, action):
    """a ↦ Σ (ℛ²·a)⊗ℛ¹ as the tensor coaction[p,q,i]."""
    h = q.host
    n, m = h.dim, action.shape[1]
    co = [[[h.field.zero] * n for _ in range(m)] for _ in range(m)]
    act = action.data
    for i, j, x in pairs(q.rr):
        for p in range(m):
            for r in range(m):
                co[p][r][i] = co[p][r][i] + x * act[(j * m + p) * m + r]
    return Tensor.from_rows(h.field, (m, m, n), co)


# -- (co)quasitriangular structures -------------------------------------------

def cqt4_forms(c):
    """verify_cqt's CQT4' (S(e_x1)·e_b·e_x3) and CQT4'' ((e_g3 e_b)·S⁻¹(e_g1))
    on dense products."""
    h, r = c.host, c.r
    n, f, mult = h.dim, h.field, h.mult
    e, delta, cp3, every = basis(f, n), terms_of(h.comult), copowers(h, 3), \
        range(n)
    rep = CheckReport()

    def cqt4_prime(g, x):
        lhs = [f.zero] * n
        for a, b, ca in delta[g]:
            v = r.data[b][x]
            if v:
                lhs[a] = lhs[a] + ca * v
        rhs = [f.zero] * n
        for (x1, x2, x3), w in cp3[x]:
            for a, b, ca in delta[g]:
                v = r.data[a][x2]
                if v:
                    vec = times(mult, times(mult, h.antipode.data[x1], e[b]),
                                e[x3])
                    for k, cv in enumerate(vec):
                        if cv:
                            rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    def cqt4_second(g, x):
        lhs = [f.zero] * n
        for a, b, ca in delta[x]:
            v = r.data[g][b]
            if v:
                lhs[a] = lhs[a] + ca * v
        rhs = [f.zero] * n
        for (g1, g2, g3), w in cp3[g]:
            for a, b, ca in delta[x]:
                v = r.data[g2][a]
                if v:
                    vec = times(mult, dense_row(mult, g3, b),
                                h.antipode_inv.data[g1])
                    for k, cv in enumerate(vec):
                        if cv:
                            rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4_prime)
    rep.add("CQT4'", bad is None, bad, "Σg1R(g2⊗h) = ΣR(g1⊗h2)S(h1)g2h3")
    bad = first_mismatch((every,) * 2, cqt4_second)
    rep.add("CQT4''", bad is None, bad, "Σh1R(g⊗h2) = ΣR(g2⊗h1)g3h2S⁻¹(g1)")
    return rep


def qt123(q):
    """verify_qt's QT1–QT3."""
    h, rr, zero = q.host, q.rr, q.host.field.zero
    n = h.dim
    rows, delta = rows_of(h.mult), terms_of(h.comult)
    terms = [(i, j, rr.data[i][j]) for i in range(n) for j in range(n)
             if rr.data[i][j]]
    rep = CheckReport()

    def qt1():
        lhs = {}
        for i, j, x in terms:
            for a, b, c in delta[i]:
                lhs[(a, b, j)] = lhs.get((a, b, j), zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in rows[j][qq]:
                    rhs[(i, p, k)] = rhs.get((i, p, k), zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt1)
    rep.add("QT1", bad is None, bad, "ΣΔ(ℛ1)⊗ℛ2 = Σℛ1⊗r1⊗ℛ2r2")
    left = [zero] * n
    right = [zero] * n
    for i, j, x in terms:
        if h.counit[i]:
            left[j] = left[j] + h.counit[i] * x
        if h.counit[j]:
            right[i] = right[i] + h.counit[j] * x
    rep.add("QT2", left == h.unit and right == h.unit)

    def qt3():
        lhs = {}
        for i, j, x in terms:
            for a, b, c in delta[j]:
                lhs[(i, a, b)] = lhs.get((i, a, b), zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in rows[i][p]:
                    rhs[(k, qq, j)] = rhs.get((k, qq, j), zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt3)
    rep.add("QT3", bad is None, bad, "Σℛ1⊗Δ(ℛ2) = Σℛ1r1⊗r2⊗ℛ2")
    return rep


# -- YD modules ---------------------------------------------------------------

def action_mismatch(mult, act, unit, right=False):
    """The first p with 1·v_p ≠ v_p, then the first (i, j, p) with
    (e_i e_j)·v_p ≠ e_i·(e_j·v_p), or with right, v_p·(e_i e_j) ≠
    (v_p·e_i)·e_j: the action is the tensor act, the product mult."""
    n, m = mult.shape[0], act.shape[1]
    e, eh = basis(act.field, m), basis(act.field, n)
    bad = first_mismatch((range(m),), lambda p: (times(act, unit, e[p]),
                                                  e[p]))
    if bad is None:
        def sides(i, j, p):
            outer, inner = (j, i) if right else (i, j)
            return (times(act, dense_row(mult, i, j), e[p]),
                    times(act, eh[outer], times(act, eh[inner], e[p])))
        bad = first_mismatch((range(n), range(n), range(m)), sides)
    return bad


def module_axioms(mod):
    """verify_yd's module_axioms."""
    rep = CheckReport()
    bad = action_mismatch(mod.host.mult, mod.action, mod.host.unit)
    rep.add("module_axioms", bad is None, bad)
    return rep


def comodule_axioms(mod):
    """verify_yd's comodule_axioms: the counit, then coassociativity."""
    h, zero = mod.host, mod.host.field.zero
    e, coact = basis(h.field, mod.dim), terms_of(mod.coaction)
    rep = CheckReport()

    def counit(p):
        acc = [zero] * mod.dim
        for q, k, c in coact[p]:
            if h.counit[k]:
                acc[q] = acc[q] + c * h.counit[k]
        return acc, e[p]

    bad = first_mismatch((range(mod.dim),), counit)
    if bad is None:
        bad = coaction_mismatch(h.comult, mod.coaction)
    rep.add("comodule_axioms", bad is None, bad)
    return rep


def yd_compatibility(mod):
    """The report rows of verify_yd's yd_compatibility and
    yd_compatibility_sinv_form, summed into dicts keyed (q, k₂)."""
    h = mod.host
    zero = h.field.zero
    act, coact = rows_of(mod.action), terms_of(mod.coaction)
    hrows, delta, cp3 = rows_of(h.mult), terms_of(h.comult), copowers(h, 3)
    hs, ms = range(h.dim), range(mod.dim)

    def compatibility(i, p):
        lhs = {}
        for a, b, ca in delta[i]:
            for q0, k, c0 in coact[p]:
                for q, x in act[a][q0]:
                    w = ca * c0 * x
                    for k2, cm in hrows[b][k]:
                        lhs[(q, k2)] = lhs.get((q, k2), zero) + w * cm
        rhs = {}
        for a, b, ca in delta[i]:
            for q0, x in act[b][p]:
                w = ca * x
                for q, k, c0 in coact[q0]:
                    for k2, cm in hrows[k][a]:
                        rhs[(q, k2)] = rhs.get((q, k2), zero) + w * c0 * cm
        return lhs, rhs

    def compatibility_sinv(i, p):
        lhs = {}
        for q0, x in act[i][p]:
            for q, k, c0 in coact[q0]:
                lhs[(q, k)] = lhs.get((q, k), zero) + x * c0
        rhs = {}
        for (a, b, c3), w in cp3[i]:
            for q0, k, c0 in coact[p]:
                wk = word(h, c3, k, a)
                for q, x in act[b][q0]:
                    w2 = w * c0 * x
                    for k2, cv in enumerate(wk):
                        if cv:
                            rhs[(q, k2)] = rhs.get((q, k2), zero) + w2 * cv
        return lhs, rhs

    return [row("yd_compatibility", first_mismatch((hs, ms), compatibility),
                "Σh1·m0⊗h2m1 = Σ(h2·m)0⊗(h2·m)1h1"),
            row("yd_compatibility_sinv_form",
                first_mismatch((hs, ms), compatibility_sinv),
                "ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)")]


def terms_matrix(field, terms, da, db):
    """The Matrix whose row r is Σ c·E_{a·db+b} over terms[r] = [(a, b,
    c)]."""
    mat = Matrix.zeros(field, len(terms), da * db)
    for r, ts in zip(mat.data, terms):
        for a, b, c in ts:
            r[a * db + b] = r[a * db + b] + c
    return mat


def paired(ma, mb, f):
    """m⊗n ↦ Σ m₀⊗n₀ f(n₁⊗m₁)."""
    ca, cb = terms_of(ma.coaction), terms_of(mb.coaction)
    return terms_matrix(ma.host.field, [
        [(p0, q0, c1 * c2 * f.data[k2][k1])
         for p0, k1, c1 in ca[p] for q0, k2, c2 in cb[q] if f.data[k2][k1]]
        for p in range(ma.dim) for q in range(mb.dim)], ma.dim, mb.dim)


def braid_matrix(ma, mb):
    """Φ(m⊗n) = Σ n₀ ⊗ n₁·m as the matrix M⊗N → N⊗M."""
    cb, act = terms_of(mb.coaction), rows_of(ma.action)
    return terms_matrix(ma.host.field, [
        [(q0, p1, c * x) for q0, k, c in cb[q] for p1, x in act[k][p]]
        for p in range(ma.dim) for q in range(mb.dim)], mb.dim, ma.dim)


def kron(fa, fb):
    """fa ⊗ fb as one Matrix, row a·rows_b + b, column c·cols_b + d."""
    ra = [[(a, x) for a, x in enumerate(r) if x] for r in fa.data]
    rb = [[(b, y) for b, y in enumerate(r) if y] for r in fb.data]
    return terms_matrix(fa.field, [
        [(a, b, x * y) for a, x in ta for b, y in tb]
        for ta in ra for tb in rb], fa.cols, fb.cols)


def yd_tensor(ma, mb):
    """M⊗N with the action Δ(e_i)·(m⊗n) and the reversed-product
    coaction."""
    h = ma.host
    f, n, db = h.field, h.dim, mb.dim
    dim = ma.dim * db
    delta, hrows = terms_of(h.comult), rows_of(h.mult)
    acta, actb = rows_of(ma.action), rows_of(mb.action)
    ca, cb = terms_of(ma.coaction), terms_of(mb.coaction)
    action = []
    for i in range(n):
        action += terms_matrix(f, [
            [(p1, q1, c * y * z) for a, b, c in delta[i]
             for p1, y in acta[a][p] for q1, z in actb[b][q]]
            for p in range(ma.dim) for q in range(db)], ma.dim, db).data
    coaction = []
    for src in range(dim):
        p, q = divmod(src, db)
        rows = [[f.zero] * n for _ in range(dim)]
        for p0, k1, c1 in ca[p]:
            for q0, k2, c2 in cb[q]:
                r = rows[p0 * db + q0]
                for k, cm in hrows[k2][k1]:
                    r[k] = r[k] + c1 * c2 * cm
        coaction += rows
    return YdModule(h, dim,
                    Tensor(f, (n, dim, dim), [x for r in action for x in r]),
                    Tensor(f, (dim, dim, n), [x for r in coaction for x in r]))


def is_yd_map_checks(f_map):
    """is_yd_map's h_linear and h_colinear on dense map rows."""
    rep = CheckReport()
    src, dst = f_map.source, f_map.target
    h, mt = src.host, f_map.matrix
    zero = h.field.zero
    sact, scoact, dcoact = rows_of(src.action), terms_of(src.coaction), \
        terms_of(dst.coaction)
    eh = basis(h.field, h.dim)

    def linear(i, p):
        lhs = [zero] * dst.dim
        for q, x in sact[i][p]:
            for t, y in enumerate(mt.data[q]):
                if y:
                    lhs[t] = lhs[t] + x * y
        return lhs, times(dst.action, eh[i], mt.data[p])

    def colinear(p):
        lhs = {}
        for q, k, c in scoact[p]:
            for t, y in enumerate(mt.data[q]):
                if y:
                    lhs[(t, k)] = lhs.get((t, k), zero) + c * y
        rhs = {}
        for t, y in enumerate(mt.data[p]):
            if y:
                for q, k, c in dcoact[t]:
                    rhs[(q, k)] = rhs.get((q, k), zero) + y * c
        return lhs, rhs

    bad = first_mismatch((range(h.dim), range(src.dim)), linear)
    rep.add("h_linear", bad is None, bad)
    bad = first_mismatch((range(src.dim),), colinear)
    rep.add("h_colinear", bad is None, bad)
    return rep


def braided_functor(s, ma, mb):
    """The braided square on one pair, every object built for that pair
    alone."""
    from hopflab.yd import YdMap, eta, is_yd_map, sigma_module
    from hopflab.yd import yd_tensor as package_tensor
    rep = CheckReport()
    if not ma.host.structures_equal(mb.host):
        raise VerificationError("braiding: host mismatch")
    phi = braid_matrix(ma, mb)
    sa, sb = sigma_module(s, ma), sigma_module(s, mb)
    phi_sigma = braid_matrix(sa, sb)
    eta_ab, _ = eta(s, ma, mb)
    eta_ba, _ = eta(s, mb, ma)
    rep.add("braided_square", matrix_product(phi_sigma, eta_ba)
            == matrix_product(eta_ab, phi))
    source = package_tensor(sa, sb)
    rep.merge(is_yd_map(YdMap(source, sigma_module(s, package_tensor(ma, mb)),
                              eta_ab)), prefix="eta_")
    rep.merge(is_yd_map(YdMap(source, package_tensor(sb, sa), phi_sigma)),
              prefix="phi_sigma_")
    return rep


def hom_basis(ma, mb):
    """yd_hom_basis from dense equations and the kernel of their
    Matrix."""
    f = ma.host.field
    n = ma.host.dim
    da, db = ma.dim, mb.dim
    unknowns = da * db
    act, coact = rows_of(ma.action), terms_of(ma.coaction)
    rows = []
    for i in range(n):
        for p in range(da):
            for t in range(db):
                coeffs = [f.zero] * unknowns
                for q, x in act[i][p]:
                    coeffs[q * db + t] = coeffs[q * db + t] + x
                for t2 in range(db):
                    c = dense_row(mb.action, i, t2)[t]
                    if c:
                        coeffs[p * db + t2] = coeffs[p * db + t2] - c
                rows.append(coeffs)
    for p in range(da):
        for t in range(db):
            for k in range(n):
                coeffs = [f.zero] * unknowns
                for q, k2, c in coact[p]:
                    if k2 == k:
                        coeffs[q * db + t] = coeffs[q * db + t] + c
                for q2 in range(db):
                    c = dense_row(mb.coaction, q2, t)[k]
                    if c:
                        coeffs[p * db + q2] = coeffs[p * db + q2] - c
                rows.append(coeffs)
    cols = kernel_basis(Matrix(f, len(rows), unknowns, rows))
    return [Matrix(f, da, db, [[cols.data[p * db + t][j] for t in range(db)]
                               for p in range(da)])
            for j in range(cols.cols)]


def sigma_module(s, mod):
    """σ̲(M) with both displayed forms, the pairing σ(h₄m₁S⁻¹(h₂) ⊗ h₁)
    on dense products, over the terms of Δ²/Δ⁴ whose first leg meets a
    nonzero column of σ and last leg a nonzero row of σ⁻¹."""
    h = mod.host
    n, m, f = h.dim, mod.dim, h.field
    sig, inv = s.sigma, s.sigma_inv
    act, coact = rows_of(mod.action), terms_of(mod.coaction)
    first = [any(r[a] for r in sig.data) for a in range(n)]
    last = [any(r) for r in inv.data]
    live = {k: [[(idx, w) for idx, w in ts if first[idx[0]] and last[idx[-1]]]
                for ts in copowers(h, k)] for k in (3, 5)}
    def twisted(i, p):
        acc = [f.zero] * m
        for (a, b, c3), w in live[3][i]:
            for q0, k0, c0 in coact[p]:
                s2 = inv.data[c3][k0]
                if not s2:
                    continue
                for q1, x in act[b][q0]:
                    w2 = w * c0 * s2 * x
                    for q2, k2, c2 in coact[q1]:
                        s1 = sig.data[k2][a]
                        if s1:
                            acc[q2] = acc[q2] + w2 * c2 * s1
        return acc

    def twisted_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d, e), w in live[5][i]:
            for q0, k0, c0 in coact[p]:
                for q1, k1, c1 in coact[q0]:
                    s2 = inv.data[e][k0]
                    if not s2:
                        continue
                    s1 = pair(sig, word(h, d, k1, b), a)
                    if not s1:
                        continue
                    w2 = w * c0 * c1 * s1 * s2
                    for q, x in act[c3][q1]:
                        acc[q] = acc[q] + w2 * x
        return acc

    action = agreed("twisted-action", f, (n, m, m), twisted, twisted_expanded)
    return YdModule(deform_host(s), m, action,
                    Tensor(f, (m, m, n), list(mod.coaction.data)))


# -- YD algebras --------------------------------------------------------------

def algebra_axioms(alg):
    """verify_yd_algebra's algebra_axioms: the unit, then associativity."""
    rep = CheckReport()
    bad = unit_mismatch(alg.mult, alg.unit)
    if bad is None:
        bad = associativity_mismatch(alg.mult)
    rep.add("algebra_axioms", bad is None, bad)
    return rep


def module_algebra(alg):
    """verify_yd_algebra's module_algebra: h·(ab) = Σ(h₁·a)(h₂·b) on basis
    vectors a, b, then h·1 = ε(h)1."""
    h, f, m = alg.host, alg.host.field, alg.dim
    mul, act = rows_of(alg.mult), rows_of(alg.module.action)
    hs, ms, delta = range(h.dim), range(m), terms_of(h.comult)

    def sides(i, p, q):
        rhs = combine(f, m, ((ca * x * y, mul[s][t]) for a, b, ca in delta[i]
                             for s, x in act[a][p] for t, y in act[b][q]))
        return combine(f, m, ((c, act[i][t]) for t, c in mul[p][q])), rhs

    rep = CheckReport()
    bad = first_mismatch((hs, ms, ms), sides)
    if bad is None:
        bad = first_mismatch((hs,), lambda i: (
            combine(f, m, ((x, act[i][t]) for t, x in enumerate(alg.unit)
                           if x)),
            [h.counit[i] * x for x in alg.unit]))
    rep.add("module_algebra", bad is None, bad,
            "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")
    return rep


def comodule_algebra(alg):
    """verify_yd_algebra's comodule_algebra: ρ(ab) = Σa₀b₀⊗b₁a₁, then
    ρ(1) = 1⊗1, dicts keyed (q, k)."""
    h, ms = alg.host, range(alg.dim)
    zero = h.field.zero
    mul, hrows = rows_of(alg.mult), rows_of(h.mult)
    coact = terms_of(alg.module.coaction)

    def sides(p, q):
        lhs = {}
        for k2, c in mul[p][q]:
            for q2, k, c2 in coact[k2]:
                lhs[(q2, k)] = lhs.get((q2, k), zero) + c * c2
        rhs = {}
        for p0, k1, c1 in coact[p]:
            for q0, k2, c2 in coact[q]:
                w = c1 * c2
                for k3, cm in hrows[k2][k1]:
                    for t, ct in mul[p0][q0]:
                        rhs[(t, k3)] = rhs.get((t, k3), zero) + w * cm * ct
        return lhs, rhs

    def unit_coaction():
        lhs = [[zero] * h.dim for _ in ms]
        rhs = [[zero] * h.dim for _ in ms]
        for p, x in enumerate(alg.unit):
            if x:
                for q, k, c in coact[p]:
                    lhs[q][k] = lhs[q][k] + x * c
                for k, u in enumerate(h.unit):
                    rhs[p][k] = rhs[p][k] + x * u
        return lhs, rhs

    bad = first_mismatch((ms, ms), sides)
    if bad is None:
        bad = first_mismatch((), unit_coaction)
    rep = CheckReport()
    rep.add("comodule_algebra", bad is None, bad,
            "ρ(ab) = Σa0b0⊗b1a1, ρ(1) = 1⊗1")
    return rep


def opposite_rows(alg):
    """[t][s] is ē_t∘ē_s = Σ s₀ (s₁·e_t), the product of the H-opposite
    Ā, as a dense list."""
    f, ms = alg.host.field, range(alg.dim)
    act, coact = rows_of(alg.module.action), terms_of(alg.module.coaction)
    mul = rows_of(alg.mult)
    return [[combine(f, alg.dim, ((c * x, mul[s0][j])
                                  for s0, k, c in coact[s]
                                  for j, x in act[k][t])) for s in ms]
            for t in ms]


def generating_set(alg):
    """generating_set's greedy walk with each closure taken from scratch:
    keep e_j when it is outside the span of all words in the generators
    kept so far (the empty word 1 included), found by multiplying the
    span by every generator and re-echelonning until it stops growing."""
    f, m = alg.host.field, alg.dim
    e = basis(f, m)

    def words(gens):
        span = echelon(f, [alg.unit])
        while True:
            grown = echelon(f, span + [times(alg.mult, u, e[g])
                                       for u in span for g in gens])
            if len(grown) == len(span):
                return span
            span = grown

    gens, span = [], words([])
    for j in range(m):
        if len(span) == m:
            break
        if len(echelon(f, span + [e[j]])) > len(span):
            gens.append(j)
            span = words(gens)
    assert len(span) == m
    return gens


def azumaya(alg, gens):
    """azumaya_check's report rows, with dense F and G matrices, their
    ranks and dense products of End(A) matrices; gens are the generators
    of A and of Ā that F's algebra-map families are checked against."""
    rep = CheckReport()
    mod = alg.module
    f = alg.host.field
    m = alg.dim
    dim = m * m
    ms = range(m)
    es = basis(f, m)
    bar, mul = opposite_rows(alg), rows_of(alg.mult)
    brows = [[[(t, c) for t, c in enumerate(v) if c] for v in r] for r in bar]
    # F(e_p#ē_q)(e_x) = e_p(ē_q∘ē_x) and G(e_p#ē_q)(e_x) = (ē_x∘ē_p)e_q
    fmat = Matrix(f, dim, dim, [
        [c for x in ms for c in combine(f, m, ((c, mul[p][t])
                                                for t, c in brows[q][x]))]
        for p in ms for q in ms])
    gmat = Matrix(f, dim, dim, [
        [c for x in ms for c in combine(f, m, ((c, mul[t][q])
                                                for t, c in brows[x][p]))]
        for p in ms for q in ms])
    rank_f = rank(fmat)
    rank_g = rank(gmat)
    for name, r in (("F_bijective", rank_f), ("G_bijective", rank_g)):
        rep.add(name, r == dim, None, "rank %d of %d" % (r, dim))

    def end(flat):
        return Matrix(f, m, m, [flat[x * m:(x + 1) * m] for x in ms])

    def f_of(u):
        return end(apply_rowmap(u, fmat))

    def sharp(a, b):
        return [x * y for x in a for y in b]

    exchange = braid_matrix(mod, mod).data
    gens_a, gens_b = gens
    fa = [f_of(sharp(es[a], alg.unit)) for a in ms]
    fb = [f_of(sharp(alg.unit, es[b])) for b in ms]
    families = (
        ("(i) F(ga#1) = F(g#1)F(a#1)", (gens_a, ms), lambda g, a: (
            f_of(sharp(dense_row(alg.mult, g, a), alg.unit)),
            matrix_product(fa[a], fa[g]))),
        ("(ii) F(1#ḡ∘b̄) = F(1#ḡ)F(1#b̄)", (gens_b, ms), lambda g, b: (
            f_of(sharp(alg.unit, bar[g][b])),
            matrix_product(fb[b], fb[g]))),
        ("(iii) F(a#b̄) = F(a#1)F(1#b̄)", (ms, ms), lambda a, b: (
            end(fmat.data[a * m + b]), matrix_product(fb[b], fa[a]))),
        ("(iv) F((1#b̄)(g#1)) = F(1#b̄)F(g#1)", (gens_a, ms), lambda g, b: (
            f_of(exchange[b * m + g]), matrix_product(fa[g], fb[b]))))
    detail = "checked against %d generators" % (len(gens_a) + len(gens_b))
    for family, space, sides in families:
        bad = first_mismatch(space, sides)
        if bad is not None:
            detail = family
            break
    rep.add("F_algebra_map", bad is None, bad, detail)
    rep.add("F_unital",
            f_of(sharp(alg.unit, alg.unit)) == Matrix.identity(f, m))
    rep.add("is_azumaya", any(alg.unit) and rank_f == dim and rank_g == dim)
    return report_rows(rep)


def end_algebra(mod):
    """End(M): composition, the conjugation action through S and the
    coaction dual to ρ through S⁻¹."""
    h = mod.host
    f, n, m = h.field, h.dim, mod.dim
    dim = m * m
    ms, ds = range(m), range(dim)
    one = f.one
    act, coact, delta = rows_of(mod.action), terms_of(mod.coaction), \
        terms_of(h.comult)
    em = basis(f, m)

    def compose(e1, e2):
        (p, q), (r, s2) = divmod(e1, m), divmod(e2, m)
        out = [f.zero] * dim
        if s2 == p:
            out[r * m + q] = one
        return out

    unit = [f.zero] * dim
    for p in ms:
        unit[p * m + p] = one
    s_act = [[times(mod.action, h.antipode.data[b], em[r]) for r in ms]
             for b in range(n)]

    def conjugate(i, src):
        p, q = divmod(src, m)
        acc = [f.zero] * dim
        for a, b, ca in delta[i]:
            for r in ms:
                sv = s_act[b][r]
                if not sv[p]:
                    continue
                w = ca * sv[p]
                for q2, x in act[a][q]:
                    acc[r * m + q2] = acc[r * m + q2] + w * x
        return acc

    def dual_coaction(src):
        p, q = divmod(src, m)
        rows = [[f.zero] * n for _ in ds]
        for r in ms:
            for p2, k, c1 in coact[r]:
                if p2 != p:
                    continue
                for q2, l, c2 in coact[q]:
                    w = c1 * c2
                    out = rows[r * m + q2]
                    hv = sinv_times(h, k, l)
                    for k2, cv in enumerate(hv):
                        if cv:
                            out[k2] = out[k2] + w * cv
        return rows

    mult = Tensor.from_rows(f, (dim, dim, dim),
                            [[compose(u, v) for v in ds] for u in ds])
    action = Tensor.from_rows(f, (n, dim, dim),
                              [[conjugate(i, src) for src in ds]
                               for i in range(n)])
    coaction = Tensor.from_rows(f, (dim, dim, n),
                                [dual_coaction(src) for src in ds])
    return YdAlgebra(YdModule(h, dim, action, coaction), mult, unit)


# -- 𝓗_R and its bimodules ----------------------------------------------------

def yd_from_comodule(c, coaction):
    """The R-induced YD module on a comodule: h·m = Σ m₀ R(m₁⊗h)."""
    h = c.host
    m = coaction.shape[0]
    ms = range(m)
    action = Tensor.from_rows(h.field, (h.dim, m, m), [
        [[pair(c.r, i, dense_row(coaction, p, q)) for q in ms] for p in ms]
        for i in range(h.dim)])
    return YdModule(h, m, action, coaction)


def act2_tensor(c, mod):
    """h▷₂m = Σ m₀ R(S(m₁)⊗h), agreed with Σ m₀ R(m₁⊗S⁻¹(h))."""
    h = c.host
    ms = range(mod.dim)
    rho = [[dense_row(mod.coaction, p, q) for q in ms] for p in ms]
    s_rho = [[apply_rowmap(v, h.antipode) for v in r] for r in rho]
    return agreed(
        "▷₂", h.field, (h.dim, mod.dim, mod.dim),
        lambda i, p: [pair(c.r, v, i) for v in s_rho[p]],
        lambda i, p: [pair(c.r, v, h.antipode_inv.data[i]) for v in rho[p]])


def build_hr(c):
    """𝓗_R: ⋆, S_R, the adjoint coaction and the R-induced action."""
    h = c.host
    n, f = h.dim, h.field
    e, hs = basis(f, n), range(n)
    s = h.antipode.data
    rows, delta = rows_of(h.mult), terms_of(h.comult)
    cp3, cp4 = copowers(h, 3), copowers(h, 4)

    def star(i, j):
        acc = [f.zero] * n
        for (l1, l2, l3), w2 in cp3[j]:
            u = sinv_times(h, l3, l1)
            for h1, h2, w1 in delta[i]:
                scal = pair(c.r, u, h1)
                if scal:
                    w = w1 * w2 * scal
                    for k, cm in rows[l2][h2]:
                        acc[k] = acc[k] + w * cm
        return acc

    ss = matrix_product(h.antipode, h.antipode)

    def s_r(i):
        acc = [f.zero] * n
        for (a, b, c3, d), w in cp4[i]:
            scal = pair(c.r, times(h.mult, ss.data[c3], s[a]), d)
            if scal:
                for k, cv in enumerate(s[b]):
                    if cv:
                        acc[k] = acc[k] + w * scal * cv
        return acc

    def adjoint(i):
        out = [[f.zero] * n for _ in hs]
        for (a, b, c3), w in cp3[i]:
            for k, cv in enumerate(times(h.mult, s[a], e[c3])):
                if cv:
                    out[b][k] = out[b][k] + w * cv
        return out

    mod = yd_from_comodule(c, Tensor.from_rows(
        f, (n, n, n), [adjoint(i) for i in hs]))
    star_t = Tensor.from_rows(f, (n, n, n),
                              [[star(i, j) for j in hs] for i in hs])
    return BraidedHopf(c, YdAlgebra(mod, star_t, list(h.unit)),
                       Matrix(f, n, n, [s_r(i) for i in hs]))


def bimodule_actions(bh, mod):
    """−▷, ◁− and ▷₂ of a YD module over 𝓗_R, each action agreed with its
    expanded form, every word and pairing formed on dense vectors."""
    h = bh.host
    r = bh.cqt.r
    if not mod.host.structures_equal(h):
        raise VerificationError("bimodule_actions: host mismatch")
    f, m = h.field, mod.dim
    shape = (h.dim, m, m)
    s, sinv = h.antipode.data, h.antipode_inv.data
    act, coact = rows_of(mod.action), terms_of(mod.coaction)
    delta, cp4 = terms_of(h.comult), copowers(h, 4)
    a2 = act2_tensor(bh.cqt, mod)
    r_sinv = [[pair(r, sinv[b], k) for k in range(h.dim)]
              for b in range(h.dim)]          # R(S⁻¹(e_b)⊗e_k)
    def left(i, p):
        acc = [f.zero] * m
        for a, b, w in delta[i]:
            for q0, x in act[a][p]:
                for q, k, c0 in coact[q0]:
                    scal = r_sinv[b][k]
                    if scal:
                        acc[q] = acc[q] + w * x * c0 * scal
        return acc

    def left_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d), w in cp4[i]:
            for q0, k, c0 in coact[p]:
                scal = pair(r, sinv[d], word(h, c3, k, a))
                if scal:
                    for q, x in act[b][q0]:
                        acc[q] = acc[q] + w * c0 * scal * x
        return acc

    def right(i, p):
        acc = [f.zero] * m
        for a, b, w in delta[i]:
            v = times(a2, s[a], dense_row(mod.action, b, p))
            for q, x in enumerate(v):
                if x:
                    acc[q] = acc[q] + w * x
        return acc

    def right_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d), w in cp4[i]:
            for q0, k, c0 in coact[p]:
                scal = pair(r, word(h, d, k, b), a)
                if scal:
                    for q, x in act[c3][q0]:
                        acc[q] = acc[q] + w * c0 * scal * x
        return acc

    return BimoduleActions(mod, agreed("−▷", f, shape, left, left_expanded),
                           agreed("◁−", f, shape, right, right_expanded), a2)


def adjoint_module(host):
    """H's adjoint YD module: e_i·e_p = Σ i₂ e_p S⁻¹(i₁), coaction Δ."""
    f, n = host.field, host.dim
    delta = terms_of(host.comult)
    action = Tensor.zeros(f, (n, n, n))
    for i in range(n):
        for p in range(n):
            acc = [f.zero] * n
            for a, b, c in delta[i]:
                v = word(host, b, p, a)
                for k, x in enumerate(v):
                    if x:
                        acc[k] = acc[k] + c * x
            for k in range(n):
                action.data[(i * n + p) * n + k] = acc[k]
    return YdModule(host, n, action, Tensor(f, (n, n, n),
                                            list(host.comult.data)))


def bimodule_checks(bh, b):
    """verify_bimodule's checks on dense actions of basis vectors."""
    rep = CheckReport()
    h, mod = bh.host, b.module
    star = bh.underlying.mult
    left, right = b.left_hr, b.right_hr
    e, eh = basis(h.field, mod.dim), basis(h.field, h.dim)
    hs, ms = range(h.dim), range(mod.dim)

    bad = action_mismatch(star, left, h.unit)
    rep.add("left_action_for_star", bad is None, bad,
            "(h⋆l)−▷m = h−▷(l−▷m)")
    bad = action_mismatch(star, right, h.unit, right=True)
    rep.add("right_action_for_star", bad is None, bad,
            "m◁−(h⋆l) = (m◁−h)◁−l")
    bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
        times(right, eh[j], times(left, eh[i], e[p])),
        times(left, eh[i], times(right, eh[j], e[p]))))
    rep.add("bimodule_commutation", bad is None, bad,
            "(h−▷m)◁−l = h−▷(m◁−l)")
    return rep


def braided_antipode(bh):
    """verify_braided_hopf's braided_antipode: ⋆∘(S_R⊗id)∘Δ = ηε =
    ⋆∘(id⊗S_R)∘Δ."""
    rep = CheckReport()
    bad = antipode_mismatch(bh.host, bh.underlying.mult,
                            bh.braided_antipode.data)
    rep.add("braided_antipode", bad is None, bad,
            "⋆∘(S_R⊗id)∘Δ = ηε = ⋆∘(id⊗S_R)∘Δ")
    return rep


def multiplicative_mismatch(src, dst, m):
    """The first (u, v) with m(e_u e_v) ≠ m(e_u) m(e_v), products of the
    algebras src and dst."""
    return first_mismatch((range(m.rows),) * 2, lambda u, v: (
        apply_rowmap(dense_row(src.mult, u, v), m),
        times(dst.mult, m.data[u], m.data[v])))


# -- Section 3: χ, φ, ψ, ξ and the Galois maps --------------------------------

def chi_maps(s):
    """χ, χ⁻¹ and χ* = χᵀ, or VerificationError when χ and χ⁻¹ are not
    mutually inverse."""
    h = s.host
    n, f = h.dim, h.field
    sinv = h.antipode_inv.data
    cp4, cp5 = copowers(h, 4), copowers(h, 5)

    def chi(i):
        acc = [f.zero] * n
        for (a, b, c, d), w in cp4[i]:
            scal = pair(s.sigma_inv, d, sinv_times(h, c, a))
            if scal:
                acc[b] = acc[b] + w * scal
        return acc

    def chi_inv(i):
        acc = [f.zero] * n
        for (a, b, c, d, e5), w in cp5[i]:
            s1 = pair(s.sigma_inv, sinv[e5], a)
            if s1:
                s2 = pair(s.sigma, sinv[d], c)
                if s2:
                    acc[b] = acc[b] + w * s1 * s2
        return acc

    chi_m = Matrix(f, n, n, [chi(i) for i in range(n)])
    chi_inv_m = Matrix(f, n, n, [chi_inv(i) for i in range(n)])
    if not mutually_inverse(chi_m, chi_inv_m):
        raise VerificationError("χ and χ⁻¹ are not mutually inverse")
    return chi_m, chi_inv_m, chi_m.transpose()


def phi_psi_xi(s, alg):
    """φ, ψ, ξ and their inverses on alg's module, or VerificationError
    when a pair is not mutually inverse."""
    h = s.host
    n, f = h.dim, h.field
    m = alg.dim
    coact = terms_of(alg.module.coaction)
    sinv, hs = h.antipode_inv.data, range(n)
    cp3, cp4 = copowers(h, 3), copowers(h, 4)

    def spread(mat, w, pairing, at_row, at_col):
        for p in range(m):
            out = mat.data[at_row(p)]
            for q, k, c in coact[p]:
                if pairing[k]:
                    out[at_col(q)] = out[at_col(q)] + w * c * pairing[k]

    def build(mat2, psi):
        at = (lambda p, j: j * m + p) if psi else (lambda p, j: p * n + j)
        out = Matrix.zeros(f, m * n, m * n)
        for k in hs:
            for (k1, j, k3), w in cp3[k]:
                u = sinv_times(h, k3, k1)
                pairing = [pair(mat2, u, t) if psi else pair(mat2, t, u)
                           for t in hs]
                spread(out, w, pairing, lambda p: at(p, j),
                       lambda q: at(q, k))
        return out

    phi, phi_inv = build(s.sigma, False), build(s.sigma_inv, False)
    psi, psi_inv = build(s.sigma, True), build(s.sigma_inv, True)
    xi = Matrix.zeros(f, m * n, m * n)
    xi_inv = Matrix.zeros(f, m * n, m * n)
    for i in hs:
        for (a, b, c, d), w in cp4[i]:
            s1 = pair(s.sigma, sinv[b], a)
            if s1:
                spread(xi, w * s1, [pair(s.sigma_inv, sinv[c], t) for t in hs],
                       lambda p: p * n + i, lambda q: q * n + d)
        for (a, b, c), w in cp3[i]:
            spread(xi_inv, w, [pair(s.sigma_inv, b, sinv_times(h, a, t))
                               for t in hs],
                   lambda p: p * n + i, lambda q: q * n + c)
    for name, a, b in (("phi", phi, phi_inv), ("psi", psi, psi_inv),
                       ("xi", xi, xi_inv)):
        if not mutually_inverse(a, b):
            raise VerificationError("%s round trip failed" % name)
    return phi, phi_inv, psi, psi_inv, xi, xi_inv


def beta(b, alg, side):
    """β_r(v_u⊗v_v) = Σ_i (e_i−▷v_u)v_v ⊗ e_i (side "r") or
    β_l(v_u⊗v_v) = Σ_i e_i ⊗ v_u(v_v◁−e_i) (side "l") as dense rows."""
    f = alg.host.field
    n, m = alg.host.dim, alg.dim
    act = (b.left_hr if side == "r" else b.right_hr).data
    mult = alg.mult.data
    rows = []
    for u in range(m):
        for v in range(m):
            out = [f.zero] * (m * n)
            for i in range(n):
                for y in range(m):
                    for q in range(m):
                        if side == "r":
                            out[y * n + i] += (act[(i * m + u) * m + q]
                                               * mult[(q * m + v) * m + y])
                        else:
                            out[i * m + y] += (act[(i * m + v) * m + q]
                                               * mult[(u * m + q) * m + y])
            rows.append(out)
    return rows


def comodule_beta(alg):
    """β(v_u⊗v_v) = Σ v_u(v_v)₀ ⊗ (v_v)₁ as dense rows."""
    f = alg.host.field
    n, m = alg.host.dim, alg.dim
    coact, mult = alg.module.coaction.data, alg.mult.data
    rows = []
    for u in range(m):
        for v in range(m):
            out = [f.zero] * (m * n)
            for k in range(n):
                for y in range(m):
                    for q in range(m):
                        out[y * n + k] += (coact[(v * m + q) * n + k]
                                           * mult[(u * m + q) * m + y])
            rows.append(out)
    return rows


def relations(alg, xs):
    """(a·x)⊗b − a⊗(x·b) for x in xs, a = v_p, b = v_r, as dense
    m²-vectors in (x, p, r) order, zero ones left out."""
    f, m = alg.host.field, alg.dim
    e = basis(f, m)
    rels = []
    for x in xs:
        for p in range(m):
            ax = times(alg.mult, e[p], x)
            for r in range(m):
                xb = times(alg.mult, x, e[r])
                vec = [f.zero] * (m * m)
                for t in range(m):
                    vec[t * m + r] += ax[t]
                    vec[p * m + t] -= xb[t]
                if any(vec):
                    rels.append(vec)
    return rels


def mu_actions(alg, units):
    """For A = alg with each unit of units in turn, π(A)'s
    Miyashita-Ulbrich action from the dense columns of ker βᵀ and of the
    β-preimages of 1⊗e_k and dense v_p·a·v_r tables: the witness of
    mu_action_well_defined and the action's coordinate rows (None for a
    vector outside π(A)), or why it is refused.  A₀ = {a : ρ(a) = a⊗1}
    and π(A) = {a : a·x = x·a for x in A₀} are dense kernels, β is
    comodule_beta, and A/A₀ is Galois when β is onto and its kernel is
    spanned by the relations; these read A's coaction and product only, so
    they are formed once for all the units."""
    h = alg.host
    f, n, m = h.field, h.dim, alg.dim
    coact = alg.module.coaction.data
    # column p of each equation matrix is v_p's image, which is 0 on A₀
    # (ρ(v_p) − v_p⊗1 over q·n + k) and on π(A) (v_p·x − x·v_p over t·d + j)
    sub0 = kernel_vectors(Matrix(f, m * n, m, [
        [coact[(p * m + q) * n + k] - (h.unit[k] if p == q else f.zero)
         for p in range(m)] for q in range(m) for k in range(n)]))
    beta = Matrix(f, m * m, m * n, comodule_beta(alg))
    rels = relations(alg, sub0)
    kernel_dim = rank(Matrix(f, len(rels), m * m, rels)) if rels else 0
    if rank(beta) != m * n or kernel_dim != m * m - m * n or \
            any(any(apply_rowmap(vec, beta)) for vec in rels):
        return ["not Galois"] * len(units)
    mrow = rows_of(alg.mult)
    es = basis(f, m)
    sides = [(times(alg.mult, es[p], x), times(alg.mult, x, es[p]))
             for x in sub0 for p in range(m)]
    pi_vectors = kernel_vectors(Matrix(f, m * len(sub0), m, [
        [sides[j * m + p][0][t] - sides[j * m + p][1][t] for p in range(m)]
        for j in range(len(sub0)) for t in range(m)]))
    beta_t = Matrix(f, m * n, m * m,
                    [[r[c] for r in beta.data] for c in range(m * n)])
    ker = kernel_basis(beta_t)

    def dense(terms):
        acc = [f.zero] * m
        for c, t in terms:
            for k, w in t:
                acc[k] = acc[k] + c * w
        return acc

    def triple_table(a):
        out = []
        for p in range(m):
            vas = [(t, c) for t, c in enumerate(
                dense((c, mrow[p][j]) for j, c in enumerate(a) if c)) if c]
            out.append([dense((c, mrow[t][r]) for t, c in vas)
                        for r in range(m)])
        return out

    tables = [triple_table(a) for a in pi_vectors]

    def act_by(coeffs, a_idx):
        acc = [f.zero] * m
        tab = tables[a_idx]
        for src, v in enumerate(coeffs):
            if v:
                p, r = divmod(src, m)
                for t, w in enumerate(tab[p][r]):
                    if w:
                        acc[t] = acc[t] + v * w
        return acc

    zero = [f.zero] * m
    kernel = [ker.column(j) for j in range(ker.cols)]
    witness = next(((j, a) for j, col in enumerate(kernel)
                    for a in range(len(pi_vectors))
                    if act_by(col, a) != zero), None)
    coords = coordinates_in(f, pi_vectors)
    out = []
    for unit in units:
        rhs = Matrix.zeros(f, m * n, n)
        for k in range(n):
            for y, u in enumerate(unit):
                if u:
                    rhs.data[y * n + k][k] = u
        part = solve(beta_t, rhs)
        out.append("no preimages" if part is None else (witness, [
            coords(act_by(part.column(k), a))
            for k in range(n) for a in range(len(pi_vectors))]))
    return out
