"""Finite-dimensional Hopf algebras as structure constants.

Structure tensors follow the index conventions
    mult[i,j,k]   = coefficient of e_k in e_i·e_j
    comult[i,j,k] = coefficient of e_j⊗e_k in Δ(e_i)
    antipode.data[i][j] = coefficient of e_j in S(e_i)   (row-as-image)
and the unit/counit are coordinate (co)vectors of length n.
"""

from __future__ import annotations

from .linalg import (Matrix, Tensor, apply_rowmap, check_dim, mat_mul)
from .report import CheckReport


class HopfAlgebra:
    def __init__(self, field, dim, basis_names, mult, unit, comult, counit,
                 antipode, antipode_inv, name="H"):
        check_dim(dim)
        n = dim
        assert mult.shape == (n, n, n) and comult.shape == (n, n, n)
        assert len(unit) == n and len(counit) == n
        assert antipode.rows == antipode.cols == n
        assert antipode_inv.rows == antipode_inv.cols == n
        self.field = field
        self.dim = n
        self.basis_names = list(basis_names)
        self.mult = mult
        self.unit = list(unit)
        self.comult = comult
        self.counit = list(counit)
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self.name = name
        self._mult_rows = None
        self._mult_sparse = None
        self._delta = None
        self._copower = {}

    # -- cached sparse/dense views ------------------------------------

    def mul_basis(self, i, j):
        """Dense coordinate vector of e_i·e_j."""
        if self._mult_rows is None:
            n = self.dim
            d = self.mult.data
            self._mult_rows = [[d[(i2 * n + j2) * n:(i2 * n + j2) * n + n]
                                for j2 in range(n)] for i2 in range(n)]
        return self._mult_rows[i][j]

    def mul_sparse(self, i, j):
        if self._mult_sparse is None:
            n = self.dim
            self._mult_sparse = [[None] * n for _ in range(n)]
        row = self._mult_sparse[i][j]
        if row is None:
            row = [(k, c) for k, c in enumerate(self.mul_basis(i, j)) if c]
            self._mult_sparse[i][j] = row
        return row

    def mul_vec(self, u, v):
        out = [self.field.zero] * self.dim
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in enumerate(v):
                if not y:
                    continue
                xy = x * y
                for k, c in self.mul_sparse(i, j):
                    out[k] = out[k] + xy * c
        return out

    def delta(self, i):
        """Sparse Δ(e_i) as [(j, k, coeff)]."""
        if self._delta is None:
            n = self.dim
            d = self.comult.data
            self._delta = []
            for i2 in range(n):
                terms = []
                for j in range(n):
                    for k in range(n):
                        c = d[(i2 * n + j) * n + k]
                        if c:
                            terms.append((j, k, c))
                self._delta.append(terms)
        return self._delta[i]

    def copower(self, i, k):
        """Sparse Δ^(k-1)(e_i) as [(index_tuple_of_len_k, coeff)].

        k = 1 is the identity.  Coassociativity makes the expansion order
        irrelevant; legs are expanded left to right.
        """
        if k == 1:
            return [((i,), self.field.one)]
        per_basis = self._copower.get(k)
        if per_basis is None:
            prev = [self.copower(i2, k - 1) for i2 in range(self.dim)]
            per_basis = []
            for i2 in range(self.dim):
                terms = []
                for idx, c in prev[i2]:
                    for j, k2, c2 in self.delta(idx[-1]):
                        terms.append((idx[:-1] + (j, k2), c * c2))
                per_basis.append(terms)
            self._copower[k] = per_basis
        return per_basis[i]

    def counit_of(self, vec):
        s = self.field.zero
        for x, e in zip(vec, self.counit):
            if x and e:
                s = s + x * e
        return s

    def apply_S(self, vec):
        return apply_rowmap(vec, self.antipode)

    def apply_Sinv(self, vec):
        return apply_rowmap(vec, self.antipode_inv)

    def S_basis(self, i):
        return self.antipode.data[i]

    def Sinv_basis(self, i):
        return self.antipode_inv.data[i]

    def basis_vec(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def structures_equal(self, other):
        """Tensor-exact equality of all structure constants."""
        return (self.field == other.field and self.dim == other.dim
                and self.mult == other.mult and self.unit == other.unit
                and self.comult == other.comult and self.counit == other.counit
                and self.antipode == other.antipode
                and self.antipode_inv == other.antipode_inv)

    def __repr__(self):
        return "HopfAlgebra(%s, dim=%d, %s)" % (self.name, self.dim,
                                                self.field.spec())


def verify_hopf_axioms(h):
    """Check every Hopf axiom; on failure the witness is a basis tuple."""
    rep = CheckReport()
    n = h.dim
    f = h.field
    zero = f.zero

    bad = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = h.mul_vec(h.mul_basis(i, j), h.basis_vec(k))
                rhs = h.mul_vec(h.basis_vec(i), h.mul_basis(j, k))
                if lhs != rhs:
                    bad = (i, j, k)
                    break
            if bad:
                break
        if bad:
            break
    rep.add("associativity", bad is None, bad)

    bad = None
    for i in range(n):
        v = h.basis_vec(i)
        if h.mul_vec(h.unit, v) != v or h.mul_vec(v, h.unit) != v:
            bad = (i,)
            break
    rep.add("unit", bad is None, bad)

    bad = None
    for i in range(n):
        lhs = {}
        rhs = {}
        for j, k, c in h.delta(i):
            for a, b, c2 in h.delta(j):
                key = (a, b, k)
                lhs[key] = lhs.get(key, zero) + c * c2
            for a, b, c2 in h.delta(k):
                key = (j, a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        keys = set(lhs) | set(rhs)
        for key in keys:
            if lhs.get(key, zero) != rhs.get(key, zero):
                bad = (i,) + key
                break
        if bad:
            break
    rep.add("coassociativity", bad is None, bad)

    bad = None
    for i in range(n):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in h.delta(i):
            if h.counit[j]:
                left[k] = left[k] + c * h.counit[j]
            if h.counit[k]:
                right[j] = right[j] + c * h.counit[k]
        if left != h.basis_vec(i) or right != h.basis_vec(i):
            bad = (i,)
            break
    rep.add("counit", bad is None, bad)

    bad = None
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in h.mul_sparse(i, j):
                for a, b, c2 in h.delta(k):
                    key = (a, b)
                    lhs[key] = lhs.get(key, zero) + c * c2
            rhs = {}
            for a1, b1, c1 in h.delta(i):
                for a2, b2, c2 in h.delta(j):
                    for a, ca in h.mul_sparse(a1, a2):
                        for b, cb in h.mul_sparse(b1, b2):
                            key = (a, b)
                            rhs[key] = rhs.get(key, zero) + c1 * c2 * ca * cb
            keys = set(lhs) | set(rhs)
            for key in keys:
                if lhs.get(key, zero) != rhs.get(key, zero):
                    bad = (i, j) + key
                    break
            if bad:
                break
        if bad:
            break
    if bad is None:
        du = {}
        for j, x in enumerate(h.unit):
            if not x:
                continue
            for a, b, c in h.delta(j):
                du[(a, b)] = du.get((a, b), zero) + x * c
        for a in range(n):
            for b in range(n):
                want = h.unit[a] * h.unit[b]
                if du.get((a, b), zero) != want:
                    bad = (a, b)
                    break
            if bad:
                break
    rep.add("comult_algebra_map", bad is None, bad)

    bad = None
    for i in range(n):
        for j in range(n):
            if h.counit_of(h.mul_basis(i, j)) != h.counit[i] * h.counit[j]:
                bad = (i, j)
                break
        if bad:
            break
    if bad is None and h.counit_of(h.unit) != f.one:
        bad = ()
    rep.add("counit_algebra_map", bad is None, bad)

    bad = None
    for i in range(n):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in h.delta(i):
            sj = h.S_basis(j)
            for t, c2 in enumerate(sj):
                if c2:
                    for a, cm in h.mul_sparse(t, k):
                        left[a] = left[a] + c * c2 * cm
            sk = h.S_basis(k)
            for t, c2 in enumerate(sk):
                if c2:
                    for a, cm in h.mul_sparse(j, t):
                        right[a] = right[a] + c * c2 * cm
        want = [h.counit[i] * x for x in h.unit]
        if left != want or right != want:
            bad = (i,)
            break
    rep.add("antipode", bad is None, bad)

    ident = Matrix.identity(f, n)
    ok = (mat_mul(h.antipode, h.antipode_inv) == ident
          and mat_mul(h.antipode_inv, h.antipode) == ident)
    rep.add("antipode_inverse", ok)
    return rep


def dual_hopf(h):
    """The dual Hopf algebra on the dual basis."""
    n = h.dim
    f = h.field
    mult = Tensor.zeros(f, (n, n, n))
    comult = Tensor.zeros(f, (n, n, n))
    hm = h.mult.data
    hc = h.comult.data
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # (δ_i·δ_j)(e_k) = ⟨δ_i⊗δ_j, Δ(e_k)⟩
                mult.data[(i * n + j) * n + k] = hc[(k * n + i) * n + j]
                # Δ*(δ_k) = Σ mult[i,j,k] δ_i⊗δ_j
                comult.data[(k * n + i) * n + j] = hm[(i * n + j) * n + k]
    return HopfAlgebra(
        field=f, dim=n,
        basis_names=[nm + "*" for nm in h.basis_names],
        mult=mult, unit=list(h.counit), comult=comult, counit=list(h.unit),
        antipode=h.antipode.transpose(),
        antipode_inv=h.antipode_inv.transpose(),
        name=h.name + "*")


def iterated_coproduct(h, k):
    """Δ^(k-1) as an n × n^k matrix-like tensor; k = 1 is the identity."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = h.dim
    out = Tensor.zeros(h.field, (n, n ** k))
    for i in range(n):
        for idx, c in h.copower(i, k):
            flat = 0
            for t in idx:
                flat = flat * n + t
            out.data[i * (n ** k) + flat] = out.data[i * (n ** k) + flat] + c
    return out


def op_cop(h, flip_mult, flip_comult):
    """H^op / H^cop / H^op,cop.  One flip swaps the antipode with S⁻¹."""
    n = h.dim
    f = h.field
    mult = h.mult
    comult = h.comult
    if flip_mult:
        mult = Tensor.zeros(f, (n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    mult.data[(i * n + j) * n + k] = \
                        h.mult.data[(j * n + i) * n + k]
    if flip_comult:
        comult = Tensor.zeros(f, (n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    comult.data[(i * n + j) * n + k] = \
                        h.comult.data[(i * n + k) * n + j]
    if flip_mult != flip_comult:
        s, s_inv = h.antipode_inv, h.antipode
    else:
        s, s_inv = h.antipode, h.antipode_inv
    tag = {(False, False): "", (True, False): "^op",
           (False, True): "^cop", (True, True): "^op,cop"}
    return HopfAlgebra(f, n, list(h.basis_names), mult, list(h.unit), comult,
                       list(h.counit), s, s_inv,
                       name=h.name + tag[(flip_mult, flip_comult)])


def hopf_map_checks(src, dst, m, rep=None, prefix=""):
    """Is the row-as-image matrix m: src → dst a bialgebra/Hopf map?

    Adds mult/unit/comult/counit/antipode intertwining checks to a report.
    """
    if rep is None:
        rep = CheckReport()
    n1, n2 = src.dim, dst.dim
    zero = dst.field.zero
    bad = None
    for i in range(n1):
        for j in range(n1):
            lhs = apply_rowmap(src.mul_basis(i, j), m)
            rhs = dst.mul_vec(m.data[i], m.data[j])
            if lhs != rhs:
                bad = (i, j)
                break
        if bad:
            break
    rep.add(prefix + "map_mult", bad is None, bad)
    rep.add(prefix + "map_unit",
            apply_rowmap(src.unit, m) == dst.unit)
    bad = None
    for i in range(n1):
        lhs = {}
        for j, k, c in src.delta(i):
            for a, ca in enumerate(m.data[j]):
                if not ca:
                    continue
                for b, cb in enumerate(m.data[k]):
                    if cb:
                        key = (a, b)
                        lhs[key] = lhs.get(key, zero) + c * ca * cb
        rhs = {}
        for t, c in enumerate(m.data[i]):
            if not c:
                continue
            for a, b, c2 in dst.delta(t):
                key = (a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        keys = set(lhs) | set(rhs)
        if any(lhs.get(kk, zero) != rhs.get(kk, zero) for kk in keys):
            bad = (i,)
            break
    rep.add(prefix + "map_comult", bad is None, bad)
    bad = None
    for i in range(n1):
        if dst.counit_of(m.data[i]) != src.counit[i]:
            bad = (i,)
            break
    rep.add(prefix + "map_counit", bad is None, bad)
    rep.add(prefix + "map_antipode",
            mat_mul(src.antipode, m) == mat_mul(m, dst.antipode))
    return rep
