"""The braided Hopf algebra built from a CQT pair (H, R), its bimodule
actions and coinvariants, the generalized cotensor product, the unit object,
the isomorphism witnesses χ/φ/ψ/ξ, Galois-extension decisions and the
Miyashita-Ulbrich action on centralizers.

Structures are read through the sparse kernel linalg.Bilinear (h.mul,
h.delta, mod.act, mod.coact, alg.mul, and b.left/b.right for −▷ and ◁−).
R, σ and σ⁻¹ are paired with vectors only by twist.eval2.  The R-induced
action ▷₁ is quasitriangular.yd_from_comodule.  ▷₂, −▷, ◁− and the wedge
action are each computed in two displayed forms, and report.require_agree
raises at the first index where they differ.
Subspace bases are stored as Matrix columns; span comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hopf import dual_hopf
from .linalg import (Bilinear, Matrix, Tensor, apply_rowmap, in_span,
                     kernel_basis, mat_mul, rank, same_span, solve)
from .quasitriangular import deform_cqt, yd_from_comodule
from .report import (CheckReport, VerificationError, first_mismatch,
                     require_agree)
from .twist import deform, eval2
from .yd import (YdAlgebra, YdMap, YdModule, agreed_tensor, braided_product,
                 eta, is_yd_map, quantum_commutative, sigma_algebra,
                 sigma_module, verify_yd, verify_yd_algebra, yd_tensor)


@dataclass
class Subspace:
    ambient_dim: int
    basis: Matrix          # columns are basis vectors

    @property
    def dim(self):
        return self.basis.cols

    def column_vectors(self):
        return [self.basis.column(j) for j in range(self.basis.cols)]

    def contains(self, vec):
        return in_span(self.basis.field, vec,
                       [list(v) for v in self.column_vectors()],
                       self.ambient_dim)

    def coordinates(self, vec):
        """Coordinates of vec in the basis, or None if vec is not in the
        span."""
        sol = solve(self.basis, Matrix(self.basis.field, self.ambient_dim, 1,
                                       [[x] for x in vec]))
        if sol is None:
            return None
        return [row[0] for row in sol.data]

    def equals(self, other):
        return (self.ambient_dim == other.ambient_dim
                and same_span(self.basis.field,
                              [list(v) for v in self.column_vectors()],
                              [list(v) for v in other.column_vectors()],
                              self.ambient_dim))


@dataclass
class BraidedHopf:
    cqt: object                 # CqtStructure
    underlying: YdAlgebra       # (𝓗_R, ⋆) with adjoint coaction, ▷₁ action
    braided_antipode: Matrix    # S_R, row-as-image

    @property
    def host(self):
        return self.underlying.host

    def star_vec(self, u, v):
        return self.underlying.mul_vec(u, v)


@dataclass
class BimoduleActions:
    module: YdModule
    left_hr: Tensor             # h −▷ m
    right_hr: Tensor            # m ◁− h
    act2: Tensor                # h ▷₂ m

    def __post_init__(self):
        self.left = Bilinear(self.left_hr)
        self.right = Bilinear(self.right_hr)


def act2_tensor(c, mod):
    """h▷₂m = Σ m₀ R(S(m₁)⊗h); the S⁻¹ form Σ m₀ R(m₁⊗S⁻¹(h)) must agree."""
    h = c.host
    ms = range(mod.dim)
    rho = [[mod.coact.dense_row(p, q) for q in ms] for p in ms]
    s_rho = [[h.apply_S(v) for v in row] for row in rho]
    return agreed_tensor(
        "▷₂", h.field, (h.dim, mod.dim, mod.dim),
        lambda i, p: [eval2(c.r, v, i) for v in s_rho[p]],
        lambda i, p: [eval2(c.r, v, h.Sinv_basis(i)) for v in rho[p]])


def build_hr(c, verify=True):
    """𝓗_R: ⋆-product, braided antipode S_R, adjoint coaction and the
    R-induced action; the braided antipode identity is verified."""
    h = c.host
    n = h.dim
    f = h.field
    e, hs = h.basis_vec, range(n)

    def star(i, j):
        # h⋆l = Σ l₂h₂ R(S⁻¹(l₃)l₁ ⊗ h₁), h = e_i, l = e_j
        acc = [f.zero] * n
        for (l1, l2, l3), w2 in h.copower(j, 3):
            u = h.mul_vec(h.Sinv_basis(l3), e(l1))
            for h1, h2, w1 in h.delta.terms(i):
                scal = eval2(c.r, u, h1)
                if not scal:
                    continue
                w = w1 * w2 * scal
                for k, cm in h.mul.row(l2, h2):
                    acc[k] = acc[k] + w * cm
        return acc

    ss = mat_mul(h.antipode, h.antipode)  # S² (apply S twice)

    def s_r(i):
        # S_R(h) = Σ S(h₂) R(S²(h₃)S(h₁) ⊗ h₄)
        acc = [f.zero] * n
        for (a, b, c3, d), w in h.copower(i, 4):
            scal = eval2(c.r, h.mul_vec(ss.data[c3], h.S_basis(a)), d)
            if not scal:
                continue
            for k, cv in enumerate(h.S_basis(b)):
                if cv:
                    acc[k] = acc[k] + w * scal * cv
        return acc

    def adjoint(i):
        # ρ(h) = Σ h₂ ⊗ S(h₁)h₃, one row per h₂
        rows = [[f.zero] * n for _ in hs]
        for (a, b, c3), w in h.copower(i, 3):
            row = rows[b]
            for k, cv in enumerate(h.mul_vec(h.S_basis(a), e(c3))):
                if cv:
                    row[k] = row[k] + w * cv
        return rows

    mod = yd_from_comodule(c, Tensor.from_rows(f, (n, n, n),
                                               [adjoint(i) for i in hs]),
                           verify=False)
    star_t = Tensor.from_rows(f, (n, n, n),
                              [[star(i, j) for j in hs] for i in hs])
    bh = BraidedHopf(c, YdAlgebra(mod, star_t, list(h.unit)),
                     Matrix(f, n, n, [s_r(i) for i in hs]))
    if verify:
        verify_braided_hopf(bh).require("build_hr")
    return bh


def verify_braided_hopf(bh):
    rep = verify_yd_algebra(bh.underlying)
    h = bh.host
    n = h.dim
    f = h.field
    alg = bh.underlying
    e = h.basis_vec

    def antipode(i):
        left = [f.zero] * n
        right = [f.zero] * n
        for a, b, c in h.delta.terms(i):
            left_v = alg.mul_vec(bh.braided_antipode.data[a], e(b))
            for k, cv in enumerate(left_v):
                if cv:
                    left[k] = left[k] + c * cv
            right_v = alg.mul_vec(e(a), bh.braided_antipode.data[b])
            for k, cv in enumerate(right_v):
                if cv:
                    right[k] = right[k] + c * cv
        want = [h.counit[i] * x for x in h.unit]
        return (left, right), (want, want)

    bad = first_mismatch((range(n),), antipode)
    rep.add("braided_antipode", bad is None, bad,
            "⋆∘(S_R⊗id)∘Δ = ηε = ⋆∘(id⊗S_R)∘Δ")
    return rep


def bimodule_actions(bh, mod, verify=True):
    """The 𝓗_R-bimodule structure of a YD module: −▷, ◁− and ▷₂, each
    action checked against its expanded form."""
    h = bh.host
    r = bh.cqt.r
    if not mod.host.structures_equal(h):
        raise VerificationError("bimodule_actions: host mismatch")
    f = h.field
    m = mod.dim
    shape = (h.dim, m, m)
    sinv = h.Sinv_basis
    a2 = act2_tensor(bh.cqt, mod)
    act2 = Bilinear(a2)

    def left(i, p):
        # h−▷m = Σ S⁻¹(h₂) ▷₁ (h₁·m)
        acc = [f.zero] * m
        for a, b, w in h.delta.terms(i):
            for q0, x in mod.act.row(a, p):
                for q, k, c0 in mod.coact.terms(q0):
                    scal = eval2(r, sinv(b), k)
                    if scal:
                        acc[q] = acc[q] + w * x * c0 * scal
        return acc

    def left_expanded(i, p):
        # Σ(h₂·m₀) R(S⁻¹(h₄)⊗h₃m₁S⁻¹(h₁))
        acc = [f.zero] * m
        for (a, b, c3, d), w in h.copower(i, 4):
            for q0, k, c0 in mod.coact.terms(p):
                scal = eval2(r, sinv(d),
                             h.mul_vec(h.mul.dense_row(c3, k), sinv(a)))
                if not scal:
                    continue
                for q, x in mod.act.row(b, q0):
                    acc[q] = acc[q] + w * c0 * scal * x
        return acc

    def right(i, p):
        # m◁−h = Σ S(h₁) ▷₂ (h₂·m)
        acc = [f.zero] * m
        for a, b, w in h.delta.terms(i):
            v = act2.apply(h.S_basis(a), mod.act.dense_row(b, p))
            for q, x in enumerate(v):
                if x:
                    acc[q] = acc[q] + w * x
        return acc

    def right_expanded(i, p):
        # Σ(h₃·m₀) R(h₄m₁S⁻¹(h₂)⊗h₁)
        acc = [f.zero] * m
        for (a, b, c3, d), w in h.copower(i, 4):
            for q0, k, c0 in mod.coact.terms(p):
                scal = eval2(r, h.mul_vec(h.mul.dense_row(d, k), sinv(b)), a)
                if not scal:
                    continue
                for q, x in mod.act.row(c3, q0):
                    acc[q] = acc[q] + w * c0 * scal * x
        return acc

    b = BimoduleActions(mod,
                        agreed_tensor("−▷", f, shape, left, left_expanded),
                        agreed_tensor("◁−", f, shape, right, right_expanded),
                        a2)
    if verify:
        verify_bimodule(bh, b).require("bimodule_actions")
    return b


def verify_bimodule(bh, b):
    """Left/right 𝓗_R-module axioms for ⋆ and their commutation."""
    rep = CheckReport()
    h = bh.host
    mod = b.module
    star = bh.underlying.mul.dense_row
    left, right = b.left, b.right
    e, hs, ms = mod.basis_vec, range(h.dim), range(mod.dim)

    bad = first_mismatch((ms,), lambda p: (left.apply(h.unit, e(p)), e(p)))
    if bad is None:
        bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
            left.apply(star(i, j), e(p)),
            left.apply_basis(i, left.apply_basis(j, e(p)))))
    rep.add("left_action_for_star", bad is None, bad,
            "(h⋆l)−▷m = h−▷(l−▷m)")

    bad = first_mismatch((ms,), lambda p: (right.apply(h.unit, e(p)), e(p)))
    if bad is None:
        bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
            right.apply(star(i, j), e(p)),
            right.apply_basis(j, right.apply_basis(i, e(p)))))
    rep.add("right_action_for_star", bad is None, bad,
            "m◁−(h⋆l) = (m◁−h)◁−l")

    bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
        right.apply_basis(j, left.apply_basis(i, e(p))),
        left.apply_basis(i, right.apply_basis(j, e(p)))))
    rep.add("bimodule_commutation", bad is None, bad,
            "(h−▷m)◁−l = h−▷(m◁−l)")
    return rep


def _stacked_kernel(f, rows, dim):
    if not rows:
        return Matrix.identity(f, dim)
    return kernel_basis(Matrix(f, len(rows), dim, rows))


def _null_space(f, dim, image):
    """{x : Σ_p x_p·image(p) = 0} ⊆ k^dim, for dense vectors image(p)."""
    cols = [image(p) for p in range(dim)]
    return Subspace(dim, _stacked_kernel(f, [list(r) for r in zip(*cols)],
                                         dim))


def coinvariants(bh, b, side):
    """M_◇ (side="right", from −▷) or _◇M (side="left", from ◁−).

    Cross-checked against the action-equality characterization
    (h·m = h▷₁m for M_◇, h·m = h▷₂m for _◇M).
    """
    mod = b.module
    h = mod.host
    hs = range(h.dim)
    if side == "right":
        act = b.left
        other = yd_from_comodule(bh.cqt, mod.coaction, verify=False).act
    else:
        act, other = b.right, Bilinear(b.act2)

    def minus_counit(p):
        out = []
        for i in hs:
            row = list(act.dense_row(i, p))
            row[p] = row[p] - h.counit[i]
            out.extend(row)
        return out

    sub = _null_space(h.field, mod.dim, minus_counit)
    sub2 = _null_space(h.field, mod.dim, lambda p: [
        x - y for i in hs
        for x, y in zip(mod.act.dense_row(i, p), other.dense_row(i, p))])
    if not sub.equals(sub2):
        raise VerificationError(
            "Lemma-3.1 characterization disagrees (side=%s)" % side)
    return sub


def verify_sigma_coinvariants(s, cqt, mod, host_s=None, cqt_s=None):
    """Coinvariant subspaces agree before and after the deformation."""
    rep = CheckReport()
    bh = build_hr(cqt, verify=False)
    b = bimodule_actions(bh, mod, verify=False)
    if host_s is None:
        host_s = deform(s, verify=False)
    if cqt_s is None:
        cqt_s = deform_cqt(cqt, s, verify=False)
    smod = sigma_module(s, mod, host_s, verify=False)
    bh_s = build_hr(cqt_s, verify=False)
    b_s = bimodule_actions(bh_s, smod, verify=False)
    for side in ("right", "left"):
        sub = coinvariants(bh, b, side)
        sub_s = coinvariants(bh_s, b_s, side)
        rep.add("coinvariants_%s_stable" % side, sub.equals(sub_s), None,
                "dim %d vs %d" % (sub.dim, sub_s.dim))
    return rep


# -- the generalized cotensor product ----------------------------------------

def wedge(cqt, ma, mb, verify=True):
    """M∧N ⊆ M⊗N with its induced YD structure.

    Membership: Σ h₁·mᵢ ⊗ h₂▷₁nᵢ = Σ h₁▷₂mᵢ ⊗ h₂·nᵢ for all h; the two
    sides are the diagonal actions of M⊗(N, ▷₁) and (M, ▷₂)⊗N.
    """
    h = cqt.host
    f = h.field
    n = h.dim
    hs = range(n)
    dim = ma.dim * mb.dim
    side_a = yd_tensor(ma, yd_from_comodule(cqt, mb.coaction, verify=False))
    side_b = yd_tensor(YdModule(h, ma.dim, act2_tensor(cqt, ma), ma.coaction),
                       mb)
    sub = _null_space(f, dim, lambda src: [
        x - y for i in hs for x, y in zip(side_a.act.dense_row(i, src),
                                          side_b.act.dense_row(i, src))])
    vecs = sub.column_vectors()
    wd = sub.dim
    ws = range(wd)

    def coords(vec):
        out = sub.coordinates(vec)
        if out is None:
            raise VerificationError("wedge is not closed under the structure")
        return out

    form_a = [[side_a.act.apply_basis(i, w) for w in vecs] for i in hs]
    form_b = [[side_b.act.apply_basis(i, w) for w in vecs] for i in hs]
    require_agree("wedge-action", (hs, ws),
                  lambda i, j: (form_a[i][j], form_b[i][j]))
    action = Tensor.from_rows(f, (n, wd, wd),
                              [[coords(v) for v in row] for row in form_a])

    def coaction(w):
        # ρ(w) in M⊗N (the coaction of side_a is that of M⊗N), by e_k
        per_k = [[f.zero] * dim for _ in hs]
        for src, x in enumerate(w):
            if x:
                for q, k, c in side_a.coact.terms(src):
                    per_k[k][q] = per_k[k][q] + x * c
        cs = [coords(v) if any(v) else [f.zero] * wd for v in per_k]
        return [[cs[k][t] for k in hs] for t in ws]

    out = YdModule(h, wd, action, Tensor.from_rows(
        f, (wd, wd, n), [coaction(w) for w in vecs]))
    if verify:
        verify_yd(out).require("wedge module")
    return sub, out


def verify_sigma_wedge(s, cqt, ma, mb, alga=None, algb=None,
                       host_s=None, cqt_s=None):
    """Lemma 3.4 span equality with η⁻¹ intertwining; with algebras,
    additionally the Prop-3.5 algebra-map property of η⁻¹."""
    rep = CheckReport()
    h = cqt.host
    f = h.field
    if host_s is None:
        host_s = deform(s, verify=False)
    if cqt_s is None:
        cqt_s = deform_cqt(cqt, s, verify=False)
    sub, wmod = wedge(cqt, ma, mb, verify=False)
    sa = sigma_module(s, ma, host_s, verify=False)
    sb = sigma_module(s, mb, host_s, verify=False)
    sub_s, wmod_s = wedge(cqt_s, sa, sb, verify=False)

    eta_map, eta_inv = eta(s, ma, mb, host_s)
    da, db = ma.dim, mb.dim
    dim = da * db
    image = [apply_rowmap(v, eta_inv) for v in sub.column_vectors()]
    rep.add("wedge_span_stable",
            same_span(f, image, [list(v) for v in sub_s.column_vectors()],
                      dim),
            None, "dim %d vs %d" % (sub.dim, sub_s.dim))

    # η⁻¹ restricted intertwines σ̲(M∧N) with σ̲M∧σ̲N
    swmod = sigma_module(s, wmod, host_s, verify=False)
    coords = [sub_s.coordinates(v) for v in image]
    ok = None not in coords
    rep.add("eta_inv_restricts", ok)
    if ok:
        restr = Matrix(f, sub.dim, sub_s.dim, coords)
        rep.merge(is_yd_map(YdMap(swmod, wmod_s, restr)), prefix="wedge_")

    if alga is not None and algb is not None:
        prod = braided_product(alga, algb, cqt=cqt, verify=False)
        sprod = sigma_algebra(s, prod, host_s, verify=False)
        salga = sigma_algebra(s, alga, host_s, verify=False)
        salgb = sigma_algebra(s, algb, host_s, verify=False)
        prod_s = braided_product(salga, salgb, cqt=cqt_s, verify=False)
        # η⁻¹(e_u) is row u of the row-as-image matrix
        bad = first_mismatch((range(dim),) * 2, lambda u, v: (
            apply_rowmap(sprod.mul.dense_row(u, v), eta_inv),
            prod_s.mul_vec(eta_inv.data[u], eta_inv.data[v])))
        rep.add("eta_inv_algebra_map", bad is None, bad,
                "η⁻¹: σ̲(A#_RB) → σ̲A#_{R^σ}σ̲B")
    return rep


def wedge_algebra(cqt, alga, algb, verify=True):
    """A∧B as a subalgebra of A#_RB, carrying the wedge YD structure.

    The wedge subspace must be closed under the braided product and contain
    1#1; both are verified by solving against the wedge basis.
    """
    h = cqt.host
    f = h.field
    sub, wmod = wedge(cqt, alga.module, algb.module, verify=False)
    prod = braided_product(alga, algb, cqt=cqt, verify=False)
    wd = sub.dim
    basis_vecs = sub.column_vectors()
    coords = [sub.coordinates(prod.mul_vec(u, v))
              for u in basis_vecs for v in basis_vecs]
    unit_coords = sub.coordinates(prod.unit)
    if unit_coords is None or None in coords:
        raise VerificationError("wedge is not closed as an algebra")
    mult = Tensor(f, (wd, wd, wd), [x for c in coords for x in c])
    out = YdAlgebra(wmod, mult, unit_coords)
    if verify:
        verify_yd_algebra(out).require("wedge_algebra")
    return out


# -- the unit object ----------------------------------------------------------

def unit_object(host, verify=True):
    """I = H* with h·p = Σ p₁⟨p₂,h⟩ and the coaction dual to
    h*·p = Σ h*₂ p S⁻¹(h*₁)."""
    hd = dual_hopf(host)
    n = host.dim
    f = host.field
    hs = range(n)

    def dual_action(i, j):
        # δ_i acting on δ_j, dualized through the basis pairing
        acc = [f.zero] * n
        for a, b, c in hd.delta.terms(i):
            u = hd.mul_vec(hd.mul.dense_row(b, j), hd.Sinv_basis(a))
            for q, cv in enumerate(u):
                if cv:
                    acc[q] = acc[q] + c * cv
        return acc

    dual = [[dual_action(i, j) for j in hs] for i in hs]
    # e_i·δ_j = Σ_a mult[a,i,j] δ_a
    action = Tensor.from_rows(f, (n, n, n), [
        [[host.mul.dense_row(a, i)[j] for a in hs] for j in hs] for i in hs])
    coaction = Tensor.from_rows(f, (n, n, n), [
        [[dual[i][j][q] for i in hs] for q in hs] for j in hs])
    mod = YdModule(host, n, action, coaction)
    alg = YdAlgebra(mod, Tensor(f, (n, n, n), list(hd.mult.data)),
                    list(hd.unit))
    if verify:
        verify_yd_algebra(alg).require("unit_object")
    return alg


# -- χ, φ, ψ, ξ ---------------------------------------------------------------

def chi_maps(s):
    """χ, χ⁻¹ and χ* = transpose pairing; χχ⁻¹ = id is verified."""
    h = s.host
    n = h.dim
    f = h.field
    e, sinv = h.basis_vec, h.Sinv_basis

    def chi(i):
        acc = [f.zero] * n
        for (a, b, c, d), w in h.copower(i, 4):
            scal = eval2(s.sigma_inv, d, h.mul_vec(sinv(c), e(a)))
            if scal:
                acc[b] = acc[b] + w * scal
        return acc

    def chi_inv(i):
        acc = [f.zero] * n
        for (a, b, c, d, e5), w in h.copower(i, 5):
            s1 = eval2(s.sigma_inv, sinv(e5), a)
            if not s1:
                continue
            s2 = eval2(s.sigma, sinv(d), c)
            if s2:
                acc[b] = acc[b] + w * s1 * s2
        return acc

    chi = Matrix(f, n, n, [chi(i) for i in range(n)])
    chi_inv = Matrix(f, n, n, [chi_inv(i) for i in range(n)])
    ident = Matrix.identity(f, n)
    if mat_mul(chi, chi_inv) != ident or mat_mul(chi_inv, chi) != ident:
        raise VerificationError("χ and χ⁻¹ are not mutually inverse")
    return chi, chi_inv, chi.transpose()


def verify_unit_deformation(s, host_s=None):
    """Lemma 3.7: χ* is an algebra, module and comodule isomorphism
    σ̲(I) → I^σ."""
    rep = CheckReport()
    h = s.host
    n = h.dim
    if host_s is None:
        host_s = deform(s, verify=False)
    i_obj = unit_object(h, verify=False)
    si = sigma_algebra(s, i_obj, host_s, verify=False)
    i_s = unit_object(host_s, verify=False)
    chi, chi_inv, chi_star = chi_maps(s)

    rep.add("chi_star_invertible", rank(chi_star) == n)
    rep.merge(is_yd_map(YdMap(si.module, i_s.module, chi_star)),
              prefix="chi_star_")

    bad = first_mismatch((range(n),) * 2, lambda p, q: (
        apply_rowmap(si.mul.dense_row(p, q), chi_star),
        i_s.mul_vec(chi_star.data[p], chi_star.data[q])))
    rep.add("chi_star_algebra_map", bad is None, bad)
    rep.add("chi_star_unital",
            apply_rowmap(si.unit, chi_star) == i_s.unit)
    return rep


def phi_psi_xi(s, alg):
    """The Lemma 3.8/3.9/3.13 isomorphism witnesses with their displayed
    inverses; all round trips are asserted to be identities."""
    h = s.host
    n = h.dim
    f = h.field
    mod = alg.module
    m = mod.dim
    e, sinv, hs = h.basis_vec, h.Sinv_basis, range(n)

    def spread(mat, w, pairing, at_row, at_col):
        """mat[at_row(p)][at_col(q)] += w·c·pairing[k] over the terms
        c v_q⊗e_k of ρ(v_p), for every p."""
        for p in range(m):
            row = mat.data[at_row(p)]
            for q, k, c in mod.coact.terms(p):
                if pairing[k]:
                    row[at_col(q)] = row[at_col(q)] + w * c * pairing[k]

    def build(mat2, psi):
        """φ on M⊗H pairs mat2(m₁ ⊗ S⁻¹(k₃)k₁); ψ on H⊗M is the same map
        with the pairing transposed, mat2(S⁻¹(k₃)k₁ ⊗ m₁)."""
        at = (lambda p, j: j * m + p) if psi else (lambda p, j: p * n + j)
        out = Matrix.zeros(f, m * n, m * n)
        for k in hs:
            for (k1, j, k3), w in h.copower(k, 3):
                u = h.mul_vec(sinv(k3), e(k1))
                pairing = [eval2(mat2, u, t) if psi else eval2(mat2, t, u)
                           for t in hs]
                spread(out, w, pairing, lambda p: at(p, j),
                       lambda q: at(q, k))
        return out

    phi, phi_inv = build(s.sigma, False), build(s.sigma_inv, False)
    psi, psi_inv = build(s.sigma, True), build(s.sigma_inv, True)

    xi = Matrix.zeros(f, m * n, m * n)
    xi_inv = Matrix.zeros(f, m * n, m * n)
    for i in hs:
        for (a, b, c, d), w in h.copower(i, 4):
            s1 = eval2(s.sigma, sinv(b), a)
            if s1:
                spread(xi, w * s1,
                       [eval2(s.sigma_inv, sinv(c), t) for t in hs],
                       lambda p: p * n + i, lambda q: q * n + d)
        for (a, b, c), w in h.copower(i, 3):
            spread(xi_inv, w, [eval2(s.sigma_inv, b, h.mul_vec(sinv(a), e(t)))
                               for t in hs],
                   lambda p: p * n + i, lambda q: q * n + c)

    for name, a, b in (("phi", phi, phi_inv), ("psi", psi, psi_inv),
                       ("xi", xi, xi_inv)):
        ident = Matrix.identity(f, a.rows)
        if mat_mul(a, b) != ident or mat_mul(b, a) != ident:
            raise VerificationError("%s round trip failed" % name)
    return phi, phi_inv, psi, psi_inv, xi, xi_inv


# -- Galois decisions ---------------------------------------------------------

def _relations(alg, sub_basis_vecs):
    """Generators (a·x)⊗b − a⊗(x·b) of the middle-subalgebra relations."""
    f = alg.host.field
    m = alg.dim
    rels = []
    for x in sub_basis_vecs:
        for p in range(m):
            ax = alg.mul_vec(alg.module.basis_vec(p), x)
            for r in range(m):
                xb = alg.mul_vec(x, alg.module.basis_vec(r))
                vec = [f.zero] * (m * m)
                for t, v in enumerate(ax):
                    if v:
                        vec[t * m + r] = vec[t * m + r] + v
                for t, v in enumerate(xb):
                    if v:
                        vec[p * m + t] = vec[p * m + t] - v
                if any(vec):
                    rels.append(vec)
    return rels


def _beta_quotient_bijective(f, beta, rels, rep, tag):
    """β̄ on A⊗_{A₀}A is bijective iff β is onto and ker β = relations."""
    target = beta.cols
    m2 = beta.rows
    rk = rank(beta)
    onto = rk == target
    rep.add(tag + "_surjective", onto, None,
            "rank %d of %d" % (rk, target))
    zero = [f.zero] * target
    bad = first_mismatch((range(len(rels)),), lambda i: (
        apply_rowmap(rels[i], beta), zero))
    rep.add(tag + "_relations_in_kernel", bad is None, bad)
    rel_rank = rank(Matrix(f, len(rels), m2, rels)) if rels else 0
    ker_dim = m2 - rk
    rep.add(tag + "_kernel_is_relations", rel_rank == ker_dim, None,
            "relation rank %d vs kernel dim %d" % (rel_rank, ker_dim))
    return onto and bad is None and rel_rank == ker_dim


def galois_maps(bh, b, alg):
    """Right/left 𝓗_R^*-Galois decisions for A, plus the bigalois verdict."""
    rep = CheckReport()
    h = bh.host
    f = h.field
    n = h.dim
    m = alg.dim

    sub_r = coinvariants(bh, b, "right")
    sub_l = coinvariants(bh, b, "left")
    rep.add("coinvariants_computed", True, None,
            "dim right %d, left %d" % (sub_r.dim, sub_l.dim))

    def beta_r(p, r):
        # β_r(a⊗b) = Σ_i (e_i−▷a)b ⊗ e_i
        row = [f.zero] * (m * n)
        for i in range(n):
            for q, c0 in b.left.row(i, p):
                for y, cm in alg.mul.row(q, r):
                    row[y * n + i] = row[y * n + i] + c0 * cm
        return row

    def beta_l(r, p):
        # β_l(b⊗a) = Σ_i e_i ⊗ b(a◁−e_i)
        row = [f.zero] * (n * m)
        for i in range(n):
            for q, c0 in b.right.row(i, p):
                for y, cm in alg.mul.row(r, q):
                    row[i * m + y] = row[i * m + y] + c0 * cm
        return row

    # row u·m+v of each β is the image of v_u⊗v_v
    ms2 = [(u, v) for u in range(m) for v in range(m)]
    right_ok = _beta_quotient_bijective(
        f, Matrix(f, m * m, m * n, [beta_r(u, v) for u, v in ms2]),
        _relations(alg, sub_r.column_vectors()), rep, "beta_r")
    left_ok = _beta_quotient_bijective(
        f, Matrix(f, m * m, n * m, [beta_l(u, v) for u, v in ms2]),
        _relations(alg, sub_l.column_vectors()), rep, "beta_l")

    triv_r = sub_r.dim == 1 and sub_r.contains(alg.unit)
    triv_l = sub_l.dim == 1 and sub_l.contains(alg.unit)
    rep.add("right_galois", right_ok)
    rep.add("left_galois", left_ok)
    rep.add("bigalois_object", right_ok and left_ok and triv_r and triv_l,
            None, "coinvariants trivial: right %r, left %r"
            % (triv_r, triv_l))
    return rep


def comodule_coinvariants(alg):
    """A₀ = {a : ρ(a) = a⊗1} from the coaction alone."""
    h = alg.host
    coact, ms = alg.module.coact.dense_row, range(alg.dim)

    def rho_minus_one(p):
        # ρ(v_p) − v_p⊗1, flattened over (q, k)
        rows = [coact(p, q) for q in ms]
        rows[p] = [x - u for x, u in zip(rows[p], h.unit)]
        return [x for row in rows for x in row]

    return _null_space(h.field, alg.dim, rho_minus_one)


def comodule_beta(alg):
    """β(a⊗b) = Σ ab₀ ⊗ b₁ on A⊗A → A⊗H."""
    mod = alg.module
    h = alg.host
    f = h.field
    n = h.dim
    m = alg.dim
    beta = Matrix.zeros(f, m * m, m * n)
    for p in range(m):
        for r in range(m):
            row = beta.data[p * m + r]
            for q, k, c in mod.coact.terms(r):
                for y, cm in alg.mul.row(p, q):
                    row[y * n + k] = row[y * n + k] + c * cm
    return beta


def comodule_galois(alg):
    """H^op-comodule-algebra Galois decision (the action is ignored)."""
    rep = CheckReport()
    f = alg.host.field
    sub0 = comodule_coinvariants(alg)
    rep.add("coinvariants_computed", True, None, "dim %d" % sub0.dim)
    beta = comodule_beta(alg)
    rels = _relations(alg, sub0.column_vectors())
    ok = _beta_quotient_bijective(f, beta, rels, rep, "beta")
    rep.add("galois", ok)
    return rep


def mu_action_and_pi(alg, verify=True):
    """π(A) = C_A(A₀) with the Miyashita-Ulbrich action; requires A/A₀ to
    be Galois.  Returns (π(A) as a YdAlgebra, report)."""
    rep = CheckReport()
    mod = alg.module
    h = alg.host
    f = h.field
    n = h.dim
    m = alg.dim

    gal = comodule_galois(alg)
    rep.merge(gal, prefix="galois_")
    if not gal.ok:
        raise VerificationError("mu_action_and_pi requires a Galois input")

    sub0 = comodule_coinvariants(alg)
    x_vecs = sub0.column_vectors()

    rows = []
    for x in x_vecs:
        for comp in range(m):
            row = [f.zero] * m
            for p in range(m):
                bp = alg.module.basis_vec(p)
                yx = alg.mul_vec(bp, x)
                xy = alg.mul_vec(x, bp)
                row[p] = yx[comp] - xy[comp]
            rows.append(row)
    pi_sub = Subspace(m, _stacked_kernel(f, rows, m))
    rep.add("centralizer_computed", True, None, "dim %d" % pi_sub.dim)

    # β is stored row-as-image; solve and kernel_basis read columns.
    beta = comodule_beta(alg).transpose()
    rhs = Matrix.zeros(f, m * n, n)
    for k in range(n):
        for y, u in enumerate(alg.unit):
            if u:
                rhs.data[y * n + k][k] = u
    part = solve(beta, rhs)
    if part is None:
        raise VerificationError("β-preimages of 1⊗h do not exist")
    ker = kernel_basis(beta)

    pi_vecs = pi_sub.column_vectors()
    pd = pi_sub.dim

    def triple_table(avec):
        """T[p][r] = v_p · a · v_r as dense vectors."""
        out = []
        for p in range(m):
            va = alg.mul_vec(alg.module.basis_vec(p), avec)
            row = []
            for r in range(m):
                row.append(alg.mul_vec(va, alg.module.basis_vec(r)))
            out.append(row)
        return out

    tables = [triple_table(a) for a in pi_vecs]

    def act_by(coeffs, a_idx):
        """Σ coeffs[p·m+r] v_p·a·v_r for the a_idx-th basis vector a."""
        acc = [f.zero] * m
        tab = tables[a_idx]
        for src, v in enumerate(coeffs):
            if not v:
                continue
            p, r = divmod(src, m)
            for t, w in enumerate(tab[p][r]):
                if w:
                    acc[t] = acc[t] + v * w
        return acc

    zero = [f.zero] * m
    kernel = [ker.column(j) for j in range(ker.cols)]
    bad = first_mismatch((range(ker.cols), range(pd)), lambda j, a_idx: (
        act_by(kernel[j], a_idx), zero))
    rep.add("mu_action_well_defined", bad is None, bad,
            "preimage perturbations act by zero on π(A)")

    def closed_under(name, space, vec_at, error):
        """Coordinates in π(A) of vec_at(*idx), keyed by idx; check `name`
        fails, and error is raised, if one of the vectors is outside π(A)."""
        coords = {idx: pi_sub.coordinates(vec_at(*idx))
                  for idx in product(*space)}
        bad = first_mismatch(space, lambda *idx: (coords[idx] is None, False))
        rep.add(name, bad is None, bad)
        if bad is not None:
            raise VerificationError(error)
        return coords

    parts = [part.column(k) for k in range(n)]
    acts = closed_under("mu_action_lands_in_pi", (range(n), range(pd)),
                        lambda k, a_idx: act_by(parts[k], a_idx),
                        "MU action leaves the centralizer")
    action = Tensor(f, (n, pd, pd), [x for c in acts.values() for x in c])

    def coaction_part(a_idx, k):
        """The v⊗e_k component of ρ(a) as a vector v."""
        vec = [f.zero] * m
        for p, x in enumerate(pi_vecs[a_idx]):
            if x:
                for q, k2, c in mod.coact.terms(p):
                    if k2 == k:
                        vec[q] = vec[q] + x * c
        return vec

    coacts = closed_under("pi_subcomodule", (range(pd), range(n)),
                          coaction_part, "π(A) is not a subcomodule")
    coaction = Tensor(f, (pd, pd, n), [coacts[a_idx, k][t]
                                       for a_idx in range(pd)
                                       for t in range(pd) for k in range(n)])

    prods = closed_under("pi_subalgebra", (range(pd), range(pd)),
                         lambda a, b: alg.mul_vec(pi_vecs[a], pi_vecs[b]),
                         "π(A) is not a subalgebra")
    mult = Tensor(f, (pd, pd, pd), [x for c in prods.values() for x in c])

    unit_coords = pi_sub.coordinates(alg.unit)
    if unit_coords is None:
        raise VerificationError("unit is not in π(A)")

    pi_alg = YdAlgebra(YdModule(h, pd, action, coaction), mult, unit_coords)
    if verify:
        va = verify_yd_algebra(pi_alg)
        rep.merge(va, prefix="pi_")
        rep.add("pi_quantum_commutative", quantum_commutative(pi_alg))
    return pi_alg, rep
