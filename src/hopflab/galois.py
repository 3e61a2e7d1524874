"""The braided Hopf algebra built from a CQT pair (H, R), its bimodule
actions and coinvariants, the generalized cotensor product, the unit object,
the isomorphism witnesses χ/φ/ψ/ξ, Galois-extension decisions and the
Miyashita-Ulbrich action on centralizers.

Structures are read through the sparse kernel linalg.Bilinear of their
tensors, one per Tensor (h.mul, h.delta, mod.act, mod.coact, alg.mul, and
b.left/b.right for −▷ and ◁−).
Words in H such as S⁻¹(h₃)h₁ are sparse rows of lifted sums
(fields.Field.lift) from h.word_table and h.antipode_words, and R, σ and
σ⁻¹ are paired with them only by twist.eval2_lifted (χ, φ, ψ and ξ read
their words and pairings from _pairing_tables); every construction here
reduces what it builds once.  The R-induced
action ▷₁ is quasitriangular.yd_from_comodule.  ▷₂, −▷, ◁− and the wedge
action are each computed in two displayed forms, and report.require_agree
raises at the first index where they differ.

Every Galois decision reads a coaction table, row p the terms (q, k, c) of
v_p's image in A⊗H: ρ, or −▷ and ◁− read as the 𝓗_R*-coactions
a ↦ Σ_i (e_i−▷a)⊗δ_i.  Its coinvariants are {a : ρ(a) = a⊗u}, u = 1 or ε;
the one β builder turns it into dict rows, which linalg.sparse_rank
ranks.  The relations are read from their two parts, v_p·x and −x·v_r
(_relation_parts): β(relation) is summed from the parts, and the relation
rank reads dict rows made one at a time, so a capped rank makes only the
rows it reads.  A Subspace is the
linalg.sparse_kernel of its equations, given as dict rows, a basis that
depends on the subspace alone, so membership, coordinates and equality
are read off it without a new elimination.  ker β and the β-preimages
that the Miyashita-Ulbrich action reads are sparse_kernel and
sparse_solve of βᵀ, transposed as dict rows: no dense matrix of the
equations is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hopf import (dual_hopf, first_action_mismatch, first_antipode_mismatch,
                   first_multiplicative_mismatch, first_unit_mismatch)
from .linalg import (Matrix, Tensor, are_inverse, linear_combination, rank,
                     same_span, sparse_kernel, sparse_rank, sparse_solve,
                     sparse_sum)
from .quasitriangular import deform_cqt, yd_from_comodule
from .report import (CheckReport, VerificationError, first_mismatch,
                     require_agree)
from .twist import deform, eval2_lifted
from .yd import (YdAlgebra, YdMap, YdModule, agreed_tensor, braided_product,
                 dual_module, eta, is_yd_map, quantum_commutative,
                 reduced_rows, sigma_algebra, sigma_module,
                 verify_yd_algebra, yd_tensor)


class Subspace:
    """The kernel of v_p ↦ images[p] ∈ k^size, images given as sparse rows
    [(index, coefficient)] whose repeated indices add up.  The equations
    are dict rows {p: coefficient}, one per index of k^size, and the basis
    is their linalg.sparse_kernel: vector j is 1 at its free column free[j]
    (its last nonzero entry) and 0 at the other free columns, so equal
    subspaces have equal bases, and a vector's coordinates are its entries
    at the free columns.  rows holds the basis vectors as sparse rows
    [(index, coefficient)], and vectors as dense lists.
    """

    def __init__(self, field, size, images):
        dim = len(images)
        eqs = [{} for _ in range(size)]
        for p, image in enumerate(images):
            for k, c in image:
                eq = eqs[k]
                eq[p] = eq[p] + c if p in eq else c
        self.field = field
        self.ambient_dim = dim
        self.rows = sparse_kernel(field, (eq.items() for eq in eqs), dim)
        self.vectors = []
        for row in self.rows:
            vec = [field.zero] * dim
            for k, x in row:
                vec[k] = x
            self.vectors.append(vec)
        self.free = [row[-1][0] for row in self.rows]

    @property
    def dim(self):
        return len(self.vectors)

    def coordinates(self, vec):
        """Coordinates of vec in the basis, or None if vec is not in the
        span."""
        coords = [vec[k] for k in self.free]
        back = linear_combination(self.field, self.ambient_dim,
                                  zip(coords, self.rows))
        return coords if back == list(vec) else None

    def contains(self, vec):
        return self.coordinates(vec) is not None

    def equals(self, other):
        return (self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)


def _times(mul, u, v):
    """uv as a dense vector, for u and v sparse rows [(index, coefficient)]
    multiplied through the Bilinear mul's rows."""
    return linear_combination(mul.field, mul.shape[2], (
        (x * y, mul.row(i, j)) for i, x in u for j, y in v))


@dataclass
class BraidedHopf:
    cqt: object                 # CqtStructure
    underlying: YdAlgebra       # (𝓗_R, ⋆) with adjoint coaction, ▷₁ action
    braided_antipode: Matrix    # S_R, row-as-image

    @property
    def host(self):
        return self.underlying.host


@dataclass
class BimoduleActions:
    module: YdModule
    left_hr: Tensor             # h −▷ m
    right_hr: Tensor            # m ◁− h
    act2: Tensor                # h ▷₂ m

    def __post_init__(self):
        self.left = self.left_hr.bilinear()
        self.right = self.right_hr.bilinear()


def act2_tensor(c, mod):
    """h▷₂m = Σ m₀ R(S(m₁)⊗h); the S⁻¹ form Σ m₀ R(m₁⊗S⁻¹(h)) must agree.
    Both forms sum lifted values at one scale (yd.reduced_rows)."""
    h = c.host
    f, hs, shape = h.field, range(h.dim), (h.dim, mod.dim, mod.dim)
    (rows, sr), (rho, sc) = c.r.lifted_rows(), mod.coact.lifted_rows()
    (s_rows, sinv), ss = h.antipodes.lifted_rows()
    # R(S(m₁)⊗e_i) = Σ x R(S(e_k)⊗e_i) over the terms x e_k of m₁
    r_s = [[eval2_lifted(rows, s, i) for i in hs] for s in s_rows]
    scale = sc * sr * ss
    return agreed_tensor(
        "▷₂", f, shape,
        reduced_rows(f, shape, lambda i, p: [
            sum(x * r_s[k][i] for k, x in row) for row in rho[p]], scale),
        reduced_rows(f, shape, lambda i, p: [
            eval2_lifted(rows, row, sinv[i]) for row in rho[p]], scale))


def build_hr(c):
    """𝓗_R: ⋆-product, braided antipode S_R, adjoint coaction and the
    R-induced action; verify_braided_hopf checks the braided antipode
    identity.  Each is summed on lifted values (fields.Field.lift), its
    words from h.antipode_words, and reduced once."""
    h = c.host
    n = h.dim
    f = h.field
    hs = range(n)
    (rows, sr), (mul, sm) = c.r.lifted_rows(), h.mul.lifted_rows()
    (delta, sd), ((s_rows, _), ss) = h.delta.lifted_terms(), \
        h.antipodes.lifted_rows()
    (copower3, s3), (copower4, s4) = h.lifted_copower(3), h.lifted_copower(4)
    (s_words, sw), (sinv_words, _) = h.antipode_words(0), h.antipode_words(1)

    def star(i, j):
        # h⋆l = Σ l₂h₂ R(S⁻¹(l₃)l₁ ⊗ h₁), h = e_i, l = e_j
        acc = [0] * n
        for (l1, l2, l3), w2 in copower3[j]:
            u = sinv_words[l3][l1]
            for h1, h2, w1 in delta[i]:
                scal = eval2_lifted(rows, u, h1)
                if not scal:
                    continue
                w = w1 * w2 * scal
                for k, cm in mul[l2][h2]:
                    acc[k] += w * cm
        return acc

    ss2 = [list(sparse_sum((k, x * y) for t, x in s_rows[i]    # S²(e_i)
                           for k, y in s_rows[t]).items()) for i in hs]

    def s_r(i):
        # S_R(h) = Σ S(h₂) R(S²(h₃)S(h₁) ⊗ h₄)
        acc = [0] * n
        for (a, b, c3, d), w in copower4[i]:
            scal = sum(x * y * cm * rows[k][d] for t, x in ss2[c3]
                       for u, y in s_rows[a] for k, cm in mul[t][u])
            if not scal:
                continue
            for k, cv in s_rows[b]:
                acc[k] += w * scal * cv
        return acc

    def adjoint(i):
        # ρ(h) = Σ h₂ ⊗ S(h₁)h₃, one row per h₂
        out = [0] * (n * n)
        for (a, b, c3), w in copower3[i]:
            for k, cv in s_words[a][c3]:
                out[b * n + k] += w * cv
        return out

    def tensor(form, scale):
        return Tensor(f, (n, n, n), f.reduce_vec(
            [x for i in hs for x in form(i)], scale))

    mod = yd_from_comodule(c, tensor(adjoint, s3 * sw))
    star_t = tensor(lambda i: [x for j in hs for x in star(i, j)],
                    s3 * sd * sr * sw * sm)
    s_r_sums = [x for i in hs for x in s_r(i)]
    return BraidedHopf(c, YdAlgebra(mod, star_t, list(h.unit)),
                       Matrix.from_sums(f, n, n, s_r_sums,
                                        s4 * ss ** 4 * sm * sr))


def verify_braided_hopf(bh):
    rep = verify_yd_algebra(bh.underlying)
    bad = first_antipode_mismatch(bh.host, bh.underlying.mul,
                                  bh.braided_antipode)
    rep.add("braided_antipode", bad is None, bad,
            "⋆∘(S_R⊗id)∘Δ = ηε = ⋆∘(id⊗S_R)∘Δ")
    return rep


def bimodule_actions(bh, mod):
    """The 𝓗_R-bimodule structure of a YD module: −▷, ◁− and ▷₂, each
    action checked against its expanded form.  Each form sums lifted values
    (fields.Field.lift), R's among them, and reduces all its rows in one
    call (yd.reduced_rows) at the product of its factors' scales; the
    expanded forms read each word (e_c e_k)·S⁻¹(e_a) from one
    h.word_table()."""
    h = bh.host
    r = bh.cqt.r
    if not mod.host.structures_equal(h):
        raise VerificationError("bimodule_actions: host mismatch")
    f = h.field
    m = mod.dim
    hs = range(h.dim)
    shape = (h.dim, m, m)
    (s_rows, sinv), ss = h.antipodes.lifted_rows()
    a2 = act2_tensor(bh.cqt, mod)
    act2, s2 = a2.bilinear().lifted_rows()
    delta, sd = h.delta.lifted_terms()
    (act, sa), (coact, sc) = mod.act.lifted_rows(), mod.coact.lifted_terms()
    rows, sr = r.lifted_rows()
    words, sw = h.word_table()
    copower4, s4 = h.lifted_copower(4)
    # the scales of the four forms' sums
    scale_left = sd * sa * sc * sr * ss
    scale_right = sd * ss * s2 * sa
    scale_right_expanded = s4 * sc * sr * sw * sa
    scale_left_expanded = scale_right_expanded * ss

    # R(S⁻¹(e_b)⊗e_k), the first form of −▷'s pairing
    r_sinv = [[eval2_lifted(rows, sinv[b], k) for k in hs] for b in hs]

    def left(i, p):
        # h−▷m = Σ S⁻¹(h₂) ▷₁ (h₁·m)
        acc = [0] * m
        for a, b, w in delta[i]:
            r_b = r_sinv[b]
            for q0, x in act[a][p]:
                wx = w * x
                for q, k, c0 in coact[q0]:
                    scal = r_b[k]
                    if scal:
                        acc[q] += wx * c0 * scal
        return acc

    def left_expanded(i, p):
        # Σ(h₂·m₀) R(S⁻¹(h₄)⊗h₃m₁S⁻¹(h₁))
        acc = [0] * m
        for (a, b, c3, d), w in copower4[i]:
            act_b = act[b]
            for q0, k, c0 in coact[p]:
                scal = eval2_lifted(rows, sinv[d], words(c3, k, a))
                if not scal:
                    continue
                wc = w * c0 * scal
                for q, x in act_b[q0]:
                    acc[q] += wc * x
        return acc

    def right(i, p):
        # m◁−h = Σ S(h₁) ▷₂ (h₂·m)
        acc = [0] * m
        for a, b, w in delta[i]:
            for t, y in s_rows[a]:
                act2_t, wy = act2[t], w * y
                for q0, x in act[b][p]:
                    wx = wy * x
                    for q, z in act2_t[q0]:
                        acc[q] += wx * z
        return acc

    def right_expanded(i, p):
        # Σ(h₃·m₀) R(h₄m₁S⁻¹(h₂)⊗h₁)
        acc = [0] * m
        for (a, b, c3, d), w in copower4[i]:
            act_c3 = act[c3]
            for q0, k, c0 in coact[p]:
                scal = eval2_lifted(rows, words(d, k, b), a)
                if not scal:
                    continue
                wc = w * c0 * scal
                for q, x in act_c3[q0]:
                    acc[q] += wc * x
        return acc

    return BimoduleActions(
        mod, agreed_tensor("−▷", f, shape,
                           reduced_rows(f, shape, left, scale_left),
                           reduced_rows(f, shape, left_expanded,
                                        scale_left_expanded)),
        agreed_tensor("◁−", f, shape,
                      reduced_rows(f, shape, right, scale_right),
                      reduced_rows(f, shape, right_expanded,
                                   scale_right_expanded)), a2)


def verify_bimodule(bh, b):
    """Left/right 𝓗_R-module axioms for ⋆ and their commutation."""
    rep = CheckReport()
    h = bh.host
    mod = b.module
    f, m = h.field, mod.dim
    star = bh.underlying.mul
    left, right = b.left, b.right
    hs, ms = range(h.dim), range(m)

    bad = first_unit_mismatch(h.unit, left)
    if bad is None:
        bad = first_action_mismatch(star, left)
    rep.add("left_action_for_star", bad is None, bad,
            "(h⋆l)−▷m = h−▷(l−▷m)")

    bad = first_unit_mismatch(h.unit, right)
    if bad is None:
        bad = first_action_mismatch(star, right, right=True)
    rep.add("right_action_for_star", bad is None, bad,
            "m◁−(h⋆l) = (m◁−h)◁−l")

    bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
        linear_combination(f, m, ((c, right.row(j, q))
                                  for q, c in left.row(i, p))),
        linear_combination(f, m, ((c, left.row(i, q))
                                  for q, c in right.row(j, p)))))
    rep.add("bimodule_commutation", bad is None, bad,
            "(h−▷m)◁−l = h−▷(m◁−l)")
    return rep


def _coaction_table(act):
    """An action read as the coaction a ↦ Σ_i (e_i·a)⊗δ_i: row p lists the
    terms (q, i, c) of v_p's image in A⊗H.  −▷ and ◁− are read so as
    𝓗_R*-coactions."""
    n, m = act.shape[:2]
    return [[(q, i, c) for i in range(n) for q, c in act.row(i, p)]
            for p in range(m)]


def _equalizer(f, n, table_a, table_b):
    """{a : table_a(a) = table_b(a)} for two coaction tables into A⊗k^n,
    A⊗k^n indexed q·n + k."""
    return Subspace(f, len(table_a) * n, [
        [(q * n + k, c) for q, k, c in ta]
        + [(q * n + k, -c) for q, k, c in tb]
        for ta, tb in zip(table_a, table_b)])


def _coinvariant_space(f, table, u):
    """{a : table(a) = a⊗u}: u = ε for −▷ and ◁−, u = 1 for ρ."""
    return _equalizer(f, len(u), table, [
        [(p, k, x) for k, x in enumerate(u) if x] for p in range(len(table))])


def coinvariants(bh, b, side):
    """M_◇ (side="right", from −▷) or _◇M (side="left", from ◁−).

    Cross-checked against the action-equality characterization
    (h·m = h▷₁m for M_◇, h·m = h▷₂m for _◇M).
    """
    mod = b.module
    h = mod.host
    if side == "right":
        act = b.left
        other = yd_from_comodule(bh.cqt, mod.coaction).act
    else:
        act, other = b.right, b.act2.bilinear()
    sub = _coinvariant_space(h.field, _coaction_table(act), h.counit)
    sub2 = _equalizer(h.field, h.dim, _coaction_table(mod.act),
                      _coaction_table(other))
    if not sub.equals(sub2):
        raise VerificationError(
            "Lemma-3.1 characterization disagrees (side=%s)" % side)
    return sub


def verify_sigma_coinvariants(s, cqt, mod):
    """Coinvariant subspaces agree before and after the deformation."""
    rep = CheckReport()
    bh = build_hr(cqt)
    b = bimodule_actions(bh, mod)
    smod = sigma_module(s, mod)
    bh_s = build_hr(deform_cqt(cqt, s))
    b_s = bimodule_actions(bh_s, smod)
    for side in ("right", "left"):
        sub = coinvariants(bh, b, side)
        sub_s = coinvariants(bh_s, b_s, side)
        rep.add("coinvariants_%s_stable" % side, sub.equals(sub_s), None,
                "dim %d vs %d" % (sub.dim, sub_s.dim))
    return rep


# -- the generalized cotensor product ----------------------------------------

def wedge(cqt, ma, mb):
    """M∧N ⊆ M⊗N with its induced YD structure.

    Membership: Σ h₁·mᵢ ⊗ h₂▷₁nᵢ = Σ h₁▷₂mᵢ ⊗ h₂·nᵢ for all h; the two
    sides are the diagonal actions of M⊗(N, ▷₁) and (M, ▷₂)⊗N.
    """
    h = cqt.host
    f = h.field
    n = h.dim
    hs = range(n)
    dim = ma.dim * mb.dim
    side_a = yd_tensor(ma, yd_from_comodule(cqt, mb.coaction))
    side_b = yd_tensor(YdModule(h, ma.dim, act2_tensor(cqt, ma), ma.coaction),
                       mb)
    sub = _equalizer(f, n, _coaction_table(side_a.act),
                     _coaction_table(side_b.act))
    vecs = sub.vectors
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
        for src, x in w:
            for q, k, c in side_a.coact.terms(src):
                per_k[k][q] = per_k[k][q] + x * c
        cs = [coords(v) for v in per_k]
        return [[cs[k][t] for k in hs] for t in ws]

    return sub, YdModule(h, wd, action, Tensor.from_rows(
        f, (wd, wd, n), [coaction(w) for w in sub.rows]))


def verify_sigma_wedge(s, cqt, alga, algb):
    """Lemma 3.4 span equality with η⁻¹ intertwining on the modules M and N
    of the YD algebras A and B, and the Prop-3.5 algebra-map property of
    η⁻¹.  Each σ̲ image is built once: σ̲M and σ̲N are the modules of σ̲A
    and σ̲B, and σ̲B is σ̲A when B is A."""
    rep = CheckReport()
    f = cqt.host.field
    ma, mb = alga.module, algb.module
    salga = sigma_algebra(s, alga)
    salgb = salga if algb is alga else sigma_algebra(s, algb)
    sa, sb = salga.module, salgb.module
    rs = deform_cqt(cqt, s)
    sub, wmod = wedge(cqt, ma, mb)
    sub_s, wmod_s = wedge(rs, sa, sb)

    _, eta_inv = eta(s, ma, mb)
    dim = ma.dim * mb.dim
    image = [linear_combination(f, dim, ((x, enumerate(eta_inv.data[k]))
                                         for k, x in row)) for row in sub.rows]
    rep.add("wedge_span_stable", same_span(f, image, sub_s.vectors, dim),
            None, "dim %d vs %d" % (sub.dim, sub_s.dim))

    # η⁻¹ restricted intertwines σ̲(M∧N) with σ̲M∧σ̲N
    swmod = sigma_module(s, wmod)
    coords = [sub_s.coordinates(v) for v in image]
    ok = None not in coords
    rep.add("eta_inv_restricts", ok)
    if ok:
        restr = Matrix(f, sub.dim, sub_s.dim, coords)
        rep.merge(is_yd_map(YdMap(swmod, wmod_s, restr)), prefix="wedge_")

    sprod = sigma_algebra(s, braided_product(alga, algb, cqt=cqt))
    prod_s = braided_product(salga, salgb, cqt=rs)
    bad = first_multiplicative_mismatch(sprod.mul, prod_s.mul, eta_inv)
    rep.add("eta_inv_algebra_map", bad is None, bad,
            "η⁻¹: σ̲(A#_RB) → σ̲A#_{R^σ}σ̲B")
    return rep


def wedge_algebra(cqt, alga, algb):
    """A∧B as a subalgebra of A#_RB, carrying the wedge YD structure.

    The wedge subspace must be closed under the braided product and contain
    1#1; both are verified by solving against the wedge basis.
    """
    h = cqt.host
    f = h.field
    sub, wmod = wedge(cqt, alga.module, algb.module)
    prod = braided_product(alga, algb, cqt=cqt)
    wd = sub.dim
    coords = [sub.coordinates(_times(prod.mul, u, v))
              for u in sub.rows for v in sub.rows]
    unit_coords = sub.coordinates(prod.unit)
    if unit_coords is None or None in coords:
        raise VerificationError("wedge is not closed as an algebra")
    mult = Tensor(f, (wd, wd, wd), [x for c in coords for x in c])
    return YdAlgebra(wmod, mult, unit_coords)


# -- the unit object ----------------------------------------------------------

def adjoint_module(host):
    """H as a YD module over itself: coaction Δ and the adjoint action
    h·a = Σ h₂ a S⁻¹(h₁)."""
    f, n, hs = host.field, host.dim, range(host.dim)
    (delta, sd), (words, sw) = host.delta.lifted_terms(), host.word_table()
    flat = [0] * (n * n * n)
    for i in hs:
        for p in hs:
            base = (i * n + p) * n
            for a, b, c in delta[i]:
                for k, x in words(b, p, a):         # e_b·e_p·S⁻¹(e_a)
                    flat[base + k] += c * x
    return YdModule(host, n, Tensor(f, (n, n, n), f.reduce_vec(flat, sd * sw)),
                    Tensor(f, (n, n, n), list(host.comult.data)))


def unit_object(host):
    """I = H*: the dual of H*'s adjoint module, so h·p = Σ p₁⟨p₂,h⟩ and the
    coaction is dual to h*·p = Σ h*₂ p S⁻¹(h*₁); I's product and unit are
    H*'s."""
    hd = dual_hopf(host)
    n = host.dim
    return YdAlgebra(dual_module(adjoint_module(hd)),
                     Tensor(host.field, (n, n, n), list(hd.mult.data)),
                     list(hd.unit))


# -- χ, φ, ψ, ξ ---------------------------------------------------------------

def _pairing_tables(s):
    """What χ, φ, ψ and ξ read of σ, lifted (fields.Field.lift), each with
    its scale: σ and σ⁻¹ as lifted rows, the words S⁻¹(e_a)e_t as sparse
    rows of lifted sums words[a][t], and σ(S⁻¹(e_b)⊗e_a) and
    σ⁻¹(S⁻¹(e_b)⊗e_a) as tables [b][a] of unreduced lifted sums."""
    h = s.host
    hs = range(h.dim)
    (_, sinv), sa = h.antipodes.lifted_rows()
    sig, inv = s.sigma.lifted_rows(), s.sigma_inv.lifted_rows()
    sig_sinv, inv_sinv = (([[eval2_lifted(rows, sinv[b], a) for a in hs]
                            for b in hs], scale * sa)
                          for rows, scale in (sig, inv))
    return sig, inv, h.antipode_words(1), sig_sinv, inv_sinv


def chi_maps(s):
    """χ, χ⁻¹ and χ* = transpose pairing; χχ⁻¹ = id is verified.  Both are
    summed lifted and reduced once each."""
    h = s.host
    n = h.dim
    f = h.field
    _, (inv, si), (words, sw), (sig_sinv, s1), (inv_sinv, s2) = \
        _pairing_tables(s)
    (copower4, s4), (copower5, s5) = h.lifted_copower(4), h.lifted_copower(5)
    scale, scale_inv = s4 * si * sw, s5 * s1 * s2

    def chi(i):
        # Σ σ⁻¹(h₄ ⊗ S⁻¹(h₃)h₁) h₂
        acc = [0] * n
        for (a, b, c, d), w in copower4[i]:
            scal = eval2_lifted(inv, d, words[c][a])
            if scal:
                acc[b] += w * scal
        return acc

    def chi_inv(i):
        # Σ σ⁻¹(S⁻¹(h₅) ⊗ h₁) σ(S⁻¹(h₄) ⊗ h₃) h₂
        acc = [0] * n
        for (a, b, c, d, e5), w in copower5[i]:
            x = inv_sinv[e5][a]
            if x:
                y = sig_sinv[d][c]
                if y:
                    acc[b] += w * x * y
        return acc

    hs = range(n)
    chi = Matrix.from_sums(f, n, n, [x for i in hs for x in chi(i)], scale)
    chi_inv = Matrix.from_sums(f, n, n, [x for i in hs for x in chi_inv(i)],
                               scale_inv)
    if not are_inverse(chi, chi_inv):
        raise VerificationError("χ and χ⁻¹ are not mutually inverse")
    return chi, chi_inv, chi.transpose()


def verify_unit_deformation(s):
    """Lemma 3.7: χ* is an algebra, module and comodule isomorphism
    σ̲(I) → I^σ."""
    rep = CheckReport()
    h = s.host
    n = h.dim
    si = sigma_algebra(s, unit_object(h))
    i_s = unit_object(deform(s))
    chi, chi_inv, chi_star = chi_maps(s)

    rep.add("chi_star_invertible", rank(chi_star) == n)
    rep.merge(is_yd_map(YdMap(si.module, i_s.module, chi_star)),
              prefix="chi_star_")

    bad = first_multiplicative_mismatch(si.mul, i_s.mul, chi_star)
    rep.add("chi_star_algebra_map", bad is None, bad)
    rep.add("chi_star_unital", linear_combination(h.field, n, (
        (x, enumerate(chi_star.data[r])) for r, x in enumerate(si.unit) if x))
        == i_s.unit)
    return rep


def phi_psi_xi(s, alg):
    """The Lemma 3.8/3.9/3.13 isomorphism witnesses with their displayed
    inverses; all round trips are asserted to be identities.  Each matrix
    is summed lifted and reduced once (linalg.Matrix.from_sums)."""
    h = s.host
    n = h.dim
    f = h.field
    m = alg.module.dim
    size, hs = m * n, range(n)
    coact, sc = alg.module.coact.lifted_terms()
    (sig, ss), (inv, si), (words, sw), (sig_sinv, s1), (inv_sinv, s2) = \
        _pairing_tables(s)
    (copower3, s3), (copower4, s4) = h.lifted_copower(3), h.lifted_copower(4)

    def spread(rows, w, pairing, at_row, at_col):
        """rows[at_row(p)][at_col(q)] += w·c·pairing[k] over the terms
        c v_q⊗e_k of ρ(v_p), for every p; rows are dicts of lifted sums."""
        for p in range(m):
            row = rows[at_row(p)]
            for q, k, c in coact[p]:
                if pairing[k]:
                    col = at_col(q)
                    row[col] = row.get(col, 0) + w * c * pairing[k]

    def matrix(rows, scale):
        """The matrix of dict rows of lifted sums at scale, reduced once."""
        sums = []
        for row in rows:
            dense = [0] * size
            for col, v in row.items():
                dense[col] = v
            sums += dense
        return Matrix.from_sums(f, size, size, sums, scale)

    def build(mat2, psi, scale):
        """φ on M⊗H pairs mat2(m₁ ⊗ S⁻¹(k₃)k₁); ψ on H⊗M is the same map
        with the pairing transposed, mat2(S⁻¹(k₃)k₁ ⊗ m₁); mat2's lifted
        rows are at scale."""
        at = (lambda p, j: j * m + p) if psi else (lambda p, j: p * n + j)
        out = [{} for _ in range(size)]
        for k in hs:
            for (k1, j, k3), w in copower3[k]:
                u = words[k3][k1]
                pairing = [eval2_lifted(mat2, u, t) if psi
                           else eval2_lifted(mat2, t, u) for t in hs]
                spread(out, w, pairing, lambda p: at(p, j),
                       lambda q: at(q, k))
        return matrix(out, s3 * sc * scale * sw)

    phi, phi_inv = build(sig, False, ss), build(inv, False, si)
    psi, psi_inv = build(sig, True, ss), build(inv, True, si)

    xi = [{} for _ in range(size)]
    xi_inv = [{} for _ in range(size)]
    for i in hs:
        for (a, b, c, d), w in copower4[i]:
            x = sig_sinv[b][a]
            if x:
                spread(xi, w * x, inv_sinv[c],
                       lambda p: p * n + i, lambda q: q * n + d)
        for (a, b, c), w in copower3[i]:
            spread(xi_inv, w, [eval2_lifted(inv, b, words[a][t])
                               for t in hs],
                   lambda p: p * n + i, lambda q: q * n + c)
    xi, xi_inv = matrix(xi, s4 * s1 * sc * s2), matrix(xi_inv,
                                                       s3 * sc * si * sw)

    for name, a, b in (("phi", phi, phi_inv), ("psi", psi, psi_inv),
                       ("xi", xi, xi_inv)):
        if not are_inverse(a, b):
            raise VerificationError("%s round trip failed" % name)
    return phi, phi_inv, psi, psi_inv, xi, xi_inv


# -- Galois decisions ---------------------------------------------------------

def _relation_parts(alg, sub_rows):
    """The two parts of the middle-subalgebra relations
    (a·x)⊗b − a⊗(x·b) for x over sub_rows, sparse rows [(j, coefficient)]:
    per x, the pair ([v_p·x for p], [−x·v_r for r]) of dicts
    {t: coefficient} without zeros, summed lifted and reduced once.  The
    relation of (x, v_p, v_r) is Σ_t (v_p·x)_t e_{t·m+r} +
    Σ_t (−x·v_r)_t e_{p·m+t} in A⊗A."""
    f = alg.host.field
    ms, (mul, sm) = range(alg.dim), alg.mul.lifted_rows()
    parts = []
    for xs in sub_rows:
        cs, sx = f.lift([c for _, c in xs])
        xs, scale = [(j, c) for (j, _), c in zip(xs, cs)], sx * sm
        ax = [f.reduce_row(sparse_sum((k, c * w) for j, c in xs
                                      for k, w in mul[p][j]), scale)
              for p in ms]                                      # v_p·x
        nxb = [f.reduce_row(sparse_sum((k, -c * w) for j, c in xs
                                       for k, w in mul[j][r]), scale)
               for r in ms]                                     # −x·v_r
        parts.append((ax, nxb))
    return parts


def _nonzero_relations(parts):
    """(x, p, r) for each nonzero relation of _relation_parts' parts, x the
    index of the part, in (x, v_p, v_r) order.

    The (a·x)⊗b part has the keys t·m + r and the a⊗(x·b) part the keys
    p·m + t, so they meet only at p·m + r, where v_p·x meets x·v_r at
    t = p and t = r: a relation is zero only when both parts are empty or
    both are that one entry with opposite coefficients."""
    for x, (ax, nxb) in enumerate(parts):
        # the coefficient of e_r in x·v_r where that is its one entry
        alone = [-nxbr[r] if len(nxbr) == 1 and r in nxbr else None
                 for r, nxbr in enumerate(nxb)]
        for p, axp in enumerate(ax):
            at_p = axp.get(p) if len(axp) == 1 else None
            for r, nxbr in enumerate(nxb):
                if (axp or nxbr) and (at_p is None or at_p != alone[r]):
                    yield x, p, r


def _relations(parts):
    """The nonzero relations of _relation_parts' parts as sparse rows
    {p·m + r: coefficient} of A⊗A, made one at a time as they are read,
    in (x, v_p, v_r) order."""
    m = len(parts[0][0]) if parts else 0
    for x, p, r in _nonzero_relations(parts):
        axp, nxbr = parts[x][0][p], parts[x][1][r]
        pm = p * m
        rel = {t * m + r: v for t, v in axp.items()}
        for t, v in nxbr.items():
            rel[pm + t] = v
        if p in axp and r in nxbr:      # the one key both parts write
            v = axp[p] + nxbr[r]
            if v:
                rel[pm + r] = v
            else:
                del rel[pm + r]
        yield rel


def _kernel_and_preimages(f, beta, n, unit):
    """ker β and the β-preimages of 1⊗e_k for k < n, for β: A⊗A → A⊗H
    given as _galois_map's dict rows (row p·m+r the image of v_p⊗v_r;
    column y·n + k the coordinate of v_y⊗e_k) and unit the coordinates of
    1 ∈ A.  Both are read off βᵀ, built as dict rows by
    transposing β's rows: the kernel vectors as linalg.sparse_kernel gives
    them and the preimages as linalg.sparse_solve does (free variables 0),
    each a sparse row [(p·m + r, coefficient)].  Raises VerificationError
    if a preimage does not exist."""
    size = len(beta)
    beta_t = [{} for _ in range(len(unit) * n)]
    for src, row in enumerate(beta):
        for c, v in row.items():
            beta_t[c][src] = v
    kernel = sparse_kernel(f, (row.items() for row in beta_t), size)
    for k in range(n):          # 1⊗e_k in the columns size + k
        for y, u in enumerate(unit):
            if u:
                beta_t[y * n + k][size + k] = u
    parts = sparse_solve(f, (row.items() for row in beta_t), size, n)
    if parts is None:
        raise VerificationError("β-preimages of 1⊗h do not exist")
    return kernel, parts


def _galois_map(alg, table, first):
    """β: A⊗A → A⊗H from a coaction table, as dict rows {y·n + k:
    coefficient}: row p·m+r is the image of v_p⊗v_r, Σ a₀b⊗a₁ when the
    first factor coacts (first) and Σ ab₀⊗b₁ otherwise."""
    n = alg.host.dim
    ms, mul = range(alg.dim), alg.mul.row
    zero = alg.host.field.zero
    beta = []
    for p in ms:
        for r in ms:
            row = {}
            for q, k, c in table[p if first else r]:
                for y, cm in (mul(q, r) if first else mul(p, q)):
                    key = y * n + k
                    row[key] = row.get(key, zero) + c * cm
            beta.append(row)
    return beta


def _beta_quotient_bijective(f, beta, target, parts, rep, tag):
    """β̄ on A⊗_{A₀}A is bijective iff β is onto and ker β = relations; β
    is dict rows into k^target, as _galois_map gives them, and parts are
    the relations' parts, as _relation_parts gives them.

    β(relation) is β((v_p·x)⊗v_r) − β(v_p⊗(x·v_r)), summed lifted from β's
    lifted rows and the two parts, with no relation row built; the witness
    counts the nonzero relations in _relations' order.  The relation rows
    are made only as the rank reads them."""
    rk = sparse_rank(f, beta)
    onto = rk == target
    rep.add(tag + "_surjective", onto, None,
            "rank %d of %d" % (rk, target))
    nonzero = f.nonzero
    m = len(parts[0][0]) if parts else 0
    # β's rows on one scale and the parts on another: each relation's
    # image is then at their product, and only its zero-ness is read
    vs, _ = f.lift([v for row in beta for v in row.values()])
    vs = iter(vs)
    lbeta = [[(c, next(vs)) for c in row] for row in beta]
    vs, _ = f.lift([v for part in parts for side in part for d in side
                    for v in d.values()])
    vs = iter(vs)
    lparts = [[[[(t, next(vs)) for t in d] for d in side]
               for side in part] for part in parts]

    def first_outside():
        """(i,) for the first relation i that β does not send to 0, or
        None."""
        for i, (x, p, r) in enumerate(_nonzero_relations(parts)):
            acc, pm = {}, p * m
            for t, w in lparts[x][0][p]:
                for c, v in lbeta[t * m + r]:
                    acc[c] = acc.get(c, 0) + w * v
            for t, w in lparts[x][1][r]:
                for c, v in lbeta[pm + t]:
                    acc[c] = acc.get(c, 0) + w * v
            if any(map(nonzero, acc.values())):
                return (i,)
        return None

    bad = first_outside()
    rep.add(tag + "_relations_in_kernel", bad is None, bad)
    ker_dim = len(beta) - rk
    # relations inside ker β have rank ≤ dim ker β, so the elimination may
    # stop there; relations outside it are ranked in full for the detail
    rel_rank = sparse_rank(f, _relations(parts),
                           ker_dim if bad is None else None)
    rep.add(tag + "_kernel_is_relations", rel_rank == ker_dim, None,
            "relation rank %d vs kernel dim %d" % (rel_rank, ker_dim))
    return onto and bad is None and rel_rank == ker_dim


def galois_maps(bh, b, alg):
    """Right/left 𝓗_R^*-Galois decisions for A, plus the bigalois verdict:
    β_r(a⊗b) = Σ_i (e_i−▷a)b ⊗ e_i and β_l(a⊗b) = Σ_i a(b◁−e_i) ⊗ e_i.

    Precondition: A is a YD algebra (``verify_yd_algebra``), bh is a braided
    Hopf algebra (``verify_braided_hopf``) and b = ``bimodule_actions(bh,
    A.module)`` is an 𝓗_R-bimodule (``verify_bimodule``).  The decisions
    mean nothing otherwise; this function does not check the precondition,
    and ``hopflab galois`` checks it before calling it.
    """
    rep = CheckReport()
    sub_r = coinvariants(bh, b, "right")
    sub_l = coinvariants(bh, b, "left")
    rep.add("coinvariants_computed", True, None,
            "dim right %d, left %d" % (sub_r.dim, sub_l.dim))
    f, target = bh.host.field, alg.dim * bh.host.dim
    right_ok = _beta_quotient_bijective(
        f, _galois_map(alg, _coaction_table(b.left), True), target,
        _relation_parts(alg, sub_r.rows), rep, "beta_r")
    left_ok = _beta_quotient_bijective(
        f, _galois_map(alg, _coaction_table(b.right), False), target,
        _relation_parts(alg, sub_l.rows), rep, "beta_l")

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
    return _coinvariant_space(alg.host.field, [
        alg.module.coact.terms(p) for p in range(alg.dim)], alg.host.unit)


def _comodule_galois(alg):
    """comodule_galois's report with A₀ and β (β(a⊗b) = Σ ab₀ ⊗ b₁)."""
    rep = CheckReport()
    sub0 = comodule_coinvariants(alg)
    rep.add("coinvariants_computed", True, None, "dim %d" % sub0.dim)
    beta = _galois_map(alg, [alg.module.coact.terms(p)
                             for p in range(alg.dim)], False)
    rep.add("galois", _beta_quotient_bijective(
        alg.host.field, beta, alg.dim * alg.host.dim,
        _relation_parts(alg, sub0.rows), rep, "beta"))
    return rep, sub0, beta


def comodule_galois(alg):
    """H^op-comodule-algebra Galois decision (the action is ignored)."""
    return _comodule_galois(alg)[0]


def mu_action_and_pi(alg, galois=None):
    """π(A) = C_A(A₀) with the Miyashita-Ulbrich action; requires A/A₀ to
    be Galois.  Returns (π(A) as a YdAlgebra, report).  The report holds
    A's YD-algebra checks (prefix A_; reported, not required), the Galois
    and centralizer checks, π(A)'s YD-algebra checks (prefix pi_) and π(A)'s
    quantum commutativity.  galois is A's _comodule_galois (report, A₀, β)
    for a caller that holds it already; it is decided here when not given."""
    return _mu_action_and_pi(alg, verify_yd_algebra(alg), galois)


def _mu_action_and_pi(alg, alg_report, galois=None):
    """mu_action_and_pi(alg, galois) for a caller that holds alg_report, A's
    verify_yd_algebra report, already.

    The action of h on a ∈ π(A) is Σ x_{pr} v_p·a·v_r for a β-preimage x
    of 1⊗h; ker β acting by zero makes it well defined.  Both come from
    _kernel_and_preimages as sparse rows over p·m + r, are lifted once, and
    act through a per-a table of the v_p·a·v_r."""
    rep = CheckReport().merge(alg_report, prefix="A_")
    mod = alg.module
    h = alg.host
    f = h.field
    n = h.dim
    m = alg.dim

    gal, sub0, beta_rows = galois or _comodule_galois(alg)
    rep.merge(gal, prefix="galois_")
    if not gal.ok:
        raise VerificationError("mu_action_and_pi requires a Galois input")

    ms, mrow = range(m), alg.mul.row

    def times(p, left):
        # v_p·x (left) or x·v_p as the terms (t, j, c) of Σ_j (·)⊗δ_j
        return [(t, j, c * w) for j, x in enumerate(sub0.rows) for k, c in x
                for t, w in (mrow(p, k) if left else mrow(k, p))]

    # π(A) = C_A(A₀): the a with a·x = x·a for every basis vector x of A₀
    pi_sub = _equalizer(f, sub0.dim, [times(p, True) for p in ms],
                        [times(p, False) for p in ms])
    rep.add("centralizer_computed", True, None, "dim %d" % pi_sub.dim)

    kernel, parts = _kernel_and_preimages(f, beta_rows, n, alg.unit)

    pd = pi_sub.dim
    # The action sums lifted values (fields.Field.lift) over sparse rows:
    # the kernel vectors and the β-preimages as [(p·m+r, c)], and
    # v_p·a·v_r as [(t, c)], reduced once per acted vector.
    lmul, sm = alg.mul.lifted_rows()

    def lifted_rows(vecs):
        """(rows, scale): the sparse rows vecs lifted over one scale."""
        cs, scale = f.lift([x for vec in vecs for _, x in vec])
        cs = iter(cs)
        return [[(src, next(cs)) for src, _ in vec] for vec in vecs], scale

    (kernel, sk), (parts, sp) = lifted_rows(kernel), lifted_rows(parts)

    def by_basis(vec, right):
        """[r] is vec·v_r (right) or v_r·vec, as a sparse lifted row, for
        vec a sparse lifted row [(t, c)]."""
        out = []
        for r in ms:
            acc = [0] * m
            for t, c in vec:
                for k, w in (lmul[t][r] if right else lmul[r][t]):
                    acc[k] += c * w
            out.append([(k, w) for k, w in enumerate(acc) if w])
        return out

    def triple_table(a):
        """T[p][r] = v_p · a · v_r as sparse lifted rows, a a sparse lifted
        row."""
        return [by_basis(va, True) for va in by_basis(a, False)]

    pi_rows, s_pi = lifted_rows(pi_sub.rows)
    tables = [triple_table(a) for a in pi_rows]
    s_tables = s_pi * sm * sm

    def act_by(coeffs, a_idx, scale):
        """Σ coeffs[p·m+r] v_p·a·v_r for the a_idx-th basis vector a, with
        coeffs a sparse lifted row at scale."""
        acc = [0] * m
        tab = tables[a_idx]
        for src, v in coeffs:
            p, r = divmod(src, m)
            for t, w in tab[p][r]:
                acc[t] += v * w
        return f.reduce_vec(acc, scale * s_tables)

    zero = [f.zero] * m
    bad = first_mismatch((range(len(kernel)), range(pd)), lambda j, a_idx: (
        act_by(kernel[j], a_idx, sk), zero))
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

    acts = closed_under("mu_action_lands_in_pi", (range(n), range(pd)),
                        lambda k, a_idx: act_by(parts[k], a_idx, sp),
                        "MU action leaves the centralizer")
    action = Tensor(f, (n, pd, pd), [x for c in acts.values() for x in c])

    def coaction_part(a_idx, k):
        """The v⊗e_k component of ρ(a) as a vector v."""
        vec = [f.zero] * m
        for p, x in pi_sub.rows[a_idx]:
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
                         lambda a, b: _times(alg.mul, pi_sub.rows[a],
                                             pi_sub.rows[b]),
                         "π(A) is not a subalgebra")
    mult = Tensor(f, (pd, pd, pd), [x for c in prods.values() for x in c])

    unit_coords = pi_sub.coordinates(alg.unit)
    if unit_coords is None:
        raise VerificationError("unit is not in π(A)")

    pi_alg = YdAlgebra(YdModule(h, pd, action, coaction), mult, unit_coords)
    rep.merge(verify_yd_algebra(pi_alg), prefix="pi_")
    rep.add("pi_quantum_commutative", quantum_commutative(pi_alg))
    return pi_alg, rep
