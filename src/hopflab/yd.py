"""Yetter-Drinfeld modules and module algebras: the braiding, the
deformation functors σ̲ and θ̲ with their monoidal structures, braided
products, H-opposites, endomorphism algebras, quantum commutativity and
Azumaya certificates.

Tensor conventions (m = module dimension, n = host dimension):
    action[i,p,q]   = coefficient of v_q in e_i·v_p
    coaction[p,q,k] = coefficient of v_q⊗e_k in ρ(v_p)
The tensor product M⊗N carries h·(m⊗n) = Σ h₁·m ⊗ h₂·n and
ρ(m⊗n) = Σ (m₀⊗n₀) ⊗ n₁m₁; basis index of v_p⊗w_q is p·dim(N)+q.
mod.act, mod.coact and alg.mul are the linalg.Bilinear tables of the
action, coaction and product tensors (Tensor.bilinear), shared by every
structure built on the same tensor, and words in H, such as e_c e_k S⁻¹(e_a),
are h.product's sparse rows (hopf.py); verify_yd's S⁻¹ form reads them
from one h.word_table() per call.  σ and σ⁻¹ are read from the lifted
tables kept on the cocycle (_SigmaTables).  The hot loops here sum lifted
values (fields.Field.lift) from Bilinear's lifted tables, and a
construction reduces what it builds once (Field.reduce_vec,
linalg.Matrix.from_sums, reduced_rows).
The linear maps on M⊗N share one term kernel: a producer gives, for each
basis pair v_p⊗w_q, the terms [(a, b, c)] of its image Σ c·x_a⊗y_b, for
the braiding Φ (_braid_terms), for η and ξ (a functional σ^{∓1} paired
through both coactions, _paired_terms), for the diagonal action of M⊗N
(an element Δ(e_i) of H⊗H acting, _acting_terms).  A consumer turns the
terms into a row-as-image matrix (_matrix) or pushes a product through
them: Ā and σ̲(A) have the products μ∘Φ and μ∘η (_pushed_product), and A#B
reads Φ_{B,A}'s terms.
σ̲(M)'s twisted action is computed in both displayed forms, and
report.require_agree raises at the first index where they differ
(agreed_tensor for a 3-tensor).
θ̲ is σ̲ on the dual.  M* (dual_module) is M over H* = hopf.dual_hopf(H)
with its tensors swapped and their legs permuted (linalg.Tensor.permuted):
M's coaction is its H*-action and M's action its H*-coaction.
θ̲(M) = (σ̲_θ(M*))* for the 2-cocycle σ_θ on H* that θ is
(twist.DualCocycle.sigma), so θ̲'s coaction is checked in σ̲'s two forms,
and verify_theta_braided is σ_θ's braided square on N*, M*.  θ̲'s monoidal
structure φ and θ̲(A) = (A, μ∘φ) are built only by the tests, as references
(tests/test_yd.py): A* with A's product is no YD algebra over H*, so θ̲(A)
is not (σ̲_θ(A*))*.
σ̲ and θ̲ are fixed by their cocycle: the target hosts H^σ and H_θ come from
twist.deform/deform_dual, which memoize them per cocycle object.  The
monoidal structure eta returns matrices only.  σ̲M keeps M's coaction
tensor, so σ̲M reads M's coaction tables under every cocycle.  The
braided square has one kernel, braided_squares: for a list of cocycles
and a list of modules it builds Φ_{M,N} and M⊗N once per pair for all
the cocycles, and under each cocycle each σ̲ image, σ̲M⊗σ̲N, η and
σ̲(M⊗N) once, and checks every requested ordered pair;
verify_braided_functor and verify_theta_braided are its calls on one
cocycle and one pair.
Linear maps are stored row-as-image; mat_mul(A, B) is "apply A, then B".
The constructions here (σ̲, θ̲, braided products, H-opposites, End(M)) do
not check the YD axioms of what they return; verify_yd and
verify_yd_algebra do, when a caller asks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import complements, scaled
from .hopf import (dual_hopf, first_action_mismatch, first_coaction_mismatch,
                   first_unit_mismatch)
from .linalg import (Matrix, Tensor, _reduce, are_inverse, check_shape,
                     linear_combination, mat_mul, rank, sparse_kernel,
                     sparse_rank, sparse_sum)
from .report import (CheckReport, VerificationError, first_block_mismatch,
                     first_lifted_mismatch, first_mismatch, require_agree)
from .twist import deform, deform_dual


class YdModule:
    def __init__(self, host, dim, action, coaction):
        check_shape("action", action.shape, (host.dim, dim, dim))
        check_shape("coaction", coaction.shape, (dim, dim, host.dim))
        self.host = host
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self.act = action.bilinear()
        self.coact = coaction.bilinear()
        self._coact2 = None

    def act_vec(self, hvec, mvec):
        """(Σ hvec_i e_i)·(Σ mvec_p v_p)."""
        return self.act.apply(hvec, mvec)

    def act_basis_vec(self, i, mvec):
        return self.act.apply_basis(i, mvec)

    def coact2(self, p):
        """Sparse (ρ⊗id)ρ(v_p) as [(q, k1, k2, lifted coeff)] (m₀⊗m₁⊗m₂),
        at the square of the scale of coact's lifted terms."""
        if self._coact2 is None:
            terms = self.coact.lifted_terms()[0]
            self._coact2 = [[(q1, k1, k2, c0 * c1) for q0, k2, c0 in terms[p2]
                             for q1, k1, c1 in terms[q0]]
                            for p2 in range(self.dim)]
        return self._coact2[p]

    def basis_vec(self, p):
        v = [self.host.field.zero] * self.dim
        v[p] = self.host.field.one
        return v

    def structures_equal(self, other):
        return (self.dim == other.dim and self.action == other.action
                and self.coaction == other.coaction
                and self.host.structures_equal(other.host))

    def __repr__(self):
        return "YdModule(dim=%d over %s)" % (self.dim, self.host.name)


class YdAlgebra:
    def __init__(self, module, mult, unit):
        m = module.dim
        check_shape("mult", mult.shape, (m, m, m))
        check_shape("unit", (len(unit),), (m,))
        self.module = module
        self.mult = mult
        self.unit = list(unit)
        self.mul = mult.bilinear()

    @property
    def host(self):
        return self.module.host

    @property
    def dim(self):
        return self.module.dim

    def mul_vec(self, u, v):
        return self.mul.apply(u, v)

    def structures_equal(self, other):
        return (self.module.structures_equal(other.module)
                and self.mult == other.mult and self.unit == other.unit)

    def __repr__(self):
        return "YdAlgebra(dim=%d over %s)" % (self.dim, self.host.name)


@dataclass
class YdMap:
    source: YdModule
    target: YdModule
    matrix: Matrix  # row-as-image


def verify_yd(mod):
    """Module and comodule axioms plus the crossed compatibility; the
    equivalent S⁻¹-form is recomputed independently as a cross-check.
    Both compatibility forms sum lifted values, keyed q·n + k for v_q⊗e_k,
    and compare them reduced (report.first_lifted_mismatch)."""
    h = mod.host
    f = h.field
    n = h.dim
    m = mod.dim
    zero = f.zero
    act, coact, e = mod.act, mod.coact, mod.basis_vec
    hs, ms = range(n), range(m)
    rep = CheckReport()

    bad = first_unit_mismatch(h.unit, act)
    if bad is None:
        bad = first_action_mismatch(h.mul, act)
    rep.add("module_axioms", bad is None, bad)

    def counit(p):
        acc = [zero] * m
        for q, k, c in coact.terms(p):
            if h.counit[k]:
                acc[q] = acc[q] + c * h.counit[k]
        return acc, e(p)

    bad = first_mismatch((ms,), counit)
    if bad is None:
        bad = first_coaction_mismatch(h.delta, coact)
    rep.add("comodule_axioms", bad is None, bad)

    (delta, _), (hmul, _) = h.delta.lifted_terms(), h.mul.lifted_rows()
    (arows, sa), (cterms, sc) = act.lifted_rows(), coact.lifted_terms()

    # both sides of the first form are at one scale
    def compatibility(i, p):
        lhs = {}
        for a, b, ca in delta[i]:
            for q0, k, c0 in cterms[p]:
                for q, x in arows[a][q0]:
                    w, base = ca * c0 * x, q * n
                    for k2, cm in hmul[b][k]:
                        key = base + k2
                        lhs[key] = lhs.get(key, 0) + w * cm
        rhs = {}
        for a, b, ca in delta[i]:
            for q0, x in arows[b][p]:
                w = ca * x
                for q, k, c0 in cterms[q0]:
                    w0, base = w * c0, q * n
                    for k2, cm in hmul[k][a]:
                        key = base + k2
                        rhs[key] = rhs.get(key, 0) + w0 * cm
        return lhs, rhs

    bad = first_lifted_mismatch(f, (hs, ms), compatibility, (n,))
    rep.add("yd_compatibility", bad is None, bad,
            "Σh1·m0⊗h2m1 = Σ(h2·m)0⊗(h2·m)1h1")

    word, sw = h.word_table()
    copower, s3 = h.lifted_copower(3)
    # the left side is at scale sa·sc, the right one at s3·sc·sa·sw
    kl, kr = complements(sa * sc, s3 * sc * sa * sw)
    lrows, copower = scaled(arows, kl), scaled(copower, kr)

    def compatibility_sinv(i, p):
        lhs = {}
        for q0, x in lrows[i][p]:
            for q, k, c0 in cterms[q0]:
                key = q * n + k
                lhs[key] = lhs.get(key, 0) + x * c0
        rhs = {}
        for (a, b, c3), w in copower[i]:
            for q0, k, c0 in cterms[p]:
                wk, w0 = word(c3, k, a), w * c0
                for q, x in arows[b][q0]:
                    w2, base = w0 * x, q * n
                    for k2, cv in wk:
                        key = base + k2
                        rhs[key] = rhs.get(key, 0) + w2 * cv
        return lhs, rhs

    bad = first_lifted_mismatch(f, (hs, ms), compatibility_sinv, (n,))
    rep.add("yd_compatibility_sinv_form", bad is None, bad,
            "ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)")
    return rep


def verify_yd_algebra(alg):
    """YD module checks plus associative unital algebra, left H-module
    algebra, and right H^op-comodule algebra axioms.  Products and actions
    of basis vectors are read from the lifted rows of alg.mul and mod.act,
    and the module- and comodule-algebra sides are summed lifted and
    compared reduced (report.first_block_mismatch, first_lifted_mismatch)."""
    rep = verify_yd(alg.module)
    h = alg.host
    f = h.field
    n = h.dim
    m = alg.dim
    zero = f.zero
    mod = alg.module
    hs, ms = range(n), range(m)

    bad = first_unit_mismatch(alg.unit, alg.mul, two_sided=True)
    if bad is None:
        bad = first_action_mismatch(alg.mul, alg.mul)
    rep.add("algebra_axioms", bad is None, bad)

    (delta, sd), (hmul, sm) = h.delta.lifted_terms(), h.mul.lifted_rows()
    (mul, sA), (act, sa) = alg.mul.lifted_rows(), mod.act.lifted_rows()
    coact, sc = mod.coact.lifted_terms()
    # module_algebra's sides are at scales sA·sa and sd·sa²·sA
    kl, kr = complements(sA * sa, sd * sa * sa * sA)
    lmul, rdelta = scaled(mul, kl), scaled(delta, kr)

    def module_algebra(i, p):
        # h·(v_p v_q) − Σ(h₁·v_p)(h₂·v_q) for h = e_i, one row per q
        hp = [(b, s, ca * x) for a, b, ca in rdelta[i] for s, x in act[a][p]]
        diff = {}
        for q in ms:
            base = q * m
            for t, c in lmul[p][q]:
                for k, w in act[i][t]:
                    key = base + k
                    diff[key] = diff.get(key, 0) + c * w
            for b, s, w in hp:
                for t, y in act[b][q]:
                    wy = w * y
                    for k, c in mul[s][t]:
                        key = base + k
                        diff[key] = diff.get(key, 0) - wy * c
        return diff

    bad = first_block_mismatch(f, (hs, ms), module_algebra, m)
    if bad is None:
        bad = first_mismatch((hs,), lambda i: (
            mod.act_basis_vec(i, alg.unit),
            [h.counit[i] * x for x in alg.unit]))
    rep.add("module_algebra", bad is None, bad,
            "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")

    # comodule_algebra's sides are at scales sA·sc and sc²·sm·sA
    kl, kr = complements(sA * sc, sc * sc * sm * sA)
    cmul, hmul = scaled(mul, kl), scaled(hmul, kr)

    def comodule_algebra(p, q):
        lhs = {}
        for k2, c in cmul[p][q]:
            for q2, k, c2 in coact[k2]:
                key = q2 * n + k
                lhs[key] = lhs.get(key, 0) + c * c2
        rhs = {}
        for p0, k1, c1 in coact[p]:
            for q0, k2, c2 in coact[q]:
                w, prod = c1 * c2, mul[p0][q0]
                for k3, cm in hmul[k2][k1]:
                    wm = w * cm
                    for t, ct in prod:
                        key = t * n + k3
                        rhs[key] = rhs.get(key, 0) + wm * ct
        return lhs, rhs

    def unit_coaction():
        lhs = [[zero] * n for _ in ms]
        rhs = [[zero] * n for _ in ms]
        for p, x in enumerate(alg.unit):
            if x:
                for q, k, c in mod.coact.terms(p):
                    lhs[q][k] = lhs[q][k] + x * c
                for k, u in enumerate(h.unit):
                    rhs[p][k] = rhs[p][k] + x * u
        return lhs, rhs

    bad = first_lifted_mismatch(f, (ms, ms), comodule_algebra, (n,))
    if bad is None:
        bad = first_mismatch((), unit_coaction)
    rep.add("comodule_algebra", bad is None, bad,
            "ρ(ab) = Σa0b0⊗b1a1, ρ(1) = 1⊗1")
    return rep


# -- the term kernel for linear maps on M⊗N -----------------------------------
# A producer returns (terms, scale): for each basis pair v_p⊗w_q (index
# p·dim(N)+q), the terms [(a, b, c)] of its image Σ c·x_a⊗y_b, c lifted
# (fields.Field.lift) at scale and summed from the lifted tables of the
# modules; a consumer sums the terms and reduces what it builds once.

def _braid_terms(ma, mb):
    """Φ(m⊗n) = Σ n₀ ⊗ n₁·m: M⊗N → N⊗M."""
    (co_b, sb), (act_a, sa) = mb.coact.lifted_terms(), ma.act.lifted_rows()
    return [[(q0, p1, c * x) for q0, k, c in co_b[q]
             for p1, x in act_a[k][p]]
            for p in range(ma.dim) for q in range(mb.dim)], sb * sa


def _paired_terms(ma, mb, f):
    """m⊗n ↦ Σ m₀⊗n₀ f(n₁⊗m₁) for a functional f on H⊗H given as its
    lifted rows with their scale, f[0][k2][k1] = f(e_k2⊗e_k1) lifted."""
    (co_a, sa), (co_b, sb) = ma.coact.lifted_terms(), mb.coact.lifted_terms()
    f, sf = f
    out = []
    for ta in co_a:
        for tb in co_b:
            ts = []
            for p0, k1, c1 in ta:
                for q0, k2, c2 in tb:
                    v = f[k2][k1]
                    if v:
                        ts.append((p0, q0, c1 * c2 * v))
            out.append(ts)
    return out, sa * sb * sf


def _acting_terms(ma, mb, x):
    """m⊗n ↦ X·(m⊗n) = Σ c·(e_a·m)⊗(e_b·n) for X = Σ c·e_a⊗e_b ∈ H⊗H given
    as [(a, b, c)] with field coefficients."""
    cs, sx = ma.host.field.lift([c for _, _, c in x])
    (act_a, sa), (act_b, sb) = ma.act.lifted_rows(), mb.act.lifted_rows()
    return [[(p1, q1, c * y * z) for (a, b, _), c in zip(x, cs)
             for p1, y in act_a[a][p] for q1, z in act_b[b][q]]
            for p in range(ma.dim) for q in range(mb.dim)], sx * sa * sb


def _matrix(field, terms, da, db):
    """The row-as-image matrix of a producer's (terms, scale), into a
    target of dimension da·db."""
    terms, scale = terms
    width = da * db
    sums = []
    for ts in terms:
        row = [0] * width
        for a, b, c in ts:
            row[a * db + b] += c
        sums += row
    return Matrix.from_sums(field, len(terms), width, sums, scale)


def _pushed_product(alg, terms):
    """The product table of a•b = μ(J(a⊗b)), for J given by its (terms,
    scale) on A⊗A."""
    f = alg.host.field
    m = alg.dim
    (terms, st), (mul, sm) = terms, alg.mul.lifted_rows()
    data = []
    for ts in terms:
        acc = [0] * m
        for a, b, c in ts:
            for k, w in mul[a][b]:
                acc[k] += c * w
        data += acc
    return Tensor(f, (m, m, m), f.reduce_vec(data, st * sm))


def _kron(fa, fb):
    """The matrix of fa⊗fb: v_p⊗w_q ↦ fa(v_p)⊗fb(w_q), for row-as-image
    matrices fa and fb."""
    (ra, sa), (rb, sb) = fa.lifted_nonzeros(), fb.lifted_nonzeros()
    return _matrix(fa.field, ([[(a, b, x * y) for a, x in ta for b, y in tb]
                               for ta in ra for tb in rb], sa * sb),
                   fa.cols, fb.cols)


# -- tensor products and the braiding ---------------------------------------

def yd_tensor(ma, mb):
    """M⊗N with the diagonal action and reversed-product coaction."""
    h = ma.host
    f = h.field
    n = h.dim
    db = mb.dim
    dim = ma.dim * db
    zeros = [f.zero] * n
    (mul, sm), (co_a, sa) = h.mul.lifted_rows(), ma.coact.lifted_terms()
    co_b, sb = mb.coact.lifted_terms()
    scale = sa * sb * sm

    def reversed_product(src):
        # ρ(v_p⊗w_q) = Σ v_p0⊗w_q0 ⊗ k2·k1, one row per p0⊗q0; rows never
        # written share the zero row
        p, q = divmod(src, db)
        sums = {}
        for p0, k1, c1 in co_a[p]:
            for q0, k2, c2 in co_b[q]:
                w = c1 * c2
                t = p0 * db + q0
                row = sums.get(t)
                if row is None:
                    row = sums[t] = [0] * n
                for k, cm in mul[k2][k1]:
                    row[k] += w * cm
        rows = [zeros] * dim
        for t, row in sums.items():
            rows[t] = f.reduce_vec(row, scale)
        return rows

    # e_i·(v_p⊗w_q) = Δ(e_i)·(v_p⊗w_q), one row per v_p⊗w_q
    action = Tensor.from_rows(f, (n, dim, dim), [
        _matrix(f, _acting_terms(ma, mb, h.delta.terms(i)), ma.dim, db).data
        for i in range(n)])
    coaction = Tensor.from_rows(f, (dim, dim, n),
                                [reversed_product(src) for src in range(dim)])
    return YdModule(h, dim, action, coaction)


def is_yd_map(f_map):
    """Does the matrix commute with both the action and the coaction?

    Both sides are summed from the map's sparse rows and the lifted tables
    of the actions and coactions (fields.Field.lift), and compared reduced
    (report.first_block_mismatch, first_lifted_mismatch).
    """
    rep = CheckReport()
    src, dst = f_map.source, f_map.target
    h = src.host
    if not h.structures_equal(dst.host):
        raise VerificationError("yd map between different hosts")
    f, n, dm = h.field, h.dim, dst.dim
    mrows = f_map.matrix.lifted_nonzeros()[0]
    (src_act, sa), (dst_act, da) = src.act.lifted_rows(), dst.act.lifted_rows()
    (src_co, sc), (dst_co, dc) = (src.coact.lifted_terms(),
                                  dst.coact.lifted_terms())
    # both sides of each check are at the map's scale times that of the
    # source's or of the target's tables
    ks, kd = complements(sa, da)
    src_act, dst_act = scaled(src_act, ks), scaled(dst_act, kd)
    ks, kd = complements(sc, dc)
    src_co, dst_co = scaled(src_co, ks), scaled(dst_co, kd)

    def linear(i):
        # f(e_i·v_p) − e_i·f(v_p), one row per p, keyed p·dim(N)+t
        diff = {}
        for p, (acted, image) in enumerate(zip(src_act[i], mrows)):
            base = p * dm
            for q, x in acted:
                for t, y in mrows[q]:
                    k = base + t
                    diff[k] = diff.get(k, 0) + x * y
            for q, y in image:
                for t, w in dst_act[i][q]:
                    k = base + t
                    diff[k] = diff.get(k, 0) - y * w
        return diff

    def colinear(p):
        # (f⊗id)ρ(v_p) and ρ(f(v_p)), keyed t·n+k for w_t⊗e_k
        lhs = {}
        for q, k, c in src_co[p]:
            for t, y in mrows[q]:
                key = t * n + k
                lhs[key] = lhs.get(key, 0) + c * y
        rhs = {}
        for t, y in mrows[p]:
            for q, k, c in dst_co[t]:
                key = q * n + k
                rhs[key] = rhs.get(key, 0) + y * c
        return lhs, rhs

    bad = first_block_mismatch(f, (range(n),), linear, dm)
    rep.add("h_linear", bad is None, bad)
    bad = first_lifted_mismatch(f, (range(src.dim),), colinear, (n,))
    rep.add("h_colinear", bad is None, bad)
    return rep


# -- the σ̲ functor -----------------------------------------------------------

def reduced_rows(field, shape, form, scale):
    """The rows form(i, j) of lifted sums at scale, for each (i, j) of
    shape's first two legs, reduced in one call: a function (i, j) ↦ the
    reduced row, to give agreed_tensor."""
    n0, n1, n2 = shape
    flat = field.reduce_vec([x for i in range(n0) for j in range(n1)
                             for x in form(i, j)], scale)
    return lambda i, j: flat[(i * n1 + j) * n2:(i * n1 + j + 1) * n2]


def agreed_tensor(what, field, shape, form, other):
    """The 3-tensor t[i,j,:] = form(i, j) of a construction with two
    displayed forms; other(i, j) must give the same rows (require_agree,
    witness (i, j, k))."""
    n0, n1, n2 = shape
    one = [[form(i, j) for j in range(n1)] for i in range(n0)]
    two = [[other(i, j) for j in range(n1)] for i in range(n0)]
    if one != two:  # only then walk the entries for the witness
        require_agree(what, (range(n0), range(n1), range(n2)),
                      lambda i, j, k: (one[i][j][k], two[i][j][k]))
    return Tensor.from_rows(field, shape, one)


class _SigmaTables:
    """What σ̲ reads of the cocycle alone, lifted (fields.Field.lift): σ and
    σ⁻¹ as dense lifted rows with their scales (sig, inv), the live terms
    of Δ²(e_i) and Δ⁴(e_i) (live, at live_scale[k]), and the second
    displayed form's pairing σ(h₄m₁S⁻¹(h₂) ⊗ h₁), as unreduced lifted sums
    pairings[h₁, h₂, h₄][m₁] (filled by pair) at pair_scale.  Built once
    per TwoCocycle, by _tables; the live terms and the pairings are filled
    as they are first read, since an eager pairing table would have n⁴
    entries."""

    def __init__(self, s):
        h = self.host = s.host
        self.sig, self.inv = s.sigma.lifted_rows(), s.sigma_inv.lifted_rows()
        sig, inv = self.sig[0], self.inv[0]
        # A term of Δ^(k-1)(e_i) adds zero to both forms unless σ(·⊗h₁) and
        # σ⁻¹(h_k⊗·) are nonzero functionals; both forms walk only the
        # others.
        self.first = [any(row[a] for row in sig) for a in range(h.dim)]
        self.last = [any(row) for row in inv]
        self.live_scale = {k: h.lifted_copower(k)[1] for k in (3, 5)}
        self.pair_scale = (h.mul.lifted_rows()[1] ** 2 * self.sig[1]
                           * h.antipodes.lifted_rows()[1])
        self._live = {}
        self.pairings = {}

    def live(self, i, k):
        """The terms (index tuple, lifted coefficient) of Δ^(k-1)(e_i) whose
        first leg σ and last leg σ⁻¹ can pair to nonzero."""
        got = self._live.get((i, k))
        if got is None:
            first, last = self.first, self.last
            got = self._live[i, k] = [
                (idx, w) for idx, w in self.host.lifted_copower(k)[0][i]
                if first[idx[0]] and last[idx[-1]]]
        return got

    def pair(self, a, b, d):
        """pairings[a, b, d], the list over k1 of σ(e_d e_k1 S⁻¹(e_b) ⊗ e_a)
        as unreduced lifted sums, and returned: each product is summed from
        h.mul's lifted rows and S⁻¹, independently of the first form."""
        h, sig = self.host, self.sig[0]
        mul, sinv = h.mul.lifted_rows()[0], h.antipodes.lifted_rows()[0][1]
        sums = []
        for dk in mul[d]:
            acc = 0
            for t, c in dk:
                for j, y in sinv[b]:
                    for k, cm in mul[t][j]:
                        acc += c * y * cm * sig[k][a]
            sums.append(acc)
        self.pairings[a, b, d] = sums
        return sums


def _tables(s):
    """The cocycle's _SigmaTables, built on first use and kept on it."""
    if s._sigma_tables is None:
        s._sigma_tables = _SigmaTables(s)
    return s._sigma_tables


def sigma_module(s, mod):
    """σ̲(M): the twisted action, on M's own coaction tensor.

    Both displayed forms of the twisted action are computed; they must
    agree.  Each form sums lifted values and reduces all its rows in one
    call (reduced_rows).
    What depends on the cocycle alone (σ and σ⁻¹ lifted, the live terms of
    Δ² and Δ⁴, the second form's pairing) is built once per cocycle object
    and kept on it (_SigmaTables), so later calls on other modules, and
    σ̲(M⊗N) after σ̲M and σ̲N, reuse it.  σ̲M's coaction is M.coaction, the
    same Tensor object, so σ̲M reads the coaction tables M has built, and
    σ̲M under every cocycle shares them.
    """
    h = mod.host
    if not h.structures_equal(s.host):
        raise VerificationError("sigma_module: host mismatch")
    n = h.dim
    m = mod.dim
    f = h.field
    tabs = _tables(s)
    (sig, ss), (inv, si), live = tabs.sig, tabs.inv, tabs.live
    pair, pairings = tabs.pair, tabs.pairings
    (coact, sc), (act, sa) = mod.coact.lifted_terms(), mod.act.lifted_rows()
    # each form's sums are at the product of its factors' scales
    scale_one = tabs.live_scale[3] * sc * si * sa * sc * ss
    scale_two = tabs.live_scale[5] * si * sc * sc * tabs.pair_scale * sa

    def twisted(i, p):
        acc = [0] * m
        for (a, b, c3), w in live(i, 3):
            inv_c3, act_b = inv[c3], act[b]
            for q0, k0, c0 in coact[p]:
                s2 = inv_c3[k0]
                if not s2:
                    continue
                w0 = w * c0 * s2
                for q1, x in act_b[q0]:
                    w2 = w0 * x
                    for q2, k2, c2 in coact[q1]:
                        s1 = sig[k2][a]
                        if s1:
                            acc[q2] += w2 * c2 * s1
        return acc

    by_h5 = {}      # by p: per h₅, [(σ⁻¹(h₅⊗m₂), [(m₀, m₁, c)])] over m₂

    def grouped(p):
        """(ρ⊗id)ρ(v_p) grouped by m₂, and per h₅ only the groups with
        σ⁻¹(h₅⊗m₂) ≠ 0."""
        if p not in by_h5:
            groups = {}
            for q0, k1, k2, c0 in mod.coact2(p):
                groups.setdefault(k2, []).append((q0, k1, c0))
            by_h5[p] = [[(row[k2], g) for k2, g in groups.items() if row[k2]]
                        for row in inv]
        return by_h5[p]

    def twisted_expanded(i, p):
        # Σ (h3·m0) σ(h4 m1 S⁻¹(h2) ⊗ h1) σ⁻¹(h5⊗m2)
        acc = [0] * m
        per_h5 = grouped(p)
        for (a, b, c3, d, e), w in live(i, 5):
            act_c3 = act[c3]
            row = pairings.get((a, b, d)) or pair(a, b, d)
            for s2, group in per_h5[e]:
                ws = w * s2
                for q0, k1, c0 in group:
                    s1 = row[k1]
                    if s1:
                        w2 = ws * c0 * s1
                        for q, x in act_c3[q0]:
                            acc[q] += w2 * x
        return acc

    shape = (n, m, m)
    action = agreed_tensor("twisted-action", f, shape,
                           reduced_rows(f, shape, twisted, scale_one),
                           reduced_rows(f, shape, twisted_expanded, scale_two))
    return YdModule(deform(s), m, action, mod.coaction)


def eta(s, ma, mb):
    """The matrices (η, ξ) of η(m⊗n) = Σ m₀⊗n₀ σ⁻¹(n₁⊗m₁): σ̲M⊗σ̲N → σ̲(M⊗N)
    and its inverse ξ(m⊗n) = Σ m₀⊗n₀ σ(n₁⊗m₁)."""
    f = ma.host.field
    da, db = ma.dim, mb.dim
    tabs = _tables(s)
    mat = _matrix(f, _paired_terms(ma, mb, tabs.inv), da, db)
    mat_inv = _matrix(f, _paired_terms(ma, mb, tabs.sig), da, db)
    if not are_inverse(mat, mat_inv):
        raise VerificationError("η and ξ are not mutually inverse")
    return mat, mat_inv


def braided_squares(cocycles, mods, pairs):
    """The braided square of σ̲ (Thm 2.3),
        η_{N,M} ∘ Φ_{σ̲M,σ̲N} = σ̲(Φ_{M,N}) ∘ η_{M,N},
    under each σ in cocycles, on (M, N) = (mods[a], mods[b]) for each
    (a, b) in pairs: one list of reports per cocycle, in that order, each
    with one report per pair, in that order.

    Each report checks the square, η_{M,N} as a YD map σ̲M⊗σ̲N → σ̲(M⊗N)
    (the eta_ checks) and Φ_{σ̲M,σ̲N} as a YD map (the phi_sigma_ checks);
    eta raises unless η·ξ = id.  Φ_{M,N} and M⊗N do not depend on σ: each
    is built once per pair and read under every cocycle.  Under one
    cocycle the σ̲ images, the products σ̲M⊗σ̲N and the η are built once
    and shared: σ̲M⊗σ̲N is the source of (a, b)'s Φ and the target of
    (b, a)'s, and η_{M,N} is η_ab of (a, b) and η_ba of (b, a).  Every
    object is first built in the order that pair-by-pair checks, cocycle
    by cocycle, build it, so the first of them that raises is the same.
    Nothing built here is kept after the call.
    """
    shared = {}

    def once(memo, key, build, *args):
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]

    def braiding(ma, mb):
        return _matrix(ma.host.field, _braid_terms(ma, mb), mb.dim, ma.dim)

    def phi(a, b):
        return once(shared, ("phi", a, b), braiding, mods[a], mods[b])

    def tensor(a, b):
        return once(shared, ("tensor", a, b), yd_tensor, mods[a], mods[b])

    out = []
    for s in cocycles:
        memo = {}

        def sig(a):
            return once(memo, ("sigma", a), sigma_module, s, mods[a])

        def sig_tensor(a, b):
            return once(memo, ("tensor", a, b), yd_tensor, sig(a), sig(b))

        def eta_of(a, b):
            return once(memo, ("eta", a, b), eta, s, mods[a], mods[b])[0]

        reports = []
        for a, b in pairs:
            if not mods[a].host.structures_equal(mods[b].host):
                raise VerificationError("braiding: host mismatch")
            phi_ab = phi(a, b)
            phi_sigma = YdMap(sig_tensor(a, b), sig_tensor(b, a),
                              braiding(sig(a), sig(b)))
            eta_ab, eta_ba = eta_of(a, b), eta_of(b, a)
            rep = CheckReport()
            rep.add("braided_square", mat_mul(phi_sigma.matrix, eta_ba)
                    == mat_mul(eta_ab, phi_ab))
            target = sigma_module(s, tensor(a, b))
            rep.merge(is_yd_map(YdMap(phi_sigma.source, target, eta_ab)),
                      prefix="eta_")
            rep.merge(is_yd_map(phi_sigma), prefix="phi_sigma_")
            reports.append(rep)
        out.append(reports)
    return out


def verify_braided_functor(s, ma, mb):
    """braided_squares under the one cocycle s on the one pair (M, N)."""
    return braided_squares([s], [ma, mb], [(0, 1)])[0][0]


def sigma_algebra(s, alg):
    """σ̲(A) with product a•b = μ(η(a⊗b)) = Σ a₀b₀ σ⁻¹(b₁⊗a₁)."""
    mod = alg.module
    mult = _pushed_product(alg, _paired_terms(mod, mod, _tables(s).inv))
    return YdAlgebra(sigma_module(s, mod), mult, list(alg.unit))


def zeta_matrix(mu, mod):
    """The matrix of ζ(m) = Σ m₀ μ(m₁); raises unless it is invertible."""
    f = mod.host.field
    m = mod.dim
    mat = Matrix.zeros(f, m, m)
    for p in range(m):
        for q, k, c in mod.coact.terms(p):
            if mu.mu[k]:
                mat.data[p][q] = mat.data[p][q] + c * mu.mu[k]
    if rank(mat) != m:
        raise VerificationError("ζ is not invertible")
    return mat


def zeta_iso(mu, mod, cob):
    """ζ: M → σ̲(M) as a YdMap, for cob = coboundary_from(mu)."""
    return YdMap(mod, sigma_module(cob, mod), zeta_matrix(mu, mod))


def zeta_triangle(mu, ma, mb, cob):
    """ζ_{M⊗N} = η_{M,N} ∘ (ζ_M⊗ζ_N), matrix-exactly."""
    tens = _kron(zeta_matrix(mu, ma), zeta_matrix(mu, mb))
    zab = zeta_matrix(mu, yd_tensor(ma, mb))
    eta_ab, _ = eta(cob, ma, mb)
    return mat_mul(tens, eta_ab) == zab


# -- the θ̲ functor -----------------------------------------------------------

def dual_module(mod):
    """M*: M over H* = dual_hopf(H) with its two tensors swapped.  The
    H*-action is M's coaction and the H*-coaction is M's action:
        action*[k,p,q] = coaction[p,q,k],  coaction*[p,q,i] = action[i,p,q].
    The swap is an involution, and (M*)* lies on M's own host object."""
    return YdModule(dual_hopf(mod.host), mod.dim,
                    mod.coaction.permuted((2, 0, 1)),
                    mod.action.permuted((1, 2, 0)))


def theta_module(d, mod):
    """θ̲(M) = (σ̲_θ(M*))*: same action, coaction conjugated through θ.

    σ̲_θ computes its twisted action in both displayed forms, so θ̲'s
    coaction is checked in both too.
    """
    if not mod.host.structures_equal(d.host):
        raise VerificationError("theta_module: host mismatch")
    deform_dual(d)      # names H_θ, the dual of deform(σ_θ), before use
    return dual_module(sigma_module(d.sigma, dual_module(mod)))


def verify_theta_braided(d, ma, mb):
    """φ_{N,M} ∘ Φ_{θ̲M,θ̲N} = θ̲(Φ_{M,N}) ∘ φ_{M,N}, checked as the braided
    square of σ_θ on N*, M*.  The flip τ conjugates one square into the
    other: Φ_{N*,M*} = τΦ_{M,N}τ, φ_{M,N} = τη_{N*,M*}τ and
    (M⊗N)* = τ(N*⊗M*)τ."""
    return braided_squares([d.sigma], [dual_module(mb), dual_module(ma)],
                           [(0, 1)])[0][0]


# -- algebra constructions ----------------------------------------------------

def braided_product(alga, algb, cqt=None):
    """A#B with (a#b)(c#d) = Σ ac₀ # (c₁·b)d.

    With a CQT structure the braided product #_R is taken instead: both
    factors are first re-equipped with the R-induced action ▷₁.
    """
    if not alga.host.structures_equal(algb.host):
        raise VerificationError("braided_product: host mismatch")
    from .quasitriangular import yd_from_comodule
    moda, modb = alga.module, algb.module
    if cqt is not None:
        moda = yd_from_comodule(cqt, moda.coaction)
        modb = yd_from_comodule(cqt, modb.coaction)
    h = alga.host
    f = h.field
    da, db = moda.dim, modb.dim
    dim = da * db

    phi, sp = _braid_terms(modb, moda)     # Φ_{B,A}(b⊗c) = Σ c₀ ⊗ c₁·b
    (mul_a, sa), (mul_b, sb) = alga.mul.lifted_rows(), algb.mul.lifted_rows()
    scale = sp * sa * sb

    def product(src1, src2):
        # (a#b)(c#d) = Σ a·c₀ # (c₁·b)·d for a#b = v_p#w_q, c#d = v_r#w_s
        (p, q), (r, s2) = divmod(src1, db), divmod(src2, db)
        acc = [0] * dim
        for r0, q1, c in phi[q * da + r]:
            rb = mul_b[q1][s2]
            for p1, x in mul_a[p][r0]:
                w = c * x
                for q2, y in rb:
                    acc[p1 * db + q2] += w * y
        return f.reduce_vec(acc, scale)

    ds = range(dim)
    mult = Tensor.from_rows(f, (dim, dim, dim),
                            [[product(u, v) for v in ds] for u in ds])
    unit = [f.zero] * dim
    for p, x in enumerate(alga.unit):
        if not x:
            continue
        for q, y in enumerate(algb.unit):
            if y:
                unit[p * db + q] = x * y
    return YdAlgebra(yd_tensor(moda, modb), mult, unit)


def h_opposite(alg):
    """Ā: same YD module, multiplication ā∘b̄ = μ(Φ(a⊗b)) = Σ b₀ (b₁·a)."""
    mod = alg.module
    return YdAlgebra(mod, _pushed_product(alg, _braid_terms(mod, mod)),
                     list(alg.unit))


def end_algebra(mod):
    """End(M) with (h·f)(x) = Σ h₁·f(S(h₂)·x) and the dual coaction.

    Basis E_{pq} (v_p ↦ v_q) has index p·m+q; the product is composition
    (f·g)(x) = f(g(x)).
    """
    h = mod.host
    f = h.field
    n = h.dim
    m = mod.dim
    dim = m * m
    ms, ds = range(m), range(dim)
    one = f.one

    def compose(e1, e2):
        # (E_pq·E_rs)(v_x) = E_pq(δ_{xr} v_s) = δ_{xr} δ_{sp} v_q
        (p, q), (r, s2) = divmod(e1, m), divmod(e2, m)
        out = [f.zero] * dim
        if s2 == p:
            out[r * m + q] = one
        return out

    unit = [f.zero] * dim
    for p in ms:
        unit[p * m + p] = one

    s_rows, sinv = h.antipodes.rows(0), h.antipodes.rows(1)
    # s_act[b][r] = S(e_b)·v_r
    s_act = [[linear_combination(f, m, ((c, mod.act.row(t, r))
                                        for t, c in s_rows[b])) for r in ms]
             for b in range(n)]

    def conjugate(i, src):
        # (e_i·E_pq)(v_r) = Σ ca (e_a)·E_pq(S(e_b)·v_r)
        p, q = divmod(src, m)
        acc = [f.zero] * dim
        for a, b, ca in h.delta.terms(i):
            for r in ms:
                sv = s_act[b][r]
                if not sv[p]:
                    continue
                w = ca * sv[p]
                for q2, x in mod.act.row(a, q):
                    acc[r * m + q2] = acc[r * m + q2] + w * x
        return acc

    def dual_coaction(src):
        # Σ f₀(v_r)⊗f₁ = Σ coact[r,p,k]·coact[q,q',l] v_q'⊗S⁻¹(e_k)e_l
        p, q = divmod(src, m)
        rows = [[f.zero] * n for _ in ds]
        for r in ms:
            for p2, k, c1 in mod.coact.terms(r):
                if p2 != p:
                    continue
                for q2, l, c2 in mod.coact.terms(q):
                    w = c1 * c2
                    row = rows[r * m + q2]
                    for k2, cv in h.product(sinv[k], [(l, one)]):
                        row[k2] = row[k2] + w * cv
        return rows

    mult = Tensor.from_rows(f, (dim, dim, dim),
                            [[compose(u, v) for v in ds] for u in ds])
    action = Tensor.from_rows(f, (n, dim, dim),
                              [[conjugate(i, src) for src in ds]
                               for i in range(n)])
    coaction = Tensor.from_rows(f, (dim, dim, n),
                                [dual_coaction(src) for src in ds])
    return YdAlgebra(YdModule(h, dim, action, coaction), mult, unit)


def quantum_commutative(alg):
    """ab = Σ b₀ (b₁·a) on all basis pairs, that is A equals its
    H-opposite."""
    return h_opposite(alg).mult == alg.mult


def generating_set(alg):
    """A small set of basis vectors generating alg as a unital algebra.

    Greedy: walk the basis, keep an element when it is outside the unital
    subalgebra generated so far, and re-close.  The span is one echelon,
    linalg._reduce's {pivot column: row}, kept for the whole walk: closing
    reduces into it the products of the span by the new generator, and
    then only those of each row that adds a pivot by every generator.  The
    products are summed lifted and reduced once per coordinate.
    """
    f = alg.host.field
    red = f.reduce
    mul, sm = alg.mul.lifted_rows()
    gens = []
    span = _reduce(f, [enumerate(alg.unit)])

    def products(rows, new):
        """u·e_g and e_g·u for every row u and every g in new."""
        for u in rows:
            cs, su = f.lift(list(u.values()))
            lu, scale = list(zip(u, cs)), su * sm
            for g in new:
                for left in (False, True):
                    acc = {}
                    for p, c in lu:
                        for k, w in (mul[g][p] if left else mul[p][g]):
                            acc[k] = acc.get(k, 0) + c * w
                    yield [(k, red(v, scale)) for k, v in acc.items()]

    def close(rows, new):
        while rows:
            size = len(span)
            _reduce(f, products(rows, new), pivots=span)
            rows = list(span.values())[size:]
            new = gens

    for g in range(alg.dim):
        if len(span) == alg.dim:
            break
        if len(_reduce(f, [((g, f.one),)], pivots=dict(span))) == len(span):
            continue
        gens.append(g)
        close(list(span.values()), [g])
    return gens


def azumaya_check(alg):
    """Builds F: A#Ā → End(A), F(a#b̄)(x) = Σ a x₀ (x₁·b), and
    G: Ā#A → End(A)^op, G(ā#b)(x) = Σ a₀ (a₁·x) b, certifies bijectivity by
    rank, and checks that F is a unital algebra map.

    Precondition: alg is a verified YD algebra (cmd_azumaya runs
    verify_yd_algebra first); the argument below uses its axioms.

    F and G are read off the lifted product rows of A and of Ā, where
    ē_s∘ē_t = Σ t₀ (t₁·e_s): F(e_p#ē_q)(e_x) = e_p·(ē_q∘ē_x) and
    G(ē_p#e_q)(e_x) = (ē_x∘ē_p)·e_q.  An element of End(A) is kept as
    {x·m+s: coefficient of e_s in the image of e_x}, so F and G are dict
    rows, reduced once per entry and ranked by sparse_rank, and F is
    applied to an element of A#Ā given as terms (p, q, c) of Σ c·e_p#ē_q.
    The algebra-map sides are summed on F's lifted rows and compared
    reduced.

    Maps are row-as-image, so F(X)F(Y) = F(X)∘F(Y) is then(F(Y), F(X)).
    With F_A(a) = F(a#1), F_B(b̄) = F(1#b̄) and F(1#1) = id (F_unital),
    F_algebra_map checks four families, in this order, and its detail names
    the first that fails (witness: the index pair shown):
      (i)   F(ga#1) = F_A(g)F_A(a)        for g ∈ gens(A), basis a: (g, a)
      (ii)  F(1#ḡ∘b̄) = F_B(ḡ)F_B(b̄)      for g ∈ gens(Ā), basis b: (g, b)
      (iii) F(a#b̄) = F_A(a)F_B(b̄)        for basis a, b: (a, b)
      (iv)  F(Σ g₀#g₁·b̄) = F_B(b̄)F_A(g)  for g ∈ gens(A), basis b: (g, b)
    since (a#1)(1#b̄) = a#b̄ and (1#b̄)(g#1) = Σ g₀#g₁·b̄ in A#Ā.  They imply
    F is multiplicative: (i) gives F_A(g₁…g_k x) = F_A(g₁)…F_A(g_k)F_A(x) by
    induction on k, so F_A is multiplicative on the words that span A, and
    (ii) does the same for F_B.  With (iii), F((a#1)Y) = F_A(a)F(Y) for all
    Y.  If F((1#b̄)(x#1)) = F_B(b̄)F_A(x) for all b̄, then writing
    (1#b̄)(gx#1) = Σ (g₀#1)(1#g₁·b̄)(x#1) and using (iii), (iv) gives it for
    gx; from x = 1 it holds on all of A.  Finally
    (a#b̄)(c#d̄) = (a#1)·(1#b̄)(c#1)·(1#d̄), so
    F((a#b̄)(c#d̄)) = F_A(a)F_B(b̄)F_A(c)F_B(d̄) = F(a#b̄)F(c#d̄).
    """
    rep = CheckReport()
    mod = alg.module
    f = alg.host.field
    m = alg.dim
    dim = m * m
    ms = range(m)
    bar = h_opposite(alg)
    (arow, sa), (brow, sb) = alg.mul.lifted_rows(), bar.mul.lifted_rows()
    sf = sa * sb

    # entry p·m+q: F(e_p#ē_q) and G(ē_p#e_q), lifted sums at scale sf
    frows = [sparse_sum((x * m + s, c * d) for x in ms
                        for t, c in brow[q][x] for s, d in arow[p][t])
             for p in ms for q in ms]
    grows = [sparse_sum((x * m + s, c * d) for x in ms
                        for t, c in brow[x][p] for s, d in arow[t][q])
             for p in ms for q in ms]

    rank_f = sparse_rank(f, (f.reduce_row(row, sf) for row in frows))
    rank_g = sparse_rank(f, (f.reduce_row(row, sf) for row in grows))
    rep.add("F_bijective", rank_f == dim, None, "rank %d of %d" % (rank_f, dim))
    rep.add("G_bijective", rank_g == dim, None, "rank %d of %d" % (rank_g, dim))

    def f_of(terms):
        """F(Σ c·e_p#ē_q) for terms [(p, q, c)], c lifted, at sf times the
        terms' scale."""
        return sparse_sum((k, c * v) for p, q, c in terms
                          for k, v in frows[p * m + q].items())

    def by_source(y):
        """An element of End(A) given like F's rows, as {x: [(s, c)]}."""
        rows = {}
        for k, v in y.items():
            x, s = divmod(k, m)
            rows.setdefault(x, []).append((s, v))
        return rows

    def then(x, rows):
        """x followed by the element of End(A) that by_source gave rows, at
        the product of their scales."""
        return sparse_sum((r * m + s, c * v) for k, c in x.items()
                          for r, t in (divmod(k, m),)
                          for s, v in rows.get(t, ()))

    def agree(lhs, rhs):
        """Are the two sides, at one scale, equal?"""
        diff = dict(lhs)
        for k, v in rhs.items():
            diff[k] = diff.get(k, 0) - v
        return not any(map(f.nonzero, diff.values()))

    us, su = f.lift(alg.unit)
    unit = [(p, c) for p, c in enumerate(us) if c]
    # (1#ē_b)(e_g#1) = Σ g₀ # g₁·ē_b = Φ(ē_b⊗e_g), entry b·m+g
    exchange, sx = _braid_terms(mod, mod)
    gens_a = generating_set(alg)
    gens_b = generating_set(bar)
    fa = [f_of([(a, q, c) for q, c in unit]) for a in ms]
    fb = [f_of([(p, b, c) for p, c in unit]) for b in ms]
    fa_rows, fb_rows = list(map(by_source, fa)), list(map(by_source, fb))
    # every right side is at (su·sf)²; each family puts its left side on
    # that scale by a scaled copy of one table of each side
    right = (su * sf) ** 2
    k1, r1 = complements(sa * su * sf, right)
    k2, r2 = complements(su * sb * sf, right)
    k3, r3 = complements(sf, right)
    k4, r4 = complements(sx * sf, right)
    arow1, fa1, brow2, fb2 = (scaled(arow, k1), scaled(fa, r1),
                              scaled(brow, k2), scaled(fb, r2))
    frows3, fb3 = scaled(frows, k3), scaled(fb, r3)
    exchange4, fa4 = scaled(exchange, k4), scaled(fa, r4)
    families = (
        ("(i) F(ga#1) = F(g#1)F(a#1)", (gens_a, ms), lambda g, a: (
            f_of([(t, q, c * u) for t, c in arow1[g][a] for q, u in unit]),
            then(fa1[a], fa_rows[g]))),
        ("(ii) F(1#ḡ∘b̄) = F(1#ḡ)F(1#b̄)", (gens_b, ms), lambda g, b: (
            f_of([(p, t, u * c) for p, u in unit for t, c in brow2[g][b]]),
            then(fb2[b], fb_rows[g]))),
        ("(iii) F(a#b̄) = F(a#1)F(1#b̄)", (ms, ms), lambda a, b: (
            frows3[a * m + b], then(fb3[b], fa_rows[a]))),
        ("(iv) F((1#b̄)(g#1)) = F(1#b̄)F(g#1)", (gens_a, ms), lambda g, b: (
            f_of(exchange4[b * m + g]), then(fa4[g], fb_rows[b]))))
    detail = "checked against %d generators" % (len(gens_a) + len(gens_b))
    for family, space, sides in families:
        # one verdict per index pair, so that the witness is the pair
        bad = first_mismatch(space, lambda *idx: (agree(*sides(*idx)), True))
        if bad is not None:
            detail = family
            break
    rep.add("F_algebra_map", bad is None, bad, detail)
    one = su * su * sf          # the identity at the left side's scale
    rep.add("F_unital", agree(
        f_of([(p, q, c * u) for p, c in unit for q, u in unit]),
        {x * m + x: one for x in ms}))

    nonzero = any(alg.unit)
    rep.add("is_azumaya", nonzero and rank_f == dim and rank_g == dim)
    return rep


def yd_hom_basis(ma, mb):
    """Basis of Hom_YD(M, N) as row-as-image matrices.

    Unknowns are the entries T[q][t], at index q·dim N + t; the constraints
    say T intertwines the action (T(e_i·v_p) = e_i·T(v_p)) and the coaction.
    The constraints are dict rows and the basis is their sparse_kernel,
    whose reduced echelon form fixes the basis and its order.
    """
    f = ma.host.field
    da, db = ma.dim, mb.dim
    eqs = {}        # constraint → {unknown: coefficient}

    def add(key, col, c):
        eq = eqs.setdefault(key, {})
        eq[col] = eq.get(col, f.zero) + c

    for i in range(ma.host.dim):
        for p in range(da):
            for q, x in ma.act.row(i, p):               # T(e_i·v_p)
                for t in range(db):
                    add((0, i, p, t), q * db + t, x)
            for t2 in range(db):                        # e_i·T(v_p)
                for t, c in mb.act.row(i, t2):
                    add((0, i, p, t), p * db + t2, -c)
    for p in range(da):
        for q, k, c in ma.coact.terms(p):               # (T⊗id)ρ(v_p)
            for t in range(db):
                add((1, p, t, k), q * db + t, c)
        for q2 in range(db):                            # ρ(T(v_p))
            for t, k, c in mb.coact.terms(q2):
                add((1, p, t, k), p * db + q2, -c)
    out = []
    for vec in sparse_kernel(f, (eq.items() for eq in eqs.values()),
                             da * db):
        mat = Matrix.zeros(f, da, db)
        for x, c in vec:
            mat.data[x // db][x % db] = c
        out.append(mat)
    return out


def random_yd_map(rng, ma, mb, hom_basis):
    """A random YD map M → N: a random small-integer combination of
    hom_basis, a basis of the intertwiner space (yd_hom_basis(ma, mb))."""
    f = ma.host.field
    da, db = ma.dim, mb.dim
    mat = Matrix.zeros(f, da, db)
    for base in hom_basis:
        coef = f.from_int(rng.randint(-3, 3))
        if not coef:
            continue
        for p in range(da):
            for t in range(db):
                if base.data[p][t]:
                    mat.data[p][t] = mat.data[p][t] + coef * base.data[p][t]
    return YdMap(ma, mb, mat)
