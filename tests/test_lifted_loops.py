"""The loops that sum lifted values (fields.Field.lift) against the
field-element loops they replaced: σ̲'s two displayed forms, the
convolutions, the M⊗N term kernel and the Miyashita-Ulbrich action; the
crossed compatibility of verify_yd in both forms and verify_yd_algebra's
module- and comodule-algebra axioms; azumaya_check's F and G and its
algebra-map families; H^σ's antipodes S^σ and (S^σ)⁻¹ and the H* product
of the 1-cocycle checks; and χ, φ, ψ and ξ.

Each reference below is the replaced loop as it was written on field
elements; the lifted loop must give the same object, the same report rows
(verdict, witness and detail), or raise the same error, on every ±1
one-entry change of its input, over ℚ and F₅, and on one input over
F_4099, whose elements are not tabled.  Over ℚ every ±1/3 one-entry
change is compared too, so that the lifted tables have denominators 1,
2, 3 and 6 and the loops sum at scales other than 1.  Two guards count
field operations, F_p element operations and ℚ QFraction operations, so
that field arithmetic does not come back into these loops.
The Galois relation checks are compared with their dense reference in
test_galois.py.
"""

import operator
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopflab import fields, galois, hopf, twist, yd
from hopflab.fields import PrimeField, RESIDUE_TABLE_BOUND, field_from_spec
from hopflab.hopf import HopfAlgebra
from hopflab.galois import (_comodule_galois, _equalizer, chi_maps,
                            mu_action_and_pi, phi_psi_xi, unit_object)
from hopflab.linalg import (Matrix, Tensor, are_inverse, kernel_basis,
                            linear_combination, solve, sparse_rank,
                            sparse_sum)
from hopflab.report import (CheckReport, VerificationError, first_mismatch,
                            require_agree)
from hopflab.twist import (TwoCocycle, _deform, _dual_product, conv_operator2,
                           convolve2, deform, eval2)
from hopflab.yd import (YdAlgebra, YdModule, _braid_terms, _kron, _matrix,
                        azumaya_check, eta, generating_set, h_opposite,
                        sigma_algebra, sigma_module, verify_yd,
                        verify_yd_algebra, yd_tensor)
from hopflab.catalog import (end_regular, regular_comodule_module, r_t,
                             sigma_t, sweedler_h4)
from conftest import dense_row
from test_convolution_routes import dense_eval2
from test_hopf import (one_entry_changes, one_matrix_changes,
                       one_vector_changes, report_rows, steps)


# -- the replaced field-element loops ------------------------------------------

def reference_sigma_module(s, mod):
    """σ̲(M) with both displayed forms summed on field elements, the
    pairing σ(h₄m₁S⁻¹(h₂) ⊗ h₁) read through dense_eval2, and the per-call
    live terms: sigma_module before its per-cocycle lifted tables."""
    h = mod.host
    n, m, f = h.dim, mod.dim, h.field
    sig, inv = s.sigma, s.sigma_inv
    first = [any(row[a] for row in sig.data) for a in range(n)]
    last = [any(row) for row in inv.data]

    def live_terms(i, k):
        return [(idx, w) for idx, w in h.copower(i, k)
                if first[idx[0]] and last[idx[-1]]]

    def twisted(i, p):
        acc = [f.zero] * m
        for (a, b, c3), w in live_terms(i, 3):
            for q0, k0, c0 in mod.coact.terms(p):
                s2 = inv.data[c3][k0]
                if not s2:
                    continue
                for q1, x in mod.act.row(b, q0):
                    w2 = w * c0 * s2 * x
                    for q2, k2, c2 in mod.coact.terms(q1):
                        s1 = sig.data[k2][a]
                        if s1:
                            acc[q2] = acc[q2] + w2 * c2 * s1
        return acc

    def twisted_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d, e), w in live_terms(i, 5):
            for q0, k0, c0 in mod.coact.terms(p):
                for q1, k1, c1 in mod.coact.terms(q0):
                    s2 = inv.data[e][k0]
                    if not s2:
                        continue
                    u = h.mul_vec(dense_row(h.mult, d, k1),
                                  h.antipode_inv.data[b])
                    s1 = dense_eval2(sig, u, a)
                    if not s1:
                        continue
                    w2 = w * c0 * c1 * s1 * s2
                    for q, x in mod.act.row(c3, q1):
                        acc[q] = acc[q] + w2 * x
        return acc

    one = [[twisted(i, p) for p in range(m)] for i in range(n)]
    two = [[twisted_expanded(i, p) for p in range(m)] for i in range(n)]
    require_agree("twisted-action", (range(n), range(m), range(m)),
                  lambda i, j, k: (one[i][j][k], two[i][j][k]))
    return YdModule(deform(s), m, Tensor.from_rows(f, (n, m, m), one),
                    Tensor(f, (m, m, n), list(mod.coaction.data)))


def reference_convolve2(h, f, g):
    out = Matrix.zeros(h.field, h.dim, h.dim)
    for x in range(h.dim):
        for y in range(h.dim):
            acc = h.field.zero
            for a, b, ca in h.delta.terms(x):
                for c, d, cd in h.delta.terms(y):
                    fv = f.data[a][c]
                    if fv:
                        gv = g.data[b][d]
                        if gv:
                            acc = acc + ca * cd * fv * gv
            out.data[x][y] = acc
    return out


def reference_conv_operator2(h, f):
    n = h.dim
    op = Matrix.zeros(h.field, n * n, n * n)
    for x in range(n):
        for y in range(n):
            row = op.data[x * n + y]
            for a, b, ca in h.delta.terms(x):
                for c, d, cd in h.delta.terms(y):
                    fv = f.data[a][c]
                    if fv:
                        row[b * n + d] = row[b * n + d] + ca * cd * fv
    return op


def reference_matrix(field, terms, da, db):
    mat = Matrix.zeros(field, len(terms), da * db)
    for row, ts in zip(mat.data, terms):
        for a, b, c in ts:
            row[a * db + b] = row[a * db + b] + c
    return mat


def reference_paired(ma, mb, f):
    """m⊗n ↦ Σ m₀⊗n₀ f(n₁⊗m₁) on field elements, f read through eval2."""
    return reference_matrix(ma.host.field, [
        [(p0, q0, c1 * c2 * eval2(f, k2, k1))
         for p0, k1, c1 in ma.coact.terms(p) for q0, k2, c2 in mb.coact.terms(q)
         if eval2(f, k2, k1)]
        for p in range(ma.dim) for q in range(mb.dim)], ma.dim, mb.dim)


def reference_braid(ma, mb):
    return reference_matrix(ma.host.field, [
        [(q0, p1, c * x) for q0, k, c in mb.coact.terms(q)
         for p1, x in ma.act.row(k, p)]
        for p in range(ma.dim) for q in range(mb.dim)], mb.dim, ma.dim)


def reference_kron(fa, fb):
    ra = [[(a, x) for a, x in enumerate(row) if x] for row in fa.data]
    rb = [[(b, y) for b, y in enumerate(row) if y] for row in fb.data]
    return reference_matrix(fa.field, [
        [(a, b, x * y) for a, x in ta for b, y in tb]
        for ta in ra for tb in rb], fa.cols, fb.cols)


def reference_yd_tensor(ma, mb):
    """M⊗N's action Δ(e_i)·(m⊗n) and reversed-product coaction, summed on
    field elements."""
    h = ma.host
    f, n, db = h.field, h.dim, mb.dim
    dim = ma.dim * db
    action = []
    for i in range(n):
        action += reference_matrix(f, [
            [(p1, q1, c * y * z) for a, b, c in h.delta.terms(i)
             for p1, y in ma.act.row(a, p) for q1, z in mb.act.row(b, q)]
            for p in range(ma.dim) for q in range(db)], ma.dim, db).data
    coaction = []
    for src in range(dim):
        p, q = divmod(src, db)
        rows = [[f.zero] * n for _ in range(dim)]
        for p0, k1, c1 in ma.coact.terms(p):
            for q0, k2, c2 in mb.coact.terms(q):
                row = rows[p0 * db + q0]
                for k, cm in h.mul.row(k2, k1):
                    row[k] = row[k] + c1 * c2 * cm
        coaction += rows
    return YdModule(h, dim,
                    Tensor(f, (n, dim, dim), [x for r in action for x in r]),
                    Tensor(f, (dim, dim, n), [x for r in coaction for x in r]))


def reference_mu_action(alg):
    """π(A)'s Miyashita-Ulbrich action as _mu_action_and_pi built it on
    field elements, from the dense columns of ker βᵀ and of the
    β-preimages of 1⊗e_k and dense v_p·a·v_r tables.  Returns the witness
    of mu_action_well_defined and the action's coordinate rows (None for
    a vector outside π(A)), or the VerificationError raised."""
    h = alg.host
    f, n, m = h.field, h.dim, alg.dim
    gal, sub0, beta_rows = _comodule_galois(alg)
    if not gal.ok:
        return "not Galois"
    mrow = alg.mul.row

    def times(p, left):
        return [(t, j, c * w) for j, x in enumerate(sub0.rows) for k, c in x
                for t, w in (mrow(p, k) if left else mrow(k, p))]

    pi_sub = _equalizer(f, sub0.dim, [times(p, True) for p in range(m)],
                        [times(p, False) for p in range(m)])
    beta = Matrix(f, m * n, m * m, [[row.get(c, f.zero) for row in beta_rows]
                                    for c in range(m * n)])
    rhs = Matrix.zeros(f, m * n, n)
    for k in range(n):
        for y, u in enumerate(alg.unit):
            if u:
                rhs.data[y * n + k][k] = u
    part = solve(beta, rhs)
    if part is None:
        return "no preimages"
    ker = kernel_basis(beta)

    def dense(terms):
        acc = [f.zero] * m
        for c, t in terms:
            for k, w in t:
                acc[k] = acc[k] + c * w
        return acc

    def triple_table(avs):
        out = []
        for p in range(m):
            vas = [(t, c) for t, c in enumerate(
                dense((c, mrow(p, j)) for j, c in avs)) if c]
            out.append([dense((c, mrow(t, r)) for t, c in vas)
                        for r in range(m)])
        return out

    tables = [triple_table(a) for a in pi_sub.rows]

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
    witness = next(((j, a) for j in range(ker.cols)
                    for a in range(pi_sub.dim)
                    if act_by(ker.column(j), a) != zero), None)
    acts = [pi_sub.coordinates(act_by(part.column(k), a))
            for k in range(n) for a in range(pi_sub.dim)]
    return witness, acts


# -- the replaced field-element loops of the checks and certificates ----------

def row(name, witness, detail=""):
    """A check's report row (name, status, witness, detail)."""
    return (name, "pass" if witness is None else "fail", witness, detail)


def reference_yd_rows(mod):
    """The report rows of verify_yd's yd_compatibility and
    yd_compatibility_sinv_form, summed on field elements into dicts keyed
    (q, k₂)."""
    h = mod.host
    zero = h.field.zero
    act, coact = mod.act, mod.coact
    hs, ms = range(h.dim), range(mod.dim)

    def compatibility(i, p):
        di = h.delta.terms(i)
        lhs = {}
        for a, b, ca in di:
            for q0, k, c0 in coact.terms(p):
                for q, x in act.row(a, q0):
                    w = ca * c0 * x
                    for k2, cm in h.mul.row(b, k):
                        key = (q, k2)
                        lhs[key] = lhs.get(key, zero) + w * cm
        rhs = {}
        for a, b, ca in di:
            for q0, x in act.row(b, p):
                w = ca * x
                for q, k, c0 in coact.terms(q0):
                    for k2, cm in h.mul.row(k, a):
                        key = (q, k2)
                        rhs[key] = rhs.get(key, zero) + w * c0 * cm
        return lhs, rhs

    def compatibility_sinv(i, p):
        lhs = {}
        for q0, x in act.row(i, p):
            for q, k, c0 in coact.terms(q0):
                key = (q, k)
                lhs[key] = lhs.get(key, zero) + x * c0
        rhs = {}
        for (a, b, c3), w in h.copower(i, 3):
            for q0, k, c0 in coact.terms(p):
                word = h.product(h.mul.row(c3, k), sinv[a])
                for q, x in act.row(b, q0):
                    w2 = w * c0 * x
                    for k2, cv in word:
                        key = (q, k2)
                        rhs[key] = rhs.get(key, zero) + w2 * cv
        return lhs, rhs

    sinv = h.antipodes.rows(1)
    return [row("yd_compatibility", first_mismatch((hs, ms), compatibility),
                "Σh1·m0⊗h2m1 = Σ(h2·m)0⊗(h2·m)1h1"),
            row("yd_compatibility_sinv_form",
                first_mismatch((hs, ms), compatibility_sinv),
                "ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)")]


def reference_algebra_rows(alg):
    """The report rows of verify_yd_algebra's module_algebra and
    comodule_algebra, their product loops summed on field elements."""
    h = alg.host
    m = alg.dim
    zero = h.field.zero
    mod = alg.module
    mul, act = alg.mul, mod.act
    hs, ms = range(h.dim), range(m)

    def module_algebra(i, p):
        hp = [(b, s, ca * x) for a, b, ca in h.delta.terms(i)
              for s, x in act.row(a, p)]
        lhs, rhs = [], []
        for q in ms:
            acc = [zero] * m
            for t, c in mul.row(p, q):
                for k, w in act.row(i, t):
                    acc[k] = acc[k] + c * w
            lhs.append(acc)
            acc = [zero] * m
            for b, s, w in hp:
                for t, y in act.row(b, q):
                    for k, c in mul.row(s, t):
                        acc[k] = acc[k] + w * y * c
            rhs.append(acc)
        return lhs, rhs

    bad = first_mismatch((hs, ms), module_algebra)
    if bad is not None:
        lhs, rhs = module_algebra(*bad)
        bad += first_mismatch((ms,), lambda q: (lhs[q], rhs[q]))
    else:
        bad = first_mismatch((hs,), lambda i: (
            mod.act_basis_vec(i, alg.unit),
            [h.counit[i] * x for x in alg.unit]))
    rows = [row("module_algebra", bad,
                "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")]

    def comodule_algebra(p, q):
        lhs = {}
        for k2, c in mul.row(p, q):
            for q2, k, c2 in mod.coact.terms(k2):
                key = (q2, k)
                lhs[key] = lhs.get(key, zero) + c * c2
        rhs = {}
        for p0, k1, c1 in mod.coact.terms(p):
            for q0, k2, c2 in mod.coact.terms(q):
                w = c1 * c2
                prod = mul.row(p0, q0)
                for k3, cm in h.mul.row(k2, k1):
                    for t, ct in prod:
                        key = (t, k3)
                        rhs[key] = rhs.get(key, zero) + w * cm * ct
        return lhs, rhs

    def unit_coaction():
        lhs = [[zero] * h.dim for _ in ms]
        rhs = [[zero] * h.dim for _ in ms]
        for p, x in enumerate(alg.unit):
            if x:
                for q, k, c in mod.coact.terms(p):
                    lhs[q][k] = lhs[q][k] + x * c
                for k, u in enumerate(h.unit):
                    rhs[p][k] = rhs[p][k] + x * u
        return lhs, rhs

    bad = first_mismatch((ms, ms), comodule_algebra)
    if bad is None:
        bad = first_mismatch((), unit_coaction)
    return rows + [row("comodule_algebra", bad,
                       "ρ(ab) = Σa0b0⊗b1a1, ρ(1) = 1⊗1")]


def reference_azumaya(alg):
    """azumaya_check's report rows with F and G summed on field elements
    as sparse_sum dicts, and each then() regrouping its second map."""
    rep = CheckReport()
    mod = alg.module
    f = alg.host.field
    m = alg.dim
    dim = m * m
    ms = range(m)
    bar = h_opposite(alg)
    arow, brow = alg.mul.row, bar.mul.row
    frows = [sparse_sum((x * m + s, c * d) for x in ms
                        for t, c in brow(q, x) for s, d in arow(p, t))
             for p in ms for q in ms]
    grows = [sparse_sum((x * m + s, c * d) for x in ms
                        for t, c in brow(x, p) for s, d in arow(t, q))
             for p in ms for q in ms]
    rank_f = sparse_rank(f, frows)
    rank_g = sparse_rank(f, grows)
    rep.add("F_bijective", rank_f == dim, None, "rank %d of %d" % (rank_f, dim))
    rep.add("G_bijective", rank_g == dim, None, "rank %d of %d" % (rank_g, dim))

    def f_of(terms):
        return sparse_sum((k, c * v) for p, q, c in terms
                          for k, v in frows[p * m + q].items())

    def then(x, y):
        rows = {}
        for k, v in y.items():
            t, s = divmod(k, m)
            rows.setdefault(t, []).append((s, v))
        return sparse_sum((r * m + s, c * v) for k, c in x.items()
                          for r, t in (divmod(k, m),)
                          for s, v in rows.get(t, ()))

    unit = [(p, c) for p, c in enumerate(alg.unit) if c]
    exchange = [[(q0, p1, c * x) for q0, k, c in mod.coact.terms(q)
                 for p1, x in mod.act.row(k, p)] for p in ms for q in ms]
    gens_a = generating_set(alg)
    gens_b = generating_set(bar)
    fa = [f_of([(a, q, c) for q, c in unit]) for a in ms]
    fb = [f_of([(p, b, c) for p, c in unit]) for b in ms]
    families = (
        ("(i) F(ga#1) = F(g#1)F(a#1)", (gens_a, ms), lambda g, a: (
            f_of([(t, q, c * u) for t, c in arow(g, a) for q, u in unit]),
            then(fa[a], fa[g]))),
        ("(ii) F(1#ḡ∘b̄) = F(1#ḡ)F(1#b̄)", (gens_b, ms), lambda g, b: (
            f_of([(p, t, u * c) for p, u in unit for t, c in brow(g, b)]),
            then(fb[b], fb[g]))),
        ("(iii) F(a#b̄) = F(a#1)F(1#b̄)", (ms, ms), lambda a, b: (
            frows[a * m + b], then(fb[b], fa[a]))),
        ("(iv) F((1#b̄)(g#1)) = F(1#b̄)F(g#1)", (gens_a, ms), lambda g, b: (
            f_of(exchange[b * m + g]), then(fa[g], fb[b]))))
    detail = "checked against %d generators" % (len(gens_a) + len(gens_b))
    for family, space, sides in families:
        bad = first_mismatch(space, lambda *idx: (operator.eq(*sides(*idx)),
                                                  True))
        if bad is not None:
            detail = family
            break
    rep.add("F_algebra_map", bad is None, bad, detail)
    rep.add("F_unital", f_of([(p, q, c * u) for p, c in unit for q, u in unit])
            == {x * m + x: f.one for x in ms})
    rep.add("is_azumaya", any(alg.unit) and rank_f == dim and rank_g == dim)
    return report_rows(rep)


def reference_delta_functional(h, value):
    return [sum((cd * value(a, b) for a, b, cd in h.delta.terms(i)),
                h.field.zero) for i in range(h.dim)]


def reference_dual_product(h, mu, nu):
    return reference_delta_functional(h, lambda a, b: mu[a] * nu[b])


def reference_deformed_antipodes(c):
    """S^σ and (S^σ)⁻¹ as _deform summed them on field elements: u, v, u'
    and v' through eval2, and one linear_combination of S's rows per
    basis vector."""
    h = c.host
    n, f, hs = h.dim, h.field, range(h.dim)
    sig, inv = c.sigma, c.sigma_inv
    S, Sinv = h.antipodes.rows(0), h.antipodes.rows(1)

    def sandwich(u, rows, v):
        return Matrix(f, n, n, [linear_combination(f, n, (
            (w * u[a] * v[d], rows[b]) for (a, b, d), w in h.copower(x, 3)
            if u[a] and v[d])) for x in hs])

    fn = reference_delta_functional
    return (sandwich(fn(h, lambda a, b: eval2(sig, a, S[b])), S,
                     fn(h, lambda a, b: eval2(inv, S[a], b))),
            sandwich(fn(h, lambda a, b: eval2(sig, Sinv[b], a)), Sinv,
                     fn(h, lambda a, b: eval2(inv, b, Sinv[a]))))


def reference_chi_maps(s):
    """χ, χ⁻¹ and χ* summed on field elements through eval2, or the
    VerificationError's message."""
    h = s.host
    n = h.dim
    f = h.field
    sinv = h.antipodes.rows(1)

    def chi(i):
        acc = [f.zero] * n
        for (a, b, c, d), w in h.copower(i, 4):
            scal = eval2(s.sigma_inv, d, h.product(sinv[c], [(a, f.one)]))
            if scal:
                acc[b] = acc[b] + w * scal
        return acc

    def chi_inv(i):
        acc = [f.zero] * n
        for (a, b, c, d, e5), w in h.copower(i, 5):
            s1 = eval2(s.sigma_inv, sinv[e5], a)
            if not s1:
                continue
            s2 = eval2(s.sigma, sinv[d], c)
            if s2:
                acc[b] = acc[b] + w * s1 * s2
        return acc

    chi = Matrix(f, n, n, [chi(i) for i in range(n)])
    chi_inv = Matrix(f, n, n, [chi_inv(i) for i in range(n)])
    if not are_inverse(chi, chi_inv):
        return "χ and χ⁻¹ are not mutually inverse"
    return chi, chi_inv, chi.transpose()


def reference_phi_psi_xi(s, alg):
    """φ, ψ, ξ and their inverses spread on field elements, with every
    pairing through eval2, or the VerificationError's message."""
    h = s.host
    n = h.dim
    f = h.field
    mod = alg.module
    m = mod.dim
    sinv, hs = h.antipodes.rows(1), range(n)
    words = [[h.product(sinv[a], [(t, f.one)]) for t in hs] for a in hs]

    def spread(mat, w, pairing, at_row, at_col):
        for p in range(m):
            row = mat.data[at_row(p)]
            for q, k, c in mod.coact.terms(p):
                if pairing[k]:
                    row[at_col(q)] = row[at_col(q)] + w * c * pairing[k]

    def build(mat2, psi):
        at = (lambda p, j: j * m + p) if psi else (lambda p, j: p * n + j)
        out = Matrix.zeros(f, m * n, m * n)
        for k in hs:
            for (k1, j, k3), w in h.copower(k, 3):
                u = words[k3][k1]
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
            s1 = eval2(s.sigma, sinv[b], a)
            if s1:
                spread(xi, w * s1,
                       [eval2(s.sigma_inv, sinv[c], t) for t in hs],
                       lambda p: p * n + i, lambda q: q * n + d)
        for (a, b, c), w in h.copower(i, 3):
            spread(xi_inv, w, [eval2(s.sigma_inv, b, words[a][t])
                               for t in hs],
                   lambda p: p * n + i, lambda q: q * n + c)
    for name, a, b in (("phi", phi, phi_inv), ("psi", psi, psi_inv),
                       ("xi", xi, xi_inv)):
        if not are_inverse(a, b):
            return "%s round trip failed" % name
    return phi, phi_inv, psi, psi_inv, xi, xi_inv


# -- comparisons on one-entry changes ---------------------------------------

def outcome(build, *args):
    """build(*args), or the message of the VerificationError it raises."""
    try:
        return build(*args)
    except VerificationError as exc:
        return str(exc)


def same_module(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.structures_equal(b)


def module_changes(mod, thirds=False):
    """mod, then every copy with one entry of its action or of its
    coaction raised or lowered by 1 (or by 1/3, with thirds over ℚ)."""
    yield mod
    for t in one_entry_changes(mod.action, thirds):
        yield YdModule(mod.host, mod.dim, t, mod.coaction)
    for t in one_entry_changes(mod.coaction, thirds):
        yield YdModule(mod.host, mod.dim, mod.action, t)


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def host(request):
    h = sweedler_h4(field_from_spec(request.param), verify=False)
    return h, sigma_t(h, 1), regular_comodule_module(r_t(h, 1))


@pytest.mark.parametrize("which", ["regular", "I"])
def test_sigma_images_match_the_field_element_forms(host, which):
    """σ̲₁ of the regular module and of I, and of every one-entry change of
    their tensors: the same module, or the same disagreement witness."""
    h, s, reg = host
    mod = reg if which == "regular" else unit_object(h).module
    raised = 0
    for bad in module_changes(mod, thirds=True):
        got = outcome(sigma_module, s, bad)
        assert same_module(got, outcome(reference_sigma_module, s, bad))
        raised += isinstance(got, str)
    assert raised


def test_sigma_of_regular_tensor_regular_matches(host):
    """σ̲₁(M⊗M) for M the regular module and for every one-entry change of
    M's coaction, so each change reaches M⊗M through both factors."""
    h, s, reg = host
    raised = 0
    for t in [reg.coaction] + list(one_entry_changes(reg.coaction,
                                                     thirds=True)):
        m2 = YdModule(h, 4, reg.action, t)
        tens = yd_tensor(m2, m2)
        assert same_module(tens, reference_yd_tensor(m2, m2))
        got = outcome(sigma_module, s, tens)
        assert same_module(got, outcome(reference_sigma_module, s, tens))
        raised += isinstance(got, str)
    assert raised


def test_convolutions_match(host):
    """σ₁ * σ₁⁻¹ and the operator X ↦ σ₁ * X, for σ₁ and every one-entry
    change of it."""
    h, s, _ = host
    for f in [s.sigma] + list(one_matrix_changes(s.sigma, thirds=True)):
        assert convolve2(h, f, s.sigma_inv) == reference_convolve2(
            h, f, s.sigma_inv)
        assert convolve2(h, s.sigma_inv, f) == reference_convolve2(
            h, s.sigma_inv, f)
        assert conv_operator2(h, f) == reference_conv_operator2(h, f)


def test_term_kernel_matrices_match(host):
    """The matrices of η and ξ and of Φ, for the regular module M and every
    one-entry change of M's tensors, and σ₁ ⊗ σ₁⁻¹ as a Kronecker product
    for every one-entry change of σ₁."""
    h, s, reg = host
    uo = unit_object(h).module
    for bad in module_changes(reg, thirds=True):
        try:
            got = eta(s, bad, uo)
        except VerificationError:
            got = None
        want = (reference_paired(bad, uo, s.sigma_inv),
                reference_paired(bad, uo, s.sigma))
        assert got is None or got == want
        assert _matrix(h.field, _braid_terms(bad, uo), uo.dim, bad.dim) == \
            reference_braid(bad, uo)
        assert _matrix(h.field, _braid_terms(uo, bad), bad.dim, uo.dim) == \
            reference_braid(uo, bad)
    for bad in [s.sigma] + list(one_matrix_changes(s.sigma, thirds=True)):
        assert _kron(bad, s.sigma_inv) == reference_kron(bad, s.sigma_inv)
        assert _kron(s.sigma_inv, bad) == reference_kron(s.sigma_inv, bad)


def test_mu_action_matches_the_dense_loop(host):
    """π(End(M))'s action, for M the regular module, and for every ±1
    (and, over ℚ, ±1/3) change of one entry of End(M)'s unit, which moves
    the β-preimages of 1⊗e_k: the same mu_action_well_defined witness and
    the same action, or the same refusal."""
    h, _, reg = host
    end = end_regular(r_t(h, 1))
    changes = [list(end.unit)] + [
        end.unit[:i] + [end.unit[i] + step] + end.unit[i + 1:]
        for i in range(end.dim) for step in steps(h.field, thirds=True)]
    built = 0
    for unit in changes:
        alg = YdAlgebra(end.module, end.mult, unit)
        want = reference_mu_action(alg)
        try:
            pi, rep = mu_action_and_pi(alg)
        except VerificationError as exc:
            refused = {"β-preimages of 1⊗h do not exist": "no preimages",
                       "MU action leaves the centralizer": "outside"}
            why = refused.get(str(exc), "later")
            assert why == ("no preimages" if want == "no preimages" else
                           "outside" if None in want[1] else "later")
            continue
        built += 1
        well = [c.witness for c in rep.checks
                if c.name == "mu_action_well_defined"]
        assert well == [want[0]]
        acts = [list(pi.module.action.data[(k * pi.dim + a) * pi.dim:
                                    (k * pi.dim + a + 1) * pi.dim])
                for k in range(h.dim) for a in range(pi.dim)]
        assert acts == want[1]
    assert built


# -- the checks and certificates on one-entry changes ---------------------------

YD_ROWS = ["yd_compatibility", "yd_compatibility_sinv_form"]
ALGEBRA_ROWS = ["module_algebra", "comodule_algebra"]


def algebra_changes(alg):
    """alg, then every copy with one entry of its product, of its action or
    of its coaction raised or lowered by 1 (and by 1/3 over ℚ)."""
    yield alg
    for t in one_entry_changes(alg.mult, thirds=True):
        yield YdAlgebra(alg.module, t, alg.unit)
    for mod in module_changes(alg.module, thirds=True):
        if mod is not alg.module:
            yield YdAlgebra(mod, alg.mult, alg.unit)


def cocycle_changes(s):
    """s, then every cocycle with one entry of σ or of σ⁻¹ raised or
    lowered by 1 (and by 1/3 over ℚ; a cocycle or not)."""
    yield s
    for bad in one_matrix_changes(s.sigma, thirds=True):
        yield TwoCocycle(s.host, bad, s.sigma_inv)
    for bad in one_matrix_changes(s.sigma_inv, thirds=True):
        yield TwoCocycle(s.host, s.sigma, bad)


def test_yd_checks_match_the_field_element_loops(host):
    """verify_yd's two compatibility rows on the regular module, and
    verify_yd_algebra's module_algebra and comodule_algebra rows on I, for
    each and for every one-entry change of its tensors: the same verdicts,
    witnesses and details."""
    h, _, reg = host
    statuses = set()
    for mod in module_changes(reg, thirds=True):
        got = report_rows(verify_yd(mod), YD_ROWS)
        assert got == reference_yd_rows(mod)
        statuses.update(r[1] for r in got)
    for alg in algebra_changes(unit_object(h)):
        got = report_rows(verify_yd_algebra(alg), ALGEBRA_ROWS)
        assert got == reference_algebra_rows(alg)
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}


def test_azumaya_matches_the_field_element_loops(host):
    """azumaya_check's report on I and on every one-entry change of its
    product, action and coaction: the same rows as F and G summed on field
    elements."""
    h = host[0]
    statuses = set()
    for alg in algebra_changes(unit_object(h)):
        got = report_rows(azumaya_check(alg))
        assert got == reference_azumaya(alg)
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}


def test_deformed_antipodes_match(host):
    """S^σ and (S^σ)⁻¹ of H^σ for σ₁ and for every one-entry change of σ₁
    or of σ₁⁻¹."""
    for c in cocycle_changes(host[1]):
        got = _deform(c)
        assert (got.antipode, got.antipode_inv) == \
            reference_deformed_antipodes(c)


def test_dual_products_match(host):
    """μν in H* for μ = ε + e₁* and ν = ε − e₁*, and for every one-entry
    change of either."""
    h = host[0]
    f = h.field
    mu = [x + (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    nu = [x - (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    for a in [mu] + list(one_vector_changes(mu, f, thirds=True)):
        for b in [nu] + list(one_vector_changes(nu, f, thirds=True)):
            assert _dual_product(h, a, b) == reference_dual_product(h, a, b)


def test_section3_witnesses_match(host):
    """χ and φ, ψ, ξ (on I) with their inverses for σ₁ and every one-entry
    change of σ₁ or of σ₁⁻¹, and φ, ψ, ξ for σ₁ on every one-entry change
    of I's coaction: the same matrices, or the same refusal."""
    h, s, _ = host
    uo = unit_object(h)
    raised = set()
    for c in cocycle_changes(s):
        got = outcome(chi_maps, c)
        assert got == reference_chi_maps(c)
        raised.add(isinstance(got, str))
        got = outcome(phi_psi_xi, c, uo)
        assert got == reference_phi_psi_xi(c, uo)
        raised.add(isinstance(got, str))
    for t in one_entry_changes(uo.module.coaction, thirds=True):
        alg = YdAlgebra(YdModule(h, uo.dim, uo.module.action, t), uo.mult,
                        uo.unit)
        got = outcome(phi_psi_xi, s, alg)
        assert got == reference_phi_psi_xi(s, alg)
        raised.add(isinstance(got, str))
    assert raised == {True, False}


# -- int-first ℚ constructions -------------------------------------------------

def integral_fractions(values):
    return [x for x in values
            if isinstance(x, Fraction) and x.denominator == 1]


def test_sigma_images_hold_no_integral_fraction():
    """σ̲₁'s action on End(regular) and on regular⊗regular over ℚ is summed
    through σ₁'s halves, but every integral entry is an int."""
    h = sweedler_h4(fields.QQ, verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    end = sigma_algebra(s, end_regular(r_t(h, 1)))
    tens = sigma_module(s, yd_tensor(reg, reg))
    assert integral_fractions(end.module.action.data) == []
    assert integral_fractions(tens.action.data) == []


# -- reduce_vec and the large-prime path ----------------------------------------

LARGE = 4099
assert LARGE > RESIDUE_TABLE_BOUND


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Q", "Fp:5", "Fp:%d" % LARGE]),
       st.lists(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                   st.integers(-10 ** 6, 10 ** 6),
                                   st.integers(1, 4)), max_size=5),
                max_size=6),
       st.integers(1, 12))
def test_reduce_vec_of_lifted_sums_is_the_field_sum(spec, coords, extra):
    """reduce_vec of Σ x·y per coordinate, summed on the x and the y lifted
    as two lists and so at the product of their scales, equals the sum of
    the products taken on field elements, coordinate by coordinate, and
    reduce_row gives the nonzero ones of them keyed by coordinate.  Over ℚ
    the sums are also multiplied by a drawn factor, which the scale they
    are reduced at carries too; over F_p every scale is 1."""
    f = field_from_spec(spec)
    pairs = [[(f.ratio(a, c), f.from_int(b)) for a, b, c in terms]
             for terms in coords]
    (xs, sx), (ys, sy) = (f.lift([pair[leg] for terms in pairs
                                  for pair in terms]) for leg in (0, 1))
    assert all(type(v) is int for v in xs + ys)
    if f.kind == "Fp":
        assert sx == sy == 1
        extra = 1
    xs, ys = iter(xs), iter(ys)
    lifted = [extra * sum(next(xs) * next(ys) for _ in terms)
              for terms in pairs]
    scale = sx * sy * extra
    field_sums = []
    for terms in pairs:
        acc = f.zero
        for x, y in terms:
            acc = acc + x * y
        field_sums.append(acc)
    got = f.reduce_vec(lifted, scale)
    assert got == field_sums
    row = f.reduce_row(dict(enumerate(lifted)), scale)
    assert row == {i: x for i, x in enumerate(field_sums) if x}
    assert list(map(type, row.values())) == [type(got[i]) for i in row]
    if f.kind == "Fp":
        assert all(type(x) is f.elem for x in got)
    else:
        assert integral_fractions(got) == []


def test_sigma_image_over_a_large_prime_matches():
    """σ̲₁ of the regular module over F_4099, whose elements are built on
    lookup, equals the field-element forms."""
    h = sweedler_h4(PrimeField(LARGE), verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    got = sigma_module(s, reg)
    assert got.structures_equal(reference_sigma_module(s, reg))
    assert all(type(x) is h.field.elem for x in got.action.data)


def test_checks_over_a_large_prime_match():
    """Over F_4099, whose elements are built on lookup, the YD-algebra
    checks and azumaya_check on I and on I with one coaction entry raised
    by 1, and H^σ's antipodes, the H* products, χ, φ, ψ and ξ for σ₁,
    equal the field-element loops."""
    f = PrimeField(LARGE)
    h = sweedler_h4(f, verify=False)
    s = sigma_t(h, 1)
    uo = unit_object(h)
    data = list(uo.module.coaction.data)
    data[0] += f.one
    bad = YdAlgebra(YdModule(h, uo.dim, uo.module.action,
                             Tensor(f, uo.module.coaction.shape, data)),
                    uo.mult, uo.unit)
    statuses = set()
    for alg in (uo, bad):
        got = report_rows(verify_yd(alg.module), YD_ROWS)
        assert got == reference_yd_rows(alg.module)
        got += report_rows(verify_yd_algebra(alg), ALGEBRA_ROWS)
        assert got[2:] == reference_algebra_rows(alg)
        got += report_rows(azumaya_check(alg))
        assert got[4:] == reference_azumaya(alg)
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}
    got = _deform(s)
    assert (got.antipode, got.antipode_inv) == reference_deformed_antipodes(s)
    assert all(type(x) is f.elem for x in got.antipode.entries)
    mu = [x + (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    assert _dual_product(h, mu, h.counit) == reference_dual_product(
        h, mu, h.counit)
    assert chi_maps(s) == reference_chi_maps(s)
    assert phi_psi_xi(s, uo) == reference_phi_psi_xi(s, uo)


# -- the guard ----------------------------------------------------------------

def code_tree(fn, names=None):
    """The code objects of fn's nested functions, comprehensions and
    generator expressions called one of names (fn's own code, when names
    is None), with every code object nested in them."""
    todo = [fn.__code__] if names is None else [
        c for c in fn.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name in names]
    assert names is None or len(todo) == len(names)
    out = set()
    while todo:
        code = todo.pop()
        out.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return out


def lifted_loop_codes():
    """The code of the loops that sum lifted values in the shared axiom
    checks and the YD-algebra, Azumaya, deformation, Section 3 and Galois
    relation checks."""
    return set().union(
        code_tree(hopf.first_action_mismatch, ("block",)),
        code_tree(hopf.first_coaction_mismatch, ("sides",)),
        code_tree(yd.verify_yd, ("compatibility", "compatibility_sinv")),
        code_tree(HopfAlgebra.word_table, ("word",)),
        code_tree(yd.verify_yd_algebra, ("module_algebra",
                                         "comodule_algebra")),
        code_tree(yd.azumaya_check), code_tree(yd.generating_set, (
            "products",)),
        code_tree(twist._deform), code_tree(twist._delta_functional),
        code_tree(twist._dual_product), code_tree(twist.eval2_lifted),
        code_tree(galois._pairing_tables), code_tree(galois.chi_maps),
        code_tree(galois.phi_psi_xi), code_tree(galois._relation_parts),
        code_tree(galois._beta_quotient_bijective, ("first_outside",)))


def guarded_runs(monkeypatch, field, elem):
    """(runs, checks, calls) for the guards: the second sigma_module,
    convolve2, yd_tensor and eta on σ₁ and R₁ over field, and the checks
    whose lifted loops are lifted_loop_codes, each run once already; from
    now on every +, - or * of elem, field's scalar class, appends its
    caller's code to calls."""
    h = sweedler_h4(field, verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    uo = unit_object(h)
    end = end_regular(r_t(h, 1))
    runs = [lambda: sigma_module(s, reg),
            lambda: convolve2(h, s.sigma, s.sigma_inv),
            lambda: yd_tensor(reg, uo.module),
            lambda: eta(s, reg, uo.module)]
    checks = [lambda: verify_yd_algebra(end), lambda: azumaya_check(end),
              lambda: _deform(s), lambda: _dual_product(h, h.counit, h.counit),
              lambda: chi_maps(s), lambda: phi_psi_xi(s, uo),
              lambda: _comodule_galois(end)]
    for run in runs + checks:
        run()
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__"):
        inner = elem.__dict__[name]

        def counted(*args, inner=inner):
            calls.append(sys._getframe(1).f_code)
            return inner(*args)

        monkeypatch.setattr(elem, name, counted)
    return runs, checks, calls


def test_repeated_constructions_do_no_field_arithmetic(monkeypatch):
    """Once a cocycle and the modules have been used, a second sigma_module,
    convolve2, yd_tensor and eta over F₅ sum only plain ints: no FpElem
    +, - or * runs.  The YD-algebra checks, azumaya_check, H^σ's
    antipodes, the H* products, χ, φ, ψ, ξ and the Galois decisions run
    none in their lifted loops (lifted_loop_codes): the F_p operations
    they make are those of the code around the loops, such as the
    eliminations."""
    f = PrimeField(5)
    runs, checks, calls = guarded_runs(monkeypatch, f, fields.FpElem)
    assert f.one * f.one == 1 and calls      # the wrap counts
    del calls[:]
    for run in runs:
        run()
    assert calls == []
    for run in checks:
        run()
    lifted = lifted_loop_codes()
    assert calls and [c.co_name for c in calls if c in lifted] == []


def test_repeated_constructions_do_no_rational_arithmetic(monkeypatch):
    """The ℚ twin of the F₅ guard: σ₁, σ₁⁻¹ and R₁ carry halves, so the
    lifted tables of σ₁, of the σ̲ images and of the regular module sit at
    scales above 1, yet a second sigma_module, convolve2, yd_tensor and eta
    make no QFraction +, - or *, and the checks make none in their lifted
    loops: every non-integral value is lifted to ints over its table's
    common denominator, and only the reduction divides."""
    runs, checks, calls = guarded_runs(monkeypatch, fields.QQ,
                                       fields.QFraction)
    half = fields.QQ.ratio(1, 2)
    assert half * half == fields.QQ.ratio(1, 4) and calls   # the wrap counts
    del calls[:]
    for run in runs:
        run()
    assert calls == []
    for run in checks:
        run()
    lifted = lifted_loop_codes()
    assert [c.co_name for c in calls if c in lifted] == []


def test_equal_cocycles_compare_equal_after_one_builds_its_tables():
    h = sweedler_h4(PrimeField(5), verify=False)
    s = sigma_t(h, 1)
    twin = TwoCocycle(s.host, s.sigma, s.sigma_inv)
    sigma_module(s, regular_comodule_module(r_t(h, 1)))
    assert s._sigma_tables is not None and twin._sigma_tables is None
    assert s == twin
