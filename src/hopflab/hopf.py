"""Finite-dimensional Hopf algebras as structure constants.

Structure tensors follow the index conventions
    mult[i,j,k]   = coefficient of e_k in e_i·e_j
    comult[i,j,k] = coefficient of e_j⊗e_k in Δ(e_i)
    antipode.data[i][j] = coefficient of e_j in S(e_i)   (row-as-image)
and the unit/counit are coordinate (co)vectors of length n.  h.mul, h.delta
and h.antipodes (rows(0)[i] is S(e_i), rows(1)[i] S⁻¹(e_i)) read them
through the tensors' own linalg.Bilinear (Tensor.bilinear), so H^σ, which
keeps H's comult tensor, reads H's Δ tables.  An element of H built in a formula, such as
h₄m₁S⁻¹(h₂), is a sparse row as h.mul.row returns; h.product multiplies two,
and h.word_table() memoizes the words (e_c e_k)·S⁻¹(e_a), lifted, for
one call; h.lifted_copower(k) is Δ^(k-1) lifted, kept with the copowers.
The axioms read every product of basis vectors from h.mul's sparse rows;
no dense basis vector is multiplied.  Associativity and the action axioms
(first_action_mismatch), first_multiplicative_mismatch, comult_algebra_map,
counit_algebra_map and coassociativity and the comodule axiom
(first_coaction_mismatch) sum on Bilinear's lifted tables (lifted_rows,
lifted_terms, flat_tables; see fields.Field.lift), put both sides on one
scale (fields.complements and scaled) and reduce each coordinate once,
where it is compared (report.first_block_mismatch,
first_lifted_mismatch); their witnesses are those of the same sums on
field elements.

Each axiom shape that several verifiers decide has one check here, which
returns its first witness in nested-loop order: first_unit_mismatch for
the units of H, of YD modules and algebras and of 𝓗_R's −▷ and ◁−;
first_action_mismatch for the associativity of H and of YD algebras, the
YD module axiom and 𝓗_R's actions; first_coaction_mismatch for H's
coassociativity and the YD comodule axiom; first_antipode_mismatch for H
and for 𝓗_R's ⋆ and S_R (galois.verify_braided_hopf);
first_multiplicative_mismatch for a matrix taking one product to another:
hopf_map_checks' map_mult, galois.verify_sigma_wedge's η⁻¹ and
galois.verify_unit_deformation's χ*.
"""

from __future__ import annotations

import weakref

from .fields import complements, scaled
from .linalg import (Tensor, are_inverse, check_dim, check_shape,
                     linear_combination, mat_mul)
from .report import (CheckReport, first_block_mismatch, first_lifted_mismatch,
                     first_mismatch)


class HopfAlgebra:
    def __init__(self, field, dim, basis_names, mult, unit, comult, counit,
                 antipode, antipode_inv, name="H"):
        check_dim(dim)
        n = dim
        check_shape("mult", mult.shape, (n, n, n))
        check_shape("comult", comult.shape, (n, n, n))
        check_shape("unit", (len(unit),), (n,))
        check_shape("counit", (len(counit),), (n,))
        check_shape("antipode", (antipode.rows, antipode.cols), (n, n))
        check_shape("antipode_inv", (antipode_inv.rows, antipode_inv.cols),
                    (n, n))
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
        self.mul = mult.bilinear()
        self.delta = comult.bilinear()
        self.antipodes = Tensor(field, (2, n, n), antipode.entries
                                + antipode_inv.entries).bilinear()
        # k → [copower(i, k) for each i], and −k → lifted_copower(k); depends
        # on Δ alone, so twist._deform gives H^σ, built on H's Δ, this dict
        self._copower = {}
        self._dual = None       # set by dual_hopf: H*, or a weakref to H on H*

    def mul_vec(self, u, v):
        return self.mul.apply(u, v)

    def product(self, u, v):
        """uv as a sparse row, for u and v any [(k, c)] pairs (zeros and
        repeated k allowed), summed on field elements from h.mul's rows."""
        acc = [self.field.zero] * self.dim
        for i, x in u:
            ri = self.mul.rows(i)
            for j, y in v:
                for k, c in ri[j]:
                    acc[k] = acc[k] + x * y * c
        return [(k, c) for k, c in enumerate(acc) if c]

    def word_table(self):
        """(word, scale): a new, empty memo of the words (e_c e_k)·S⁻¹(e_a),
        lifted.  word(c, k, a) is h.product(h.mul.row(c, k), S⁻¹(e_a)) with
        its coefficients lifted over scale, the square of h.mul's lifted
        scale times h.antipodes', which every word's denominators divide;
        it is formed on first use and kept for the memo's life (callers
        must not change it).  One memo serves one call of a form that
        reads such words, where there are at most n³ of them but many more
        reads."""
        row, product, sinv = self.mul.row, self.product, self.antipodes.rows(1)
        lift = self.field.lift
        scale = (self.mul.lifted_rows()[1] ** 2
                 * self.antipodes.lifted_rows()[1])
        table = {}

        def word(c, k, a):
            got = table.get((c, k, a))
            if got is None:
                w = product(row(c, k), sinv[a])
                cs, d = lift([v for _, v in w])
                d = scale // d
                got = table[c, k, a] = [(k2, v * d)
                                        for (k2, _), v in zip(w, cs)]
            return got
        return word, scale

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
                    for j, k2, c2 in self.delta.terms(idx[-1]):
                        terms.append((idx[:-1] + (j, k2), c * c2))
                per_basis.append(terms)
            self._copower[k] = per_basis
        return per_basis[i]

    def lifted_copower(self, k):
        """(table, scale): [i] is copower(i, k) with its coefficients lifted
        over one scale, built once per k and kept with the copowers."""
        got = self._copower.get(-k)
        if got is None:
            terms = [self.copower(i, k) for i in range(self.dim)]
            cs, scale = self.field.lift([w for ts in terms for _, w in ts])
            it = iter(cs)
            got = self._copower[-k] = ([[(idx, next(it)) for idx, _ in ts]
                                        for ts in terms], scale)
        return got

    def counit_of(self, vec):
        s = self.field.zero
        for x, e in zip(vec, self.counit):
            if x and e:
                s = s + x * e
        return s

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
    mul, delta, e = h.mul, h.delta, h.basis_vec
    every = range(n)

    bad = first_action_mismatch(mul, mul)
    rep.add("associativity", bad is None, bad)
    bad = first_unit_mismatch(h.unit, mul, two_sided=True)
    rep.add("unit", bad is None, bad)
    bad = first_coaction_mismatch(delta, delta)
    rep.add("coassociativity", bad is None, bad)

    def counit(i):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in delta.terms(i):
            if h.counit[j]:
                left[k] = left[k] + c * h.counit[j]
            if h.counit[k]:
                right[j] = right[j] + c * h.counit[k]
        return (left, right), (e(i), e(i))

    bad = first_mismatch((every,), counit)
    rep.add("counit", bad is None, bad)

    (rows, sm), (terms, sd) = mul.lifted_rows(), delta.lifted_terms()
    # the left side is at scale sm·sd, the right one at sd²·sm²
    lrows = scaled(rows, sm * sd)

    # Δ(e_i e_j) and Δ(e_i)Δ(e_j), keyed a·n+b for e_a⊗e_b
    def comult_of_product(i, j):
        lhs = {}
        for k, c in lrows[i][j]:
            for a, b, c2 in terms[k]:
                key = a * n + b
                lhs[key] = lhs.get(key, 0) + c * c2
        rhs = {}
        for a1, b1, c1 in terms[i]:
            for a2, b2, c2 in terms[j]:
                for a, ca in rows[a1][a2]:
                    c3 = c1 * c2 * ca
                    for b, cb in rows[b1][b2]:
                        key = a * n + b
                        rhs[key] = rhs.get(key, 0) + c3 * cb
        return lhs, rhs

    bad = first_lifted_mismatch(f, (every,) * 2, comult_of_product, (n,))
    if bad is None:
        # Δ(1) − 1⊗1, one row {b: coefficient of e_a⊗e_b} per a
        unit, su = f.lift(h.unit)
        k1, kd = complements(su * su, su * sd)
        du = [{b: -x * y * k1 for b, y in enumerate(unit)} for x in unit]
        for j, x in enumerate(unit):
            if x:
                for a, b, c in terms[j]:
                    du[a][b] += x * c * kd
        bad = first_block_mismatch(f, (every,), du.__getitem__, 1)
    rep.add("comult_algebra_map", bad is None, bad)

    eps, se = f.lift(h.counit)
    k1, km = complements(se * se, sm * se)
    eps1, epsm = scaled(eps, k1), scaled(eps, km)

    def counit_of_products(i):
        # ε(e_i e_j) − ε(e_i)ε(e_j), one row per j
        out = {}
        for j in every:
            s = -eps1[i] * eps[j]
            for k, c in rows[i][j]:
                s += c * epsm[k]
            out[j] = s
        return out

    bad = first_block_mismatch(f, (every,), counit_of_products, 1)
    if bad is None:
        bad = first_mismatch((), lambda: (h.counit_of(h.unit), f.one))
    rep.add("counit_algebra_map", bad is None, bad)

    bad = first_antipode_mismatch(h, mul, h.antipode)
    rep.add("antipode", bad is None, bad)

    rep.add("antipode_inverse", are_inverse(h.antipode, h.antipode_inv))
    return rep


# -- the shared axiom checks (see the module docstring for their callers) -----

def first_unit_mismatch(unit, act, two_sided=False):
    """The first p at which 1 = Σ unit_t e_t does not act as the identity,
    1·v_p ≠ v_p, or None.

    act[t,p,:] is e_t·v_p (or v_p◁e_t for a right action).  With two_sided,
    act is an algebra's own product and v_p·1 = v_p is checked at the same
    p.  Both sides are summed from act's sparse rows.
    """
    f = act.field
    m = act.shape[2]
    terms = [(t, x) for t, x in enumerate(unit) if x]

    def sides(p):
        e = [f.zero] * m
        e[p] = f.one
        left = linear_combination(f, m, ((x, act.row(t, p)) for t, x in terms))
        if not two_sided:
            return left, e
        return (left, linear_combination(f, m, ((x, act.row(p, t))
                                                for t, x in terms))), (e, e)

    return first_mismatch((range(act.shape[1]),), sides)


def first_coaction_mismatch(delta, coact):
    """The first p at which (ρ⊗id)ρ(v_p) and (id⊗Δ)ρ(v_p) differ, followed by
    the first differing key (q, k1, k2) of v_q⊗e_k1⊗e_k2, or None.

    coact[p,q,k] is the coefficient of v_q⊗e_k in ρ(v_p); with coact = delta
    this is Δ's coassociativity.  Both sides are summed from the lifted
    terms of coact and delta, keyed q·n² + k1·n + k2 and filled in the
    order of the tuple-keyed dicts whose first_mismatch is the witness
    (report.first_lifted_mismatch).
    """
    (terms, sc), (dterms, sd) = coact.lifted_terms(), delta.lifted_terms()
    kc, kd = complements(sc * sc, sc * sd)
    outer, dterms = scaled(terms, kc), scaled(dterms, kd)
    n = coact.shape[2]
    nn = n * n

    def sides(p):
        lhs = {}
        for q0, k, c in outer[p]:
            for q1, k1, c1 in terms[q0]:
                key = q1 * nn + k1 * n + k
                lhs[key] = lhs.get(key, 0) + c * c1
        rhs = {}
        for q0, k, c in terms[p]:
            for a, b, c2 in dterms[k]:
                key = q0 * nn + a * n + b
                rhs[key] = rhs.get(key, 0) + c * c2
        return lhs, rhs

    return first_lifted_mismatch(coact.field, (range(coact.shape[0]),),
                                 sides, (n, n))


def first_antipode_mismatch(h, mul, antipode):
    """The first i at which m∘(S⊗id)∘Δ(e_i), ε(e_i)1 and m∘(id⊗S)∘Δ(e_i)
    are not all equal, or None.

    Δ, ε and 1 are h's; m is the product mul (sparse rows) and S the
    row-as-image matrix antipode: h's own for a Hopf algebra, ⋆ and S_R
    for 𝓗_R.
    """
    f, n, s = h.field, h.dim, antipode.data

    def sides(i):
        terms = h.delta.terms(i)
        left = linear_combination(f, n, (
            (c * c2, mul.row(t, k)) for j, k, c in terms
            for t, c2 in enumerate(s[j]) if c2))
        right = linear_combination(f, n, (
            (c * c2, mul.row(j, t)) for j, k, c in terms
            for t, c2 in enumerate(s[k]) if c2))
        want = [h.counit[i] * x for x in h.unit]
        return (left, right), (want, want)

    return first_mismatch((range(n),), sides)


def first_action_mismatch(mul, act, right=False):
    """The first (i, j, p), in product order, at which (e_i e_j)·v_p and
    e_i·(e_j·v_p) differ, or None.

    act[i,p,:] is e_i·v_p for the algebra with product mul; with right it
    is v_p◁e_i, and the sides are v_p◁(e_i e_j) and (v_p◁e_i)◁e_j.  Each
    (i, j) block of every p is one sparse dict keyed p·m+q: the left side
    is Σ_t (e_i e_j)_t · act.flat_tables()[t], the right side is summed
    from act's lifted terms and rows, and p is the least row of the first
    block that differs.
    """
    m = act.shape[2]
    (rows, sa), (products, sm) = act.lifted_rows(), mul.lifted_rows()
    flat = act.flat_tables()[0]
    # the left side is at scale sm·sa, the right one at sa²
    kl, kr = complements(sm * sa, sa * sa)
    products = scaled(products, kl)
    # act's lifted terms (p·m, t, c) of e_i·v_p = Σ c v_t
    inners = [[(p * m, t, c) for p, t, c in terms]
              for terms in scaled(act.lifted_terms()[0], kr)]

    def block(i, j):
        diff = {}
        for t, c in products[i][j]:
            for k, w in flat[t].items():
                diff[k] = diff.get(k, 0) + c * w
        inner, outer = (inners[i], rows[j]) if right else (inners[j], rows[i])
        for base, t, c in inner:
            for q, w in outer[t]:
                k = base + q
                diff[k] = diff.get(k, 0) - c * w
        return diff

    return first_block_mismatch(act.field,
                                (range(mul.shape[0]),) * 2, block, m)


def first_multiplicative_mismatch(mul, image_mul, m):
    """The first (u, v), in product order, at which the row-as-image matrix
    m does not take the product mul to image_mul, m(e_u e_v) ≠ m(e_u)m(e_v),
    or None.

    Each u is one block over every v, keyed v·m.cols + c and summed from
    m's lifted nonzero rows: Σ_k (e_u e_v)_k m(e_k) from mul's lifted rows
    minus m(e_u)m(e_v) from image_mul's.
    """
    width = m.cols
    rows, s = m.lifted_nonzeros()
    (products, sm), (images, si) = mul.lifted_rows(), image_mul.lifted_rows()
    # the left side is at scale sm·s, the right one at s²·si
    kl, kr = complements(sm * s, s * s * si)
    products, images = scaled(products, kl), scaled(images, kr)

    def block(u):
        diff = {}
        for v, uv in enumerate(products[u]):
            base = v * width
            for k, c in uv:
                for col, w in rows[k]:
                    key = base + col
                    diff[key] = diff.get(key, 0) + c * w
            for a, x in rows[u]:
                image_a = images[a]
                for b, y in rows[v]:
                    xy = x * y
                    for col, w in image_a[b]:
                        key = base + col
                        diff[key] = diff.get(key, 0) - xy * w
        return diff

    return first_block_mismatch(m.field, (range(m.rows),), block, width)


def dual_hopf(h):
    """The dual Hopf algebra on the dual basis, built once per host object.

    h keeps its dual, and the dual keeps a weak reference back to h, so
    dual_hopf(dual_hopf(h)) is h while h is alive, and no reference cycle
    keeps either alive: both are freed by reference counting alone.
    """
    dual = h._dual
    if isinstance(dual, weakref.ref):
        dual = dual()
    if dual is not None:
        return dual
    # (δ_i·δ_j)(e_k) = ⟨δ_i⊗δ_j, Δ(e_k)⟩ and Δ*(δ_k) = Σ mult[i,j,k] δ_i⊗δ_j
    dual = HopfAlgebra(
        field=h.field, dim=h.dim,
        basis_names=[nm + "*" for nm in h.basis_names],
        mult=h.comult.permuted((1, 2, 0)), unit=list(h.counit),
        comult=h.mult.permuted((2, 0, 1)), counit=list(h.unit),
        antipode=h.antipode.transpose(),
        antipode_inv=h.antipode_inv.transpose(),
        name=h.name + "*")
    h._dual, dual._dual = dual, weakref.ref(h)
    return dual


def hopf_map_checks(src, dst, m):
    """Is the row-as-image matrix m: src → dst a bialgebra/Hopf map?

    Reports the mult/unit/comult/counit/antipode intertwining checks.
    """
    rep = CheckReport()
    zero = dst.field.zero
    every = range(src.dim)
    bad = first_multiplicative_mismatch(src.mul, dst.mul, m)
    rep.add("map_mult", bad is None, bad)
    rep.add("map_unit", linear_combination(dst.field, dst.dim, (
        (x, enumerate(m.data[r])) for r, x in enumerate(src.unit) if x))
        == dst.unit)

    def comult(i):
        lhs = [[zero] * dst.dim for _ in range(dst.dim)]
        for j, k, c in src.delta.terms(i):
            for a, ca in enumerate(m.data[j]):
                if not ca:
                    continue
                for b, cb in enumerate(m.data[k]):
                    if cb:
                        lhs[a][b] = lhs[a][b] + c * ca * cb
        rhs = [[zero] * dst.dim for _ in range(dst.dim)]
        for t, c in enumerate(m.data[i]):
            if not c:
                continue
            for a, b, c2 in dst.delta.terms(t):
                rhs[a][b] = rhs[a][b] + c * c2
        return lhs, rhs

    bad = first_mismatch((every,), comult)
    rep.add("map_comult", bad is None, bad)
    bad = first_mismatch((every,), lambda i: (
        dst.counit_of(m.data[i]), src.counit[i]))
    rep.add("map_counit", bad is None, bad)
    rep.add("map_antipode",
            mat_mul(src.antipode, m) == mat_mul(m, dst.antipode))
    return rep
