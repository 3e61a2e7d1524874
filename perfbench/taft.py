"""Taft algebras T_n over F_p, built from their defining relations.

T_n has basis g^a x^b (0 <= a, b < n) with

    g^n = 1,  x^n = 0,  x g = q g x,
    Δg = g⊗g,  Δx = x⊗1 + g⊗x,  ε(g) = 1,  ε(x) = 0,
    S(g) = g^-1,  S(x) = -g^-1 x,

where q is a primitive n-th root of unity in F_p (so n must divide p - 1).
The coproduct of every basis element and the antipode are computed by
multiplying out these relations with the multiplication table, so the
only inputs are the relations themselves.  Sweedler's H₄ is T_2.
"""

from __future__ import annotations


def primitive_root_of_unity(n, p):
    """Smallest q in F_p whose multiplicative order is exactly n."""
    for q in range(2, p):
        order = next(k for k in range(1, p) if pow(q, k, p) == 1)
        if order == n:
            return q
    raise ValueError("F_%d has no primitive %d-th root of unity" % (p, n))


def taft_algebra(hl, n, p=13):
    """T_n over F_p as a hopflab HopfAlgebra (not verified here).

    `hl` is the namespace holding the imported hopflab modules (attributes
    `fields`, `linalg`, `hopf`).
    """
    field = hl.fields.PrimeField(p)
    q = primitive_root_of_unity(n, p)
    dim = n * n
    zero, one = field.zero, field.one

    def idx(a, b):
        return (a % n) * n + b

    mult = hl.linalg.Tensor.zeros(field, (dim, dim, dim))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n - b):
                    # (g^a x^b)(g^c x^d) = q^{bc} g^{a+c} x^{b+d}
                    flat = (idx(a, b) * dim + idx(c, d)) * dim + idx(a + c,
                                                                     b + d)
                    mult.data[flat] = field.from_int(pow(q, b * c, p))

    def mul(u, v):
        """Product of two sparse elements {basis index: coeff}."""
        out = {}
        for i, x in u.items():
            for j, y in v.items():
                base = (i * dim + j) * dim
                for k in range(dim):
                    c = mult.data[base + k]
                    if c:
                        out[k] = out.get(k, zero) + x * y * c
        return {k: c for k, c in out.items() if c}

    def mul2(u, v):
        """Product in H⊗H of sparse elements {(i, j): coeff}."""
        out = {}
        for (i1, j1), x in u.items():
            for (i2, j2), y in v.items():
                for k1, c1 in mul({i1: one}, {i2: one}).items():
                    for k2, c2 in mul({j1: one}, {j2: one}).items():
                        key = (k1, k2)
                        out[key] = out.get(key, zero) + x * y * c1 * c2
        return {k: c for k, c in out.items() if c}

    g, x, unit_idx = idx(1, 0), idx(0, 1), idx(0, 0)
    delta_g = {(g, g): one}
    delta_x = {(x, unit_idx): one, (g, x): one}
    comult = hl.linalg.Tensor.zeros(field, (dim, dim, dim))
    g_inv = {idx(n - 1, 0): one}
    s_x = mul({idx(0, 0): -one}, mul(g_inv, {x: one}))   # S(x) = -g^-1 x
    antipode = hl.linalg.Matrix.zeros(field, dim, dim)
    for a in range(n):
        for b in range(n):
            e = idx(a, b)
            d = {(unit_idx, unit_idx): one}
            s = {unit_idx: one}
            for _ in range(a):
                d = mul2(d, delta_g)
            for _ in range(b):
                d = mul2(d, delta_x)
                s = mul(s_x, s)            # S(x^b) = S(x)^b
            for _ in range(a):
                s = mul(s, g_inv)          # S(g^a x^b) = S(x^b) S(g^a)
            for (j, k), c in d.items():
                comult.data[(e * dim + j) * dim + k] = c
            for k, c in s.items():
                antipode.data[e][k] = c
    unit = [zero] * dim
    unit[unit_idx] = one
    counit = [one if b == 0 else zero for a in range(n) for b in range(n)]
    antipode_inv = hl.linalg.mat_inverse(antipode)
    names = ["g^%d x^%d" % (a, b) for a in range(n) for b in range(n)]
    return hl.hopf.HopfAlgebra(field, dim, names, mult, unit, comult, counit,
                               antipode, antipode_inv, name="taft%d" % n)
