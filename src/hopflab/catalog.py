"""Built-in verified instances: Sweedler's 4-dimensional Hopf algebra with
its cocycle/braiding families, the group algebra kC₂, and derived
Yetter-Drinfeld modules and algebras used by the test suites.

H₄ basis order is fixed as (1, g, h, gh); all tabulated entries refer to it.
The builders construct and do not verify; only sweedler_h4 and
group_algebra_c2 take a `verify` keyword.  The registry verifies every
entry when it is built, with its type's checker and the entry's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import QQ, FieldError
from .hopf import HopfAlgebra, dual_hopf, verify_hopf_axioms
from .linalg import Matrix, Tensor
from . import twist as _twist
from . import quasitriangular as _cqt
from . import yd as _yd
from . import galois as _galois


def _require_odd_char(field, what):
    if field.char == 2:
        raise FieldError("%s needs characteristic != 2" % what)


def sweedler_h4(field=QQ, verify=True):
    """Sweedler's H₄: g²=1, h²=0, gh+hg=0, Δg=g⊗g, Δh=1⊗h+h⊗g."""
    _require_odd_char(field, "sweedler_h4")
    f = field
    one, zero = f.one, f.zero
    n = 4  # basis: 1, g, h, gh
    names = ["1", "g", "h", "gh"]
    mult = Tensor.zeros(f, (n, n, n))

    def setm(i, j, k, c):
        mult.data[(i * n + j) * n + k] = c

    # left/right unit
    for i in range(n):
        setm(0, i, i, one)
        if i:
            setm(i, 0, i, one)
    setm(1, 1, 0, one)          # g·g = 1
    setm(1, 2, 3, one)          # g·h = gh
    setm(1, 3, 2, one)          # g·gh = h
    setm(2, 1, 3, -one)         # h·g = -gh
    setm(3, 1, 2, -one)         # gh·g = -h
    # h·h = h·gh = gh·h = gh·gh = 0

    comult = Tensor.zeros(f, (n, n, n))

    def setc(i, j, k, c):
        comult.data[(i * n + j) * n + k] = c

    setc(0, 0, 0, one)                  # Δ1 = 1⊗1
    setc(1, 1, 1, one)                  # Δg = g⊗g
    setc(2, 0, 2, one)                  # Δh = 1⊗h + h⊗g
    setc(2, 2, 1, one)
    setc(3, 1, 3, one)                  # Δ(gh) = g⊗gh + gh⊗1
    setc(3, 3, 0, one)

    unit = [one, zero, zero, zero]
    counit = [one, one, zero, zero]

    s = Matrix.zeros(f, n, n)
    s.data[0][0] = one            # S(1) = 1
    s.data[1][1] = one            # S(g) = g
    s.data[2][3] = one            # S(h) = gh
    s.data[3][2] = -one           # S(gh) = -h
    s_inv = Matrix.zeros(f, n, n)
    s_inv.data[0][0] = one
    s_inv.data[1][1] = one
    s_inv.data[2][3] = -one       # S⁻¹(h) = -gh
    s_inv.data[3][2] = one        # S⁻¹(gh) = h

    h4 = HopfAlgebra(f, n, names, mult, unit, comult, counit, s, s_inv,
                     name="H4")
    if verify:
        verify_hopf_axioms(h4).require("sweedler_h4")
    return h4


def group_algebra_c2(field=QQ, verify=True):
    """kC₂ = k[g]/(g²-1) with Δg = g⊗g."""
    f = field
    one, zero = f.one, f.zero
    n = 2
    mult = Tensor.zeros(f, (n, n, n))
    mult.data[(0 * n + 0) * n + 0] = one
    mult.data[(0 * n + 1) * n + 1] = one
    mult.data[(1 * n + 0) * n + 1] = one
    mult.data[(1 * n + 1) * n + 0] = one
    comult = Tensor.zeros(f, (n, n, n))
    comult.data[(0 * n + 0) * n + 0] = one
    comult.data[(1 * n + 1) * n + 1] = one
    unit = [one, zero]
    counit = [one, one]
    ident = Matrix.identity(f, n)
    kc2 = HopfAlgebra(f, n, ["1", "g"], mult, unit, comult, counit,
                      ident, Matrix.identity(f, n), name="kC2")
    if verify:
        verify_hopf_axioms(kc2).require("group_algebra_c2")
    return kc2


def dim1_hopf(field=QQ):
    """The ground field as a Hopf algebra."""
    f = field
    one = f.one
    mult = Tensor(f, (1, 1, 1), [one])
    comult = Tensor(f, (1, 1, 1), [one])
    ident = Matrix.identity(f, 1)
    return HopfAlgebra(f, 1, ["1"], mult, [one], comult, [one], ident,
                       Matrix.identity(f, 1), name="k")


# -- Example families on H₄ -----------------------------------------------

def sigma_t(h4, t):
    """Lazy 2-cocycle σ_t; rows/cols in basis order (1, g, h, gh)."""
    f = h4.field
    t = t if not isinstance(t, int) else f.from_int(t)
    half = f.ratio(1, 2)
    one, zero = f.one, f.zero
    th = t * half
    rows = [
        [one, one, zero, zero],
        [one, one, zero, zero],
        [zero, zero, th, -th],
        [zero, zero, th, -th],
    ]
    sig = Matrix.from_rows(f, rows)
    return _twist.two_cocycle(h4, sig)


def r_t(h4, t):
    """CQT structure R_t of H₄."""
    f = h4.field
    t = t if not isinstance(t, int) else f.from_int(t)
    one, zero = f.one, f.zero
    rows = [
        [one, one, zero, zero],
        [one, -one, zero, zero],
        [zero, zero, t, -t],
        [zero, zero, t, t],
    ]
    r = Matrix.from_rows(f, rows)
    return _cqt.cqt_structure(h4, r)


def theta_t(h4, t):
    """Lazy dual 2-cocycle θ_t = 1⊗1 + (t/2)·h⊗gh."""
    f = h4.field
    t = t if not isinstance(t, int) else f.from_int(t)
    th = Matrix.zeros(f, 4, 4)
    th.data[0][0] = f.one
    th.data[2][3] = t * f.ratio(1, 2)
    return _twist.dual_cocycle(h4, th)


def qt_t(h4, t):
    """QT structure ℛ_t of H₄ (ℛ_0 is the group-algebra summand)."""
    f = h4.field
    t = t if not isinstance(t, int) else f.from_int(t)
    half = f.ratio(1, 2)
    th = t * half
    rr = Matrix.zeros(f, 4, 4)
    # 1/2 (1⊗1 + 1⊗g + g⊗1 - g⊗g)
    rr.data[0][0] = half
    rr.data[0][1] = half
    rr.data[1][0] = half
    rr.data[1][1] = -half
    # (t/2)(1⊗1 + g⊗g + 1⊗g - g⊗1)(h⊗h)
    #   = (t/2)(h⊗h + gh⊗gh + h⊗gh - gh⊗h)
    rr.data[2][2] = th
    rr.data[3][3] = th
    rr.data[2][3] = th
    rr.data[3][2] = -th
    return _cqt.qt_structure(h4, rr)


def cqt_c2(kc2, sign):
    """CQT structure on kC₂ with R(g⊗g) = sign ∈ {1, -1}."""
    f = kc2.field
    sign = sign if not isinstance(sign, int) else f.from_int(sign)
    if sign != f.one and sign != -f.one:
        raise ValueError("sign must be +-1")
    r = Matrix.from_rows(f, [[f.one, f.one], [f.one, sign]])
    return _cqt.cqt_structure(kc2, r)


def qt_c2(kc2):
    """ℛ = ½(1⊗1 + 1⊗g + g⊗1 - g⊗g) on kC₂."""
    f = kc2.field
    _require_odd_char(f, "qt_c2")
    half = f.ratio(1, 2)
    rr = Matrix.from_rows(f, [[half, half], [half, -half]])
    return _cqt.qt_structure(kc2, rr)


def one_cocycle_c2(kc2, c):
    """Central μ on kC₂ with μ(1)=1, μ(g)=c (c invertible)."""
    f = kc2.field
    c = c if not isinstance(c, int) else f.from_int(c)
    return _twist.lazy_one_cocycle(kc2, [f.one, c])


# -- derived YD instances ---------------------------------------------------

def regular_comodule_module(c):
    """H as a right comodule over itself via Δ, with the R-induced action."""
    host = c.host
    n = host.dim
    coaction = Tensor(host.field, (n, n, n), list(host.comult.data))
    mod = _cqt.yd_from_comodule(c, coaction)
    _yd.verify_yd(mod).require("yd_from_comodule")
    return mod


def trivial_module(host, dim=1):
    """ε-action and (· ⊗ 1)-coaction."""
    f = host.field
    n = host.dim
    action = Tensor.zeros(f, (n, dim, dim))
    for i in range(n):
        for p in range(dim):
            action.data[(i * dim + p) * dim + p] = host.counit[i]
    coaction = Tensor.zeros(f, (dim, dim, n))
    for p in range(dim):
        for k, x in enumerate(host.unit):
            coaction.data[(p * dim + p) * n + k] = x
    return _yd.YdModule(host, dim, action, coaction)


def regular_galois_algebra(host):
    """(H, opposite multiplication) as a right H^op-comodule algebra on
    H's adjoint module (coaction Δ, action h·a = Σ h₂ a S⁻¹(h₁)).

    This is the Hopf-Galois extension k ⊂ H with its Miyashita-Ulbrich
    Yetter-Drinfeld structure; H with its own multiplication is not an
    H^op-comodule algebra unless H is commutative.
    """
    return _yd.YdAlgebra(_galois.adjoint_module(host),
                         host.mult.permuted((1, 0, 2)), list(host.unit))


def end_regular(c):
    """End(M) for M the regular comodule with the R-induced action."""
    return _yd.end_algebra(regular_comodule_module(c))


# -- registry ---------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    payload: object


_T_DEFAULT = 1


class _Parts:
    """What the entries are built from, each built on first use: H₄ and kC₂
    verified, R_t not (the entries built from it verify what they build)."""

    def __init__(self, field, t):
        self.field = field
        self.t = _T_DEFAULT if t is None else t

    h4 = cached_property(lambda self: sweedler_h4(self.field))
    kc2 = cached_property(lambda self: group_algebra_c2(self.field))
    rt = cached_property(lambda self: r_t(self.h4, self.t))


def _verified(check, what, obj):
    check(obj).require(what)
    return obj


# (name, builder) in catalog order.  The registry checks each entry with
# its type's checker, naming the entry in the error; h4 and kc2 are
# verified by sweedler_h4 and group_algebra_c2, and yd_regular_r by
# regular_comodule_module's precondition.
_REGISTRY = (
    ("h4", lambda p: p.h4),
    ("kc2", lambda p: p.kc2),
    ("k", lambda p: _verified(verify_hopf_axioms, "k", dim1_hopf(p.field))),
    ("h4_dual", lambda p: _verified(verify_hopf_axioms, "h4_dual",
                                    dual_hopf(p.h4))),
    ("sigma_t", lambda p: _verified(_twist.verify_two_cocycle, "sigma_t",
                                    sigma_t(p.h4, p.t))),
    ("r_t", lambda p: _verified(_cqt.verify_cqt, "r_t", r_t(p.h4, p.t))),
    ("theta_t", lambda p: _verified(_twist.verify_dual_cocycle, "theta_t",
                                    theta_t(p.h4, p.t))),
    ("qt_t", lambda p: _verified(_cqt.verify_qt, "qt_t", qt_t(p.h4, p.t))),
    ("cqt_c2_minus", lambda p: _verified(_cqt.verify_cqt, "cqt_c2_minus",
                                         cqt_c2(p.kc2, -1))),
    ("cqt_c2_plus", lambda p: _verified(_cqt.verify_cqt, "cqt_c2_plus",
                                        cqt_c2(p.kc2, 1))),
    ("qt_c2", lambda p: _verified(_cqt.verify_qt, "qt_c2", qt_c2(p.kc2))),
    ("yd_regular_r", lambda p: regular_comodule_module(p.rt)),
    ("yd_trivial", lambda p: _verified(_yd.verify_yd, "yd_trivial",
                                       trivial_module(p.h4))),
    ("unit_object", lambda p: _verified(
        _yd.verify_yd_algebra, "unit_object", _galois.unit_object(p.h4))),
    ("end_regular", lambda p: _verified(
        _yd.verify_yd_algebra, "end_regular", end_regular(p.rt))),
    ("regular_galois_algebra", lambda p: _verified(
        _yd.verify_yd_algebra, "regular_galois_algebra",
        regular_galois_algebra(p.h4))),
)


def catalog_entries(field=QQ, t=None):
    """All named entries, verified at construction."""
    parts = _Parts(field, t)
    return [CatalogEntry(name, build(parts)) for name, build in _REGISTRY]


def get_entry(name, field=QQ, t=None):
    """One entry, built and verified with only what it is built from."""
    build = dict(_REGISTRY).get(name)
    if build is None:
        raise KeyError("no catalog entry named %r" % name)
    return CatalogEntry(name, build(_Parts(field, t)))


def catalog_names():
    return [name for name, _ in _REGISTRY]
