"""Built-in verified instances: Sweedler's 4-dimensional Hopf algebra with
its cocycle/braiding families, the group algebra kC₂, and derived
Yetter-Drinfeld modules and algebras used by the test suites.

H₄ basis order is fixed as (1, g, h, gh); all tabulated entries refer to it.
Every entry is verified by its type's checker when built.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def sigma_t(h4, t, verify=True):
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
    c = _twist.two_cocycle(h4, sig)
    if verify:
        _twist.verify_two_cocycle(c).require("sigma_t(%s)" % t)
    return c


def r_t(h4, t, verify=True):
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
    c = _cqt.cqt_structure(h4, r)
    if verify:
        _cqt.verify_cqt(c).require("r_t(%s)" % t)
    return c


def theta_t(h4, t, verify=True):
    """Lazy dual 2-cocycle θ_t = 1⊗1 + (t/2)·h⊗gh."""
    f = h4.field
    t = t if not isinstance(t, int) else f.from_int(t)
    th = Matrix.zeros(f, 4, 4)
    th.data[0][0] = f.one
    th.data[2][3] = t * f.ratio(1, 2)
    d = _twist.dual_cocycle(h4, th)
    if verify:
        _twist.verify_dual_cocycle(d).require("theta_t(%s)" % t)
    return d


def qt_t(h4, t, verify=True):
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
    q = _cqt.qt_structure(h4, rr)
    if verify:
        _cqt.verify_qt(q).require("qt_t(%s)" % t)
    return q


def cqt_c2(kc2, sign, verify=True):
    """CQT structure on kC₂ with R(g⊗g) = sign ∈ {1, -1}."""
    f = kc2.field
    sign = sign if not isinstance(sign, int) else f.from_int(sign)
    if sign != f.one and sign != -f.one:
        raise ValueError("sign must be +-1")
    r = Matrix.from_rows(f, [[f.one, f.one], [f.one, sign]])
    c = _cqt.cqt_structure(kc2, r)
    if verify:
        _cqt.verify_cqt(c).require("cqt_c2")
    return c


def qt_c2(kc2, verify=True):
    """ℛ = ½(1⊗1 + 1⊗g + g⊗1 - g⊗g) on kC₂."""
    f = kc2.field
    _require_odd_char(f, "qt_c2")
    half = f.ratio(1, 2)
    rr = Matrix.from_rows(f, [[half, half], [half, -half]])
    q = _cqt.qt_structure(kc2, rr)
    if verify:
        _cqt.verify_qt(q).require("qt_c2")
    return q


def one_cocycle_c2(kc2, c):
    """Central μ on kC₂ with μ(1)=1, μ(g)=c (c invertible)."""
    f = kc2.field
    c = c if not isinstance(c, int) else f.from_int(c)
    return _twist.lazy_one_cocycle(kc2, [f.one, c])


def h4_character_mu(h4):
    """The algebra character μ = (1↦1, g↦-1, h,gh↦0) of H₄ (not central)."""
    f = h4.field
    return [f.one, -f.one, f.zero, f.zero]


# -- derived YD instances ---------------------------------------------------

def regular_comodule_module(c):
    """H as a right comodule over itself via Δ, with the R-induced action."""
    host = c.host
    n = host.dim
    coaction = Tensor(host.field, (n, n, n), list(host.comult.data))
    return _cqt.yd_from_comodule(c, coaction)


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


def trivial_algebra(host):
    """The ground field as a YD module algebra."""
    m = trivial_module(host, 1)
    f = host.field
    return _yd.YdAlgebra(m, Tensor(f, (1, 1, 1), [f.one]), [f.one])


def regular_galois_algebra(host, verify=True):
    """(H, opposite multiplication) as a right H^op-comodule algebra with
    coaction Δ and the adjoint action h·a = Σ h₂ a S⁻¹(h₁).

    This is the Hopf-Galois extension k ⊂ H with its Miyashita-Ulbrich
    Yetter-Drinfeld structure; H with its own multiplication is not an
    H^op-comodule algebra unless H is commutative.
    """
    f = host.field
    n = host.dim
    mult = Tensor.zeros(f, (n, n, n))
    for i in range(n):
        for j in range(n):
            row = host.mul.dense_row(j, i)
            for k in range(n):
                mult.data[(i * n + j) * n + k] = row[k]
    coaction = Tensor(f, (n, n, n), list(host.comult.data))
    action = Tensor.zeros(f, (n, n, n))
    for i in range(n):
        for p in range(n):
            acc = [f.zero] * n
            for a, b, c in host.delta.terms(i):
                v = host.mul_vec(host.mul.dense_row(b, p), host.Sinv_basis(a))
                for k, x in enumerate(v):
                    if x:
                        acc[k] = acc[k] + c * x
            for k in range(n):
                action.data[(i * n + p) * n + k] = acc[k]
    mod = _yd.YdModule(host, n, action, coaction)
    alg = _yd.YdAlgebra(mod, mult, list(host.unit))
    if verify:
        _yd.verify_yd_algebra(alg).require("regular_galois_algebra")
    return alg


def end_regular(c, verify=False):
    """End(M) for M the regular comodule with the R-induced action."""
    return _yd.end_algebra(regular_comodule_module(c), verify=verify)


def unit_object(host, verify=False):
    return _galois.unit_object(host, verify=verify)


# -- registry ---------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    params: list
    payload: object
    provenance: str
    kind: str


_T_DEFAULT = 1


def catalog_entries(field=QQ, t=None):
    """All named entries, verified at construction."""
    entries = []
    tval = _T_DEFAULT if t is None else t
    h4 = sweedler_h4(field)
    kc2 = group_algebra_c2(field)
    entries.append(CatalogEntry("h4", [], h4, "PAPER", "hopf"))
    entries.append(CatalogEntry("kc2", [], kc2, "TRIVIAL", "hopf"))
    entries.append(CatalogEntry("k", [], dim1_hopf(field), "TRIVIAL", "hopf"))
    entries.append(CatalogEntry("h4_dual", [], dual_hopf(h4),
                                "PAPER", "hopf"))
    entries.append(CatalogEntry("sigma_t", [tval], sigma_t(h4, tval),
                                "PAPER", "cocycle"))
    entries.append(CatalogEntry("r_t", [tval], r_t(h4, tval),
                                "PAPER", "cqt"))
    entries.append(CatalogEntry("theta_t", [tval], theta_t(h4, tval),
                                "PAPER", "dual_cocycle"))
    entries.append(CatalogEntry("qt_t", [tval], qt_t(h4, tval),
                                "PAPER", "qt"))
    entries.append(CatalogEntry("cqt_c2_minus", [], cqt_c2(kc2, -1),
                                "DERIVED", "cqt"))
    entries.append(CatalogEntry("cqt_c2_plus", [], cqt_c2(kc2, 1),
                                "TRIVIAL", "cqt"))
    if field.char != 2:
        entries.append(CatalogEntry("qt_c2", [], qt_c2(kc2),
                                    "DERIVED", "qt"))
    rt = r_t(h4, tval, verify=False)
    m_reg = regular_comodule_module(rt)
    _yd.verify_yd(m_reg).require("regular module")
    entries.append(CatalogEntry("yd_regular_r", [tval], m_reg,
                                "DERIVED", "yd_module"))
    entries.append(CatalogEntry("yd_trivial", [], trivial_module(h4),
                                "TRIVIAL", "yd_module"))
    uo = unit_object(h4, verify=True)
    entries.append(CatalogEntry("unit_object", [], uo,
                                "DERIVED", "yd_algebra"))
    ea = end_regular(rt, verify=True)
    entries.append(CatalogEntry("end_regular", [tval], ea,
                                "DERIVED", "yd_algebra"))
    entries.append(CatalogEntry("regular_galois_algebra", [],
                                regular_galois_algebra(h4),
                                "DERIVED", "yd_algebra"))
    return entries


def get_entry(name, field=QQ, t=None):
    for e in catalog_entries(field, t):
        if e.name == name:
            return e
    raise KeyError("no catalog entry named %r" % name)


def catalog_names():
    return ["h4", "kc2", "k", "h4_dual", "sigma_t", "r_t", "theta_t",
            "qt_t", "cqt_c2_minus", "cqt_c2_plus", "qt_c2", "yd_regular_r",
            "yd_trivial", "unit_object", "end_regular",
            "regular_galois_algebra"]
