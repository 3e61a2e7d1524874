"""Catalog entries: tabulated values, provenance-level verification at
load, and characteristic guards."""

import pytest

from hopflab.fields import QQ, FieldError, PrimeField
from hopflab.linalg import mat_mul
from hopflab import catalog as cat
from hopflab.report import VerificationError
from reference import dense_row


def test_h4_multiplication_table(h4):
    # h·g = -gh
    assert dense_row(h4.mult, 2, 1) == [QQ.zero, QQ.zero, QQ.zero, -QQ.one]
    # g·h = gh, g·gh = h, gh·g = -h
    assert dense_row(h4.mult, 1, 2)[3] == QQ.one
    assert dense_row(h4.mult, 1, 3)[2] == QQ.one
    assert dense_row(h4.mult, 3, 1)[2] == -QQ.one
    # h² = 0 and (gh)² = 0
    assert not any(dense_row(h4.mult, 2, 2))
    assert not any(dense_row(h4.mult, 3, 3))


def test_h4_antipode_square_is_minus_one_on_h(h4):
    ss = mat_mul(h4.antipode, h4.antipode)
    assert ss.data[2] == [QQ.zero, QQ.zero, -QQ.one, QQ.zero]
    assert ss.data[1] == [QQ.zero, QQ.one, QQ.zero, QQ.zero]


def test_r_table_values(h4):
    r1 = cat.r_t(h4, 1)
    assert r1.r.data[2][3] == -QQ.one        # R_1(h⊗gh) = -t = -1
    assert r1.r.data[1][1] == -QQ.one        # R(g⊗g) = -1
    r2 = cat.r_t(h4, 2)
    assert r2.r.data[3][2] == QQ.from_int(2)  # R_t(gh⊗h) = t


def test_sigma_table_values(h4):
    s2 = cat.sigma_t(h4, 2)
    assert s2.sigma.data[3][3] == -QQ.one     # σ_2(gh⊗gh) = -t/2 = -1
    assert s2.sigma.data[2][2] == QQ.one      # σ_2(h⊗h) = t/2 = 1


def test_theta_values(h4):
    from hopflab.hopf import dual_hopf
    from hopflab.twist import eps_eps
    th0 = cat.theta_t(h4, 0)
    assert th0.theta == eps_eps(dual_hopf(h4))
    th2 = cat.theta_t(h4, 2)
    assert th2.theta.data[2][3] == QQ.one     # coefficient of h⊗gh is t/2


def test_qt_t_zero_is_group_summand(h4):
    q0 = cat.qt_t(h4, 0)
    half = QQ.ratio(1, 2)
    assert q0.rr.data[0][0] == half
    assert q0.rr.data[1][1] == -half
    assert not q0.rr.data[2][2]


def test_char2_rejected():
    with pytest.raises(FieldError):
        cat.sweedler_h4(PrimeField(2))
    h5 = cat.sweedler_h4(PrimeField(5))
    assert h5.dim == 4


def test_cqt_c2_sign_validation(kc2):
    with pytest.raises(ValueError):
        cat.cqt_c2(kc2, 3)


def test_all_entries_verify_for_sampled_t():
    for t in (-2, -1, 0, 1, 2, 3):
        entries = cat.catalog_entries(QQ, t)
        names = {e.name for e in entries}
        assert {"h4", "sigma_t", "r_t", "theta_t", "qt_t",
                "unit_object", "end_regular"} <= names


def test_catalog_f5():
    entries = cat.catalog_entries(PrimeField(5), 1)
    assert any(e.name == "h4" for e in entries)


def test_deform_kc2_by_coboundary_lazy(kc2):
    from hopflab.twist import coboundary_from, deform, is_lazy
    mu = cat.one_cocycle_c2(kc2, 2)
    cob = coboundary_from(mu)
    assert is_lazy(cob)
    assert deform(cob).mult == kc2.mult


def test_get_entry_unknown():
    with pytest.raises(KeyError):
        cat.get_entry("nope")


def test_get_entry_builds_only_what_the_entry_is_built_from(monkeypatch):
    """kC₂ entries build no H₄, and H₄ entries no YD algebra."""
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(cat, "sweedler_h4", refuse)
    for name in ("kc2", "k", "cqt_c2_minus", "cqt_c2_plus", "qt_c2"):
        assert cat.get_entry(name, QQ, 1).name == name
    monkeypatch.undo()
    monkeypatch.setattr(cat._yd, "verify_yd_algebra", refuse)
    monkeypatch.setattr(cat._yd, "end_algebra", refuse)
    for name in ("h4", "h4_dual", "sigma_t", "theta_t", "qt_t",
                 "yd_regular_r"):
        assert cat.get_entry(name, QQ, 1).name == name


def _one_entry_off(obj):
    """obj with one structure constant changed: a host's unit counts 2
    under ε, 1 acts on a module as 2, an algebra's unit is off in its first
    coordinate, and a functional's value at 1⊗1 is off by one."""
    from hopflab.hopf import HopfAlgebra
    from hopflab.yd import YdAlgebra, YdModule
    if isinstance(obj, HopfAlgebra):
        obj.counit = list(obj.counit)
        obj.counit[0] = obj.counit[0] + obj.field.one
    elif isinstance(obj, YdModule):
        obj.action.data[0] = obj.action.data[0] + obj.host.field.one
    elif isinstance(obj, YdAlgebra):
        obj.unit[0] = obj.unit[0] + obj.host.field.one
    else:
        attr = {"TwoCocycle": "sigma", "DualCocycle": "theta",
                "CqtStructure": "r", "QtStructure": "rr"}
        mat = getattr(obj, attr[type(obj).__name__])
        mat.data[0][0] = mat.data[0][0] + obj.host.field.one
    return obj


# Every entry but h4 and kc2, which sweedler_h4 and group_algebra_c2 verify,
# and yd_regular_r, which regular_comodule_module verifies as a
# precondition; a dotted builder lives in that catalog submodule.
@pytest.mark.parametrize("name, builder", [
    ("k", "dim1_hopf"), ("h4_dual", "dual_hopf"),
    ("sigma_t", "sigma_t"), ("r_t", "r_t"), ("theta_t", "theta_t"),
    ("qt_t", "qt_t"), ("cqt_c2_minus", "cqt_c2"), ("cqt_c2_plus", "cqt_c2"),
    ("qt_c2", "qt_c2"), ("yd_trivial", "trivial_module"),
    ("unit_object", "_galois.unit_object"), ("end_regular", "end_regular"),
    ("regular_galois_algebra", "regular_galois_algebra")])
def test_every_builder_verifies_its_entry(name, builder, monkeypatch):
    """The registry, not the builder, verifies: a builder whose result is
    one entry off makes the entry raise, naming it."""
    owner = cat
    *path, attr = builder.split(".")
    for part in path:
        owner = getattr(owner, part)
    built = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args: _one_entry_off(
        built(*args)))
    with pytest.raises(VerificationError, match=name):
        cat.get_entry(name, QQ, 1)


def test_registry_covers_every_entry():
    """Each entry is either checked above or verified by its builder."""
    checked = {"k", "h4_dual", "sigma_t", "r_t", "theta_t", "qt_t",
               "cqt_c2_minus", "cqt_c2_plus", "qt_c2", "yd_trivial",
               "unit_object", "end_regular", "regular_galois_algebra"}
    assert set(cat.catalog_names()) == checked | {"h4", "kc2",
                                                  "yd_regular_r"}


@pytest.mark.parametrize("name", cat.catalog_names())
def test_catalog_export_over_f2(name, capsys):
    """Entries without H₄ or a 1/2 export over F₂; the others are an input
    error."""
    import json
    from hopflab.cli import main
    code = main(["catalog", "export", name, "--field", "Fp:2"])
    out, err = capsys.readouterr()
    if name in ("kc2", "k", "cqt_c2_minus", "cqt_c2_plus"):
        assert code == 0 and err == "" and json.loads(out)
    else:
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and \
            "needs characteristic != 2" in err


def test_constructions_take_no_verify_keyword():
    """Constructions build and verifiers verify: no public function of
    these modules has a `verify` parameter, except the two catalog hosts,
    which verify by default."""
    import importlib
    import inspect
    allowed = {"catalog.sweedler_h4", "catalog.group_algebra_c2"}
    seen = set()
    for name in ("twist", "quasitriangular", "yd", "galois", "catalog"):
        mod = importlib.import_module("hopflab." + name)
        for fname, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and not fname.startswith("_") \
                    and "verify" in inspect.signature(fn).parameters:
                seen.add("%s.%s" % (name, fname))
    assert seen == allowed
