"""JSON round trips and the CLI surface (exit codes, determinism)."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import hopflab
from hopflab import catalog as cat
from hopflab import io_json
from hopflab.cli import main
from hopflab.fields import QQ


@pytest.fixture()
def h4_file(tmp_path, h4):
    p = tmp_path / "h4.json"
    p.write_text(json.dumps(io_json.hopf_to_json(h4)))
    return str(p)


def test_hopf_json_roundtrip(h4):
    doc = io_json.hopf_to_json(h4)
    back = io_json.hopf_from_json(doc)
    assert back.structures_equal(h4)


def test_cocycle_json_roundtrip(h4, s1):
    doc = io_json.cocycle_to_json(s1)
    back = io_json.functional_from_json(doc, h4)
    assert back.sigma == s1.sigma
    assert back.sigma_inv == s1.sigma_inv


def test_cocycle_inverse_recomputed_when_absent(h4, s1):
    doc = io_json.cocycle_to_json(s1)
    del doc["inverse"]
    back = io_json.functional_from_json(doc, h4)
    assert back.sigma_inv == s1.sigma_inv


def test_yd_algebra_json_roundtrip(h4, unit_obj):
    doc = io_json.yd_algebra_to_json(unit_obj, "h4")
    back = io_json.yd_from_json(doc, h4)
    assert back.mult == unit_obj.mult
    assert back.module.action == unit_obj.module.action


def test_catalog_export_validate_roundtrip(tmp_path, capsys):
    for name in cat.catalog_names():
        assert main(["catalog", "export", name, "--param", "1"]) == 0
        doc = capsys.readouterr().out
        p = tmp_path / ("%s.json" % name)
        p.write_text(doc)
        assert main(["validate", str(p)]) == 0
        capsys.readouterr()


def test_cli_validate_pass(h4_file):
    assert main(["validate", h4_file]) == 0


def test_cli_validate_corrupted_antipode(tmp_path, h4, capsys):
    doc = io_json.hopf_to_json(h4)
    doc["antipode"][2] = ["0", "0", "1", "0"]
    doc["antipode"][3] = ["0", "0", "0", "-1"]
    del doc["antipode_inv"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness=(2,)" in out


def test_cli_malformed_json_exit2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": nope')
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_cli_dimension_overflow_exit2(tmp_path, monkeypatch, capsys):
    doc = io_json.hopf_to_json(cat.sweedler_h4(QQ, verify=False))
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    monkeypatch.setenv("HOPFLAB_MAX_DIM", "2")
    assert main(["validate", str(p)]) == 2
    assert "dimension 4 exceeds HOPFLAB_MAX_DIM=2" in capsys.readouterr().err
    # a limit that is not a positive integer is an input error too
    for bad in ("abc", "0", "-3", "", "4.5"):
        monkeypatch.setenv("HOPFLAB_MAX_DIM", bad)
        assert main(["validate", str(p)]) == 2
        assert ("HOPFLAB_MAX_DIM=%r is not a positive integer" % bad
                in capsys.readouterr().err)


@pytest.mark.parametrize("doc_name", ["hopf", "cocycle_with_dim"])
@pytest.mark.parametrize("command", ["check-yd", "wedge_m", "wedge_n",
                                     "galois", "azumaya"])
def test_yd_commands_reject_other_kinds(tmp_path, h4, s1, r1, unit_obj,
                                        capsys, command, doc_name):
    """A document that is not a yd_module or yd_algebra is an input error
    wherever a YD document is read, even when its keys would parse."""
    docs = {"hopf": io_json.hopf_to_json(h4),
            "cocycle_with_dim": dict(io_json.cocycle_to_json(s1), dim=4)}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(docs[doc_name]))
    good = tmp_path / "I.json"
    good.write_text(json.dumps(io_json.yd_algebra_to_json(unit_obj, "h4")))
    rp = tmp_path / "r1.json"
    rp.write_text(json.dumps(io_json.cqt_to_json(r1)))
    argv = {"check-yd": ["check-yd", bad],
            "wedge_m": ["wedge", bad, good, "--cqt", rp],
            "wedge_n": ["wedge", good, bad, "--cqt", rp],
            "galois": ["galois", bad, "--cqt", rp],
            "azumaya": ["azumaya", bad]}[command]
    assert main([str(a) for a in argv] + ["--host", "h4"]) == 2
    assert ("input error: expected kind yd_module or yd_algebra, got %r"
            % docs[doc_name]["kind"] in capsys.readouterr().err)


def test_cli_deform_trivial_is_identity(tmp_path, h4, capsys):
    from hopflab.twist import eps_eps, two_cocycle
    hp = tmp_path / "h4.json"
    hp.write_text(json.dumps(io_json.hopf_to_json(h4)))
    cp = tmp_path / "triv.json"
    triv = two_cocycle(h4, eps_eps(h4))
    cp.write_text(json.dumps(io_json.cocycle_to_json(triv)))
    assert main(["deform", str(hp), "--cocycle", str(cp)]) == 0
    out = json.loads(capsys.readouterr().out)
    ref = io_json.hopf_to_json(h4)
    for key in ("mult", "comult", "unit", "counit", "antipode"):
        assert out[key] == ref[key]


def test_cli_check_cocycle(tmp_path, h4, s1, capsys):
    p = tmp_path / "s1.json"
    p.write_text(json.dumps(io_json.cocycle_to_json(s1)))
    assert main(["check-cocycle", str(p)]) == 0
    assert "lazy" in capsys.readouterr().out


def test_cli_q_division_by_zero_is_input_error(tmp_path, s1, capsys):
    """A σ document over ℚ holding the scalar "1/0" exits 2 with ℚ's
    division message, as F_p's "division by zero in F_5"."""
    doc = io_json.cocycle_to_json(s1)
    doc["entries"][4][2] = "1/0"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["check-cocycle", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("input error: bad scalar '1/0': division "
                                 "by zero in Q\n")


def test_cli_wedge_and_galois(tmp_path, h4, r1, unit_obj, capsys):
    ip = tmp_path / "I.json"
    ip.write_text(json.dumps(io_json.yd_algebra_to_json(unit_obj, "h4")))
    rp = tmp_path / "r1.json"
    rp.write_text(json.dumps(io_json.cqt_to_json(r1)))
    assert main(["wedge", str(ip), str(ip), "--cqt", str(rp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["wedge_dim"] == 4
    assert main(["galois", str(ip), "--cqt", str(rp)]) == 0
    assert "bigalois_object" in capsys.readouterr().out


def test_cli_galois_checks_its_inputs(tmp_path, capsys):
    """I with 1 added to the coefficient of e_0 in e_2·e_2 is not a YD
    algebra; galois_maps alone reports all PASS on it, so the command must
    verify the algebra first."""
    paths = {}
    for name in ("unit_object", "r_t"):
        assert main(["catalog", "export", name, "--param", "1"]) == 0
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(capsys.readouterr().out)
    doc = json.loads(paths["unit_object"].read_text())
    assert not any(e[:3] == [2, 2, 0] for e in doc["mult"])
    doc["mult"].append([2, 2, 0, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["galois", str(bad), "--cqt", str(paths["r_t"]),
                 "--host", "h4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "check failed: galois input: check 'algebra_axioms' failed "
        "(witness=(2, 0, 2)) \n")


def test_document_over_another_host_is_input_error(tmp_path, capsys):
    """A document is read over the host it records, by name (in any case)
    and, where a cocycle-like document records one, by dimension.  A
    document that names its host by a file path is read over that file."""
    paths = {}
    for name in ("h4", "cqt_c2_minus", "r_t", "yd_regular_r"):
        assert main(["catalog", "export", name, "--param", "1"]) == 0
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as fh:
            fh.write(capsys.readouterr().out)

    def variant(name, **changes):
        with open(paths[name]) as fh:
            doc = dict(json.load(fh), **changes)
        path = tmp_path / ("%s_variant.json" % name)
        path.write_text(json.dumps(doc))
        return str(path)

    kc2_on_h4 = "input error: document is over host kC2, read over H4\n"
    for argv, err in (
            (["check-cqt", paths["cqt_c2_minus"], "--host", "h4"], kc2_on_h4),
            (["wedge", paths["yd_regular_r"], paths["yd_regular_r"],
              "--cqt", paths["cqt_c2_minus"]], kc2_on_h4),
            (["check-yd", paths["yd_regular_r"], "--host", "kc2"],
             "input error: document is over host H4, read over kC2\n"),
            (["check-cqt", variant("r_t", dim=2)],
             "input error: document is over a host of dimension 2, read "
             "over H4 of dimension 4\n")):
        assert main(argv) == 2
        assert capsys.readouterr().err == err
    for argv in (["check-cqt", paths["cqt_c2_minus"]],
                 ["check-cqt", variant("r_t", host="h4", dim=4)],
                 ["check-yd", variant("yd_regular_r", host=paths["h4"])]):
        assert main(argv) == 0
        capsys.readouterr()


def test_cli_deform_and_wedge_failures_exit_1(tmp_path, h4, s1, kc2, capsys):
    """A failing input exits 1 with one `check failed:` line on stderr."""
    from hopflab.linalg import Tensor
    from hopflab.yd import YdModule

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def failure(argv):
        assert main(argv) == 1
        return capsys.readouterr().err

    hp = write("h4.json", io_json.hopf_to_json(h4))
    sig = io_json.cocycle_to_json(s1)
    sig["entries"] = [e for e in sig["entries"] if e[:2] != [1, 1]]
    sig["entries"].append([1, 1, "5"])
    assert failure(["deform", hp, "--cocycle", write("s.json", sig)]) == (
        "check failed: cocycle: check 'convolution_inverse' failed "
        "(witness=None) \n")
    th = io_json.dual_cocycle_to_json(cat.theta_t(h4, 1))
    th["entries"] = [e for e in th["entries"] if e[:2] != [0, 2]]
    th["entries"].append([0, 2, "7"])
    assert failure(["deform", hp, "--dual-cocycle", write("t.json", th)]) \
        == ("check failed: dual cocycle: check 'dual_pentagon' failed "
            "(witness=(0, 0, 2)) \n")
    # the ε-action with e_0·v_0 doubled is not a module; wedge checks its
    # inputs before it builds M∧M
    triv = cat.trivial_module(kc2, 2)
    data = list(triv.action.data)
    data[0] = data[0] + QQ.one
    bad = YdModule(kc2, 2, Tensor(QQ, triv.action.shape, data),
                   triv.coaction)
    mp = write("m.json", io_json.yd_module_to_json(bad, "kc2"))
    rp = write("r.json", io_json.cqt_to_json(cat.cqt_c2(kc2, -1)))
    assert failure(["wedge", mp, mp, "--cqt", rp]) == (
        "check failed: wedge input M: check 'module_axioms' failed "
        "(witness=(0,)) \n")


@pytest.mark.parametrize("sign", [1, -1])
def test_cli_wedge_checks_its_inputs(tmp_path, kc2, capsys, sign):
    """A comodule that fails its axioms exits 1 as either wedge input,
    also where M∧N alone would pass verify_yd."""
    from hopflab.linalg import Tensor
    from hopflab.yd import YdModule
    triv = cat.trivial_module(kc2, 2)
    data = list(triv.coaction.data)
    data[(0 * 2 + 1) * 2 + 0] += QQ.one     # ρ(v₀) gains v₁⊗e₀
    bad = YdModule(kc2, 2, triv.action,
                   Tensor(QQ, triv.coaction.shape, data))
    paths = {}
    for name, doc in (("bad", io_json.yd_module_to_json(bad, "kc2")),
                      ("triv", io_json.yd_module_to_json(triv, "kc2")),
                      ("r", io_json.cqt_to_json(cat.cqt_c2(kc2, sign)))):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(doc))
    for m, n, side in (("bad", "triv", "M"), ("triv", "bad", "N")):
        assert main(["wedge", str(paths[m]), str(paths[n]),
                     "--cqt", str(paths["r"])]) == 1
        assert capsys.readouterr().err == (
            "check failed: wedge input %s: check 'comodule_axioms' failed "
            "(witness=(0,)) \n" % side)


@pytest.mark.parametrize("ref, name", [("h4", "H4"), ("kc2", "kC2"),
                                       ("k", "k"), ("H4", "H4")])
def test_load_host_by_catalog_name(ref, name):
    from argparse import Namespace
    from hopflab.cli import _load_host
    host = _load_host(Namespace(host=ref, field="Fp:5"))
    assert host.name == name and host.field.spec() == "Fp:5"


def test_load_host_unknown_name_is_input_error():
    from argparse import Namespace
    from hopflab.cli import _load_host
    with pytest.raises(io_json.InputError, match="unknown host 'h5'"):
        _load_host(Namespace(host="h5"))


@pytest.mark.parametrize("ref", ["H4^sigma_1", "H4^s", "H4_th", "kC2^s"])
def test_deformed_host_name_is_input_error(ref):
    """Only the exact catalog names resolve: a deformed host is not H₄."""
    import re
    from argparse import Namespace
    from hopflab.cli import _load_host
    with pytest.raises(io_json.InputError, match=re.escape(
            "unknown host %r" % ref) + ".*use --host FILE"):
        _load_host(Namespace(host=ref, field="Fp:5"))


def test_deformed_host_document_needs_its_host_file(tmp_path, h4, mreg,
                                                    capsys):
    """σ̲_{∂γ}(regular) lives on H^∂γ ≠ H₄, which its document names "H4^s":
    without --host it is an input error, with H^∂γ's file it passes."""
    from reference import coboundary
    from hopflab.twist import conv_inverse1, deform, two_cocycle
    from hopflab.yd import sigma_module
    gamma = [QQ.from_int(x) for x in (1, -1, 2, 2)]
    c = two_cocycle(h4, coboundary(h4, gamma, conv_inverse1(h4, gamma)))
    doc = io_json.yd_module_to_json(sigma_module(c, mreg))
    assert doc["host"] == "H4^s"
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(doc))
    host = tmp_path / "hs.json"
    host.write_text(json.dumps(io_json.hopf_to_json(deform(c))))
    assert main(["check-yd", str(mod)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("input error: unknown host 'H4^s' (the "
                                 "catalog hosts are h4, kc2 and k; use "
                                 "--host FILE)\n")
    assert main(["check-yd", str(mod), "--host", str(host)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out and all(line.startswith("PASS  ") for line in out)


YD_ALGEBRA_PASS = """\
PASS  module_axioms
PASS  comodule_axioms
PASS  yd_compatibility [Σh1·m0⊗h2m1 = Σ(h2·m)0⊗(h2·m)1h1]
PASS  yd_compatibility_sinv_form [ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)]
PASS  algebra_axioms
PASS  module_algebra [h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1]
PASS  comodule_algebra [ρ(ab) = Σa0b0⊗b1a1, ρ(1) = 1⊗1]
"""


def test_cli_azumaya_control(tmp_path, kc2, capsys):
    from hopflab.yd import YdAlgebra
    from hopflab.catalog import trivial_module
    alg = YdAlgebra(trivial_module(kc2, 2), kc2.mult, kc2.unit)
    p = tmp_path / "ctrl.json"
    p.write_text(json.dumps(io_json.yd_algebra_to_json(alg, "kc2")))
    assert main(["azumaya", str(p)]) == 1
    assert capsys.readouterr().out == YD_ALGEBRA_PASS + """\
FAIL  F_bijective [rank 2 of 4]
FAIL  G_bijective [rank 2 of 4]
PASS  F_algebra_map [checked against 2 generators]
PASS  F_unital
FAIL  is_azumaya
"""


def test_cli_azumaya_end_regular_passes(tmp_path, capsys):
    assert main(["catalog", "export", "end_regular", "--param", "1"]) == 0
    p = tmp_path / "end.json"
    p.write_text(capsys.readouterr().out)
    assert main(["azumaya", str(p)]) == 0
    assert capsys.readouterr().out == YD_ALGEBRA_PASS + """\
PASS  F_bijective [rank 256 of 256]
PASS  G_bijective [rank 256 of 256]
PASS  F_algebra_map [checked against 13 generators]
PASS  F_unital
PASS  is_azumaya
"""


def test_cli_suite_small_deterministic(capsys):
    assert main(["suite", "--json", "--t-values", "0,1", "--seed", "3"]) == 0
    out1 = capsys.readouterr().out
    assert main(["suite", "--json", "--t-values", "0,1", "--seed", "3"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "hopflab-report/1"
    assert doc["seed"] == 3
    assert doc["summary"]["ok"] is True


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "h4" in out and "unit_object" in out


@pytest.mark.parametrize("argv, message", [
    (["catalog", "export", "nope"],
     "input error: no catalog entry named 'nope'; `hopflab catalog list` "
     "prints the names\n"),
    (["catalog", "export"],
     "input error: catalog export needs an entry name; `hopflab catalog "
     "list` prints them\n"),
], ids=["unknown", "missing"])
def test_cli_catalog_export_names_unknown_entry(argv, message, capsys):
    """An unknown or missing entry name is an input error in plain words,
    not the quoted text of a KeyError."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message


@pytest.mark.parametrize("argv", [
    ["suite", "--t-values", "a,b"],
    ["catalog", "export", "sigma_t", "--param", "x"],
])
def test_cli_non_integer_option_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_cli_prime_too_large_exit2(capsys):
    p = 2 ** 61 - 1
    assert main(["catalog", "export", "h4", "--field", "Fp:%d" % p]) == 0
    capsys.readouterr()
    assert main(["catalog", "export", "h4", "--field",
                 "Fp:%d" % (2 ** 89 - 1)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("name, cmd", [("sigma_t", "check-cocycle"),
                                       ("yd_regular_r", "check-yd")])
def test_exported_document_carries_its_field(tmp_path, name, cmd, capsys):
    """An F₅ export is checked over F₅ without --field; --field Q on it, or
    a --host file over ℚ, is an input error."""
    assert main(["catalog", "export", name, "--param", "1", "--field",
                 "Fp:5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == "Fp:5"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out and all(line.startswith("PASS  ") for line in out)
    assert main([cmd, str(path), "--field", "Q"]) == 2
    assert capsys.readouterr().err == (
        "input error: document is over Fp:5, its host over Q\n")
    host = tmp_path / "h4.json"
    host.write_text(json.dumps(io_json.hopf_to_json(
        cat.sweedler_h4(QQ, verify=False))))
    assert main([cmd, str(path), "--host", str(host)]) == 2
    assert capsys.readouterr().err == (
        "input error: --host file is over Q, not Fp:5\n")


H4_DOC = io_json.hopf_to_json(cat.sweedler_h4(QQ, verify=False))
SIGMA_DOC = io_json.cocycle_to_json(
    cat.sigma_t(cat.sweedler_h4(QQ, verify=False), 1))


@pytest.mark.parametrize("doc", [
    {**H4_DOC, "field": 5},
    [H4_DOC],
    {**H4_DOC, "unit": "1000"},
    {**H4_DOC, "antipode_inv": H4_DOC["antipode_inv"][:3]},
    {**H4_DOC, "mult": 5},
    {**H4_DOC, "comult": 5},
    {**H4_DOC, "basis": 5},
    {**H4_DOC, "mult": [5]},
    {**H4_DOC, "mult": H4_DOC["mult"] + [[True, True, 0, "0"]]},
    {**H4_DOC, "name": [1]},
    # an exponent would make the parse expand 10^999999999
    {**H4_DOC, "unit": ["1e999999999", "0", "0", "0"]},
    {**H4_DOC, "unit": ["0.5", "0", "0", "0"]},
    {**SIGMA_DOC, "host": 5},
], ids=["field_not_string", "array_document", "unit_not_list",
        "antipode_inv_3_rows", "mult_not_list", "comult_not_list",
        "basis_not_list", "mult_entry_not_list", "mult_index_bool",
        "name_not_string", "scalar_exponent", "scalar_decimal",
        "host_not_string"])
def test_cli_malformed_document_exit2(tmp_path, doc, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ['{"dim": %s}' % ("1" * 5000),
                                  "[" * 100000],
                         ids=["integer_over_digit_limit", "nested_too_deep"])
def test_cli_unreadable_json_exit2(tmp_path, text, capsys):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error: unreadable JSON")


# The values a mutated document entry is set to.
MUTATIONS = [None, True, -1, 0, 5, "x", "1/0", [], {}]


def locations(node, path=()):
    """The path of every dict value and list entry below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from locations(child, path + (key,))


@pytest.fixture(scope="module")
def catalog_documents():
    return [io_json.to_json_of(e.payload) for e in cat.catalog_entries(QQ, 1)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_validate_of_one_mutation_fails_cleanly(catalog_documents, data):
    """One entry of a catalog document set to a value from MUTATIONS:
    validate exits 0, 1 or 2, and stderr is empty or one error line."""
    doc = copy.deepcopy(data.draw(st.sampled_from(catalog_documents)))
    path = data.draw(st.sampled_from(list(locations(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(MUTATIONS))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "doc.json")
        with open(p, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["validate", p])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith(
        ("input error:", "check failed:")))


def test_cli_closed_stdout_is_quiet():
    # Like `hopflab catalog list | head -0`: the read end of stdout is
    # closed before the command writes anything.
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hopflab.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", "catalog", "list"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_one_cocycle_verifier_decides_mu(spec):
    """validate's one_cocycle verifier passes μ = 2 on kC₂'s g and μ = ε on
    H₄, and fails every ±1 one-entry change of μ or of μ⁻¹ on a
    LazyOneCocycle built directly, which skips the loader's check."""
    from hopflab.cli import VERIFIERS
    from hopflab.fields import field_from_spec
    from hopflab.twist import LazyOneCocycle, lazy_one_cocycle
    from reference import changes
    field = field_from_spec(spec)
    verify = VERIFIERS["one_cocycle"]
    h4 = cat.sweedler_h4(field)
    for mu in (cat.one_cocycle_c2(cat.group_algebra_c2(field), 2),
               lazy_one_cocycle(h4, list(h4.counit))):
        rep = verify(mu)
        assert [(c.name, c.status, c.detail) for c in rep.checks] == \
            [("one_cocycle_invariants", "pass", "")]
        details = set()
        for bad in changes(mu.mu, field=field):
            rep = verify(LazyOneCocycle(mu.host, bad, mu.mu_inv))
            assert not rep.ok
            details.add(rep.checks[0].detail)
        for bad in changes(mu.mu_inv, field=field):
            rep = verify(LazyOneCocycle(mu.host, mu.mu, bad))
            assert rep.checks[0].detail == \
                "mu_inv is not the convolution inverse of mu"
        assert "1-cocycle is not normalized: mu(1) != 1" in details
    assert "1-cocycle is not central at basis index 2" in details


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_validate_decides_the_one_cocycle_inverse(tmp_path, capsys, spec):
    """validate reads a one_cocycle document's "inverse": for μ = (1, 2) on
    kC₂ the inverse (1, 7) exits 1, the true inverse exits 0, and without
    an inverse the loader solves for it."""
    from hopflab.fields import field_from_spec
    field = field_from_spec(spec)
    mu = cat.one_cocycle_c2(cat.group_algebra_c2(field), 2)
    doc = io_json.one_cocycle_to_json(mu)
    path = tmp_path / "mu.json"

    def validate(**changed):
        path.write_text(json.dumps(dict(doc, **changed)))
        return main(["validate", str(path)]), capsys.readouterr()

    code, out = validate(inverse=[[0, "1"], [1, "7"]])
    assert code == 1
    assert out.err == ("check failed: mu_inv is not the convolution inverse "
                       "of mu\n")
    code, out = validate()
    assert (code, out.err) == (0, "")
    assert out.out == "PASS  one_cocycle_invariants\n"
    del doc["inverse"]
    assert validate()[0] == 0
    back = io_json.functional_from_json(doc, mu.host)
    assert back.mu_inv == mu.mu_inv
