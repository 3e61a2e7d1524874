"""JSON (de)serialization for every structure kind.

A scalar is a string "a" or "a/b" of integers (an optional sign on a,
ASCII digits, no spaces) or a JSON integer; anything else, a decimal or an
exponent included, is an input error.  Omitted entries are zero.  Formats:

hopf:         {"field": "Q"|"Fp:<p>", "dim": n, "basis": [names],
               "mult": [[i,j,k,"c"], ...], "comult": [[i,j,k,"c"], ...],
               "unit": ["c", ...], "counit": ["c", ...],
               "antipode": [["c", ...], ...], "antipode_inv": optional}
cocycle / dual_cocycle / cqt / qt:
              {"kind": ..., "host": <name>, "field": optional,
               "entries": [[i,j,"c"], ...], "inverse": optional same shape}
one_cocycle:  {"kind": "one_cocycle", "host": <name>, "field": optional,
               "entries": [[i,"c"], ...], "inverse": optional}
yd_module / yd_algebra:
              {"kind": ..., "host": <name>, "field": optional, "dim": m,
               "action": [[i,p,q,"c"], ...], "coaction": [[p,q,k,"c"], ...],
               "mult": [[p,q,r,"c"], ...], "unit": ["c", ...]}

Every writer records the field and the host's name; a reader rejects a
document whose "field" or "host" is not that of the host it is read over,
or a cocycle-like document whose optional "dim" is not the host's, and
reads one without them over the host it is given.

The antipode matrix rows are images: antipode[i][j] is the coefficient of
e_j in S(e_i).
"""

from __future__ import annotations

import json

from .fields import field_from_spec
from .hopf import HopfAlgebra, verify_hopf_axioms
from .linalg import Matrix, Tensor, are_inverse, check_dim, mat_inverse


class InputError(ValueError):
    """Malformed or inconsistent input file (CLI exit code 2)."""


def _parse_scalar(field, v):
    try:
        return field.parse(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad scalar %r: %s" % (v, exc))


def _sparse_to_tensor(field, shape, entries, what):
    """The tensor of the given shape from a list of [index, ..., scalar]
    entries; repeated indices add up.  A matrix is the two-index case."""
    if not isinstance(entries, list):
        raise InputError("%s must be a list of entries" % what)
    t = Tensor.zeros(field, shape)
    strides = t.strides()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != len(shape) + 1:
            raise InputError("%s entry %r is not a list of %d indices and "
                             "a scalar" % (what, entry, len(shape)))
        *idx, val = entry
        for i, s in zip(idx, shape):
            if type(i) is not int or not 0 <= i < s:
                raise InputError("%s index %r out of range" % (what, entry))
        flat = sum(i * s for i, s in zip(idx, strides))
        t.data[flat] = t.data[flat] + _parse_scalar(field, val)
    return t


def _tensor_to_sparse(field, t):
    out = []
    strides = t.strides()

    def unrank(flat):
        idx = []
        for s in strides:
            idx.append(flat // s)
            flat %= s
        return idx

    for flat, v in enumerate(t.data):
        if v:
            out.append(unrank(flat) + [field.fmt(v)])
    return out


def _matrix_sparse(field, m):
    out = []
    for i in range(m.rows):
        for j in range(m.cols):
            if m.data[i][j]:
                out.append([i, j, field.fmt(m.data[i][j])])
    return out


def _vector(field, vals, n, what):
    if not isinstance(vals, list):
        raise InputError("%s must be a list of %d scalars" % (what, n))
    if len(vals) != n:
        raise InputError("%s has length %d, expected %d"
                         % (what, len(vals), n))
    return [_parse_scalar(field, v) for v in vals]


def _square(field, rows, n, what):
    """The n×n matrix given as a list of n rows of n scalars."""
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError("%s must be %dx%d" % (what, n, n))
    return Matrix(field, n, n,
                  [_vector(field, r, n, "%s row" % what) for r in rows])


def hopf_to_json(h):
    f = h.field
    return {
        "kind": "hopf",
        "name": h.name,
        "field": f.spec(),
        "dim": h.dim,
        "basis": list(h.basis_names),
        "mult": _tensor_to_sparse(f, h.mult),
        "comult": _tensor_to_sparse(f, h.comult),
        "unit": [f.fmt(x) for x in h.unit],
        "counit": [f.fmt(x) for x in h.counit],
        "antipode": [[f.fmt(x) for x in row] for row in h.antipode.data],
        "antipode_inv": [[f.fmt(x) for x in row]
                         for row in h.antipode_inv.data],
    }


def hopf_from_json(doc, strict=True):
    """Load a Hopf algebra document.

    strict=True rejects non-invertible or inconsistent antipode data and
    requires the Hopf axioms at load time; strict=False builds the
    structure anyway so that the axiom suite can fail with a witness (used
    by `validate`).
    """
    try:
        field = field_from_spec(doc["field"])
        n = doc["dim"]
    except KeyError as exc:
        raise InputError("missing key %s" % exc)
    if type(n) is not int or n < 1:
        raise InputError("bad dimension %r" % (n,))
    check_dim(n)
    names = doc.get("basis", ["e%d" % i for i in range(n)])
    if not (isinstance(names, list) and len(names) == n
            and all(isinstance(nm, str) for nm in names)):
        raise InputError("basis must be a list of %d names" % n)
    name = doc.get("name", "H")
    if not isinstance(name, str):
        raise InputError("name must be a string")
    mult = _sparse_to_tensor(field, (n, n, n), doc.get("mult", []), "mult")
    comult = _sparse_to_tensor(field, (n, n, n), doc.get("comult", []),
                               "comult")
    unit = _vector(field, doc["unit"], n, "unit")
    counit = _vector(field, doc["counit"], n, "counit")
    s = _square(field, doc["antipode"], n, "antipode")
    if "antipode_inv" in doc:
        s_inv = _square(field, doc["antipode_inv"], n, "antipode_inv")
        if strict and not are_inverse(s, s_inv):
            raise InputError("antipode_inv is not the inverse of antipode")
    else:
        s_inv = mat_inverse(s)
        if s_inv is None:
            if strict:
                raise InputError("antipode is not invertible")
            s_inv = Matrix.zeros(field, n, n)
    h = HopfAlgebra(field, n, names, mult, unit, comult, counit, s, s_inv,
                    name=name)
    if strict:
        verify_hopf_axioms(h).require("hopf axioms at load")
    return h


def _check_host(doc, host):
    """Reject a document recorded over another host than the one it is
    read over: its "field" is not the host's field, or its "host" is not
    the host's name (in any case, as the CLI resolves catalog names; a path
    to a host file names no host)."""
    if "field" in doc and field_from_spec(doc["field"]) != host.field:
        raise InputError("document is over %s, its host over %s"
                         % (doc["field"], host.field.spec()))
    name = doc.get("host")
    if name is not None:
        if not isinstance(name, str):
            raise InputError("host must be a name, got %r" % (name,))
        if not name.endswith(".json") and name.lower() != host.name.lower():
            raise InputError("document is over host %s, read over %s"
                             % (name, host.name))


def functional_to_json(kind, host_name, field, mat, inv=None):
    doc = {"kind": kind, "host": host_name, "field": field.spec(),
           "entries": _matrix_sparse(field, mat)}
    if inv is not None:
        doc["inverse"] = _matrix_sparse(field, inv)
    return doc


def cocycle_to_json(c):
    return functional_to_json("cocycle", c.host.name, c.host.field,
                              c.sigma, c.sigma_inv)


def dual_cocycle_to_json(d):
    return functional_to_json("dual_cocycle", d.host.name, d.host.field,
                              d.theta, d.theta_inv)


def cqt_to_json(c):
    return functional_to_json("cqt", c.host.name, c.host.field, c.r, c.r_inv)


def qt_to_json(q):
    return functional_to_json("qt", q.host.name, q.host.field, q.rr, q.rr_inv)


def one_cocycle_to_json(mu):
    f = mu.host.field
    return {"kind": "one_cocycle", "host": mu.host.name, "field": f.spec(),
            "entries": [[i, f.fmt(v)] for i, v in enumerate(mu.mu) if v],
            "inverse": [[i, f.fmt(v)] for i, v in enumerate(mu.mu_inv) if v]}


def functional_from_json(doc, host):
    """Dispatch on "kind"; returns the appropriate verified-shape object
    (validity checks are up to the caller)."""
    from . import twist, quasitriangular
    _check_host(doc, host)
    f = host.field
    n = host.dim
    if "dim" in doc and doc["dim"] != n:
        raise InputError("document is over a host of dimension %r, read "
                         "over %s of dimension %d"
                         % (doc["dim"], host.name, n))
    kind = doc.get("kind")
    if kind == "one_cocycle":
        mu = _sparse_to_tensor(f, (n,), doc.get("entries", []), kind)
        inv = (_sparse_to_tensor(f, (n,), doc["inverse"], "inverse").data
               if "inverse" in doc else None)
        return twist.lazy_one_cocycle(host, mu.data, inv)

    def matrix(entries, what):
        t = _sparse_to_tensor(f, (n, n), entries, what)
        return Matrix(f, n, n, [t.data[i * n:i * n + n] for i in range(n)])

    mat = matrix(doc.get("entries", []), kind or "entry")
    inv = matrix(doc["inverse"], "inverse") if "inverse" in doc else None
    if kind == "cocycle":
        return twist.two_cocycle(host, mat, inv)
    if kind == "dual_cocycle":
        return twist.dual_cocycle(host, mat, inv)
    if kind == "cqt":
        return quasitriangular.cqt_structure(host, mat, inv)
    if kind == "qt":
        return quasitriangular.qt_structure(host, mat, inv)
    raise InputError("unknown kind %r" % (kind,))


def yd_module_to_json(mod, host_name=None):
    f = mod.host.field
    return {"kind": "yd_module", "host": host_name or mod.host.name,
            "field": f.spec(), "dim": mod.dim,
            "action": _tensor_to_sparse(f, mod.action),
            "coaction": _tensor_to_sparse(f, mod.coaction)}


def yd_algebra_to_json(alg, host_name=None):
    f = alg.host.field
    doc = yd_module_to_json(alg.module, host_name)
    doc["kind"] = "yd_algebra"
    doc["mult"] = _tensor_to_sparse(f, alg.mult)
    doc["unit"] = [f.fmt(x) for x in alg.unit]
    return doc


def yd_from_json(doc, host):
    from . import yd
    kind = doc.get("kind")
    if kind not in ("yd_module", "yd_algebra"):
        raise InputError("expected kind yd_module or yd_algebra, got %r"
                         % (kind,))
    _check_host(doc, host)
    f = host.field
    n = host.dim
    m = doc.get("dim")
    if type(m) is not int or m < 1:
        raise InputError("bad module dimension %r" % (m,))
    check_dim(m)
    action = _sparse_to_tensor(f, (n, m, m), doc.get("action", []), "action")
    coaction = _sparse_to_tensor(f, (m, m, n), doc.get("coaction", []),
                                 "coaction")
    mod = yd.YdModule(host, m, action, coaction)
    if kind == "yd_algebra":
        mult = _sparse_to_tensor(f, (m, m, m), doc.get("mult", []), "mult")
        unit = _vector(f, doc["unit"], m, "unit")
        return yd.YdAlgebra(mod, mult, unit)
    return mod


def load_document(path):
    """The JSON object stored in the file at path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except (ValueError, RecursionError) as exc:
        # an integer literal over Python's digit limit, or nesting too deep
        raise InputError("unreadable JSON in %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise InputError("%s holds a JSON %s, expected an object"
                         % (path, type(doc).__name__))
    return doc


def to_json_of(obj):
    """Serialize any supported payload."""
    from .twist import TwoCocycle, DualCocycle, LazyOneCocycle
    from .quasitriangular import CqtStructure, QtStructure
    from .yd import YdAlgebra, YdModule
    if isinstance(obj, HopfAlgebra):
        return hopf_to_json(obj)
    if isinstance(obj, TwoCocycle):
        return cocycle_to_json(obj)
    if isinstance(obj, DualCocycle):
        return dual_cocycle_to_json(obj)
    if isinstance(obj, LazyOneCocycle):
        return one_cocycle_to_json(obj)
    if isinstance(obj, CqtStructure):
        return cqt_to_json(obj)
    if isinstance(obj, QtStructure):
        return qt_to_json(obj)
    if isinstance(obj, YdAlgebra):
        return yd_algebra_to_json(obj)
    if isinstance(obj, YdModule):
        return yd_module_to_json(obj)
    raise InputError("cannot serialize %r" % (type(obj),))
