"""Exact field scalars: ℚ (arbitrary precision rationals) and prime fields F_p.

Scalars are plain objects supporting +, -, *, ==, bool (bool(x) is False iff
x == 0).  Division goes through ``Field.div`` only, never the ``/``
operator.  All arithmetic is exact and equality is decidable, which turns
every identity in this package into a yes/no check with no tolerances.

ℚ is int-first: an integral value is always a Python ``int``, and a
non-integral one is a ``QFraction``, a lean subclass of
``fractions.Fraction`` (bound to ``_RAT``) held in lowest terms with a
denominator > 1.  Its one constructor, ``QFraction(n, d)`` for coprime n
and d ≥ 1, returns the int n when d = 1; +, -, *, unary - and their
reflected forms take an int or any ``Fraction`` as the other operand, sum
on its numerator and denominator with ``math.gcd`` and build the result
through that constructor, so a sum or product that happens to be integral
comes back as an int (``QQ.div(1, 2) * 2`` is ``1``).  Any other operand
type gets ``NotImplemented``.  ``Rationals.div``, the one division, builds
its quotient the same way, so ``int / int`` never makes a float, and
raises TypeError, naming the type, for an operand that is neither.  The
structure tensors are mostly 0s and ±1s, so almost all arithmetic runs on
small ints.  ``==``, ``hash``, ``str`` and ``bool`` are ``Fraction``'s, so
they agree between an int and an equal rational of either type:
``Fraction(2) == 2``, both hash alike, and both print as ``2``.  Reports,
JSON documents and set/dict keys are therefore the same whatever type a
value has.  A plain ``Fraction`` from outside (a test, or a user's t)
mixes exactly, and lifting it reads its numerator and denominator, so the
sums a loop builds from it come back as ints and ``QFraction``s.

F_p is int-backed too: an element of ``PrimeField(p)`` is an instance of
an ``int`` subclass made for that field, holding its residue in [0, p).
Truthiness, ``==``, ``hash`` and ``str`` are therefore int's own C code,
which is what the dense zero-skipping loops of the linear algebra spend
their time on; only +, -, *, unary - and / (which reduce mod p) run in
Python.  Because ``==`` and ``hash`` are int's, an element equals its
residue, ``PrimeField(5).from_int(7) == 2``, and elements of two different
fields compare as their residues: code that must tell fields apart
compares the fields (as ``HopfAlgebra.structures_equal`` does).

Below ``RESIDUE_TABLE_BOUND`` a field's p elements are made once, when the
field is built, and kept in the tuple ``elem.residues``: the operations
and ``from_int`` index it with the reduced int and allocate nothing, so two
equal elements of one field are the same object.  A larger p gets no
p-sized table; its ``residues`` builds the element on each lookup.

``Field.lift`` and ``Field.reduce`` let a hot loop sum on plain Python
ints on both fields.  ``lift(values)`` is the pair (ints, D) of a list of
field elements, such as a tensor's data or a matrix's entries, written
as integers over one scale D: over F_p the residues as plain ints, with
D = 1; over ℚ the values times their common denominator D (the lcm of
their denominators, 1 when all are ints, and then ints is values itself,
not a copy).  A loop lifts each table once, sums products of lifted
values with C arithmetic, and reduces the sums once: a sum of products
of factors at scales D₁, …, D_k is at the scale D₁⋯D_k, which the loop
multiplies once per call.  ``reduce(s, scale)`` is the field element
s / scale: over F_p the element of s mod p (F_p's scale is always 1),
over ℚ the int-first rational s / scale.  Both are exact, because
reduction mod p is a ring map from ℤ, so an identity holds in F_p
exactly when its two lifted sides are congruent mod p, and over ℚ, at a
common positive scale, two int sums are equal exactly when the
rationals are.  A check therefore puts its two sides on one scale,
applying a complementary scale (``complements``) as a scaled copy of the
smaller table (``scaled``), and tests each coordinate of their
difference once with ``nonzero(s)``, which reads only zero-ness and so
needs no scale.  A construction reduces what it builds once, with
``reduce_vec(vec, scale)``, the list of elements equal to the lifted
sums in vec over scale: one call per row, matrix or tensor, never one
per coordinate; at scale 1 over ℚ it returns vec as it is.
linalg.Bilinear keeps the lifted tables of the structure tensors with
their scales, and a Matrix its lifted rows; the checks and constructions
of hopf.py, yd.py, twist.py and galois.py sum on them (Bilinear's
docstring lists the readers), and a matrix built from lifted sums keeps
them (Matrix.from_sums), so it is not lifted again.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import is_not

# A written scalar: an integer "a" or a quotient "a/b" of integers.
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class FieldError(ValueError):
    pass


class FpElem(int):
    """Residue mod p, stored as the int in [0, p).

    Each ``PrimeField`` makes one subclass that sets the class attributes
    ``p`` and ``residues``; every element is ``residues[v]`` for its
    residue v, never built through a Python ``__new__`` or ``__init__``.
    +, -, *, unary - and / reduce mod p and return the field's subclass,
    also when the other operand is a plain int (``3 + x``, ``x * 3``,
    ``3 / x``).
    Combining elements of two different fields is not checked: the result
    belongs to the left operand's field.  ``==``, ``hash``, ``str`` and
    truthiness are int's, so an element equals its residue.
    """

    __slots__ = ()
    p = None
    residues = None

    # perfbench/spans.py counts calls of these two Python methods by code
    # object; the per-field subclasses override __bool__ with int's C slot
    # and elements are never built through __init__, so neither runs.
    def __init__(self, *args):
        pass

    def __bool__(self):
        return int.__bool__(self)

    def __add__(self, other):
        cls = type(self)
        return cls.residues[int.__add__(self, other) % cls.p]

    __radd__ = __add__

    def __sub__(self, other):
        cls = type(self)
        return cls.residues[int.__sub__(self, other) % cls.p]

    def __rsub__(self, other):
        cls = type(self)
        return cls.residues[int.__rsub__(self, other) % cls.p]

    def __mul__(self, other):
        cls = type(self)
        return cls.residues[int.__mul__(self, other) % cls.p]

    __rmul__ = __mul__

    def __neg__(self):
        cls = type(self)
        return cls.residues[int.__neg__(self) % cls.p]

    def __truediv__(self, other):
        cls = type(self)
        p = cls.p
        if not other % p:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return cls.residues[int.__mul__(self, pow(other, -1, p)) % p]

    def __rtruediv__(self, other):
        cls = type(self)
        p = cls.p
        if not self:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return cls.residues[int.__mul__(other, pow(self, -1, p)) % p]


# Fields with p below this bound keep all p elements in a tuple: at most
# 4095 elements of 44 bytes plus the tuple, about 210 KB, built in about a
# millisecond.  It covers the small primes the catalog, the tests and the
# Taft algebras are built over.
RESIDUE_TABLE_BOUND = 2 ** 12


class _AllocatingResidues:
    """``residues`` of a field too large for a table: indexing it with a
    residue builds that element."""

    __slots__ = ("cls",)

    def __init__(self, cls):
        self.cls = cls

    def __getitem__(self, v):
        return int.__new__(self.cls, v)


# Miller–Rabin with the first thirteen prime bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and Webster,
# 2015; OEIS A014233).  The bases 2…37 alone are exact only below
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality of n < MAX_PRIME (Miller–Rabin)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two concrete fields."""

    kind = None  # "Q" | "Fp"
    char = None

    def spec(self):
        raise NotImplementedError

    def from_int(self, k):
        raise NotImplementedError

    def parse(self, s):
        """The scalar written "a" or "a/b" with integers a and b, or an int.

        Anything else, such as a decimal or an exponent, raises ValueError
        (so no input makes the parse expand a huge power), and b = 0 raises
        ZeroDivisionError.
        """
        m = _SCALAR.fullmatch(str(s)) if type(s) in (str, int) else None
        if m is None:
            raise ValueError("expected an integer or a/b of integers")
        num, den = m.groups()
        x = self.from_int(int(num))
        return x if den is None else self.div(x, self.from_int(int(den)))

    def fmt(self, x):
        raise NotImplementedError

    def lift(self, values):
        """(ints, scale): the list values as ints over one scale, whose
        quotients are the values (module docstring)."""
        raise NotImplementedError

    def reduce(self, s, scale):
        """The element s / scale, for s a sum of products of lifted values
        at that scale."""
        raise NotImplementedError

    # nonzero(s): is the lifted sum s, at any positive scale, nonzero in
    # the field?  A C callable on both fields (ℚ: truth, F_p: s mod p), for
    # the comparisons, which read only zero-ness
    nonzero = None

    def reduce_vec(self, vec, scale):
        """The list of elements equal to the lifted sums in vec over
        scale."""
        raise NotImplementedError

    def reduce_row(self, row, scale):
        """The dict {k: element} of the lifted sums in the dict row over
        scale, in row's order, without those that reduce to 0."""
        return {k: v for k, v in zip(row, map(self.reduce, row.values(),
                                              repeat(scale))) if v}

    def div(self, a, b):
        """Exact quotient a / b; ZeroDivisionError when b == 0."""
        return a / b

    def ratio(self, num, den):
        return self.div(self.from_int(num), self.from_int(den))

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec() == other.spec()

    def __hash__(self):
        return hash(self.spec())

    def __repr__(self):
        return "Field(%s)" % self.spec()


_new_object = object.__new__


def _operand_error(x):
    return TypeError("unsupported operand type for division in Q: %r"
                     % type(x).__name__)


class QFraction(Fraction):
    """A non-integral rational n/d: n and d coprime, d > 1.

    The operations read the other operand exactly when it is an int or a
    ``Fraction`` (its ``_numerator`` and ``_denominator``), reduce with
    ``math.gcd`` as ``Fraction`` does (Knuth, TAOCP 4.5.1), and return
    ``QFraction(n, d)``: an int when the result is integral.  ``==``,
    ``hash``, ``str`` and ``bool`` are ``Fraction``'s.
    """

    __slots__ = ()

    def __new__(cls, n, d):
        """n/d for coprime ints n and d ≥ 1: the int n when d == 1."""
        if d == 1:
            return n
        q = _new_object(cls)
        q._numerator = n
        q._denominator = d
        return q

    def _add(a, b):
        """a + b"""
        na, da = a._numerator, a._denominator
        if type(b) is int:
            return _new(_RAT, na + b * da, da)
        if type(b) is not _RAT and not isinstance(b, Fraction):
            return NotImplemented
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _new(_RAT, na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        return _new(_RAT, t // g2, s * (db // g2))

    __add__ = __radd__ = _add

    def _sub(a, b):
        """a - b, for a any Fraction"""
        na, da = a._numerator, a._denominator
        if type(b) is int:
            return _new(_RAT, na - b * da, da)
        if type(b) is not _RAT and not isinstance(b, Fraction):
            return NotImplemented
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _new(_RAT, na * db - da * nb, da * db)
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        return _new(_RAT, t // g2, s * (db // g2))

    __sub__ = _sub

    def __rsub__(a, b):
        """b - a"""
        if type(b) is int:
            return _new(_RAT, b * a._denominator - a._numerator,
                        a._denominator)
        if isinstance(b, Fraction):
            return _RAT._sub(b, a)
        return NotImplemented

    def _mul(a, b):
        """a * b"""
        na, da = a._numerator, a._denominator
        if type(b) is int:
            g = gcd(b, da)
            return _new(_RAT, na * (b // g), da // g)
        if type(b) is not _RAT and not isinstance(b, Fraction):
            return NotImplemented
        nb, db = b._numerator, b._denominator
        g1, g2 = gcd(na, db), gcd(nb, da)
        return _new(_RAT, (na // g1) * (nb // g2), (da // g2) * (db // g1))

    __mul__ = __rmul__ = _mul

    def _div(a, b):
        """a / b, for a and b ints or Fractions: ``Rationals.div``.  Any
        other operand type raises TypeError."""
        if type(a) is int:
            na, da = a, 1
        elif type(a) is _RAT or isinstance(a, Fraction):
            na, da = a._numerator, a._denominator
        else:
            raise _operand_error(a)
        if type(b) is int:
            nb, db = b, 1
        elif type(b) is _RAT or isinstance(b, Fraction):
            nb, db = b._numerator, b._denominator
        else:
            raise _operand_error(b)
        if not nb:
            raise ZeroDivisionError("division by zero in Q")
        g1, g2 = gcd(na, nb), gcd(da, db)
        n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
        return _new(_RAT, n, d) if d > 0 else _new(_RAT, -n, -d)

    def __truediv__(a, b):
        """a / b"""
        if type(b) is int or isinstance(b, Fraction):
            return _RAT._div(a, b)
        return NotImplemented

    def __rtruediv__(a, b):
        """b / a"""
        if type(b) is int or isinstance(b, Fraction):
            return _RAT._div(b, a)
        return NotImplemented

    def __neg__(a):
        """-a"""
        return _new(_RAT, -a._numerator, a._denominator)

    # perfbench/spans.py counts the calls of __bool__, read from this
    # class's own namespace
    __bool__ = Fraction.__bool__


_RAT = QFraction
_new = QFraction.__new__
_INT = {int}


def _quotient(s, d):
    """The non-integral rational s/d, for ints s and d > 1 with d ∤ s."""
    g = gcd(s, d)
    return _new(_RAT, s // g, d // g)


class Rationals(Field):
    kind = "Q"
    char = 0

    zero = 0
    one = 1

    def spec(self):
        return "Q"

    def from_int(self, k):
        return operator.index(k)

    div = staticmethod(QFraction._div)
    nonzero = staticmethod(operator.truth)

    def lift(self, values):
        # the scans run in C; Python reads only the nonzero values
        if set(map(type, values)) <= _INT:
            return values, 1
        at = range(len(values))
        fracs = list(compress(at, map(is_not, map(type, values),
                                      repeat(int))))
        d = lcm(*{values[i]._denominator for i in fracs})
        out = list(values)
        for i in fracs:
            out[i] = 0
        for i in compress(at, out):         # the nonzero ints
            out[i] *= d
        for i in fracs:
            x = values[i]
            out[i] = x._numerator * (d // x._denominator)
        return out, d

    def reduce(self, s, scale):
        if scale == 1:
            return s
        return _quotient(s, scale) if s % scale else s // scale

    def reduce_vec(self, vec, scale):
        if scale == 1:
            return vec
        # the scan runs in C; Python reads only the nonzero sums
        out = list(vec)
        for i in compress(range(len(vec)), vec):
            s = vec[i]
            out[i] = _quotient(s, scale) if s % scale else s // scale
        return out

    def fmt(self, x):
        return str(x)


class PrimeField(Field):
    def __init__(self, p):
        if p >= MAX_PRIME:
            raise FieldError("p = %d is too large: primality is decided only "
                             "below %d" % (p, MAX_PRIME))
        if not _is_prime(p):
            raise FieldError("%d is not prime" % p)
        self.kind = "Fp"
        self.p = p
        self.char = p
        self.elem = elem = type("F%d" % p, (FpElem,),
                                {"__slots__": (), "p": p,
                                 "__bool__": int.__bool__})
        elem.residues = (tuple(int.__new__(elem, v) for v in range(p))
                         if p < RESIDUE_TABLE_BOUND
                         else _AllocatingResidues(elem))
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self.nonzero = p.__rmod__

    def spec(self):
        return "Fp:%d" % self.p

    def from_int(self, k):
        return self.elem.residues[operator.index(k) % self.p]

    def lift(self, values):
        return list(map(int, values)), 1

    def reduce(self, s, scale):
        return self.elem.residues[s % self.p]

    def reduce_vec(self, vec, scale):
        # the scan runs in C; Python reads only the nonzero sums
        residues, p = self.elem.residues, self.p
        out = [residues[0]] * len(vec)
        for i in compress(range(len(vec)), vec):
            out[i] = residues[vec[i] % p]
        return out

    def fmt(self, x):
        return str(int(x))


QQ = Rationals()


def complements(a, b):
    """(b/g, a/g) for g = gcd(a, b), so that a·(b/g) = b·(a/g) = lcm(a, b):
    the factors that put sums at the scales a and b on one scale."""
    g = gcd(a, b)
    return b // g, a // g


def scaled(table, k):
    """table with every lifted coefficient multiplied by k, as a new table
    when k ≠ 1 and table itself when k = 1.  table is an int, a list of
    coefficients, a tuple whose last item is the coefficient ((k, c),
    (j, k, c), (index tuple, c)), a dict of coefficients, or a list of
    such tables."""
    if k == 1:
        return table
    if type(table) is int:
        return table * k
    if type(table) is tuple:
        return table[:-1] + (table[-1] * k,)
    if type(table) is dict:
        return {key: v * k for key, v in table.items()}
    return [scaled(x, k) for x in table]


def field_from_spec(spec):
    """Parse "Q" or "Fp:<p>" into a Field."""
    if not isinstance(spec, str):
        raise FieldError("field spec must be a string, got %r" % (spec,))
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise FieldError("bad prime in field spec %r" % (spec,)) from None
        return PrimeField(p)
    raise FieldError("unknown field spec %r" % (spec,))
