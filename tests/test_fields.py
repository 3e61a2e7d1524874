"""Scalar layer: int-first ℚ, the one exact division path, F_p residues
and primality."""

import operator
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopflab import fields
from hopflab.fields import (QQ, FieldError, PrimeField, _is_prime,
                            field_from_spec)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_rationals_are_int_first():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-3)) is int
    assert fields._RAT is fields.QFraction
    assert issubclass(fields._RAT, Fraction)


def test_div_integral_quotient_is_int():
    q = QQ.div(4, 2)
    assert type(q) is int and q == 2


def test_div_non_integral_quotient_is_fraction():
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(1, 2)) is fields.QFraction
    assert QQ.div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q$"):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q$"):
        QQ.div(QQ.div(1, 2), Fraction(0))


def test_parse_integral_is_int():
    q = QQ.parse("6/3")
    assert type(q) is int and q == 2
    assert QQ.parse("-1/2") == Fraction(-1, 2)


def test_int_and_fraction_agree_on_eq_hash_str():
    q = QQ.div(6, 3)
    f = Fraction(2)
    assert q == f and hash(q) == hash(f) and str(q) == str(f)


def test_prime_field_parse_quotient():
    f5 = PrimeField(5)
    assert f5.parse("1/2") == f5.from_int(3)
    with pytest.raises(ZeroDivisionError):
        f5.parse("1/5")


def test_is_prime_matches_trial_division():
    for n in range(5000):
        assert _is_prime(n) == trial_division(n), n


def test_large_mersenne_prime_accepted_quickly():
    t0 = time.perf_counter()
    f = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 0.5
    assert f.spec() == "Fp:%d" % (2 ** 61 - 1)


@pytest.mark.parametrize("n", [561, 3215031751])
def test_pseudoprimes_rejected(n):
    # 561 is a Carmichael number; 3215031751 = 151·751·28351 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7.
    assert not trial_division(n)
    with pytest.raises(FieldError, match="not prime"):
        PrimeField(n)


def test_prime_beyond_exact_bound_rejected():
    with pytest.raises(FieldError, match="too large"):
        PrimeField(fields.MAX_PRIME)


@pytest.mark.parametrize("spec", ["Fp:abc", "Fp:", "Fp:4", "R", 5, None])
def test_bad_field_spec_is_field_error(spec):
    with pytest.raises(FieldError):
        field_from_spec(spec)


PRIMES = (2, 5, 13, 2 ** 61 - 1)
FIELDS = {p: PrimeField(p) for p in PRIMES}
OPS = [operator.add, operator.sub, operator.mul]


def assert_residue(f, x, expected):
    assert type(x) is f.elem and 0 <= x < f.p and x == expected % f.p


@given(st.sampled_from(PRIMES), st.integers(), st.integers())
def test_fp_ops_agree_with_int_arithmetic_mod_p(p, a, b):
    f = FIELDS[p]
    x, y = f.from_int(a), f.from_int(b)
    assert_residue(f, x, a)
    for op in OPS:
        assert_residue(f, op(x, y), op(a, b))
        assert_residue(f, op(a, y), op(a, b))
        assert_residue(f, op(x, b), op(a, b))
    assert_residue(f, -x, -a)
    if b % p:
        assert_residue(f, f.div(x, y), a * pow(b, -1, p))
    assert bool(x) == (a % p != 0)


@given(st.sampled_from(PRIMES),
       st.lists(st.tuples(st.integers(), st.integers()), max_size=6))
def test_lifted_sum_reduces_to_the_field_sum(p, pairs):
    """Σ x·y summed on lifted values and reduced once, at the product of
    the two lists' scales, is the sum computed on field elements: over F_p
    every scale is 1, and over ℚ, for rationals of denominators 1, 2, 3
    and 6, the scale is their common denominator and the sum int-first."""
    f = FIELDS[p]
    xs = [(f.from_int(a), f.from_int(b)) for a, b in pairs]
    field_sum = f.zero
    for x, y in xs:
        field_sum = field_sum + x * y
    (lx, sx), (ly, sy) = f.lift([x for x, _ in xs]), f.lift([y for _, y in xs])
    assert sx == sy == 1 and all(type(v) is int for v in lx + ly)
    assert_residue(f, f.reduce(sum(map(operator.mul, lx, ly)), 1), field_sum)
    qs = [(QQ.ratio(a, 1 + a % 3), QQ.ratio(b, 1 + b % 2)) for a, b in pairs]
    (lx, sx), (ly, sy) = (QQ.lift([pair[leg] for pair in qs])
                          for leg in (0, 1))
    assert all(type(v) is int for v in lx + ly) and {sx, sy} <= {1, 2, 3, 6}
    assert [Fraction(v, sx) for v in lx] == [x for x, _ in qs]
    want = sum((Fraction(x) * Fraction(y) for x, y in qs), Fraction(0))
    assert_int_first(QQ.reduce(sum(map(operator.mul, lx, ly)), sx * sy), want)
    ints = [x for x, _ in qs if type(x) is int]
    assert QQ.lift(ints) == (ints, 1) and QQ.lift(ints)[0] is ints


def test_fp_mixed_int_operands_reduce():
    f5 = PrimeField(5)
    four = f5.from_int(4)
    for x in (3 + four, four * 3, 3 * four, four + 3, 3 - four, four - 7):
        assert type(x) is f5.elem and 0 <= x < 5
    assert (3 + four, four * 3, 3 - four) == (2, 2, 4)


def test_fp_elements_are_their_residues():
    f5 = PrimeField(5)
    assert f5.from_int(7) == 2 and hash(f5.from_int(7)) == hash(2)
    assert str(f5.from_int(-1)) == "4"
    assert f5.fmt(f5.from_int(-1)) == "4"
    assert not f5.zero and f5.one and not any([f5.zero, f5.from_int(10)])


def test_fp_div_by_zero_raises():
    f5 = PrimeField(5)
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in F_5$"):
        f5.div(f5.one, f5.zero)
    with pytest.raises(ZeroDivisionError):
        f5.div(f5.one, f5.from_int(10))


def test_fp_bad_scalar_message_names_the_scalar():
    from hopflab.io_json import InputError, _parse_scalar
    with pytest.raises(InputError, match=r"^bad scalar '2/5': division by "
                                         r"zero in F_5$"):
        _parse_scalar(PrimeField(5), "2/5")


def test_q_bad_scalar_message_names_the_scalar():
    from hopflab.io_json import InputError, _parse_scalar
    with pytest.raises(InputError, match=r"^bad scalar '1/0': division by "
                                         r"zero in Q$"):
        _parse_scalar(QQ, "1/0")


# ℚ operands of each type: ints, plain Fractions and QFractions (QQ.div
# of a non-integral quotient), over small and multi-word numerators
SMALL = st.integers(-30, 30)
BIG = st.integers(-2 ** 70, 2 ** 70)
DENS = st.integers(1, 12) | st.integers(1, 2 ** 70)
RATIONALS = st.tuples(SMALL | BIG, DENS).map(lambda nd: Fraction(*nd))
Q_OPERANDS = st.one_of(
    SMALL | BIG, RATIONALS,
    RATIONALS.filter(lambda q: q.denominator > 1).map(
        lambda q: QQ.div(q.numerator, q.denominator)))


def assert_int_first(x, expected):
    """x equals the Fraction expected, is an int exactly when expected is
    integral, and agrees with expected on ==, hash, str and bool."""
    assert type(expected) is Fraction
    if expected.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is fields.QFraction
        assert (x.numerator, x.denominator) == (expected.numerator,
                                                expected.denominator)
    assert x == expected and expected == x and not x != expected
    assert hash(x) == hash(expected) and str(x) == str(expected)
    assert bool(x) is bool(expected)


@settings(max_examples=300)
@given(Q_OPERANDS, Q_OPERANDS)
def test_qfraction_ops_agree_with_fraction(a, b):
    """+, -, *, unary -, QQ.div and parse on an int, a Fraction or a
    QFraction, in both orders, give Fraction's value, int-first whenever
    a QFraction is an operand."""
    fa, fb = Fraction(a), Fraction(b)
    for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
        if type(x) is fields.QFraction or type(y) is fields.QFraction:
            for op in OPS:
                assert_int_first(op(x, y), op(fx, fy))
        if type(x) is fields.QFraction:
            assert_int_first(-x, -fx)
        if fy:
            assert_int_first(QQ.div(x, y), fx / fy)
        else:
            with pytest.raises(ZeroDivisionError, match="division by zero "
                                                        "in Q"):
                QQ.div(x, y)
    assert_int_first(QQ.parse(str(fa)), fa)
    assert_int_first(QQ.reduce_vec(*QQ.lift([fa]))[0], fa)


def test_qfraction_rejects_other_operand_types():
    half = QQ.div(1, 2)
    for other in (0.5, 1j, "1", None):
        for op in OPS:
            with pytest.raises(TypeError):
                op(half, other)
            with pytest.raises(TypeError):
                op(other, half)


def test_q_div_rejects_other_operand_types():
    """QQ.div raises TypeError naming the type of a non-ℚ operand, in
    either place, also when the other operand is 0 or a zero divisor; a ℚ
    zero divisor still raises ZeroDivisionError.  The / operator's own
    methods still answer NotImplemented for such a type."""
    half = QQ.div(1, 2)
    for other, name in ((0.5, "float"), (1j, "complex"), ("1", "str"),
                        (None, "NoneType"), (Decimal(1), "Decimal")):
        for a, b in ((1, other), (other, 1), (half, other), (other, half),
                     (Fraction(3, 4), other), (other, Fraction(3, 4)),
                     (other, 0)):
            with pytest.raises(TypeError, match=r"^unsupported operand type "
                               r"for division in Q: '%s'$" % name):
                QQ.div(a, b)
        assert half.__truediv__(other) is NotImplemented
        assert half.__rtruediv__(other) is NotImplemented
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q$"):
        QQ.div(half, 0)
    assert half / Fraction(1, 4) == 2 and Fraction(1, 4) / half == half
    assert half / 2 == Fraction(1, 4) and 2 / half == 4


TABLE_PRIMES = (2, 3, 5, 7, 13)
INT_OPERANDS = (-40, -13, -1, 0, 13, 14, 100)   # negative, 0 and ≥ p


def fp_results(f, x, y):
    """(operation, result, int result) for every operation on x and y."""
    out = [("+", x + y, int(x) + int(y)), ("-", x - y, int(x) - int(y)),
           ("*", x * y, int(x) * int(y))]
    for a, b in ((x, y), (y, x)):
        if isinstance(a, f.elem):
            out.append(("neg", -a, -int(a)))
        if int(b) % f.p:
            out.append(("/", f.div(a, b), int(a) * pow(int(b), -1, f.p)))
    return out


@pytest.mark.parametrize("p", TABLE_PRIMES)
def test_fp_table_results_are_the_interned_residues(p):
    """Every operation on a residue pair, or on a residue and a plain int in
    either order, gives the field's element of the int result mod p, and
    that is the one object from_int returns for it."""
    f = PrimeField(p)
    assert len(f.elem.residues) == p
    assert all(type(r) is f.elem and r == v
               for v, r in enumerate(f.elem.residues))
    elems = [f.from_int(v) for v in range(p)]
    pairs = [(x, y) for x in elems for y in elems]
    pairs += [(x, k) for x in elems for k in INT_OPERANDS]
    pairs += [(k, x) for x in elems for k in INT_OPERANDS]
    for x, y in pairs:
        for op, got, expected in fp_results(f, x, y):
            assert type(got) is f.elem, (p, x, op, y)
            assert got is f.from_int(expected), (p, x, op, y)
            assert got is f.elem.residues[expected % p]
    assert f.zero is f.from_int(p) and f.one is f.from_int(1 - p)
    for one, zero in [(f.one, z) for z in (f.zero, 0, p, -p)] + [(1, f.zero)]:
        with pytest.raises(ZeroDivisionError, match="division by zero in "
                                                    "F_%d" % p):
            f.div(one, zero)


def test_fp_residue_table_bound():
    below, above = 4093, 4099      # the primes next to 2**12
    assert _is_prime(below) and _is_prime(above)
    assert below < fields.RESIDUE_TABLE_BOUND <= above
    assert len(PrimeField(below).elem.residues) == below
    assert not isinstance(PrimeField(above).elem.residues, tuple)


@pytest.mark.parametrize("p", [4099, 2 ** 61 - 1])
def test_fp_large_field_builds_no_table(p):
    """Above the table bound the same operations allocate their results."""
    f = PrimeField(p)
    assert not isinstance(f.elem.residues, tuple)
    values = (0, 1, 2, p - 1, p // 3)
    elems = [f.from_int(v) for v in values]
    ints = (-p - 5, -1, 0, p, 3 * p + 7)
    pairs = [(x, y) for x in elems for y in elems]
    pairs += [(x, k) for x in elems for k in ints]
    pairs += [(k, x) for x in elems for k in ints]
    for x, y in pairs:
        for op, got, expected in fp_results(f, x, y):
            assert type(got) is f.elem and got == expected % p, (x, op, y)
    with pytest.raises(ZeroDivisionError):
        f.div(f.one, f.from_int(p))
