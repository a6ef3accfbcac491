"""The exact scalar QC against a reference pair of Fractions, and a guard
that the exact bracket paths create no Fraction."""

import math
import operator
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcyl import exact
from halfcyl.classical import MomentumFunction, TrigPoly, poisson_bracket
from halfcyl.exact import QC
from halfcyl.lie import L, WittElement, witt_closure

small_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
parts = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                  st.fractions(max_denominator=10 ** 12),
                  small_floats)
exact_pairs = st.tuples(parts, parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))
operands = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.booleans(),
    exact_pairs,  # becomes a QC operand
    small_floats,
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([None, "1", [1], object()]),
)


def _ref_exact(v):
    """Reference lift: the Fraction pair of a number operand, else None.  A
    float or complex counts as the exact binary value that it stores."""
    if isinstance(v, tuple):
        return v
    if isinstance(v, Rational):
        return Fraction(v), Fraction(0)
    if isinstance(v, (float, complex)):
        z = complex(v)
        return Fraction(z.real), Fraction(z.imag)
    return None


def _ref_op(name, a, b):
    """The old scalar's arithmetic on Fraction pairs."""
    (ar, ai), (br, bi) = a, b
    if name == "add":
        return ar + br, ai + bi
    if name == "sub":
        return ar - br, ai - bi
    if name == "mul":
        return ar * br - ai * bi, ar * bi + ai * br
    n = br * br + bi * bi
    if n == 0:
        raise ZeroDivisionError
    return (ar * br + ai * bi) / n, (ai * br - ar * bi) / n


def _expected(name, pair, other, reflected=False):
    """(kind, value): an exact pair or an exception type."""
    b = _ref_exact(other)
    if b is None:
        return "raises", TypeError
    x, y = (b, pair) if reflected else (pair, b)
    try:
        return "exact", _ref_op(name, x, y)
    except ZeroDivisionError:
        return "raises", ZeroDivisionError


def _assert_matches(got, pair):
    assert type(got) is QC
    assert (got.re, got.im) == pair
    for part, ref in ((got.re, pair[0]), (got.im, pair[1])):
        assert type(part) is (int if ref.denominator == 1 else Fraction)


def _check(compute, kind, value):
    if kind == "raises":
        with pytest.raises(value):
            compute()
        return
    _assert_matches(compute(), value)


@settings(max_examples=300, deadline=None)
@given(pair=exact_pairs, other=operands)
def test_arithmetic_matches_fraction_pairs(pair, other):
    q = QC(*pair)
    operand = QC(*other) if isinstance(other, tuple) else other
    for name in ("add", "sub", "mul", "truediv"):
        op = getattr(operator, name)
        _check(lambda: op(q, operand), *_expected(name, pair, other))
        if name != "truediv":
            _check(lambda: op(operand, q), *_expected(name, pair, other, reflected=True))
    if not isinstance(operand, QC):
        with pytest.raises(TypeError):  # no reflected division, as before
            operand / q


@settings(max_examples=300, deadline=None)
@given(pair=exact_pairs, other=operands)
def test_structure_matches_fraction_pairs(pair, other):
    q = QC(*pair)
    re, im = pair
    _assert_matches(q, pair)
    _assert_matches(-q, (-re, -im))
    _assert_matches(q.conjugate(), (re, -im))
    assert bool(q) == bool(re or im)
    assert complex(q) == complex(float(re), float(im))
    if im == 0:
        assert repr(q) == str(re)
    elif re == 0:
        assert repr(q) == f"{im}*i"
    else:
        assert repr(q) == f"({re} + {im}*i)"
    operand = QC(*other) if isinstance(other, tuple) else other
    expected = (re, im) == _ref_exact(other)
    assert (q == operand) is expected and (operand == q) is expected
    assert (q != operand) is not expected


@settings(max_examples=300, deadline=None)
@given(pair=exact_pairs, real=st.booleans())
def test_equal_numbers_hash_equal(pair, real):
    """a == b implies hash(a) == hash(b) across QC, int, Fraction, float
    and complex, so a QC finds its equal in a set or dict and back.  A
    float that only approximates the value is unequal to it, as it is to
    the equal Fraction."""
    re, im = pair[0], 0 if real else pair[1]
    forms = [QC(re, im), QC(3 * re, 3 * im) / 3, QC(re) + QC(0, im)]
    if im == 0:
        forms += [re, QC(re)]
        if re.denominator == 1:
            forms.append(int(re))
    z = complex(float(re), float(im))
    floats = [z] if im else [z, z.real]
    stored = (Fraction(z.real), Fraction(z.imag)) == (re, im)  # exactly a float pair
    if stored:
        forms += floats
    for a in forms:
        assert all(a == b and hash(a) == hash(b) for b in forms)
        for b in floats:
            assert (a == b) is stored and (b == a) is stored
            assert a != b or hash(a) == hash(b)
    assert len(set(forms)) == 1


def test_qc_is_found_among_equal_ints_and_fractions():
    assert 3 in {QC(3)} and QC(3) in {3}
    assert QC(Fraction(1, 2)) in {Fraction(1, 2)} and Fraction(1, 2) in {QC(Fraction(1, 2))}


@pytest.mark.parametrize("make", [
    lambda: WittElement({0: float("nan")}),
    lambda: WittElement({2: complex(1.0, float("inf"))}),
    lambda: TrigPoly.const(float("inf")),
    lambda: float("nan") * L(1),
    lambda: QC(1) + float("-inf"),
], ids=["witt-nan", "witt-complex-inf", "trig-inf", "nan-times-mode", "qc-plus-inf"])
def test_non_finite_numbers_are_rejected(make):
    with pytest.raises(ValueError, match="not finite"):
        make()


def test_non_finite_numbers_compare_unequal():
    nan = float("nan")
    assert (QC(1) == nan) is False and (nan == QC(1)) is False
    assert QC(1) != complex(1.0, nan) and QC(0) != float("inf")


@pytest.mark.parametrize("zero", [0, Fraction(0), False, QC(0), QC(0, Fraction(0))])
def test_division_by_exact_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        QC(1, 2) / zero


def test_canonical_triples_make_equal_values_equal():
    a = QC(Fraction(2, 4), Fraction(3, 6)) * 2
    assert a == QC(1, 1) and hash(a) == hash(QC(1, 1))
    assert (type(a.re), type(a.im)) == (int, int)
    half = QC(Fraction(1, 2)) + QC(Fraction(1, 2))
    assert half == QC(1) and type(half.re) is int
    assert QC(1, 3) / 3 == QC(Fraction(1, 3), 1)
    with pytest.raises(AttributeError):
        a.re = 2


exact_coeffs = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    exact_pairs.map(lambda p: QC(*p)))


@given(st.dictionaries(st.integers(-6, 6), exact_coeffs, max_size=6),
       st.dictionaries(st.integers(-6, 6), exact_coeffs, max_size=6))
def test_exact_bracket_matches_the_term_by_term_loop(a, b):
    # reference: each term (k - j) a_j b_k as a QC, summed as a QC
    x, y = WittElement(a), WittElement(b)
    want = {}
    for j, p in x.coeffs.items():
        for k, q in y.coeffs.items():
            if j != k:
                want[j + k] = want.get(j + k, QC(0)) + (k - j) * (p * q)
    got = x.bracket(y)
    assert got.coeffs == {m: c for m, c in want.items() if c}
    assert all(type(c) is QC for c in got.coeffs.values())


def test_exact_bracket_paths_create_no_fraction(monkeypatch):
    tower = [WittElement({0: Fraction(2, 3), 4: 2}),
             WittElement({-4: -4, 0: -1, 4: 3}),
             WittElement({-4: 2, 0: -1, 4: -1})]
    half = Fraction(1, 2)
    f = TrigPoly.cos(1)  # 1/2 e^{i phi} + 1/2 e^{-i phi}
    g = TrigPoly({0: half, 1: QC(0, -3 * half / 2), -1: QC(0, 3 * half / 2)})

    def no_fraction(*args):
        raise AssertionError("Fraction created in the exact path")

    with monkeypatch.context() as patch:
        patch.setattr(exact, "Fraction", no_fraction)
        closure = witt_closure(tower)
        bracket = poisson_bracket(MomentumFunction(f), MomentumFunction(g))
    assert closure.closed and closure.dimension == 3
    # f = cos, g = 1/2 + 3/2 sin: f' g - f g' = -1/2 sin - 3/2
    expected = TrigPoly.const(Fraction(-3, 2)) + Fraction(-1, 2) * TrigPoly.sin(1)
    assert bracket == MomentumFunction(expected)


# ---------------------------------------------------------------------------
# series operations build canonical scalars in place
# ---------------------------------------------------------------------------

series_coeffs = st.dictionaries(st.integers(-6, 6), st.one_of(exact_coeffs, small_floats),
                                max_size=6)


def _assert_canonical(series):
    for c in series.coeffs.values():
        assert type(c) is QC and c
        ref = QC(c.re, c.im)
        assert (c._x, c._y, c._d) == (ref._x, ref._y, ref._d) and c._d > 0


@settings(max_examples=200, deadline=None)
@given(series_coeffs, series_coeffs, st.one_of(exact_coeffs, small_floats, st.just(0)))
def test_series_operations_hold_nonzero_canonical_scalars(a, b, s):
    x, y = WittElement(a), WittElement(b)
    for result in (x.bracket(y), x + y, x - y, y + x, x - x, s * x, x * s, x.product(y),
                   x.derivative(), -x, WittElement(a | b)):
        _assert_canonical(result)
    assert (x - x).is_zero and (0 * x).is_zero


@pytest.mark.parametrize("coeffs, error", [
    ({"a": 1}, ValueError), ({"a": 0}, ValueError),
    ({None: 1}, TypeError), ({None: 0}, TypeError),
    ({math.inf: 0}, OverflowError), ({math.nan: 0}, ValueError),
    ({0: math.nan}, ValueError), ({0: complex(0, math.inf)}, ValueError),
    ({0: "x"}, TypeError), ({0: None}, TypeError), ({0: [1]}, TypeError),
    ({0: "x", 1: math.nan}, ValueError),  # the NaN raises as it is read
    ({0: 1, "b": "x"}, ValueError),  # a key is read before its coefficient
])
def test_series_constructor_raises_as_before(coeffs, error):
    with pytest.raises(error):
        WittElement(coeffs)


def test_series_constructor_truncates_keys_and_keeps_the_last_value():
    # int() of the key, as always: 1.5 is mode 1, and a later value of a
    # key replaces an earlier one, also a zero or a non-number
    assert WittElement({1.5: 2}).coeffs == {1: QC(2)}
    assert WittElement({1: 2, 1.5: 0}).is_zero
    assert WittElement({1: "x", 1.5: 3}).coeffs == {1: QC(3)}
    assert list(WittElement({1: 0, 2: 5, 1.5: 7}).coeffs) == [1, 2]
