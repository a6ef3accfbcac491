import itertools
import math
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfcyl import lie
from halfcyl.cli import parse_generators
from halfcyl.exact import QC
from halfcyl.lie import (
    _ExactSpan, L, So12Element, WittElement, algebra_isomorphism, killing_form,
    so12_bracket, vector_field_to_so12, witt_bracket, witt_closure,
    witt_C, witt_S, witt_T,
)


# ---------------------------------------------------------------------------
# witt_bracket
# ---------------------------------------------------------------------------

def test_bracket_sl2_pair():
    assert witt_bracket(L(1), L(-1)) == WittElement({0: -2})


@pytest.mark.parametrize("m", [-5, -1, 0, 1, 2, 7])
def test_bracket_with_l0_scales(m):
    assert witt_bracket(L(0), L(m)) == WittElement({m: m})


exact_elements = st.dictionaries(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(WittElement)


@given(exact_elements)
def test_bracket_antisymmetric(a):
    assert witt_bracket(a, a).is_zero


@settings(max_examples=60)
@given(exact_elements, exact_elements, exact_elements)
def test_bracket_jacobi_exact(a, b, c):
    total = (witt_bracket(a, witt_bracket(b, c))
             + witt_bracket(b, witt_bracket(c, a))
             + witt_bracket(c, witt_bracket(a, b)))
    assert total.is_zero


def test_bracket_jacobi_float_inputs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        elems = []
        for _ in range(3):
            modes = rng.integers(-5, 6, size=3)
            vals = rng.normal(size=3) + 1j * rng.normal(size=3)
            elems.append(WittElement({int(m): v for m, v in zip(modes, vals)}))
        a, b, c = elems
        total = (witt_bracket(a, witt_bracket(b, c))
                 + witt_bracket(b, witt_bracket(c, a))
                 + witt_bracket(c, witt_bracket(a, b)))
        # floats lift to the dyadic rationals they store: Jacobi is exact
        assert total.is_zero


def test_bracket_bilinear():
    a, b = L(2), L(-3)
    lhs = witt_bracket(3 * a + WittElement({1: Fraction(1, 2)}), b)
    rhs = 3 * witt_bracket(a, b) + Fraction(1, 2) * witt_bracket(L(1), b)
    assert lhs == rhs


def _all_exact(elem):
    return all(type(c) is QC for c in elem.coeffs.values())


def test_float_coefficients_lift_exactly():
    assert WittElement({0: 0.1}).coeffs[0] == QC(Fraction(0.1))
    assert WittElement({0: 0.1}).coeffs[0] != QC(Fraction(1, 10))
    assert WittElement({1: 0.5 - 0.25j}).coeffs[1] == QC(Fraction(1, 2), Fraction(-1, 4))
    mixed = WittElement({0: 1}) + WittElement({0: 0.5, 2: Fraction(1, 3)})
    assert _all_exact(mixed) and mixed.coeffs == {0: QC(Fraction(3, 2)), 2: QC(Fraction(1, 3))}
    scaled = 0.1 * L(1)
    assert _all_exact(scaled) and scaled.coeffs == {1: QC(Fraction(0.1))}


def test_exact_scalar_times_element_stays_exact():
    for prod in (QC(2, 1) * WittElement({1: 1}), WittElement({1: 1}) * QC(2, 1)):
        assert type(prod) is WittElement and _all_exact(prod)
        assert prod.coeffs == {1: QC(2, 1)}
    assert _all_exact(QC(1, 3) * WittElement({1: 1, -2: Fraction(1, 2)}) - WittElement({}))


def test_exact_division_gives_fractions_and_integers_stay_integers():
    third = QC(1) / QC(3)
    assert third.re == Fraction(1, 3) and type(third.re) is Fraction
    q = QC(1, 2) / QC(0, 1)
    assert q == QC(2, -1) and (type(q.re), type(q.im)) == (int, int)
    prod = QC(2, 1) * QC(3, -1) + 4
    assert (type(prod.re), type(prod.im)) == (int, int)
    assert prod == QC(11, 1) and hash(prod) == hash(QC(Fraction(11), Fraction(1)))
    assert repr(prod) == repr(QC(Fraction(11), Fraction(1))) == "(11 + 1*i)"


def test_exact_series_compare_exactly():
    a = WittElement({1: Fraction(1, 3)})
    b = WittElement({1: Fraction(1, 3) + Fraction(1, 10 ** 20)})
    assert complex(a.coeffs[1]) == complex(b.coeffs[1])  # equal as floats
    assert not (b - a).is_zero
    assert a != b and not a == b
    same = WittElement({1: Fraction(2, 6)})
    assert a == same and hash(a) == hash(same)


# ---------------------------------------------------------------------------
# witt_closure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l", range(1, 9))
def test_sl2_towers_close(l):
    res = witt_closure([L(-l), L(0), L(l)])
    assert res.closed and res.dimension == 3


@pytest.mark.parametrize("l", range(1, 9))
def test_sl2_structure_constants_after_basis_change(l):
    # h = 2 L_0 / l, e = L_l, f = -L_{-l} / l^2 satisfy the standard relations
    h = Fraction(2, l) * L(0)
    e = L(l)
    f = Fraction(-1, l * l) * L(-l)
    assert witt_bracket(h, e) == 2 * e
    assert witt_bracket(h, f) == -2 * f
    assert witt_bracket(e, f) == h


def test_two_dim_span_closes():
    res = witt_closure([L(0), L(2)])
    assert res.closed and res.dimension == 2


def test_divergent_pair_witness():
    res = witt_closure([L(1), L(2)])
    assert not res.closed
    assert res.witness_mode == 3


def test_closure_order_independent():
    gens = [L(-3), L(0), L(3)]
    results = [witt_closure(perm) for perm in
               (gens, gens[::-1], [gens[1], gens[2], gens[0]])]
    assert all(r.closed and r.dimension == 3 for r in results)


def test_closure_order_is_exact():
    # the two constants differ by 1e-30, below the float spacing at 1/3: only
    # an exact order tells them apart
    a = WittElement({0: Fraction(1, 3), 1: 1})
    b = WittElement({0: Fraction(1, 3) + Fraction(1, 10 ** 30), 1: 1})
    assert witt_closure([a, b]).basis == witt_closure([b, a]).basis


def test_closure_handles_combined_generators():
    # the closure of {L_0, L_1 + L_2} leaves any finite span
    res = witt_closure([L(0), L(1) + L(2)])
    assert not res.closed


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 10), min_size=3, max_size=3, unique=True),
       st.booleans())
def test_four_dim_spans_diverge(ms, flip):
    # any 4-dim span containing L_0 and two modes of distinct |mode| diverges
    a, b, c = ms
    if flip:
        a = -a
    if abs(a) == b:
        b += 1
    res = witt_closure([L(0), L(a), L(b), L(c + 10)], dim_bound=12)
    assert not res.closed
    assert res.witness_mode is not None


def _det(rows):
    """Exact determinant by cofactor expansion (at most 3x3 here)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** i * rows[0][i] * _det([r[:i] + r[i + 1:] for r in rows[1:]])
               for i in range(len(rows)))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def recombinations(draw):
    """Full-rank rational recombination of <L_-l, L_0, L_l> or <L_0, L_l>."""
    l = draw(st.integers(1, 8))
    modes = draw(st.sampled_from([(-l, 0, l), (0, l), (0, -l)]))
    n = len(modes)
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                         min_size=n, max_size=n).filter(lambda r: _det(r) != 0))
    return [WittElement(dict(zip(modes, row))) for row in rows]


@settings(max_examples=80, deadline=None)
@given(recombinations())
def test_rational_recombinations_close_exactly(gens):
    res = witt_closure(gens)
    assert res.closed and res.dimension == len(gens)
    assert all(map(_all_exact, res.basis))


def test_closed_recombination_returns_its_sorted_generators():
    # an independent set spanning a closed algebra is its own basis: the
    # generators in the order of lie._sort_key, whatever the order given
    rng = random.Random(29)
    for case in range(50):
        l = rng.randint(1, 8)
        modes = (-l, 0, l) if case % 2 else (0, rng.choice((-l, l)))
        while True:
            if case % 4 < 2:
                rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in modes]
                        for _ in modes]
            else:
                rows = [[rng.gauss(0.0, 1.0) for _ in modes] for _ in modes]
            if _det([[Fraction(c) for c in row] for row in rows]):
                break
        gens = [WittElement(dict(zip(modes, row))) for row in rows]
        rng.shuffle(gens)
        res = witt_closure(gens)
        assert res.closed and res.dimension == len(modes)
        assert res.basis == tuple(sorted(gens, key=lie._sort_key))


def test_closure_exact_recombination_regression():
    # three rational combinations of L_-4, L_0, L_4 span exactly that sl(2)
    gens = [WittElement({0: Fraction(2, 3), 4: 2}),
            WittElement({-4: -4, 0: -1, 4: 3}),
            WittElement({-4: 2, 0: -1, 4: -1})]
    res = witt_closure(gens)
    assert res.closed and res.dimension == 3
    assert all(map(_all_exact, res.basis))


def test_closure_float_path():
    res = witt_closure([WittElement({-1: 1.0}), WittElement({0: 0.5}), WittElement({1: 2.0})])
    assert res.closed and res.dimension == 3
    res = witt_closure([WittElement({1: 1.0}), WittElement({2: 0.3})])
    assert not res.closed and res.witness_mode == 3


def test_float_tower_closes_with_an_exact_basis():
    gens = [WittElement({-3: 0.7, 0: 0.1}), WittElement({0: 1.3, 3: -0.2}),
            WittElement({-3: 0.25, 3: 1e-3})]
    res = witt_closure(gens)
    assert res.closed and res.dimension == 3
    assert all(map(_all_exact, res.basis))


def test_float_rank_is_exact_rank():
    # 1e-12 is far below any relative singular-value cutoff, but it is a
    # nonzero dyadic rational, so the two generators are independent
    res = witt_closure([WittElement({0: 1.0}), WittElement({0: 1.0, 1: 1e-12})])
    assert res.closed and res.dimension == 2
    assert {b.support for b in res.basis} == {(0,), (0, 1)}


def test_closure_runs_no_qc_arithmetic(monkeypatch):
    # the bracket kernel and the span's elimination run on the integers of
    # each QC, so closing a span never calls QC arithmetic
    towers = ([WittElement({-3: 0.7, 0: 0.1}), WittElement({0: 1.3, 3: -0.2}),
               WittElement({-3: 0.25, 3: 1e-3})],
              [WittElement({0: Fraction(2, 3), 4: 2}), WittElement({-4: -4, 0: -1, 4: 3}),
               WittElement({-4: 2, 0: -1, 4: -1})])

    def forbidden(*args):
        raise AssertionError("QC arithmetic in the closure search")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__neg__"):
        monkeypatch.setattr(QC, name, forbidden)
    for gens in towers:
        res = witt_closure(gens)
        assert res.closed and res.dimension == 3


def test_closure_skips_brackets_a_coordinate_span_holds(monkeypatch):
    # a coordinate span holds every bracket whose mode sums lie in its modes,
    # so closing a tower or a pair that starts as one computes no bracket
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return a.bracket(b)

    monkeypatch.setattr(lie, "witt_bracket", counted)
    for gens in ([L(-2), L(0), L(2)],
                 [WittElement({0: Fraction(2, 3), 4: 2}), WittElement({-4: -4, 0: -1, 4: 3}),
                  WittElement({-4: 2, 0: -1, 4: -1})],
                 [WittElement({-3: 0.7, 0: 0.1}), WittElement({0: 1.3, 3: -0.2}),
                  WittElement({-3: 0.25, 3: 1e-3})],
                 [L(0), L(5)]):
        res = witt_closure(gens)
        assert res.closed and res.dimension == len(gens)
        assert calls == []
    res = witt_closure([L(1), L(2)])
    assert not res.closed and res.witness_mode == 3 and calls
    calls.clear()
    # the Borel recombination never is a coordinate span
    res = witt_closure([L(1) + 3 * L(0) + 2 * L(-1), -L(1) - L(0)])
    assert res.closed and res.dimension == 2 and calls


def _rank(elems):
    """Exact rank over Q(i): half the rank over Q of every v and i v, written
    as the real Fraction vectors (Re v, Im v) on the modes."""
    modes = sorted({j for e in elems for j in e.coeffs})
    rows = []
    for e in elems:
        re = [Fraction(e.get(j).re) for j in modes]
        im = [Fraction(e.get(j).im) for j in modes]
        rows += [re + im, [-x for x in im] + re]
    rank = 0
    for col in range(2 * len(modes)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank // 2


_coefficient = rationals | st.floats(-4, 4)


@st.composite
def shared_mode_generators(draw):
    """Rational and float generators on one mode set, and whether that set
    lies in a closed <L_-l, L_0, L_l> or <L_0, L_l>; the last generator may
    be a combination of two others, exact or off by 1e-12."""
    l = draw(st.integers(1, 6))
    modes = draw(st.sampled_from([(-l, 0, l), (0, l), (-l, l), (0, l, 2 * l)]))
    gens = [WittElement(dict(zip(modes, draw(st.lists(
        _coefficient, min_size=len(modes), max_size=len(modes))))))
        for _ in range(draw(st.integers(1, 3)))]
    if len(gens) >= 2 and draw(st.booleans()):
        eps = draw(st.sampled_from([0, 1e-12, Fraction(1, 10 ** 12)]))
        gens.append(draw(_coefficient) * gens[0] + draw(_coefficient) * gens[1]
                    + WittElement({modes[-1]: eps}))
    return gens, modes != (0, l, 2 * l)


def _closure_key(gens, **bounds):
    res = witt_closure(gens, **bounds)
    return res.closed, res.witness_mode, res.basis and [repr(b) for b in res.basis]


def _assert_skip_changes_nothing(gens, **bounds):
    """The closure with the coordinate-span skip equals the closure that
    computes every bracket."""
    skipped = _closure_key(gens, **bounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ExactSpan, "holds_bracket", lambda self, a, b: False)
        assert _closure_key(gens, **bounds) == skipped


@settings(max_examples=80, deadline=None)
@given(shared_mode_generators())
def test_closed_basis_has_exact_rank_and_closes(case):
    gens, in_closed_span = case
    if all(g.is_zero for g in gens):
        return
    _assert_skip_changes_nothing(gens)
    res = witt_closure(gens)
    if in_closed_span:
        assert res.closed
    if not res.closed:
        return
    basis = list(res.basis)
    assert _rank(basis) == res.dimension == _rank(basis + gens)
    for a, b in itertools.combinations(basis, 2):
        assert _rank(basis + [witt_bracket(a, b)]) == res.dimension


@pytest.mark.parametrize("text", [
    # the README and CI closure examples
    "L-1,L0,L1", "L0 + 2*L2, 1/2*L1", "L1,L2",
    "2/3*L0 + 2*L4, -4*L-4 - L0 + 3*L4, 2*L-4 - L0 - L4",
    "L1 + 3*L0 + 2*L-1, -L1 - L0",
    # not a coordinate span, yet every mode sum lands in its modes: dimension 3
    "L0, L-1 + L1",
    # a coordinate span that one mode sum escapes: witness 3
    "L1 + L2, L2",
    # one mode sum of the last pair (1 + 2) escapes, the others stay in
    "L0, L0 + L1, L0 + L2",
])
def test_bracket_skip_matches_full_closure_on_examples(text):
    _assert_skip_changes_nothing(parse_generators(text))


def test_bracket_skip_pinned_closures():
    res = witt_closure(parse_generators("L0, L-1 + L1"))
    assert res.closed and res.dimension == 3
    for text in ("L1 + L2, L2", "L0, L0 + L1, L0 + L2"):
        res = witt_closure(parse_generators(text))
        assert not res.closed and res.witness_mode == 3


def test_bracket_skip_matches_full_closure_on_low_mode_pairs():
    # T, S_1..3 and C_1..3, singly and in pairs with coefficients +-1 (49
    # fields), closed in pairs at the bounds of the uniqueness sweep
    base = [witt_T()] + [f(l) for f in (witt_S, witt_C) for l in (1, 2, 3)]
    fields = base + [a + s * b for a, b in itertools.combinations(base, 2) for s in (1, -1)]
    assert len(fields) == 49
    for a, b in itertools.combinations(fields, 2):
        _assert_skip_changes_nothing([a, b], mode_bound=8, dim_bound=6)


_scalar = (_coefficient | st.complex_numbers(max_magnitude=4, allow_nan=False,
                                             allow_infinity=False)
           | st.builds(QC, rationals, rationals))


@st.composite
def insertion_sequences(draw):
    """Elements on the modes -2..2, exact or float-lifted: single modes keep a
    span coordinate, combinations of modes leave that state or (once their
    modes are all covered) return to it, and combinations of earlier
    elements lie in the span."""
    seq = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["mode", "mixed", "dependent"]))
        if kind == "dependent" and seq:
            a, b = draw(st.sampled_from(seq)), draw(st.sampled_from(seq))
            seq.append(draw(_scalar) * a + draw(_scalar) * b)
            continue
        modes = draw(st.lists(st.integers(-2, 2), min_size=1,
                              max_size=1 if kind == "mode" else 3, unique=True))
        seq.append(WittElement({j: draw(_scalar) for j in modes}))
    return seq


@settings(max_examples=200, deadline=None)
@given(insertion_sequences())
# a row that no pivot reduces is stored primitive too
@example([L(0) + L(1), 2 * L(-2) + 2 * L(2)])
def test_span_membership_matches_exact_rank(seq):
    span, inserted = _ExactSpan(), []
    for elem in seq:
        grows = _rank(inserted + [elem]) > _rank(inserted)
        assert span.insert(elem) == grows
        if grows:
            inserted.append(elem)
        assert all(math.gcd(*(n for xy in row.values() for n in xy)) == 1
                   for _, row in span.rows)


@pytest.mark.parametrize("seq, coordinate", [
    # coordinate from the start
    ([L(0), L(1), 3 * L(0) - L(1), L(2)], [True, True, True, True]),
    # leaves the coordinate state, then returns to it once L_0 covers L_0 + L_1
    ([L(0) + L(1), 2 * L(0) + 2 * L(1), L(0), L(1), L(-1)], [False, False, True, True, True]),
    # the Borel <L_1 + 3 L_0 + 2 L_-1, -L_1 - L_0> never is a coordinate span
    ([L(1) + 3 * L(0) + 2 * L(-1), -L(1) - L(0), 4 * L(-1) + 2 * L(0) - 2 * L(1)],
     [False, False, False]),
], ids=["coordinate", "becomes-coordinate", "never-coordinate"])
def test_span_coordinate_state(seq, coordinate):
    span, inserted = _ExactSpan(), []
    for elem, want in zip(seq, coordinate):
        assert span.insert(elem) == (_rank(inserted + [elem]) > _rank(inserted))
        inserted.append(elem)
        assert (len(span.rows) == len(span.modes)) == want


def test_closure_preconditions():
    with pytest.raises(ValueError):
        witt_closure([])
    with pytest.raises(ValueError):
        witt_closure([L(9)], mode_bound=5)
    with pytest.raises(ValueError):
        witt_closure([L(0), L(1), L(2)], dim_bound=2)


def test_closure_bound_exceeded_is_verdict_not_exception():
    res = witt_closure([L(5), L(7)], mode_bound=20)
    assert not res.closed and res.witness_mode == 12


def test_closure_dim_bound_admits_a_span_of_exactly_that_dimension():
    res = witt_closure([L(1), L(-1)], dim_bound=3)
    assert res.closed and res.dimension == 3
    res = witt_closure([L(1), L(-1)], dim_bound=2)
    assert not res.closed and res.witness_mode == 0


@pytest.mark.parametrize("modes, top", [({-3, 3}, 3), ({-4, 3}, -4), ({-2}, -2),
                                        ({2, 5}, 5), ({-5, -1}, -5), ({0}, 0)])
def test_top_mode_is_the_largest_index_ties_positive(modes, top):
    assert lie._top_mode(modes) == top
    assert lie._top_mode(dict.fromkeys(modes)) == top


@pytest.mark.parametrize("gens", [
    # a complex pair inside the so(1,2) tower: its first reduction step
    # meets a pivot entry with a nonzero imaginary part
    [WittElement({-1: QC(0, 2), 0: QC(0, -1), 1: QC(-1, -1)}),
     WittElement({-1: QC(-1, 1), 0: QC(0, -1), 1: QC(0, -1)})],
    # complex recombinations of the tower and one complex combination of them
    [L(1) + QC(1, 2) * L(0), QC(1, 2) * L(1) + L(-1), L(0) + QC(1, 2) * L(-1),
     QC(1, 2) * L(1) + QC(-3, 7) * L(0) + QC(-6, 3) * L(-1)],
], ids=["pair", "recombined-tower"])
def test_closure_with_non_real_pivot_entries_has_the_exact_rank(gens):
    res = witt_closure(gens)
    assert res.closed and res.dimension == 3 == _rank(list(res.basis))
    for a, b in itertools.combinations(res.basis, 2):
        assert _rank(list(res.basis) + [witt_bracket(a, b)]) == 3


# ---------------------------------------------------------------------------
# so(1,2)
# ---------------------------------------------------------------------------

T0 = So12Element(1, 0, 0)
T1 = So12Element(0, 1, 0)
T2 = So12Element(0, 0, 1)


@pytest.mark.parametrize("a,b,want", [
    (T0, T1, T2),
    (T0, T2, -1 * T1),
    (T1, T2, -1 * T0),
])
def test_so12_structure_constants(a, b, want):
    assert so12_bracket(a, b) == want


def test_so12_antisymmetry_and_jacobi():
    rng = np.random.default_rng(3)
    zero = So12Element(0, 0, 0)
    for _ in range(200):
        a, b, c = (So12Element(*rng.normal(size=3)) for _ in range(3))
        assert so12_bracket(a, b) + so12_bracket(b, a) == zero
        jac = (so12_bracket(a, so12_bracket(b, c))
               + so12_bracket(b, so12_bracket(c, a))
               + so12_bracket(c, so12_bracket(a, b)))
        assert jac == zero


def test_so12_element_lifts_exactly_and_rejects_bad_input():
    a = So12Element(0.1, Fraction(1, 3), 2)
    assert (a.t0, a.t1, a.t2) == (QC(Fraction(0.1)), QC(Fraction(1, 3)), QC(2))
    assert all(type(t) is QC for t in (a.t0, a.t1, a.t2))
    for bad in (math.nan, math.inf, -math.inf, 1j, 0.5 + 1e-300j, QC(0, 1), "1"):
        with pytest.raises(ValueError):
            So12Element(bad, 0, 0)


def _commutator(ma, mb):
    return tuple(tuple(sum(ma[i][k] * mb[k][j] - mb[i][k] * ma[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


@pytest.mark.parametrize("target", ["sl2r", "su11"])
def test_isomorphism_is_bracket_homomorphism(target):
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = (So12Element(*rng.normal(size=3)) for _ in range(2))
        lhs = algebra_isomorphism(target, so12_bracket(a, b))
        ma, mb = (algebra_isomorphism(target, x) for x in (a, b))
        assert lhs == _commutator(ma, mb)


def test_isomorphism_pinned_images():
    h, ih = Fraction(1, 2), QC(0, Fraction(1, 2))
    assert algebra_isomorphism("su11", T0) == ((-ih, 0), (0, ih))
    assert algebra_isomorphism("su11", T1) == ((0, h), (h, 0))
    assert algebra_isomorphism("su11", T2) == ((0, -ih), (ih, 0))
    assert algebra_isomorphism("sl2r", T0) == ((0, h), (-h, 0))
    assert algebra_isomorphism("sl2r", T1) == ((0, h), (h, 0))
    assert algebra_isomorphism("sl2r", T2) == ((h, 0), (0, -h))
    zero = algebra_isomorphism("su11", So12Element(0, 0, 0))
    assert zero == ((0, 0), (0, 0))
    assert all(type(c) is QC for row in zero for c in row)


def test_isomorphism_rejects_unknown_target():
    with pytest.raises(ValueError):
        algebra_isomorphism("so3", T0)


def test_killing_form_signature():
    basis = (T0, T1, T2)
    kform = [[killing_form(a, b) for b in basis] for a in basis]
    assert kform == [[-2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert all(type(c) is QC for row in kform for c in row)
    # matches the trace form of the 2x2 images
    for target in ("sl2r", "su11"):
        mats = [algebra_isomorphism(target, x) for x in basis]
        img = [[4 * sum(a[i][k] * b[k][i] for i in range(2) for k in range(2))
                for b in mats] for a in mats]
        assert img == kform


# ---------------------------------------------------------------------------
# vector-field dictionary
# ---------------------------------------------------------------------------

def test_dictionary_basis_images():
    assert vector_field_to_so12(1, witt_T()) == T0
    assert vector_field_to_so12(2, Fraction(1, 2) * witt_S(2)) == T1
    assert vector_field_to_so12(3, Fraction(1, 3) * witt_C(3)) == T2


def test_dictionary_rejects_wrong_mode():
    with pytest.raises(ValueError, match="mode 2 not in l=1 span"):
        vector_field_to_so12(1, witt_S(2))


def test_dictionary_rejects_non_real():
    with pytest.raises(ValueError, match="not real"):
        vector_field_to_so12(1, L(1))


def test_dictionary_reality_check_is_exact():
    # an imaginary T part of 1e-13 is not real, however small
    with pytest.raises(ValueError, match="coefficient of T_1 is not real"):
        vector_field_to_so12(1, witt_T() + WittElement({0: 1e-13}))


def test_dictionary_is_bracket_homomorphism():
    # the vector-field bracket on the span maps to the so(1,2) bracket
    rng = np.random.default_rng(5)
    for l in (1, 2, 3):
        basis = (witt_T(), witt_S(l), witt_C(l))
        for _ in range(30):
            ca, cb = rng.integers(-3, 4, size=3), rng.integers(-3, 4, size=3)
            v = sum((int(c) * e for c, e in zip(ca, basis)), WittElement({}))
            w = sum((int(c) * e for c, e in zip(cb, basis)), WittElement({}))
            lhs = vector_field_to_so12(l, witt_bracket(v, w))
            rhs = so12_bracket(vector_field_to_so12(l, v),
                               vector_field_to_so12(l, w))
            assert lhs == rhs
