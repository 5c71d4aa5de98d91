import time
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oncells.oracle as oracle
import oncells.poly as poly_module
import oncells.sequence as sequence
from oncells import (
    CheckResult,
    LimitError,
    ModPoly,
    RationalGF,
    VerificationReport,
    brute_histograms,
    brute_values,
    eval_at,
    gf_prove,
    histogram_prefix,
    parse_poly,
    synthesize,
    verify_scheme,
)
from strategies import power, product, random_polys, seeds, symmetric_products

X = ("x",)


def test_brute_scalar():
    p2 = parse_poly("1+x+x^2", X, 2)
    one2 = ModPoly.one(2, X)
    assert brute_values(p2, one2, 4)[3] == 5
    assert brute_values(p2, one2, 1)[0] == 1
    q = parse_poly("1+x", X, 2)
    assert brute_values(p2, q, 1)[0] == q.coeff_sum() == 2
    p3 = parse_poly("1+x", X, 3)
    assert brute_values(p3, ModPoly.one(3, X), 3)[2] == 4
    assert brute_values(p2, one2, 0) == []


def test_brute_histogram():
    p3 = parse_poly("1+x", X, 3)
    one3 = ModPoly.one(3, X)
    assert brute_histograms(p3, one3, 3)[2] == (2, 1)
    assert brute_histograms(p3, one3, 1)[0] == (1, 0)
    p2 = parse_poly("1+x+x^2", X, 2)
    assert brute_histograms(p2, ModPoly.one(2, X), 8)[7] == (11,)
    # three variables, negative exponents in both the polynomial and the seed
    xyz = ("x", "y", "z")
    laurent = parse_poly("x^-1+y^-2*z+x*y*z^-1+z^3", xyz, 3)
    seed = parse_poly("x^-2+2*y*z^-1", xyz, 3)
    powers = [product(seed, power(laurent, n)) for n in range(10)]
    assert brute_histograms(laurent, seed, 10) == [q.coeff_histogram() for q in powers]
    assert brute_values(laurent, seed, 10) == [q.coeff_sum() for q in powers]


def test_on_cell_count_is_nonzero_term_count(corpus):
    # for p=2 the coefficient sum is exactly the number of surviving monomials
    for _, p, raw, _ in corpus:
        if p != 2:
            continue
        one = ModPoly.one(2, raw.vars)
        values = brute_values(raw, one, 32)
        current = one
        for n in range(32):
            assert values[n] == len(current.terms)
            current = product(current, raw)


def test_brute_histogram_weighted_sum():
    p3 = parse_poly("1+x+x^2", X, 3)
    one3 = ModPoly.one(3, X)
    values = brute_values(p3, one3, 40)
    for n, hist in enumerate(brute_histograms(p3, one3, 40)):
        assert sum((i + 1) * hist[i] for i in range(2)) == values[n]


def _reference_expand(poly, seed, count):
    """(term dict of seed * poly^n mod p, term products spent on it) for n = 0 .. count-1.

    A plain dict convolution over exponent vectors packed mixed-radix into
    single ints: one product per pair of terms, len(current) * len(poly)
    of them per step, the count brute force charges to WORK_BUDGET.
    """
    seed_spans, poly_spans = (
        [max(col) - min(col) for col in zip(*q.terms)] or [0] * len(q.vars) for q in (seed, poly)
    )
    weights, weight = [], 1
    for seed_span, poly_span in zip(seed_spans, poly_spans):
        weights.append(weight)
        weight *= seed_span + max(count - 1, 0) * poly_span + 1

    def pack(q):
        return {sum(x * w for x, w in zip(e, weights)): c for e, c in q.terms.items()}

    base, current, spent = pack(poly), pack(seed), 0
    for n in range(count):
        if n:
            spent = len(current) * len(base)
            out = {}
            for eb, cb in base.items():
                for ea, ca in current.items():
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
            current = {e: c % poly.p for e, c in out.items() if c % poly.p}
        yield current, spent


def _assert_matches_reference(poly, seed, count):
    """Values, histograms and every LimitError edge of brute force equal the reference's."""
    steps = list(_reference_expand(poly, seed, count))
    residues = range(1, poly.p)
    assert brute_values(poly, seed, count) == [sum(t.values()) for t, _ in steps]
    histograms = [tuple(map(Counter(t.values()).__getitem__, residues)) for t, _ in steps]
    assert brute_histograms(poly, seed, count) == histograms
    # the first k values fit a budget of exactly the reference's products for them, not one less
    cost = 0
    with pytest.MonkeyPatch.context() as patch:
        for k, (_, spent) in enumerate(steps[1:], 2):
            cost += spent
            patch.setattr(poly_module, "WORK_BUDGET", cost)
            assert len(brute_values(poly, seed, k)) == k
            patch.setattr(poly_module, "WORK_BUDGET", cost - 1)
            with pytest.raises(LimitError):
                brute_values(poly, seed, k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_polys(max_vars=3), symmetric_products()), st.data())
def test_brute_force_matches_reference(poly, data):
    seed = data.draw(st.one_of(st.just(ModPoly.one(poly.p, poly.vars)), seeds(poly)))
    _assert_matches_reference(poly, seed, data.draw(st.integers(0, 10)))


_BY_HAND = [
    ("1+x", "1+2*x^3", X, 97, 40),  # 1-byte fields: 96 x 2 < 256
    ("3+x+5*y^2", "1+x*y", ("x", "y"), 97, 16),  # 2-byte fields
    ("1+x+x^2", "1", X, 65521, 20),  # 4-byte fields
    ("65520+65520*x+65520*y", "x^-1+y", ("x", "y"), 65521, 12),  # 8-byte fields
    # lacunary: x is packed in steps of 1000, and the seed's terms fall in three rows
    ("1+x^1000", "1+x+x^7", X, 2, 40),
    ("1+x^1000", "2+x^-3+x^2003", X, 3, 30),
    # x^-6 times 1 + x^6*y^9, and x^-6 times 1 + x^6*y^9 + x^6*y^18: the
    # differences are independent, so they are the packed axes
    ("x^-6+y^9", "1+y+x*y^2", ("x", "y"), 5, 20),
    ("x^-6+y^9+y^18", "y^-1+x*y^4", ("x", "y"), 2, 20),
    ("x^3*y^-1*z^2+x^4*z^3+y*z", "1+x+y*z^2", ("x", "y", "z"), 3, 20),
    # dependent differences: x spans widest and is packed in steps of 6,
    # and the seed's terms fall in three rows
    ("1+x^6+x^12+y^9", "1+x+x^2*y", ("x", "y"), 3, 16),
    # constants and a seed of many rows
    ("1", "1+x+y", ("x", "y"), 3, 5),
    ("x*y", "1+x^2+y^5", ("x", "y"), 2, 5),
]


@pytest.mark.parametrize("poly, seed, vars, p, count", _BY_HAND)
def test_brute_force_matches_reference_by_hand(poly, seed, vars, p, count):
    _assert_matches_reference(parse_poly(poly, vars, p), parse_poly(seed, vars, p), count)


def test_lacunary_power_costs_what_a_dense_one_does():
    # (1+x^1000)^n mod 2 has 2^popcount(n) terms (Lucas); packing x in steps
    # of 1000 keeps each row as narrow as for 1+x
    start = time.perf_counter()
    values = brute_values(parse_poly("1+x^1000", X, 2), ModPoly.one(2, X), 4096)
    assert time.perf_counter() - start < 1
    assert values == [2 ** bin(n).count("1") for n in range(4096)]


def test_independent_differences_become_the_axes():
    # x^3*y^-1*z^2 + x^4*z^3 + y*z is y*z times 1 + X + Y for X = x^3*y^-2*z,
    # Y = x^4*y^-1*z^2: the axes take X and Y to multiples of unit vectors
    poly = parse_poly("x^3*y^-1*z^2+x^4*z^3+y*z", ("x", "y", "z"), 2)
    axes = oracle._axes(poly)
    images = [tuple(sum(map(mul, row, d)) for row in axes) for d in [(3, -2, 1), (4, -1, 2)]]
    assert sorted(images, reverse=True) == [(3, 0, 0), (0, 3, 0)]
    # 1 + x + x^2 has dependent differences: the axes stay the variables
    assert oracle._axes(parse_poly("1+x+x^2", X, 2)) == [(1,)]


def _reference_axes(poly):
    """_axes by two passes: one elimination picks the basis, a second Gauss-Jordan inverts it."""
    n = len(poly.vars)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    exps = sorted(poly.terms)
    diffs = [tuple(map(sub, e, exps[0])) for e in exps[1:]]
    basis, echelon = [], []
    for i, vec in enumerate(diffs + units):
        rest = list(map(Fraction, vec))
        for row, col in echelon:
            rest = [a - rest[col] * b for a, b in zip(rest, row)]
        col = next((j for j, x in enumerate(rest) if x), None)
        if col is not None:
            echelon.append(([x / rest[col] for x in rest], col))
            basis.append(vec)
        elif i < len(diffs):
            return units
    rows = [[Fraction(b[i]) for b in basis] + list(unit) for i, unit in enumerate(units)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    scale = lcm(*(x.denominator for row in rows for x in row[n:]))
    return [tuple(int(x * scale) for x in row[n:]) for row in rows]


@settings(max_examples=300, deadline=None)
@given(random_polys(max_vars=3))
def test_axes_match_the_two_pass_reference(poly):
    assert oracle._axes(poly) == _reference_axes(poly)


XYZW = ("x", "y", "z", "w")


@pytest.mark.parametrize(
    "poly",
    [parse_poly(poly, vars, p) for poly, _, vars, p, _ in _BY_HAND]
    + [
        # the check smoke test's scheme: three independent differences
        parse_poly("x^-2*y+x*z^3+y^2*z^-1+x^2*y^-2*z", ("x", "y", "z"), 3),
        # four variables: three differences and one unit, then four differences
        parse_poly("x^2*y^-1*w+y*z^3+w^-2*x+z*w", XYZW, 3),
        parse_poly("x^2*y^-1*w+y*z^3+w^-2*x+z*w+x^3*y*z*w^-1", XYZW, 5),
        ModPoly(2, (), {(): 1}),  # no variables, no axes
    ],
    ids=str,
)
def test_axes_match_the_two_pass_reference_by_hand(poly):
    assert oracle._axes(poly) == _reference_axes(poly)


@pytest.mark.parametrize("route", [brute_values, brute_histograms])
def test_negative_counts_are_refused(route):
    p2 = parse_poly("1+x+x^2", X, 2)
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        route(p2, ModPoly.one(2, X), -1)


def test_term_limit_guard(monkeypatch):
    # 1+x+x^2 mod 2: the steps to n = 1 and n = 2 cost 1*3 and 3*3 term products,
    # so 3 fit under a budget of 10 and 12 do not
    p2 = parse_poly("1+x+x^2", X, 2)
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 10)
    assert brute_values(p2, ModPoly.one(2, X), 2) == [1, 3]
    with pytest.raises(LimitError, match="^brute force exceeded its budget of 10 term products$"):
        brute_values(p2, ModPoly.one(2, X), 3)
    with pytest.raises(LimitError):
        brute_histograms(p2, ModPoly.one(2, X), 100)


def _nonzero(rows):
    """Nonzero coefficients in the packed rows a chain step reads."""
    return sum(len(f) - f.count(0) for f in rows.values())


def test_budget_covers_the_whole_verification(toy, monkeypatch):
    # each state's chain fits in the budget on its own, all of them together do not
    products = []
    real = oracle._multiply

    def counting(rows, base, reduce):
        products.append(_nonzero(rows) * len(toy.poly.terms))
        return real(rows, base, reduce)

    monkeypatch.setattr(oracle, "_multiply", counting)
    costs = []
    for q in toy.states:
        products.clear()
        brute_values(toy.poly, q, 16)
        costs.append(sum(products))
    assert costs == [sum(s for _, s in _reference_expand(toy.poly, q, 16)) for q in toy.states]
    monkeypatch.setattr(poly_module, "WORK_BUDGET", max(costs))
    for q in toy.states:
        brute_values(toy.poly, q, 16)
    with pytest.raises(LimitError):
        verify_scheme(toy, 16)


def test_verify_scheme_expands_each_state_once(corpus, monkeypatch):
    calls = []
    real = oracle._multiply
    monkeypatch.setattr(oracle, "_multiply", lambda *args: calls.append(1) or real(*args))
    for _, _, _, s in corpus:
        calls.clear()
        assert verify_scheme(s, 16).ok
        # one chain of 16 terms, so 15 products, per state
        assert len(calls) == s.state_count * 15


def test_verify_scheme_budget_edge_matches_reference(corpus, monkeypatch):
    # the whole verification fits a budget of exactly the reference's term
    # products over every state's chain, and not one less
    for _, _, _, s in corpus:
        cost = sum(spent for q in s.states for _, spent in _reference_expand(s.poly, q, 16))
        monkeypatch.setattr(poly_module, "WORK_BUDGET", cost)
        assert verify_scheme(s, 16).ok
        monkeypatch.setattr(poly_module, "WORK_BUDGET", cost - 1)
        with pytest.raises(LimitError):
            verify_scheme(s, 16)


def test_verify_scheme_checks_the_value_cap_before_expanding(toy, monkeypatch):
    # 600000 values x m' = 2 classes pass MAX_STATE_VALUES: refused before any brute force
    monkeypatch.setattr(oracle, "_expand", lambda *args: pytest.fail("expanded"))
    with pytest.raises(LimitError, match="request needs 1200000 state values"):
        verify_scheme(toy, 600000)


def test_verify_scheme_rejects_empty_ranges(toy):
    for n_max in (0, -5):
        with pytest.raises(ValueError):
            verify_scheme(toy, n_max)
    with pytest.raises(ValueError):
        verify_scheme(toy, 16, rlt_limit=-3)


def test_eval_matches_brute(toy, base3):
    one2 = ModPoly.one(2, X)
    one3 = ModPoly.one(3, X)
    assert [eval_at(toy, n) for n in range(65)] == brute_values(toy.poly, one2, 65)
    assert [eval_at(base3, n) for n in range(65)] == brute_values(base3.poly, one3, 65)


def test_verify_scheme_passes(toy):
    report = verify_scheme(toy, 256, gf=gf_prove(toy), rlt_limit=256)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "scalar_vs_brute",
        "histogram_vs_brute",
        "recurrence_identity",
        "base_fixed_point",
        "sparse_agreement",
        "series_agreement",
        "run_length_product",
    ]
    assert all(c.passed for c in report.checks)
    assert "result: OK" in report.render_text()


def test_verify_scheme_catches_corruption(toy):
    # break the digit-1 multiset of state 1: [1,2] -> [1,1]
    bad_transitions = (((1,), (1, 1)), toy.transitions[1])
    broken = toy._replace(transitions=bad_transitions)
    report = verify_scheme(broken, 16)
    assert not report.ok
    failed = {c.name: c for c in report.checks if not c.passed and not c.informational}
    recurrence = failed["recurrence_identity"]
    assert recurrence.counterexample == {
        "state": 1,
        "digit": 1,
        "n": 0,
        "expected": 3,
        "got": 2,
    }
    # the report `oncells check --nmax 16` would print for this scheme
    report = verify_scheme(broken, 16, gf=gf_prove(broken))
    failures = [line for line in report.render_text().splitlines() if "FAIL " in line]
    assert failures == [
        "  FAIL      scalar_vs_brute  [n=1, expected=3, got=2]",
        "  FAIL      histogram_vs_brute  [n=1, expected=[3], got=[2]]",
        "  FAIL      recurrence_identity  [state=1, digit=1, n=0, expected=3, got=2]",
    ]


def test_series_agreement_reads_past_the_fitted_terms(toy):
    # (1+2t)/(1-t-2t^2) + t^16: agrees with the toy's sparse terms below
    # k = 16 and differs there, in the last of the 2m + 13 = 17 terms compared
    wrong = RationalGF(num=(1, 2) + (0,) * 14 + (1, -1, -2), den=(1, -1, -2))
    report = verify_scheme(toy, 16, gf=wrong)
    series = next(c for c in report.checks if c.name == "series_agreement")
    assert not series.passed
    assert series.counterexample["k"] == 16


def test_verify_scheme_catches_bad_base(toy):
    broken = toy._replace(base_scalar=(1, 1), base_histogram=((1,), (1,)))
    report = verify_scheme(broken, 16)
    assert not report.ok
    names = {c.name for c in report.checks if not c.passed and not c.informational}
    assert "base_fixed_point" in names or "scalar_vs_brute" in names


def test_verify_scheme_reports_histogram_counterexample(base3):
    # swapped residue columns: the scalar route stays right, the histogram one does not
    broken = base3._replace(base_histogram=((0, 1), (1, 0)))
    report = verify_scheme(broken, 16)
    assert not report.ok
    hist = next(c for c in report.checks if c.name == "histogram_vs_brute")
    assert not hist.passed
    assert hist.counterexample == {"n": 0, "expected": [1, 0], "got": [0, 1]}
    assert next(c for c in report.checks if c.name == "scalar_vs_brute").passed
    lines = report.render_text().splitlines()
    assert "  FAIL      histogram_vs_brute  [n=0, expected=[1, 0], got=[0, 1]]" in lines


def _toy_state2_digit1(toy, monkeypatch):
    # state 2's digit-1 multiset (1, 1) -> (1, 2)
    broken = toy._replace(transitions=(toy.transitions[0], ((1, 1), (1, 2))))
    return broken, gf_prove(broken)


def _toy_bad_base(toy, monkeypatch):
    broken = toy._replace(base_scalar=(1, 3), base_histogram=((1,), (3,)))
    return broken, gf_prove(broken)


def _toy_bad_series(toy, monkeypatch):
    # (1+2t+t^16-t^17-2t^18)/(1-t-2t^2): the toy's generating function plus t^16
    return toy, RationalGF(num=(1, 2) + (0,) * 14 + (1, -1, -2), den=(1, -1, -2))


def _toy_bad_eval_at_memo(toy, monkeypatch):
    # break the memoized side of sparse_agreement at 2^3 - 1
    real = oracle.eval_at_memo
    monkeypatch.setattr(oracle, "eval_at_memo", lambda s, n: real(s, n) + (n == 7))
    return toy, gf_prove(toy)


_PASS = "  pass      "


@pytest.mark.parametrize(
    "make, lines, counterexamples",
    [
        (
            _toy_state2_digit1,
            [
                "  FAIL      scalar_vs_brute  [n=3, expected=5, got=6]",
                "  FAIL      histogram_vs_brute  [n=3, expected=[5], got=[6]]",
                "  FAIL      recurrence_identity  [state=2, digit=1, n=0, expected=2, got=3]",
                _PASS + "base_fixed_point",
                _PASS + "sparse_agreement",
                _PASS + "series_agreement",
                _PASS + "run_length_product",
            ],
            [
                {"n": 3, "expected": 5, "got": 6},
                {"n": 3, "expected": [5], "got": [6]},
                {"state": 2, "digit": 1, "n": 0, "expected": 2, "got": 3},
                None,
                None,
                None,
                None,
            ],
        ),
        (
            _toy_bad_base,
            [
                "  FAIL      scalar_vs_brute  [n=1, expected=3, got=4]",
                "  FAIL      histogram_vs_brute  [n=1, expected=[3], got=[4]]",
                _PASS + "recurrence_identity",
                "  FAIL      base_fixed_point  [expected=[1, 3], got=[1, 2]]",
                _PASS + "sparse_agreement",
                _PASS + "series_agreement",
                "  info-fail run_length_product  [n=5, expected=12, got=16]",
            ],
            [
                {"n": 1, "expected": 3, "got": 4},
                {"n": 1, "expected": [3], "got": [4]},
                None,
                {"expected": [1, 3], "got": [1, 2]},
                None,
                None,
                {"n": 5, "expected": 12, "got": 16},
            ],
        ),
        (
            _toy_bad_series,
            [
                _PASS + "scalar_vs_brute",
                _PASS + "histogram_vs_brute",
                _PASS + "recurrence_identity",
                _PASS + "base_fixed_point",
                _PASS + "sparse_agreement",
                "  FAIL      series_agreement  [k=16, expected=87381, got=87382]",
                _PASS + "run_length_product",
            ],
            [None] * 5 + [{"k": 16, "expected": 87381, "got": 87382}, None],
        ),
        (
            _toy_bad_eval_at_memo,
            [
                _PASS + "scalar_vs_brute",
                _PASS + "histogram_vs_brute",
                _PASS + "recurrence_identity",
                _PASS + "base_fixed_point",
                "  FAIL      sparse_agreement  [k=3, expected=12, got=11]",
                _PASS + "series_agreement",
                _PASS + "run_length_product",
            ],
            [None] * 4 + [{"k": 3, "expected": 12, "got": 11}, None, None],
        ),
    ],
    ids=["recurrence", "base", "series", "sparse"],
)
def test_verify_scheme_failure_text(toy, monkeypatch, make, lines, counterexamples):
    scheme, gf = make(toy, monkeypatch)
    report = verify_scheme(scheme, 16, gf=gf)
    assert report.render_text().splitlines() == [
        "scheme: p=2 poly=1+x+x^2 q0=1",
        *lines,
        "result: FAILED",
    ]
    assert [c["counterexample"] for c in report.to_dict()["checks"]] == counterexamples


@pytest.mark.parametrize("name, expected", [("toy", 3), ("base3", 4)])
def test_sparse_agreement_catches_a_wrong_top_digit_step(request, monkeypatch, name, expected):
    # sparse_terms steps scheme.lumped on digit p - 1, while eval_at_memo
    # reads the scheme's own transitions on demand: one step that adds 1 to
    # state 1 on that digit must fail the check at k = 1
    scheme = request.getfixturevalue(name)
    real = sequence._step

    def step(s, digit, vec):
        out = real(s, digit, vec)
        out[1] += digit == s.p - 1
        return out

    monkeypatch.setattr(sequence, "_step", step)
    sparse = verify_scheme(scheme, 16).checks[4]
    assert sparse.name == "sparse_agreement"
    assert not sparse.passed
    assert sparse.counterexample == {"k": 1, "expected": expected, "got": expected + 1}


def test_verify_scheme_histograms_take_the_value_cap_only(base3, monkeypatch):
    # base3: m = 2 and p - 1 = 2 residue columns; a cap that admits the
    # 64-term value prefix (128 state values) refuses histogram_prefix(64)
    monkeypatch.setattr(sequence, "MAX_STATE_VALUES", 128)
    with pytest.raises(LimitError):
        histogram_prefix(base3, 64)
    assert verify_scheme(base3, 64).ok
    with pytest.raises(LimitError):
        verify_scheme(base3, 65)


def test_informational_checks_do_not_fail_report():
    checks = (
        CheckResult("hard", True),
        CheckResult("soft", False, informational=True, counterexample={"n": 1}),
    )
    report = VerificationReport(scheme="example", checks=checks)
    assert report.ok
    assert "info-fail" in report.render_text()
    data = report.to_dict()
    assert data["ok"] is True
    assert data["checks"][1]["counterexample"] == {"n": 1}


def test_verify_report_json(toy):
    report = verify_scheme(toy, 32)
    data = report.to_dict()
    assert data["scheme"] == toy.label()
    assert {c["name"] for c in data["checks"]} >= {"scalar_vs_brute", "recurrence_identity"}
    assert all(c["passed"] for c in data["checks"])


@settings(max_examples=40, deadline=None)
@given(random_polys(max_vars=3), st.data())
def test_verify_scheme_properties(poly, data):
    try:
        s = synthesize(poly, max_states=64)
    except LimitError:
        assume(False)
    n_max = 2 * s.p
    assert verify_scheme(s, n_max).ok
    # every base value is at least 1, so dropping an entry breaks the n = 0 recurrence
    j = data.draw(st.integers(0, s.state_count - 1))
    i = data.draw(st.integers(0, s.p - 1))
    multiset = s.transitions[j][i]
    k = data.draw(st.integers(0, len(multiset) - 1))
    row = list(s.transitions[j])
    row[i] = multiset[:k] + multiset[k + 1 :]
    transitions = s.transitions[:j] + (tuple(row),) + s.transitions[j + 1 :]
    broken = s._replace(transitions=transitions)
    recurrence = next(
        c for c in verify_scheme(broken, n_max).checks if c.name == "recurrence_identity"
    )
    assert not recurrence.passed
    assert recurrence.counterexample["n"] == 0
    assert (recurrence.counterexample["state"], recurrence.counterexample["digit"]) == (j + 1, i)
