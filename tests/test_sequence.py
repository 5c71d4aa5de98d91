import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oncells.sequence as sequence
from oncells import (
    LimitError,
    brute_histograms,
    brute_values,
    eval_at,
    eval_at_memo,
    eval_histogram_at,
    histogram_prefix,
    parse_poly,
    rlt_check,
    rlt_expand,
    sparse_terms,
    synthesize,
    terms_prefix,
)
from strategies import random_polys

TOY_PREFIX_16 = [1, 3, 3, 5, 3, 9, 5, 11, 3, 9, 9, 15, 5, 15, 11, 21]
TOY_SPARSE_8 = [1, 3, 5, 11, 21, 43, 85, 171]


def test_eval_at(toy, base3):
    assert eval_at(toy, 5) == 9
    assert eval_at(toy, 0) == 1
    assert [eval_at(toy, n) for n in range(16)] == TOY_PREFIX_16
    assert eval_at(base3, 8) == 13
    with pytest.raises(ValueError):
        eval_at(toy, -1)


def test_eval_histogram_at(toy, base3):
    assert eval_histogram_at(base3, 2) == (2, 1)
    assert eval_histogram_at(toy, 7) == (11,)
    assert eval_histogram_at(base3, 0) == (1, 0)
    assert histogram_prefix(base3, 3) == [(1, 0), (2, 0), (2, 1)]
    assert histogram_prefix(toy, 8) == [(v,) for v in TOY_PREFIX_16[:8]]


def test_histogram_weighted_sum_matches_scalar(corpus):
    for _, p, _, s in corpus:
        for n in range(60):
            hist = eval_histogram_at(s, n)
            assert sum((i + 1) * hist[i] for i in range(p - 1)) == eval_at(s, n)
            if p == 2:
                assert hist[0] == eval_at(s, n)


@pytest.mark.parametrize("p", [5, 11])
def test_packed_histogram_matches_one_walk_per_column(p):
    # counts at 10^100 outgrow a machine word, and each packed field must
    # hold them without carrying into the next column
    s = synthesize(parse_poly("1+x+x^2", ("x",), p))
    lumped = s.lumped
    n = 10**100
    columns = tuple(sequence._walk(lumped, n, col) for col in zip(*lumped.base_histogram))
    assert max(columns).bit_length() > 64
    assert eval_histogram_at(s, n) == columns
    assert sum((i + 1) * c for i, c in enumerate(columns)) == eval_at(s, n)


def test_terms_prefix(toy, base3):
    assert terms_prefix(toy, 8) == TOY_PREFIX_16[:8]
    assert terms_prefix(toy, 0) == []
    assert terms_prefix(base3, 5) == [1, 2, 4, 2, 4]


def test_terms_prefix_matches_pointwise_eval(corpus):
    for _, _, _, s in corpus:
        assert terms_prefix(s, 100) == [eval_at(s, n) for n in range(100)]


def test_sparse_terms(toy, base3):
    assert sparse_terms(toy, 7) == TOY_SPARSE_8
    assert sparse_terms(base3, 3) == [1, 4, 13, 40]
    assert sparse_terms(toy, 0) == [1]
    with pytest.raises(ValueError):
        sparse_terms(toy, -1)


@pytest.mark.parametrize("route", [terms_prefix, histogram_prefix, sparse_terms])
def test_negative_counts_are_refused(toy, route):
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        route(toy, -1)


def test_sparse_terms_match_eval(corpus):
    for _, p, _, s in corpus:
        values = sparse_terms(s, 12)
        for k in range(13):
            assert values[k] == eval_at(s, p**k - 1)


def test_term_cap(toy, monkeypatch):
    monkeypatch.setattr(sequence, "MAX_STATE_VALUES", 2300)
    assert len(terms_prefix(toy, 1150)) == 1150  # 1150 x 2 states
    with pytest.raises(LimitError):
        terms_prefix(toy, 1151)
    constant = synthesize(parse_poly("x^5", ("x",), 2))  # one state, every term 1
    assert sparse_terms(constant, 2000) == [1] * 2001
    # the toy's terms pass 1024 bits near k = 1024, and are charged for it from there
    assert len(sparse_terms(toy, 1000)) == 1001
    with pytest.raises(LimitError):
        sparse_terms(toy, 1100)


def test_rlt_expand(toy):
    sparse = sparse_terms(toy, 10)
    assert rlt_expand(sparse, 5) == 9  # 101: two runs of one
    assert rlt_expand(sparse, 0) == 1
    assert rlt_expand(sparse, 11) == 15  # 1011: runs of 1 and 2
    with pytest.raises(ValueError):
        rlt_expand([1, 3], 7)  # run of three ones, only b[0..1] supplied
    with pytest.raises(ValueError):
        rlt_expand(sparse, -2)


def test_rlt_check(toy, base3):
    assert rlt_check(toy, 128).passed
    assert rlt_check(toy, 4096).passed
    with pytest.raises(ValueError):
        rlt_check(base3, 16)


def test_rlt_check_reports_counterexample(toy):
    # a deliberately broken base vector cannot factor through run lengths
    broken = toy._replace(base_scalar=(1, 3), base_histogram=((1,), (3,)))
    report = rlt_check(broken, 64)
    assert not report.passed
    n = report.counterexample["n"]
    value = report.counterexample["expected"]
    assert value != report.counterexample["got"]
    assert eval_at(broken, n) == value


def test_two_path_equality(corpus):
    rng = random.Random(140914)
    for _, _, _, s in corpus:
        for _ in range(1000):
            n = rng.randrange(2**64)
            assert eval_at(s, n) == eval_at_memo(s, n)


def test_memo_path_handles_huge_indices(toy):
    n = 10**100
    assert eval_at_memo(toy, n) == eval_at(toy, n)


def test_memo_path_leaves_recursion_limit_alone(toy, monkeypatch):
    def refuse(limit):
        raise AssertionError("eval_at_memo must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert eval_at_memo(toy, 2**5000 - 1) == sparse_terms(toy, 5000)[-1]


@pytest.mark.parametrize(
    "text, p, states",
    [("1+x+x^2", 5, 20), ("1+x+x^4+x^5+x^6", 2, 32)],
)
def test_larger_schemes_match_oracles(text, p, states):
    # multi-element multisets well beyond the m <= 4 corpus
    s = synthesize(parse_poly(text, ("x",), p))
    assert s.state_count == states
    rng = random.Random(states)
    for _ in range(200):
        n = rng.randrange(2**200)
        assert eval_at(s, n) == eval_at_memo(s, n)
    assert terms_prefix(s, 64) == brute_values(s.poly, s.states[0], 64)
    assert histogram_prefix(s, 64) == brute_histograms(s.poly, s.states[0], 64)


@settings(max_examples=40, deadline=None)
@given(random_polys(), st.data())
def test_histogram_prefix_properties(poly, data):
    try:
        s = synthesize(poly, max_states=64)
    except LimitError:
        assume(False)
    count = data.draw(st.integers(0, s.p**2 + 2))  # two-digit indices and their carries
    rows = histogram_prefix(s, count)
    assert rows == [eval_histogram_at(s, n) for n in range(count)]
    assert rows == brute_histograms(s.poly, s.states[0], count)
    weighted = [sum((c + 1) * h for c, h in enumerate(row)) for row in rows]
    assert weighted == terms_prefix(s, count)


def test_histogram_prefix_cap(base3, monkeypatch):
    calls = []
    original = sequence._step

    def counting(scheme, digit, vec):
        calls.append(1)
        return original(scheme, digit, vec)

    monkeypatch.setattr(sequence, "_step", counting)
    # each row is m = 2 state values on each of the p - 1 = 2 residue columns
    monkeypatch.setattr(sequence, "MAX_STATE_VALUES", 400)
    assert histogram_prefix(base3, 100) == brute_histograms(base3.poly, base3.states[0], 100)
    # both residue columns ride in one packed prefix: one step per row
    assert len(calls) == 99
    calls.clear()
    with pytest.raises(LimitError):
        histogram_prefix(base3, 101)
    assert calls == []
    assert histogram_prefix(base3, 0) == []


def test_eval_cost_is_digit_count(toy, monkeypatch):
    calls = []
    original = sequence._step

    def counting(scheme, digit, vec):
        calls.append(1)
        return original(scheme, digit, vec)

    monkeypatch.setattr(sequence, "_step", counting)
    n = 10**100
    eval_at(toy, n)
    digit_count = len(sequence._digits(n, 2))
    assert len(calls) == digit_count
    assert digit_count == 333


def test_eval_steps_the_lumped_scheme(t3, monkeypatch):
    lengths = []
    original = sequence._step

    def counting(scheme, digit, vec):
        out = original(scheme, digit, vec)
        lengths.append((len(vec), len(out)))
        return out

    monkeypatch.setattr(sequence, "_step", counting)
    n = 10**100
    eval_at(t3, n)
    # 14 classes of the 110 states, plus the zero slot, one step per digit
    assert lengths == [(15, 15)] * len(sequence._digits(n, 2))
