import dataclasses

import pytest

from oncells import (
    CheckResult,
    LimitError,
    ModPoly,
    VerificationReport,
    brute_histogram,
    brute_histograms,
    brute_scalar,
    brute_values,
    eval_at,
    gf_prove,
    make_gf,
    parse_poly,
    verify_scheme,
)

X = ("x",)


def test_brute_scalar():
    p2 = parse_poly("1+x+x^2", X, 2)
    one2 = ModPoly.one(2, X)
    assert brute_scalar(p2, one2, 3) == 5
    assert brute_scalar(p2, one2, 0) == 1
    q = parse_poly("1+x", X, 2)
    assert brute_scalar(p2, q, 0) == q.coeff_sum() == 2
    p3 = parse_poly("1+x", X, 3)
    assert brute_scalar(p3, ModPoly.one(3, X), 2) == 4


def test_brute_histogram():
    p3 = parse_poly("1+x", X, 3)
    one3 = ModPoly.one(3, X)
    assert brute_histogram(p3, one3, 2) == (2, 1)
    assert brute_histogram(p3, one3, 0) == (1, 0)
    p2 = parse_poly("1+x+x^2", X, 2)
    assert brute_histogram(p2, ModPoly.one(2, X), 7) == (11,)


def test_brute_values_consistent_with_single_calls():
    p3 = parse_poly("1+x", X, 3)
    one3 = ModPoly.one(3, X)
    assert brute_values(p3, one3, 10) == [brute_scalar(p3, one3, n) for n in range(10)]
    assert brute_histograms(p3, one3, 6) == [brute_histogram(p3, one3, n) for n in range(6)]


def test_on_cell_count_is_nonzero_term_count(corpus):
    # for p=2 the coefficient sum is exactly the number of surviving monomials
    for _, p, raw, _ in corpus:
        if p != 2:
            continue
        one = ModPoly.one(2, raw.vars)
        for n in range(32):
            power = raw**n
            assert brute_scalar(raw, one, n) == len(power.terms)


def test_brute_histogram_weighted_sum():
    p3 = parse_poly("1+x+x^2", X, 3)
    one3 = ModPoly.one(3, X)
    for n in range(40):
        hist = brute_histogram(p3, one3, n)
        assert sum((i + 1) * hist[i] for i in range(2)) == brute_scalar(p3, one3, n)


def test_term_limit_guard():
    p2 = parse_poly("1+x+x^2", X, 2)
    with pytest.raises(LimitError):
        brute_scalar(p2, ModPoly.one(2, X), 100, term_limit=10)


def test_negative_index_rejected():
    p2 = parse_poly("1+x", X, 2)
    with pytest.raises(ValueError):
        brute_scalar(p2, ModPoly.one(2, X), -1)


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
    broken = dataclasses.replace(toy, transitions=bad_transitions)
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
    assert "FAIL" in report.render_text()


def test_series_agreement_reads_past_the_fitted_terms(toy):
    # (1+2t)/(1-t-2t^2) + t^16: agrees with the toy's sparse terms below
    # 2m + sparse_count + 1 = 17 and differs at k = 16
    wrong = make_gf([1, 2] + [0] * 14 + [1, -1, -2], [1, -1, -2])
    report = verify_scheme(toy, 16, gf=wrong)
    series = next(c for c in report.checks if c.name == "series_agreement")
    assert not series.passed
    assert series.counterexample["k"] == 16


def test_verify_scheme_catches_bad_base(toy):
    broken = dataclasses.replace(toy, base_scalar=(1, 1), base_histogram=((1,), (1,)))
    report = verify_scheme(broken, 16)
    assert not report.ok
    names = {c.name for c in report.checks if not c.passed and not c.informational}
    assert "base_fixed_point" in names or "scalar_vs_brute" in names


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
