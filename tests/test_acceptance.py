"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import pytest

from oncells import (
    ModPoly,
    brute_values,
    eval_at,
    eval_at_memo,
    eval_histogram_at,
    gf_prove,
    gf_series,
    parse_poly,
    rlt_check,
    scheme_to_json,
    sparse_terms,
    synthesize,
    verify_scheme,
)
from oncells.cli import main


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def reports(corpus):
    """Oracle verification of every corpus member, n < 257, shared across criteria."""
    out = {}
    for label, p, raw, s in corpus:
        gf = gf_prove(s)
        # the run-length check exists only in base 2
        out[(label, p)] = verify_scheme(s, 257, gf=gf, rlt_limit=4096 if p == 2 else None)
    return out


def check_named(report_obj, name):
    return next(c for c in report_obj.checks if c.name == name)


def test_criterion_1_toy_automaton(toy):
    ok = (
        toy.state_count == 2
        and toy.transitions == (((1,), (1, 2)), ((1, 1), (1, 1)))
        and toy.base_scalar == (1, 2)
    )
    report(1, "toy automaton: 2 states, exact transitions and base values", ok)


def test_criterion_2_toy_generating_function(toy):
    proved = gf_prove(toy)
    guessed = gf_prove(toy, 8)
    ok = (
        proved.num == (1, 2)
        and proved.den == (1, -1, -2)
        and guessed == proved
        and guessed.rigorous
    )
    report(2, "toy generating function (1+2t)/(1-t-2t^2), proved and guessed", ok)


def test_criterion_3_sparse_sequence(toy):
    expected = [1, 3, 5, 11, 21, 43, 85, 171, 341, 683, 1365]
    values = sparse_terms(toy, 10)
    ok = values == expected
    for k in range(11):
        ok = ok and values[k] == eval_at(toy, 2**k - 1)
    one = ModPoly.one(2, ("x",))
    brute = brute_values(toy.poly, one, 64)
    for k in range(7):
        ok = ok and values[k] == brute[2**k - 1]
    report(3, "sparse subsequence at 2^k-1: frozen values, eval and oracle agree", ok)


def test_criterion_4_oracle_equivalence(reports):
    ok = True
    for (label, p), rep in reports.items():
        ok = ok and check_named(rep, "scalar_vs_brute").passed
        ok = ok and check_named(rep, "histogram_vs_brute").passed
    report(4, "eval and histogram match the brute-force oracle for n <= 256 (6 members)", ok)


def test_criterion_5_recurrence_identity(corpus):
    ok = True
    for label, p, raw, s in corpus:
        tables = [brute_values(s.poly, q, p * 64 + p) for q in s.states]
        for j in range(s.state_count):
            for i in range(p):
                for n in range(65):
                    expected = tables[j][p * n + i]
                    got = sum(tables[l - 1][n] for l in s.transitions[j][i])
                    ok = ok and got == expected
    report(5, "digit recurrence a_j(p*n+i) = multiset sum holds for n <= 64, all states", ok)


def test_criterion_6_fixed_point(corpus):
    ok = True
    for label, p, raw, s in corpus:
        base = list(s.base_scalar)
        ok = ok and [sum(base[l - 1] for l in row[0]) for row in s.transitions] == base
    report(6, "base vector is an exact fixed point of the digit-0 matrix", ok)


def test_criterion_7_big_index(toy):
    n = 10**100
    start = time.perf_counter()
    value = eval_at(toy, n)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    ok = ok and value == eval_at_memo(toy, n)
    series = gf_series(gf_prove(toy), 334)
    ok = ok and eval_at(toy, 2**333 - 1) == series[-1]
    report(7, f"eval at 10^100 in {elapsed*1e3:.1f} ms, memo route and series coefficient agree", ok)


def test_criterion_8_histogram_identity(corpus):
    ok = True
    for label, p, raw, s in corpus:
        for n in range(201):
            hist = eval_histogram_at(s, n)
            scalar = eval_at(s, n)
            if p == 2:
                ok = ok and hist[0] == scalar
            else:
                ok = ok and sum((i + 1) * hist[i] for i in range(p - 1)) == scalar
    report(8, "histogram identities hold for n <= 200 on every corpus member", ok)


def test_criterion_9_run_length_transform(corpus):
    toy_ok = None
    for label, p, raw, s in corpus:
        if p != 2:
            continue
        result = rlt_check(s, 4096)
        print(f"  rlt[{label}]: {'pass' if result.passed else f'fail at {result.counterexample}'}")
        if label == "1+x+x^2":
            toy_ok = result.passed
    report(9, "run-length transform reproduces the toy sequence for n < 4096", bool(toy_ok))


def test_criterion_10_determinism(corpus, tmp_path):
    ok = True
    for idx, (label, p, raw, s) in enumerate(corpus):
        ok = ok and scheme_to_json(synthesize(raw)) == scheme_to_json(synthesize(raw))
        vars_arg = ",".join(raw.vars)
        a = tmp_path / f"{idx}_a.json"
        b = tmp_path / f"{idx}_b.json"
        for path in (a, b):
            rc = main(["synth", "-p", str(p), "--vars", vars_arg, "--poly", label, "-o", str(path)])
            ok = ok and rc == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(10, "repeated synthesis produces byte-identical scheme files", ok)
