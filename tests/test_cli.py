import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oncells
import oncells.oracle as oracle
import oncells.poly as poly_module
import oncells.sequence as sequence
from oncells import (
    Scheme,
    brute_histograms,
    load_scheme,
    save_scheme,
    scheme_from_dict,
    sparse_terms,
    verify_scheme,
)
from oncells.cli import main

SCHEMES_DIR = Path(__file__).resolve().parent.parent / "schemes"


def synth_toy(path):
    rc = main(["synth", "-p", "2", "--vars", "x", "--poly", "1+x+x^2", "-o", str(path)])
    assert rc == 0
    return str(path)


def test_synth_writes_scheme(tmp_path):
    out = tmp_path / "toy.json"
    synth_toy(out)
    data = json.loads(out.read_text())
    assert data["states"] == ["1", "1+x"]
    assert data["transitions"] == [[[1], [1, 2]], [[1, 1], [1, 1]]]
    assert data["base_scalar"] == [1, 2]


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    synth_toy(a)
    synth_toy(b)
    assert a.read_bytes() == b.read_bytes()


def test_synth_stdout(capsys):
    rc = main(["synth", "-p", "2", "--vars", "x", "--poly", "1+x"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == ["1"]


def test_round_trip_reserialization(tmp_path, capsys):
    # synth -> load -> re-serialize must be byte-identical
    out = tmp_path / "toy.json"
    synth_toy(out)
    from oncells import load_scheme, scheme_to_json

    assert scheme_to_json(load_scheme(str(out))) == out.read_text()


def test_eval(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["eval", "--scheme", scheme, "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["eval", "--scheme", scheme, "--n", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", "--scheme", scheme, "--pow", "5"]) == 0
    assert capsys.readouterr().out.strip() == "43"
    assert main(["eval", "--scheme", scheme, "--npow10", "2"]) == 0
    out = capsys.readouterr().out.strip()
    from oncells import eval_at, load_scheme

    assert out == str(eval_at(load_scheme(scheme), 10**2))


def test_eval_json_and_histogram(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["eval", "--scheme", scheme, "--n", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": "5", "value": 9}
    assert main(["eval", "--scheme", scheme, "--n", "5", "--histogram"]) == 0
    assert capsys.readouterr().out.strip() == "5 9"


def test_eval_pow_matches_sparse(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    from oncells import load_scheme

    values = sparse_terms(load_scheme(scheme), 30)
    for k in (0, 7, 30):
        assert main(["eval", "--scheme", scheme, "--pow", str(k)]) == 0
        assert capsys.readouterr().out.strip() == str(values[k])


def test_terms(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["terms", "--scheme", scheme, "--count", "8"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["1", "3", "3", "5", "3", "9", "5", "11"]
    assert main(["terms", "--scheme", scheme, "--count", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"values": [1, 3, 3, 5]}


def test_terms_histogram(tmp_path, capsys):
    rc = main(["synth", "-p", "3", "--vars", "x", "--poly", "1+x", "-o", str(tmp_path / "b3.json")])
    assert rc == 0
    assert main(["terms", "--scheme", str(tmp_path / "b3.json"), "--count", "3", "--histogram"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0 1,0", "1 2,0", "2 2,1"]


def test_terms_histogram_charges_count_m_per_column(tmp_path, capsys, monkeypatch):
    # 1+x+x^2 mod 5: m = 20 states lump to m' = 14 classes, and the cap charges
    # the vectors that are stepped; with p - 1 = 4 columns, 64 rows need
    # exactly 64 x 14 x 4 = 3584 state values
    path = tmp_path / "c5.json"
    assert main(["synth", "-p", "5", "--vars", "x", "--poly", "1+x+x^2", "-o", str(path)]) == 0
    monkeypatch.setattr(sequence, "MAX_STATE_VALUES", 64 * 14)
    assert main(["terms", "--scheme", str(path), "--count", "64", "--json"]) == 0
    assert main(["terms", "--scheme", str(path), "--count", "65"]) == 3
    capsys.readouterr()
    monkeypatch.setattr(sequence, "MAX_STATE_VALUES", 64 * 14 * 4)
    assert main(["terms", "--scheme", str(path), "--count", "64", "--histogram", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["histograms"]
    s = load_scheme(str(path))
    assert rows == [list(h) for h in brute_histograms(s.poly, s.states[0], 64)]
    assert main(["terms", "--scheme", str(path), "--count", "65", "--histogram"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_sparse(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["sparse", "--scheme", scheme, "--count", "7"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["1", "3", "5", "11", "21", "43", "85", "171"]


def test_gf(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["gf", "--scheme", scheme]) == 0
    assert capsys.readouterr().out.strip() == "(1+2*t)/(1-t-2*t^2)"
    assert main(["gf", "--scheme", scheme, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "num": [1, 2],
        "den": [1, -1, -2],
        "rigorous": True,
    }
    assert main(["gf", "--scheme", scheme, "--guess"]) == 0
    assert capsys.readouterr().out.strip() == "(1+2*t)/(1-t-2*t^2)"


def test_gf_guess_low_budget(capsys):
    # m' = 2: 4 terms are the proof, 3 fit a wrong recurrence that is not flagged rigorous
    scheme = str(SCHEMES_DIR / "p2-univariate-quadratic.json")
    assert main(["gf", "--scheme", scheme, "--guess", "--budget", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "num": [1, 2],
        "den": [1, -1, -2],
        "rigorous": True,
    }
    assert main(["gf", "--scheme", scheme, "--guess", "--budget", "3"]) == 0
    assert capsys.readouterr().out == "(1)/(1-3*t+4*t^2)\n"
    assert main(["gf", "--scheme", scheme, "--guess", "--budget", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rigorous"] is False


def test_gf_guess_budget_below_the_proof_is_a_limit(t3, tmp_path, capsys):
    # t3 lumps to m' = 14, so 2m' = 28 terms are the proof.  The shortest
    # recurrences of the first 4..21 terms have non-integer coefficients: too
    # few terms is a limit (exit 3), not invalid input (exit 2)
    path = str(tmp_path / "t3.json")
    save_scheme(t3, path)
    proof = 2 * t3.lumped.state_count
    refused = []
    for budget in range(1, proof + 1):
        rc = main(["gf", "--scheme", path, "--guess", "--budget", str(budget), "--json"])
        captured = capsys.readouterr()
        assert rc in (0, 3), budget
        if rc == 3:
            refused.append(budget)
            assert captured.out == ""
            assert captured.err == (
                f"error: the first {budget} sparse terms fit no integer fraction; "
                f"a budget of 2m' = {proof} proves one\n"
            )
        else:
            assert json.loads(captured.out)["rigorous"] is (budget == proof)
    assert refused == list(range(4, 22))


@pytest.fixture(scope="module")
def r8(tmp_path_factory):
    """1+x+x^3+x^5+x^8 mod 2: 128 states."""
    path = tmp_path_factory.mktemp("r8") / "r8.json"
    rc = main(["synth", "-p", "2", "--vars", "x", "--poly", "1+x+x^3+x^5+x^8", "-o", str(path)])
    assert rc == 0
    return str(path)


def test_gf_and_check_beyond_64_states(r8, capsys):
    assert main(["gf", "--scheme", r8, "--json"]) == 0
    gf = json.loads(capsys.readouterr().out)
    assert gf["rigorous"] is True
    assert gf["den"] == [1, -2, 0, 0, 0, 0, 0, 0, -1, 2]
    assert main(["check", "--scheme", r8, "--nmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "pass      series_agreement" in out
    assert "result: OK" in out


def test_check(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["check", "--scheme", scheme, "--nmax", "64"]) == 0
    out = capsys.readouterr().out
    assert "result: OK" in out
    assert main(["check", "--scheme", scheme, "--nmax", "32", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True


def test_check_takes_no_histogram_charge(tmp_path, capsys):
    # 1+x mod 97: m = p - 1 = 96, so the default --nmax 128 would cost
    # 128 x 96 x 96 > MAX_STATE_VALUES as a histogram_prefix; check's limits
    # are the value prefix's count x m and the work budget only
    path = tmp_path / "c97.json"
    assert main(["synth", "-p", "97", "--vars", "x", "--poly", "1+x", "-o", str(path)]) == 0
    assert main(["check", "--scheme", str(path)]) == 0
    assert "result: OK" in capsys.readouterr().out


def test_check_refuses_the_value_cap_before_brute_force(capsys):
    # 600000 values x m' = 2 classes pass MAX_STATE_VALUES; brute force would
    # spend seconds on its term products before reaching its own limit
    scheme = str(SCHEMES_DIR / "p2-univariate-quadratic.json")
    start = time.perf_counter()
    assert main(["check", "--scheme", scheme, "--nmax", "600000"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: request needs 1200000 state values, more than the 1000000 allowed\n"
    )


def test_check_fails_on_bad_scheme(tmp_path, capsys):
    # structurally valid, semantically wrong: refused on load, so check and
    # eval never step it (verify_scheme's report on it is pinned in test_oracle)
    path = tmp_path / "toy.json"
    synth_toy(path)
    data = json.loads(path.read_text())
    data["transitions"][0][1] = [1, 1]
    path.write_text(json.dumps(data))
    message = "error: field 'transitions' differs from the scheme rebuilt from the file\n"
    for command, option in [("check", "--nmax"), ("eval", "--n")]:
        assert main([command, "--scheme", str(path), option, "16"]) == 2
        assert capsys.readouterr() == ("", message)


def test_hostile_input_ends_within_a_second(tmp_path, capsys):
    # a 145-byte one-state 1+x scheme mod 65521, and a 2.5 KB polynomial of
    # 300 parenthesized factors: re-synthesis and parsing must not run away
    one_state = {
        "p": 65521,
        "vars": ["x"],
        "polynomial": "1+x",
        "q0": "1",
        "states": ["1"],
        "transitions": [[[1]]],
        "base_scalar": [1],
        "base_histogram": [[1]],
    }
    nested = {**one_state, "vars": ["x", "y"], "polynomial": "(1+x+y)*" * 300 + "1"}
    cases = []
    for name, data, message in [
        ("one-state", one_state, "transitions must be a list of 1 rows of 65521 multisets"),
        ("nested", nested, "polynomial and q0 must be written without parentheses"),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        cases.append((["eval", "--scheme", str(path), "--n", "5"], 2, message))
    synth = ["synth", "-p", "65521", "--vars", "x", "--poly", "1+x", "--max-states", "5"]
    cases.append((synth, 3, "state count exceeded max_states=5"))
    for argv, code, message in cases:
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_load_past_the_closure_or_the_budget_is_invalid_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "toy.json"
    synth_toy(path)
    data = json.loads(path.read_text())
    short = {**data, "states": ["1"], "transitions": data["transitions"][:1]}
    short.update(base_scalar=[1], base_histogram=[[1]])
    (tmp_path / "short.json").write_text(json.dumps(short))
    assert main(["eval", "--scheme", str(tmp_path / "short.json"), "--n", "5"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: field 'states' does not hold the polynomial's closure: "
        "state count exceeded max_states=1\n",
    )
    # the toy's closure spends (1 + 2) state terms x (1 + 3) power terms,
    # plus 1 x 3 to build P^1: 15 term products
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 14)
    assert main(["eval", "--scheme", str(path), "--n", "5"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: field 'states' does not hold the polynomial's closure: "
        "synthesis exceeded its budget of 14 term products\n",
    )
    assert main(["synth", "-p", "2", "--vars", "x", "--poly", "1+x+x^2"]) == 3
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 15)
    assert main(["eval", "--scheme", str(path), "--n", "5"]) == 0
    assert capsys.readouterr().out.endswith("9\n")


def test_check_catches_a_wrong_quotient(tmp_path, capsys, monkeypatch):
    # the fast routes step Scheme.lumped; the oracles read the file's own
    # transitions, so a quotient with one multiset entry dropped must fail
    def dropped(scheme):
        rows = [list(row) for row in scheme.transitions]
        rows[0][1] = rows[0][1][:-1]
        return scheme._replace(transitions=tuple(map(tuple, rows)))

    monkeypatch.setattr(Scheme, "lumped", property(dropped))
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["check", "--scheme", scheme, "--nmax", "16"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  FAIL      scalar_vs_brute  [n=1, expected=3, got=1]" in out
    assert "  pass      recurrence_identity" in out


def test_rlt_limit_needs_base_2(base3, capsys):
    with pytest.raises(ValueError, match="p = 2"):
        verify_scheme(base3, 16, rlt_limit=5)
    scheme = str(SCHEMES_DIR / "p3-univariate-linear.json")
    assert main(["check", "--scheme", scheme, "--nmax", "16", "--rlt-limit", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the run-length check (rlt_limit) needs p = 2, got p = 3\n"
    assert main(["check", "--scheme", scheme, "--nmax", "16"]) == 0


def test_invalid_input_exit_codes(tmp_path, capsys):
    assert main(["synth", "-p", "4", "--vars", "x", "--poly", "1+x"]) == 2
    assert main(["synth", "-p", "2", "--vars", "x", "--poly", "1+2x"]) == 2
    assert main(["synth", "-p", "2", "--vars", "x", "--poly", "1+y"]) == 2
    assert main(["eval", "--scheme", str(tmp_path / "missing.json"), "--n", "1"]) == 2
    scheme = synth_toy(tmp_path / "toy.json")
    assert main(["eval", "--scheme", scheme, "--n", "12.5"]) == 2
    assert main(["eval", "--scheme", scheme]) == 2  # no index selected
    assert main(["gf", "--scheme", scheme, "--budget", "1"]) == 2  # --budget without --guess
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: --budget needs --guess\n")
    # a digit that int() cannot parse gets the CLI's own message, not Python's
    assert main(["eval", "--scheme", scheme, "--n", "²"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --n must be a nonnegative decimal integer" in captured.err


def test_empty_or_negative_ranges_rejected(tmp_path, capsys):
    scheme = synth_toy(tmp_path / "toy.json")
    capsys.readouterr()
    for argv in (
        ["check", "--scheme", scheme, "--nmax", "0"],
        ["check", "--scheme", scheme, "--nmax", "-5"],
        ["check", "--scheme", scheme, "--rlt-limit", "-3"],
        ["synth", "-p", "2", "--vars", "x", "--poly", "1+x", "--max-states", "0"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_resource_limit_exit_codes(capsys):
    assert main(["synth", "-p", "2", "--vars", "x", "--poly", "1+x+x^2", "--max-states", "1"]) == 3
    capsys.readouterr()
    # counts past the term cap are refused before any work
    scheme = str(SCHEMES_DIR / "p2-univariate-quadratic.json")
    start = time.perf_counter()
    for argv in (
        ["terms", "--scheme", scheme, "--count", "1000000000000"],
        ["terms", "--scheme", scheme, "--count", "1000000000000", "--histogram"],
        ["sparse", "--scheme", scheme, "--count", "1000000000000"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    assert time.perf_counter() - start < 5


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="interpreter converts integers of any length")
def test_unprintable_output_is_a_limit(capsys):
    # the toy's value at 2^k - 1 has about 0.3k digits, so k = 4L passes an L-digit limit
    scheme = str(SCHEMES_DIR / "p2-univariate-quadratic.json")
    for argv in (
        ["sparse", "--scheme", scheme, "--count", str(4 * DIGIT_LIMIT)],
        ["eval", "--scheme", scheme, "--pow", str(4 * DIGIT_LIMIT)],
        ["eval", "--scheme", scheme, "--npow10", str(DIGIT_LIMIT), "--json"],
        ["eval", "--scheme", scheme, "--n", "1" * (DIGIT_LIMIT + 1)],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    # 10^(L-1) has L digits: still printed
    assert main(["eval", "--scheme", scheme, "--npow10", str(DIGIT_LIMIT - 1), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == "1" + "0" * (DIGIT_LIMIT - 1)
    start = time.perf_counter()
    assert main(["eval", "--scheme", scheme, "--npow10", "1000000000"]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="interpreter converts integers of any length")
@pytest.mark.parametrize("where", ["value", "histogram"])
def test_unprintable_counterexample_is_a_limit(tmp_path, capsys, monkeypatch, where):
    # a counterexample integer too long for str() exits 3 with nothing on
    # stdout, as any other output integer does
    big = 10 ** max(4999, DIGIT_LIMIT)
    if where == "value":
        failed = oracle.CheckResult("scalar_vs_brute", False, False, {"n": 1, "expected": big})
    else:
        failed = oracle.CheckResult("histogram_vs_brute", False, False, {"got": [1, big]})
    report = oracle.VerificationReport("toy", (failed,))
    monkeypatch.setattr(oracle, "verify_scheme", lambda *args, **kwargs: report)
    scheme = synth_toy(tmp_path / "toy.json")
    for argv in (["check", "--scheme", scheme], ["check", "--scheme", scheme, "--json"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output integer has more than")


def test_corrupt_scheme_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    synth_toy(path)
    data = json.loads(path.read_text())
    data["base_scalar"] = [9, 9]
    path.write_text(json.dumps(data))
    assert main(["eval", "--scheme", str(path), "--n", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value",
    [
        (("transitions", 0, 0), [True]),
        (("transitions", 0, 1), ["a", 1]),
        (("base_scalar", 0), True),
        (("base_histogram", 0), [True]),
        (("vars",), "x"),
        (("states", 1), ["1+x"]),
    ],
    ids=["index-true", "index-str", "base-scalar-true", "histogram-true", "vars-str", "state-list"],
)
def test_non_integer_scheme_entries_rejected(tmp_path, capsys, field, value):
    # JSON true equals 1 and is an int subclass in Python; it must still be refused
    data = json.loads((SCHEMES_DIR / "p2-univariate-quadratic.json").read_text())
    *path, last = field
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError):
        scheme_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--scheme", str(bad), "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("states", ["1", "x+1"]),
        ("states", [" 1", "1+x"]),
        ("q0", " 1"),
        ("polynomial", "1+x+x^2+x"),  # parses to 1+x^2
    ],
    ids=["state-order", "state-space", "q0-space", "poly-parses-to-another"],
)
def test_non_canonical_spellings_rejected(tmp_path, capsys, field, value):
    # the loader accepts what the writer writes: each polynomial and state
    # string must be str() of its own parse
    data = json.loads((SCHEMES_DIR / "p2-univariate-quadratic.json").read_text())
    data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--scheme", str(bad), "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field {field!r} differs from the scheme rebuilt from the file\n"


def test_deeply_nested_input_rejected(tmp_path, capsys):
    # nesting past the interpreter's recursion limit is invalid input, not a crash
    nested_json = tmp_path / "nested.json"
    nested_json.write_text("[" * 100000 + "]" * 100000)
    nested_poly = tmp_path / "nested-poly.json"
    data = json.loads((SCHEMES_DIR / "p2-univariate-quadratic.json").read_text())
    data["polynomial"] = "(" * 100000 + "1+x+x^2" + ")" * 100000
    nested_poly.write_text(json.dumps(data))
    for argv in (
        ["eval", "--scheme", str(nested_json), "--n", "5"],
        ["eval", "--scheme", str(nested_poly), "--n", "5"],
        ["synth", "-p", "2", "--vars", "x", "--poly", "(" * 100000 + "x" + ")" * 100000],
    ):
        assert main(argv) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_synth_refuses_a_long_literal_and_an_oversized_product(capsys, monkeypatch):
    # a literal past the int-string limit is invalid input with its position
    assert main(["synth", "-p", "2", "--vars", "x", "--poly", "x^" + "9" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: integer literal has more than ")
    assert captured.err.endswith(" digits (at position 2)\n")
    # (1+x)*(1+x)*(1+x) mod 2 spends 4 + 4 term products while parsing
    argv = ["synth", "-p", "2", "--vars", "x", "--poly", "(1+x)*(1+x)*(1+x)"]
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 7)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: parsing exceeded its budget of 7 term products\n")
    # 8 fits the parse, and the closure, which reads the same budget, is refused
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 8)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: synthesis exceeded its budget of 8 term products\n")
    monkeypatch.undo()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["polynomial"] == "1+x+x^2+x^3"


def test_shipped_schemes_check_clean(capsys):
    files = sorted(SCHEMES_DIR.glob("*.json"))
    assert len(files) == 6
    for path in files:
        assert main(["check", "--scheme", str(path), "--nmax", "64"]) == 0, path.name
        capsys.readouterr()


def test_shipped_schemes_are_current(tmp_path):
    # every shipped file must be exactly what synth produces today
    from oncells import load_scheme, scheme_to_json, synthesize

    for path in sorted(SCHEMES_DIR.glob("*.json")):
        shipped = load_scheme(str(path))
        assert scheme_to_json(synthesize(shipped.poly, shipped.states[0])) == path.read_text()


# modules that eval, terms and sparse never need: the generating functions,
# the oracle, and dataclasses with what it imports
GATED = {"oncells.genfun", "oncells.oracle", "dataclasses", "inspect", "fractions"}


def _loaded_by(statement: str) -> set[str]:
    """Modules that `statement` adds to sys.modules in a fresh interpreter.

    What the interpreter itself loads at start-up (site) does not count.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*set(sys.modules) - before)\n"
    )
    src = str(Path(oncells.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(done.stdout.split())


def test_cli_import_loads_only_what_eval_needs():
    loaded = _loaded_by("import oncells.cli")
    assert "oncells.cli" in loaded
    assert not loaded & GATED


def test_package_exports_resolve_on_first_use():
    assert not {m for m in _loaded_by("import oncells") if m.startswith("oncells.")}
    for name in oncells.__all__:
        obj = getattr(oncells, name)
        assert obj.__module__.startswith("oncells.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from oncells import *", namespace)
    assert all(namespace[name] is getattr(oncells, name) for name in oncells.__all__)
    with pytest.raises(AttributeError):
        oncells.nope
