import dataclasses
import json

import pytest

from oncells import (
    LimitError,
    ModPoly,
    brute_histograms,
    brute_values,
    degree_bounds,
    parse_poly,
    scheme_from_json,
    scheme_to_dict,
    scheme_to_json,
    synthesize,
)

X = ("x",)

TOY_FIXTURE = {
    "p": 2,
    "vars": ["x"],
    "polynomial": "1+x+x^2",
    "q0": "1",
    "states": ["1", "1+x"],
    "transitions": [[[1], [1, 2]], [[1, 1], [1, 1]]],
    "base_scalar": [1, 2],
    "base_histogram": [[1], [2]],
}


def test_toy_scheme(toy):
    assert [str(q) for q in toy.states] == ["1", "1+x"]
    assert toy.transitions == (((1,), (1, 2)), ((1, 1), (1, 1)))
    assert toy.base_scalar == (1, 2)
    assert toy.base_histogram == ((1,), (2,))


def test_base3_scheme(base3):
    assert [str(q) for q in base3.states] == ["1", "2"]
    assert base3.transitions == (((1,), (1, 1), (1, 1, 2)), ((2,), (2, 2), (1, 2, 2)))
    assert base3.base_scalar == (1, 2)
    assert base3.base_histogram == ((1, 0), (0, 1))


def test_monomial_scheme():
    s = synthesize(parse_poly("x^5", X, 2))
    assert [str(q) for q in s.states] == ["1"]
    assert s.transitions == (((1,), (1,)),)
    assert s.base_scalar == (1,)


def test_custom_seed():
    poly = parse_poly("1+x+x^2", X, 2)
    s = synthesize(poly, parse_poly("1+x", X, 2))
    assert [str(q) for q in s.states] == ["1+x", "1"]
    assert s.transitions == (((2, 2), (2, 2)), ((2,), (1, 2)))
    assert s.base_scalar == (2, 1)
    # the seeded scheme still matches the oracle
    from oncells import terms_prefix

    assert terms_prefix(s, 64) == brute_values(s.poly, s.states[0], 64)


def test_seed_canonicalized():
    poly = parse_poly("1+x+x^2", X, 2)
    monomial_seed = parse_poly("x^3", X, 2)
    s = synthesize(poly, monomial_seed)
    assert str(s.states[0]) == "1"


def test_zero_inputs_rejected():
    zero = ModPoly.zero(2, X)
    one = ModPoly.one(2, X)
    with pytest.raises(ValueError):
        synthesize(zero, one)
    with pytest.raises(ValueError):
        synthesize(parse_poly("1+x", X, 2), zero)
    with pytest.raises(ValueError):
        synthesize(parse_poly("1+x", X, 2), ModPoly.one(3, X))


def test_max_states():
    with pytest.raises(LimitError):
        synthesize(parse_poly("1+x+x^2", X, 2), max_states=1)


def test_degree_bounds():
    p1 = parse_poly("1+x+x^2", X, 2)
    assert degree_bounds(p1, ModPoly.one(2, X)) == (2,)
    p2 = parse_poly("1+x", X, 3)
    assert degree_bounds(p2, ModPoly.one(3, X)) == (1,)
    q = parse_poly("1+x^5", X, 2)
    r = parse_poly("1+x^2", X, 2)
    assert degree_bounds(r, q) == (5,)


def test_states_respect_degree_bounds(corpus):
    for _, _, _, s in corpus:
        bounds = degree_bounds(s.poly, s.states[0])
        for state in s.states:
            assert all(d <= b for d, b in zip(state.degrees(), bounds))


def test_base_is_digit0_fixed_point(corpus):
    for _, _, _, s in corpus:
        base = list(s.base_scalar)
        assert [sum(base[l - 1] for l in row[0]) for row in s.transitions] == base


def test_recurrence_identity_small(base3):
    # per-state digit recurrence against the brute-force values, n <= 21
    tables = [brute_values(base3.poly, q, 64) for q in base3.states]
    for j in range(base3.state_count):
        for i in range(base3.p):
            for n in range(21):
                expected = tables[j][base3.p * n + i]
                assert expected == sum(tables[l - 1][n] for l in base3.transitions[j][i])


def test_histogram_recurrence_small(corpus):
    # the digit recurrence also holds componentwise on residue histograms
    for _, p, _, s in corpus:
        tables = [brute_histograms(s.poly, q, 3 * p + p) for q in s.states]
        for j in range(s.state_count):
            for i in range(p):
                for n in range(4):
                    expected = tables[j][p * n + i]
                    acc = [0] * (p - 1)
                    for l in s.transitions[j][i]:
                        for c in range(p - 1):
                            acc[c] += tables[l - 1][n][c]
                    assert tuple(acc) == expected


def test_synthesis_deterministic(corpus):
    for _, _, raw, s in corpus:
        again = synthesize(raw)
        assert scheme_to_json(again) == scheme_to_json(s)


def test_json_fixture(toy):
    assert scheme_to_dict(toy) == TOY_FIXTURE


def test_json_round_trip(corpus):
    for _, _, _, s in corpus:
        text = scheme_to_json(s)
        loaded = scheme_from_json(text)
        assert loaded == s
        assert scheme_to_json(loaded) == text


def test_load_rejects_corrupt_data(toy):
    good = scheme_to_dict(toy)

    bad = json.loads(json.dumps(good))
    bad["base_scalar"] = [1, 3]
    with pytest.raises(ValueError):
        scheme_from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["transitions"][0][1] = [2, 1]  # not sorted
    with pytest.raises(ValueError):
        scheme_from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["transitions"][0][1] = [1, 7]  # index out of range
    with pytest.raises(ValueError):
        scheme_from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["states"] = ["1", "x+x^2"]  # not canonical
    with pytest.raises(ValueError):
        scheme_from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    del bad["q0"]
    with pytest.raises(ValueError):
        scheme_from_json(json.dumps(bad))


def test_transitions_are_sorted_multisets(corpus):
    for _, _, _, s in corpus:
        for row in s.transitions:
            for multiset in row:
                assert list(multiset) == sorted(multiset)
                assert all(1 <= idx <= s.state_count for idx in multiset)


def test_states_distinct_canonical(corpus):
    for _, _, _, s in corpus:
        assert len(set(s.states)) == s.state_count
        for q in s.states:
            assert q.is_canonical()
            assert not q.is_zero()


def test_replace_keeps_scheme_frozen(toy):
    with pytest.raises(dataclasses.FrozenInstanceError):
        toy.p = 3
