import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oncells import (
    LimitError,
    ModPoly,
    Scheme,
    brute_histograms,
    brute_values,
    degree_bounds,
    eval_at,
    eval_at_memo,
    eval_histogram_at,
    gf_prove,
    histogram_prefix,
    load_scheme,
    parse_poly,
    scheme_from_dict,
    scheme_from_json,
    scheme_to_dict,
    scheme_to_json,
    sparse_terms,
    synthesize,
    terms_prefix,
)
import oncells.oracle as oracle_module
import oncells.poly as poly_module
import oncells.scheme as scheme_module
from oncells.genfun import _fit
from strategies import product, random_polys, seeds, symmetric_products

X = ("x",)
SCHEMES_DIR = Path(__file__).resolve().parent.parent / "schemes"

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


def _residue_split(poly: ModPoly) -> dict[tuple[int, ...], ModPoly]:
    """Partition terms by exponent residues mod p, dividing exponents by p.

    Each term c*x^e contributes c*x^(e div p) to the class keyed e mod p.
    Classes that would be zero are omitted.  Keys are returned in
    lexicographic order.  Requires nonnegative exponents.
    """
    p = poly.p
    classes: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, c in poly.terms.items():
        if any(x < 0 for x in exps):
            raise ValueError(f"negative exponent in {exps}; canonicalize first")
        alpha = tuple(x % p for x in exps)
        quot = tuple(x // p for x in exps)
        classes.setdefault(alpha, {})[quot] = c
    return {alpha: ModPoly(p, poly.vars, classes[alpha]) for alpha in sorted(classes)}


def _reference_synthesize(poly: ModPoly, q0: ModPoly | None = None, max_states: int = 100_000):
    """The closure over ModPoly states that synthesize replaced, kept as a reference.

    Same numbering and the same LimitError; inputs are assumed valid.
    """
    p = poly.p
    poly = poly.canonical()
    powers = [ModPoly.one(p, poly.vars)]
    for _ in range(1, p):
        powers.append(product(powers[-1], poly))
    seed = (q0 or ModPoly.one(p, poly.vars)).canonical()
    states = [seed]
    index = {seed: 1}
    transitions = []
    for state in states:
        row = []
        for power in powers:
            multiset = []
            for quotient in _residue_split(product(state, power)).values():
                canon = quotient.canonical()
                idx = index.get(canon)
                if idx is None:
                    if len(states) >= max_states:
                        raise LimitError(f"state count exceeded max_states={max_states}")
                    states.append(canon)
                    idx = len(states)
                    index[canon] = idx
                multiset.append(idx)
            row.append(tuple(sorted(multiset)))
        transitions.append(tuple(row))
    return Scheme(
        p,
        poly.vars,
        poly,
        tuple(states),
        tuple(transitions),
        tuple(s.coeff_sum() for s in states),
        tuple(s.coeff_histogram() for s in states),
    )


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
    zero = ModPoly(2, X, {})
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


def _synth_json(synth, poly, q0, max_states):
    try:
        return scheme_to_json(synth(poly, q0, max_states=max_states))
    except LimitError:
        return LimitError


@settings(max_examples=100, deadline=None)
@given(random_polys(max_vars=3), st.data())
def test_synthesize_matches_reference(poly, data):
    # seeds carry coefficients 2..p-1, so products cancel mod p and classes vanish
    q0 = data.draw(st.none() | seeds(poly))
    try:
        m = _reference_synthesize(poly, q0, max_states=64).state_count
    except LimitError:
        assume(False)
    k = data.draw(st.integers(1, m + 1))
    expected = _synth_json(_reference_synthesize, poly, q0, k)
    assert (expected is LimitError) == (k < m)
    assert _synth_json(synthesize, poly, q0, k) == expected


@pytest.mark.parametrize(
    "poly, q0",
    [
        # a constant P and seed: every exponent field is 0 bits wide
        (parse_poly("2", X, 3), None),
        (
            parse_poly("(1+w+w^2)*(1+x+x^2)*(1+y)*(1+z)-w*x*y*z", ("w", "x", "y", "z"), 2),
            None,
        ),
        (parse_poly("1+x", X, 97), None),
        # a Laurent P whose seed has the higher degree in both variables
        (parse_poly("x^-2+x+y^-1+y", ("x", "y"), 2), parse_poly("x^5+y^3", ("x", "y"), 2)),
    ],
    ids=["constant", "four-variables", "p97", "laurent-high-seed"],
)
def test_packed_closure_matches_reference(poly, q0):
    # the reference finds m states, so it refuses max_states = m - 1 as well
    reference = _reference_synthesize(poly, q0)
    m = reference.state_count
    assert m >= 2
    assert _synth_json(synthesize, poly, q0, m) == scheme_to_json(reference)
    assert _synth_json(synthesize, poly, q0, m - 1) is LimitError


def test_packed_closure_block_minus_centre_limit():
    # the 5x5 block minus its centre, mod 2, has 28,933 states
    block = {(i, j): 1 for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)}
    poly = ModPoly(2, ("x", "y"), block)
    assert _synth_json(_reference_synthesize, poly, None, 2000) is LimitError
    assert _synth_json(synthesize, poly, None, 2000) is LimitError


@settings(max_examples=100, deadline=None)
@given(random_polys(max_vars=3), st.data())
def test_scheme_to_json_is_json_dumps(poly, data):
    q0 = data.draw(st.none() | seeds(poly))
    try:
        s = synthesize(poly, q0, max_states=64)
    except LimitError:
        assume(False)
    assert scheme_to_json(s) == json.dumps(scheme_to_dict(s), indent=2) + "\n"


def test_scheme_to_json_escapes_like_json_dumps():
    s = synthesize(parse_poly("1+\u03be+\u03be^2*y", ("\u03be", "y"), 3))
    text = scheme_to_json(s)
    assert text == json.dumps(scheme_to_dict(s), indent=2) + "\n"
    assert '"\\u03be"' in text
    assert scheme_from_json(text) == s


@pytest.mark.parametrize(
    "text, vars, p, digest",
    [
        ("1+x+x^2", ("x",), 5, "b378e75045c608cb2d4737df28647056bdafbc9205ba93b26026fa17a81851bd"),
        ("1+x+x^2", ("x",), 7, "2c6c8b8deb1f0def316e710df634f9aadbd570770687f1cbe7f0c32697198c73"),
        ("1+x+x^2", ("x",), 11, "519270f461e42147e5accfa47ca2b0363efa929bf5f75a4db571f957af9ac3d0"),
        ("1+x+x^2+x^3", ("x",), 5, "40665ab9f76a82ba94fc24b5a6a5d98d304262df212b6672cd01a7fb044b847e"),
        ("1+x+x^4+x^5+x^6", ("x",), 2, "aa9cef88df124d1389aff8d95b4400a4628f6fd763606a74698f1ff7c224ee78"),
        ("1+x+x^3+x^5+x^8", ("x",), 2, "4ae0e26e978ed5cd81f2da55f964d142e46b43fe930d5e59c2ee9d95873e3fb4"),
        (
            "(1+x+x^2)*(1+y+y^2)*(1+z+z^2)-x*y*z",
            ("x", "y", "z"),
            2,
            "ea7feabf1bab3b1cf6ce3e39046fea827360c8fd3fc70a0dbfccd8d052b258d8",
        ),
    ],
    ids=["c5", "c7", "c11", "q5", "r6", "r8", "t3"],
)
def test_synthesized_bytes_pinned(text, vars, p, digest):
    text = scheme_to_json(synthesize(parse_poly(text, vars, p)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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

    shape = "^transitions must be a list of 2 rows of 2 multisets$"
    ints = "^transitions and base values must be integers$"
    for where, value, message in [
        (("polynomial",), "(1+x)*(1+x)", "without parentheses"),
        (("q0",), "(1)", "without parentheses"),
        (("states",), [], "^scheme has no states$"),
        (("transitions",), [[[1], [1, 2]]], shape),
        (("transitions", 1), [[1]], shape),
        (("transitions", 1), 5, shape),
        (("transitions",), {"0": [], "1": []}, shape),
        (("transitions", 0, 1, 0), True, ints),  # JSON true and 1.0 equal 1
        (("transitions", 1, 0, 0), 1.0, ints),
        (("base_scalar", 0), True, ints),
        (("base_histogram", 1, 0), 2.0, ints),
    ]:
        bad = json.loads(json.dumps(good))
        *keys, last = where
        target = bad
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match=message):
            scheme_from_dict(bad)


@settings(max_examples=100, deadline=None)
@given(random_polys(max_vars=3), st.data())
def test_json_round_trip_property(poly, data):
    q0 = data.draw(st.none() | seeds(poly))
    try:
        s = synthesize(poly, q0, max_states=64)
    except LimitError:
        assume(False)
    text = scheme_to_json(s)
    loaded = scheme_from_json(text)
    assert loaded == s
    assert scheme_to_json(loaded) == text


def _leaves(node, where=()):
    """(path, value) of every int and string leaf of a JSON tree."""
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        yield where, node
        return
    for key, child in node:
        yield from _leaves(child, where + (key,))


def _mutations(value):
    """Each int +-1, true, as a float and as a string; each string with +x
    appended, its leading 1+ dropped, and with a leading space."""
    if type(value) is int:
        return [value + 1, value - 1, True, float(value), str(value)]
    dropped = [value[2:]] if value.startswith("1+") else []
    return [value + "+x", *dropped, " " + value]


@pytest.mark.parametrize("path", sorted(SCHEMES_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_single_leaf_mutations_are_refused(path):
    # the loader re-synthesizes the scheme from the polynomial and q0, so a
    # mutation anywhere, the transitions included, makes some field differ
    data = json.loads(path.read_text())
    assert scheme_from_dict(data) == synthesize(
        parse_poly(data["polynomial"], data["vars"], data["p"]),
        parse_poly(data["q0"], data["vars"], data["p"]),
    )
    for where, value in _leaves(data):
        for new in _mutations(value):
            mutated = json.loads(json.dumps(data))
            *keys, last = where
            target = mutated
            for key in keys:
                target = target[key]
            target[last] = new
            with pytest.raises(ValueError):
                scheme_from_json(json.dumps(mutated))


def test_bisimilar_index_swap_is_refused():
    # states 1+2*x and 2+x of p3-univariate-quadratic lump to one class, so
    # naming one for the other steps the same automaton; it is still not the
    # file synth writes
    data = json.loads((SCHEMES_DIR / "p3-univariate-quadratic.json").read_text())
    s = scheme_from_dict(data)
    assert (s.state_count, s.lumped.state_count) == (4, 3)
    assert data["states"][1:3] == ["1+2*x", "2+x"]
    assert data["transitions"][1][1] == [2]
    data["transitions"][1][1] = [3]
    with pytest.raises(ValueError, match="^field 'transitions' differs from the scheme rebuilt"):
        scheme_from_dict(data)


def _synthesis_need(scheme) -> int:
    """Term products of the closure: sum_j |Q_j| * sum_i |P^i| + sum_i |P^(i-1)| * |P|."""
    poly = scheme.poly
    powers = [ModPoly.one(poly.p, poly.vars)]
    for _ in range(1, poly.p):
        powers.append(product(powers[-1], poly))
    sizes = [len(q.terms) for q in powers]
    states = sum(len(q.terms) for q in scheme.states)
    return states * sum(sizes) + sum(sizes[:-1]) * len(poly.terms)


@pytest.mark.parametrize(
    "poly, q0",
    [
        (parse_poly("1+x+x^2", X, 5), None),
        (parse_poly("(1+x+x^2)*(1+y+y^2)*(1+z+z^2)-x*y*z", ("x", "y", "z"), 2), None),
        (parse_poly("x^-2+x+y^-1+y", ("x", "y"), 3), parse_poly("x^5+2*y^3", ("x", "y"), 3)),
    ],
    ids=["c5", "t3", "laurent"],
)
def test_synthesis_budget_edge(poly, q0, monkeypatch):
    need = _synthesis_need(synthesize(poly, q0))
    monkeypatch.setattr(poly_module, "WORK_BUDGET", need)
    text = scheme_to_json(synthesize(poly, q0))
    assert scheme_from_json(text) == synthesize(poly, q0)  # a load spends the same
    monkeypatch.setattr(poly_module, "WORK_BUDGET", need - 1)
    with pytest.raises(LimitError, match=f"budget of {need - 1} term products"):
        synthesize(poly, q0)
    with pytest.raises(ValueError, match=f"^field 'states' .*budget of {need - 1} term products$"):
        scheme_from_json(text)


def test_one_budget_bounds_parse_and_closure(monkeypatch):
    # oncells.poly.WORK_BUDGET is the one binding: a single patch refuses the
    # parser's 4 + 4 term products, the toy closure's 15 and brute force's
    # 1 x 3 + 3 x 3 for the toy's first three values
    for module in (scheme_module, oracle_module):
        assert not {"SYNTH_BUDGET", "WORK_BUDGET"} & set(vars(module))
    assert "SYNTH_BUDGET" not in vars(poly_module)
    monkeypatch.setattr(poly_module, "WORK_BUDGET", 7)
    with pytest.raises(LimitError, match="^parsing exceeded its budget of 7 term products$"):
        parse_poly("(1+x)*(1+x)*(1+x)", X, 2)
    toy = parse_poly("1+x+x^2", X, 2)
    with pytest.raises(LimitError, match="^synthesis exceeded its budget of 7 term products$"):
        synthesize(toy)
    with pytest.raises(LimitError, match="^brute force exceeded its budget of 7 term products$"):
        brute_values(toy, ModPoly.one(2, X), 3)


def test_synthesis_budget_fits_the_largest_closures():
    # 1+x mod p: p - 1 one-term states, |P^i| = i + 1, so the need has a
    # closed form; checked at p = 97 and taken at p = 257 (8.6e6, about 10 s)
    def need(p):
        return (p - 1) * p * (p + 1) // 2 + p * (p - 1)

    assert _synthesis_need(synthesize(parse_poly("1+x", X, 97))) == need(97)
    assert need(257) < poly_module.WORK_BUDGET
    # the 5x5 block minus its centre, mod 2
    block = {(i, j): 1 for i in range(5) for j in range(5) if (i, j) != (2, 2)}
    s = synthesize(ModPoly(2, ("x", "y"), block))
    assert (s.state_count, _synthesis_need(s)) == (28933, 5968349)


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
            assert q.canonical() == q
            assert not q.is_zero()


def test_replace_keeps_scheme_frozen(toy):
    with pytest.raises(AttributeError):
        toy.p = 3


@pytest.mark.parametrize(
    "text, vars, p, states, classes",
    [
        ("1+x+x^2", ("x",), 5, 20, 14),
        ("1+x+x^2", ("x",), 7, 42, 27),
        ("1+x+x^2", ("x",), 11, 110, 65),
        ("1+x+x^2+x^3", ("x",), 5, 100, 64),
        ("1+x+x^4+x^5+x^6", ("x",), 2, 32, 32),
        ("1+x+x^3+x^5+x^8", ("x",), 2, 128, 128),
    ],
)
def test_lumped_class_counts(text, vars, p, states, classes):
    s = synthesize(parse_poly(text, vars, p))
    assert (s.state_count, s.lumped.state_count) == (states, classes)
    if classes == states:
        assert s.lumped is s  # nothing merges, nothing is copied
    rng = random.Random(states)
    for n in [p**40 - 1] + [rng.randrange(p**60) for _ in range(20)]:
        assert eval_at(s, n) == eval_at_memo(s, n)


def test_lumped_t3_and_shipped_schemes(t3):
    assert (t3.state_count, t3.lumped.state_count) == (110, 14)
    counts = {}
    for path in SCHEMES_DIR.glob("*.json"):
        s = load_scheme(str(path))
        counts[path.stem] = (s.state_count, s.lumped.state_count)
    assert counts == {
        "p2-bivariate-block": (1, 1),
        "p2-bivariate-cross": (3, 2),
        "p2-univariate-linear": (1, 1),
        "p2-univariate-quadratic": (2, 2),
        "p3-univariate-linear": (2, 2),
        "p3-univariate-quadratic": (4, 3),
    }


def test_lumped_is_cached_outside_the_fields(t3):
    lumped = t3.lumped
    assert t3.lumped is lumped
    assert t3._replace() == t3  # equality and hash read the fields only
    assert hash(t3._replace()) == hash(t3)
    assert lumped.states[0] == t3.states[0]
    assert [list(m) for row in lumped.transitions for m in row] == [
        sorted(m) for row in lumped.transitions for m in row
    ]


def test_lumped_scheme_follows_a_tampered_base(t3):
    # the lumping must reproduce the scheme as given, not as synthesized, so
    # that check compares the file's own recurrence against brute force
    rng = random.Random(110)
    for j in range(0, t3.state_count, 7):
        scalar = list(t3.base_scalar)
        scalar[j] += 1
        s = t3._replace(base_scalar=tuple(scalar))
        for n in [0, 1, 2, 3, 2**40 - 1] + [rng.randrange(2**60) for _ in range(5)]:
            assert eval_at(s, n) == eval_at_memo(s, n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_polys(max_vars=3), symmetric_products()), st.data())
def test_lumped_scheme_agrees_with_oracles(poly, data):
    # random_polys alone rarely lumps; symmetric products and seeds q0 do
    q0 = data.draw(st.none() | seeds(poly))
    try:
        s = synthesize(poly, q0, max_states=64)
    except LimitError:
        assume(False)
    p, m = s.p, s.state_count
    lumped = s.lumped
    assert lumped.lumped is lumped
    assert lumped.states[0] == s.states[0]
    assert lumped.state_count <= m
    count = 3 * p * p
    values = brute_values(s.poly, s.states[0], count)
    assert [eval_at(s, n) for n in range(count)] == values
    assert [eval_at_memo(s, n) for n in range(count)] == values
    assert terms_prefix(s, count) == values
    hists = brute_histograms(s.poly, s.states[0], count)
    assert histogram_prefix(s, count) == hists
    assert [eval_histogram_at(s, n) for n in range(0, count, 7)] == hists[::7]
    assert eval_at(s, 10**30 + 7) == eval_at_memo(s, 10**30 + 7)
    memo = [eval_at_memo(s, p**k - 1) for k in range(2 * m + 1)]
    assert sparse_terms(s, 2 * m) == memo
    assert gf_prove(s) == _fit(memo[: 2 * m], rigorous=True)
