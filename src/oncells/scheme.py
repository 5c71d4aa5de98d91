"""Synthesis of base-p recurrence schemes by worklist closure.

A scheme is the finite automaton behind the sequence n -> coeff_sum(Q * P^n):
canonical state polynomials Q_1..Q_m (Q_1 the canonicalized seed), and for
each state j and digit i in {0..p-1} a sorted multiset S_i(j) of state
indices with

    value_j(p*n + i) = sum over l in S_i(j) of value_l(n).

States are found by splitting Q_j * P^i into exponent-residue classes mod p
(dividing exponents by p), canonicalizing each nonzero class, and numbering
new polynomials in first-discovery order: digits ascending, residue classes
in lexicographic order.  Termination follows from the per-variable degree
bound max(deg Q_1, deg P), which closure preserves.  The same bound D sizes
the closure's arithmetic: no exponent of Q_j * P^i passes p * D, so each
exponent vector packs into one int with a fixed-width field per variable,
a term product is one int add, and packed ints sort as the vectors do.
P^i is built when the closure first needs it, and poly.WORK_BUDGET caps the
term products one closure spends, so a state cap or the budget stops an
oversized closure early.

A scheme file is a cache of synthesize(polynomial, q0): the loader
re-synthesizes it, so a file is valid exactly when synthesize rebuilds it
field for field, and the closure is the one definition of a valid scheme.

Distinct states can still have equal values at every n.  Scheme.lumped
merges them: two states with equal base values whose digit-i multisets map
to equal multisets of classes, for every i, are equal at every n by
induction on the digits of n.  The coarsest such partition is the forward
bisimulation of the weighted automaton (Buchholz, TCS 393, 2008), found by
partition refinement (Paige & Tarjan, SIAM J. Comput. 16(6), 1987); its
quotient is again a Scheme, which the evaluation routes step.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import floordiv, lshift, mod

from .poly import LimitError, ModPoly, _charge, ensure_prime, parse_poly


class Scheme(namedtuple("Scheme", "p vars poly states transitions base_scalar base_histogram")):
    """A synthesized recurrence scheme.  An immutable namedtuple; safe to share.

    p is the prime, vars the variable names, poly the canonical P and
    states the canonical ModPolys Q_1..Q_m.  transitions[j][i] is the
    sorted tuple of 1-based state indices of the digit-i multiset for
    state j+1.  base_scalar[j] and base_histogram[j] are the n=0 values
    coeff_sum(Q_{j+1}) and coeff_histogram(Q_{j+1}).  No __slots__, so
    that cached_property has an instance __dict__ to write.
    """

    @property
    def state_count(self) -> int:
        return len(self.states)

    def label(self) -> str:
        return f"p={self.p} poly={self.poly} q0={self.states[0]}"

    @cached_property
    def lumped(self) -> Scheme:
        """The quotient by the coarsest forward lumping; self when no two states merge.

        Computed once per object (cached_property writes the instance
        __dict__, which the tuple's __eq__ and __hash__ never read).  The
        partition starts from equal (base_scalar, base_histogram) and is
        refined by each state's digit multisets of classes until a round adds
        no class or no two states share one.  Classes are numbered by their
        lowest member, so state 1's class is class 1; each keeps its lowest
        member's polynomial and base values, and its multisets are the sorted
        class numbers of that member's multisets.
        """
        classes = _number(zip(self.base_scalar, self.base_histogram))
        # each key holds the state's class, so a round only splits classes:
        # m classes, or a round that adds none, is the coarsest stable partition
        while max(classes) + 1 < self.state_count:
            get = [None, *classes].__getitem__  # 1-based, as the multisets are
            refined = _number(
                (c, tuple(tuple(sorted(map(get, ms))) for ms in row))
                for c, row in zip(classes, self.transitions)
            )
            if max(refined) == max(classes):
                break
            classes = refined
        first: dict[int, int] = {}
        for j, c in enumerate(classes):
            first.setdefault(c, j)
        if len(first) == self.state_count:
            return self
        reps = list(first.values())
        return Scheme(
            p=self.p,
            vars=self.vars,
            poly=self.poly,
            states=tuple(self.states[r] for r in reps),
            transitions=tuple(
                tuple(tuple(sorted(classes[l - 1] + 1 for l in ms)) for ms in self.transitions[r])
                for r in reps
            ),
            base_scalar=tuple(self.base_scalar[r] for r in reps),
            base_histogram=tuple(self.base_histogram[r] for r in reps),
        )


def _number(keys) -> list[int]:
    """0-based class of each key, classes numbered in order of first appearance."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys]


def degree_bounds(poly: ModPoly, q0: ModPoly) -> tuple[int, ...]:
    """Per-variable degree ceiling max(deg q0, deg poly) for canonical inputs.

    Splitting Q*P^i divides exponents by p, so states never exceed this bound:
    deg(class) <= floor((deg Q + (p-1) deg P) / p) <= max(deg Q, deg P).
    """
    return tuple(map(max, poly.degrees(), q0.degrees()))


def synthesize(
    poly: ModPoly,
    q0: ModPoly | None = None,
    max_states: int = 100_000,
) -> Scheme:
    """Build the full recurrence scheme for coeff_sum(q0 * poly^n).

    Both inputs must be nonzero mod p; poly and the seed are canonicalized
    first (legal because the functionals ignore monomial factors).  The
    worklist closure is sequential and byte-deterministic: states are
    numbered in first-discovery order with digits ascending and residue
    classes in lexicographic order.  Each state is a sorted tuple of
    (packed exponents, coeff) terms: an exponent vector is one int with a
    field of (p * D).bit_length() bits per variable, D the largest of
    degree_bounds, and variable 0 in the most significant field, so int
    order is lexicographic order.  A term product is one int add; each
    distinct product exponent is split into packed residues and quotient
    once per call; canonicalizing subtracts the packed per-variable
    minimum.  One ModPoly per state is unpacked once the closure ends.
    P^i is built on the packed terms at the first state that needs it.
    Raises LimitError if more than max_states states appear or the closure
    spends more than poly.WORK_BUDGET term products (len(Q_j) * len(P^i) per
    state and digit, len(P^(i-1)) * len(P) per power built), ValueError if
    max_states is below 1.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    if poly.is_zero():
        raise ValueError("polynomial is zero mod p")
    if q0 is None:
        q0 = ModPoly.one(poly.p, poly.vars)
    if q0.is_zero():
        raise ValueError("seed polynomial is zero mod p")
    if q0.p != poly.p or q0.vars != poly.vars:
        raise ValueError("seed and polynomial must share modulus and variables")

    p, vars = poly.p, poly.vars
    poly, q0 = poly.canonical(), q0.canonical()
    # no exponent of a state times P^i passes p * D
    width = (p * max(degree_bounds(poly, q0), default=0)).bit_length()
    shifts = [width * v for v in reversed(range(len(vars)))]
    mask = (1 << width) - 1
    ps = (p,) * len(vars)

    def pack(exps) -> int:
        return sum(map(lshift, exps, shifts))

    spent = 0

    def multiply(a, b) -> dict[int, int]:
        """The unreduced product of two packed term lists, charged len(a) * len(b)."""
        nonlocal spent
        spent = _charge(spent, len(a) * len(b), "synthesis")
        product: dict[int, int] = {}
        get = product.get
        for ea, ca in a:
            for eb, cb in b:
                e = ea + eb
                product[e] = get(e, 0) + ca * cb
        return product

    base = [(pack(e), c) for e, c in poly._key]
    powers = [[(0, 1)]]  # P^0: the zero exponent vector packs to 0

    # packed product exponent -> (packed residues, packed quotient, quotient
    # tuple); the tuple gives the per-variable minimum of a class
    splits: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    states = [tuple((pack(e), c) for e, c in q0._key)]  # each state's sorted packed terms
    index = {states[0]: 1}
    transitions: list[tuple[tuple[int, ...], ...]] = []
    for state in states:
        row = []
        for i in range(p):
            if i == len(powers):  # P^i is built when the closure first needs it
                powers.append([(e, c % p) for e, c in multiply(powers[-1], base).items() if c % p])
            classes: dict[int, list] = {}
            for e, c in multiply(state, powers[i]).items():
                c %= p
                if c:
                    split = splits.get(e)
                    if split is None:
                        exps = [e >> s & mask for s in shifts]
                        quotient = tuple(map(floordiv, exps, ps))
                        split = (pack(map(mod, exps, ps)), pack(quotient), quotient)
                        splits[e] = split
                    classes.setdefault(split[0], []).append((split[1], c, split[2]))
            multiset = []
            for alpha in sorted(classes):
                terms = classes[alpha]
                if len(terms) == 1:  # map(min, *exps) needs two exponent tuples
                    key = ((0, terms[0][1]),)
                else:
                    low = pack(map(min, *(t[2] for t in terms)))
                    key = tuple(sorted((e - low, c) for e, c, _ in terms))
                idx = index.get(key)
                if idx is None:
                    if len(states) >= max_states:
                        raise LimitError(f"state count exceeded max_states={max_states}")
                    states.append(key)
                    idx = len(states)
                    index[key] = idx
                multiset.append(idx)
            row.append(tuple(sorted(multiset)))
        transitions.append(tuple(row))

    del index, splits  # so that each key is freed as its ModPoly replaces it
    for j, key in enumerate(states):
        states[j] = ModPoly(p, vars, {tuple(e >> s & mask for s in shifts): c for e, c in key})
    return Scheme(
        p=p,
        vars=vars,
        poly=poly,
        states=tuple(states),
        transitions=tuple(transitions),
        base_scalar=tuple(s.coeff_sum() for s in states),
        base_histogram=tuple(s.coeff_histogram() for s in states),
    )


def scheme_to_dict(scheme: Scheme) -> dict:
    return {
        "p": scheme.p,
        "vars": list(scheme.vars),
        "polynomial": str(scheme.poly),
        "q0": str(scheme.states[0]),
        "states": [str(s) for s in scheme.states],
        "transitions": [[list(d) for d in row] for row in scheme.transitions],
        "base_scalar": list(scheme.base_scalar),
        "base_histogram": [list(h) for h in scheme.base_histogram],
    }


def scheme_to_json(scheme: Scheme) -> str:
    """Serialize deterministically; identical schemes give identical bytes.

    The bytes are json.dumps(scheme_to_dict(scheme), indent=2) + "\\n", which
    runs json's pure-Python encoder whenever indent is set; _dump writes them
    directly.
    """
    return _dump(scheme_to_dict(scheme), "\n") + "\n"


def _dump(value, indent: str) -> str:
    """json.dumps(value, indent=2) for the dicts, lists, strs and ints of scheme_to_dict.

    indent is the newline and indentation that close value.  A list that
    starts with an int is joined as ints, since scheme_to_dict never mixes
    ints with other items; strings and keys go through json.dumps, so their
    escaping is json's.
    """
    inner = indent + "  "
    if type(value) is dict and value:
        items = (json.dumps(k) + ": " + _dump(v, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is list and value:
        if type(value[0]) is int:
            items = map(str, value)
        else:
            items = [_dump(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def scheme_from_dict(data: dict) -> Scheme:
    """Load a scheme by re-synthesizing it; accept exactly what scheme_to_dict writes.

    A file is a cache of synthesize(polynomial, q0): only p, vars, the
    polynomial and q0 are parsed, and the closure runs with max_states the
    file's state count.  Every field of scheme_to_dict of the result must
    then equal the field of the same name, and every number in the
    transitions and base values must be an exact int (JSON true and 1.0
    would otherwise equal 1), else ValueError names what differs.  So a
    multiset that names the wrong state, even a bisimilar one, is refused.
    The writer never writes a parenthesis, and refusing one keeps parsing
    linear; the shape check before the closure and WORK_BUDGET bound the
    work a hostile file can ask for.
    """
    try:
        p = ensure_prime(data["p"])
        vars = data["vars"]
        if type(vars) is not list or not all(type(v) is str for v in vars):
            raise ValueError(f"vars must be a list of names, got {vars!r}")
        texts = data["polynomial"], data["q0"]
        if any("(" in text for text in texts):
            raise ValueError("polynomial and q0 must be written without parentheses")
        m, rows = len(data["states"]), data["transitions"]
        if m == 0:
            raise ValueError("scheme has no states")
        if [len(row) if type(row) is list else 0 for row in rows] != [p] * m:
            raise ValueError(f"transitions must be a list of {m} rows of {p} multisets")
        poly, q0 = (parse_poly(text, vars, p) for text in texts)
        scheme = synthesize(poly, q0, max_states=m)
        numbers = chain(*chain(*rows), data["base_scalar"], *data["base_histogram"])
        if set(map(type, numbers)) - {int}:
            raise ValueError("transitions and base values must be integers")
        for field, value in scheme_to_dict(scheme).items():
            if value != data[field]:
                raise ValueError(f"field {field!r} differs from the scheme rebuilt from the file")
    except LimitError as exc:  # the closure outgrew the file's states or WORK_BUDGET
        raise ValueError(f"field 'states' does not hold the polynomial's closure: {exc}") from None
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed scheme data: {exc}") from exc
    return scheme


def scheme_from_json(text: str) -> Scheme:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("scheme JSON is nested too deeply") from None
    return scheme_from_dict(data)


def save_scheme(scheme: Scheme, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(scheme_to_json(scheme))


def load_scheme(path: str) -> Scheme:
    with open(path) as fh:
        return scheme_from_json(fh.read())
