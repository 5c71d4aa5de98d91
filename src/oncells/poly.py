"""Sparse multivariate polynomials with coefficients modulo a prime.

A polynomial is a mapping from exponent vectors (one integer per variable;
negative exponents are allowed so that Laurent input can be normalized later)
to coefficients stored already reduced into {1, ..., p-1}.  Zero coefficients
are never stored, so "reduce mod p" is a storage invariant rather than a
separate pass, and equality of polynomials is equality of term dictionaries.

  1 + x + x^2 over vars ("x",) mod 2   ->   {(0,): 1, (1,): 1, (2,): 1}

A ModPoly is an immutable value: it is built once, then compared, hashed,
printed and read.  It has no arithmetic; the parser, the scheme closure and
the brute-force oracle each multiply on their own representation, and each
charges its term products to the one WORK_BUDGET through _charge.
"""

from __future__ import annotations

import sys
from math import isqrt
from operator import add


class LimitError(RuntimeError):
    """A resource limit (state count, WORK_BUDGET, output digits) was hit."""


# Term products one parse_poly, synthesize or brute-force call (brute_values,
# brute_histograms, verify_scheme) may spend, each charged through _charge.  A
# parse charges len(left) * len(right) per '*'; a closure len(Q_j) * len(P^i)
# per state and digit, plus len(P^(i-1)) * len(P) per power built; brute
# force the nonzero terms of the current product times len(P) per step.
# Needs: synthesizing the 5x5 block minus its centre mod 2 (28,933 states)
# 6.0e6 and 1+x mod 257 8.6e6; check of x^-1+x+y^-1+y mod 2 at n_max = 257
# 7.8e6 and of (1+x+x^2)(1+y+y^2)(1+z+z^2)-xyz mod 2 at 8 5.5e6.  On a 2-vCPU
# x86 VM the slowest known inputs reach it after 12.5-13.9 s to parse
# (1+x+y+z+w)^50 mod 65521, 10-16 s to synthesize 1+x mod 271 or 1+x+y+x*y
# mod 97, and about 18 s of brute force on x^3y^-1z^2+x^4z^3+yz+x^-2y^2
# +xyz^-3+z^-1 mod 2, whose rows hold about one term each.
WORK_BUDGET = 10_000_000


def _charge(spent: int, cost: int, what: str) -> int:
    """spent + cost, or LimitError naming what once that passes WORK_BUDGET, read at each call."""
    spent += cost
    if spent > WORK_BUDGET:
        raise LimitError(f"{what} exceeded its budget of {WORK_BUDGET} term products")
    return spent


class ParseError(ValueError):
    """Syntax or validation error in a polynomial expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _digit_limit() -> int:
    """Most decimal digits int() and str() convert, 0 for no limit (interpreters before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def ensure_prime(p: int) -> int:
    """Validate the modulus: a prime with 2 <= p <= 2**16 (deterministic check)."""
    if not isinstance(p, int) or p < 2 or p > 2**16:
        raise ValueError(f"modulus must be a prime in [2, 65536], got {p!r}")
    for d in range(2, isqrt(p) + 1):
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
    return p


class ModPoly:
    """Immutable sparse polynomial over Z/p in a fixed ordered variable list."""

    __slots__ = ("p", "vars", "terms", "_key")

    def __init__(self, p: int, vars: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        ensure_prime(p)
        vars = tuple(vars)
        k = len(vars)
        reduced: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != k:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {k}")
            c = coeff % p
            if c:
                reduced[exps] = c
        self.p = p
        self.vars = vars
        self.terms = reduced
        self._key = tuple(sorted(reduced.items()))

    @classmethod
    def one(cls, p: int, vars: tuple[str, ...]) -> ModPoly:
        return cls(p, vars, {(0,) * len(vars): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModPoly):
            return NotImplemented
        return self.p == other.p and self.vars == other.vars and self._key == other._key

    def __hash__(self) -> int:
        return hash((self.p, self.vars, self._key))

    def __repr__(self) -> str:
        return f"ModPoly(p={self.p}, {self})"

    def degrees(self) -> tuple[int, ...]:
        """Per-variable maximum exponent (the zero polynomial has all zeros)."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(max(e[v] for e in self.terms) for v in range(len(self.vars)))

    def canonical(self) -> ModPoly:
        """Divide out the greatest common monomial.

        Every variable's minimum exponent becomes exactly 0, which also clears
        negative (Laurent) exponents.  Idempotent; coefficients unchanged.
        """
        if not self.terms:
            raise ValueError("the zero polynomial has no canonical representative")
        mins = [min(e[v] for e in self.terms) for v in range(len(self.vars))]
        if all(m == 0 for m in mins):
            return self
        shifted = {tuple(x - m for x, m in zip(e, mins)): c for e, c in self.terms.items()}
        return ModPoly(self.p, self.vars, shifted)

    def coeff_sum(self) -> int:
        """Sum of the stored coefficients as plain integers.

        This is the value of the polynomial after reducing coefficients mod p
        and setting every variable to 1; for p = 2 it is the number of
        odd-coefficient monomials (ON cells).
        """
        return sum(self.terms.values())

    def coeff_histogram(self) -> tuple[int, ...]:
        """Count the terms with each nonzero residue: entry i-1 counts coefficient i."""
        counts = [0] * (self.p - 1)
        for c in self.terms.values():
            counts[c - 1] += 1
        return tuple(counts)

    def __str__(self) -> str:
        """Canonical expression string: terms in lexicographic exponent order.

        Round-trips through parse_poly; e.g. "1+x+x^2", "2*x", "x^2*y".
        """
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self._key:
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(self.vars, exps) if e]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return "+".join(parts)


class _Parser:
    """Recursive-descent parser for the polynomial expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | var '^' sint | '(' expr ')'
    sint   := '-'? integer

    Implicit multiplication is not allowed ("2x" is an error; write "2*x").
    """

    def __init__(self, text: str, vars: tuple[str, ...], p: int):
        self.text = text
        self.vars = vars
        self.p = p
        self.pos = 0
        self.spent = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        # int() refuses a literal past the limit, but without a position
        limit = _digit_limit()
        if limit and self.pos - start > limit:
            raise ParseError(f"integer literal has more than {limit} digits", start)
        return int(self.text[start:self.pos])

    def _identifier(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name not in self.vars:
            raise ParseError(f"unknown variable {name!r}", start)
        return name

    def parse(self) -> ModPoly:
        terms = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return ModPoly(self.p, self.vars, terms)

    # _expr, _term and _factor return {exponents: coeff} dicts; parse builds
    # the one ModPoly, whose construction reduces the sums mod p.

    def _expr(self) -> dict[tuple[int, ...], int]:
        result = self._term()
        while (op := self._peek()) in ("+", "-"):
            self.pos += 1
            sign = 1 if op == "+" else -1
            for exps, c in self._term().items():
                result[exps] = result.get(exps, 0) + sign * c
        return result

    def _term(self) -> dict[tuple[int, ...], int]:
        result = self._factor()
        while self._peek() == "*":
            self.pos += 1
            factor = self._factor()
            self.spent = _charge(self.spent, len(result) * len(factor), "parsing")
            product: dict[tuple[int, ...], int] = {}
            for ea, ca in result.items():
                for eb, cb in factor.items():
                    e = tuple(map(add, ea, eb))
                    product[e] = product.get(e, 0) + ca * cb
            result = {e: c % self.p for e, c in product.items() if c % self.p}
        return result

    def _factor(self) -> dict[tuple[int, ...], int]:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            self._expect(")")
            return inner
        if ch.isdecimal():
            return {(0,) * len(self.vars): self._integer()}
        if ch.isalpha() or ch == "_":
            name = self._identifier()
            exp = 1
            if self._peek() == "^":
                self.pos += 1
                neg = self._peek() == "-"
                if neg:
                    self.pos += 1
                exp = self._integer()
                if neg:
                    exp = -exp
            return {tuple(exp if v == name else 0 for v in self.vars): 1}
        raise ParseError("expected an integer, variable, or '('", self.pos)


def parse_poly(text: str, vars: tuple[str, ...] | list[str], p: int) -> ModPoly:
    """Parse an expression string into a ModPoly with coefficients mod p.

    Negative exponents (Laurent terms) are preserved; canonicalization is a
    separate step.  Raises ParseError with the offending position on bad
    syntax, an undeclared variable or an integer literal longer than int()
    converts, LimitError once the products of the expression spend more
    than WORK_BUDGET term products, TypeError if text is not a string.
    """
    ensure_prime(p)
    if not isinstance(text, str):
        raise TypeError(f"expression must be a string, got {type(text).__name__}")
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ValueError(f"duplicate variable names in {vars}")
    try:
        return _Parser(text, vars, p).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
