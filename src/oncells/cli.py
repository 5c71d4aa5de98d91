"""Command-line interface.

Commands: synth (build a scheme and write its JSON), eval (one value, by
decimal index, --pow K for p^K - 1, or --npow10 E for 10^E), terms (a
prefix of the sequence), sparse (the subsequence at p^k - 1), gf (proved
or guessed generating function), check (verify a scheme against the
brute-force oracle).

Each command builds its whole output before writing it.  Only gf and check
import the generating-function and oracle modules, so the other commands
start without them.  Exit codes: 0 success, 1 verification failure, 2
invalid input, 3 resource limit (state cap, the work budget of parsing,
synthesis and brute force, term cap, a --budget too small for an integer
fraction, or an integer too long for str()).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

from .poly import LimitError, _digit_limit, parse_poly
from .scheme import load_scheme, save_scheme, scheme_to_json, synthesize
from .sequence import eval_at, eval_histogram_at, histogram_prefix, sparse_terms, terms_prefix

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oncells",
        description="Base-p recurrence automata for coefficient counts of polynomial powers mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a recurrence scheme")
    synth.add_argument("-p", "--prime", type=int, required=True, help="prime modulus")
    synth.add_argument("--vars", required=True, help="comma-separated variable names")
    synth.add_argument("--poly", required=True, help="polynomial expression")
    synth.add_argument("--q0", default="1", help="seed polynomial (default 1)")
    synth.add_argument("--max-states", type=int, default=100_000)
    synth.add_argument("-o", "--output", help="scheme JSON path (default stdout)")

    ev = sub.add_parser("eval", help="evaluate the sequence at one index")
    ev.add_argument("--scheme", required=True)
    which = ev.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", help="index as a decimal string of any size")
    which.add_argument("--pow", type=int, metavar="K", help="evaluate at p^K - 1")
    which.add_argument("--npow10", type=int, metavar="E", help="evaluate at 10^E")
    ev.add_argument("--histogram", action="store_true", help="print the residue histogram")
    ev.add_argument("--json", action="store_true")

    terms = sub.add_parser("terms", help="print a prefix of the sequence")
    terms.add_argument("--scheme", required=True)
    terms.add_argument("--count", type=int, required=True)
    terms.add_argument("--histogram", action="store_true")
    terms.add_argument("--json", action="store_true")

    sparse = sub.add_parser("sparse", help="print values at p^k - 1 for k = 0..K")
    sparse.add_argument("--scheme", required=True)
    sparse.add_argument("--count", type=int, required=True, metavar="K")
    sparse.add_argument("--json", action="store_true")

    gf = sub.add_parser("gf", help="generating function of the sparse subsequence")
    gf.add_argument("--scheme", required=True)
    gf.add_argument("--guess", action="store_true", help="fit the first --budget sparse terms")
    gf.add_argument("--budget", type=int, help="terms for --guess (default 2m', the proof)")
    gf.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="verify a scheme against the brute-force oracle")
    check.add_argument("--scheme", required=True)
    check.add_argument("--nmax", type=int, default=128)
    check.add_argument("--rlt-limit", type=int)
    check.add_argument("--json", action="store_true")

    return parser


def _printable(values: Iterable[int]) -> None:
    """Raise LimitError if an output integer has more decimal digits than str() converts."""
    limit = _digit_limit()
    if limit:
        bound = 10**limit
        if any(abs(v) >= bound for v in values):
            raise LimitError(f"output integer has more than {limit} decimal digits")


def _json(obj) -> str:
    return json.dumps(obj) + "\n"


def _lines(values: list[int]) -> str:
    return "".join(f"{v}\n" for v in values)


def _hist_line(n: int, hist: Iterable[int]) -> str:
    return f"{n} " + ",".join(str(c) for c in hist) + "\n"


def _parse_index(args, p: int) -> int:
    """The requested index; LimitError, before it is built, if it cannot be printed."""
    limit = _digit_limit()
    too_long = f"index has more than {limit} decimal digits"
    if args.n is not None:
        text = args.n.strip()
        if not text.isdecimal():
            raise ValueError(f"--n must be a nonnegative decimal integer, got {text!r}")
        if limit and len(text) > limit:
            raise LimitError(too_long)
        n = int(text)
    elif args.pow is not None:
        if args.pow < 0:
            raise ValueError("--pow must be nonnegative")
        if limit and args.pow > 4 * limit:  # p^K >= 2^K = 16^(K/4) > 10^limit
            raise LimitError(too_long)
        n = p**args.pow - 1
    else:
        if args.npow10 < 0:
            raise ValueError("--npow10 must be nonnegative")
        if limit and args.npow10 >= limit:
            raise LimitError(too_long)
        n = 10**args.npow10
    _printable([n])
    return n


def _cmd_synth(args) -> tuple[int, str]:
    vars = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not vars:
        raise ValueError("--vars must name at least one variable")
    poly = parse_poly(args.poly, vars, args.prime)
    q0 = parse_poly(args.q0, vars, args.prime)
    scheme = synthesize(poly, q0, max_states=args.max_states)
    if args.output:
        save_scheme(scheme, args.output)
        return EXIT_OK, ""
    return EXIT_OK, scheme_to_json(scheme)


def _cmd_eval(args) -> tuple[int, str]:
    scheme = load_scheme(args.scheme)
    n = _parse_index(args, scheme.p)
    if args.histogram:
        hist = list(eval_histogram_at(scheme, n))
        _printable(hist)
        text = _json({"n": str(n), "histogram": hist}) if args.json else _hist_line(n, hist)
        return EXIT_OK, text
    value = eval_at(scheme, n)
    _printable([value])
    return EXIT_OK, _json({"n": str(n), "value": value}) if args.json else f"{value}\n"


def _cmd_terms(args) -> tuple[int, str]:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    scheme = load_scheme(args.scheme)
    if args.histogram:
        rows = histogram_prefix(scheme, args.count)
        _printable(c for row in rows for c in row)
        if args.json:
            return EXIT_OK, _json({"histograms": rows})
        return EXIT_OK, "".join(_hist_line(n, row) for n, row in enumerate(rows))
    values = terms_prefix(scheme, args.count)
    _printable(values)
    return EXIT_OK, _json({"values": values}) if args.json else _lines(values)


def _cmd_sparse(args) -> tuple[int, str]:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    scheme = load_scheme(args.scheme)
    values = sparse_terms(scheme, args.count)
    _printable(values)
    return EXIT_OK, _json({"values": values}) if args.json else _lines(values)


def _cmd_gf(args) -> tuple[int, str]:
    from .genfun import gf_prove, gf_to_dict, gf_to_text

    if args.budget is not None and not args.guess:
        raise ValueError("--budget needs --guess")
    gf = gf_prove(load_scheme(args.scheme), args.budget)
    _printable(gf.num + gf.den)
    return EXIT_OK, _json(gf_to_dict(gf)) if args.json else gf_to_text(gf) + "\n"


def _cmd_check(args) -> tuple[int, str]:
    from .genfun import gf_prove
    from .oracle import verify_scheme

    scheme = load_scheme(args.scheme)
    report = verify_scheme(scheme, args.nmax, gf=gf_prove(scheme), rlt_limit=args.rlt_limit)
    _printable(  # counterexample values are ints or lists of ints
        x
        for c in report.checks
        if c.counterexample
        for v in c.counterexample.values()
        for x in (v if isinstance(v, list) else [v])
    )
    text = report.to_json() if args.json else report.render_text() + "\n"
    return EXIT_OK if report.ok else EXIT_VERIFY, text


_COMMANDS = {
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "terms": _cmd_terms,
    "sparse": _cmd_sparse,
    "gf": _cmd_gf,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = _COMMANDS[args.command](args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
