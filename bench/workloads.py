"""Corpus, set-up, the four workloads' job lists, and the independent output checks.

A job is one `oncells` CLI invocation.  Each workload builds a pass: a list
of jobs drawn from the seed and shuffled by it.  The checks recompute every
expected output by a route that does not run the code path the job timed:
the memoized recursion for values, a multiset recursion written here for
histograms, brute-force expansion for prefixes, the series of the reported
generating function for `gf`, and the committed scheme bytes for `synth`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMES = ROOT / "schemes"
WORK = ROOT / "bench" / "work"

EXIT_OK = 0
EXIT_INPUT = 2


@dataclass(frozen=True)
class Member:
    name: str
    expr: str
    vars: tuple[str, ...]
    p: int
    shipped: bool

    @property
    def path(self) -> Path:
        return (SCHEMES if self.shipped else WORK / "schemes") / f"{self.name}.json"


CORPUS = {
    m.name: m
    for m in [
        Member("p2-univariate-linear", "1+x", ("x",), 2, True),
        Member("p2-univariate-quadratic", "1+x+x^2", ("x",), 2, True),
        Member("p3-univariate-linear", "1+x", ("x",), 3, True),
        Member("p3-univariate-quadratic", "1+x+x^2", ("x",), 3, True),
        Member("p2-bivariate-block", "1+x+y+x*y", ("x", "y"), 2, True),
        Member("p2-bivariate-cross", "x^-1+x+y^-1+y", ("x", "y"), 2, True),
        Member("c5", "1+x+x^2", ("x",), 5, False),
        Member("c7", "1+x+x^2", ("x",), 7, False),
        Member("c11", "1+x+x^2", ("x",), 11, False),
        Member("q5", "1+x+x^2+x^3", ("x",), 5, False),
        Member("r6", "1+x+x^4+x^5+x^6", ("x",), 2, False),
        Member("r8", "1+x+x^3+x^5+x^8", ("x",), 2, False),
        Member("t3", "(1+x+x^2)*(1+y+y^2)*(1+z+z^2)-x*y*z", ("x", "y", "z"), 2, False),
    ]
}
SHIPPED = [m for m in CORPUS.values() if m.shipped]
STRESS = [m for m in CORPUS.values() if not m.shipped]
UNSORTED = WORK / "invalid" / "unsorted.json"


def setup() -> None:
    """Synthesize and save the stress schemes, and write the tampered scheme file."""
    from oncells import parse_poly, save_scheme, synthesize

    (WORK / "schemes").mkdir(parents=True, exist_ok=True)
    (WORK / "synth").mkdir(parents=True, exist_ok=True)
    UNSORTED.parent.mkdir(parents=True, exist_ok=True)
    for m in STRESS:
        save_scheme(synthesize(parse_poly(m.expr, m.vars, m.p)), str(m.path))
    data = json.loads(CORPUS["p3-univariate-quadratic"].path.read_text())
    row = next(r for r in data["transitions"] if any(len(set(d)) > 1 for d in r))
    multiset = next(d for d in row if len(set(d)) > 1)
    multiset.reverse()
    UNSORTED.write_text(json.dumps(data))


@dataclass(frozen=True)
class Job:
    """One CLI run: `argv` after the program name, what it computes, and its expected exit."""

    label: str
    kind: str
    member: str
    argv: tuple[str, ...]
    n: int = 0
    expect_exit: int = EXIT_OK


def _eval(member: str, flag: str, value: int, histogram: bool = False) -> Job:
    if flag == "--pow":
        n = CORPUS[member].p ** value - 1
    elif flag == "--npow10":
        n = 10**value
    else:
        n = value
    argv = ("eval", "--scheme", str(CORPUS[member].path), flag, str(value))
    kind = "value"
    if histogram:
        argv += ("--histogram",)
        kind = "hist"
    return Job(f"{' '.join(argv[:1] + argv[3:])} on {member}", kind, member, argv, n)


def _count(cmd: str, member: str, count: int, histogram: bool = False) -> Job:
    argv = (cmd, "--scheme", str(CORPUS[member].path), "--count", str(count))
    kind = cmd
    if histogram:
        argv += ("--histogram",)
        kind = "terms_hist"
    return Job(f"{' '.join(argv[:1] + argv[3:])} on {member}", kind, member, argv, count)


# deep_eval: (member, index flag, lowest, highest); the value is drawn per pass.
# Each job takes 0.2-0.8 s on a 2-vCPU x86 VM: E reaches 1000 on c7 and r6,
# and r8 and t3, whose dense step is the slowest, stay near 10^150.  The
# --pow jobs use odd p only: on p = 2 an index p^K - 1 has every digit 1,
# which makes the memoized check route as slow as the job itself.
DEEP = [
    ("c7", "--npow10", 900, 1000),
    ("c7", "--npow10", 300, 400),
    ("c7", "--pow", 550, 600),
    ("c11", "--npow10", 250, 300),
    ("c11", "--pow", 100, 120),
    ("q5", "--npow10", 250, 300),
    ("q5", "--pow", 150, 180),
    ("r6", "--npow10", 900, 1000),
    ("r6", "--npow10", 300, 400),
    ("r8", "--npow10", 120, 150),
    ("r8", "--npow10", 60, 80),
    ("t3", "--npow10", 120, 150),
    ("t3", "--npow10", 60, 80),
]
DEEP_HISTOGRAM = ["c7", "c11"]

GF_PROVE = [m.name for m in SHIPPED] + ["c5", "r6", "c7"]
GF_GUESS = ["r6", "c7", "q5", "c11", "r8", "t3"]

SMALL = [m.name for m in SHIPPED] + ["c5"]
BAD_INDICES = ["12a", "0x1f", "3.5", "1e6", "7_000"]

# check --nmax: seeded 128 or 256 where the two cost about the same, fixed
# where 256 would cost seconds.
CHECK_FIXED = {"p2-bivariate-block": 128, "p2-bivariate-cross": 128, "c5": 256, "r6": 128}
CHECK_SEEDED = [m.name for m in SHIPPED if m.name not in CHECK_FIXED]


def _deep_eval(rng: random.Random) -> list[Job]:
    jobs = [_eval(member, flag, rng.randint(lo, hi)) for member, flag, lo, hi in DEEP]
    jobs += [_eval(member, "--npow10", 100, histogram=True) for member in DEEP_HISTOGRAM]
    return jobs


def _gf_solve(rng: random.Random) -> list[Job]:
    jobs = []
    for guess, members in ((False, GF_PROVE), (True, GF_GUESS)):
        for member in members:
            argv = ("gf", "--scheme", str(CORPUS[member].path), "--json")
            if guess:
                argv += ("--guess",)
            jobs.append(Job(f"gf{' --guess' if guess else ''} on {member}", "gf", member, argv))
    return jobs


def _small_queries(rng: random.Random) -> list[Job]:
    jobs = []
    for member in SMALL:
        jobs.append(_eval(member, "--n", rng.randrange(10**6)))
        jobs.append(_count("terms", member, 256))
        jobs.append(_count("terms", member, 64, histogram=True))
        jobs.append(_count("sparse", member, 32))
    for _ in range(2):
        member, bad = rng.choice(SMALL), rng.choice(BAD_INDICES)
        argv = ("eval", "--scheme", str(CORPUS[member].path), f"--n={bad}")
        jobs.append(Job(f"eval --n={bad} on {member}", "invalid", member, argv, 0, EXIT_INPUT))
    argv = ("eval", "--scheme", str(UNSORTED), "--n", str(rng.randrange(10**6)))
    jobs.append(Job("eval on unsorted multiset", "invalid", "p3-univariate-quadratic", argv, 0, EXIT_INPUT))
    return jobs


def _synth_check(rng: random.Random) -> list[Job]:
    jobs = []
    for m in CORPUS.values():
        out = WORK / "synth" / f"{m.name}.json"
        argv = ("synth", "-p", str(m.p), "--vars", ",".join(m.vars), "--poly", m.expr, "-o", str(out))
        jobs.append(Job(f"synth {m.name}", "synth", m.name, argv))
    nmax = dict(CHECK_FIXED)
    nmax.update((name, rng.choice((128, 256))) for name in CHECK_SEEDED)
    for name in sorted(nmax):
        argv = ("check", "--scheme", str(CORPUS[name].path), "--nmax", str(nmax[name]))
        jobs.append(Job(f"check --nmax {nmax[name]} on {name}", "check", name, argv, nmax[name]))
    return jobs


WORKLOADS = {
    "deep_eval": _deep_eval,
    "gf_solve": _gf_solve,
    "small_queries": _small_queries,
    "synth_check": _synth_check,
}


# Seconds one pass of each workload took at the commit that defined the
# benchmark, on a 2-vCPU x86 VM.  A run makes seconds / PASS_SECONDS passes,
# fixed in advance, so its job list depends on the seed and --seconds only:
# a parent and a change run the same jobs, and the tail percentile is the
# same on both.
PASS_SECONDS = {"deep_eval": 6.0, "gf_solve": 5.5, "small_queries": 3.0, "synth_check": 5.5}


def build_pass(workload: str, rng: random.Random) -> list[Job]:
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def plan(workload: str, seed: int, seconds: float) -> list[list[Job]]:
    """The passes of one run: at least one, about `seconds` long at the defining commit."""
    rng = random.Random(seed)
    count = max(1, int(seconds / PASS_SECONDS[workload]))
    return [build_pass(workload, rng) for _ in range(count)]


# ---- independent checks -----------------------------------------------------


def multiset_histogram(scheme, n: int) -> tuple[int, ...]:
    """Residue histogram at n by summing state histograms over the digit multisets."""
    p = scheme.p
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    rows = [tuple(h) for h in scheme.base_histogram]
    zero = (0,) * (p - 1)
    for d in reversed(digits):
        rows = [
            tuple(map(sum, zip(zero, *(rows[l - 1] for l in row[d])))) for row in scheme.transitions
        ]
    return rows[0]


class Disagreement(Exception):
    """Two independent routes to an expected output disagree: the program is at fault."""


class Checker:
    """Expected outputs per job, computed outside the timed region and cached per run."""

    def __init__(self) -> None:
        self._schemes: dict[str, object] = {}
        self._cache: dict[tuple, object] = {}

    def scheme(self, member: str):
        if member not in self._schemes:
            from oncells import load_scheme

            self._schemes[member] = load_scheme(str(CORPUS[member].path))
        return self._schemes[member]

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _brute(self, member: str, count: int, histograms: bool = False) -> list:
        from oncells import ModPoly, brute_histograms, brute_values, parse_poly

        def expand():
            m = CORPUS[member]
            route = brute_histograms if histograms else brute_values
            return route(parse_poly(m.expr, m.vars, m.p), ModPoly.one(m.p, m.vars), count)

        return self._memo(("brute", member, count, histograms), expand)

    def value(self, member: str, n: int) -> int:
        from oncells import eval_at_memo

        value = self._memo(("value", member, n), lambda: eval_at_memo(self.scheme(member), n))
        if n < 256 and self._brute(member, 256)[n] != value:
            raise Disagreement(f"memoized and brute-force values differ at n={n}")
        return value

    def histogram(self, member: str, n: int) -> tuple[int, ...]:
        hist = self._memo(("hist", member, n), lambda: multiset_histogram(self.scheme(member), n))
        if n < 256 and self._brute(member, 256, histograms=True)[n] != hist:
            raise Disagreement(f"multiset and brute-force histograms differ at n={n}")
        return hist

    def check(self, job: Job, code: int, out: str, err: str) -> str | None:
        """None when the job's exit code and output are right, else why not."""
        if code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}: {err.strip()[-200:]}"
        try:
            return getattr(self, f"_check_{job.kind}")(job, out, err)
        except Disagreement as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_value(self, job, out, err):
        if int(out) != self.value(job.member, job.n):
            return "wrong value"

    def _check_hist(self, job, out, err):
        index, counts = out.split()
        got = tuple(int(c) for c in counts.split(","))
        if int(index) != job.n or got != self.histogram(job.member, job.n):
            return "wrong histogram"

    def _check_terms(self, job, out, err):
        if [int(line) for line in out.split()] != self._brute(job.member, job.n):
            return "wrong prefix"

    def _check_terms_hist(self, job, out, err):
        rows = [line.split() for line in out.splitlines()]
        got = [tuple(int(c) for c in counts.split(",")) for _, counts in rows]
        if [int(i) for i, _ in rows] != list(range(job.n)):
            return "wrong indices"
        if got != self._brute(job.member, job.n, histograms=True):
            return "wrong histograms"

    def _check_sparse(self, job, out, err):
        p = CORPUS[job.member].p
        expected = [self.value(job.member, p**k - 1) for k in range(job.n + 1)]
        if [int(line) for line in out.split()] != expected:
            return "wrong sparse terms"

    def _check_gf(self, job, out, err):
        from oncells import RationalGF, gf_series, sparse_terms

        data = json.loads(out)
        scheme = self.scheme(job.member)
        count = 2 * scheme.state_count + 2
        terms = self._memo(("sparse", job.member), lambda: sparse_terms(scheme, count - 1))
        gf = RationalGF(tuple(data["num"]), tuple(data["den"]), data["rigorous"])
        if not gf.rigorous:
            return "generating function not flagged rigorous"
        if gf_series(gf, count) != terms:
            return "series disagrees with the sparse terms"

    def _check_check(self, job, out, err):
        if out.splitlines()[-1] != "result: OK":
            return "check did not report OK"

    def _check_synth(self, job, out, err):
        from oncells import eval_at_memo, load_scheme

        m = CORPUS[job.member]
        written = WORK / "synth" / f"{m.name}.json"
        if written.read_bytes() != m.path.read_bytes():
            return "synthesized bytes differ from the reference scheme file"
        values = self._memo(
            ("synth", m.name),
            lambda: [eval_at_memo(load_scheme(str(written)), n) for n in range(12)],
        )
        if values != self._brute(m.name, 12):
            return "synthesized scheme disagrees with brute force"

    def _check_invalid(self, job, out, err):
        if out or not err.startswith("error:"):
            return "invalid request not reported as an input error"
