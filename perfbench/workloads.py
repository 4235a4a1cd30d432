"""Problem generation and reference checks for the benchmark workloads.

Everything here is independent of ``zeroloci``: problems are written as
``.zlp`` text, and every reference check uses this module's own integer
arithmetic (Hilbert functions of complete intersections, Laurent products,
graded dimensions), never the package's rank layer.

Seeding.  ``koszul_table``, ``excess_selfint`` and ``class_identities`` run
fixed draws (the first two are the ROADMAP ladder entries, drawn from
``random.Random(1)``); ``--seed`` picks a signed variant of them, each
variable and each entry negated or not.  A variant is a different input
text whose matrices differ only by signs of rows and columns, so exact
elimination and the d o d products do the same work on every seed, and
run-to-run spread measures the machine, not the draw.  Fresh random
quadrics would not: at cutoff 10, three draws took 2.3 s, 3.7 s and 4.5 s
(Python 3.11, 2 cores).  ``corpus_sweep`` draws its extra presentations
from the seed, many small ones of fixed shapes, so their sum is steady.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

DEFAULT_SEED = 1

# One sentence per workload: why it is in the benchmark.
WHY = {
    "koszul_table": "ladder entry 2: a few huge rank cells dominate (286x495 at degree 10), "
                    "with no duplicate work; where a rank kernel shows its gain",
    "excess_selfint": "ladder entry 3: the right side is shifted copies of kos, so a rank or "
                      "table memo or a chain-level certificate shows here",
    "class_identities": "no rank at all: tensor and exact d o d products do the work, so a rank "
                        "optimisation must show no change here",
    "corpus_sweep": "thousands of tiny rank cells and parse/report on every op: per-call "
                    "overhead shows here, and it has the samples for op_s.p90",
}


@dataclass
class Problem:
    """One op: a problem file sent through ``cli.run`` once per pass."""

    name: str
    text: str
    then: Optional[str] = None
    # check(exit_code, report_json) -> None when correct, else a reason
    check: Callable[[int, Optional[str]], Optional[str]] = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# own arithmetic: monomials, Laurent polynomials in t, Hilbert functions
# ---------------------------------------------------------------------------


def monomials(degrees: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree d in descending lex order."""
    if d < 0:
        return []
    if not degrees:
        return [()] if d == 0 else []
    head, rest = degrees[0], degrees[1:]
    return [(e,) + tail for e in range(d // head, -1, -1)
            for tail in monomials(rest, d - e * head)]


def laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def euler_product(degrees) -> dict[int, int]:
    """prod (1 - t^d)."""
    out = {0: 1}
    for d in degrees:
        out = laurent_mul(out, {0: 1, d: -1})
    return out


def parse_laurent(text: str) -> dict[int, int]:
    """Read a report's ``kclass`` string such as ``1 - 3*t + t^2``."""
    out: dict[int, int] = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        coeff, star, power = token.lstrip("-").partition("*")
        if not star:
            coeff, power = ("1", coeff) if coeff.startswith("t") else (coeff, "")
        k = 0 if not power else 1 if power == "t" else int(power[2:])
        out[k] = out.get(k, 0) + sign * int(coeff)
    return {k: v for k, v in out.items() if v}


def ci_hilbert(nvars: int, entry_degrees, cutoff: int) -> list[int]:
    """Coefficients of prod(1 - t^d_i) / (1 - t)^nvars up to t^cutoff."""
    series = [0] * (cutoff + 1)
    for k, c in euler_product(entry_degrees).items():
        for d in range(k, cutoff + 1):
            series[d] += c * comb(d - k + nvars - 1, nvars - 1)
    return series


def koszul_term_dims(ring_degrees, entry_degrees, cutoff: int) -> dict[int, list[int]]:
    """dim of the Koszul term in cohomological degree -j, internal degree d <= cutoff."""
    ring_dims = [len(monomials(ring_degrees, d)) for d in range(cutoff + 1)]
    by_twist: dict[int, dict[int, int]] = {0: {0: 1}}
    for e in entry_degrees:
        nxt: dict[int, dict[int, int]] = {}
        for j, twists in by_twist.items():
            for a, n in twists.items():
                for jj, aa in ((j, a), (j + 1, a + e)):
                    nxt.setdefault(jj, {})
                    nxt[jj][aa] = nxt[jj].get(aa, 0) + n
        by_twist = nxt
    return {-j: [sum(n * ring_dims[d - a] for a, n in twists.items() if a <= d)
                 for d in range(cutoff + 1)]
            for j, twists in by_twist.items()}


# ---------------------------------------------------------------------------
# problem text
# ---------------------------------------------------------------------------


def poly_text(variables, terms) -> str:
    """``terms``: (exponents, integer coefficient) pairs."""
    parts = []
    for exps, c in terms:
        if c == 0:
            continue
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, exps) if k)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def problem_text(variables, degrees, section, kind, ambient=(), cutoff=None,
                 module=None, potential=None) -> str:
    """``section``/``ambient``/``module``: (polynomial text, degree) pairs."""
    entries = lambda items: ", ".join(f"{p} : {d}" for p, d in items)
    lines = ["[ring]", f"variables = {', '.join(variables)}",
             f"degrees = {', '.join(map(str, degrees))}", ""]
    if ambient:
        lines += ["[ambient]", f"entries = {entries(ambient)}", ""]
    if potential is None:
        lines += ["[section]", f"entries = {entries(section)}", ""]
    lines += ["[task]", f"kind = {kind}"]
    if cutoff is not None:
        lines.append(f"cutoff = {cutoff}")
    if module is not None:
        lines.append(f"module = {entries(module)}")
    if potential is not None:
        lines.append(f"potential = {potential}")
    return "\n".join(lines) + "\n"


def draw_forms(rng: random.Random, nvars: int, degree: int, count: int):
    """Random forms: one coefficient in [-3, 3] per monomial, in descending lex order."""
    basis = monomials((1,) * nvars, degree)
    return [[(e, rng.randint(-3, 3)) for e in basis] for _ in range(count)]


def signed_variant(forms, seed: int, nvars: int):
    """Negate each variable and each form with a coin flip drawn from the seed."""
    rng = random.Random(seed)
    var_signs = [rng.choice((1, -1)) for _ in range(nvars)]
    out = []
    for terms in forms:
        form_sign = rng.choice((1, -1))
        signed = []
        for exps, c in terms:
            s = form_sign
            for e, v in zip(exps, var_signs):
                if v < 0 and e % 2:
                    s = -s
            signed.append((exps, s * c))
        out.append(signed)
    return out


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def _load(code: int, report: Optional[str], want_code: int = 0):
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    if report is None:
        return None, "no report"
    return json.loads(report), None


def _table(doc: dict, name: str) -> dict[tuple[int, int], int]:
    return {(i, d): n for i, d, n in doc["tables"][name]["entries"]}


def check_status(status: str):
    def check(code, report):
        doc, why = _load(code, report)
        if why:
            return why
        return None if doc["status"] == status else f"status {doc['status']}"
    return check


def check_kclass(status: str, expected: dict[int, int]):
    def check(code, report):
        doc, why = _load(code, report)
        if why:
            return why
        if doc["status"] != status:
            return f"status {doc['status']}"
        got = parse_laurent(doc.get("kclass", "0"))
        return None if got == expected else f"kclass {doc.get('kclass')}"
    return check


def check_tables(status: str, expected: dict[str, dict[tuple[int, int], int]]):
    def check(code, report):
        doc, why = _load(code, report)
        if why:
            return why
        if doc["status"] != status:
            return f"status {doc['status']}"
        for name, want in expected.items():
            got = _table(doc, name)
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))[:3]
                return f"table {name} differs at {diff}"
        return None
    return check


def check_euler(status: str, table: str, ring_degrees, entry_degrees):
    """Degreewise Euler characteristic of the table equals that of the Koszul terms."""
    def check(code, report):
        doc, why = _load(code, report)
        if why:
            return why
        if doc["status"] != status:
            return f"status {doc['status']}"
        cutoff = doc["tables"][table]["cutoff"]
        terms = koszul_term_dims(ring_degrees, entry_degrees, cutoff)
        got = _table(doc, table)
        for d in range(cutoff + 1):
            chi_terms = sum((-1) ** (i % 2) * dims[d] for i, dims in terms.items())
            chi_table = sum((-1) ** (i % 2) * n for (i, dd), n in got.items() if dd == d)
            if chi_terms != chi_table:
                return f"Euler characteristic differs in degree {d}"
        return None
    return check


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def with_pin(check, pin):
    """Also require the pinned (exit code, sha256 of the JSON report)."""
    if pin is None:
        return check

    def pinned(code, report):
        if code != pin[0]:
            return f"exit code {code}, pinned {pin[0]}"
        if report is not None and sha256(report) != pin[1]:
            return "report differs from the pinned sha256"
        return check(code, report)
    return pinned


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The ladder entries are stated at cutoff 12 (about 13 s a pass on 2 cores).  At
# cutoff 10 a pass takes about 2.5 s, so a timed run holds about ten passes and
# its medians hold against a slow stretch of a shared host; the largest cells
# still dominate.
LADDER_CUTOFF = 10


def koszul_table(seed: int) -> list[Problem]:
    """Ladder entry 2: Koszul homology of 3 quadrics on Q[x0..x3] at cutoff 10."""
    nvars, variables = 4, [f"x{i}" for i in range(4)]
    forms = signed_variant(draw_forms(random.Random(1), nvars, 2, 3), seed, nvars)
    section = [(poly_text(variables, f), 2) for f in forms]
    text = problem_text(variables, [1] * nvars, section, "homology", cutoff=LADDER_CUTOFF)
    ci = ci_hilbert(nvars, [2, 2, 2], LADDER_CUTOFF)
    # regular sequence: only H^0 = R/I, with the complete-intersection Hilbert function
    want = {(0, d): n for d, n in enumerate(ci) if n}
    return [Problem("koszul", text, check=check_tables("INFO", {"koszul": want}))]


def excess_selfint(seed: int) -> list[Problem]:
    """Ladder entry 3: verify-excess for 3 quadrics on Q[x0..x2] at cutoff 10."""
    nvars, variables = 3, [f"x{i}" for i in range(3)]
    forms = signed_variant(draw_forms(random.Random(1), nvars, 2, 3), seed, nvars)
    section = [(poly_text(variables, f), 2) for f in forms]
    text = problem_text(variables, [1] * nvars, section, "verify-excess",
                        cutoff=LADDER_CUTOFF)
    ci = ci_hilbert(nvars, [2, 2, 2], LADDER_CUTOFF)
    # Tor_j(R/I, R/I) = Lambda^j (R/I)(-2)^3 for a regular sequence of quadrics
    want = {}
    for j in range(4):
        for d in range(2 * j, LADDER_CUTOFF + 1):
            n = comb(3, j) * ci[d - 2 * j]
            if n:
                want[(-j, d)] = n
    return [Problem("excess", text, check=check_tables(
        "PASS", {"restricted_pushforward": want, "euler_twisted": want}))]


# (variables, quadric section entries, linear module entries), each drawn twice.
# Twenty ops of 0.03-0.5 s (3.5 s a pass, Python 3.11, 2 cores) rather than five of
# 0.1-3 s: a run then holds about 180 op samples spread over many sizes, so
# op_s.p50 and op_s.p90 do not rest on the eight or so samples that a single
# mid-size problem gives.  gclass runs on four presentations only: with as many
# fast gclass ops as Lefschetz ops the median op would sit on the boundary
# between the two kinds.
CLASS_SHAPES = ((4, 4, 2), (4, 3, 3), (5, 3, 2), (5, 2, 3),
                (4, 3, 2), (3, 4, 2), (3, 3, 3), (4, 2, 3))
CLASS_DRAWS = (1, 2)
CLASS_GCLASS = ((4, 4, 2), (5, 3, 2))


def class_identities(seed: int) -> list[Problem]:
    """verify-lefschetz and gclass on distinct presentations: no rank cell at all."""
    problems = []
    for k, (draw, (nvars, nquad, nlin)) in enumerate(
            (draw, shape) for draw in CLASS_DRAWS for shape in CLASS_SHAPES):
        variables = [f"x{i}" for i in range(nvars)]
        rng = random.Random(draw)
        forms = draw_forms(rng, nvars, 2, nquad) + draw_forms(rng, nvars, 1, nlin)
        forms = signed_variant(forms, seed * 1000 + k, nvars)
        section = [(poly_text(variables, f), 2) for f in forms[:nquad]]
        module = [(poly_text(variables, f), 1) for f in forms[nquad:]]
        euler = euler_product([2] * nquad)
        tag = f"{nvars}v{nquad}q{nlin}l.d{draw}"
        problems.append(Problem(
            f"{tag}.verify-lefschetz",
            problem_text(variables, [1] * nvars, section, "verify-lefschetz", module=module),
            check=check_kclass("PASS", laurent_mul(euler_product([1] * nlin), euler))))
        if (nvars, nquad, nlin) in CLASS_GCLASS:
            problems.append(Problem(
                f"{tag}.gclass", problem_text(variables, [1] * nvars, section, "gclass"),
                check=check_kclass("INFO", euler)))
    return problems


# The conftest corpus, as text: (variables, degrees, ambient, section).
_XY = (("x", "y"), (1, 1))
_UV = (("u", "v"), (1, 2))
CORPUS = [
    (("x",), (1,), [], [("x", 1)]),
    (*_XY, [], [("x", 1), ("y", 1)]),
    (("x", "y", "z"), (1, 1, 1), [], [("x", 1), ("y", 1), ("z", 1)]),
    (*_UV, [], [("v", 2)]),
    (*_UV, [], [("u^2", 2), ("v", 2)]),
    (*_XY, [], [("x + y", 1), ("x*y", 2)]),
    (("x",), (1,), [], [("x", 1), ("x", 1)]),
    (("x",), (1,), [], [("x^2", 2), ("x^3", 3)]),
    (*_XY, [], [("x*y", 2), ("x^2", 2)]),
    (*_XY, [], [("0", 1)]),
    (*_XY, [], [("0", 1), ("0", 2)]),
    (*_XY, [], [("x", 1), ("0", 2)]),
    (*_XY, [("x", 1)], [("y", 1)]),
    (*_XY, [("x", 1), ("x", 1)], [("y", 1)]),
    (*_XY, [("x^2", 2)], [("x*y", 2)]),
    (*_XY, [("x^2", 2)], [("y", 1)]),
    (*_XY, [], [("3*x^2", 2), ("3*y^2", 2)]),  # critical locus of x^3 + y^3
    (*_XY, [], [("2*x*y", 2), ("x^2", 2)]),    # critical locus of x^2*y
]
DERIVED_AMBIENT = [
    (*_XY, [("x", 1), ("x", 1)], [("y", 1)]),
    (*_XY, [("x^2", 2)], [("y", 1)]),
    (*_XY, [("x", 1)], [("0", 2)]),
    (*_XY, [("x", 1)], [("y", 1)]),
    (*_XY, [("x^2", 2)], [("x*y", 2)]),
    (*_XY, [("x", 1), ("y", 1)], [("x*y", 2)]),
    (*_UV, [("u", 1)], [("v", 2)]),
]
POTENTIALS = [("x^3 + y^3", [2, 2]), ("x^2*y", [2, 2])]
CORPUS_KINDS = ("homology", "gclass", "virtual-class", "verify-excess",
                "verify-lefschetz", "verify-sym-ga", "vpull")
CRIT_THEN = (None, "verify-excess", "verify-sym-ga", "verify-lefschetz")
# Drawn presentations: every shape (ring, ambient degrees, section degrees) is used
# RANDOM_REPEATS times with fresh nonzero coefficients, so the work in a pass
# depends on the shapes, not on the draw.
RANDOM_SHAPES = (
    (_XY, (), (1,)), (_XY, (), (2,)), (_XY, (), (1, 1)), (_XY, (), (1, 2)),
    (_XY, (), (2, 2)), (_XY, (1,), (1,)), (_XY, (1,), (2,)), (_XY, (2,), (1,)),
    (_XY, (1,), (1, 1)), (_UV, (), (2,)), (_UV, (), (1, 2)), (_UV, (1,), (2,)),
)
RANDOM_REPEATS = 4


def _random_entries(rng: random.Random, ring, entry_degrees):
    variables, degrees = ring
    return [(poly_text(variables, [(e, rng.choice((-3, -2, -1, 1, 2, 3)))
                                   for e in monomials(degrees, d)]), d)
            for d in entry_degrees]


def _presentation_ops(prefix, variables, degrees, ambient, section, kinds, pins):
    entry_degrees = [d for _, d in ambient] + [d for _, d in section]
    section_degrees = [d for _, d in section]
    checks = {
        "homology": check_euler("INFO", "koszul", degrees, entry_degrees),
        "gclass": check_kclass("INFO", euler_product(entry_degrees)),
        "virtual-class": check_kclass("INFO", euler_product(entry_degrees)),
        "verify-excess": check_status("PASS"),
        "verify-lefschetz": check_kclass("PASS", euler_product(entry_degrees)),
        "verify-sym-ga": check_status("PASS"),
        "vpull": check_kclass("PASS", euler_product(section_degrees)),
        "verify-strong": check_kclass("PASS", euler_product(entry_degrees)),
    }
    ops = []
    for kind in kinds:
        name = f"{prefix}.{kind}"
        ops.append(Problem(name, problem_text(variables, degrees, section, kind, ambient),
                           check=with_pin(checks[kind], pins.get(name))))
    return ops


def corpus_sweep(seed: int, pins: Optional[dict] = None) -> list[Problem]:
    """The test corpus through every task kind, plus small presentations drawn from the seed.

    ``pins`` maps op names to the (exit code, report sha256) recorded at the
    default seed; ops of the fixed corpus are seed-independent and are
    always pinned, drawn ops only on the seed the pins were recorded with.
    """
    pins = dict(pins or {})
    if seed != pins.pop("__seed__", DEFAULT_SEED):
        pins = {k: v for k, v in pins.items() if not k.startswith("r")}
    ops = []
    for k, (variables, degrees, ambient, section) in enumerate(CORPUS):
        ops += _presentation_ops(f"c{k:02d}", variables, degrees, ambient, section,
                                 CORPUS_KINDS, pins)
    for k, (variables, degrees, ambient, section) in enumerate(DERIVED_AMBIENT):
        ops += _presentation_ops(f"a{k}", variables, degrees, ambient, section,
                                 ("verify-strong",), pins)
    for k, (potential, partial_degrees) in enumerate(POTENTIALS):
        text = problem_text(_XY[0], _XY[1], [], "crit", potential=potential)
        for then in CRIT_THEN:
            name = f"crit{k}.{then or 'crit'}"
            check = {None: check_status("INFO"),
                     "verify-excess": check_status("PASS"),
                     "verify-sym-ga": check_status("PASS"),
                     "verify-lefschetz": check_kclass("PASS", euler_product(partial_degrees)),
                     }[then]
            ops.append(Problem(name, text, then, with_pin(check, pins.get(name))))
    rng = random.Random(seed)
    for k in range(RANDOM_REPEATS * len(RANDOM_SHAPES)):
        ring, ambient_degrees, section_degrees = RANDOM_SHAPES[k % len(RANDOM_SHAPES)]
        ambient = _random_entries(rng, ring, ambient_degrees)
        section = _random_entries(rng, ring, section_degrees)
        kinds = CORPUS_KINDS + (("verify-strong",) if ambient else ())
        ops += _presentation_ops(f"r{k:02d}", *ring, ambient, section, kinds, pins)
    return ops


WORKLOADS = {
    "koszul_table": koszul_table,
    "excess_selfint": excess_selfint,
    "class_identities": class_identities,
    "corpus_sweep": corpus_sweep,
}
