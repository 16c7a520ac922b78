"""Seeded workloads: family pools, one job per family, and the checks on it.

A *job* is one whole analysis of one family.  Every workload draws its
families from a fixed pool per size class (n, d); the pool never depends on
the run's seed, so `reference.json` can hold one digest per pool member.  The
run's seed only picks and orders pool members.  Jobs run in cycles that
each hold the same mix of classes and family sizes (see `schedule`).

The package is passed in as `bc` and looked up at call time, so the wrappers
that tracing installs on the package are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

# Size classes (n variables, every generator of degree d) per workload.  All
# families are d-uniform with random tails; sizes stop where one job on the
# seed code stays under about 3 s.
CLASSES = {
    # Symbolic families: graph, rewrite, dual, structural resultant and
    # SparsePoly arithmetic do the work; no linear algebra runs.
    "structure": [(4, 3), (5, 3), (4, 4), (5, 4), (6, 3)],
    # Numeric families, a quarter of them degenerate (b_i = a_i): the rank
    # oracles, RowSpace and the Hessian ranks do the work.
    "verify": [(3, 3), (4, 2), (5, 2), (3, 4), (4, 3), (6, 2)],
    # Numeric families through cli.main: parsing, formatting and the dense
    # Bareiss oracle, which keeps N = C(D + n, n - 1) at or below 220.
    "cli-session": [(3, 3), (4, 2), (3, 4), (4, 3), (5, 2)],
}

# Pool members per class.  A run stops early once a class runs out, so the
# pool bounds the jobs a run can take: far above what the seed code reaches.
POOL_PER_CLASS = {"structure": 120, "verify": 160, "cli-session": 160}

# Every 4th pool member of a `verify` class is degenerate.
DEGENERATE_EVERY = 4

# A cycle is CYCLE rounds; in it every class draws once from each of its
# CYCLE cells (see schedule), so every cycle holds the same family mix.  In
# `verify` one cell of four is the degenerate one, matching DEGENERATE_EVERY.
CYCLE = 4

REDUCTIONS_PER_FAMILY = 8
MEMBERSHIP_TESTS = 3
SLP_TRIALS = 3


@dataclass
class Case:
    """One generated input: the family plus the seeded extras its job needs."""

    key: str
    family: object
    degenerate: bool = False
    monomials: tuple = ()
    seed: int = 0
    text: str = ""
    argv: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _random_exponents(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    """A uniformly random exponent vector of the given total degree."""
    cuts = sorted(rng.sample(range(degree + n - 1), n - 1))
    bounds = [-1] + cuts + [degree + n - 1]
    return tuple(bounds[j + 1] - bounds[j] - 1 for j in range(n))


def _random_tail(bc, rng: random.Random, n: int, d: int, i: int):
    lead = tuple(d if j == i else 0 for j in range(n))
    while True:
        exps = _random_exponents(rng, n, d)
        if exps != lead:
            return bc.Monomial(exps)


def _nonzero(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def _family(bc, rng: random.Random, n: int, d: int, numeric: bool, degenerate: bool):
    tails = [_random_tail(bc, rng, n, d, i) for i in range(n)]
    if not numeric:
        return bc.BinomialFamily.symbolic([d] * n, tails)
    a = [_nonzero(rng) for _ in range(n)]
    b = list(a) if degenerate else [_nonzero(rng) for _ in range(n)]
    return bc.BinomialFamily.numeric([d] * n, tails, a, b)


def _case(bc, workload: str, key: str, family, degenerate: bool) -> Case:
    """Attach the seeded extras; they depend only on the key and the family."""
    rng = random.Random(f"{workload}/extras/{key}")
    n, top = family.n, family.socle_degree
    case = Case(key, family, degenerate, seed=rng.randrange(2**31))
    if workload == "structure":
        case.monomials = tuple(
            bc.Monomial(_random_exponents(rng, n, top + 2)) for _ in range(REDUCTIONS_PER_FAMILY)
        )
    elif workload == "verify":
        case.monomials = tuple(
            bc.Monomial(_random_exponents(rng, n, rng.randint(1, top + 1)))
            for _ in range(MEMBERSHIP_TESTS)
        )
    else:
        case.monomials = (bc.Monomial(_random_exponents(rng, n, top + 1)),)
        case.text = bc.format_family(family)
        case.argv = cli_commands(case)
    return case


def make_pool(bc, workload: str) -> dict[tuple[int, int], list[Case]]:
    """The fixed pool: POOL_PER_CLASS distinct families per class, independent
    of any run seed."""
    numeric = workload != "structure"
    pool = {}
    for n, d in CLASSES[workload]:
        rng = random.Random(f"{workload}/pool/{n},{d}")
        seen = set()
        cases = []
        while len(cases) < POOL_PER_CLASS[workload]:
            k = len(cases)
            degenerate = workload == "verify" and k % DEGENERATE_EVERY == DEGENERATE_EVERY - 1
            family = _family(bc, rng, n, d, numeric, degenerate)
            if family in seen:
                continue
            seen.add(family)
            cases.append(_case(bc, workload, f"{n},{d}/{k}", family, degenerate))
        pool[(n, d)] = cases
    return pool


def dual_size(bc, case: Case) -> int:
    """Terms of the contraction dual generator: the input property that job
    time follows most closely within a size class."""
    return len(bc.dual_generator(case.family, bc.CONTRACTION).coeffs)


def _spread_order(cell: list[Case], rng: random.Random) -> list[Case]:
    """The cell's members, sorted by size, in a seeded golden-ratio order:
    whatever the number of draws, they spread evenly over the sizes."""
    free = list(cell)
    offset = rng.random()
    order = []
    for t in range(len(cell)):
        order.append(free.pop(int(len(free) * ((offset + t * 0.6180339887498949) % 1.0))))
    return order


def schedule(pool, workload: str, seed: int, sizes: dict[str, int]) -> list[Case]:
    """The run's job order: cycles of CYCLE rounds of one case per class,
    stopping at the first cycle that a class cannot fill.

    Each class has CYCLE cells: its pool sorted by the dual sizes recorded in
    reference.json and cut into equal size strata, and in `verify` the
    degenerate quarter of the pool as the last cell.  Round r draws class c
    from cell (r + c) % CYCLE, in the cell's seeded spread order.  So every
    cycle holds the same mix of sizes, and the seed only picks the members.
    """
    rng = random.Random(f"{workload}/schedule/{seed}")
    cells = {}
    for cls, cases in pool.items():
        by_size = sorted(cases, key=lambda c: (sizes[c.key], c.key))
        normal = [c for c in by_size if not c.degenerate]
        degenerate = [c for c in by_size if c.degenerate]
        count = CYCLE - (1 if degenerate else 0)
        width = len(normal) / count
        strata = [normal[round(j * width):round((j + 1) * width)] for j in range(count)]
        cells[cls] = [_spread_order(cell, rng) for cell in strata + ([degenerate] if degenerate else [])]
    order = []
    for draw in range(min(len(cell) for queues in cells.values() for cell in queues)):
        for r in range(CYCLE):
            for c, cls in enumerate(pool):
                order.append(cells[cls][(r + c) % CYCLE][draw])
    return order


def warmup_cases(bc, workload: str, seed: int, pool) -> list[Case]:
    """One separately seeded family per class, never equal to a pool member,
    so the oracle's row-space cache cannot carry answers into timed jobs."""
    taken = {c.family for cases in pool.values() for c in cases}
    numeric = workload != "structure"
    out = []
    for n, d in CLASSES[workload]:
        rng = random.Random(f"{workload}/warmup/{seed}/{n},{d}")
        while True:
            family = _family(bc, rng, n, d, numeric, False)
            if family not in taken:
                break
        out.append(_case(bc, workload, f"warmup/{n},{d}", family, False))
    return out


# ---------------------------------------------------------------------------
# Jobs: the timed unit of work.  Each returns the raw results.
# ---------------------------------------------------------------------------


def job_structure(bc, case: Case) -> dict:
    fam = case.family
    graph = bc.build_graph(fam, fam.resultant_degree)
    det = bc.det_structural(fam)
    radical = bc.resultant_radical(fam)
    duals = []
    for convention in (bc.CONTRACTION, bc.DIFFERENTIATION):
        F = bc.dual_generator(fam, convention)
        duals.append((F, bc.verify_annihilation(fam, F, convention)))
    reductions = []
    for m in case.monomials:
        outcome = bc.reduce_monomial(fam, m)
        cert = bc.certificate(fam, m)
        reductions.append((outcome, cert, bc.check_certificate(fam, cert)))
    return {"graph": graph, "det": det, "radical": radical, "duals": duals, "reductions": reductions}


def job_verify(bc, case: Case) -> dict:
    fam = case.family
    out = {"ci": bc.is_complete_intersection(fam), "radical": bc.resultant_radical(fam)}
    if not out["ci"]:
        return out
    out["basis"] = bc.basis_check(fam)
    out["members"] = [bc.ideal_membership(fam, m) for m in case.monomials]
    Fc = bc.dual_generator(fam, bc.CONTRACTION).evaluate()
    Fd = bc.dual_generator(fam, bc.DIFFERENTIATION).evaluate()
    out["annihilation"] = [
        bc.verify_annihilation(fam, Fc, bc.CONTRACTION).ok,
        bc.verify_annihilation(fam, Fd, bc.DIFFERENTIATION).ok,
    ]
    out["dims"] = bc.inverse_system_dims(Fc, fam.socle_degree)
    out["spans"] = bc.m_spans_ann_quotient(fam, Fc)
    out["slp"] = bc.slp_check(Fd, trials=SLP_TRIALS, rng=random.Random(case.seed))
    return out


def cli_commands(case: Case) -> list[list[str]]:
    fam = case.family
    top = fam.socle_degree
    text = case.text
    return [
        ["resultant", "--family", text, "--det", "--radical", "--probe", "--seed", str(case.seed), "--format", "json"],
        ["hilbert", "--family", text, "--max-degree", str(top + 1), "--spec", "--format", "json"],
        ["dual", "--family", text, "--verify", "--format", "json"],
        ["graph", "--family", text, "--degree", str(top), "--format", "json"],
        ["reduce", "--family", text, "--monomial", str(case.monomials[0]), "--certificate", "--format", "json"],
    ]


def job_cli(bc, case: Case) -> dict:
    outputs = []
    for argv in case.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bc.cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return {"outputs": outputs}


JOBS = {"structure": job_structure, "verify": job_verify, "cli-session": job_cli}


# ---------------------------------------------------------------------------
# Checks and canonical output.  These run outside the timed region.
# ---------------------------------------------------------------------------


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _radical_value(radical) -> Fraction:
    product = radical.product
    return Fraction(0) if product.is_zero() else product.constant_value()


def _radical_problem(radical, ci: bool) -> str | None:
    """With every t-entry certain, the radical's value vanishes exactly at
    the non-complete-intersection points."""
    if radical.all_certain and (_radical_value(radical) != 0) != ci:
        return f"radical value {_radical_value(radical)} disagrees with CI={ci}"
    return None


def _cert_payload(cert) -> list:
    return [
        cert.kind,
        str(cert.input),
        str(cert.a_product),
        [[s.gen_index, str(s.multiplier), str(s.scale)] for s in cert.steps],
        str(cert.rhs_coeff),
        str(cert.rhs_monomial),
    ]


def check_structure(bc, case: Case, r: dict) -> tuple[list[str], object]:
    problems = []
    for (F, ann), name in zip(r["duals"], ("contraction", "differentiation")):
        if not ann.ok:
            problems.append(f"annihilation fails under {name}")
    for outcome, cert, ok in r["reductions"]:
        if not ok:
            problems.append(f"certificate residual nonzero for {cert.input}")
    graph = r["graph"]
    payload = {
        "graph": [len(graph.vertices), [[str(c.vertices[0]), list(c.label_counts)] for c in graph.cycles]],
        "det": str(r["det"]),
        "radical": r["radical"].to_json(),
        "duals": [[list(F.s), str(F)] for F, _ in r["duals"]],
        "reductions": [
            [o.kind, list(o.path_labels), str(o.basis_monomial), str(o.coeff), str(o.cycle_entry), _cert_payload(c)]
            for o, c, _ in r["reductions"]
        ],
    }
    return problems, payload


def check_verify(bc, case: Case, r: dict) -> tuple[list[str], object]:
    fam = case.family
    problems = []
    ci = r["ci"]
    problem = _radical_problem(r["radical"], ci)
    if problem:
        problems.append(problem)
    payload = {"ci": ci, "radical": r["radical"].to_json()}
    if ci:
        if not r["basis"]:
            problems.append("basis_check fails")
        for m, member in zip(case.monomials, r["members"]):
            # Independent of the oracle: on a complete intersection with
            # nonzero b, m lies in the ideal exactly when its walk ends on a cycle.
            if member != (bc.reduce_monomial(fam, m).kind == bc.TO_CYCLE):
                problems.append(f"ideal_membership({m}) disagrees with the rewrite")
        if not all(r["annihilation"]):
            problems.append(f"annihilation fails: {r['annihilation']}")
        expected = bc.ci_reference(fam.degrees, fam.socle_degree)
        if tuple(r["dims"].values) != expected:
            problems.append(f"inverse_system_dims {r['dims'].values} != {expected}")
        if not r["spans"]:
            problems.append("m_spans_ann_quotient fails")
        payload.update(
            basis=r["basis"],
            members=r["members"],
            annihilation=r["annihilation"],
            dims=list(r["dims"].values),
            spans=r["spans"],
            slp=[v.to_json() for v in r["slp"]],
        )
    return problems, payload


_TERM = re.compile(r"^([ab])(\d+)(?:\^(\d+))?$")


def eval_poly_text(text: str, a_values, b_values) -> Fraction:
    """Evaluate a printed SparsePoly ("a1^2*b3 - 2*a2 + ...") at a point."""
    total = Fraction(0)
    for sign, body in re.findall(r"(^-|\s[+-]\s|^)([^\s]+)", text):
        term = Fraction(-1 if sign.strip() == "-" else 1)
        for factor in body.split("*"):
            match = _TERM.match(factor)
            if match is None:
                term *= Fraction(factor)
                continue
            block, index, power = match.groups()
            value = (a_values if block == "a" else b_values)[int(index) - 1]
            term *= value ** int(power or 1)
        total += term
    return total


def check_cli(bc, case: Case, r: dict) -> tuple[list[str], object]:
    fam = case.family
    problems = []
    if bc.parse_family(case.text) != fam:
        problems.append("parse_family(format_family(f)) != f")
    for argv, (code, _, err) in zip(case.argv, r["outputs"]):
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {err.strip()}")
    if problems:
        return problems, None
    resultant, hilbert, dual, _, reduce = (json.loads(out) for _, out, _ in r["outputs"])
    structural = eval_poly_text(resultant["determinant"], fam.a_values, fam.b_values)
    if structural != Fraction(resultant["determinant_value"]):
        problems.append("structural determinant disagrees with Bareiss")
    radical_certain = all(e["status"] == "certain" for e in resultant["radical"]["t"])
    radical_value = Fraction(resultant["radical"]["product"])
    if radical_certain and (radical_value != 0) != hilbert["matches_ci"]:
        problems.append("radical value disagrees with the Hilbert function")
    if not dual["annihilation"]:
        problems.append("dual --verify reports a failed annihilation")
    m = case.monomials[0]
    if not bc.check_certificate(fam, bc.certificate(fam, m)) or reduce["monomial"] != str(m):
        problems.append(f"certificate for {m} does not check")
    payload = [[code, out] for code, out, _ in r["outputs"]]
    return problems, payload


CHECKS = {"structure": check_structure, "verify": check_verify, "cli-session": check_cli}
