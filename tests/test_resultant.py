import itertools
import math
import random
from fractions import Fraction

import pytest

from binomial_ci import (
    BinomialFamily,
    CoeffAssignment,
    Monomial,
    SparsePoly,
    build_graph,
    det_numeric_oracle,
    det_structural,
    graph_cycle_polynomial,
    is_complete_intersection,
    matrix_to_json,
    matrix_to_text,
    monomials_of_degree,
    parse_family,
    poly_divides,
    radical_of_cycle_product,
    resultant_radical,
    specialize,
)
from binomial_ci.linalg import det_sparse, to_int_row
from binomial_ci.resultant import BOUNDED, CERTAIN, PROBABILISTIC, det_structural_parts

from conftest import random_family, random_nonzero


def sym(n, name):
    block, i = name[0], int(name[1:])
    return SparsePoly.symbol_a(n, i) if block == "a" else SparsePoly.symbol_b(n, i)


def sym_binomial(n, i, j):
    return sym(n, f"a{i}") * sym(n, f"a{j}") - sym(n, f"b{i}") * sym(n, f"b{j}")


class TestCMatrix:
    """The coefficient matrix C is the resultant-degree graph: its JSON and
    text dumps, and the numeric rows that det_numeric_oracle eliminates."""

    def test_double_cycle_matrix_shape(self, double_cycle):
        matrix = matrix_to_json(double_cycle)
        assert matrix["size"] == len(matrix["rows"]) == 15
        assert matrix["degree"] == 4
        labels = [row["i"] for row in matrix["rows"]]
        # S_1 holds the monomials divisible by x1^2: 6 of degree 4
        assert labels.count(1) == 6
        assert labels.count(2) == 5
        assert labels.count(3) == 4

    def test_two_variable_partition(self, loop2):
        matrix = matrix_to_json(loop2)
        assert matrix["size"] == 4
        assert [row["monomial"] for row in matrix["rows"]] == ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]
        assert [row["i"] for row in matrix["rows"]] == [1, 1, 2, 2]

    def test_almost_binomial_shape(self):
        rng = random.Random(41)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            graph = build_graph(fam, fam.resultant_degree)
            rows = matrix_to_json(fam)["rows"]
            cells = [line.split() for line in matrix_to_text(fam).splitlines()[1:]]
            assert len(rows) == len(cells) == len(graph.vertices)
            for r, (row, row_cells) in enumerate(zip(rows, cells)):
                i, succ = graph.labels[r], graph.succ[r]
                # each row: one a_i on the diagonal, one -b_i elsewhere
                assert succ is not None and succ != r
                assert row_cells[r] == f"a{i}" and row_cells[succ] == f"-b{i}"
                assert sum(v != "0" for v in row_cells) == 2
                assert row == {"monomial": str(graph.vertices[r]), "i": i, "successor": str(graph.vertices[succ])}
                # row label matches the block of the row monomial
                assert fam.step(graph.vertices[r]) == (i, graph.vertices[succ])
            a_per_column = [sum(row[c].startswith("a") for row in cells) for c in range(len(cells))]
            assert all(c == 1 for c in a_per_column)

    def test_numeric_rows_hold_a_on_the_diagonal_and_minus_b_on_the_successor(self, loop2, monkeypatch):
        import binomial_ci.resultant as resultant

        real_core = resultant._det_int
        seen = []

        def capturing_core(rows, size):
            seen.append((rows, size))
            return real_core(rows, size)

        monkeypatch.setattr(resultant, "_det_int", capturing_core)
        numeric = specialize(loop2, CoeffAssignment((2, Fraction(1, 3)), (5, 7)))
        value = det_numeric_oracle(numeric)
        [(rows, size)] = seen
        assert size == 4
        # label 1 (a, b) = (2, 5) and label 2 (1/3, 7), scaled once per label
        assert [list(row.items()) for row in rows] == [
            [(0, 2), (1, -5)],
            [(1, 2), (2, -5)],
            [(2, 1), (1, -21)],
            [(3, 1), (2, -21)],
        ]
        assert all(type(v) is int for row in rows for v in row.values())
        fraction_rows = [
            {0: Fraction(2), 1: Fraction(-5)},
            {1: Fraction(2), 2: Fraction(-5)},
            {2: Fraction(1, 3), 1: Fraction(-7)},
            {3: Fraction(1, 3), 2: Fraction(-7)},
        ]
        assert [list(row.items()) for row in rows] == [list(to_int_row(row).items()) for row in fraction_rows]
        assert value == det_sparse(fraction_rows, 4)
        assert value == det_structural(loop2).evaluate([2, Fraction(1, 3)], [5, 7])

    def test_numeric_oracle_equals_sympy_bareiss(self):
        # An outside check: sympy's own Bareiss elimination of the same matrix,
        # built from matrix_to_json's rows, shares no code with RowSpace.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        families = []
        while len(families) < 20:
            fam = random_family(rng)
            if matrix_to_json(fam)["size"] <= 40:
                families.append(fam)
        values = [v for fam in families for v in (*fam.a_values, *fam.b_values)]
        assert 0 in values and min(values) < 0
        assert any(len({v.denominator for v in (*fam.a_values, *fam.b_values)}) > 1 for fam in families)
        nonzero = 0
        for fam in families:
            matrix = matrix_to_json(fam)
            column = {row["monomial"]: c for c, row in enumerate(matrix["rows"])}
            m = sympy.zeros(matrix["size"], matrix["size"])
            for r, row in enumerate(matrix["rows"]):
                a, b = fam.a_values[row["i"] - 1], fam.b_values[row["i"] - 1]
                m[r, r] = sympy.Rational(a.numerator, a.denominator)
                m[r, column[row["successor"]]] = -sympy.Rational(b.numerator, b.denominator)
            det = m.det(method="bareiss")
            assert det_numeric_oracle(fam) == Fraction(int(det.p), int(det.q))
            nonzero += det != 0
        assert nonzero

    def test_text_matches_the_grid_rendering(self):
        # The reference sizes every column over the whole V x V grid of cells;
        # families with ten or more variables mix one- and two-digit labels.
        def grid_text(fam):
            graph = build_graph(fam, fam.resultant_degree)
            table = [[str(m) for m in graph.vertices]]
            for r, (i, succ) in enumerate(zip(graph.labels, graph.succ)):
                row = ["0"] * len(graph.vertices)
                row[r], row[succ] = f"a{i}", f"-b{i}"
                table.append(row)
            widths = [max(len(row[c]) for row in table) for c in range(len(graph.vertices))]
            return "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in table)

        rng = random.Random(43)
        families = [random_family(rng, numeric=numeric) for numeric in (False, True) * 6]
        for n in (10, 11, 12):
            degrees = [1] * n
            for i in rng.sample(range(n), 2):
                degrees[i] = 2
            tails = [rng.choice([m for m in monomials_of_degree(n, d) if m.exponents[i] != d]) for i, d in enumerate(degrees)]
            families.append(BinomialFamily.symbolic(degrees, tails))
        for fam in families:
            assert matrix_to_text(fam) == grid_text(fam)

    def test_text_and_json_dumps(self, loop2):
        lines = matrix_to_text(loop2).splitlines()
        assert lines[0].split() == ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]
        assert lines[1].split() == ["a1", "-b1", "0", "0"]
        data = matrix_to_json(loop2)
        assert data["rows"][0] == {"monomial": "x1^3", "i": 1, "successor": "x1^2*x2"}


class TestDetStructural:
    def test_double_cycle_value(self, double_cycle):
        expected = SparsePoly.monomial(3, (6, 3, 2), (0, 0, 0)) * sym_binomial(3, 2, 3) ** 2
        assert det_structural(double_cycle) == expected

    def test_two_variable_value(self, loop2):
        expected = sym(2, "a1") * sym(2, "a2") * sym_binomial(2, 1, 2)
        assert det_structural(loop2) == expected

    def test_b_zero_gives_pure_a_monomial_of_matrix_size(self):
        rng = random.Random(42)
        for _ in range(6):
            fam = random_family(rng, numeric=False)
            zeroed = specialize(
                fam, CoeffAssignment((None,) * fam.n, (Fraction(0),) * fam.n)
            )
            det_sym = det_structural(fam)
            b_zero = det_sym.substitute([None] * fam.n, [Fraction(0)] * fam.n)
            assert b_zero == det_structural(zeroed).substitute(
                zeroed.a_values, zeroed.b_values
            )
            assert len(b_zero.terms) == 1
            key, coeff = next(iter(b_zero.terms.items()))
            assert coeff == 1
            assert sum(key) == matrix_to_json(fam)["size"]
            assert all(e == 0 for e in key[fam.n :])

    def test_matches_numeric_oracle_at_random_points(self):
        rng = random.Random(43)
        for _ in range(6):
            fam = random_family(rng, numeric=False)
            det = det_structural(fam)
            for _ in range(4):
                a = [random_nonzero(rng) for _ in range(fam.n)]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(fam.n)]
                numeric = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
                assert det_numeric_oracle(numeric) == det.evaluate(a, b)

    def test_matches_numeric_oracle_on_larger_cubic_families(self):
        # n = 4 and 5 with every d_i = 3: matrices of size 220 and 1365.
        rng = random.Random(45)
        for n in (4, 4, 5, 5):
            tails = []
            for i in range(1, n + 1):
                lead = Monomial.variable(n, i, 3)
                tails.append(rng.choice([m for m in monomials_of_degree(n, 3) if m != lead]))
            fam = BinomialFamily.symbolic([3] * n, tails)
            det = det_structural(fam)
            points = [([Fraction(1)] * n, [Fraction(1)] * n)]
            for _ in range(3):
                a = [random_nonzero(rng) for _ in range(n)]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                points.append((a, b))
            for a, b in points:
                numeric = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
                assert det_numeric_oracle(numeric) == det.evaluate(a, b)

    def test_a_divides_det_iff_off_cycle_edge(self):
        rng = random.Random(44)
        for _ in range(8):
            fam = random_family(rng, numeric=False)
            det = det_structural(fam)
            graph = build_graph(fam, fam.resultant_degree)
            off_cycle = {
                lab
                for lab, cls in zip(graph.labels, graph.vertex_class)
                if cls != "cyclic"
            }
            for i in range(1, fam.n + 1):
                divides = poly_divides(sym(fam.n, f"a{i}"), det)
                assert divides == (i in off_cycle)
                # cross-check by substituting a_i := 0 into the determinant
                a_vals: list = [None] * fam.n
                a_vals[i - 1] = Fraction(0)
                at_zero = det.substitute(a_vals, [None] * fam.n)
                assert at_zero.is_zero() == divides


class TestRadicalOfCycleProduct:
    def test_double_cycle_dedup(self, double_cycle):
        factors = radical_of_cycle_product(build_graph(double_cycle, 4))
        assert factors == [sym_binomial(3, 2, 3)]

    def test_acyclic_graph_has_no_factors(self, chain):
        assert radical_of_cycle_product(build_graph(chain, 3)) == []

    def test_product_of_factors_divides_cycle_polynomial_power(self):
        rng = random.Random(45)
        for _ in range(8):
            fam = random_family(rng, numeric=False)
            graph = build_graph(fam, fam.resultant_degree)
            p = graph_cycle_polynomial(graph)
            for f in radical_of_cycle_product(graph):
                assert poly_divides(f, p)

    def test_resultant_degree_cycles_are_primitive(self):
        # The lemma in radical_of_cycle_product: every cycle's label counts
        # have gcd 1, so a^r - b^r is the whole factor.  Every tail choice.
        for degrees in [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 6), (2, 2, 2), (2, 2, 3), (3, 3, 3)]:
            n = len(degrees)
            choices = [
                [m for m in monomials_of_degree(n, d) if m != Monomial.variable(n, i + 1, d)]
                for i, d in enumerate(degrees)
            ]
            for tails in itertools.product(*choices):
                fam = BinomialFamily.symbolic(list(degrees), list(tails))
                graph = build_graph.__wrapped__(fam, fam.resultant_degree)
                for cycle in graph.cycles:
                    assert math.gcd(*cycle.label_counts) == 1, (degrees, tails, cycle)

    def test_radical_equals_the_determinants_distinct_factors(self, ci_corpus):
        rng = random.Random(46)
        families = list(ci_corpus) + [random_family(rng, numeric=False) for _ in range(15)]
        for fam in families:
            graph = build_graph(fam, fam.resultant_degree)
            radical = radical_of_cycle_product(graph)
            _, det_factors = det_structural_parts(fam)
            assert len(set(radical)) == len(radical)
            assert set(radical) == {poly for poly, _ in det_factors}


class TestResultantRadical:
    def test_double_cycle_all_certain(self, double_cycle):
        result = resultant_radical(double_cycle)
        expected = sym(3, "a1") * sym(3, "a2") * sym(3, "a3") * sym_binomial(3, 2, 3)
        assert result.product == expected
        assert result.all_certain
        assert [e.value for e in result.t] == [1, 1, 1]

    def test_pentagon_radical_at_unit_a(self, pentagon):
        result = resultant_radical(pentagon)
        b_product = SparsePoly.one(5)
        for i in range(1, 6):
            b_product = b_product * sym(5, f"b{i}")
        assert result.product == SparsePoly.one(5) - b_product
        assert result.all_certain

    def test_b_zero_radical_is_product_of_a_symbols(self, double_cycle):
        zeroed = specialize(
            double_cycle, CoeffAssignment((None,) * 3, (Fraction(0),) * 3)
        )
        result = resultant_radical(zeroed)
        assert result.product == sym(3, "a1") * sym(3, "a2") * sym(3, "a3")

    def test_pure_power_tail_without_probe_is_bounded(self, chain):
        # the third tail x1^2 is a pure power of x1 and some 1-edge is off-cycle
        result = resultant_radical(chain, probe=False)
        statuses = {e.index: e.status for e in result.t}
        assert statuses[2] == CERTAIN and statuses[3] == CERTAIN
        assert statuses[1] in (CERTAIN, BOUNDED)

    def test_probe_settles_the_chain_family(self, chain):
        result = resultant_radical(chain, probe=True, rng=random.Random(9))
        t1 = result.t[0]
        # every 1-labeled edge at the resultant degree lies on a cycle or the
        # probe certifies a CI with a1 = 0; either way the answer is grounded
        assert t1.status in (CERTAIN, PROBABILISTIC)
        if t1.status == CERTAIN and t1.value == 0:
            factored = result.product
            assert not poly_divides(sym(3, "a1"), factored)

    def test_numeric_family_evaluates_to_scalar(self, double_cycle):
        good = specialize(
            double_cycle, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=2)
        )
        bad = specialize(
            double_cycle, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=1)
        )
        assert resultant_radical(good).product.constant_value() != 0
        assert resultant_radical(bad).product.is_zero()

    def test_zero_set_agreement_random_points(self, double_cycle):
        rng = random.Random(46)
        agree = 0
        while agree < 15:
            a = [random_nonzero(rng) for _ in range(3)]
            b = [random_nonzero(rng) for _ in range(3)]
            numeric = specialize(double_cycle, CoeffAssignment(tuple(a), tuple(b)))
            value = resultant_radical(numeric).product
            assert value.is_constant()
            assert (value.constant_value() != 0) == is_complete_intersection(numeric)
            agree += 1

    def test_json_dump(self, double_cycle):
        data = resultant_radical(double_cycle).to_json()
        assert data["factors"] == ["a2*a3 - b2*b3"]
        assert all(entry["status"] == "certain" for entry in data["t"])


def pure_power_family(rng):
    """A symbolic family in which each tail is, with probability 1/2, a pure
    power of another variable."""
    n = rng.randint(3, 4)
    degrees = [rng.randint(2, 3) for _ in range(n)]
    tails = []
    for i in range(n):
        if rng.random() < 0.5:
            j = rng.choice([j for j in range(n) if j != i])
            tails.append(Monomial.variable(n, j + 1, degrees[i]))
        else:
            lead = Monomial.variable(n, i + 1, degrees[i])
            tails.append(rng.choice([m for m in monomials_of_degree(n, degrees[i]) if m != lead]))
    return BinomialFamily.symbolic(degrees, tails)


def full_hilbert_function(n, generators, max_degree):
    """h_j for j <= max_degree from Macaulay rows built monomial by monomial."""
    from binomial_ci.linalg import rank_of

    values = []
    for j in range(max_degree + 1):
        columns = {m: c for c, m in enumerate(monomials_of_degree(n, j))}
        rows = []
        for gen in generators:
            support = [m for m, c in gen.items() if c]
            if not support or support[0].degree > j:
                continue
            for beta in monomials_of_degree(n, j - support[0].degree):
                rows.append({columns[beta * m]: gen[m] for m in support})
        values.append(len(columns) - rank_of(rows))
    return tuple(values)


def reference_probe(family, seed, trials=5):
    """The probe's statuses, with the full Hilbert function through D+1 as the
    CI test.  Draws follow the probe: per bounded index in order, per trial,
    the unfixed a-values and then the unfixed b-values."""
    from binomial_ci import ci_reference

    def draw():
        num = 0
        while num == 0:
            num = rng.randint(-1000, 1000)
        return Fraction(num, rng.randint(1, 1000))

    rng = random.Random(seed)
    n, top = family.n, family.socle_degree + 1
    statuses = {}
    for entry in resultant_radical(family).t:
        if entry.status != BOUNDED:
            statuses[entry.index] = (entry.status, entry.value)
            continue
        statuses[entry.index] = (PROBABILISTIC, 1)
        for _ in range(trials):
            a = [v if v is not None else draw() for v in family.a_values]
            b = [v if v is not None else draw() for v in family.b_values]
            a[entry.index - 1] = Fraction(0)
            generators = [
                {family.lead_monomial(k): a[k - 1], family.tails[k - 1]: -b[k - 1]}
                for k in range(1, n + 1)
            ]
            if full_hilbert_function(n, generators, top) == ci_reference(family.degrees, top):
                statuses[entry.index] = (CERTAIN, 0)
                break
    return statuses


def test_probe_statuses_match_the_full_hilbert_function_reference():
    rng = random.Random(2024)
    seen = set()
    for seed in range(12):
        family = pure_power_family(rng)
        result = resultant_radical(family, probe=True, rng=random.Random(seed))
        got = {e.index: (e.status, e.value) for e in result.t}
        assert got == reference_probe(family, seed)
        seen.update(got.values())
    assert {(CERTAIN, 0), (PROBABILISTIC, 1)} <= seen


def probe_by_rows(family, i, rng, trials=5):
    """The probe before the Macaulay kernel: five trials whatever the family,
    each an exact RowSpace rank of the degree-(D+1) Macaulay rows."""
    from binomial_ci.linalg import RowSpace
    from binomial_ci.reference import macaulay_rows
    from binomial_ci.resultant import TEntry, _random_nonzero

    n, top = family.n, family.socle_degree + 1
    for _ in range(trials):
        a = [v if v is not None else _random_nonzero(rng) for v in family.a_values]
        b = [v if v is not None else _random_nonzero(rng) for v in family.b_values]
        a[i - 1] = Fraction(0)
        generators = [
            {family.lead_monomial(k): a[k - 1], family.tails[k - 1]: -b[k - 1]} for k in range(1, n + 1)
        ]
        space = RowSpace()
        for row in macaulay_rows(n, generators, top):
            space.add(row)
        if space.rank == math.comb(top + n - 1, n - 1):
            return TEntry(i, 0, CERTAIN)
    return TEntry(i, 1, PROBABILISTIC)


def test_probe_builds_one_kernel_on_a_numeric_family_and_keeps_the_cli_output(monkeypatch, capsys):
    import binomial_ci.resultant as resultant
    from binomial_ci import catalog, format_family
    from binomial_ci.cli import main

    rng = random.Random(139)
    symbolic = [
        catalog.three_var_chain(),
        catalog.three_var_double_cycle(),
        catalog.two_var_loop(),
        catalog.five_var_pentagon(),
    ]
    symbolic += [pure_power_family(rng) for _ in range(6)]
    families = list(symbolic)
    for fam in symbolic[:1] + symbolic[4:]:
        for _ in range(3):
            values = [random_nonzero(rng) for _ in range(2 * fam.n)]
            families.append(specialize(fam, CoeffAssignment(tuple(values[: fam.n]), tuple(values[fam.n :]))))
    families.append(specialize(symbolic[0], CoeffAssignment((None,) * 3, (1, 1, 1))))  # mixed

    real_kernel, real_probe = resultant.macaulay_kernel, resultant._probe_t_index
    builds = []
    probes = []  # (numeric, kernel builds, status)

    def counting_kernel(*args):
        builds.append(args)
        return real_kernel(*args)

    def counting_probe(family, i, rng, trials=5):
        builds.clear()
        entry = real_probe(family, i, rng, trials)
        probes.append((family.is_numeric, len(builds), entry.status))
        return entry

    def cli_json(family, seed):
        argv = ["resultant", "--family", format_family(family), "--radical", "--probe", "--seed", str(seed), "--format", "json"]
        assert main(argv) == 0
        return capsys.readouterr().out

    for seed, family in enumerate(families):
        with monkeypatch.context() as patch:
            patch.setattr(resultant, "macaulay_kernel", counting_kernel)
            patch.setattr(resultant, "_probe_t_index", counting_probe)
            got = cli_json(family, seed)
        with monkeypatch.context() as patch:
            patch.setattr(resultant, "_probe_t_index", probe_by_rows)
            assert got == cli_json(family, seed)
    for numeric, count, status in probes:
        if numeric:
            assert count == 1
        else:
            assert 1 <= count <= 5 and (count == 5 or status == CERTAIN)
    seen = {(numeric, status) for numeric, _, status in probes}
    assert seen == {(n, s) for n in (True, False) for s in (CERTAIN, PROBABILISTIC)}
