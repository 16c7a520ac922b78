import dataclasses
import math
import random
from fractions import Fraction

import pytest

from binomial_ci import (
    CoeffAssignment,
    CoeffMonomial,
    Monomial,
    SparsePoly,
    TO_BASIS,
    TO_CYCLE,
    build_graph,
    certificate,
    check_certificate,
    ideal_membership,
    is_complete_intersection,
    monomials_of_degree,
    parse_family,
    parse_monomial,
    reduce_monomial,
    reduce_polynomial,
    specialize,
)
from binomial_ci import rewrite
from binomial_ci.keys import _lane_bytes
from binomial_ci.graph import SINK, TRANSIENT
from binomial_ci.rewrite import certificate_residual, certificate_to_json, render_certificate
from binomial_ci.selftest import _tuple_walk

from conftest import assert_as_checked, family_strategy, random_family


class TestReduceMonomial:
    def test_chain_reduction_with_coefficient(self, chain):
        out = reduce_monomial(chain, parse_monomial("x1^2*x2", 3))
        assert out.kind == TO_BASIS
        assert out.basis_monomial == parse_monomial("x1*x2*x3", 3)
        assert out.coeff == CoeffMonomial(Fraction(1), (-2, -1, 0), (2, 1, 0))
        assert out.path_labels == (1, 2, 1)
        assert out.r_vector == (2, 1, 0)

    def test_cycle_detection(self, double_cycle):
        out = reduce_monomial(double_cycle, parse_monomial("x1*x2*x3^2", 3))
        assert out.kind == TO_CYCLE
        assert out.cycle_entry == parse_monomial("x1*x2*x3^2", 3)
        assert out.basis_monomial is None

    def test_sink_input_reduces_trivially(self, double_cycle):
        m = parse_monomial("x1*x2*x3", 3)
        out = reduce_monomial(double_cycle, m)
        assert out.kind == TO_BASIS
        assert out.basis_monomial == m
        assert out.path_labels == ()
        assert out.coeff == CoeffMonomial.one(3)

    def test_cutoff_stops_at_partial_basis(self, chain):
        # with labels <= 1 only, reduction stops once x1^2 no longer divides
        out = reduce_monomial(chain, parse_monomial("x1^3", 3), k=1)
        assert out.kind == TO_BASIS
        assert chain.in_basis(out.basis_monomial, 1)

    def test_invalid_cutoff(self, chain):
        with pytest.raises(ValueError):
            reduce_monomial(chain, parse_monomial("x1^2", 3), k=0)

    def test_outcome_matches_graph_classification(self):
        rng = random.Random(11)
        for _ in range(8):
            fam = random_family(rng, numeric=False)
            d = rng.randint(1, 4)
            g = build_graph(fam, d)
            for m in g.vertices:
                out = reduce_monomial(fam, m)
                walk_reaches_sink = out.kind == TO_BASIS
                cls = g.class_of(m)
                if cls == SINK:
                    assert walk_reaches_sink and out.basis_monomial == m
                elif cls == TRANSIENT:
                    # transient vertices may flow to a sink or to a cycle
                    assert (out.kind == TO_BASIS) == (
                        g.class_of(out.basis_monomial) == SINK
                        if out.basis_monomial is not None
                        else False
                    )
                else:
                    assert out.kind == TO_CYCLE

    def test_path_length_bounded_by_vertex_count(self):
        rng = random.Random(12)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            d = rng.randint(1, 5)
            bound = math.comb(d + fam.n - 1, fam.n - 1)
            for m in monomials_of_degree(fam.n, d):
                out = reduce_monomial(fam, m)
                assert len(out.path_labels) <= bound

    def test_coefficient_matches_recounted_path_statistics(self):
        rng = random.Random(13)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            for m in monomials_of_degree(fam.n, rng.randint(1, 4)):
                out = reduce_monomial(fam, m)
                if out.kind != TO_BASIS:
                    continue
                r = [0] * fam.n
                for lab in out.path_labels:
                    r[lab - 1] += 1
                assert out.r_vector == tuple(r)
                assert out.coeff == CoeffMonomial(
                    Fraction(1), tuple(-c for c in r), tuple(r)
                )


class TestReducePolynomial:
    def test_requires_numeric_family(self, double_cycle):
        with pytest.raises(ValueError):
            reduce_polynomial(double_cycle, {Monomial((2, 0, 0)): Fraction(1)})

    def test_unit_coefficients_chain(self, chain):
        numeric = specialize(
            chain, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=1)
        )
        result = reduce_polynomial(numeric, {parse_monomial("x1^2*x2", 3): Fraction(1)})
        assert result.terms == {parse_monomial("x1*x2*x3", 3): Fraction(1)}
        assert not result.used_conditional_zero

    def test_generators_reduce_to_zero(self):
        rng = random.Random(14)
        for _ in range(10):
            fam = random_family(rng)
            for i in range(1, fam.n + 1):
                result = reduce_polynomial(fam, fam.generator_values(i))
                assert result.terms == {}

    def test_cycle_monomial_maps_to_zero_with_flag(self, double_cycle):
        numeric = specialize(
            double_cycle, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=2)
        )
        m = parse_monomial("x2^2*x3^2", 3)
        result = reduce_polynomial(numeric, {m: Fraction(1)})
        assert result.terms == {}
        assert result.used_conditional_zero
        # the conditional zero is backed by actual ideal membership
        assert is_complete_intersection(numeric)
        assert ideal_membership(numeric, m)

    def test_zero_b_along_path_kills_coefficient(self, chain):
        numeric = specialize(
            chain, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=0, b2=1, b3=1)
        )
        result = reduce_polynomial(numeric, {parse_monomial("x1^2*x2", 3): Fraction(1)})
        assert result.terms == {}
        assert not result.used_conditional_zero

    def test_ring_homomorphism_on_ci_families(self):
        rng = random.Random(15)
        found = 0
        while found < 5:
            fam = random_family(rng, n_range=(2, 3), max_degree=2)
            if not is_complete_intersection(fam):
                continue
            found += 1
            mons1 = monomials_of_degree(fam.n, 1)
            p = {m: Fraction(rng.randint(-3, 3)) for m in mons1}
            q = {m: Fraction(rng.randint(-3, 3)) for m in mons1}

            def mul(u, v):
                out = {}
                for mu, cu in u.items():
                    for mv, cv in v.items():
                        key = mu * mv
                        out[key] = out.get(key, Fraction(0)) + cu * cv
                return out

            direct = reduce_polynomial(fam, mul(p, q)).terms
            nested = reduce_polynomial(
                fam, mul(reduce_polynomial(fam, p).terms, reduce_polynomial(fam, q).terms)
            ).terms
            assert direct == nested


class TestCertificates:
    def test_basis_certificate_structure(self, chain):
        m = parse_monomial("x1^2*x2", 3)
        cert = certificate(chain, m)
        assert cert.kind == TO_BASIS
        assert len(cert.steps) == 3
        assert cert.a_product == CoeffMonomial(Fraction(1), (2, 1, 0), (0, 0, 0))
        assert cert.rhs_coeff == CoeffMonomial(Fraction(1), (0, 0, 0), (2, 1, 0))
        assert cert.rhs_monomial == parse_monomial("x1*x2*x3", 3)
        assert check_certificate(chain, cert)

    def test_unchecked_step_scales_equal_checked_ones(self, ci_corpus):
        rng = random.Random(43)
        families = list(ci_corpus[:8]) + [random_family(rng, numeric=False) for _ in range(8)]
        steps = 0
        for fam in families:
            monomials = monomials_of_degree(fam.n, fam.resultant_degree)
            for m in rng.sample(monomials, k=min(4, len(monomials))):
                for k in (None, 1):
                    cert = certificate(fam, m, k)
                    for step in cert.steps:
                        assert_as_checked(step.scale)
                        steps += 1
                    assert certificate_residual(fam, cert) == {}
        assert steps > 100

    def test_sink_certificate_is_trivial(self, chain):
        m = parse_monomial("x1*x2*x3", 3)
        cert = certificate(chain, m)
        assert cert.steps == ()
        assert cert.rhs_monomial == m
        assert check_certificate(chain, cert)

    def test_on_cycle_certificate_gives_cycle_polynomial_relation(self, loop2):
        # an on-cycle vertex wraps the full loop: (a1a2 - b1b2)*m = h1*f1 + h2*f2
        m = Monomial((1, 2))
        cert = certificate(loop2, m)
        assert cert.kind == TO_CYCLE
        assert cert.rhs_monomial == m
        assert cert.a_product == CoeffMonomial(Fraction(1), (1, 1), (0, 0))
        assert cert.rhs_coeff == CoeffMonomial(Fraction(1), (0, 0), (1, 1))
        assert check_certificate(loop2, cert)

    def test_transient_to_cycle_certificate(self, double_cycle):
        cert = certificate(double_cycle, parse_monomial("x3^4", 3))
        assert cert.kind == TO_CYCLE
        assert check_certificate(double_cycle, cert)

    def test_residual_detects_corruption(self, chain):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        bad = type(cert)(
            cert.kind,
            cert.input,
            cert.a_product * CoeffMonomial(Fraction(2), (0, 0, 0), (0, 0, 0)),
            cert.steps,
            cert.rhs_coeff,
            cert.rhs_monomial,
        )
        assert not check_certificate(chain, bad)
        assert certificate_residual(chain, bad)

    def test_random_certificates_expand_to_zero(self):
        rng = random.Random(16)
        for _ in range(15):
            fam = random_family(rng, numeric=False)
            d = rng.randint(1, 4)
            for m in rng.sample(monomials_of_degree(fam.n, d), k=3):
                assert check_certificate(fam, certificate(fam, m))

    def test_json_and_text_rendering(self, chain):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        data = certificate_to_json(cert)
        assert data["input"] == "x1^2*x2"
        assert [s["i"] for s in data["steps"]] == [1, 2, 1]
        assert data["rhs"]["coeff"] == "b1^2*b2"
        text = render_certificate(cert)
        assert text.startswith("(a1^2*a2)*x1^2*x2 = ")
        assert "f1" in text and "f2" in text


class TestCutoffCertificates:
    def test_certificate_follows_the_cutoff_reduction(self, chain, double_cycle, loop2):
        rng = random.Random(17)
        families = [chain, double_cycle, loop2] + [random_family(rng, numeric=False) for _ in range(4)]
        cases = 0
        for fam in families:
            for d in range(1, 5):
                for m in monomials_of_degree(fam.n, d):
                    for k in range(1, fam.n + 1):
                        out = reduce_monomial(fam, m, k)
                        cert = certificate(fam, m, k)
                        assert cert.kind == out.kind
                        end = out.basis_monomial if out.kind == TO_BASIS else out.cycle_entry
                        assert cert.rhs_monomial == end
                        assert cert.rhs_coeff.b_exp == out.r_vector
                        assert [s.gen_index for s in cert.steps] == list(out.path_labels)
                        assert check_certificate(fam, cert)
                        cases += 1
        assert cases > 500

    def test_cli_example_stops_at_the_cutoff_basis(self, chain):
        m = parse_monomial("x1^3*x2", 3)
        cert = certificate(chain, m, 1)
        assert cert.kind == TO_BASIS
        assert cert.rhs_monomial == parse_monomial("x1*x2^3", 3)
        assert certificate(chain, m) == certificate(chain, m, chain.n)

    def test_invalid_cutoff(self, chain):
        with pytest.raises(ValueError):
            certificate(chain, parse_monomial("x1^2", 3), 0)


def _reference_residual(family, cert):
    """The certificate identity expanded with public SparsePoly arithmetic."""
    n = family.n
    acc = {}

    def put(mono, poly):
        acc[mono] = acc.get(mono, SparsePoly.zero(n)) + poly

    put(cert.input, cert.a_product.to_sparse())
    for step in cert.steps:
        i = step.gen_index
        scale = step.scale.to_sparse()
        put(step.multiplier * family.lead_monomial(i), scale * SparsePoly.symbol_a(n, i) * -1)
        put(step.multiplier * family.tails[i - 1], scale * SparsePoly.symbol_b(n, i))
    put(cert.rhs_monomial, cert.rhs_coeff.to_sparse() * -1)
    return {m: p for m, p in acc.items() if not p.is_zero()}


def _tampered(rng, cert, n):
    """Certificates with one step's scale, multiplier or generator index changed."""
    s = rng.randrange(len(cert.steps))
    step = cert.steps[s]
    x = Monomial.variable(n, rng.randint(1, n))
    other = rng.choice([i for i in range(1, n + 1) if i != step.gen_index])
    changes = [
        dataclasses.replace(step, scale=step.scale * CoeffMonomial(Fraction(2, 3), (0,) * n, (0,) * n)),
        dataclasses.replace(step, scale=step.scale * CoeffMonomial(Fraction(1), (1,) + (0,) * (n - 1), (0,) * n)),
        dataclasses.replace(step, multiplier=step.multiplier * x),
        dataclasses.replace(step, gen_index=other),
    ]
    for new in changes:
        steps = cert.steps[:s] + (new,) + cert.steps[s + 1 :]
        yield dataclasses.replace(cert, steps=steps)


class TestCertificateResidual:
    def test_tampered_certificates_match_the_reference_expansion(self):
        rng = random.Random(18)
        tampered = 0
        for _ in range(12):
            fam = random_family(rng, numeric=False)
            for m in rng.sample(monomials_of_degree(fam.n, rng.randint(2, 4)), k=3):
                for k in (None, 1):
                    cert = certificate(fam, m, k)
                    assert certificate_residual(fam, cert) == {}
                    if not cert.steps:
                        continue
                    for bad in _tampered(rng, cert, fam.n):
                        residual = certificate_residual(fam, bad)
                        assert residual == _reference_residual(fam, bad)
                        assert all(not p.is_zero() for p in residual.values())
                        assert residual
                        tampered += 1
        assert tampered > 50

    def test_exponents_past_one_byte_lanes_match_the_reference(self, chain):
        # x1^300 walks 897 steps with scale exponents up to 597: 2-byte lanes
        cert = certificate(chain, parse_monomial("x1^300", 3))
        assert max(max(s.scale.a_exp + s.scale.b_exp) for s in cert.steps) >= 128
        assert certificate_residual(chain, cert) == {} == _reference_residual(chain, cert)
        rng = random.Random(19)
        for bad in _tampered(rng, cert, 3):
            residual = certificate_residual(chain, bad)
            assert residual and residual == _reference_residual(chain, bad)

    @pytest.mark.parametrize("e", [127, 128, 200, 254, 255, 256, 70000])
    def test_large_tampered_scale_exponents_match_the_reference(self, chain, e):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        big = CoeffMonomial(Fraction(1), (e, 0, 0), (0, 0, e - 1))
        for s in range(len(cert.steps)):
            step = dataclasses.replace(cert.steps[s], scale=big)
            bad = dataclasses.replace(cert, steps=cert.steps[:s] + (step,) + cert.steps[s + 1 :])
            residual = certificate_residual(chain, bad)
            assert residual and residual == _reference_residual(chain, bad)
        bad = dataclasses.replace(cert, a_product=big, rhs_monomial=parse_monomial(f"x3^{e}", 3))
        assert certificate_residual(chain, bad) == _reference_residual(chain, bad)

    @pytest.mark.parametrize("e, nb", [(63, 1), (64, 2), (16383, 2), (16384, 4)])
    def test_lane_switch_points_match_the_reference(self, chain, e, nb):
        # the largest exponent is e, so the residual's lanes are _lane_bytes(e) wide
        assert _lane_bytes(e) == nb
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        big = CoeffMonomial(Fraction(1), (e, 0, 0), (0, 0, e - 1))
        for s in range(len(cert.steps)):
            step = dataclasses.replace(cert.steps[s], scale=big)
            bad = dataclasses.replace(cert, steps=cert.steps[:s] + (step,) + cert.steps[s + 1 :])
            residual = certificate_residual(chain, bad)
            assert residual and residual == _reference_residual(chain, bad)
        bad = dataclasses.replace(cert, a_product=big, rhs_monomial=parse_monomial(f"x3^{e}", 3))
        assert certificate_residual(chain, bad) == _reference_residual(chain, bad)

    def test_other_symbol_counts_raise(self, chain):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        two = CoeffMonomial(Fraction(1), (1, 0), (0, 1))
        step = dataclasses.replace(cert.steps[0], scale=two)
        for bad in (
            dataclasses.replace(cert, steps=(step,) + cert.steps[1:]),
            dataclasses.replace(cert, a_product=two),
            dataclasses.replace(cert, rhs_coeff=two),
        ):
            with pytest.raises(ValueError, match="symbol counts"):
                certificate_residual(chain, bad)

    def test_malformed_steps_raise(self, chain):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        for change in ({"gen_index": 0}, {"gen_index": 4}, {"multiplier": Monomial((1, 0))}):
            step = dataclasses.replace(cert.steps[0], **change)
            with pytest.raises(ValueError):
                certificate_residual(chain, dataclasses.replace(cert, steps=(step,) + cert.steps[1:]))

    def test_laurent_exponents_raise(self, chain):
        cert = certificate(chain, parse_monomial("x1^2*x2", 3))
        laurent = CoeffMonomial(Fraction(1), (-1, 0, 0), (0, 0, 0))
        step = dataclasses.replace(cert.steps[0], scale=laurent)
        with pytest.raises(ValueError, match="Laurent"):
            certificate_residual(chain, dataclasses.replace(cert, steps=(step,) + cert.steps[1:]))
        with pytest.raises(ValueError, match="Laurent"):
            certificate_residual(chain, dataclasses.replace(cert, rhs_coeff=laurent))


def test_walk_past_the_monomial_budget_raises(chain, monkeypatch):
    import binomial_ci.algebra as algebra

    m = parse_monomial("x1^40", 3)
    steps = len(reduce_monomial(chain, m).path_labels)
    monkeypatch.setattr(algebra, "MONOMIAL_BUDGET", steps - 1)
    with pytest.raises(ValueError, match="budget"):
        reduce_monomial(chain, m)
    with pytest.raises(ValueError, match="budget"):
        certificate(chain, m)
    monkeypatch.setattr(algebra, "MONOMIAL_BUDGET", steps)
    assert len(reduce_monomial(chain, m).path_labels) == steps


def test_packed_walk_matches_the_tuple_step_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # exponents up to 70 put some walks' keys in 2-byte lanes
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st), st.lists(st.integers(0, 70), min_size=4, max_size=4))
    def check(fam, exps):
        m = Monomial(tuple(exps[: fam.n]))
        for k in range(1, fam.n + 1):
            kind, labels, end = _tuple_walk(fam, m, k)
            out = reduce_monomial(fam, m, k)
            assert (out.kind, out.path_labels) == (kind, labels)
            assert (out.basis_monomial if kind == TO_BASIS else out.cycle_entry) == end
            cert = certificate(fam, m, k)
            assert certificate_residual(fam, cert) == {}
            # reversed, two or more steps no longer telescope and are summed term by term
            assert certificate_residual(fam, dataclasses.replace(cert, steps=cert.steps[::-1])) == {}

    check()


class TestStartWiderThanALane:
    """x3^(2^70) on a family whose walk from it is the 2-cycle x3 -> x2 -> x3:
    no 8-byte lane holds the start."""

    FAMILY = "f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2 - b2*x3 ; f3 = a3*x3 - b3*x2"

    def test_walk_answers_cycle(self):
        fam = parse_family(self.FAMILY)
        m = Monomial((0, 0, 2**70))
        out = reduce_monomial(fam, m)
        assert (out.kind, out.path_labels, out.r_vector) == (TO_CYCLE, (3, 2), (0, 1, 1))
        assert out.cycle_entry == m

    def test_certificate_text(self):
        fam = parse_family(self.FAMILY)
        e = 2**70
        cert = certificate(fam, Monomial((0, 0, e)))
        assert render_certificate(cert) == (
            f"(a2*a3)*x3^{e} = (a2)*x3^{e - 1}*f3 + (b3)*x3^{e - 1}*f2 + (b2*b3)*x3^{e}"
        )
        assert cert.kind == TO_CYCLE and cert.rhs_monomial == Monomial((0, 0, e))

    def test_check_of_a_stop_past_the_cutoff_holds(self):
        # x3 lies past cutoff 2, so the start is a basis stop and the certificate has no steps
        fam = parse_family(self.FAMILY)
        cert = certificate(fam, Monomial((0, 0, 2**70)), 2)
        assert cert.steps == () and cert.kind == TO_BASIS
        assert certificate_residual(fam, cert) == {}
        assert check_certificate(fam, certificate(fam, Monomial((0, 0, 2**70))))

    def test_tampered_wide_certificates_fail_as_at_narrow_lanes(self):
        # One multiplier exponent +1 leaves the reference residual; a bad
        # generator index or a negative exponent raises the message it
        # raises on a certificate whose lanes fit 8 bytes.
        fam = parse_family(self.FAMILY)
        wide, narrow = (certificate(fam, Monomial((0, 0, e))) for e in (2**70, 5))
        step = dataclasses.replace(wide.steps[0], multiplier=wide.steps[0].multiplier * Monomial((0, 1, 0)))
        bad = dataclasses.replace(wide, steps=(step,) + wide.steps[1:])
        residual = certificate_residual(fam, bad)
        assert residual and residual == _reference_residual(fam, bad)
        laurent = CoeffMonomial(Fraction(1), (-1, 0, 0), (0, 0, 0))
        for change in ({"gen_index": 4}, {"gen_index": 0}, {"scale": laurent}):
            messages = []
            for cert in (narrow, wide):
                bad = dataclasses.replace(cert, steps=(dataclasses.replace(cert.steps[0], **change),) + cert.steps[1:])
                with pytest.raises(ValueError) as raised:
                    certificate_residual(fam, bad)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]


class TestOneWalkPerRequest:
    @pytest.fixture
    def walks(self):
        """The number of walks taken since the fixture started: the misses of
        `rewrite._walk`'s cache, as every other call is a hit."""
        rewrite._walk.cache_clear()
        return lambda: rewrite._walk.cache_info().misses

    def test_reduce_then_certificate_walk_once(self, chain, double_cycle, walks):
        for fam, text, kind in ((chain, "x1^2*x2", TO_BASIS), (double_cycle, "x3^4", TO_CYCLE)):
            m = parse_monomial(text, 3)
            before = walks()
            out = reduce_monomial(fam, m)
            assert out.kind == kind
            assert walks() == before + 1
            cert = certificate(fam, m)
            assert certificate(fam, m, fam.n) == cert
            assert [s.gen_index for s in cert.steps] == list(out.path_labels)
            assert walks() == before + 1

    def test_another_monomial_or_cutoff_walks_again(self, chain, walks):
        m = parse_monomial("x1^3*x2", 3)
        reduce_monomial(chain, m)
        for other, k in ((m, 1), (m, 2), (parse_monomial("x1^2*x2^2", 3), None), (m, None)):
            before = walks()
            certificate(chain, other, k)
            assert walks() == before + 1
            reduce_monomial(chain, other, k)
            assert walks() == before + 1


def _outcome(family, cert):
    """certificate_residual's residual, or the type and message it raises."""
    try:
        return certificate_residual(family, cert)
    except ValueError as exc:
        return type(exc), str(exc)


def _explicit(cert):
    """The same certificate with its steps as a plain tuple."""
    return dataclasses.replace(cert, steps=tuple(cert.steps))


class TestCompactCertificates:
    """A certificate of `certificate` keeps its walk in its steps, and its
    check replays the labels."""

    def test_check_replays_without_expanding(self, chain, double_cycle, loop2, monkeypatch):
        cases = [(chain, "x1^2*x2"), (chain, "x1^300"), (double_cycle, "x3^4"), (loop2, "x1*x2^2"), (chain, "x1*x2*x3")]
        fam = parse_family(TestStartWiderThanALane.FAMILY)
        certs = [(f, certificate(f, parse_monomial(text, f.n))) for f, text in cases]
        certs.append((fam, certificate(fam, Monomial((0, 0, 2**70)))))

        def expand(*args):
            raise AssertionError("the expansion ran")

        monkeypatch.setattr(rewrite, "_lanes", expand)
        for f, cert in certs:
            assert type(cert.steps) is rewrite._WalkSteps
            assert check_certificate(f, cert) and certificate_residual(f, cert) == {}

    def test_steps_are_a_tuple(self, chain):
        cert = certificate(chain, parse_monomial("x1^3*x2", 3))
        twin = _explicit(cert)
        steps = twin.steps
        assert type(steps) is tuple and isinstance(cert.steps, tuple) and len(steps) == len(cert.steps) > 2
        assert cert == twin and twin == cert and hash(cert) == hash(twin)
        assert cert.steps == steps and hash(cert.steps) == hash(steps)
        assert repr(cert.steps) == repr(steps) and repr(cert) == repr(twin)
        assert cert.steps[1:3] == steps[1:3] and type(cert.steps[1:3]) is tuple
        assert type(cert.steps[:1] + (steps[0],)) is tuple
        assert dataclasses.asdict(cert) == dataclasses.asdict(twin)
        sink = certificate(chain, parse_monomial("x1*x2*x3", 3))
        assert sink.steps == () and not sink.steps

    def test_replaced_fields_get_the_explicit_residual(self, chain, double_cycle):
        for fam, text in ((chain, "x1^3*x2"), (double_cycle, "x3^4"), (double_cycle, "x1*x2*x3")):
            cert = certificate(fam, parse_monomial(text, 3))
            n = fam.n
            zero = (0,) * n
            twice = CoeffMonomial(Fraction(2), zero, zero)
            a1, b1 = CoeffMonomial(Fraction(1), (1,) + zero[1:], zero), CoeffMonomial(Fraction(1), zero, (1,) + zero[1:])
            changes = {
                "input": [cert.input * Monomial.variable(n, 1), Monomial(zero)],
                "a_product": [cert.a_product * twice, cert.a_product * a1, cert.a_product * b1],
                "rhs_coeff": [cert.rhs_coeff * twice, cert.rhs_coeff * a1, cert.rhs_coeff * b1],
                "rhs_monomial": [cert.rhs_monomial * Monomial.variable(n, 2), Monomial(zero)],
            }
            for name, values in changes.items():
                for value in values:
                    bad = dataclasses.replace(cert, **{name: value})
                    assert bad.steps is cert.steps
                    residual = certificate_residual(fam, bad)
                    assert residual and residual == certificate_residual(fam, _explicit(bad)) == _reference_residual(fam, bad)

    def test_a_walk_checked_against_another_family(self):
        # The same degrees, other tails, and the same label counts: x1^2*x2
        # walks the 2-cycle through x1*x2^2 under the first family and
        # through x2^3 under the second.  Its labels pass the second family's
        # guard tests and end on its rhs, but its multipliers are the first
        # family's, so against the second family the identity fails.
        first = parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2")
        second = parse_family("f1 = a1*x1^2 - b1*x2^2 ; f2 = a2*x2^2 - b2*x1^2")
        m = parse_monomial("x1^2*x2", 2)
        cert = certificate(first, m)
        assert cert.rhs_monomial == m == certificate(second, m).rhs_monomial
        assert [s.gen_index for s in cert.steps] == [s.gen_index for s in certificate(second, m).steps]
        residual = certificate_residual(second, cert)
        assert residual and residual == certificate_residual(second, _explicit(cert)) == _reference_residual(second, cert)
        assert certificate_residual(first, cert) == {}

    def test_labels_that_fail_a_guard_test_get_the_explicit_residual(self, double_cycle):
        # x2*x3^2 walks labels (3, 2); in the order (2, 3) the counts and the
        # end are the same, but x2^2 does not divide the start.  The steps
        # below keep the walk, with their generator indices swapped.
        cert = certificate(double_cycle, parse_monomial("x2*x3^2", 3))
        walk = cert.steps
        assert [s.gen_index for s in walk] == [3, 2]
        swapped = rewrite._WalkSteps(dataclasses.replace(step, gen_index=i) for i, step in zip((2, 3), walk))
        swapped.family, swapped.start, swapped.nb = double_cycle, walk.start, walk.nb
        bad = dataclasses.replace(cert, steps=swapped)
        residual = certificate_residual(double_cycle, bad)
        assert residual and residual == certificate_residual(double_cycle, _explicit(bad))


def test_packed_and_explicit_checks_agree_on_drawn_certificates_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        family_strategy(st),
        st.lists(st.integers(0, 9), min_size=4, max_size=4),
        st.integers(1, 4),
        st.data(),
    )
    def check(fam, exps, k, data):
        n = fam.n
        m = Monomial(tuple(exps[:n]))
        cert = certificate(fam, m, min(k, n))
        assert certificate_residual(fam, cert) == {}
        twin = _explicit(cert)
        assert certificate_residual(fam, twin) == {}
        assert cert == twin and hash(cert) == hash(twin)
        a, b = sorted(data.draw(st.lists(st.integers(0, len(twin.steps)), min_size=2, max_size=2)))
        assert type(cert.steps[a:b]) is tuple and cert.steps[a:b] == twin.steps[a:b]
        other = data.draw(family_strategy(st).filter(lambda f: f.n == n))
        assert _outcome(other, certificate(fam, m, min(k, n))) == _outcome(other, twin)
        i = data.draw(st.integers(1, n))
        x, one, zero = Monomial.variable(n, i), Fraction(1), (0,) * n
        unit = CoeffMonomial(one, Monomial.variable(n, i).exponents, zero)
        for name, value in (
            ("input", cert.input * x),
            ("a_product", cert.a_product * unit),
            ("a_product", CoeffMonomial(Fraction(data.draw(st.integers(2, 5))), cert.a_product.a_exp, zero)),
            ("rhs_coeff", cert.rhs_coeff * unit),
            ("rhs_monomial", cert.rhs_monomial * x),
        ):
            bad = dataclasses.replace(cert, **{name: value})
            residual = certificate_residual(fam, bad)
            assert residual and residual == certificate_residual(fam, _explicit(bad))

    check()
