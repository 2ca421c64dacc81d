import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlt import bandset, ltsums, operators, schatten
from bandlt.errors import PreconditionError, ValidationError

from conftest import c1_quadrature, dense


class TestSchattenNorm:
    def test_frobenius(self):
        assert schatten.schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_large_p_approaches_max(self):
        got = schatten.schatten_norm(np.diag([3.0, 4.0]), 64)
        assert abs(got - 4.0) / 4.0 < 0.01

    def test_unitary_invariance(self, rng):
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        for p in (1.0, 2.0, 3.7):
            assert schatten.schatten_norm(q @ m @ q.conj().T, p) == pytest.approx(
                schatten.schatten_norm(m, p), rel=1e-10
            )

    def test_nonincreasing_in_p(self, rng):
        m = rng.standard_normal((10, 10))
        ps = [1.0, 1.5, 2.0, 3.0, 6.0, 20.0]
        vals = [schatten.schatten_norm(m, p) for p in ps]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_matrix(self):
        assert schatten.schatten_norm(np.zeros((3, 3)), 2.5) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            schatten.schatten_norm(np.eye(2), 0.5)


class TestLpNorm:
    def test_constant(self):
        assert schatten.lp_norm(np.full(10, 2.0), 0.1, 2) == pytest.approx(2.0)

    def test_zeros(self):
        assert schatten.lp_norm(np.zeros(5), 0.1, 3) == 0.0

    @given(alpha_re=st.floats(-5, 5), alpha_im=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, alpha_re, alpha_im):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        alpha = alpha_re + 1j * alpha_im
        assert schatten.lp_norm(alpha * v, 0.2, 2.5) == pytest.approx(
            abs(alpha) * schatten.lp_norm(v, 0.2, 2.5), abs=1e-12
        )


class TestC1:
    def test_p2_closed_value(self):
        assert schatten.c1_constant(2.0) == pytest.approx(math.sqrt(2) / 2, abs=1e-10)

    def test_p1_closed_value(self):
        # int dx/(1+x^2) = pi, so the constant collapses to sqrt(2)/2 again
        assert schatten.c1_constant(1.0) == pytest.approx(math.sqrt(2) / 2, abs=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.5])
    def test_quadrature_matches_gamma(self, p):
        assert abs(c1_quadrature(p) - schatten.c1_constant(p)) < 1e-10

    def test_agreement_across_range(self):
        for p in np.linspace(1.1, 10.0, 28):
            assert abs(c1_quadrature(float(p)) - schatten.c1_constant(float(p))) < 1e-10

    @pytest.mark.parametrize("p, rel", [(1e6, 1e-4), (1e300, 1e-15)])
    def test_large_exponent_tends_to_sqrt2(self, p, rel):
        # C1(p)^p = Gamma(p-1/2) 2^(p/2) / (2 sqrt(pi) Gamma(p)), so
        # C1(p) / sqrt(2) = 1 - O(log(p) / p)
        got = schatten.c1_constant(p)
        assert math.isfinite(got)
        assert got <= math.sqrt(2) and got == pytest.approx(math.sqrt(2), rel=rel)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(PreconditionError):
            schatten.c1_constant(0.4)


class TestNormBundle:
    def test_construction(self):
        nb = schatten.norm_bundle(2.0, np.full(10, 1.0), 0.1, v0_inf=0.5)
        assert nb.v_p == pytest.approx(1.0)
        assert nb.c1 == pytest.approx(math.sqrt(2) / 2)

    def test_bad_exponent(self):
        with pytest.raises(ValidationError):
            schatten.NormBundle(p=1.0, v_p=0.0, v0_inf=0.0)


def bundle(p=2.0, v_p=1.0, v0_inf=0.0):
    return schatten.NormBundle(p=p, v_p=v_p, v0_inf=v0_inf)


class TestBoundW:
    def test_unit_example(self):
        assert schatten.bound_w(-1.0, bundle(), a1=0.0) == pytest.approx(
            math.sqrt(2) / 2
        )

    def test_zero_potential(self):
        assert schatten.bound_w(-1.0, bundle(v_p=0.0), a1=0.0) == 0.0

    def test_monotone_along_negative_axis(self):
        nb = bundle(v0_inf=1.0)
        vals = [schatten.bound_w(-t, nb, a1=0.5) for t in (1, 2, 5, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_requires_negative_real_part(self):
        with pytest.raises(PreconditionError):
            schatten.bound_w(0.5 - 1j, bundle(), a1=0.0)


class TestResolventDiffBound:
    def test_frozen_value(self):
        nb = bundle()
        got = schatten.resolvent_diff_bound(-10.0, 0.0, nb, a1=0.0)
        assert got == pytest.approx(0.5 / 10**3.5, rel=1e-12)
        assert got == pytest.approx(1.5811388300841895e-4, rel=1e-10)
        assert got == pytest.approx(schatten.bound_w(-10.0, nb, a1=0.0) ** 2 * 10.0**-2)

    def test_vanishes_far_left(self):
        nb = bundle(v0_inf=2.0)
        near = schatten.resolvent_diff_bound(-5.0, -1.0, nb, a1=1.0)
        far = schatten.resolvent_diff_bound(-5000.0, -1.0, nb, a1=1.0)
        assert far < near * 1e-6

    def test_zero_potential(self):
        assert schatten.resolvent_diff_bound(-2.0, 0.0, bundle(v_p=0.0), a1=0.0) == 0.0

    def test_order_precondition(self):
        with pytest.raises(PreconditionError):
            schatten.resolvent_diff_bound(-1.0, -2.0, bundle(), a1=0.0)


class TestOmegaPrime:
    def test_exact_exponent_arithmetic(self):
        # (4 C1(2))^(4/3) = (2 sqrt 2)^(4/3) = 4 exactly
        assert schatten.omega_prime(bundle(v_p=0.0), a1=0.0) == pytest.approx(
            -10.0, abs=1e-9
        )

    def test_monotone_in_potential_norm(self):
        vals = [schatten.omega_prime(bundle(v_p=v), a1=0.0) for v in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_edge_contributes_linearly(self):
        base = schatten.omega_prime(bundle(), a1=0.0)
        assert schatten.omega_prime(bundle(), a1=2.0) == pytest.approx(base - 2.0)

    def test_small_p_rejected(self):
        with pytest.raises(PreconditionError):
            schatten.omega_prime(bundle(p=1.5), a1=0.0)


class TestWSmallness:
    """|W(omega)|_Sp for W = V R(omega, H0), as the T1 chain reports it."""

    @staticmethod
    def chain(v0, v, length, p, v0_inf, omega):
        n = np.asarray(v).size
        h0 = operators.discretize(v0, 0.0, length, n)
        h = operators.discretize(v0, v, length, n)
        report = operators.spectrum_report(h, bandset.validate([(0.0, 1.0)], ray_start=2.0))
        nb = schatten.norm_bundle(p, v, h.spacing, v0_inf=v0_inf)
        return h0, ltsums.theorem1_chain(h0, h, report, nb, omega=omega)

    def test_zero_potential(self):
        _, chain = self.chain(0.0, np.zeros(40), 10.0, 2.0, 0.0, -1.0)
        assert chain.link3_w_norm == 0.0

    def test_norm_ordering_random(self, rng):
        # the operator norm of W never exceeds its Schatten norm
        n = 30
        v0 = rng.uniform(0, 1, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = operators.discretize(v0, v, 8.0, n)
        top = min(operators.numerical_range_abscissa(h), 0.0)
        for shift in (0.5, 3.0):
            h0, chain = self.chain(v0, v, 8.0, 3.0, 1.0, top - shift)
            w = v[:, None] * np.linalg.inv(dense(h0) - chain.omega * np.eye(n))
            op_norm = float(np.linalg.norm(w, 2))
            assert 0.0 < op_norm <= chain.link3_w_norm * (1.0 + 1e-12)


class TestResolventNormEstimate:
    def test_numerical_range_controls_resolvent(self, rng):
        # |R(omega, A)| <= 1/(omega_1 - omega) at omega = omega_1 - 1
        for _ in range(20):
            n = 25
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w1 = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])
            omega = w1 - 1.0
            smin = float(np.linalg.svd(a - omega * np.eye(n), compute_uv=False)[-1])
            assert 1.0 / smin <= 1.0 / (w1 - omega) + 1e-8
