import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlt import bandset, hill, ltsums, operators, schatten
from bandlt.errors import HypothesisViolationError, NumericalError, PreconditionError

from conftest import dense


def bundle(p=2.0, v_p=1.0, v0_inf=0.0):
    return schatten.NormBundle(p=p, v_p=v_p, v0_inf=v0_inf)


def report_for(eigs, band_set, delta):
    return operators.classify_discrete(np.asarray(eigs, dtype=complex), band_set, delta)


class TestT1:
    def test_empty_spectrum(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, delta=0.1)
        out = ltsums.lt_sum_t1(rep, omega=-1.0, omega1=0.0, nb=bundle())
        assert out.lhs == 0.0
        assert out.empirical_ratio == 0.0
        assert out.eigenvalue_count == 0

    def test_single_term_frozen(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([1.0 + 1.0j], I, delta=0.5)
        out = ltsums.lt_sum_t1(rep, omega=-1.0, omega1=0.0, nb=bundle())
        expect = 1.0 / (math.sqrt(5.0) + 1.0) ** 4
        assert out.lhs == pytest.approx(expect, rel=1e-14)
        assert out.lhs == pytest.approx(0.009118627109394714, abs=1e-12)
        assert out.eigenvalue_count == 1
        assert out.empirical_ratio == pytest.approx(out.lhs / out.rhs_structure)

    def test_joint_rescaling_homogeneity(self):
        # z -> cz, I -> cI, omega -> c omega multiplies each term by c^-p
        c, p = 2.0, 2.0
        I1 = bandset.validate([(0, 1)])
        I2 = bandset.validate([(0, c)])
        z = 1.0 + 1.0j
        r1 = ltsums.lt_sum_t1(report_for([z], I1, 0.3), -1.0, 0.0, bundle(p=p))
        r2 = ltsums.lt_sum_t1(report_for([c * z], I2, 0.3), -c, 0.0, bundle(p=p))
        assert r2.lhs == pytest.approx(r1.lhs / c**p, rel=1e-12)

    def test_boundary_artifacts_excluded(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([1.0 + 1.0j, 3.0 + 2.0j], I, delta=0.5)
        rep = dataclasses.replace(rep, artifact=np.array([False, True]))
        out = ltsums.lt_sum_t1(rep, omega=-1.0, omega1=0.0, nb=bundle())
        assert out.eigenvalue_count == 1
        assert out.parameters["excluded_boundary_artifacts"] == 1
        assert out.lhs == pytest.approx(1.0 / (math.sqrt(5.0) + 1.0) ** 4, rel=1e-14)

    def test_preconditions(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        with pytest.raises(PreconditionError):
            ltsums.lt_sum_t1(rep, omega=0.5, omega1=1.0, nb=bundle())  # omega >= 0
        with pytest.raises(PreconditionError):
            ltsums.lt_sum_t1(rep, omega=-1.0, omega1=-2.0, nb=bundle())
        with pytest.raises(PreconditionError):
            ltsums.lt_sum_t1(rep, omega=-1.0, omega1=0.0, nb=bundle(p=1.5))


class TestT1Simplified:
    def test_single_term_frozen(self):
        I = bandset.validate([(0, 2)], ray_start=4.0)
        rep = report_for([3.0 + 0j], I, delta=0.5)
        out = ltsums.lt_sum_t1_simplified(rep, omega=-3.0, omega1=0.0, nb=bundle())
        assert out.lhs == pytest.approx(1.0 / 256.0, rel=1e-14)
        assert out.rhs_structure == pytest.approx(3.0**2.5)

    def test_remark_inequality_per_term(self, rng):
        # for omega < omega_1 - 1 every candidate satisfies |z-w| < |w|(1+|z|)
        omega1 = 0.0
        omega = -1.5
        zs = rng.uniform(0, 5, 50) + 1j * rng.uniform(-2, 2, 50)
        assert np.all(np.abs(zs - omega) < abs(omega) * (1.0 + np.abs(zs)))

    def test_requires_gap_below_omega1(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        with pytest.raises(PreconditionError):
            ltsums.lt_sum_t1_simplified(rep, omega=-1.0, omega1=0.0, nb=bundle())


class TestT2:
    def test_zero_potential(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        out = ltsums.lt_sum_t2(rep, bundle(v_p=0.0), a1=0.0)
        assert out.lhs == 0.0
        assert out.rhs_structure == 0.0
        assert out.empirical_ratio == 0.0

    def test_rhs_monotone_in_potential_norm(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        vals = [
            ltsums.lt_sum_t2(rep, bundle(v_p=v), a1=0.0).rhs_structure
            for v in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_exponent_at_p2(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        out = ltsums.lt_sum_t2(rep, bundle(v_p=1.0), a1=0.0)
        assert out.parameters["vp_exponent"] == pytest.approx(10.0 / 3.0)
        # (4 C1(2) (1+1))^(4/3) = (4 sqrt 2)^(4/3) = 2^(10/3)
        assert out.parameters["omega_prime"] == pytest.approx(
            -2.0 * (1.0 + 2.0 ** (10.0 / 3.0)), abs=1e-9
        )


class TestT3:
    def test_empty(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        out = ltsums.lt_sum_t3(rep, bundle(), 0.5, v_samples=np.zeros(4))
        assert out.lhs == 0.0

    def test_unit_circle_goes_outside(self):
        I = bandset.validate([(2, 3)], ray_start=5.0)
        rep = report_for([1.0j], I, delta=0.5)
        out = ltsums.lt_sum_t3(rep, bundle(), 0.3, v_samples=np.zeros(4))
        assert out.parameters["lhs_inside_disk"] == 0.0
        assert out.parameters["lhs_outside_disk"] == out.lhs
        assert out.lhs == pytest.approx(math.sqrt(5.0) ** 2, rel=1e-12)

    def test_exponent_vanishes_at_half(self):
        I = bandset.validate([(0.5, 1.0)], ray_start=2.0)
        rep = report_for([0.25 + 0j], I, delta=0.1)
        out = ltsums.lt_sum_t3(rep, bundle(), 0.5, v_samples=np.zeros(4))
        assert out.lhs == pytest.approx(0.0625, rel=1e-13)

    def test_accretivity_checked(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        with pytest.raises(HypothesisViolationError):
            ltsums.lt_sum_t3(rep, bundle(), 0.5, v_samples=np.array([-0.1 + 1j, 0.0]))

    def test_epsilon_range(self):
        I = bandset.validate([(0, 1)])
        rep = report_for([], I, 0.1)
        for eps in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(PreconditionError):
                ltsums.lt_sum_t3(rep, bundle(), eps, v_samples=np.zeros(2))

    def test_kernels_monotone_in_epsilon(self):
        # each term's kernel is nonincreasing in epsilon on both sides of
        # the unit circle (|z|^(eps-1/2) inside, |z|^(-1/2-eps) outside)
        I = bandset.validate([(2, 3)], ray_start=5.0)
        inside = report_for([0.25 + 0.25j], I, delta=0.5)
        outside = report_for([1.5j], I, delta=0.5)
        for rep in (inside, outside):
            vals = [
                ltsums.lt_sum_t3(rep, bundle(), e, v_samples=np.zeros(2)).lhs
                for e in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_per_a_diagnostics(self, monkeypatch):
        I = bandset.validate([(0.5, 1.0)], ray_start=2.0)
        rep = report_for([0.25 + 0j], I, delta=0.1)
        calls = []
        dist = bandset.dist_to_bands
        monkeypatch.setattr(bandset, "dist_to_bands",
                            lambda *a, **k: calls.append(a) or dist(*a, **k))
        out = ltsums.lt_sum_t3(rep, bundle(), 0.5, v_samples=np.zeros(4),
                               a_values=[1.0, 2.0])
        assert len(calls) == 1  # one distance evaluation serves every row
        rows = out.parameters["per_a_diagnostics"]
        assert len(rows) == 2
        assert rows[0]["lhs"] == pytest.approx(0.25**2 / (0.25 + 1.0) ** 4)
        assert rows[0]["rhs_structure"] == pytest.approx(1.0)
        assert rows[1]["rhs_structure"] == pytest.approx(2.0 ** -3.5)


class TestHansmann:
    def test_commuting_diagonal_ratio_is_one(self, rng):
        rep = ltsums.hansmann_ensemble(10, 20, 2.0, 0.1, rng, diagonal=True)
        assert rep.ratios.size == 20
        assert np.max(np.abs(rep.ratios - 1.0)) < 1e-12

    def test_two_by_two_commuting_example(self):
        a0 = np.array([0.0, 1.0])
        b = np.diag([0.0, 0.1])
        eigs = np.array([0.0, 1.1])
        dsum = float(np.sum(operators.point_cloud_distance(eigs, a0) ** 2))
        assert dsum / schatten.schatten_norm(b, 2.0) ** 2 == pytest.approx(1.0)

    def test_zero_perturbation_degenerate(self, rng):
        rep = ltsums.hansmann_ensemble(8, 5, 2.0, 0.0, rng)
        assert rep.degenerate == 5
        assert rep.ratios.size == 0
        assert math.isnan(rep.max_ratio)

    def test_generic_ensemble_finite(self, rng):
        rep = ltsums.hansmann_ensemble(20, 30, 2.0, 0.5, rng)
        assert rep.ratios.size == 30
        assert np.all(np.isfinite(rep.ratios))
        assert rep.max_ratio >= rep.median_ratio >= rep.min_ratio > 0
        doc = rep.to_json()
        assert doc["rng_family"] == ltsums.RNG_FAMILY

    def test_parameter_validation(self, rng):
        with pytest.raises(PreconditionError):
            ltsums.hansmann_ensemble(1, 5, 2.0, 0.1, rng)
        with pytest.raises(PreconditionError):
            ltsums.hansmann_ensemble(5, 5, 1.0, 0.1, rng)


class TestCouplingSweep:
    def test_rows_and_scaling_columns(self):
        p = 2.0

        def fake_run(alpha):
            return ltsums.LTReport(
                theorem="T1", lhs=3.0 * alpha**p, rhs_structure=alpha**p,
                empirical_ratio=3.0, parameters={"p": p}, eigenvalue_count=1,
            )

        rows = ltsums.coupling_sweep(fake_run, [0.0, 0.5, 1.0, 2.0])
        assert rows[0]["lhs"] == 0.0
        assert math.isnan(rows[0]["lhs_over_alpha_p"])
        for row in rows[1:]:
            assert row["lhs_over_alpha_p"] == pytest.approx(3.0)
            assert row["rhs_structure"] == pytest.approx(row["alpha"] ** p)

    def test_negative_alpha_rejected(self):
        # refused before any point runs, wherever it stands in the list
        def run_point(alpha):
            raise AssertionError("a point ran despite a negative coupling")

        for alphas in ([-1.0], [1.0, 0.5, -0.5]):
            with pytest.raises(PreconditionError):
                ltsums.coupling_sweep(run_point, alphas)


@pytest.fixture(scope="module")
def small_model():
    V0 = hill.cosine(1.0, 2 * math.pi)
    bands, _ = hill.band_edges_report(V0, 10.0)
    I = bandset.close_with_ray(bands)
    periods = 8
    length = periods * V0.period
    n = 500
    x = operators.discretize(0.0, 0.0, length, n).grid()
    v0 = V0.evaluate(x)
    h0 = operators.discretize(v0, 0.0, length, n)
    v = np.where(np.abs(x - length / 2) < 2.0, 0.4 + 0.6j, 0.0)
    h = operators.discretize(v0, v, length, n)
    nb = schatten.norm_bundle(2.0, v, h.spacing, v0_inf=V0.sup_norm)
    report = operators.spectrum_report(h, I)
    return h0, h, report, nb


class TestTheorem1Chain:
    def test_links_hold(self, small_model):
        h0, h, report, nb = small_model
        chain = ltsums.theorem1_chain(h0, h, report, nb)
        assert chain.link1_violations == 0
        assert chain.link1_min_quotient >= 1.0 - 1e-12
        assert chain.link1_count == report.contributing().size
        assert np.isfinite(chain.link2_hansmann_ratio)
        assert chain.link2_hansmann_ratio >= 0.0
        assert chain.link3_delta_r_norm > 0.0
        assert np.isfinite(chain.lt_report.lhs)
        assert np.isfinite(chain.composite_constant)
        doc = chain.to_json()
        assert doc["lt_report"]["theorem"] == "T1"

    def test_w_contracts_at_omega_prime(self, small_model):
        h0, h, report, nb = small_model
        omega = schatten.omega_prime(nb, report.band_set.a1)
        chain = ltsums.theorem1_chain(h0, h, report, nb, omega=omega)
        assert 0.0 < chain.link3_w_norm < 0.5

    def test_chain_rejects_bad_omega(self, small_model):
        h0, h, report, nb = small_model
        with pytest.raises(PreconditionError):
            ltsums.theorem1_chain(h0, h, report, nb, omega=0.5)


NON_FINITE_OMEGA_CALLS = {
    "theorem1_chain": lambda m, w: ltsums.theorem1_chain(*m, omega=w),
    "lt_sum_t1": lambda m, w: ltsums.lt_sum_t1(m[2], w, 0.0, m[3]),
    "lt_sum_t1_simplified": lambda m, w: ltsums.lt_sum_t1_simplified(m[2], w, 0.0, m[3]),
    "resolvent_diff_bound": lambda m, w: schatten.resolvent_diff_bound(
        w, 0.0, m[3], m[2].band_set.a1),
    "bound_w": lambda m, w: schatten.bound_w(w, m[3], m[2].band_set.a1),
}


@pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", NON_FINITE_OMEGA_CALLS)
def test_non_finite_omega_refused_before_work(small_model, monkeypatch, name, omega):
    # omega = -inf passes every omega < ... comparison, NaN fails them all
    def refuse(*args, **kwargs):
        raise AssertionError("work done for a non-finite omega")

    monkeypatch.setattr(operators, "resolvent", refuse)
    monkeypatch.setattr(ltsums, "_distances", refuse)
    with pytest.raises(PreconditionError, match="finite"):
        NON_FINITE_OMEGA_CALLS[name](small_model, omega)


def dense_schatten(m, p):
    """Oracle: Schatten-p norm from the full SVD of a dense matrix."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False) ** p) ** (1.0 / p))


def dense_inverse(op, z):
    return np.linalg.inv(dense(op) - z * np.eye(op.size))


class TestLowRankResolventDifference:
    """The rank-|supp V| paths against dense inverses and full SVDs."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           support=st.sampled_from(["empty", "partial", "full"]),
           p=st.floats(2.0, 5.0), shift=st.floats(0.1, 5.0))
    def test_against_dense_oracle(self, seed, n, support, p, shift):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.1, 3.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        if support == "empty":
            v[:] = 0.0
        elif support == "partial":
            v[rng.uniform(size=n) < 0.6] = 0.0
        v0 = rng.uniform(0.0, 2.0, n)
        h0 = operators.discretize(v0, 0.0, 10.0, n)
        h = operators.discretize(v0, v, 10.0, n)
        I = bandset.validate([(0.0, 1.0)], ray_start=2.0)
        report = operators.spectrum_report(h, I, delta=0.5)
        nb = schatten.norm_bundle(p, v, h.spacing, v0_inf=2.0)
        omega = min(operators.numerical_range_abscissa(h), 0.0) - shift
        chain = ltsums.theorem1_chain(h0, h, report, nb, omega=omega)
        r0 = dense_inverse(h0, omega)
        oracle = dense_schatten(dense_inverse(h, omega) - r0, p)
        assert chain.link3_delta_r_norm == pytest.approx(oracle, rel=1e-10, abs=0.0)
        w = v[:, None] * r0
        assert chain.link3_w_norm == pytest.approx(dense_schatten(w, p), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("other", [
        dict(length=12.0, n=40),
        dict(length=10.0 * 42 / 41, n=41),
    ], ids=["spacing", "size"])
    def test_chain_refuses_a_different_grid(self, other):
        v = np.zeros(40, dtype=complex)
        v[10:20] = 0.5 + 0.5j
        h = operators.discretize(1.0, v, 10.0, 40)
        h0 = operators.discretize(1.0, 0.0, other["length"], other["n"])
        report = operators.spectrum_report(h, bandset.validate([(0.0, 1.0)], ray_start=2.0))
        nb = schatten.norm_bundle(2.0, v, h.spacing, v0_inf=1.0)
        with pytest.raises(PreconditionError, match="grid|diagonal"):
            ltsums.theorem1_chain(h0, h, report, nb, omega=-1.0)

    def test_chain_refuses_different_couplings(self):
        # same grid, but H - H0 has off-diagonal entries
        v = np.zeros(40, dtype=complex)
        v[10:20] = 0.5 + 0.5j
        h = operators.discretize(1.0, v, 10.0, 40)
        h0 = dataclasses.replace(operators.discretize(1.0, 0.0, 10.0, 40),
                                 coupling=np.full(39, -1.0))
        report = operators.spectrum_report(h, bandset.validate([(0.0, 1.0)], ray_start=2.0))
        nb = schatten.norm_bundle(2.0, v, h.spacing, v0_inf=1.0)
        with pytest.raises(PreconditionError, match="diagonal"):
            ltsums.theorem1_chain(h0, h, report, nb, omega=-1.0)

    def test_zero_potential_gives_zero_difference(self):
        h0 = operators.discretize(1.0, 0.0, 10.0, 40)
        h = operators.discretize(1.0, np.zeros(40), 10.0, 40)
        report = operators.spectrum_report(h, bandset.validate([(0.0, 1.0)], ray_start=2.0))
        nb = schatten.norm_bundle(2.0, np.zeros(40), h.spacing, v0_inf=1.0)
        chain = ltsums.theorem1_chain(h0, h, report, nb, omega=-1.0)
        assert chain.link3_delta_r_norm == 0.0
        assert chain.link3_w_norm == 0.0

    def test_resolvent_refused_at_an_eigenvalue(self):
        op = operators.discretize(1.0, 0.3j, 10.0, 40)
        with pytest.raises(NumericalError, match="spectrum"):
            operators.resolvent(op, operators.eigenvalues(op)[7], [0, 5])
