import math

import numpy as np
import pytest

from bandlt import hill
from bandlt.errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)


class TestPotentials:
    def test_negative_rejected(self):
        with pytest.raises(HypothesisViolationError):
            hill.from_callable(lambda x: np.cos(x), 2 * math.pi)

    def test_non_periodic_rejected(self):
        with pytest.raises(ValidationError, match="periodic"):
            hill.from_callable(lambda x: np.asarray(x, dtype=float), 1.0)

    def test_cosine_negative_amplitude_rejected(self):
        with pytest.raises(HypothesisViolationError):
            hill.cosine(-1.0)

    def test_sup_norm(self):
        assert hill.cosine(2.0).sup_norm == 4.0
        assert hill.free(1.0).sup_norm == 0.0

    def test_from_samples_interpolates(self):
        x = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        V = hill.from_samples(1.0 + np.cos(x), 2 * math.pi)
        probe = np.array([0.1, 1.7, 5.0])
        assert np.allclose(V.evaluate(probe), 1.0 + np.cos(probe), atol=1e-3)


class TestMonodromy:
    def test_free_zero_energy(self):
        m = hill.monodromy(hill.free(1.0), 0.0)
        assert np.allclose(m.entries, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        assert m.trace == pytest.approx(2.0)

    def test_free_pi_squared(self):
        m = hill.monodromy(hill.free(1.0), math.pi**2)
        assert m.trace == pytest.approx(-2.0, abs=1e-8)

    def test_free_four_pi_squared(self):
        m = hill.monodromy(hill.free(1.0), 4 * math.pi**2)
        assert m.trace == pytest.approx(2.0, abs=1e-8)

    def test_determinant_one(self):
        # below the spectrum the entries blow up and eps*|M|^2 cancellation
        # dominates the computed Wronskian; scale the tolerance accordingly
        V = hill.cosine(1.0)
        for E in np.linspace(-1, 40, 50):
            m = hill.monodromy(V, float(E))
            tol = max(1e-10, 1e-13 * (1.0 + float((m.entries**2).sum())))
            assert abs(m.det - 1.0) < tol

    def test_determinant_one_free_strict(self):
        V = hill.free(1.0)
        for E in np.linspace(0, 100, 40):
            assert abs(hill.monodromy(V, float(E)).det - 1.0) < 1e-10

    def test_too_few_steps_rejected(self):
        with pytest.raises(PreconditionError):
            hill.monodromy(hill.free(1.0), 1.0, steps=50)


class TestDiscriminant:
    def test_free_closed_form_positive(self):
        V = hill.free(1.0)
        E = np.linspace(0.0, 100.0, 200)
        D = hill.discriminant(V, E)
        assert np.max(np.abs(D - 2.0 * np.cos(np.sqrt(E)))) < 1e-8

    def test_free_closed_form_negative(self):
        V = hill.free(1.0)
        assert hill.discriminant(V, -1.0) == pytest.approx(2.0 * math.cosh(1.0), abs=1e-8)

    def test_frozen_values(self):
        V = hill.free(1.0)
        assert hill.discriminant(V, 100.0) == pytest.approx(-1.6781430581529051, abs=1e-8)

    def test_returns_real_floats(self):
        d = hill.discriminant(hill.cosine(0.5), 3.0)
        assert isinstance(d, float)


class TestBandEdges:
    def test_free_single_truncated_band(self):
        I, meta = hill.band_edges_report(hill.free(1.0), 50.0)
        assert I.num_bands == 1
        a, b = I.edges[0]
        assert abs(a) < 1e-9
        assert b == 50.0
        assert meta["truncated_at_e_max"]
        assert not I.terminal_ray
        assert I.validity_cap == 50.0

    def test_below_first_band_errors(self):
        with pytest.raises(NumericalError, match="no band"):
            hill.band_edges(hill.cosine(2.0), 0.5)

    def test_mathieu_prefix_frozen(self):
        # edges cross-checked against a dense Floquet grid discretization
        I, meta = hill.band_edges_report(hill.cosine(2.0), 8.0)
        expected = [
            (0.9298702954, 0.9352042749),
            (2.5795020425, 2.6867202568),
            (3.7072687086, 4.3153615330),
            (4.6677567759, 6.1130088225),
        ]
        assert I.num_bands == 5
        for (a, b), (ea, eb) in zip(I.edges[:4], expected):
            assert a == pytest.approx(ea, abs=1e-6)
            assert b == pytest.approx(eb, abs=1e-6)
        assert I.edges[4][0] == pytest.approx(6.1624547267, abs=1e-6)
        assert meta["truncated_at_e_max"]

    def test_gap_lengths_shrink_for_smooth_potential(self):
        I = hill.band_edges(hill.cosine(1.0), 12.0)
        lo = I.lower_edges()
        hi = I.upper_edges()
        gaps = lo[1:] - hi[:-1]
        assert len(gaps) >= 3
        assert np.all(np.diff(gaps) < 0)

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            hill.band_edges(hill.free(1.0), -3.0)
        with pytest.raises(PreconditionError):
            hill.band_edges(hill.free(1.0), 10.0, scan_step=0.0)

    def test_classification_constant_on_refinement(self):
        # between consecutive edges the in-band/in-gap verdict must not
        # flip when the grid is refined (sub-resolution gap excursions
        # stay within the merge scale)
        V0 = hill.cosine(1.0, 2 * math.pi)
        I = hill.band_edges(V0, 8.0)
        lo = I.lower_edges()
        hi = I.upper_edges()
        for a, b in zip(lo, hi):
            inner = np.linspace(a + 1e-6, b - 1e-6, 60)
            assert np.all(np.abs(hill.discriminant(V0, inner)) <= 2.0 + 1e-6)
        for b, a_next in zip(hi[:-1], lo[1:]):
            inner = np.linspace(b + 1e-8, a_next - 1e-8, 60)
            assert np.all(np.abs(hill.discriminant(V0, inner)) > 2.0 - 1e-12)

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # edges near 9e5 sit where one float spacing exceeds the 1e-10
        # edge tolerance; a tolerance-only stop bisects forever there
        calls = []
        batch = hill._monodromy_batch

        def bounded(*args, **kwargs):
            calls.append(1)
            if len(calls) > 100:
                raise AssertionError("edge bisection did not stop")
            return batch(*args, **kwargs)

        monkeypatch.setattr(hill, "_monodromy_batch", bounded)
        I = hill.band_edges(hill.from_samples([0.0, 2e4], 0.01), 1.2e6)
        assert I.edges[-1][0] > 2.0**19
