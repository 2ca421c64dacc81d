import math

import numpy as np
import pytest

from bandlt import bandset, moebius
from bandlt.errors import NumericalError, PoleError, PreconditionError


class TestApply:
    def test_real_point(self):
        assert moebius.apply(moebius.MoebiusMap(0.0), 2.0) == 0.5

    def test_complex_point(self):
        out = moebius.apply(moebius.MoebiusMap(-1.0), 1j)
        assert out == pytest.approx(0.5 - 0.5j)

    def test_pole(self):
        with pytest.raises(PoleError):
            moebius.apply(moebius.MoebiusMap(0.0), 0.0)


class TestImageBands:
    def test_single_band(self):
        I = bandset.validate([(1, 2)])
        img = moebius.image_bands(I, moebius.MoebiusMap(-1.0))
        assert img.intervals[0] == pytest.approx((1 / 3, 1 / 2))
        assert not img.accumulation_at_zero

    def test_two_bands(self):
        I = bandset.validate([(0, 1), (2, 3)])
        img = moebius.image_bands(I, moebius.MoebiusMap(-1.0))
        assert img.intervals[0] == pytest.approx((0.5, 1.0))
        assert img.intervals[1] == pytest.approx((0.25, 1 / 3))

    def test_shift_at_first_edge_rejected(self):
        I = bandset.validate([(1, 2)])
        with pytest.raises(PreconditionError):
            moebius.image_bands(I, moebius.MoebiusMap(1.5))

    def test_ray_image(self):
        I = bandset.validate([(0.5, 1)], ray_start=3.0)
        img = moebius.image_bands(I, moebius.MoebiusMap(-1.0))
        assert img.accumulation_at_zero
        assert img.ray_alpha == pytest.approx(0.25)

    def test_in_band_points_map_into_image(self, three_bands, rng):
        for omega in (-0.5, 0.0, 0.99):
            mob = moebius.MoebiusMap(omega)
            img = moebius.image_bands(three_bands, mob)
            for (a, b), (lo, hi) in zip(three_bands.edges, img.intervals):
                t = rng.uniform(a, b, 50)
                lam = moebius.apply(mob, t + 0j)
                assert np.all(lam.real >= lo - 1e-12)
                assert np.all(lam.real <= hi + 1e-12)
                assert np.all(np.abs(lam.imag) <= 1e-12)


class TestDistToImage:
    def test_between_intervals(self):
        img = moebius.MoebiusImage(intervals=((0.25, 1 / 3), (0.5, 1.0)))
        assert moebius.dist_to_image(0.4, img) == pytest.approx(1 / 15)

    def test_accumulation_point_wins(self):
        img = moebius.MoebiusImage(intervals=((0.5, 1.0),), accumulation_at_zero=True)
        assert moebius.dist_to_image(0.1, img) == pytest.approx(0.1)

    def test_vertical_over_band(self):
        img = moebius.MoebiusImage(intervals=((0.5, 1.0),))
        assert moebius.dist_to_image(0.75 + 0.1j, img) == pytest.approx(0.1)

    def test_ray_interval(self):
        img = moebius.MoebiusImage(
            intervals=((0.5, 1.0),), accumulation_at_zero=True, ray_alpha=0.25
        )
        assert moebius.dist_to_image(0.2 + 0.05j, img) == pytest.approx(0.05)


class TestDistortionRatio:
    def test_closed_form_value(self):
        # z=2i, bands [1,2], omega=0: dist(-0.5i, [0.5,1]) / dist(2i, [1,2])
        I = bandset.validate([(1, 2)])
        got = moebius.distortion_ratio(2j, I, moebius.MoebiusMap(0.0))
        assert got == pytest.approx(1 / math.sqrt(10), rel=1e-14)

    def test_real_points(self):
        I = bandset.validate([(1, 2)])
        got = moebius.distortion_ratio(0.5, I, moebius.MoebiusMap(0.0))
        assert got == pytest.approx(2.0)

    def test_on_band_rejected(self):
        I = bandset.validate([(1, 2)])
        with pytest.raises(PreconditionError):
            moebius.distortion_ratio(1.5, I, moebius.MoebiusMap(0.0))


class TestDistortionBound:
    def test_uniform(self, three_bands):
        got = moebius.distortion_bound(1j, three_bands, moebius.MoebiusMap(0.0), "uniform")
        assert got == pytest.approx(1 / 15)

    def test_halfplane(self):
        I = bandset.validate([(1, 2)])
        got = moebius.distortion_bound(0.0, I, moebius.MoebiusMap(-1.0), "halfplane")
        assert got == pytest.approx(1 / 9)

    def test_gap(self):
        I = bandset.validate([(1, 2), (3, 4)])
        got = moebius.distortion_bound(2.5, I, moebius.MoebiusMap(0.0), "gap")
        assert got == pytest.approx(0.08 * 2 / 3)

    def test_gap_variant_rejects_halfplane_point(self):
        I = bandset.validate([(1, 2), (3, 4)])
        with pytest.raises(PreconditionError, match="b_k < Re z"):
            moebius.distortion_bound(0.0, I, moebius.MoebiusMap(0.0), "gap")

    def test_halfplane_variant_rejects_gap_point(self):
        I = bandset.validate([(1, 2), (3, 4)])
        with pytest.raises(PreconditionError, match="half"):
            moebius.distortion_bound(2.5, I, moebius.MoebiusMap(0.0), "halfplane")

    def test_uniform_needs_nonpositive_shift(self, three_bands):
        with pytest.raises(PreconditionError, match="omega"):
            moebius.distortion_bound(1j, three_bands, moebius.MoebiusMap(0.5), "uniform")

    def test_band_edge_belongs_to_band(self):
        # Re z = b_k exactly classifies as band, so 'halfplane' accepts it
        I = bandset.validate([(1, 2), (3, 4)])
        z = 2.0 + 1j
        got = moebius.distortion_bound(z, I, moebius.MoebiusMap(0.0), "halfplane")
        assert got > 0
        with pytest.raises(PreconditionError):
            moebius.distortion_bound(z, I, moebius.MoebiusMap(0.0), "gap")

    def test_unknown_variant(self, three_bands):
        with pytest.raises(PreconditionError):
            moebius.distortion_bound(1j, three_bands, moebius.MoebiusMap(0.0), "bogus")


def _windows(band_set, omega, x):
    """Vertical-line windows where the image point sits over image gaps/bands.

    For Re z = x fixed in a gap, |y| in (v_j, u_(j+1)) puts the image over
    an interior image gap and |y| in [u_j, v_j] over image band j, with
    u_j = sqrt(xs (a_j - xs)), v_j = sqrt(xs (b_j - xs)) in shifted
    variables xs = x - omega.
    """
    xs = x - omega
    a = band_set.lower_edges() - omega
    b = band_set.upper_edges() - omega
    u = np.sqrt(np.maximum(xs * (a - xs), 0.0))
    v = np.sqrt(np.maximum(xs * (b - xs), 0.0))
    return u, v


class TestProofCaseBounds:
    """Regional stress bounds behind the gap formula, in shifted variables."""

    @pytest.mark.parametrize("omega", [0.0, -0.7])
    def test_image_gap_windows(self, three_bands, rng, omega):
        I = three_bands
        mob = moebius.MoebiusMap(omega)
        k = 1  # gap (2, 3), 1-based
        r_k = I.lower_edges()[k] - I.upper_edges()[k - 1]
        b_k_shifted = I.upper_edges()[k - 1] - omega
        for _ in range(200):
            x = rng.uniform(2.0 + 1e-6, 3.0 - 1e-6)
            u, v = _windows(I, omega, x)
            j = 1  # interior image gap between images of bands 2 and 3
            y = rng.uniform(v[j] + 1e-9, u[j + 1] - 1e-9) * rng.choice([-1.0, 1.0])
            z = x + 1j * y
            ratio = moebius.distortion_ratio(z, I, mob)
            q2 = abs(z - omega) ** 2
            bound = (1.0 / q2) / (1.0 + r_k / b_k_shifted)
            assert ratio >= bound * (1 - 1e-12)

    @pytest.mark.parametrize("omega", [0.0, -0.7])
    def test_image_band_windows(self, three_bands, rng, omega):
        I = three_bands
        mob = moebius.MoebiusMap(omega)
        a_next_shifted = I.lower_edges()[1] - omega  # a_(k+1) for the gap (2,3)
        for _ in range(200):
            x = rng.uniform(2.0 + 1e-6, 3.0 - 1e-6)
            u, v = _windows(I, omega, x)
            j = rng.integers(1, 3)  # image bands of source bands 2 and 3
            y = rng.uniform(u[j], v[j]) * rng.choice([-1.0, 1.0])
            z = x + 1j * y
            ratio = moebius.distortion_ratio(z, I, mob)
            xs = x - omega
            q2 = abs(z - omega) ** 2
            bound = (1.0 / q2) / (1.0 + math.sqrt(a_next_shifted / xs - 1.0))
            assert ratio >= bound * (1 - 1e-12)


class TestVerifyDistortion:
    @pytest.mark.parametrize("variant", ["uniform", "halfplane", "gap"])
    def test_no_violations(self, three_bands, rng, variant):
        mob = moebius.MoebiusMap(-0.5)
        report = moebius.verify_distortion(three_bands, mob, variant, n=2000, rng=rng)
        assert report.samples == 2000
        assert report.violations == []
        assert report.min_quotient >= 1.0 - 1e-12

    def test_zero_samples(self, three_bands, rng):
        report = moebius.verify_distortion(
            three_bands, moebius.MoebiusMap(-0.5), "uniform", n=0, rng=rng
        )
        assert report.samples == 0
        assert report.violations == []
        assert report.min_quotient is None

    def test_in_band_points_counted_rejected(self, three_bands, rng):
        # sampler that half the time emits band-interior points
        def sampler(g, size):
            z = moebius._default_sampler(moebius.MoebiusMap(-0.5), g, size)
            z[::2] = g.uniform(1.0, 2.0, z[::2].size)  # inside band 1
            return z

        report = moebius.verify_distortion(
            three_bands, moebius.MoebiusMap(-0.5), "uniform",
            n=500, rng=rng, sampler=sampler,
        )
        assert report.samples == 500
        assert report.rejected >= 500

    def test_sampler_never_admissible_raises(self, three_bands, rng):
        def bad_sampler(g, size):
            return np.full(size, 1.5 + 0j)  # always inside a band

        with pytest.raises(NumericalError):
            moebius.verify_distortion(
                three_bands, moebius.MoebiusMap(-0.5), "uniform",
                n=10, rng=rng, sampler=bad_sampler, max_attempts=50_000,
            )

    @pytest.mark.parametrize("ray", [False, True])
    def test_off_set_mask_matches_distance(self, rng, ray):
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        edges = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0] + ([10.0] if ray else []))
        real_axis = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            rng.uniform(-2.0, 14.0, 2000),  # half-plane, bands, gaps, ray
        ])
        z = np.concatenate([
            real_axis + 0j,
            edges + 1e-300j,
            rng.uniform(-2.0, 14.0, 2000) + 1j * rng.normal(0.0, 1.0, 2000),
        ])
        keep = moebius._region_filter(z, I, "uniform")
        valid = np.isfinite(z) & (ray or z.real <= I.validity_cap)
        assert np.array_equal(keep[valid], bandset.dist_to_bands(z[valid], I) > 0.0)
        assert not np.any(keep[~valid])
        assert 0 < keep.sum() < z.size

    def test_report_json_shape(self, three_bands, rng):
        report = moebius.verify_distortion(
            three_bands, moebius.MoebiusMap(-0.5), "uniform", n=100, rng=rng
        )
        doc = report.to_json()
        assert set(doc) >= {"samples", "rejected", "violations", "min_quotient"}
        assert doc["samples"] == 100
