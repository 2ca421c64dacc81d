import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlt import bandset
from bandlt.errors import PreconditionError, ValidationError, ValidityCapError

from conftest import (
    edge_probes,
    nearest_sample_distance,
    pairwise_interval_dist,
    sample_band_points,
    sorted_intervals,
)


class TestValidate:
    def test_two_bands(self):
        I = bandset.validate([(0, 1), (2, 3)])
        assert I.num_bands == 2
        assert I.edges == ((0.0, 1.0), (2.0, 3.0))
        assert I.validity_cap == 3.0
        assert not I.terminal_ray

    def test_touching_bands_rejected(self):
        with pytest.raises(ValidationError, match="k=1"):
            bandset.validate([(1, 2), (2, 3)])

    def test_negative_first_edge_rejected(self):
        with pytest.raises(ValidationError, match="a_1"):
            bandset.validate([(-1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            bandset.validate([])

    def test_degenerate_band_rejected(self):
        with pytest.raises(ValidationError):
            bandset.validate([(1, 1)])

    def test_ray_sets_infinite_cap(self):
        I = bandset.validate([(0.5, 1)], ray_start=3.0)
        assert I.terminal_ray
        assert I.validity_cap == math.inf

    def test_ray_below_last_band_rejected(self):
        with pytest.raises(ValidationError):
            bandset.validate([(0.5, 1)], ray_start=0.9)


class TestDistance:
    def test_gap_midpoint(self):
        I = bandset.validate([(0, 1), (2, 3)])
        assert bandset.dist_to_bands(1.5, I) == pytest.approx(0.5)

    def test_interior_point(self):
        I = bandset.validate([(0, 1), (2, 3)])
        assert bandset.dist_to_bands(0.5, I) == 0.0

    def test_offaxis_point(self):
        I = bandset.validate([(0, 1), (2, 3)])
        assert bandset.dist_to_bands(1.5 + 1j, I) == pytest.approx(math.sqrt(1.25))

    def test_beyond_cap_fails_loudly(self):
        I = bandset.validate([(0, 1), (2, 3)])
        with pytest.raises(ValidityCapError) as err:
            bandset.dist_to_bands(3.5, I)
        assert err.value.cap == 3.0

    def test_ray_answers_everywhere(self):
        I = bandset.validate([(0, 1)], ray_start=2.0)
        assert bandset.dist_to_bands(100.0 + 1j, I) == pytest.approx(1.0)
        assert bandset.dist_to_bands(1.5, I) == pytest.approx(0.5)

    def test_vectorized_matches_scalars(self, three_bands, rng):
        z = rng.uniform(-2, 8, 64) + 1j * rng.uniform(-3, 3, 64)
        d = bandset.dist_to_bands(z, three_bands)
        for zi, di in zip(z, d):
            assert bandset.dist_to_bands(complex(zi), three_bands) == di

    def test_zero_inside_positive_off_axis(self, three_bands, rng):
        for a, b in three_bands.edges:
            t = rng.uniform(a, b, 32)
            assert np.all(bandset.dist_to_bands(t + 0j, three_bands) == 0.0)
        z = rng.uniform(0, 8, 200) + 1j * np.sign(rng.standard_normal(200)) * rng.uniform(1e-9, 5, 200)
        assert np.all(bandset.dist_to_bands(z, three_bands) > 0.0)

    def test_lipschitz(self, three_bands, rng):
        z1 = rng.uniform(-2, 8, 500) + 1j * rng.uniform(-4, 4, 500)
        z2 = z1 + rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
        z2 = np.minimum(z2.real, 8.0) + 1j * z2.imag
        d1 = bandset.dist_to_bands(z1, three_bands)
        d2 = bandset.dist_to_bands(z2, three_bands)
        assert np.all(np.abs(d1 - d2) <= np.abs(z1 - z2) + 1e-14)

    def test_brute_force_agreement(self, three_bands, rng):
        pts = sample_band_points(three_bands, 100_000)
        z = rng.uniform(-2, 8, 1000) + 1j * rng.uniform(-5, 5, 1000)
        exact = bandset.dist_to_bands(z, three_bands)
        brute = nearest_sample_distance(z, pts)
        assert np.all(brute - exact >= -1e-14)
        assert np.all(brute - exact <= 1e-4 * (1.0 + np.abs(z)))


class TestTwoNeighbourDistance:
    """_interval_dist against the min over all intervals, byte for byte."""

    @given(ivals=sorted_intervals(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_pairwise(self, ivals, data):
        lo, hi = ivals
        x, y = edge_probes(data.draw, lo, hi)
        want = pairwise_interval_dist(x, y, lo, hi)
        assert bandset._interval_dist(x, y, lo, hi).tobytes() == want.tobytes()
        assert bandset._interval_dist(x[0], y[0], lo, hi) == want[0]

    @given(ivals=sorted_intervals(min_value=0.0), data=st.data(),
           ray=st.booleans(), complete=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_dist_to_bands_matches_pairwise(self, ivals, data, ray, complete):
        lo, hi = ivals
        ray_start = hi[-1] + data.draw(st.floats(1e-6, 1e3)) if ray else None
        I = bandset.validate(list(zip(lo, hi)), ray_start=ray_start)
        x, y = edge_probes(data.draw, lo, hi)
        if not (ray or complete):
            x, y = x[x <= I.validity_cap], y[x <= I.validity_cap]
        z = x + 1j * y
        got = bandset.dist_to_bands(z, I, treat_as_complete=complete)
        with mock.patch.object(bandset, "_interval_dist", pairwise_interval_dist):
            want = bandset.dist_to_bands(z, I, treat_as_complete=complete)
        assert got.tobytes() == want.tobytes()


class TestRank:
    """_rank against np.searchsorted(side="right") on both sides of its
    switch from vector compares to the binary search."""

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 64, 65, bandset._RANK_LOOP_MAX,
                                   bandset._RANK_LOOP_MAX + 1])
    def test_matches_searchsorted(self, rng, k):
        edges = np.sort(rng.uniform(-10.0, 10.0, k))
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-np.inf, np.inf, np.nan, -0.0, 0.0, -1e300, 1e300],
            rng.uniform(-12.0, 12.0, 500),
        ])
        want = np.searchsorted(edges, x, side="right")
        assert np.array_equal(bandset._rank(edges, x), want)
        grid = x[:x.size // 2 * 2].reshape(-1, 2)
        got = bandset._rank(edges, grid)
        assert got.shape == grid.shape
        assert np.array_equal(got, np.searchsorted(edges, grid, side="right"))
        for v in x[:3 * k + 7]:  # 0-d: numpy scalars and 0-d arrays
            for probe in (v, np.asarray(v)):
                got = bandset._rank(edges, probe)
                assert np.shape(got) == ()
                assert got == np.searchsorted(edges, probe, side="right")


class TestGapRatio:
    def test_three_bands(self, three_bands):
        assert bandset.gap_ratio(three_bands) == pytest.approx(0.5)

    def test_two_bands(self):
        I = bandset.validate([(1, 2), (2.5, 4)])
        assert bandset.gap_ratio(I) == pytest.approx(0.25)

    def test_ray_gap_counts(self):
        I = bandset.validate([(0.5, 1)], ray_start=3.0)
        assert bandset.gap_ratio(I) == pytest.approx(2.0)

    def test_single_band_no_gaps(self):
        I = bandset.validate([(0, 1)])
        with pytest.raises(PreconditionError, match="no gaps"):
            bandset.gap_ratio(I)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_rescaling_invariance(self, scale):
        edges = [(1, 2), (3, 4), (6, 8)]
        I = bandset.validate(edges)
        J = bandset.validate([(scale * a, scale * b) for a, b in edges])
        assert bandset.gap_ratio(J) == pytest.approx(bandset.gap_ratio(I), rel=1e-12)


class TestSerialization:
    def test_roundtrip(self, three_bands):
        doc = bandset.to_json(three_bands)
        again = bandset.from_json(json.dumps(doc))
        assert again == three_bands

    def test_ray_roundtrip(self):
        I = bandset.validate([(0.5, 1)], ray_start=3.0)
        assert bandset.from_json(bandset.to_json(I)) == I

    def test_missing_bands_key(self):
        with pytest.raises(ValidationError):
            bandset.from_json({"terminal_ray": 3.0})


class TestCloseWithRay:
    def test_drops_last_band(self, three_bands):
        J = bandset.close_with_ray(three_bands)
        assert J.edges == ((1.0, 2.0), (3.0, 4.0))
        assert J.ray_start == 6.0
        # distances below the dropped band are unchanged
        z = np.linspace(0, 5.5, 40) + 0.7j
        assert np.allclose(
            bandset.dist_to_bands(z, J), bandset.dist_to_bands(z, three_bands)
        )

    def test_single_band_rejected(self):
        with pytest.raises(PreconditionError):
            bandset.close_with_ray(bandset.validate([(0, 1)]))
