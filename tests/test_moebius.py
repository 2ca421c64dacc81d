import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandlt import bandset, moebius
from bandlt.errors import NumericalError, PoleError, PreconditionError, ValidityCapError

from conftest import edge_probes, pairwise_interval_dist, sorted_intervals

# q = 2 Mathieu band set up to e_max = 30
_MATHIEU_Q2_EDGES = [
    (0.9298702954251432, 0.9352042748543419), (2.579502042518762, 2.6867202567845627),
    (3.707268708645634, 4.315361533022722), (4.6677567758953185, 6.1130088225343435),
    (6.1624547266856755, 8.332636217964687), (8.335939408268501, 11.057352856451214),
    (11.057488126593993, 14.291766934219932), (14.291770676617263, 30.0),
]


# Reference sampling loop: complex draws omega + r exp(i theta), classified
# as a whole and filtered in one pass.  verify_distortion must reproduce its
# report bit for bit.

def _ref_region_codes(z, band_set):
    x = np.atleast_1d(np.asarray(z, dtype=complex).real).ravel()
    lo = band_set.lower_edges()
    hi = band_set.upper_edges()
    codes = np.empty(x.shape, dtype=int)
    gap_idx = np.full(x.shape, -1, dtype=int)
    idx = np.searchsorted(lo, x, side="right") - 1
    below = idx < 0
    codes[below] = moebius._HALFPLANE
    rest = ~below
    in_band = rest & (x <= hi[np.clip(idx, 0, len(hi) - 1)])
    if band_set.terminal_ray:
        in_band |= rest & (x >= band_set.ray_start)
    codes[in_band] = moebius._BAND
    in_gap = rest & ~in_band
    if np.any(in_gap):
        k = idx[in_gap]
        last_gap_ok = band_set.terminal_ray
        if not last_gap_ok and np.any(k >= band_set.num_bands - 1):
            raise ValidityCapError(
                "Re z beyond the last band of a truncated set cannot be "
                f"classified (validity_cap={band_set.validity_cap})",
                cap=band_set.validity_cap,
            )
        codes[in_gap] = moebius._GAP
        gap_idx[in_gap] = k
    return codes, gap_idx


def _generator(bits, seed):
    """A Generator on PCG64 or PCG64DXSM; "PCG64-half-held" has drawn one
    float32, so its bit generator holds the unused half of a 64-bit output."""
    if bits == "PCG64-half-held":
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"]
        return rng
    return np.random.Generator(getattr(np.random, bits)(seed))


def _default_sampler(mob, rng, size):
    lo, hi = np.log(moebius._SAMPLE_RADII[0]), np.log(moebius._SAMPLE_RADII[1])
    r = np.exp(rng.uniform(lo, hi, size))
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    return mob.omega + r * np.exp(1j * theta)


def _region_filter(z, band_set, variant):
    keep = np.isfinite(z)
    if not band_set.terminal_ray:
        keep &= z.real <= band_set.validity_cap
    zk = z[keep]
    codes, _ = _ref_region_codes(zk, band_set)
    keep[keep] = ((codes != moebius._BAND) | (zk.imag != 0.0)) & moebius._REGIONS[variant][0][codes]
    return keep


def _reference_verify(band_set, mob, variant, n, rng, tolerance):
    max_attempts = max(1_000_000, 2000 * n)
    accepted = []
    total_kept = 0
    rejected = 0
    attempts = 0
    while total_kept < n and attempts < max_attempts:
        size = min(max(4 * (n - total_kept), 4096), 1 << 20)
        z = np.asarray(_default_sampler(mob, rng, size), dtype=complex)
        attempts += z.size
        keep = _region_filter(z, band_set, variant)
        rejected += int(z.size - keep.sum())
        kept = z[keep][: n - total_kept]
        if kept.size:
            accepted.append(kept)
            total_kept += kept.size
    z = np.concatenate(accepted)
    ratio = moebius.distortion_ratio(z, band_set, mob)
    bound = moebius.distortion_bound(z, band_set, mob, variant)
    quotient = ratio / bound
    bad = quotient < 1.0 - tolerance
    violations = [
        {"z": [float(w.real), float(w.imag)], "ratio": float(r), "bound": float(b)}
        for w, r, b in zip(z[bad], ratio[bad], bound[bad])
    ]
    return moebius.VerificationReport(
        variant=variant, omega=mob.omega, samples=int(n), rejected=rejected,
        min_quotient=float(np.min(quotient)), tolerance=tolerance, violations=violations,
    )


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


def _pairwise_dist_to_image(lam, image):
    """Every interval, the ray image and the origin, in any order."""
    ls = np.asarray(lam, dtype=complex)
    ivals = list(image.intervals)
    if image.ray_alpha is not None:
        ivals.append((0.0, image.ray_alpha))
    if image.accumulation_at_zero:
        ivals.append((0.0, 0.0))
    lo, hi = np.array(ivals, dtype=float).T
    return pairwise_interval_dist(ls.real, ls.imag, lo, hi)


class TestDistToImageTwoNeighbours:
    @given(ivals=sorted_intervals(min_value=0.0), data=st.data(), ray=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_image_bands(self, ivals, data, ray):
        lo, hi = ivals
        ray_start = hi[-1] + data.draw(st.floats(1e-6, 1e3)) if ray else None
        I = bandset.validate(list(zip(lo, hi)), ray_start=ray_start)
        mob = moebius.MoebiusMap(lo[0] - data.draw(st.floats(1e-3, 1e3)))
        try:
            img = moebius.image_bands(I, mob)
        except NumericalError:  # neighbouring edges mapped to one float
            assume(False)
        ilo, ihi = np.array(sorted(img.intervals + ((0.0, img.ray_alpha or 0.0),))).T
        x, y = edge_probes(data.draw, ilo, ihi)
        lam = x + 1j * y
        got = moebius.dist_to_image(lam, img)
        assert got.tobytes() == _pairwise_dist_to_image(lam, img).tobytes()

    @given(ivals=sorted_intervals(), data=st.data(), ray=st.booleans(),
           shuffle=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_hand_built(self, ivals, data, ray, shuffle):
        lo, hi = ivals
        pairs = list(zip(lo.tolist(), hi.tolist()))
        if shuffle:  # any order, overlaps and nesting included
            pairs = data.draw(st.permutations(pairs + [(lo[0], hi[-1])]))
        img = moebius.MoebiusImage(
            intervals=tuple(pairs), accumulation_at_zero=True,
            ray_alpha=abs(data.draw(st.floats(1e-6, 1e3))) if ray else None,
        )
        x, y = edge_probes(data.draw, lo, hi)
        lam = np.concatenate([x, [0.0, 1e-300]]) + 1j * np.concatenate([y, [0.0, 0.0]])
        got = moebius.dist_to_image(lam, img)
        assert got.tobytes() == _pairwise_dist_to_image(lam, img).tobytes()


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


# every variant, shift and ray on PCG64; each variant once on PCG64DXSM
# and on a PCG64 holding a buffered 32-bit half
_REFERENCE_CASES = [
    *((v, w, ray, "PCG64") for v in moebius.VARIANTS for w in (0.0, -0.5, -5.0)
      for ray in (False, True)),
    *((v, -0.5, False, bits) for bits in ("PCG64DXSM", "PCG64-half-held")
      for v in moebius.VARIANTS),
]


def _peak_memory(variant, omega, n):
    """tracemalloc peak of one verify_distortion call on the q = 2 set."""
    I = bandset.validate(_MATHIEU_Q2_EDGES)
    rng = np.random.default_rng(1)  # outside: numpy.random is imported lazily
    tracemalloc.start()
    try:
        moebius.verify_distortion(I, moebius.MoebiusMap(omega), variant, n=n, rng=rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("variant", moebius.VARIANTS)
    @pytest.mark.parametrize("omega, kwargs, words", [
        (-math.inf, {}, "omega=-inf must be finite"),
        (math.nan, {}, "omega=nan must be finite"),
        (-0.5, {"tolerance": math.nan}, "tolerance=nan"),
        (-0.5, {"tolerance": math.inf}, "tolerance=inf"),
        (-0.5, {"n": -1}, "n=-1"),
    ], ids=["omega-minus-inf", "omega-nan", "tolerance-nan", "tolerance-inf", "n-negative"])
    def test_refused_before_first_draw(self, three_bands, variant, omega, kwargs, words):
        # omega = -inf once drew 1,003,520 points and exited 4; at tolerance
        # NaN or inf no quotient could count as a violation
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(PreconditionError, match=words):
            moebius.verify_distortion(three_bands, moebius.MoebiusMap(omega), variant,
                                      rng=rng, **kwargs)
        assert rng.bit_generator.state == state

    def test_sampler_never_admissible_raises(self, rng):
        # the draws keep |z| <= 1e3, so the gap (2001, 2002) is out of reach
        I = bandset.validate([(2000, 2001), (2002, 2003)])
        with pytest.raises(NumericalError, match="0/10 admissible"):
            moebius.verify_distortion(I, moebius.MoebiusMap(0.0), "gap", n=10, rng=rng)

    @pytest.mark.parametrize("ray", [False, True])
    def test_off_set_mask_matches_distance(self, rng, ray):
        # _admits reads theta; the oracle reads z = x + i r sin(theta)
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        edges = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0] + ([10.0] if ray else []))
        real_axis = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            rng.uniform(-2.0, 14.0, 2000),  # half-plane, bands, gaps, ray
        ])
        x = np.concatenate([real_axis, edges, rng.uniform(-2.0, 14.0, 2000)])
        y = np.concatenate([np.zeros(real_axis.size), np.full(edges.size, 1e-300),
                            rng.normal(0.0, 1.0, 2000)])
        theta = np.arctan2(y, 1.0) % (2.0 * np.pi)
        r = np.hypot(1.0, y)
        # on band-coded x: theta = 0, the least positive double, and fl(pi)
        band_x = np.concatenate([edges, [1.5, 3.5, 7.0]])
        x = np.concatenate([x, np.tile(band_x, 3)])
        theta = np.concatenate([theta, np.repeat([0.0, np.nextafter(0.0, 1.0), np.pi],
                                                 band_x.size)])
        r = np.concatenate([r, np.ones(3 * band_x.size)])
        z = x + 1j * (r * np.sin(theta))
        keep = moebius._admits(x, theta, I, "uniform")
        valid = np.isfinite(z) & (ray or z.real <= I.validity_cap)
        assert np.array_equal(keep[valid], bandset.dist_to_bands(z[valid], I) > 0.0)
        assert not np.any(keep[~valid])
        assert 0 < keep.sum() < z.size

    @pytest.mark.parametrize("variant, omega, ray, bits", _REFERENCE_CASES,
                             ids=[f"{v}-{w}-{ray}" + ("" if bits == "PCG64" else f"-{bits}")
                                  for v, w, ray, bits in _REFERENCE_CASES])
    def test_matches_reference_loop(self, ray, omega, variant, bits):
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        mob = moebius.MoebiusMap(omega)
        rng_got, rng_want = (_generator(bits, 7) for _ in range(2))
        got = moebius.verify_distortion(I, mob, variant, n=1500, tolerance=-math.inf,
                                        rng=rng_got)
        want = _reference_verify(I, mob, variant, n=1500, tolerance=-math.inf,
                                 rng=rng_want)
        assert len(got.violations) == got.samples == 1500  # every kept z is listed
        assert got == want
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("ray", [False, True])
    @pytest.mark.parametrize("variant", moebius.VARIANTS)
    def test_matches_reference_loop_across_chunks(self, monkeypatch, ray, variant):
        # the chunk size is not seen in a report: at 1024, a first batch of
        # 4 n = 10000 draws is 9 whole chunks and a partial one, and the n
        # samples are checked in 9 whole buffers of 256 and a partial one
        monkeypatch.setattr(moebius, "_CHUNK", 1024)
        n = 2500
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        mob = moebius.MoebiusMap(-0.5)
        rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
        got = moebius.verify_distortion(I, mob, variant, n=n, tolerance=-math.inf,
                                        rng=rng_got)
        want = _reference_verify(I, mob, variant, n=n, tolerance=-math.inf, rng=rng_want)
        assert len(got.violations) == n
        assert (got.rejected, got.min_quotient) == (want.rejected, want.min_quotient)
        same = json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert same  # no diff of two long reports on failure
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_share_of_draws_reaching_cos(self, monkeypatch):
        # draws with Re z < a_1 for sure, and uniform draws off the real axis
        # below the validity cap, are decided on r and theta; the shares of
        # all draws that take a cos first measured 0.186, 0.255 and 0.128
        seen, draws = [], []
        admits, reach = moebius._admits, moebius._may_reach_a1

        def counted_admits(x, *args):
            seen.append(x.size)
            return admits(x, *args)

        def counted_reach(r, *args):  # sees every draw once
            draws.append(r.size)
            return reach(r, *args)

        monkeypatch.setattr(moebius, "_admits", counted_admits)
        monkeypatch.setattr(moebius, "_may_reach_a1", counted_reach)
        I = bandset.validate(_MATHIEU_Q2_EDGES)
        for variant, omega, share in [("gap", -5.0, 0.20), ("halfplane", 0.0, 0.27),
                                      ("uniform", 0.0, 0.14)]:
            seen.clear()
            draws.clear()
            report = moebius.verify_distortion(I, moebius.MoebiusMap(omega), variant,
                                               n=10_000, rng=np.random.default_rng(1))
            assert sum(draws) >= report.samples + report.rejected
            assert 0 < sum(seen) <= share * sum(draws), variant

    def test_peak_memory(self):
        # two chunk buffers of draws (512 KiB), the kept indices of a chunk
        # and one 8192-sample buffer with its checks: 1.2-1.5 MiB.  Holding
        # a round's log r block and every kept z peaked at 5.5-6.1 MiB
        for variant in moebius.VARIANTS:
            for omega in (0.0, -0.5, -5.0):
                assert _peak_memory(variant, omega, 100_000) < 2.5 * 2**20, (variant, omega)

    def test_peak_memory_million_samples(self):
        # the same bound at 2 10^6 samples: no array grows with n.  Holding
        # the log r block and every kept z peaked at 24.8 MiB for 10^6
        assert _peak_memory("uniform", 0.0, 2_000_000) < 2.5 * 2**20

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.SFC64,
                                      np.random.Philox])
    def test_refuses_generators_that_cannot_jump(self, three_bands, bits):
        # MT19937 and SFC64 have no advance(); Philox buffers its outputs,
        # so its jump is not the same as drawing
        rng = np.random.Generator(bits(1))
        state = pickle.dumps(rng.bit_generator.state)  # it holds arrays
        with pytest.raises(PreconditionError, match=bits.__name__):
            moebius.verify_distortion(three_bands, moebius.MoebiusMap(-0.5), rng=rng)
        assert pickle.dumps(rng.bit_generator.state) == state

    @pytest.mark.parametrize("variant, omega, rejected, min_quotient", [
        ("halfplane", 0.0, 61288, 3.000100347556378),
        ("gap", 0.0, 1846239, 2.000501834653841),
        ("uniform", 0.0, 40742, 13.791576846474243),
        ("halfplane", -0.5, 56487, 3.00009865333915),
        ("gap", -0.5, 2372921, 2.000023408476611),
        ("uniform", -0.5, 40494, 13.791569058092392),
        ("halfplane", -5.0, 44546, 3.000085908750238),
        ("gap", -5.0, 6683158, 2.000466354560915),
        ("uniform", -5.0, 38557, 13.791510470726308),
    ])
    def test_workload_stream_pinned(self, variant, omega, rejected, min_quotient):
        # the nine distortion-verify configs at seed 1, as drawing whole
        # log r blocks reported them
        I = bandset.validate(_MATHIEU_Q2_EDGES)
        report = moebius.verify_distortion(I, moebius.MoebiusMap(omega), variant,
                                           n=100_000, rng=np.random.default_rng(1))
        assert (report.rejected, report.min_quotient) == (rejected, min_quotient)
        assert report.violations == []

    def test_report_json_shape(self, three_bands, rng):
        report = moebius.verify_distortion(
            three_bands, moebius.MoebiusMap(-0.5), "uniform", n=100, rng=rng
        )
        doc = report.to_json()
        assert set(doc) >= {"samples", "rejected", "violations", "min_quotient"}
        assert doc["samples"] == 100


def _ladder(v):
    """v and its three float neighbours on each side."""
    out = [v]
    for _ in range(3):
        out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
    return np.array(out)


def _r_theta_probes(rng, I, omega):
    """(r, theta): r where fl(omega + r) crosses a_1 and the validity cap, on
    a wide log grid, at the theta window's corners and at theta = 0, plus
    random draws from the sampler's ranges."""
    m = moebius._THETA_MARGIN
    corners = np.array([0.5 * np.pi, 0.5 * np.pi + m, 1.5 * np.pi, 1.5 * np.pi - m])
    theta = np.concatenate([
        [0.0, np.nextafter(0.0, 1.0), 1e-9, np.pi, np.nextafter(2.0 * np.pi, 0.0)],
        corners, np.nextafter(corners, 0.0), np.nextafter(corners, np.inf),
    ])
    r_edges = [_ladder(I.a1 - omega)]
    if np.isfinite(I.validity_cap):
        r_edges.append(_ladder(I.validity_cap - omega))
    for ladder, edge in zip(r_edges, (I.a1, I.validity_cap)):
        s = omega + ladder  # fl(omega + r) below, at and above the edge
        assert s.min() < edge and np.any(s == edge) and s.max() > edge
    # |cos theta| >= 6e-17 at these theta, so r up to 1e18 reaches every gap
    r = np.concatenate([*r_edges, np.geomspace(1e-3, 1e18, 400)])
    r, theta = (a.ravel() for a in np.meshgrid(r, theta))
    r = np.concatenate([r, np.exp(rng.uniform(*np.log(moebius._SAMPLE_RADII), 20_000))])
    theta = np.concatenate([theta, rng.uniform(0.0, 2.0 * np.pi, 20_000)])
    return r, theta


class TestMayReachA1:
    """The decisions on r and theta agree with _admits on the exact Re z."""

    @pytest.mark.parametrize("ray", [False, True])
    @pytest.mark.parametrize("omega", [0.0, -0.5, -5.0])
    def test_keeps_every_admitted_draw(self, rng, ray, omega):
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        r, theta = _r_theta_probes(rng, I, omega)
        admitted = moebius._admits(moebius._real_part(r, theta, omega), theta, I, "gap")
        keep = moebius._may_reach_a1(r, theta, omega, I.a1)
        assert admitted.any() and not np.all(keep)
        assert np.all(keep[admitted])

    @pytest.mark.parametrize("variant", moebius.VARIANTS)
    @pytest.mark.parametrize("ray", [False, True])
    @pytest.mark.parametrize("omega", [0.0, -0.5, -5.0])
    def test_decide_matches_exact_classification(self, rng, variant, ray, omega):
        I = bandset.validate([(1, 2), (3, 4), (6, 8)], ray_start=10.0 if ray else None)
        r, theta = _r_theta_probes(rng, I, omega)
        exact = moebius._admits(moebius._real_part(r, theta, omega), theta, I, variant)
        keep, undecided = moebius._decide(r, theta, omega, I, variant)
        assert not np.any(keep & undecided)
        assert np.array_equal(keep[~undecided], exact[~undecided])
        assert undecided.any() and not undecided.all()
