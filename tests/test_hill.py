import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # the interpolant dips to its least sample only at that node,
        # which the probe grid need not hit
        with pytest.raises(HypothesisViolationError, match="nonnegative"):
            hill.from_samples([1.0, -1e-6, 1.0], 1.0)
        hill.from_samples([1.0, -1e-13, 1.0], 1.0)  # rounding, as from_callable

    def test_non_periodic_rejected(self):
        with pytest.raises(ValidationError, match="periodic"):
            hill.from_callable(lambda x: np.asarray(x, dtype=float), 1.0)

    def test_cosine_negative_amplitude_rejected(self):
        with pytest.raises(HypothesisViolationError):
            hill.cosine(-1.0)

    def test_sup_norm(self):
        assert hill.cosine(2.0).sup_norm == 4.0
        assert hill.free(1.0).sup_norm == 0.0
        # the largest sample, which the probe grid need not hit
        assert hill.from_samples([0.0, 3.0, 1.0, 5.0, 0.5], 1.7).sup_norm == 5.0

    def test_from_samples_interpolates(self):
        x = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        V = hill.from_samples(1.0 + np.cos(x), 2 * math.pi)
        probe = np.array([0.1, 1.7, 5.0])
        assert np.allclose(V.evaluate(probe), 1.0 + np.cos(probe), atol=1e-3)


def _monodromy(V, E, steps=None):
    return hill._monodromy_batch(V, np.array([E]), steps)[0][:, :, 0]


def _trace(m):
    return m[0, 0] + m[1, 1]


def _det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _reference_monodromy(V0, energies, steps):
    """The sequential RK4 loop: one Python iteration per step.  Also returns
    the sign changes of y2 over all steps, the zeros of y2 in (0, T)."""
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    h = V0.period / steps
    x = np.arange(steps + 1) * h
    v_node = np.asarray(V0.evaluate(x), dtype=float)
    v_mid = np.asarray(V0.evaluate(x[:-1] + 0.5 * h), dtype=float)

    y = np.zeros((2, E.size))
    w = np.zeros((2, E.size))
    y[0] = 1.0
    w[1] = 1.0
    count = np.zeros(E.size, dtype=int)
    for i in range(steps):
        c0 = v_node[i] - E
        cm = v_mid[i] - E
        c1 = v_node[i + 1] - E
        k1y = w
        k1w = c0 * y
        k2y = w + 0.5 * h * k1w
        k2w = cm * (y + 0.5 * h * k1y)
        k3y = w + 0.5 * h * k2w
        k3w = cm * (y + 0.5 * h * k2y)
        k4y = w + h * k3w
        k4w = c1 * (y + h * k3y)
        neg = y[1] < 0.0
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        count += neg != (y[1] < 0.0)

    out = np.empty((2, 2, E.size))
    out[0, 0] = y[0]
    out[0, 1] = y[1]
    out[1, 0] = w[0]
    out[1, 1] = w[1]
    return out, count


# 1024 = 32 * 32 fills every block; the others leave a short last block.
# Each e_max is a test config's, lowered where 1000 steps fail the
# Wronskian check (cos q = 1 to e_max 12 does).
_BLOCK_STEPS = pytest.mark.parametrize("steps", [1000, 1024, 1423, 4142, 7211])
_BLOCK_POTENTIALS = pytest.mark.parametrize("V0, e_max", [
    (hill.cosine(1.0), 10.0),
    (hill.cosine(2.0), 9.0),
    (hill.free(1.0), 50.0),
    (hill.from_samples([0.0, 2e4], 0.01), 1.2e6),
    (hill.from_samples([0.0, 1.0, 3.0, 0.5, 2.0], 1.0), 50.0),
], ids=["cos-q1", "cos-q2", "free", "float-resolution", "five-samples"])


class TestMonodromy:
    def test_free_zero_energy(self):
        m = _monodromy(hill.free(1.0), 0.0)
        assert np.allclose(m, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        assert _trace(m) == pytest.approx(2.0)

    def test_free_pi_squared(self):
        m = _monodromy(hill.free(1.0), math.pi**2)
        assert _trace(m) == pytest.approx(-2.0, abs=1e-8)

    def test_free_four_pi_squared(self):
        m = _monodromy(hill.free(1.0), 4 * math.pi**2)
        assert _trace(m) == pytest.approx(2.0, abs=1e-8)

    def test_determinant_one(self):
        # below the spectrum the entries blow up and eps*|M|^2 cancellation
        # dominates the computed Wronskian; scale the tolerance accordingly
        V = hill.cosine(1.0)
        for E in np.linspace(-1, 40, 50):
            m = _monodromy(V, float(E))
            tol = max(1e-10, 1e-13 * (1.0 + float((m**2).sum())))
            assert abs(_det(m) - 1.0) < tol

    def test_determinant_one_free_strict(self):
        V = hill.free(1.0)
        for E in np.linspace(0, 100, 40):
            assert abs(_det(_monodromy(V, float(E))) - 1.0) < 1e-10

    def test_too_few_steps_rejected(self):
        with pytest.raises(PreconditionError):
            _monodromy(hill.free(1.0), 1.0, steps=50)

    def test_non_finite_energy_raises(self):
        # refused before any sampling, with or without explicit steps, and
        # by default_steps, where int(ceil(nan)) would raise ValueError
        V = hill.cosine(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for steps in (None, 1000):
                with pytest.raises(PreconditionError, match=f"energy {bad} is not finite"):
                    hill._monodromy_batch(V, np.array([1.0, bad]), steps)
            with pytest.raises(PreconditionError, match=f"energy {bad} is not finite"):
                hill.default_steps(bad, V.period)

    @_BLOCK_STEPS
    @_BLOCK_POTENTIALS
    def test_blocks_match_sequential_loop(self, V0, e_max, steps):
        # the block product reassociates the step products, so the
        # entries agree with the sequential loop at rounding level only
        E = np.linspace(-1.0, e_max, 41)
        m, _ = hill._monodromy_batch(V0, E, steps)
        ref, _ = _reference_monodromy(V0, E, steps)
        scale = 1.0 + np.sqrt((ref * ref).sum(axis=(0, 1)))
        assert np.all(np.abs(m - ref) <= 1e-11 * scale)

    @_BLOCK_STEPS
    @_BLOCK_POTENTIALS
    def test_count_matches_sequential_loop(self, V0, e_max, steps):
        # sign changes of y2 at the block ends against those at every step
        E = np.linspace(-1.0, e_max, 41)
        _, count = hill._monodromy_batch(V0, E, steps)
        _, ref = _reference_monodromy(V0, E, steps)
        assert np.array_equal(count, ref)

    def test_count_free_closed_form(self):
        # the Dirichlet eigenvalues of period T are (k pi / T)^2
        for T in (1.0, 2.5):
            E = np.linspace(-1.0, 50.0, 203)
            _, count = hill._monodromy_batch(hill.free(T), E)
            expected = np.where(E > 0.0, np.ceil(np.sqrt(np.maximum(E, 0.0)) * T / math.pi) - 1, 0)
            assert np.array_equal(count, expected)

    def test_blocks_shorter_than_zero_spacing(self):
        # zeros of y2 lie at least pi / sqrt(E - min V0) <= pi / sqrt(E)
        # apart, so at most one falls in a block of L steps while the
        # phase sqrt(E) T over one block stays below pi; every step count
        # default_steps admits, at the largest phase it sizes that count for
        worst = 0.0
        for steps in range(1000, hill._MAX_STEPS + 1):
            phase = (steps / 80.0) ** 0.8
            assert hill.default_steps((phase * (1 - 1e-12)) ** 2, 1.0) <= steps
            worst = max(worst, phase * (math.isqrt(steps - 1) + 1) / steps)
        assert worst < math.pi

    def test_chunks_bound_memory(self):
        # 20000 energies at 1000 steps: 32 blocks, chunks of 256 lanes;
        # one unchunked pass would hold about 10 MB per RK4 array
        V = hill.cosine(1.0)
        E = np.linspace(-1.0, 1.0, 20000)
        tracemalloc.start()
        try:
            hill._monodromy_batch(V, E, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 2.5 MB: the 0.64 MB (2, 2, n) output and its Wronskian
        # check, plus about 1.5 MB of one chunk's RK4 arrays
        assert peak < 4_000_000


class TestGapSide:
    @pytest.mark.parametrize("period, k", [(0.01, 1), (1.0, 1), (1.0, 3), (2 * math.pi, 5)])
    def test_closed_gap_window_in_band(self, period, k):
        # energies within 1e-7 (relative) of nu_k = (k pi / T)^2, the
        # window where rounding can push |D| past 2
        V0 = hill.free(period)
        nu = (k * math.pi / period) ** 2
        E = nu * (1.0 + np.linspace(-1e-7, 1e-7, 401))
        m, _ = hill._monodromy_batch(V0, E, hill.default_steps(1.5 * nu, period))
        assert np.all(hill._gap_side(m) == 0.0)

    def test_sides_of_mathieu_gaps(self):
        # q = 2: below the spectrum and in gap k, sign D = (-1)^k; bands
        # 1 and 4; gap 5 is the narrowest below 9 (3.3e-3 wide at 8.334)
        V0 = hill.cosine(2.0)
        m, _ = hill._monodromy_batch(V0, np.array([-1.0, 0.93, 1.5, 3.0, 5.0, 8.3343]))
        assert hill._gap_side(m).tolist() == [1.0, 0.0, -1.0, 1.0, 0.0, -1.0]


class TestDiscriminant:
    def test_free_closed_form_positive(self):
        V = hill.free(1.0)
        E = np.linspace(0.0, 100.0, 200)
        D = _trace(hill._monodromy_batch(V, E)[0])
        assert np.max(np.abs(D - 2.0 * np.cos(np.sqrt(E)))) < 1e-8

    def test_free_closed_form_negative(self):
        V = hill.free(1.0)
        assert _trace(_monodromy(V, -1.0)) == pytest.approx(2.0 * math.cosh(1.0), abs=1e-8)

    def test_frozen_values(self):
        V = hill.free(1.0)
        assert _trace(_monodromy(V, 100.0)) == pytest.approx(-1.6781430581529051, abs=1e-8)

    def test_returns_real_floats(self):
        m, count = hill._monodromy_batch(hill.cosine(0.5), 3.0)
        assert m.shape == (2, 2, 1)
        assert m.dtype == np.float64
        assert count.shape == (1,)


_MAX_SWEEPS = 80


@pytest.fixture
def sweeps(monkeypatch):
    """Batch size of every ``_monodromy_batch`` sweep, in call order; a run
    past ``_MAX_SWEEPS`` sweeps fails as a bracketing loop that never stops."""
    sizes = []
    batch = hill._monodromy_batch

    def counted(V0, energies, steps=None):
        sizes.append(np.atleast_1d(energies).size)
        if len(sizes) > _MAX_SWEEPS:
            raise AssertionError("edge bracketing did not stop")
        return batch(V0, energies, steps)

    monkeypatch.setattr(hill, "_monodromy_batch", counted)
    return sizes


def _sweep_bound(e_max):
    """Sweeps of plain bisection: the first, then one per halving of the
    widest open pair from e_max + 1 down to 1e-10.  ``hill._sweep`` is
    capped at twice this; no reference config needs more than this."""
    return 1 + math.ceil(math.log2((e_max + 1.0) / 1e-10))


class TestBandEdges:
    def test_free_single_truncated_band(self):
        I, meta = hill.band_edges_report(hill.free(1.0), 50.0)
        assert I.num_bands == 1
        a, b = I.edges[0]
        assert abs(a) < 1e-9
        assert b == 50.0
        assert meta["truncated_at_e_max"]
        # one verdict flip, at 0; the closed gaps at (k pi)^2 add no edge
        assert meta["edges_found"] == 1
        assert not I.terminal_ray
        assert I.validity_cap == 50.0

    @pytest.mark.parametrize("period, e_max", [(0.01, 1.2e6), (2 * math.pi, 253.3),
                                               (1.0, 900.0), (1e-3, 10.0), (1e-6, 10.0),
                                               (1e-9, 10.0)],
                             ids=["period-0.01", "period-2pi", "period-1", "period-1e-3",
                                  "period-1e-6", "period-1e-9"])
    def test_free_closed_gaps_stay_closed(self, sweeps, period, e_max):
        # the count bisection probes every closed gap at nu_k, where
        # rounding lifts |D| above 2 on a window up to 8.7e-3 wide (period
        # 0.01 at nu_1); none of it may open a gap or a merged one.  Below
        # 0, D - 2 ~ |E| T^2 drowns in the rounding of D at tiny periods;
        # no band may start there
        I, meta = hill.band_edges_report(hill.free(period), e_max)
        assert I.edges == ((0.0, e_max),) and meta["truncated_at_e_max"]
        assert meta["edges_found"] == 1
        assert meta["merged_gaps"] == [] and meta["dropped_slivers"] == []
        assert len(sweeps) <= _sweep_bound(e_max)

    def test_below_first_band_errors(self):
        with pytest.raises(NumericalError, match="no band"):
            hill.band_edges_report(hill.cosine(2.0), 0.5)

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
        I, _ = hill.band_edges_report(hill.cosine(1.0), 12.0)
        lo = I.lower_edges()
        hi = I.upper_edges()
        gaps = lo[1:] - hi[:-1]
        assert len(gaps) >= 3
        assert np.all(np.diff(gaps) < 0)

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            hill.band_edges_report(hill.free(1.0), -3.0)

    def test_classification_constant_on_refinement(self):
        # between consecutive edges the in-band/in-gap verdict must not
        # flip when the grid is refined (sub-resolution gap excursions
        # stay within the merge scale)
        V0 = hill.cosine(1.0, 2 * math.pi)
        I, _ = hill.band_edges_report(V0, 8.0)
        lo = I.lower_edges()
        hi = I.upper_edges()
        for a, b in zip(lo, hi):
            inner = np.linspace(a + 1e-6, b - 1e-6, 60)
            assert np.all(np.abs(_trace(hill._monodromy_batch(V0, inner)[0])) <= 2.0 + 1e-6)
        for b, a_next in zip(hi[:-1], lo[1:]):
            inner = np.linspace(b + 1e-8, a_next - 1e-8, 60)
            assert np.all(np.abs(_trace(hill._monodromy_batch(V0, inner)[0])) > 2.0 - 1e-12)

    def test_bisection_stops_at_float_resolution(self, sweeps):
        # edges near 9e5 sit where one float spacing exceeds the 1e-10
        # edge tolerance; a tolerance-only stop bisects until the fixture
        # cuts it off after _MAX_SWEEPS (the run takes 55 sweeps)
        I, _ = hill.band_edges_report(hill.from_samples([0.0, 2e4], 0.01), 1.2e6)
        assert I.edges[-1][0] > 2.0**19

    def test_count_brackets_stop_at_float_resolution(self, sweeps):
        # period 0.01 closes the third gap at nu_3 = (3 pi / 0.01)^2 = 8.9e5,
        # where one float spacing exceeds 1e-10: the pair holding it runs to
        # the relative stop width, an absolute one never ends
        V0, e_max = hill.free(0.01), 1.2e6
        swept, _ = hill._sweep(V0, e_max, hill.default_steps(e_max, V0.period))
        nu3 = (3.0 * math.pi / 0.01) ** 2
        assert np.min(np.abs(swept - nu3)) < 1e-10 * (1.0 + nu3)
        # count pairs bisect, and the one edge, at 0, has an end below 0
        assert len(sweeps) <= _sweep_bound(e_max)

    @pytest.mark.parametrize("q, e_max, most, rounds", [(2.0, 9.0, 130, 28), (1.0, 4.0, 80, 20)],
                             ids=["mathieu-q2", "cos-q1"])
    def test_integrated_energies(self, sweeps, q, e_max, most, rounds):
        # past a fixed Python overhead of a few ms, a sweep costs its batch
        # size; the runs take 26 sweeps of 123 energies (q = 2) and 18 of
        # 74 (q = 1), where bisection alone took 38 of 363 and 37 of 232
        I, meta = hill.band_edges_report(hill.cosine(q), e_max)
        assert sum(sweeps) == meta["scan_points"] <= most
        assert len(sweeps) <= rounds

    def test_step_budget_caps_sweeps(self, monkeypatch, sweeps):
        # D outside [-2, 2] moved 1e12 times further from +/-2, with the
        # entry discriminant and so every verdict unchanged: a secant
        # through a gap end then lands next to the band end, and a pair
        # exhausts its interpolation steps and bisects the rest of the way
        V0, e_max = hill.cosine(2.0), 9.0
        I_ref, meta_ref = hill.band_edges_report(V0, e_max)
        batch = hill._monodromy_batch

        def steep(V, energies, steps=None):
            m, count = batch(V, energies, steps)
            d = m[0, 0] + m[1, 1]
            lift = 0.5 * (1e12 - 1.0) * np.where(np.abs(d) > 2.0, d - 2.0 * np.sign(d), 0.0)
            m[0, 0] += lift
            m[1, 1] += lift
            return m, count

        sweeps.clear()
        monkeypatch.setattr(hill, "_monodromy_batch", steep)
        I, meta = hill.band_edges_report(V0, e_max)
        assert _sweep_bound(e_max) < len(sweeps) <= 2 * _sweep_bound(e_max)
        assert meta["edges_found"] == meta_ref["edges_found"]
        assert np.all(np.abs(np.asarray(I.edges) - np.asarray(I_ref.edges))
                      <= 1e-8 * (1.0 + np.abs(np.asarray(I_ref.edges))))

    def test_noisy_edge_stays_within_cap(self, sweeps):
        # near 4.1122 a gap about 5e-7 wide keeps |D| - 2 within 1e-13,
        # near the rounding of D, so secants there make little headway: a
        # pair uses up its steps and bisects, and the run takes 41 sweeps,
        # past the 39 of bisection alone and within the cap of 78
        e_max = 21.071716330991443
        hill.band_edges_report(hill.cosine(0.1117644688518176), e_max)
        assert len(sweeps) <= 2 * _sweep_bound(e_max)


def _reference_d_bisect_edges(V0, brackets, steps):
    """Bisection of the sign changes (lo, hi, +/-2) of D -/+ 2 in the
    scan-and-chase path, D(lo) swept at the bracket starts."""
    if not brackets:
        return []
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    tgt = np.array([b[2] for b in brackets])
    m, _ = hill._monodromy_batch(V0, lo, steps)
    flo = m[0, 0] + m[1, 1] - tgt
    while np.any(hi - lo > np.maximum(hill._EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))):
        mid = 0.5 * (lo + hi)
        m, _ = hill._monodromy_batch(V0, mid, steps)
        fmid = m[0, 0] + m[1, 1] - tgt
        left = (flo * fmid) > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    return list(0.5 * (lo + hi))


def _reference_scan_grid(period, e_max):
    """The scan grid of the scan-and-chase path: energies from -1 to e_max,
    spacing growing like sqrt(E) because edges of the period problem
    spread quadratically."""
    e_ref = (math.pi / period) ** 2
    s0 = 1e-2 * e_ref
    grid = [-1.0]
    e = -1.0
    while e < e_max:
        e = min(e + s0 * max(1.0, math.sqrt(max(e, 0.0) / e_ref)), e_max)
        grid.append(e)
    return np.array(grid)


def _reference_bump_brackets(V0, grid, disc, crossing_cells, steps):
    """The golden-section chase returning (lo, hi, target) brackets,
    without D at their starts."""
    absd = np.abs(disc)
    interior = np.arange(1, grid.size - 1)
    is_max = (absd[interior] >= absd[interior - 1]) & (absd[interior] >= absd[interior + 1])
    near_two = (absd[interior] > 1.95) & (absd[interior] <= 2.0)
    clean = np.array([(i - 1 not in crossing_cells) and (i not in crossing_cells)
                      for i in interior])
    cand = interior[is_max & near_two & clean]
    if cand.size == 0:
        return [], 0
    lo = grid[cand - 1].astype(float)
    hi = grid[cand + 1].astype(float)
    lo0, hi0 = lo.copy(), hi.copy()
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    best_e = grid[cand].astype(float)
    best_f = disc[cand].copy()
    for _ in range(45):
        unresolved = np.abs(best_f) <= 2.0
        if not np.any(unresolved) or np.max(hi - lo) < 1e-10 * (1.0 + np.max(np.abs(hi))):
            break
        m1 = hi - phi * (hi - lo)
        m2 = lo + phi * (hi - lo)
        mm, _ = hill._monodromy_batch(V0, np.concatenate([m1, m2]), steps)
        d = mm[0, 0] + mm[1, 1]
        f1, f2 = d[: m1.size], d[m1.size:]
        take1 = np.abs(f1) >= np.abs(f2)
        hi = np.where(take1, m2, hi)
        lo = np.where(take1, lo, m1)
        e_new = np.where(take1, m1, m2)
        f_new = np.where(take1, f1, f2)
        better = np.abs(f_new) > np.abs(best_f)
        best_e = np.where(better, e_new, best_e)
        best_f = np.where(better, f_new, best_f)
    brackets = []
    opened = np.abs(best_f) > 2.0
    for e_star, f_star, a, b in zip(best_e[opened], best_f[opened], lo0[opened], hi0[opened]):
        tgt = 2.0 if f_star > 0 else -2.0
        brackets.append((float(a), float(e_star), tgt))
        brackets.append((float(e_star), float(b), tgt))
    return brackets, int(cand.size)


def _reference_scan_chase_edges(V0, e_max, steps):
    """Edges by the scan grid, the golden-section chase of gaps narrower
    than a scan cell, and ``_reference_d_bisect_edges``."""
    grid = _reference_scan_grid(V0.period, e_max)
    m, _ = hill._monodromy_batch(V0, grid, steps)
    disc = m[0, 0] + m[1, 1]
    brackets = []
    crossing_cells = set()
    for tgt in (2.0, -2.0):
        f = disc - tgt
        sign_change = np.where(f[:-1] * f[1:] < 0.0)[0]
        brackets.extend((grid[i], grid[i + 1], tgt) for i in sign_change)
        crossing_cells.update(int(i) for i in sign_change)
        exact = np.where(f == 0.0)[0]
        brackets.extend((grid[i], grid[i], tgt) for i in exact if 0 < i < grid.size - 1)
    brackets.extend(_reference_bump_brackets(V0, grid, disc, crossing_cells, steps)[0])
    return _reference_d_bisect_edges(V0, brackets, steps)


def _reference_report(V0, e_max):
    """Band edges and metadata flags by the scan-and-chase edges and the
    assembly that went with them: classify the segment between each two
    consecutive edges by ``_gap_side`` at its midpoint, join touching
    in-band segments, then merge degenerate gaps, clamp the first edge
    to 0 and drop slivers as ``band_edges_report`` does."""
    steps = hill.default_steps(float(e_max + V0.sup_norm), V0.period)
    edges = sorted(set(_reference_scan_chase_edges(V0, e_max, steps)))
    boundaries = [-1.0] + edges + [e_max]
    mids = np.array([0.5 * (a + b) for a, b in zip(boundaries, boundaries[1:])])
    in_band = hill._gap_side(hill._monodromy_batch(V0, mids, steps)[0]) == 0.0
    bands = []
    for seg, inside in enumerate(in_band):
        left, right = boundaries[seg], boundaries[seg + 1]
        if not inside or right <= left:
            continue
        if bands and bands[-1][1] == left:
            bands[-1] = (bands[-1][0], right)
        else:
            bands.append((left, right))
    merged, merged_gaps = [bands[0]], []
    for a, b in bands[1:]:
        if a - merged[-1][1] < hill._DEGENERATE_GAP:
            merged_gaps.append((merged[-1][1], a))
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    merged = [(0.0 if -10.0 * hill._EDGE_TOL < a < 0.0 else a, b) for a, b in merged]
    meta = {
        "edges_found": int(np.sum(in_band[1:] != in_band[:-1])),
        "truncated_at_e_max": bands[-1][1] == e_max,
        "merged_gaps": merged_gaps,
        "dropped_slivers": [(a, b) for a, b in merged if b - a < hill._DEGENERATE_GAP],
    }
    return [(a, b) for a, b in merged if b - a >= hill._DEGENERATE_GAP], meta


_ORACLE_CONFIGS = pytest.mark.parametrize("V0, e_max", [
    (hill.cosine(2.0), 8.0),
    (hill.cosine(2.0), 9.0),
    (hill.cosine(2.0), 30.0),
    (hill.cosine(1.0), 4.0),
    (hill.cosine(1.0), 8.0),
    (hill.cosine(1.0), 10.0),
    (hill.cosine(1.0), 12.0),
    (hill.cosine(0.3), 60.0),
    (hill.cosine(5.0), 100.0),
    (hill.free(1.0), 50.0),
    (hill.from_samples([0.0, 2e4], 0.01), 1.2e6),
    (hill.from_samples([0.0, 3.0, 1.0, 5.0, 0.5], 1.7), 40.0),
], ids=["q2-8", "q2-9", "q2-30", "q1-4", "q1-8", "q1-10", "q1-12", "q0.3-60",
        "q5-100", "free-50", "float-resolution", "five-samples"])


class TestScanAndChaseOracle:
    """The sweep loop against the scan grid and golden-section chase it
    replaced: the same bands, edges within 1e-8 (1 + |E|) and the same
    metadata flags."""

    @_ORACLE_CONFIGS
    def test_bands_match_scan_and_chase(self, V0, e_max):
        I, meta = hill.band_edges_report(V0, e_max)
        edges_ref, meta_ref = _reference_report(V0, e_max)
        assert I.num_bands == len(edges_ref)
        for key in ("edges_found", "truncated_at_e_max"):
            assert meta[key] == meta_ref[key], key
        for got, want in ((I.edges, edges_ref),
                          (meta["merged_gaps"], meta_ref["merged_gaps"]),
                          (meta["dropped_slivers"], meta_ref["dropped_slivers"])):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want)))

    @_ORACLE_CONFIGS
    def test_sweeps_within_bound(self, sweeps, V0, e_max):
        # the regula falsi steps keep every reference config within the
        # sweeps plain bisection needs, under the cap of twice that
        hill.band_edges_report(V0, e_max)
        assert len(sweeps) <= _sweep_bound(e_max)


def bisection_sweep(V0, e_max, steps):
    """The plain bisection loop that the interpolation steps of
    ``hill._sweep`` sped up: every open pair takes its midpoint."""
    e = np.array([-1.0, float(e_max)])
    m, n = hill._monodromy_batch(V0, e, steps)
    side = np.where(e < 0.0, 1.0, hill._gap_side(m))
    K = int(n[-1])
    seen = np.zeros(K + 2, dtype=bool)
    while True:
        gap = n + ((side > 0.0) == (n % 2 == 1))
        seen[np.minimum(gap[side != 0.0], K + 1)] = True
        unseen = np.cumsum(~seen[:K + 1])  # unseen[k]: gaps 0..k holding no energy
        lo, hi = e[:-1], e[1:]
        holds = unseen[np.minimum(n[1:], K)] > unseen[np.minimum(n[:-1], K)]
        work = ((holds & (hi - lo > 1e-10 * (1.0 + np.abs(hi))))
                | ((side[:-1] != side[1:])
                   & (hi - lo > np.maximum(hill._EDGE_TOL, 4.0 * np.spacing(np.abs(hi))))))
        if not np.any(work):
            return e, side
        at = np.flatnonzero(work) + 1
        mid = 0.5 * (lo + hi)[work]
        m, n_mid = hill._monodromy_batch(V0, mid, steps)
        e = np.insert(e, at, mid)
        side = np.insert(side, at, np.where(mid < 0.0, 1.0, hill._gap_side(m)))
        n = np.insert(n, at, n_mid)


def _report_or_error(V0, e_max):
    try:
        return hill.band_edges_report(V0, e_max)
    except NumericalError as exc:
        return exc


@st.composite
def _potentials(draw):
    if draw(st.booleans()):
        return hill.cosine(draw(st.floats(0.1, 5.0)))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=7))
    return hill.from_samples(values, draw(st.floats(0.5, 2.0 * math.pi)))


class TestBisectionOracle:
    """The interpolation steps against plain bisection: the same bands and
    metadata flags, edges within 1e-8 (1 + |E|) as in
    ``TestScanAndChaseOracle``."""

    @settings(max_examples=25, deadline=None)
    @given(V0=_potentials(), e_max=st.floats(1.0, 30.0))
    @example(V0=hill.cosine(2.0), e_max=9.0)
    @example(V0=hill.cosine(0.3), e_max=30.0)
    @example(V0=hill.from_samples([0.0, 3.0, 1.0, 5.0, 0.5], 1.7), e_max=30.0)
    @example(V0=hill.cosine(0.1117644688518176), e_max=21.071716330991443)
    def test_matches_bisection(self, V0, e_max):
        got = _report_or_error(V0, e_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hill, "_sweep", bisection_sweep)
            want = _report_or_error(V0, e_max)
        if isinstance(want, NumericalError):
            assert isinstance(got, NumericalError) and str(got) == str(want)
            return
        (I, meta), (I_ref, meta_ref) = got, want
        assert I.num_bands == I_ref.num_bands
        for key in ("edges_found", "truncated_at_e_max"):
            assert meta[key] == meta_ref[key], key
        for got, want in ((I.edges, I_ref.edges),
                          (meta["merged_gaps"], meta_ref["merged_gaps"]),
                          (meta["dropped_slivers"], meta_ref["dropped_slivers"])):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want)))


class TestSpeculativeRounds:
    """Values reused across sweeps: the verdict at a swept energy decides
    every later round it borders."""

    def test_batch_independence(self):
        # edges do not depend on which pairs share a round only because
        # an energy's monodromy has the same bits alone and inside any
        # batch
        V = hill.cosine(2.0)
        steps = hill.default_steps(13.0, V.period)
        probes = np.array([-1.0, 0.5, 0.932, 2.0, 2.6, 3.0, 4.0, 5.0, 8.3345, 9.0])
        alone = [hill._monodromy_batch(V, probes[k:k + 1], steps)[0][:, :, 0]
                 for k in range(probes.size)]
        # chunks of `width` lanes: sizes around one and two chunks
        blocks = -(-steps // (math.isqrt(steps - 1) + 1))
        width = hill._CHUNK // blocks
        rng = np.random.default_rng(3)
        for size in (probes.size, 23, 37, width - 1, width, width + 1, 2 * width + 3):
            batch = rng.uniform(-1.0, 9.0, size)
            # the last lane, past any full SIMD block and in the last
            # chunk, holds the last probe; second-chunk lanes come first
            lanes = rng.permutation(size - 1)
            lanes = lanes[np.argsort(lanes // width != 1, kind="stable")]
            where = np.append(lanes[: probes.size - 1], size - 1)
            batch[where] = probes
            mixed, _ = hill._monodromy_batch(V, batch, steps)
            for k, j in enumerate(where):
                assert mixed[:, :, j].tobytes() == alone[k].tobytes(), (probes[k], size)


def _reference_chunk(samples, h, tail, E):
    """``hill._monodromy_chunk`` with every RK4 stage written out as one
    expression: the byte oracle for the in-place stages.  The count is
    the same block-end sign count."""
    v_node, v_mid, v_next = samples
    L, B = v_node.shape
    y = np.zeros((2, B, E.size))
    w = np.zeros((2, B, E.size))
    y[0] = 1.0
    w[1] = 1.0
    done = []
    for j in range(L):
        if j == tail:
            done.append(np.stack([y[:, -1], w[:, -1]]))
            y, w = y[:, :-1], w[:, :-1]
        nb = y.shape[1]
        c0 = v_node[j, :nb, None] - E
        cm = v_mid[j, :nb, None] - E
        c1 = v_next[j, :nb, None] - E
        k1y = w
        k1w = c0 * y
        k2y = w + 0.5 * h * k1w
        k2w = cm * (y + 0.5 * h * k1y)
        k3y = w + 0.5 * h * k2w
        k3w = cm * (y + 0.5 * h * k2y)
        k4y = w + h * k3w
        k4w = c1 * (y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    blocks = list(np.stack([y, w]).transpose(2, 0, 1, 3)) + done
    m = blocks[0]
    count = (m[0, 1] < 0.0).astype(int)
    for p in blocks[1:]:
        neg = m[0, 1] < 0.0
        m = p[:, 0, None] * m[0] + p[:, 1, None] * m[1]
        count += neg != (m[0, 1] < 0.0)
    return m, count


def _with_reference_chunk(monkeypatch, f, *args):
    with monkeypatch.context() as m:
        m.setattr(hill, "_monodromy_chunk", _reference_chunk)
        return f(*args)


class TestInPlaceStages:
    """The in-place RK4 stages swap operands only, so every result has the
    bytes of the written-out stage expressions."""

    @_BLOCK_STEPS
    @_BLOCK_POTENTIALS
    def test_blocks_byte_identical(self, monkeypatch, V0, e_max, steps):
        E = np.linspace(-1.0, e_max, 41)
        m, count = hill._monodromy_batch(V0, E, steps)
        ref, ref_count = _with_reference_chunk(monkeypatch, hill._monodromy_batch, V0, E, steps)
        assert m.tobytes() == ref.tobytes()
        assert np.array_equal(count, ref_count)

    def test_chunk_boundaries_byte_identical(self, monkeypatch):
        # the batch sizes of test_batch_independence, around one and two chunks
        V = hill.cosine(2.0)
        steps = hill.default_steps(13.0, V.period)
        width = hill._CHUNK // -(-steps // (math.isqrt(steps - 1) + 1))
        rng = np.random.default_rng(3)
        for size in (10, 23, 37, width - 1, width, width + 1, 2 * width + 3):
            E = rng.uniform(-1.0, 9.0, size)
            m, count = hill._monodromy_batch(V, E, steps)
            ref, ref_count = _with_reference_chunk(monkeypatch, hill._monodromy_batch,
                                                   V, E, steps)
            assert m.tobytes() == ref.tobytes(), size
            assert np.array_equal(count, ref_count), size

    @pytest.mark.parametrize("e_max", [9.0, 30.0])
    def test_band_edges_byte_identical(self, monkeypatch, e_max):
        I, meta = hill.band_edges_report(hill.cosine(2.0), e_max)
        I_ref, meta_ref = _with_reference_chunk(monkeypatch, hill.band_edges_report,
                                                hill.cosine(2.0), e_max)
        assert np.asarray(I.edges).tobytes() == np.asarray(I_ref.edges).tobytes()
        assert meta == meta_ref
