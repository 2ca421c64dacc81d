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
            if len(calls) > 15:
                raise AssertionError("edge bisection did not stop")
            return batch(*args, **kwargs)

        monkeypatch.setattr(hill, "_monodromy_batch", bounded)
        I = hill.band_edges(hill.from_samples([0.0, 2e4], 0.01), 1.2e6)
        assert I.edges[-1][0] > 2.0**19

    @pytest.mark.parametrize("q, e_max, most", [(2.0, 9.0, 10), (1.0, 4.0, 8)],
                             ids=["mathieu-q2", "cos-q1"])
    def test_sweep_count(self, monkeypatch, q, e_max, most):
        # one sweep evaluates several bracketing rounds; the reference
        # loops below, one round per sweep, need 35 (q = 2) and 30 (q = 1)
        calls = []
        batch = hill._monodromy_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return batch(*args, **kwargs)

        monkeypatch.setattr(hill, "_monodromy_batch", counted)
        hill.band_edges_report(hill.cosine(q), e_max)
        assert len(calls) <= most


def _reference_bisect_edges(V0, brackets, steps):
    """One bisection round per sweep, with a sweep at the bracket starts."""
    if not brackets:
        return []
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    tgt = np.array([b[2] for b in brackets])
    m = hill._monodromy_batch(V0, lo, steps)
    flo = m[0, 0] + m[1, 1] - tgt
    while np.any(hi - lo > np.maximum(hill._EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))):
        mid = 0.5 * (lo + hi)
        m = hill._monodromy_batch(V0, mid, steps)
        fmid = m[0, 0] + m[1, 1] - tgt
        left = (flo * fmid) > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    return list(0.5 * (lo + hi))


def _reference_bump_brackets(V0, grid, disc, crossing_cells, steps):
    """One golden-section round per sweep."""
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
        mm = hill._monodromy_batch(V0, np.concatenate([m1, m2]), steps)
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


class TestSpeculativeRounds:
    def test_batch_independence(self):
        # several rounds share one sweep only because an energy's
        # monodromy has the same bits alone and inside any batch
        V = hill.cosine(2.0)
        steps = hill.default_steps(13.0, V.period)
        probes = np.array([-1.0, 0.5, 0.932, 2.0, 2.6, 3.0, 4.0, 5.0, 8.3345, 9.0])
        alone = [hill._monodromy_batch(V, probes[k:k + 1], steps)[:, :, 0]
                 for k in range(probes.size)]
        rng = np.random.default_rng(3)
        for size in (probes.size, 23, 37):
            batch = rng.uniform(-1.0, 9.0, size)
            # the last lane, past any full SIMD block, holds the last probe
            where = np.append(rng.permutation(size - 1)[: probes.size - 1], size - 1)
            batch[where] = probes
            mixed = hill._monodromy_batch(V, batch, steps)
            for k, j in enumerate(where):
                assert mixed[:, :, j].tobytes() == alone[k].tobytes(), (probes[k], size)

    @pytest.mark.parametrize("V0, e_max", [
        (hill.cosine(2.0), 9.0),
        (hill.cosine(1.0), 12.0),
        (hill.from_samples([0.0, 2e4], 0.01), 1.2e6),
    ], ids=["mathieu-q2", "cos-q1-three-bumps", "float-resolution"])
    def test_edges_bit_identical_to_one_round_per_sweep(self, monkeypatch, V0, e_max):
        I, meta = hill.band_edges_report(V0, e_max)
        with monkeypatch.context() as m:
            m.setattr(hill, "_bisect_edges", _reference_bisect_edges)
            m.setattr(hill, "_bump_brackets", _reference_bump_brackets)
            I_ref, meta_ref = hill.band_edges_report(V0, e_max)
        assert meta["bump_refinements"] > 0  # the golden-section chase ran
        assert np.array_equal(I.edges, I_ref.edges)
        assert meta == meta_ref
