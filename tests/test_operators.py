import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandlt import bandset, cli, operators
from bandlt.errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

from conftest import dense


def make_op(diagonal, coupling=0.0):
    """An operator on unit spacing from its diagonal and its couplings
    (a scalar or N - 1 values)."""
    diagonal = np.asarray(diagonal)
    n = diagonal.size
    return operators.DiscretizedOperator(
        size=n, spacing=1.0, length=float(n + 1), diagonal=diagonal,
        coupling=np.zeros(n - 1) + coupling,
    )


class TestDiscretize:
    def test_free_laplacian_n3(self):
        op = operators.discretize(0.0, 0.0, length=4.0, n=3)
        assert op.spacing == 1.0
        expect = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.array_equal(dense(op), expect)
        vals = np.sort(operators.eigenvalues(op).real)
        assert vals == pytest.approx([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])
        assert op.is_self_adjoint

    def test_constant_background_shifts(self):
        base = operators.discretize(0.0, 0.0, length=4.0, n=3)
        shifted = operators.discretize(1.0, 0.0, length=4.0, n=3)
        v0 = np.sort(operators.eigenvalues(base).real)
        v1 = np.sort(operators.eigenvalues(shifted).real)
        assert v1 == pytest.approx(v0 + 1.0)

    def test_imaginary_perturbation_shifts(self):
        op = operators.discretize(0.0, 1j, length=4.0, n=3)
        vals = sorted(operators.eigenvalues(op), key=lambda z: z.real)
        assert not op.is_self_adjoint
        assert np.allclose(
            vals, [2 - math.sqrt(2) + 1j, 2 + 1j, 2 + math.sqrt(2) + 1j]
        )

    def test_matrix_is_exact_sum(self):
        rng = np.random.default_rng(3)
        v0 = rng.uniform(0, 2, 8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        op = operators.discretize(v0, v, length=9.0, n=8)
        kinetic = dense(operators.discretize(0.0, 0.0, length=9.0, n=8))
        assert np.array_equal(dense(op), kinetic + np.diag(v0) + np.diag(v))

    def test_negative_background_rejected(self):
        with pytest.raises(HypothesisViolationError):
            operators.discretize([-0.1, 0.0, 0.0], 0.0, length=4.0, n=3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            operators.discretize(0.0, [np.inf, 0, 0], length=4.0, n=3)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 0.0, -1.0, 1e300, 1e-170],
                             ids=["inf", "nan", "zero", "negative", "huge", "tiny"])
    def test_unusable_length_refused(self, length):
        # L = inf would give h = inf and couplings -0.0; h^2 overflows at
        # 1e300 and underflows at 1e-170
        with pytest.raises(PreconditionError, match="length|spacing"):
            operators.discretize(0.0, 0.0, length, 5)

    def test_grid_positions(self):
        d = operators.discretize(0.0, 0.0, length=4.0, n=3)
        assert np.allclose(d.grid(), [1.0, 2.0, 3.0])


class TestEigenvalues:
    def test_diagonal_exact(self):
        op = make_op([1.0, 2.0 + 3.0j])
        vals = sorted(operators.eigenvalues(op), key=lambda z: z.real)
        assert vals[0] == 1.0
        assert vals[1] == 2.0 + 3.0j

    def test_cache(self):
        op = operators.discretize(0.0, 0.0, length=4.0, n=3)
        assert operators.eigenvalues(op) is operators.eigenvalues(op)

    def test_dense_cap(self, monkeypatch):
        monkeypatch.setattr(operators, "SOLVER_CAP", 10)
        op = operators.discretize(0.0, 0.0, length=10.0, n=12)
        with pytest.raises(PreconditionError, match="cap"):
            operators.eigenvalues(op)

    def test_zero_coupling_refused(self):
        # the Aberth evaluator's transfer products divide by every coupling
        op = make_op([1.0 + 1j, 2.0, 3.0 + 0.5j, 4.0], [-1.0, 0.0, -1.0])
        with pytest.raises(PreconditionError, match="zero coupling"):
            operators.eigenvalues(op)

    def test_symmetric_real_spectrum(self):
        op = operators.discretize(np.linspace(0, 1, 50), 0.0, length=51.0, n=50)
        vals = operators.eigenvalues(op)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(np.abs(dense(op)))


def random_model(rng, n, background):
    """A box model with complex V over a background V0 of random samples
    ("dirichlet") or of one random three-node cell repeated ("periodic"),
    whose Hermitian part then has clustered band-like eigenvalues."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0 = rng.uniform(0, 2, n if background == "dirichlet" else 3)
    return operators.discretize(np.resize(v0, n), v, float(n + 1), n)


def dense_abscissa(op):
    """Oracle: smallest eigenvalue of the dense Hermitian part."""
    a = dense(op)
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


def two_way_distance(a, b):
    """Largest distance from a point of either set to the other set,
    relative to 1 + |point|."""
    d = np.abs(a[:, None] - b[None, :])
    return max(np.max(d.min(axis=1) / (1 + np.abs(a))),
               np.max(d.min(axis=0) / (1 + np.abs(b))))


def desk_model(n=2000):
    """1 + cos x on 40 periods with the bump (-3 + 2i) of half-width 6."""
    length = 40 * 2 * np.pi
    x = operators.grid_nodes(length, n)[1]
    t = (x - length / 2.0) / 6.0
    v = np.zeros(n, dtype=complex)
    inside = np.abs(t) < 1.0
    v[inside] = (-3.0 + 2.0j) * np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return operators.discretize(1.0 + np.cos(x), v, length, n)


class TestStructuredSpectra:
    """Aberth roots, Hermitian-part spectra and omega_1 against dense LAPACK."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           support=st.sampled_from(["empty", "partial", "full"]))
    def test_against_dense_oracle(self, seed, n, support):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.1, 3.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        if support == "empty":
            v[:] = 0.0
        elif support == "partial":
            v[rng.uniform(size=n) < 0.6] = 0.0
        v0 = rng.uniform(0.0, 2.0, n)
        h0 = operators.discretize(v0, 0.0, 10.0, n)
        h = operators.discretize(v0, v, 10.0, n)
        a = dense(h)
        assert two_way_distance(operators.eigenvalues(h), np.linalg.eigvals(a)) <= 1e-10
        dense_h0 = np.linalg.eigvalsh(dense(h0))
        assert np.allclose(operators.eigenvalues(h0), dense_h0, rtol=0, atol=1e-10)
        w1 = dense_abscissa(h)
        assert operators.numerical_range_abscissa(h) == pytest.approx(
            w1, rel=0, abs=1e-10 * (1 + abs(w1)))

    def test_canonical_order(self):
        # the roots come back sorted by (Re, Im)
        op = desk_model(400)
        vals = operators.eigenvalues(op)
        assert np.array_equal(vals, vals[np.lexsort((vals.imag, vals.real))])
        assert two_way_distance(vals, np.linalg.eigvals(dense(op))) <= 1e-10

    def test_desk_box_sweeps(self, monkeypatch):
        # one _newton_ratio call per sweep, and one more for a sweep with a
        # non-finite ratio; the staggered starts of _aberth certify the
        # N = 800 desk box in 21 sweeps, and in 34 without the stagger
        calls = []
        newton_ratio = operators._newton_ratio
        monkeypatch.setattr(operators, "_newton_ratio",
                            lambda *args: calls.append(1) or newton_ratio(*args))
        vals = operators.eigenvalues(desk_model(800))
        assert vals.shape == (800,)
        assert len(calls) <= 25

    def test_uncertified_roots_exit_4(self, monkeypatch, tmp_path):
        monkeypatch.setattr(operators, "_ABERTH_SWEEPS", 1)
        config = {
            "v0": {"type": "cos", "q": 1.0, "period": 2 * math.pi},
            "v": {"type": "bump", "center": 25.0, "halfwidth": 3.0,
                  "amplitude": [0.4, 0.6]},
            "grid": {"periods": 8, "points": 200, "boundary": "dirichlet"},
            "bands": {"e_max": 4.0},
            "output": {"json": "spectrum.json"},
        }
        status, doc = cli.run(config, command="spectrum", out_dir=str(tmp_path))
        assert status == 4
        assert "not certified" in doc["error"]

    def test_memory_of_h(self):
        # the pair sums run in row blocks: no N x N complex temporary
        n = 2000
        op = desk_model(n)
        tracemalloc.start()
        try:
            vals = operators.eigenvalues(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (n,)
        assert peak < n * n * 16 / 4


# The evaluator that operators._newton_ratio replaced, kept as its oracle:
# one Python step of the folded 2x2 block LU per node pair, in full 2x2
# algebra, with no use of the box's diagonal blocks.
def fold_ratio(a, u, z: np.ndarray) -> np.ndarray:
    """p/p' of p(z) = det(A - z) at every z, in one O(N) sweep.

    A is complex symmetric tridiagonal (diagonal ``a``, couplings ``u`` =
    A[k, k+1]).  Folded into node pairs (j + N mod 2, N-1-j), after node 0
    alone for odd N, it is block tridiagonal: the sweep is the block LU of
    A - z with 2x2 Schur complements S, their z-derivatives T and
    g = sum tr(S^-1 T) = p'/p.
    """
    n, odd, nb = a.size, a.size % 2, a.size // 2
    lo, hi = np.arange(nb) + odd, n - 1 - np.arange(nb)
    w = np.zeros(nb, dtype=complex)
    w[-1] = u[lo[-1]]
    k1 = np.concatenate(([u[0] if odd else 0.0], u[lo[1:] - 1]))
    k2 = np.concatenate(([0.0], u[hi[1:]]))
    # the block before the first: node 0 alone (x = S^-1, y = x T x) or none
    x11 = x22 = x12 = 1.0 / (a[0] - z) if odd else np.zeros_like(z)
    y11 = y22 = y12 = -x11 * x11
    g = -x11
    for j in range(nb):
        s11 = a[lo[j]] - z - k1[j] ** 2 * x11
        s22 = a[hi[j]] - z - k2[j] ** 2 * x22
        s12 = w[j] - k1[j] * k2[j] * x12
        t11, t22 = k1[j] ** 2 * y11 - 1.0, k2[j] ** 2 * y22 - 1.0
        t12 = k1[j] * k2[j] * y12
        if j == nb - 1:
            break
        det = s11 * s22 - s12 * s12
        x11, x22, x12 = s22 / det, s11 / det, -s12 / det
        m11, m12 = x11 * t11 + x12 * t12, x11 * t12 + x12 * t22
        m21, m22 = x12 * t11 + x22 * t12, x12 * t12 + x22 * t22
        g = g + m11 + m22
        y11, y22, y12 = m11 * x11 + m12 * x12, m21 * x12 + m22 * x22, m11 * x12 + m12 * x22
    det = s11 * s22 - s12 * s12
    return det / (det * g + s22 * t11 + s11 * t22 - 2.0 * s12 * t12)


def ratio_model(seed, n, imag):
    """A box model, its (a, u) and points near and away from its
    eigenvalues: offsets 1e-3, 1e-6 or 1e-9 times 1 + |lambda| from each
    eigenvalue, and 20 points over the spectrum's real range."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 3.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    v[rng.uniform(size=n) < rng.uniform()] = 0.0
    if imag == "constant":
        v = v.real + 0.5j
    op = operators.discretize(rng.uniform(0.0, 2.0, n), v,
                              rng.uniform(0.05, 0.5) * (n + 1), n)
    m = dense(op)
    ev = np.linalg.eigvals(m)
    near = ev + 10.0 ** -rng.choice([3, 6, 9], n) * (1 + abs(ev)) * np.exp(
        2j * np.pi * rng.uniform(size=n))
    away = rng.uniform(ev.real.min(), ev.real.max(), 20) + 1j * rng.uniform(-3, 3, 20)
    return np.diag(m).copy(), np.diag(m, 1).copy(), np.concatenate([near, away])


class TestNewtonRatio:
    """The two chains of _newton_ratio against the fold."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300),
           imag=st.sampled_from(["constant", "varying"]))
    @example(seed=1, n=3, imag="varying")  # node 0 and one pair
    @example(seed=2, n=5, imag="varying")  # no interior pair
    @example(seed=3, n=52, imag="varying")  # 24 steps, 2 full runs
    @example(seed=4, n=53, imag="constant")
    @example(seed=5, n=41, imag="constant")  # 18 steps, first run padded
    @example(seed=6, n=300, imag="varying")
    def test_against_fold(self, seed, n, imag):
        # near a root p/p' is the distance to it, so the bound is the dense
        # oracle's 1e-10 on the root each implies.  The reference is the fold
        # run in extended long double: in double the fold itself strays by up
        # to 2e-9 (1 + |z|) on such models, which sets the bound where long
        # double is no wider than double
        a, u, z = ratio_model(seed, n, imag)
        got = operators._newton_ratio(a, u, z)
        ref = fold_ratio(*(x.astype(np.clongdouble) for x in (a, u, z)))
        tol = 1e-10 if np.finfo(np.longdouble).eps < 1e-18 else 1e-8
        assert np.all(abs(got - ref) <= tol * (1.0 + abs(z)))

    @pytest.mark.parametrize("background", ["dirichlet", "periodic"])
    def test_memory_at_desk_size(self, background):
        # root chunks keep the blocked arrays for all N roots within the
        # pair-sum buffer of _aberth, _PAIR_ROWS x N complex
        n = 800
        op = random_model(np.random.default_rng(n), n, background)
        a, u = op.diagonal.astype(complex), op.coupling
        z = operators._hermitian_spectrum(op) + 1e-3j
        tracemalloc.start()
        try:
            ratio = operators._newton_ratio(a, u, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(ratio))
        assert peak < operators._PAIR_ROWS * n * 16


class TestClassify:
    def test_basic_partition(self):
        I = bandset.validate([(0, 1)])
        report = operators.classify_discrete([0.5, 1.5 + 0.2j], I, delta=0.1)
        assert list(report.discrete_candidates) == [1.5 + 0.2j]

    def test_large_delta_empties(self):
        I = bandset.validate([(0, 1)])
        report = operators.classify_discrete([0.5, 1.5 + 0.2j], I, delta=10.0)
        assert report.discrete_candidates.size == 0

    def test_band_edge_excluded(self):
        I = bandset.validate([(0, 1)])
        report = operators.classify_discrete([1.0 + 0j], I, delta=0.1)
        assert report.discrete_candidates.size == 0

    def test_delta_positive(self):
        I = bandset.validate([(0, 1)])
        with pytest.raises(PreconditionError):
            operators.classify_discrete([0.5], I, delta=0.0)

    def test_default_delta(self):
        I = bandset.validate([(0, 1), (2, 3)])
        assert operators.default_delta(0.5, I) == pytest.approx(
            10.0 * 0.25 * 4.0
        )
        assert operators.default_delta(1e-4, I) == pytest.approx(1e-3 * 4.0)


class TestNumericalRange:
    def test_non_normal_abscissa_left_of_spectrum(self, rng):
        # as for a Jordan block, the abscissa of a non-normal model is the
        # Hermitian-part minimum, strictly left of the spectrum
        for background in ("dirichlet", "periodic"):
            op = random_model(rng, 12, background)
            w1 = operators.numerical_range_abscissa(op)
            assert w1 == pytest.approx(dense_abscissa(op), abs=1e-12)
            assert w1 < np.min(np.linalg.eigvals(dense(op)).real) - 1e-3

    def test_real_symmetric(self):
        op = operators.discretize(0.0, 0.0, length=4.0, n=3)
        assert operators.numerical_range_abscissa(op) == pytest.approx(2 - math.sqrt(2))

    def test_complex_diagonal(self):
        assert operators.numerical_range_abscissa(
            make_op([1 + 5j, 2 - 3j])
        ) == pytest.approx(1.0)

    def test_spectrum_inclusion(self, rng):
        for k in range(20):
            op = random_model(rng, 12, ["dirichlet", "periodic"][k % 2])
            w1 = operators.numerical_range_abscissa(op)
            oracle = np.linalg.eigvals(dense(op))
            assert np.min(oracle.real) >= w1 - 1e-10
            assert np.min(operators.eigenvalues(op).real) >= w1 - 1e-10

    def test_accretive_case(self, rng):
        n = 40
        v0 = rng.uniform(0, 2, n)
        v = rng.uniform(0, 1, n) + 1j * rng.standard_normal(n)
        op = operators.discretize(v0, v, length=10.0, n=n)
        kinetic = operators.discretize(0.0, 0.0, length=10.0, n=n)
        k_min = operators.numerical_range_abscissa(kinetic)
        assert k_min >= 0.0
        assert operators.numerical_range_abscissa(op) >= k_min - 1e-10


class TestResolvent:
    def test_diagonal(self):
        op = make_op([1.0, 2.0])
        r = operators.resolvent(op, 0.0, range(2))
        assert np.allclose(r, np.diag([1.0, 0.5]))

    def test_at_eigenvalue_rejected(self):
        op = make_op([1.0, 2.0])
        with pytest.raises(NumericalError, match="spectrum"):
            operators.resolvent(op, 1.0, range(2))

    def test_tridiagonal_frozen_inverse(self):
        op = operators.discretize(0.0, 0.0, length=4.0, n=3)
        r = operators.resolvent(op, -1.0, range(3))
        expect = np.array([[8.0, 3.0, 1.0], [3.0, 9.0, 3.0], [1.0, 3.0, 8.0]]) / 21.0
        assert np.allclose(r, expect, atol=1e-12)
        shifted = dense(op) - (-1.0) * np.eye(3)
        assert np.max(np.abs(shifted @ r - np.eye(3))) <= 1e-10

    def test_second_resolvent_identity(self, rng):
        n = 200
        v0 = rng.uniform(0, 1, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h0 = operators.discretize(v0, 0.0, length=20.0, n=n)
        h = operators.discretize(v0, v, length=20.0, n=n)
        z = -2.0 + 0.7j
        r0 = operators.resolvent(h0, z, range(n))
        r1 = operators.resolvent(h, z, range(n))
        lhs = r1 - r0
        rhs = -r1 @ np.diag(v) @ r0
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


    @pytest.mark.parametrize("background", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_against_dense_inverse(self, n, background):
        # left of the numerical range |(A - z)^-1| <= 1, so absolute error
        # is relative error
        rng = np.random.default_rng(2000 + n)
        op = random_model(rng, n, background)
        z = operators.numerical_range_abscissa(op) - 1.0 + 0.5j
        cols = rng.permutation(n)[:max(1, n // 2)]
        ref = np.linalg.inv(dense(op) - z * np.eye(n))[:, cols]
        assert np.max(np.abs(operators.resolvent(op, z, cols) - ref)) <= 1e-12

    @pytest.mark.parametrize("z, cols", [
        (math.inf, [0]), (-math.inf, [0]), (math.nan, [0]), (complex(0.0, math.inf), [0]),
        (-1.0, [3]), (-1.0, [-1]), (-1.0, [0.5]), (-1.0, [[0]]),
    ], ids=["+inf", "-inf", "nan", "imag-inf", "column-n", "column-minus-1",
            "fractional-column", "nested-columns"])
    def test_unusable_shift_or_column_refused(self, monkeypatch, z, cols):
        def refuse(*args, **kwargs):
            raise AssertionError("solved despite an unusable shift or column")

        monkeypatch.setattr(operators, "_band_solve", refuse)
        op = operators.discretize(0.0, 0.0, length=4.0, n=3)
        with pytest.raises(PreconditionError, match="shift|columns"):
            operators.resolvent(op, z, cols)

    def test_columns_only_memory(self):
        # 100 columns at N = 2000 must not cost a dense N x N complex array
        n, k = 2000, 100
        op = operators.discretize(0.0, 0.0, length=float(n + 1), n=n)
        cols = np.arange(0, n, n // k)
        tracemalloc.start()
        try:
            r = operators.resolvent(op, -1.0, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.shape == (n, k)
        assert peak < n * n * 16 / 8
        shifted = dense(op) + np.eye(n)
        assert np.max(np.abs(shifted @ r - np.eye(n)[:, cols])) <= 1e-10


class TestInverseIteration:
    @pytest.mark.parametrize("background", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_against_dense_eigenvectors(self, n, background):
        # band solves give, up to a phase, the unit eigenvectors of dense
        # LAPACK
        op = random_model(np.random.default_rng(1000 + n), n, background)
        vals, vecs = np.linalg.eig(dense(op))
        for z in operators.eigenvalues(op):
            v = operators._inverse_iteration_vector(op, complex(z))
            w = vecs[:, np.argmin(abs(vals - z))]
            phase = np.vdot(v, w)
            assert abs(phase) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(v * phase / abs(phase) - w)) <= 1e-10


class TestBoundaryArtifacts:
    def test_edge_vector_flagged_interior_kept(self):
        n = 20
        diag = np.full(n, 1.0)
        diag[0] = 5.0       # eigenvector e_0 hugs the left wall
        diag[10] = 7.0      # eigenvector e_10 is interior
        op = make_op(diag)
        I = bandset.validate([(0.5, 2.0)])
        report = operators.classify_discrete(operators.eigenvalues(op), I, delta=0.5)
        assert set(np.round(report.discrete_candidates.real, 6)) == {5.0, 7.0}
        flagged = operators.flag_boundary_artifacts(op, report)
        assert list(flagged.boundary_artifacts.real) == [5.0]
        assert list(flagged.contributing().real) == [7.0]

    def test_spectrum_report_pipeline(self):
        I = bandset.validate([(0.0, 1.0)], ray_start=2.0)
        op = operators.discretize(0.0, 0.3j, length=30.0, n=60)
        report = operators.spectrum_report(op, I)
        assert report.delta == operators.default_delta(op.spacing, I)
        doc = operators.report_to_json(op, report)
        assert doc["N"] == 60 and doc["boundary"] == "dirichlet"
        assert len(doc["eigenvalues"]) == 60


class TestWeylStability:
    def test_far_fraction_shrinks_with_box(self):
        # compactly supported V on growing boxes at fixed h: the share of
        # H eigenvalues far from the H0 cloud scales like support/L once
        # delta exceeds the mean drift ~ 2 (support/L) |Im V| of the
        # extended states
        h = 0.1
        fractions = []
        for length in (40.0, 80.0):
            n = int(round(length / h)) - 1
            x = operators.discretize(0.0, 0.0, length=length, n=n).grid()
            v = np.where((x > 10.0) & (x < 14.0), 1.5 + 0.8j, 0.0)
            h0 = operators.discretize(0.0, 0.0, length=length, n=n)
            hp = operators.discretize(0.0, v, length=length, n=n)
            cloud = operators.eigenvalues(h0)
            far = operators.point_cloud_distance(operators.eigenvalues(hp), cloud) > 0.35
            fractions.append(far.sum() / n)
        assert fractions[1] <= 0.75 * fractions[0] + 3.0 / (80.0 / h)


def test_no_module_loads_scipy_sparse():
    code = ("import importlib, pkgutil, sys, bandlt\n"
            "names = [m.name for m in pkgutil.iter_modules(bandlt.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('bandlt.' + name)\n"
            "print(len(names), *sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    src = str(Path(operators.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True, timeout=120)
    count, *sparse = out.stdout.split()
    assert int(count) >= 8 and sparse == []


def test_point_cloud_distance():
    d = operators.point_cloud_distance([1 + 1j, 3.0], [0.0, 3.0])
    assert d == pytest.approx([math.sqrt(2), 0.0])


class TestPointCloudDistance:
    def test_bytes_equal_pairwise_minimum(self, rng):
        cloud = np.concatenate([rng.uniform(-5, 5, 200), [0.5, 0.5, 1.5]])
        pts = np.concatenate([
            rng.uniform(-5, 5, 300) + 1j * rng.uniform(-2, 2, 300),
            [-50.0 + 1j, 60.0 - 3j, -5.5, 5.5],      # past both ends
            [1.0 + 0.25j, 1.0, 1.0 - 7j],            # ties between 0.5 and 1.5
            rng.choice(cloud, 20) + 1j * rng.uniform(-1, 1, 20),
        ])
        # real, complex-typed and the chain's 1/(lambda0 - omega) clouds
        for cl in (cloud, cloud.astype(complex), 1.0 / (cloud.astype(complex) - 7.0)):
            pairwise = np.min(np.abs(pts[:, None] - cl[None, :]), axis=1)
            assert operators.point_cloud_distance(pts, cl).tobytes() == pairwise.tobytes()

    def test_complex_or_empty_cloud_refused(self):
        with pytest.raises(PreconditionError, match="real"):
            operators.point_cloud_distance([0.0], [1.0, 2.0 + 1e-300j])
        with pytest.raises(PreconditionError):
            operators.point_cloud_distance([0.0], [])


def test_abscissa_reported_across_refinements():
    # how fast the matrix abscissa converges under grid refinement is an
    # open empirical question: report the values, assert only sanity
    values = {}
    for n in (100, 200, 400):
        x = operators.discretize(0.0, 0.0, length=20.0, n=n).grid()
        v = np.where(np.abs(x - 10.0) < 2.0, 0.5 - 0.3j, 0.0)
        op = operators.discretize(1.0 + np.cos(x), v, length=20.0, n=n)
        values[op.spacing] = operators.numerical_range_abscissa(op)
    assert len(values) == 3
    assert all(np.isfinite(v) for v in values.values())
