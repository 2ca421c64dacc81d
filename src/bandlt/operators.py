"""Finite-difference matrix models of H0 = -D^2 + V0 and H = H0 + V on [0, L].

The 3-point stencil on a Dirichlet box gives a tridiagonal kinetic part
(2, -1, -1)/h^2.  Potentials enter as diagonal samples on the interior
grid nodes, so the model matrix is exactly kinetic + diag(V0) + diag(V),
stored by its diagonals.  With V = 0 the matrix is real symmetric;
complex V makes it complex symmetric (non-normal), which is the whole
point.

No dense eigensolver runs.  The tridiagonal spectrum of the Hermitian
part is the spectrum of a real model and its minimum is the
numerical-range abscissa omega_1.  For complex V the Ehrlich-Aberth
iteration on det(A - z) starts from the first-order eigenvalues, the
Hermitian spectrum moved by i <psi_k, Im V psi_k>, which a second
tridiagonal eigensolve gives as a difference quotient (a strong
absorber restarts from the Hermitian spectrum plus 1e-3 i); its roots
are certified or refused with NumericalError (exit 4).  Each sweep
takes p/p' from two scalar chains, one from each end of the box, that
meet in a middle 2x2 block; each chain runs in about sqrt(N) runs, all
runs advanced together.
Eigenvalues are cached, then classified against a band set by a
distance threshold.
LAPACK band solves of A - z give resolvent columns and the inverse
iteration that flags finite-box edge states by eigenvector mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .bandset import BandSet, dist_to_bands
from .errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

SOLVER_CAP = 4000
BOUNDARY_MARGIN = 5
BOUNDARY_MASS_THRESHOLD = 0.5
_INVERSE_ITERATIONS = 3
_ABERTH_SWEEPS = 100
_TRIAL_SWEEPS = 4
_ABERTH_TOL = 1e-12
_NEWTON_ROWS = 256
_PAIR_BYTES = 1 << 20


@dataclass
class DiscretizedOperator:
    """Complex symmetric tridiagonal model matrix plus its grid: ``diagonal``
    and ``coupling`` = A[k, k+1].

    Treat instances as immutable after assembly; the private fields cache
    the spectral decomposition so repeated queries stay cheap.
    """

    size: int
    spacing: float
    length: float
    diagonal: np.ndarray
    coupling: np.ndarray
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)
    _hermitian: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_self_adjoint(self) -> bool:
        return not (np.iscomplexobj(self.diagonal) or np.iscomplexobj(self.coupling))

    def grid(self) -> np.ndarray:
        """The interior node positions."""
        return grid_nodes(self.length, self.size)[1]


def grid_nodes(length: float, n: int) -> tuple[float, np.ndarray]:
    """Spacing h = L/(N+1) and the N interior nodes of the box [0, L];
    L must be positive and finite, 1/h^2 a finite float.
    """
    if n < 3:
        raise PreconditionError("need at least 3 grid points")
    h = length / (n + 1)
    hh = float(h) * float(h)
    if not (0.0 < length < math.inf and 0.0 < hh < math.inf and 1.0 / hh < math.inf):
        raise PreconditionError(f"box length {length!r} gives no finite positive 1/h^2")
    return h, h * np.arange(1, n + 1)


def _as_samples(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = np.full(n, arr[()])
    if arr.shape != (n,):
        raise ValidationError(f"{name} must be a scalar or length-{n} array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite samples")
    return arr


def discretize(v0, v, length: float, n: int) -> DiscretizedOperator:
    """Assemble the N x N tridiagonal model matrix as its diagonals.

    ``v0`` must be nonnegative samplewise (background hypothesis); ``v``
    may be complex.  Scalars broadcast.  The grid is that of
    :func:`grid_nodes`.
    """
    h, _ = grid_nodes(length, n)
    v0_arr = _as_samples(v0, n, "V0")
    if np.iscomplexobj(v0_arr):
        raise ValidationError("V0 must be real-valued")
    v0_arr = v0_arr.astype(float)
    if np.min(v0_arr) < 0.0:
        raise HypothesisViolationError(
            f"V0 must be nonnegative samplewise; min sample {np.min(v0_arr)}"
        )
    v_arr = _as_samples(v, n, "V")
    complex_v = np.iscomplexobj(v_arr) and np.any(v_arr.imag != 0.0)
    v_arr = v_arr.astype(complex) if complex_v else v_arr.real.astype(float)

    # add V0, then V, so the diagonal is that of kinetic + diag(V0) + diag(V)
    # bit for bit (float addition is not associative)
    return DiscretizedOperator(size=n, spacing=h, length=float(length),
                               diagonal=(2.0 / h**2 + v0_arr) + v_arr,
                               coupling=np.full(n - 1, -1.0 / h**2))


def _band(op: DiscretizedOperator, z: complex = 0.0) -> np.ndarray:
    """LAPACK band rows ab[1 + i - j, j] = (A - z)[i, j]."""
    ab = np.zeros((3, op.size), dtype=np.result_type(op.diagonal, op.coupling, z))
    ab[1] = op.diagonal - z
    ab[0, 1:] = ab[2, :-1] = op.coupling
    return ab


def _band_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(A - z)^-1 rhs, overwriting rhs; NumericalError if singular."""
    try:
        return scipy.linalg.solve_banded((1, 1), ab, rhs, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"band LU of A - z failed: {exc}") from exc


def _real_spectrum(diagonal: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix with
    this diagonal and these couplings: one LAPACK band eigensolve."""
    ab = np.zeros((2, diagonal.size))
    ab[0], ab[1, :-1] = diagonal, coupling
    try:
        return scipy.linalg.eigvals_banded(ab, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc


def _hermitian_spectrum(op: DiscretizedOperator) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (A + A*)/2 = Re A, cached."""
    if op._hermitian is None:
        op._hermitian = _real_spectrum(op.diagonal.real, op.coupling)
    return op._hermitian


def _newton_ratio(a, u, z: np.ndarray) -> np.ndarray:
    """p/p' of p(z) = det(A - z) at every z: O(N) work per root and about
    sqrt(3 N) Python steps per chunk of roots.

    A is complex symmetric (diagonal ``a``, nonzero couplings ``u`` =
    A[k, k+1]).  Folded into node pairs (j + N mod 2, N-1-j), after node 0
    alone for odd N, it is block tridiagonal, and its block LU carries
    g = p'/p.  On a box the fold is two scalar chains that start at the
    two walls: lo from node 0 up and hi from node N-1 down.  Each block
    holds one node of each, and no coupling joins them before the middle
    (last) block, so the inverse Schur complement X and X' = dX/dz stay
    diagonal: (x_lo, x_hi), each chain on its own.  A chain advances by
    products of determinant-one transfers [[0, 1/k], [-k, (d - z)/k]]
    (:func:`_transfer_tables`) in about sqrt(N/12) runs of about
    sqrt(3 N) steps, all runs side by side; each run maps x to p/q with
    (p; q) = (a x + b; c x + d) and adds d log q to g, so x is
    renormalised after every run and stays consistent with q near its
    poles.  Only the middle block, where the chains meet through one
    coupling, closes with a 2x2 determinant.  Roots go in chunks that keep
    the run arrays within _NEWTON_ROWS x N / 4 complex.
    """
    n, odd, nb = a.size, a.size % 2, a.size // 2
    lo, hi = np.arange(nb) + odd, n - 1 - np.arange(nb)
    # rows lo and hi: each block's diagonal and its coupling to the block
    # before; the hi chain's first node has none (the wall)
    d = np.stack([a[lo], a[hi]])
    k = np.stack([np.concatenate(([u[0] if odd else 0.0], u[lo[1:] - 1])),
                  np.concatenate(([0.0], u[hi[1:]]))])
    if not np.any(np.imag(k)):
        k = np.real(k)  # complex division would round k/k = 1
    runs = _transfer_tables(d[:, 1:-1], k[:, 1:-1]) if nb > 1 else None
    rows = max(1, _NEWTON_ROWS * n // (64 * (runs[0].shape[1] if runs else 1)))
    out = np.empty(z.shape, dtype=complex)
    for c in range(0, z.size, rows):
        out[c:c + rows] = _newton_chunk(a[0] if odd else None, d, k, u[lo[-1]], runs,
                                        z[c:c + rows])
    return out


def _transfer_tables(d, k):
    """Step tables of both chains, for diagonals ``d`` and incoming
    couplings ``k`` of shape (2, L).

    A chain runs on v = (q_prev, q) with q_j = c_j det(first j nodes - z),
    c_j = c_{j-2} / k_j^2 (c_0 = 1, c_1 = 1/k_1): a step maps v to
    (q, rho_j (d_j - z) q - q_prev), rho_j = c_j/c_{j-1}.  After node j the
    chain's x is rho_j q_prev / q, so the runs carry x_v = q_prev / q,
    which is k_1 x at the start.  The L steps go in B runs of
    m = ceil(sqrt(6 L)), the first padded in front by rotations
    v -> (q, -q_prev).  Returns the (2, B, m) tables rho d and rho, the pad
    length, k_1, and rho_L, which takes x_v back to x after the last node.
    """
    steps = d.shape[1]
    m = math.isqrt(6 * steps - 1) + 1 if steps else 1
    nblk = max(-(-steps // m), 1)
    pad = nblk * m - steps
    table = lambda x: np.pad(x, ((0, 0), (pad, 0))).reshape(2, nblk, m)
    if not steps:
        return table(d), table(d.real), pad, np.ones(2), np.ones(2)
    rho = np.ones(k.shape) / k[:, :1]
    rho[:, 1:2] = k[:, :1] / k[:, 1:2] ** 2
    sq = (k[:, :-1] / k[:, 1:]) ** 2
    rho[:, 2::2] *= np.cumprod(sq[:, 1::2], axis=1)
    rho[:, 3::2] = rho[:, 1:2] * np.cumprod(sq[:, 2::2], axis=1)
    return table(rho * d), table(rho), pad, k[:, 0], rho[:, -1]


def _schur(d, k, x, dx, z):
    """Schur complements s = d - z - k^2 x of the next block's two nodes,
    and s' = ds/dz, for chain rows ``d`` and ``k`` and the x and x' of
    the nodes before them."""
    kk = (k * k)[:, None]
    return -kk * x + (d[:, None] - z), -kk * dx - 1.0


def _newton_chunk(a0, d, k, w, runs, z):
    """p/p' of :func:`_newton_ratio` for one chunk of roots ``z``, with
    ``w`` the coupling of the middle block."""
    # node 0 alone before block 0 (x = 1 / (a0 - z), x' = x^2) or none
    x = 1.0 / (a0 - z) if a0 is not None else np.zeros_like(z)
    g = -x
    s, t = _schur(d[:, 0], k[:, 0], x, x * x, z)
    if runs is not None:
        xt = t / s
        g = g + xt[0] + xt[1]
        x = runs[3][:, None] / s
        dx = -x * xt
        for run in np.moveaxis(_run_transfers(runs, z), 4, 0):
            # (p; q) = (a x + b; c x + d) per chain, and d/dz
            p, q = run[0, :, :, 0] * x + run[0, :, :, 1]
            dp, dq = run[1, :, :, 0] * x + run[0, :, :, 0] * dx + run[1, :, :, 1]
            x = p / q
            dx = (dp - x * dq) / q
            g = g + dq[0] / q[0] + dq[1] / q[1]
        rho = runs[4][:, None]
        s, t = _schur(d[:, -1], k[:, -1], rho * x, rho * dx, z)
    det = s[0] * s[1] - w * w
    return det / (det * g + s[1] * t[0] + s[0] * t[1])


def _run_transfers(runs, z):
    """Transfer matrices of both chains over every run, on v, as rows
    (p, q) by columns (x, 1): value and d/dz, (2, 2, chain, 2, run, root).

    ``st`` holds per root the matrix of each chain in every run, all
    advanced from the identity by one step per iteration (run 0 from
    R^-pad, which its padded rotations R return to I).  Each run is then
    scaled by one power of 2 for both chains, which leaves every p/q as
    it is.
    """
    rd, r, front = runs[:3]
    nblk, m = r.shape[1:]
    st = np.zeros((2, 2, 2, 2, nblk, z.size), dtype=complex)  # d/dz, v, chain, column, run
    st[0, 0, :, 0] = st[0, 1, :, 1] = 1.0
    rot = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), front % 4)
    st[0, :, :, :, 0] = rot[:, None, :, None]
    tmp = np.empty_like(st[:, 0])
    for j in range(m):
        prev, cur = st[:, j % 2], st[:, 1 - j % 2]
        e = rd[:, :, j, None] - r[:, :, j, None] * z
        np.subtract(np.multiply(e[:, None], cur, out=tmp), prev, out=prev)
        prev[1] -= np.multiply(r[:, None, :, j, None], cur[0], out=tmp[0])
    if m % 2:
        st = st[:, ::-1]
    st *= np.ldexp(1.0, -np.frexp(abs(st[0]).max(axis=(0, 1, 2)))[1])
    return st


def _aberth(a, u, herm: np.ndarray) -> np.ndarray:
    """Certified Ehrlich-Aberth roots of det(A - z).

    The first start is the first-order spectrum herm_k + i <psi_k, Im A
    psi_k>, for Re A psi_k = herm_k psi_k.  By Hellmann-Feynman each shift
    is the derivative of the spectrum of Re A + t Im A at t = 0: one more
    tridiagonal eigensolve gives it as a difference quotient of ascending
    spectra, at a step t of 1e-6 (1 + max|herm|) on Im A scaled to unit
    max, so that no magnitude of Im A overflows or underflows the step.
    Far from first order (a strong absorber, whose eigenvalues leave the
    first-order ones behind) more than half the roots still move after
    _TRIAL_SWEEPS sweeps; then, or if the run does not certify, it
    restarts from herm + 1e-3 i.
    Odd indices of either start move by a further 5e-4 (1 + i).  Two
    starts closer than the freeze tolerance swap places in one sweep and
    freeze there, and the near-double pairs of a symmetric box have such
    first-order starts (3e-5 off the roots on the N = 800 desk box); on
    the line, every difference of two starts would be real.
    A root freezes once its correction is <= 1e-12 (1 + |z|);
    NumericalError unless all N freeze within _ABERTH_SWEEPS sweeps of one
    run, finite and right of omega_1 - 1e-10 (1 + |omega_1|).
    """
    n = a.size
    scale = np.max(abs(a.imag))
    t = 1e-6 * (1.0 + np.max(abs(herm)))
    stagger = 5e-4 * (1 + 1j) * (np.arange(n) % 2)
    shift = (_real_spectrum(a.real + t * (a.imag / scale), u) - herm) / t * scale
    z = herm + stagger + 1j * shift
    active = _aberth_sweeps(a, u, z, trial=True)
    if active.size:
        z = herm + 1e-3j + stagger
        active = _aberth_sweeps(a, u, z)
    w1 = herm[0]
    if active.size or not (np.all(np.isfinite(z)) and z.real.min() >= w1 - 1e-10 * (1 + abs(w1))):
        raise NumericalError(
            f"Aberth eigenvalues not certified: {active.size} of {n} unconverged "
            f"after {_ABERTH_SWEEPS} sweeps, min Re {z.real.min()!r}, omega_1 {w1!r}")
    return z


def _aberth_sweeps(a, u, z: np.ndarray, trial: bool = False) -> np.ndarray:
    """Aberth sweeps on the starts ``z``, in place, until every root
    freezes or _ABERTH_SWEEPS pass: the indices still moving.  A trial
    stops after _TRIAL_SWEEPS sweeps if more than half still move.  Pair
    sums run in row blocks of at most _PAIR_BYTES."""
    n = z.size
    active = np.arange(n)
    block = max(1, _PAIR_BYTES // (16 * n))
    buf = np.empty((min(block, n), n), dtype=complex)
    for sweep in range(1, _ABERTH_SWEEPS + 1):
        # a Schur complement singular exactly at z gives no finite ratio:
        # step off it; a ratio that stays non-finite never converges
        with np.errstate(all="ignore"):
            zs = z[active]
            newton = _newton_ratio(a, u, zs)
            bad = ~np.isfinite(newton)
            if bad.any():
                newton[bad] = _newton_ratio(a, u, zs[bad] + 1e-15j * (1 + abs(zs[bad])))
            pair = np.empty_like(zs)
            for lo in range(0, active.size, block):
                rows = active[lo:lo + block]
                d = np.subtract(z[rows, None], z, out=buf[:rows.size])
                d[np.arange(rows.size), rows] = np.inf
                pair[lo:lo + rows.size] = np.reciprocal(d, out=d).sum(axis=1)
            step = newton / (1.0 - newton * pair)
        z[active] = zs - step
        active = active[~(abs(step) <= _ABERTH_TOL * (1.0 + abs(z[active])))]
        if active.size == 0 or (trial and sweep == _TRIAL_SWEEPS and 2 * active.size > n):
            break
    return active


def eigenvalues(op: DiscretizedOperator) -> np.ndarray:
    """All N eigenvalues in (Re, Im) order; cached on the operator.

    A = (its Hermitian part) + i c (a real A: c = 0) shifts the Hermitian
    spectrum, a diagonal A is its own spectrum, and any other A takes
    the certified Aberth roots; those need every coupling nonzero
    (PreconditionError otherwise), as every discretized model has.
    """
    if op._eigenvalues is not None:
        return op._eigenvalues
    n = op.size
    if n > SOLVER_CAP:
        raise PreconditionError(f"N={n} exceeds the solver cap {SOLVER_CAP}")
    a, u = op.diagonal.astype(complex), op.coupling
    if np.all(a.imag == a.imag[0]):
        vals = _hermitian_spectrum(op) + 1j * a.imag[0]
    elif np.any(u):
        if not np.all(u):
            raise PreconditionError("the Aberth evaluator divides by every coupling; "
                                    "a zero coupling splits the model")
        vals = _aberth(a, u, _hermitian_spectrum(op))
    else:
        vals = a
    op._eigenvalues = vals[np.lexsort((vals.imag, vals.real))]
    return op._eigenvalues


def numerical_range_abscissa(op: DiscretizedOperator) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A*)/2.

    This is the leftmost real part of the matrix numerical range, so the
    whole spectrum sits in {Re z >= omega_1}.
    """
    return float(_hermitian_spectrum(op)[0])


def resolvent(op: DiscretizedOperator, z: complex, cols) -> np.ndarray:
    """Columns ``cols`` of (A - z)^(-1), an N x len(cols) array.

    Refuses non-finite shifts, columns outside 0..N-1 and shifts within
    1e-8 of the spectrum, and checks the max-norm residual of the solved
    columns afterwards, scaled by the conditioning of the solve.
    """
    if not np.isfinite(z):
        raise PreconditionError(f"resolvent shift z={z!r} must be finite")
    cols = np.asarray(cols)
    if not (cols.ndim == 1 and (cols.size == 0 or np.issubdtype(cols.dtype, np.integer))
            and np.all((cols >= 0) & (cols < op.size))):
        raise PreconditionError(f"resolvent columns must be indices in 0..{op.size - 1}")
    gap = float(np.min(np.abs(eigenvalues(op) - z)))
    if gap < 1e-8:
        raise NumericalError(
            f"shift z={z} is {gap:.3e} from the spectrum; resolvent refused"
        )
    ab, cols, at = _band(op, z), cols.astype(int), np.arange(cols.size)
    r = np.zeros((op.size, cols.size), dtype=complex, order="F")
    r[cols, at] = 1.0
    r = _band_solve(ab, r)
    scale = max(1.0, np.max(np.abs(ab)) * np.max(np.abs(r), initial=0.0))
    # the residual (A - z) r - I[:, cols] in blocks of 32 columns: no
    # further N x len(cols) temporaries
    residual = 0.0
    for c in range(0, cols.size, 32):
        x = r[:, c:c + 32]
        # (A x)[i] sums ab[1 - d, i + d] x[i + d]; what wraps meets zero padding
        res = sum(np.roll(ab[1 - d, :, None] * x, -d, axis=0) for d in (-1, 0, 1))
        res[cols[c:c + 32], at[:x.shape[1]]] -= 1.0
        residual = max(residual, float(np.max(np.abs(res))))
    if residual > 1e-8 * scale:
        raise NumericalError(
            f"resolvent residual {residual:.3e} exceeds condition-scaled tolerance"
        )
    return r


@dataclass
class SpectrumReport:
    """Eigenvalues and, aligned with them, ``dist`` to the band set read as
    literal data (no validity cap), the mask ``discrete`` of candidates
    (dist > delta) and the mask ``artifact`` of flagged wall states."""

    eigenvalues: np.ndarray
    dist: np.ndarray
    discrete: np.ndarray
    artifact: np.ndarray
    delta: float
    band_set: BandSet

    @property
    def discrete_candidates(self) -> np.ndarray:
        return self.eigenvalues[self.discrete]

    @property
    def boundary_artifacts(self) -> np.ndarray:
        return self.eigenvalues[self.artifact]

    def contributing(self) -> np.ndarray:
        """Discrete candidates minus flagged finite-box artifacts."""
        return self.eigenvalues[self.discrete & ~self.artifact]


def default_delta(spacing: float, band_set: BandSet) -> float:
    """Classification threshold dominating the O(h^2) stencil error but
    staying below genuine gap scales."""
    return max(10.0 * spacing**2, 1e-3) * (1.0 + band_set.last_edge)


def classify_discrete(eigs, band_set: BandSet, delta: float) -> SpectrumReport:
    """Partition eigenvalues by dist-to-bands > delta.

    Classification reads the band set as literal given data, so the
    truncation validity cap does not apply here (it still guards the
    distance kernels of the downstream eigenvalue sums).
    """
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    d = dist_to_bands(eigs, band_set, treat_as_complete=True)
    return SpectrumReport(eigenvalues=eigs, dist=d, discrete=d > delta,
                          artifact=np.zeros(eigs.size, dtype=bool),
                          delta=float(delta), band_set=band_set)


def _inverse_iteration_vector(op: DiscretizedOperator, z: complex) -> np.ndarray:
    """Approximate eigenvector at an already-computed eigenvalue z.

    Each step is one O(N) LAPACK band solve with A - shift.  The shift
    gets a growing jitter when z sits exactly on the spectrum and the
    factorization comes back singular.
    """
    rng = np.random.default_rng(12345)
    b = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    b /= np.linalg.norm(b)
    last_exc: Exception | None = None
    for jitter in (0.0, 1e-11, 1e-8, 1e-6):
        shift = z + jitter * (1.0 + abs(z)) * (1.0 + 1.0j)
        ab = _band(op, shift)
        v = b.copy()
        try:
            for _ in range(_INVERSE_ITERATIONS):
                v = _band_solve(ab, v)
                big = np.max(np.abs(v))  # the 2-norm of v overflows past 1e154
                if not np.isfinite(big) or big == 0.0:
                    raise NumericalError(f"inverse iteration diverged at z={z}")
                v = v / big
                v /= np.linalg.norm(v)
            return v
        except NumericalError as exc:
            last_exc = exc
    raise NumericalError(f"inverse iteration failed at z={z}: {last_exc}")


def flag_boundary_artifacts(op: DiscretizedOperator,
                            report: SpectrumReport) -> SpectrumReport:
    """Mark discrete candidates whose eigenvector mass hugs the box ends.

    Finite Dirichlet boxes create spurious gap eigenvalues localized at
    the walls; a candidate with more than half its mass within
    ``BOUNDARY_MARGIN`` grid points of either end is excluded from
    downstream sums.  Returns the report with its ``artifact`` mask set.
    """
    artifact = np.zeros(report.eigenvalues.size, dtype=bool)
    for i in np.flatnonzero(report.discrete):
        vec = _inverse_iteration_vector(op, complex(report.eigenvalues[i]))
        mass = np.abs(vec) ** 2
        edge = float(mass[:BOUNDARY_MARGIN].sum() + mass[-BOUNDARY_MARGIN:].sum())
        artifact[i] = edge > BOUNDARY_MASS_THRESHOLD * float(mass.sum())
    return replace(report, artifact=artifact)


def spectrum_report(op: DiscretizedOperator, band_set: BandSet,
                    delta: float | None = None) -> SpectrumReport:
    """Eigenvalues -> classification -> boundary flags, in one call."""
    if delta is None:
        delta = default_delta(op.spacing, band_set)
    report = classify_discrete(eigenvalues(op), band_set, delta)
    if report.discrete.any():
        report = flag_boundary_artifacts(op, report)
    return report


def point_cloud_distance(points, cloud) -> np.ndarray:
    """Distance from each complex point to a finite set of real values:
    one of the two sorted neighbours of Re z is nearest, so the result is
    the pairwise minimum bit for bit, without an N x M array."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    cl = np.asarray(cloud).ravel()
    if cl.size == 0 or np.any(np.imag(cl) != 0.0):
        raise PreconditionError("the cloud must be a nonempty set of real values")
    cl = np.sort(cl.real)
    j = np.searchsorted(cl, pts.real)
    return np.minimum(np.abs(pts - cl[np.maximum(j - 1, 0)]),
                      np.abs(pts - cl[np.minimum(j, cl.size - 1)]))


def report_to_json(op: DiscretizedOperator, report: SpectrumReport) -> dict:
    """Shared JSON form of an operator's classified spectrum."""
    pair = lambda zs: [[float(z.real), float(z.imag)] for z in zs]
    return {
        "N": op.size,
        "h": op.spacing,
        "L": op.length,
        "boundary": "dirichlet",
        "eigenvalues": pair(report.eigenvalues),
        "discrete": pair(report.discrete_candidates),
        "boundary_artifacts": pair(report.boundary_artifacts),
        "delta": report.delta,
    }
