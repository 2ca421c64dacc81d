"""Finite-difference matrix models of H0 = -D^2 + V0 and H = H0 + V on [0, L].

The 3-point stencil gives a tridiagonal kinetic part (2, -1, -1)/h^2
(Dirichlet) with corner couplings added for periodic ends.  Potentials
enter as diagonal samples on the grid nodes, so the model matrix is
exactly kinetic + diag(V0) + diag(V), stored as a sparse CSC matrix.
With V = 0 the matrix is real symmetric; complex V makes it complex
symmetric (non-normal), which is the whole point.

Eigenvalues (cached, then classified against a band set by a distance
threshold) and the numerical-range abscissa come from dense LAPACK on
``matrix.toarray()``.  Everything else uses one sparse LU of A - z:
resolvent columns, and the inverse iteration that flags finite-box edge
states by eigenvector mass near the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .bandset import BandSet, dist_to_bands
from .errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

DENSE_SOLVER_CAP = 4000
BOUNDARY_MARGIN = 5
BOUNDARY_MASS_THRESHOLD = 0.5
_INVERSE_ITERATIONS = 3


@dataclass
class DiscretizedOperator:
    """Assembled model matrix plus the grid and potential samples behind it.

    Treat instances as immutable after assembly; the private fields cache
    the spectral decomposition so repeated queries stay cheap.
    """

    size: int
    spacing: float
    length: float
    boundary: str
    matrix: scipy.sparse.csc_array
    v0_samples: np.ndarray
    v_samples: np.ndarray
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_self_adjoint(self) -> bool:
        return not np.iscomplexobj(self.matrix)

    def grid(self) -> np.ndarray:
        """Node positions; Dirichlet nodes are interior, periodic include 0."""
        return grid_nodes(self.length, self.size, self.boundary)[1]


def grid_nodes(length: float, n: int, boundary: str = "dirichlet") -> tuple[float, np.ndarray]:
    """Spacing and node positions of the N-point grid on [0, L].

    Dirichlet uses h = L/(N+1) with interior nodes, periodic uses h = L/N
    with nodes from 0.
    """
    if n < 3:
        raise PreconditionError("need at least 3 grid points")
    if not length > 0:
        raise PreconditionError("box length must be positive")
    if boundary == "dirichlet":
        h = length / (n + 1)
        return h, h * np.arange(1, n + 1)
    if boundary == "periodic":
        h = length / n
        return h, h * np.arange(n)
    raise ValidationError(f"unknown boundary {boundary!r}")


def _as_samples(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = np.full(n, arr[()])
    if arr.shape != (n,):
        raise ValidationError(f"{name} must be a scalar or length-{n} array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite samples")
    return arr


def discretize(v0, v, length: float, n: int, boundary: str = "dirichlet") -> DiscretizedOperator:
    """Assemble the N x N tridiagonal model matrix (sparse CSC).

    ``v0`` must be nonnegative samplewise (background hypothesis); ``v``
    may be complex.  Scalars broadcast.  The grid is that of
    :func:`grid_nodes`; periodic ends add corner couplings.
    """
    h, _ = grid_nodes(length, n, boundary)
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

    off = np.full(n - 1, -1.0 / h**2)
    # add the diagonals one at a time so matrix == kinetic + diag(V0) + diag(V)
    # holds bit-exactly (float addition is not associative)
    diagonals, offsets = [off, (2.0 / h**2 + v0_arr) + v_arr, off], [-1, 0, 1]
    if boundary == "periodic":
        diagonals, offsets = diagonals + [off[:1], off[:1]], offsets + [1 - n, n - 1]
    m = scipy.sparse.csc_array(scipy.sparse.diags(
        diagonals, offsets, shape=(n, n), dtype=complex if complex_v else float))
    return DiscretizedOperator(
        size=n, spacing=h, length=float(length), boundary=boundary,
        matrix=m, v0_samples=v0_arr, v_samples=v_arr,
    )


def eigenvalues(op: DiscretizedOperator, dense_cap: int = DENSE_SOLVER_CAP) -> np.ndarray:
    """All N eigenvalues via a dense general solver; cached on the operator."""
    if op._eigenvalues is not None:
        return op._eigenvalues
    if op.size > dense_cap:
        raise PreconditionError(
            f"N={op.size} exceeds the dense-solver cap {dense_cap}"
        )
    try:
        vals = np.linalg.eigvals(op.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    op._eigenvalues = np.asarray(vals, dtype=complex)
    return op._eigenvalues


def numerical_range_abscissa(op: DiscretizedOperator) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A*)/2.

    This is the leftmost real part of the matrix numerical range, so the
    whole spectrum sits in {Re z >= omega_1}.
    """
    m = op.matrix.toarray()
    herm = 0.5 * (m + m.conj().T)
    try:
        return float(np.linalg.eigvalsh(herm)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc


def _shifted_lu(op: DiscretizedOperator, z: complex):
    """A - z in CSC form and its sparse LU; a singular factor raises."""
    a = scipy.sparse.csc_array(op.matrix - z * scipy.sparse.identity(op.size),
                               dtype=complex)
    try:
        return a, scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU of A - z failed at z={z}: {exc}") from exc


def resolvent(op: DiscretizedOperator, z: complex, cols) -> np.ndarray:
    """Columns ``cols`` of (A - z)^(-1), an N x len(cols) array.

    Refuses shifts within 1e-8 of the spectrum (the error reports the
    nearest eigenvalue distance) and checks the max-norm residual of the
    solved columns afterwards, scaled by the conditioning of the solve.
    """
    gap = float(np.min(np.abs(eigenvalues(op) - z)))
    if gap < 1e-8:
        raise NumericalError(
            f"shift z={z} is {gap:.3e} from the spectrum; resolvent refused"
        )
    a, lu = _shifted_lu(op, z)
    unit = scipy.sparse.identity(op.size, dtype=complex, format="csc")[:, cols]
    # C order (a @ r would copy a Fortran-ordered r) and the residual
    # A r - I[:, cols] formed in place: no further N x len(cols) temporaries
    r = np.ascontiguousarray(lu.solve(unit.toarray()))
    scale = max(1.0, np.max(np.abs(a.data)) * np.max(np.abs(r), initial=0.0))
    res = a @ r
    res[cols, np.arange(r.shape[1])] -= 1.0
    residual = np.max(np.abs(res, out=res).real, initial=0.0)
    if residual > 1e-8 * scale:
        raise NumericalError(
            f"resolvent residual {residual:.3e} exceeds condition-scaled tolerance"
        )
    return r


@dataclass
class SpectrumReport:
    """Eigenvalues split into essential-spectrum approximants and
    discrete-spectrum candidates (distance to the band set > delta)."""

    eigenvalues: np.ndarray
    discrete_candidates: np.ndarray
    boundary_artifacts: np.ndarray
    delta: float
    band_set: BandSet

    def contributing(self) -> np.ndarray:
        """Discrete candidates minus flagged finite-box artifacts."""
        if self.boundary_artifacts.size == 0:
            return self.discrete_candidates
        mask = ~np.isin(self.discrete_candidates, self.boundary_artifacts)
        return self.discrete_candidates[mask]


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
    return SpectrumReport(
        eigenvalues=eigs,
        discrete_candidates=eigs[d > delta],
        boundary_artifacts=np.empty(0, dtype=complex),
        delta=float(delta),
        band_set=band_set,
    )


def _inverse_iteration_vector(op: DiscretizedOperator, z: complex) -> np.ndarray:
    """Approximate eigenvector at an already-computed eigenvalue z.

    Each solve reuses one sparse LU of A - shift, O(N) for the tridiagonal
    models.  The shift gets a growing jitter when z sits exactly on the
    spectrum and the factorization comes back singular.
    """
    rng = np.random.default_rng(12345)
    b = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
    b /= np.linalg.norm(b)
    last_exc: Exception | None = None
    for jitter in (0.0, 1e-11, 1e-8, 1e-6):
        shift = z + jitter * (1.0 + abs(z)) * (1.0 + 1.0j)
        v = b
        try:
            _, lu = _shifted_lu(op, shift)
            for _ in range(_INVERSE_ITERATIONS):
                v = lu.solve(v)
                nrm = np.linalg.norm(v)
                if not np.isfinite(nrm) or nrm == 0.0:
                    raise NumericalError(f"inverse iteration diverged at z={z}")
                v = v / nrm
            return v
        except NumericalError as exc:
            last_exc = exc
    raise NumericalError(f"inverse iteration failed at z={z}: {last_exc}")


def flag_boundary_artifacts(op: DiscretizedOperator,
                            report: SpectrumReport) -> SpectrumReport:
    """Mark discrete candidates whose eigenvector mass hugs the box ends.

    Finite Dirichlet boxes create spurious gap eigenvalues localized at
    the walls; anything with more than half its mass within
    ``BOUNDARY_MARGIN`` grid points of either end is excluded from
    downstream sums.
    """
    flagged = []
    for z in report.discrete_candidates:
        vec = _inverse_iteration_vector(op, complex(z))
        mass = np.abs(vec) ** 2
        edge = float(mass[:BOUNDARY_MARGIN].sum() + mass[-BOUNDARY_MARGIN:].sum())
        if edge > BOUNDARY_MASS_THRESHOLD * float(mass.sum()):
            flagged.append(z)
    return SpectrumReport(
        eigenvalues=report.eigenvalues,
        discrete_candidates=report.discrete_candidates,
        boundary_artifacts=np.asarray(flagged, dtype=complex),
        delta=report.delta,
        band_set=report.band_set,
    )


def spectrum_report(op: DiscretizedOperator, band_set: BandSet,
                    delta: float | None = None,
                    flag_artifacts: bool = True) -> SpectrumReport:
    """Eigenvalues -> classification -> boundary flags, in one call.

    Flagging only applies to Dirichlet boxes; a periodic ring has no
    walls to pin spurious states to.
    """
    if delta is None:
        delta = default_delta(op.spacing, band_set)
    report = classify_discrete(eigenvalues(op), band_set, delta)
    if (flag_artifacts and op.boundary == "dirichlet"
            and report.discrete_candidates.size):
        report = flag_boundary_artifacts(op, report)
    return report


def point_cloud_distance(points, cloud) -> np.ndarray:
    """Distance from each point to a finite set of complex values."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    cl = np.asarray(cloud, dtype=complex).ravel()
    return np.min(np.abs(pts[:, None] - cl[None, :]), axis=1)


def report_to_json(op: DiscretizedOperator, report: SpectrumReport) -> dict:
    """Shared JSON form of an operator's classified spectrum."""
    pair = lambda zs: [[float(z.real), float(z.imag)] for z in zs]
    return {
        "N": op.size,
        "h": op.spacing,
        "L": op.length,
        "boundary": op.boundary,
        "eigenvalues": pair(report.eigenvalues),
        "discrete": pair(report.discrete_candidates),
        "boundary_artifacts": pair(report.boundary_artifacts),
        "delta": report.delta,
    }
