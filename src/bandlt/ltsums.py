"""Weighted eigenvalue sums against band sets, with constants factored out.

Each bound family pairs a computable left side (a sum of powered
distances from discrete-spectrum candidates to the band set, against a
region-dependent kernel) with the computable structure of its right side;
the unknown universal constants are never invented, so reports carry
``rhs_structure`` (constant set to 1) and the measured
``empirical_ratio = lhs / rhs_structure``.  Family tags:

* ``T1``            kernel (|z-w| + |w|)^(-2p), right side in terms of
                    (w1-w), |w|, |V0|_inf, |V|_p
* ``T1simplified``  kernel (1+|z|)^(-2p) for w < w1 - 1
* ``T2``            kernel (1+|z|)^(-2p), w eliminated via the contraction
                    shift, extra (1+|V|_p)^(p(2p+1)/(2p-1)) factor
* ``T3``            accretive case, kernels |z|^-(1/2-eps) inside the unit
                    disk and |z|^-(1/2+eps) outside

``hansmann_ensemble`` measures the spectral-variation constant
sum dist^p(eig(A0+B), spec(A0)) / |B|_Sp^p on random matrix pairs, and
``theorem1_chain`` checks the whole T1 derivation link by link on a
discretized model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bandset as bs
from . import moebius, operators, schatten
from .errors import (
    HypothesisViolationError,
    PreconditionError,
)
from .moebius import RNG_FAMILY
from .operators import SpectrumReport
from .schatten import NormBundle

_TREND_WINDOW, _TREND_FACTOR = 3, 4.0  # couplings compared, flagged spread
_CHAIN_TOLERANCE = 1e-12  # relative slack of the link-1 check


@dataclass
class LTReport:
    """One evaluated bound family on one spectrum."""

    theorem: str
    lhs: float
    rhs_structure: float
    empirical_ratio: float
    parameters: dict
    eigenvalue_count: int

    def to_json(self) -> dict:
        return asdict(self)


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def _distances(report: SpectrumReport) -> tuple[np.ndarray, np.ndarray]:
    """Contributing candidates and their distances to the band set."""
    zs = report.contributing()
    return zs, bs.dist_to_bands(zs, report.band_set)


def _no_underflow(value: float, positive: bool, what: str) -> float:
    """value; a sum or power of positive terms rounded to 0 fails like overflow."""
    if value == 0.0 and positive:
        raise FloatingPointError(f"{what} underflowed to 0")
    return value


def _dist_sum(d: np.ndarray, p: float, denom) -> float:
    """sum d^p / denom: the left side of every bound family."""
    return _no_underflow(float(np.sum(d**p / denom)), bool(np.any(d > 0.0)),
                         f"sum of {d.size} terms d^p / kernel at p={p}")


def _vp_power(nb: NormBundle) -> float:
    """|V|_p^p: the perturbation factor of every right side."""
    return _no_underflow(nb.v_p**nb.p, nb.v_p > 0.0, f"|V|_p^p at p={nb.p}")


def _require_p2(nb: NormBundle) -> None:
    if nb.p < 2:
        raise PreconditionError("this bound family needs p >= 2")


def _base_params(report: SpectrumReport, nb: NormBundle) -> dict:
    return {
        "p": nb.p,
        "v_p": nb.v_p,
        "v0_inf": nb.v0_inf,
        "delta": report.delta,
        "bands": [list(e) for e in report.band_set.edges],
        "terminal_ray": report.band_set.ray_start,
        "excluded_boundary_artifacts": int(report.boundary_artifacts.size),
    }


def lt_sum_t1(report: SpectrumReport, omega: float, omega1: float,
              nb: NormBundle) -> LTReport:
    """Shifted-kernel sum against the (w1-w), |w| right-side structure."""
    _require_p2(nb)
    if not (-math.inf < omega < omega1 and omega < 0):
        raise PreconditionError("need a finite omega < omega_1 and omega < 0")
    zs, d = _distances(report)
    I = report.band_set
    lhs = _dist_sum(d, nb.p, (np.abs(zs - omega) + abs(omega)) ** (2 * nb.p))
    rhs = (
        _vp_power(nb) / ((omega1 - omega) ** nb.p * abs(omega) ** (nb.p - 0.5))
        * (1.0 + nb.v0_inf / (I.a1 + abs(omega))) ** nb.p
    )
    params = _base_params(report, nb)
    params.update({"omega": omega, "omega1": omega1, "a1": I.a1})
    return LTReport("T1", lhs, rhs, _ratio(lhs, rhs), params, int(zs.size))


def lt_sum_t1_simplified(report: SpectrumReport, omega: float, omega1: float,
                         nb: NormBundle) -> LTReport:
    """Unit-window kernel variant, valid once omega < omega_1 - 1."""
    _require_p2(nb)
    if not -math.inf < omega < omega1 - 1.0:
        raise PreconditionError("need a finite omega < omega_1 - 1")
    zs, d = _distances(report)
    lhs = _dist_sum(d, nb.p, (1.0 + np.abs(zs)) ** (2 * nb.p))
    rhs = abs(omega) ** (nb.p + 0.5) * (1.0 + nb.v0_inf) ** nb.p * _vp_power(nb)
    params = _base_params(report, nb)
    params.update({"omega": omega, "omega1": omega1})
    return LTReport("T1simplified", lhs, rhs, _ratio(lhs, rhs), params, int(zs.size))


def lt_sum_t2(report: SpectrumReport, nb: NormBundle, a1: float) -> LTReport:
    """Shift-free variant; the price is the extra (1+|V|_p) power."""
    _require_p2(nb)
    zs, d = _distances(report)
    lhs = _dist_sum(d, nb.p, (1.0 + np.abs(zs)) ** (2 * nb.p))
    expo = nb.p * (2.0 * nb.p + 1.0) / (2.0 * nb.p - 1.0)
    rhs = (1.0 + nb.v0_inf) ** nb.p * (1.0 + nb.v_p) ** expo * _vp_power(nb)
    params = _base_params(report, nb)
    params.update({
        "a1": a1,
        "omega_prime": schatten.omega_prime(nb, a1),
        "vp_exponent": expo,
    })
    return LTReport("T2", lhs, rhs, _ratio(lhs, rhs), params, int(zs.size))


def lt_sum_t3(report: SpectrumReport, nb: NormBundle, epsilon: float,
              v_samples, a_values=None) -> LTReport:
    """Accretive-case sum split across the unit circle (|z| = 1 goes outside).

    Requires Re V >= 0 samplewise.  ``a_values`` adds per-shift diagnostic
    rows for the kernel (|z|+a)^(-2p) with structure |V|_p^p / a^(2p-1/2).
    """
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError("epsilon must lie in (0, 1)")
    if not nb.p > 1:
        raise PreconditionError("this bound family needs p > 1")
    v = np.asarray(v_samples)
    if v.size and float(np.min(v.real)) < 0.0:
        raise HypothesisViolationError(
            "accretive bound needs Re V >= 0 samplewise; "
            f"min Re V = {float(np.min(v.real))}"
        )
    zs, d = _distances(report)
    az = np.abs(zs)
    inside = az < 1.0
    lhs_in = _dist_sum(d[inside], nb.p, az[inside] ** (0.5 - epsilon))
    lhs_out = _dist_sum(d[~inside], nb.p, az[~inside] ** (0.5 + epsilon))
    lhs = lhs_in + lhs_out
    rhs = _vp_power(nb)
    params = _base_params(report, nb)
    params.update({
        "epsilon": epsilon,
        "lhs_inside_disk": lhs_in,
        "lhs_outside_disk": lhs_out,
    })
    if a_values is not None:
        rows = []
        for a in a_values:
            if not a > 0:
                raise PreconditionError("diagnostic shifts a must be positive")
            lhs_a = _dist_sum(d, nb.p, (az + a) ** (2 * nb.p))
            rhs_a = _vp_power(nb) / a ** (2.0 * nb.p - 0.5)
            rows.append({"a": float(a), "lhs": lhs_a, "rhs_structure": rhs_a,
                         "empirical_ratio": _ratio(lhs_a, rhs_a)})
        params["per_a_diagnostics"] = rows
    return LTReport("T3", lhs, rhs, _ratio(lhs, rhs), params, int(zs.size))


@dataclass
class HansmannReport:
    """Empirical spectral-variation ratios over a random matrix ensemble."""

    n: int
    trials: int
    p: float
    perturbation_scale: float
    diagonal: bool
    ratios: np.ndarray
    degenerate: int
    skipped: int
    rng_family: str = RNG_FAMILY

    @property
    def min_ratio(self) -> float:
        return float(np.min(self.ratios)) if self.ratios.size else math.nan

    @property
    def median_ratio(self) -> float:
        return float(np.median(self.ratios)) if self.ratios.size else math.nan

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios)) if self.ratios.size else math.nan

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "p": self.p,
            "perturbation_scale": self.perturbation_scale,
            "diagonal": self.diagonal,
            "ratios": [float(r) for r in self.ratios],
            "min_ratio": self.min_ratio,
            "median_ratio": self.median_ratio,
            "max_ratio": self.max_ratio,
            "degenerate": self.degenerate,
            "skipped": self.skipped,
            "rng_family": self.rng_family,
        }


def hansmann_ensemble(n: int, trials: int, p: float, perturbation_scale: float,
                      rng: np.random.Generator,
                      diagonal: bool = False) -> HansmannReport:
    """Measure sum dist^p(eig(A0+B), spec(A0)) / |B|_Sp^p on random pairs.

    A0 is a random real diagonal; B is complex Ginibre rescaled to the
    requested Schatten-p norm (or diagonal and kept below half the
    smallest A0 gap, where the ratio is exactly 1).  The max ratio over
    trials is the empirical lower estimate of the universal constant.
    """
    if n < 2:
        raise PreconditionError("need matrix size n >= 2")
    if not p > 1:
        raise PreconditionError("the spectral-variation bound needs p > 1")
    ratios = []
    degenerate = 0
    skipped = 0
    for _ in range(trials):
        if diagonal:
            a0 = np.cumsum(rng.uniform(0.5, 1.5, n))
            b_diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = np.diag(b_diag)
        else:
            a0 = np.sort(rng.uniform(0.0, 10.0, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm_b = schatten.schatten_norm(b, p)
        if norm_b == 0.0 or perturbation_scale == 0.0:
            degenerate += 1
            continue
        b *= perturbation_scale / norm_b
        if diagonal:
            # stay below half the smallest diagonal gap so each perturbed
            # eigenvalue still projects onto its own diagonal entry
            min_gap = float(np.min(np.diff(a0)))
            top = float(np.max(np.abs(np.diag(b))))
            if top > 0.45 * min_gap:
                b *= 0.45 * min_gap / top
        actual = schatten.schatten_norm(b, p)
        try:
            eigs = np.linalg.eigvals(np.diag(a0) + b)
        except np.linalg.LinAlgError:
            skipped += 1
            continue
        dsum = float(np.sum(operators.point_cloud_distance(eigs, a0) ** p))
        ratios.append(dsum / actual**p)
    return HansmannReport(
        n=n, trials=trials, p=float(p),
        perturbation_scale=float(perturbation_scale), diagonal=diagonal,
        ratios=np.asarray(ratios), degenerate=degenerate, skipped=skipped,
    )


def coupling_sweep(run_point, alphas) -> list[dict]:
    """Scale V -> alpha V through a pipeline and tabulate the reports.

    ``run_point(alpha) -> LTReport``.  Every right side scales like
    alpha^p modulo its (1 + |alpha V|_p) factors, so rows carry
    lhs / alpha^p for the trend check.
    """
    if any(alpha < 0 for alpha in alphas):
        raise PreconditionError("coupling values must be nonnegative")
    rows = []
    for alpha in alphas:
        rep = run_point(float(alpha))
        p = float(rep.parameters["p"])
        rows.append({
            "alpha": float(alpha),
            "theorem": rep.theorem,
            "lhs": rep.lhs,
            "rhs_structure": rep.rhs_structure,
            "empirical_ratio": rep.empirical_ratio,
            "lhs_over_alpha_p": rep.lhs / alpha**p if alpha > 0 else math.nan,
            "eigenvalue_count": rep.eigenvalue_count,
        })
    return rows


def sweep_trend(rows: list[dict]) -> dict:
    """Flag departures of lhs/alpha^p from constancy over the smallest couplings.

    At weak coupling the sum scales like alpha^p, so the normalized column
    should be flat; a spread of 4 or more across the 3 smallest positive
    alphas is flagged (never silently passed).
    """
    rows_pos = sorted((r for r in rows if r["alpha"] > 0), key=lambda r: r["alpha"])
    sample = [r["lhs_over_alpha_p"] for r in rows_pos[:_TREND_WINDOW]]
    sample = [v for v in sample if np.isfinite(v) and v > 0]
    if len(sample) < 2:
        return {"trend_ok": True, "trend_spread": math.nan, "window": _TREND_WINDOW}
    spread = max(sample) / min(sample)
    return {"trend_ok": bool(spread < _TREND_FACTOR), "trend_spread": spread,
            "window": _TREND_WINDOW, "factor": _TREND_FACTOR}


@dataclass
class ChainReport:
    """Link-by-link audit of the T1 derivation on a matrix model.

    Link 1: each discrete candidate's distortion ratio clears the uniform
    lower bound.  Link 2: the spectral-variation ratio of the actual
    resolvent pair is finite.  Link 3: the measured Schatten norm of the
    resolvent difference against its analytic structure (reported, not
    asserted: the underlying multiplier estimate has no exact matrix
    analogue), and the measured |W(omega)|_Sp of W = V R(omega, H0), which
    ``schatten.omega_prime`` makes provably small.  The composite constant
    is lhs / |dR|_Sp^p.
    """

    omega: float
    omega1: float
    link1_min_quotient: float
    link1_violations: int
    link1_count: int
    link2_hansmann_ratio: float
    link3_delta_r_norm: float
    link3_bound_structure: float
    link3_margin: float
    link3_w_norm: float
    lt_report: LTReport
    composite_constant: float
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def default_omega(omega1: float) -> float:
    """omega_1 - max(1, |omega_1|): strictly admissible, away from the
    (omega_1 - omega)^(-p) blowup, and nonpositive for the uniform
    distortion bound."""
    return omega1 - max(1.0, abs(omega1))


def theorem1_chain(op_h0: operators.DiscretizedOperator,
                   op_h: operators.DiscretizedOperator,
                   report: SpectrumReport, nb: NormBundle,
                   omega: float | None = None) -> ChainReport:
    """Audit the T1 derivation on an assembled (H0, H) pair.

    The spectrum report must be built against a band set valid for every
    eigenvalue (close it with a terminal ray when it was truncated).
    H and H0 must share the grid and differ by a diagonal D = H - H0 (a
    multiplication operator), so R(omega,H) - R(omega,H0) has rank |supp D|.
    """
    if (op_h.size, op_h.spacing, op_h.boundary) != (op_h0.size, op_h0.spacing, op_h0.boundary):
        raise PreconditionError("H and H0 must share the grid size, spacing and boundary")
    d = op_h.matrix - op_h0.matrix
    supp, cols = d.nonzero()
    if np.any(supp != cols):
        raise PreconditionError("H - H0 must be diagonal (a multiplication operator)")
    I = report.band_set
    omega1 = operators.numerical_range_abscissa(op_h)
    if omega is None:
        omega = default_omega(omega1)
    if not (-math.inf < omega < omega1 and omega <= 0.0 and omega < I.a1):
        raise PreconditionError(
            f"omega={omega} must be finite, sit below omega_1, below a_1, and be <= 0"
        )
    mob = moebius.MoebiusMap(omega)

    zs = report.contributing()
    if zs.size:
        ratio = np.atleast_1d(moebius.distortion_ratio(zs, I, mob))
        bound = np.atleast_1d(moebius.distortion_bound(zs, I, mob, "uniform"))
        quot = ratio / bound
        link1_min = float(np.min(quot))
        link1_viol = int(np.sum(quot < 1.0 - _CHAIN_TOLERANCE))
    else:
        link1_min = math.inf
        link1_viol = 0

    # dR = -R(H)[:, S] D_S R(H0)[:, S]^T and W = D R(H0) has the nonzero
    # rows D_S R(H0)[:, S]^T, as R(omega, H0) is symmetric; the unitary
    # factors of two thin QRs drop out of the singular values
    r_h = np.linalg.qr(operators.resolvent(op_h, omega, supp), mode="r")
    r_h0 = np.linalg.qr(operators.resolvent(op_h0, omega, supp), mode="r")
    w_core = d.diagonal()[supp, None] * r_h0.T
    delta_r_norm = schatten.schatten_norm(r_h @ w_core, nb.p)

    lam = 1.0 / (operators.eigenvalues(op_h) - omega)
    cloud0 = 1.0 / (operators.eigenvalues(op_h0) - omega)
    spectral_sum = float(np.sum(operators.point_cloud_distance(lam, cloud0) ** nb.p))
    link2 = _ratio(spectral_sum, delta_r_norm**nb.p)

    bound_struct = schatten.resolvent_diff_bound(omega, omega1, nb, I.a1)
    link3_margin = _ratio(bound_struct, delta_r_norm**nb.p)

    lt = lt_sum_t1(report, omega, omega1, nb)
    composite = _ratio(lt.lhs, delta_r_norm**nb.p)
    return ChainReport(
        omega=omega, omega1=omega1,
        link1_min_quotient=link1_min, link1_violations=link1_viol,
        link1_count=int(zs.size),
        link2_hansmann_ratio=link2,
        link3_delta_r_norm=delta_r_norm,
        link3_bound_structure=bound_struct,
        link3_margin=link3_margin,
        link3_w_norm=schatten.schatten_norm(w_core, nb.p),
        lt_report=lt,
        composite_constant=composite,
        parameters={"p": nb.p, "N": op_h.size, "boundary": op_h.boundary},
    )
