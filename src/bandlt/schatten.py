"""Schatten/Lebesgue norms and the analytic resolvent-difference bounds.

The multiplication-resolvent product W(z) = V (H0 - z)^{-1} satisfies,
for Re z < 0,

    |W(z)|_Sp <= C1(p) |V|_p / |z|^(1-1/2p) * (1 + |V0|_inf / |a1 - z|),
    C1(p) = sqrt(2) ((1/2pi) int dx/(x^2+1)^p)^(1/p),

and combining with the numerical-range resolvent estimate
|R(omega, H)| <= 1/(omega_1 - omega) gives the p-th power bound on
|R(omega,H) - R(omega,H0)|_Sp used by the eigenvalue sums.  This module
evaluates C1 (quadrature, cross-checked against its Gamma closed form),
the bounds, the shift omega' that makes W provably small, and the
measured smallness of W on the matrix model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from . import operators
from .errors import NumericalError, PreconditionError, ValidationError


def schatten_norm(matrix, p: float) -> float:
    """(sum_j s_j^p)^(1/p) over all singular values; p >= 1."""
    if p < 1:
        raise PreconditionError("Schatten exponent must satisfy p >= 1")
    m = np.asarray(matrix)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if s.size == 0:
        return 0.0
    top = float(s[0])
    if top == 0.0:
        return 0.0
    # factor out the largest singular value so large p does not underflow
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)


def lp_norm(samples, spacing: float, p: float) -> float:
    """Discretized L^p norm (h sum |v|^p)^(1/p) of grid samples."""
    if p < 1:
        raise PreconditionError("Lebesgue exponent must satisfy p >= 1")
    if not spacing > 0:
        raise PreconditionError("grid spacing must be positive")
    v = np.abs(np.asarray(samples, dtype=complex))
    if v.size == 0 or np.max(v) == 0.0:
        return 0.0
    top = float(np.max(v))
    return top * float(spacing * np.sum((v / top) ** p)) ** (1.0 / p)


def c1_constant(p: float) -> float:
    """sqrt(2) ((1/2pi) int dx/(x^2+1)^p)^(1/p) by adaptive quadrature.

    Integrable for p > 1/2.  The hypotheses of the bounds use p >= 2;
    smaller exponents are accepted for testing the quadrature itself.
    """
    if p <= 0.5:
        raise PreconditionError("integral diverges for p <= 1/2")
    val, err = scipy.integrate.quad(
        lambda x: (x * x + 1.0) ** (-p), -np.inf, np.inf,
        epsabs=1e-14, epsrel=1e-13,
    )
    if err > 1e-10 * max(1.0, val):
        raise NumericalError(f"quadrature error estimate {err:.2e} too large")
    return math.sqrt(2.0) * (val / (2.0 * math.pi)) ** (1.0 / p)


def c1_gamma(p: float) -> float:
    """Gamma-function closed form of the same constant (cross-check path):
    sqrt(2) (Gamma(p-1/2) / (2 sqrt(pi) Gamma(p)))^(1/p)."""
    if p <= 0.5:
        raise PreconditionError("undefined for p <= 1/2")
    log_ratio = scipy.special.gammaln(p - 0.5) - scipy.special.gammaln(p)
    return math.sqrt(2.0) * math.exp(
        (log_ratio - math.log(2.0 * math.sqrt(math.pi))) / p
    )


@dataclass(frozen=True)
class NormBundle:
    """Exponent and the norms every bound formula consumes."""

    p: float
    v_p: float
    v0_inf: float
    c1: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValidationError("exponent p must exceed 1")
        if self.v_p < 0 or self.v0_inf < 0:
            raise ValidationError("norms must be nonnegative")
        if abs(self.c1 - c1_gamma(self.p)) > 1e-10:
            raise ValidationError("C1 does not match its closed form")


def norm_bundle(p: float, v_samples, spacing: float, v0_inf: float) -> NormBundle:
    """Bundle |V|_p (discretized), |V0|_inf and C1(p) for exponent p."""
    return NormBundle(
        p=float(p),
        v_p=lp_norm(v_samples, spacing, p),
        v0_inf=float(v0_inf),
        c1=c1_constant(p),
    )


def bound_w(z: complex, nb: NormBundle, a1: float) -> float:
    """Right side of the W(z) Schatten bound; requires Re z < 0."""
    z = complex(z)
    if not z.real < 0:
        raise PreconditionError("bound is stated for Re z < 0 only")
    return (
        nb.c1 * nb.v_p * abs(z) ** (-(1.0 - 0.5 / nb.p))
        * (1.0 + nb.v0_inf / abs(a1 - z))
    )


@dataclass(frozen=True)
class ResolventDiffBound:
    """p-th power bound on |R(omega,H)-R(omega,H0)|_Sp and its two factors."""

    total: float
    w_factor: float          # bound_w(omega)^p
    resolvent_factor: float  # (omega_1 - omega)^(-p)


def resolvent_diff_bound(omega: float, omega1: float, nb: NormBundle,
                         a1: float) -> ResolventDiffBound:
    """Compose the W bound with the numerical-range resolvent estimate.

    C2(p) is taken as C1(p)^p, exactly how the composition raises the W
    bound to the p-th power.  Requires omega < omega_1 and omega < 0 (the
    W bound needs a negative shift; the matrix-model omega_1 may be
    slightly positive, unlike the continuum normalization omega_1 <= 0).
    """
    if not (omega < omega1 and omega < 0):
        raise PreconditionError("need omega < omega_1 and omega < 0")
    w_factor = bound_w(omega, nb, a1) ** nb.p
    res_factor = (omega1 - omega) ** (-nb.p)
    return ResolventDiffBound(
        total=w_factor * res_factor,
        w_factor=w_factor,
        resolvent_factor=res_factor,
    )


def omega_prime(nb: NormBundle, a1: float) -> float:
    """Negative shift at which W(z) is provably a strict contraction:
    omega' = -2 (a1/2 + 1 + |V0|_inf + (4 C1 (1 + |V|_p))^(1/(1-1/2p)))."""
    if nb.p < 2:
        raise PreconditionError("shift formula is stated for p >= 2")
    expo = 1.0 / (1.0 - 0.5 / nb.p)
    return -2.0 * (
        0.5 * a1 + 1.0 + nb.v0_inf + (4.0 * nb.c1 * (1.0 + nb.v_p)) ** expo
    )


@dataclass(frozen=True)
class WSmallnessReport:
    """Measured norms of W(z) = diag(V) R(z, H0) on the matrix model."""

    z: complex
    operator_norm: float
    schatten: float
    p: float
    small: bool               # operator norm < 1/2, so I + W is invertible
    norm_ordering_ok: bool    # operator norm <= Schatten norm


def w_smallness_check(op_h0: operators.DiscretizedOperator, v_samples,
                      z: complex, nb: NormBundle) -> WSmallnessReport:
    """Build W(z) on the model and report whether it is a contraction."""
    v = np.asarray(v_samples).reshape(-1)
    if v.shape != (op_h0.size,):
        raise ValidationError("V samples must match the grid size")
    w = v[:, None] * operators.resolvent(op_h0, z)
    op_norm = float(np.linalg.norm(w, 2))
    sp_norm = schatten_norm(w, nb.p)
    return WSmallnessReport(
        z=complex(z),
        operator_norm=op_norm,
        schatten=sp_norm,
        p=nb.p,
        small=op_norm < 0.5,
        norm_ordering_ok=op_norm <= sp_norm * (1.0 + 1e-12) + 1e-300,
    )

