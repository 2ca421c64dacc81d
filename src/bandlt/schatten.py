"""Schatten/Lebesgue norms and the analytic resolvent-difference bounds.

The multiplication-resolvent product W(z) = V (H0 - z)^{-1} satisfies,
for Re z < 0,

    |W(z)|_Sp <= C1(p) |V|_p / |z|^(1-1/2p) * (1 + |V0|_inf / |a1 - z|),
    C1(p) = sqrt(2) ((1/2pi) int dx/(x^2+1)^p)^(1/p),

and combining with the numerical-range resolvent estimate
|R(omega, H)| <= 1/(omega_1 - omega) gives the p-th power bound on
|R(omega,H) - R(omega,H0)|_Sp used by the eigenvalue sums.  This module
evaluates C1 by its Gamma closed form (the quadrature of the integral is
the test oracle), the bounds and the shift omega' that makes W provably
small; the chain audit in ``ltsums`` measures W on the matrix model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """sqrt(2) ((1/2pi) int dx/(x^2+1)^p)^(1/p), by its Gamma closed form
    sqrt(2) (Gamma(p-1/2) / (2 sqrt(pi) Gamma(p)))^(1/p).

    Defined for p > 1/2; it tends to sqrt(2) as p grows.  The hypotheses
    of the bounds use p >= 2.
    """
    if p <= 0.5:
        raise PreconditionError("integral diverges for p <= 1/2")
    log_ratio = math.lgamma(p - 0.5) - math.lgamma(p)
    return math.sqrt(2.0) * math.exp(
        (log_ratio - math.log(2.0 * math.sqrt(math.pi))) / p
    )


@dataclass(frozen=True)
class NormBundle:
    """Exponent and the norms every bound formula consumes."""

    p: float
    v_p: float
    v0_inf: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValidationError("exponent p must exceed 1")
        if self.v_p < 0 or self.v0_inf < 0:
            raise ValidationError("norms must be nonnegative")

    @property
    def c1(self) -> float:
        """C1(p) of the W bound."""
        return c1_constant(self.p)


def norm_bundle(p: float, v_samples, spacing: float, v0_inf: float) -> NormBundle:
    """Bundle |V|_p (discretized) and |V0|_inf for exponent p."""
    return NormBundle(p=float(p), v_p=lp_norm(v_samples, spacing, p),
                      v0_inf=float(v0_inf))


def bound_w(z: complex, nb: NormBundle, a1: float) -> float:
    """Right side of the W(z) Schatten bound; requires a finite z, Re z < 0."""
    z = complex(z)
    if not (abs(z) < math.inf and z.real < 0):
        raise PreconditionError("bound is stated for finite z with Re z < 0 only")
    return (
        nb.c1 * nb.v_p * abs(z) ** (-(1.0 - 0.5 / nb.p))
        * (1.0 + nb.v0_inf / abs(a1 - z))
    )


def resolvent_diff_bound(omega: float, omega1: float, nb: NormBundle,
                         a1: float) -> float:
    """p-th power bound on |R(omega,H)-R(omega,H0)|_Sp: the W bound
    composed with the numerical-range resolvent estimate,
    bound_w(omega)^p (omega_1 - omega)^(-p).

    C2(p) is taken as C1(p)^p, exactly how the composition raises the W
    bound to the p-th power.  Requires a finite omega < omega_1 and
    omega < 0 (the W bound needs a negative shift; the matrix-model
    omega_1 may be slightly positive, unlike the continuum normalization
    omega_1 <= 0).
    """
    if not (-math.inf < omega < omega1 and omega < 0):
        raise PreconditionError("need a finite omega < omega_1 and omega < 0")
    return bound_w(omega, nb, a1) ** nb.p * (omega1 - omega) ** (-nb.p)


def omega_prime(nb: NormBundle, a1: float) -> float:
    """Negative shift at which W(z) is provably a strict contraction:
    omega' = -2 (a1/2 + 1 + |V0|_inf + (4 C1 (1 + |V|_p))^(1/(1-1/2p)))."""
    if nb.p < 2:
        raise PreconditionError("shift formula is stated for p >= 2")
    expo = 1.0 / (1.0 - 0.5 / nb.p)
    return -2.0 * (
        0.5 * a1 + 1.0 + nb.v0_inf + (4.0 * nb.c1 * (1.0 + nb.v_p)) ** expo
    )
