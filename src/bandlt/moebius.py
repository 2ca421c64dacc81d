"""The fractional linear map 1/(z - omega) on band sets, and distortion bounds.

For a real shift ``omega`` strictly below the first band edge, the map
``z -> 1/(z - omega)`` sends each band ``[a_k, b_k]`` to an interval
``[1/(b_k - omega), 1/(a_k - omega)]``; images of later bands pile up
towards 0.  The distortion ratio

    dist(1/(z - omega), image set) / dist(z, band set)

admits closed-form lower bounds depending on where Re z sits relative to
the bands:

* ``halfplane`` (Re z < a_1, or Re z inside a band):
      1 / (3 q (q + a_1 - omega)),            q = |z - omega|
* ``gap`` (b_k < Re z < a_{k+1}):
      1 / (2 q^2) * (1 + (a_{k+1} - b_k)/(b_k - omega))^{-1}
* ``uniform`` (any z off the set, needs omega <= 0 and a finite gap
  ratio r):
      1 / (5 (1 + r)) * 1 / (q (q + a_1 - omega))

``verify_distortion`` samples z = omega + r e^(i theta) in the variant's
region, rejecting draws on Re z and theta (``gap`` first on r and theta,
as rejected draws too) and computing Im z only for the draws it keeps,
and confirms the ratio dominates the bound, reporting any violations as
data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import bandset
from .bandset import BandSet, _interval_dist
from .errors import NumericalError, PoleError, PreconditionError, ValidityCapError

#: region codes used by the vectorized classifier
_HALFPLANE = 0
_BAND = 1
_GAP = 2

VARIANTS = ("halfplane", "gap", "uniform")
RNG_FAMILY = "numpy.random.Generator/PCG64"  # of every seeded draw in the toolkit

#: per variant: admits[code] for the (halfplane, band, gap) region codes,
#: and the admitted region in words
_REGIONS = {"halfplane": (np.array([True, True, False]), "Re z < a_1 or Re z inside a band"),
            "gap": (np.array([False, False, True]), "b_k < Re z < a_(k+1)"),
            "uniform": (np.array([True, True, True]), "any Re z")}
_SAMPLE_RADII = (1e-3, 1e3)  # modulus range |z - omega| of the draws
_THETA_MARGIN = 1e-6  # cos theta < -sin(margin) inside the rejected theta window


@dataclass(frozen=True)
class MoebiusMap:
    """The map z -> 1/(z - omega) with a real shift omega."""

    omega: float


@dataclass(frozen=True)
class MoebiusImage:
    """Image of a band set: intervals (beta_k, alpha_k), in source-band
    order from ``image_bands`` (any order is accepted).

    ``ray_alpha`` is the right endpoint of the terminal ray's image
    (0, ray_alpha]; ``accumulation_at_zero`` marks that 0 is a limit
    point of the modeled (conceptually infinite) set.
    """

    intervals: tuple[tuple[float, float], ...]
    accumulation_at_zero: bool = False
    ray_alpha: float | None = None


def apply(mob: MoebiusMap, z):
    """Evaluate 1/(z - omega); scalar or array. Errors at the pole z = omega."""
    zs = np.asarray(z, dtype=complex)
    shifted = zs - mob.omega
    if np.any(shifted == 0):
        raise PoleError(f"z = omega = {mob.omega} is the pole of the map")
    out = 1.0 / shifted
    return complex(out) if zs.ndim == 0 else out


def _require_below_first_edge(mob: MoebiusMap, band_set: BandSet) -> None:
    if not mob.omega < band_set.a1:
        raise PreconditionError(
            f"map shift omega={mob.omega} must lie strictly below a_1={band_set.a1}"
        )


def _require_variant(band_set: BandSet, mob: MoebiusMap, variant: str) -> None:
    """The preconditions of a variant's bound that do not depend on z."""
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}; expected {VARIANTS}")
    _require_below_first_edge(mob, band_set)
    if variant == "uniform" and mob.omega > 0.0:
        raise PreconditionError("variant 'uniform' requires omega <= 0")
    if variant != "halfplane":
        bandset.gap_ratio(band_set)  # refuses a set with no gaps


def image_bands(band_set: BandSet, mob: MoebiusMap) -> MoebiusImage:
    """Map every band through 1/(. - omega); requires omega < a_1."""
    _require_below_first_edge(mob, band_set)
    ivals = tuple(
        (1.0 / (b - mob.omega), 1.0 / (a - mob.omega)) for a, b in band_set.edges
    )
    seq = [v for pair in reversed(ivals) for v in pair]
    if any(s2 <= s1 for s1, s2 in zip(seq, seq[1:])) or seq[0] <= 0.0:
        raise NumericalError("image intervals lost strict ordering (overflow?)")
    ray_alpha = None
    if band_set.terminal_ray:
        ray_alpha = 1.0 / (band_set.ray_start - mob.omega)
    return MoebiusImage(
        intervals=ivals,
        accumulation_at_zero=band_set.terminal_ray,
        ray_alpha=ray_alpha,
    )


def dist_to_image(lam, image: MoebiusImage):
    """Distance from lam (scalar or array) to the image set.

    Includes the terminal-ray image [0, ray_alpha] when present, else the
    accumulation point 0 when flagged.
    """
    ls = np.asarray(lam, dtype=complex)
    ivals = list(image.intervals)
    if image.ray_alpha is not None:
        ivals.append((0.0, image.ray_alpha))
    elif image.accumulation_at_zero:
        ivals.append((0.0, 0.0))
    lo, hi = np.array(sorted(ivals), dtype=float).T
    # the running max keeps the union, and makes hand-built overlapping
    # intervals safe for the two-neighbour search
    d = _interval_dist(ls.real, ls.imag, lo, np.maximum.accumulate(hi))
    return float(d) if ls.ndim == 0 else d


def _region_codes(x: np.ndarray, band_set: BandSet) -> np.ndarray:
    """Classify real parts x (1-D) as halfplane / band / gap (int8 codes).

    Edge energies belong to the band (the gap condition is strict).  All
    of x < a_1 is half-plane, so only the rest is searched.  A ray-free
    set codes x beyond its last band as a gap with no gap to name;
    callers reject x > validity_cap first.
    """
    codes = np.full(x.shape, _HALFPLANE, dtype=np.int8)
    rest = ~(x < band_set.a1)
    xr = x[rest]
    idx = np.searchsorted(band_set.lower_edges(), xr, side="right") - 1
    in_band = xr <= band_set.upper_edges()[idx]
    if band_set.terminal_ray:
        in_band |= xr >= band_set.ray_start
    codes[rest] = np.where(in_band, np.int8(_BAND), np.int8(_GAP))
    return codes


def distortion_ratio(z, band_set: BandSet, mob: MoebiusMap):
    """dist(1/(z-omega), image set) / dist(z, band set); z scalar or array.

    Guards against z on the band set (zero denominator).
    """
    _require_below_first_edge(mob, band_set)
    denom = bandset.dist_to_bands(z, band_set)
    if np.any(np.asarray(denom) == 0.0):
        raise PreconditionError("z lies on the band set; distortion ratio undefined")
    img = image_bands(band_set, mob)
    num = dist_to_image(apply(mob, z), img)
    return num / denom


def distortion_bound(z, band_set: BandSet, mob: MoebiusMap, variant: str):
    """Closed-form lower bound for the distortion ratio; z scalar or array.

    ``variant`` selects the region formula (see module docstring); a z
    outside the variant's admissible region is rejected with the region
    named.  ``uniform`` additionally requires omega <= 0; ``gap`` and
    ``uniform`` need at least one gap.
    """
    _require_variant(band_set, mob, variant)
    zs = np.asarray(z, dtype=complex)
    q = np.abs(np.atleast_1d(zs).ravel() - mob.omega)
    x = np.atleast_1d(zs.real).ravel()
    if not band_set.terminal_ray and not np.all(x <= band_set.validity_cap):
        raise ValidityCapError(
            "Re z beyond the last band of a truncated set cannot be "
            f"classified (validity_cap={band_set.validity_cap})",
            cap=band_set.validity_cap,
        )
    codes = _region_codes(x, band_set)

    if not np.all(_REGIONS[variant][0][codes]):
        raise PreconditionError(
            f"variant {variant!r} admits only {_REGIONS[variant][1]}; "
            "got a point outside that region"
        )
    if variant == "halfplane":
        out = 1.0 / (3.0 * q * (q + band_set.a1 - mob.omega))
    elif variant == "gap":
        gl, gr = bandset.gaps(band_set)
        gap_idx = np.searchsorted(band_set.lower_edges(), x, side="right") - 1
        b_k = gl[gap_idx]
        a_next = gr[gap_idx]
        out = 1.0 / (2.0 * q * q) / (1.0 + (a_next - b_k) / (b_k - mob.omega))
    else:  # uniform
        r = bandset.gap_ratio(band_set)
        out = 1.0 / (5.0 * (1.0 + r)) / (q * (q + band_set.a1 - mob.omega))

    out = out.reshape(zs.shape)
    return float(out) if zs.ndim == 0 else out


@dataclass
class VerificationReport:
    """Outcome of a sampling sweep of ratio-vs-bound; violations are data.

    ``rejected`` counts the draws the region filter discarded, those
    ``gap`` drops on r and theta included; admissible draws past the
    ``samples`` wanted are dropped without being counted.
    """

    variant: str
    omega: float
    samples: int
    rejected: int
    min_quotient: float | None
    tolerance: float
    violations: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def _admit(x: np.ndarray, theta: np.ndarray, band_set: BandSet, variant: str):
    """Indices of the admissible draws among real parts x and angles theta.

    Keeps x finite, within validity and in the variant's region, and drops
    a real z on a band (on the set), so no distance is computed there.
    z is real exactly when theta = 0: r in _SAMPLE_RADII and theta in
    [0, 2 pi) are finite, the only zero of sin there is 0 (sin of the
    double nearest pi is 1.2e-16), and a nonzero draw of
    rng.uniform(0, 2 pi) is at least 2 pi 2^-53, so fl(r fl(sin theta))
    neither underflows nor overflows.
    """
    codes = _region_codes(x, band_set)
    keep = _REGIONS[variant][0][codes]
    keep &= np.isfinite(x)
    if not band_set.terminal_ray:
        keep &= x <= band_set.validity_cap
    keep &= (theta != 0.0) | (codes != _BAND)
    return np.flatnonzero(keep)


def _may_reach_a1(r: np.ndarray, theta: np.ndarray, omega: float,
                  a1: float) -> np.ndarray:
    """False only where Re z = fl(omega + fl(r fl(cos theta))) < a_1 for sure:
    fl(cos theta) <= 1 and rounding is monotone, so Re z <= fl(omega + r);
    for theta in [pi/2 + m, 3pi/2 - m], fl(cos theta) < 0, so Re z <= omega."""
    keep = theta < 0.5 * np.pi + _THETA_MARGIN
    keep |= theta > 1.5 * np.pi - _THETA_MARGIN
    keep &= omega + r >= a1
    return keep


def _sample(band_set: BandSet, mob: MoebiusMap, variant: str, n: int,
            rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """The first n admissible draws and the number of draws rejected."""
    z = np.empty(n, dtype=complex)
    kept = rejected = attempts = 0
    while kept < n and attempts < max(1_000_000, 2000 * n):
        size = min(max(4 * (n - kept), 4096), 1 << 20)
        r = np.exp(rng.uniform(*np.log(_SAMPLE_RADII), size))
        theta = rng.uniform(0.0, 2.0 * np.pi, size)
        if not _REGIONS[variant][0][_HALFPLANE]:  # needs omega < a_1
            pre = np.flatnonzero(_may_reach_a1(r, theta, mob.omega, band_set.a1))
            r, theta = r[pre], theta[pre]
        x = np.cos(theta)
        x *= r
        x += mob.omega
        idx = _admit(x, theta, band_set, variant)
        attempts += size
        rejected += size - idx.size
        idx = idx[:n - kept]  # Im z only for the draws kept
        z.real[kept:kept + idx.size] = x[idx]
        z.imag[kept:kept + idx.size] = np.sin(theta[idx]) * r[idx]
        kept += idx.size
    if kept < n:
        raise NumericalError(
            f"sampling produced only {kept}/{n} admissible points "
            f"in {attempts} draws for variant {variant!r}"
        )
    return z, rejected


def verify_distortion(
    band_set: BandSet,
    mob: MoebiusMap,
    variant: str = "uniform",
    n: int = 10_000,
    rng: np.random.Generator | None = None,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Sample the variant's region and check ratio >= bound (relative tolerance).

    Each round draws log-uniform r = |z - omega| in _SAMPLE_RADII, then
    uniform theta = arg(z - omega), and keeps the admissible draws in
    order.  Rejection reads only Re z = omega + r cos(theta) and whether
    theta = 0; Im z = r sin(theta) is computed for the kept draws only
    (the bits of omega + r exp(i theta)).  ``gap`` drops draws on r and
    theta first; they count as rejected.  Preconditions are checked before any draw.  Raises
    NumericalError when max(10^6, 2000 n) draws hold fewer than n
    admissible points.  Returns a report; violations never raise.
    """
    _require_variant(band_set, mob, variant)
    z, rejected = _sample(band_set, mob, variant, n,
                          rng if rng is not None else np.random.default_rng())
    if n == 0:
        return VerificationReport(
            variant=variant, omega=mob.omega, samples=0, rejected=rejected,
            min_quotient=None, tolerance=tolerance,
        )

    ratio = distortion_ratio(z, band_set, mob)
    bound = distortion_bound(z, band_set, mob, variant)
    quotient = ratio / bound
    bad = quotient < 1.0 - tolerance
    violations = [
        {"z": [float(w.real), float(w.imag)], "ratio": float(r), "bound": float(b)}
        for w, r, b in zip(z[bad], ratio[bad], bound[bad])
    ]
    return VerificationReport(
        variant=variant,
        omega=mob.omega,
        samples=int(n),
        rejected=rejected,
        min_quotient=float(np.min(quotient)),
        tolerance=tolerance,
        violations=violations,
    )
