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

``verify_distortion`` samples a region and confirms the ratio dominates
the bound, reporting any violations as data.
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

#: per variant: admits[code] for the (halfplane, band, gap) region codes,
#: and the admitted region in words
_REGIONS = {"halfplane": (np.array([True, True, False]), "Re z < a_1 or Re z inside a band"),
            "gap": (np.array([False, False, True]), "b_k < Re z < a_(k+1)"),
            "uniform": (np.array([True, True, True]), "any Re z")}
_SAMPLE_RADII = (1e-3, 1e3)  # modulus range of the default sampler


@dataclass(frozen=True)
class MoebiusMap:
    """The map z -> 1/(z - omega) with a real shift omega."""

    omega: float


@dataclass(frozen=True)
class MoebiusImage:
    """Image of a band set: intervals (beta_k, alpha_k) in source-band order.

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

    Includes the terminal-ray image [0, ray_alpha] when present and the
    accumulation point 0 when flagged.
    """
    ls = np.asarray(lam, dtype=complex)
    ivals = list(image.intervals)
    if image.ray_alpha is not None:
        ivals.append((0.0, image.ray_alpha))
    if image.accumulation_at_zero:
        ivals.append((0.0, 0.0))
    lo, hi = np.array(ivals, dtype=float).T
    d = _interval_dist(ls.real, ls.imag, lo, hi)
    return float(d) if ls.ndim == 0 else d


def _region_codes(z, band_set: BandSet):
    """Classify Re z against the bands: halfplane / band / gap (+ gap index).

    Edge energies belong to the band (the gap condition is strict).  A
    point beyond the last band of a ray-free set is not classifiable and
    raises ValidityCapError.
    """
    x = np.atleast_1d(np.asarray(z, dtype=complex).real).ravel()
    lo = band_set.lower_edges()
    hi = band_set.upper_edges()
    codes = np.empty(x.shape, dtype=int)
    gap_idx = np.full(x.shape, -1, dtype=int)
    idx = np.searchsorted(lo, x, side="right") - 1
    below = idx < 0
    codes[below] = _HALFPLANE
    rest = ~below
    in_band = rest & (x <= hi[np.clip(idx, 0, len(hi) - 1)])
    if band_set.terminal_ray:
        in_band |= rest & (x >= band_set.ray_start)
    codes[in_band] = _BAND
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
        codes[in_gap] = _GAP
        gap_idx[in_gap] = k
    return codes, gap_idx


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
    named.  ``uniform`` additionally requires omega <= 0 and at least one
    gap (for the gap ratio).
    """
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}; expected {VARIANTS}")
    _require_below_first_edge(mob, band_set)
    zs = np.asarray(z, dtype=complex)
    q = np.abs(np.atleast_1d(zs).ravel() - mob.omega)
    codes, gap_idx = _region_codes(zs, band_set)

    if not np.all(_REGIONS[variant][0][codes]):
        raise PreconditionError(
            f"variant {variant!r} admits only {_REGIONS[variant][1]}; "
            "got a point outside that region"
        )
    if variant == "halfplane":
        out = 1.0 / (3.0 * q * (q + band_set.a1 - mob.omega))
    elif variant == "gap":
        gl, gr = bandset.gaps(band_set)
        b_k = gl[gap_idx]
        a_next = gr[gap_idx]
        out = 1.0 / (2.0 * q * q) / (1.0 + (a_next - b_k) / (b_k - mob.omega))
    else:  # uniform
        if mob.omega > 0.0:
            raise PreconditionError("variant 'uniform' requires omega <= 0")
        r = bandset.gap_ratio(band_set)
        out = 1.0 / (5.0 * (1.0 + r)) / (q * (q + band_set.a1 - mob.omega))

    out = out.reshape(zs.shape)
    return float(out) if zs.ndim == 0 else out


@dataclass
class VerificationReport:
    """Outcome of a sampling sweep of ratio-vs-bound; violations are data."""

    variant: str
    omega: float
    samples: int
    rejected: int
    min_quotient: float | None
    tolerance: float
    violations: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def _default_sampler(mob: MoebiusMap, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """Log-uniform modulus around omega, uniform argument.

    The bounds degrade quadratically in |z - omega|, so log sampling
    exercises both ends of the range.
    """
    lo, hi = np.log(_SAMPLE_RADII[0]), np.log(_SAMPLE_RADII[1])
    r = np.exp(rng.uniform(lo, hi, size))
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    return mob.omega + r * np.exp(1j * theta)


def _region_filter(z: np.ndarray, band_set: BandSet, variant: str) -> np.ndarray:
    """Keep z off the set, inside validity, and inside the variant's region.

    z is on the set exactly when it is real and its region code is a
    band, so no distance is computed here.
    """
    keep = np.isfinite(z)
    if not band_set.terminal_ray:
        keep &= z.real <= band_set.validity_cap
    zk = z[keep]
    codes, _ = _region_codes(zk, band_set)
    keep[keep] = ((codes != _BAND) | (zk.imag != 0.0)) & _REGIONS[variant][0][codes]
    return keep


def verify_distortion(
    band_set: BandSet,
    mob: MoebiusMap,
    variant: str = "uniform",
    n: int = 10_000,
    rng: np.random.Generator | None = None,
    sampler=None,
    tolerance: float = 1e-12,
    max_attempts: int | None = None,
) -> VerificationReport:
    """Sample the variant's region and check ratio >= bound (relative tolerance).

    ``sampler(rng, size)`` may replace the default log-uniform draw; its
    points are still filtered to the admissible region, with discards
    counted as rejected.  Returns a report; violations never raise.
    """
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}; expected {VARIANTS}")
    rng = rng if rng is not None else np.random.default_rng()
    draw = sampler if sampler is not None else (
        lambda g, size: _default_sampler(mob, g, size)
    )
    if max_attempts is None:
        max_attempts = max(1_000_000, 2000 * n)

    accepted: list[np.ndarray] = []
    total_kept = 0
    rejected = 0
    attempts = 0
    while total_kept < n and attempts < max_attempts:
        size = min(max(4 * (n - total_kept), 4096), 1 << 20)
        z = np.asarray(draw(rng, size), dtype=complex)
        attempts += z.size
        keep = _region_filter(z, band_set, variant)
        rejected += int(z.size - keep.sum())
        kept = z[keep][: n - total_kept]
        if kept.size:
            accepted.append(kept)
            total_kept += kept.size
    if total_kept < n:
        raise NumericalError(
            f"sampler produced only {total_kept}/{n} admissible points "
            f"in {attempts} draws for variant {variant!r}"
        )

    if n == 0:
        return VerificationReport(
            variant=variant, omega=mob.omega, samples=0, rejected=rejected,
            min_quotient=None, tolerance=tolerance,
        )

    z = np.concatenate(accepted)
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
