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
region and confirms the ratio dominates the bound, reporting any
violations as data.  A draw is decided on r and theta where Re z < a_1
is certain (and, for ``uniform``, where z is off the real axis and below
the validity cap), otherwise on its exact Re z and theta; Re z and Im z
are computed for the kept draws only.  Draws and checks stream in one
pass, in chunks, so no array grows with the number of samples.
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
_CHUNK = 1 << 15  # draws per pass, and 4x the samples per check: the arrays stay in cache


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
    """omega finite (at -inf the map sends every z to 0) and below a_1."""
    if not -np.inf < mob.omega < band_set.a1:
        raise PreconditionError(
            f"map shift omega={mob.omega} must be finite and lie strictly below "
            f"a_1={band_set.a1}"
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


def _region_codes(x: np.ndarray, band_set: BandSet) -> tuple[np.ndarray, np.ndarray]:
    """Classify real parts x (1-D) as halfplane / band / gap (int8 codes);
    also returns the ranks j of x among the lower edges.

    Edge energies belong to the band (the gap condition is strict); x < a_1
    ranks 0 among the lower edges and is half-plane, and a gap x of rank j
    lies past band j.  A ray-free set codes x beyond its last band as a
    gap with no gap to name; callers reject x > validity_cap first.
    """
    j = bandset._rank(band_set.lower_edges(), x)
    in_band = x <= band_set.upper_edges()[j - 1]
    if band_set.terminal_ray:
        in_band |= x >= band_set.ray_start
    codes = np.where(in_band, np.int8(_BAND), np.int8(_GAP))
    codes[j == 0] = _HALFPLANE
    return codes, j


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
    codes, j = _region_codes(x, band_set)

    if not np.all(_REGIONS[variant][0][codes]):
        raise PreconditionError(
            f"variant {variant!r} admits only {_REGIONS[variant][1]}; "
            "got a point outside that region"
        )
    if variant == "halfplane":
        out = 1.0 / (3.0 * q * (q + band_set.a1 - mob.omega))
    elif variant == "gap":
        gl, gr = bandset.gaps(band_set)
        b_k = gl[j - 1]
        a_next = gr[j - 1]
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


def _admits(x: np.ndarray, theta: np.ndarray, band_set: BandSet,
            variant: str) -> np.ndarray:
    """Mask of the admissible draws among real parts x and angles theta.

    Keeps x finite, within validity and in the variant's region, and drops
    a real z on a band (on the set), so no distance is computed there.
    z is real exactly when theta = 0: r in _SAMPLE_RADII and theta in
    [0, 2 pi) are finite, the only zero of sin there is 0 (sin of the
    double nearest pi is 1.2e-16), and a nonzero draw of
    rng.uniform(0, 2 pi) is at least 2 pi 2^-53, so fl(r fl(sin theta))
    neither underflows nor overflows.
    """
    codes = _region_codes(x, band_set)[0]
    keep = _REGIONS[variant][0][codes]
    keep &= np.isfinite(x)
    if not band_set.terminal_ray:
        keep &= x <= band_set.validity_cap
    keep &= (theta != 0.0) | (codes != _BAND)
    return keep


def _may_reach_a1(r: np.ndarray, theta: np.ndarray, omega: float,
                  a1: float) -> np.ndarray:
    """False only where Re z = fl(omega + fl(r fl(cos theta))) < a_1 for sure:
    fl(cos theta) <= 1 and rounding is monotone, so Re z <= fl(omega + r);
    for theta in [pi/2 + m, 3pi/2 - m], fl(cos theta) < 0, so Re z <= omega."""
    keep = theta < 0.5 * np.pi + _THETA_MARGIN
    keep |= theta > 1.5 * np.pi - _THETA_MARGIN
    keep &= omega + r >= a1
    return keep


def _decide(r: np.ndarray, theta: np.ndarray, omega: float, band_set: BandSet,
            variant: str) -> tuple[np.ndarray, np.ndarray]:
    """(keep, undecided): the draws admitted on r and theta alone, and those
    that need their exact Re z classified.  Off _may_reach_a1, Re z < a_1
    for sure: halfplane and uniform admit such a draw, gap rejects it.
    uniform also admits theta != 0 (z off the real axis) with
    fl(omega + r) <= validity_cap, since Re z <= fl(omega + r)."""
    undecided = _may_reach_a1(r, theta, omega, band_set.a1)
    if _REGIONS[variant][0][_HALFPLANE]:
        keep = ~undecided
    else:
        keep = np.zeros(r.size, dtype=bool)
    if variant == "uniform":
        sure = omega + r <= band_set.validity_cap
        sure &= theta != 0.0
        keep |= sure
        undecided &= ~sure
    return keep, undecided


def _real_part(r: np.ndarray, theta: np.ndarray, omega: float) -> np.ndarray:
    """Re z = fl(omega + fl(r fl(cos theta))), the bits of omega + r e^(i theta)."""
    x = np.cos(theta)
    x *= r
    x += omega
    return x


def _check(z: np.ndarray, band_set: BandSet, mob: MoebiusMap, variant: str,
           tolerance: float) -> tuple[float, list[dict]]:
    """The least ratio / bound over the samples z (NaN if any is NaN) and the
    violations among them, in order."""
    ratio = distortion_ratio(z, band_set, mob)
    bound = distortion_bound(z, band_set, mob, variant)
    quotient = ratio / bound
    bad = quotient < 1.0 - tolerance
    return np.min(quotient), [
        {"z": [float(w.real), float(w.imag)], "ratio": float(r), "bound": float(b)}
        for w, r, b in zip(z[bad], ratio[bad], bound[bad])
    ]


def verify_distortion(
    band_set: BandSet,
    mob: MoebiusMap,
    variant: str = "uniform",
    n: int = 10_000,
    rng: np.random.Generator | None = None,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Sample the variant's region and check ratio >= bound (relative tolerance).

    Each round draws a block of log-uniform r = |z - omega| in
    _SAMPLE_RADII, then a block of uniform theta = arg(z - omega), and
    keeps the admissible draws in order.  Rejection reads only
    Re z = omega + r cos(theta) and whether theta = 0, and decides most
    draws on r and theta alone (_decide); Im z = r sin(theta) is computed
    for the kept draws only (the bits of omega + r exp(i theta)).
    One pass streams it all: r_rng takes rng's state to draw the log r
    block while rng jumps past it to draw theta, one _CHUNK of each at a
    time, so rng ends each round where whole blocks leave it; every chunk
    of the last round is classified, since ``rejected`` counts the
    rejections past the n-th kept draw too; and the kept z are checked
    _CHUNK // 4 at a time, so memory does not grow with n.

    Preconditions are checked before any draw: n >= 0, a tolerance below
    inf (at NaN or inf no quotient could count as a violation; -inf lists
    every sample), the variant's, and an rng on PCG64 or PCG64DXSM, the
    numpy generators whose jump ahead is exact.  Raises NumericalError
    when max(10^6, 2000 n) draws hold fewer than n admissible points.
    Returns a report; violations never raise.
    """
    if not n >= 0:
        raise PreconditionError(f"sample count n={n} must be >= 0")
    if not tolerance < np.inf:
        raise PreconditionError(f"tolerance={tolerance} must be a number below inf")
    _require_variant(band_set, mob, variant)
    rng = rng if rng is not None else np.random.default_rng()
    bits = rng.bit_generator
    if type(bits) not in (np.random.PCG64, np.random.PCG64DXSM):
        raise PreconditionError(
            f"rng draws from {type(bits).__name__}; the sampler needs PCG64 or "
            "PCG64DXSM to jump over a round's log r block"
        )
    held = {k: bits.state[k] for k in ("has_uint32", "uinteger")}  # advance() drops them
    r_rng = np.random.Generator(type(bits)(0))  # its state is set at each round

    lo, hi = np.log(_SAMPLE_RADII)
    r_buf, theta_buf = np.empty(_CHUNK), np.empty(_CHUNK)
    z = np.empty(min(n, _CHUNK // 4), dtype=complex)
    min_quotient, violations = np.inf, []
    kept = filled = rejected = attempts = 0
    while kept < n and attempts < max(1_000_000, 2000 * n):
        size = min(max(4 * (n - kept), 4096), 1 << 20)
        r_rng.bit_generator.state = bits.state
        bits.advance(size)
        attempts += size
        for start in range(0, size, _CHUNK):
            r = r_rng.random(out=r_buf[:min(_CHUNK, size - start)])  # rng.uniform(lo, hi)
            r *= hi - lo
            r += lo
            np.exp(r, out=r)
            th = rng.random(out=theta_buf[:r.size])  # rng.uniform(0, 2 pi)
            th *= 2.0 * np.pi
            keep, undecided = _decide(r, th, mob.omega, band_set, variant)
            idx = np.flatnonzero(undecided)
            keep[idx] = _admits(_real_part(r[idx], th[idx], mob.omega), th[idx],
                                band_set, variant)
            take = np.flatnonzero(keep)
            del keep, undecided, idx
            rejected += r.size - take.size
            take = take[:n - kept]  # Re z and Im z only for the draws kept
            while take.size:
                put, take = take[:z.size - filled], take[z.size - filled:]
                zc = z[filled:filled + put.size]
                zc.real = _real_part(r[put], th[put], mob.omega)
                zc.imag = np.sin(th[put]) * r[put]
                filled += put.size
                kept += put.size
                if filled == z.size or kept == n:
                    least, bad = _check(z[:filled], band_set, mob, variant, tolerance)
                    min_quotient = np.minimum(min_quotient, least)  # NaN sticks
                    violations += bad
                    filled = 0
    bits.state = {**bits.state, **held}
    if kept < n:
        raise NumericalError(
            f"sampling produced only {kept}/{n} admissible points "
            f"in {attempts} draws for variant {variant!r}"
        )
    return VerificationReport(
        variant=variant,
        omega=mob.omega,
        samples=int(n),
        rejected=rejected,
        min_quotient=float(min_quotient) if n else None,
        tolerance=tolerance,
        violations=violations,
    )
