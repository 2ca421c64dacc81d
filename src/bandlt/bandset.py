"""Truncated band sets on the real line and exact distance geometry.

A band set is a finite union of closed disjoint intervals
``[a_1,b_1] u ... u [a_K,b_K]`` with ``0 <= a_1 < b_1 < a_2 < ... < b_K``,
optionally closed by a terminal ray ``[ray_start, inf)``.  It models the
essential spectrum of a nonnegative 1D Schrodinger operator with band
structure.  Without a ray, distance queries are truncation-exact only for
``Re z <= b_K``; queries beyond that fail loudly instead of returning a
silently wrong lower bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError, ValidityCapError


@dataclass(frozen=True)
class BandSet:
    """Validated union of bands, plus an optional terminal ray.

    ``validity_cap`` is the largest Re z for which distances computed
    against the truncation agree with any infinite extension of the set;
    it equals ``b_K`` without a ray and ``+inf`` with one.
    """

    edges: tuple[tuple[float, float], ...]
    ray_start: float | None
    validity_cap: float

    @property
    def terminal_ray(self) -> bool:
        return self.ray_start is not None

    @property
    def num_bands(self) -> int:
        return len(self.edges)

    @property
    def a1(self) -> float:
        return self.edges[0][0]

    @property
    def last_edge(self) -> float:
        """Largest stored energy (ray start when present, else b_K)."""
        return self.ray_start if self.ray_start is not None else self.edges[-1][1]

    def lower_edges(self) -> np.ndarray:
        return np.array([a for a, _ in self.edges], dtype=float)

    def upper_edges(self) -> np.ndarray:
        return np.array([b for _, b in self.edges], dtype=float)

    def __repr__(self) -> str:
        ray = f", ray_start={self.ray_start}" if self.terminal_ray else ""
        return f"BandSet({list(self.edges)}{ray})"


def validate(edges, ray_start: float | None = None) -> BandSet:
    """Check ordering invariants and build a BandSet.

    Rejects an empty list, ``a_1 < 0`` (the modeled operators are
    nonnegative), any non-interlacing pair (reported with the 1-based
    band index), and a ray starting at or below ``b_K``.
    """
    try:
        pairs = [(float(a), float(b)) for a, b in edges]
        ray_start = None if ray_start is None else float(ray_start)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"band edges must be [a, b] number pairs: {exc}") from None
    if not pairs:
        raise ValidationError("band set needs at least one band")
    for k, (a, b) in enumerate(pairs, start=1):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError(f"non-finite edge in band k={k}")
        if not a < b:
            raise ValidationError(f"edges not strictly interlacing at k={k}: a_k >= b_k")
    if pairs[0][0] < 0.0:
        raise ValidationError(
            f"a_1 = {pairs[0][0]} < 0: band sets model nonnegative operators"
        )
    for k in range(len(pairs) - 1):
        if not pairs[k][1] < pairs[k + 1][0]:
            raise ValidationError(f"edges not strictly interlacing at k={k + 1}")
    if ray_start is not None:
        if not math.isfinite(ray_start) or not pairs[-1][1] < ray_start:
            raise ValidationError(
                f"terminal ray must start strictly above b_K={pairs[-1][1]}"
            )
        cap = math.inf
    else:
        cap = pairs[-1][1]
    return BandSet(edges=tuple(pairs), ray_start=ray_start, validity_cap=cap)


def _interval_dist(x, y, lo, hi):
    """Distance from x + iy (real arrays of one shape) to the union of
    closed intervals [lo_k, hi_k]: band sets and their Moebius images."""
    fx = np.ravel(x)
    dx = np.maximum(lo[:, None] - fx, fx - hi[:, None])
    np.maximum(dx, 0.0, out=dx)
    return np.min(np.hypot(dx, np.ravel(y)), axis=0).reshape(np.shape(x))


def dist_to_bands(z, band_set: BandSet, treat_as_complete: bool = False):
    """Euclidean distance from z (scalar or array) to the band set.

    Exact for Re z <= validity_cap; beyond that raises ValidityCapError
    because bands dropped by the truncation could be closer.  Passing
    ``treat_as_complete=True`` reads the set as literal data rather than
    a truncation, lifting the cap (spectrum classification does this).
    """
    zs = np.asarray(z, dtype=complex)
    x = zs.real
    if (not treat_as_complete and not band_set.terminal_ray
            and np.any(x > band_set.validity_cap)):
        raise ValidityCapError(
            "distance query with Re z > validity_cap "
            f"({band_set.validity_cap}); truncated set cannot answer exactly",
            cap=band_set.validity_cap,
        )
    lo = band_set.lower_edges()
    hi = band_set.upper_edges()
    if band_set.terminal_ray:
        # beyond the ray start the distance is |Im z|; clipping Re z there
        # keeps +inf - inf out of the ray's open end
        x = np.minimum(x, band_set.ray_start)
        lo = np.append(lo, band_set.ray_start)
        hi = np.append(hi, np.inf)
    d = _interval_dist(x, zs.imag, lo, hi)
    return float(d) if zs.ndim == 0 else d


def gaps(band_set: BandSet) -> tuple[np.ndarray, np.ndarray]:
    """(left ends, right ends) of the stored gaps in order, counting the
    gap between the last band and the terminal ray."""
    left = band_set.upper_edges()
    right = list(band_set.lower_edges()[1:])
    if band_set.terminal_ray:
        right.append(band_set.ray_start)
    return left[: len(right)], np.asarray(right)


def gap_ratio(band_set: BandSet) -> float:
    """max_k (gap length)/(left band's upper edge) over all stored gaps.

    The gap between the last band and the terminal ray counts.  Invariant
    under rescaling of the energy axis.
    """
    left, right = gaps(band_set)
    if not right.size:
        raise PreconditionError("no gaps: single band without a terminal ray")
    return float(np.max((right - left) / left))


def close_with_ray(band_set: BandSet) -> BandSet:
    """Replace the last band by a terminal ray starting at its lower edge.

    Models the accumulating tail of an infinite band set: distances for
    Re z below the dropped band are unchanged, and all queries become
    admissible.  Requires at least two bands.
    """
    if band_set.num_bands < 2:
        raise PreconditionError("need at least two bands to close with a ray")
    if band_set.terminal_ray:
        raise PreconditionError("band set already has a terminal ray")
    return validate(band_set.edges[:-1], ray_start=band_set.edges[-1][0])


def to_json(band_set: BandSet) -> dict:
    """JSON-ready dict; shared format of the hill output and the CLI input."""
    doc = {"bands": [[a, b] for a, b in band_set.edges]}
    if band_set.terminal_ray:
        doc["terminal_ray"] = band_set.ray_start
    return doc


def from_json(doc) -> BandSet:
    """Parse the shared band-set JSON (dict or string)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "bands" not in doc:
        raise ValidationError("band-set JSON needs a 'bands' array")
    return validate(doc["bands"], ray_start=doc.get("terminal_ray"))
