"""Band spectrum of a periodic Schrodinger operator -y'' + V0(x) y = E y.

The band edges are the periodic and antiperiodic eigenvalues.  Their
number below E, counted with multiplicity, is c(E): E lies in a band
exactly when c(E) is odd, and the k-th edge is where c reaches k.

For an even V0 (``PeriodicPotential.even``: ``cosine``, ``free`` and a
symmetric ``from_samples``) a sweep integrates y1 and y2, from (1, 0)
and (0, 1), over half the period only, a = T/2.  With D the trace of
the period monodromy, D - 2 = 4 y1'(a) y2(a) and D + 2 = 4 y1(a) y2'(a)
(Magnus and Winkler, *Hill's Equation*, 1966, ch. 1), so every edge is
a simple zero of one of these four entries: an eigenvalue of one of
four Sturm-Liouville problems on [0, a] with Neumann or Dirichlet ends.
c(E) is the sum of their four counts, which is floor(2 theta / pi)
summed over both columns, theta the Prufer angle of the column at a:
twice its zeros in (0, a], plus one where y y' < 0.  No difference of
nearly equal numbers enters, so a gap is found down to the edge
tolerance however close |D| stays to 2.  For any other V0 a sweep
integrates the whole period and c comes from the gap verdict
D^2 - 4 > _EDGE_TOL^2, taken from the entries with no cancellation, the
sign of D (``_gap_side``) and the Dirichlet count N(E), the zeros of y2
in (0, T): the Dirichlet eigenvalue nu_k lies in the k-th closed gap
(Magnus and Winkler).

``band_edges_report`` runs one loop over neighbouring swept energies
(``_sweep``): each sweep adds, in one batch, energies inside every
pair whose ends have different counts.  A pair that isolates one edge
gets an Illinois regula falsi step.  A sweep of up to ``_LANES``
energies costs less than two sweeps of one, so any other pair gets its
midpoint and the midpoints of the next bisection levels below it, and
every energy a sweep integrates is kept.  The runs of in-band energies
are the bands of a validated :class:`~bandlt.bandset.BandSet` that the
rest of the toolkit consumes, with metadata on the resolution used.

The solutions are integrated with fixed-step classical Runge-Kutta, in
blocks of about steps^(1/3) steps that run side by side, and the block
matrices are multiplied in a prefix scan (see ``_monodromy_batch``).
The step count grows with the total phase sqrt(E)*T so that the Wronskian
stays within 1e-10 of 1 and the trace error stays below the edge
tolerance; see ``default_steps``.  The potential tables of a report are
built once (``_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bandset
from .bandset import BandSet
from .errors import (
    HypothesisViolationError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

_EDGE_TOL = 1e-10
_DEGENERATE_GAP = 1e-8
_PROBE_POINTS = 2048
_MAX_STEPS = 50_000  # RK4 steps per period; Mathieu q = 2 to e_max 30 needs 7211
_CHUNK = 8192  # blocks x energies per integration chunk; caps the RK4 arrays
_LANES = 8  # energies a sweep may look ahead with; at 3954 steps 8 cost 1.8x one


@dataclass(frozen=True)
class PeriodicPotential:
    """Nonnegative periodic potential with a known sup norm.

    ``evaluate`` maps an array of positions to potential values; it must
    be period-``period`` (checked on a probe grid at construction).
    ``even`` records V0(x) = V0(-x), which ``cosine``, ``free`` and
    ``from_samples`` know exactly; the band edges of an even V0 take half
    the integration.
    """

    period: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    even: bool = False


def _check_values(vals: np.ndarray) -> None:
    """Refuse non-finite values and V0 < 0 beyond rounding (-1e-12)."""
    if not np.all(np.isfinite(vals)):
        raise ValidationError("potential evaluates to non-finite values")
    if np.min(vals) < -1e-12:
        raise HypothesisViolationError(
            f"background potential must be nonnegative; min sample {np.min(vals)}"
        )


def _check_period(period: float) -> None:
    """Refuse, before it is used, a period that is not a positive finite
    float, or whose probe grid (up to twice the period) or wave number
    2 pi / period overflows."""
    if not (0.0 < period < math.inf and 2.0 * period < math.inf
            and 2.0 * math.pi / period < math.inf):
        raise ValidationError(
            f"period must be positive and finite, with 2 period and 2 pi / period "
            f"finite; got {period}")


def from_callable(f, period: float, sup_norm: float | None = None) -> PeriodicPotential:
    """Wrap a closed-form potential, checking periodicity and V0 >= 0."""
    _check_period(period)
    x = np.linspace(0.0, period, _PROBE_POINTS, endpoint=False)
    vals = np.asarray(f(x), dtype=float)
    _check_values(vals)
    shifted = np.asarray(f(x + period), dtype=float)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(shifted - vals)) > 1e-12 * scale:
        raise ValidationError("potential is not periodic with the declared period")
    sup = float(np.max(np.abs(vals))) if sup_norm is None else float(sup_norm)
    return PeriodicPotential(period=float(period), evaluate=f, sup_norm=sup)


def free(period: float = 1.0) -> PeriodicPotential:
    """The zero potential; spectrum is [0, inf) with all gaps closed."""
    return replace(from_callable(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                 period, sup_norm=0.0), even=True)


def cosine(q: float, period: float = 2.0 * math.pi) -> PeriodicPotential:
    """V0(x) = q (1 + cos(2 pi x / period)), nonnegative for q >= 0."""
    if q < 0:
        raise HypothesisViolationError("cosine amplitude q must be >= 0")
    if not 2.0 * q < math.inf:  # its sup norm; NaN fails too
        raise ValidationError(f"cosine amplitude q must have 2 q finite; got {q}")
    _check_period(period)
    w = 2.0 * math.pi / period
    return replace(from_callable(lambda x: q * (1.0 + np.cos(w * np.asarray(x, dtype=float))),
                                 period, sup_norm=2.0 * q), even=True)


def from_samples(values, period: float) -> PeriodicPotential:
    """Potential from uniform samples on one period, linearly interpolated;
    its extremes are at the samples, so V0 >= 0 and the sup norm are too.
    It is even when values[k] == values[-k mod n] for every k."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise ValidationError("need a 1D array of at least two samples")
    _check_values(vals)
    _check_period(period)
    xs = np.linspace(0.0, period, vals.size, endpoint=False)
    xs_wrap = np.append(xs, period)
    vals_wrap = np.append(vals, vals[0])

    def evaluate(x):
        return np.interp(np.mod(np.asarray(x, dtype=float), period), xs_wrap, vals_wrap)

    return replace(from_callable(evaluate, period, sup_norm=float(np.max(np.abs(vals)))),
                   even=bool(np.array_equal(vals, np.roll(vals[::-1], 1))))


def default_steps(energy: float, period: float) -> int:
    """Step count over one period keeping det within 1e-10 and trace
    error below ~1e-9.

    Classical RK4 on the oscillatory system drifts the Wronskian by about
    (phase/n)^6/72 per step and the phase by (phase/n)^5/120, with
    phase = sqrt(E) T.  Scaling n like phase^(5/4) bounds both uniformly.
    A count above ``_MAX_STEPS`` is refused before anything is allocated.
    """
    if not math.isfinite(energy):
        raise PreconditionError(f"energy {energy} is not finite")
    _check_period(period)
    phase = math.sqrt(max(energy, 0.0)) * period
    if phase > (_MAX_STEPS / 80.0) ** 0.8:
        raise PreconditionError(
            f"energy {energy} needs more than {_MAX_STEPS} RK4 steps over "
            f"period {period}; lower e_max"
        )
    return max(1000, int(math.ceil(80.0 * phase ** 1.25)))


def _block_steps(steps: int) -> int:
    """RK4 steps per block, L = round(steps^(1/3)), whatever the batch.

    A sweep takes L RK4 iterations and about 2 log2(steps / L) scan
    rounds, and its scan does about 2 steps / L block products per
    energy.  Sweeps of 1 to 16 energies cost about the same for L from
    half to 1.5 times this (8 to 24 at 3954 steps), and blocks of
    sqrt(steps) steps multiplied in order cost about 3 times as much for
    one energy.
    """
    return round(steps ** (1.0 / 3.0))


@dataclass(frozen=True)
class _Grid:
    """The potential tables of one report: ``steps`` RK4 steps of ``h``
    over the first half of the period (``half``) or over all of it, as
    the (L, B) node, midpoint and next-node tables of ``_block_matrices``."""

    samples: tuple
    h: float
    steps: int
    half: bool


def _grid(V0: PeriodicPotential, steps: int, half: bool) -> _Grid:
    """Tables for ``steps`` RK4 steps over the period, or for ceil(steps/2)
    steps of about the same spacing over its first half when ``half``.

    Row j of a table holds step b*L + j of every block b; past the last
    step, a repeat of it that the short last block never reads.
    """
    if steps < 100:
        raise PreconditionError("steps must be >= 100")
    if half:
        steps = -(-steps // 2)
    h = (0.5 * V0.period if half else V0.period) / steps
    x = np.arange(steps + 1) * h
    v_node = np.asarray(V0.evaluate(x), dtype=float)
    v_mid = np.asarray(V0.evaluate(x[:-1] + 0.5 * h), dtype=float)
    if not (np.all(np.isfinite(v_node)) and np.all(np.isfinite(v_mid))):
        raise NumericalError("potential produced non-finite samples")
    L = _block_steps(steps)
    B = -(-steps // L)
    at = np.minimum(np.arange(B * L).reshape(B, L).T, steps - 1)
    return _Grid((v_node[at], v_mid[at], v_node[at + 1]), h, steps, half)


def _monodromy_batch(grid: _Grid, energies) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental matrices (2,2,nE) at the end of the grid's span, and
    the zeros (2,nE) of y1 and y2 in it, for all energies at once.

    Columns start from (1,0) and (0,1).  The ``grid.steps`` RK4 steps are
    split into B = ceil(steps/L) consecutive blocks of L = ``_block_steps``.
    Iteration j of one pass advances both columns of every block from the
    identity by the block's step b*L + j (the short last block drops out
    once done); a prefix scan then forms the product of every block with
    all blocks before it.  A sweep is about L + 2 log2(B) Python
    iterations per chunk of ``_CHUNK // B`` energies (13 + 13 per 53 at
    the 1977 half-period steps of q = 2 to e_max 9), and the chunk caps
    the arrays whatever the batch size.  Past a chunk the element work
    dominates, and it grows with B: the scan does 2B products per energy.
    L, B and the scan depend only on the grid and every operation is
    elementwise in E, so an energy's matrix has the same bits alone and
    inside any batch.  The Wronskian det = 1 is checked on the result.

    The zeros are the sign changes of y1 = m[0, 0] and y2 = m[0, 1] at
    the block ends.  They are all the zeros in the span while a block is
    shorter than their spacing pi / sqrt(E - min V0), which holds for
    every E up to the energy ``default_steps`` sized the steps for.
    """
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.all(np.isfinite(E)):
        raise PreconditionError(f"energy {E[~np.isfinite(E)][0]} is not finite")
    L, B = grid.samples[0].shape
    tail = grid.steps - (B - 1) * L
    width = _CHUNK // B
    out = np.empty((2, 2, E.size))
    zeros = np.empty((2, E.size), dtype=int)
    for k in range(0, E.size, width):
        out[:, :, k:k + width], zeros[:, k:k + width] = _monodromy_chunk(
            grid.samples, grid.h, tail, E[k:k + width])

    dets = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    # below the spectrum the entries grow like exp(sqrt(V-E) T), and the
    # computed Wronskian carries an irreducible eps*|M|^2 cancellation
    # floor; the 1e-9 absolute guard applies where entries are O(1)
    tol = np.maximum(1e-9, 128.0 * np.finfo(float).eps * (1.0 + (out * out).sum(axis=(0, 1))))
    if not np.all(np.abs(dets - 1.0) <= tol):  # NaN fails too
        worst = float(np.max(np.abs(dets - 1.0) / tol))
        raise NumericalError(
            f"Wronskian drifted {worst:.1f}x beyond the scaled tolerance; "
            "integration under-resolved"
        )
    return out, zeros


def _monodromy_chunk(samples, h, tail, E):
    """Fundamental matrix and sign changes of y1 and y2 at the block ends
    for one chunk of energies: the matrices of ``_block_matrices``,
    multiplied in a prefix scan that leaves the product of every block
    with all blocks before it.

    The scan is Brent and Kung's.  Rounds with offset d = 1, 2, 4, ...
    multiply each block b with 2d dividing b + 1 by the product ending at
    b - d, which makes it the product of the 2d blocks ending at b; rounds
    with d = ..., 2, 1 then multiply each block b with b + 1 an odd
    multiple of d, above 2d, by the prefix ending at b - d, which an
    earlier round completed.  That is about 2 log2(B) rounds and 2B
    products of 2x2 matrices.  A scan that updates every block in each of
    log2(B) rounds takes B log2(B) products; at 3954 steps it was within
    8% of this one up to 12 energies, and 16% slower at 20 and 33% at 64.
    """
    p = _block_matrices(samples, h, tail, E)
    B = p.shape[2]
    up = [1 << k for k in range(B.bit_length() - 1)]  # every d with 2d <= B
    for start, d in ([(2 * d - 1, d) for d in up]
                     + [(3 * d - 1, d) for d in reversed(up) if 3 * d <= B]):
        a, b = p[:, :, start::2 * d], p[:, :, start - d:B - d:2 * d]
        a[...] = a[:, 0, None] * b[0] + a[:, 1, None] * b[1]
    neg = p[0] < 0.0  # y1 and y2 at every block end; both leave 0 at or above it
    return p[:, :, -1], neg[:, 0] + np.count_nonzero(neg[:, 1:] != neg[:, :-1], axis=1)


def _block_matrices(samples, h, tail, E):
    """Block RK4 pass for one chunk of energies: the (2,2,B,nE) matrices
    that advance (y, y') over each block.

    ``samples`` are the (L, B) node, midpoint and next-node potential
    tables; the last block has ``tail`` steps.  Each step is classical RK4
    with k1 = (w, c0 y), k2 = (w + h/2 k1w, cm (y + h/2 k1y)), k3 likewise
    from k2, k4 = (w + h k3w, c1 (y + h k3y)) and the update
    y + h/6 (((k1 + 2 k2) + 2 k3) + k4).  Each stage is built in place in
    an array that is no longer needed, and each sum of the update starts
    as soon as its terms exist, so at most seven (2, B, nE) arrays are
    live; the block matrices are allocated once the pass is done.  Only
    the order of the two operands of a + or * changes, never the
    grouping, so the bits are those of the written-out expressions.
    """
    v_node, v_mid, v_next = samples
    L, B = v_node.shape
    hh, h6 = 0.5 * h, h / 6.0
    y = np.zeros((2, B, E.size))
    w = np.zeros((2, B, E.size))
    y[0] = 1.0
    w[1] = 1.0
    last = None  # the short last block's matrix, once it is done
    for j in range(L):
        if j == tail:
            last = y[:, -1].copy(), w[:, -1].copy()
            y, w = y[:, :-1], w[:, :-1]
        nb = y.shape[1]
        cm = v_mid[j, :nb, None] - E
        k1w = (v_node[j, :nb, None] - E) * y  # k1y is w
        k2y = hh * k1w; k2y += w
        k2w = hh * w; k2w += y; k2w *= cm
        k3y = hh * k2w; k3y += w
        k2w *= 2.0; k2w += k1w  # the w update from here on
        del k1w
        k3w = hh * k2y; k3w += y; k3w *= cm
        del cm
        k2y *= 2.0; k2y += w  # the y update from here on
        k4y = h * k3w; k4y += w
        k3w *= 2.0; k2w += k3w
        del k3w
        k4w = h * k3y; k4w += y; k4w *= v_next[j, :nb, None] - E
        k3y *= 2.0; k2y += k3y
        del k3y
        k2y += k4y; k2y *= h6; k2y += y
        k2w += k4w; k2w *= h6; k2w += w
        y, w = k2y, k2w
        del k4y, k4w
    p = np.empty((2, 2, B, E.size))
    p[0, :, :nb], p[1, :, :nb] = y, w
    if last is not None:
        p[0, :, -1], p[1, :, -1] = last
    return p


def _gap_side(m):
    """sign D where the monodromies ``m`` (2,2,nE) put E in a gap, else 0.

    A gap is where D^2 - 4, taken from the entries as
    (m00 - m11)^2 + 4 m01 m10, exceeds _EDGE_TOL^2.  That form has no
    difference of nearly equal numbers, and |D| - 2 does: inside the
    7.8e-8 wide gap at 18.0318 of 2 (1 + cos(x + 0.7)) the entry form
    reads 1.6e-15 to 3.8e-15, while |D| - 2 reads -1.8e-13, the RK4 error
    of the trace with the wrong sign.  At a closed gap M = +/-I, where
    rounding lifts |D| above 2 by up to 4e-13 on a window about
    4 sqrt(1e-13 nu_k) / T wide (8.7e-3 at nu_1 for T = 0.01), the entry
    form stays below 1e-30 on free potentials of period 0.01 to 2 pi.
    """
    d = m[0, 0] + m[1, 1]
    disc = (m[0, 0] - m[1, 1]) ** 2 + 4.0 * m[0, 1] * m[1, 0]
    return np.where(disc > _EDGE_TOL ** 2, np.sign(d), 0.0)


def _evaluate(grid: _Grid, E: np.ndarray):
    """Matrices (2,2,nE), c(E) and the quarter turns of y1's Prufer angle
    (even V0 only; 0 otherwise) at the energies E.

    V0 >= 0 puts every E < 0 below the spectrum, so it gets c = 0 and NaN
    entries and is not integrated (at tiny periods D - 2 ~ |E| T^2 drowns
    in rounding, and over long periods its entries would overflow).  On
    the full period, an E in a band with Dirichlet count n lies in band
    n + 1, as nu_n < E <= nu_(n+1), and c = 2n + 1; one in a gap lies in
    gap n when sign D = (-1)^n and in gap n + 1 otherwise, as D has sign
    (-1)^k in gap k, and c is twice that.
    """
    m = np.full((2, 2, E.size), np.nan)
    zeros = np.zeros((2, E.size), dtype=int)
    up = E >= 0.0
    if np.any(up):
        m[:, :, up], zeros[:, up] = _monodromy_batch(grid, E[up])
    if grid.half:
        turns = 2 * zeros + (m[0] * m[1] < 0.0)  # floor(2 theta / pi); NaN compares false
        return m, turns.sum(axis=0), turns[0]
    n, side = zeros[1], _gap_side(m)
    c = np.where(side == 0.0, 2 * n + 1, 2 * (n + ((side > 0.0) == (n % 2 == 1))))
    return m, np.where(up, c, 0), np.zeros_like(c)


def _crossing(grid: _Grid, m, c, turns, i):
    """A function with one simple zero, at the edge, between the ends i and
    i + 1 of pairs that isolate one edge (c[i + 1] = c[i] + 1), at both
    ends.  Even V0: the entry whose Prufer count rose, y where it reaches
    an even count of quarter turns and y' where it reaches an odd one.
    Otherwise s D - 2, s = (-1)^k the sign of D in gap k of the gap end,
    k = c[i + 1] // 2."""
    j = i + 1
    if grid.half:
        col = (turns[j] == turns[i]).astype(int)  # y1's count rose, or y2's
        row = np.where(col == 0, turns[j], c[j] - turns[j]) % 2
        return m[row, col, i], m[row, col, j]
    s = 1.0 - 2.0 * (c[j] // 2 % 2)
    return s * (m[0, 0, i] + m[1, 1, i]) - 2.0, s * (m[0, 0, j] + m[1, 1, j]) - 2.0


def _sweep(grid: _Grid, e_max: float):
    """Swept energies, sorted, and c(E) at them.

    The first sweep is E = -1 and e_max.  Each later sweep works on every
    pair of neighbouring energies whose counts c differ and that is wider
    than the edge tolerance and four float spacings.  A pair at E >= 0
    that isolates one edge, c rising by one from its lower end to its
    upper end, takes an Illinois regula falsi step on the function g of
    ``_crossing``: the older end's g is weighted by 2^-(c - 1), c the
    number of sweeps between the ages of the two ends.  Such a pair takes
    at most as many of these steps as bisection needs from the width
    where it first takes one, and then bisects.

    A bisected pair is looked ahead in: the sweep integrates the
    midpoints of its first levels halvings, levels =
    max(floor(log2(_LANES // w + 1)), 1) for w pairs worked on, so a
    batch holds at most max(_LANES, w) energies.  A half-pair that ends below 0 gets
    none, as it never needs work.  Every integrated energy is kept, with
    the sweep as its age and the step deadline of the pair it was made
    for, and it lies inside that pair.  On the half-period path c counts
    the edges below E exactly, so an energy in a half whose ends have
    equal counts opens no work, and the bisected pairs that find the
    edges take exactly the midpoints of plain bisection, only in fewer
    sweeps.  There a pair that needs no work never needs it again,
    every sweep halves each open pair or gives it one of its steps, and a
    pair's first step comes after it was halved every sweep before, so
    the loop stops within twice the bisection bound,
    2 (1 + ceil(log2((e_max + 1) / 1e-10))) sweeps.  On the full-period
    path an energy kept in such a half can fall in a gap with both edges
    in that half and open new work; the same cap bounds that case, and
    past it the sweep raises.
    """
    cap = 2 * (1 + math.ceil(math.log2((e_max + 1.0) / _EDGE_TOL)))
    e = np.array([-1.0, float(e_max)])
    m, c, turns = _evaluate(grid, e)
    age = np.zeros(2, dtype=int)  # the sweep that added each energy
    until = np.full(2, -1)  # last sweep its pair may step at; -1 before its first step
    for sweep in range(1, cap + 1):
        lo, hi = e[:-1], e[1:]
        stop = np.maximum(_EDGE_TOL, 4.0 * np.spacing(np.abs(hi)))
        i = np.flatnonzero((c[:-1] != c[1:]) & (hi - lo > stop))  # the pairs that need work
        if i.size == 0:
            return e, c
        if sweep == cap:
            break
        j = i + 1  # the ends of each pair worked on
        lo, hi, stop = e[i], e[j], stop[i]
        one = (c[j] - c[i] == 1) & (lo >= 0.0)  # isolates one edge
        newer = np.where(age[i] > age[j], until[i], until[j])  # set by the parent pair
        budget = np.ceil(np.log2((hi - lo) / stop)).astype(int)
        last = np.where(one, np.where(newer < 0, sweep + budget - 1, newer), -1)
        stale = 0.5 ** np.maximum(np.abs(age[i] - age[j]) - 1, 0)
        g_lo, g_hi = _crossing(grid, m, c, turns, i)
        g_lo = g_lo * np.where(age[i] < age[j], stale, 1.0)
        g_hi = g_hi * np.where(age[j] < age[i], stale, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        step = one & (sweep <= last) & (g_lo * g_hi < 0.0) & (lo < x) & (x < hi)
        # the bisected pairs' midpoints down to `levels` halvings, or to
        # their stop width, each as 0.5 * (lo + hi) of its half-pair
        levels = max(int(math.log2(_LANES // i.size + 1)), 1)
        a, b, k = lo[~step], hi[~step], np.minimum(levels, budget[~step])
        ahead = [x[step]]
        while a.size:
            mid = 0.5 * (a + b)
            ahead.append(mid)
            left, right = (k > 1) & (mid >= 0.0), k > 1  # E < 0 lies in gap 0
            a, b = np.concatenate([a[left], mid[right]]), np.concatenate([mid[left], b[right]])
            k = np.concatenate([k[left], k[right]]) - 1
        ahead = np.sort(np.concatenate(ahead))
        m_ahead, c_ahead, turns_ahead = _evaluate(grid, ahead)
        at = np.searchsorted(e, ahead)
        e = np.insert(e, at, ahead)
        m = np.insert(m, at, m_ahead, axis=2)
        c = np.insert(c, at, c_ahead)
        turns = np.insert(turns, at, turns_ahead)
        age = np.insert(age, at, sweep)
        until = np.insert(until, at, last[np.searchsorted(i, at - 1)])
    raise NumericalError(f"edge bracketing did not stop within {cap} sweeps")


def band_edges_report(V0: PeriodicPotential, e_max: float) -> tuple[BandSet, dict]:
    """Bracket the band edges; returns the band set and metadata.

    The bands are the runs of in-band energies of ``_sweep`` (c odd), each
    edge the midpoint of the pair where the verdict flips, a run that
    reaches e_max truncated there.  Metadata records the edges found,
    merged degenerate gaps (length < 1e-8: downstream band sets need
    strict interlacing), the truncation, ``scan_points``: the swept
    energies E >= 0, each integrated once, and ``integration_steps``: the
    RK4 steps per integrated energy, over half the period for an even V0.
    """
    if not e_max > 0:
        raise PreconditionError("e_max must be positive")
    steps = default_steps(float(e_max + V0.sup_norm), V0.period)
    grid = _grid(V0, steps, V0.even)
    swept, c = _sweep(grid, e_max)

    inside = c % 2 == 1
    flips = np.flatnonzero(inside[:-1] != inside[1:])
    # E = -1 lies in gap 0, so the first flip starts the first band
    cuts = np.concatenate([0.5 * (swept[flips] + swept[flips + 1]), swept[-1:][inside[-1:]]])
    bands = [(a, b) for a, b in cuts.reshape(-1, 2)]
    if not bands:
        raise NumericalError(f"no band found below e_max={e_max}")
    truncated = bool(inside[-1])

    merged, merged_gaps = [bands[0]], []
    for a, b in bands[1:]:
        prev_a, prev_b = merged[-1]
        if a - prev_b < _DEGENERATE_GAP:
            merged_gaps.append((prev_b, a))
            merged[-1] = (prev_a, b)
        else:
            merged.append((a, b))
    # bisection can land the first edge within tolerance below 0
    merged = [(0.0 if -10.0 * _EDGE_TOL < a < 0.0 else a, b) for a, b in merged]

    slivers = [(a, b) for a, b in merged if b - a < _DEGENERATE_GAP]
    merged = [(a, b) for a, b in merged if b - a >= _DEGENERATE_GAP]
    if not merged:
        raise NumericalError(f"no band found below e_max={e_max}")

    I = bandset.validate(merged)
    meta = {
        "edges_found": int(flips.size),
        "merged_gaps": [[float(a), float(b)] for a, b in merged_gaps],
        "dropped_slivers": [[float(a), float(b)] for a, b in slivers],
        "truncated_at_e_max": truncated,
        "scan_points": int(np.count_nonzero(swept >= 0.0)),
        "integration_steps": int(grid.steps),
    }
    return I, meta
