import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import strategies as st

from bandlt import bandset
from bandlt.errors import NumericalError, PreconditionError


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def three_bands():
    """Gap ratio 0.5: max(1/2, 2/4)."""
    return bandset.validate([(1, 2), (3, 4), (6, 8)])


def dense(op):
    """Oracle input: the dense N x N model matrix of an operator."""
    return np.diag(op.diagonal) + np.diag(op.coupling, 1) + np.diag(op.coupling, -1)


def c1_quadrature(p: float) -> float:
    """sqrt(2) ((1/2pi) int dx/(x^2+1)^p)^(1/p) by adaptive quadrature: the
    oracle for the Gamma closed form schatten.c1_constant."""
    if p <= 0.5:
        raise PreconditionError("integral diverges for p <= 1/2")
    val, err = scipy.integrate.quad(
        lambda x: (x * x + 1.0) ** (-p), -np.inf, np.inf,
        epsabs=1e-14, epsrel=1e-13,
    )
    if err > 1e-10 * max(1.0, val):
        raise NumericalError(f"quadrature error estimate {err:.2e} too large")
    return math.sqrt(2.0) * (val / (2.0 * math.pi)) ** (1.0 / p)


def sample_band_points(band_set, total):
    """Uniform sample of the band set, allocated proportionally to length.

    Returns a sorted 1D array; used as the dense brute-force distance
    oracle (nearest sample via searchsorted equals the min over all
    sampled points, since |z - t|^2 is quadratic in real t).
    """
    lengths = np.array([b - a for a, b in band_set.edges], dtype=float)
    weights = lengths / lengths.sum()
    pts = []
    for (a, b), w in zip(band_set.edges, weights):
        m = max(int(round(total * w)), 2)
        pts.append(np.linspace(a, b, m))
    return np.sort(np.concatenate(pts))


def nearest_sample_distance(z, samples):
    """min_i |z - samples_i| for sorted real samples; z complex array."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    idx = np.searchsorted(samples, zs.real)
    best = np.full(zs.shape, np.inf)
    for shift in (-1, 0):
        j = np.clip(idx + shift, 0, samples.size - 1)
        best = np.minimum(best, np.abs(zs - samples[j]))
    return best


def pairwise_interval_dist(x, y, lo, hi):
    """Distance from x + iy to the union of closed intervals [lo_k, hi_k]
    as the min over all K intervals (a K x len(x) array): the oracle for
    bandset._interval_dist, which searches two neighbours."""
    fx = np.ravel(x)
    dx = np.maximum(lo[:, None] - fx, fx - hi[:, None])
    np.maximum(dx, 0.0, out=dx)
    return np.min(np.hypot(dx, np.ravel(y)), axis=0).reshape(np.shape(x))


@st.composite
def sorted_intervals(draw, min_value=-1e3, max_value=1e3, max_size=6):
    """(lo, hi) arrays of 1 to max_size sorted disjoint closed intervals."""
    k = draw(st.integers(1, max_size))
    ends = draw(st.lists(
        st.floats(min_value, max_value, allow_nan=False, allow_subnormal=False),
        min_size=2 * k, max_size=2 * k, unique=True,
    ))
    ends = np.sort(np.asarray(ends, dtype=float))
    return ends[0::2], ends[1::2]


def edge_probes(draw, lo, hi):
    """Real parts on every edge, at its float neighbours, past both ends
    and in between; imaginary parts 0, tiny and ordinary."""
    edges = np.concatenate([lo, hi])
    far = draw(st.floats(1e-9, 1e6))
    inner = draw(st.lists(st.floats(float(lo[0]), float(hi[-1])), max_size=8))
    x = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [lo[0] - far, hi[-1] + far, -1e300, 1e300], inner,
    ])
    y = np.array([0.0, 1e-300, -1e-300, draw(st.floats(-1e3, 1e3))])
    xx, yy = np.meshgrid(x, y)
    return xx.ravel(), yy.ravel()
