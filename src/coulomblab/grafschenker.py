"""Simplex-averaged Coulomb restrictions: exact isometry averages.

The overlap kernel

    F(r, r') = integral over isometries g of 1[r in g(l simplex)] 1[r' in g(l simplex)]

carries Lebesgue measure on translations and unit mass on SO(3), so that
F(r, r) / |l simplex| = 1.  Both integrals are exact.  l simplex meets its
translate by v in a copy of itself scaled by 1 - phi(v), with phi the gauge
of l (simplex - simplex) (Rogers & Shephard, J. London Math. Soc. 33 (1958)
270), so F / |l simplex| = g(|r' - r|) with g(r) = <(1 - r phi)_+^3> over
unit directions.  A face-plane rule on the faces of the difference body
takes such direction averages exactly; ``radial_kernel`` is g, and the
overlap kernel, the sliding statistic and the positive-type check all read
it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coulomb import ChargeConfiguration, exact_coulomb_energy
from .errors import DegenerateSimplexError
from .numerics import gauss_panels

__all__ = [
    "Simplex",
    "regular_tetrahedron",
    "barycentric_forms",
    "overlap_kernel",
    "radial_kernel",
    "gauge_moments",
    "gs_positive_type_check",
    "sliding_inequality_experiment",
]


@dataclass
class Simplex:
    """Non-degenerate simplex in 3-space given by its four vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(4, 3)
        if self.volume <= 0:
            raise DegenerateSimplexError("simplex volume is not positive")

    @property
    def edge_matrix(self) -> np.ndarray:
        return (self.vertices[1:] - self.vertices[0]).T

    @property
    def volume(self) -> float:
        return abs(float(np.linalg.det(self.edge_matrix))) / 6.0

    @property
    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d**2).sum(-1)).max())


def regular_tetrahedron() -> Simplex:
    """Regular tetrahedron of unit edge centered at its centroid.

    The default reference shape of the isometry averages.
    """
    s = 1.0 / (2.0 * math.sqrt(2.0))
    verts = s * np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return Simplex(verts)


def barycentric_forms(simplex: Simplex, ell: float) -> np.ndarray:
    """The linear parts a_k of the barycentric coordinates of l simplex.

    Row k holds a_k, with a_k . v the linear part of the coordinate of
    vertex 1, 2, 3, 0 in turn.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    inv_edges = np.linalg.inv(ell * simplex.edge_matrix)
    return np.vstack([inv_edges, -inv_edges.sum(axis=0)])


def _face_triangles(simplex: Simplex, ell: float) -> tuple[np.ndarray, ...]:
    """The faces of K = l (simplex - simplex), cut into triangles from their feet.

    phi = c_P . v = sum_{k in P} a_k . v where the forms are positive on the
    vertex subset P and negative off it, so each proper nonempty P gives a
    face spanned by the v_i - v_j, i in P, j not in P: 8 triangles and 6
    parallelograms.  Each edge pq cuts the triangle (f, p, q) off the foot
    f = c_P / |c_P|^2, signed by the side of pq that f lies on.  Per
    triangle: the face's distance h, the distance d from f to the line pq,
    the angles of p and q about f from the line's nearest point, the sign.
    """
    forms = barycentric_forms(simplex, ell)
    verts = ell * simplex.vertices[[1, 2, 3, 0]]  # in the order of the forms
    rows = []
    for size in (1, 2, 3):
        for pos in itertools.combinations(range(4), size):
            cycle = list(itertools.product(pos, [j for j in range(4) if j not in pos]))
            if size == 2:  # walk round the parallelogram
                cycle[2:] = cycle[3], cycle[2]
            corners = np.array([verts[i] - verts[j] for i, j in cycle])
            normal, centre = forms[list(pos)].sum(axis=0), corners.mean(axis=0)
            rows += [(p, q, normal, centre)
                     for p, q in zip(corners, np.roll(corners, -1, axis=0))]
    p, q, normal, centre = np.array(rows).transpose(1, 0, 2)

    h = 1.0 / np.linalg.norm(normal, axis=1)
    foot = normal * (h * h)[:, None]
    length = np.linalg.norm(q - p, axis=1)
    unit = (q - p) / length[:, None]
    across = np.cross(normal, unit) * h[:, None]  # unit, in the face, normal to pq
    off = np.einsum("ij,ij->i", foot - p, across)  # signed distance of f from pq
    sign = np.sign(off * np.einsum("ij,ij->i", centre - p, across))
    s_p, d = np.einsum("ij,ij->i", p - foot, unit), np.abs(off)
    return h, d, np.arctan2(s_p, d), np.arctan2(s_p + length, d), sign


def _direction_average(inner, h, d, lo, hi, sign, cut=0.0) -> np.ndarray:
    """<F(phi)> over unit directions from inner(T, h) = int_h^T h t^-2 F(1/t) dt.

    The direction through the face point p at t = |p| has the measure
    h t^-2 dt dtheta / (4 pi); the ray at angle theta leaves its triangle at
    T = sqrt(h^2 + d^2 / cos^2 theta).  Each triangle is cut where T = cut,
    for a kink of inner there (at theta = 0 if T > cut throughout), and each
    piece gets the 32-point rule; leading batch axes of cut or inner stay.
    """
    # T = cut at cos theta = d / sqrt(cut^2 - h^2)
    kink = np.arctan2(np.sqrt(np.maximum(np.square(cut) - h * h - d * d, 0.0)), d)
    h, d = h[:, None, None], d[:, None, None]
    # the two pieces of each triangle on the axis before the triangles'
    a = np.stack(np.broadcast_arrays(lo, np.maximum(lo, kink)), axis=-2)
    b = np.stack(np.broadcast_arrays(np.minimum(hi, -kink), hi), axis=-2)
    width = np.maximum(b - a, 0.0)

    def f(u):
        theta = a[..., None, None] + width[..., None, None] * u
        return inner(np.hypot(h, d / np.cos(theta)), h)

    pieces = sign * width * gauss_panels(f, [0.0, 1.0])
    return np.sum(pieces, axis=(-2, -1)) / (4.0 * math.pi)


def _gauge_moments(triangles) -> np.ndarray:
    """<phi^k> for k = 0, 1, 2, 3 over unit directions on the face-plane rule.

    The t-integrals are int_h^T h t^(-2-k) dt = h (h^(-k-1) - T^(-k-1)) / (k + 1);
    k = 0 is the rule's mass, 1 up to rounding.
    """
    k = np.arange(4.0)[:, None, None, None, None]
    return _direction_average(
        lambda t_edge, h: h * (h ** (-k - 1) - t_edge ** (-k - 1)) / (k + 1), *triangles)


def gauge_moments(simplex: Simplex) -> np.ndarray:
    """<1>, <phi>, <phi^2>, <phi^3> over unit directions, phi the gauge of K.

    K = simplex - simplex; <phi> = S / (12 V) by Cauchy's projection formula.
    """
    return _gauge_moments(_face_triangles(simplex, 1.0))


def _truncated_kernel(x, triangles) -> np.ndarray:
    """<(1 - x phi)_+^3> at the separations x (1-d), by the face-plane rule.

    The t-integral is (h / 4x) [(1 - x/T)^4 - (1 - x/m)^4], m = max(h, x),
    written without the cancellation at small x; each triangle is cut where
    T = x, its one kink.
    """
    xb = x[:, None, None, None, None]

    def inner(t_edge, h):
        m = np.maximum(h, xb)
        a, b = 1.0 - xb / t_edge, 1.0 - xb / m
        # a^4 - b^4 = (a - b)(a + b)(a^2 + b^2), with a - b = x (T - m) / (m T)
        return (h * np.maximum(t_edge - m, 0.0) / (4.0 * m * t_edge)
                * (a + b) * (a * a + b * b))

    return _direction_average(inner, *triangles, cut=x[:, None])


def radial_kernel(r, simplex: Simplex, ell) -> np.ndarray:
    """Exact F(r) / |l simplex| at separations |r|, in the broadcast shape of r and l.

    It is g(r) = <(1 - r phi(w) / l)_+^3> over unit directions w, phi the
    gauge of simplex - simplex, so g depends on x = r / l alone.  For x up
    to h_min, the inradius of simplex - simplex, x phi <= 1 in every
    direction and g is the cubic 1 - 3<phi>x + 3<phi^2>x^2 - <phi^3>x^3,
    exactly 1 at x = 0; beyond it the face-plane rule takes the truncation.
    """
    if np.any(np.asarray(ell) <= 0):
        raise ValueError("ell must be positive")
    x = np.abs(np.asarray(r, dtype=float)) / ell
    flat = x.reshape(-1)
    triangles = _face_triangles(simplex, 1.0)
    _, m1, m2, m3 = _gauge_moments(triangles)
    g = 1.0 - flat * (3.0 * m1 - flat * (3.0 * m2 - flat * m3))
    far = flat > triangles[0].min()
    if np.any(far):
        g[far] = _truncated_kernel(flat[far], triangles)
    return g.reshape(x.shape)


def overlap_kernel(
    r: np.ndarray,
    r_prime: np.ndarray,
    simplex: Simplex,
    ell: float,
    samples: int = 20000,
    seed=0,
) -> tuple[float, float]:
    """F(r, r') / |l simplex| = ``radial_kernel`` at |r' - r|, with error 0.

    samples and seed are unread, kept so that callers written for the
    former Monte Carlo estimate still run; samples below 1000 still raise.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    sep = np.asarray(r_prime, dtype=float) - np.asarray(r, dtype=float)
    return float(radial_kernel(np.linalg.norm(sep), simplex, ell)), 0.0


@dataclass
class PositiveTypeReport:
    k_grid: np.ndarray
    transform: np.ndarray
    separations: np.ndarray
    kernel: np.ndarray
    status: str

    @property
    def min_value(self) -> float:
        return float(self.transform.min())


def gs_positive_type_check(
    simplex: Simplex,
    ell: float,
    radial_samples: int,
    k_grid: np.ndarray,
    samples_per_point: int = 20000,
    seed: int = 0,
) -> PositiveTypeReport:
    """Fourier transform T(k) of (1 - g(r)) / r, g = ``radial_kernel``.

    Averaging 1 - (1 - r phi)_+^3 over directions, the transform
    (4 pi / k) int_0^inf sin(k r) (1 - g(r)) dr (Abel-regularized) is
    T(k) = 24 pi / (l^3 k^5) <phi^3 (y - sin y)> with y = k l / phi, in the
    gauge phi of simplex - simplex, by the face-plane rule and the 32-point
    rule in t.  As sin y < y, T(k) > 0 for every k and simplex; the status
    reads "negative" only if a value came out below zero.  The report also
    carries the exact kernel at radial_samples equispaced separations up to
    its support ell * diam.  samples_per_point and seed are unread, kept so
    that callers written for the former Monte Carlo check still run.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size == 0 or np.any(k_grid <= 0):
        raise ValueError("k_grid must be nonempty and positive")

    def inner(t_edge, h, k):  # y = k t, as at scale l the gauge is phi / l = 1/t
        h, span = h[..., None, None], (t_edge - h)[..., None, None]

        def f(v):
            t = h + span * v
            return span * h * (k * t - np.sin(k * t)) / t**5

        return gauss_panels(f, [0.0, 1.0])

    triangles = _face_triangles(simplex, ell)
    averages = [_direction_average(lambda t, h, k=k: inner(t, h, k), *triangles)
                for k in k_grid]
    transform = 24.0 * math.pi / k_grid**5 * np.array(averages)
    xs = ell * simplex.diameter * np.arange(1, radial_samples + 1) / radial_samples
    status = "negative" if np.any(transform < 0) else "nonnegative"
    kernel = radial_kernel(xs, simplex, ell)
    return PositiveTypeReport(k_grid, transform, xs, kernel, status)


@dataclass
class SlidingRow:
    ell: float
    estimate: float
    std_error: float
    D: float

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "D": self.D,
        }


@dataclass
class SlidingReport:
    rows: list[SlidingRow]
    exact: float
    sum_q2: float

    @property
    def d_values(self) -> np.ndarray:
        return np.array([row.D for row in self.rows])


def sliding_inequality_experiment(
    c: ChargeConfiguration,
    simplex: Simplex,
    ell_list: np.ndarray,
    samples: int = 20000,
    seed: int = 0,
) -> SlidingReport:
    """Averaged restricted Coulomb sums and the normalized defect D(l).

    For each l the average of
    sum_{i<j} Q_i Q_j 1[r_i in g(l simplex)] 1[r_j in g(l simplex)] / |r_i - r_j|
    over isometries (per unit |l simplex|) is sum_{i<j} Q_i Q_j g(r_ij) / r_ij
    with g = ``radial_kernel``, exact, so every std_error is 0.  It is compared
    with the exact energy: a sliding bound of Graf-Schenker type means
    D(l) = (average - exact) * l / sum Q_j^2 stays bounded above uniformly.
    samples and seed are unread, kept so that callers written for the former
    Monte Carlo estimate still run.
    """
    exact = exact_coulomb_energy(c)
    sum_q2 = float(np.sum(c.charges**2))
    i, j = np.triu_indices(len(c), k=1)
    dist = c.pair_distances()[i, j]
    weights = c.charges[i] * c.charges[j] / dist
    ells = np.asarray(ell_list, dtype=float)
    kernel = radial_kernel(dist, simplex, ells[:, None])  # one row per l

    rows = []
    for ell, g in zip(ells, kernel):
        estimate = float(weights @ g)
        rows.append(SlidingRow(ell=float(ell), estimate=estimate, std_error=0.0,
                               D=(estimate - exact) * ell / sum_q2))
    return SlidingReport(rows=rows, exact=exact, sum_q2=sum_q2)
