"""Simplex-averaged Coulomb restrictions: isometry averages over rotations.

The overlap kernel

    F(r, r') = integral over isometries g of 1[r in g(l simplex)] 1[r' in g(l simplex)]

carries Lebesgue measure on translations and unit mass on SO(3).  The
translation integral is exact, |l simplex meet (l simplex + v)| =
(1 - phi(v))_+^3 |l simplex| (see ``_pair_average``), so only the rotations
are sampled, as Haar-uniform random unit quaternions.  F(r, r) / |l simplex|
= 1 exactly; all estimates below are reported in that normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coulomb import ChargeConfiguration, exact_coulomb_energy
from .errors import DegenerateSimplexError
from .numerics import RadialGridFunction, radial_fourier_transform

__all__ = [
    "Simplex",
    "regular_tetrahedron",
    "SimplexTester",
    "random_rotations",
    "overlap_kernel",
    "estimate_radial_kernel",
    "gs_positive_type_check",
    "sliding_inequality_experiment",
]

BARYCENTRIC_SLACK = 1e-12
# rotations drawn per batch; the batch size fixes how the random streams are
# consumed, so changing it changes every estimate.  2048 keeps a batch's
# (rotations x pairs) arrays in cache and, up to 85 pairs, its products below
# the size at which OpenBLAS starts a second thread
_CHUNK = 2048


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

    @property
    def max_vertex_norm(self) -> float:
        return float(np.sqrt((self.vertices**2).sum(-1)).max())


def regular_tetrahedron(edge: float = 1.0) -> Simplex:
    """Regular tetrahedron centered at its centroid.

    The default reference shape: among simplices it minimizes Monte Carlo
    variance thanks to its symmetry.
    """
    s = edge / (2.0 * math.sqrt(2.0))
    verts = s * np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return Simplex(verts)


def _quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Batch of unit quaternions (n, 4) to rotation matrices (n, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - z * w)
    m[:, 0, 2] = 2 * (x * z + y * w)
    m[:, 1, 0] = 2 * (x * y + z * w)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - x * w)
    m[:, 2, 0] = 2 * (x * z - y * w)
    m[:, 2, 1] = 2 * (y * z + x * w)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-uniform rotations from normalized 4-component Gaussians."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quaternions_to_matrices(q)


class SimplexTester:
    """Barycentric containment test for g(l simplex) in batch form."""

    def __init__(self, simplex: Simplex, ell: float):
        if ell <= 0:
            raise ValueError("ell must be positive")
        self.v0 = ell * simplex.vertices[0]
        self.inv_edges = np.linalg.inv(ell * simplex.edge_matrix)
        self.volume = simplex.volume * ell**3
        self.reach = ell * simplex.max_vertex_norm

    def contains(self, points: np.ndarray) -> np.ndarray:
        """points (..., 3) in the reference simplex placement."""
        lam = (points - self.v0) @ self.inv_edges.T
        ok = np.all(lam >= -BARYCENTRIC_SLACK, axis=-1)
        return ok & (lam.sum(axis=-1) <= 1.0 + BARYCENTRIC_SLACK)


def _pair_average(
    separations: np.ndarray,
    weights: np.ndarray,
    tester: SimplexTester,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Average over isometries g of sum_p w_p 1[r_p in g] 1[r_p + s_p in g].

    It is reported per unit |l simplex| with its standard error.  The
    translation integral is exact: l simplex meets its translate by v in a
    copy of itself scaled by 1 - phi(v), with phi(v) = 1/2 sum_k |l_k(v)|
    over the linear parts l_k of the four barycentric coordinates (Rogers &
    Shephard, J. London Math. Soc. 33 (1958) 270).  So each Haar rotation R
    contributes sum_p w_p (1 - phi(R^T s_p))_+^3, drawn ``_CHUNK`` at a time.
    """
    # l_k(R^T s) = (R a_k) . s for the form rows a_k, the last being -sum
    forms = np.vstack([tester.inv_edges, -tester.inv_edges.sum(axis=0)])
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        rots = random_rotations(rng, m)
        l1 = np.zeros((m, len(weights)))  # sum_k |l_k(R^T s_p)| = 2 phi
        for a in forms:
            l1 += np.abs((rots @ a) @ separations.T)
        scale = np.maximum(1.0 - 0.5 * l1, 0.0)
        vals = (scale * scale * scale) @ weights
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m

    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def overlap_kernel(
    r: np.ndarray,
    r_prime: np.ndarray,
    simplex: Simplex,
    ell: float,
    samples: int,
    seed=0,
) -> tuple[float, float]:
    """Estimate of F(r, r') / |l simplex| with its standard error."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    sep = (np.asarray(r_prime, float) - np.asarray(r, float)).reshape(1, 3)
    return _pair_average(sep, np.ones(1), SimplexTester(simplex, ell), samples,
                         np.random.default_rng(seed))


def estimate_radial_kernel(
    simplex: Simplex,
    ell: float,
    separations: np.ndarray,
    samples: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel profile g(x) at the given separations, one MC stream each."""
    separations = np.asarray(separations, dtype=float)
    est = np.empty_like(separations)
    err = np.empty_like(separations)
    origin = np.zeros(3)
    for j, x in enumerate(separations):
        est[j], err[j] = overlap_kernel(
            origin, np.array([x, 0.0, 0.0]), simplex, ell, samples, seed=[seed, j]
        )
    return est, err


@dataclass
class PositiveTypeReport:
    k_grid: np.ndarray
    transform: np.ndarray
    transform_error: np.ndarray
    separations: np.ndarray
    kernel: np.ndarray
    kernel_error: np.ndarray
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
    """Positivity test of the Fourier transform of (1 - g(x)) / x.

    g is estimated on a radial grid up to its support radius ell * diam;
    beyond the support h(x) = 1/x exactly, declared as the power tail of the
    sampled profile, and the transform is evaluated with the shared radial
    transform (Abel-regularized 1/x tail).  Monte Carlo errors propagate
    linearly through the quadrature weights.  Status is "negative" if any
    value sits below -3 sigma, "inconclusive" when error bars dwarf the
    values, otherwise "nonnegative-within-error".
    """
    support = ell * simplex.diameter
    xs = np.linspace(support / radial_samples, support, radial_samples)
    g_est, g_err = estimate_radial_kernel(simplex, ell, xs, samples_per_point, seed)

    # h(x) = (1 - g)/x; g(0) = 1 keeps h finite at the origin and g vanishes
    # beyond the support, where h continues as the exact 1/x power tail
    nodes = np.concatenate([[0.0], xs, [support * (1.0 + 1e-9)]])
    h0 = (1.0 - g_est[0]) / xs[0]
    h_vals = np.concatenate([[h0], (1.0 - g_est) / xs, [1.0 / nodes[-1]]])
    h = RadialGridFunction(nodes, h_vals, tail_exponent=-1.0)

    k_grid = np.asarray(k_grid, dtype=float)
    vals = np.array([radial_fourier_transform(h, k) for k in k_grid])

    # first-order error propagation with trapezoid weights on the g nodes
    tw = np.gradient(xs)
    errs = np.array(
        [
            4.0
            * math.pi
            / k
            * math.sqrt(float(np.sum((tw * np.sin(k * xs) * g_err) ** 2)))
            for k in k_grid
        ]
    )

    if np.any(vals < -3.0 * errs):
        status = "negative"
    elif np.all(np.abs(vals) < errs):
        status = "inconclusive"
    else:
        status = "nonnegative-within-error"
    return PositiveTypeReport(
        k_grid=k_grid,
        transform=vals,
        transform_error=errs,
        separations=xs,
        kernel=g_est,
        kernel_error=g_err,
        status=status,
    )


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

    def to_dict(self) -> dict:
        return {
            "exact": self.exact,
            "sum_q2": self.sum_q2,
            "rows": [row.to_dict() for row in self.rows],
        }


def sliding_inequality_experiment(
    c: ChargeConfiguration,
    simplex: Simplex,
    ell_list: np.ndarray,
    samples: int,
    seed: int = 0,
) -> SlidingReport:
    """Averaged restricted Coulomb sums and the normalized defect D(l).

    For each l the Monte Carlo average of
    sum_{i<j} Q_i Q_j 1[r_i in g(l simplex)] 1[r_j in g(l simplex)] / |r_i - r_j|
    over isometries (per unit |l simplex|) is compared with the exact energy:
    a sliding bound of Graf-Schenker type means
    D(l) = (average - exact) * l / sum Q_j^2 stays bounded above uniformly.
    """
    exact = exact_coulomb_energy(c)
    sum_q2 = float(np.sum(c.charges**2))
    i, j = np.triu_indices(len(c), k=1)
    separations = c.positions[j] - c.positions[i]
    weights = c.charges[i] * c.charges[j] / c.pair_distances()[i, j]

    rows = []
    for idx, ell in enumerate(np.asarray(ell_list, dtype=float)):
        estimate, std_error = _pair_average(
            separations, weights, SimplexTester(simplex, ell), samples,
            np.random.default_rng([seed, idx]),
        )
        d_stat = (estimate - exact) * ell / sum_q2
        rows.append(SlidingRow(ell=float(ell), estimate=estimate,
                               std_error=std_error, D=d_stat))
    return SlidingReport(rows=rows, exact=exact, sum_q2=sum_q2)
