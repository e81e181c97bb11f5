"""Monte Carlo machinery for simplex-averaged Coulomb restrictions.

The overlap kernel

    F(r, r') = integral over isometries g of 1[r in g(l simplex)] 1[r' in g(l simplex)]

is estimated by sampling Haar-uniform rotations (random unit quaternions)
and Lebesgue-uniform translations over a covering cell.  Translations carry
Lebesgue measure and SO(3) unit mass, so F(r, r) / |l simplex| = 1 exactly;
all estimates below are reported in that normalization.
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
    "IsometrySample",
    "regular_tetrahedron",
    "SimplexTester",
    "random_rotations",
    "sample_isometry",
    "overlap_kernel",
    "estimate_radial_kernel",
    "gs_positive_type_check",
    "sliding_inequality_experiment",
]

BARYCENTRIC_SLACK = 1e-12
# isometries drawn per batch; the batch sizes fix how the random streams are
# consumed, so changing them changes every estimate
_KERNEL_CHUNK = 65536
_SLIDING_CHUNK = 32768


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


@dataclass
class IsometrySample:
    """Rotation-translation pair with RtR = 1 to 1e-12 and det = +1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(3), atol=1e-12):
            raise ValueError("rotation is not orthogonal to 1e-12")
        if np.linalg.det(self.rotation) < 0:
            raise ValueError("rotation must have determinant +1")


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


def sample_isometry(
    rng: np.random.Generator, cell_lo: np.ndarray, cell_hi: np.ndarray
) -> IsometrySample:
    """One Haar-uniform rotation with a translation uniform on the cell."""
    lo = np.asarray(cell_lo, dtype=float).reshape(3)
    hi = np.asarray(cell_hi, dtype=float).reshape(3)
    if not np.all(hi > lo):
        raise ValueError("translation cell must have positive volume")
    rot = random_rotations(rng, 1)[0]
    t = rng.uniform(lo, hi)
    return IsometrySample(rot, t)


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


def _translation_cell(points: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    lo = points.min(axis=0) - reach
    hi = points.max(axis=0) + reach
    return lo, hi


def overlap_kernel(
    r: np.ndarray,
    r_prime: np.ndarray,
    simplex: Simplex,
    ell: float,
    samples: int,
    seed=0,
) -> tuple[float, float]:
    """Normalized overlap measure estimate with its standard error.

    Samples isometries over the minimal covering cell (points inflated by
    the simplex reach, outside which the indicator vanishes, so the
    estimator is unbiased) and returns

        F(r, r') / |l simplex|  ~  V_cell * P(both inside) / |l simplex|.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    tester = SimplexTester(simplex, ell)
    pts = np.stack([np.asarray(r, float).reshape(3), np.asarray(r_prime, float).reshape(3)])
    lo, hi = _translation_cell(pts, tester.reach)
    v_cell = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)

    hits = 0
    done = 0
    while done < samples:
        m = min(_KERNEL_CHUNK, samples - done)
        rots = random_rotations(rng, m)
        trans = rng.uniform(lo, hi, size=(m, 3))
        # map the two points into the reference placement: R^T (p - t)
        rel = pts[None, :, :] - trans[:, None, :]
        local = np.einsum("mji,mpj->mpi", rots, rel)
        inside = tester.contains(local)
        hits += int(np.count_nonzero(inside.all(axis=1)))
        done += m

    p_hat = hits / samples
    factor = v_cell / tester.volume
    estimate = factor * p_hat
    std_error = factor * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return estimate, std_error


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
    n = len(c)
    # an infinite diagonal distance zeros the self terms
    d = np.where(np.eye(n, dtype=bool), np.inf, c.pair_distances())
    pair_matrix = np.outer(c.charges, c.charges) / d

    rows = []
    for idx, ell in enumerate(np.asarray(ell_list, dtype=float)):
        tester = SimplexTester(simplex, ell)
        lo, hi = _translation_cell(c.positions, tester.reach)
        v_cell = float(np.prod(hi - lo))
        rng = np.random.default_rng([seed, idx])

        total = 0.0
        total_sq = 0.0
        done = 0
        while done < samples:
            m = min(_SLIDING_CHUNK, samples - done)
            rots = random_rotations(rng, m)
            trans = rng.uniform(lo, hi, size=(m, 3))
            rel = c.positions[None, :, :] - trans[:, None, :]
            local = np.einsum("mji,mpj->mpi", rots, rel)
            inside = tester.contains(local).astype(float)
            vals = 0.5 * np.einsum("mi,mj,ij->m", inside, inside, pair_matrix)
            total += float(vals.sum())
            total_sq += float((vals**2).sum())
            done += m

        mean = total / samples
        var = max(total_sq / samples - mean**2, 0.0)
        factor = v_cell / tester.volume
        estimate = factor * mean
        std_error = factor * math.sqrt(var / samples)
        d_stat = (estimate - exact) * ell / sum_q2
        rows.append(SlidingRow(ell=float(ell), estimate=estimate,
                               std_error=std_error, D=d_stat))
    return SlidingReport(rows=rows, exact=exact, sum_q2=sum_q2)
