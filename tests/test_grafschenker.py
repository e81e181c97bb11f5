import json
import math

import numpy as np
import pytest

from coulomblab.cli import DEFAULT_SEED, main
from coulomblab.coulomb import ChargeConfiguration, random_neutral_configuration
from coulomblab.errors import DegenerateSimplexError
from coulomblab.grafschenker import (
    Simplex,
    _direction_average,
    _face_triangles,
    _gauge_moments,
    _truncated_kernel,
    barycentric_forms,
    gauge_moments,
    gs_positive_type_check,
    overlap_kernel,
    radial_kernel,
    regular_tetrahedron,
    sliding_inequality_experiment,
)
from coulomblab.numerics import RadialGridFunction
from coulomblab.thermo import corner_tetrahedron
from fourier_oracle import radial_fourier_transform
from isometry_oracle import overlap_estimate, random_rotations, sliding_estimates
from raster_oracle import simplex_contains

SEED = 137


def covering_cell_average(points, weights, simplex, ell, samples, rng):
    """Isometry average of 1/2 sum_ij 1[r_i in g] 1[r_j in g] W_ij with translations.

    The oracle for the library's rotation-only estimator: translations are
    drawn uniformly over the points' covering cell (the points inflated by
    the simplex reach, l times its largest vertex norm, outside which every
    indicator vanishes) and each point is tested for containment.  Reported
    per unit |l simplex| with its standard error.
    """
    reach = ell * float(np.sqrt((simplex.vertices**2).sum(-1)).max())
    lo = points.min(axis=0) - reach
    hi = points.max(axis=0) + reach
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(32768, samples - done)
        rots = random_rotations(rng, m)
        trans = rng.uniform(lo, hi, size=(m, 3))
        # map the points into the reference placement: R^T (p - t)
        local = np.einsum("mji,mpj->mpi", rots, points[None] - trans[:, None])
        inside = simplex_contains(simplex, ell, local).astype(float)
        vals = 0.5 * np.einsum("mi,mj,ij->m", inside, inside, weights)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    factor = float(np.prod(hi - lo)) / (simplex.volume * ell**3)
    return factor * mean, factor * math.sqrt(var / samples)


@pytest.fixture(scope="module")
def fibonacci_phi():
    """phi at the 2M points of a Fibonacci rule on the sphere, unit regular tetrahedron.

    phi is the gauge of the difference body; the directions are built in
    blocks to keep the arrays small.
    """
    n = 2_000_000
    forms = barycentric_forms(regular_tetrahedron(), 1.0)
    blocks = []
    for start in range(0, n, 250_000):
        k = np.arange(start, min(start + 250_000, n)) + 0.5
        z = 1.0 - 2.0 * k / n
        rho = np.sqrt(1.0 - z * z)
        theta = math.pi * (3.0 - math.sqrt(5.0)) * k
        w = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
        blocks.append(0.5 * np.abs(w @ forms.T).sum(axis=1))
    return np.concatenate(blocks)


@pytest.fixture(scope="module")
def phi_moments(fibonacci_phi):
    """<phi>, <phi^2>, <phi^3> over directions by the Fibonacci rule."""
    return np.array([np.mean(fibonacci_phi**j) for j in (1, 2, 3)])


def cubic_kernel(x, moments):
    """Exact g(x) = <(1 - x phi)^3> of the unit regular tetrahedron, x <= 1/sqrt 2."""
    m1, m2, m3 = moments
    return 1.0 - 3.0 * m1 * x + 3.0 * m2 * x**2 - m3 * x**3


class TestSimplex:
    def test_regular_tetrahedron_volume(self):
        simp = regular_tetrahedron()
        assert simp.volume == pytest.approx(1.0 / (6.0 * math.sqrt(2.0)), rel=1e-12)
        assert simp.diameter == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_rejected(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(DegenerateSimplexError):
            Simplex(flat)


class TestIsometrySampling:
    def test_deterministic_given_seed(self):
        a = random_rotations(np.random.default_rng(9), 64)
        b = random_rotations(np.random.default_rng(9), 64)
        assert np.array_equal(a, b)

    def test_rotation_is_orthogonal(self):
        rots = random_rotations(np.random.default_rng(1), 1000)
        gram = np.einsum("mji,mjk->mik", rots, rots)
        assert np.abs(gram - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(rots) - 1.0).max() <= 1e-12

    def test_haar_mean_is_zero(self):
        rots = random_rotations(np.random.default_rng(SEED), 100000)
        assert np.abs(rots.mean(axis=0)).max() < 0.01

    def test_angle_density(self):
        # rotation angle of a Haar rotation has density (1 - cos t) / pi
        rots = random_rotations(np.random.default_rng(SEED), 100000)
        traces = np.einsum("mii->m", rots)
        angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
        grid = np.linspace(0.0, math.pi, 400)
        cdf_exact = (grid - np.sin(grid)) / math.pi
        cdf_emp = np.searchsorted(np.sort(angles), grid) / angles.size
        assert np.abs(cdf_emp - cdf_exact).max() < 0.01


class TestOverlapKernel:
    def test_normalization_at_coincident_points(self):
        simp = regular_tetrahedron()
        est, err = overlap_kernel(np.zeros(3), np.zeros(3), simp, 3.0, 40000, seed=SEED)
        assert abs(est - 1.0) <= 3.0 * err

    def test_zero_beyond_reach(self):
        simp = regular_tetrahedron()
        est, err = overlap_kernel(
            np.zeros(3), np.array([4.0, 0, 0]), simp, 3.0, 5000, seed=SEED
        )
        assert est == 0.0 and err == 0.0

    def test_radiality_across_orientations(self):
        # every orientation's Monte Carlo oracle lies within 3 of its sigmas
        # of the exact kernel, which is the same up to the rounding of |r|
        simp = regular_tetrahedron()
        ell, x = 3.0, 1.2
        exact = float(radial_kernel(x, simp, ell))
        rng = np.random.default_rng(SEED)
        for j in range(20):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            est, err = overlap_kernel(np.zeros(3), x * direction, simp, ell, 20000)
            assert err == 0.0 and abs(est - exact) <= 1e-15
            e, s = overlap_estimate(
                np.zeros(3), x * direction, simp, ell, 20000, seed=[SEED, j]
            )
            assert abs(e - est) <= 3.0 * s

    @pytest.mark.parametrize("r", [0.6, 1.2, 2.4, 2.7])
    def test_matches_radial_kernel(self, r):
        simp = regular_tetrahedron()
        est, err = overlap_kernel(np.zeros(3), np.array([r, 0.0, 0.0]), simp, 3.0, 100000)
        assert est == radial_kernel(r, simp, 3.0) and err == 0.0
        ref, ref_err = overlap_estimate(
            np.zeros(3), np.array([r, 0.0, 0.0]), simp, 3.0, 100000, seed=SEED
        )
        assert abs(est - ref) <= 4.0 * ref_err

    def test_seed_and_samples_are_unread(self):
        simp = regular_tetrahedron()
        sep = np.array([0.3, 1.1, -0.4])
        assert (overlap_kernel(np.zeros(3), sep, simp, 3.0, 1000, seed=1)
                == overlap_kernel(np.zeros(3), sep, simp, 3.0, 70000, seed=[SEED, 4]))

    def test_minimum_samples_enforced(self):
        simp = regular_tetrahedron()
        with pytest.raises(ValueError):
            overlap_kernel(np.zeros(3), np.zeros(3), simp, 1.0, 100)


@pytest.fixture(scope="module")
def report():
    return gs_positive_type_check(
        regular_tetrahedron(),
        ell=3.0,
        radial_samples=18,
        k_grid=np.geomspace(0.05, 12.0, 16),
    )


def random_simplex():
    # seeded so that some faces of its difference body have their foot
    # outside the face, which the face-plane rule counts with negative signs
    return Simplex(np.random.default_rng(SEED).standard_normal((4, 3)))


def surface_area(simplex):
    v = simplex.vertices
    return sum(0.5 * np.linalg.norm(np.cross(v[b] - v[a], v[c] - v[a]))
               for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


SIMPLICES = [regular_tetrahedron(), corner_tetrahedron(), random_simplex()]
SIMPLEX_IDS = ["regular", "corner", "random"]


class TestFacePlaneRule:
    @pytest.mark.parametrize("simplex", SIMPLICES, ids=SIMPLEX_IDS)
    def test_mass_and_mean_gauge(self, simplex):
        # <1> = 1, and <phi> = S / (12 V) by Cauchy's projection formula;
        # the t-integrals int_h^T h t^-2 F(1/t) dt of F = 1 and F = phi
        triangles = _face_triangles(simplex, 1.0)
        assert len(triangles[0]) == 48
        mass = _direction_average(lambda t, h: 1.0 - h / t, *triangles)
        mean = _direction_average(lambda t, h: 0.5 * (1.0 / h - h / t**2), *triangles)
        assert abs(mass - 1.0) <= 1e-14
        assert abs(mean - surface_area(simplex) / (12.0 * simplex.volume)) <= 1e-13

    def test_random_simplex_has_feet_outside_faces(self):
        assert np.any(_face_triangles(random_simplex(), 1.0)[-1] < 0)

    def test_radial_kernel_matches_fibonacci(self, fibonacci_phi, phi_moments):
        # 1 <= phi <= sqrt 2: the cubic in the moments holds up to x = 1/sqrt 2,
        # beyond it the truncation (.)_+ takes effect
        simp = regular_tetrahedron()
        below = np.array([0.1, 0.3, 0.5, 0.7, 1.0 / math.sqrt(2.0)])
        above = np.array([0.75, 0.8, 0.9, 0.95, 0.99])
        exact = radial_kernel(np.concatenate([below, above]), simp, 1.0)
        assert np.abs(exact[:5] - cubic_kernel(below, phi_moments)).max() <= 1e-10
        for x, g in zip(above, exact[5:]):
            assert abs(g - np.mean(np.maximum(1.0 - x * fibonacci_phi, 0.0) ** 3)) <= 1e-10

    def test_gauge_moments_match_fibonacci(self, phi_moments):
        moments = gauge_moments(regular_tetrahedron())
        assert abs(moments[0] - 1.0) <= 1e-14
        assert abs(moments[1] - math.sqrt(6.0) / 2.0) <= 1e-14
        # the 2M-point Fibonacci rule's own error on phi^3 is about 6e-10
        assert np.abs(moments[1:] - phi_moments).max() <= 1e-9
        # the k-th moment scales as l^-k
        scaled = _gauge_moments(_face_triangles(regular_tetrahedron(), 3.0))
        assert scaled == pytest.approx(moments / 3.0 ** np.arange(4), rel=1e-14)

    @pytest.mark.parametrize("ell", [1.0, 3.0, 4.0])
    @pytest.mark.parametrize("simplex", SIMPLICES, ids=SIMPLEX_IDS)
    def test_kernel_at_zero_is_one(self, simplex, ell):
        assert radial_kernel(0.0, simplex, ell) == 1.0

    @pytest.mark.parametrize("ell", [1.0, 3.0, 4.0])
    @pytest.mark.parametrize("simplex", SIMPLICES, ids=SIMPLEX_IDS)
    def test_cubic_meets_the_rule_at_the_inradius(self, simplex, ell):
        # up to l h_min the kernel is the cubic in the moments, beyond it the
        # truncated rule: the two agree on either side of the switch
        triangles = _face_triangles(simplex, 1.0)
        h_min = triangles[0].min()
        x = h_min * np.array([1.0 - 1e-9, 1.0 + 1e-9])
        _, m1, m2, m3 = gauge_moments(simplex)
        cubic = 1.0 - 3.0 * m1 * x + 3.0 * m2 * x**2 - m3 * x**3
        kernel = radial_kernel(ell * x, simplex, ell)
        assert np.abs(kernel - cubic).max() <= 1e-14
        assert np.abs(kernel - _truncated_kernel(x, triangles)).max() <= 1e-14

    @pytest.mark.parametrize("ell", [0.0, -1.0, np.array([2.0, 0.0])])
    def test_kernel_rejects_nonpositive_ell(self, ell):
        with pytest.raises(ValueError):
            radial_kernel(0.5, regular_tetrahedron(), ell)

    @pytest.mark.parametrize("simplex", [regular_tetrahedron(), random_simplex()],
                             ids=["regular", "random"])
    def test_radial_kernel_profile(self, simplex):
        ell = 3.0
        support = ell * simplex.diameter
        r = np.linspace(0.0, 1.2 * support, 241)
        g = radial_kernel(r, simplex, ell)
        assert g[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(g[r > support] == 0.0)
        assert radial_kernel(support, simplex, ell) == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(g) <= 0.0)


class TestPositiveType:

    def test_no_negative_values_beyond_errors(self, report):
        # T(k) = 24 pi/(l^3 k^5) <phi^3 (y - sin y)> is positive term by term
        assert report.status == "nonnegative"
        assert np.all(report.transform > 0.0)

    def test_long_wavelength_coulomb_limit(self, report):
        # for k ell diam << 1 the screening correction is O(k^2), so the
        # transform approaches the bare Coulomb 4 pi / k^2
        k0 = report.k_grid[0]
        assert report.transform[0] == pytest.approx(4.0 * math.pi / k0**2, rel=0.05)

    def test_short_wavelength_screening(self, report):
        # opposite regime: g(0) = 1 cancels the Coulomb tail at high k
        k1 = report.k_grid[-1]
        assert abs(report.transform[-1]) < 0.7 * 4.0 * math.pi / k1**2

    def test_small_separation_slope(self, report):
        # rotation-averaged covariogram slope of a convex body is -S/(4V)
        # (Cauchy projection formula), so (1 - g(x))/x at the first node
        # must reproduce it; this also pins g(0) = 1
        simp = regular_tetrahedron()
        ell = 3.0
        surface = math.sqrt(3.0) * ell**2  # 4 faces of side-length ell
        volume = simp.volume * ell**3
        slope_exact = surface / (4.0 * volume)
        x0 = report.separations[0]
        slope_est = (1.0 - report.kernel[0]) / x0
        # curvature allowance: next-order term of the covariogram is O(x)
        assert slope_est == pytest.approx(slope_exact, abs=0.5 * slope_exact * x0)

    def test_matches_transform_of_the_exact_kernel(self):
        # the spline oracle on 400 exact-g nodes, with h = (1 - g)/r equal to
        # its slope S/(4V) at 0 and continuing as 1/r beyond the support
        simp, ell = regular_tetrahedron(), 3.0
        k_grid = np.geomspace(0.05, 10.0, 8)
        rep = gs_positive_type_check(simp, ell, 12, k_grid)
        support = ell * simp.diameter
        r = np.linspace(0.0, support, 401)
        h = np.empty_like(r)
        h[0] = 1.5 * math.sqrt(6.0) / ell
        h[1:] = (1.0 - radial_kernel(r[1:], simp, ell)) / r[1:]
        f = RadialGridFunction(r, h)
        oracle = [radial_fourier_transform(f, k, coulomb_tail=True) for k in k_grid]
        assert rep.transform == pytest.approx(oracle, rel=1e-8)
        assert rep.transform[-1] == pytest.approx(1.26588e-3, abs=1e-8)
        assert np.array_equal(rep.kernel, radial_kernel(rep.separations, simp, ell))

    @pytest.mark.parametrize("k_grid", [[], [0.0, 1.0], [-1.0]])
    def test_rejects_empty_or_nonpositive_k(self, k_grid):
        with pytest.raises(ValueError):
            gs_positive_type_check(regular_tetrahedron(), 3.0, 12, k_grid)


def neutral_pair(d=1.0):
    return ChargeConfiguration(
        [[0.0, 0.0, 0.0], [d, 0.0, 0.0]], [1.0, -1.0], ("plus", "minus")
    )


class TestSlidingInequality:
    def test_two_particle_reduction(self):
        # the averaged restricted sum reduces to -g(d)/d for a neutral pair
        simp = regular_tetrahedron()
        d, ell = 0.8, 3.0
        config = neutral_pair(d)
        rep = sliding_inequality_experiment(config, simp, np.array([ell]), 40000)
        g, g_err = overlap_kernel(np.zeros(3), np.array([d, 0, 0]), simp, ell, 40000)
        row = rep.rows[0]
        expected = -g / d
        assert row.std_error == 0.0 and g_err == 0.0
        # (-1/d) g against -g/d: two roundings apart
        assert abs(row.estimate - expected) <= 4.0 * np.finfo(float).eps * abs(expected)
        [(ref, ref_err)] = sliding_estimates(config, simp, [ell], 40000, seed=SEED)
        assert abs(ref - expected) <= 3.0 * ref_err
        # D(l) = l (1 - g(d)) / (2 d) for the pair: nonnegative, as g <= 1
        assert row.D >= 0.0

    def test_large_ell_approaches_exact(self):
        simp = regular_tetrahedron()
        config = neutral_pair(0.5)
        rep = sliding_inequality_experiment(
            config, simp, np.array([4.0, 16.0, 48.0]), 60000, seed=SEED
        )
        errs = [abs(r.estimate - rep.exact) for r in rep.rows]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 0.15 * abs(rep.exact)

    def test_joint_scaling_invariance(self):
        simp = regular_tetrahedron()
        config = neutral_pair(0.7)
        scale = 3.0
        rep1 = sliding_inequality_experiment(
            config, simp, np.array([5.0]), 30000, seed=SEED
        )
        rep2 = sliding_inequality_experiment(
            config.scaled(scale), simp, np.array([5.0 * scale]), 30000, seed=SEED
        )
        # g depends on d / l alone: D is invariant under joint scaling
        assert rep1.rows[0].D == pytest.approx(rep2.rows[0].D, rel=1e-12)

    def test_report_row_schema(self):
        simp = regular_tetrahedron()
        rep = sliding_inequality_experiment(
            neutral_pair(0.5), simp, np.array([3.0]), 2000, seed=SEED
        )
        assert set(rep.rows[0].to_dict()) == {"ell", "estimate", "std_error", "D"}

    def test_seed_and_samples_are_unread(self):
        simp = regular_tetrahedron()
        config = random_neutral_configuration(
            np.random.default_rng(SEED), n_min=6, n_max=10, box=2.0
        )
        ells = np.array([2.0, 8.0, 0.2]) * config.diameter
        one = sliding_inequality_experiment(config, simp, ells, 2000, seed=1)
        two = sliding_inequality_experiment(config, simp, ells, 90000, seed=[SEED, 3])
        assert (one.exact, one.sum_q2, one.rows) == (two.exact, two.sum_q2, two.rows)

    def test_d_bounded_over_random_suite(self):
        simp = regular_tetrahedron()
        rng = np.random.default_rng(SEED)
        d_all = []
        for i in range(3):
            config = ChargeConfiguration(
                rng.uniform(-1, 1, size=(8, 3)),
                np.concatenate([np.ones(4), -np.ones(4)]),
                ("plus",) * 4 + ("minus",) * 4,
            )
            diam = config.diameter
            rep = sliding_inequality_experiment(
                config, simp, np.array([2.0, 8.0, 32.0]) * diam, 20000, seed=[SEED, i]
            )
            d_all.extend(rep.d_values.tolist())
        assert max(d_all) < 10.0


@pytest.fixture(scope="module")
def cli_defaults(tmp_path_factory):
    """The graf-schenker artifact at default settings, with its configuration."""
    out = tmp_path_factory.mktemp("gs") / "graf-schenker.json"
    assert main(["graf-schenker", "--out", str(out)]) == 0
    config = random_neutral_configuration(
        np.random.default_rng(DEFAULT_SEED), n_min=6, n_max=10, box=2.0
    )
    return json.loads(out.read_text()), config


class TestExactTranslationAverage:
    def test_coincident_points_exact(self):
        simp = regular_tetrahedron()
        assert overlap_kernel(np.ones(3), np.ones(3), simp, 3.0, 5000, seed=SEED) == (
            1.0, 0.0,
        )

    @pytest.mark.parametrize("x", [0.6, 1.2, 2.4])
    def test_kernel_matches_covering_cell_oracle(self, x):
        simp = regular_tetrahedron()
        ell = 3.0
        sep = np.array([x, 0.0, 0.0])
        est, err = overlap_kernel(np.zeros(3), sep, simp, ell, 100000)
        ref, ref_err = covering_cell_average(
            np.stack([np.zeros(3), sep]), np.array([[0.0, 1.0], [1.0, 0.0]]),
            simp, ell, 200000, np.random.default_rng(SEED),
        )
        assert err == 0.0 and abs(est - ref) <= 4.0 * ref_err

    def test_sliding_matches_covering_cell_oracle(self):
        simp = regular_tetrahedron()
        config = random_neutral_configuration(
            np.random.default_rng(SEED), n_min=6, n_max=10, box=2.0
        )
        ells = np.array([2.0, 8.0]) * config.diameter
        rep = sliding_inequality_experiment(config, simp, ells, 20000)
        n = len(config)
        dist = np.where(np.eye(n, dtype=bool), np.inf, config.pair_distances())
        pair_matrix = np.outer(config.charges, config.charges) / dist
        for idx, (ell, row) in enumerate(zip(ells, rep.rows)):
            ref, ref_err = covering_cell_average(
                config.positions, pair_matrix, simp, ell, 40000,
                np.random.default_rng([SEED, idx]),
            )
            assert row.std_error == 0.0 and abs(row.estimate - ref) <= 4.0 * ref_err

    def test_mean_gauge_is_cauchy_projection(self, phi_moments):
        # <phi> = S / (12 V) by Cauchy's projection formula: sqrt(6)/2 at unit edge
        assert abs(phi_moments[0] - math.sqrt(6.0) / 2.0) <= 1e-9

    def test_kernel_is_the_exact_cubic(self, phi_moments):
        # 1 <= phi <= sqrt 2, so (1 - x phi)_+^3 is untruncated for x <= 1/sqrt 2;
        # the cubic in the Fibonacci moments is good to that rule's 1e-10
        simp = regular_tetrahedron()
        ell = 3.0
        for j, r in enumerate([0.3, 0.8, 1.5, 2.1]):
            sep = np.array([0.0, r, 0.0])
            cubic = cubic_kernel(r / ell, phi_moments)
            est, err = overlap_kernel(np.zeros(3), sep, simp, ell, 40000)
            assert err == 0.0 and abs(est - cubic) <= 1e-10
            ref, ref_err = overlap_estimate(np.zeros(3), sep, simp, ell, 40000,
                                            seed=[SEED, j])
            assert abs(ref - cubic) <= 4.0 * ref_err

    def test_cli_d_values_match_the_exact_cubic(self, cli_defaults, phi_moments):
        artifact, config = cli_defaults
        i, j = np.triu_indices(len(config), k=1)
        r = config.pair_distances()[i, j]
        qq = config.charges[i] * config.charges[j]
        exact = float(np.sum(qq / r))
        sum_q2 = float(np.sum(config.charges**2))
        for d, row in zip(artifact["D_values"], artifact["rows"]):
            ell = row["ell"]
            assert np.all(r / ell <= 1.0 / math.sqrt(2.0))
            average = float(np.sum(qq * cubic_kernel(r / ell, phi_moments) / r))
            # the cubic in the Fibonacci moments is good to 1e-10 per pair
            tol = 1e-10 * float(np.sum(np.abs(qq) / r)) * ell / sum_q2
            assert abs(d - (average - exact) * ell / sum_q2) <= tol

    def test_cli_d_values_resolved(self, cli_defaults):
        artifact, _ = cli_defaults
        assert artifact["normalization_ok"] is True
        assert artifact["kernel_at_zero"] == 1.0
        assert artifact["kernel_at_zero_err"] == 0.0
        for row in artifact["rows"]:
            assert row["std_error"] == 0.0
        assert artifact["D_values"] == pytest.approx(
            [1.14546, 1.46080, 1.64134, 1.73732, 1.78674], abs=5e-6)

    def test_cli_reports_the_rule(self, cli_defaults, phi_moments):
        artifact, _ = cli_defaults
        moments = np.array(artifact["phi_moments"])
        assert abs(moments[0] - math.sqrt(6.0) / 2.0) <= 1e-14
        assert np.abs(moments - phi_moments).max() <= 1e-9
        assert artifact["rule_mass_error"] <= 1e-14


class TestPinnedStreams:
    def test_estimates_pinned_across_batch_boundary(self):
        # the Monte Carlo oracle: 70,000 and 40,000 samples cross the 2,048
        # rotation batches; the literals fix how the random streams are consumed
        simp = regular_tetrahedron()
        est, err = overlap_estimate(
            np.zeros(3), np.array([0.8, 0.0, 0.0]), simp, 3.0, 70000, seed=SEED
        )
        assert est == 0.30679540149252194
        assert err == pytest.approx(0.0001248615626622846, rel=1e-14)

        config = ChargeConfiguration(
            [[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 0.7, 0.0], [0.3, 0.3, 0.5]],
            [1.0, -1.0, -1.0, 1.0], ("plus", "minus", "minus", "plus"),
        )
        rows = sliding_estimates(config, simp, np.array([2.0, 5.0]), 40000, seed=SEED)
        assert [estimate for estimate, _ in rows] == [
            -0.8618041765703766, -2.143618752380143,
        ]
        assert [std_error for _, std_error in rows] == pytest.approx(
            [0.0006666534197021516, 0.0005784461122575949], rel=1e-14
        )
