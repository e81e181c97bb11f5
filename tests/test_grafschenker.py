import json
import math

import numpy as np
import pytest

from coulomblab.cli import DEFAULT_SEED, main
from coulomblab.coulomb import ChargeConfiguration, random_neutral_configuration
from coulomblab.errors import DegenerateSimplexError
from coulomblab.grafschenker import (
    Simplex,
    SimplexTester,
    random_rotations,
    estimate_radial_kernel,
    gs_positive_type_check,
    overlap_kernel,
    regular_tetrahedron,
    sliding_inequality_experiment,
)

SEED = 137


def covering_cell_average(points, weights, tester, samples, rng):
    """Isometry average of 1/2 sum_ij 1[r_i in g] 1[r_j in g] W_ij with translations.

    The oracle for the library's rotation-only estimator: translations are
    drawn uniformly over the points' covering cell (the points inflated by
    the simplex reach, outside which every indicator vanishes) and each
    point is tested for containment.  Reported per unit |l simplex| with
    its standard error.
    """
    lo = points.min(axis=0) - tester.reach
    hi = points.max(axis=0) + tester.reach
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(32768, samples - done)
        rots = random_rotations(rng, m)
        trans = rng.uniform(lo, hi, size=(m, 3))
        # map the points into the reference placement: R^T (p - t)
        local = np.einsum("mji,mpj->mpi", rots, points[None] - trans[:, None])
        inside = tester.contains(local).astype(float)
        vals = 0.5 * np.einsum("mi,mj,ij->m", inside, inside, weights)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    factor = float(np.prod(hi - lo)) / tester.volume
    return factor * mean, factor * math.sqrt(var / samples)


@pytest.fixture(scope="module")
def phi_moments():
    """<phi>, <phi^2>, <phi^3> over directions for the unit regular tetrahedron.

    phi is the gauge of the difference body; a 2M-point Fibonacci rule on
    the sphere integrates it, in blocks to keep the arrays small.
    """
    n = 2_000_000
    tester = SimplexTester(regular_tetrahedron(), 1.0)
    forms = np.vstack([tester.inv_edges, -tester.inv_edges.sum(axis=0)])
    moments = np.zeros(3)
    for start in range(0, n, 250_000):
        k = np.arange(start, min(start + 250_000, n)) + 0.5
        z = 1.0 - 2.0 * k / n
        rho = np.sqrt(1.0 - z * z)
        theta = math.pi * (3.0 - math.sqrt(5.0)) * k
        w = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
        phi = 0.5 * np.abs(w @ forms.T).sum(axis=1)
        moments += [phi.sum(), (phi**2).sum(), (phi**3).sum()]
    return moments / n


def cubic_kernel(x, moments):
    """Exact g(x) = <(1 - x phi)^3> of the unit regular tetrahedron, x <= 1/sqrt 2."""
    m1, m2, m3 = moments
    return 1.0 - 3.0 * m1 * x + 3.0 * m2 * x**2 - m3 * x**3


class TestSimplex:
    def test_regular_tetrahedron_volume(self):
        simp = regular_tetrahedron(edge=1.0)
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
        simp = regular_tetrahedron()
        ell, x = 3.0, 1.2
        rng = np.random.default_rng(SEED)
        estimates, errors = [], []
        for j in range(20):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            e, s = overlap_kernel(
                np.zeros(3), x * direction, simp, ell, 20000, seed=[SEED, j]
            )
            estimates.append(e)
            errors.append(s)
        estimates = np.array(estimates)
        errors = np.array(errors)
        mean = np.average(estimates, weights=1.0 / errors**2)
        sigma_mean = 1.0 / math.sqrt(float(np.sum(1.0 / errors**2)))
        z = np.abs(estimates - mean) / np.sqrt(errors**2 + sigma_mean**2)
        assert z.max() <= 3.0

    def test_kernel_profile_monotone_within_error(self):
        simp = regular_tetrahedron()
        xs = np.linspace(0.3, 2.7, 9)
        g, err = estimate_radial_kernel(simp, 3.0, xs, 20000, seed=SEED)
        for a, b, ea, eb in zip(g[:-1], g[1:], err[:-1], err[1:]):
            assert b <= a + 3.0 * math.hypot(ea, eb)

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
        samples_per_point=20000,
        seed=SEED,
    )


class TestPositiveType:

    def test_no_negative_values_beyond_errors(self, report):
        assert report.status != "negative"
        assert np.all(report.transform >= -3.0 * report.transform_error)

    def test_long_wavelength_coulomb_limit(self, report):
        # for k ell diam << 1 the screening correction is O(k^2), so the
        # transform approaches the bare Coulomb 4 pi / k^2
        k0 = report.k_grid[0]
        coulomb = 4.0 * math.pi / k0**2
        assert report.transform[0] == pytest.approx(
            coulomb, rel=0.05, abs=3.0 * report.transform_error[0]
        )

    def test_short_wavelength_screening(self, report):
        # opposite regime: g(0) = 1 cancels the Coulomb tail at high k
        k1 = report.k_grid[-1]
        coulomb = 4.0 * math.pi / k1**2
        assert abs(report.transform[-1]) < 0.7 * coulomb + 3.0 * report.transform_error[-1]

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
        sigma = report.kernel_error[0] / x0
        # curvature allowance: next-order term of the covariogram is O(x)
        assert slope_est == pytest.approx(
            slope_exact, abs=3.0 * sigma + 0.5 * slope_exact * x0
        )


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
        rep = sliding_inequality_experiment(
            config, simp, np.array([ell]), 40000, seed=SEED
        )
        g_est, g_err = overlap_kernel(
            np.zeros(3), np.array([d, 0, 0]), simp, ell, 40000, seed=SEED + 1
        )
        row = rep.rows[0]
        expected = -g_est / d
        sigma = math.hypot(row.std_error, g_err / d)
        assert abs(row.estimate - expected) <= 3.0 * sigma
        # D(l) = l (1 - g(d)) / d for the pair: nonnegative within error
        assert row.D >= -3.0 * row.std_error * ell / rep.sum_q2

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
        # same Monte Carlo stream: D is exactly invariant under joint scaling
        assert rep1.rows[0].D == pytest.approx(rep2.rows[0].D, rel=1e-12)

    def test_report_row_schema(self):
        simp = regular_tetrahedron()
        rep = sliding_inequality_experiment(
            neutral_pair(0.5), simp, np.array([3.0]), 2000, seed=SEED
        )
        assert set(rep.rows[0].to_dict()) == {"ell", "estimate", "std_error", "D"}
        assert set(rep.to_dict()) == {"exact", "sum_q2", "rows"}

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
        est, err = overlap_kernel(np.zeros(3), sep, simp, ell, 100000, seed=SEED)
        ref, ref_err = covering_cell_average(
            np.stack([np.zeros(3), sep]), np.array([[0.0, 1.0], [1.0, 0.0]]),
            SimplexTester(simp, ell), 200000, np.random.default_rng(SEED),
        )
        assert abs(est - ref) <= 4.0 * math.hypot(err, ref_err)

    def test_sliding_matches_covering_cell_oracle(self):
        simp = regular_tetrahedron()
        config = random_neutral_configuration(
            np.random.default_rng(SEED), n_min=6, n_max=10, box=2.0
        )
        ells = np.array([2.0, 8.0]) * config.diameter
        rep = sliding_inequality_experiment(config, simp, ells, 20000, seed=SEED)
        n = len(config)
        dist = np.where(np.eye(n, dtype=bool), np.inf, config.pair_distances())
        pair_matrix = np.outer(config.charges, config.charges) / dist
        for idx, (ell, row) in enumerate(zip(ells, rep.rows)):
            ref, ref_err = covering_cell_average(
                config.positions, pair_matrix, SimplexTester(simp, ell), 40000,
                np.random.default_rng([SEED, idx]),
            )
            assert abs(row.estimate - ref) <= 4.0 * math.hypot(row.std_error, ref_err)

    def test_mean_gauge_is_cauchy_projection(self, phi_moments):
        # <phi> = S / (12 V) by Cauchy's projection formula: sqrt(6)/2 at unit edge
        assert abs(phi_moments[0] - math.sqrt(6.0) / 2.0) <= 1e-9

    def test_kernel_is_the_exact_cubic(self, phi_moments):
        # 1 <= phi <= sqrt 2, so (1 - x phi)_+^3 is untruncated for x <= 1/sqrt 2
        simp = regular_tetrahedron()
        ell = 3.0
        for j, r in enumerate([0.3, 0.8, 1.5, 2.1]):
            est, err = overlap_kernel(
                np.zeros(3), np.array([0.0, r, 0.0]), simp, ell, 40000, seed=[SEED, j]
            )
            assert abs(est - cubic_kernel(r / ell, phi_moments)) <= 4.0 * err

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
            sigma_d = row["std_error"] * ell / sum_q2
            assert abs(d - (average - exact) * ell / sum_q2) <= 4.0 * sigma_d

    def test_cli_d_values_resolved(self, cli_defaults):
        artifact, config = cli_defaults
        sum_q2 = float(np.sum(config.charges**2))
        assert artifact["normalization_ok"] is True
        for row in artifact["rows"]:
            assert row["std_error"] * row["ell"] / sum_q2 <= 0.01


class TestPinnedStreams:
    def test_estimates_pinned_across_batch_boundary(self):
        # 70,000 and 40,000 samples cross the 2,048 rotation batches; the
        # literals fix how the random streams are consumed
        simp = regular_tetrahedron()
        est, err = overlap_kernel(
            np.zeros(3), np.array([0.8, 0.0, 0.0]), simp, 3.0, 70000, seed=SEED
        )
        assert est == 0.30679540149252194
        assert err == pytest.approx(0.0001248615626622846, rel=1e-14)

        config = ChargeConfiguration(
            [[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 0.7, 0.0], [0.3, 0.3, 0.5]],
            [1.0, -1.0, -1.0, 1.0], ("plus", "minus", "minus", "plus"),
        )
        rep = sliding_inequality_experiment(
            config, simp, np.array([2.0, 5.0]), 40000, seed=SEED
        )
        assert [r.estimate for r in rep.rows] == [
            -0.8618041765703766, -2.143618752380143,
        ]
        assert [r.std_error for r in rep.rows] == pytest.approx(
            [0.0006666534197021516, 0.0005784461122575949], rel=1e-14
        )
