import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from coulomblab.coulomb import (
    UNIT_BALL_SELF_ENERGY,
    ChargeConfiguration,
    exact_coulomb_energy,
    nearest_opposite_distances,
    newton_smeared_potential,
    onsager_lower_bound,
    random_neutral_configuration,
    smeared_pair_interaction,
    smeared_pair_interactions,
)
from coulomblab.errors import CoincidentChargesError, NoOppositeSpeciesError
from ball_oracle import ball_average_oracle


def pair_config(d=1.0):
    return ChargeConfiguration(
        [[0.0, 0.0, 0.0], [d, 0.0, 0.0]], [1.0, -1.0], ("plus", "minus")
    )


def brute_force_energy(positions, charges):
    total = 0.0
    n = len(charges)
    for i in range(n):
        for j in range(i + 1, n):
            r = math.dist(positions[i], positions[j])
            total += charges[i] * charges[j] / r
    return total


_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(48)


def gauss48_pair_interaction(delta_i, delta_j, d):
    """The former 48-node route for overlapping balls, kept as the oracle.

    Above d = 1e-7 delta_i it differences the antiderivative P at d + s and
    |d - s|, which loses about eps * delta_i / d of relative accuracy.
    """
    if delta_j > delta_i:
        delta_i, delta_j = delta_j, delta_i
    a_j = delta_j / 2.0
    a_i = delta_i / 2.0

    def antiderivative(s):
        inner = (1.5 * s * s - s**4 / delta_i**2) / delta_i
        return np.where(s <= a_i, inner, 5.0 * delta_i / 16.0 + (s - a_i))

    if d <= 1e-7 * delta_i:
        def mean_times_s2(s):
            inner = (3.0 - 4.0 * s * s / (delta_i * delta_i)) / delta_i
            return s * s * np.where(s >= a_i, 1.0 / np.maximum(s, 1e-300), inner)
    else:
        def mean_times_s2(s):
            return s * (antiderivative(d + s) - antiderivative(np.abs(d - s))) / (2.0 * d)

    pts = sorted({0.0, a_j} | {x for x in (a_i - d, a_i + d, d - a_i) if 0.0 < x < a_j})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GAUSS_NODES
        total += 0.5 * (hi - lo) * float(np.dot(_GAUSS_WEIGHTS, mean_times_s2(s)))
    return (3.0 / a_j**3) * total


def exact_pair_interaction(delta_i, delta_j, d):
    """The overlapping-ball closed form in exact rational arithmetic.

    The float inputs are taken exactly, so the only error left in a kernel
    compared against this is its own rounding.
    """
    a = Fraction(max(delta_i, delta_j)) / 2
    b = Fraction(min(delta_i, delta_j)) / 2
    d = Fraction(d)
    s = max(Fraction(0), d + b - a)
    u = (3 * a**2 - d**2 - Fraction(3, 5) * b**2) / (2 * a**3)
    if s > 0:
        u += s**4 * (30 * a * b - 6 * (a - b) * s - s**2) / (160 * a**3 * b**3 * d)
    return u


def overlapping_pairs(rng, n):
    """Unequal diameters, d from 0 up to touching, dense around 1e-7 delta_i."""
    delta_i = rng.uniform(0.1, 5.0, n)
    delta_j = delta_i * rng.uniform(0.05, 0.999, n)
    touching = 0.5 * (delta_i + delta_j)
    d = touching * rng.uniform(0.0, 1.0, n)
    d[: n // 4] = delta_i[: n // 4] * 10.0 ** rng.uniform(-9.0, -5.0, n // 4)
    d[n // 4 : n // 4 + 5] = 0.0
    d[n // 4 + 5 : n // 4 + 10] = touching[n // 4 + 5 : n // 4 + 10] * (1 - 1e-12)
    flip = rng.random(n) < 0.5
    delta_i[flip], delta_j[flip] = delta_j[flip], delta_i[flip]
    return delta_i, delta_j, d


class TestExactCoulomb:
    def test_single_pair(self):
        assert exact_coulomb_energy(pair_config(1.0)) == -1.0

    def test_single_particle(self):
        c = ChargeConfiguration([[0.0, 0.0, 0.0]], [2.0], ("plus",))
        assert exact_coulomb_energy(c) == 0.0

    def test_alternating_square(self):
        pos = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        q = [1.0, -1.0, 1.0, -1.0]
        c = ChargeConfiguration(pos, q, ("plus", "minus", "plus", "minus"))
        assert exact_coulomb_energy(c) == pytest.approx(
            brute_force_energy(pos, q), rel=1e-14
        )

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentChargesError):
            ChargeConfiguration(
                [[0, 0, 0], [0, 0, 1e-15]], [1.0, -1.0], ("plus", "minus")
            )
        # the coincident pair sits away from the first charge and the diagonal
        with pytest.raises(CoincidentChargesError):
            ChargeConfiguration(
                [[0, 0, 0], [4, 0, 0], [1, 2, 3], [1, 2, 3 + 1e-15]],
                [1.0, -1.0, 1.0, -1.0], ("plus", "minus", "plus", "minus"),
            )

    def test_distance_matrix_shared_and_frozen(self):
        pos = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        c = ChargeConfiguration(pos, [1.0, -1.0, 1.0], ("plus", "minus", "plus"))
        d = c.pair_distances()
        assert d is c.pair_distances()
        assert d[0, 1] == 5.0 and d[1, 2] == math.sqrt(29.0)
        with pytest.raises(ValueError):
            d[0, 1] = 0.0
        with pytest.raises(ValueError):
            c.positions[0, 0] = 1.0
        # the caller's array stays its own and cannot reach the stored matrix
        pos[0, 0] = 1.0
        assert c.positions[0, 0] == 0.0
        exact_coulomb_energy(c)
        onsager_lower_bound(c)
        assert c.diameter == math.sqrt(29.0)
        assert np.array_equal(np.diag(d), np.zeros(3))


class TestNearestOpposite:
    def test_two_particles(self):
        assert np.allclose(nearest_opposite_distances(pair_config(2.5)), [2.5, 2.5])

    def test_three_on_line(self):
        c = ChargeConfiguration(
            [[0, 0, 0], [1, 0, 0], [3, 0, 0]],
            [1.0, -1.0, -1.0],
            ("plus", "minus", "minus"),
        )
        assert np.allclose(nearest_opposite_distances(c), [1.0, 1.0, 3.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        c = random_neutral_configuration(rng, n_min=20, n_max=20)
        labels = np.asarray(c.species)
        expected = []
        for j in range(len(c)):
            best = np.inf
            for i in range(len(c)):
                if labels[i] != labels[j]:
                    best = min(best, math.dist(c.positions[i], c.positions[j]))
            expected.append(best)
        assert np.allclose(nearest_opposite_distances(c), expected)

    def test_single_species_rejected(self):
        c = ChargeConfiguration(
            [[0, 0, 0], [1, 0, 0]], [1.0, 1.0], ("plus", "plus")
        )
        with pytest.raises(NoOppositeSpeciesError):
            nearest_opposite_distances(c)


class TestNewtonPotential:
    def test_center_value(self):
        assert newton_smeared_potential(1.0, 0.0) == 3.0

    def test_branch_continuity(self):
        for delta in (0.3, 1.0, 4.7):
            inside = (3.0 - 4.0 * (delta / 2) ** 2 / delta**2) / delta
            outside = 1.0 / (delta / 2)
            assert abs(inside - outside) < 1e-12 * outside
            assert newton_smeared_potential(delta, delta / 2) == pytest.approx(
                2.0 / delta, rel=1e-14
            )

    def test_outside_is_point_charge(self):
        assert newton_smeared_potential(0.4, 1.0) == 1.0

    def test_never_exceeds_point_potential(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            delta = rng.uniform(0.05, 5.0)
            r = rng.uniform(1e-3, 5.0)
            assert newton_smeared_potential(delta, r) <= 1.0 / r + 1e-12

    def test_matches_ball_average_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            delta = rng.uniform(0.2, 3.0)
            r = rng.uniform(1e-2, 2.0 * delta)
            oracle = ball_average_oracle(delta, r)
            assert newton_smeared_potential(delta, r) == pytest.approx(
                oracle, rel=1e-6
            )


class TestSmearedEnergies:
    def test_self_energy_values(self):
        assert UNIT_BALL_SELF_ENERGY == 2.4

    def test_self_energy_against_pair_quadrature(self):
        # coincident balls reduce the double integral to the radial quadrature
        assert smeared_pair_interaction(1.0, 1.0, 0.0) == pytest.approx(2.4, abs=1e-6)

    def test_disjoint_balls_exact(self):
        assert smeared_pair_interaction(1.0, 1.0, 2.0) == 0.5
        assert smeared_pair_interaction(0.6, 1.0, 0.8) == pytest.approx(1.25)

    def test_overlap_below_point_value(self):
        assert smeared_pair_interaction(1.0, 1.0, 0.3) < 1.0 / 0.3

    def test_overlap_continuity_at_touching(self):
        d = 0.9999999
        assert smeared_pair_interaction(1.0, 1.0, d) == pytest.approx(1.0 / d, rel=1e-9)

    def test_coincident_equal_balls_are_self_energy(self):
        for delta in (0.1, 1.0, 3.7):
            assert smeared_pair_interaction(delta, delta, 0.0) == pytest.approx(
                12.0 / (5.0 * delta), rel=1e-14
            )

    def test_equal_diameters_closed_form(self):
        rng = np.random.default_rng(17)
        for delta in rng.uniform(0.1, 5.0, 50):
            a = delta / 2.0
            for x in np.concatenate([[0.0, 1e-9, 1e-7, 1e-5], rng.uniform(0.0, 2.0, 20)]):
                want = (6.0 / 5.0 - x**2 / 2.0 + 3.0 * x**3 / 16.0 - x**5 / 160.0) / a
                got = smeared_pair_interaction(delta, delta, x * a)
                assert got == pytest.approx(want, rel=1e-12), (delta, x)

    def test_nested_ball_closed_form(self):
        # ball j inside ball i sees the quadratic potential, whose mean over
        # ball j is (3 - 4 (d^2 + 3 a_j^2 / 5) / delta_i^2) / delta_i
        rng = np.random.default_rng(19)
        delta_i = rng.uniform(0.1, 5.0, 500)
        delta_j = delta_i * rng.uniform(0.05, 0.9, 500)
        d = delta_i * 10.0 ** rng.uniform(-12.0, -1.5, 500)
        d[:5] = 0.0
        want = (3.0 - 4.0 * (d**2 + 0.6 * (delta_j / 2.0) ** 2) / delta_i**2) / delta_i
        got = np.array([smeared_pair_interaction(*p) for p in zip(delta_i, delta_j, d)])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14
        vector = smeared_pair_interactions(delta_i, delta_j, d)
        assert np.max(np.abs(vector / want - 1.0)) <= 1e-14

    def test_closed_form_matches_48_node_oracle(self):
        delta_i, delta_j, d = overlapping_pairs(np.random.default_rng(23), 2400)
        oracle = np.array([gauss48_pair_interaction(*p) for p in zip(delta_i, delta_j, d)])
        scalar = np.array([smeared_pair_interaction(*p) for p in zip(delta_i, delta_j, d)])
        vector = smeared_pair_interactions(delta_i, delta_j, d)
        # the oracle's own rounding: 1e-13, plus its cancellation above 1e-7 delta
        big = np.maximum(delta_i, delta_j)
        allowed = 1e-13 + np.where(
            d > 1e-7 * big, np.finfo(float).eps * big / np.maximum(d, 1e-300), 0.0)
        for got in (scalar, vector):
            assert np.all(np.abs(got / oracle - 1.0) <= allowed)
        well_conditioned = d >= 1e-3 * big
        assert well_conditioned.sum() >= 1500
        assert np.max(np.abs(scalar / oracle - 1.0)[well_conditioned]) <= 1e-13

    def test_scalar_and_vector_forms_agree(self):
        delta_i, delta_j, d = overlapping_pairs(np.random.default_rng(29), 2000)
        scalar = np.array([smeared_pair_interaction(*p) for p in zip(delta_i, delta_j, d)])
        vector = smeared_pair_interactions(delta_i, delta_j, d)
        assert np.array_equal(vector, scalar)

    def test_rounding_against_exact_arithmetic(self):
        # the regimes where a quadrature or a rearranged form loses digits:
        # a small ball at the surface of a large one, near-equal balls at
        # tiny separation, and pairs near touching
        rng = np.random.default_rng(41)
        n = 600
        big = rng.uniform(0.1, 5.0, (3, n))
        small_ratio = 10.0 ** rng.uniform(-6.0, -1.0, n)
        near_equal = 1.0 - 10.0 ** rng.uniform(-16.0, -3.0, n)
        ratio = rng.uniform(1e-6, 1.0, n)
        delta_j = big * np.stack([small_ratio, near_equal, ratio])
        surface = 0.5 * (big[0] + delta_j[0] * rng.uniform(-1.0, 1.0, n))
        tiny = big[1] * 10.0 ** rng.uniform(-12.0, -1.0, n)
        touching = 0.5 * (big[2] + delta_j[2]) * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0, n))
        for delta_i, delta_j, d in zip(big, delta_j, (surface, tiny, touching)):
            assert np.all(d < 0.5 * (delta_i + delta_j))
            flip = rng.random(len(d)) < 0.5
            delta_i[flip], delta_j[flip] = delta_j[flip], delta_i[flip]
            want = np.array([float(exact_pair_interaction(*p))
                             for p in zip(delta_i, delta_j, d)])
            scalar = np.array([smeared_pair_interaction(*p)
                               for p in zip(delta_i, delta_j, d)])
            vector = smeared_pair_interactions(delta_i, delta_j, d)
            assert np.max(np.abs(scalar / want - 1.0)) <= 4e-15
            assert np.array_equal(vector, scalar)

    def test_vector_form_rejects_disjoint_and_bad_pairs(self):
        with pytest.raises(ValueError):
            smeared_pair_interactions([1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            smeared_pair_interactions([1.0], [0.0], [0.1])
        with pytest.raises(ValueError):
            smeared_pair_interactions([1.0], [1.0], [-0.1])


class TestCoulombPositiveType:
    def test_yukawa_transform_strictly_positive(self):
        # positivity of the (regularized) Coulomb transform is what turns the
        # smeared interaction into a one-sided bound
        from fourier_oracle import geometric_radial_grid, radial_fourier_transform

        from coulomblab.numerics import RadialGridFunction

        eps = 1e-3
        r = geometric_radial_grid(1e-6, 50.0, 2000)
        f = RadialGridFunction(r, np.exp(-eps * r) / r)
        for k in np.geomspace(0.05, 40.0, 25):
            assert radial_fourier_transform(f, k, coulomb_tail=True) > 0.0


class TestOnsagerBound:
    def test_unit_pair_numbers(self):
        rep = onsager_lower_bound(pair_config(1.0))
        assert rep.extras["exact"] == -1.0
        assert rep.extras["final_bound"] == pytest.approx(-4.8, rel=1e-14)
        assert rep.all_checks_pass

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        c = random_neutral_configuration(rng, n_min=6, n_max=12)
        rep1 = onsager_lower_bound(c)
        rep2 = onsager_lower_bound(c.scaled(3.0))
        assert rep2.extras["final_bound"] == pytest.approx(
            rep1.extras["final_bound"] / 3.0, rel=1e-12
        )
        assert rep2.extras["exact"] == pytest.approx(
            rep1.extras["exact"] / 3.0, rel=1e-12
        )

    def test_randomized_sweep(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            c = random_neutral_configuration(rng, n_min=2, n_max=14)
            rep = onsager_lower_bound(c)
            assert rep.all_checks_pass, rep.checks

    def test_chain_matches_pairwise_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            c = random_neutral_configuration(rng, n_min=10, n_max=40, box=4.0)
            rep = onsager_lower_bound(c)
            deltas = nearest_opposite_distances(c)
            d = c.pair_distances()
            want = 1.2 * float(np.sum(c.charges**2 / deltas))
            for i in range(len(c)):
                for j in range(i + 1, len(c)):
                    q = c.charges[i] * c.charges[j]
                    if d[i, j] >= 0.5 * (deltas[i] + deltas[j]):
                        want += q / d[i, j]
                    else:
                        want += q * gauss48_pair_interaction(deltas[i], deltas[j], d[i, j])
            scale = abs(rep.extras["exact"]) + abs(rep.extras["final_bound"])
            assert abs(rep.terms["smeared_interaction"] - want) <= 1e-13 * scale

    def test_opposite_pairs_are_disjoint_by_construction(self):
        rng = np.random.default_rng(31)
        c = random_neutral_configuration(rng, n_min=10, n_max=25)
        deltas = nearest_opposite_distances(c)
        d = c.pair_distances()
        labels = np.asarray(c.species)
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                if labels[i] != labels[j]:
                    assert deltas[i] + deltas[j] <= 2.0 * d[i, j] + 1e-12
                    got = smeared_pair_interaction(deltas[i], deltas[j], d[i, j])
                    assert got == pytest.approx(1.0 / d[i, j], rel=1e-10)
