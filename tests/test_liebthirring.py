import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from coulomblab.liebthirring import (
    SpeciesSpec,
    box_kinetic_lower_bound,
    classical_lt_constant,
    cube_mode_energies_below,
    dirichlet_cube_kinetic_sum,
    ladder_levels_below,
    stability_constant,
)
from variational_oracle import density_coefficients, density_objective


_PGAUSS_NODES, _PGAUSS_WEIGHTS = leggauss(8)


def semiclassical_phase_space_energy(v, cell_volume, m):
    """Classical energy of filled negative phase space, and its coefficient.

    The oracle for classical_lt_constant.  Computes
    int dr int_{p^2/2m - V(r) <= 0} (p^2/2m - V(r)) dp by a radial momentum
    quadrature nested inside the grid sum over r, then extracts kappa from
    value = -kappa m^(3/2) int V^(5/2).  The momentum integrand is a quartic
    polynomial, so the fixed Gauss rule is exact.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("potential samples must be nonnegative")
    norm52 = float(np.sum(v**2.5)) * cell_volume
    if not np.isfinite(norm52):
        raise ValueError("int V^(5/2) diverges on this grid")

    p_max = np.sqrt(2.0 * m * v)
    half = 0.5 * p_max
    # nodes shape (n_samples, n_gauss)
    pg = half[:, None] * (_PGAUSS_NODES[None, :] + 1.0)
    inner = 4.0 * math.pi * pg**2 * (pg**2 / (2.0 * m) - v[:, None])
    per_r = half * np.dot(inner, _PGAUSS_WEIGHTS)
    value = float(per_r.sum()) * cell_volume
    kappa = -value / (m**1.5 * norm52) if norm52 > 0 else 0.0
    return value, kappa


def brute_force_levels(threshold, side, mass, strict):
    """Dirichlet cube levels below threshold by looping over index triples."""
    scale = math.pi**2 / (2.0 * mass * side**2)
    cap = math.isqrt(int(threshold / scale)) + 2
    levels = []
    for ks in itertools.product(range(1, cap + 1), repeat=3):
        if strict and any(a >= b for a, b in zip(ks, ks[1:])):
            continue
        e = scale * sum(k * k for k in ks)
        if e < threshold:
            levels.append(e)
    return sorted(levels)


class TestSemiclassicalPhaseSpace:
    def test_zero_potential(self):
        value, _ = semiclassical_phase_space_energy(np.zeros(10), 1.0, 1.0)
        assert value == 0.0

    def test_constant_potential_coefficient(self):
        # independent 1-d oracle for the filled-momentum integral
        def inner_oracle(v, m):
            val, _ = quad(
                lambda p: 4.0 * math.pi * p**2 * (p**2 / (2 * m) - v),
                0.0,
                math.sqrt(2.0 * m * v),
            )
            return val

        value, kappa = semiclassical_phase_space_energy(np.array([1.0]), 1.0, 1.0)
        assert value == pytest.approx(inner_oracle(1.0, 1.0), rel=1e-12)
        assert kappa == pytest.approx(8.0 * math.pi / 15.0 * 2.0**1.5, rel=1e-12)
        # the coefficient carries an exact 2^(3/2) relative to 8 pi / 15
        assert kappa / (8.0 * math.pi / 15.0) == pytest.approx(2.0**1.5, rel=1e-12)

    def test_mass_scaling(self):
        v = np.array([0.3, 1.0, 2.2])
        val1, _ = semiclassical_phase_space_energy(v, 0.5, 1.0)
        val2, _ = semiclassical_phase_space_energy(v, 0.5, 2.0)
        assert val2 == pytest.approx(2.0**1.5 * val1, rel=1e-12)

    def test_classical_constant_is_phase_space_density(self):
        _, kappa = semiclassical_phase_space_energy(np.array([1.0]), 1.0, 1.0)
        assert classical_lt_constant() == pytest.approx(
            kappa / (2.0 * math.pi) ** 3, rel=1e-14
        )


class TestBoxBound:
    def test_unit_case_closed_form(self):
        # (3/5) v* with v* = (2 / (5 C))^(2/3)
        c_lt = 2.0**1.5 / (15.0 * math.pi**2)
        expected = 0.6 * (0.4 / c_lt) ** (2.0 / 3.0)
        got = box_kinetic_lower_bound(1, 1.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_matches_numeric_scan(self):
        m, n, vol = 1.7, 11, 3.7
        vs = np.linspace(0.0, 50.0, 400001)
        scan = (n * vs - classical_lt_constant() * m**1.5 * vs**2.5 * vol).max()
        assert box_kinetic_lower_bound(n, vol, m) == pytest.approx(scan, rel=1e-8)

    def test_joint_scaling(self):
        base = box_kinetic_lower_bound(5, 2.0, 1.0)
        assert box_kinetic_lower_bound(40, 16.0, 1.0) == pytest.approx(
            8.0 * base, rel=1e-12
        )

    def test_monotonicity(self):
        base = box_kinetic_lower_bound(10, 1.0, 1.0)
        assert base > box_kinetic_lower_bound(9, 1.0, 1.0)
        assert box_kinetic_lower_bound(10, 2.0, 1.0) < base
        assert box_kinetic_lower_bound(10, 1.0, 2.0) < base

    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            box_kinetic_lower_bound(0, 1.0, 1.0)

    def test_rejects_nonpositive_mass(self):
        for m in (0.0, -1.0):
            with pytest.raises(ValueError):
                box_kinetic_lower_bound(4, 1.0, m)


def coordinate_descent(f, start=(1.0, 1.0), sweeps=80):
    """Independent oracle: alternate exact 1-d minimizations."""
    x, y = start

    def minimize_axis(fun):
        grid = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 400)])
        vals = np.array([fun(g) for g in grid])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        if hi <= lo:
            return grid[i]
        res = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-15})
        return res.x if res.fun < vals[i] else grid[i]

    for _ in range(sweeps):
        x = minimize_axis(lambda t: f(t, y))
        y = minimize_axis(lambda t: f(x, t))
    return f(x, y)


class TestStabilityConstant:
    def spec(self, mu=0.5, mp=1.0, mm=2.0, qp=1.0, qm=0.7):
        return SpeciesSpec(mp, mm, qp, qm, mu)

    def test_large_positive_mu_nonpositive(self):
        assert stability_constant(self.spec(mu=1e6)) <= 0.0

    def test_symmetric_species_symmetric_minimizer(self):
        s = self.spec(mu=-1.0, mp=1.0, mm=1.0, qp=0.8, qm=0.8)
        f = density_objective(s)
        # separable and symmetric objective: swap invariance on the minimum
        val = stability_constant(s)
        assert f(2.0, 3.0) == pytest.approx(f(3.0, 2.0), rel=1e-12)
        assert val <= f(1.0, 1.0) + 1e-12

    def test_matches_coordinate_descent(self):
        s = self.spec(mu=0.3)
        val = stability_constant(s)
        cd = coordinate_descent(density_objective(s))
        assert val == pytest.approx(cd, abs=1e-8 * (1.0 + abs(cd)))

    def test_monotone_in_charge(self):
        vals = [stability_constant(self.spec(qp=q, qm=q)) for q in (0.5, 0.8, 1.2, 2.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_huge_charge_matches_closed_form(self):
        # at mu = 0 each species minimizes c1 x^2 - c2 x in x = n^(5/6), so
        # the constant is -sum c2^2 / (4 c1) even far beyond any scan range
        s = SpeciesSpec(1.0, 1.0, 1e8, 1e8, 0.0)
        c1, c2 = density_coefficients(1.0, s.Q_plus)
        assert stability_constant(s) == pytest.approx(
            -2.0 * c2**2 / (4.0 * c1), rel=1e-12
        )

    @pytest.mark.parametrize("mu", [-3.0, -0.1, 10.0, 1e3])
    def test_exact_root_never_above_coordinate_descent(self, mu):
        s = self.spec(mu=mu)
        f = density_objective(s)
        val = stability_constant(s)
        cd = coordinate_descent(f)
        assert val <= cd + 1e-13 * abs(cd)
        assert val == pytest.approx(cd, abs=1e-8 * (1.0 + abs(cd)))


class TestDirichletSums:
    def test_ground_mode(self):
        assert dirichlet_cube_kinetic_sum(1, 1.0, 1.0) == pytest.approx(
            1.5 * math.pi**2, rel=1e-14
        )

    def test_first_shell(self):
        expected = 1.5 * math.pi**2 + 2.0 * 3.0 * math.pi**2
        assert dirichlet_cube_kinetic_sum(3, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_matches_direct_enumeration(self):
        cap = 12
        ax = np.arange(1, cap + 1)
        k1, k2, k3 = np.meshgrid(ax, ax, ax, indexing="ij")
        n2 = np.sort((k1**2 + k2**2 + k3**2).ravel())
        for n in (10, 100, 500):
            expected = math.pi**2 / 2.0 * n2[:n].sum()
            assert dirichlet_cube_kinetic_sum(n, 1.0, 1.0) == pytest.approx(
                expected, rel=1e-13
            )

    def test_exponent_from_regression(self):
        ns = np.unique(np.round(np.geomspace(800, 10000, 12)).astype(int))
        sums = [dirichlet_cube_kinetic_sum(int(n), 1.0, 1.0) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(sums), 1)[0]
        assert 1.60 <= slope <= 1.73

    # at mass pi^2/2 and unit side every level is the integer |k|^2, so the
    # sums are exact and their increments equal the levels bit for bit
    @pytest.mark.parametrize("side, mass, rel", [(1.0, math.pi**2 / 2.0, 0.0),
                                                 (2.5, 0.7, 1e-12)])
    def test_sum_increments_are_the_sorted_levels(self, side, mass, rel):
        want = brute_force_levels(60.0 * math.pi**2 / (2.0 * mass * side**2),
                                  side, mass, strict=False)[:60]
        sums = [dirichlet_cube_kinetic_sum(n, side, mass) for n in range(1, 61)]
        assert np.diff([0.0] + sums) == pytest.approx(want, rel=rel, abs=0.0)

    def test_strict_is_keyword_only(self):
        with pytest.raises(TypeError):
            cube_mode_energies_below(100.0, 1.0, 1.0, True)
        with pytest.raises(TypeError):
            ladder_levels_below(np.arange(1.0, 5.0), 1.0, 9.0, True)

    # the ids name the cases by (dimension, strict)
    @pytest.mark.parametrize("strict", [False, True], ids=["3-False", "3-True"])
    def test_levels_below_match_brute_force(self, strict):
        for threshold, side, mass in ((100.0, 1.0, 1.0), (12.0, 4.5, 0.7), (250.0, 2.0, 3.0)):
            got = cube_mode_energies_below(threshold, side, mass, strict=strict)
            want = brute_force_levels(threshold, side, mass, strict)
            assert got.size == len(want) > 0
            assert got == pytest.approx(want, rel=1e-15)

    def test_level_on_the_threshold_is_excluded(self):
        # pi^2 14 / 2 is the lowest strictly increasing triple (1, 2, 3)
        scale = math.pi**2 / 2.0
        assert cube_mode_energies_below(scale * 14, 1.0, 1.0, strict=True).size == 0
        assert cube_mode_energies_below(scale * 14, 1.0, 1.0).tolist() == [
            scale * n2 for n2 in (3, 6, 6, 6, 9, 9, 9, 11, 11, 11, 12)
        ]

    LADDERS = {
        # exactly summable, so brute force and enumeration share every bit
        "integer": (np.arange(1, 9) ** 2, 0.37),
        # the 7-point ladder of a 12-site axis, as the raster sums it
        "lattice": (1.0 - np.cos(np.pi * np.arange(1, 13) / 13), 1.0 / (1.5 * 0.4**2)),
        # unsorted and irregular
        "random": (np.random.default_rng(11).uniform(0.05, 2.0, 9), 1.3),
    }

    @pytest.mark.parametrize("strict", [False, True], ids=["3-False", "3-True"])
    @pytest.mark.parametrize("name", sorted(LADDERS))
    def test_ladder_levels_match_brute_force(self, name, strict):
        ladder, scale = self.LADDERS[name]
        tuples = (itertools.combinations if strict else
                  lambda xs, n: itertools.product(xs, repeat=n))
        every = [scale * sum(t) for t in tuples(ladder.tolist(), 3)]
        for threshold in np.quantile(every, [0.1, 0.5, 0.9]):
            got = ladder_levels_below(ladder, scale, threshold, strict=strict)
            want = sorted(level for level in every if level < threshold)
            assert got.size == len(want) > 0
            assert got.tolist() == want

    def test_ladder_level_on_the_threshold_is_excluded(self):
        # dyadic entries sum exactly: 0.5 + 1.25 + 2.0 = 3.75
        ladder = np.array([0.5, 1.25, 2.0, 3.5])
        assert ladder_levels_below(ladder, 1.0, 3.75, strict=True).size == 0
        assert ladder_levels_below(ladder, 1.0, 3.75 + 2.0**-50, strict=True).tolist() \
            == [3.75]
        # the six tuples of level 3.0 (0.5 + 1.25 + 1.25, 0.5 + 0.5 + 2.0) drop
        assert ladder_levels_below(ladder, 1.0, 3.0).tolist() == [1.5] + [2.25] * 3
        assert ladder_levels_below(ladder, 1.0, 1.5).size == 0

    def test_dominates_box_bound_with_classical_constant(self):
        for n in (1, 2, 8, 37, 200, 1500, 10000):
            for side in (0.5, 1.0, 4.0):
                sum_d = dirichlet_cube_kinetic_sum(n, side, 1.0)
                bound = box_kinetic_lower_bound(n, side**3, 1.0)
                assert sum_d >= bound * (1.0 - 1e-12)
