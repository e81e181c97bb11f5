import itertools
import math

import numpy as np
import pytest

from coulomblab.grafschenker import Simplex, regular_tetrahedron
from coulomblab.thermo import (
    BoxDomain,
    SimplexDomain,
    corner_simplex_exact_energy,
    corner_tetrahedron,
    free_fermion_box_energy,
    free_fermion_energy_density,
    free_fermion_energy_map,
    rasterized_dirichlet_energy,
    thermodynamic_extrapolation,
)
from raster_oracle import bounding_box, chamber, contains, mask_ladder_energy, midpoint_raster


def brute_force_box_energy(side, mu, m, cap=40):
    total = 0.0
    for k1 in range(1, cap):
        for k2 in range(1, cap):
            for k3 in range(1, cap):
                e = math.pi**2 * (k1**2 + k2**2 + k3**2) / (2 * m * side**2)
                if e + mu < 0:
                    total += e + mu
    return total


def lattice_box_spectrum(side, h, m):
    """7-point Dirichlet spectrum of the box raster, from the 1-D spectrum."""
    n = max(math.ceil(side / h), 1)
    step = side / n
    one_d = (2.0 / step**2) * (1.0 - np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    modes = one_d[:, None, None] + one_d[None, :, None] + one_d[None, None, :]
    return np.sort(modes.ravel()) / (2.0 * m)


def lattice_corner_spectrum(ell, h, m):
    """7-point Dirichlet spectrum of the corner tetrahedron's raster.

    The raster {j1 <= j2 <= j3} of an n^3 lattice, shifted to
    k_i = j_i + i - 1, is {0 <= k1 < k2 < k3 <= n + 1}: its 7-point Laplacian
    is the antisymmetric sector of the (n + 2)^3 cube lattice, with levels
    la_a + la_b + la_c over strictly increasing a < b < c.
    """
    n = max(math.ceil(ell / h), 1)
    s = ell / n
    ladder = [(1.0 - math.cos(math.pi * a / (n + 3))) / (m * s * s)
              for a in range(1, n + 3)]
    return np.sort([sum(t) for t in itertools.combinations(ladder, 3)])


def dense_raster_spectrum(domain, h, m):
    """Every level of the domain's raster, by a dense eigensolve.

    The 7-point Dirichlet Laplacian is assembled in numpy on the inside
    sites of the raster: 6 / s^2 on the diagonal and -1 / s^2 between
    neighbours that are both inside, a neighbour outside being a zero
    boundary value.  It needs equal steps s on the three axes.
    """
    mask, steps = midpoint_raster(domain, h)
    assert steps[0] == steps[1] == steps[2]
    sites = np.argwhere(mask)
    index = np.full(mask.shape, -1)
    index[tuple(sites.T)] = np.arange(len(sites))
    lap = 6.0 * np.eye(len(sites))
    for axis in range(3):
        shifted = sites.copy()
        shifted[:, axis] += 1
        inside = shifted[:, axis] < mask.shape[axis]
        here = np.flatnonzero(inside)
        there = index[tuple(shifted[inside].T)]
        here, there = here[there >= 0], there[there >= 0]
        lap[here, there] = lap[there, here] = -1.0
    return np.linalg.eigvalsh(lap / (2.0 * m * steps[0] ** 2))


def permuted_corner(ell):
    """The corner tetrahedron with its axes cyclically permuted.

    Its raster is the chamber {j1 <= j2 <= j3} with its axes permuted, which
    the lattice ladder does not read, although its spectrum is the chamber's.
    """
    return SimplexDomain(Simplex(corner_tetrahedron().vertices[:, [2, 0, 1]]), ell)


class TestDomains:
    def test_box_volume_and_containment(self):
        # the box is centred at the origin: faces at +-1, edges included
        box = BoxDomain(2.0)
        assert box.volume() == 8.0
        pts = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.5, 0.0]])
        assert list(contains(box, pts)) == [True, True, False]
        lo, hi = bounding_box(box)
        assert lo.tolist() == [-1.0] * 3 and hi.tolist() == [1.0] * 3

    def test_lattice_volume_close_to_exact(self):
        # the midpoint raster's inside cells fill the simplex to O(h)
        simp = SimplexDomain(regular_tetrahedron(), ell=4.0)
        mask, steps = midpoint_raster(simp, 0.05)
        lattice = float(np.prod(steps)) * np.count_nonzero(mask)
        assert lattice == pytest.approx(simp.volume(), rel=0.02)

    @pytest.mark.parametrize("make", [
        lambda: BoxDomain(math.inf),
        lambda: BoxDomain(math.nan),
        lambda: BoxDomain(0.0),
        lambda: SimplexDomain(corner_tetrahedron(), math.inf),
        lambda: SimplexDomain(corner_tetrahedron(), math.nan),
        lambda: SimplexDomain(corner_tetrahedron(), -1.0),
        lambda: free_fermion_energy_density(-1.0, -1.0),
        lambda: free_fermion_energy_density(-1.0, 0.0),
        lambda: free_fermion_energy_density(-1.0, math.nan),
    ], ids=["box_inf", "box_nan", "box_zero", "simplex_inf", "simplex_nan",
            "simplex_negative", "density_negative_mass", "density_zero_mass",
            "density_nan_mass"])
    def test_scale_and_mass_must_be_positive_and_finite(self, make):
        # an infinite or NaN scale once failed later in the raster with an
        # OverflowError, and a mass m <= 0 gave a complex or -0.0 density
        with pytest.raises(ValueError, match="must be positive and finite"):
            make()

class TestFreeFermionBox:
    def test_empty_filling(self):
        # ground mode above -mu: no contribution
        assert free_fermion_box_energy(1.0, -1.0, 1.0) == 0.0

    def test_matches_brute_force(self):
        got = free_fermion_box_energy(10.0, -1.0, 1.0)
        assert got == pytest.approx(brute_force_box_energy(10.0, -1.0, 1.0), rel=1e-12)
        assert got < 0.0

    def test_monotone_in_side(self):
        vals = [free_fermion_box_energy(s, -1.0, 1.0) for s in np.linspace(3, 20, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_positive_mu_rejected(self):
        with pytest.raises(ValueError):
            free_fermion_box_energy(5.0, 0.0, 1.0)

    def test_density_is_cauchy_in_side(self):
        sides = np.array([12.0, 18.0, 27.0, 40.0])
        dens = np.array(
            [free_fermion_box_energy(s, -1.0, 1.0) / s**3 for s in sides]
        )
        diffs = np.abs(np.diff(dens))
        assert diffs[-1] < diffs[0]


class TestClosedFormDensity:
    def test_against_literature_form(self):
        for mu in (-0.5, -1.0, -2.0):
            expected = -(2.0**2.5 / (30.0 * math.pi**2)) * abs(mu) ** 2.5
            assert free_fermion_energy_density(mu, 1.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_mass_scaling(self):
        assert free_fermion_energy_density(-1.0, 4.0) == pytest.approx(
            8.0 * free_fermion_energy_density(-1.0, 1.0), rel=1e-12
        )


class TestCornerSimplex:
    def test_exact_energy_small_case(self):
        # enumerate distinct triples directly at a small scale
        L, mu = 6.0, -1.0
        total = 0.0
        for k1 in range(1, 10):
            for k2 in range(k1 + 1, 10):
                for k3 in range(k2 + 1, 10):
                    e = math.pi**2 * (k1**2 + k2**2 + k3**2) / (2 * L**2)
                    if e + mu < 0:
                        total += e + mu
        assert corner_simplex_exact_energy(L, mu, 1.0) == pytest.approx(
            total, rel=1e-12
        )

    @pytest.mark.parametrize("ell, h, mu", [(6.0, 0.5, -3.0), (8.0, 0.5, -2.0),
                                            (5.0, 0.35, -6.0)])
    def test_raster_is_the_antisymmetric_lattice(self, ell, h, mu):
        m = 1.5
        levels = lattice_corner_spectrum(ell, h, m)
        want = float(np.sum(levels[levels < -mu] + mu))
        got = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), ell),
                                          mu, m, h)
        assert got == pytest.approx(want, rel=1e-12)

    def test_raster_converges_to_exact(self):
        L, mu = 12.0, -2.0
        dom = SimplexDomain(corner_tetrahedron(), ell=L)
        exact = corner_simplex_exact_energy(L, mu, 1.0)
        errs = []
        for h in (0.6, 0.4):
            est = rasterized_dirichlet_energy(dom, mu, 1.0, h=h)
            errs.append(abs(est - exact))
        assert errs[1] < errs[0]


class TestRasterEigensolve:
    """The raster spectra that the lattice ladder solves in closed form."""

    def test_all_modes_filled(self):
        # 2 x 2 x 2 sites, all eight modes below -mu
        w = lattice_box_spectrum(1.0, 0.5, 1.0)
        assert w.size == 8 and w.max() < 1000.0
        got = rasterized_dirichlet_energy(BoxDomain(1.0), -1000.0, 1.0, 0.5)
        assert got == pytest.approx(float(np.sum(w - 1000.0)), rel=1e-14)

    def test_all_modes_filled_corner(self):
        # C(4, 3) = 4 sites, all four modes below -mu
        w = lattice_corner_spectrum(1.0, 0.5, 1.0)
        assert w.size == 4 and w.max() < 1000.0
        got = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), 1.0),
                                          -1000.0, 1.0, 0.5)
        assert got == pytest.approx(float(np.sum(w - 1000.0)), rel=1e-14)

    def test_threshold_on_an_eigenvalue(self):
        # -mu = 10 is a triply degenerate eigenvalue of the 2 x 2 x 2 raster,
        # so H + mu I is singular; only the mode at 6 is filled
        w = lattice_box_spectrum(1.0, 0.5, 1.0)
        assert np.count_nonzero(np.isclose(w, 10.0, rtol=1e-14)) == 3
        got = rasterized_dirichlet_energy(BoxDomain(1.0), -10.0, 1.0, 0.5)
        assert got == pytest.approx(-4.0, rel=1e-12)

    def test_repeated_calls_are_bit_identical(self):
        dom = SimplexDomain(corner_tetrahedron(), ell=10.0)
        first = rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5)
        assert rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5) == first


# (shape, length, h, mu): the `raster` benchmark workload's four cases,
# criterion 8's twelve corner rasters, and the dense eigensolves below
ORACLE_CASES = list(dict.fromkeys(
    [("box", 6.0, 0.5, -1.0), ("box", 7.0, 0.5, -3.75),
     ("simplex", 10.0, 0.5, -2.0), ("simplex", 12.0, 0.6, -5.0)]
    + [("simplex", ell, h, -2.0) for h in (0.6, 0.45, 0.36)
       for ell in (12.5, 15.0, 18.0, 20.0)]
    + [("simplex", 5.0, 0.5, -8.0), ("simplex", 6.0, 0.5, -5.0),
       ("simplex", 7.0, 0.5, -3.0), ("simplex", 5.0, 0.35, -12.0),
       ("simplex", 12.5, 0.5, -2.0)]
))


class TestRasterRoute:
    """Which domains sum their lattice ladder, and which have no estimator."""

    @pytest.mark.parametrize("shape, length, h, mu", ORACLE_CASES)
    def test_domain_fixes_the_raster_mask(self, shape, length, h, mu):
        # the library reads the mask from the domain's type and scale; the
        # midpoint raster, site by site, must be that mask, and the ladder
        # read from it must give the same float
        n = max(math.ceil(length / h), 1)
        if shape == "box":
            domains = [BoxDomain(length)]
        else:
            corner = corner_tetrahedron().vertices
            domains = [SimplexDomain(Simplex(corner[list(order)]), length)
                       for order in itertools.permutations(range(4))]
        for dom in domains:
            mask, steps = midpoint_raster(dom, h)
            assert steps.tolist() == [length / n] * 3
            assert np.array_equal(mask, np.ones((n, n, n), bool) if shape == "box"
                                  else chamber(n))
            assert rasterized_dirichlet_energy(dom, mu, 1.0, h) \
                == mask_ladder_energy(mask, steps, mu, 1.0)

    @pytest.mark.parametrize("h", [0.6, 0.45, 0.36])
    def test_criterion_8_corners_take_the_lattice(self, h):
        for ell in (12.5, 15.0, 18.0, 20.0):
            got = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), ell),
                                              -2.0, 1.0, h)
            w = lattice_corner_spectrum(ell, h, 1.0)
            assert got == pytest.approx(float(np.sum(w[w < 2.0] - 2.0)), rel=1e-12)

    @pytest.mark.parametrize("shape, length, h, mu", [
        ("box", 6.0, 0.5, -1.0), ("box", 7.0, 0.5, -3.75),
        ("simplex", 10.0, 0.5, -2.0), ("simplex", 12.0, 0.6, -5.0),
    ])
    def test_raster_workload_cases_take_the_lattice(self, shape, length, h, mu):
        # the `raster` benchmark workload's four cases, at their base mu
        if shape == "box":
            dom, w = BoxDomain(length), lattice_box_spectrum(length, h, 1.0)
        else:
            dom = SimplexDomain(corner_tetrahedron(), length)
            w = lattice_corner_spectrum(length, h, 1.0)
        got = rasterized_dirichlet_energy(dom, mu, 1.0, h)
        assert got == pytest.approx(float(np.sum(w[w < -mu] + mu)), rel=1e-12)

    @pytest.mark.parametrize("domain", [
        SimplexDomain(regular_tetrahedron(), 6.0), permuted_corner(6.0),
    ], ids=["regular_tetrahedron", "permuted_corner"])
    def test_other_masks_raise(self, domain):
        with pytest.raises(ValueError, match="lattice spectrum is not known"):
            rasterized_dirichlet_energy(domain, -2.0, 1.0, 0.5)

    @pytest.mark.parametrize("energy, args", [
        (rasterized_dirichlet_energy, (BoxDomain(6.0), -1.0, 1.0, 0.0)),
        (rasterized_dirichlet_energy, (BoxDomain(6.0), -1.0, 1.0, -0.5)),
        (rasterized_dirichlet_energy, (BoxDomain(6.0), -1.0, 1.0, math.nan)),
        (rasterized_dirichlet_energy, (SimplexDomain(corner_tetrahedron(), 6.0),
                                       -1.0, 1.0, 0.0)),
        (rasterized_dirichlet_energy, (SimplexDomain(corner_tetrahedron(), 6.0),
                                       -1.0, 1.0, -0.5)),
        (rasterized_dirichlet_energy, (SimplexDomain(corner_tetrahedron(), 6.0),
                                       -1.0, 1.0, math.nan)),
        (rasterized_dirichlet_energy, (BoxDomain(6.0), -1.0, 0.0, 0.5)),
        (rasterized_dirichlet_energy, (BoxDomain(6.0), -1.0, -1.0, 0.5)),
        (corner_simplex_exact_energy, (0.0, -1.0, 1.0)),
        (corner_simplex_exact_energy, (-5.0, -1.0, 1.0)),
        (corner_simplex_exact_energy, (6.0, -1.0, 0.0)),
        (corner_simplex_exact_energy, (6.0, -1.0, -1.0)),
    ])
    def test_impossible_inputs_raise(self, energy, args):
        # a step, mass or scale that is not positive and finite has no raster
        # or spectrum
        with pytest.raises(ValueError, match="must be positive and finite"):
            energy(*args)

    @pytest.mark.parametrize("side, h, mu", [(6.0, 0.5, -1.0), (7.0, 0.5, -3.75)])
    def test_lattice_matches_the_eigensolve_of_the_full_grid(self, side, h, mu):
        # 12^3 and 14^3 sites, filled by a dense eigensolve of the grid
        w = dense_raster_spectrum(BoxDomain(side), h, 1.0)
        filled = w[w < -mu]
        assert filled.size > 0
        got = rasterized_dirichlet_energy(BoxDomain(side), mu, 1.0, h)
        assert got == pytest.approx(float(np.sum(filled + mu)), rel=1e-12)

    @pytest.mark.parametrize("ell, h, mu", [(5.0, 0.5, -8.0), (6.0, 0.5, -5.0),
                                            (7.0, 0.5, -3.0), (5.0, 0.35, -12.0)])
    def test_lattice_matches_the_dense_eigensolve_of_the_corner_chamber(self, ell, h, mu):
        # 220 to 680 sites, 11 to 49 filled modes
        dom = SimplexDomain(corner_tetrahedron(), ell)
        w = dense_raster_spectrum(dom, h, 1.0)
        filled = w[w < -mu]
        assert filled.size > 0
        got = rasterized_dirichlet_energy(dom, mu, 1.0, h)
        assert got == pytest.approx(float(np.sum(filled + mu)), rel=1e-12)

    @pytest.mark.parametrize("ell, h, mu", [(7.0, 0.5, -3.0), (10.0, 0.5, -2.0),
                                            (12.0, 0.6, -5.0), (12.5, 0.5, -2.0)])
    def test_lattice_matches_the_permuted_corner_eigensolve(self, ell, h, mu):
        # 560 to 2,925 sites; the two masks have one spectrum
        lattice = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), ell),
                                              mu, 1.0, h)
        w = dense_raster_spectrum(permuted_corner(ell), h, 1.0)
        eigen = float(np.sum(w[w < -mu] + mu))
        assert lattice == pytest.approx(eigen, rel=1e-12)


class TestExtrapolation:
    def test_volume_map_exact(self):
        rep = thermodynamic_extrapolation(
            lambda d: -d.volume(), lambda L: BoxDomain(L), np.array([4.0, 6.0, 8.0])
        )
        assert rep.e_infinity == pytest.approx(-1.0, abs=1e-9)

    def test_free_fermion_box_extrapolation(self):
        mu, m = -1.0, 1.0
        em = free_fermion_energy_map(mu, m)
        rep = thermodynamic_extrapolation(
            em, lambda L: BoxDomain(L), np.array([12.0, 16.0, 20.0, 26.0, 32.0])
        )
        closed = free_fermion_energy_density(mu, m)
        assert rep.e_infinity == pytest.approx(closed, rel=0.01)

    def test_shape_independence_exact_spectra(self):
        # box and corner-simplex families must share the bulk limit; both
        # sides use exact spectra so the comparison is sharp
        mu, m = -2.0, 1.0
        em_box = free_fermion_energy_map(mu, m)
        rep_box = thermodynamic_extrapolation(
            em_box, lambda L: BoxDomain(L), np.array([10.0, 13.0, 16.0, 20.0, 25.0])
        )

        dens_cache = {}

        def simplex_density(L):
            vol = L**3 / 6.0
            return corner_simplex_exact_energy(L, mu, m) / vol

        ells = np.array([14.0, 18.0, 22.0, 27.0, 33.0])
        dens = np.array([simplex_density(L) for L in ells])
        design = np.stack([np.ones_like(ells), 1 / ells, 1 / ells**2], axis=1)
        coef, *_ = np.linalg.lstsq(design, dens, rcond=None)
        assert coef[0] == pytest.approx(rep_box.e_infinity, rel=0.03)
        assert coef[0] == pytest.approx(free_fermion_energy_density(mu, m), rel=0.03)

    def test_requires_three_scales(self):
        with pytest.raises(ValueError):
            thermodynamic_extrapolation(lambda d: -d.volume(), lambda L: BoxDomain(L),
                                        np.array([2.0, 4.0]))
