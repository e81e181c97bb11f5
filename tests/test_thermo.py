import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from coulomblab import thermo
from coulomblab.grafschenker import regular_tetrahedron
from coulomblab.thermo import (
    AxiomCheckResult,
    BoxDomain,
    DifferenceDomain,
    Domain,
    EmptyDomain,
    EnergyMap,
    IntersectionDomain,
    SimplexDomain,
    axiom_check,
    corner_simplex_exact_energy,
    corner_tetrahedron,
    free_fermion_box_energy,
    free_fermion_energy_density,
    free_fermion_energy_map,
    rasterized_dirichlet_energy,
    thermodynamic_extrapolation,
    volume_energy_map,
)

SEED = 137


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


# The cyclic axis permutation.  The permuted corner's raster is the chamber
# {j1 <= j2 <= j3} with its axes permuted, which no lattice shortcut reads,
# so it takes the eigensolver; its spectrum is still the strict-triple ladder.
CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def permuted_corner(ell):
    return SimplexDomain(corner_tetrahedron(), ell, rotation=CYCLE)


class TestDomains:
    def test_box_volume_and_containment(self):
        box = BoxDomain(2.0, center=(1.0, 0.0, 0.0))
        assert box.volume() == 8.0
        pts = np.array([[1.0, 0.0, 0.0], [2.5, 0.0, 0.0]])
        assert list(box.contains(pts)) == [True, False]

    def test_lattice_volume_close_to_exact(self):
        simp = SimplexDomain(regular_tetrahedron(), ell=4.0)
        exact = simp.volume()
        lattice = Domain.volume(simp, h=0.05)
        assert lattice == pytest.approx(exact, rel=0.02)

    def test_composites(self):
        outer = BoxDomain(4.0)
        inner = BoxDomain(2.0)
        shell = DifferenceDomain(outer, inner)
        pts = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [2.5, 0.0, 0.0]])
        assert list(shell.contains(pts)) == [False, True, False]
        cap = IntersectionDomain(outer, BoxDomain(4.0, center=(3.0, 0, 0)))
        assert cap.contains(np.array([[1.5, 0.0, 0.0]]))[0]
        assert not cap.contains(np.array([[0.0, 0.0, 0.0]]))[0]


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
    # side 7, h = 0.5: 14^3 = 2,744 sites, more than 100 modes below 3.75
    MANY = (7.0, -3.75, 1.0, 0.5)
    # scale 12, h = 0.6: C(22, 3) = 1,540 sites, more than 100 modes below 5
    MANY_CORNER = (12.0, -5.0, 1.0, 0.6)

    def test_all_modes_filled(self):
        # 2 x 2 x 2 sites, all eight modes below -mu
        w = lattice_box_spectrum(1.0, 0.5, 1.0)
        assert w.size == 8 and w.max() < 1000.0
        got = rasterized_dirichlet_energy(BoxDomain(1.0), -1000.0, 1.0, 0.5)
        assert got == pytest.approx(float(np.sum(w - 1000.0)), rel=1e-14)

    def test_all_modes_filled_permuted_corner(self):
        # C(4, 3) = 4 sites, all four modes below -mu: the dense fallback
        w = lattice_corner_spectrum(1.0, 0.5, 1.0)
        assert w.size == 4 and w.max() < 1000.0
        got = rasterized_dirichlet_energy(permuted_corner(1.0), -1000.0, 1.0, 0.5)
        assert got == pytest.approx(float(np.sum(w - 1000.0)), rel=1e-14)

    def test_threshold_on_an_eigenvalue(self):
        # -mu = 10 is a triply degenerate eigenvalue of the 2 x 2 x 2 raster,
        # so H + mu I is singular; only the mode at 6 is filled
        w = lattice_box_spectrum(1.0, 0.5, 1.0)
        assert np.count_nonzero(np.isclose(w, 10.0, rtol=1e-14)) == 3
        got = rasterized_dirichlet_energy(BoxDomain(1.0), -10.0, 1.0, 0.5)
        assert got == pytest.approx(-4.0, rel=1e-12)

    def test_threshold_on_an_eigenvalue_of_a_slab(self, monkeypatch):
        # a 1 x 2 x 2 slab at step 1/2 has the levels 4 + {2, 6} + {2, 6}:
        # 8, 12, 12 and 16.  At -mu = 12 the factorization of H + mu I is
        # exactly singular, the inertia count falls back to 0, and the
        # eigensolve still fills only the mode at 8
        counts = []
        count_modes = thermo._modes_below

        def spy_count(ham, threshold):
            counts.append(count_modes(ham, threshold))
            return counts[-1]

        monkeypatch.setattr(thermo, "_modes_below", spy_count)
        slab = IntersectionDomain(BoxDomain(1.0), BoxDomain(1.0, center=(0.5, 0.0, 0.0)))
        got = rasterized_dirichlet_energy(slab, -12.0, 1.0, 0.5)
        assert counts == [0]
        assert got == pytest.approx(-4.0, rel=1e-12)

    def test_box_raster_skips_the_eigensolver(self, monkeypatch):
        side, mu, m, h = self.MANY
        calls = []
        monkeypatch.setattr(thermo, "_modes_below", lambda *a: calls.append("count"))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **k: calls.append("eigsh"))
        got = rasterized_dirichlet_energy(BoxDomain(side), mu, m, h)
        w = lattice_box_spectrum(side, h, m)
        filled = w[w < -mu]
        assert filled.size > 100
        assert calls == []
        assert got == pytest.approx(float(np.sum(filled + mu)), rel=1e-12)

    def test_inertia_count_sizes_a_single_eigsh_call(self, monkeypatch):
        ell, mu, m, h = self.MANY_CORNER
        counts, ks = [], []
        count_modes, eigsh = thermo._modes_below, scipy.sparse.linalg.eigsh

        def spy_count(ham, threshold):
            counts.append(count_modes(ham, threshold))
            return counts[-1]

        def spy_eigsh(*args, **kwargs):
            ks.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(thermo, "_modes_below", spy_count)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
        got = rasterized_dirichlet_energy(permuted_corner(ell), mu, m, h)
        w = lattice_corner_spectrum(ell, h, m)
        filled = w[w < -mu]
        assert filled.size > 100
        assert counts == [filled.size]
        assert ks == [filled.size + 4]
        assert got == pytest.approx(float(np.sum(filled + mu)), rel=1e-12)

    @pytest.mark.parametrize("shrink", [lambda c: 0, lambda c: c // 2],
                             ids=["zero", "half"])
    def test_undercount_recovered_by_retry(self, monkeypatch, shrink):
        ell, mu, m, h = self.MANY_CORNER
        honest = rasterized_dirichlet_energy(permuted_corner(ell), mu, m, h)
        count_modes, eigsh = thermo._modes_below, scipy.sparse.linalg.eigsh
        ks = []

        def spy_eigsh(*args, **kwargs):
            ks.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(thermo, "_modes_below",
                            lambda ham, threshold: shrink(count_modes(ham, threshold)))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
        got = rasterized_dirichlet_energy(permuted_corner(ell), mu, m, h)
        w = lattice_corner_spectrum(ell, h, m)
        assert len(ks) > 1
        assert got == pytest.approx(float(np.sum(w[w < -mu] + mu)), rel=1e-12)
        assert got == pytest.approx(honest, rel=1e-12)

    def test_repeated_calls_are_bit_identical(self):
        dom = SimplexDomain(corner_tetrahedron(), ell=10.0)
        first = rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5)
        assert rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5) == first

    def test_repeated_calls_are_bit_identical_permuted_corner(self):
        dom = permuted_corner(10.0)
        first = rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5)
        assert rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5) == first


class EigensolverReached(Exception):
    pass


class TestRasterRoute:
    """Which masks sum their lattice ladder and which reach ``eigsh``."""

    @pytest.fixture
    def no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise EigensolverReached

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        monkeypatch.setattr(thermo, "_modes_below", refuse)

    @pytest.mark.parametrize("h", [0.6, 0.45, 0.36])
    def test_criterion_8_corners_take_the_lattice(self, no_eigensolver, h):
        for ell in (12.5, 15.0, 18.0, 20.0):
            got = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), ell),
                                              -2.0, 1.0, h)
            w = lattice_corner_spectrum(ell, h, 1.0)
            assert got == pytest.approx(float(np.sum(w[w < 2.0] - 2.0)), rel=1e-12)

    @pytest.mark.parametrize("shape, length, h, mu", [
        ("box", 6.0, 0.5, -1.0), ("box", 7.0, 0.5, -3.75),
        ("simplex", 10.0, 0.5, -2.0), ("simplex", 12.0, 0.6, -5.0),
    ])
    def test_raster_workload_cases_take_the_lattice(self, no_eigensolver,
                                                    shape, length, h, mu):
        # the `raster` benchmark workload's four cases, at their base mu
        if shape == "box":
            dom, w = BoxDomain(length), lattice_box_spectrum(length, h, 1.0)
        else:
            dom = SimplexDomain(corner_tetrahedron(), length)
            w = lattice_corner_spectrum(length, h, 1.0)
        got = rasterized_dirichlet_energy(dom, mu, 1.0, h)
        assert got == pytest.approx(float(np.sum(w[w < -mu] + mu)), rel=1e-12)

    def test_other_masks_reach_the_eigensolver(self, no_eigensolver):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                        [math.sin(theta), math.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        domains = {
            "rotated simplex": SimplexDomain(corner_tetrahedron(), 6.0, rotation=rot),
            "permuted corner": permuted_corner(6.0),
            "intersection": IntersectionDomain(
                BoxDomain(6.0), SimplexDomain(regular_tetrahedron(), 6.0)),
            "difference": DifferenceDomain(BoxDomain(6.0), BoxDomain(2.0)),
        }
        for name, dom in domains.items():
            with pytest.raises(EigensolverReached):
                rasterized_dirichlet_energy(dom, -2.0, 1.0, 0.5)

    @pytest.mark.parametrize("side, h, mu", [(6.0, 0.5, -1.0), (7.0, 0.5, -3.75)])
    def test_lattice_matches_the_eigensolve_of_the_full_grid(self, monkeypatch,
                                                            side, h, mu):
        lattice = rasterized_dirichlet_energy(BoxDomain(side), mu, 1.0, h)
        monkeypatch.setattr(thermo, "_solvable_ladder", lambda mask, steps: None)
        eigen = rasterized_dirichlet_energy(BoxDomain(side), mu, 1.0, h)
        assert lattice == pytest.approx(eigen, rel=1e-12)

    @pytest.mark.parametrize("ell, h, mu", [(7.0, 0.5, -3.0), (10.0, 0.5, -2.0),
                                            (12.0, 0.6, -5.0), (12.5, 0.5, -2.0)])
    def test_lattice_matches_the_permuted_corner_eigensolve(self, ell, h, mu):
        # 560 to 2,925 sites; the two masks have one spectrum
        lattice = rasterized_dirichlet_energy(SimplexDomain(corner_tetrahedron(), ell),
                                              mu, 1.0, h)
        eigen = rasterized_dirichlet_energy(permuted_corner(ell), mu, 1.0, h)
        assert lattice == pytest.approx(eigen, rel=1e-12)


class TestExtrapolation:
    def test_volume_map_exact(self):
        em = volume_energy_map()
        rep = thermodynamic_extrapolation(
            em, lambda L: BoxDomain(L), np.array([4.0, 6.0, 8.0])
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
        em = volume_energy_map()
        with pytest.raises(ValueError):
            thermodynamic_extrapolation(em, lambda L: BoxDomain(L), np.array([2.0, 4.0]))

    def test_rotation_invariance_of_raster_estimator(self):
        # same estimator on a rotated vs unrotated scaled simplex
        mu, m = -2.0, 1.0
        simp = corner_tetrahedron()
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        L = 12.0
        gaps = []
        for h in (0.55, 0.4, 0.3):
            plain = rasterized_dirichlet_energy(SimplexDomain(simp, ell=L), mu, m, h=h)
            rotated = rasterized_dirichlet_energy(
                SimplexDomain(simp, ell=L, rotation=rot, translation=(0.3, -0.2, 0.1)),
                mu,
                m,
                h=h,
            )
            gaps.append(abs(rotated - plain) / abs(plain))
        # the orientation sensitivity is pure staircase bias: it shrinks with h
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.12


class TestAxioms:
    def domains(self):
        return [
            BoxDomain(4.0),
            BoxDomain(6.0, center=(1.0, -2.0, 0.5)),
            SimplexDomain(regular_tetrahedron(), ell=5.0),
        ]

    def test_zero_map_passes_all(self):
        em = EnergyMap("zero", lambda d: 0.0)
        res = axiom_check(
            em, self.domains(), kappa=0.0, alpha=lambda x: 0.0,
            mc_samples=16, seed=SEED,
        )
        assert res.all_pass, res.worst_margins

    def test_volume_map_passes(self):
        em = volume_energy_map(raster_h=0.15)
        res = axiom_check(
            em, self.domains(), kappa=1.0, alpha=lambda x: 0.05,
            mc_samples=32, seed=SEED, ell=5.0,
        )
        assert res.all_pass, res.worst_margins

    def test_free_fermion_map_axioms(self):
        mu, m = -1.0, 1.0
        em = free_fermion_energy_map(mu, m, raster_h=0.5)
        kappa = abs(free_fermion_energy_density(mu, m)) * 3.0 + 0.1
        # alpha(l) = c/l with c calibrated for this model at desk scale
        res = axiom_check(
            em,
            [BoxDomain(7.0), BoxDomain(9.0)],
            kappa=kappa,
            alpha=lambda x: 2.0 / x,
            mc_samples=24,
            seed=SEED,
            ell=6.0,
            a5_subset=1,
        )
        assert res.passed["A1"] and res.passed["A2"] and res.passed["A3"]
        assert res.passed["A4"], res.worst_margins
        assert res.passed["A5"], res.worst_margins

    def test_a2_detects_violation(self):
        em = EnergyMap("bad", lambda d: -10.0 * d.volume() if not d.is_empty else 0.0)
        res = axiom_check(
            em, [BoxDomain(3.0)], kappa=1.0, alpha=lambda x: 0.0,
            mc_samples=8, seed=SEED,
        )
        assert not res.passed["A2"]

    def test_a1_detects_violation(self):
        em = EnergyMap("offset", lambda d: 1.0)
        res = axiom_check(
            em, [BoxDomain(3.0)], kappa=10.0, alpha=lambda x: 1.0,
            mc_samples=8, seed=SEED,
        )
        assert not res.passed["A1"]
