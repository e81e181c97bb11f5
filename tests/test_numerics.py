import math

import numpy as np
import pytest

from coulomblab.errors import ConvexityError, SlopeRangeError
from coulomblab.numerics import (
    KineticProfile,
    RadialGridFunction,
    gauss_panels,
    legendre_transform,
)

from fourier_oracle import geometric_radial_grid, radial_fourier_transform


def momentum_grid(n=2001, span=3.0):
    return np.linspace(-span, span, n)


class TestLegendreTransform:
    def test_quadratic_kinetic(self):
        # T(p) = p^2/2 has dual v^2/2; the parabola refinement is exact
        p = momentum_grid()
        t = KineticProfile("nonrelativistic", 1.0)(p)
        assert legendre_transform(p, t, 0.6) == pytest.approx(0.18, abs=1e-12)

    def test_relativistic_kinetic(self):
        p = momentum_grid()
        t = KineticProfile("relativistic", 1.0)(p)
        expected = 1.0 - math.sqrt(1.0 - 0.36)
        assert legendre_transform(p, t, 0.6) == pytest.approx(expected, abs=1e-8)

    def test_mass_scaling(self):
        p = momentum_grid()
        t = KineticProfile("nonrelativistic", 2.5)(p)
        assert legendre_transform(p, t, 0.4) == pytest.approx(0.5 * 2.5 * 0.16, abs=1e-12)

    def test_double_transform_recovers_function(self):
        p = np.linspace(-3.0, 3.0, 1501)
        t = KineticProfile("relativistic", 1.0)(p)
        slopes = np.diff(t) / np.diff(p)
        v_grid = np.linspace(slopes[0], slopes[-1], 1201)
        t_star = np.array([legendre_transform(p, t, v) for v in v_grid])
        inner = np.linspace(-2.0, 2.0, 41)
        t_recovered = np.array(
            [legendre_transform(v_grid, t_star, q) for q in inner]
        )
        expected = KineticProfile("relativistic", 1.0)(inner)
        assert np.abs(t_recovered - expected).max() < 1e-6

    def test_output_convex_in_v(self):
        p = momentum_grid()
        t = KineticProfile("relativistic", 1.0)(p)
        vs = np.linspace(-0.8, 0.8, 81)
        vals = np.array([legendre_transform(p, t, v) for v in vs])
        second = np.diff(vals, 2)
        assert second.min() > -1e-10

    def test_nonconvex_rejected(self):
        p = np.linspace(0.0, 2.0, 101)
        with pytest.raises(ConvexityError):
            legendre_transform(p, np.sin(4 * p), 0.1)

    def test_slope_out_of_range(self):
        p = momentum_grid()
        t = KineticProfile("relativistic", 1.0)(p)
        # relativistic slopes saturate below 1
        with pytest.raises(SlopeRangeError):
            legendre_transform(p, t, 1.5)


class TestGaussPanels:
    def test_degree_63_polynomial_on_uneven_panels(self):
        rng = np.random.default_rng(5)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 64))
        edges = [-1.0, -0.93, -0.2, 0.05, 0.06, 0.7, 1.0]
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        assert gauss_panels(poly, edges) == pytest.approx(exact, rel=1e-13)
        # leading batch axes of the integrand stay on the result
        batch = gauss_panels(lambda x: np.stack([poly(x), -3.0 * poly(x)]), edges)
        assert batch == pytest.approx([exact, -3.0 * exact], rel=1e-13)


class TestRadialFourierTransform:
    def test_cubic_bump_closed_form(self):
        # the not-a-knot spline reproduces a cubic exactly, so the transform
        # of (1 - r/R)^3 on [0, R] is exact up to the rule; the grid starts
        # above 0, so the first piece's extension to 0 is a panel too
        big_r = 2.0
        r = geometric_radial_grid(1e-2, big_r, 60)
        f = RadialGridFunction(r, (1.0 - r / big_r) ** 3)
        for k in (1.0, 2.0, 3.7, 6.0, 9.0, 12.0):
            x = k * big_r
            expected = (24.0 * math.pi * (x * x + x * math.sin(x) + 4.0 * math.cos(x) - 4.0)
                        / (big_r**3 * k**6))
            assert radial_fourier_transform(f, k) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_closed_form(self):
        r = np.concatenate([[0.0], geometric_radial_grid(1e-4, 12.0, 1800)])
        f = RadialGridFunction(r, np.exp(-(r**2) / 2.0))
        for k in (0.4, 1.0, 2.3):
            expected = (2.0 * math.pi) ** 1.5 * math.exp(-(k**2) / 2.0)
            assert radial_fourier_transform(f, k) == pytest.approx(
                expected, rel=1e-6
            )

    def test_yukawa_approaches_coulomb(self):
        k = 1.3
        errors = []
        for eps in (1e-2, 1e-3):
            r = geometric_radial_grid(1e-6, 50.0, 2500)
            f = RadialGridFunction(r, np.exp(-eps * r) / r)
            got = radial_fourier_transform(f, k, coulomb_tail=True)
            assert got == pytest.approx(4.0 * math.pi / (k**2 + eps**2), rel=5e-3)
            errors.append(abs(got - 4.0 * math.pi / k**2))
        assert errors[1] < errors[0]

    def test_zero_function(self):
        r = np.linspace(0.0, 5.0, 50)
        f = RadialGridFunction(r, np.zeros_like(r))
        for k in (0.5, 2.0, 7.0):
            assert radial_fourier_transform(f, k) == pytest.approx(0.0, abs=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        r = np.concatenate([[0.0], geometric_radial_grid(1e-3, 10.0, 900)])
        va = np.exp(-(r**2) / 2.0)
        vb = np.exp(-r) * r
        a, b = rng.uniform(-2, 2, size=2)
        fa = RadialGridFunction(r, va)
        fb = RadialGridFunction(r, vb)
        fab = RadialGridFunction(r, a * va + b * vb)
        k = 1.7
        combo = a * radial_fourier_transform(fa, k) + b * radial_fourier_transform(fb, k)
        assert radial_fourier_transform(fab, k) == pytest.approx(combo, rel=1e-8)


class TestRadialGridFunction:
    def test_requires_increasing_nodes(self):
        with pytest.raises(ValueError):
            RadialGridFunction(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_requires_nonnegative_start(self):
        with pytest.raises(ValueError):
            RadialGridFunction(np.array([-0.5, 1.0]), np.zeros(2))

    def test_tail_evaluation(self):
        # zero beyond the last node, which a solver's initial profile relies on
        r = np.linspace(1.0, 4.0, 31)
        g = RadialGridFunction(r, 1.0 / r**3)
        assert g(8.0) == 0.0
        assert np.array_equal(g(np.array([4.5, 8.0])), [0.0, 0.0])
        assert g(2.0) == pytest.approx(2.0**-3, rel=1e-5)
