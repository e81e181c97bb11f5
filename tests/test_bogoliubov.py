import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from coulomblab.bogoliubov import (
    PairExcitationSpec,
    bogoliubov_dispersion_min,
    compute_I0,
    dyson_pipeline,
    dyson_variational_solve,
    fock_oracle,
    semiclassical_p_integral,
    working_i0,
)
from coulomblab.errors import ConvergenceError, TruncationError
from coulomblab.numerics import RadialGridFunction
from dyson_oracle import reference_dyson_solve


class TestPairExcitationSpec:
    def test_near_one_rejected(self):
        with pytest.raises(ValueError):
            PairExcitationSpec((1.0 - 1e-9,), 0.0)


def _tensor_route(s: PairExcitationSpec, truncation: int = 40) -> dict:
    """Every FockMomentReport moment from the explicit product-state tensor.

    Builds coherent(condensate) x squeezed(pairs) with (truncation+1)^(modes+1)
    entries from closed-form amplitudes, applies truncated ladder matrices
    axis by axis and takes full contractions: the route that the one-mode
    factorization of fock_oracle replaces.
    """
    levels = np.arange(truncation + 1)
    log_fact = np.array([math.lgamma(n + 1.0) for n in levels])
    big_n = s.condensate_amplitude**2
    vectors = [np.exp(-0.5 * big_n + 0.5 * levels * math.log(big_n) - 0.5 * log_fact)
               if big_n > 0 else (levels == 0).astype(float)]
    for lam in s.lambdas:
        v = np.zeros(truncation + 1)
        even = levels[::2] // 2
        # <2n|squeezed> = (1-lam^2)^(1/4) (-lam/2)^n sqrt((2n)!) / n!
        v[::2] = ((1.0 - lam * lam) ** 0.25 * (-lam / 2.0) ** even
                  * np.exp(0.5 * log_fact[::2] - log_fact[even]))
        vectors.append(v)
    state = vectors[0]
    for v in vectors[1:]:
        state = np.multiply.outer(state, v)
    norm2 = float((state**2).sum())
    state = state / math.sqrt(norm2)

    n_axes = s.n_modes + 1
    a_op = np.diag(np.sqrt(levels[1:].astype(float)), k=1)
    num = np.diag(levels.astype(float))

    def apply(op, x, axis, shift=0.0):
        out = np.moveaxis(np.tensordot(op, x, axes=(1, axis)), 0, axis)
        return out - shift * x

    def inner(x, y):
        return float((x * y).sum())

    shift = [s.condensate_amplitude] + [0.0] * s.n_modes
    b = [apply(a_op, state, k, shift[k]) for k in range(n_axes)]
    b_dag = [apply(a_op.T, state, k, shift[k]) for k in range(n_axes)]
    two_point = np.empty((n_axes, n_axes))
    pairing = np.empty((n_axes, n_axes))
    four_point = np.empty((n_axes, n_axes))
    for i in range(n_axes):
        for j in range(n_axes):
            two_point[i, j] = inner(b[i], b[j])
            pairing[i, j] = inner(b[i], b_dag[j])
            bji = apply(a_op, b[i], j, shift[j])
            four_point[i, j] = inner(bji, bji)
    n0 = apply(num, state, 0)
    n_tot = sum(apply(num, state, k) for k in range(n_axes))
    cond_mean, tot_mean = inner(state, n0), inner(state, n_tot)
    return {
        "norm_deficit": abs(1.0 - norm2),
        "centered_two_point": two_point,
        "centered_pairing": pairing,
        "centered_four_point": four_point,
        "condensate_number_mean": cond_mean,
        "condensate_number_variance": inner(n0, n0) - cond_mean**2,
        "total_number_mean": tot_mean,
        "total_number_variance": inner(n_tot, n_tot) - tot_mean**2,
    }


def _closed_forms(s: PairExcitationSpec) -> dict:
    """The closed form of every FockMomentReport moment, by field name."""
    lam = np.concatenate([[0.0], np.asarray(s.lambdas)])
    gam = lam**2 / (1.0 - lam**2)
    pair = np.sqrt(gam * (gam + 1.0))
    big_n = s.condensate_amplitude**2
    return {
        "centered_two_point": np.diag(gam),
        "centered_pairing": -np.diag(pair),
        "centered_four_point": np.diag(pair**2 + gam**2) + np.outer(gam, gam),
        "condensate_number_mean": big_n,
        "condensate_number_variance": big_n,
        "total_number_mean": big_n + gam.sum(),
        "total_number_variance": big_n + (2.0 * gam * (gam + 1.0)).sum(),
    }


def _largest_deviation(rep, closed: dict) -> float:
    return max(float(np.abs(getattr(rep, name) - value).max())
               for name, value in closed.items())


class TestFockOracle:
    def test_pure_condensate_statistics(self):
        rep = fock_oracle(PairExcitationSpec((0.0,), condensate_amplitude=2.0))
        assert rep.condensate_number_mean == pytest.approx(4.0, abs=1e-9)
        assert rep.condensate_number_variance == pytest.approx(4.0, abs=1e-9)
        assert rep.max_error < 1e-9

    def test_single_mode_half(self):
        rep = fock_oracle(PairExcitationSpec((0.5,), condensate_amplitude=0.0))
        assert rep.centered_two_point[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-9)
        expected_pairing = -math.sqrt((1.0 / 3.0) * (4.0 / 3.0))
        assert rep.centered_pairing[1, 1] == pytest.approx(expected_pairing, abs=1e-9)

    def test_four_point_closed_form(self):
        rep = fock_oracle(PairExcitationSpec((0.3,), condensate_amplitude=math.sqrt(2)))
        gam = 0.09 / 0.91
        expected = gam * (gam + 1.0) + 2.0 * gam**2
        assert rep.centered_four_point[1, 1] == pytest.approx(expected, abs=1e-8)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n_modes = int(rng.integers(1, 4))
            spec = PairExcitationSpec(
                tuple(rng.uniform(0.0, 0.55, size=n_modes)),
                condensate_amplitude=float(np.sqrt(rng.uniform(0.0, 8.0))),
            )
            rep = fock_oracle(spec, truncation=40)
            assert rep.norm_deficit < 1e-8
            assert rep.max_error < 1e-7

    @pytest.mark.parametrize("n_modes, count", [(1, 6), (2, 4), (3, 2)])
    def test_matches_tensor_route(self, n_modes, count):
        rng = np.random.default_rng(700 + n_modes)
        for _ in range(count):
            spec = PairExcitationSpec(
                tuple(rng.uniform(0.0, 0.55, size=n_modes)),
                condensate_amplitude=float(np.sqrt(rng.uniform(0.0, 8.0))),
            )
            rep = fock_oracle(spec, truncation=40)
            want = _tensor_route(spec, truncation=40)
            assert set(want) | {"max_error"} == set(vars(rep))
            for name, value in want.items():
                got = getattr(rep, name)
                assert np.shape(got) == np.shape(value), name
                assert np.abs(got - value).max() <= 1e-12, name
            assert abs(rep.max_error - _largest_deviation(rep, _closed_forms(spec))) \
                <= 1e-15

    def test_six_modes_match_closed_forms(self):
        # truncation at 40 levels costs up to ~3e-9 at lambda = 0.55, well
        # inside the 1e-7 that the fock-oracle subcommand accepts
        spec = PairExcitationSpec((0.0, 0.1, 0.25, 0.4, 0.5, 0.55), math.sqrt(6.0))
        rep = fock_oracle(spec, truncation=40)
        assert rep.centered_two_point.shape == (7, 7)
        assert rep.norm_deficit < 1e-8
        for name, value in _closed_forms(spec).items():
            assert np.abs(getattr(rep, name) - value).max() < 1e-7, name
        assert rep.max_error < 1e-7

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            fock_oracle(
                PairExcitationSpec((0.9,), condensate_amplitude=5.0), truncation=30
            )


class TestDispersionMin:
    def test_zero_coupling(self):
        assert bogoliubov_dispersion_min(1.7, 0.0) == (0.0, 0.0)

    def test_degenerate(self):
        assert bogoliubov_dispersion_min(0.0, 0.0) == (0.0, 0.0)

    def test_zero_tau_infimum(self):
        f_star, e_min = bogoliubov_dispersion_min(0.0, 3.0)
        assert math.isinf(f_star)
        assert e_min == -1.5

    def test_against_golden_scan(self):
        taus = np.geomspace(1e-2, 1e2, 12)
        gs = np.geomspace(1e-2, 1e2, 12)
        for tau in taus:
            for g in gs:
                f_star, e_min = bogoliubov_dispersion_min(tau, g)

                def h(f):
                    return tau * f + g * (f - math.sqrt(f * (f + 1.0)))

                res = minimize_scalar(
                    h,
                    bounds=(0.0, max(10.0 * f_star, 1.0)),
                    method="bounded",
                    options={"xatol": 1e-15},
                )
                assert e_min == pytest.approx(
                    min(res.fun, h(0.0)), abs=1e-10 * (1.0 + abs(e_min))
                )

    def test_perturbative_regime(self):
        for ratio in (1e2, 1e3):
            tau, g = ratio, 1.0
            _, e_min = bogoliubov_dispersion_min(tau, g)
            assert e_min == pytest.approx(-(g**2) / (4.0 * tau), rel=2.0 / ratio)

    def test_monotone_in_g(self):
        tau = 0.8
        vals = [bogoliubov_dispersion_min(tau, g)[1] for g in np.linspace(0, 5, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v <= 0 for v in vals)


class TestI0:
    def test_integrand_endpoints(self):
        from coulomblab.bogoliubov import _i0_integrand

        assert _i0_integrand(np.array([0.0]))[0] == 1.0
        # large-x decay like 1/(2 x^4)
        x = np.array([50.0])
        assert _i0_integrand(x)[0] == pytest.approx(0.5 / x[0] ** 4, rel=1e-3)

    def test_quadrature_matches_consistent_gamma_form(self):
        quadrature, stated = compute_I0()
        consistent = (
            4.0**0.75 * math.gamma(0.75) / (5.0 * math.pi**0.25 * math.gamma(1.25))
        )
        assert quadrature == pytest.approx(consistent, rel=1e-10)
        # the stated closed form sits exactly a factor 2 above the integral
        assert stated == pytest.approx(2.0 * quadrature, rel=1e-10)

    def test_semiclassical_ratio_constant(self):
        i0 = working_i0()
        ratios = []
        for a in (1e-2, 1.0, 1e2):
            v = semiclassical_p_integral(a, 1.0)
            ratios.append(-v / a**1.25)
        for r in ratios:
            assert r == pytest.approx(i0, rel=1e-6)
        assert max(ratios) - min(ratios) < 1e-6 * i0

    def test_quadrature_float(self):
        # the float that the i0 and dyson-* artifacts carry
        assert compute_I0()[0] == 0.5744473532158539

    def test_p_integral_matches_gamma_form(self):
        i0 = 4.0**0.75 * math.gamma(0.75) / (5.0 * math.pi**0.25 * math.gamma(1.25))
        for a in (1e-2, 0.3, 1.0, 7.0, 1e2, 1e4):
            assert semiclassical_p_integral(a, 1.0) == pytest.approx(
                -i0 * a**1.25, rel=1e-14
            )

    def test_density_factorization(self):
        v1 = semiclassical_p_integral(2.0, 3.0)
        v2 = semiclassical_p_integral(3.0, 2.0)
        assert v1 == pytest.approx(v2, rel=1e-9)


@pytest.fixture(scope="module")
def solved_state():
    return dyson_variational_solve(grid_n=1500)


def _projected_gradient_norm(u, r, i0):
    """KKT residual of K/2 - I0 P on the sphere 4 pi sum w u^2 = 1, from u alone."""
    h = r[1] - r[0]
    w = np.full_like(r, h)
    w[0] = w[-1] = 0.5 * h
    g = np.zeros_like(u)
    g[1:-1] = (4.0 * math.pi / h) * (2.0 * u[1:-1] - u[:-2] - u[2:])
    g[1:-1] -= i0 * 4.0 * math.pi * w[1:-1] * 2.5 * u[1:-1] ** 1.5 / np.sqrt(r[1:-1])
    normal = 8.0 * math.pi * w * u
    resid = g - (g @ u) / (normal @ u) * normal
    resid[(u <= 0.0) & (resid > 0.0)] = 0.0
    return float(np.linalg.norm(resid))


def _assert_same_state(got, want):
    assert set(vars(got)) == set(vars(want))
    for name, value in vars(want).items():
        if name == "phi":
            assert np.array_equal(got.phi.nodes, value.nodes)
            assert np.array_equal(got.phi.values, value.values)
        else:
            assert getattr(got, name) == value, name


class TestDysonSolver:
    def test_dilation_identity_for_any_profile(self):
        # E(sigma) = sigma^2 K/2 - sigma^(3/4) I0 P is exact bookkeeping
        from coulomblab.bogoliubov import _dyson_grid, _dyson_norm2, _dyson_quantities

        def terms(u, r, h):
            w, sqrt_r = _dyson_grid(r, h)
            return (*_dyson_quantities(u, h, w, sqrt_r), _dyson_norm2(u, w))

        r = np.linspace(0.0, 30.0, 1200)
        h = r[1] - r[0]
        u = r * np.exp(-((r - 3.0) ** 2))
        k0, p0, n0 = terms(u, r, h)
        sigma = 1.8
        rs = r / sigma
        us = sigma ** (3.0 / 2.0) * u / sigma  # sigma^(3/2) phi(sigma r) times r/sigma
        k1, p1, n1 = terms(us, rs, h / sigma)
        assert n1 == pytest.approx(n0, rel=1e-12)
        assert k1 == pytest.approx(sigma**2 * k0, rel=1e-12)
        assert p1 == pytest.approx(sigma**0.75 * p0, rel=1e-12)

    def test_virial_and_energy(self, solved_state):
        st = solved_state
        assert st.energy < 0.0
        assert st.virial_residual < 1e-3
        # E* = -(5/3) * (K/2) through the virial relation
        assert st.energy == pytest.approx(-(5.0 / 6.0) * st.kinetic, rel=5e-3)

    def test_grid_refinement_stability(self, solved_state):
        finer = dyson_variational_solve(grid_n=3000)
        assert abs(finer.energy - solved_state.energy) < 1e-3 * abs(
            solved_state.energy
        )

    def test_reaches_tolerance_at_default_grid(self):
        st = dyson_variational_solve(grid_n=2000)
        assert st.converged
        r = st.phi.nodes
        u = r * st.phi.values
        u[0] = 0.0
        # the documented first iterate, zero at both ends and normalized
        u_init = r * np.exp(-(r**2) / 18.0)
        u_init[-1] = 0.0
        u_init /= math.sqrt(4.0 * math.pi * (r[1] - r[0]) * (u_init @ u_init))
        rel = _projected_gradient_norm(u, r, st.i0) / _projected_gradient_norm(
            u_init, r, st.i0
        )
        assert rel < 1e-7
        assert st.relative_gradient < 1e-7
        # the projected-gradient flow this solver replaced stopped at
        # E = -0.05034128771796341 without reaching its tolerance
        assert st.energy <= -0.05034128771796341

    def test_iterations_independent_of_mesh(self, solved_state):
        fine = dyson_variational_solve(grid_n=4000)
        assert solved_state.iterations <= 20 and fine.iterations <= 20
        assert abs(fine.iterations - solved_state.iterations) <= 2

    def test_far_init_reaches_same_minimum(self, solved_state):
        # too narrow a start: the plain Newton step points uphill here
        r = np.linspace(0.0, 40.0, 801)
        init = RadialGridFunction(r, np.exp(-(r**2) / 2.0))
        st = dyson_variational_solve(grid_n=1500, init=init)
        assert st.relative_gradient < 1e-7
        assert st.energy == pytest.approx(solved_state.energy, rel=1e-9)

    def test_unconverged_solve_raises(self):
        with pytest.raises(ConvergenceError):
            dyson_variational_solve(grid_n=1500, max_iter=1)

    @pytest.mark.parametrize("grid_n", [1, 0])
    def test_grid_without_interior_node_rejected(self, grid_n):
        with pytest.raises(ValueError, match="grid_n must be at least 2"):
            dyson_variational_solve(grid_n=grid_n)

    @pytest.mark.parametrize("grid_n", [3, 10, 777, 2000, 2200, 4000])
    def test_equals_the_reference_route(self, grid_n):
        # the reference route: solve_banded, and the weights, sqrt(r) and
        # normalization recomputed at every evaluation
        _assert_same_state(dyson_variational_solve(grid_n=grid_n),
                           reference_dyson_solve(grid_n=grid_n))

    def test_equals_the_reference_route_with_shifted_steps(self):
        # the start of test_far_init_reaches_same_minimum, which rejects
        # Newton steps and takes backward-Euler ones
        r = np.linspace(0.0, 40.0, 801)
        init = RadialGridFunction(r, np.exp(-(r**2) / 2.0))
        _assert_same_state(
            dyson_variational_solve(grid_n=1500, init=init),
            reference_dyson_solve(grid_n=1500, init=init),
        )

    def test_warm_start_at_the_minimizer_takes_no_step(self):
        # its projected gradient is rounding noise, which no step reduces by
        # tol relative to itself
        st = dyson_variational_solve(grid_n=2000)
        warm = dyson_variational_solve(grid_n=2000, init=st.phi)
        assert warm.iterations == 0
        assert warm.energy == st.energy
        assert warm.converged

    def test_one_interior_node_takes_no_step(self):
        # the normalized profile is fixed, so the start is the minimizer
        st = dyson_variational_solve(grid_n=2)
        assert st.iterations == 0
        assert st.converged and st.energy < 0.0

    def test_custom_init_same_minimum(self, solved_state):
        r = np.linspace(0.0, 40.0, 801)
        init = RadialGridFunction(r, np.exp(-r / 2.0))
        st = dyson_variational_solve(grid_n=1500, init=init)
        assert st.energy == pytest.approx(solved_state.energy, rel=1e-4)


class TestDysonPipeline:
    def test_spread_and_scale(self, solved_state):
        rep = dyson_pipeline(n_list=(10.0, 1e3, 1e6), state=solved_state)
        assert rep.max_relative_spread < 1e-10
        for row in rep.rows:
            assert row.e_over_n75 == pytest.approx(solved_state.energy, rel=1e-10)
            assert row.length_scale == pytest.approx(row.N ** -0.2, rel=1e-14)

    def test_rejects_bad_n(self, solved_state):
        with pytest.raises(ValueError):
            dyson_pipeline(n_list=(0.0,), state=solved_state)
