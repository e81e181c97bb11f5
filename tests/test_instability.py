import math

import numpy as np
import pytest

from coulomblab.instability import (
    CollapseReport,
    TwoBodyTrialState,
    attractive_collapse_experiment,
    critical_charge_upper_bound,
    relativistic_kinetic_expectation,
    relativistic_two_body_energy,
)
from variational_oracle import massless_minimum


class TestTrialStates:
    def test_separable_moments(self):
        t = TwoBodyTrialState("separable", width=2.0)
        assert t.momentum_std() == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
        assert t.inverse_distance_expectation() == pytest.approx(
            math.sqrt(2.0 / math.pi) / 2.0
        )

    def test_correlated_moments(self):
        t = TwoBodyTrialState("correlated", center_width=2.0, relative_width=1.5)
        var = 1.0 / (8.0 * 4.0) + 1.0 / (2.0 * 2.25)
        assert t.momentum_std() == pytest.approx(math.sqrt(var))
        assert t.inverse_distance_expectation() == pytest.approx(
            2.0 / (math.sqrt(math.pi) * 1.5)
        )

    def test_scaling(self):
        t = TwoBodyTrialState("separable", width=1.0)
        s = t.scaled(3.0)
        assert s.momentum_std() == pytest.approx(t.momentum_std() / 3.0)
        assert s.inverse_distance_expectation() == pytest.approx(
            t.inverse_distance_expectation() / 3.0
        )


class TestRelativisticKinetic:
    def test_massless_mean_momentum(self):
        # <|p|> for the radial Gaussian equals 2 sigma sqrt(2/pi)
        sigma = 0.8
        got = relativistic_kinetic_expectation(0.0, sigma)
        assert got == pytest.approx(2.0 * sigma * math.sqrt(2.0 / math.pi), rel=1e-10)

    def test_nonrelativistic_limit(self):
        sigma = 1.0
        p2 = 3.0 * sigma**2  # <p^2> of the 3-d Gaussian
        for mass in (1e2, 1e4):
            got = relativistic_kinetic_expectation(mass, sigma)
            assert got == pytest.approx(p2 / (2.0 * mass), rel=1e-2)

    def test_positive_for_nontrivial_state(self):
        energy = relativistic_two_body_energy(
            TwoBodyTrialState("separable", width=1.0), q=0.0, mass=1.0
        )
        assert energy > 0.0


class TestScalingIdentity:
    @pytest.mark.parametrize("kind", ["separable", "correlated"])
    @pytest.mark.parametrize("ell", [0.2, 0.7, 2.5])
    def test_exact_dilation_identity(self, kind, ell):
        if kind == "separable":
            t = TwoBodyTrialState("separable", width=1.4)
        else:
            t = TwoBodyTrialState("correlated", center_width=2.0, relative_width=0.9)
        q = 1.2
        lhs = ell * relativistic_two_body_energy(t, q, mass=1.0, ell=ell)
        rhs = relativistic_two_body_energy(t, q, mass=ell, ell=1.0)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_massless_limit_of_scaled_energy(self):
        t = TwoBodyTrialState("separable", width=1.0)
        q = 1.0
        massless = relativistic_two_body_energy(t, q, mass=0.0, ell=1.0)
        gaps = []
        for ell in (1e-2, 1e-4):
            scaled = ell * relativistic_two_body_energy(t, q, mass=1.0, ell=ell)
            # the residual mass term contributes -2 ell + O(ell^2)
            assert abs(scaled - massless) <= 2.5 * ell
            gaps.append(abs(scaled - massless))
        assert gaps[1] < 1.2e-2 * gaps[0]


class TestCriticalCharge:
    def family(self):
        return [
            TwoBodyTrialState("separable", width=1.0),
            TwoBodyTrialState("correlated", center_width=8.0, relative_width=1.0),
        ]

    def test_bisection_bracket(self):
        scan = np.array([0.5, 1.0, 2.0])
        q_up = critical_charge_upper_bound(self.family())
        assert massless_minimum(self.family(), scan, q_up - 1e-5) >= 0.0
        assert massless_minimum(self.family(), scan, q_up + 1e-5) < 0.0

    def test_wider_family_never_raises_threshold(self):
        q_small = critical_charge_upper_bound(self.family()[:1])
        q_large = critical_charge_upper_bound(self.family())
        assert q_large <= q_small + 1e-9

    def test_separable_threshold_closed_form(self):
        # kinetic 2<|p|> and attraction <1/r> are both 1/width, so the
        # threshold equals their ratio 2 sqrt(2): width independent
        for width in (0.3, 1.0, 4.0):
            state = TwoBodyTrialState("separable", width=width)
            q_up = critical_charge_upper_bound([state])
            assert q_up == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_threshold_zeroes_the_quadrature_energy(self):
        # oracle: at the closed-form threshold the massless energy, with its
        # kinetic term by momentum quadrature, vanishes for the optimal shape
        q_up = critical_charge_upper_bound(self.family())
        for w in (0.5, 1.0, 2.0):
            state = self.family()[1].scaled(w)
            kinetic = 2.0 * relativistic_kinetic_expectation(0.0, state.momentum_std())
            assert massless_minimum([state], [1.0], q_up) == pytest.approx(
                0.0, abs=1e-12 * kinetic
            )

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            critical_charge_upper_bound([])

    def test_energy_linear_in_q(self):
        t = TwoBodyTrialState("separable", width=1.3)
        e0 = relativistic_two_body_energy(t, 0.0, mass=0.0)
        e1 = relativistic_two_body_energy(t, 1.0, mass=0.0)
        e2 = relativistic_two_body_energy(t, 2.0, mass=0.0)
        assert e2 - e1 == pytest.approx(e1 - e0, rel=1e-12)


class TestAttractiveCollapse:
    def test_three_dimensional_exponent_and_onset(self):
        ns = np.unique(np.round(np.geomspace(8, 32768, 16)).astype(int))
        rep = attractive_collapse_experiment(ns, radius=1.0, c=1.0)
        assert 1.62 <= rep.fitted_exponent <= 1.72
        assert rep.onset_n is not None
        assert rep.to_dict()["dimension"] == 3
        # estimates become negative and keep decreasing past the onset
        tail = [r["estimate"] for r in rep.rows if r["N"] >= rep.onset_n]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.0

    def test_kinetic_ratio_stabilizes(self):
        ns = np.unique(np.round(np.geomspace(6554, 65536, 8)).astype(int))
        rep = attractive_collapse_experiment(ns, radius=1.0, c=1.0)
        ratios = [r["kinetic"] / r["N"] ** (5.0 / 3.0) for r in rep.rows]
        assert (max(ratios) - min(ratios)) / min(ratios) < 0.05

    def test_radius_scaling(self):
        ns = np.array([64])
        rep1 = attractive_collapse_experiment(ns, radius=1.0, c=1.0)
        rep2 = attractive_collapse_experiment(ns, radius=2.0, c=1.0)
        assert rep2.rows[0]["kinetic"] == pytest.approx(
            rep1.rows[0]["kinetic"] / 4.0, rel=1e-12
        )

    def test_fitted_exponent_is_least_squares_slope(self):
        ns = np.unique(np.round(np.geomspace(8, 4096, 12)).astype(int))
        rep = attractive_collapse_experiment(ns, radius=1.0, c=1.0)
        top = rep.rows[-6:]
        x = np.log([r["N"] for r in top])
        design = np.stack([x, np.ones_like(x)], axis=1)
        slope = np.linalg.lstsq(design, np.log([r["kinetic"] for r in top]), rcond=None)[0][0]
        assert rep.fitted_exponent == pytest.approx(slope, rel=1e-12)
        with pytest.raises(ValueError):
            attractive_collapse_experiment(np.array([64, 64]), 1.0, 1.0)
