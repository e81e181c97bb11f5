"""Command-line orchestration: one subcommand per experiment.

All runs are seeded (default seed 137) and emit canonical JSON or CSV, so
identical invocations produce byte-identical artifacts.  Flags follow the
subcommand, and each subcommand offers only the flags its runner reads.
Each runner returns its artifact, and `main` emits it.  Exit status: 0 when
the artifact's "pass" is true, 1 when it is false, 2 on usage errors, 3 when
the library raises an error during the run; the error then goes to stderr as
one canonical JSON object {"error": class name, "message": ..., "subcommand":
...}.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bogoliubov, coulomb, grafschenker, instability, liebthirring
from . import errors, operators, thermo
from .numerics import KineticProfile, legendre_transform
from .report import dumps_canonical, rows_to_csv

DEFAULT_SEED = 137

# everything the package raises on purpose: the ValueError family of
# errors.py and plain ValueErrors for bad arguments, plus its runtime errors
_LIBRARY_ERRORS = (ValueError, errors.TruncationError, errors.ConvergenceError)

# tolerances of the subcommands' checks, each read by one subcommand
I0_MATCH_TOL = 1e-8
VIRIAL_TOL = 1e-3
PIPELINE_SPREAD_TOL = 1e-10
FOCK_MOMENTS_TOL = 1e-7
SCALING_IDENTITY_TOL = 1e-8
LICHNEROWICZ_TOL = 1e-8
# the kinetic-energy chain lhs >= mid >= S sob of sobolev: the diamagnetic
# step holds to rounding, and the Sobolev step with the sharp constant S
# keeps a margin for the grid discretization of its test fields
DIAMAGNETIC_TOL = 1e-12
SOBOLEV_GRID_MARGIN = 0.995

# box sides of the thermo-limit fit: a dense set averages out the lattice-point
# oscillations of the filled mode count, which a handful of sides can alias
THERMO_LIMIT_SCALES = np.linspace(12.0, 32.0, 41)

# (charges, mass) of the few-body stability-of-the-first-kind demonstrations
FIRST_KIND_CASES = (
    ((1.0, -1.0), 1.0),
    ((1.0, -1.0, 0.5), 1.3),
    ((2.0, -2.0), 1.0),
)


def _emit(args: argparse.Namespace, artifact: dict):
    # only the subcommands that write rows offer --format; a CSV carries the
    # artifact without its rows as its header
    if getattr(args, "format", "json") == "csv":
        header = {key: value for key, value in artifact.items() if key != "rows"}
        text = rows_to_csv(artifact["rows"], header)
    else:
        text = dumps_canonical(artifact) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_i0(args: argparse.Namespace) -> dict:
    quadrature, closed = bogoliubov.compute_I0()
    rel = abs(quadrature - closed) / abs(closed)
    return {
        "quadrature": quadrature,
        "closed_form": closed,
        "rel_diff": rel,
        "pass": rel < I0_MATCH_TOL,
    }


def _run_dyson_solve(args: argparse.Namespace) -> dict:
    # the solve raises ConvergenceError unless it ends at a negative energy
    state = bogoliubov.dyson_variational_solve(grid_n=args.grid_n)
    return {
        "K": state.kinetic,
        "P": state.potential,
        "E": state.energy,
        "virial_residual": state.virial_residual,
        "iterations": state.iterations,
        "relative_gradient": state.relative_gradient,
        "grid_n": state.grid_n,
        "r_max": state.r_max,
        "I0": state.i0,
        "pass": state.virial_residual < VIRIAL_TOL,
        "rows": [
            {"r": float(r), "phi": float(v)}
            for r, v in zip(state.phi.nodes[::10], state.phi.values[::10])
        ],
    }


def _run_dyson_pipeline(args: argparse.Namespace) -> dict:
    report = bogoliubov.dyson_pipeline(grid_n=args.grid_n)
    ok = (report.max_relative_spread < PIPELINE_SPREAD_TOL
          and report.state.virial_residual < VIRIAL_TOL)
    return {**report.to_dict(), "pass": ok}


def _run_fock_oracle(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    rows = []
    for _ in range(args.samples):
        n_modes = int(rng.integers(1, 4))
        lambdas = tuple(rng.uniform(0.0, 0.55, size=n_modes))
        amp = float(np.sqrt(rng.uniform(0.0, 8.0)))
        spec = bogoliubov.PairExcitationSpec(lambdas, amp)
        rep = bogoliubov.fock_oracle(spec, truncation=40)
        rows.append({
            "lambdas": list(lambdas),
            "sqrtN": amp,
            "max_error": rep.max_error,
            "norm_deficit": rep.norm_deficit,
        })
        worst = max(worst, rep.max_error)
    return {"max_error": worst, "pass": worst < FOCK_MOMENTS_TOL, "seed": args.seed,
            "specs": rows}


def _run_onsager(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    violations = 0
    for _ in range(args.samples):
        config = coulomb.random_neutral_configuration(rng)
        rep = coulomb.onsager_lower_bound(config)
        if not rep.all_checks_pass:
            violations += 1
    return {"configs": args.samples, "violations": violations,
            "pass": violations == 0, "seed": args.seed}


def _run_lt_box(args: argparse.Namespace) -> dict:
    c_lt = liebthirring.classical_lt_constant()
    rows = []
    ok = True
    for n in (1, 4, 16, 64, 256, 1024, 4096, 10000):
        for side in (1.0, 2.5):
            sum_d = liebthirring.dirichlet_cube_kinetic_sum(n, side, 1.0)
            bound = liebthirring.box_kinetic_lower_bound(n, side**3, 1.0)
            rows.append({"N": n, "side": side, "dirichlet_sum": sum_d,
                         "bound": bound, "holds": bool(sum_d >= bound)})
            ok = ok and sum_d >= bound
    return {"pass": ok, "C_lt": c_lt, "rows": rows}


def _run_stability(args: argparse.Namespace) -> dict:
    rows = []
    ok = True
    for mu in (-1.0, 0.0, 2.0):
        for m_plus, m_minus in ((1.0, 1.0), (1.0, 5.0)):
            for q in (0.5, 1.0):
                spec = liebthirring.SpeciesSpec(m_plus, m_minus, q, q, mu)
                value = liebthirring.stability_constant(spec)
                finite = np.isfinite(value) and value <= 1e-12
                ok = ok and finite
                rows.append({"mu": mu, "m_plus": m_plus, "m_minus": m_minus,
                             "Q": q, "minimum": value, "finite": bool(finite)})
    first_kind = []
    for charges, mass in FIRST_KIND_CASES:
        demo = operators.stability_first_kind_demo(charges, mass=mass)
        ok = ok and demo["holds"]
        first_kind.append({"charges": list(charges), "mass": mass, **demo})
    return {"first_kind": first_kind, "pass": ok, "rows": rows}


def _run_graf_schenker(args: argparse.Namespace) -> dict:
    simplex = grafschenker.regular_tetrahedron()
    est0, err0 = grafschenker.overlap_kernel(np.zeros(3), np.zeros(3), simplex, 4.0)
    norm_ok = est0 == 1.0

    rng = np.random.default_rng(args.seed)
    config = coulomb.random_neutral_configuration(rng, n_min=6, n_max=10, box=2.0)
    diam = config.diameter
    report = grafschenker.sliding_inequality_experiment(
        config, simplex, np.array([2.0, 4.0, 8.0, 16.0, 32.0]) * diam
    )
    d_vals = report.d_values
    # a sliding bound means D plateaus: its increments must not grow
    trend_ok = bool(np.all(np.diff(d_vals, 2) <= 0.0))
    # the face-plane rule at l = 1: <1>, then <phi>, <phi^2>, <phi^3>
    moments = grafschenker.gauge_moments(simplex)
    return {
        "kernel_at_zero": est0,
        "kernel_at_zero_err": err0,
        "normalization_ok": norm_ok,
        "phi_moments": [float(m) for m in moments[1:]],
        "rule_mass_error": abs(float(moments[0]) - 1.0),
        "D_values": [float(x) for x in d_vals],
        "pass": norm_ok and trend_ok,
        "seed": args.seed,
        "rows": [r.to_dict() for r in report.rows],
    }


def _run_thermo(args: argparse.Namespace) -> dict:
    mu, m = -1.0, 1.0
    em = thermo.free_fermion_energy_map(mu, m)
    rep = thermo.thermodynamic_extrapolation(
        em, thermo.BoxDomain, THERMO_LIMIT_SCALES
    )
    closed = thermo.free_fermion_energy_density(mu, m)
    rel = abs(rep.e_infinity - closed) / abs(closed)
    return {"mu": mu, "m": m, "e_infinity": rep.e_infinity, "closed_form": closed,
            "rel_error": rel, "residual_rms": rep.residual_rms,
            "fit_warning": rep.fit_warning, "pass": rel < 0.01, "rows": rep.rows()}


def _run_rel_collapse(args: argparse.Namespace) -> dict:
    state = instability.TwoBodyTrialState("separable", width=1.3)
    lhs = instability.relativistic_two_body_energy(state, 1.0, 1.0, ell=0.35)
    rhs = instability.relativistic_two_body_energy(state, 1.0, 0.35, ell=1.0)
    resid = abs(0.35 * lhs - rhs) / max(abs(rhs), 1e-300)
    family = [
        instability.TwoBodyTrialState("separable"),
        instability.TwoBodyTrialState("correlated", center_width=8.0,
                                      relative_width=1.0),
    ]
    q_upper = instability.critical_charge_upper_bound(family)
    return {"scaling_residual": resid, "Q_upper": q_upper,
            "pass": resid < SCALING_IDENTITY_TOL}


def _run_fermi_collapse(args: argparse.Namespace) -> dict:
    # a ratio of 2^0.8 between neighbours keeps the rounded sizes distinct
    ns = np.round(np.geomspace(8, 32768, 16)).astype(int)
    rep = instability.attractive_collapse_experiment(ns, radius=1.0, c=1.0)
    ok = 1.62 <= rep.fitted_exponent <= 1.72 and rep.onset_n is not None
    return {**rep.to_dict(), "pass": ok}


def _run_lichnerowicz(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    n = args.grid_n
    a = operators.random_band_limited_field(rng, n, 2 * np.pi, components=3,
                                            k_shells=2, real=True)
    psi = operators.random_band_limited_field(rng, n, 2 * np.pi, components=2,
                                              k_shells=2)
    res = operators.lichnerowicz_check(psi, a, 0.7)
    return {"max_residual": res.max_residual, "scale": res.scale,
            "relative": res.relative, "pass": res.relative < LICHNEROWICZ_TOL,
            "seed": args.seed}


def _run_sobolev(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    n = args.grid_n
    sharp = operators.sharp_sobolev_constant()
    worst_gap = sobolev_ratio = np.inf
    for _ in range(args.samples):
        f = operators.random_band_limited_field(rng, n, 2 * np.pi, components=1,
                                                k_shells=2, windowed=True)
        a = operators.random_band_limited_field(rng, n, 2 * np.pi, components=3,
                                                k_shells=2, real=True)
        lhs, mid, sob = operators.diamagnetic_sobolev_terms(f, a, 0.9)
        worst_gap = min(worst_gap, lhs - mid)
        sobolev_ratio = min(sobolev_ratio, mid / (sharp * sob))
    ok = bool(worst_gap >= -DIAMAGNETIC_TOL and sobolev_ratio >= SOBOLEV_GRID_MARGIN)
    return {"trials": args.samples, "worst_gap": float(worst_gap),
            "sobolev_ratio": float(sobolev_ratio), "pass": ok, "constant": sharp,
            "seed": args.seed}


def _run_legendre(args: argparse.Namespace) -> dict:
    p = np.linspace(-3.0, 3.0, 2001)
    nonrel = KineticProfile("nonrelativistic", 1.0)
    rel = KineticProfile("relativistic", 1.0)
    val1 = legendre_transform(p, nonrel(p), 0.6)
    val2 = legendre_transform(p, rel(p), 0.6)
    err1 = abs(val1 - 0.18)
    err2 = abs(val2 - 0.2)
    return {"quadratic_at_0.6": val1, "relativistic_at_0.6": val2,
            "errors": [err1, err2], "pass": err1 < 1e-10 and err2 < 1e-6}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


# how each flag parses; every subcommand also offers --out
_FLAG_TYPES = {
    "--seed": {"type": int},
    "--format": {"choices": ("json", "csv")},
    "--samples": {"type": _positive_int},
    "--grid-n": {"type": _positive_int},
}
_JSON = {"--format": "json"}
_SEED = {"--seed": DEFAULT_SEED}

# each subcommand's runner and the flags it reads, with their defaults
_SUBCOMMANDS = {
    "i0": (_run_i0, {}),
    "dyson-solve": (_run_dyson_solve, {**_JSON, "--grid-n": 2000}),
    "dyson-pipeline": (_run_dyson_pipeline, {**_JSON, "--grid-n": 2000}),
    "fock-oracle": (_run_fock_oracle, {**_SEED, "--samples": 20}),
    "onsager-check": (_run_onsager, {**_SEED, "--samples": 2000}),
    "lt-box": (_run_lt_box, _JSON),
    "stability-constant": (_run_stability, _JSON),
    "graf-schenker": (_run_graf_schenker, {**_SEED, **_JSON}),
    "thermo-limit": (_run_thermo, _JSON),
    "rel-collapse": (_run_rel_collapse, {}),
    "fermi-collapse": (_run_fermi_collapse, _JSON),
    "lichnerowicz": (_run_lichnerowicz, {**_SEED, "--grid-n": 32}),
    "sobolev": (_run_sobolev, {**_SEED, "--grid-n": 32, "--samples": 25}),
    "legendre": (_run_legendre, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomblab",
        description="Numerical experiments on Coulomb gas bounds.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (runner, flags) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--out", type=str, default=None)
        for flag, default in flags.items():
            sub.add_argument(flag, default=default, **_FLAG_TYPES[flag])
        sub.set_defaults(runner=runner)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        artifact = args.runner(args)
    except _LIBRARY_ERRORS as exc:
        sys.stderr.write(dumps_canonical({
            "error": type(exc).__name__,
            "message": str(exc),
            "subcommand": args.subcommand,
        }) + "\n")
        return 3
    _emit(args, artifact)
    return 0 if artifact["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
