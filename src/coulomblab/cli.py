"""Command-line orchestration: one subcommand per experiment.

All runs are seeded (default seed 137, overridable with --seed) and emit
canonical JSON or CSV, so identical invocations produce byte-identical
artifacts.  Exit status: 0 when every checked invariant holds, 1 on an
invariant violation, 2 on usage errors, 3 when the library raises an error
during the run; the error then goes to stderr as one canonical JSON object
{"error": class name, "message": ..., "subcommand": ...}.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bogoliubov, coulomb, grafschenker, instability, liebthirring
from . import errors, operators, thermo
from .numerics import KineticProfile, legendre_transform
from .report import dumps_canonical, rows_to_csv

DEFAULT_SEED = 137

# everything the package raises on purpose: the ValueError family of
# errors.py and plain ValueErrors for bad arguments, plus its runtime errors
_LIBRARY_ERRORS = (
    ValueError,
    errors.TruncationError,
    errors.ConvergenceError,
    errors.BoundViolationError,
)

DEFAULT_TOLERANCES = {
    "i0_match": 1e-8,
    "virial": 1e-3,
    "pipeline_spread": 1e-10,
    "fock_moments": 1e-7,
    "scaling_identity": 1e-8,
    "lichnerowicz": 1e-8,
}

# box sides of the thermo-limit fit: a dense set averages out the lattice-point
# oscillations of the filled mode count, which a handful of sides can alias
THERMO_LIMIT_SCALES = np.linspace(12.0, 32.0, 41)

# (charges, mass) of the few-body stability-of-the-first-kind demonstrations
FIRST_KIND_CASES = (
    ((1.0, -1.0), 1.0),
    ((1.0, -1.0, 0.5), 1.3),
    ((2.0, -2.0), 1.0),
)

@dataclass
class RunConfig:
    seed: int = DEFAULT_SEED
    out_format: str = "json"
    out_path: str | None = None
    samples: int | None = None
    grid_n: int | None = None
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown tolerance {name!r}")
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    allowed = {"seed", "out_format", "out_path", "samples", "grid_n",
               "tolerances"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "tolerances" in data:
        bad = set(data["tolerances"]) - set(DEFAULT_TOLERANCES)
        if bad:
            raise ValueError(f"unknown tolerance names: {sorted(bad)}")
    return data


def _build_config(args) -> RunConfig:
    cfg_data = _load_config(args.config)
    cfg = RunConfig(
        seed=cfg_data.get("seed", DEFAULT_SEED),
        out_format=cfg_data.get("out_format", "json"),
        out_path=cfg_data.get("out_path"),
        samples=cfg_data.get("samples"),
        grid_n=cfg_data.get("grid_n"),
        tolerances=dict(cfg_data.get("tolerances", {})),
    )
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format is not None:
        cfg.out_format = args.format
    if args.out is not None:
        cfg.out_path = args.out
    if args.samples is not None:
        cfg.samples = args.samples
    if args.grid_n is not None:
        cfg.grid_n = args.grid_n
    for item in args.tol or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tol expects name=value, got {item!r}")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r}")
        cfg.tolerances[name] = float(value)
    return cfg


def _emit(cfg: RunConfig, artifact: dict | None, rows: list[dict] | None = None,
          header: dict | None = None):
    if cfg.out_format == "csv" and rows is not None:
        text = rows_to_csv(rows, header=header)
    else:
        payload = dict(artifact or {})
        if rows is not None:
            payload["rows"] = rows
        text = dumps_canonical(payload) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_i0(cfg: RunConfig) -> int:
    quadrature, closed = bogoliubov.compute_I0()
    rel = abs(quadrature - closed) / abs(closed)
    ok = rel < cfg.tol("i0_match")
    _emit(cfg, {
        "quadrature": quadrature,
        "closed_form": closed,
        "rel_diff": rel,
        "pass": ok,
        "seed": cfg.seed,
    })
    return 0 if ok else 1


def _run_dyson_solve(cfg: RunConfig) -> int:
    grid_n = cfg.grid_n or 2000
    state = bogoliubov.dyson_variational_solve(grid_n=grid_n)
    ok = state.virial_residual < cfg.tol("virial") and state.energy < 0
    header = {
        "K": state.kinetic,
        "P": state.potential,
        "E": state.energy,
        "virial_residual": state.virial_residual,
        "iterations": state.iterations,
        "converged": state.converged,
        "relative_gradient": state.relative_gradient,
        "grid_n": state.grid_n,
        "r_max": state.r_max,
        "I0": state.i0,
        "pass": ok,
    }
    rows = [
        {"r": float(r), "phi": float(v)}
        for r, v in zip(state.phi.nodes[::10], state.phi.values[::10])
    ]
    _emit(cfg, header, rows=rows, header=header)
    return 0 if ok else 1


def _run_dyson_pipeline(cfg: RunConfig) -> int:
    grid_n = cfg.grid_n or 2000
    report = bogoliubov.dyson_pipeline(grid_n=grid_n)
    ok = report.max_relative_spread < cfg.tol("pipeline_spread")
    artifact = report.to_dict()
    artifact["pass"] = ok
    rows = artifact.pop("rows")
    _emit(cfg, artifact, rows=rows, header=artifact)
    return 0 if ok else 1


def _run_fock_oracle(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples or 20
    worst = 0.0
    rows = []
    for _ in range(count):
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
    ok = worst < cfg.tol("fock_moments")
    _emit(cfg, {"max_error": worst, "pass": ok, "seed": cfg.seed, "specs": rows})
    return 0 if ok else 1


def _run_onsager(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples or 2000
    violations = 0
    for _ in range(count):
        config = coulomb.random_neutral_configuration(rng)
        rep = coulomb.onsager_lower_bound(config)
        if not rep.all_checks_pass:
            violations += 1
    ok = violations == 0
    _emit(cfg, {"configs": count, "violations": violations, "pass": ok,
                "seed": cfg.seed})
    return 0 if ok else 1


def _run_lt_box(cfg: RunConfig) -> int:
    p = liebthirring.LtParameters(m=1.0)
    rows = []
    ok = True
    for n in (1, 4, 16, 64, 256, 1024, 4096, 10000):
        for side in (1.0, 2.5):
            sum_d = liebthirring.dirichlet_cube_kinetic_sum(n, side, 1.0)
            bound = liebthirring.box_kinetic_lower_bound(n, side**3, p)
            rows.append({"N": n, "side": side, "dirichlet_sum": sum_d,
                         "bound": bound, "holds": bool(sum_d >= bound)})
            ok = ok and sum_d >= bound
    _emit(cfg, {"pass": ok, "C_lt": p.C_lt}, rows=rows,
          header={"C_lt": p.C_lt, "pass": ok})
    return 0 if ok else 1


def _run_stability(cfg: RunConfig) -> int:
    rows = []
    ok = True
    for mu in (-1.0, 0.0, 2.0):
        for m_plus, m_minus in ((1.0, 1.0), (1.0, 5.0)):
            for q in (0.5, 1.0):
                spec = liebthirring.SpeciesSpec(m_plus, m_minus, q, q, mu)
                value = liebthirring.stability_constant(
                    spec,
                    liebthirring.LtParameters(m=m_plus),
                    liebthirring.LtParameters(m=m_minus),
                )
                finite = np.isfinite(value) and value <= 1e-12
                ok = ok and finite
                rows.append({"mu": mu, "m_plus": m_plus, "m_minus": m_minus,
                             "Q": q, "minimum": value, "finite": bool(finite)})
    first_kind = []
    for charges, mass in FIRST_KIND_CASES:
        demo = operators.stability_first_kind_demo(charges, mass=mass)
        ok = ok and demo["holds"]
        first_kind.append({"charges": list(charges), "mass": mass, **demo})
    header = {"first_kind": first_kind, "pass": ok}
    _emit(cfg, header, rows=rows, header=header)
    return 0 if ok else 1


def _run_graf_schenker(cfg: RunConfig) -> int:
    samples = cfg.samples or 20000
    simplex = grafschenker.regular_tetrahedron()
    ell = 4.0
    est0, err0 = grafschenker.overlap_kernel(
        np.zeros(3), np.zeros(3), simplex, ell, samples, seed=cfg.seed
    )
    norm_ok = est0 == 1.0

    rng = np.random.default_rng(cfg.seed)
    config = coulomb.random_neutral_configuration(rng, n_min=6, n_max=10, box=2.0)
    diam = config.diameter
    report = grafschenker.sliding_inequality_experiment(
        config, simplex, np.array([2.0, 4.0, 8.0, 16.0, 32.0]) * diam,
        samples, seed=cfg.seed,
    )
    d_vals = report.d_values
    # a sliding bound means D plateaus: its increments must not grow
    trend_ok = bool(np.all(np.diff(d_vals, 2) <= 0.0))
    ok = norm_ok and trend_ok
    # the face-plane rule at l = 1: <1>, then <phi>, <phi^2>, <phi^3>
    moments = grafschenker.gauge_moments(simplex)
    _emit(cfg, {
        "kernel_at_zero": est0,
        "kernel_at_zero_err": err0,
        "normalization_ok": norm_ok,
        "phi_moments": [float(m) for m in moments[1:]],
        "rule_mass_error": abs(float(moments[0]) - 1.0),
        "D_values": [float(x) for x in d_vals],
        "pass": ok,
        "seed": cfg.seed,
    }, rows=[r.to_dict() for r in report.rows])
    return 0 if ok else 1


def _run_thermo(cfg: RunConfig) -> int:
    mu, m = -1.0, 1.0
    em = thermo.free_fermion_energy_map(mu, m)
    rep = thermo.thermodynamic_extrapolation(
        em, lambda L: thermo.BoxDomain(L), THERMO_LIMIT_SCALES
    )
    closed = thermo.free_fermion_energy_density(mu, m)
    rel = abs(rep.e_infinity - closed) / abs(closed)
    ok = rel < 0.01
    header = {"mu": mu, "m": m, "e_infinity": rep.e_infinity, "closed_form": closed,
              "rel_error": rel, "residual_rms": rep.residual_rms,
              "fit_warning": rep.fit_warning, "pass": ok}
    _emit(cfg, header, rows=rep.rows(), header=header)
    return 0 if ok else 1


def _run_rel_collapse(cfg: RunConfig) -> int:
    state = instability.TwoBodyTrialState("separable", width=1.3)
    lhs = instability.relativistic_two_body_energy(state, 1.0, 1.0, ell=0.35)
    rhs = instability.relativistic_two_body_energy(state, 1.0, 0.35, ell=1.0)
    resid = abs(0.35 * lhs.total - rhs.total) / max(abs(rhs.total), 1e-300)
    family = [
        instability.TwoBodyTrialState("separable"),
        instability.TwoBodyTrialState("correlated", center_width=8.0,
                                      relative_width=1.0),
    ]
    q_upper = instability.critical_charge_upper_bound(family)
    ok = resid < cfg.tol("scaling_identity")
    _emit(cfg, {"scaling_residual": resid, "Q_upper": q_upper, "pass": ok})
    return 0 if ok else 1


def _run_fermi_collapse(cfg: RunConfig) -> int:
    ns = np.unique(np.round(np.geomspace(8, 32768, 16)).astype(int))
    rep = instability.attractive_collapse_experiment(ns, radius=1.0, c=1.0, ndim=3)
    ok = 1.62 <= rep.fitted_exponent <= 1.72 and rep.onset_n is not None
    artifact = rep.to_dict()
    artifact["pass"] = ok
    _emit(cfg, artifact, rows=rep.rows,
          header={"fitted_exponent": rep.fitted_exponent, "pass": ok})
    return 0 if ok else 1


def _run_lichnerowicz(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.grid_n or 32
    a = operators.random_band_limited_field(rng, n, 2 * np.pi, components=3,
                                            k_shells=2, real=True)
    psi = operators.random_band_limited_field(rng, n, 2 * np.pi, components=2,
                                              k_shells=2)
    res = operators.lichnerowicz_check(psi, a, 0.7)
    ok = res.relative < cfg.tol("lichnerowicz")
    _emit(cfg, {"max_residual": res.max_residual, "scale": res.scale,
                "relative": res.relative, "pass": ok, "seed": cfg.seed})
    return 0 if ok else 1


def _run_sobolev(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.grid_n or 32
    trials = cfg.samples or 25
    worst_gap = np.inf
    for _ in range(trials):
        f = operators.random_band_limited_field(rng, n, 2 * np.pi, components=1,
                                                k_shells=2, windowed=True)
        a = operators.random_band_limited_field(rng, n, 2 * np.pi, components=3,
                                                k_shells=2, real=True)
        lhs, mid, sob = operators.diamagnetic_sobolev_check(f, a, 0.9)
        worst_gap = min(worst_gap, lhs - mid)
    ok = bool(worst_gap >= -1e-12)
    _emit(cfg, {"trials": trials, "worst_gap": float(worst_gap), "pass": ok,
                "constant": operators.sobolev_test_constant(), "seed": cfg.seed})
    return 0 if ok else 1


def _run_legendre(cfg: RunConfig) -> int:
    p = np.linspace(-3.0, 3.0, 2001)
    nonrel = KineticProfile("nonrelativistic", 1.0)
    rel = KineticProfile("relativistic", 1.0)
    val1 = legendre_transform(p, nonrel(p), 0.6)
    val2 = legendre_transform(p, rel(p), 0.6)
    err1 = abs(val1 - 0.18)
    err2 = abs(val2 - 0.2)
    ok = err1 < 1e-10 and err2 < 1e-6
    _emit(cfg, {"quadratic_at_0.6": val1, "relativistic_at_0.6": val2,
                "errors": [err1, err2], "pass": ok})
    return 0 if ok else 1


_RUNNERS = {
    "i0": _run_i0,
    "dyson-solve": _run_dyson_solve,
    "dyson-pipeline": _run_dyson_pipeline,
    "fock-oracle": _run_fock_oracle,
    "onsager-check": _run_onsager,
    "lt-box": _run_lt_box,
    "stability-constant": _run_stability,
    "graf-schenker": _run_graf_schenker,
    "thermo-limit": _run_thermo,
    "rel-collapse": _run_rel_collapse,
    "fermi-collapse": _run_fermi_collapse,
    "lichnerowicz": _run_lichnerowicz,
    "sobolev": _run_sobolev,
    "legendre": _run_legendre,
}
SUBCOMMANDS = tuple(_RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomblab",
        description="Numerical experiments on Coulomb gas bounds.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with run configuration")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    parser.add_argument("--tol", action="append", default=None,
                        metavar="NAME=VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        cfg = _build_config(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return _RUNNERS[args.subcommand](cfg)
    except _LIBRARY_ERRORS as exc:
        sys.stderr.write(dumps_canonical({
            "error": type(exc).__name__,
            "message": str(exc),
            "subcommand": args.subcommand,
        }) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
