"""`charge-sweep`: charge configurations through ``coulomb`` and ``grafschenker``.

One round: the Onsager chain on seeded random neutral configurations
(n <= 40), on a few large balanced configurations and on rock-salt blocks,
whose smearing balls never overlap; the ball-pair kernel on the overlapping
and disjoint pairs of the first random configurations and on equal-diameter
pairs; the overlap kernel at coincident points; the sliding statistic on a
few small configurations; and one positive-type check.
"""
from __future__ import annotations

import time

import numpy as np

import oracles as orc
from coulomblab import coulomb, grafschenker

N_RANDOM = 1200
N_PAIR_CONFIGS = 300  # random configurations whose pairs go through the kernel
N_QUADRATURE = 3  # unequal overlapping pairs checked by nested quadrature
N_EQUAL = 200
N_LARGE, LARGE_SIZE, LARGE_BOX = 6, 240, 20.0
N_BLOCKS, BLOCK_SIDE = 3, 6
OVERLAP_SAMPLES = 400_000
N_SLIDING, SLIDING_SAMPLES = 4, 20_000
SLIDING_SCALES = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
# Each round makes several Monte Carlo tests and a benchmark set makes
# hundreds of rounds; at 3 sigma one set in a few would fail by chance.
MC_SIGMA = 5.0
D_BOUND = 10.0


def _large_configuration(rng) -> coulomb.ChargeConfiguration:
    half = LARGE_SIZE // 2
    pos = rng.uniform(-LARGE_BOX / 2, LARGE_BOX / 2, size=(LARGE_SIZE, 3))
    q_plus = rng.uniform(0.2, 2.0, size=half)
    q_minus = rng.uniform(0.2, 2.0, size=half)
    q_minus *= q_plus.sum() / q_minus.sum()
    return coulomb.ChargeConfiguration(
        pos, np.concatenate([q_plus, -q_minus]), ("plus",) * half + ("minus",) * half)


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    start = time.perf_counter()
    random_configs = [coulomb.random_neutral_configuration(rng) for _ in range(N_RANDOM)]
    generation_s = time.perf_counter() - start
    large = [_large_configuration(rng) for _ in range(N_LARGE)]
    blocks = []
    for _ in range(N_BLOCKS):
        pos, charges, spacing = orc.rock_salt_block(rng, BLOCK_SIDE)
        species = tuple("plus" if q > 0 else "minus" for q in charges)
        blocks.append((coulomb.ChargeConfiguration(pos, charges, species), spacing))
    sliding = [coulomb.random_neutral_configuration(rng, n_min=6, n_max=10, box=2.0)
               for _ in range(N_SLIDING)]
    delta = rng.uniform(0.1, 3.0, size=N_EQUAL)
    equal_pairs = list(zip(delta, delta * rng.uniform(0.0, 0.999, size=N_EQUAL)))
    return {"random": random_configs, "large": large, "blocks": blocks,
            "sliding": sliding, "equal_pairs": equal_pairs,
            "mc_seed": int(rng.integers(2**31)), "quad_rng": [seed, 3],
            "generation_s": generation_s}


def _check_chain(rep, config, tag, ck):
    """exact >= smeared + self >= final, against independently computed ends."""
    deltas = orc.nearest_opposite(config.positions, config.charges)
    exact = orc.point_energy(config.positions, config.charges)
    final = -2.4 * float(np.sum(config.charges**2 / deltas))
    scale = abs(exact) + abs(final)
    ck.check(abs(rep.extras["exact"] - exact) <= 1e-12 * scale, f"{tag}: exact energy")
    ck.check(abs(rep.extras["final_bound"] - final) <= 1e-12 * scale, f"{tag}: final bound")
    middle = rep.terms["smeared_interaction"] + rep.terms["self_energy_correction"]
    slack = 1e-10 * scale
    ck.check(exact >= middle - slack and middle >= final - slack,
             f"{tag}: chain exact={exact!r} >= {middle!r} >= {final!r} broken")
    ck.check(rep.all_checks_pass, f"{tag}: program reports a failed check {rep.checks}")
    return deltas, exact


def _onsager(configs, label, tr, ck):
    with tr.span("coulomb.onsager_lower_bound", label) as sp:
        reports = [ck.call("onsager_lower_bound", coulomb.onsager_lower_bound, c)
                   for c in configs]
    sp.counts["configs"] = len(configs)
    return reports


def _pair_kernel(inputs, tr, ck):
    """The ball-pair kernel on overlapping, disjoint and equal-diameter pairs."""
    overlapping, disjoint = [], []
    for config in inputs["random"][:N_PAIR_CONFIGS]:
        deltas = orc.nearest_opposite(config.positions, config.charges)
        for i, j, d, overlap in zip(*orc.pairs_with_overlap(config.positions, deltas)):
            (overlapping if overlap else disjoint).append(
                (float(deltas[i]), float(deltas[j]), float(d)))

    with tr.span("coulomb.smeared_pair_interaction", "overlapping") as sp:
        values = [ck.call("smeared_pair_interaction", coulomb.smeared_pair_interaction,
                          *pair) for pair in overlapping]
    sp.counts["pairs"] = len(overlapping)
    for (di, dj, d), v in zip(overlapping, values):
        if v is None:
            continue
        # a unit ball j sees ball i's potential, which lies below 1/r and
        # below its central value 3/delta_i, and decreases outward
        upper = min(1.0 / d, 3.0 / di, 3.0 / dj)
        lower = 1.0 / (d + 0.5 * (di + dj))
        ck.check(lower <= v <= upper * (1 + 1e-12),
                 f"overlapping pair {di!r},{dj!r},{d!r}: {v!r} outside [{lower}, {upper}]")
    pick = np.random.default_rng(inputs["quad_rng"]).choice(
        len(overlapping), size=min(N_QUADRATURE, len(overlapping)), replace=False)
    for k in pick:
        if values[k] is not None:
            ck.close(f"overlapping pair {overlapping[k]} vs quadrature", values[k],
                     orc.ball_pair_quadrature(*overlapping[k]), 1e-9)

    for di, dj, d in disjoint:
        v = ck.call("smeared_pair_interaction", coulomb.smeared_pair_interaction, di, dj, d)
        if v is not None:
            ck.check(abs(v - 1.0 / d) <= 4e-16 / d, f"disjoint pair at {d!r}: {v!r}")

    for delta, d in inputs["equal_pairs"]:
        v = ck.call("smeared_pair_interaction", coulomb.smeared_pair_interaction,
                    delta, delta, d)
        if v is not None:
            ck.close(f"equal pair delta={delta!r} d={d!r}", v,
                     orc.equal_ball_pair(delta, d), 1e-12)


def _graf_schenker(inputs, tr, ck):
    simplex = grafschenker.regular_tetrahedron()
    seed = inputs["mc_seed"]
    with tr.span("grafschenker.overlap_kernel") as sp:
        res = ck.call("overlap_kernel", grafschenker.overlap_kernel, np.zeros(3),
                      np.zeros(3), simplex, 4.0, OVERLAP_SAMPLES, seed=seed)
    sp.counts["samples"] = OVERLAP_SAMPLES
    if res is not None:
        est, err = res
        ck.check(abs(est - 1.0) <= MC_SIGMA * err,
                 f"overlap kernel at coincident points {est!r} +- {err!r} not 1")

    for i, config in enumerate(inputs["sliding"]):
        with tr.span("grafschenker.sliding_inequality_experiment") as sp:
            rep = ck.call("sliding_inequality_experiment",
                          grafschenker.sliding_inequality_experiment, config, simplex,
                          SLIDING_SCALES * config.diameter, SLIDING_SAMPLES, seed=[seed, i])
        sp.counts["samples"] = SLIDING_SAMPLES * len(SLIDING_SCALES)
        if rep is None:
            continue
        exact = orc.point_energy(config.positions, config.charges)
        ck.close("sliding exact energy", rep.exact, exact, 1e-12)
        d_vals = np.array([(r.estimate - exact) * r.ell / rep.sum_q2 for r in rep.rows])
        ck.check(np.allclose(d_vals, rep.d_values, rtol=1e-12, atol=1e-12),
                 "sliding D values do not follow from the estimates")
        sigma = np.array([r.std_error * r.ell / rep.sum_q2 for r in rep.rows])
        ck.check(bool(np.all(d_vals - MC_SIGMA * sigma <= D_BOUND)),
                 f"D(l) above {D_BOUND}: {d_vals} +- {sigma}")
        inc = np.diff(d_vals)
        sig_inc = np.hypot(sigma[:-1], sigma[1:])
        ck.check(bool(np.all(inc[1:] <= inc[:-1]
                             + MC_SIGMA * np.hypot(sig_inc[1:], sig_inc[:-1]))),
                 f"D(l) trends upward: {d_vals} +- {sigma}")

    with tr.span("grafschenker.gs_positive_type_check"):
        rep = ck.call("gs_positive_type_check", grafschenker.gs_positive_type_check,
                      simplex, 3.0, 12, np.geomspace(0.05, 10.0, 8),
                      samples_per_point=20_000, seed=seed)
    if rep is not None:
        ck.check(rep.status != "negative", f"positive-type check: {rep.status}")


def run_round(inputs: dict, tr, ck) -> None:
    for config, rep in zip(inputs["random"], _onsager(inputs["random"], "random", tr, ck)):
        if rep is not None:
            _check_chain(rep, config, "random config", ck)
    for config, rep in zip(inputs["large"], _onsager(inputs["large"], "large", tr, ck)):
        if rep is not None:
            _check_chain(rep, config, "large config", ck)
    blocks = [b for b, _ in inputs["blocks"]]
    for (config, spacing), rep in zip(inputs["blocks"], _onsager(blocks, "lattice", tr, ck)):
        if rep is None:
            continue
        deltas, exact = _check_chain(rep, config, "rock-salt block", ck)
        ck.check(np.allclose(deltas, spacing, rtol=1e-12), "rock-salt spacing")
        # no ball overlaps: the smeared pair sum is the point energy
        want = exact + 1.2 * float(np.sum(config.charges**2 / deltas))
        ck.close("rock-salt smeared interaction", rep.terms["smeared_interaction"],
                 want, 1e-12)
    _pair_kernel(inputs, tr, ck)
    _graf_schenker(inputs, tr, ck)


def layer_metrics(tr, inputs) -> dict:
    out = {"coulomb.config_generation_ms": (1e3 * inputs["generation_s"], "ms")}
    for label in ("random", "large", "lattice"):
        sp = tr.find("coulomb.onsager_lower_bound", label)[0]
        out[f"coulomb.onsager_ms_per_config.{label}"] = (
            1e3 * sp.seconds / sp.counts["configs"], "ms")
    pairs = tr.find("coulomb.smeared_pair_interaction", "overlapping")[0]
    out["coulomb.overlapping_pairs"] = (pairs.counts["pairs"], "count")
    out["coulomb.us_per_overlapping_pair"] = (
        1e6 * pairs.seconds / max(pairs.counts["pairs"], 1), "us")
    overlap = tr.find("grafschenker.overlap_kernel")[0]
    out["grafschenker.overlap_samples_per_s"] = (
        overlap.counts["samples"] / overlap.seconds, "1/s")
    sliding = tr.find("grafschenker.sliding_inequality_experiment")
    out["grafschenker.sliding_samples_per_s"] = (
        sum(s.counts["samples"] for s in sliding) / sum(s.seconds for s in sliding), "1/s")
    out["grafschenker.positive_type_s"] = (
        tr.total("grafschenker.gs_positive_type_check"), "s")
    return out

