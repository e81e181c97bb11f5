"""Monte Carlo oracle for the exact Graf-Schenker isometry averages, shared by the tests.

``random_rotations`` draws the Haar rotations of every such estimator.

The library's overlap kernel and sliding statistic read the exact kernel
``radial_kernel``.  These estimators sample the rotation average instead,
with the streams of the former library estimator, and keep the translation
integral exact: l simplex meets its translate by v in a copy of itself
scaled by 1 - phi(v), with phi(v) = 1/2 sum_k |l_k(v)| over the linear parts
l_k of the four barycentric coordinates (Rogers & Shephard, J. London Math.
Soc. 33 (1958) 270).
"""

import math

import numpy as np

from coulomblab.grafschenker import barycentric_forms

# rotations drawn per batch; the batch size fixes how the random streams are
# consumed, so changing it changes every estimate
CHUNK = 2048


def _quaternions_to_matrices(q):
    """Batch of unit quaternions (n, 4) to rotation matrices (n, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - z * w)
    m[:, 0, 2] = 2 * (x * z + y * w)
    m[:, 1, 0] = 2 * (x * y + z * w)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - x * w)
    m[:, 2, 0] = 2 * (x * z - y * w)
    m[:, 2, 1] = 2 * (y * z + x * w)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def random_rotations(rng, n):
    """Haar-uniform rotations from normalized 4-component Gaussians."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quaternions_to_matrices(q)


def pair_average(separations, weights, forms, samples, rng):
    """Average over isometries g of sum_p w_p 1[r_p in g] 1[r_p + s_p in g].

    It is reported per unit |l simplex| with its standard error.  Each Haar
    rotation R contributes sum_p w_p (1 - phi(R^T s_p))_+^3, drawn ``CHUNK``
    at a time.
    """
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(CHUNK, samples - done)
        rots = random_rotations(rng, m)
        l1 = np.zeros((m, len(weights)))  # sum_k |l_k(R^T s_p)| = 2 phi
        for a in forms:  # l_k(R^T s) = (R a_k) . s
            l1 += np.abs((rots @ a) @ separations.T)
        scale = np.maximum(1.0 - 0.5 * l1, 0.0)
        vals = (scale * scale * scale) @ weights
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m

    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def overlap_estimate(r, r_prime, simplex, ell, samples, seed=0):
    """Estimate of F(r, r') / |l simplex| with its standard error."""
    sep = (np.asarray(r_prime, float) - np.asarray(r, float)).reshape(1, 3)
    return pair_average(sep, np.ones(1), barycentric_forms(simplex, ell),
                        samples, np.random.default_rng(seed))


def sliding_estimates(c, simplex, ell_list, samples, seed=0):
    """(estimate, std_error) of the averaged restricted Coulomb sum at each l.

    The estimate at the idx-th l draws from default_rng([seed, idx]).
    """
    i, j = np.triu_indices(len(c), k=1)
    separations = c.positions[j] - c.positions[i]
    weights = c.charges[i] * c.charges[j] / c.pair_distances()[i, j]
    return [pair_average(separations, weights, barycentric_forms(simplex, ell),
                         samples, np.random.default_rng([seed, idx]))
            for idx, ell in enumerate(np.asarray(ell_list, dtype=float))]
