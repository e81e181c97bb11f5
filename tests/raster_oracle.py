"""The midpoint raster of a domain, site by site: the oracle for thermo's lattice route.

``thermo.rasterized_dirichlet_energy`` reads the mask of a domain's raster
from its type and scale: the full n^3 grid for a cube, the chamber
{j1 <= j2 <= j3} for the corner tetrahedron.  Here the raster is built by
testing every midpoint site for containment, barycentric for a simplex, so
that the tests can check that claim, rounding on the faces included, and
read the lattice ladder from the mask itself.
"""

import numpy as np

from coulomblab.liebthirring import ladder_levels_below
from coulomblab.thermo import BoxDomain

BARYCENTRIC_SLACK = 1e-12


def simplex_contains(simplex, ell, points):
    """Barycentric containment of points (..., 3) in l simplex, in its own placement."""
    v0 = ell * simplex.vertices[0]
    inv_edges = np.linalg.inv(ell * simplex.edge_matrix)
    lam = (points - v0) @ inv_edges.T
    ok = np.all(lam >= -BARYCENTRIC_SLACK, axis=-1)
    return ok & (lam.sum(axis=-1) <= 1.0 + BARYCENTRIC_SLACK)


def contains(domain, points):
    """Containment in a domain; a box is centred at the origin, faces included."""
    if isinstance(domain, BoxDomain):
        return np.all(np.abs(points) <= domain.side / 2.0, axis=-1)
    return simplex_contains(domain.simplex, domain.ell, points)


def bounding_box(domain):
    if isinstance(domain, BoxDomain):
        half = np.full(3, domain.side / 2.0)
        return -half, half
    verts = domain.ell * domain.simplex.vertices
    return verts.min(axis=0), verts.max(axis=0)


def midpoint_raster(domain, h):
    """Containment mask of the midpoint lattice on the domain's bounding box.

    Each axis gets ceil(extent / h) cells (at least one), so the three steps
    are at most h.  Keep the midpoints as lo + (i + 1/2) (hi - lo) / count:
    the corner tetrahedron's diagonal sites lie on its faces, so whether
    they pass its barycentric test depends on the rounding of these values.
    """
    lo, hi = bounding_box(domain)
    counts = np.maximum(np.ceil((hi - lo) / h).astype(int), 1)
    axes = [lo[i] + (np.arange(counts[i]) + 0.5) * (hi[i] - lo[i]) / counts[i]
            for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    mask = contains(domain, pts.reshape(-1, 3)).reshape(pts.shape[:-1])
    return mask, (hi - lo) / counts


def chamber(n):
    """The mask {j1 <= j2 <= j3} of an n^3 grid."""
    j = np.arange(n)
    return (j[:, None, None] <= j[None, :, None]) & (j[None, :, None] <= j)


def mask_ladder_energy(mask, steps, mu, m):
    """The lattice ladder sum of a raster, read from its mask and steps.

    The mask must be the full n^3 grid, with the ladder of n sites, or its
    chamber, with the strict ladder of n + 2 sites, at three equal steps.
    """
    n = mask.shape[0]
    assert mask.shape == (n, n, n) and steps[0] == steps[1] == steps[2]
    if mask.all():
        size, strict = n, False
    else:
        assert np.array_equal(mask, chamber(n))
        size, strict = n + 2, True
    ladder = 1.0 - np.cos(np.pi * np.arange(1, size + 1) / (size + 1))
    levels = ladder_levels_below(ladder, 1.0 / (m * steps[0] ** 2), -mu,
                                 strict=strict)
    return float(np.sum(levels + mu))
