"""Tensor Gauss-Legendre oracle for the uniform-ball Coulomb average, shared by the tests.

It shares no code with ``coulomb``: the angular integral stays numerical, so
the oracle does not rely on the shell theorem that the library's closed form
rests on.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

_UNIT_X, _UNIT_W = leggauss(64)
_UNIT_NODES, _UNIT_WEIGHTS = 0.5 * (_UNIT_X + 1.0), 0.5 * _UNIT_W  # on [0, 1]


def ball_average_oracle(delta, r):
    """Independent tensor Gauss-Legendre rule for the uniform-ball Coulomb average.

    The average is 6/(pi delta^3) 2 pi int_0^a s^2 int_{-1}^1
    (r^2 + s^2 - 2 r s u)^(-1/2) du ds with a = delta/2.  The inner integrand
    is singular at u = 1 when s = r, so the outer integral is split at s = r
    and the inner one is taken in t with u = 1 - 2 t^2, where it reads
    4 t / sqrt((r - s)^2 + 4 r s t^2) on [0, 1] and stays bounded.  Each rule
    has 64 nodes.
    """
    a = delta / 2.0
    t = _UNIT_NODES[None, :]
    pieces = sorted({0.0, a} | ({r} if 0.0 < r < a else set()))
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        s = lo + (hi - lo) * _UNIT_NODES[:, None]
        inner = (4.0 * t / np.sqrt((r - s) ** 2 + 4.0 * r * s * t**2)) @ _UNIT_WEIGHTS
        total += (hi - lo) * float(_UNIT_WEIGHTS @ (s[:, 0] ** 2 * inner))
    return 6.0 / (math.pi * delta**3) * 2.0 * math.pi * total
