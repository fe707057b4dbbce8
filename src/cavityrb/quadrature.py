"""Gauss quadrature on the reference triangle.

Triangle rules are built from tensor Gauss-Legendre rules through the
Duffy (collapsed square) transform x = u(1-v), y = uv with Jacobian u,
so exactness for a requested polynomial degree follows from the 1-D
Gauss orders; no tabulated point sets are used.
"""

from __future__ import annotations

import numpy as np


def gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1]; exact to degree 2n-1."""
    if n < 1:
        raise ValueError("need at least one point")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the unit triangle (0,0), (1,0), (0,1).

    Exact for all bivariate polynomials of total degree <= ``degree``.
    Returns points (nq, 2) and weights (nq,) summing to 1/2.

    A monomial x^i y^j with i + j <= degree pulls back through the Duffy
    map to u^(i+j+1) (1-v)^i v^j, so degree+1 in u and degree in v.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    nu = (degree + 1) // 2 + 1          # exact to 2*nu - 1 >= degree + 1
    nv = degree // 2 + 1                # exact to 2*nv - 1 >= degree
    u, wu = gauss01(nu)
    v, wv = gauss01(nv)
    U, V = np.meshgrid(u, v)
    WU, WV = np.meshgrid(wu, wv)
    x = (U * (1.0 - V)).ravel()
    y = (U * V).ravel()
    w = (WU * WV * U).ravel()
    return np.column_stack([x, y]), w
