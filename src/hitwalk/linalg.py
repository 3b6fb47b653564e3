"""Small dense linear-algebra kernel used by every engine.

Two primitives: pivoted linear solves and repeated matrix-vector
products (the direct engine steps through its own sparse-or-dense
``AbsorbingSystem.step`` instead).  There is deliberately no
eigensolver; spectral quantities elsewhere are reached through trace
power sums and Newton's identities.

It also holds the three numeric bounds the engines check their outputs
against, printed in every CLI document's metadata:

* ``SOLVE_RESIDUAL`` -- residual allowed per solved linear system;
* ``SERIES_TAIL`` -- unabsorbed mass at which a pmf iteration may stop;
* ``IMAGINARY_DISCARD`` -- imaginary part accepted on a real output of
  the character engine.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, SingularMatrixError

__all__ = [
    "solve",
    "matpow_apply",
]


# solve: max|a @ x - b| may be at most this times (1 + max|b|).
SOLVE_RESIDUAL = 1e-10
# hitting.pmf with stop_early: the iteration ends once every start has
# less unabsorbed mass than this.
SERIES_TAIL = 1e-12
# abelian: largest imaginary part accepted on a real output.  A character
# sum (the fourier engine's mean and second moment) may carry this much
# times the sum of its terms' magnitudes, its round-off scale.
IMAGINARY_DISCARD = 1e-9


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{what} contains non-finite entries")


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` with partial pivoting and a residual guarantee.

    Accepts real or complex data; ``b`` may be a vector or a matrix of
    right-hand sides.  Raises :class:`SingularMatrixError` when the system
    is singular to tolerance or the residual bound
    ``max|a@x - b| <= SOLVE_RESIDUAL * (1 + max|b|)`` cannot be met.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("coefficient matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise InvalidParameterError("right-hand side has mismatched length")
    _require_finite(a, "coefficient matrix")
    _require_finite(b, "right-hand side")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.max(np.abs(a @ x - b))
    bound = SOLVE_RESIDUAL * (1.0 + np.max(np.abs(b)))
    if not residual <= bound:
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return x


def matpow_apply(m, v, n: int) -> np.ndarray:
    """Return ``m^n @ v`` using n successive matrix-vector products.

    Never forms an explicit matrix power.  ``n = 0`` returns a copy of
    ``v`` unchanged.
    """
    m = np.asarray(m)
    v = np.asarray(v)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError("matrix must be square")
    if v.shape[0] != m.shape[1]:
        raise InvalidParameterError("vector length does not match matrix")
    if n < 0:
        raise InvalidParameterError("power must be nonnegative")
    out = v.copy()
    for _ in range(n):
        out = m @ out
    _require_finite(out, "matrix power product")
    return out
