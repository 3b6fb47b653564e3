"""Small dense linear-algebra kernel.

``solve``, a pivoted solve with a residual guarantee, serves
``hitting.moments`` alone (``ct_moments`` follows from it by identity).
``matpow_apply``, repeated matrix-vector products, has no caller in the
package; only the benchmark's per-layer spans name it.  There is
deliberately no eigensolver; spectral quantities elsewhere are reached
through trace power sums and Newton's identities.

It also holds ``SOLVE_RESIDUAL``, the residual allowed per solved
linear system, which every CLI document's metadata prints.
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
