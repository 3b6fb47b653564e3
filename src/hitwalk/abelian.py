"""Character-based engine for symmetric walks on finite abelian groups.

A finite abelian group G = Z_{n_1} x ... x Z_{n_m} has exactly |G|
one-dimensional characters

    rho_a(g) = exp(2 pi i <a, g>),   <a, g> = sum_l a_l g_l / n_l,

enumerated here lexicographically with the trivial character first.
With the transform  f^(rho) = sum_g f(g) rho(g), a symmetric step law p
(p(g) = p(-g), p(e) = 0) has a real transform, and its spectral gaps are

    1 - p^(rho_a) = gap_a = 2 sum_s p(s) sin^2(pi <a, s>).

Since rho_{-a}(g) is the conjugate of rho_a(g) and gap_{-a} = gap_a,
imaginary parts cancel in every sum below, and 1 - rho_a(g) enters as
its real part 2 sin^2(pi <a, g>).  Hitting quantities to the identity
become real sums:

* expected hitting time   h(g) = sum_{a != 0} 2 sin^2(pi <a, g>) / gap_a
* second moment           q(g) = (1/|G|) sum_{a != 0}
      [ 2|G| (1 - gap_a) / gap_a^2 + q* / gap_a ] * 2 sin^2(pi <a, g>)
  with q* = E[(tau^+)^2] the return second moment, and the
  variance q(g) - h(g)^2
* return second moment    q* = |G| (1 + 2 sum_{a != 0} 1 / gap_a)
  The stationary law is uniform, so E_0 tau^+ = |G|, the eigentime
  identity gives E_pi tau_0 = sum_{a != 0} 1 / gap_a, and
  E_0[(tau^+)^2] = E_0 tau^+ (2 E_pi tau_0 + 1) (Aldous & Fill,
  *Reversible Markov Chains and Random Walks on Graphs*, ch. 2 sec. 2.2
  and ch. 3 sec. 3).  Every moment is thus a sum over the same spectral
  gaps, and no absorbing chain is built.
* the step-distribution recurrence in the transform domain,
      v_1 = p^,  v_n = p^ v_{n-1} - (1/|G|) (sum_a p^_a v_{n-1,a}) * 1,
  real throughout, whose inverse transform at g is
      m_n(g) = P(tau_{g,e} = n) = (1/|G|) sum_a cos(2 pi <a, g>) v_{n,a}.

Every <a, x> is reduced exactly, in integers modulo the lcm of the
moduli, to the nearest whole number (``_versines``), so a gap near 0
keeps its relative accuracy and p^_a = p^_{-a} bit for bit.  The
moments cost O(|G| s) for a law of s steps, and ``fourier_pmf`` steps
one displacement in O(|G|) a step and O(|G| + horizon) memory; neither
forms a complex number or a character table.

The complex transform ``fourier`` and its inverse remain as the dense
reference: each is a product with the |G| x |G| character table, in
O(|G|^2) time and memory.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, NotErgodicError, NumericalError
from .graphs import (
    _DIAGONAL_STEPS,
    _STANDARD_STEPS,
    Graph,
    TransitionKernel,
    _complete_nodes,
    _cycle_nodes,
    _hypercube_nodes,
    _require_array_size,
    _torus_nodes,
    simple_walk_kernel,
)
from .hitting import PmfTable, closed_cycle

__all__ = [
    "FiniteAbelianGroup",
    "StepLaw",
    "CharacterBasis",
    "character_basis",
    "fourier",
    "inverse_fourier",
    "expected_hitting_abelian",
    "variance_abelian",
    "fourier_pmf",
    "group_walk_graph",
    "group_walk_kernel",
    "diag_torus_map",
    "diag_torus_convolution_report",
    "ConvolutionReport",
    "cycle_step_law",
    "complete_step_law",
    "hypercube_step_law",
    "torus_standard_step_law",
    "torus_diagonal_step_law",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_m}.

    Elements are tuples in lexicographic order (last coordinate fastest),
    so the identity has index 0.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise InvalidParameterError("group needs at least one factor")
        if any(n < 2 for n in factors):
            raise InvalidParameterError("every modulus must be >= 2")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        out = 1
        for n in self.factors:
            out *= n
        return out

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.factors)))

    def index(self, g) -> int:
        g = self.canonical(g)
        idx = 0
        for x, n in zip(g, self.factors):
            idx = idx * n + x
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.order:
            raise InvalidParameterError("element index out of range")
        out = []
        for n in reversed(self.factors):
            out.append(idx % n)
            idx //= n
        return tuple(reversed(out))

    def canonical(self, g) -> tuple[int, ...]:
        g = tuple(int(x) for x in g)
        if len(g) != len(self.factors):
            raise InvalidParameterError("element arity does not match factors")
        return tuple(x % n for x, n in zip(g, self.factors))

    def add(self, g, h) -> tuple[int, ...]:
        g, h = self.canonical(g), self.canonical(h)
        return tuple((x + y) % n for x, y, n in zip(g, h, self.factors))

    def neg(self, g) -> tuple[int, ...]:
        g = self.canonical(g)
        return tuple((-x) % n for x, n in zip(g, self.factors))

    def sub(self, g, h) -> tuple[int, ...]:
        return self.add(g, self.neg(h))


@dataclass(frozen=True)
class StepLaw:
    """Increment distribution p(g) = P(tau_{x, x+g} = 1) of the walk.

    Must be a probability vector with no mass at the identity and the
    inversion symmetry p(g) = p(-g) required by the transform-domain
    derivations.
    """

    group: FiniteAbelianGroup
    table: np.ndarray  # indexed by element index

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.shape != (self.group.order,):
            raise InvalidParameterError("step law length must equal group order")
        if np.any(table < 0.0) or not np.all(np.isfinite(table)):
            raise InvalidParameterError("step probabilities must be finite and >= 0")
        if abs(table.sum() - 1.0) > _SUM_TOL:
            raise InvalidParameterError("step law must sum to 1 within 1e-12")
        if table[0] != 0.0:
            raise InvalidParameterError("no self-loops: p(identity) must be 0")
        grid = table.reshape(self.group.factors)
        negated = grid[np.ix_(*[-np.arange(n) % n for n in self.group.factors])]
        if np.max(np.abs(grid - negated)) > _SUM_TOL:
            raise InvalidParameterError("step law must be symmetric: p(g) = p(-g)")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_pairs(cls, group: FiniteAbelianGroup, pairs) -> "StepLaw":
        table = np.zeros(group.order)
        for g, prob in pairs:
            idx = group.index(g)
            if table[idx] != 0.0:
                raise InvalidParameterError(f"duplicate step-law entry for {tuple(g)}")
            table[idx] = float(prob)
        return cls(group, table)

    def support(self) -> list[tuple[int, ...]]:
        return [self.group.element(i) for i in np.nonzero(self.table)[0]]


class CharacterBasis:
    """Full character table of a finite abelian group.

    ``matrix[a, g] = rho_a(g)``, characters indexed lexicographically by
    their index tuples with the trivial character in row 0.  The table is
    symmetric: rho_a(g) = rho_g(a).  Entries are looked up by ``_turns``.
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        turns, angle = _turns(group, np.arange(group.order))
        self.matrix = (np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float))[turns]
        self.matrix.setflags(write=False)


@lru_cache(maxsize=64)
def _cached_basis(factors: tuple[int, ...]) -> CharacterBasis:
    return CharacterBasis(FiniteAbelianGroup(factors))


def character_basis(group: FiniteAbelianGroup) -> CharacterBasis:
    return _cached_basis(group.factors)


def fourier(group: FiniteAbelianGroup, values) -> np.ndarray:
    """Transform f^(rho_a) = sum_g f(g) rho_a(g), indexed by character."""
    values = np.asarray(values)
    if values.shape != (group.order,):
        raise InvalidParameterError("function length must equal group order")
    return character_basis(group).matrix @ values


def inverse_fourier(group: FiniteAbelianGroup, transform) -> np.ndarray:
    """Inverse transform f(g) = (1/|G|) sum_a rho_a(g^{-1}) f^(rho_a)."""
    transform = np.asarray(transform, dtype=complex)
    if transform.shape != (group.order,):
        raise InvalidParameterError("transform length must equal group order")
    return character_basis(group).matrix.conj() @ transform / group.order


def _turns(group: FiniteAbelianGroup, elements) -> tuple[np.ndarray, np.ndarray]:
    """j = L <a, x> mod L in integers (L the lcm of the moduli) for every
    character a (rows) and each element index x (columns), factor by factor
    in O(|G|) a column; and the angles 2 pi j / L, j < L, in long double."""
    factors = group.factors
    lcm = int(np.lcm.reduce(factors))
    xs = np.unravel_index(np.asarray(elements), factors)
    turns = np.zeros((1, len(xs[0])), dtype=np.int64)
    for n, x in zip(factors, xs):
        turns = ((turns[:, None, :] + np.outer(np.arange(n), x * (lcm // n))) % lcm).reshape(-1, len(x))
    pi = 4 * np.arctan(np.longdouble(1))
    return turns, 2 * pi * np.arange(lcm, dtype=np.longdouble) / lcm


def _versines(group: FiniteAbelianGroup, elements) -> np.ndarray:
    """1 - cos(2 pi <a, x>) = 2 sin^2(pi <a, x>) for every character a
    (rows) and each element index x (columns), looked up at the distance
    j / L of <a, x> (``_turns``) from the nearest whole number: a value
    near 0 keeps its relative accuracy, and the values at a and -a are
    equal bit for bit.  The table over j is rounded once from long double,
    so each entry is the double nearest its value but in rare near ties:
    1/6, 1/4, 1/3 and 1/2 of a turn give 0.5, 1, 1.5 and 2 exactly."""
    turns, angle = _turns(group, elements)
    table = 2 * np.sin(angle[: len(angle) // 2 + 1] / 2) ** 2
    return table.astype(float)[np.minimum(turns, len(angle) - turns)]


def _spectral_gaps(group: FiniteAbelianGroup, law: StepLaw) -> np.ndarray:
    """1 - p^(rho_a) = 2 sum_s p(s) sin^2(pi <a, s>) for every nontrivial
    character a, so a gap near 0 keeps its relative accuracy; 1 - p^ by
    subtraction loses it to cancellation.  Each row is summed alike (a
    matrix product need not), so the gaps of a and -a are equal bit for
    bit."""
    support = np.flatnonzero(law.table)
    return np.sum(_versines(group, support)[1:] * law.table[support], axis=1)


def _real_transform(group: FiniteAbelianGroup, law: StepLaw) -> np.ndarray:
    """p^(rho_a) = 1 - gap_a for every character a, 1 at the trivial one."""
    return np.concatenate(([1.0], 1.0 - _spectral_gaps(group, law)))


def _displacement_versine(group: FiniteAbelianGroup, g) -> np.ndarray:
    """1 - Re rho_a(g) = 2 sin^2(pi <a, g>) for every character a."""
    return _versines(group, [group.index(g)])[:, 0]


def _return_second_moment(order: int, gaps: np.ndarray) -> float:
    """q* = E[(tau^+)^2] = |G| (1 + 2 sum_{a != 0} 1 / gap_a), by the
    eigentime identity (see the module docstring)."""
    return order * (1.0 + 2.0 * float(np.sum(1.0 / gaps)))


def _require_ergodic(gaps: np.ndarray) -> None:
    if not np.all(gaps > 0.0):
        raise NotErgodicError(
            "a nontrivial transform coefficient equals 1; the step law does not generate the group"
        )


def expected_hitting_abelian(group: FiniteAbelianGroup, law: StepLaw, g) -> float:
    """h(g) = E[tau] between any pair at displacement g.

    A real sum over the nontrivial characters; walks with some
    transform coefficient at -1 (bipartite-like) are fine, only a
    coefficient at +1 (non-generating support) is rejected.
    """
    g = group.canonical(g)
    gaps = _spectral_gaps(group, law)
    _require_ergodic(gaps)
    return float(np.sum(_displacement_versine(group, g)[1:] / gaps))


def variance_abelian(group: FiniteAbelianGroup, law: StepLaw, g) -> tuple[float, float]:
    """Second moment q(g) and variance of the hitting time at displacement g.

    Every term is a real sum over the spectral gaps 1 - p^(rho_a), with
    no linear solve, the return second moment included:
    q* = |G| (1 + 2 sum_{a != 0} 1 / (1 - p^(rho_a))) by the eigentime
    identity for a walk with uniform stationary law (Aldous & Fill,
    *Reversible Markov Chains and Random Walks on Graphs*, ch. 2 sec. 2.2
    and ch. 3 sec. 3).  Note the ``+ q*/(1 - p^)`` sign: the printed
    ``-`` variant fails the two-node sanity check (it yields -3 where the
    truth is E[tau^2] = 1) while this form matches the general-graph
    engine on every cross-checked family.
    """
    g = group.canonical(g)
    gaps = _spectral_gaps(group, law)
    _require_ergodic(gaps)
    qstar = _return_second_moment(group.order, gaps)
    versine = _displacement_versine(group, g)[1:]
    bracket = 2.0 * group.order * (1.0 - gaps) / gaps**2 + qstar / gaps
    q_val = float(np.sum(bracket * versine)) / group.order
    h_val = float(np.sum(versine / gaps))
    variance = q_val - h_val**2
    if variance < -1e-8:
        raise InvalidParameterError("negative variance beyond tolerance")
    return q_val, float(variance)


def fourier_pmf(group: FiniteAbelianGroup, law: StepLaw, g, horizon: int) -> PmfTable:
    """Hitting distribution from displacement g to the identity, by the
    transform-domain recurrence in real arithmetic.

    The one column is P(tau_{g,e} = n) for n = 1..horizon, in O(|G|) a
    step and O(|G| + horizon) memory.  The step distribution's mass at
    the identity must vanish for n >= 1 and no entry of the column may
    fall below 0 (both within 1e-10); a breach raises
    :class:`NumericalError`.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    _require_array_size(horizon + group.order, "fourier table")
    g = group.canonical(g)
    order = group.order
    p_hat = _real_transform(group, law)
    cos = 1.0 - _displacement_versine(group, g)
    column = np.empty(horizon)
    v = p_hat  # transform of m_1 = p
    for n in range(horizon):
        at_identity = np.sum(v) / order
        if abs(at_identity) > 1e-10:
            raise NumericalError(f"m_{n + 1}(e) = {at_identity:.3e}, expected 0")
        column[n] = cos @ v / order
        v = p_hat * v - (p_hat @ v) / order
    if column.min() < -1e-10:
        raise NumericalError("negative probability beyond tolerance")
    probs = np.clip(column, 0.0, None)[:, None]
    # the identity never "hits" in n >= 1 steps
    residual = 1.0 - probs.sum(axis=0) if any(g) else np.ones(1)
    return PmfTable(
        probs=probs,
        states=(group.index(g),),
        target=0,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# the walk's own Cayley graph (the reference for q* and cross-engine checks)
# ---------------------------------------------------------------------------

def group_walk_graph(group: FiniteAbelianGroup, law: StepLaw) -> Graph:
    """Cayley graph of (G, support(p)) with edge weights p(s).

    Because p is symmetric, both traversal directions of an edge carry
    the same weight and the weighted simple walk on this graph moves
    from x to x+s with probability exactly p(s).
    """
    elements = group.elements()
    edges = {}
    for xi, x in enumerate(elements):
        for s in law.support():
            yi = group.index(group.add(x, s))
            key = (min(xi, yi), max(xi, yi))
            edges.setdefault(key, float(law.table[group.index(s)]))
    triples = tuple((u, v, w) for (u, v), w in sorted(edges.items()))
    return Graph(group.order, triples)


def group_walk_kernel(group: FiniteAbelianGroup, law: StepLaw) -> TransitionKernel:
    return simple_walk_kernel(group_walk_graph(group, law))


# ---------------------------------------------------------------------------
# diagonal torus: coordinate change and the convolution claim
# ---------------------------------------------------------------------------

def diag_torus_map(p: int, displacement) -> tuple[int, int]:
    """Displacement in the diagonal-generator basis of Z_p^2 (odd p).

    The change of basis phi(a, b) = ((a+b)/2, (a-b)/2) is invertible
    exactly when 2 is invertible mod p; its inverse is
    (x, y) -> (x + y, x - y) mod p, which is what the diagonal-step
    convolution formula consumes.
    """
    if p < 3 or p % 2 == 0:
        raise InvalidParameterError("diagonal basis needs odd p >= 3")
    x, y = (int(t) % p for t in displacement)
    return ((x + y) % p, (x - y) % p)


@dataclass(frozen=True)
class ConvolutionReport:
    """Side-by-side of the 1D-convolution claim and the direct engine.

    The claim composes the two cycle-coordinate first-passage laws by
    convolution; the direct series iterates the absorbing system of the
    actual diagonal torus.  Their agreement is *reported*, never
    asserted: first passage of the pair requires both coordinates to sit
    on target simultaneously, which is not the event the convolution
    describes.
    """

    p: int
    start: tuple[int, int]
    target: tuple[int, int]
    diagonal_displacement: tuple[int, int]
    convolution: np.ndarray
    direct: np.ndarray | None
    max_abs_discrepancy: float | None
    notes: tuple[str, ...]


def _cycle_coordinate_pmf(p: int, displacement: int, horizon: int) -> np.ndarray:
    """c_n(i) for n = 0..horizon with c_0(0) = 1 and c_n(0) = 0, n >= 1."""
    out = np.zeros(horizon + 1)
    if displacement % p == 0:
        out[0] = 1.0
        return out
    out[1:] = closed_cycle(p, displacement % p, np.arange(1, horizon + 1))
    return out


def diag_torus_convolution_report(
    p: int,
    start,
    target,
    horizon: int,
    direct: np.ndarray | None,
) -> ConvolutionReport:
    """Evaluate the diagonal-torus convolution claim against the direct engine.

    ``direct`` is the direct engine's series P(tau = n), n = 1..horizon,
    for this start and target on the diagonal torus of side p; it is None
    when start equals target, a pair the direct engine has no series for.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    if p < 3 or p % 2 == 0:
        raise InvalidParameterError("diagonal torus needs odd p >= 3")
    start = tuple(int(t) % p for t in start)
    target = tuple(int(t) % p for t in target)
    a_p, b_p = diag_torus_map(p, (start[0] - target[0], start[1] - target[1]))
    ca = _cycle_coordinate_pmf(p, a_p, horizon)
    cb = _cycle_coordinate_pmf(p, b_p, horizon)
    convolution = np.convolve(ca, cb)[1 : horizon + 1]
    notes = []
    if a_p == 0 or b_p == 0:
        notes.append(
            "degenerate coordinate displacement: the convolution collapses to a"
            " single 1D series (c_0(0) = 1 convention)"
        )
    discrepancy = None
    if start == target:
        notes.append(
            "start equals target: the convolution places all mass at step 0,"
            " which the direct engine excludes by definition"
        )
        direct = None
    else:
        if direct is None or len(direct) != horizon:
            raise InvalidParameterError(f"need the direct series over {horizon} steps")
        discrepancy = float(np.max(np.abs(direct - convolution)))
    return ConvolutionReport(
        p=p,
        start=start,
        target=target,
        diagonal_displacement=(a_p, b_p),
        convolution=convolution,
        direct=direct,
        max_abs_discrepancy=discrepancy,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# step laws of the preset walks
# ---------------------------------------------------------------------------

def _uniform_law(factors: tuple[int, ...], steps) -> tuple[FiniteAbelianGroup, StepLaw]:
    """The uniform law on ``steps`` and their inverses in the group of ``factors``."""
    group = FiniteAbelianGroup(factors)
    support = {group.canonical(s) for s in steps} | {group.neg(s) for s in steps}
    return group, StepLaw.from_pairs(group, [(g, 1.0 / len(support)) for g in support])


def cycle_step_law(k: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    return _uniform_law((_cycle_nodes(k),), [(1,)])


def complete_step_law(k: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    return _uniform_law((_complete_nodes(k),), [(g,) for g in range(1, k)])


def hypercube_step_law(dim: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    _hypercube_nodes(dim)
    return _uniform_law((2,) * dim, np.eye(dim, dtype=int).tolist())


def torus_standard_step_law(p: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    _torus_nodes(p)
    return _uniform_law((p, p), _STANDARD_STEPS)


def torus_diagonal_step_law(p: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    _torus_nodes(p, diagonal=True)
    return _uniform_law((p, p), _DIAGONAL_STEPS)
