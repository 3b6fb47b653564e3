"""Character-based engine for symmetric walks on finite abelian groups.

A finite abelian group G = Z_{n_1} x ... x Z_{n_m} has exactly |G|
one-dimensional characters

    rho_a(g) = exp(2 pi i sum_l a_l g_l / n_l),

enumerated here lexicographically with the trivial character first.
With the transform  f^(rho) = sum_g f(g) rho(g)  and a symmetric step
law p (p(g) = p(-g), p(e) = 0), hitting quantities to the identity
become character sums:

* expected hitting time   h(g) = sum_{a != 0} (1 - rho_a(g)) / (1 - p^(rho_a))
* second moment           q(g) = (1/|G|) sum_{a != 0}
      [ 2|G| p^(rho_a) / (1 - p^(rho_a))^2 + q* / (1 - p^(rho_a)) ]
      * (1 - rho_a(g^{-1}))
  with q* = E[(tau^+)^2] the return second moment, and the
  variance q(g) - h(g)^2
* return second moment    q* = |G| (1 + 2 sum_{a != 0} 1 / (1 - p^(rho_a)))
  The stationary law is uniform, so E_0 tau^+ = |G|, the eigentime
  identity gives E_pi tau_0 = sum_{a != 0} 1 / (1 - p^(rho_a)), and
  E_0[(tau^+)^2] = E_0 tau^+ (2 E_pi tau_0 + 1) (Aldous & Fill,
  *Reversible Markov Chains and Random Walks on Graphs*, ch. 2 sec. 2.2
  and ch. 3 sec. 3).  Every moment is thus a sum over the same spectral
  gaps, and no absorbing chain is built.
* the step-distribution recurrence in the transform domain,
      v_n = diag(p^) v_{n-1} - (1/|G|) (sum_a p^_a v_{n-1,a}) * 1,
  whose inverse transform is m_n(g) = P(tau_{g,e} = n).

The character table of G = G_1 x G_2 is the Kronecker product of the
tables of G_1 and G_2 (Diaconis, *Group Representations in Probability
and Statistics*, 1988, ch. 3), so the dense |G| x |G| table is never
formed.  The factors are split into a prefix G_1 and a suffix G_2 of
orders as even as possible; with f laid out as a |G_1| x |G_2| grid the
transform is H f T and its inverse conj(H) f^ conj(T) / |G|, where H and
T are the (cached) tables of G_1 and G_2.  A recurrence step then costs
O(|G| (|G_1| + |G_2|)), and one character column rho_a(g), all a, is the
outer product of a column of H and a column of T, O(|G|).

Complex arithmetic is kept all the way through; realness of outputs is
asserted at the end, never assumed mid-computation.  A character sum
may carry an imaginary part up to ``IMAGINARY_DISCARD`` times the sum of
its terms' magnitudes, the scale of its round-off; a larger one raises
:class:`NumericalError`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, NotErgodicError, NumericalError
from .graphs import Graph, TransitionKernel, _require_array_size, simple_walk_kernel
from .hitting import PmfTable, closed_cycle
from .linalg import IMAGINARY_DISCARD

__all__ = [
    "FiniteAbelianGroup",
    "StepLaw",
    "CharacterBasis",
    "character_basis",
    "fourier",
    "inverse_fourier",
    "law_transform",
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
    symmetric: rho_a(g) = rho_g(a).
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        elements = np.array(group.elements())  # (|G|, m)
        phases = np.zeros((group.order, group.order))
        for l, n in enumerate(group.factors):
            phases += np.outer(elements[:, l], elements[:, l]) / n
        self.matrix = np.exp(2j * np.pi * phases)
        self.matrix.setflags(write=False)


@lru_cache(maxsize=64)
def _cached_basis(factors: tuple[int, ...]) -> CharacterBasis:
    return CharacterBasis(FiniteAbelianGroup(factors))


def character_basis(group: FiniteAbelianGroup) -> CharacterBasis:
    return _cached_basis(group.factors)


def _block_tables(group: FiniteAbelianGroup) -> tuple[np.ndarray, np.ndarray]:
    """Character tables (head, tail) of a prefix and a suffix of the factors
    whose orders are as even as possible; a single factor has the 1x1
    table of the trivial group as its tail."""
    factors = group.factors
    prefix_orders = np.cumprod(factors)
    split = int(np.argmin(np.maximum(prefix_orders, group.order // prefix_orders))) + 1
    head = character_basis(FiniteAbelianGroup(factors[:split])).matrix
    if split == len(factors):
        return head, np.ones((1, 1))
    return head, character_basis(FiniteAbelianGroup(factors[split:])).matrix


def _character_column(group: FiniteAbelianGroup, g) -> np.ndarray:
    """rho_a(g) for every character a, in O(|G|)."""
    head, tail = _block_tables(group)
    g_head, g_tail = divmod(group.index(g), len(tail))
    return np.outer(head[:, g_head], tail[:, g_tail]).ravel()


def fourier(group: FiniteAbelianGroup, values) -> np.ndarray:
    """Transform f^(rho_a) = sum_g f(g) rho_a(g), indexed by character."""
    values = np.asarray(values)
    if values.shape != (group.order,):
        raise InvalidParameterError("function length must equal group order")
    head, tail = _block_tables(group)
    return (head @ values.reshape(len(head), len(tail)) @ tail).ravel()


def inverse_fourier(group: FiniteAbelianGroup, transform) -> np.ndarray:
    """Inverse transform f(g) = (1/|G|) sum_a rho_a(g^{-1}) f^(rho_a)."""
    transform = np.asarray(transform, dtype=complex)
    if transform.shape != (group.order,):
        raise InvalidParameterError("transform length must equal group order")
    head, tail = _block_tables(group)
    grid = transform.reshape(len(head), len(tail))
    return (head.conj() @ grid @ tail.conj()).ravel() / group.order


def law_transform(group: FiniteAbelianGroup, law: StepLaw) -> np.ndarray:
    """Transform of the step law, with its contract checked.

    Stochasticity pins the trivial coefficient at 1, probabilities bound
    every magnitude by 1, and symmetry of the law makes every value real
    (asserted within ``IMAGINARY_DISCARD``, then kept as complex for the
    engines).
    """
    p_hat = fourier(group, law.table)
    if abs(p_hat[0] - 1.0) > 1e-9:
        raise InvalidParameterError("trivial transform coefficient must be 1")
    if np.max(np.abs(p_hat)) > 1.0 + 1e-9:
        raise InvalidParameterError("transform magnitude exceeded 1")
    if np.max(np.abs(p_hat.imag)) > IMAGINARY_DISCARD:
        raise InvalidParameterError("symmetric law must have a real transform")
    return p_hat


def _spectral_gaps(group: FiniteAbelianGroup, law: StepLaw) -> np.ndarray:
    """1 - p^(rho_a) for every nontrivial character a.

    Formed as 2 sum_s p(s) sin^2(pi <a, s>), <a, s> = sum_l a_l s_l / n_l,
    with <a, s> reduced exactly (in integers modulo the lcm of the moduli)
    to the nearest whole number, so a gap near 0 keeps its relative
    accuracy; 1 - p^ by subtraction loses it to cancellation.
    """
    factors = np.array(group.factors)
    lcm = np.lcm.reduce(factors)
    chars = np.stack(np.unravel_index(np.arange(1, group.order), group.factors), axis=1)
    support = np.flatnonzero(law.table)
    steps = np.stack(np.unravel_index(support, group.factors), axis=1)
    turns = (chars * (lcm // factors)) @ steps.T % lcm
    turns = np.where(2 * turns > lcm, turns - lcm, turns) / lcm
    return 2.0 * np.sin(np.pi * turns) ** 2 @ law.table[support]


def _return_second_moment(order: int, gaps: np.ndarray) -> float:
    """q* = E[(tau^+)^2] = |G| (1 + 2 sum_{a != 0} 1 / gap_a), by the
    eigentime identity (see the module docstring)."""
    return order * (1.0 + 2.0 * float(np.sum(1.0 / gaps)))


def _require_ergodic(gaps: np.ndarray) -> None:
    if not np.all(gaps > 0.0):
        raise NotErgodicError(
            "a nontrivial transform coefficient equals 1; the step law does not generate the group"
        )


def _real_sum(terms: np.ndarray) -> float:
    """Sum of a character series whose exact value is real.

    Round-off in a sum scales with the sum of its terms' magnitudes, so
    the imaginary part is bounded relative to that scale, never below
    ``IMAGINARY_DISCARD`` itself.
    """
    total = np.sum(terms)
    bound = IMAGINARY_DISCARD * max(1.0, float(np.sum(np.abs(terms))))
    if abs(total.imag) > bound:
        raise NumericalError(f"imaginary part {total.imag:.3e} beyond tolerance {bound:.3e}")
    return float(total.real)


def expected_hitting_abelian(group: FiniteAbelianGroup, law: StepLaw, g) -> float:
    """h(g) = E[tau] between any pair at displacement g.

    Character sum over the nontrivial characters; walks with some
    transform coefficient at -1 (bipartite-like) are fine, only a
    coefficient at +1 (non-generating support) is rejected.
    """
    g = group.canonical(g)
    law_transform(group, law)
    gaps = _spectral_gaps(group, law)
    _require_ergodic(gaps)
    chi = _character_column(group, g)[1:]
    return _real_sum((1.0 - chi) / gaps)


def variance_abelian(group: FiniteAbelianGroup, law: StepLaw, g) -> tuple[float, float]:
    """Second moment q(g) and variance of the hitting time at displacement g.

    Every term is a character sum over the spectral gaps 1 - p^(rho_a),
    with no linear solve, the return second moment included:
    q* = |G| (1 + 2 sum_{a != 0} 1 / (1 - p^(rho_a))) by the eigentime
    identity for a walk with uniform stationary law (Aldous & Fill,
    *Reversible Markov Chains and Random Walks on Graphs*, ch. 2 sec. 2.2
    and ch. 3 sec. 3).  Note the ``+ q*/(1 - p^)`` sign: the printed
    ``-`` variant fails the two-node sanity check (it yields -3 where the
    truth is E[tau^2] = 1) while this form matches the general-graph
    engine on every cross-checked family.
    """
    g = group.canonical(g)
    p_hat = law_transform(group, law)
    gaps = _spectral_gaps(group, law)
    _require_ergodic(gaps)
    qstar = _return_second_moment(group.order, gaps)
    chi = _character_column(group, g)[1:]  # rho_a(g); rho_a(g^{-1}) is its conjugate
    bracket = 2.0 * group.order * p_hat[1:] / gaps**2 + qstar / gaps
    q_val = _real_sum(bracket * (1.0 - chi.conj()) / group.order)
    h_val = _real_sum((1.0 - chi) / gaps)
    variance = q_val - h_val**2
    if variance < -1e-8:
        raise InvalidParameterError("negative variance beyond tolerance")
    return q_val, float(variance)


def fourier_pmf(group: FiniteAbelianGroup, law: StepLaw, horizon: int) -> PmfTable:
    """Hitting distribution to the identity for every start, by the
    transform-domain recurrence.

    Column g of the table is P(tau_{g,e} = n) for n = 1..horizon.  The
    identity's own column must vanish for n >= 1 and no entry may fall
    below 0 (both within 1e-10), and every imaginary part must stay within
    ``IMAGINARY_DISCARD``; a breach raises :class:`NumericalError`.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    _require_array_size(horizon * group.order, "fourier table")
    p_hat = law_transform(group, law)
    order = group.order
    head, tail = _block_tables(group)
    inv_head, inv_tail = head.conj() / order, tail.conj()
    shape = (len(head), len(tail))
    probs = np.empty((horizon, order))
    v = p_hat.copy()  # transform of m_1 = p
    for n in range(horizon):
        m_n = (inv_head @ v.reshape(shape) @ inv_tail).ravel()
        if np.max(np.abs(m_n.imag)) > IMAGINARY_DISCARD:
            raise NumericalError("step distribution developed an imaginary part")
        real = m_n.real
        if abs(real[0]) > 1e-10:
            raise NumericalError(f"m_{n + 1}(e) = {real[0]:.3e}, expected 0")
        if real.min() < -1e-10:
            raise NumericalError("negative probability beyond tolerance")
        np.clip(real, 0.0, None, out=probs[n])
        correction = np.sum(p_hat * v) / order
        v = p_hat * v - correction
    residual = 1.0 - probs.sum(axis=0)
    residual[0] = 1.0  # the identity never "hits" in n >= 1 steps
    return PmfTable(
        probs=probs,
        states=tuple(range(order)),
        target=0,
        residual=residual,
        requested_horizon=horizon,
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
    labels = tuple(str(e) for e in elements)
    triples = tuple((u, v, w) for (u, v), w in sorted(edges.items()))
    return Graph(group.order, triples, labels=labels)


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
    for n in range(1, horizon + 1):
        out[n] = closed_cycle(p, displacement % p, n)
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

def cycle_step_law(k: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    group = FiniteAbelianGroup((k,))
    return group, StepLaw.from_pairs(group, [((1,), 0.5), ((-1,), 0.5)])


def complete_step_law(k: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    if k < 2:
        raise InvalidParameterError("complete graph needs k >= 2")
    group = FiniteAbelianGroup((k,))
    pairs = [((g,), 1.0 / (k - 1)) for g in range(1, k)]
    return group, StepLaw.from_pairs(group, pairs)


def hypercube_step_law(dim: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    group = FiniteAbelianGroup((2,) * dim)
    pairs = []
    for l in range(dim):
        e = [0] * dim
        e[l] = 1
        pairs.append((tuple(e), 1.0 / dim))
    return group, StepLaw.from_pairs(group, pairs)


def torus_standard_step_law(p: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    group = FiniteAbelianGroup((p, p))
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return group, StepLaw.from_pairs(group, [(s, 0.25) for s in steps])


def torus_diagonal_step_law(p: int) -> tuple[FiniteAbelianGroup, StepLaw]:
    if p % 2 == 0:
        raise InvalidParameterError("diagonal torus needs odd p")
    group = FiniteAbelianGroup((p, p))
    steps = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    return group, StepLaw.from_pairs(group, [(s, 0.25) for s in steps])
