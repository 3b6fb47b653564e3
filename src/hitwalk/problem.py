"""One first-passage problem and the engines that answer it.

A :class:`Problem` is a graph spec, a target and an optional start, and
the engines it gets follow from the spec alone: ``--preset cycle:10``
(``parse_preset``) and a graph file holding that spec are one problem.
It builds the graph, the walk kernel, the lumped absorbing chain and the
abelian structure only when an answer reads them, and then once; a
preset family with closed-form classes gives the node count and the
lumped chain without a graph.

``ENGINES`` maps an engine name to a function of (problem, horizon) that
gives P(tau = n), n = 1..horizon, from the start: ``direct``, the lumped
chain's sums and products of non-negative numbers, each term accurate
relative to itself, and ``fourier``, a character sum of signed terms on
abelian Cayley presets, accurate in absolute terms.  ``compare_legs``
names the engines whose series ``compare`` holds against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import abelian as fr
from . import hitting as ht
from .errors import HypothesisError, InvalidParameterError
from .graphs import (
    _PRESETS, Graph, _family, _names_preset, _require_array_size, parse_graph_spec, simple_walk_kernel,
)

__all__ = ["Problem", "parse_preset", "ENGINES", "compare_legs"]


def parse_preset(text: str) -> dict:
    """The graph spec ``{"preset": name, "params": [...]}`` of ``NAME:ARGS``
    text, checked later as a preset file's spec is."""
    name, *args = text.removeprefix("preset:").split(":")
    try:
        params = [int(p) for p in args]
    except ValueError:
        raise InvalidParameterError(f"non-integer preset parameter in {text!r}") from None
    return {"preset": name, "params": params}


@dataclass(frozen=True)
class Problem:
    """A graph spec and a target, with an optional start node.  Building
    one checks the spec, its nodes' range, and that the start is not the
    target."""

    spec: dict
    start: int | None
    target: int

    def __post_init__(self) -> None:
        for node in (self.start, self.target):
            if node is not None and not 0 <= node < self.node_count:
                raise InvalidParameterError(f"node {node} out of range 0..{self.node_count - 1}")
        if self.start == self.target:
            raise InvalidParameterError("--from must differ from --to")

    @property
    def preset(self) -> str | None:
        """The spec's preset name; None for an edge-list spec."""
        return self.spec.get("preset")

    @property
    def params(self) -> list[int]:
        return self.spec.get("params", [])

    @cached_property
    def family(self):
        """The spec's preset family, checked; None for an edge-list spec."""
        return _family(self.preset, self.params) if _names_preset(self.spec) else None

    @cached_property
    def graph(self) -> Graph:
        return parse_graph_spec(self.spec)

    @cached_property
    def node_count(self) -> int:
        if self.family is not None and self.family.closed:
            return self.family.closed[0](*self.params)
        return self.graph.node_count

    @property
    def kernel(self):
        """The graph's one simple walk."""
        return simple_walk_kernel(self.graph)

    @cached_property
    def lumped(self) -> tuple:
        """The lumped absorbing chain and ``rows``, where ``rows[node]`` is
        the row of the node's class: from the family where it has a closed
        form, else from the kernel."""
        lumped = ht._preset_lumped(self.family, self.params, self.target) if self.family else None
        return lumped or ht.lumped_absorbing(self.kernel, self.target)

    @cached_property
    def abelian(self):
        """(group, law, start - target) on an abelian Cayley preset, else None."""
        if self.family is None or self.family.step_law is None:
            return None
        group, law = getattr(fr, self.family.step_law)(*self.params)
        return group, law, group.sub(group.element(self.start), group.element(self.target))

    @property
    def starts(self) -> list[int]:
        """The start, or else every node but the target, counted on the
        built graph even where the family gives the lumped chain: a preset
        too large for memory fails in the build, as on the graph path."""
        if self.start is not None:
            return [self.start]
        return [n for n in range(self.graph.node_count) if n != self.target]


def _direct(problem: Problem, horizon: int) -> np.ndarray:
    # refuse a horizon whose document table (n and P(tau = n) in each of
    # horizon rows) is past any array before the one-column pmf allocates
    _require_array_size(2 * horizon, "pmf table")
    system, rows = problem.lumped
    return ht.pmf(system, horizon, rows=[rows[problem.start]]).probs[:, 0]


def _fourier(problem: Problem, horizon: int) -> np.ndarray:
    if problem.abelian is None:
        raise HypothesisError(
            "fourier engine requires an abelian Cayley walk; applicable presets: "
            + ", ".join(sorted(name for name, family in _PRESETS.items() if family.step_law))
        )
    group, law, displacement = problem.abelian
    return fr.fourier_pmf(group, law, displacement, horizon).probs[:, 0]


ENGINES = {"direct": _direct, "fourier": _fourier}


def compare_legs(problem: Problem) -> tuple[str, ...]:
    """The engines whose series ``compare`` holds against each other: on
    abelian presets fourier, a character sum that never forms the chain."""
    return ("direct",) if problem.abelian is None else ("direct", "fourier")
