import numpy as np
import pytest

import hitwalk as hw
from hitwalk.errors import HypothesisError

from conftest import preset_zoo


def vt_graphs():
    return {
        "cycle3": hw.build_cycle(3),
        "cycle8": hw.build_cycle(8),
        "cycle10": hw.build_cycle(10),
        "hypercube3": hw.build_hypercube(3),
        "complete4": hw.build_complete(4),
        "cayley_s3": hw.cayley_s3(),
        "cayley_d8": hw.cayley_d8(),
    }


# --- trace power table -------------------------------------------------------

def test_trace_t1_vanishes_for_simple_graphs():
    for name, g in vt_graphs().items():
        table = hw.trace_powers(g, 3)
        assert table.values[0] == 1.0
        assert table.values[1] == pytest.approx(0.0, abs=1e-15), name


def test_trace_q3_two_step():
    table = hw.trace_powers(hw.build_hypercube(3), 2)
    assert table.values[2] == pytest.approx(1 / 3, abs=1e-15)  # 24 / (8 * 9)


def test_trace_c4_two_step():
    table = hw.trace_powers(hw.build_cycle(4), 2)
    assert table.values[2] == pytest.approx(0.5, abs=1e-15)  # 8 / (4 * 4)


def test_trace_bounded_by_one():
    for name, g in vt_graphs().items():
        table = hw.trace_powers(g, 40)
        assert np.max(np.abs(table.values)) <= 1.0 + 1e-12, name


def test_trace_requires_regular():
    with pytest.raises(HypothesisError):
        hw.trace_powers(hw.build_path(4), 3)


# --- first-passage matrices ----------------------------------------------------

def test_mn_q3_antipodal_third_step():
    seq = hw.mn_sequence(hw.build_hypercube(3), 3)
    assert seq.matrices[3][0, 7] == pytest.approx(2 / 9, abs=1e-14)


def test_mn_diagonal_vanishes():
    seq = hw.mn_sequence(hw.build_hypercube(3), 6)
    for n in range(1, 7):
        assert np.max(np.abs(np.diag(seq.matrices[n]))) < 1e-12


def test_mn_s3_fourth_step():
    g = hw.cayley_s3()
    seq = hw.mn_sequence(g, 4)
    target = g.label_index("(1 3)")
    assert seq.matrices[4][0, target] == pytest.approx(2 / 27, abs=1e-14)


def test_mn_matches_direct_pmf_everywhere():
    graphs = vt_graphs()
    for k in range(3, 11):
        graphs[f"cycle{k}"] = hw.build_cycle(k)
    for name, g in graphs.items():
        seq = hw.mn_sequence(g, 100)
        kernel = hw.simple_walk_kernel(g)
        for target in range(g.node_count):
            direct = hw.pmf(hw.make_absorbing(kernel, target), 100, stop_early=False)
            for start in range(g.node_count):
                if start == target:
                    continue
                assert np.allclose(
                    seq.entry(start, target)[1:], direct.column(start), atol=1e-10
                ), (name, start, target)


def test_cauchy_product_identity():
    # sum_{k=0..n} t_k M_{n-k} = (A/d)^n, the pivot of the trace recursion
    for name, g in vt_graphs().items():
        n = 40
        traces = hw.trace_powers(g, n).values
        seq = hw.mn_sequence(g, n)
        b = g.adjacency_matrix() / g.regular_degree()
        power = np.eye(g.node_count)
        for step in range(n + 1):
            acc = sum(traces[k] * seq.matrices[step - k] for k in range(step + 1))
            assert np.max(np.abs(acc - power)) < 1e-10, (name, step)
            power = power @ b


def test_mn_rejects_non_walk_regular_graph():
    # cubic connected graph where nodes 6, 7 sit in no triangle, so the
    # 3-step return probabilities differ
    g = hw.Graph(
        8,
        (
            (0, 1), (0, 2), (1, 2),
            (3, 4), (3, 5), (4, 5),
            (0, 3), (1, 6), (4, 6), (2, 7), (5, 7), (6, 7),
        ),
    )
    assert g.regular_degree() == 3
    with pytest.raises(HypothesisError, match="node 6 returns in 3 steps"):
        hw.mn_sequence(g, 6)
    # through step 2 every node returns with probability 1/3: still exact
    seq = hw.mn_sequence(g, 2)
    kernel = hw.simple_walk_kernel(g)
    for target in range(8):
        direct = hw.pmf(hw.make_absorbing(kernel, target), 2, stop_early=False)
        for start in direct.states:
            assert np.allclose(seq.entry(start, target)[1:], direct.column(start), atol=1e-15)


# --- series extraction ------------------------------------------------------------

def test_gf_series_d8_benchmark_pair():
    g = hw.cayley_d8()
    series = hw.gf_series(g, 0, g.label_index("(1 4)(2 3)"), 5)
    assert series[1] == pytest.approx(1 / 3, abs=1e-14)
    assert series[3] == pytest.approx(4 / 27, abs=1e-14)
    assert series[5] == pytest.approx(28 / 243, abs=1e-14)


def test_gf_series_hypercube_higher_orders():
    series = hw.gf_series(hw.build_hypercube(3), 0, 7, 7)
    assert series[5] == pytest.approx(14 / 81, abs=1e-14)
    assert series[7] == pytest.approx(98 / 729, abs=1e-14)


def test_gf_series_zero_constant_term():
    series = hw.gf_series(hw.build_cycle(5), 2, 0, 4)
    assert series[0] == 0.0


@pytest.mark.parametrize(
    "graph, n",
    [(hw.cayley_s3(), 1600), (hw.cayley_d8(), 1600), (hw.build_hypercube(3), 200),
     (hw.build_torus_standard(4), 200)],
    ids=["cayley_s3", "cayley_d8", "hypercube3", "torus_std4"],
)
def test_gf_series_matches_mn_sequence_entry(graph, n):
    seq = hw.mn_sequence(graph, n)
    for start in (0, graph.node_count - 1):
        for target in range(graph.node_count):
            series = hw.gf_series(graph, start, target, n)
            assert np.max(np.abs(series - seq.entry(start, target))) < 1e-14, (start, target)


def test_gf_series_peak_memory_is_one_entry():
    # the (h+1) x V x V first-passage stack of torus_std:20 at h = 64 takes 84 MiB
    import tracemalloc

    g = hw.build_torus_standard(20)
    tracemalloc.start()
    try:
        series = hw.gf_series(g, 0, 21, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 65
    assert peak < 10 * 2**20


# --- rational generating function ---------------------------------------------------

def test_rational_gf_denominator_at_zero_is_node_count():
    for name, g in vt_graphs().items():
        ratio = hw.rational_gf(g, 0, g.node_count - 1)
        assert ratio.denominator[0] == pytest.approx(g.node_count, rel=1e-8), name


def test_rational_gf_k2_is_t():
    ratio = hw.rational_gf(hw.build_complete(2), 0, 1)
    series = ratio.series(4)
    assert np.allclose(series, [0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_rational_gf_expansion_matches_series():
    for g in (hw.build_hypercube(3), hw.build_cycle(8), hw.cayley_s3(), hw.cayley_d8()):
        for target in (1, g.node_count - 1):
            ratio = hw.rational_gf(g, 0, target)
            expanded = ratio.series(30)
            direct = hw.gf_series(g, 0, target, 30)
            assert np.max(np.abs(expanded - direct)) < 1e-8


def reference_series(ratio, n):
    """Long division of numerator by denominator, one coefficient at a time."""
    num, den = ratio.numerator, ratio.denominator
    out = np.zeros(n + 1)
    for m in range(n + 1):
        acc = num[m] if m < len(num) else 0.0
        for k in range(1, min(m, len(den) - 1) + 1):
            acc -= den[k] * out[m - k]
        out[m] = acc / den[0]
    return out


@pytest.mark.parametrize(
    "preset", ["cycle:12", "hypercube:4", "torus_std:5", "cayley_s3", "complete:2", "bipartite:3:3"]
)
def test_rational_gf_series_matches_long_division(preset):
    # the vectorised division sums in another order, so it may differ from
    # the loop by round-off
    name, *params = preset.split(":")
    g = hw.preset_graph(name, [int(p) for p in params])
    for target in range(1, g.node_count):
        ratio = hw.rational_gf(g, 0, target)
        for n in (0, 1, 3 * g.node_count):
            assert np.max(np.abs(ratio.series(n) - reference_series(ratio, n))) <= 64 * np.finfo(float).eps


def test_rational_gf_interpolation_route_on_q3():
    # the adjugate entry sampled at a few points, V * adj(I - (t/3)A)_{0,7}
    # = 8 * (-1)^{0+7} * det(minor), is the numerator the series algebra found
    g = hw.build_hypercube(3)
    a = g.adjacency_matrix()
    ratio = hw.rational_gf(g, 0, 7)
    for t in (-0.9, -0.3, 0.2, 0.7, 1.5):
        m = np.eye(8) - (t / 3) * a
        minor = np.delete(np.delete(m, 7, axis=0), 0, axis=1)
        expected = 8.0 * (-1.0) ** 7 * np.linalg.det(minor)
        assert np.polynomial.polynomial.polyval(t, ratio.numerator) == pytest.approx(
            expected, abs=1e-10
        )


def test_rational_gf_denominator_is_newton_form():
    # V c(t) - t c'(t) with c(t) = det(I - (t/d)A), degree V-1
    for name, g in vt_graphs().items():
        v = g.node_count
        ratio = hw.rational_gf(g, 0, v - 1)
        b = g.adjacency_matrix() / g.regular_degree()
        for t in (-0.8, 0.3, 1.1):
            c = np.linalg.det(np.eye(v) - t * b)
            h = 1e-6
            dc = (np.linalg.det(np.eye(v) - (t + h) * b) - np.linalg.det(np.eye(v) - (t - h) * b)) / (2 * h)
            got = np.polynomial.polynomial.polyval(t, ratio.denominator)
            assert got == pytest.approx(v * c - t * dc, abs=1e-6), (name, t)


def test_spectral_common_edge_weight_cancels():
    cycle = hw.build_cycle(6)
    halved = hw.Graph(6, tuple((u, v, 0.5) for u, v, _ in cycle.edges))
    assert np.array_equal(hw.gf_series(halved, 0, 3, 20), hw.gf_series(cycle, 0, 3, 20))
