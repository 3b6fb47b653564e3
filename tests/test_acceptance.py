"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""
import json

import numpy as np
import pytest

import hitwalk as hw
from hitwalk import abelian as ab
from hitwalk.cli import main as cli_main

from conftest import preset_zoo, regular_degree


def _report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------

def test_criterion_01_hypercube_series():
    series = hw.gf_series(hw.build_hypercube(3), 0, 7, 12)
    expected = {3: 2 / 9, 5: 14 / 81, 7: 98 / 729, 9: 686 / 6561, 11: 4802 / 59049}
    for order, value in expected.items():
        assert series[order] == pytest.approx(value, abs=1e-12)
    for order in (0, 1, 2, 4, 6, 8, 10, 12):
        assert abs(series[order]) <= 1e-12
    _report("PASS criterion 1: hypercube (000)->(111) series coefficients to 1e-12")


def test_criterion_02_s3_series():
    graph = hw.cayley_s3()
    series = hw.gf_series(graph, 0, graph.label_index("(1 3)"), 8)
    expected = [1 / 3, 0.0, 4 / 27, 2 / 27, 20 / 243, 44 / 729, 116 / 2187, 280 / 6561]
    for order, value in enumerate(expected, start=1):
        assert series[order] == pytest.approx(value, abs=1e-12), order
    _report("PASS criterion 2: S_3 series t^1..t^8 to 1e-12")


def test_criterion_03_d8_series():
    graph = hw.cayley_d8()
    series = hw.gf_series(graph, 0, graph.label_index("(1 4)(2 3)"), 11)
    odd = [1 / 3, 4 / 27, 28 / 243, 196 / 2187, 1372 / 19683, 9604 / 177147]
    for order, value in zip(range(1, 12, 2), odd):
        assert series[order] == pytest.approx(value, abs=1e-12), order
    for order in range(2, 12, 2):
        assert abs(series[order]) <= 1e-12
    _report("PASS criterion 3: D_8 series odd orders t^1..t^11 to 1e-12")


def test_criterion_04_cycle_intro_experiment():
    assert hw.cycle_mean(10, 0, 5) == pytest.approx(25.0, abs=1e-12)
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    rep = hw.moments(hw.make_absorbing(kernel, 5))
    exact_mean, _, exact_var = rep.for_state(0)
    assert exact_mean == pytest.approx(25.0, abs=1e-10)
    trials = 10_000
    summary = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=trials, master_seed=42))
    stderr = np.sqrt(exact_var / trials)
    assert abs(summary.mean - 25.0) <= 4 * stderr
    assert abs(summary.variance - exact_var) <= 0.15 * exact_var
    # the published experiment falls inside the same bands
    assert abs(25.0306 - 25.0) <= 4 * stderr
    assert abs(410.0 - exact_var) <= 0.15 * exact_var
    _report(
        f"PASS criterion 4: C_10 0->5 exact mean 25, exact variance {exact_var:.6g};"
        f" simulated mean {summary.mean:.4f}, variance {summary.variance:.4f} in band"
    )


def test_criterion_05_hypercube_intro_experiment():
    kernel = hw.simple_walk_kernel(hw.build_hypercube(3))
    rep = hw.moments(hw.make_absorbing(kernel, 7))
    exact_mean, _, exact_var = rep.for_state(0)
    assert exact_mean == pytest.approx(10.0, abs=1e-10)
    trials = 10_000
    summary = hw.simulate(kernel, 0, 7, hw.SimConfig(trials=trials, master_seed=42))
    stderr = np.sqrt(exact_var / trials)
    assert abs(summary.mean - exact_mean) <= 4 * stderr
    assert abs(summary.variance - exact_var) <= 0.15 * exact_var
    # the published sample variance 63 sits inside the band around the exact value
    assert abs(63.0 - exact_var) <= 0.15 * exact_var
    _report(
        f"PASS criterion 5: Q_3 corner-to-corner exact mean 10, exact variance {exact_var:.6g};"
        f" simulated mean {summary.mean:.4f} in band"
    )


def test_criterion_06_closed_form_equivalence():
    for k in range(2, 9):
        table = hw.pmf(hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(k)), 0), 80)
        for n in range(1, 81):
            assert table.prob(1, n) == pytest.approx(hw.closed_complete(k, n), abs=1e-10)
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            kernel = hw.simple_walk_kernel(hw.build_complete_bipartite(k1, k2))
            table = hw.pmf(hw.make_absorbing(kernel, k1), 80)
            for n in range(1, 81):
                assert table.prob(0, n) == pytest.approx(
                    hw.closed_bipartite(k1, k2, "cross", n), abs=1e-10
                )
                if n % 2 == 0:
                    assert hw.closed_bipartite(k1, k2, "cross", n) == 0.0
                if k2 >= 2:
                    assert table.prob(k1 + 1, n) == pytest.approx(
                        hw.closed_bipartite(k1, k2, "same-side", n), abs=1e-10
                    )
                    if n % 2 == 1:
                        assert hw.closed_bipartite(k1, k2, "same-side", n) == 0.0
    for k in range(3, 13):
        table = hw.pmf(hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(k)), 0), 100)
        for start in range(1, k):
            closed = np.array([hw.closed_cycle(k, start, n) for n in range(1, 101)])
            assert np.max(np.abs(table.column(start) - closed)) <= 1e-10
    for nodes in range(3, 8):
        table = hw.pmf(hw.make_absorbing(hw.simple_walk_kernel(hw.build_path(nodes)), 0), 100)
        for start in range(1, nodes):
            closed = np.array(
                [hw.path_endpoint_pmf(nodes, start, n) for n in range(1, 101)]
            )
            assert np.max(np.abs(table.column(start) - closed)) <= 1e-10
    _report(
        "PASS criterion 6: complete/bipartite/cycle/path closed forms match the"
        " step recurrence to 1e-10"
    )


def _triangle_case(graph, group, law):
    kernel = hw.simple_walk_kernel(graph)
    direct = hw.pmf(hw.make_absorbing(kernel, 0), 200)
    seq = hw.mn_sequence(graph, 200)
    rep = hw.moments(hw.make_absorbing(kernel, 0))
    worst_pmf = 0.0
    worst_mean = worst_var = 0.0
    for idx in range(1, group.order):
        a = direct.column(idx)
        displacement = group.element(idx)
        b = hw.fourier_pmf(group, law, displacement, 200).probs[:, 0]
        c = seq.entry(idx, 0)[1:]
        worst_pmf = max(
            worst_pmf,
            float(np.max(np.abs(a - b))),
            float(np.max(np.abs(a - c))),
            float(np.max(np.abs(b - c))),
        )
        mean = hw.expected_hitting_abelian(group, law, displacement)
        _, variance = hw.variance_abelian(group, law, displacement)
        exact_mean, _, exact_var = rep.for_state(idx)
        worst_mean = max(worst_mean, abs(mean - exact_mean))
        worst_var = max(worst_var, abs(variance - exact_var))
    return worst_pmf, worst_mean, worst_var


def test_criterion_07_cross_engine_triangle():
    worst_pmf = worst_mean = worst_var = 0.0
    for k in range(3, 13):
        group, law = ab.cycle_step_law(k)
        p, m, v = _triangle_case(hw.build_cycle(k), group, law)
        worst_pmf, worst_mean, worst_var = (
            max(worst_pmf, p), max(worst_mean, m), max(worst_var, v),
        )
    group, law = ab.torus_standard_step_law(3)
    p, m, v = _triangle_case(hw.build_torus_standard(3), group, law)
    worst_pmf, worst_mean, worst_var = max(worst_pmf, p), max(worst_mean, m), max(worst_var, v)
    group, law = ab.hypercube_step_law(3)
    p, m, v = _triangle_case(hw.build_hypercube(3), group, law)
    worst_pmf, worst_mean, worst_var = max(worst_pmf, p), max(worst_mean, m), max(worst_var, v)
    assert worst_pmf <= 1e-10
    assert worst_mean <= 1e-8
    assert worst_var <= 1e-8
    _report(
        f"PASS criterion 7: cross-engine triangle (pmf gap {worst_pmf:.2e},"
        f" mean gap {worst_mean:.2e}, variance gap {worst_var:.2e})"
    )


def test_criterion_08_second_moment_correction():
    for name, graph in preset_zoo(max_nodes=6).items():
        kernel = hw.simple_walk_kernel(graph)
        for target in range(graph.node_count):
            system = hw.make_absorbing(kernel, target)
            rep = hw.moments(system)
            table = hw.pmf(system, 100_000)  # every one of the 100000 steps
            assert table.residual.max() < 1e-9, name
            n = np.arange(1, table.horizon + 1, dtype=float)
            for idx, start in enumerate(system.index_map):
                second_sum = float((n * n) @ table.column(start))
                assert second_sum == pytest.approx(rep.second[idx], abs=1e-6), (name, start)
            if graph.node_count <= 5:
                window = np.arange(1, 9, dtype=float)
                for start in system.index_map:
                    brute = hw.brute_pmf(kernel, start, target, 8)
                    head = np.zeros(8)
                    head[: min(8, table.horizon)] = table.column(start)[:8]
                    lhs = float((window**2) @ head)
                    rhs = float((window**2) @ brute)
                    assert lhs == pytest.approx(rhs, abs=1e-12), (name, start)
    k2 = hw.moments(hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(2)), 1))
    assert k2.second[0] == pytest.approx(1.0, abs=1e-12)
    _report(
        "PASS criterion 8: corrected second moment matches pmf sums (1e-6) and"
        " brute enumeration (1e-12); K_2 second moment is 1"
    )


def test_criterion_09_continuous_time():
    for graph in (hw.build_cycle(6), hw.build_hypercube(3), hw.build_complete(4)):
        system = hw.make_absorbing(hw.simple_walk_kernel(graph), 0)
        rep = hw.moments(system)
        mean_max = rep.mean.max()
        times = np.linspace(0.0, 3.0 * mean_max, 100)
        ev = hw.ct_evaluate(system, times, tol=1e-10)
        assert np.min(np.diff(ev.cdf, axis=0)) > -1e-12
        assert np.min(hw.ct_evaluate(system, [50.0 * mean_max], 1e-9).cdf[0]) > 1.0 - 1e-6
        assert np.max(np.abs(hw.ct_moments(system, 1) - rep.mean)) <= 1e-10
        assert np.max(np.abs(hw.ct_moments(system, 2) - (rep.second + rep.mean))) <= 1e-10
        h = 1e-3
        for t in (0.4 * mean_max, mean_max, 2.0 * mean_max):
            grid = hw.ct_evaluate(system, [t - h, t, t + h], tol=1e-12)
            derivative = (grid.cdf[2] - grid.cdf[0]) / (2 * h)
            assert np.max(np.abs(derivative - grid.pdf[1])) <= 1e-6
    _report(
        "PASS criterion 9: continuous-time CDF monotone ->1, moment identities"
        " at 1e-10, PDF matches CDF differences at 1e-6"
    )


def test_criterion_10_trace_recursion_internals():
    cases = {
        "Q3": hw.build_hypercube(3),
        "C8": hw.build_cycle(8),
        "S3": hw.cayley_s3(),
        "D8": hw.cayley_d8(),
    }
    for name, graph in cases.items():
        n = 60
        traces = hw.trace_powers(graph, n).values
        seq = hw.mn_sequence(graph, n)
        b = graph.adjacency_matrix() / regular_degree(graph)
        power = np.eye(graph.node_count)
        for step in range(n + 1):
            acc = sum(traces[k] * seq.matrices[step - k] for k in range(step + 1))
            assert np.max(np.abs(acc - power)) <= 1e-10, (name, step)
            power = power @ b
        for target in (1, graph.node_count - 1):
            ratio = hw.rational_gf(graph, 0, target)
            gap = np.max(np.abs(ratio.series(30) - hw.gf_series(graph, 0, target, 30)))
            assert gap <= 1e-8, (name, target)
    _report(
        "PASS criterion 10: Cauchy-product trace identity (1e-10) and rational-GF"
        " expansion vs series (1e-8) on Q3, C8, S3, D8"
    )


def test_criterion_11_diagonal_torus_report(capsys):
    for p, start in ((3, 3), (5, 11)):
        code = cli_main(
            [
                "compare", "--preset", f"torus_diag:{p}",
                "--from", str(start), "--to", "0",
                "--horizon", "60", "--trials", "2000", "--seed", "17",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        section = doc["payload"]["diag_torus_convolution"]
        assert len(section["convolution_series"]) == 60
        assert len(section["direct_series"]) == 60
        assert section["max_abs_discrepancy"] is not None
        discrepancy = section["max_abs_discrepancy"]

        # the direct engine itself is validated against Monte Carlo
        kernel = hw.simple_walk_kernel(hw.build_torus_diagonal(p))
        rep = hw.moments(hw.make_absorbing(kernel, 0))
        exact_mean, _, exact_var = rep.for_state(start)
        trials = 100_000
        summary = hw.simulate(kernel, start, 0, hw.SimConfig(trials=trials, master_seed=99))
        stderr = np.sqrt(exact_var / trials)
        assert abs(summary.mean - exact_mean) <= 4 * stderr
        with capsys.disabled():
            _report(
                f"PASS criterion 11 (p={p}): compare emits convolution vs direct"
                f" (max discrepancy {discrepancy:.4g}, reported not asserted);"
                f" direct mean {exact_mean:.4f} vs MC {summary.mean:.4f} within 4 SE"
            )
