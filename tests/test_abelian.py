import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hitwalk as hw
from hitwalk import abelian as ab
from hitwalk import hitting, linalg
from hitwalk.errors import InvalidParameterError, NotErgodicError, NumericalError

Z4 = ab.FiniteAbelianGroup((4,))


# --- group arithmetic -----------------------------------------------------------

def test_group_basics():
    g = ab.FiniteAbelianGroup((2, 3))
    assert g.order == 6
    assert g.identity == (0, 0)
    assert g.index((1, 2)) == 5
    assert g.element(5) == (1, 2)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 2)


def test_group_rejects_tiny_modulus():
    with pytest.raises(InvalidParameterError):
        ab.FiniteAbelianGroup((1,))


def test_step_law_validation():
    g = ab.FiniteAbelianGroup((4,))
    with pytest.raises(InvalidParameterError):
        ab.StepLaw.from_pairs(g, [((1,), 1.0)])  # asymmetric
    with pytest.raises(InvalidParameterError):
        ab.StepLaw.from_pairs(g, [((0,), 0.5), ((2,), 0.5)])  # self-loop mass
    with pytest.raises(InvalidParameterError):
        ab.StepLaw.from_pairs(g, [((1,), 0.3), ((3,), 0.3)])  # not normalized
    with pytest.raises(InvalidParameterError):
        # symmetric only if just the first coordinate were negated
        ab.StepLaw.from_pairs(ab.FiniteAbelianGroup((3, 4)), [((1, 1), 0.5), ((2, 1), 0.5)])


@pytest.mark.parametrize("factors", [(6,), (3, 4), (2, 3, 5)])
def test_step_law_symmetry_matches_elementwise_negation(factors):
    # a two-point law is symmetric exactly when group.neg maps its support onto itself
    group = ab.FiniteAbelianGroup(factors)
    elements = group.elements()[1:]
    for g in elements:
        for h in elements:
            if h == g:
                continue
            pairs = [(g, 0.5), (h, 0.5)]
            if {group.neg(g), group.neg(h)} == {g, h}:
                ab.StepLaw.from_pairs(group, pairs)
            else:
                with pytest.raises(InvalidParameterError):
                    ab.StepLaw.from_pairs(group, pairs)


# --- characters -------------------------------------------------------------------

@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (12,), (2, 2, 2), (3, 3), (4, 3), (2, 3, 4), (8, 8, 8)],
)
def test_character_table_properties(factors):
    group = ab.FiniteAbelianGroup(factors)
    basis = ab.character_basis(group).matrix
    order = group.order
    assert basis.shape == (order, order)
    # trivial character first, value 1 everywhere
    assert np.allclose(basis[0], 1.0)
    # nontrivial characters sum to zero over the group
    sums = basis.sum(axis=1)
    assert np.max(np.abs(sums[1:])) < 1e-10
    # orthogonality (1/|G|) sum_g rho_a conj(rho_b) = [a == b]
    gram = basis @ basis.conj().T / order
    assert np.max(np.abs(gram - np.eye(order))) < 1e-10


def test_fourier_of_delta_is_constant():
    g = ab.FiniteAbelianGroup((2, 3))
    f = np.zeros(g.order)
    f[0] = 1.0
    assert np.allclose(ab.fourier(g, f), 1.0)


def test_fourier_of_uniform_is_delta():
    g = ab.FiniteAbelianGroup((5,))
    f = np.full(5, 1 / 5)
    out = ab.fourier(g, f)
    assert out[0] == pytest.approx(1.0)
    assert np.max(np.abs(out[1:])) < 1e-12


def test_z4_walk_transform():
    _, law = ab.cycle_step_law(4)
    out = ab.fourier(Z4, law.table)
    assert np.allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-12)


def test_real_transform_contract():
    for maker in (
        lambda: ab.cycle_step_law(7),
        lambda: ab.hypercube_step_law(3),
        lambda: ab.torus_diagonal_step_law(5),
        lambda: ab.complete_step_law(6),
        lambda: ab.complete_step_law(200),  # a matrix product summed some rows apart
    ):
        group, law = maker()
        p_hat = ab._real_transform(group, law)
        assert p_hat.dtype == np.float64
        assert p_hat[0] == 1.0
        assert np.max(np.abs(p_hat)) <= 1.0
        negated = [group.index(group.neg(a)) for a in group.elements()]
        assert np.array_equal(p_hat, p_hat[negated])
        # the dense complex transform agrees
        assert np.max(np.abs(ab.fourier(group, law.table) - p_hat)) < 1e-12


@given(
    factors=st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_and_plancherel(factors, seed):
    group = ab.FiniteAbelianGroup(tuple(factors))
    rng = np.random.default_rng(seed)
    f = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
    g = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
    assert np.allclose(ab.inverse_fourier(group, ab.fourier(group, f)), f, atol=1e-10)
    # sum_a f(a) g(a^{-1}) = (1/|G|) sum_rho f^ g^
    lhs = sum(
        f[group.index(el)] * g[group.index(group.neg(el))] for el in group.elements()
    )
    rhs = np.sum(ab.fourier(group, f) * ab.fourier(group, g)) / group.order
    assert abs(lhs - rhs) < 1e-9


def test_plancherel_hundred_random_pairs():
    group = ab.FiniteAbelianGroup((3, 4))
    rng = np.random.default_rng(2024)
    neg_index = [group.index(group.neg(el)) for el in group.elements()]
    for _ in range(100):
        f = rng.normal(size=group.order)
        g = rng.normal(size=group.order)
        lhs = float(np.sum(f * g[neg_index]))
        rhs = np.sum(ab.fourier(group, f) * ab.fourier(group, g)) / group.order
        assert abs(lhs - rhs) < 1e-9


def kronecker_table(factors):
    """Character table of Z_{n_1} x ... x Z_{n_m}: the Kronecker product of
    each factor's cyclic table exp(2 pi i jk / n), last factor fastest."""
    table = np.ones((1, 1))
    for n in factors:
        k = np.arange(n)
        table = np.kron(table, np.exp(2j * np.pi * np.outer(k, k) / n))
    return table


@pytest.mark.parametrize("factors", [(400,), (31, 31)])
def test_character_table_is_rounded_from_reduced_turns(factors):
    # reference in long double, each factor's jk reduced mod n in integers;
    # a table from unreduced float phases is 4.8e-13 off on (400,)
    pi = 4 * np.arctan(np.longdouble(1))
    reference = np.ones((1, 1), dtype=np.clongdouble)
    for n in factors:
        angle = 2 * pi * (np.outer(np.arange(n), np.arange(n)) % n) / n
        reference = np.kron(reference, np.cos(angle) + 1j * np.sin(angle))
    table = ab.CharacterBasis(ab.FiniteAbelianGroup(factors)).matrix
    assert np.max(np.abs(table - reference)) <= 2e-15


@pytest.mark.parametrize(
    "factors", [(400,), (31,), (2,) * 10, (31, 31), (3, 4, 5), (2, 3, 2, 5)]
)
def test_transform_matches_dense_character_table(factors):
    group = ab.FiniteAbelianGroup(factors)
    dense = kronecker_table(factors)
    assert np.max(np.abs(ab.CharacterBasis(group).matrix - dense)) < 1e-12
    rng = np.random.default_rng(len(factors) * 1000 + group.order)
    f = rng.uniform(size=group.order) + 1j * rng.uniform(size=group.order)
    f /= np.abs(f).sum()
    transform = ab.fourier(group, f)
    assert np.max(np.abs(transform - dense @ f)) < 1e-12
    inverse = ab.inverse_fourier(group, transform)
    assert np.max(np.abs(inverse - dense.conj().T @ transform / group.order)) < 1e-12


# --- expected hitting time ----------------------------------------------------------

def test_expected_hitting_cycle_displacements():
    group, law = ab.cycle_step_law(10)
    for d in range(1, 10):
        expected = d * (10 - d) if d <= 5 else (10 - d) * d
        assert hw.expected_hitting_abelian(group, law, (d,)) == pytest.approx(
            expected, abs=1e-9
        )


def test_expected_hitting_identity_is_zero():
    group, law = ab.cycle_step_law(6)
    assert hw.expected_hitting_abelian(group, law, (0,)) == pytest.approx(0.0, abs=1e-10)


def test_expected_hitting_torus_matches_direct():
    group, law = ab.torus_standard_step_law(3)
    kernel = hw.simple_walk_kernel(hw.build_torus_standard(3))
    rep = hw.moments(hw.make_absorbing(kernel, 0))
    for idx in range(1, 9):
        mean = hw.expected_hitting_abelian(group, law, group.element(idx))
        assert mean == pytest.approx(rep.for_state(idx)[0], abs=1e-9)


def test_not_ergodic_rejected():
    group = ab.FiniteAbelianGroup((4,))
    law = ab.StepLaw.from_pairs(group, [((2,), 1.0)])  # 2 = -2 generates only {0, 2}
    with pytest.raises(NotErgodicError):
        hw.expected_hitting_abelian(group, law, (1,))


def test_bipartite_like_walks_allowed():
    # the +-1 walk on an even cycle has a transform value of -1; fine
    group, law = ab.cycle_step_law(6)
    assert hw.expected_hitting_abelian(group, law, (3,)) == pytest.approx(9.0, abs=1e-9)


# --- variance -------------------------------------------------------------------------

def test_variance_triangle():
    group, law = ab.cycle_step_law(3)
    q, var = hw.variance_abelian(group, law, (1,))
    assert q == pytest.approx(6.0, abs=1e-10)
    assert var == pytest.approx(2.0, abs=1e-10)


def test_variance_identity_is_zero():
    group, law = ab.cycle_step_law(5)
    q, var = hw.variance_abelian(group, law, (0,))
    assert q == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-10)


def test_variance_z5_matches_direct():
    group, law = ab.cycle_step_law(5)
    kernel = hw.simple_walk_kernel(hw.build_cycle(5))
    rep = hw.moments(hw.make_absorbing(kernel, 0))
    for d in range(1, 5):
        q, var = hw.variance_abelian(group, law, (d,))
        mean, second, variance = rep.for_state(d)
        assert q == pytest.approx(second, abs=1e-8)
        assert var == pytest.approx(variance, abs=1e-8)


@pytest.mark.parametrize("k, d", [(5, 2), (40, 13), (378, 131)])
def test_variance_cycle_closed_form(k, d):
    # 1 - p^ near 0 must not come from a subtraction (was 6.7e-10 off at k = 378)
    group, law = ab.cycle_step_law(k)
    exact = d * (k - d) * (d**2 + (k - d) ** 2 - 2) / 3
    _, var = hw.variance_abelian(group, law, (d,))
    assert abs(var - exact) <= 1e-11 * exact


ABELIAN_PRESETS = {
    "cycle": (ab.cycle_step_law, hw.build_cycle),
    "complete": (ab.complete_step_law, hw.build_complete),
    "hypercube": (ab.hypercube_step_law, hw.build_hypercube),
    "torus_std": (ab.torus_standard_step_law, hw.build_torus_standard),
    "torus_diag": (ab.torus_diagonal_step_law, hw.build_torus_diagonal),
}


@pytest.mark.parametrize("name, n", [
    ("cycle", 3), ("cycle", 4), ("complete", 2), ("complete", 7), ("hypercube", 1), ("hypercube", 5),
    ("torus_std", 3), ("torus_std", 4), ("torus_diag", 3), ("torus_diag", 9),
])
def test_step_law_is_the_walk_row_of_the_identity(name, n):
    step_law, build = ABELIAN_PRESETS[name]
    _, law = step_law(n)
    assert law.table.tobytes() == hw.simple_walk_kernel(build(n)).matrix[0].tobytes()


@pytest.mark.parametrize("name, n", [
    ("cycle", 2), ("cycle", 0), ("complete", 1), ("hypercube", 0), ("torus_std", 2), ("torus_diag", 1), ("torus_diag", 4),
])
def test_step_law_refuses_what_its_graph_builder_refuses(name, n):
    # one node-count check per family, so one message
    step_law, build = ABELIAN_PRESETS[name]
    with pytest.raises(InvalidParameterError) as refused:
        build(n)
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(refused.value))}$"):
        step_law(n)


@pytest.mark.parametrize(
    "name, n",
    [
        ("torus_std", 5), ("cycle", 7), ("hypercube", 3), ("complete", 5),
        ("torus_diag", 7), ("cycle", 378), ("torus_std", 20), ("hypercube", 8),
    ],
)
def test_closed_return_second_moment_matches_first_step_analysis(name, n):
    group, law = ABELIAN_PRESETS[name][0](n)
    closed = ab._return_second_moment(group.order, ab._spectral_gaps(group, law))
    reference = hw.return_second_moment(ab.group_walk_kernel(group, law), 0)
    assert abs(closed - reference) <= 1e-12 * reference


def test_group_walk_graph_carries_no_labels():
    # node i is group.elements()[i]
    group, law = ab.torus_standard_step_law(5)
    g = ab.group_walk_graph(group, law)
    assert g.node_count == group.order and g.labels is None


@pytest.mark.parametrize(
    "name, n",
    [
        ("cycle", 40), ("cycle", 378), ("torus_std", 5), ("torus_std", 20),
        ("torus_diag", 7), ("hypercube", 6), ("complete", 30),
    ],
)
def test_variance_matches_direct_moments(name, n):
    step_law, build = ABELIAN_PRESETS[name]
    group, law = step_law(n)
    rep = hw.moments(hw.make_absorbing(hw.simple_walk_kernel(build(n)), 0))
    for idx in range(1, group.order):
        q, var = hw.variance_abelian(group, law, group.element(idx))
        _, second, variance = rep.for_state(idx)
        assert abs(q - second) <= 1e-11 * second, idx
        assert abs(var - variance) <= 1e-11 * variance, idx


def _forbid_direct_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the character engine reached the direct engine")

    monkeypatch.setattr(ab, "group_walk_kernel", refuse)
    for module in (ab, hitting, linalg):
        for name in ("make_absorbing", "moments", "pmf", "solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_variance_uses_no_absorbing_chain(monkeypatch):
    group, law = ab.torus_standard_step_law(100)
    mean = hw.expected_hitting_abelian(group, law, (3, 7))
    _forbid_direct_engine(monkeypatch)
    q, var = hw.variance_abelian(group, law, (3, 7))
    assert q == pytest.approx(var + mean**2, rel=1e-12)
    assert var > 0.0


# --- transform-domain pmf ----------------------------------------------------------------

def _fourier_table(group, law, horizon):
    """Every displacement's column, one fourier_pmf call each."""
    return np.column_stack(
        [hw.fourier_pmf(group, law, g, horizon).probs[:, 0] for g in group.elements()]
    )


def test_fourier_pmf_first_step_is_law():
    group, law = ab.cycle_step_law(5)
    table = _fourier_table(group, law, 3)
    assert np.allclose(table[0], law.table, atol=1e-12)


def test_fourier_pmf_identity_column_zero():
    group, law = ab.torus_standard_step_law(3)
    table = hw.fourier_pmf(group, law, group.identity, 50)
    assert table.states == (0,) and table.residual[0] == 1.0
    assert np.max(table.probs) < 1e-10


def _faulty_real_transform(fault):
    """A real law transform that puts one numerical fault into m_1 = p."""
    real = ab._real_transform
    if fault == "identity":  # a constant 1e-6 in every coefficient is 1e-6 at e
        return lambda group, law: real(group, law) + 1e-6

    def negative(group, law):  # move 1e-6 of the mass at steps +-2 to steps +-1
        table = law.table.copy()
        table[[1, -1]] += 1e-6
        table[[2, -2]] -= 1e-6
        return ab.fourier(group, table).real

    return negative


@pytest.mark.parametrize("fault", ["identity", "negative"])
def test_fourier_pmf_numerical_fault_is_numerical_error(monkeypatch, fault):
    # each check of the recurrence's output is a numerical failure, not a bad input
    group, law = ab.cycle_step_law(7)
    monkeypatch.setattr(ab, "_real_transform", _faulty_real_transform(fault))
    with pytest.raises(NumericalError):
        hw.fourier_pmf(group, law, (2,), 5)


@pytest.mark.parametrize("step_law, g", [(ab.cycle_step_law, (5,)), (ab.torus_standard_step_law, (2, 1))])
def test_fourier_pmf_residual_is_the_unabsorbed_mass(step_law, g):
    group, law = step_law(12)
    table = hw.fourier_pmf(group, law, g, 40)
    assert table.residual.shape == (1,)
    assert 0.0 < table.residual[0] < 1.0
    assert table.residual[0] == pytest.approx(1.0 - table.probs[:, 0].sum(), rel=0, abs=1e-15)


def test_fourier_pmf_matches_direct_on_z7():
    group, law = ab.cycle_step_law(7)
    kernel = hw.simple_walk_kernel(hw.build_cycle(7))
    direct = hw.pmf(hw.make_absorbing(kernel, 0), 200)
    for start in range(1, 7):
        table = hw.fourier_pmf(group, law, (start,), 200)
        assert np.allclose(table.column(start), direct.column(start), atol=1e-10)


def test_fourier_pmf_hypercube_antipodal():
    group, law = ab.hypercube_step_law(3)
    table = hw.fourier_pmf(group, law, (1, 1, 1), 5)
    idx = group.index((1, 1, 1))
    assert table.prob(idx, 3) == pytest.approx(2 / 9, abs=1e-12)
    assert table.prob(idx, 1) == pytest.approx(0.0, abs=1e-12)


def test_fourier_pmf_cycle_339_within_1e_15_of_direct():
    # the real recurrence on one column is 5.4e-17 off the direct series;
    # the complex round-trip through character tables was 3.4e-14 off
    group, law = ab.cycle_step_law(339)
    kernel = hw.simple_walk_kernel(hw.build_cycle(339))
    direct = hw.pmf(hw.make_absorbing(kernel, 0), 3000)
    table = hw.fourier_pmf(group, law, (100,), 3000)
    assert np.max(np.abs(table.column(100) - direct.column(100))) <= 1e-15


def test_fourier_pmf_peak_memory_below_dense_table():
    # one column of (Z_2)^10 at horizon 500 holds O(|G| + horizon) numbers
    # (measured peak 0.40 MB, most of it the turns table of 1024 characters
    # by 10 coordinates); the full 500 x 1024 table alone takes 4.1 MB
    import tracemalloc

    group, law = ab.hypercube_step_law(10)
    tracemalloc.start()
    try:
        table = hw.fourier_pmf(group, law, (1,) * 10, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.probs.shape == (500, 1)
    assert peak < 2**20


# --- diagonal torus ------------------------------------------------------------------------

def test_diag_torus_map_examples():
    assert ab.diag_torus_map(5, (0, 0)) == (0, 0)
    assert ab.diag_torus_map(5, (1, 0)) == (1, 1)
    assert ab.diag_torus_map(3, (1, 1)) == (2, 0)
    with pytest.raises(InvalidParameterError):
        ab.diag_torus_map(4, (1, 0))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_diag_torus_map_is_inverse_of_basis_change(p):
    half = (p + 1) // 2  # 2^{-1} mod p
    for a in range(p):
        for b in range(p):
            x, y = ab.diag_torus_map(p, (a, b))
            # phi(x, y) = ((x+y)/2, (x-y)/2) must return (a, b)
            assert ((x + y) * half % p, (x - y) * half % p) == (a, b)


def _diag_direct_series(p, start, target, horizon):
    kernel = hw.simple_walk_kernel(hw.build_torus_diagonal(p))
    system = hw.make_absorbing(kernel, target[0] * p + target[1])
    return hw.pmf(system, horizon).column(start[0] * p + start[1])


def test_convolution_report_generic_displacement():
    direct = _diag_direct_series(3, (1, 0), (0, 0), 50)
    report = hw.diag_torus_convolution_report(3, (1, 0), (0, 0), 50, direct)
    assert report.diagonal_displacement == (1, 1)
    assert report.direct is not None
    assert len(report.convolution) == 50
    assert report.max_abs_discrepancy is not None
    assert np.isfinite(report.max_abs_discrepancy)
    # direct series is a genuine distribution prefix
    assert report.direct.sum() <= 1.0 + 1e-12


def test_convolution_report_degenerate_start_equals_target():
    report = hw.diag_torus_convolution_report(3, (0, 0), (0, 0), 10, None)
    assert report.direct is None
    assert report.max_abs_discrepancy is None
    assert any("start equals target" in note for note in report.notes)


def test_convolution_report_degenerate_coordinate():
    # displacement (1, 1) maps to (2, 0): one coordinate already home
    direct = _diag_direct_series(3, (1, 1), (0, 0), 20)
    report = hw.diag_torus_convolution_report(3, (1, 1), (0, 0), 20, direct)
    assert any("degenerate coordinate" in note for note in report.notes)
    assert report.direct is not None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_convolution_report_notes_a_degenerate_coordinate_exactly_when_one_is_zero(p):
    for start in itertools.product(range(p), repeat=2):
        if start == (0, 0):
            continue
        report = hw.diag_torus_convolution_report(p, start, (0, 0), 8, np.zeros(8))
        degenerate = any("degenerate coordinate" in note for note in report.notes)
        assert degenerate == (0 in report.diagonal_displacement), (p, start)


def test_convolution_report_needs_the_direct_series():
    with pytest.raises(InvalidParameterError):
        hw.diag_torus_convolution_report(3, (1, 0), (0, 0), 10, None)
    short = _diag_direct_series(3, (1, 0), (0, 0), 9)
    with pytest.raises(InvalidParameterError):
        hw.diag_torus_convolution_report(3, (1, 0), (0, 0), 10, short)


def test_convolution_report_uses_no_absorbing_chain(monkeypatch):
    direct = _diag_direct_series(7, (3, 1), (0, 0), 64)
    _forbid_direct_engine(monkeypatch)
    report = hw.diag_torus_convolution_report(7, (3, 1), (0, 0), 64, direct)
    assert report.direct is direct
    assert report.max_abs_discrepancy == np.max(np.abs(direct - report.convolution)) > 0.0
