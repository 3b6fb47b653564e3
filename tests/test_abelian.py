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


def test_law_transform_contract():
    for maker in (
        lambda: ab.cycle_step_law(7),
        lambda: ab.hypercube_step_law(3),
        lambda: ab.torus_diagonal_step_law(5),
        lambda: ab.complete_step_law(6),
    ):
        group, law = maker()
        p_hat = ab.law_transform(group, law)
        assert p_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p_hat)) <= 1.0 + 1e-9
        assert np.max(np.abs(p_hat.imag)) <= 1e-9


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


@pytest.mark.parametrize(
    "factors", [(400,), (31,), (2,) * 10, (31, 31), (3, 4, 5), (2, 3, 2, 5)]
)
def test_transform_matches_dense_character_table(factors):
    group = ab.FiniteAbelianGroup(factors)
    dense = ab.CharacterBasis(group).matrix
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

def test_fourier_pmf_first_step_is_law():
    group, law = ab.cycle_step_law(5)
    table = hw.fourier_pmf(group, law, 3)
    assert np.allclose(table.probs[0], law.table, atol=1e-12)


def test_fourier_pmf_identity_column_zero():
    group, law = ab.torus_standard_step_law(3)
    table = hw.fourier_pmf(group, law, 50)
    assert np.max(table.probs[:, 0]) < 1e-10


def _faulty_law_transform(fault):
    """A law transform that puts one numerical fault into m_1 = p."""
    real = ab.law_transform
    if fault == "imaginary":
        return lambda group, law: real(group, law) + 1e-6j
    if fault == "identity":  # a constant 1e-6 in every coefficient is 1e-6 at e
        return lambda group, law: real(group, law) + 1e-6

    def negative(group, law):  # move 1e-6 of the mass at step +2 to step +1
        table = law.table.copy()
        table[1] += 1e-6
        table[2] -= 1e-6
        return ab.fourier(group, table)

    return negative


@pytest.mark.parametrize("fault", ["imaginary", "identity", "negative"])
def test_fourier_pmf_numerical_fault_is_numerical_error(monkeypatch, fault):
    # each check of the recurrence's output is a numerical failure, not a bad input
    group, law = ab.cycle_step_law(7)
    monkeypatch.setattr(ab, "law_transform", _faulty_law_transform(fault))
    with pytest.raises(NumericalError):
        hw.fourier_pmf(group, law, 5)


def test_fourier_pmf_matches_direct_on_z7():
    group, law = ab.cycle_step_law(7)
    table = hw.fourier_pmf(group, law, 200)
    kernel = hw.simple_walk_kernel(hw.build_cycle(7))
    direct = hw.pmf(hw.make_absorbing(kernel, 0), 200, stop_early=False)
    for start in range(1, 7):
        assert np.allclose(table.probs[:, start], direct.column(start), atol=1e-10)


def test_fourier_pmf_hypercube_antipodal():
    group, law = ab.hypercube_step_law(3)
    table = hw.fourier_pmf(group, law, 5)
    idx = group.index((1, 1, 1))
    assert table.probs[2, idx] == pytest.approx(2 / 9, abs=1e-12)
    assert table.probs[0, idx] == pytest.approx(0.0, abs=1e-12)


def test_fourier_pmf_peak_memory_below_dense_table():
    # the dense character table of (Z_2)^10 alone takes 16 MiB
    import tracemalloc

    group, law = ab.hypercube_step_law(10)
    tracemalloc.start()
    try:
        table = hw.fourier_pmf(group, law, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.probs.shape == (500, 1024)
    assert peak < 16 * 2**20


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
    return hw.pmf(system, horizon, stop_early=False).column(start[0] * p + start[1])


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
