"""Gibbs states, partition functions, and quantum relative entropy.

The identity S(thermal_f || thermal_i) = beta_f (F_f - F_i) - beta_f <H_f>
+ beta_i <H_i> (expectations in thermal_f) is exercised as a property over
randomly drawn Hamiltonian pairs, since the closed form and the dense
evaluator are implemented independently.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from entwit import (
    DensityMatrix,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    ThermalSpec,
    delta_beta_f,
    gibbs_relative_entropy,
    relative_entropy,
    spectral_decompose,
    thermal_state,
)
from entwit.thermo import gibbs_blocks, gibbs_weights, log_gibbs_weights, logsumexp
from dense_oracle import pure_state


def random_hermitian(n, rng, scale=1.0):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(QubitRegister(n), scale * (a + a.conj().T) / 2)


class TestThermalSpec:
    def test_beta_must_be_positive(self):
        h = HermitianOperator(QubitRegister(1), np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            ThermalSpec(h, 0.0)
        with pytest.raises(ValueError):
            ThermalSpec(h, -2.0)

    def test_log_partition_matches_logsumexp(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            h = random_hermitian(2, rng)
            spec = ThermalSpec(h, 0.8)
            direct = scipy_logsumexp(-0.8 * np.linalg.eigvalsh(h.entries))
            assert abs(spec.log_partition - direct) < 1e-12

    def test_log_partition_survives_overflow(self):
        # Z = e^1000 overflows, but its log and the Gibbs weights stay finite
        h = HermitianOperator(QubitRegister(1), np.diag([-10.0, 10.0]))
        spec = ThermalSpec(h, 100.0)
        assert abs(spec.log_partition - 1000.0) < 1e-9
        assert list(spec.weights) == [1.0, 0.0]
        assert abs(log_gibbs_weights(spec.spectrum.eigenvalues, spec.beta)[1] + 2000.0) < 1e-9

    def test_free_energy_single_qubit(self):
        h = HermitianOperator(QubitRegister(1), np.diag([1.0, -1.0]))
        spec = ThermalSpec(h, 2.0)
        assert abs(spec.free_energy - (-0.5 * np.log(2 * np.cosh(2.0)))) < 1e-12

    def test_spectrum_is_decomposed_once(self):
        h = HermitianOperator(QubitRegister(2), np.diag([0.0, 1.0, 2.0, 3.0]))
        spec = ThermalSpec(h, 1.5)
        assert spec.spectrum is spec.spectrum
        assert spec.weights.tobytes() == gibbs_weights(spectral_decompose(h).eigenvalues, 1.5).tobytes()


class TestThermalState:
    def test_single_qubit_closed_form(self):
        h = HermitianOperator(QubitRegister(1), np.diag([1.0, -1.0]))
        rho = thermal_state(ThermalSpec(h, 1.3))
        z = 2 * np.cosh(1.3)
        assert np.allclose(
            np.diag(rho.entries).real, [np.exp(-1.3) / z, np.exp(1.3) / z], atol=1e-14
        )

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(2, rng)
        rho = thermal_state(ThermalSpec(h, 1e-8))
        assert np.max(np.abs(rho.entries - np.eye(4) / 4)) < 1e-7

    def test_low_temperature_projects_on_ground_space(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.0, 5.0]))
        rho = thermal_state(ThermalSpec(h, 200.0))
        assert abs(rho.entries[0, 0].real - 1.0) < 1e-15

    def test_a_spec_builds_its_blocks_once(self):
        spec = ThermalSpec(random_hermitian(2, np.random.default_rng(5)), 0.7)
        stacks = spec.gibbs_stacks
        assert spec.gibbs_stacks is stacks
        assert all(np.array_equal(a, b) for s, f in zip(stacks, gibbs_blocks(spec)) for a, b in zip(s, f))
        # read-only, so no reader can change what the next one reads
        assert not any(part.flags.writeable for stack in stacks for part in stack)
        rho = thermal_state(spec)
        assert all(np.shares_memory(b, c) for (_, b), (_, c) in zip(rho.stacks, stacks))


class TestRelativeEntropy:
    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(21)
        h = random_hermitian(2, rng)
        rho = thermal_state(ThermalSpec(h, 1.0))
        assert abs(relative_entropy(rho, rho)) < 1e-13

    def test_klein_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho = thermal_state(ThermalSpec(random_hermitian(2, rng), 1.0))
            sigma = thermal_state(ThermalSpec(random_hermitian(2, rng), 1.0))
            assert relative_entropy(rho, sigma) >= 0.0

    def test_known_two_level_value(self):
        rho = DensityMatrix(QubitRegister(1), np.diag([0.75, 0.25]))
        sigma = DensityMatrix(QubitRegister(1), np.diag([0.5, 0.5]))
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert abs(relative_entropy(rho, sigma) - expected) < 1e-14

    def test_support_mismatch_is_infinite(self):
        up = pure_state(QubitRegister(1), np.array([1.0, 0.0]))
        down = pure_state(QubitRegister(1), np.array([0.0, 1.0]))
        assert relative_entropy(up, down) == np.inf

    def test_nested_support_is_finite(self):
        # rho lives inside sigma's support even though sigma is not full rank
        rho = pure_state(QubitRegister(1), np.array([1.0, 0.0]))
        sigma = rho
        mixed = DensityMatrix(QubitRegister(1), 0.5 * rho.entries + 0.5 * sigma.entries)
        assert relative_entropy(rho, mixed) == 0.0

    def test_maximally_mixed_reference(self):
        rho = pure_state(QubitRegister(2), np.array([1.0, 0, 0, 0]))
        mixed = DensityMatrix(QubitRegister(2), np.eye(4) / 4)
        assert abs(relative_entropy(rho, mixed) - np.log(4)) < 1e-12


class TestGibbsIdentity:
    def test_matches_dense_evaluator(self):
        # Property check across random non-commuting Hamiltonian pairs.  The
        # ensemble keeps beta * spectral_spread below ~8 so the reference
        # state's smallest Gibbs weight stays far above the double-precision
        # floor; outside that regime the dense evaluator's cross term is
        # dominated by conditioning, not by the identity under test.
        rng = np.random.default_rng(97)
        worst = 0.0
        for case in range(120):
            n = 2 if case % 2 == 0 else 3
            h_i = random_hermitian(n, rng, scale=0.5)
            h_f = random_hermitian(n, rng, scale=0.5)
            beta_i = float(rng.uniform(0.1, 1.5))
            beta_f = float(rng.uniform(0.1, 1.5))
            initial = ThermalSpec(h_i, beta_i)
            final = ThermalSpec(h_f, beta_f)
            closed = gibbs_relative_entropy(initial, final)
            dense = relative_entropy(thermal_state(final), thermal_state(initial))
            worst = max(worst, abs(closed - dense))
        assert worst < 1e-9

    def test_identical_specs_give_zero(self):
        h = HermitianOperator(QubitRegister(2), np.diag([0.0, 0.5, 1.0, 1.5]))
        spec = ThermalSpec(h, 2.0)
        assert abs(gibbs_relative_entropy(spec, spec)) < 1e-14

    def test_mismatched_registers_rejected(self):
        a = ThermalSpec(HermitianOperator(QubitRegister(1), np.diag([0.0, 1.0])), 1.0)
        b = ThermalSpec(HermitianOperator(QubitRegister(2), np.diag([0.0, 1, 2, 3.0])), 1.0)
        with pytest.raises(ValueError):
            gibbs_relative_entropy(a, b)


class TestDeltaBetaF:
    def test_equal_specs_vanish(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.3, -0.3]))
        spec = ThermalSpec(h, 1.7)
        assert delta_beta_f(spec, spec) == 0.0

    def test_single_qubit_value(self):
        h = HermitianOperator(QubitRegister(1), np.diag([1.0, -1.0]))
        initial = ThermalSpec(h, 1.0)
        final = ThermalSpec(h, 2.0)
        expected = np.log(2 * np.cosh(1.0)) - np.log(2 * np.cosh(2.0))
        assert abs(delta_beta_f(initial, final) - expected) < 1e-13


def test_negative_result_guard_clamps_roundoff():
    # two states equal to machine precision must give exactly zero, not a
    # tiny negative number
    rng = np.random.default_rng(3)
    h = random_hermitian(3, rng)
    rho = thermal_state(ThermalSpec(h, 0.9))
    jitter = rho.entries + 1e-16 * np.eye(8)
    sigma = DensityMatrix(QubitRegister(3), jitter / np.trace(jitter).real)
    value = relative_entropy(rho, sigma)
    assert value >= 0.0
    assert value < 1e-12


def test_relative_entropy_rejects_register_mismatch():
    rho = DensityMatrix(QubitRegister(1), np.eye(2) / 2)
    sigma = DensityMatrix(QubitRegister(2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        relative_entropy(rho, sigma)


# finite spreads up to +-700 (the steepest beta * width the package meets),
# small integers for tied maxima, and the non-finite values
log_terms = st.one_of(
    st.floats(-700.0, 700.0),
    st.floats(-700.0, 700.0),
    st.integers(-3, 3).map(float),
    st.sampled_from([-np.inf, -np.inf, np.inf, np.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6), elements=log_terms),
    st.sampled_from([None, -1]),
)
@example(np.array([[-np.inf, -np.inf], [0.5, -np.inf]]), -1)  # an all -inf row
@example(np.full(4, -np.inf), None)
@example(np.array([2.0, 2.0, -1.0, 2.0]), None)  # three tied maxima
@example(np.array([[700.0, -700.0], [np.nan, 1.0], [np.inf, 3.0]]), -1)
def test_logsumexp_is_bit_identical_to_scipy(a, axis):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=axis)
    got = logsumexp(a, axis=axis)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


# energies from a few levels, so ties (within a row and at the minimum) are common
tied_energies = st.integers(1, 12).flatmap(
    lambda dim: hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.just(1), st.just(dim)),
        elements=st.one_of(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), st.floats(-5.0, 5.0)),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    tied_energies,
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.just(1)),
        elements=st.floats(np.log(1e-2), np.log(1e3)).map(np.exp),
    ),
)
def test_log_gibbs_weights_on_a_grid_match_row_by_row_calls(energies, beta):
    # a sweep evaluates (b, nT, dim) at once; each row must be bit for bit
    # what a 1-D call (the single-point work average) gives
    grid = log_gibbs_weights(energies, beta)
    assert grid.shape == (energies.shape[0], beta.shape[0], energies.shape[2])
    for i, row in enumerate(energies[:, 0]):
        for j, b in enumerate(beta[:, 0]):
            assert np.array_equal(grid[i, j], log_gibbs_weights(row, b))
