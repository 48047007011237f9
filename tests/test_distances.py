"""The direct relative-entropy evaluators against each other and the dense oracle.

``witness._distance_direct`` picks one of three evaluators: the Gibbs
identity (two declared Gibbs states), the analytic log weights (a declared
Gibbs sigma under a dense rho) and the dense spectral path.  The last two take
their overlaps from ``thermo.sector_overlaps`` on sigma's
``SpectralDecomposition``: a Gibbs sigma's cached ``ThermalSpec.spectrum``,
or ``spectral_decompose`` of the state sigma.  ``dense_oracle`` keeps the
former einsum evaluator, which shares no code with that kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_relative_entropy
from entwit import (
    DensityMatrix,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    ThermalSpec,
    XXZParams,
    build_css,
    build_w_state,
    build_xxz,
    gibbs_relative_entropy,
    relative_entropy,
    thermal_state,
)
from entwit.thermo import nonnegative_entropy
from entwit.witness import _distance_direct

# Below this smallest Gibbs weight of sigma, dense eigh resolves sigma's
# eigenvalues too coarsely for a 1e-12 comparison of the dense path.
DENSE_WEIGHT_FLOOR = np.exp(-10.0)


def direct(rho, sigma) -> float:
    return _distance_direct(rho, sigma, "rho", "sigma")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    field=st.sampled_from([-1.0, -0.4, 0.0, 0.3, 0.5, 0.92, 1.5]),
    jz=st.sampled_from([-0.5, 0.0, 0.7]),
    beta=st.sampled_from([0.3, 1.0, 5.0, 30.0, 100.0]),
)
def test_analytic_self_distance_is_never_negative(n, field, jz, beta):
    # S(thermal(spec) || spec) is 0 up to roundoff, and roundoff must not
    # leave it below zero, as the dense evaluator's clamp already ensures
    spec = ThermalSpec(build_xxz(XXZParams(n, 1.0, jz, field)), beta)
    value = direct(thermal_state(spec), spec)
    assert 0.0 <= value < 1e-12


def test_clamp_rejects_what_roundoff_cannot_explain():
    assert nonnegative_entropy(-1e-9) == 0.0
    assert list(nonnegative_entropy(np.array([-1e-12, 0.5, np.inf]))) == [0.0, 0.5, np.inf]
    with pytest.raises(NumericalCheckError, match="not valid states"):
        nonnegative_entropy(np.array([0.1, -1e-7]))


def random_spec(n: int, seed: int, steepness: float) -> ThermalSpec:
    """Gibbs description of a random Hermitian H with beta * (spectral width)
    equal to ``steepness``."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    eigenvalues = np.linalg.eigvalsh(h)
    h = h / (eigenvalues[-1] - eigenvalues[0])
    return ThermalSpec(HermitianOperator(QubitRegister(n), h), steepness)


steepness = st.floats(np.log(0.1), np.log(700.0)).map(np.exp)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    seeds=st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
    steep=st.tuples(steepness, steepness),
)
def test_three_evaluators_agree_on_random_hamiltonians(n, seeds, steep):
    rho_spec = random_spec(n, seeds[0], steep[0])
    sigma_spec = random_spec(n, seeds[1], steep[1])
    rho = thermal_state(rho_spec)
    gibbs = direct(rho_spec, sigma_spec)
    assert gibbs == gibbs_relative_entropy(sigma_spec, rho_spec)
    analytic = direct(rho, sigma_spec)
    assert abs(analytic - gibbs) <= 1e-12 * (1.0 + gibbs)
    if sigma_spec.weights.min() >= DENSE_WEIGHT_FLOOR:
        dense = direct(rho, thermal_state(sigma_spec))
        assert abs(dense - gibbs) <= 1e-12 * (1.0 + gibbs)


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_matches_the_einsum_oracle(n):
    w = build_w_state(n)
    css = build_css(n)
    assert abs(relative_entropy(w, css) - dense_relative_entropy(w, css)) <= 1e-12
    # a full-rank candidate, and a chain state through the analytic branch
    rng = np.random.default_rng(n)
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = a @ a.conj().T
    mixed = DensityMatrix(QubitRegister(n), mixed / np.trace(mixed).real)
    assert abs(relative_entropy(w, mixed) - dense_relative_entropy(w, mixed)) <= 1e-12
    spec = ThermalSpec(build_xxz(XXZParams(n, 1.0, 0.2, 0.4)), 1.0)
    assert abs(direct(w, spec) - dense_relative_entropy(w, thermal_state(spec))) <= 1e-12


def test_every_direct_evaluator_refuses_states_on_different_registers():
    # the analytic branch read rho's blocks by sigma's indices: an IndexError
    # for a smaller rho, a false NumericalCheckError for a larger one
    three, four = (ThermalSpec(build_xxz(XXZParams(n, 1.0, 0.2, 0.5)), 1.0) for n in (3, 4))
    for rho, sigma in (
        (three, four),
        (thermal_state(three), four),
        (thermal_state(four), three),
        (thermal_state(three), thermal_state(four)),
    ):
        with pytest.raises(ValueError, match="same register"):
            direct(rho, sigma)


def test_direct_evaluators_reuse_the_spectrum_of_the_state_check(monkeypatch):
    rho, sigma = build_w_state(3), build_css(3)
    spec = ThermalSpec(build_xxz(XXZParams(3, 1.0, 0.3, 0.5)), 2.0)
    spec.spectrum
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return np.linalg.eigh(matrix)[0]

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    relative_entropy(rho, sigma)
    direct(rho, spec)
    direct(rho, sigma)
    assert calls == []


def test_analytic_branch_builds_no_dense_spectrum(monkeypatch):
    # a Gibbs sigma under a dense rho is evaluated on sigma's S^z sectors:
    # every eigh is on blocks no larger than the largest, C(5, 2) = 10 states
    sizes = []
    real_eigh = np.linalg.eigh

    def recorded(matrix):
        sizes.append(matrix.shape[-1])
        return real_eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    spec = ThermalSpec(build_xxz(XXZParams(5, 1.0, 0.2, 0.4)), 3.0)
    value = direct(build_w_state(5), spec)
    monkeypatch.undo()
    assert sizes and max(sizes) <= math.comb(5, 2)
    assert abs(value - dense_relative_entropy(build_w_state(5), thermal_state(spec))) <= 1e-12


def test_analytic_branch_reads_the_cached_spectrum(monkeypatch):
    # once a Gibbs sigma's spectrum has been read, evaluating a state rho
    # against it diagonalizes nothing again
    spec = ThermalSpec(build_xxz(XXZParams(5, 1.0, 0.2, 0.4)), 3.0)
    rho = build_w_state(5)
    expected = direct(rho, spec)

    def refuse(matrix):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert direct(rho, spec) == expected
