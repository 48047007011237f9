"""Blocked spectra and two-point-measurement statistics against the dense
oracle, and the work identities they must keep.

``spectral_decompose`` keeps one eigendecomposition per S^z block, and the
transition probabilities q are formed per block of the common partition of
both spectra and the unitary.  ``dense_oracle`` redoes each step with one
dense ``np.linalg.eigh`` per Hamiltonian.  The random Hamiltonians here are
block diagonal in the popcount sectors with levels at least 4/dim apart, so
both sides number the same eigenvectors and every entry of q compares.  The
property tests then check double stochasticity, the protocol independence
of ln <exp(-beta W)> (Tasaki, cond-mat/0009244), and the agreement of the
direct and work routes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    dense_eigenvectors,
    dense_gibbs_weights,
    dense_sample,
    dense_tpm,
    dense_transitions,
)
from entwit import (
    DrivingSchedule,
    HermitianOperator,
    QubitRegister,
    ThermalSpec,
    UnitaryOperator,
    XXZParams,
    build_xxz,
    exact_evolution,
    gibbs_relative_entropy,
    log_work_average,
    relative_entropy_via_work,
    sample_tpm,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)
from entwit.operators import assemble, spectral_decompose, spectral_function
from entwit.work_stats import SAMPLE_BLOCK

seeds = st.integers(min_value=0, max_value=2**32 - 1)
couplings = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
chain_sizes = st.integers(min_value=2, max_value=6)


def popcounts(n):
    return np.array([bin(i).count("1") for i in range(2**n)])


def sectors(n):
    ones = popcounts(n)
    return [np.flatnonzero(ones == k) for k in range(n + 1)]


def haar(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def sector_hamiltonian(n, rng):
    """A complex Hermitian matrix, block diagonal in the popcount sectors,
    whose levels are a shuffle of an even grid of spacing 4/dim on [-2, 2)."""
    dim = 2**n
    levels = rng.permutation(dim) * (4.0 / dim) - 2.0
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for indices in sectors(n):
        v = haar(indices.size, rng)
        block = (v * levels[indices]) @ v.conj().T
        matrix[np.ix_(indices, indices)] = 0.5 * (block + block.conj().T)
    return HermitianOperator(QubitRegister(n), matrix)


def random_unitary(n, rng, conserving):
    """Haar on each popcount sector when ``conserving``, otherwise Haar on
    the whole register."""
    if not conserving:
        return UnitaryOperator(QubitRegister(n), haar(2**n, rng))
    u = np.zeros((2**n, 2**n), dtype=np.complex128)
    for indices in sectors(n):
        u[np.ix_(indices, indices)] = haar(indices.size, rng)
    return UnitaryOperator(QubitRegister(n), u)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), seed=seeds)
def test_blocked_spectrum_and_its_functions_match_the_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    h = sector_hamiltonian(n, rng)
    spectrum = spectral_decompose(h)
    w, v = np.linalg.eigh(h.entries)
    assert np.abs(spectrum.eigenvalues - w).max() <= 1e-12
    # the levels are simple, so each eigenvector agrees up to a phase
    overlaps = np.abs(np.sum(dense_eigenvectors(spectrum).conj() * v, axis=0))
    assert np.abs(overlaps - 1.0).max() <= 1e-12
    for values in (np.exp(-0.7j * w), dense_gibbs_weights(w, 1.3)):
        blocked = assemble(spectral_function(spectrum, values))
        assert np.abs(blocked - (v * values) @ v.conj().T).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=seeds,
    conserving=st.booleans(),
    betas=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
)
def test_blocked_transitions_match_the_dense_oracle(n, seed, conserving, betas):
    rng = np.random.default_rng(seed)
    h_initial, h_final = sector_hamiltonian(n, rng), sector_hamiltonian(n, rng)
    u = random_unitary(n, rng, conserving)
    initial, final = ThermalSpec(h_initial, betas[0]), ThermalSpec(h_final, betas[1])
    e_initial, e_final, q = dense_tpm(h_initial.entries, h_final.entries, u.entries)

    tm = transition_matrix(initial.spectrum, final.spectrum, u)
    assert np.abs(dense_transitions(tm) - q).max() <= 1e-12
    if conserving and n > 1:
        assert len(tm.stacks) > 1  # the blocks were kept

    distribution = work_distribution(tm, *betas)
    dim = 2**n
    want = q * dense_gibbs_weights(e_initial, betas[0])[None, :]
    assert np.abs(distribution.probability - want.ravel()).max() <= 1e-12
    assert np.abs(distribution.work - np.subtract.outer(e_final, e_initial).ravel()).max() <= 1e-12
    assert distribution.probability.size == dim * dim

    count = 2000
    batch, _ = sample_tpm(tm, *betas, count=count, seed=seed % 1000)
    n_index, m_index = dense_sample(e_initial, e_final, q, betas[0], count, seed % 1000)
    assert np.array_equal(batch.n_index, n_index)
    assert np.array_equal(batch.m_index, m_index)
    assert np.abs(batch.energy_initial - e_initial[n_index]).max() <= 1e-12
    assert np.abs(batch.energy_final - e_final[m_index]).max() <= 1e-12


def test_a_whole_register_transition_merges_no_eigenvectors():
    # per register entry, U V_i takes 16 B and q 8 B, and one stack's panels
    # about 14 B more at n = 10 (38.5 B in all); two merged real eigenvector
    # matrices and their products put the peak at 64 B
    n = 10
    spectra = [spectral_decompose(build_xxz(XXZParams(n, 1.0, jz, b))) for jz, b in ((0.3, 1.2), (0.0, 0.5))]
    u = random_unitary(n, np.random.default_rng(5), conserving=False)
    tracemalloc.start()
    try:
        tm = transition_matrix(*spectra, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tm.stacks) == 1
    assert peak < 48 * 4**n


@pytest.mark.parametrize("conserving", [True, False])
def test_sampler_matches_the_dense_oracle_over_several_blocks(conserving):
    # at beta = 0.1 all 64 levels are drawn as first indices, so every block
    # groups its draws into many levels; three full blocks and a remainder
    rng = np.random.default_rng(61 + conserving)
    n, beta, count, seed = 6, 0.1, 3 * SAMPLE_BLOCK + 1234, 808
    h_initial, h_final = sector_hamiltonian(n, rng), sector_hamiltonian(n, rng)
    u = random_unitary(n, rng, conserving)
    initial, final = ThermalSpec(h_initial, beta), ThermalSpec(h_final, beta)
    tm = transition_matrix(initial.spectrum, final.spectrum, u)
    batch, _ = sample_tpm(tm, beta, beta, count=count, seed=seed)
    e_initial, e_final, q = dense_tpm(h_initial.entries, h_final.entries, u.entries)
    n_index, m_index = dense_sample(e_initial, e_final, q, beta, count, seed)
    assert np.unique(batch.n_index[-1234:]).size == 2**n
    assert batch.n_index.tobytes() == n_index.astype(np.int16).tobytes()
    assert batch.m_index.tobytes() == m_index.astype(np.int16).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    params=st.tuples(couplings, couplings, couplings, couplings),
    seed=seeds,
    conserving=st.booleans(),
)
def test_transitions_are_doubly_stochastic_for_any_unitary(n, params, seed, conserving):
    # chain Hamiltonians have degenerate levels; q is doubly stochastic in
    # whatever eigenbasis each degenerate level gets
    rng = np.random.default_rng(seed)
    j, jz, b_initial, b_final = params
    h_initial = build_xxz(XXZParams(n, j, jz, b_initial))
    h_final = build_xxz(XXZParams(n, 1.0, -jz, b_final))
    spectra = spectral_decompose(h_initial), spectral_decompose(h_final)
    q = dense_transitions(transition_matrix(*spectra, random_unitary(n, rng, conserving)))
    assert np.abs(q.sum(axis=0) - 1.0).max() <= 1e-10
    assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-10
    assert q.min() >= -1e-14
    if conserving:
        # no transition between two magnetizations
        assert np.count_nonzero(q) <= sum(indices.size**2 for indices in sectors(n))


@settings(max_examples=20, deadline=None)
@given(
    n=chain_sizes,
    j=couplings,
    jz=couplings,
    fields=st.tuples(couplings, couplings),
    beta=st.floats(0.1, 100.0),
    seed=seeds,
)
def test_the_work_average_does_not_depend_on_the_protocol(n, j, jz, fields, beta, seed):
    # a field ramp commutes with itself, so exact_evolution applies too
    schedule = DrivingSchedule(
        XXZParams(n, j, jz, fields[0]), XXZParams(n, j, jz, fields[1]), t_f=1.0, steps=20
    )
    initial, final = (ThermalSpec(build_xxz(params), beta) for params in (schedule.initial, schedule.final))
    want = final.log_partition - initial.log_partition
    rng = np.random.default_rng(seed)
    register = QubitRegister(n)
    unitaries = (
        UnitaryOperator(register, np.eye(2**n)),
        trotter_evolution(schedule),
        exact_evolution(schedule),
        random_unitary(n, rng, conserving=False),
    )
    spectra = initial.spectrum, final.spectrum
    averages = [log_work_average(transition_matrix(*spectra, u), beta, beta) for u in unitaries]
    assert max(abs(average - want) for average in averages) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    initial_params=st.tuples(couplings, couplings, couplings),
    final_params=st.tuples(couplings, couplings, couplings),
    betas=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 20.0)),
    seed=seeds,
)
def test_the_direct_and_work_routes_agree_on_random_gibbs_pairs(n, initial_params, final_params, betas, seed):
    initial = ThermalSpec(build_xxz(XXZParams(n, *initial_params)), betas[0])
    final = ThermalSpec(build_xxz(XXZParams(n, *final_params)), betas[1])
    want = gibbs_relative_entropy(initial, final)
    rng = np.random.default_rng(seed)
    for u in (
        UnitaryOperator(QubitRegister(n), np.eye(2**n)),
        random_unitary(n, rng, conserving=True),
        random_unitary(n, rng, conserving=False),
    ):
        tm = transition_matrix(initial.spectrum, final.spectrum, u)
        assert abs(relative_entropy_via_work(initial, final, tm) - want) <= 1e-8
