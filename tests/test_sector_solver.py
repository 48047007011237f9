"""The S^z-sector eigensolver behind every register-sized matrix.

``operators.sector_stacks`` splits a matrix into its popcount sectors when it
conserves S^z exactly and into one whole-register block otherwise;
``spectral_decompose``, the ``DensityMatrix`` check and ``relative_entropy``
diagonalize its stacks.  Each is compared here with a dense ``np.linalg``
oracle, and the sampler's work distribution with the one built from dense
spectra, whose eigenvectors within a degenerate level come in another order.
"""

import math
import resource
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_chain_pieces, dense_eigenvectors, dense_relative_entropy, xxz_matrix
from entwit import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    ThermalSpec,
    XXZParams,
    build_css,
    build_w_state,
    build_xxz,
    detection_protocol,
    exact_evolution,
    relative_entropy,
    thermal_state,
    transition_matrix,
    trotter_evolution,
    witness_evaluate,
    work_distribution,
)
from entwit.operators import diagonal_blocks, sector_stacks, spectral_decompose
from entwit.thermo import logsumexp


def popcounts(n):
    return np.array([bin(i).count("1") for i in range(2**n)])


def sector_matrix(n, seed, *, complex_entries, degenerate):
    """A random Hermitian matrix that is block diagonal in the popcount
    sectors.  With ``degenerate`` every block's eigenvalues come from
    {-2, ..., 2}, so levels repeat within and across sectors."""
    rng = np.random.default_rng(seed)
    ones = popcounts(n)
    matrix = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k in range(n + 1):
        indices = np.flatnonzero(ones == k)
        size = indices.size
        g = rng.normal(size=(size, size))
        if complex_entries:
            g = g + 1j * rng.normal(size=(size, size))
        if degenerate:
            q, _ = np.linalg.qr(g)
            block = (q * rng.integers(-2, 3, size=size)) @ q.conj().T
        else:
            block = g + g.conj().T
        matrix[np.ix_(indices, indices)] = 0.5 * (block + block.conj().T)
    return matrix


def random_state(n, seed, *, conserving):
    """A full-rank random density matrix, block diagonal in the popcount
    sectors when ``conserving``."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if conserving:
        ones = popcounts(n)
        g[ones[:, None] != ones[None, :]] = 0.0
    rho = g @ g.conj().T
    return DensityMatrix(QubitRegister(n), rho / np.trace(rho).real)


matrices = st.builds(
    dict,
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    complex_entries=st.booleans(),
    degenerate=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_sector_spectrum_matches_the_dense_one(case):
    n = case.pop("n")
    matrix = sector_matrix(n, case.pop("seed"), **case)
    stacks = sector_stacks(matrix)
    ones = popcounts(n)
    real = not matrix.imag.any()  # also for complex draws at n = 1
    covered = np.concatenate([indices.ravel() for indices, _ in stacks])
    assert sorted(covered) == list(range(2**n))
    for indices, blocks in stacks:
        assert blocks.shape == indices.shape + indices.shape[-1:]
        assert np.iscomplexobj(blocks) != real
        for block_indices, block in zip(indices, blocks):
            assert np.all(ones[block_indices] == ones[block_indices[0]])
            assert np.array_equal(block, matrix[np.ix_(block_indices, block_indices)])
    assert sum(len(indices) for indices, _ in stacks) == n + 1

    decomposition = spectral_decompose(HermitianOperator(QubitRegister(n), matrix))
    w, v = decomposition.eigenvalues, dense_eigenvectors(decomposition)
    assert np.abs(w - np.linalg.eigvalsh(matrix)).max() <= 1e-12
    assert np.abs((v * w) @ v.conj().T - matrix).max() <= 1e-12
    # every eigenvector lives in one sector; equal levels follow the sectors
    sector_of = np.array([ones[np.flatnonzero(column)[0]] for column in v.T])
    assert np.all(v[ones[:, None] != sector_of[None, :]] == 0)
    ties = np.flatnonzero(w[1:] == w[:-1])
    assert np.all(sector_of[ties] <= sector_of[ties + 1])
    if real:
        assert all(not np.iscomplexobj(vectors) for _, _, vectors in decomposition.stacks)


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_one_tiny_entry_between_sectors_takes_the_whole_register(case):
    n = case.pop("n")
    matrix = sector_matrix(n, case.pop("seed"), **case)
    rng = np.random.default_rng(n)
    ones = popcounts(n)
    i, j = rng.choice(np.argwhere(ones[:, None] != ones[None, :]))
    matrix[i, j] = matrix[j, i] = 1e-300
    ((indices, blocks),) = sector_stacks(matrix)
    assert indices.shape == (1, 2**n)
    assert np.array_equal(blocks[0], matrix)
    decomposition = spectral_decompose(HermitianOperator(QubitRegister(n), matrix))
    assert np.abs(decomposition.eigenvalues - np.linalg.eigvalsh(matrix)).max() <= 1e-12


def test_the_whole_register_block_is_a_view_and_other_blocks_are_gathered():
    matrix = np.arange(64.0).reshape(8, 8)
    whole = diagonal_blocks(matrix, np.arange(8)[None, :])
    assert np.shares_memory(whole, matrix) and np.array_equal(whole[0], matrix)
    shuffled = np.array([[3, 0, 5, 1, 7, 2, 6, 4]])
    assert np.array_equal(diagonal_blocks(matrix, shuffled)[0], matrix[np.ix_(shuffled[0], shuffled[0])])
    pairs = np.array([[0, 7], [2, 5]])
    assert np.array_equal(diagonal_blocks(matrix, pairs)[1], matrix[np.ix_([2, 5], [2, 5])])

@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    conserving=st.booleans(),
)
def test_state_check_spectrum_matches_the_dense_one(n, seed, conserving):
    state = random_state(n, seed, conserving=conserving)
    assert np.abs(state.eigenvalues - np.linalg.eigvalsh(state.entries)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    rho_conserving=st.booleans(),
    sigma_conserving=st.booleans(),
)
def test_relative_entropy_matches_the_dense_evaluator(n, seeds, rho_conserving, sigma_conserving):
    rho = random_state(n, seeds[0], conserving=rho_conserving)
    sigma = random_state(n, seeds[1], conserving=sigma_conserving)
    want = dense_relative_entropy(rho, sigma)
    assert abs(relative_entropy(rho, sigma) - want) <= 1e-12 * (1.0 + want)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_relative_entropy_on_reference_and_chain_states(n):
    # the separable reference has rank n + 1: a finite distance from the W
    # state and an infinite one from a full-rank state outside its support
    w_state, css = build_w_state(n), build_css(n)
    assert relative_entropy(w_state, css) == pytest.approx((n - 1) * math.log(n / (n - 1)), abs=1e-12)
    assert dense_relative_entropy(w_state, css) == pytest.approx(relative_entropy(w_state, css), abs=1e-12)
    full = random_state(n, 7, conserving=False)
    assert relative_entropy(full, css) == dense_relative_entropy(full, css) == math.inf
    gibbs = thermal_state(ThermalSpec(build_xxz(XXZParams(n, 1.0, 0.3, 0.2)), 2.0))
    for sigma in (gibbs, full):
        want = dense_relative_entropy(w_state, sigma)
        assert abs(relative_entropy(w_state, sigma) - want) <= 1e-12 * (1.0 + want)


def dense_spectrum(spec):
    """The spectrum of one dense ``np.linalg.eigh`` of the spec's Hamiltonian."""
    w, v = np.linalg.eigh(spec.hamiltonian.entries)
    everything = np.arange(w.size)[None, :]
    return SpectralDecomposition(w, ((everything, everything, v[None]),))


def work_levels(distribution):
    """Distinct work values (levels closer than 1e-9 merged) and the summed
    probability of each."""
    order = np.argsort(distribution.work, kind="stable")
    work, probability = distribution.work[order], distribution.probability[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(work) > 1e-9]))
    return work[starts], np.add.reduceat(probability, starts)


@pytest.mark.filterwarnings("ignore:thermal identification")
@pytest.mark.parametrize("evolve", [exact_evolution, trotter_evolution])
@pytest.mark.parametrize("beta", [100.0, 1.0])
@pytest.mark.parametrize("n", [3, 7])
def test_work_distribution_matches_the_dense_oracle(n, beta, evolve):
    protocol = detection_protocol(n, beta=beta)
    u = evolve(protocol.schedule)
    initial, final = protocol.initial_spec, protocol.final_spec
    tm = transition_matrix(initial.spectrum, final.spectrum, u)
    work, probability = work_levels(work_distribution(tm, beta, beta))
    dense_tm = transition_matrix(dense_spectrum(initial), dense_spectrum(final), u)
    want_work, want_probability = work_levels(work_distribution(dense_tm, beta, beta))
    assert work.shape == want_work.shape
    assert np.abs(work - want_work).max() <= 1e-12
    assert np.abs(probability - want_probability).max() <= 1e-12


def test_twelve_qubit_ground_state_witness_runs_end_to_end():
    n, beta = 12, 100.0
    params = XXZParams(n, J=1.0, Jz=0.0, B=0.5)
    started = time.perf_counter()
    report = witness_evaluate(build_w_state(n), build_css(n), ThermalSpec(build_xxz(params), beta))
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n=12 ground-state witness: {elapsed:.1f} s, process peak RSS {peak_mb:.0f} MB")
    # the W state is the one-magnon Dicke state, which the separable
    # reference holds with weight ((n-1)/n)^(n-1)
    assert report.s_left == pytest.approx((n - 1) * math.log(n / (n - 1)), abs=1e-12)
    # S(W || e^{-beta H}/Z) = beta <W|H|W> + ln Z, with <W|H|W> = -2J - B (n - 2)
    chain = xxz_matrix(params, *dense_chain_pieces(n, params.boundary))
    energies = np.concatenate([np.linalg.eigvalsh(blocks).ravel() for _, blocks in sector_stacks(chain)])
    want = beta * (-2.0 - 0.5 * (n - 2)) + float(logsumexp(-beta * energies))
    assert report.s_right == pytest.approx(want, abs=1e-12 * want)
    assert not report.detected
