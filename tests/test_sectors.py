"""The S^z-sector representation of the XXZ chain against the dense oracle.

Every fast path built on the sector blocks (the dense assembly, the sector
spectra, the closed and open Trotter products and the direct sweep) is
compared with the dense code in ``dense_oracle``; the per-block numerical
checks must still reject corrupted blocks, alone or inside a stack.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_open_trotter, dense_s_right, dense_trotter, dense_xxz
from entwit import (
    DrivingSchedule,
    GridAxis,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    SweepGrid,
    XXZParams,
    build_xxz,
    embed_operator,
    open_trotter_evolution,
    split_chain,
    sweep_detection,
    sweep_reference,
    trotter_evolution,
)
from entwit.operators import check_unitary, checked_eigh
from entwit.spin_models import sector_spectra, xxz_sectors

couplings = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
boundaries = st.sampled_from(["periodic", "open"])


def chain_params(max_n):
    return st.builds(
        XXZParams,
        n=st.integers(min_value=2, max_value=max_n),
        J=couplings,
        Jz=couplings,
        B=couplings,
        boundary=boundaries,
    )


@settings(max_examples=40, deadline=None)
@given(chain_params(8))
# on two periodic sites both bonds join sites 1 and 2, so that bond counts twice
@example(XXZParams(2, J=0.7, Jz=-0.4, B=0.3, boundary="periodic"))
@example(XXZParams(2, J=0.7, Jz=-0.4, B=0.3, boundary="open"))
def test_build_xxz_matches_pauli_products(params):
    dev = np.abs(build_xxz(params).entries - dense_xxz(params).entries).max()
    assert dev <= 1e-13


@settings(max_examples=30, deadline=None)
@given(chain_params(7))
def test_sector_eigenvalues_match_dense_spectrum(params):
    energies = np.sort(np.concatenate([w for _, w, _ in sector_spectra(params)]))
    dense = np.linalg.eigvalsh(dense_xxz(params).entries)
    assert np.abs(energies - dense).max() <= 1e-12 * (1.0 + np.abs(dense).max())


@pytest.mark.parametrize("n", [2, 5, 7])
def test_sectors_partition_the_basis(n):
    sectors = xxz_sectors(n, "periodic")
    assert sectors is xxz_sectors(n, "periodic")  # built once, then reused
    indices = np.concatenate([s.indices for s in sectors])
    assert np.array_equal(np.sort(indices), np.arange(2**n))
    assert [s.size for s in sectors] == [math.comb(n, k) for k in range(n + 1)]
    assert [s.magnetization for s in sectors] == [n - 2 * k for k in range(n + 1)]
    for s in sectors:
        assert not s.hopping.flags.writeable
        assert np.array_equal(s.hopping, s.hopping.T)


def test_twelve_site_open_chain_is_free_fermions():
    # The open XX chain maps to free fermions with single-particle energies
    # -2J cos(pi q / (n + 1)); sector k holds every k-particle sum.  This
    # checks the largest register without any 4096 x 4096 matrix.
    n, coupling, field = 12, 0.8, 0.3
    params = XXZParams(n, J=coupling, Jz=0.0, B=field, boundary="open")
    single = -2.0 * coupling * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    spectra = sector_spectra(params)
    assert max(s.size for s, _, _ in spectra) == 924
    for k, (sector, energies, vectors) in enumerate(spectra):
        sums = [single[list(c)].sum() for c in itertools.combinations(range(n), k)]
        want = np.sort(np.array(sums, dtype=float) - field * (n - 2 * k))
        assert np.abs(energies - want).max() <= 1e-11
        assert vectors.shape == (sector.size, sector.size)


NONCOMMUTING_RAMP = {
    3: (
        XXZParams(3, 1.0, 0.8, 0.3, boundary="open"),
        XXZParams(3, 0.4, -0.2, 0.7, boundary="open"),
    ),
    4: (XXZParams(4, 1.0, 0.9, 0.2), XXZParams(4, 0.3, 0.0, 0.9)),
    7: (XXZParams(7, 1.0, 0.5, 1.2), XXZParams(7, 0.6, -0.3, 0.92)),
}


@pytest.mark.parametrize("sampling", ["left", "midpoint"])
@pytest.mark.parametrize("n", [3, 4, 7])
def test_trotter_matches_dense_step_product(n, sampling):
    initial, final = NONCOMMUTING_RAMP[n]
    schedule = DrivingSchedule(initial, final, t_f=1.3, steps=40)
    u = trotter_evolution(schedule, sampling=sampling).entries
    assert np.abs(u - dense_trotter(schedule, sampling)).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 7])
def test_sweep_matches_dense_gibbs_relative_entropy(n):
    reference = sweep_reference(n)
    grid = SweepGrid(
        GridAxis(0.0, 0.8, 0.4), GridAxis(0.0, 0.6, 0.3), GridAxis(0.5, 2.0, 0.75), n=n
    )
    result = sweep_detection(grid, reference)
    for (i, b), (j, jz), (k, t) in itertools.product(
        enumerate(grid.b_axis.values()),
        enumerate(grid.jz_axis.values()),
        enumerate(grid.t_axis.values()),
    ):
        want = dense_s_right(reference.rho, XXZParams(n, 1.0, jz, b), t)
        assert abs(result.s_right[i, j, k] - want) <= 1e-12


def test_reconstruction_check_rejects_a_corrupted_block():
    block = xxz_sectors(5, "periodic")[2].block(XXZParams(5, 1.0, 0.4, 0.1))
    checked_eigh(block)
    corrupted = block.copy()
    corrupted[0, 1] += 1e-3  # eigh reads one triangle only, so V w V^T misses this
    with pytest.raises(NumericalCheckError, match="reconstruction"):
        checked_eigh(corrupted)


def test_orthonormality_check_rejects_corrupted_eigenvectors(monkeypatch):
    real_eigh = np.linalg.eigh

    def skewed(matrix):
        w, v = real_eigh(matrix)
        v = v.copy()
        v[:, 0] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(NumericalCheckError, match="orthonormal"):
        trotter_evolution(DrivingSchedule(*NONCOMMUTING_RAMP[4], steps=3))


def test_unitarity_check_rejects_a_corrupted_propagator_block():
    w, v = checked_eigh(xxz_sectors(4, "open")[2].block(XXZParams(4, 1.0, 0.4, 0.1, "open")))
    factor = (v * np.exp(-0.1j * w)) @ v.T
    check_unitary(factor)
    factor[1, 1] *= 1.0 + 1e-8
    with pytest.raises(NumericalCheckError, match="unitarity"):
        check_unitary(factor)


@st.composite
def driven_splits(draw):
    """A split chain of 3-6 sites whose subsystem (2 or more random sites)
    follows a non-commuting ramp."""
    n = draw(st.integers(min_value=3, max_value=6))
    sites = draw(st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True))
    chain = XXZParams(n, draw(couplings), draw(couplings), draw(couplings), draw(boundaries))
    boundary = draw(boundaries)
    ramp = [
        XXZParams(len(sites), draw(couplings), draw(couplings), draw(couplings), boundary)
        for _ in range(2)
    ]
    schedule = DrivingSchedule(*ramp, t_f=draw(st.floats(0.1, 1.5)), steps=12)
    static = split_chain(chain, sites, 1.0)
    return dataclasses.replace(static, subsystem_hamiltonian=None, subsystem_schedule=schedule)


@settings(max_examples=25, deadline=None)
@given(driven_splits(), st.sampled_from(["left", "midpoint"]))
def test_open_trotter_matches_dense_step_product(composite, sampling):
    u = open_trotter_evolution(composite, sampling).entries
    assert np.abs(u - dense_open_trotter(composite, sampling)).max() <= 1e-12


@pytest.mark.parametrize("sampling", ["left", "midpoint"])
def test_open_trotter_with_a_magnetization_changing_coupling(sampling):
    # sx sx between sites 2 and 3 does not conserve S^z, so the product runs
    # on one block holding the whole register
    register = QubitRegister(4)
    sx_sx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    composite = dataclasses.replace(
        split_chain(XXZParams(4, 1.0, 0.4, 0.3, "open"), (1, 2), 1.0),
        subsystem_hamiltonian=None,
        subsystem_schedule=DrivingSchedule(
            XXZParams(2, 1.0, 0.8, 0.3, "open"),
            XXZParams(2, 0.4, -0.2, 0.7, "open"),
            t_f=1.1,
            steps=30,
        ),
        coupling=HermitianOperator(register, 0.7 * embed_operator(register, sx_sx, (2, 3))),
    )
    u = open_trotter_evolution(composite, sampling).entries
    assert np.abs(u - dense_open_trotter(composite, sampling)).max() <= 1e-12
    ones = np.array([bin(i).count("1") for i in range(16)])
    assert np.abs(u[ones[:, None] != ones[None, :]]).max() > 1e-3


def test_stacked_checks_reject_one_corrupted_block():
    params = XXZParams(6, 1.0, 0.4, 0.1)
    sectors = xxz_sectors(6, "periodic")
    stack = np.stack([sectors[2].block(params), sectors[4].block(params)])  # both 15 x 15
    w, v = checked_eigh(stack)
    factors = (v * np.exp(-0.1j * w)[:, None, :]) @ v.swapaxes(-1, -2)
    check_unitary(factors)

    corrupted = stack.copy()
    corrupted[1, 0, 1] += 1e-3  # eigh reads one triangle only
    with pytest.raises(NumericalCheckError, match="reconstruction"):
        checked_eigh(corrupted)
    factors[1, 1, 1] *= 1.0 + 1e-8
    with pytest.raises(NumericalCheckError, match="unitarity"):
        check_unitary(factors)


def test_reconstruction_scale_is_per_block():
    # an error allowed next to a large block is not allowed in a small one
    small = np.diag([1e-3, 2e-3])
    small[0, 1] += 5e-8  # below 1e-9 * (1 + 1e6), above 1e-9 * (1 + 2e-3)
    large = np.diag([1e6, -1e6])
    with pytest.raises(NumericalCheckError, match="reconstruction"):
        checked_eigh(np.stack([large, small]))
    checked_eigh(np.stack([large, large + np.triu(np.full((2, 2), 5e-8), 1)]))
