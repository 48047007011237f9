"""The S^z-sector representation of the XXZ chain against the dense oracle.

Every fast path built on the sector blocks (the dense assembly, the sector
spectra, the Trotter product and the direct sweep) is compared with the
Pauli-product code in ``dense_oracle``; the per-block numerical checks must
still reject corrupted blocks.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_s_right, dense_trotter, dense_xxz
from entwit import (
    DrivingSchedule,
    GridAxis,
    NumericalCheckError,
    SweepGrid,
    XXZParams,
    build_xxz,
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
    for report in result.results:
        meta = report.metadata
        params = XXZParams(n, 1.0, meta["Jz"], meta["B"])
        want = dense_s_right(reference.rho, params, meta["T"])
        assert abs(report.s_right - want) <= 1e-12


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
