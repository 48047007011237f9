"""The XXZ chain's cached piece stacks and their S^z sectors against the
dense oracle.

Every fast path built on the piece stacks (the chain's blocks, the sector
spectra, the closed and open Trotter products and the direct sweep) is
compared with the dense code in ``dense_oracle``; the per-block numerical checks must still reject corrupted
blocks, alone or inside a stack.  The Trotter products are compared on both
sides of TAYLOR_THETA, where the run factors come from the Taylor kernel
below it and from the spectral kernel above it.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    allocating_product,
    dense_chain_pieces,
    dense_open_trotter,
    dense_pieces,
    dense_s_right,
    dense_trotter,
    dense_xxz,
    embed_operator,
    embedded_coupling,
    piece_stacks,
    xxz_matrix,
)
from entwit import (
    DrivingSchedule,
    GridAxis,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    SweepGrid,
    XXZParams,
    build_xxz,
    detection_protocol,
    open_trotter_evolution,
    split_chain,
    sweep_detection,
    sweep_reference,
    trotter_evolution,
)
import entwit.open_system
import entwit.work_stats
from entwit.open_system import _open_pieces
from entwit.operators import check_unitary, checked_eigh, sector_stacks
from entwit.spin_models import _bonds, chain_pieces, xxz_pieces
from entwit.work_stats import (
    STEP_CHUNK,
    TAYLOR_DEGREE,
    TAYLOR_THETA,
    _taylor_degree,
    ordered_product,
    schedule_coefficients,
    taylor_exp,
)

couplings = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
boundaries = st.sampled_from(["periodic", "open"])


def chain_matrix(params):
    """The chain's real dense matrix, from ``build_xxz``'s blocks."""
    return build_xxz(params).entries.real


def chain_spectra(params):
    """(basis indices, ascending energies, eigenvectors) of every S^z sector
    of the chain, one checked ``eigh`` per stack of ``build_xxz``'s blocks."""
    return [
        sector
        for indices, blocks in build_xxz(params).stacks
        for sector in zip(indices, *checked_eigh(blocks))
    ]


def sector_stack(params, size):
    """The stack of the chain's S^z sectors that hold ``size`` states."""
    return next(blocks for indices, blocks in build_xxz(params).stacks if indices.shape[1] == size)


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


@settings(max_examples=60, deadline=None)
@given(chain_params(8))
@example(XXZParams(4, J=-0.7, Jz=0.4, B=0.3, boundary="periodic"))
@example(XXZParams(4, J=0.7, Jz=-0.4, B=-0.3, boundary="periodic"))
def test_build_xxz_has_the_bits_of_the_dense_combination(params):
    # J H_xy + diag(Jz zz - B m) on the dense pieces, cut into its sectors:
    # equal values, and for J > 0 equal bytes, signed zeros included (for
    # J < 0 the dense J H_xy holds -0.0 where the blocks add +0.0 to it)
    dense = xxz_matrix(params, *dense_chain_pieces(params.n, params.boundary))
    stacks = build_xxz(params).stacks
    want = sector_stacks(dense)
    assert len(stacks) == len(want)
    for (indices, blocks), (want_indices, want_blocks) in zip(stacks, want):
        assert np.array_equal(indices, want_indices)
        assert blocks.dtype == want_blocks.dtype == np.float64
        assert np.array_equal(blocks, want_blocks)
        if params.J > 0:
            assert blocks.tobytes() == np.ascontiguousarray(want_blocks).tobytes()


@settings(max_examples=30, deadline=None)
@given(chain_params(7))
def test_sector_eigenvalues_match_dense_spectrum(params):
    energies = np.sort(np.concatenate([w for _, w, _ in chain_spectra(params)]))
    dense = np.linalg.eigvalsh(dense_xxz(params).entries)
    assert np.abs(energies - dense).max() <= 1e-12 * (1.0 + np.abs(dense).max())


@pytest.mark.parametrize("n", [2, 5, 7])
def test_sectors_partition_the_basis(n):
    stacks = xxz_pieces(n, "periodic")
    assert stacks is xxz_pieces(n, "periodic")  # built once, then reused
    for indices, blocks in stacks:
        for array in (indices, blocks):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        hopping, zz, magnetization = blocks
        assert np.array_equal(hopping, hopping.swapaxes(-1, -2))
        for piece in (zz, magnetization):
            assert np.array_equal(piece, piece * np.eye(indices.shape[1]))
    # the blocks are the chain's dense pieces, cut to the popcount sectors
    dense = dense_chain_pieces(n, "periodic")
    want = sector_stacks(np.stack([dense[0], np.diag(dense[1]), np.diag(dense[2])]))
    for (indices, blocks), (want_indices, want_blocks) in zip(stacks, want, strict=True):
        assert np.array_equal(indices, want_indices) and np.array_equal(blocks, want_blocks)
    sectors = [indices for stacked, _ in stacks for indices in stacked]
    indices = np.concatenate(sectors)
    assert np.array_equal(np.sort(indices), np.arange(2**n))
    ones = [bin(int(s[0])).count("1") for s in sectors]
    assert sorted(ones) == list(range(n + 1))
    assert [s.size for s in sectors] == [math.comb(n, k) for k in ones]
    magnetization = [m for _, blocks in stacks for m in blocks[2, :, 0, 0]]
    assert magnetization == [n - 2 * k for k in ones]


@st.composite
def bond_graphs(draw):
    """(n, bonds, field sites): any 0-based site pairs, repeats allowed, and
    any subset of the sites for the field."""
    n = draw(st.integers(min_value=2, max_value=10))
    site = st.integers(min_value=0, max_value=n - 1)
    bonds = draw(st.lists(st.tuples(site, site).filter(lambda pair: pair[0] != pair[1]), max_size=2 * n))
    return n, bonds, draw(st.lists(site, unique=True))


@settings(max_examples=60, deadline=None)
@given(bond_graphs())
@example((2, [(0, 1), (1, 0)], [0, 1]))  # the two-site ring's doubled bond
@example((10, [], []))
def test_chain_pieces_have_the_bytes_of_the_cut_dense_pieces(graph):
    n, bonds, field_sites = graph
    got = chain_pieces(n, bonds, field_sites)
    want = piece_stacks(dense_pieces(n, bonds, field_sites))
    assert len(got) == len(want)
    for (indices, blocks), (want_indices, want_blocks) in zip(got, want):
        assert np.array_equal(indices, want_indices)
        assert blocks.dtype == want_blocks.dtype == np.float64 and blocks.shape == want_blocks.shape
        assert blocks.tobytes() == want_blocks.tobytes()
        assert not blocks.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_chain_couples_its_parts_as_the_embedded_bonds_did(data):
    params = data.draw(chain_params(8))
    sub = data.draw(st.lists(st.integers(min_value=1, max_value=params.n), min_size=1, unique=True))
    coupling = split_chain(params, sub, 1.0).coupling
    if len(sub) == params.n:
        assert coupling is None
        return
    want = embedded_coupling(params, sub)
    assert len(coupling.stacks) == len(want.stacks)
    for (indices, blocks), (want_indices, want_blocks) in zip(coupling.stacks, want.stacks):
        assert np.array_equal(indices, want_indices)
        assert blocks.tobytes() == want_blocks.tobytes()


def test_the_twelve_site_chain_is_built_on_its_sectors_alone():
    # the pieces take 65 MB; the dense 4096 x 4096 H_xy that was cut into
    # them took 134 MB on its own
    tracemalloc.start()
    try:
        chain_pieces(12, _bonds(12, "periodic"), range(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_twelve_site_open_chain_is_free_fermions():
    # The open XX chain maps to free fermions with single-particle energies
    # -2J cos(pi q / (n + 1)); sector k holds every k-particle sum.  This
    # checks the largest register without a 4096 x 4096 eigensolve.
    n, coupling, field = 12, 0.8, 0.3
    params = XXZParams(n, J=coupling, Jz=0.0, B=field, boundary="open")
    single = -2.0 * coupling * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    spectra = chain_spectra(params)
    assert max(indices.size for indices, _, _ in spectra) == 924
    ones = [bin(int(indices[0])).count("1") for indices, _, _ in spectra]
    assert sorted(ones) == list(range(n + 1))
    for k, (indices, energies, vectors) in zip(ones, spectra):
        sums = [single[list(c)].sum() for c in itertools.combinations(range(n), k)]
        want = np.sort(np.array(sums, dtype=float) - field * (n - 2 * k))
        assert np.abs(energies - want).max() <= 1e-11
        assert vectors.shape == (indices.size, indices.size)


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


def four_site_split(steps, t_f=1.1):
    """Sites 1-2 of an open four-site chain following a non-commuting ramp."""
    return dataclasses.replace(
        split_chain(XXZParams(4, 1.0, 0.4, 0.3, "open"), (1, 2), 1.0),
        subsystem_hamiltonian=None,
        subsystem_schedule=DrivingSchedule(
            XXZParams(2, 1.0, 0.8, 0.3, "open"), XXZParams(2, 0.4, -0.2, 0.7, "open"), t_f=t_f, steps=steps
        ),
    )


@pytest.mark.parametrize("sampling", ["left", "midpoint"])
@pytest.mark.parametrize("n", [3, 7])
def test_standard_protocols_match_dense_step_product(n, sampling):
    # a field ramp (n = 7) or a field and Jz ramp (n = 3): steps share spectra
    schedule = dataclasses.replace(detection_protocol(n).schedule, steps=100)
    u = trotter_evolution(schedule, sampling=sampling).entries
    assert np.abs(u - dense_trotter(schedule, sampling)).max() <= 1e-12


@st.composite
def block_products(draw):
    """Dense pieces that are block diagonal in the popcount sectors, some of
    them exact multiples of the identity on some sectors, one of them perhaps
    with an entry between two sectors; and a coefficient table whose rows
    repeat in consecutive runs; between runs, some of the coefficients
    change.  The first piece is random on the largest sector, so that some
    time step puts a chunk above TAYLOR_THETA."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    dim = 2**n
    ones = np.array([bin(i).count("1") for i in range(dim)])
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    count = draw(st.integers(2, 4))
    pieces = np.zeros((count, dim, dim), dtype=dtype)
    for k in range(n + 1):
        indices = np.flatnonzero(ones == k)
        size = indices.size
        for j, piece in enumerate(pieces):
            kind = draw(st.sampled_from(["random", "random", "flat-diagonal", "scalar", "zero"]))
            if j == 0 and k == n // 2:
                kind = "random"
            block = np.zeros((size, size), dtype=dtype)
            if kind in ("random", "flat-diagonal"):
                a = rng.normal(size=(size, size))
                if dtype is np.complex128:
                    a = a + 1j * rng.normal(size=(size, size))
                block[...] = 0.5 * (a + a.conj().T)
            if kind == "flat-diagonal":  # alpha I plus off-diagonal entries
                block[np.diag_indices(size)] = rng.normal()
            elif kind == "scalar":
                block[...] = rng.normal() * np.eye(size)
            piece[indices[:, None], indices] = block
    if draw(st.booleans()):  # one entry between sectors: the whole register is one block
        piece = pieces[draw(st.integers(0, count - 1))]
        piece[0, dim - 1] = piece[dim - 1, 0] = rng.normal()
    rows = []
    row = rng.uniform(-2.0, 2.0, size=count)
    for repeat in draw(st.lists(st.integers(1, 6), min_size=2, max_size=8)):
        changed = sorted(draw(st.sets(st.integers(0, count - 1), min_size=1)))
        row = row.copy()
        row[changed] = rng.uniform(-2.0, 2.0, size=len(changed))
        rows += [row] * repeat
    return n, pieces, np.array(rows), draw(st.floats(0.01, 0.5))


def dense_step_product(pieces, coefficients, dt):
    """Ordered product of full-register step propagators, step 0 first."""
    want = np.eye(pieces.shape[-1], dtype=np.complex128)
    for row in coefficients:
        w, v = np.linalg.eigh(np.tensordot(row, pieces, axes=1))
        want = (v * np.exp(-1j * dt * w)) @ v.conj().T @ want
    return want


def counting(kind, kernel, calls):
    """``kernel``, recording (kind, stack shape) in ``calls`` at each call."""

    def counted(matrix, *args):
        calls.append((kind, matrix.shape))
        return kernel(matrix, *args)

    return counted


def record_kernels(patch, calls):
    """Record in ``calls`` the (kernel, stack shape) of every batched
    exponential ``ordered_product`` takes: 'spectral' for ``checked_eigh``,
    'taylor' for ``taylor_exp``."""
    patch.setattr(entwit.work_stats, "checked_eigh", counting("spectral", checked_eigh, calls))
    patch.setattr(entwit.work_stats, "taylor_exp", counting("taylor", taylor_exp, calls))


def product_and_kernels(n, pieces, coefficients, dt):
    """The ordered product, and the kernel calls it made."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        record_kernels(patch, calls)
        u = ordered_product(QubitRegister(n), piece_stacks(pieces), coefficients, dt).entries
    return u, calls


def time_steps_across_theta_star(pieces, coefficients):
    """A time step at which every chunk has theta <= TAYLOR_THETA, and one at
    which some chunk has theta >= 2 TAYLOR_THETA, with theta the largest
    ||L dt R||_1 of a chunk's runs.

    Above: L <= steps and ||R_b||_1 <= sum_j |c_j| ||P_j||_1 on any block b.
    Below: ||R_b||_1 >= spectral radius >= spread / 2, and the spread of R on
    a block is that of H there (the scalar pieces only shift it), which is
    at least its spread on any S^z sector inside the block (interlacing).
    """
    steps = len(coefficients)
    ceiling = steps * sum(
        np.abs(c).max() * np.abs(piece).sum(axis=0).max() for c, piece in zip(coefficients.T, pieces)
    )
    ones = np.array([bin(i).count("1") for i in range(pieces.shape[-1])])
    spread = 0.0
    for k in np.unique(ones):
        indices = np.flatnonzero(ones == k)
        w = np.linalg.eigvalsh(np.tensordot(coefficients, pieces[:, indices[:, None], indices], axes=1))
        spread = max(spread, float((w[:, -1] - w[:, 0]).max()))
    return TAYLOR_THETA / ceiling, 4.0 * TAYLOR_THETA / spread


@settings(max_examples=60, deadline=None)
@given(block_products())
def test_ordered_product_matches_dense_step_product(case):
    n, pieces, coefficients, dt = case
    taylor_dt, spectral_dt = time_steps_across_theta_star(pieces, coefficients)
    # larger time steps would test the dense oracle's roundoff, not the kernels
    assume(spectral_dt <= 0.5)
    ran = set()
    for step in (dt, taylor_dt, spectral_dt):
        u, calls = product_and_kernels(n, pieces, coefficients, step)
        assert np.abs(u - dense_step_product(pieces, coefficients, step)).max() <= 1e-12
        # the workspace runs the allocating loop's operations in its order
        assert np.array_equal(u, allocating_product(pieces, coefficients, step))
        kinds = {kind for kind, _ in calls}
        if step == taylor_dt:
            assert kinds == {"taylor"}
        if step == spectral_dt:
            assert "spectral" in kinds
        ran |= kinds
    assert ran == {"spectral", "taylor"}


def test_consecutive_products_share_no_memory():
    register = QubitRegister(4)

    def product(schedule):
        return ordered_product(register, xxz_pieces(4), schedule_coefficients(schedule), schedule.dt)

    first = product(DrivingSchedule(*NONCOMMUTING_RAMP[4], t_f=1.3, steps=2 * STEP_CHUNK + 5))
    kept = first.entries.copy()
    second = product(DrivingSchedule(*NONCOMMUTING_RAMP[4][::-1], t_f=0.7, steps=STEP_CHUNK + 3))
    assert np.array_equal(first.entries, kept)
    assert not np.array_equal(first.entries, second.entries)
    assert not np.shares_memory(first.entries, second.entries)
    for (_, a), (_, b) in zip(first.stacks, second.stacks, strict=True):
        assert not np.shares_memory(a, b)


def test_the_taylor_kernel_is_exact_to_roundoff_up_to_theta_star():
    # random Hermitian stacks, real and complex, scaled to 1-norms from 1e-9
    # (degree 1) to TAYLOR_THETA (degree TAYLOR_DEGREE), against exp(-i x)
    # from eigh
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 6, 6))
    b = a + 1j * rng.normal(size=(3, 6, 6))
    degrees = set()
    for block in (a + a.swapaxes(-1, -2), b + b.conj().swapaxes(-1, -2)):
        unit = block / np.abs(block).sum(axis=-2).max()
        for theta in np.geomspace(1e-9, TAYLOR_THETA, 40):
            x = theta * unit
            w, v = np.linalg.eigh(x)
            want = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
            degree = _taylor_degree(theta)
            degrees.add(degree)
            assert np.abs(taylor_exp(x, degree) - want).max() <= 2e-15
    assert degrees == set(range(1, TAYLOR_DEGREE + 1))


# one step, a chunk less one, a full chunk, one more, and many chunks
@pytest.mark.parametrize("steps", [1, STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 1000])
@pytest.mark.parametrize("sampling", ["left", "midpoint"])
def test_chunked_products_match_dense_step_products(steps, sampling):
    schedule = DrivingSchedule(*NONCOMMUTING_RAMP[4], t_f=1.3, steps=steps)
    u = trotter_evolution(schedule, sampling=sampling).entries
    assert np.abs(u - dense_trotter(schedule, sampling)).max() <= 1e-12
    composite = four_site_split(steps)
    u = open_trotter_evolution(composite, sampling).entries
    assert np.abs(u - dense_open_trotter(composite, sampling)).max() <= 1e-12


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kernel calls ``ordered_product`` makes, as ``record_kernels``."""
    calls = []
    record_kernels(monkeypatch, calls)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_diagonal_pieces_give_the_bits_of_their_dense_matrices(kernel_calls, n, boundary):
    # the cached piece stacks, whose H_zz and S_z were cut from diagonals,
    # and the piece stacks of np.diag matrices: the blocks, and so every
    # operation of the product, are the same.  A field ramp shares one
    # spectrum per stack (the spectral kernel); 1000 slices of a
    # non-commuting ramp each take the Taylor kernel
    register = QubitRegister(n)
    hopping, zz, magnetization = dense_chain_pieces(n, boundary)
    dense = piece_stacks(np.stack([hopping, np.diag(zz), np.diag(magnetization)]))
    field = DrivingSchedule(XXZParams(n, 1.0, 0.3, 1.2, boundary), XXZParams(n, 1.0, 0.3, 0.5, boundary), steps=80)
    ramp = DrivingSchedule(XXZParams(n, 1.0, 0.8, 0.3, boundary), XXZParams(n, 0.4, -0.2, 0.7, boundary), steps=1000)
    for schedule, kinds in ((field, {"spectral", "taylor"}), (ramp, {"taylor"})):
        coefficients = schedule_coefficients(schedule)
        u = ordered_product(register, xxz_pieces(n, boundary), coefficients, schedule.dt)
        assert np.array_equal(u.entries, ordered_product(register, dense, coefficients, schedule.dt).entries)
        assert {kind for kind, _ in kernel_calls} == kinds
        kernel_calls.clear()


@pytest.mark.parametrize("sampling", ["left", "midpoint"])
def test_the_open_chain_passes_diagonals_with_the_bits_of_dense_pieces(monkeypatch, sampling):
    # sites 1-3 of an open six-site chain follow a Jz and field ramp in 1000
    # slices.  ``_open_pieces`` cuts the fixed piece and H_xy dense and H_zz
    # and S_z as diagonals; the same pieces with the diagonals expanded to
    # matrices give the same product, to the bit
    composite = dataclasses.replace(
        split_chain(XXZParams(6, 1.0, 0.4, 0.3, "open"), (1, 2, 3), 1.0),
        subsystem_hamiltonian=None,
        subsystem_schedule=DrivingSchedule(
            XXZParams(3, 1.0, 0.5, 0.01, "open"), XXZParams(3, 1.0, 0.0, 0.5, "open"), steps=1000
        ),
    )
    calls = []

    def recorded(*args):
        calls.append(args)
        return ordered_product(*args)

    monkeypatch.setattr(entwit.open_system, "ordered_product", recorded)
    u = open_trotter_evolution(composite, sampling)
    ((register, stacks, coefficients, dt),) = calls
    for (indices, blocks), (own, own_blocks) in zip(stacks, _open_pieces(composite), strict=True):
        assert np.array_equal(indices, own) and np.array_equal(blocks, own_blocks)
    fixed = np.zeros((64, 64), dtype=np.complex128) + composite.coupling.entries
    fixed = fixed + embed_operator(register, composite.bath_hamiltonian.entries, (4, 5, 6))
    hopping, zz, magnetization = dense_pieces(6, [(0, 1), (1, 2)], [0, 1, 2])
    dense = piece_stacks(np.stack([fixed, hopping, np.diag(zz), np.diag(magnetization)]))
    assert np.array_equal(u.entries, ordered_product(register, dense, coefficients, dt).entries)



def test_a_varying_piece_off_the_sectors_puts_the_register_in_one_block(kernel_calls):
    # the fixed piece conserves S^z, the varying one (sx on site 2) does not:
    # the blocks must come from both, so the product runs on the whole register
    register = QubitRegister(3)
    fixed = chain_matrix(XXZParams(3, 1.0, 0.4, 0.2))
    sx = embed_operator(register, np.array([[0.0, 1.0], [1.0, 0.0]]), (2,)).real
    pieces = np.stack([fixed, sx])
    coefficients = np.column_stack([np.ones(20), np.linspace(0.1, 0.9, 20)])
    u = ordered_product(register, piece_stacks(pieces), coefficients, 0.05).entries
    assert np.abs(u - dense_step_product(pieces, coefficients, 0.05)).max() <= 1e-12
    # one kernel call for the one chunk of 20 runs, on the whole register
    assert [shape for _, shape in kernel_calls] == [(20, 1, 8, 8)]


def test_each_group_is_diagonalized_once_per_chunk(kernel_calls):
    trotter_evolution(DrivingSchedule(*NONCOMMUTING_RAMP[4], steps=2 * STEP_CHUNK + 5))
    # four sites: sector sizes 1, 4, 6, 4, 1 stack into three groups.  J
    # changes at every step, so the 4- and 6-state groups have one run per
    # step, in chunks of 32, 32 and 5; on 1 x 1 blocks every piece is a
    # multiple of the identity, so that group is one run and one call.  Each
    # chunk takes one call of one kernel, whichever its theta picks
    assert sorted(shape for _, shape in kernel_calls) == sorted(
        [(1, 2, 1, 1)] + [(c, 2, 4, 4) for c in (STEP_CHUNK, STEP_CHUNK, 5)]
        + [(c, 1, 6, 6) for c in (STEP_CHUNK, STEP_CHUNK, 5)]
    )
    # at dt = 1/69 both kernels run: the 6-state group's first chunk (largest
    # J) is above TAYLOR_THETA, the 1 x 1 group (theta = 0) below it
    assert {kind for kind, _ in kernel_calls} == {"spectral", "taylor"}


@pytest.mark.parametrize("steps", [80, 1000])
def test_a_field_ramp_is_diagonalized_once_per_group(kernel_calls, steps):
    # the seven-qubit protocol ramps B alone, and S_z is m I on each sector:
    # every step of a group shares one spectrum, and that one run's theta
    # is the whole t_f R, above TAYLOR_THETA for any step count; on the
    # 1 x 1 blocks R = 0, so theta = 0 and the polynomial takes them
    schedule = dataclasses.replace(detection_protocol(7).schedule, steps=steps)
    trotter_evolution(schedule)
    # sector sizes 1, 7, 21, 35, 35, 21, 7, 1 stack into four groups
    assert sorted(kernel_calls) == sorted(
        [("taylor", (1, 2, 1, 1))] + [("spectral", (1, 2, s, s)) for s in (7, 21, 35)]
    )


@pytest.mark.parametrize("corrupt", ["eigenvalue", "eigenvector"])
def test_a_corrupted_block_inside_a_chunk_is_rejected(monkeypatch, corrupt):
    real_eigh = np.linalg.eigh

    def skewed(matrix):
        w, v = real_eigh(matrix)
        if matrix.ndim == 4 and matrix.shape[0] > 1:  # a (chunk, k, s, s) stack of several runs
            w, v = w.copy(), v.copy()
            middle = (matrix.shape[0] // 2, matrix.shape[1] - 1)
            if corrupt == "eigenvalue":
                w[middle + (0,)] += 1e-3
            else:
                v[middle + (slice(None), 0)] *= 1.0 + 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    # dt = 1: every chunk is far above TAYLOR_THETA, so the spectral kernel
    # takes the stacks of several runs
    steps = STEP_CHUNK + 3
    schedule = DrivingSchedule(*NONCOMMUTING_RAMP[4], t_f=float(steps), steps=steps)
    match = "reconstruction" if corrupt == "eigenvalue" else "orthonormal"
    with pytest.raises(NumericalCheckError, match=match):
        trotter_evolution(schedule)
    with pytest.raises(NumericalCheckError, match=match):
        open_trotter_evolution(four_site_split(steps, t_f=float(steps)))


def test_a_corrupted_polynomial_factor_is_rejected(monkeypatch):
    corrupted = []

    def skewed(x, degree, work):
        factors = taylor_exp(x, degree, work)
        if x.shape[0] > 1:  # a stack of several runs
            factors[x.shape[0] // 2, -1, 0, 0] *= 1.0 + 1e-8
            corrupted.append(x.shape)
        return factors

    monkeypatch.setattr(entwit.work_stats, "taylor_exp", skewed)
    # 1000 slices of a non-commuting ramp: every chunk is below TAYLOR_THETA
    for evolve in (
        lambda: trotter_evolution(DrivingSchedule(*NONCOMMUTING_RAMP[4], steps=1000)),
        lambda: open_trotter_evolution(four_site_split(1000)),
    ):
        with pytest.raises(NumericalCheckError, match="unitarity") as caught:
            evolve()
        # the chunk's own check fails, before the product is assembled
        assert [entry.name for entry in caught.traceback[-2:]] == ["ordered_product", "check_unitary"]
    assert len(corrupted) == 2


def test_a_nan_coefficient_is_rejected(kernel_calls):
    # a NaN coefficient of a varying piece (sx on site 2, off the sectors)
    # makes theta NaN, which takes the spectral kernel and its eigensolver
    # check
    register = QubitRegister(3)
    sx = embed_operator(register, np.array([[0.0, 1.0], [1.0, 0.0]]), (2,)).real
    pieces = piece_stacks(np.stack([chain_matrix(XXZParams(3, 1.0, 0.4, 0.2)), sx]))
    coefficients = np.column_stack([np.ones(1000), np.linspace(0.1, 0.9, 1000)])
    coefficients[500, 1] = np.nan
    with pytest.raises(NumericalCheckError, match="eigensolver|orthonormal"):
        ordered_product(register, pieces, coefficients, 1e-3)
    assert kernel_calls[-1] == ("spectral", (STEP_CHUNK, 1, 8, 8))
    # a NaN in -B (S_z, a multiple of the identity on every sector) leaves
    # theta finite and the polynomial factor's phase NaN, which its
    # unitarity check rejects
    schedule = DrivingSchedule(*NONCOMMUTING_RAMP[4], steps=1000)
    coefficients = schedule_coefficients(schedule)
    coefficients[500, 2] = np.nan
    with pytest.raises(NumericalCheckError, match="unitarity"):
        ordered_product(QubitRegister(4), xxz_pieces(4), coefficients, schedule.dt)
    assert kernel_calls[-1][0] == "taylor"


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
    block = sector_stack(XXZParams(5, 1.0, 0.4, 0.1), 10)[0]
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
    (block,) = sector_stack(XXZParams(4, 1.0, 0.4, 0.1, "open"), 6)
    w, v = checked_eigh(block)
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
        four_site_split(30),
        coupling=HermitianOperator(register, 0.7 * embed_operator(register, sx_sx, (2, 3))),
    )
    u = open_trotter_evolution(composite, sampling).entries
    assert np.abs(u - dense_open_trotter(composite, sampling)).max() <= 1e-12
    ones = np.array([bin(i).count("1") for i in range(16)])
    assert np.abs(u[ones[:, None] != ones[None, :]]).max() > 1e-3


def test_stacked_checks_reject_one_corrupted_block():
    stack = sector_stack(XXZParams(6, 1.0, 0.4, 0.1), 15)  # two and four ones
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
