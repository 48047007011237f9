"""Container validation, spectral helpers, embeddings, partial traces and
JSON round trips."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    DensityMatrix,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    ThermalSpec,
    UnitaryOperator,
    XXZParams,
    build_xxz,
    density_from_json,
    detection_protocol,
    spectral_decompose,
    thermal_state,
    unitary_from_json,
)
from entwit import operators, witness
from entwit.operators import assemble, matrix_from_json, sector_stacks, spectral_function
from entwit.spin_models import xxz_pieces
from dense_oracle import (
    dense_chain_pieces,
    dense_dicke_mixture,
    dicke_state,
    embed_operator,
    matrix_to_json,
    partial_trace_matrix,
    pure_state,
)
from entwit.witness import _identity_unitary, build_css, build_w_state, reference_state, state_checksum, sweep_reference

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------- registers

def test_register_dim():
    assert QubitRegister(1).dim == 2
    assert QubitRegister(5).dim == 32


def test_register_bounds():
    with pytest.raises(ValueError):
        QubitRegister(0)
    with pytest.raises(ValueError):
        QubitRegister(13)


# ---------------------------------------------------------------- containers

def test_hermitian_rejects_nonhermitian():
    reg = QubitRegister(1)
    with pytest.raises(NumericalCheckError):
        HermitianOperator(reg, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        HermitianOperator(QubitRegister(2), np.eye(2))


@pytest.mark.parametrize("container", [HermitianOperator, DensityMatrix])
@pytest.mark.parametrize("row, col", [(3, 5), (6, 5), (1, 4)])
def test_hermiticity_is_checked_inside_every_sector_block(container, row, col):
    # a state block diagonal in the popcount sectors of three qubits, made
    # non-Hermitian inside one block only, so the check runs on the sectors
    base = np.diag([0.4, 0.1, 0.1, 0.05, 0.1, 0.05, 0.05, 0.15]).astype(complex)
    for step, passes in ((0.5e-12, True), (2e-12, False), (2e-12j, False)):
        entries = base.copy()
        entries[row, col] += step
        if passes:
            container(QubitRegister(3), entries)
        else:
            with pytest.raises(NumericalCheckError, match="not self-adjoint"):
                container(QubitRegister(3), entries)


def test_density_rejects_bad_trace():
    with pytest.raises(NumericalCheckError, match="trace"):
        DensityMatrix(QubitRegister(1), np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(NumericalCheckError, match="eigenvalue"):
        DensityMatrix(QubitRegister(1), np.diag([1.5, -0.5]))


def test_density_keeps_the_spectrum_of_its_check():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    entries = a @ a.conj().T
    rho = DensityMatrix(QubitRegister(2), entries / np.trace(entries).real)
    assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.entries))
    assert not rho.eigenvalues.flags.writeable


def test_unitary_rejects_nonunitary():
    with pytest.raises(NumericalCheckError, match="unitarity"):
        UnitaryOperator(QubitRegister(1), np.diag([1.0, 2.0]))


def test_unitary_tolerance_is_adjustable(monkeypatch):
    # the one tolerance is the module constant UNITARITY_ATOL, read per check
    almost = np.diag([1.0, 1.0 + 1e-8])
    with pytest.raises(NumericalCheckError, match="unitarity"):
        UnitaryOperator(QubitRegister(1), almost)
    monkeypatch.setattr(operators, "UNITARITY_ATOL", 1e-6)
    UnitaryOperator(QubitRegister(1), almost)


def test_unitary_keeps_its_sector_blocks_and_deviation():
    # a unitary on the sectors of two qubits is checked on its blocks
    rng = np.random.default_rng(5)
    middle, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    dense = np.zeros((4, 4), dtype=complex)
    dense[0, 0], dense[3, 3] = 1j, -1.0
    dense[1:3, 1:3] = middle
    u = UnitaryOperator(QubitRegister(2), dense)
    assert [indices.tolist() for indices, _ in u.stacks] == [[[0], [3]], [[1, 2]]]
    assert np.array_equal(u.stacks[1][1][0], middle)
    assert not any(part.flags.writeable for _, part in u.stacks)
    assert dense.flags.writeable
    assert u.deviation == max(
        np.abs(part.conj().swapaxes(-1, -2) @ part - np.eye(part.shape[-1])).max() for _, part in u.stacks
    )
    assert u.deviation <= 1e-15


# ---------------------------------------------------------------- stored form

def container_matrix(kind, n, seed, conserving):
    """A random matrix that ``kind`` accepts, block diagonal in the popcount
    sectors when ``conserving``, with entries between them otherwise."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    ones = np.array([bin(i).count("1") for i in range(dim)])
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if conserving:
        g[ones[:, None] != ones[None, :]] = 0.0
    if kind is HermitianOperator:
        return g + g.conj().T
    if kind is DensityMatrix:
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    if not conserving:
        return np.linalg.qr(g)[0]
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        sector = np.ix_(ones == k, ones == k)
        u[sector] = np.linalg.qr(g[sector])[0]
    return u


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([HermitianOperator, DensityMatrix, UnitaryOperator]),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    conserving=st.booleans(),
)
def test_a_container_from_a_matrix_equals_the_one_from_its_stacks(kind, n, seed, conserving):
    matrix = container_matrix(kind, n, seed, conserving)
    from_matrix = kind(QubitRegister(n), matrix)
    from_stacks = kind(QubitRegister(n), sector_stacks(matrix))
    assert len(from_matrix.stacks) == len(from_stacks.stacks)
    for (i, a), (j, b) in zip(from_matrix.stacks, from_stacks.stacks):
        assert np.array_equal(i, j) and np.array_equal(a, b)
    assert (len(from_matrix.stacks[0][0]) > 1) == conserving
    assert from_matrix.entries.dtype == from_stacks.entries.dtype == np.complex128
    assert np.array_equal(from_matrix.entries, matrix)
    assert np.array_equal(from_stacks.entries, matrix)


def two_qubit_stacks():
    return [(np.array([[0], [3]]), np.full((2, 1, 1), 0.25)), (np.array([[1, 2]]), 0.25 * np.eye(2)[None])]


@pytest.mark.parametrize(
    "change, error, match",
    [
        (lambda s: s[:1], ValueError, "every basis state once"),
        (lambda s: [s[0], (np.array([[1, 1]]), s[1][1])], ValueError, "every basis state once"),
        (lambda s: [s[0], (s[1][0], s[1][1][:, :1])], ValueError, "blocks"),
        (lambda s: [s[0], (s[1][0], np.full((1, 2, 2), np.nan))], NumericalCheckError, "non-finite"),
    ],
    ids=["missing index", "duplicated index", "block shape", "nan"],
)
@pytest.mark.parametrize("kind", [HermitianOperator, DensityMatrix])
def test_malformed_stacks_are_refused(kind, change, error, match):
    kind(QubitRegister(2), two_qubit_stacks())
    with pytest.raises(error, match=match):
        kind(QubitRegister(2), change(two_qubit_stacks()))


def test_a_whole_register_container_keeps_no_reference_to_its_input():
    matrix = container_matrix(DensityMatrix, 3, 2, conserving=False)
    rho = DensityMatrix(QubitRegister(3), matrix)
    (indices, blocks), = rho.stacks
    assert indices.shape == (1, 8)
    kept = rho.entries
    matrix[0, 0] = 7.0
    assert np.array_equal(rho.entries, kept)
    assert matrix.flags.writeable and not blocks.flags.writeable


# SHA-256 digests of the complex128 bytes that sweep_meta.json records for
# the reference states; any drift in dtype or in the sign of a zero shows here
CHECKSUMS = {
    ("w", 3): "5f094cef845c2539fcd0145fb163066b898aa51bb68e478f0c7718c53de3eda9",
    ("reference", 3): "c32c86f3412642319a1e1da33b0c30100910adff0225b08618a8c56ed4c97744",
    ("w", 7): "504d6ba6eefa184163ae3372212a77f24fda4d5fed354e91c03c36fd756d7f78",
    ("reference", 7): "32a3d2b2fb8bd1e37b20df474717351a8bbf3fab413889dfc682f14747669b95",
    ("thermal rho", 7): "e429f057cc44baae0a5f68e7c20b77a930fb577d63c42b0e8b6e8f4ba77af1f6",
    ("thermal sigma_ref", 7): "dc1baeab34ccd959f906c502b972e9e2ccbfa9c1c0d8a72ef99eff91b83c5e75",
}


def test_state_checksums_are_pinned():
    thermal = sweep_reference(7, thermal=True)
    states = {
        ("w", 3): build_w_state(3),
        ("reference", 3): reference_state(3),
        ("w", 7): build_w_state(7),
        ("reference", 7): reference_state(7),
        ("thermal rho", 7): thermal.rho,
        ("thermal sigma_ref", 7): thermal.sigma_ref,
    }
    assert {key: state_checksum(state) for key, state in states.items()} == CHECKSUMS


@pytest.mark.parametrize("entries", [128, 3 * 128, 5 * 128 + 17])
def test_a_checksum_in_small_panels_is_the_one_panel_digest(monkeypatch, random_product_state, entries):
    # at n = 7 the default panel holds the whole matrix; panels of 1, 3 and
    # 5 rows (the last one partial) must hash the same bytes, for states on
    # S^z sectors and for one on a whole-register block
    thermal = sweep_reference(7, thermal=True)
    states = [build_w_state(7), reference_state(7), thermal_state(thermal.rho), random_product_state(7, 2)]
    want = [hashlib.sha256(state.entries).hexdigest() for state in states]
    assert witness.CHECKSUM_PANEL_ENTRIES >= 4**7
    assert [state_checksum(state) for state in states] == want
    monkeypatch.setattr(witness, "CHECKSUM_PANEL_ENTRIES", entries)
    assert [state_checksum(state) for state in states] == want


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    boundary=st.sampled_from(["periodic", "open"]),
    couplings=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    beta=st.floats(1e-3, 100.0),
)
def test_a_spec_hashes_as_its_thermal_state(n, boundary, couplings, beta):
    # a spec's checksum reads its Gibbs blocks without building the state
    spec = ThermalSpec(build_xxz(XXZParams(n, *couplings, boundary)), beta)
    assert state_checksum(spec) == state_checksum(thermal_state(spec))


@pytest.mark.filterwarnings("ignore:thermal identification")
@pytest.mark.parametrize("n", [3, 7, 12])
def test_the_protocol_endpoints_hash_as_their_thermal_states(n):
    protocol = detection_protocol(n)
    for spec in (protocol.initial_spec, protocol.final_spec):
        assert state_checksum(spec) == state_checksum(thermal_state(spec))


def test_a_checksum_never_assembles_the_whole_matrix():
    # n = 10: the complex matrix takes 16 MiB, a default panel 4 MiB
    state = reference_state(10)
    tracemalloc.start()
    try:
        state_checksum(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**10 / 2


@pytest.mark.parametrize("n", range(3, 11))
def test_reference_states_have_the_bytes_of_dense_outer_products(n):
    # built per popcount sector, the states keep the bytes of the dense
    # outer products they replaced.  W_n's entries are its amplitude
    # renormalized by the dense vector's norm, squared: one bit off the
    # square of 1/sqrt(n) itself at n = 5, 7, 8 and 10
    register, total = QubitRegister(n), float(n**n)
    css = {n - k: math.comb(n, k) * float((n - 1) ** k) / total for k in range(n + 1)}
    prime = {0: (n**n - n * (n - 1) ** (n - 1)) / total, 1: n * (n - 1) ** (n - 1) / total}
    want = {
        "w": pure_state(register, dicke_state(register, 1)),
        "css": dense_dicke_mixture(register, css),
        "reference": dense_dicke_mixture(register, css if n == 3 else prime),
    }
    got = {"w": build_w_state(n), "css": build_css(n), "reference": reference_state(n)}
    assert {k: state_checksum(v) for k, v in got.items()} == {k: state_checksum(v) for k, v in want.items()}
    for key, state in got.items():
        for (i, a), (j, b) in zip(state.stacks, want[key].stacks, strict=True):
            assert np.array_equal(i, j) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    amplitude = 1 / math.sqrt(n)
    assert (build_w_state(n).entries[1, 1].real != amplitude * amplitude) == (n in (5, 7, 8, 10))


@pytest.mark.parametrize("n", range(1, 9))
def test_the_identity_unitary_has_the_sector_stacks_of_the_identity_matrix(n):
    got = _identity_unitary(QubitRegister(n)).stacks
    for (i, a), (j, b) in zip(got, sector_stacks(np.eye(2**n)), strict=True):
        assert np.array_equal(i, j) and a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------- spectra

def test_spectral_decompose_reconstructs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = HermitianOperator(QubitRegister(3), a + a.conj().T)
    dec = spectral_decompose(op)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    rebuilt = assemble(spectral_function(dec, dec.eigenvalues))
    assert np.max(np.abs(rebuilt - op.entries)) < 1e-12


@pytest.mark.parametrize(
    "eigenvalues, vectors, error, match",
    [
        ([0.0, np.nan], np.eye(2), NumericalCheckError, "non-finite"),
        ([1.0, 0.0], np.eye(2), ValueError, "ascending"),
        ([0.0, 1.0], np.array([[1.0, 1.0], [0.0, 1.0]]), NumericalCheckError, "orthonormal"),
        ([0.0, 1.0], np.diag([1.0, np.nan]), NumericalCheckError, "orthonormal"),
    ],
)
def test_spectral_decomposition_checks_its_blocks(eigenvalues, vectors, error, match):
    everything = np.arange(2)[None, :]
    with pytest.raises(error, match=match):
        operators.SpectralDecomposition(np.array(eigenvalues), ((everything, everything, vectors[None]),))


# ---------------------------------------------------------------- embeddings

def test_embed_pauli_site_one_is_leftmost():
    reg = QubitRegister(2)
    assert np.allclose(np.diag(embed_operator(reg, SZ, (1,))).real, [1, 1, -1, -1])
    assert np.allclose(np.diag(embed_operator(reg, SZ, (2,))).real, [1, -1, 1, -1])


def test_embed_operator_matches_manual_kron():
    reg = QubitRegister(3)
    got = embed_operator(reg, np.kron(SX, SY), (1, 3))
    manual = np.kron(SX, np.kron(np.eye(2), SY))
    assert np.max(np.abs(got - manual)) < 1e-14


def test_embed_operator_site_order_is_factor_order():
    # factor j of the small matrix lands on sites[j], so swapping both
    # the factors and the site list leaves the embedding unchanged
    reg = QubitRegister(3)
    a = embed_operator(reg, np.kron(SX, SZ), (3, 1))
    b = embed_operator(reg, np.kron(SZ, SX), (1, 3))
    assert np.max(np.abs(a - b)) < 1e-14


def test_embed_operator_rejects_bad_sites():
    reg = QubitRegister(2)
    with pytest.raises(ValueError):
        embed_operator(reg, SX, (3,))
    with pytest.raises(ValueError):
        embed_operator(reg, np.kron(SX, SX), (1, 1))


def test_total_sz_diagonal():
    diag = dense_chain_pieces(3, "periodic")[2]
    assert diag[0] == 3 and diag[-1] == -3
    assert diag[1] == 1  # |001> has two up, one down


# ---------------------------------------------------------------- states

def test_dicke_state_w3_amplitudes():
    reg = QubitRegister(3)
    w = dicke_state(reg, 1)
    idx = np.flatnonzero(np.abs(w) > 1e-12)
    assert list(idx) == [1, 2, 4]  # |001>, |010>, |100>
    assert np.allclose(w[idx], 1 / np.sqrt(3))


@pytest.mark.parametrize("n", range(2, 8))
def test_dicke_state_normalized(n):
    reg = QubitRegister(n)
    for k in range(n + 1):
        vec = dicke_state(reg, k)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-13
        weights = np.abs(vec) ** 2
        assert np.count_nonzero(weights > 1e-15) == math.comb(n, k)


def test_dicke_state_bounds():
    with pytest.raises(ValueError):
        dicke_state(QubitRegister(2), 3)


def test_pure_state_projector():
    reg = QubitRegister(2)
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = pure_state(reg, vec)
    assert np.max(np.abs(rho.entries @ rho.entries - rho.entries)) < 1e-13


# ---------------------------------------------------------------- traces

# partial_trace_matrix keeps the 0-based sites it is given, in the order given.

def test_partial_trace_product_recovery():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = pure_state(QubitRegister(1), np.array([1.0, 1.0]) / np.sqrt(2)).entries
    joint = np.kron(a, b)
    assert np.max(np.abs(partial_trace_matrix(joint, 2, [0]) - a)) < 1e-14
    assert np.max(np.abs(partial_trace_matrix(joint, 2, [1]) - b)) < 1e-14


def test_partial_trace_bell_is_maximally_mixed():
    bell = pure_state(QubitRegister(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    red = partial_trace_matrix(bell.entries, 2, [1])
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-14


def test_partial_trace_keep_all_is_identity_map():
    rho = np.eye(4, dtype=complex) / 4
    assert np.max(np.abs(partial_trace_matrix(rho, 2, [0, 1]) - rho)) < 1e-15


def test_partial_trace_keep_order():
    joint = np.kron(np.diag([0.9, 0.1]), np.diag([0.6, 0.4])).astype(complex)
    kept = partial_trace_matrix(joint, 2, [0, 1])
    assert np.allclose(np.diag(kept).real, [0.54, 0.36, 0.06, 0.04])
    # keeping both sites in swapped order permutes them: SWAP rho SWAP
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(partial_trace_matrix(rho, 2, [1, 0]), swap @ rho @ swap)
    assert not np.array_equal(swap @ rho @ swap, rho)


# ---------------------------------------------------------------- stacked embedding and trace

# ``operators.embed`` and ``operators.partial_trace`` work on (indices,
# blocks) stacks; the dense ``embed_operator`` and ``partial_trace_matrix``
# of the oracle are held against them over random site splits, in and out of
# order.


@st.composite
def site_splits(draw):
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(1, n + 1)))
    return n, tuple(order[: draw(st.integers(1, n))]), draw(st.integers(0, 2**32 - 1))


def conserving_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random Hermitian matrix on n qubits with every entry between two
    popcount sectors 0 and every entry inside one nonzero."""
    ones = np.array([bin(i).count("1") for i in range(2**n)])
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return np.where(ones[:, None] == ones[None, :], a + a.conj().T, 0)


def in_sectors(stacks) -> bool:
    return all(np.ptp([bin(i).count("1") for i in block]) == 0 for indices, _ in stacks for block in indices)


@settings(max_examples=40, deadline=None)
@given(site_splits())
def test_stacked_embedding_matches_the_dense_oracle(split):
    n, sites, seed = split
    k, register = len(sites), QubitRegister(n)
    op = HermitianOperator(QubitRegister(k), conserving_matrix(k, np.random.default_rng(seed)))
    embedded = operators.embed(op.stacks, n, sites)
    assert in_sectors(embedded)
    assert np.array_equal(assemble(embedded), embed_operator(register, op.entries, sites))
    # sx on one site changes S^z: the embedding is one whole-register block
    flip = operators.embed(HermitianOperator(QubitRegister(1), SX).stacks, n, sites[:1])
    assert [indices.shape for indices, _ in flip] == [(1, 2**n)]
    assert np.abs(assemble(flip) - embed_operator(register, SX, sites[:1])).max() <= 1e-13
    # a piece stack with a leading axis: each piece as the dense embedding of
    # its dense form
    if k >= 2:
        pieces = assemble(operators.embed(xxz_pieces(k, "open"), n, sites))
        hopping, zz, magnetization = dense_chain_pieces(k, "open")
        for piece, dense in zip(pieces, (hopping, np.diag(zz), np.diag(magnetization)), strict=True):
            assert np.array_equal(piece, embed_operator(register, dense, sites))


@settings(max_examples=40, deadline=None)
@given(site_splits())
def test_stacked_partial_trace_matches_the_dense_oracle(split):
    # the oracle keeps its sites in register order
    n, sites, seed = split[0], tuple(sorted(split[1])), split[2]
    rng = np.random.default_rng(seed)
    keep0 = [site - 1 for site in sites]
    conserving = HermitianOperator(QubitRegister(n), conserving_matrix(n, rng))
    traced = operators.partial_trace(conserving.stacks, n, sites)
    assert in_sectors(traced)
    want = partial_trace_matrix(conserving.entries, n, keep0)
    assert np.abs(assemble(traced) - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    # a matrix that mixes sectors is one whole-register block, traced as the
    # dense matrix is
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    mixing = HermitianOperator(QubitRegister(n), a + a.conj().T)
    want = partial_trace_matrix(mixing.entries, n, keep0)
    got = assemble(operators.partial_trace(mixing.stacks, n, sites))
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_stacked_embedding_rejects_bad_sites():
    sx = HermitianOperator(QubitRegister(1), SX).stacks
    with pytest.raises(ValueError):
        operators.embed(sx, 2, (3,))
    with pytest.raises(ValueError):
        operators.embed(HermitianOperator(QubitRegister(2), np.kron(SX, SX)).stacks, 2, (1, 1))
    with pytest.raises(ValueError):
        operators.embed(sx, 2, (1, 2))


# ---------------------------------------------------------------- json

def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    reg = QubitRegister(2)
    payload = matrix_to_json(reg, a)
    assert set(payload) == {"n", "re", "im"}
    reg2, back = matrix_from_json(payload)
    assert reg2.n == 2
    assert np.max(np.abs(back - a)) == 0.0


def test_matrix_json_strictness():
    ok = {"n": 1, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValueError, match="missing"):
        matrix_from_json({k: v for k, v in ok.items() if k != "im"})
    with pytest.raises(ValueError, match="unknown"):
        matrix_from_json({**ok, "comment": "hi"})
    with pytest.raises(ValueError):
        matrix_from_json({**ok, "n": 2})


def test_operator_json_round_trips():
    reg = QubitRegister(1)
    rho = DensityMatrix(reg, np.diag([0.3, 0.7]))
    assert np.max(np.abs(density_from_json(matrix_to_json(reg, rho.entries)).entries - rho.entries)) == 0

    u = UnitaryOperator(reg, (SX + SZ) / np.sqrt(2))
    assert np.max(np.abs(unitary_from_json(matrix_to_json(reg, u.entries)).entries - u.entries)) == 0


def test_unitary_from_json_rejects_nonunitary():
    reg = QubitRegister(1)
    payload = matrix_to_json(reg, np.diag([1.0, 0.5]))
    with pytest.raises(NumericalCheckError, match="unitarity"):
        unitary_from_json(payload)
