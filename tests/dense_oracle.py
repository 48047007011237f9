"""Dense reference implementations that the fast paths are checked against.

These are the package's former dense paths: the XXZ Hamiltonian as a sum of
products of embedded Pauli matrices, and as J H_xy + Jz H_zz - B S_z over a
dense H_xy and the H_zz and S_z diagonals (``dense_pieces`` for any bond
graph, ``dense_chain_pieces`` for the chain, ``xxz_matrix``), the triple the
package built before it built each chain on its S^z sectors; the Dicke
states and projectors as dense vectors and outer products (``dicke_state``,
``pure_state``), the closed and open Trotter products of full 2^n x 2^n
step propagators (``dense_propagator``, one dense ``np.linalg.eigh`` each;
the open chain's Hamiltonian is built here from the Pauli-product chain),
the relative entropy with its overlaps from a 3-operand einsum, the direct
sweep distance from dense Gibbs states, and the two-point-measurement
transitions, work distribution and sampler from one dense
``np.linalg.eigh`` per Hamiltonian.  They share no sector code and no
overlap kernel with ``entwit``; ``dense_eigenvectors`` and
``dense_transitions`` scatter the package's blocks into full matrices for
comparison.  ``smallest_partial_transpose_eigenvalue`` checks each detection
against a criterion of its own, the partial transpose over every bipartition.
``embed_operator`` and ``partial_trace_matrix`` are the dense embedding (a
Kronecker product with an identity, its axes permuted) and partial trace (one
einsum) that ``operators.embed`` and ``operators.partial_trace`` replaced.
``matrix_to_json`` writes a dense matrix in the JSON exchange format that
``entwit.operators.matrix_from_json`` reads.

Three exceptions share the sector code with ``entwit`` on purpose, so that
a path that replaced them can be held to their bits.  ``piece_stacks`` cuts
register-sized pieces into piece stacks by ``operators.sector_stacks``, as
the package once cut the dense triple.  ``embedded_coupling`` builds a split
chain's coupling as ``open_system.split_chain`` once did: each two-site
bond laid on its sites by ``operators.embed`` and the terms summed as small
integers.  ``allocating_product`` is the chunk loop ``ordered_product`` ran
before it computed into a reused workspace, with a fresh array for every
intermediate; it shares the check and kernel-choice code too.
"""

import itertools
import math

import numpy as np

from entwit import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    ThermalSpec,
    XXZParams,
    thermal_state,
)
from entwit.operators import (
    EIGENVALUE_FLOOR,
    assemble,
    check_unitary,
    checked_eigh,
    combine,
    embed,
    restrict,
    sector_stacks,
    shared_blocks,
)
from entwit.spin_models import _bonds, params_at
from entwit.thermo import SUPPORT_LEAK_TOL
from entwit.work_stats import CHUNK_ENTRIES, STEP_CHUNK, TAYLOR_THETA, _taylor_degree

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def embed_operator(register: QubitRegister, entries: np.ndarray, sites) -> np.ndarray:
    """Embed an operator on ``len(sites)`` qubits into the full register as a
    dense matrix, tensor factor ``j`` of ``entries`` on ``sites[j]``."""
    n = register.n
    op = np.asarray(entries, dtype=np.complex128)
    sites = tuple(sites)
    k = len(sites)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator on {k} sites must be {2**k}x{2**k}, got {op.shape}")
    if len(set(sites)) != k:
        raise ValueError(f"sites must be distinct, got {sites}")
    for site in sites:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside register 1..{n}")
    if k == n and sites == tuple(range(1, n + 1)):
        return op.copy()
    rest = np.eye(2 ** (n - k), dtype=np.complex128)
    full = np.kron(op, rest).reshape((2,) * (2 * n))
    # Row axes are ordered [op sites..., remaining sites...]; the permutation
    # sends them to register order.
    source_order = list(sites) + [s for s in range(1, n + 1) if s not in sites]
    perm = [source_order.index(s) for s in range(1, n + 1)]
    full = full.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(full.reshape(2**n, 2**n))


def partial_trace_matrix(entries: np.ndarray, n: int, keep0: list[int]) -> np.ndarray:
    """Partial trace of a dense matrix over the complement of the 0-based
    sites ``keep0``, kept in the order ``keep0`` lists them, by one einsum."""
    k = len(keep0)
    traced = [s for s in range(n) if s not in keep0]
    tensor = entries.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [row[s] if s in traced else n + s for s in range(n)]
    out = [row[s] for s in keep0] + [n + s for s in keep0]
    reduced = np.einsum(tensor, row + col, out)
    return reduced.reshape(2**k, 2**k).copy()  # a permutation alone is a view


def dense_xxz(params: XXZParams) -> HermitianOperator:
    """H = -sum_l [(J/2)(sx sx + sy sy) + Jz sz sz + B sz] from Pauli products."""
    n = params.n
    register = QubitRegister(n)
    sx, sy, sz = (
        [embed_operator(register, pauli, (site,)) for site in register.sites()]
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z)
    )
    h = np.zeros((register.dim, register.dim), dtype=np.complex128)
    last_bond = n if params.boundary == "periodic" else n - 1
    for l in range(last_bond):
        m = (l + 1) % n
        h -= 0.5 * params.J * (sx[l] @ sx[m] + sy[l] @ sy[m])
        h -= params.Jz * (sz[l] @ sz[m])
    for l in range(n):
        h -= params.B * sz[l]
    return HermitianOperator(register, h)


def dense_pieces(n: int, bonds, field_sites) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense H_xy = -(1/2) sum (sx sx + sy sy) and the diagonals of
    H_zz = -sum sz sz and S_z of a bond graph on an n-qubit register, all
    real: ``bonds`` are 0-based site pairs, ``field_sites`` the 0-based
    sites of the field."""
    states = np.arange(2**n)
    hopping = np.zeros((states.size, states.size))
    zz = np.zeros(states.size)
    for l, m in bonds:
        # site l (0-based) is bit n-1-l of the basis index; site 0 is leftmost
        mask_l, mask_m = 1 << (n - 1 - l), 1 << (n - 1 - m)
        differ = ((states & mask_l) == 0) != ((states & mask_m) == 0)
        zz += np.where(differ, 1.0, -1.0)
        # sx sx + sy sy swaps an antiparallel pair with amplitude 2
        source = np.flatnonzero(differ)
        np.add.at(hopping, (source ^ (mask_l | mask_m), source), -1.0)
    magnetization = np.zeros(states.size)
    for site in field_sites:
        magnetization += 1 - 2 * ((states >> (n - 1 - site)) & 1)
    return hopping, zz, magnetization


def piece_stacks(pieces) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The read-only (indices, blocks) stacks of the pieces P_j of a
    Hamiltonian, cut from their register-sized forms: ``blocks`` (p, k, s, s)
    holds every piece on the k blocks of s basis states of ``indices``
    (k, s).

    Each piece is a dense (dim, dim) matrix or the (dim,) diagonal of a
    diagonal one, at least one dense.  The blocks are the ``sector_stacks``
    of the dense pieces, and a diagonal d is diag(d[indices]) on each, as it
    never mixes sectors.
    """
    dense = [j for j, piece in enumerate(pieces) if np.ndim(piece) == 2]
    diagonal = [j for j, piece in enumerate(pieces) if np.ndim(piece) == 1]
    matrix = pieces[dense[0]][None] if len(dense) == 1 else np.stack([pieces[j] for j in dense])
    stacks = sector_stacks(matrix)
    dtype = np.result_type(stacks[0][1], *(pieces[j] for j in diagonal))
    out = []
    for indices, dense_blocks in stacks:
        blocks = np.zeros((len(pieces), *dense_blocks.shape[1:]), dtype)
        blocks[dense] = dense_blocks
        span = np.arange(indices.shape[1])
        for j in diagonal:
            blocks[j][:, span, span] = pieces[j][indices]
        blocks.setflags(write=False)
        out.append((indices, blocks))
    return tuple(out)


def dense_chain_pieces(n: int, boundary: str = "periodic") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-site chain's dense H_xy and its H_zz and S_z diagonals, the
    ``dense_pieces`` triple whose ``piece_stacks`` are ``xxz_pieces``."""
    return dense_pieces(n, _bonds(n, boundary), range(n))


def embedded_coupling(params: XXZParams, subsystem_sites) -> HermitianOperator:
    """The bonds of a chain that cross from the 1-based ``subsystem_sites``
    to the rest, each a two-site chain's H_xy and H_zz laid on its sites by
    ``operators.embed`` and summed exactly as small integers on the blocks
    the terms share, then combined with J and Jz."""
    inside = set(subsystem_sites)
    cross = [(l, m) for l, m in _bonds(params.n, params.boundary) if (l + 1 in inside) != (m + 1 in inside)]
    bond = [(i, b[:2].astype(np.int8)) for i, b in piece_stacks(dense_pieces(2, [(0, 1)], []))]
    terms = [embed(bond, params.n, (l + 1, m + 1)) for l, m in cross]
    pieces = [(i, sum(restrict(t, i) for t in terms)) for i in shared_blocks(params.n, *terms)]
    return HermitianOperator(QubitRegister(params.n), combine(pieces, (float(params.J), float(params.Jz))))


def xxz_matrix(params: XXZParams, hopping, zz, magnetization) -> np.ndarray:
    """J H_xy + Jz H_zz - B S_z as a dense real matrix, from the hopping
    matrix and the H_zz and S_z diagonals (a scalar magnetization shifts
    every diagonal entry alike)."""
    out = params.J * hopping
    out.flat[:: hopping.shape[0] + 1] += params.Jz * zz - params.B * magnetization
    return out


def dicke_state(register: QubitRegister, k_ones: int) -> np.ndarray:
    """Equal-amplitude superposition of all basis states with ``k_ones`` ones."""
    n = register.n
    if not isinstance(k_ones, int) or not 0 <= k_ones <= n:
        raise ValueError(f"k_ones must lie in 0..{n}, got {k_ones}")
    vec = np.zeros(register.dim, dtype=np.complex128)
    for ones in itertools.combinations(range(n), k_ones):
        vec[sum(1 << (n - 1 - site) for site in ones)] = 1.0
    return vec / math.sqrt(math.comb(n, k_ones))


def pure_state(register: QubitRegister, amplitudes: np.ndarray) -> DensityMatrix:
    """Projector onto a state vector, normalized first, from the dense outer
    product."""
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if vec.size != register.dim:
        raise ValueError(f"state vector must have length {register.dim}, got {vec.size}")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    vec = vec / norm
    return DensityMatrix(register, np.outer(vec, vec.conj()))


def dense_dicke_mixture(register: QubitRegister, weights: dict[int, float]) -> DensityMatrix:
    """sum_k weights[k] |D_k><D_k| from the dense outer products of the Dicke
    states ``dicke_state(register, k)``."""
    entries = np.zeros((register.dim, register.dim), dtype=np.complex128)
    for k_ones, weight in weights.items():
        vec = dicke_state(register, k_ones)
        entries += weight * np.outer(vec, vec.conj())
    return DensityMatrix(register, entries)


def matrix_to_json(register: QubitRegister, entries: np.ndarray) -> dict:
    """``{"n": qubits, "re": [[...]], "im": [[...]]}``, row-major."""
    arr = np.asarray(entries, dtype=np.complex128)
    return {"n": register.n, "re": arr.real.tolist(), "im": arr.imag.tolist()}


def dense_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) of a Hermitian matrix, from one dense ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


def dense_trotter(schedule, sampling: str = "left") -> np.ndarray:
    """Ordered product of full-register step propagators, step 0 first."""
    total = np.eye(2**schedule.n, dtype=np.complex128)
    offset = 0.0 if sampling == "left" else 0.5
    for step in range(schedule.steps):
        params = params_at(schedule, min((step + offset) * schedule.dt, schedule.t_f))
        total = dense_propagator(dense_xxz(params).entries, schedule.dt) @ total
    return total


def dense_open_hamiltonian(composite, t: float) -> np.ndarray:
    """A driven composite's full Hamiltonian at time ``t``: the Pauli-product
    chain embedded on the subsystem's sites, plus the coupling and the
    embedded bath."""
    register = composite.register
    chain = dense_xxz(params_at(composite.subsystem_schedule, t)).entries
    h = embed_operator(register, chain, composite.subsystem_sites)
    if composite.coupling is not None:
        h = h + composite.coupling.entries
    if composite.bath_hamiltonian is not None:
        h = h + embed_operator(register, composite.bath_hamiltonian.entries, composite.bath_sites)
    return h


def dense_open_trotter(composite, sampling: str = "left") -> np.ndarray:
    """Ordered product of full-register step propagators of a driven
    composite, rebuilding the full Hamiltonian at every step."""
    schedule = composite.subsystem_schedule
    total = np.eye(composite.register.dim, dtype=np.complex128)
    offset = 0.0 if sampling == "left" else 0.5
    for step in range(schedule.steps):
        t = min((step + offset) * schedule.dt, schedule.t_f)
        total = dense_propagator(dense_open_hamiltonian(composite, t), schedule.dt) @ total
    return total


def dense_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) from dense spectra, with the overlaps <v_i|rho|v_i> taken
    by a 3-operand einsum; support rules as in ``entwit.relative_entropy``,
    and negative roundoff reads 0."""
    rho_eigenvalues = np.clip(np.linalg.eigvalsh(rho.entries), 0.0, None)
    lam = rho_eigenvalues[rho_eigenvalues > EIGENVALUE_FLOOR]
    first_term = float(np.sum(lam * np.log(lam)))
    sigma_eigenvalues, sigma_vectors = np.linalg.eigh(sigma.entries)
    sigma_eigenvalues = np.clip(sigma_eigenvalues, 0.0, None)
    overlaps = np.einsum("ji,jk,ki->i", sigma_vectors.conj(), rho.entries, sigma_vectors).real
    overlaps = np.clip(overlaps, 0.0, None)
    inside = sigma_eigenvalues > EIGENVALUE_FLOOR
    if float(overlaps[~inside].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    second_term = float(np.sum(overlaps[inside] * np.log(sigma_eigenvalues[inside])))
    return max(first_term - second_term, 0.0)


def dense_s_right(rho: DensityMatrix, params: XXZParams, temperature: float) -> float:
    """S(rho || Gibbs state of the dense chain at 1/temperature)."""
    sigma = thermal_state(ThermalSpec(dense_xxz(params), 1.0 / temperature))
    return dense_relative_entropy(rho, sigma)


def dense_eigenvectors(spectrum) -> np.ndarray:
    """The eigenvector matrix of a blocked spectrum, column j for level j."""
    vectors = np.zeros((spectrum.dim, spectrum.dim), dtype=np.complex128)
    for indices, levels, v in spectrum.stacks:
        vectors[indices[:, :, None], levels[:, None, :]] = v
    return vectors


def dense_transitions(tm) -> np.ndarray:
    """The full q[m, n] of a blocked transition matrix, 0 between blocks."""
    q = np.zeros((tm.dim, tm.dim))
    for rows, columns, block in tm.stacks:
        q[rows[:, :, None], columns[:, None, :]] = block
    return q


def dense_tpm(h_initial: np.ndarray, h_final: np.ndarray, u: np.ndarray):
    """Both spectra (one dense eigh each) and q = |V_f^dag U V_i|^2."""
    e_initial, v_initial = np.linalg.eigh(h_initial)
    e_final, v_final = np.linalg.eigh(h_final)
    return e_initial, e_final, np.abs(v_final.conj().T @ u @ v_initial) ** 2


def dense_gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    weights = np.exp(-beta * (energies - energies[0]))
    return weights / weights.sum()


def dense_sample(e_initial, e_final, q, beta, count: int, seed: int, block: int = 16384):
    """(n, m) draws of the two-point measurement with the sampler's streams:
    n from the Gibbs weights, m from column n of q by its partial sums."""
    cum_initial = np.cumsum(dense_gibbs_weights(e_initial, beta))
    cum_q = np.cumsum(q, axis=0)
    n_all, m_all = [], []
    for index, start in enumerate(range(0, count, block)):
        size = min(block, count - start)
        stream = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        )
        n_idx = np.searchsorted(cum_initial, stream.random(size), side="right")
        second = stream.random(size)
        m_all.append(np.array([np.searchsorted(cum_q[:, n], u, side="right") for n, u in zip(n_idx, second)]))
        n_all.append(n_idx)
    return np.concatenate(n_all), np.concatenate(m_all)


def smallest_partial_transpose_eigenvalue(rho: np.ndarray, n: int) -> float:
    """The smallest eigenvalue of rho's partial transpose over all 2^(n-1) - 1
    bipartitions of n qubits (Peres, PRL 77, 1413 (1996)).  A negative value
    on some cut proves rho entangled.  Each cut transposes the qubits of its
    side that does not hold the last qubit."""
    tensor = np.asarray(rho).reshape((2,) * (2 * n))
    smallest = math.inf
    for cut in range(1, 2 ** (n - 1)):
        axes = list(range(2 * n))
        for qubit in range(n - 1):
            if cut >> qubit & 1:
                axes[qubit], axes[n + qubit] = n + qubit, qubit
        transposed = tensor.transpose(axes).reshape(2**n, 2**n)
        smallest = min(smallest, float(np.linalg.eigvalsh(transposed)[0]))
    return smallest


def _allocating_horner(y, coefficients):
    identity = np.eye(y.shape[-1])
    if len(coefficients) == 1:
        return np.broadcast_to(coefficients[0] * identity, y.shape)
    total = coefficients[-1] * y + coefficients[-2] * identity
    for c in reversed(coefficients[:-2]):
        total = y @ total + c * identity
    return total


def _allocating_taylor_exp(x, degree):
    y = x @ x
    cos = _allocating_horner(y, [(-1) ** j / math.factorial(2 * j) for j in range(degree // 2 + 1)])
    sin = x @ _allocating_horner(y, [(-1) ** j / math.factorial(2 * j + 1) for j in range((degree + 1) // 2)])
    return cos - 1j * sin


def _allocating_run_factors(h, lengths, shifts, dt):
    durations = dt * lengths
    theta = float(np.max(durations * np.abs(h).sum(axis=-2).max(axis=(-2, -1))))
    if theta <= TAYLOR_THETA:
        phases = np.exp(-1j * dt * shifts)[..., None, None]
        return _allocating_taylor_exp(durations[:, None, None, None] * h, _taylor_degree(theta)) * phases
    energies, vectors = checked_eigh(h)
    phases = np.exp(-1j * dt * (lengths[:, None, None] * energies + shifts[:, :, None]))[..., None, :]
    return (vectors * phases) @ vectors.conj().swapaxes(-1, -2)


def allocating_product(pieces: np.ndarray, coefficients: np.ndarray, dt: float) -> np.ndarray:
    """The dense matrix of ``ordered_product(register, pieces, coefficients,
    dt)`` from the same runs, chunks and kernels, each step allocating."""
    stacks = sector_stacks(pieces)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    largest = max(blocks[0].size for _, blocks in stacks)
    chunk = max(1, min(STEP_CHUNK, CHUNK_ENTRIES // largest))
    products = []
    for indices, blocks in stacks:
        alpha = blocks[:, :, 0, 0].real
        identity = np.eye(blocks.shape[-1])
        scalar = np.array([
            np.array_equal(piece, a[:, None, None] * identity) for piece, a in zip(blocks, alpha)
        ])
        varying, varying_blocks = coefficients[:, ~scalar], blocks[~scalar]
        starts = np.flatnonzero(
            np.concatenate([[True], (varying[1:] != varying[:-1]).any(axis=1)])
        )
        lengths = np.diff(starts, append=len(coefficients)).astype(np.float64)
        shifts = np.add.reduceat(coefficients[:, scalar] @ alpha[scalar], starts, axis=0)
        product = np.tile(np.eye(indices.shape[1], dtype=np.complex128), (indices.shape[0], 1, 1))
        for first in range(0, len(starts), chunk):
            runs = slice(first, first + chunk)
            h = np.tensordot(varying[starts[runs]], varying_blocks, axes=1)
            factors = _allocating_run_factors(h, lengths[runs], shifts[runs], dt)
            check_unitary(factors)
            for factor in factors:
                product = factor @ product
        products.append((indices, product))
    return assemble(products, np.complex128)
