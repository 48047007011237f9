"""Operator algebra for qubit registers of up to 12 qubits.

Site indices are 1-based and site 1 is the leftmost (most significant)
tensor factor, so ``|01>`` on two qubits is basis index 1.  Registers are
capped at 12 qubits (4096 x 4096 matrices).

Every Hamiltonian and reference state of the witness conserves the total
magnetization S^z, so it is block diagonal in the sectors of fixed popcount
(number of qubits in |1>): 924 states at most for n = 12.
``sector_partition`` gives them, stacked by size, and objects known to
conserve S^z (the Dicke states, a chain's pieces) are built on them
directly.  ``sector_stacks`` decides the blocks of a register-sized
matrix, or of a stack of them: the popcount sectors when every entry between
two of them is exactly 0, one whole-register block otherwise.  ``assemble``
puts such stacks back into one matrix, and ``diagonal_blocks`` restricts a
matrix to given blocks.  A Hamiltonian affine in its pieces P_j is kept as
piece stacks, every piece on every block, and ``combine`` sums c_j P_j on
them: every chain Hamiltonian, closed or open, and every slice of the
Trotter product comes from such stacks.

``HermitianOperator``, ``DensityMatrix`` and ``UnitaryOperator`` store
only (indices, blocks) stacks (a dense matrix is split once), and
``entries`` assembles the dense matrix when read.  Their checks
(hermiticity, PSD, unitarity), the spectral decomposition, the relative
entropy and the direct sweep (in ``thermo`` and ``witness``), and the
Trotter product, commutation check and transition probabilities (in
``work_stats``) all run on the stacks, at the cost of the largest sector;
``restrict`` gives one container's blocks on another's partition.

A ``SpectralDecomposition`` keeps the eigenvectors of each block, with the
position of each block eigenvalue in the ascending spectrum; the transition
probabilities of a unitary that mixes sectors multiply its whole-register
block by them block by block, and merge no blocks.  ``spectral_decompose``
(of an operator or a state) is the one diagonalization, ``spectral_function``
the one V f(w) V^dag, block by block: Gibbs states, the open system's weight
operator and its ln M.  Propagators: ``work_stats.ordered_product`` alone.

``checked_eigh`` and ``check_unitary`` work on any square block or stack of
blocks, so the containers here and the ordered product hold the same
tolerances.  ``embed`` lays an operator on some sites onto the register and
``partial_trace`` traces sites out, both on stacks: on the S^z sectors, or
on one whole-register block for an operator that does not conserve S^z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericalCheckError

MAX_QUBITS = 12

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
UNITARITY_ATOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10
RECONSTRUCTION_RTOL = 1e-9

# Eigenvalues at or below this floor count as zero for support purposes
# (matrix logarithms, relative entropy).
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class QubitRegister:
    """A register of ``n`` qubits (1-based sites, site 1 leftmost)."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"qubit count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"register needs at least one qubit, got n={self.n}")
        if self.n > MAX_QUBITS:
            raise ValueError(
                f"n={self.n} exceeds the dense-storage ceiling of {MAX_QUBITS} qubits"
            )

    @property
    def dim(self) -> int:
        return 2**self.n

    def sites(self) -> range:
        return range(1, self.n + 1)


def check_partition(parts: Sequence[np.ndarray], dim: int, message: str) -> None:
    """Raise ValueError(``message``) unless the index arrays ``parts`` hold
    every number from 0 to dim - 1 exactly once between them."""
    covered = np.sort(np.concatenate([np.ravel(part) for part in parts]))
    if not np.array_equal(covered, np.arange(dim)):
        raise ValueError(message)


def _stored_stacks(matrix, dim: int) -> tuple:
    """The read-only (indices, blocks) stacks a container keeps of ``matrix``:
    a dense (dim, dim) array split once by ``sector_stacks`` (a whole-register
    block, a view, copied), or stacks with checked shapes and basis cover."""
    if isinstance(matrix, (list, tuple)) and all(isinstance(stack, tuple) for stack in matrix):
        stacks = [(np.asarray(indices), np.asarray(blocks)) for indices, blocks in matrix]
        for i, b in stacks:
            if i.ndim != 2 or i.dtype.kind not in "iu" or b.shape != i.shape + i.shape[-1:]:
                raise ValueError("each stack needs (k, s) integer indices and (k, s, s) blocks")
        check_partition([indices for indices, _ in stacks], dim, "the blocks must hold every basis state once")
    else:
        dense = np.asarray(matrix)
        dense = dense.astype(np.complex128 if np.iscomplexobj(dense) else np.float64, copy=False)
        if dense.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got shape {dense.shape}")
        stacks = [(i, b.copy() if np.may_share_memory(b, dense) else b) for i, b in sector_stacks(dense)]
    if not all(np.isfinite(blocks).all() for _, blocks in stacks):
        raise NumericalCheckError("matrix contains non-finite entries")
    stacks = tuple((indices.view(), blocks.view()) for indices, blocks in stacks)
    for indices, blocks in stacks:
        indices.setflags(write=False)
        blocks.setflags(write=False)
    return stacks


@dataclass(frozen=True)
class _BlockStacked:
    """A matrix on a qubit register stored only as its read-only (indices,
    blocks) ``stacks``: ``(register, matrix)`` takes ``matrix`` as
    ``_stored_stacks`` does and runs the subclass's ``_check`` on them, and
    ``entries`` assembles the dense complex matrix on each read."""

    register: QubitRegister
    stacks: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stacks", _stored_stacks(self.stacks, self.register.dim))
        self._check()

    @property
    def dim(self) -> int:
        return self.register.dim

    @property
    def entries(self) -> np.ndarray:
        return assemble(self.stacks, np.complex128)


@dataclass(frozen=True)
class HermitianOperator(_BlockStacked):
    """A self-adjoint matrix on a qubit register."""

    def _check(self) -> None:
        _check_hermitian(self.stacks, "matrix")


@dataclass(frozen=True)
class UnitaryOperator(_BlockStacked):
    """A unitary matrix on a qubit register, checked per block (it is unitary
    exactly when each block is); ``deviation`` keeps the largest entry of
    |U^dag U - I| over the blocks."""

    deviation: float = field(init=False, repr=False, compare=False)

    def _check(self) -> None:
        object.__setattr__(self, "deviation", max(check_unitary(part) for _, part in self.stacks))


@dataclass(frozen=True)
class DensityMatrix(_BlockStacked):
    """A trace-one positive semidefinite matrix on a qubit register.

    Slightly negative eigenvalues from roundoff are tolerated down to
    -1e-10 and are clamped to zero by every function of the spectrum.
    ``eigenvalues`` keeps the ascending spectrum of the PSD check (read-only),
    so functions of the spectrum do not diagonalize the state again.
    """

    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def _check(self) -> None:
        _check_hermitian(self.stacks, "density matrix")
        trace_dev = abs(sum(complex(np.trace(b, axis1=-2, axis2=-1).sum()) for _, b in self.stacks) - 1.0)
        if trace_dev > TRACE_ATOL:
            raise NumericalCheckError(f"density matrix trace differs from 1 by {trace_dev:.3e}")
        eigenvalues = np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for _, b in self.stacks]))
        if (smallest := eigenvalues[0]) < -PSD_ATOL:
            raise NumericalCheckError(f"density matrix has eigenvalue {smallest:.3e} below -{PSD_ATOL:.0e}")
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order, with the eigenvectors of each block of
    ``sector_stacks``.

    ``stacks`` holds one (indices, levels, vectors) triple per stack of k
    blocks of s basis states: ``indices`` (k, s) are the blocks' basis
    indices, ``levels`` (k, s) the position in ``eigenvalues`` of each block
    eigenvalue, and ``vectors`` (k, s, s) the orthonormal eigenvector columns
    on the block's basis states, in the order of ``levels``.  Construction
    checks that the eigenvalues are finite and ascending, that the blocks
    cover every basis state and every level once, and that each block's
    eigenvectors are orthonormal, at the cost of its largest block.
    """

    eigenvalues: np.ndarray
    stacks: tuple

    def __post_init__(self) -> None:
        eigenvalues = np.array(self.eigenvalues, dtype=np.float64)
        if not np.all(np.isfinite(eigenvalues)):
            raise NumericalCheckError("eigenvalues contain non-finite entries")
        if np.any(np.diff(eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted in ascending order")
        # read-only views of the given arrays, as ``_stored_stacks`` keeps
        stacks = tuple(tuple(np.asarray(part).view() for part in stack) for stack in self.stacks)
        for indices, levels, vectors in stacks:
            if levels.shape != indices.shape or vectors.shape != indices.shape + indices.shape[-1:]:
                raise ValueError("each stack needs (k, s) indices and levels and (k, s, s) vectors")
            _check_orthonormal(vectors)
        message = "the blocks must hold every basis state and every level once"
        for part in (0, 1):
            check_partition([stack[part] for stack in stacks], eigenvalues.size, message)
        eigenvalues.setflags(write=False)
        for stack in stacks:
            for part in stack:
                part.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "stacks", stacks)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


# The checks below take one square block or a stack of them, shape
# (..., s, s).  Absolute tolerances make the maximum over a stack the same
# test as checking each block; the reconstruction scale is per block.


def _check_orthonormal(vectors: np.ndarray) -> None:
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    gram -= np.eye(vectors.shape[-1])
    # in place for real vectors, as their Gram matrix is its own real part
    gram_dev = float(np.abs(gram, out=gram.real).max())
    # also fails on a non-finite deviation
    if not gram_dev <= ORTHONORMALITY_ATOL:
        raise NumericalCheckError(
            f"eigenvectors are not orthonormal: deviation {gram_dev:.3e}"
        )


def _check_hermitian(stacks: Sequence[tuple[np.ndarray, np.ndarray]], what: str) -> None:
    """Raise unless each block of ``sector_stacks`` is within HERMITICITY_ATOL
    of its adjoint: the whole matrix is, as it is 0 between sector blocks."""
    deviation = max(float(np.abs(b - b.conj().swapaxes(-1, -2)).max()) for _, b in stacks)
    if deviation > HERMITICITY_ATOL:
        raise NumericalCheckError(
            f"{what} is not self-adjoint: max |A - A^dag| = {deviation:.3e} "
            f"exceeds {HERMITICITY_ATOL:.0e}"
        )


def check_unitary(entries: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """max |U^dag U - I| of the square block ``entries``, or over every block
    of a stack; raises when it exceeds UNITARITY_ATOL or is not finite.

    ``out``, when given, is two complex arrays shaped like ``entries`` that
    receive U^* and the Gram matrix U^dag U, so a caller checking many
    stacks of one shape can keep them; otherwise both are made here."""
    adjoint, gram = (None, None) if out is None else out
    adjoint = np.conjugate(entries, out=adjoint)
    gram = np.matmul(adjoint.swapaxes(-1, -2), entries, out=gram)
    gram -= np.eye(entries.shape[-1])
    # the magnitudes go over U^*, which is no longer needed
    deviation = float(np.abs(gram, out=adjoint.real).max())
    if not deviation <= UNITARITY_ATOL:
        raise NumericalCheckError(
            f"unitarity check failed: max |U^dag U - I| = {deviation:.3e} "
            f"exceeds {UNITARITY_ATOL:.0e}"
        )
    return deviation


def checked_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a Hermitian (or real symmetric) block, or of a
    stack of blocks, checked.

    Raises NumericalCheckError when the solver fails, when the eigenvectors
    are not orthonormal, or when V diag(w) V^dag misses a block A by more than
    RECONSTRUCTION_RTOL * (1 + max|A|).  Real input gives real eigenvectors.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as err:
        raise NumericalCheckError(
            f"eigensolver failed to converge on a {matrix.shape[-2]}x{matrix.shape[-1]} "
            f"matrix with max-entry norm {np.abs(matrix).max():.3e}"
        ) from err
    _check_orthonormal(eigenvectors)
    scale = 1.0 + np.abs(matrix).max(axis=(-2, -1))
    v = eigenvectors
    reconstructed = (v * eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)
    residual = np.abs(reconstructed - matrix).max(axis=(-2, -1))
    failed = residual > RECONSTRUCTION_RTOL * scale
    if np.any(failed):
        raise NumericalCheckError(
            f"spectral reconstruction error {float(np.max(residual[failed])):.3e} "
            f"exceeds {RECONSTRUCTION_RTOL:.0e} * (1 + max|A|)"
        )
    return eigenvalues, eigenvectors


def _popcounts(n: int) -> np.ndarray:
    """Number of qubits in |1> of every basis state; S^z = n - 2 popcount."""
    states = np.arange(2**n)
    return sum((states >> shift) & 1 for shift in range(n))


@functools.lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The popcount sectors of n qubits stacked by size, then the whole
    register as one block; read-only.

    Sectors of one size (k and n - k ones) share a stack, shape (count, size),
    in order of first appearance by popcount; the whole register is (1, 2^n).
    """
    ones = _popcounts(n)
    by_size: dict[int, list[np.ndarray]] = {}
    for k in range(n + 1):
        indices = np.flatnonzero(ones == k)
        by_size.setdefault(indices.size, []).append(indices)
    sectors = tuple(np.stack(members) for members in by_size.values())
    whole = (np.arange(2**n)[None, :],)
    for indices in sectors + whole:
        indices.setflags(write=False)
    return sectors, whole


def sector_stacks(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The diagonal blocks of a register-sized matrix, or of a stack of them
    (..., dim, dim), stacked by size.

    Returns (indices, blocks) pairs: ``indices`` (k, s) holds the basis
    indices of k blocks of s states and ``blocks`` (..., k, s, s) the matrix
    restricted to each.  The blocks are the popcount (S^z) sectors when every
    entry between two sectors is exactly 0, in every matrix of a stack;
    otherwise there is one block, the whole register, as a view of
    ``matrix``.  A matrix whose imaginary part is exactly 0 gives real
    blocks, so ``eigh`` returns real eigenvectors.  ``assemble`` is the
    inverse.
    """
    if np.iscomplexobj(matrix) and not matrix.imag.any():
        matrix = matrix.real
    sectors, (whole,) = _partitions(matrix.shape[-1].bit_length() - 1)
    stacks = [(indices, diagonal_blocks(matrix, indices)) for indices in sectors]
    if sum(np.count_nonzero(blocks) for _, blocks in stacks) == np.count_nonzero(matrix):
        return stacks
    return [(whole, diagonal_blocks(matrix, whole))]


def diagonal_blocks(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """A register-sized matrix, or a stack of them (..., dim, dim),
    restricted to the k blocks of basis ``indices`` (k, s): shape
    (..., k, s, s).  The whole register in basis order is a view of
    ``matrix``, not a copy."""
    if indices.shape[0] == 1 and np.array_equal(indices[0], np.arange(matrix.shape[-1])):
        return matrix[..., None, :, :]
    return matrix[..., indices[:, :, None], indices[:, None, :]]


def sector_partition(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The popcount sectors of n qubits, stacked as ``sector_stacks`` cuts
    them: (indices (k, s), ones (k,)) pairs, ``ones`` the popcount of each
    block.  An object that conserves S^z is laid out on them directly."""
    ones = _popcounts(n)
    return tuple((indices, ones[indices[:, 0]]) for indices in _partitions(n)[0])


def combine(
    stacks: Sequence[tuple[np.ndarray, np.ndarray]], coefficients: Sequence[float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (indices, blocks) stacks of sum_j c_j P_j from the piece stacks of
    the P_j, blocks (p, k, s, s): each block (k, s, s) the terms c_j P_j
    added in piece order."""
    out = []
    for indices, blocks in stacks:
        total = coefficients[0] * blocks[0]
        for c, piece in zip(coefficients[1:], blocks[1:]):
            total += c * piece
        out.append((indices, total))
    return out


def assemble(stacks: Sequence[tuple[np.ndarray, np.ndarray]], dtype=None) -> np.ndarray:
    """The register-sized matrix with the (indices, blocks) ``stacks`` of one
    matrix on its diagonal and 0 everywhere else, or a stack of them when
    the blocks (..., k, s, s) carry a leading piece axis; ``dtype`` defaults
    to that of the blocks."""
    dim = sum(indices.size for indices, _ in stacks)
    if dtype is None:
        dtype = np.result_type(*(blocks for _, blocks in stacks))
    out = np.zeros((*stacks[0][1].shape[:-3], dim, dim), dtype=dtype)
    for indices, blocks in stacks:
        out[..., indices[:, :, None], indices[:, None, :]] = blocks
    return out


def restrict(stacks: Sequence[tuple[np.ndarray, np.ndarray]], indices: np.ndarray) -> np.ndarray:
    """The matrix of the (indices, blocks) ``stacks`` restricted to the k
    blocks of basis ``indices`` (k, s), shape (..., k, s, s): the stack's own
    blocks when one stack has exactly these indices, else gathered from the
    assembled matrix."""
    for own, blocks in stacks:
        if np.array_equal(own, indices):
            return blocks
    return diagonal_blocks(assemble(stacks), indices)


def spectral_decompose(operator: HermitianOperator | DensityMatrix) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator or a state with one ``checked_eigh``
    per stack of its stored blocks, keeping the blocks.

    The levels come in stable ascending order over the sectors taken by
    ascending popcount, so within a degenerate level the eigenvectors follow
    the sectors, then their order within a block; each eigenvector is real
    when the operator is.
    """
    spectra = [(indices, *checked_eigh(blocks)) for indices, blocks in operator.stacks]
    eigenvalues = np.concatenate([w.ravel() for _, w, _ in spectra])
    # ties go to the sector with the smaller first basis index, which is the
    # one with fewer ones; the sort is stable, so then to the order in a block
    first_index = np.concatenate([np.repeat(indices[:, 0], w.shape[1]) for indices, w, _ in spectra])
    order = np.lexsort((first_index, eigenvalues))
    level = np.empty(operator.dim, dtype=np.int64)
    level[order] = np.arange(operator.dim)
    stacks, start = [], 0
    for indices, w, v in spectra:
        stacks.append((indices, level[start : start + w.size].reshape(w.shape), v))
        start += w.size
    return SpectralDecomposition(eigenvalues[order], tuple(stacks))


def spectral_function(
    spectrum: SpectralDecomposition, values: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """f(H) = V diag(f) V^dag, built block by block as (indices, blocks)
    stacks on the blocks of ``spectrum``; ``values`` holds f at every
    eigenvalue, in ascending order.  Real eigenvectors and values give real
    blocks."""
    values = np.asarray(values)
    return [
        (indices, (v * values[levels][:, None, :]) @ v.conj().swapaxes(-1, -2))
        for indices, levels, v in spectrum.stacks
    ]


def site_indices(n: int, sites: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The index of every basis state of n qubits on the 1-based ``sites``
    (tensor factor j on sites[j]) and on the other sites, in register order."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rest = [site for site in range(1, n + 1) if site not in sites]
    columns = [bits[:, np.array(part, dtype=int) - 1] for part in (sites, rest)]
    return tuple(c @ (1 << np.arange(c.shape[1]))[::-1] for c in columns)


def shared_blocks(n: int, *terms) -> tuple[np.ndarray, ...]:
    """The blocks of n qubits on which every operator made of the (indices,
    blocks) stack lists ``terms`` is block diagonal: the popcount sectors
    when each block of every term lies in one sector of its own register,
    else the whole register as one block."""
    for stacks in terms:
        ones = _popcounts(sum(indices.size for indices, _ in stacks).bit_length() - 1)
        if any((ones[indices] != ones[indices[:, :1]]).any() for indices, _ in stacks):
            return _partitions(n)[1]
    return _partitions(n)[0]


def embed(stacks: Sequence[tuple[np.ndarray, np.ndarray]], n: int, sites: Sequence[int]) -> list:
    """An operator on the 1-based ``sites`` of n qubits (tensor factor j on
    sites[j]), as (indices, blocks) stacks with an optional leading piece
    axis, laid on the register as op[x_T, x'_T] delta(x_R, x'_R): its stacks
    on their ``shared_blocks``, one gather each."""
    dim = sum(indices.size for indices, _ in stacks)
    if dim != 2 ** len(sites) or len(set(sites)) != len(sites) or not set(sites) <= set(range(1, n + 1)):
        raise ValueError(f"the operator does not fit sites {tuple(sites)} of {n} qubits")
    op, (inner, outer) = assemble(stacks), site_indices(n, sites)
    out = []
    for indices in shared_blocks(n, stacks):
        x, rest = inner[indices], outer[indices]
        gathered = op[..., x[:, :, None], x[:, None, :]]
        out.append((indices, np.where(rest[:, :, None] == rest[:, None, :], gathered, 0)))
    return out


def partial_trace(stacks: Sequence[tuple[np.ndarray, np.ndarray]], n: int, sites: Sequence[int]) -> list:
    """The trace over all but the 1-based ``sites`` of an n-qubit matrix's
    (indices, blocks) stacks: each block adds its entries between states that
    agree off ``sites`` into the kept sites' matrix (factor j on sites[j]),
    which ``sector_stacks`` cuts (S^z-sector blocks put nothing between its sectors)."""
    (inner, outer), k = site_indices(n, sites), len(sites)
    out = np.zeros((2**k, 2**k), np.result_type(*(blocks for _, blocks in stacks)))
    for indices, blocks in stacks:
        x, rest = inner[indices], outer[indices]
        same = rest[:, :, None] == rest[:, None, :]
        np.add.at(out.reshape(-1), ((x[:, :, None] << k) + x[:, None, :])[same], blocks[same])
    return sector_stacks(out)


# JSON matrix exchange format: {"n": qubits, "re": [[...]], "im": [[...]]},
# row-major.  Loaders re-run the container validation, so a file holding a
# non-unitary matrix fails at load time.


def matrix_from_json(payload: dict) -> tuple[QubitRegister, np.ndarray]:
    if not isinstance(payload, dict):
        raise ValueError("matrix payload must be a JSON object")
    for key in ("n", "re", "im"):
        if key not in payload:
            raise ValueError(f"matrix payload missing key {key!r}")
    extra = set(payload) - {"n", "re", "im"}
    if extra:
        raise ValueError(f"matrix payload has unknown keys {sorted(extra)}")
    register = QubitRegister(payload["n"])
    real = np.asarray(payload["re"], dtype=np.float64)
    imag = np.asarray(payload["im"], dtype=np.float64)
    if real.shape != (register.dim, register.dim) or imag.shape != real.shape:
        raise ValueError(
            f"matrix payload for n={register.n} must hold {register.dim}x{register.dim} parts"
        )
    return register, real + 1j * imag


def density_from_json(payload: dict) -> DensityMatrix:
    register, entries = matrix_from_json(payload)
    return DensityMatrix(register, entries)


def unitary_from_json(payload: dict) -> UnitaryOperator:
    register, entries = matrix_from_json(payload)
    return UnitaryOperator(register, entries)
