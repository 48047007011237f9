"""Operator algebra for qubit registers of up to 12 qubits.

Operators and states are explicit complex matrices wrapped in thin validated
containers.  Site indices are 1-based and site 1 is the leftmost (most
significant) tensor factor, so ``|01>`` on two qubits is basis index 1.
Registers are capped at 12 qubits (4096 x 4096 matrices).

Every Hamiltonian and reference state of the witness conserves the total
magnetization S^z, so it is block diagonal in the sectors of fixed popcount
(number of qubits in |1>): 924 states at most for n = 12.  ``sector_stacks``
is the one routine that decides the blocks of a register-sized matrix, or
of a stack of them: the popcount sectors when every entry between two of
them is exactly 0, one whole-register block otherwise, with blocks of equal
size stacked together.  The spectral decomposition, the ``DensityMatrix``
PSD check, the relative entropy and the direct sweep (in ``thermo`` and
``witness``), and the Trotter product and commutation check (in
``work_stats``) all run on those stacks, so their cost is that of the
largest sector, not of the register.

The eigensolver and unitarity checks live in two helpers, ``checked_eigh``
and ``check_unitary``, which work on any square block or stack of blocks, so
the sector stacks here and the ordered product in ``work_stats`` hold the
same tolerances.  ``embed_operator`` and the raw partial trace stay dense;
they serve the open-system code, whose couplings and baths need not conserve
S^z.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _frozen_matrix(entries: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise NumericalCheckError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HermitianOperator:
    """A self-adjoint matrix on a qubit register."""

    register: QubitRegister
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _frozen_matrix(self.entries, self.register.dim, "operator matrix")
        deviation = float(np.abs(entries - entries.conj().T).max())
        if deviation > HERMITICITY_ATOL:
            raise NumericalCheckError(
                f"matrix is not self-adjoint: max |A - A^dag| = {deviation:.3e} "
                f"exceeds {HERMITICITY_ATOL:.0e}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.register.dim


@dataclass(frozen=True)
class UnitaryOperator:
    """A unitary matrix on a qubit register, validated at construction."""

    register: QubitRegister
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _frozen_matrix(self.entries, self.register.dim, "unitary matrix")
        check_unitary(entries)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.register.dim


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive semidefinite matrix on a qubit register.

    Slightly negative eigenvalues from roundoff are tolerated down to
    -1e-10 and are clamped to zero by every function of the spectrum.
    ``eigenvalues`` keeps the ascending spectrum of the PSD check (read-only),
    so functions of the spectrum do not diagonalize the state again; the
    check runs ``eigvalsh`` on the ``sector_stacks`` of the state.
    """

    register: QubitRegister
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = _frozen_matrix(self.entries, self.register.dim, "density matrix")
        herm_dev = float(np.abs(entries - entries.conj().T).max())
        if herm_dev > HERMITICITY_ATOL:
            raise NumericalCheckError(
                f"density matrix is not self-adjoint: deviation {herm_dev:.3e}"
            )
        trace_dev = abs(complex(np.trace(entries)) - 1.0)
        if trace_dev > TRACE_ATOL:
            raise NumericalCheckError(
                f"density matrix trace differs from 1 by {trace_dev:.3e}"
            )
        eigenvalues = np.sort(
            np.concatenate([np.linalg.eigvalsh(blocks).ravel() for _, blocks in sector_stacks(entries)])
        )
        smallest = float(eigenvalues[0])
        if smallest < -PSD_ATOL:
            raise NumericalCheckError(
                f"density matrix has eigenvalue {smallest:.3e} below -{PSD_ATOL:.0e}"
            )
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.register.dim


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        eigenvalues = np.array(self.eigenvalues, dtype=np.float64)
        eigenvectors = np.array(self.eigenvectors, dtype=np.complex128)
        dim = eigenvalues.size
        if eigenvectors.shape != (dim, dim):
            raise ValueError("eigenvector matrix shape does not match eigenvalue count")
        if np.any(np.diff(eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted in ascending order")
        _check_orthonormal(eigenvectors)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


# The checks below take one square block or a stack of them, shape
# (..., s, s).  Absolute tolerances make the maximum over a stack the same
# test as checking each block; the reconstruction scale is per block.


def _check_orthonormal(vectors: np.ndarray) -> None:
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    gram_dev = float(np.abs(gram - np.eye(vectors.shape[-1])).max())
    if gram_dev > ORTHONORMALITY_ATOL:
        raise NumericalCheckError(
            f"eigenvectors are not orthonormal: deviation {gram_dev:.3e}"
        )


def check_unitary(entries: np.ndarray) -> None:
    """Raise unless max |U^dag U - I| <= UNITARITY_ATOL for the square block
    ``entries``, or for every block of a stack."""
    gram = entries.conj().swapaxes(-1, -2) @ entries
    deviation = float(np.abs(gram - np.eye(entries.shape[-1])).max())
    if deviation > UNITARITY_ATOL:
        raise NumericalCheckError(
            f"unitarity check failed: max |U^dag U - I| = {deviation:.3e} "
            f"exceeds {UNITARITY_ATOL:.0e}"
        )


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
    otherwise there is one block, the whole register.  A matrix whose
    imaginary part is exactly 0 gives real blocks, so ``eigh`` returns real
    eigenvectors.
    """
    if np.iscomplexobj(matrix) and not matrix.imag.any():
        matrix = matrix.real
    nonzero = np.count_nonzero(matrix)
    for partition in _partitions(matrix.shape[-1].bit_length() - 1):
        stacks = [(indices, matrix[..., indices[:, :, None], indices[:, None, :]]) for indices in partition]
        if sum(np.count_nonzero(blocks) for _, blocks in stacks) == nonzero:
            break  # always reached by the last partition, the whole register
    return stacks


def spectral_decompose(operator: HermitianOperator) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator with one ``checked_eigh`` per stack
    of ``sector_stacks``.

    The eigenvalues come in stable ascending order over the sectors taken by
    ascending popcount, so within a degenerate level the eigenvectors follow
    the sectors; each eigenvector is nonzero only on its sector's rows, and
    real when the operator is.
    """
    dim = operator.dim
    spectra = [(indices, *checked_eigh(blocks)) for indices, blocks in sector_stacks(operator.entries)]
    eigenvalues = np.concatenate([w.ravel() for _, w, _ in spectra])
    # ties go to the sector with the smaller first basis index, which is the
    # one with fewer ones; the sort is stable, so then to the order in a block
    first_index = np.concatenate([np.repeat(indices[:, 0], w.shape[1]) for indices, w, _ in spectra])
    order = np.lexsort((first_index, eigenvalues))
    column = np.empty(dim, dtype=np.int64)
    column[order] = np.arange(dim)
    vectors = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for indices, w, v in spectra:
        columns = column[start : start + w.size].reshape(w.shape)
        vectors[indices[:, :, None], columns[:, None, :]] = v
        start += w.size
    return SpectralDecomposition(eigenvalues[order], vectors)


def evolution_operator(hamiltonian: HermitianOperator, duration: float) -> UnitaryOperator:
    """exp(-i H t) built from the spectral decomposition, hence exactly unitary
    up to roundoff."""
    if not math.isfinite(duration):
        raise ValueError("evolution duration must be finite")
    decomposition = spectral_decompose(hamiltonian)
    phases = np.exp(-1j * decomposition.eigenvalues * duration)
    v = decomposition.eigenvectors
    return UnitaryOperator(hamiltonian.register, (v * phases) @ v.conj().T)


def embed_operator(
    register: QubitRegister, entries: np.ndarray, sites: Sequence[int]
) -> np.ndarray:
    """Embed an operator on ``len(sites)`` qubits into the full register.

    Tensor factor ``j`` of ``entries`` is placed on ``sites[j]``.  Returns the
    raw matrix; wrap it in the container matching its symmetry.
    """
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
    # Row axes currently ordered [op sites..., remaining sites...]; build the
    # permutation that sends them to register order.
    source_order = list(sites) + [s for s in range(1, n + 1) if s not in sites]
    perm = [source_order.index(s) for s in range(1, n + 1)]
    full = full.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(full.reshape(2**n, 2**n))


def _partial_trace_matrix(entries: np.ndarray, n: int, keep0: list[int]) -> np.ndarray:
    """Partial trace of a raw matrix over the complement of ``keep0`` (0-based)."""
    k = len(keep0)
    if k == n:
        return entries.copy()
    traced = [s for s in range(n) if s not in keep0]
    tensor = entries.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [row[s] if s in traced else n + s for s in range(n)]
    out = [row[s] for s in keep0] + [n + s for s in keep0]
    reduced = np.einsum(tensor, row + col, out)
    return np.ascontiguousarray(reduced.reshape(2**k, 2**k))


def dicke_state(register: QubitRegister, k_ones: int) -> np.ndarray:
    """Equal-amplitude superposition of all basis states with ``k_ones`` ones."""
    n = register.n
    if not isinstance(k_ones, int) or not 0 <= k_ones <= n:
        raise ValueError(f"k_ones must lie in 0..{n}, got {k_ones}")
    vec = np.zeros(register.dim, dtype=np.complex128)
    for ones in itertools.combinations(range(n), k_ones):
        index = sum(1 << (n - 1 - site) for site in ones)
        vec[index] = 1.0
    return vec / math.sqrt(math.comb(n, k_ones))


def pure_state(register: QubitRegister, amplitudes: np.ndarray) -> DensityMatrix:
    """Projector onto a (normalized) state vector."""
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if vec.size != register.dim:
        raise ValueError(f"state vector must have length {register.dim}, got {vec.size}")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    vec = vec / norm
    return DensityMatrix(register, np.outer(vec, vec.conj()))


# JSON matrix exchange format: {"n": qubits, "re": [[...]], "im": [[...]]},
# row-major.  Loaders re-run the container validation, so a file holding a
# non-unitary matrix fails at load time.


def matrix_to_json(register: QubitRegister, entries: np.ndarray) -> dict:
    arr = np.asarray(entries, dtype=np.complex128)
    return {
        "n": register.n,
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


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
