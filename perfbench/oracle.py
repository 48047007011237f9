"""Reference physics for checking entwit's outputs, written without entwit.

Hamiltonians are built here from Kronecker products of Pauli matrices, and
every distance is the dense relative entropy

    S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma)

with the package's support convention (eigenvalues at or below 1e-14 count as
zero, 0 ln 0 = 0).  For a Gibbs state sigma = exp(-beta H) / Z the logarithm
is written out exactly as ln sigma = -beta H - ln Z, so steep temperatures
need no eigenvalue of sigma at all.  Sharing no code with the program keeps a
bug in the program from being copied into its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

EIGENVALUE_FLOOR = 1e-14
SUPPORT_LEAK_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def site_operator(n: int, site: int, op: np.ndarray) -> np.ndarray:
    """``op`` on 1-based ``site`` of n qubits; site 1 is the leftmost factor."""
    left = np.eye(2 ** (site - 1), dtype=np.complex128)
    right = np.eye(2 ** (n - site), dtype=np.complex128)
    return np.kron(np.kron(left, op), right)


def chain_hamiltonian(n: int, bonds, fields) -> np.ndarray:
    """-sum_bonds [(J/2)(xx + yy) + Jz zz] - sum_sites B z.

    ``bonds`` holds (l, m, J, Jz) tuples and ``fields`` (site, B) pairs, with
    1-based sites.
    """
    h = np.zeros((2**n, 2**n), dtype=np.complex128)
    for l, m, coupling, coupling_z in bonds:
        for op, weight in ((PAULI_X, 0.5 * coupling), (PAULI_Y, 0.5 * coupling), (PAULI_Z, coupling_z)):
            h -= weight * (site_operator(n, l, op) @ site_operator(n, m, op))
    for site, field in fields:
        h -= field * site_operator(n, site, PAULI_Z)
    return h


def xxz_bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    last = n if boundary == "periodic" else n - 1
    return [(l, l % n + 1) for l in range(1, last + 1)]


def xxz_hamiltonian(params: dict) -> np.ndarray:
    """Chain Hamiltonian from a config ``params`` block (n, J, Jz, B, boundary)."""
    n = params["n"]
    bonds = [(l, m, params["J"], params["Jz"]) for l, m in xxz_bonds(n, params.get("boundary", "periodic"))]
    return chain_hamiltonian(n, bonds, [(s, params["B"]) for s in range(1, n + 1)])


class XXZPieces:
    """H(J, Jz, B) = J * xy + Jz * zz + B * field for one (n, boundary), so a
    sweep check builds each sampled chain from three fixed matrices."""

    def __init__(self, n: int, boundary: str = "periodic"):
        bonds = xxz_bonds(n, boundary)
        self.xy = chain_hamiltonian(n, [(l, m, 1.0, 0.0) for l, m in bonds], [])
        self.zz = chain_hamiltonian(n, [(l, m, 0.0, 1.0) for l, m in bonds], [])
        self.field = chain_hamiltonian(n, [], [(s, 1.0) for s in range(1, n + 1)])

    def hamiltonian(self, coupling: float, coupling_z: float, field: float) -> np.ndarray:
        return coupling * self.xy + coupling_z * self.zz + field * self.field


def log_gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    """ln(exp(-beta H) / Z), exact in log space."""
    log_z = float(logsumexp(-beta * np.linalg.eigvalsh(h)))
    return -beta * h - log_z * np.eye(h.shape[0])


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(h)
    weights = np.exp(-beta * (values - values[0]))
    weights /= weights.sum()
    rho = (vectors * weights) @ vectors.conj().T
    return 0.5 * (rho + rho.conj().T)


def log_partition(h: np.ndarray, beta: float) -> float:
    return float(logsumexp(-beta * np.linalg.eigvalsh(h)))


def entropy_term(rho: np.ndarray) -> float:
    """tr(rho ln rho) with 0 ln 0 = 0."""
    values = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    values = values[values > EIGENVALUE_FLOOR]
    return float(np.sum(values * np.log(values)))


def log_state(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix logarithm of sigma on its support, and the projector off it."""
    values, vectors = np.linalg.eigh(sigma)
    inside = values > EIGENVALUE_FLOOR
    v_in = vectors[:, inside]
    v_out = vectors[:, ~inside]
    return (v_in * np.log(values[inside])) @ v_in.conj().T, v_out @ v_out.conj().T


def relative_entropy(rho: np.ndarray, log_sigma: np.ndarray, outside: np.ndarray | None = None) -> float:
    """Dense S(rho||sigma) from ln(sigma); +inf when rho leaks off the support."""
    if outside is not None and float(np.trace(rho @ outside).real) > SUPPORT_LEAK_TOL:
        return math.inf
    return entropy_term(rho) - float(np.trace(rho @ log_sigma).real)


def dicke_vector(n: int, k_ones: int) -> np.ndarray:
    """Normalized equal superposition of the basis states with k ones."""
    mask = np.array([bin(i).count("1") == k_ones for i in range(2**n)])
    return mask / math.sqrt(mask.sum())


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj()).astype(np.complex128)


def separable_reference(n: int) -> np.ndarray:
    """The sweep's separable reference: the closest separable state to W for
    n = 3, the preparable all-zeros/W mixture for n = 7."""
    if n == 7:
        dicke_weight = 7 * 6**6 / 7**7
        return (1.0 - dicke_weight) * projector(dicke_vector(7, 0)) + dicke_weight * projector(dicke_vector(7, 1))
    sigma = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k_zeros in range(n + 1):
        weight = math.comb(n, k_zeros) * float((n - 1) ** k_zeros) / float(n**n)
        sigma += weight * projector(dicke_vector(n, n - k_zeros))
    return sigma


def partial_trace_right(rho: np.ndarray, keep_qubits: int, n: int) -> np.ndarray:
    """Trace out the last n - keep_qubits qubits."""
    d_keep, d_rest = 2**keep_qubits, 2 ** (n - keep_qubits)
    return np.einsum("ajbj->ab", rho.reshape(d_keep, d_rest, d_keep, d_rest))
