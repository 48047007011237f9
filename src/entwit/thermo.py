"""Gibbs states and relative entropy.

Relative entropy is S(rho||sigma) = tr(rho ln rho) - tr(rho ln sigma) in
natural log units (nats).  Support convention: eigenvalues at or below 1e-14
count as zero, 0 ln 0 = 0, and the result is +infinity whenever rho carries
more than 1e-12 of weight outside the support of sigma.

Every direct evaluation comes down to the cross term
tr(rho ln sigma) = sum_i <v_i|rho|v_i> ln w_i over sigma's eigenpairs (v_i, w_i).
``diagonal_overlaps`` is the one kernel for the overlaps <v_i|rho|v_i>: a
matrix product and a column sum, so it runs on BLAS.  ``sector_overlaps``
diagonalizes sigma per stack of its S^z sectors and takes the overlaps from
rho's matching blocks; the spectral evaluator ``relative_entropy`` and the
direct sweep share it.  The witness's analytic-log-weight evaluator calls
the kernel on the dense eigenvectors.  Every direct evaluator passes its
result through ``nonnegative_entropy``: roundoff below zero is reported as
0, anything below -NEGATIVE_ENTROPY_TOL raises.

Partition functions are handled in log space throughout, so steep inverse
temperatures (beta ~ 100 on spectra of width ~10) stay inside double range.
``ThermalSpec.weights`` and ``ThermalSpec.log_weights`` are the package's one
rule for normalized Gibbs weights.  Every ln sum exp in the package (ln Z
here, the work averages, the witness's log weights) goes through
``logsumexp``, a numpy kernel that computes exactly what
``scipy.special.logsumexp`` computes for real input, so the package needs
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError
from .operators import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    checked_eigh,
    sector_stacks,
    spectral_decompose,
)

# Weight of rho tolerated outside the numerical support of sigma before the
# relative entropy is reported as infinite.
SUPPORT_LEAK_TOL = 1e-12
# Relative entropies down to minus this much are roundoff and read as 0; a
# lower value means the inputs were not valid states.
NEGATIVE_ENTROPY_TOL = 1e-8


def logsumexp(a, axis=None):
    """ln sum exp(a) over ``axis`` (all entries when None), for real input.

    Follows scipy 1.17's algorithm step for step, so results are bit for bit
    those of ``scipy.special.logsumexp(a, axis)``: the maxima are taken out of
    the sum and counted, the rest is summed shifted by the maximum, and the
    result is log1p(rest / count) + ln(count) + max.  A slice of all -inf
    (or an empty one) gives -inf, a +inf entry gives +inf, and nan propagates.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = a.max(axis=axes, keepdims=True, initial=-np.inf)
        at_peak = a == peak
        count = at_peak.sum(axis=axes, keepdims=True, dtype=np.float64)
        rest = np.exp(np.where(at_peak, -np.inf, a) - peak).sum(axis=axes, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
    out[peak == -np.inf] = -np.inf
    return out.squeeze(axis=axes)[()]


@dataclass(frozen=True)
class ThermalSpec:
    """A Hamiltonian together with an inverse temperature.

    Carries its spectral decomposition (computed once, cached) and the derived
    log partition function and Gibbs weights, all finite for any beta.
    """

    hamiltonian: HermitianOperator
    beta: float

    def __post_init__(self) -> None:
        if not isinstance(self.beta, (int, float)) or not math.isfinite(self.beta):
            raise ValueError(f"beta must be a finite number, got {self.beta!r}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "_spectrum_cache", None)

    @classmethod
    def with_spectrum(
        cls, hamiltonian: HermitianOperator, beta: float, spectrum: SpectralDecomposition
    ) -> "ThermalSpec":
        """Build a spec around an already-computed decomposition of the same
        operator, so sweeps over beta do not re-diagonalize."""
        spec = cls(hamiltonian, beta)
        object.__setattr__(spec, "_spectrum_cache", spectrum)
        return spec

    @property
    def spectrum(self) -> SpectralDecomposition:
        cached = getattr(self, "_spectrum_cache")
        if cached is None:
            cached = spectral_decompose(self.hamiltonian)
            object.__setattr__(self, "_spectrum_cache", cached)
        return cached

    @property
    def log_partition(self) -> float:
        return float(logsumexp(-self.beta * self.spectrum.eigenvalues))

    @property
    def free_energy(self) -> float:
        return -self.log_partition / self.beta

    def _shifted_energies(self) -> np.ndarray:
        """-beta (E_k - E_0) over the ascending spectrum."""
        eigenvalues = self.spectrum.eigenvalues
        return -self.beta * (eigenvalues - eigenvalues[0])

    @property
    def weights(self) -> np.ndarray:
        """Gibbs weights exp(-beta (E_k - E_0)) / sum, in spectrum order."""
        weights = np.exp(self._shifted_energies())
        weights /= weights.sum()
        return weights

    @property
    def log_weights(self) -> np.ndarray:
        """ln of ``weights``, exact where the weights themselves underflow."""
        shifted = self._shifted_energies()
        return shifted - logsumexp(shifted)


def thermal_state(spec: ThermalSpec) -> DensityMatrix:
    """exp(-beta H)/Z, built from the shifted spectrum of H."""
    v = spec.spectrum.eigenvectors
    entries = (v * spec.weights) @ v.conj().T
    entries = 0.5 * (entries + entries.conj().T)
    return DensityMatrix(spec.hamiltonian.register, entries)


def _plogp(eigenvalues: np.ndarray) -> float:
    clamped = np.clip(eigenvalues, 0.0, None)
    support = clamped > EIGENVALUE_FLOOR
    lam = clamped[support]
    return float(np.sum(lam * np.log(lam)))


def diagonal_overlaps(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v_i| rho |v_i> for every column v_i of ``vectors``, clamped at 0.

    ``rho`` is a state's matrix (or one diagonal block of it) and ``vectors``
    the orthonormal eigenvectors of sigma on the same basis; stacks of blocks
    (..., s, s) give overlaps of shape (..., s).
    """
    overlaps = (vectors.conj() * (rho @ vectors)).sum(-2).real
    return np.clip(overlaps, 0.0, None)


def nonnegative_entropy(value):
    """A relative entropy (or an array of them) with roundoff below 0 set to 0.

    Raises NumericalCheckError below -NEGATIVE_ENTROPY_TOL, which valid
    states cannot produce.
    """
    value = np.asarray(value, dtype=np.float64)
    if np.any(value < -NEGATIVE_ENTROPY_TOL):
        raise NumericalCheckError(
            f"relative entropy evaluated to {float(value.min()):.3e}; "
            "inputs are not valid states"
        )
    return np.where(value < 0, 0.0, value)[()]


def sector_overlaps(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma's eigenvalues w_i and the overlaps <v_i|rho|v_i> of its
    eigenvectors, from one checked ``eigh`` per stack of sigma's
    ``sector_stacks``, in stack order (not sorted).

    Each eigenvector lies in one block, so only rho's matching diagonal
    blocks enter the overlaps, which is exact for any rho.  Also returns the
    first basis index of each eigenvector's block, which names its sector.
    """
    eigenvalues, overlaps, first = [], [], []
    for indices, blocks in sector_stacks(sigma):
        w, v = checked_eigh(blocks)
        eigenvalues.append(w.ravel())
        overlaps.append(diagonal_overlaps(rho[indices[:, :, None], indices[:, None, :]], v).ravel())
        first.append(np.repeat(indices[:, 0], w.shape[-1]))
    return np.concatenate(eigenvalues), np.concatenate(overlaps), np.concatenate(first)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) in nats; math.inf when supp(rho) leaks out of supp(sigma).

    sigma's spectrum and the overlaps come from ``sector_overlaps``.
    """
    if rho.register != sigma.register:
        raise ValueError("states must live on the same register")
    first_term = _plogp(rho.eigenvalues)
    sigma_eigenvalues, overlaps, _ = sector_overlaps(rho.entries, sigma.entries)
    sigma_eigenvalues = np.clip(sigma_eigenvalues, 0.0, None)
    inside = sigma_eigenvalues > EIGENVALUE_FLOOR
    leak = float(overlaps[~inside].sum())
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    second_term = float(np.sum(overlaps[inside] * np.log(sigma_eigenvalues[inside])))
    return float(nonnegative_entropy(first_term - second_term))


def delta_beta_f(initial: ThermalSpec, final: ThermalSpec) -> float:
    """beta_f F_f - beta_i F_i = ln Z_i - ln Z_f."""
    return initial.log_partition - final.log_partition


def gibbs_relative_entropy(initial: ThermalSpec, final: ThermalSpec) -> float:
    """S(thermal(final) || thermal(initial)) via the Gibbs-state identity

        S = (beta_f F_f - beta_i F_i) - tr[rho_f (beta_f H_f - beta_i H_i)],

    which avoids diagonalizing any state and matches relative_entropy on the
    corresponding thermal states.
    """
    if initial.hamiltonian.register != final.hamiltonian.register:
        raise ValueError("thermal specs must live on the same register")
    rho = thermal_state(final)
    final_energy = float(
        np.einsum("ij,ji->", rho.entries, final.hamiltonian.entries).real
    )
    initial_energy = float(
        np.einsum("ij,ji->", rho.entries, initial.hamiltonian.entries).real
    )
    weighted = final.beta * final_energy - initial.beta * initial_energy
    return float(nonnegative_entropy(delta_beta_f(initial, final) - weighted))
