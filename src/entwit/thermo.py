"""Gibbs states and relative entropy.

Relative entropy is S(rho||sigma) = tr(rho ln rho) - tr(rho ln sigma) in
natural log units (nats).  Support convention: eigenvalues at or below 1e-14
count as zero, 0 ln 0 = 0, and the result is +infinity whenever rho carries
more than 1e-12 of weight outside the support of sigma.

Partition functions are handled in log space throughout, so steep inverse
temperatures (beta ~ 100 on spectra of width ~10) stay inside double range.
Every ln sum exp in the package (ln Z here, the work averages, the witness's
log weights) goes through ``logsumexp``, a numpy kernel that computes exactly
what ``scipy.special.logsumexp`` computes for real input, so the package
needs numpy alone.
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
    spectral_decompose,
)

# Weight of rho tolerated outside the numerical support of sigma before the
# relative entropy is reported as infinite.
SUPPORT_LEAK_TOL = 1e-12

LOG_FLOOR = math.log(EIGENVALUE_FLOOR)


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
    log partition function.  ``partition`` itself can overflow to inf for very
    steep beta; ``log_partition`` and ``free_energy`` are always finite.
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
    def partition(self) -> float:
        # overflows to +inf for large beta * |spectrum|; use log_partition then
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_partition))

    @property
    def free_energy(self) -> float:
        return -self.log_partition / self.beta


def thermal_state(spec: ThermalSpec) -> DensityMatrix:
    """exp(-beta H)/Z, built from the shifted spectrum of H."""
    decomposition = spec.spectrum
    shifted = -spec.beta * (decomposition.eigenvalues - decomposition.eigenvalues[0])
    weights = np.exp(shifted)
    weights /= weights.sum()
    v = decomposition.eigenvectors
    entries = (v * weights) @ v.conj().T
    entries = 0.5 * (entries + entries.conj().T)
    return DensityMatrix(spec.hamiltonian.register, entries)


def _plogp(eigenvalues: np.ndarray) -> float:
    clamped = np.clip(eigenvalues, 0.0, None)
    support = clamped > EIGENVALUE_FLOOR
    lam = clamped[support]
    return float(np.sum(lam * np.log(lam)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) in nats; math.inf when supp(rho) leaks out of supp(sigma)."""
    if rho.register != sigma.register:
        raise ValueError("states must live on the same register")
    rho_eigenvalues = np.linalg.eigvalsh(rho.entries)
    first_term = _plogp(rho_eigenvalues)

    sigma_eigenvalues, sigma_vectors = np.linalg.eigh(sigma.entries)
    sigma_eigenvalues = np.clip(sigma_eigenvalues, 0.0, None)
    # <v_i| rho |v_i> for every sigma eigenvector
    overlaps = np.einsum(
        "ji,jk,ki->i", sigma_vectors.conj(), rho.entries, sigma_vectors
    ).real
    overlaps = np.clip(overlaps, 0.0, None)
    inside = sigma_eigenvalues > EIGENVALUE_FLOOR
    leak = float(overlaps[~inside].sum())
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    second_term = float(np.sum(overlaps[inside] * np.log(sigma_eigenvalues[inside])))
    value = first_term - second_term
    if value < 0:
        if value < -1e-8:
            raise NumericalCheckError(
                f"relative entropy evaluated to {value:.3e}; inputs are not valid states"
            )
        value = 0.0
    return float(value)


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
    return delta_beta_f(initial, final) - weighted
