"""Gibbs states and relative entropy.

Relative entropy is S(rho||sigma) = tr(rho ln rho) - tr(rho ln sigma) in
natural log units (nats).  Support convention: eigenvalues at or below 1e-14
count as zero, 0 ln 0 = 0, and the result is +infinity whenever rho carries
more than 1e-12 of weight outside the support of sigma.

Every direct evaluation comes down to the cross term
tr(rho ln sigma) = sum_i <v_i|rho|v_i> ln w_i over sigma's eigenpairs (v_i, w_i).
``sector_overlaps`` is its one loop: it diagonalizes sigma's stored S^z
blocks and takes the overlaps from rho's matching blocks on BLAS.
``relative_entropy``, the witness's analytic evaluator (a state rho against
a Gibbs sigma given by its Hamiltonian) and the direct sweep share it, so no
dense matrix of either is read.  Every direct evaluator clamps roundoff
below zero with ``nonnegative_entropy``, and raises below -NEGATIVE_ENTROPY_TOL.

This module holds the package's one Gibbs rule: ``log_gibbs_weights``
(ln exp(-beta (E - E_min)) / sum over the last axis, beta broadcast), its
linear form ``gibbs_weights`` and ``gibbs_log_partition`` for every ln Z
(read by ``ThermalSpec`` and by the work-statistics readers), and
``weighted_energy``, the energy term tr[rho_f (beta_f H_f - beta_i H_i)]
shared by the Gibbs identity and the work route.  A ``ThermalSpec.spectrum``
keeps its S^z blocks: ``gibbs_blocks`` builds the Gibbs state block by block
with ``operators.spectral_function`` (a spec keeps its own as
``gibbs_stacks``, which ``thermal_state`` checks as a ``DensityMatrix``), and
``weighted_energy`` sums tr(rho_f H_i) over the final levels of positive
Gibbs weight, each inside one block, so neither forms a register-sized
eigenvector matrix.  All of it stays in log space, so steep inverse
temperatures (beta ~ 100 on spectra of width ~10) stay inside double range.  Every ln sum exp goes through ``logsumexp``, a
numpy kernel computing exactly what ``scipy.special.logsumexp`` does.
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
    restrict,
    spectral_decompose,
    spectral_function,
)
from .spin_models import is_number

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
        rest = np.where(at_peak, -np.inf, a)
        rest -= peak
        rest = np.exp(rest, out=rest).sum(axis=axes, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
    out[peak == -np.inf] = -np.inf
    return out.squeeze(axis=axes)[()]


def _check_beta(beta) -> None:
    """Raise ValueError unless ``beta`` is a finite positive number."""
    if not is_number(beta):
        raise ValueError(f"beta must be a finite number, got {beta!r}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")


@dataclass(frozen=True)
class ThermalSpec:
    """A Hamiltonian together with an inverse temperature.

    Carries its spectral decomposition and its Gibbs state's blocks (each
    computed once, cached) and the derived log partition function and Gibbs
    weights, all finite for any beta.
    """

    hamiltonian: HermitianOperator
    beta: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        object.__setattr__(self, "_spectrum_cache", None)
        object.__setattr__(self, "_gibbs_cache", None)

    @property
    def spectrum(self) -> SpectralDecomposition:
        cached = getattr(self, "_spectrum_cache")
        if cached is None:
            cached = spectral_decompose(self.hamiltonian)
            object.__setattr__(self, "_spectrum_cache", cached)
        return cached

    @property
    def gibbs_stacks(self) -> tuple:
        """The read-only ``gibbs_blocks`` of this spec, built on first read:
        a direct sweep's ``thermal_state`` and ``state_checksum`` of one
        spec share them."""
        cached = getattr(self, "_gibbs_cache")
        if cached is None:
            cached = tuple(gibbs_blocks(self))
            for indices, blocks in cached:
                indices.setflags(write=False)
                blocks.setflags(write=False)
            object.__setattr__(self, "_gibbs_cache", cached)
        return cached

    @property
    def log_partition(self) -> float:
        return gibbs_log_partition(self.spectrum.eigenvalues, self.beta)

    @property
    def free_energy(self) -> float:
        return -self.log_partition / self.beta

    @property
    def weights(self) -> np.ndarray:
        return gibbs_weights(self.spectrum.eigenvalues, self.beta)


def gibbs_log_partition(eigenvalues: np.ndarray, beta: float) -> float:
    """ln Z = ln sum exp(-beta E_k) over ``eigenvalues``."""
    return float(logsumexp(-beta * eigenvalues))


def gibbs_weights(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights exp(-beta (E_k - E_0)) / sum over ascending ``eigenvalues``."""
    weights = np.exp(-beta * (eigenvalues - eigenvalues[0]))
    weights /= weights.sum()
    return weights


def log_gibbs_weights(energies, beta) -> np.ndarray:
    """ln of exp(-beta (E - E_min)) / sum over the last axis of ``energies``.

    ``beta`` broadcasts against ``energies``: a direct sweep passes energies
    (b, 1, dim) and inverse temperatures (nT, 1) for weights (b, nT, dim).
    Exact where the weights themselves underflow.
    """
    energies = np.asarray(energies, dtype=np.float64)
    shifted = -(np.asarray(beta) * (energies - energies.min(axis=-1, keepdims=True)))
    return shifted - logsumexp(shifted, axis=-1)[..., None]


def gibbs_blocks(spec: ThermalSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (indices, blocks) stacks of exp(-beta H)/Z, built block by block
    from the shifted spectrum of H and symmetrized, with none of the checks
    of a ``DensityMatrix``."""
    stacks = spectral_function(spec.spectrum, spec.weights)
    return [(indices, 0.5 * (b + b.conj().swapaxes(-1, -2))) for indices, b in stacks]


def thermal_state(spec: ThermalSpec) -> DensityMatrix:
    """exp(-beta H)/Z as a checked ``DensityMatrix`` of ``spec.gibbs_stacks``."""
    return DensityMatrix(spec.hamiltonian.register, spec.gibbs_stacks)


def _plogp(eigenvalues: np.ndarray) -> float:
    clamped = np.clip(eigenvalues, 0.0, None)
    support = clamped > EIGENVALUE_FLOOR
    lam = clamped[support]
    return float(np.sum(lam * np.log(lam)))


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


def sector_overlaps(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """sigma's eigenvalues w_i and the overlaps <v_i|rho|v_i> of its
    eigenvectors, from one checked ``eigh`` per stack of sigma's (indices,
    blocks) stacks, in stack order (not sorted), each block's eigenvalues
    together.

    Each eigenvector lies in one block, so only rho's matching blocks (the
    ``operators.restrict`` of rho's stacks) enter the overlaps, which is
    exact for any rho.  The overlaps are a matrix product and a column sum,
    so they run on BLAS, and are clamped at 0.
    """
    eigenvalues, overlaps = [], []
    for indices, blocks in sigma:
        w, v = checked_eigh(blocks)
        rho_blocks = restrict(rho, indices)
        eigenvalues.append(w.ravel())
        overlaps.append(np.clip((v.conj() * (rho_blocks @ v)).sum(-2).real, 0.0, None).ravel())
    return np.concatenate(eigenvalues), np.concatenate(overlaps)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) in nats; math.inf when supp(rho) leaks out of supp(sigma).

    sigma's spectrum and the overlaps come from ``sector_overlaps``.
    """
    if rho.register != sigma.register:
        raise ValueError("states must live on the same register")
    first_term = _plogp(rho.eigenvalues)
    sigma_eigenvalues, overlaps = sector_overlaps(rho.stacks, sigma.stacks)
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


def weighted_energy(initial: ThermalSpec, final: ThermalSpec) -> float:
    """tr[rho_f (beta_f H_f - beta_i H_i)] for rho_f the Gibbs state of ``final``.

    <H_f> is w . E_f over the final spectrum.  rho_f = sum_j w_j |v_j><v_j|
    over the final eigenvectors, each inside one block, so <H_i> is the sum
    of w_j <v_j|H_i,bb|v_j> over the levels j with w_j > 0, which is exact
    for any H_i.  Per stack only the eigenvector columns with a positive
    weight in some block enter, so a steep beta, whose weights underflow to
    exactly 0 above the lowest levels, costs a few columns, not rho_f.
    """
    spectrum = final.spectrum
    weights = final.weights
    final_energy = float(np.dot(weights, spectrum.eigenvalues))
    h_initial = initial.hamiltonian.stacks
    initial_energy = 0.0
    for indices, levels, v in spectrum.stacks:
        w = weights[levels]
        columns = np.flatnonzero((w > 0).any(axis=0))
        v, w = v[:, :, columns], w[:, columns]
        expectations = (v.conj() * (restrict(h_initial, indices) @ v)).sum(axis=-2).real
        initial_energy += float(np.sum(w * expectations))
    return final.beta * final_energy - initial.beta * initial_energy


def gibbs_relative_entropy(initial: ThermalSpec, final: ThermalSpec) -> float:
    """S(thermal(final) || thermal(initial)) via the Gibbs-state identity

        S = (beta_f F_f - beta_i F_i) - tr[rho_f (beta_f H_f - beta_i H_i)],

    which avoids diagonalizing any state and matches relative_entropy on the
    corresponding thermal states.
    """
    if initial.hamiltonian.register != final.hamiltonian.register:
        raise ValueError("thermal specs must live on the same register")
    return float(
        nonnegative_entropy(delta_beta_f(initial, final) - weighted_energy(initial, final))
    )
