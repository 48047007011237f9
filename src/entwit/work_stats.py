"""Two-point-measurement work statistics for driven chains.

A protocol measures the initial Hamiltonian's eigenbasis, evolves with a
unitary U, and measures the final eigenbasis.  The transition probabilities
q[m, n] = |<final_m| U |initial_n>|^2 form a doubly stochastic matrix, which
is what makes the exponential work averages collapse to partition-function
ratios for *any* unitary:

    <exp(-beta W)>                      = Z_f / Z_i            (equal beta)
    <exp(-(beta_f E_f - beta_i E_i))>   = Z_f(beta_f)/Z_i(beta_i)

Every average is evaluated per-term in log space so that steep protocols
(beta ~ 100) never leave double range.

Driven protocols, closed and open, share one Trotter routine,
``ordered_product``, over a block-diagonal Hamiltonian given as fixed pieces
and a table of slice coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import NumericalCheckError
from .operators import (
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    check_unitary,
    checked_eigh,
    evolution_operator,
    spectral_decompose,
)
from .spin_models import (
    DrivingSchedule,
    XXZParams,
    build_xxz,
    params_at,
    xxz_sectors,
)
from .thermo import ThermalSpec, thermal_state

STOCHASTICITY_ATOL = 1e-10
COMMUTATION_ATOL = 1e-9
SAMPLE_BLOCK = 16384
# Where trotter_evolution samples H in each slice.
SAMPLING_RULES = ("left", "midpoint")


@dataclass(frozen=True)
class TransitionMatrix:
    """q[m, n] = |<final_m|U|initial_n>|^2 plus the two spectra behind it."""

    q: np.ndarray
    initial: SpectralDecomposition
    final: SpectralDecomposition

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=np.float64)
        dim = self.initial.dim
        if q.shape != (dim, dim) or self.final.dim != dim:
            raise ValueError("transition matrix shape must match both spectra")
        if q.min() < -STOCHASTICITY_ATOL:
            raise NumericalCheckError("transition probabilities must be non-negative")
        row_dev = float(np.abs(q.sum(axis=1) - 1.0).max())
        col_dev = float(np.abs(q.sum(axis=0) - 1.0).max())
        if max(row_dev, col_dev) > STOCHASTICITY_ATOL:
            raise NumericalCheckError(
                f"transition matrix is not doubly stochastic: row deviation "
                f"{row_dev:.3e}, column deviation {col_dev:.3e}"
            )
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.initial.dim


def _transition_from_spectra(
    initial: SpectralDecomposition,
    final: SpectralDecomposition,
    u: UnitaryOperator,
) -> TransitionMatrix:
    amplitudes = final.eigenvectors.conj().T @ u.entries @ initial.eigenvectors
    return TransitionMatrix(np.abs(amplitudes) ** 2, initial, final)


# A measured Hamiltonian, or its spectral decomposition when the caller holds
# one already (ThermalSpec.spectrum, say); a decomposition is used as it is.
Measured = HermitianOperator | SpectralDecomposition


def transition_matrix(h_initial: Measured, h_final: Measured, u: UnitaryOperator) -> TransitionMatrix:
    """Transition probabilities between the two measured eigenbases; only a
    Hamiltonian given as an operator is diagonalized here."""
    initial, final = (
        h if isinstance(h, SpectralDecomposition) else spectral_decompose(h)
        for h in (h_initial, h_final)
    )
    if initial.dim != u.register.dim or final.dim != u.register.dim:
        raise ValueError("Hamiltonians and unitary must share one register")
    return _transition_from_spectra(initial, final, u)


def exact_evolution(schedule: DrivingSchedule, commutation_samples: int = 5) -> UnitaryOperator:
    """U = exp(-i integral H(s) ds) for schedules whose Hamiltonians commute.

    Commutation is checked numerically on pairs of Hamiltonians sampled at
    ``commutation_samples`` slice starts spread over the schedule plus t_f
    itself, so H(0) is always compared with H(t_f); schedules that fail the
    check must use trotter_evolution instead.  The time integral is done on
    the interpolated parameters (trapezoid, exact for linear ramps).
    """
    sampled_steps = sorted(
        {int(round(i * (schedule.steps - 1) / max(commutation_samples - 1, 1)))
         for i in range(max(commutation_samples, 2))}
    )
    sampled_times = [s * schedule.dt for s in sampled_steps] + [schedule.t_f]
    hams = [build_xxz(params_at(schedule, t)).entries for t in sampled_times]
    worst = 0.0
    for i in range(len(hams)):
        for j in range(i + 1, len(hams)):
            worst = max(worst, float(np.abs(hams[i] @ hams[j] - hams[j] @ hams[i]).max()))
    if worst > COMMUTATION_ATOL:
        raise NumericalCheckError(
            f"schedule Hamiltonians do not commute (max commutator entry {worst:.3e} "
            f"> {COMMUTATION_ATOL:.0e}); use trotter_evolution for this protocol"
        )
    if schedule.interpolation == "quench-at-start":
        mean_params = schedule.final
    else:
        initial, final = schedule.initial, schedule.final
        mean_params = XXZParams(
            n=initial.n,
            J=0.5 * (initial.J + final.J),
            Jz=0.5 * (initial.Jz + final.Jz),
            B=0.5 * (initial.B + final.B),
            boundary=initial.boundary,
        )
    return evolution_operator(build_xxz(mean_params), schedule.t_f)


def schedule_coefficients(schedule: DrivingSchedule, sampling: str = "left") -> np.ndarray:
    """(J, Jz, -B) of every slice, shape (steps, 3): the coefficients of
    H = J H_xy + Jz H_zz - B S_z where ``sampling`` picks H in each slice."""
    if sampling not in SAMPLING_RULES:
        raise ValueError(f"sampling must be 'left' or 'midpoint', got {sampling!r}")
    offset = 0.0 if sampling == "left" else 0.5
    rows = []
    for step in range(schedule.steps):
        params = params_at(schedule, min((step + offset) * schedule.dt, schedule.t_f))
        rows.append((params.J, params.Jz, -params.B))
    return np.array(rows, dtype=np.float64)


def ordered_product(
    register: QubitRegister,
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    coefficients: np.ndarray,
    dt: float,
) -> UnitaryOperator:
    """Ordered product of slice propagators exp(-i H_k dt), step 0 applied
    first, for the block-diagonal affine Hamiltonian H_k = sum_j c[k, j] P_j.

    ``blocks`` are the diagonal blocks of every P_j: each pairs its basis
    indices (length s; together they cover the register once) with the
    pieces restricted to them, shape (p, s, s).  ``coefficients`` is c, shape
    (steps, p).  Blocks of one size are stacked into a group (indices (k, s),
    pieces (p, k, s, s)), so each step runs one batched ``checked_eigh`` per
    group and checks the unitarity of every block factor; each group carries
    its own products, and the dense unitary is assembled once at the end.
    Each factor is built spectrally and is therefore exactly unitary, which
    keeps ||U^dag U - I|| at roundoff level for any step count.  Real pieces
    give real eigenvectors.
    """
    by_size: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for indices, pieces in blocks:
        by_size.setdefault(len(indices), []).append((indices, pieces))
    groups = [
        (np.stack([indices for indices, _ in same]), np.stack([p for _, p in same], axis=1))
        for same in by_size.values()
    ]
    products = [
        np.tile(np.eye(indices.shape[1], dtype=np.complex128), (indices.shape[0], 1, 1))
        for indices, _ in groups
    ]
    for row in np.asarray(coefficients, dtype=np.float64):
        for g, (_, pieces) in enumerate(groups):
            h = row[0] * pieces[0]
            for c, piece in zip(row[1:], pieces[1:]):
                h += c * piece
            energies, vectors = checked_eigh(h)
            phases = np.exp(-1j * energies * dt)[..., None, :]
            factor = (vectors * phases) @ vectors.conj().swapaxes(-1, -2)
            check_unitary(factor)
            products[g] = factor @ products[g]
    total = np.zeros((register.dim, register.dim), dtype=np.complex128)
    for (indices, _), product in zip(groups, products):
        for block_indices, block in zip(indices, product):
            total[np.ix_(block_indices, block_indices)] = block
    return UnitaryOperator(register, total)


def trotter_evolution(schedule: DrivingSchedule, sampling: str = "left") -> UnitaryOperator:
    """Ordered product of per-slice propagators, step 0 applied first.

    ``sampling`` picks H at the left endpoint of each slice (first-order
    accurate, the default) or at the midpoint (second order).  H(t) conserves
    S^z, so ``ordered_product`` runs on the S^z sectors, with the pieces
    (H_xy, H_zz, S_z) of ``xxz_sectors`` and the coefficients (J, Jz, -B);
    sectors k and n-k have one size and share a stack.
    """
    coefficients = schedule_coefficients(schedule, sampling)
    blocks = [
        (
            sector.indices,
            np.stack([
                sector.hopping,
                np.diag(sector.zz),
                sector.magnetization * np.eye(sector.size),
            ]),
        )
        for sector in xxz_sectors(schedule.n, schedule.initial.boundary)
    ]
    return ordered_product(QubitRegister(schedule.n), blocks, coefficients, schedule.dt)


def _log_generalized_average(
    beta_initial: float, beta_final: float, tm: TransitionMatrix
) -> float:
    """ln of sum_{m,n} p_n q[m,n] exp(-(beta_f E_m - beta_i E_n)).

    Every (m, n) term's exponent is assembled before exponentiation: the
    Gibbs weight contributes -beta_i(E_n - E_0^i) - ln Z~_i, which cancels the
    +beta_i E_n of the work exponential up to the spectrum shift.  Terms with
    q = 0 are dropped.
    """
    e_initial = tm.initial.eigenvalues
    e_final = tm.final.eigenvalues
    shifted_initial = beta_initial * (e_initial - e_initial[0])
    shifted_final = beta_final * (e_final - e_final[0])
    log_z_shifted = float(logsumexp(-shifted_initial))
    log_weights = -shifted_initial - log_z_shifted
    offset = beta_final * e_final[0] - beta_initial * e_initial[0]
    exponents = log_weights[None, :] - (shifted_final[:, None] - shifted_initial[None, :])
    with np.errstate(divide="ignore"):
        log_terms = np.log(tm.q) + exponents
    return float(logsumexp(log_terms)) - offset


def jarzynski_average(
    beta: float,
    h_initial: Measured,
    h_final: Measured,
    u: UnitaryOperator,
) -> float:
    """<exp(-beta W)> over the two-point-measurement distribution."""
    return tasaki_average(beta, beta, h_initial, h_final, u)


def log_jarzynski_average(
    beta: float,
    h_initial: Measured,
    h_final: Measured,
    u: UnitaryOperator,
) -> float:
    """ln <exp(-beta W)>; stays finite where the plain average overflows."""
    return log_tasaki_average(beta, beta, h_initial, h_final, u)


def tasaki_average(
    beta_initial: float,
    beta_final: float,
    h_initial: Measured,
    h_final: Measured,
    u: UnitaryOperator,
) -> float:
    """<exp(-(beta_f E_f - beta_i E_i))>, the cross-temperature work average."""
    return float(
        np.exp(log_tasaki_average(beta_initial, beta_final, h_initial, h_final, u))
    )


def log_tasaki_average(
    beta_initial: float,
    beta_final: float,
    h_initial: Measured,
    h_final: Measured,
    u: UnitaryOperator,
) -> float:
    """ln <exp(-(beta_f E_f - beta_i E_i))> over the measurement distribution."""
    if beta_initial <= 0 or beta_final <= 0:
        raise ValueError("inverse temperatures must be positive")
    tm = transition_matrix(h_initial, h_final, u)
    return _log_generalized_average(beta_initial, beta_final, tm)


def relative_entropy_via_work(
    initial: ThermalSpec, final: ThermalSpec, u: UnitaryOperator
) -> float:
    """S(thermal(final) || thermal(initial)) from work statistics alone:

        S = -tr[rho_f (beta_f H_f - beta_i H_i)] - ln <exp(-(beta_f E_f - beta_i E_i))>

    The average is protocol independent, so any unitary (identity included)
    gives the same value; passing the actual protocol unitary exercises the
    full two-point-measurement pipeline.
    """
    if initial.hamiltonian.register != final.hamiltonian.register:
        raise ValueError("thermal specs must live on the same register")
    if initial.hamiltonian.register != u.register:
        raise ValueError("unitary must act on the same register as the Hamiltonians")
    tm = _transition_from_spectra(initial.spectrum, final.spectrum, u)
    log_average = _log_generalized_average(initial.beta, final.beta, tm)

    final_spectrum = final.spectrum
    shifted = -final.beta * (final_spectrum.eigenvalues - final_spectrum.eigenvalues[0])
    weights = np.exp(shifted)
    weights /= weights.sum()
    final_energy = float(np.dot(weights, final_spectrum.eigenvalues))
    rho_entries = (final_spectrum.eigenvectors * weights) @ final_spectrum.eigenvectors.conj().T
    initial_energy = float(
        np.einsum("ij,ji->", rho_entries, initial.hamiltonian.entries).real
    )
    weighted = final.beta * final_energy - initial.beta * initial_energy
    return -weighted - log_average


@dataclass(frozen=True)
class WorkDistribution:
    """Exact two-point work distribution over all (n, m) eigenpairs."""

    beta_initial: float
    beta_final: float
    n_index: np.ndarray
    m_index: np.ndarray
    energy_initial: np.ndarray
    energy_final: np.ndarray
    probability: np.ndarray

    def __post_init__(self) -> None:
        total = float(self.probability.sum())
        if abs(total - 1.0) > STOCHASTICITY_ATOL:
            raise NumericalCheckError(
                f"work distribution probabilities sum to {total!r}, not 1"
            )
        if float(self.probability.min()) < -STOCHASTICITY_ATOL:
            raise NumericalCheckError("work distribution has negative probabilities")
        for name in ("n_index", "m_index", "energy_initial", "energy_final", "probability"):
            getattr(self, name).setflags(write=False)

    @property
    def work(self) -> np.ndarray:
        return self.energy_final - self.energy_initial

    @property
    def generalized_exponent(self) -> np.ndarray:
        return self.beta_final * self.energy_final - self.beta_initial * self.energy_initial

    def mean_work(self) -> float:
        return float(np.dot(self.probability, self.work))

    def log_exponential_average(self) -> float:
        """ln <exp(-(beta_f E_f - beta_i E_i))>, evaluated in log space."""
        mask = self.probability > 0
        return float(
            logsumexp(np.log(self.probability[mask]) - self.generalized_exponent[mask])
        )


def work_distribution(
    initial: ThermalSpec, final: ThermalSpec, u: UnitaryOperator
) -> WorkDistribution:
    """All dim^2 transition outcomes with probabilities p_n q[m, n]."""
    tm = _transition_from_spectra(initial.spectrum, final.spectrum, u)
    e_initial = tm.initial.eigenvalues
    e_final = tm.final.eigenvalues
    shifted = -initial.beta * (e_initial - e_initial[0])
    gibbs = np.exp(shifted)
    gibbs /= gibbs.sum()
    dim = tm.dim
    m_grid, n_grid = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    probability = (tm.q * gibbs[None, :]).reshape(-1)
    return WorkDistribution(
        beta_initial=initial.beta,
        beta_final=final.beta,
        n_index=n_grid.reshape(-1).copy(),
        m_index=m_grid.reshape(-1).copy(),
        energy_initial=e_initial[n_grid.reshape(-1)],
        energy_final=e_final[m_grid.reshape(-1)],
        probability=probability,
    )


@dataclass(frozen=True)
class TrajectoryBatch:
    """Column-wise storage for a batch of sampled trajectories; the fields
    are the columns of ``trajectories.csv``, in order."""

    n_index: np.ndarray
    m_index: np.ndarray
    energy_initial: np.ndarray
    energy_final: np.ndarray
    work: np.ndarray
    generalized_exponent: np.ndarray

    def __len__(self) -> int:
        return int(self.n_index.size)


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo estimate of the exponential work average.

    ``stderr`` and ``z_score`` are None for single-sample batches, where the
    sample variance is undefined.
    """

    mean: float
    stderr: float | None
    exact: float
    z_score: float | None
    count: int


def _sample_block(payload: tuple) -> tuple[np.ndarray, np.ndarray]:
    (seed, block_index, size, cum_initial, cum_q) = payload
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    rng = np.random.Generator(np.random.Philox(seq))
    dim = cum_initial.size
    u_first = rng.random(size)
    n_idx = np.minimum(np.searchsorted(cum_initial, u_first, side="right"), dim - 1)
    u_second = rng.random(size)
    # one binary search per distinct first index, so memory stays O(size)
    m_idx = np.empty(size, dtype=np.int64)
    for column in np.unique(n_idx):
        chosen = n_idx == column
        m_idx[chosen] = np.searchsorted(cum_q[:, column], u_second[chosen], side="right")
    return n_idx.astype(np.int64), np.minimum(m_idx, dim - 1)


def sample_tpm(
    initial: ThermalSpec,
    final: ThermalSpec,
    u: UnitaryOperator,
    count: int,
    seed: int,
    workers: int = 1,
) -> tuple[TrajectoryBatch, EstimatorSummary]:
    """Sample two-point-measurement trajectories and estimate the average.

    The first index is drawn from the initial Gibbs weights, the second from
    the matching transition-matrix column.  ``count`` is partitioned into
    fixed 16384-sample blocks, each with its own counter-based stream derived
    from (seed, block index), so results are byte-identical for any worker
    count.  The estimator is standardized against the exact partition ratio,
    keeping steep protocols inside double range.
    """
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")

    tm = _transition_from_spectra(initial.spectrum, final.spectrum, u)
    e_initial = tm.initial.eigenvalues
    e_final = tm.final.eigenvalues
    gibbs = np.exp(-initial.beta * (e_initial - e_initial[0]))
    gibbs /= gibbs.sum()
    cum_initial = np.cumsum(gibbs)
    cum_initial[-1] = 1.0
    cum_q = np.cumsum(tm.q, axis=0)
    cum_q[-1, :] = 1.0

    sizes = [SAMPLE_BLOCK] * (count // SAMPLE_BLOCK)
    if count % SAMPLE_BLOCK:
        sizes.append(count % SAMPLE_BLOCK)
    payloads = [(seed, i, size, cum_initial, cum_q) for i, size in enumerate(sizes)]
    if workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            drawn = list(pool.map(_sample_block, payloads))
    else:
        drawn = [_sample_block(p) for p in payloads]

    n_idx = np.concatenate([d[0] for d in drawn])
    m_idx = np.concatenate([d[1] for d in drawn])
    sampled_initial = e_initial[n_idx]
    sampled_final = e_final[m_idx]
    exponent = final.beta * sampled_final - initial.beta * sampled_initial

    log_exact = final.log_partition - initial.log_partition
    standardized = np.exp(-exponent - log_exact)
    exact = float(np.exp(log_exact))
    mean_ratio = float(standardized.mean())
    if count > 1:
        se_ratio = float(standardized.std(ddof=1) / math.sqrt(count))
        if se_ratio == 0.0:
            z: float | None = 0.0 if abs(mean_ratio - 1.0) < 1e-12 else math.copysign(
                math.inf, mean_ratio - 1.0
            )
        else:
            z = (mean_ratio - 1.0) / se_ratio
        stderr: float | None = se_ratio * exact
    else:
        stderr = None
        z = None

    batch = TrajectoryBatch(
        n_index=n_idx,
        m_index=m_idx,
        energy_initial=sampled_initial,
        energy_final=sampled_final,
        work=sampled_final - sampled_initial,
        generalized_exponent=exponent,
    )
    summary = EstimatorSummary(
        mean=mean_ratio * exact, stderr=stderr, exact=exact, z_score=z, count=count
    )
    return batch, summary
