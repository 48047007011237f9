"""Two-point-measurement work statistics for driven chains.

A protocol measures the initial Hamiltonian's eigenbasis, evolves with a
unitary U, and measures the final eigenbasis.  The transition probabilities
q[m, n] = |<final_m| U |initial_n>|^2 form a doubly stochastic matrix, which
is what makes the exponential work averages collapse to partition-function
ratios for *any* unitary:

    <exp(-beta W)>                      = Z_f / Z_i            (equal beta)
    <exp(-(beta_f E_f - beta_i E_i))>   = Z_f(beta_f)/Z_i(beta_i)

Every average is evaluated per-term in log space, with ``thermo.logsumexp``,
so that steep protocols (beta ~ 100) never leave double range.

Driven protocols, closed and open, share one Trotter routine,
``ordered_product``, over a Hamiltonian given as dense fixed pieces and a
table of slice coefficients; the closed chain's pieces are the cached
``spin_models.xxz_pieces``.  The product runs on the ``sector_stacks`` of
the pieces.  Consecutive slices that differ only by a multiple of the
identity on each block share one spectrum, so it diagonalizes once per run
of such slices, and a chunk of runs in one batched call: a ramp of the field
alone costs one eigendecomposition per stack of equal-size sectors, whatever
the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError
from .operators import (
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    check_unitary,
    checked_eigh,
    evolution_operator,
    sector_stacks,
    spectral_decompose,
)
from .spin_models import (
    DrivingSchedule,
    XXZParams,
    build_xxz,
    params_at,
    ramp_values,
    xxz_matrix,
    xxz_pieces,
)
from .thermo import ThermalSpec, logsumexp

STOCHASTICITY_ATOL = 1e-10
COMMUTATION_ATOL = 1e-9
# exact_evolution compares the Hamiltonians at this many slice starts (and t_f).
COMMUTATION_SAMPLES = 5
SAMPLE_BLOCK = 16384
# ordered_product diagonalizes up to STEP_CHUNK runs of equal slices per group
# in one batched call, and at most CHUNK_ENTRIES matrix entries at a time.
STEP_CHUNK = 32
CHUNK_ENTRIES = 1 << 18
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


def exact_evolution(schedule: DrivingSchedule) -> UnitaryOperator:
    """U = exp(-i integral H(s) ds) for schedules whose Hamiltonians commute.

    Commutation is checked numerically on the ``sector_stacks`` of the
    Hamiltonians sampled at COMMUTATION_SAMPLES slice starts spread over the
    schedule plus t_f itself, so H(0) is always compared with H(t_f);
    schedules that fail the check must use trotter_evolution instead.  The
    time integral is done on the interpolated parameters (trapezoid, exact
    for linear ramps).
    """
    sampled_steps = sorted(
        {int(round(i * (schedule.steps - 1) / (COMMUTATION_SAMPLES - 1)))
         for i in range(COMMUTATION_SAMPLES)}
    )
    sampled_times = [s * schedule.dt for s in sampled_steps] + [schedule.t_f]
    pieces = xxz_pieces(schedule.n, schedule.initial.boundary)
    sampled = sector_stacks(np.stack([xxz_matrix(params_at(schedule, t), *pieces) for t in sampled_times]))
    worst = 0.0
    # block diagonal Hamiltonians have block diagonal commutators
    for _, blocks in sampled:
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                commutator = blocks[i] @ blocks[j] - blocks[j] @ blocks[i]
                worst = max(worst, float(np.abs(commutator).max()))
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
    times = np.minimum((np.arange(schedule.steps) + offset) * schedule.dt, schedule.t_f)
    J, Jz, B = ramp_values(schedule, times)
    return np.column_stack([J, Jz, -B])


def ordered_product(
    register: QubitRegister,
    pieces: np.ndarray,
    coefficients: np.ndarray,
    dt: float,
) -> UnitaryOperator:
    """Ordered product of slice propagators exp(-i H_k dt), step 0 applied
    first, for the affine Hamiltonian H_k = sum_j c[k, j] P_j.

    ``pieces`` are the dense P_j, shape (p, dim, dim), and ``coefficients``
    is c, shape (steps, p).  The blocks are the ``sector_stacks`` of the
    pieces: the S^z sectors when no piece has an entry between two of them,
    otherwise the whole register.  Each stack of equal-size blocks (pieces
    (p, k, s, s)) carries its own product, which is written into the dense
    unitary when the stack is done.

    Per stack, a piece that is exactly alpha_b I on every block b (S_z on a
    sector, any piece on a 1 x 1 block) only shifts each block's energies.
    The steps are cut into runs of consecutive steps whose coefficients of
    the other pieces are exactly equal; the slices of a run then share the
    eigenvectors V of the run Hamiltonian R (the non-scalar pieces), so their
    factors commute and the run's product is V diag(exp(-i dt (L E + sum of
    the run's shifts))) V^dag for a run of L steps, with R = V diag(E) V^dag.
    A schedule that changes every coefficient at every step has runs of one
    step.  The runs go in chunks of at most STEP_CHUNK: per stack and chunk,
    the run Hamiltonians are stacked (chunk, k, s, s), one batched
    ``checked_eigh`` diagonalizes them and one ``check_unitary`` checks every
    run factor, and the factors then multiply into the stack's product in
    order.  Chunks are shorter where the largest stack would pass
    CHUNK_ENTRIES entries (one run per chunk for the 924-state sectors of
    n = 12).  Each factor is built spectrally and is therefore exactly
    unitary, which keeps ||U^dag U - I|| at roundoff level for any step
    count.  Real pieces give real eigenvectors.
    """
    stacks = sector_stacks(pieces)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    largest = max(blocks[0].size for _, blocks in stacks)
    chunk = max(1, min(STEP_CHUNK, CHUNK_ENTRIES // largest))
    total = np.zeros((register.dim, register.dim), dtype=np.complex128)
    for indices, blocks in stacks:
        # alpha[j, b]: piece j is alpha[j, b] I on block b, where it is scalar
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
        # per run and block, the summed energy shift of the scalar pieces
        shifts = np.add.reduceat(coefficients[:, scalar] @ alpha[scalar], starts, axis=0)
        product = np.tile(np.eye(indices.shape[1], dtype=np.complex128), (indices.shape[0], 1, 1))
        for first in range(0, len(starts), chunk):
            runs = slice(first, first + chunk)
            h = np.tensordot(varying[starts[runs]], varying_blocks, axes=1)
            energies, vectors = checked_eigh(h)
            phases = np.exp(
                -1j * dt * (lengths[runs, None, None] * energies + shifts[runs, :, None])
            )[..., None, :]
            factors = (vectors * phases) @ vectors.conj().swapaxes(-1, -2)
            check_unitary(factors)
            for factor in factors:
                product = factor @ product
        for block_indices, block in zip(indices, product):
            total[np.ix_(block_indices, block_indices)] = block
    return UnitaryOperator(register, total)


def trotter_evolution(schedule: DrivingSchedule, sampling: str = "left") -> UnitaryOperator:
    """Ordered product of per-slice propagators, step 0 applied first.

    ``sampling`` picks H at the left endpoint of each slice (first-order
    accurate, the default) or at the midpoint (second order).  The cached
    pieces (H_xy, H_zz, S_z) of ``xxz_pieces`` and the coefficients
    (J, Jz, -B) go to ``ordered_product``, where slices that differ only in B
    share one spectrum: a field ramp at fixed J and Jz (the standard
    seven-qubit protocol) costs the same for any step count.
    """
    hopping, zz, magnetization = xxz_pieces(schedule.n, schedule.initial.boundary)
    pieces = np.stack([hopping, np.diag(zz), np.diag(magnetization)])
    coefficients = schedule_coefficients(schedule, sampling)
    return ordered_product(QubitRegister(schedule.n), pieces, coefficients, schedule.dt)


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


def log_jarzynski_average(
    beta: float,
    h_initial: Measured,
    h_final: Measured,
    u: UnitaryOperator,
) -> float:
    """ln <exp(-beta W)>; stays finite where the plain average overflows."""
    return log_tasaki_average(beta, beta, h_initial, h_final, u)


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
    weights = final.weights
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
    dim = tm.dim
    m_grid, n_grid = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    probability = (tm.q * initial.weights[None, :]).reshape(-1)
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


def _map_tasks(function, tasks: list, workers: int, initializer=None, initargs=()) -> list:
    """[function(task) for task in tasks], spread over at most ``workers``
    processes.

    The pool gets min(workers, len(tasks)) processes: a forking pool starts
    all of its processes at the first submit, so a larger count would only
    fork idle ones.  With one process the tasks run here, after
    ``initializer(*initargs)``.  Results come back in task order.
    """
    processes = min(workers, len(tasks))
    if processes <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [function(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (processes * 8))
    with ProcessPoolExecutor(
        max_workers=processes, initializer=initializer, initargs=initargs
    ) as pool:
        return list(pool.map(function, tasks, chunksize=chunk))


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
    cum_initial = np.cumsum(initial.weights)
    cum_initial[-1] = 1.0
    cum_q = np.cumsum(tm.q, axis=0)
    cum_q[-1, :] = 1.0

    sizes = [SAMPLE_BLOCK] * (count // SAMPLE_BLOCK)
    if count % SAMPLE_BLOCK:
        sizes.append(count % SAMPLE_BLOCK)
    payloads = [(seed, i, size, cum_initial, cum_q) for i, size in enumerate(sizes)]
    drawn = _map_tasks(_sample_block, payloads, workers)

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
