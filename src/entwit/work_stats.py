"""Two-point-measurement work statistics for driven chains.

A protocol measures the initial Hamiltonian's eigenbasis, evolves with a
unitary U, and measures the final eigenbasis.  The transition probabilities
q[m, n] = |<final_m| U |initial_n>|^2 form a doubly stochastic matrix, which
is what makes the exponential work averages collapse to partition-function
ratios for *any* unitary:

    <exp(-beta W)>                      = Z_f / Z_i            (equal beta)
    <exp(-(beta_f E_f - beta_i E_i))>   = Z_f(beta_f)/Z_i(beta_i)

Both spectra keep their S^z blocks, and U stores only its blocks
(``UnitaryOperator.stacks``).  q is formed per S^z sector when all three are
split into them, so q vanishes between sectors.  When any of them mixes
sectors (a Haar unitary, say), q is one whole-register block, made from U on
the whole register (its one stored block, for such a U) and each block of
the two spectra's eigenvectors: no merged eigenvector matrix is built.  An
undriven protocol (a sudden quench: the witness's rho_star leg, every
via-work sweep plane) passes no U at all, and q = |V_f^dag V_i|^2 is formed
on the blocks the two spectra share, or on the whole register with the
identity in U's place when their blocks differ.
``TransitionMatrix`` holds and checks the blocks.  A caller measures each
drive once, by ``transition_matrix`` on the two spectra, and every reader
takes that one matrix and the two inverse temperatures: ``log_work_average``,
``work_distribution`` and ``sample_tpm``, whose Gibbs weights and ln Z are
``thermo``'s one rule.  ``relative_entropy_via_work`` takes Gibbs specs and
refuses a matrix measured between other spectra.

The average sums over final levels first, per initial level n in log space,
then over n (``_log_final_sums``, ``_log_work_sum``), so steep protocols
(beta ~ 100) never leave double range, and a sweep reuses the first sum at
every (B, T).  The work route's relative entropy adds the energy term
``thermo.weighted_energy``, which the Gibbs identity shares.

Every propagator of the package, closed or open, comes from one routine,
``ordered_product``: the ordered product of the slice propagators of a
Hamiltonian given as the piece stacks of its pieces and a table of slice
coefficients, kept per S^z stack as the unitary's blocks.
``trotter_evolution`` hands it the cached ``spin_models.xxz_pieces``, and
``exact_evolution`` is one midpoint slice.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError
from .operators import (
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    check_partition,
    check_unitary,
    checked_eigh,
    restrict,
)
from .spin_models import DrivingSchedule, build_xxz, ramp_values, xxz_pieces
from .thermo import ThermalSpec, gibbs_log_partition, gibbs_weights, log_gibbs_weights, logsumexp
from .thermo import weighted_energy

STOCHASTICITY_ATOL = 1e-10
COMMUTATION_ATOL = 1e-9
SAMPLE_BLOCK = 16384
# Peak bytes per draw of ``entwit sample`` (the int16 level pairs and the
# standardized ratio, 12 B, and one block's temporaries): the tracemalloc
# peak of cli.main read 16.1-20.6 B per draw at 2e5 and 12.8-13.2 B at 1e6
# draws of the three- and seven-qubit protocols, plus a quarter.
TRAJECTORY_BYTES = 26
# ordered_product exponentiates up to STEP_CHUNK runs of equal slices per group
# in one batched call, and at most CHUNK_ENTRIES matrix entries at a time.
STEP_CHUNK = 32
CHUNK_ENTRIES = 1 << 18
# A chunk whose run exponents tau R all have 1-norm at most TAYLOR_THETA goes
# through a Taylor polynomial of degree at most TAYLOR_DEGREE: the largest
# theta at which the first dropped term theta^(m+1)/(m+1)! stays below the
# unit roundoff 2^-53 at m = TAYLOR_DEGREE (about 0.070).
TAYLOR_DEGREE = 8
TAYLOR_THETA = (math.factorial(TAYLOR_DEGREE + 1) * 2.0**-53) ** (1 / (TAYLOR_DEGREE + 1))
# Where trotter_evolution samples H in each slice.
SAMPLING_RULES = ("left", "midpoint")


@dataclass(frozen=True)
class TransitionMatrix:
    """q[m, n] = |<final_m|U|initial_n>|^2 on its diagonal blocks, plus the
    two spectra behind it.

    ``stacks`` holds one (rows, columns, q) triple per stack of k blocks of s
    levels: the final levels m (k, s), the initial levels n (k, s), and q
    restricted to them (k, s, s).  q is 0 between blocks, so the
    stochasticity check and every reader work on the blocks alone.
    """

    stacks: tuple
    initial: SpectralDecomposition
    final: SpectralDecomposition

    def __post_init__(self) -> None:
        stacks = tuple((rows, columns, np.asarray(q, dtype=np.float64)) for rows, columns, q in self.stacks)
        dim = self.initial.dim
        if self.final.dim != dim:
            raise ValueError("transition matrix needs two spectra on one register")
        for rows, columns, q in stacks:
            if columns.shape != rows.shape or q.shape != rows.shape + rows.shape[-1:]:
                raise ValueError("each stack needs (k, s) rows and columns and (k, s, s) q")
        message = "transition blocks must hold every level of both spectra once"
        for part in (0, 1):
            check_partition([stack[part] for stack in stacks], dim, message)
        if min(float(q.min()) for _, _, q in stacks) < -STOCHASTICITY_ATOL:
            raise NumericalCheckError("transition probabilities must be non-negative")
        for _, _, q in stacks:
            q.setflags(write=False)
        object.__setattr__(self, "stacks", stacks)
        row_dev = float(np.abs(self.row_sums - 1.0).max())
        col_dev = float(np.abs(self.column_sums - 1.0).max())
        if max(row_dev, col_dev) > STOCHASTICITY_ATOL:
            raise NumericalCheckError(
                f"transition matrix is not doubly stochastic: row deviation "
                f"{row_dev:.3e}, column deviation {col_dev:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def row_sums(self) -> np.ndarray:
        """sum_n q[m, n] for every final level m."""
        sums = np.empty(self.dim)
        for rows, _, q in self.stacks:
            sums[rows] = q.sum(axis=-1)
        return sums

    @property
    def column_sums(self) -> np.ndarray:
        """sum_m q[m, n] for every initial level n."""
        sums = np.empty(self.dim)
        for _, columns, q in self.stacks:
            sums[columns] = q.sum(axis=-2)
        return sums


def _same_blocks(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))


def _transition_from_spectra(
    initial: SpectralDecomposition,
    final: SpectralDecomposition,
    u: UnitaryOperator | None,
) -> TransitionMatrix:
    """q from V_f,b^dag U_bb V_i,b on every block b when both spectra and U
    share their blocks (the S^z sectors), or from V_f,b^dag V_i,b with no U.
    Otherwise (a Haar unitary, say) q is one whole-register block, levels in
    order: U's column panels (the identity's, with no U) on each block of the
    initial spectrum times its eigenvectors give U V_i, and each block of
    V_f^dag times U V_i's row panels gives q's rows of its levels."""
    blocks = initial.stacks if u is None else u.stacks
    if _same_blocks(initial.stacks, blocks) and _same_blocks(final.stacks, blocks):
        stacks = []
        for (_, columns, v_initial), (_, rows, v_final), stack in zip(initial.stacks, final.stacks, blocks):
            bra = v_final.conj().swapaxes(-1, -2)
            # stack is U's (indices, blocks); with no U, V_f^dag is copied to
            # the contiguous array that V_f^dag I is, so q is the identity's
            # to the bit (BLAS may sum a transposed operand in another order)
            bra = np.ascontiguousarray(bra) if u is None else bra @ stack[1]
            stacks.append((rows, columns, np.abs(bra @ v_initial) ** 2))
        return TransitionMatrix(tuple(stacks), initial, final)
    dim = initial.dim
    everything = np.arange(dim)[None, :]
    u_whole = np.eye(dim) if u is None else restrict(u.stacks, everything)[0]
    u_v = np.empty((dim, dim), np.result_type(u_whole, *(v for _, _, v in initial.stacks)))
    for indices, levels, v in initial.stacks:
        u_v[:, levels] = (u_whole[:, indices].transpose(1, 0, 2) @ v).transpose(1, 0, 2)
    q = np.empty((dim, dim))
    for indices, levels, v in final.stacks:
        q[levels] = np.abs(v.conj().swapaxes(-1, -2) @ u_v[indices]) ** 2
    return TransitionMatrix(((everything, everything, q[None]),), initial, final)


def transition_matrix(
    initial: SpectralDecomposition, final: SpectralDecomposition, u: UnitaryOperator | None
) -> TransitionMatrix:
    """Transition probabilities between the two measured eigenbases under U,
    or of an undriven protocol (a sudden quench) when ``u`` is None.
    Every work-statistics reader below takes this one matrix, so a caller
    measures each drive once and reads it as often as it likes."""
    if not all(isinstance(s, SpectralDecomposition) for s in (initial, final)):
        raise TypeError("transition_matrix takes two SpectralDecompositions; decompose a Hamiltonian first")
    dim = initial.dim if u is None else u.register.dim
    if initial.dim != dim or final.dim != dim:
        raise ValueError("spectra and unitary must share one register")
    return _transition_from_spectra(initial, final, u)


def _check_betas(*betas) -> None:
    """Raise ValueError unless every beta (or array of them) is positive and finite."""
    if not all(np.all((np.asarray(beta) > 0) & np.isfinite(beta)) for beta in betas):
        raise ValueError("inverse temperatures must be positive")


def exact_evolution(schedule: DrivingSchedule) -> UnitaryOperator:
    """U = exp(-i integral H(s) ds) for schedules whose Hamiltonians commute.

    A linear ramp has H(t) = H_i + (t / t_f)(H_f - H_i), so
    [H(s), H(t)] = ((t - s) / t_f) [H_i, H_f]: all of them commute exactly
    when the endpoints do, and the endpoints' commutator is the largest.  It
    is checked numerically, one commutator per stored block of H_i and H_f;
    schedules that fail the check must use trotter_evolution instead.  U is
    then one midpoint slice of ``trotter_evolution``: exp(-i t_f H(t_f / 2)),
    where H(t_f / 2) is the time average of the ramp, so the one slice is
    exact.
    """
    initial, final = (build_xxz(params).stacks for params in (schedule.initial, schedule.final))
    # block diagonal Hamiltonians have block diagonal commutators
    worst = max(float(np.abs(h @ restrict(final, i) - restrict(final, i) @ h).max()) for i, h in initial)
    del initial, final  # freed before the product
    if worst > COMMUTATION_ATOL:
        raise NumericalCheckError(
            f"schedule Hamiltonians do not commute (max commutator entry {worst:.3e} "
            f"> {COMMUTATION_ATOL:.0e}); use trotter_evolution for this protocol"
        )
    return trotter_evolution(dataclasses.replace(schedule, steps=1), "midpoint")


def schedule_coefficients(schedule: DrivingSchedule, sampling: str = "left") -> np.ndarray:
    """(J, Jz, -B) of every slice, shape (steps, 3): the coefficients of
    H = J H_xy + Jz H_zz - B S_z where ``sampling`` picks H in each slice."""
    if sampling not in SAMPLING_RULES:
        raise ValueError(f"sampling must be 'left' or 'midpoint', got {sampling!r}")
    offset = 0.0 if sampling == "left" else 0.5
    times = np.minimum((np.arange(schedule.steps) + offset) * schedule.dt, schedule.t_f)
    J, Jz, B = ramp_values(schedule, times)
    return np.column_stack([J, Jz, -B])


class _Workspace:
    """Named arrays of one shape, each made on its first request and handed
    out again at every later one, so the chunks of one sector stack compute
    into the same memory: fresh temporaries per chunk made glibc trim the
    heap after every chunk and grow it again.  A request for ``count``
    entries returns the first ``count`` along axis 0, a contiguous view."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, count: int, dtype=np.float64) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = np.empty(self.shape, dtype)
        return array[:count]


def _horner(
    y: np.ndarray, coefficients: Sequence[float], total: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """c_0 I + c_1 y + ... + c_p y^p for a stack y (..., s, s), by Horner's
    rule; the innermost step c_(p-1) I + c_p y takes no product.  The
    accumulators ``total`` and ``spare`` take turns; returns the one holding
    the result, then the other."""
    identity = np.eye(y.shape[-1])
    if len(coefficients) == 1:
        total[...] = coefficients[0] * identity
        return total, spare
    np.multiply(coefficients[-1], y, out=total)
    total += coefficients[-2] * identity
    for c in reversed(coefficients[:-2]):
        np.matmul(y, total, out=spare)
        spare += c * identity
        total, spare = spare, total
    return total, spare


def taylor_exp(x: np.ndarray, degree: int, work: _Workspace | None = None) -> np.ndarray:
    """exp(-i x) to ``degree`` in x, for a stack of Hermitian blocks
    x (..., s, s): cos x - i sin x, where cos x and (sin x) / x are
    polynomials in y = x^2 run by Horner's rule, so real blocks take real
    products only.  Every array is taken from ``work`` (a new workspace when
    none is given), the complex result included."""
    if work is None:
        work = _Workspace(x.shape)
    count = len(x)
    y = np.matmul(x, x, out=work.take("y", count, x.dtype))
    total, spare = work.take("total", count, x.dtype), work.take("spare", count, x.dtype)
    sine = [(-1) ** j / math.factorial(2 * j + 1) for j in range((degree + 1) // 2)]
    cosine = [(-1) ** j / math.factorial(2 * j) for j in range(degree // 2 + 1)]
    # the sine first: both accumulators are free again once -i sin x is out
    odd, spare = _horner(y, sine, total, spare)
    sin = np.matmul(x, odd, out=spare)
    factors = np.multiply(1j, sin, out=work.take("factors", count, np.complex128))
    cos, _ = _horner(y, cosine, odd, spare)
    return np.subtract(cos, factors, out=factors)


def _taylor_degree(theta: float) -> int:
    """The smallest degree m whose first dropped term theta^(m+1)/(m+1)! is
    at most 2^-53, and TAYLOR_DEGREE at most."""
    return next(
        (m for m in range(1, TAYLOR_DEGREE) if theta ** (m + 1) <= math.factorial(m + 1) * 2.0**-53),
        TAYLOR_DEGREE,
    )


def _run_factors(
    rows: np.ndarray, pieces: np.ndarray, lengths: np.ndarray, shifts: np.ndarray, dt: float, work: _Workspace
) -> np.ndarray:
    """exp(-i dt (L R + shift)) for the run Hamiltonians R of one chunk,
    stacked (runs, k, s, s): each is a row of ``rows`` (runs, p) times the
    flattened ``pieces`` (p, k s s), with run lengths L (runs,) and
    per-block energy shifts (runs, k), from the kernel that
    theta = max ||dt L R||_1 picks.  R and the Taylor kernel's arrays come
    from ``work``; the spectral kernel makes its own."""
    count = len(rows)
    h = work.take("h", count, np.result_type(rows, pieces))
    np.dot(rows, pieces, out=h.reshape(count, -1))
    durations = dt * lengths
    norms = np.abs(h, out=work.take("norms", count))
    theta = float(np.max(durations * norms.sum(axis=-2).max(axis=(-2, -1))))
    if theta <= TAYLOR_THETA:
        phases = np.exp(-1j * dt * shifts)[..., None, None]
        x = np.multiply(durations[:, None, None, None], h, out=work.take("x", count, h.dtype))
        factors = taylor_exp(x, _taylor_degree(theta), work)
        return np.multiply(factors, phases, out=factors)
    # a non-finite theta lands here too, and checked_eigh raises on it
    energies, vectors = checked_eigh(h)
    phases = np.exp(-1j * dt * (lengths[:, None, None] * energies + shifts[:, :, None]))[..., None, :]
    return (vectors * phases) @ vectors.conj().swapaxes(-1, -2)


def ordered_product(
    register: QubitRegister,
    stacks: Sequence[tuple[np.ndarray, np.ndarray]],
    coefficients: np.ndarray,
    dt: float,
) -> UnitaryOperator:
    """Ordered product of slice propagators exp(-i H_k dt), step 0 applied
    first, for the affine Hamiltonian H_k = sum_j c[k, j] P_j.

    ``stacks`` are the piece stacks of the P_j (``operators.combine``): per
    stack of k equal-size blocks, the basis indices (k, s) and every piece
    on them (p, k, s, s); the S^z sectors when the pieces conserve S^z, else the
    whole register.  ``coefficients`` is c, shape (steps, p).  Each stack
    carries its own product; the products are the blocks of the unitary.

    Per stack, a piece that is exactly alpha_b I on every block b (S_z on a
    sector, any piece on a 1 x 1 block) only shifts each block's energies.
    The steps are cut into runs of consecutive steps whose coefficients of
    the other pieces are exactly equal; the slices of a run commute, so a
    run of L steps contributes exp(-i tau R) times the phase
    exp(-i dt (sum of the run's shifts)), with tau = L dt and R the run
    Hamiltonian (the non-scalar pieces).  A schedule that changes every
    coefficient at every step has runs of one step.  The runs go in chunks
    of at most STEP_CHUNK, shorter where the largest stack would pass
    CHUNK_ENTRIES entries (one run per chunk for the 924-state sectors of
    n = 12).  Per stack and chunk, the run Hamiltonians are stacked
    (chunk, k, s, s) and exponentiated by one batched call of one of two
    kernels, picked by theta, the largest ||tau R||_1 of the chunk:

    - theta <= TAYLOR_THETA (about 0.070): ``taylor_exp``, the Taylor
      polynomial of the smallest degree m <= TAYLOR_DEGREE whose first
      dropped term theta^(m+1)/(m+1)! is at most 2^-53, so the factor is
      exact to roundoff.  Short slices of a schedule that changes at every
      step land here (the three-qubit protocol in 1000 steps: theta about
      0.006, degree 5), at a few matrix products instead of an ``eigh``.
    - otherwise, a non-finite theta included: the spectral kernel.  One
      batched ``checked_eigh`` gives R = V diag(E) V^dag, and the factor is
      V diag(exp(-i dt (L E + shift))) V^dag.  It stays for long runs of
      equal slices (a field ramp shares one spectrum for any step count),
      where a polynomial would need scaling and squaring, and the eigensolver
      check raises on a non-finite R.

    One ``check_unitary`` checks every run factor of the chunk, whichever
    kernel built it, and the factors then multiply into the stack's product
    in order.  Both kernels keep ||U^dag U - I|| at roundoff level for any
    step count; ``UnitaryOperator`` checks the products again, per block,
    and keeps them as its blocks.  Real pieces give real eigenvectors and
    real polynomial products.

    Per stack, the run Hamiltonians, their magnitudes for theta, the Taylor
    kernel's arrays, the check's U^* and Gram matrix and a pair of products
    that take turns are made once, in a ``_Workspace`` with room for
    min(chunk, runs) runs, and every chunk computes into them with ``out=``
    in the operations and order of fresh temporaries, so the unitary is the
    same to the bit.  The workspace goes when its stack is done, so the
    next stack allocates after it is freed.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    largest = max(blocks[0].size for _, blocks in stacks)
    chunk = max(1, min(STEP_CHUNK, CHUNK_ENTRIES // largest))
    products = []
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
        # each run's R is one row of varying times these (p', k s s) pieces
        flat = varying_blocks.reshape(len(varying_blocks), blocks[0].size)
        work = _Workspace((min(chunk, len(starts)), *blocks.shape[1:]))
        product = np.tile(np.eye(indices.shape[1], dtype=np.complex128), (indices.shape[0], 1, 1))
        spare = np.empty_like(product)
        for first in range(0, len(starts), chunk):
            runs = slice(first, first + chunk)
            factors = _run_factors(varying[starts[runs]], flat, lengths[runs], shifts[runs], dt, work)
            scratch = (work.take(name, len(factors), np.complex128) for name in ("adjoint", "gram"))
            check_unitary(factors, tuple(scratch))
            for factor in factors:
                np.matmul(factor, product, out=spare)
                product, spare = spare, product
        products.append((indices, product))
        # the views keep the workspace alive: drop them before the next stack
        del work, spare, factors, factor
    return UnitaryOperator(register, products)


def trotter_evolution(schedule: DrivingSchedule, sampling: str = "left") -> UnitaryOperator:
    """Ordered product of per-slice propagators, step 0 applied first.

    ``sampling`` picks H at the left endpoint of each slice (first-order
    accurate, the default) or at the midpoint (second order).  The cached
    piece stacks of ``xxz_pieces`` (H_xy, H_zz and S_z on each S^z sector)
    and the coefficients (J, Jz, -B) go to ``ordered_product``, where slices
    that differ only in B form one run: a field ramp at fixed J and Jz (the
    standard seven-qubit protocol) takes one spectrum per sector stack for
    any step count.
    """
    stacks = xxz_pieces(schedule.n, schedule.initial.boundary)
    coefficients = schedule_coefficients(schedule, sampling)
    return ordered_product(QubitRegister(schedule.n), stacks, coefficients, schedule.dt)


def _log_final_sums(tm: TransitionMatrix, beta_final: float) -> tuple[np.ndarray, float]:
    """ln r~_n = ln sum_m q[m, n] exp(-beta_f (E_m - E_0^f)) for every initial
    level n, from the blocks of q (q = 0 drops out), and the shift beta_f E_0^f."""
    _check_betas(beta_final)
    e_final = tm.final.eigenvalues
    shifted = beta_final * (e_final - e_final[0])
    log_r = np.empty(tm.dim)
    for rows, columns, q in tm.stacks:
        with np.errstate(divide="ignore"):
            terms = np.log(q)
        terms -= shifted[rows][:, :, None]
        log_r[columns] = logsumexp(terms, axis=-2)
    return log_r, beta_final * e_final[0]


def _log_work_sum(energies, beta_initial, final_sums: tuple, log_weights=None):
    """ln sum_n p_n exp(beta_i E_n) r_n on the ``_log_final_sums`` of a matrix,
    each exponent assembled before exponentiation.  Leading axes of
    ``energies`` and ``beta_initial`` broadcast, (b, 1, dim) and (nT, 1) to
    (b, nT) in a sweep; ln p_n is ``log_weights``, else their log Gibbs weights."""
    _check_betas(beta_initial)
    if log_weights is None:
        log_weights = log_gibbs_weights(energies, beta_initial)
    log_r, shift = final_sums
    low = energies.min(axis=-1, keepdims=True)
    terms = log_weights + beta_initial * (energies - low) + log_r
    return logsumexp(terms, axis=-1) - (shift - (beta_initial * low)[..., 0])


def log_work_average(tm: TransitionMatrix, beta_initial: float, beta_final: float) -> float:
    """ln <exp(-(beta_f E_f - beta_i E_i))> over the measurement distribution
    p_n q[m, n]: ln sum_{m,n} p_n q[m,n] exp(-(beta_f E_m - beta_i E_n)).
    At equal betas this is Jarzynski's ln <exp(-beta W)> = ln Z_f / Z_i, and
    otherwise Tasaki's ln Z_f(beta_f) / Z_i(beta_i); it stays finite where
    the plain average overflows.

    It sums over final levels first, r_n = sum_m q[m, n] exp(-beta_f E_m),
    then ln sum_n p_n exp(beta_i E_n) r_n: the work's characteristic function
    at an imaginary argument, by the routine whose (B, T) call is a sweep's.
    """
    return float(_log_work_sum(tm.initial.eigenvalues, beta_initial, _log_final_sums(tm, beta_final)))


def relative_entropy_via_work(initial: ThermalSpec, final: ThermalSpec, tm: TransitionMatrix) -> float:
    """S(thermal(final) || thermal(initial)) from work statistics alone:

        S = -tr[rho_f (beta_f H_f - beta_i H_i)] - ln <exp(-(beta_f E_f - beta_i E_i))>

    with the average read from ``tm``, measured between the two specs'
    spectra (a matrix whose sides hold other eigenvalues raises ValueError)
    under any unitary: the average is protocol independent, and the actual
    protocol unitary exercises the full two-point-measurement pipeline.
    """
    for side, spec in (("initial", initial), ("final", final)):
        if not np.array_equal(getattr(tm, side).eigenvalues, spec.spectrum.eigenvalues):
            raise ValueError(f"the transition matrix's {side} spectrum is not that of the {side} spec")
    return -weighted_energy(initial, final) - log_work_average(tm, initial.beta, final.beta)


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


def work_distribution(tm: TransitionMatrix, beta_initial: float, beta_final: float) -> WorkDistribution:
    """All dim^2 transition outcomes with probabilities p_n q[m, n], p the
    initial Gibbs weights at ``beta_initial``, read from the blocks of
    ``tm`` (0 between them), in m-major order."""
    _check_betas(beta_initial, beta_final)
    e_initial = tm.initial.eigenvalues
    e_final = tm.final.eigenvalues
    weights = gibbs_weights(e_initial, beta_initial)
    dim = tm.dim
    m_grid, n_grid = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    probability = np.zeros((dim, dim))
    for rows, columns, q in tm.stacks:
        probability[rows[:, :, None], columns[:, None, :]] = q * weights[columns][:, None, :]
    return WorkDistribution(
        beta_initial=beta_initial,
        beta_final=beta_final,
        n_index=n_grid.reshape(-1).copy(),
        m_index=m_grid.reshape(-1).copy(),
        energy_initial=e_initial[n_grid.reshape(-1)],
        energy_final=e_final[m_grid.reshape(-1)],
        probability=probability.reshape(-1),
    )


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sampled trajectories as their level pairs: ``n_index`` into the
    initial spectrum's ``levels_initial`` and ``m_index`` into the final
    spectrum's ``levels_final``, both int16 (a level is below dim <= 4096),
    so a draw takes 4 bytes.  The columns of ``trajectories.csv`` after the
    two indices are formed from them on each read."""

    n_index: np.ndarray
    m_index: np.ndarray
    levels_initial: np.ndarray
    levels_final: np.ndarray
    beta_initial: float
    beta_final: float

    def __len__(self) -> int:
        return int(self.n_index.size)

    @property
    def energy_initial(self) -> np.ndarray:
        return self.levels_initial[self.n_index]

    @property
    def energy_final(self) -> np.ndarray:
        return self.levels_final[self.m_index]

    @property
    def work(self) -> np.ndarray:
        return self.energy_final - self.energy_initial

    @property
    def generalized_exponent(self) -> np.ndarray:
        return self.beta_final * self.energy_final - self.beta_initial * self.energy_initial


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


def _cumulative(probabilities: np.ndarray, axis: int = -1) -> np.ndarray:
    """Partial sums along ``axis``, with the closing run of sums equal to the
    total (from the last nonzero probability on) raised to at least 1.0.

    A uniform draw u < 1 then finds the first sum above it at an outcome of
    nonzero probability, however the total rounds; below the total, the
    draw is the one the plain partial sums give.
    """
    cum = np.cumsum(probabilities, axis=axis)
    total = np.take(cum, [-1], axis=axis)
    return np.where(cum == total, np.maximum(total, 1.0), cum)


def _radix_order(levels: np.ndarray) -> np.ndarray:
    """``np.argsort(levels, kind="stable")`` of level indices (0 <= level <
    dim <= 4096), as numpy's stable radix sort of their int16 copy."""
    return np.argsort(levels.astype(np.int16, copy=False), kind="stable")


def _pair_groups(n_index: np.ndarray, m_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index and inverse that ``np.unique`` gives of the pairs n * dim +
    m: the first draw of each distinct level pair, in ascending (n, m)
    order, and each draw's position among them.  Two stable radix passes (m,
    then n) take the place of a comparison sort of the int64 pairs."""
    order = _radix_order(m_index)
    order = order[_radix_order(n_index[order])]
    n_sorted, m_sorted = n_index[order], m_index[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.not_equal(n_sorted[1:], n_sorted[:-1], out=starts[1:])
    starts[1:] |= m_sorted[1:] != m_sorted[:-1]
    first = np.flatnonzero(starts)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.repeat(np.arange(first.size), np.diff(first, append=order.size))
    return order[first], inverse


def _sample_block(
    seed: int, block_index: int, size: int, cum_initial: np.ndarray, targets: list
) -> tuple[np.ndarray, np.ndarray]:
    """int16 (n, m) indices of one block's draws from its own Philox stream.
    One stable radix sort groups the draws by n, and each distinct n takes
    one binary search over its slice: O(size log dim), however many levels
    occur."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    rng = np.random.Generator(np.random.Philox(seq))
    u_first = rng.random(size)
    n_idx = np.searchsorted(cum_initial, u_first, side="right").astype(np.int16)
    u_second = rng.random(size)
    order = _radix_order(n_idx)
    counts = np.bincount(n_idx)
    ends = np.cumsum(counts)
    m_idx = np.empty(size, dtype=np.int16)
    for column in np.flatnonzero(counts).tolist():
        chosen = order[ends[column] - counts[column] : ends[column]]
        rows, cum = targets[column]
        m_idx[chosen] = rows[np.searchsorted(cum, u_second[chosen], side="right")]
    return n_idx, m_idx


def _mean_and_std(values: np.ndarray) -> tuple[float, float]:
    """``values.mean()`` and ``values.std(ddof=1)`` bit for bit as numpy
    forms them (a pairwise sum, the squared deviations from its mean, a
    second pairwise sum), with the deviations written over ``values``, so no
    second column is allocated."""
    mean = values.sum() / values.size
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return float(mean), math.sqrt(values.sum() / (values.size - 1))


def sample_tpm(
    tm: TransitionMatrix,
    beta_initial: float,
    beta_final: float,
    count: int,
    seed: int,
    on_block: Callable[[TrajectoryBatch, np.ndarray], None] | None = None,
) -> tuple[TrajectoryBatch, EstimatorSummary]:
    """Sample two-point-measurement trajectories and estimate the average.

    The first index n is drawn from the Gibbs weights at ``beta_initial``,
    the second from column n of ``tm``'s q, searched over the rows of n's
    block in ascending order: their partial sums are those of the whole
    column, whose other entries are 0, and the closing 1.0 falls on the
    block's last allowed row, so a draw never leaves the block.  ``count``
    is partitioned into fixed 16384-sample blocks, each with its own
    counter-based stream derived from (seed, block index) and drawn in
    block order, so one seed always gives the same bytes.  The estimator is
    standardized against the exact partition ratio, keeping steep protocols
    in range.

    The draws stream: each block is drawn, grouped by level pair, and its
    exponents formed once per distinct pair.  ``on_block``, when given, takes
    each block before the next is drawn, as a ``TrajectoryBatch`` of its
    distinct pairs (their first draws, in ascending (n, m) order) and each
    draw's position among them.  Between blocks the run keeps the int16
    level indices, which the returned batch holds, and the float64
    standardized ratio: 12 bytes per draw.
    """
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_betas(beta_initial, beta_final)

    e_initial = tm.initial.eigenvalues
    e_final = tm.final.eigenvalues
    cum_initial = _cumulative(gibbs_weights(e_initial, beta_initial))
    # per initial level n: the final levels of its block in ascending order,
    # and the partial sums of column n over them
    targets: list = [None] * tm.dim
    for rows, columns, q in tm.stacks:
        order = np.argsort(rows, axis=-1)
        rows = np.take_along_axis(rows, order, axis=-1)
        cum_q = _cumulative(np.take_along_axis(q, order[:, :, None], axis=-2), axis=-2)
        cum_q = np.ascontiguousarray(cum_q.swapaxes(-1, -2))
        for block_rows, block_columns, block_cum in zip(rows, columns, cum_q):
            for level, column_cum in zip(block_columns.tolist(), block_cum):
                targets[level] = (block_rows, column_cum)

    log_exact = gibbs_log_partition(e_final, beta_final) - gibbs_log_partition(e_initial, beta_initial)
    batch = TrajectoryBatch(
        n_index=np.empty(count, dtype=np.int16),
        m_index=np.empty(count, dtype=np.int16),
        levels_initial=e_initial,
        levels_final=e_final,
        beta_initial=beta_initial,
        beta_final=beta_final,
    )
    standardized = np.empty(count)
    for block_index, start in enumerate(range(0, count, SAMPLE_BLOCK)):
        rows = slice(start, min(start + SAMPLE_BLOCK, count))
        n_block, m_block = _sample_block(seed, block_index, rows.stop - start, cum_initial, targets)
        batch.n_index[rows], batch.m_index[rows] = n_block, m_block
        first, inverse = _pair_groups(n_block, m_block)
        distinct = dataclasses.replace(batch, n_index=n_block[first], m_index=m_block[first])
        np.take(np.exp(-distinct.generalized_exponent - log_exact), inverse, out=standardized[rows])
        if on_block is not None:
            on_block(distinct, inverse)

    exact = float(np.exp(log_exact))
    if count > 1:
        mean_ratio, std_ratio = _mean_and_std(standardized)
        se_ratio = std_ratio / math.sqrt(count)
        if se_ratio == 0.0:
            z: float | None = 0.0 if abs(mean_ratio - 1.0) < 1e-12 else math.copysign(
                math.inf, mean_ratio - 1.0
            )
        else:
            z = (mean_ratio - 1.0) / se_ratio
        stderr: float | None = se_ratio * exact
    else:
        mean_ratio = float(standardized[0])
        stderr = None
        z = None

    summary = EstimatorSummary(
        mean=mean_ratio * exact, stderr=stderr, exact=exact, z_score=z, count=count
    )
    return batch, summary
