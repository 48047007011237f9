"""Witnessing inside an open system: a chain segment coupled to the rest.

When the register splits into a subsystem and a bath, the subsystem's reduced
Gibbs state is itself a Gibbs state of an effective Hamiltonian (the
Hamiltonian of mean force),

    exp(-beta H_eff) = tr_B exp(-beta H_full) / Z_B,

which reduces to the bare subsystem Hamiltonian when the coupling vanishes.
Everything the closed-system witness does carries over with H_eff in place of
the endpoint Hamiltonians; the work-statistics route measures the full system
and only references the subsystem through the effective energies.

Driving evolves the full register unitarily; the bath is never rethermalized
mid-protocol.  Endpoint states are the equilibrium ones at the shared beta,
which is all the fluctuation identities require.  ``_open_pieces`` stacks
the Hamiltonian's pieces: the fixed coupling plus bath, then the subsystem's
pieces laid on its sites by ``operators.embed``, which for a driven chain are
its cached ``spin_models.xxz_pieces``, so H(t) = (coupling + bath) + J H_xy +
Jz H_zz - B S_z.  ``full_hamiltonian`` combines them at one time and
``open_trotter_evolution`` hands them to the closed chain's ordered product.
A split XXZ chain conserves the total S^z, so these run per S^z sector of the
full register, and so do the endpoint spectra (``spectral_decompose``), the
weight operator exp(-beta (H - E0)) (``operators.spectral_function``) and its
trace over the bath (``operators.partial_trace``); the effective Hamiltonian
is built per sector of the subsystem.  A coupling or bath that changes S^z
puts the whole register in one block.

Partition functions stay in log space and come from ``thermo``'s one rule:
ln Y is ``ThermalSpec(full_hamiltonian(c), beta).log_partition``, ln Z_B is
``log_bath_partition(c)``, and ln Z_S = ln Y - ln Z_B is the log partition
function of ``ThermalSpec(effective_hamiltonian(c), beta)``.
``effective_hamiltonian`` and ``reduced_state`` take a driven subsystem's
chain at t = 0; ``open_witness`` takes the final side's at the end of its
schedule.

``open_witness`` takes the routes of the closed witness, ``"direct"`` and
``"via_work"``, and gets the distance to ``rho_star`` (and on the direct
route the reference distance too) from ``witness._distances``, the closed
witness's one rule.  The work route's reference distance comes from the
full-system work average instead and takes its energy term from
``thermo.weighted_energy``; sigma_ref is always the initial side's
effective Gibbs state.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    SpectralDecomposition,
    UnitaryOperator,
    checked_eigh,
    combine,
    embed,
    partial_trace,
    restrict,
    shared_blocks,
    spectral_decompose,
    spectral_function,
)
from .spin_models import DrivingSchedule, XXZParams, _bonds, chain_pieces, is_number, params_at, xxz_pieces
from .thermo import ThermalSpec, gibbs_blocks, weighted_energy
from .witness import StateOrSpec, WitnessReport, _check_route, _distances, _finish_report, _identity_unitary
from .work_stats import log_work_average, ordered_product, schedule_coefficients, transition_matrix

# Smallest eigenvalue of the bath-traced weight operator that still leaves
# log() with usable precision; anything below means the temperature is too
# low for the effective Hamiltonian to be representable in doubles.
WEIGHT_RANK_FLOOR = 1e-280

OPERATOR_MATCH_ATOL = 1e-12


@dataclass(frozen=True)
class CompositeSystem:
    """A register split into subsystem and bath, with its Hamiltonian pieces.

    ``subsystem_hamiltonian`` (static) and ``subsystem_schedule`` (driven) are
    mutually exclusive; both describe an operator on the subsystem register
    alone.  ``coupling`` acts on the full register and must touch the bath to
    deserve the name; ``bath_hamiltonian`` acts on the bath register, with
    ``None`` meaning the zero operator.  Site lists are 1-based and are
    normalized to ascending order.
    """

    register: QubitRegister
    subsystem_sites: tuple[int, ...]
    bath_sites: tuple[int, ...]
    beta: float
    subsystem_hamiltonian: HermitianOperator | None = None
    subsystem_schedule: DrivingSchedule | None = None
    coupling: HermitianOperator | None = None
    bath_hamiltonian: HermitianOperator | None = None

    def __post_init__(self) -> None:
        sub = tuple(sorted(int(s) for s in self.subsystem_sites))
        bath = tuple(sorted(int(s) for s in self.bath_sites))
        object.__setattr__(self, "subsystem_sites", sub)
        object.__setattr__(self, "bath_sites", bath)
        if not sub:
            raise ValueError("the subsystem needs at least one site")
        overlap = set(sub) & set(bath)
        if overlap:
            raise ValueError(f"sites {sorted(overlap)} appear in both subsystem and bath")
        expected = set(range(1, self.register.n + 1))
        if set(sub) | set(bath) != expected:
            raise ValueError(
                f"subsystem {sub} and bath {bath} must cover register sites "
                f"1..{self.register.n} exactly"
            )
        if not is_number(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be a finite positive number, got {self.beta!r}")
        if (self.subsystem_hamiltonian is None) == (self.subsystem_schedule is None):
            raise ValueError("provide exactly one of subsystem_hamiltonian or subsystem_schedule")
        size = self.subsystem_schedule.n if self.is_driven else self.subsystem_hamiltonian.register.n
        if size != len(sub):
            kind = "schedule" if self.is_driven else "Hamiltonian"
            raise ValueError(f"subsystem {kind} is for {size} qubits but the subsystem has {len(sub)} sites")
        if self.bath_hamiltonian is not None and self.bath_hamiltonian.register.n != len(bath):
            raise ValueError(
                f"bath Hamiltonian acts on {self.bath_hamiltonian.register.n} "
                f"qubits but the bath has {len(bath)} sites"
            )
        if self.coupling is not None:
            if not bath:
                raise ValueError("coupling given but there is no bath to couple to")
            if self.coupling.register != self.register:
                raise ValueError("coupling must act on the full register")

    @property
    def subsystem_register(self) -> QubitRegister:
        return QubitRegister(len(self.subsystem_sites))

    @property
    def is_driven(self) -> bool:
        return self.subsystem_schedule is not None

    @property
    def final_time(self) -> float:
        return self.subsystem_schedule.t_f if self.subsystem_schedule is not None else 0.0


def full_hamiltonian(composite: CompositeSystem, t: float = 0.0) -> HermitianOperator:
    """Subsystem + coupling + bath on the full register, combined on the
    blocks of ``_open_pieces``; a driven subsystem enters with its chain at
    time ``t``."""
    params = None if composite.subsystem_schedule is None else params_at(composite.subsystem_schedule, t)
    coefficients = (1.0, 1.0) if params is None else (1.0, params.J, params.Jz, -params.B)
    return HermitianOperator(composite.register, combine(_open_pieces(composite), coefficients))


def _open_pieces(composite: CompositeSystem) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The read-only piece stacks of the composite's Hamiltonian on their
    ``shared_blocks``: the fixed piece (coupling plus the bath embedded on
    its sites), then the subsystem's pieces embedded on its sites.  These are
    a static Hamiltonian (coefficients (1, 1)) or a driven chain's cached
    H_xy, H_zz and S_z (coefficients (1, J, Jz, -B))."""
    n, schedule = composite.register.n, composite.subsystem_schedule
    if schedule is None:
        subsystem = [(indices, blocks[None]) for indices, blocks in composite.subsystem_hamiltonian.stacks]
    else:
        subsystem = xxz_pieces(schedule.n, schedule.initial.boundary)
    varying = embed(subsystem, n, composite.subsystem_sites)
    fixed = [] if composite.coupling is None else [composite.coupling.stacks]
    if composite.bath_hamiltonian is not None:
        fixed.append(embed(composite.bath_hamiltonian.stacks, n, composite.bath_sites))
    out = []
    for indices in shared_blocks(n, varying, *fixed):
        pieces = restrict(varying, indices)
        total = sum((restrict(term, indices) for term in fixed), np.zeros(pieces.shape[1:]))
        blocks = np.concatenate([total[None], pieces])
        blocks.setflags(write=False)
        out.append((indices, blocks))
    return tuple(out)


def log_bath_partition(composite: CompositeSystem) -> float:
    """ln Z_B at the composite's beta; ln(dim) for a free bath, 0 without one."""
    if not composite.bath_sites:
        return 0.0
    if composite.bath_hamiltonian is None:
        return len(composite.bath_sites) * math.log(2.0)
    return ThermalSpec(composite.bath_hamiltonian, composite.beta).log_partition


def effective_hamiltonian(composite: CompositeSystem) -> HermitianOperator:
    """Hamiltonian of mean force on the subsystem register, with a driven
    subsystem's chain at t = 0.

    Computed from the ground-shifted full Gibbs weights so nothing overflows:
    with M = tr_B exp(-beta (H - E0)),

        H_eff = E0 I - (1/beta) ln M + (ln Z_B / beta) I.

    Raises NumericalCheckError when M is numerically rank deficient, which
    happens once beta times the spectral width exceeds what doubles resolve.
    """
    full = spectral_decompose(full_hamiltonian(composite))
    return _mean_force(composite, full, log_bath_partition(composite))


def _mean_force(
    composite: CompositeSystem, full: SpectralDecomposition, log_bath: float
) -> HermitianOperator:
    """effective_hamiltonian from the full Hamiltonian's spectrum and ln Z_B,
    per S^z sector of the subsystem when the full Hamiltonian conserves S^z."""
    ground = full.eigenvalues[0]
    weights = np.exp(-composite.beta * (full.eigenvalues - ground))
    traced = partial_trace(spectral_function(full, weights), composite.register.n, composite.subsystem_sites)
    spectra = [(indices, *checked_eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))) for indices, m in traced]
    smallest = min(float(w.min()) for _, w, _ in spectra)
    if smallest <= WEIGHT_RANK_FLOOR:
        raise NumericalCheckError(
            "bath-traced weight operator is numerically rank deficient "
            f"(smallest eigenvalue {smallest:.3e}); the effective Hamiltonian "
            f"is not resolvable at beta={composite.beta:g}"
        )
    shift = ground + log_bath / composite.beta
    stacks = []
    for indices, w, v in spectra:
        log_m = (v * np.log(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        h = shift * np.eye(w.shape[-1]) - log_m / composite.beta
        stacks.append((indices, 0.5 * (h + h.conj().swapaxes(-1, -2))))
    return HermitianOperator(composite.subsystem_register, stacks)


def reduced_state(composite: CompositeSystem) -> DensityMatrix:
    """tr_B of the full Gibbs state at the composite's beta, with a driven
    subsystem's chain at t = 0.  The full state's blocks are traced as
    ``gibbs_blocks`` builds them; only the reduced state is checked."""
    full_blocks = gibbs_blocks(ThermalSpec(full_hamiltonian(composite), composite.beta))
    reduced = partial_trace(full_blocks, composite.register.n, composite.subsystem_sites)
    return DensityMatrix(composite.subsystem_register, reduced)


def _require_shared_environment(initial: CompositeSystem, final: CompositeSystem) -> None:
    if initial.register != final.register:
        raise ConfigError("composites must share a register")
    if initial.subsystem_sites != final.subsystem_sites or initial.bath_sites != final.bath_sites:
        raise ConfigError("composites must share the subsystem/bath partition")
    if initial.beta != final.beta:
        raise ConfigError(f"composites must share beta, got {initial.beta} and {final.beta}")
    for name, field_name in (("coupling", "coupling"), ("bath Hamiltonian", "bath_hamiltonian")):
        a, b = getattr(initial, field_name), getattr(final, field_name)
        if (a is None) != (b is None):
            raise ConfigError(f"composites must share the {name} (one side lacks it)")
        # each side's blocks hold every entry where it is not 0
        if a is not None and max(
            float(np.abs(blocks - restrict(theirs, indices)).max())
            for ours, theirs in ((a.stacks, b.stacks), (b.stacks, a.stacks))
            for indices, blocks in ours
        ) > OPERATOR_MATCH_ATOL:
            raise ConfigError(f"composites must share the {name}; entries differ")


def open_witness(
    initial: CompositeSystem,
    final: CompositeSystem,
    rho_star: StateOrSpec,
    *,
    evolution: UnitaryOperator | None = None,
    route: str = "direct",
) -> WitnessReport:
    """Witness evaluation with open-system endpoint states.

    The reference pair is the effective Gibbs state of ``final`` (playing rho)
    against the effective Gibbs state of ``initial`` (playing sigma_ref).  On
    route "via_work" the left distance comes from full-system work statistics
    under ``evolution`` (identity by default; the average is protocol
    independent), and ``rho_star`` must be a declared Gibbs state on the
    subsystem register.
    """
    _check_route(route)
    _require_shared_environment(initial, final)
    # Each full Hamiltonian and the shared bath are diagonalized once; the
    # effective specs and the work average below reuse the spectra.
    full_initial = spectral_decompose(full_hamiltonian(initial, 0.0))
    full_final = spectral_decompose(full_hamiltonian(final, final.final_time))
    log_bath = log_bath_partition(initial)
    spec_initial = ThermalSpec(_mean_force(initial, full_initial, log_bath), initial.beta)
    spec_final = ThermalSpec(_mean_force(final, full_final, log_bath), final.beta)
    metadata = {
        "system": "open",
        "beta": initial.beta,
        "subsystem_sites": list(initial.subsystem_sites),
        "bath_sites": list(initial.bath_sites),
    }
    if route == "direct":
        legs = (("sigma_ref", spec_initial, None), ("rho_star", rho_star, None))
        s_left, s_right = _distances(route, spec_final, legs)
    else:
        (s_right,) = _distances(route, spec_final, (("rho_star", rho_star, None),))
        u_full = evolution if evolution is not None else _identity_unitary(initial.register)
        if u_full.register != initial.register:
            raise ConfigError("evolution must act on the full register")
        tm = transition_matrix(full_initial, full_final, u_full)
        log_average = log_work_average(tm, initial.beta, initial.beta)
        s_left = -weighted_energy(spec_initial, spec_final) - log_average
    return _finish_report(s_left, s_right, route, metadata)


def open_trotter_evolution(composite: CompositeSystem, sampling: str = "left") -> UnitaryOperator:
    """Product of full-system step propagators along the subsystem's schedule.

    The bath and coupling stay fixed while the subsystem parameters follow the
    schedule; sampling works as in the closed-system integrator ("left" for
    plain first order, "midpoint" for the symmetric variant).  The pieces of
    ``_open_pieces`` go with the slice coefficients (1, J, Jz, -B) to
    ``work_stats.ordered_product``, per S^z sector when the coupling and bath
    conserve S^z (as for a split XXZ chain).  The subsystem's H_zz is not a
    multiple of the identity on the full register's sectors, so a ramp of Jz
    makes every slice a run of its own, which short slices (0.006 for 1000
    steps of the three-qubit protocol) take through the Taylor kernel.
    """
    if composite.subsystem_schedule is None:
        raise ValueError("open_trotter_evolution needs a driven composite")
    schedule = composite.subsystem_schedule
    coefficients = np.column_stack(
        [np.ones(schedule.steps), schedule_coefficients(schedule, sampling)]
    )
    return ordered_product(composite.register, _open_pieces(composite), coefficients, schedule.dt)


def split_chain(
    params: XXZParams, subsystem_sites: Sequence[int], beta: float
) -> CompositeSystem:
    """Split one XXZ chain into subsystem, bath and the bonds between them.

    Bonds with both ends in the subsystem (or bath) go to that part's
    Hamiltonian; bonds straddling the cut become the coupling.  Field terms
    follow their site.  Summing the embedded pieces reproduces the original
    chain exactly.
    """
    register = QubitRegister(params.n)
    sub = tuple(sorted(int(s) for s in subsystem_sites))
    bath = tuple(s for s in range(1, params.n + 1) if s not in sub)
    bonds = _bonds(params.n, params.boundary)
    cross = [(l, m) for l, m in bonds if (l + 1 in sub) != (m + 1 in sub)]

    def inside(sites: tuple[int, ...]) -> HermitianOperator:
        local = {site - 1: idx for idx, site in enumerate(sites)}
        pairs = [(local[l], local[m]) for l, m in bonds if l in local and m in local]
        stacks = chain_pieces(len(sites), pairs, range(len(sites)))
        return HermitianOperator(QubitRegister(len(sites)), combine(stacks, (params.J, params.Jz, -params.B)))

    def across() -> HermitianOperator:
        # H_xy and H_zz of the bonds across the cut, on the full register
        stacks = [(indices, blocks[:2]) for indices, blocks in chain_pieces(params.n, cross, ())]
        return HermitianOperator(register, combine(stacks, (params.J, params.Jz)))

    return CompositeSystem(
        register=register,
        subsystem_sites=sub,
        bath_sites=bath,
        beta=beta,
        subsystem_hamiltonian=inside(sub),
        coupling=across() if cross else None,
        bath_hamiltonian=inside(bath) if bath else None,
    )


def decoupled(composite: CompositeSystem) -> CompositeSystem:
    """The same composite with the subsystem-bath coupling switched off."""
    return dataclasses.replace(composite, coupling=None)
