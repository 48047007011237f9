"""Dense reference implementations that the sector code is checked against.

These are the package's former dense paths: the XXZ Hamiltonian as a sum of
products of embedded Pauli matrices, the closed and open Trotter products of
full 2^n x 2^n step propagators, and the direct sweep distance from dense
Gibbs states.  They share no sector code with ``entwit``.
"""

import numpy as np

from entwit import (
    DensityMatrix,
    HermitianOperator,
    QubitRegister,
    ThermalSpec,
    XXZParams,
    embed_pauli,
    evolution_operator,
    full_hamiltonian,
    params_at,
    relative_entropy,
    thermal_state,
)


def dense_xxz(params: XXZParams) -> HermitianOperator:
    """H = -sum_l [(J/2)(sx sx + sy sy) + Jz sz sz + B sz] from Pauli products."""
    n = params.n
    register = QubitRegister(n)
    sx = [embed_pauli(register, site, "x").entries for site in register.sites()]
    sy = [embed_pauli(register, site, "y").entries for site in register.sites()]
    sz = [embed_pauli(register, site, "z").entries for site in register.sites()]
    h = np.zeros((register.dim, register.dim), dtype=np.complex128)
    last_bond = n if params.boundary == "periodic" else n - 1
    for l in range(last_bond):
        m = (l + 1) % n
        h -= 0.5 * params.J * (sx[l] @ sx[m] + sy[l] @ sy[m])
        h -= params.Jz * (sz[l] @ sz[m])
    for l in range(n):
        h -= params.B * sz[l]
    return HermitianOperator(register, h)


def dense_trotter(schedule, sampling: str = "left") -> np.ndarray:
    """Ordered product of full-register step propagators, step 0 first."""
    total = np.eye(2**schedule.n, dtype=np.complex128)
    offset = 0.0 if sampling == "left" else 0.5
    for step in range(schedule.steps):
        params = params_at(schedule, min((step + offset) * schedule.dt, schedule.t_f))
        total = evolution_operator(dense_xxz(params), schedule.dt).entries @ total
    return total


def dense_open_trotter(composite, sampling: str = "left") -> np.ndarray:
    """Ordered product of full-register step propagators of a driven
    composite, rebuilding the full Hamiltonian at every step."""
    schedule = composite.subsystem_schedule
    total = np.eye(composite.register.dim, dtype=np.complex128)
    offset = 0.0 if sampling == "left" else 0.5
    for step in range(schedule.steps):
        t = min((step + offset) * schedule.dt, schedule.t_f)
        total = evolution_operator(full_hamiltonian(composite, t), schedule.dt).entries @ total
    return total


def dense_s_right(rho: DensityMatrix, params: XXZParams, temperature: float) -> float:
    """S(rho || Gibbs state of the dense chain at 1/temperature)."""
    sigma = thermal_state(ThermalSpec(dense_xxz(params), 1.0 / temperature))
    return relative_entropy(rho, sigma)
