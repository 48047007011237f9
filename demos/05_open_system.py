"""
Effective thermal description of a subsystem coupled to a bath
==============================================================

Cut a chain into a subsystem and a bath, absorb the bath into an effective
subsystem Hamiltonian, and check the partition-function bookkeeping that
makes the witness work on open systems.
"""

import numpy as np

from entwit import (
    CompositeSystem,
    HermitianOperator,
    QubitRegister,
    ThermalSpec,
    XXZParams,
    build_xxz,
    decoupled,
    effective_hamiltonian,
    full_hamiltonian,
    log_bath_partition,
    open_witness,
    reduced_state,
    relative_entropy,
    split_chain,
    thermal_state,
)

SZ = np.diag([1.0, -1.0])

# cut a 4-site chain down the middle
params = XXZParams(n=4, J=1.0, Jz=0.3, B=0.4, boundary="open")
composite = split_chain(params, subsystem_sites=(1, 2), beta=1.0)
whole = build_xxz(params)
reassembled = full_hamiltonian(composite)
print("split + reassemble deviation:", np.abs(reassembled.entries - whole.entries).max())
print("cross-cut coupling present  :", composite.coupling is not None)

# the bath deforms the subsystem's effective Hamiltonian
h_bare = composite.subsystem_hamiltonian
h_eff = effective_hamiltonian(composite)
print("\n|H_eff - H_bare| (coupled)  :", np.abs(h_eff.entries - h_bare.entries).max())
h_eff_dec = effective_hamiltonian(decoupled(composite))
print("|H_eff - H_bare| (decoupled):", np.abs(h_eff_dec.entries - h_bare.entries).max())

# partition functions split as ln Z_S = ln Y - ln Z_B
log_y = ThermalSpec(full_hamiltonian(composite), composite.beta).log_partition
log_z_b = log_bath_partition(composite)
log_z_s = log_y - log_z_b
print("\nln Y   =", log_y)
print("ln Z_B =", log_z_b)
print("ln Z_S =", log_z_s)
effective = ThermalSpec(effective_hamiltonian(composite), composite.beta)
direct = effective.log_partition
print("ln tr exp(-beta H_eff) =", direct, "  abs dev:", abs(direct - log_z_s))

# the reduced state of the global Gibbs state is thermal for H_eff
rho_sub = reduced_state(composite)
tau_eff = thermal_state(effective)
print("\nS(reduced || thermal(H_eff)) =", relative_entropy(rho_sub, tau_eff))

# the deformation shrinks linearly with the coupling strength
reg = QubitRegister(3)
h_s = HermitianOperator(
    QubitRegister(2), build_xxz(XXZParams(2, 1.0, 0.3, 0.4, boundary="open")).entries
)
bath = HermitianOperator(QubitRegister(1), 0.3 * SZ)
# the coupling g sz sz acts on sites 2 and 3 of the three-site register
print("\neffective-Hamiltonian deformation vs coupling g:")
for g in (0.1, 0.01, 0.001):
    sys = CompositeSystem(
        register=reg,
        subsystem_sites=(1, 2),
        bath_sites=(3,),
        beta=1.0,
        subsystem_hamiltonian=h_s,
        coupling=HermitianOperator(reg, g * np.kron(np.eye(2), np.kron(SZ, SZ))),
        bath_hamiltonian=bath,
    )
    dev = np.abs(effective_hamiltonian(sys).entries - h_s.entries).max()
    print(f"  g = {g:<6}: {dev:.6e}")

# witness routes agree on the open system too; the drive changes only the
# subsystem Hamiltonian while coupling and bath stay fixed
def quenched(b_field):
    return CompositeSystem(
        register=reg,
        subsystem_sites=(1, 2),
        bath_sites=(3,),
        beta=1.0,
        subsystem_hamiltonian=HermitianOperator(
            QubitRegister(2),
            build_xxz(XXZParams(2, 1.0, 0.3, b_field, boundary="open")).entries,
        ),
        coupling=HermitianOperator(reg, 0.1 * np.kron(np.eye(2), np.kron(SZ, SZ))),
        bath_hamiltonian=bath,
    )


initial = quenched(0.1)
final = quenched(0.6)
rho_star = ThermalSpec(initial.subsystem_hamiltonian, 1.0)
direct = open_witness(initial, final, rho_star)
via = open_witness(initial, final, rho_star, route="via_work")
print("\nopen witness, direct vs work route:")
print("  s_left :", direct.s_left, "vs", via.s_left)
print("  s_right:", direct.s_right, "vs", via.s_right)
print("  system :", direct.metadata["system"])
