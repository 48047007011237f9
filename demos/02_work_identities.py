"""
Exponential work averages and the fluctuation identities
========================================================

The two-point-measurement statistics of a driven chain satisfy
<e^{-beta W}> = Z_f/Z_i regardless of how the drive gets from its initial
to its final Hamiltonian.  This script checks that numerically, then shows
the two-temperature generalization.
"""

import numpy as np

from entwit import (
    QubitRegister,
    ThermalSpec,
    UnitaryOperator,
    detection_protocol,
    exact_evolution,
    log_jarzynski_average,
    log_tasaki_average,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)

proto = detection_protocol(3)
h_i = proto.initial_spec.hamiltonian
h_f = proto.final_spec.hamiltonian
beta = proto.beta

expected = ThermalSpec(h_f, beta).log_partition - ThermalSpec(h_i, beta).log_partition
print("ln(Z_f/Z_i)                    =", expected)

# the protocol's own unitary
u = exact_evolution(proto.schedule)
print("log average, exact evolution   =", log_jarzynski_average(beta, h_i, h_f, u))

# a Trotterized version of the same drive
u_trot = trotter_evolution(proto.schedule)
print("log average, Trotter evolution =", log_jarzynski_average(beta, h_i, h_f, u_trot))

# no evolution at all: still the same average
ident = UnitaryOperator(QubitRegister(3), np.eye(8))
print("log average, sudden quench     =", log_jarzynski_average(beta, h_i, h_f, ident))

# protocol independence in bulk: random unitaries
rng = np.random.default_rng(0)
devs = []
for _ in range(10):
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, r = np.linalg.qr(z)
    u_rand = UnitaryOperator(QubitRegister(3), q * (np.diag(r) / np.abs(np.diag(r)))[None, :])
    devs.append(abs(log_jarzynski_average(beta, h_i, h_f, u_rand) - expected))
print("worst deviation over 10 random unitaries:", max(devs))

# the transition matrix behind the averages is doubly stochastic; it is
# held as its S^z blocks, and q vanishes between them
tm = transition_matrix(h_i, h_f, u_trot)
print("\ntransition matrix column sums:", np.round(tm.column_sums, 12))

# different preparation and measurement temperatures
expected2 = ThermalSpec(h_f, beta / 2).log_partition - ThermalSpec(h_i, beta).log_partition
got2 = log_tasaki_average(beta, beta / 2, h_i, h_f, u)
print("\ntwo-temperature identity: expected", expected2, "got", got2)

# the full work distribution at moderate temperature
warm_i = ThermalSpec(h_i, 1.0)
warm_f = ThermalSpec(h_f, 1.0)
wd = work_distribution(warm_i, warm_f, u)
print("\nwork distribution at beta=1:")
print("  outcomes  :", len(wd.probability))
print("  <W>       :", wd.mean_work())
print("  ln<e^{-W}>:", log_jarzynski_average(1.0, warm_i.spectrum, warm_f.spectrum, u))
print("  -Delta F  :", warm_i.free_energy - warm_f.free_energy, "(Jensen: <W> >= Delta F)")
