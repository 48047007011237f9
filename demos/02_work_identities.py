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
    log_work_average,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)

proto = detection_protocol(3)
h_i = proto.initial_spec.hamiltonian
h_f = proto.final_spec.hamiltonian
beta = proto.beta
# the two measured eigenbases; each drive below is measured once between them
s_i = proto.initial_spec.spectrum
s_f = proto.final_spec.spectrum

expected = ThermalSpec(h_f, beta).log_partition - ThermalSpec(h_i, beta).log_partition
print("ln(Z_f/Z_i)                    =", expected)

# the protocol's own unitary
exact = transition_matrix(s_i, s_f, exact_evolution(proto.schedule))
print("log average, exact evolution   =", log_work_average(exact, beta, beta))

# a Trotterized version of the same drive
trotter = transition_matrix(s_i, s_f, trotter_evolution(proto.schedule))
print("log average, Trotter evolution =", log_work_average(trotter, beta, beta))

# no evolution at all: still the same average
quench = transition_matrix(s_i, s_f, UnitaryOperator(QubitRegister(3), np.eye(8)))
print("log average, sudden quench     =", log_work_average(quench, beta, beta))

# protocol independence in bulk: random unitaries
rng = np.random.default_rng(0)
devs = []
for _ in range(10):
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, r = np.linalg.qr(z)
    u_rand = UnitaryOperator(QubitRegister(3), q * (np.diag(r) / np.abs(np.diag(r)))[None, :])
    devs.append(abs(log_work_average(transition_matrix(s_i, s_f, u_rand), beta, beta) - expected))
print("worst deviation over 10 random unitaries:", max(devs))

# the transition matrix behind the averages is doubly stochastic; it is
# held as its S^z blocks, and q vanishes between them
print("\ntransition matrix column sums:", np.round(trotter.column_sums, 12))

# different preparation and measurement temperatures, from the same matrix
expected2 = ThermalSpec(h_f, beta / 2).log_partition - ThermalSpec(h_i, beta).log_partition
got2 = log_work_average(exact, beta, beta / 2)
print("\ntwo-temperature identity: expected", expected2, "got", got2)

# the full work distribution at moderate temperature: the same spectra, so
# the same matrix, read at beta = 1
wd = work_distribution(exact, 1.0, 1.0)
warm_i, warm_f = ThermalSpec(h_i, 1.0), ThermalSpec(h_f, 1.0)
print("\nwork distribution at beta=1:")
print("  outcomes  :", len(wd.probability))
print("  <W>       :", wd.mean_work())
print("  ln<e^{-W}>:", log_work_average(exact, 1.0, 1.0))
print("  -Delta F  :", warm_i.free_energy - warm_f.free_energy, "(Jensen: <W> >= Delta F)")
