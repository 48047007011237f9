"""
Reference states and relative-entropy distances
===============================================

Builds the symmetric one-excitation state on small chains, the closest
separable reference, and the rank-two reference that the seven-qubit
protocol prepares, then prints the distances between them.
"""

import numpy as np

from entwit import (
    build_css,
    build_w_state,
    reference_state,
    relative_entropy,
)

# the three-qubit pair: the distance has the closed form ln(9/4)
rho3 = build_w_state(3)
css3 = build_css(3)
print("S(rho_3 || css_3) =", relative_entropy(rho3, css3))
print("ln(9/4)           =", np.log(9 / 4))

# the separable reference is diagonal across magnetization sectors; its
# nonzero eigenvalues follow the binomial weights C(n,k)(n-1)^(n-k)/n^n
eigenvalues = np.linalg.eigvalsh(css3.entries)
print("\ncss_3 spectrum:", np.round(eigenvalues[eigenvalues > 1e-12], 6))
print("expected      :", np.round(sorted([1 / 27, 6 / 27, 8 / 27, 12 / 27]), 6))

# on seven qubits a rank-two state is exactly as far from rho_7 as the
# full separable reference; it is not separable itself, and the witness
# needs only its distance
rho7 = build_w_state(7)
prime = reference_state(7)
print("\nS(rho_7 || sigma'_7)  =", relative_entropy(rho7, prime))
print("S(rho_7 || css_7)     =", relative_entropy(rho7, build_css(7)))
print("6 ln(7/6)             =", 6 * np.log(7 / 6))

# distances grow with chain length: (n-1) ln(n/(n-1)) approaches 1 from below
print("\nideal distance by chain length:")
for n in range(2, 8):
    value = relative_entropy(build_w_state(n), build_css(n))
    formula = (n - 1) * np.log(n / (n - 1))
    print(f"  n={n}: {value:.6f}   (closed form {formula:.6f})")
