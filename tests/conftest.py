import sys

# first, so that numpy loads OpenBLAS at the package's thread timeout, as a
# run of the package does
import entwit
import numpy as np
import pytest

import entwit.operators
import entwit.work_stats
from entwit import DensityMatrix, QubitRegister, UnitaryOperator


@pytest.fixture
def haar():
    """Factory for seeded Haar-random unitaries on a register."""

    def make(register: QubitRegister, seed: int) -> UnitaryOperator:
        rng = np.random.default_rng(seed)
        dim = register.dim
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
        return UnitaryOperator(register, q)

    return make


@pytest.fixture
def random_product_state():
    """Factory for seeded random pure product states on n qubits."""

    def make(n: int, seed: int) -> DensityMatrix:
        rng = np.random.default_rng(seed)
        vec = np.ones(1, dtype=complex)
        for _ in range(n):
            site = rng.normal(size=2) + 1j * rng.normal(size=2)
            site /= np.linalg.norm(site)
            vec = np.kron(vec, site)
        return DensityMatrix(QubitRegister(n), np.outer(vec, vec.conj()))

    return make


@pytest.fixture
def decompositions(monkeypatch):
    """Hamiltonians handed to spectral_decompose, in every entwit namespace."""
    seen = []
    original = entwit.operators.spectral_decompose

    def counted(operator):
        seen.append(operator.entries.tobytes())
        return original(operator)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "entwit" and getattr(module, "spectral_decompose", None) is original:
            monkeypatch.setattr(module, "spectral_decompose", counted)
    return seen


@pytest.fixture
def transitions(monkeypatch):
    """One entry per transition matrix formed: the arguments of every call
    of ``work_stats._transition_from_spectra``."""
    seen = []
    original = entwit.work_stats._transition_from_spectra

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(entwit.work_stats, "_transition_from_spectra", counted)
    return seen
