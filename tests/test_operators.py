"""Container validation, spectral helpers, embeddings, partial traces and
JSON round trips."""

import math

import numpy as np
import pytest

from entwit import (
    DensityMatrix,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    UnitaryOperator,
    density_from_json,
    dicke_state,
    embed_operator,
    evolution_operator,
    matrix_from_json,
    matrix_to_json,
    pure_state,
    spectral_decompose,
    unitary_from_json,
)
from entwit import operators
from entwit.operators import _partial_trace_matrix
from entwit.spin_models import xxz_pieces

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------- registers

def test_register_dim():
    assert QubitRegister(1).dim == 2
    assert QubitRegister(5).dim == 32


def test_register_bounds():
    with pytest.raises(ValueError):
        QubitRegister(0)
    with pytest.raises(ValueError):
        QubitRegister(13)


# ---------------------------------------------------------------- containers

def test_hermitian_rejects_nonhermitian():
    reg = QubitRegister(1)
    with pytest.raises(NumericalCheckError):
        HermitianOperator(reg, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        HermitianOperator(QubitRegister(2), np.eye(2))


def test_density_rejects_bad_trace():
    with pytest.raises(NumericalCheckError, match="trace"):
        DensityMatrix(QubitRegister(1), np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(NumericalCheckError, match="eigenvalue"):
        DensityMatrix(QubitRegister(1), np.diag([1.5, -0.5]))


def test_density_keeps_the_spectrum_of_its_check():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    entries = a @ a.conj().T
    rho = DensityMatrix(QubitRegister(2), entries / np.trace(entries).real)
    assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.entries))
    assert not rho.eigenvalues.flags.writeable


def test_unitary_rejects_nonunitary():
    with pytest.raises(NumericalCheckError, match="unitarity"):
        UnitaryOperator(QubitRegister(1), np.diag([1.0, 2.0]))


def test_unitary_tolerance_is_adjustable(monkeypatch):
    # the one tolerance is the module constant UNITARITY_ATOL, read per check
    almost = np.diag([1.0, 1.0 + 1e-8])
    with pytest.raises(NumericalCheckError, match="unitarity"):
        UnitaryOperator(QubitRegister(1), almost)
    monkeypatch.setattr(operators, "UNITARITY_ATOL", 1e-6)
    UnitaryOperator(QubitRegister(1), almost)


# ---------------------------------------------------------------- spectra

def test_spectral_decompose_reconstructs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = HermitianOperator(QubitRegister(3), a + a.conj().T)
    dec = spectral_decompose(op)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    v = dec.eigenvectors
    assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - op.entries)) < 1e-12


def test_evolution_operator_phases():
    h = HermitianOperator(QubitRegister(1), SZ)
    u = evolution_operator(h, 0.7)
    assert np.allclose(np.diag(u.entries), [np.exp(-0.7j), np.exp(0.7j)], atol=1e-14)
    ident = evolution_operator(h, 0.0)
    assert np.max(np.abs(ident.entries - np.eye(2))) < 1e-14


# ---------------------------------------------------------------- embeddings

def test_embed_pauli_site_one_is_leftmost():
    reg = QubitRegister(2)
    assert np.allclose(np.diag(embed_operator(reg, SZ, (1,))).real, [1, 1, -1, -1])
    assert np.allclose(np.diag(embed_operator(reg, SZ, (2,))).real, [1, -1, 1, -1])


def test_embed_operator_matches_manual_kron():
    reg = QubitRegister(3)
    got = embed_operator(reg, np.kron(SX, SY), (1, 3))
    manual = np.kron(SX, np.kron(np.eye(2), SY))
    assert np.max(np.abs(got - manual)) < 1e-14


def test_embed_operator_site_order_is_factor_order():
    # factor j of the small matrix lands on sites[j], so swapping both
    # the factors and the site list leaves the embedding unchanged
    reg = QubitRegister(3)
    a = embed_operator(reg, np.kron(SX, SZ), (3, 1))
    b = embed_operator(reg, np.kron(SZ, SX), (1, 3))
    assert np.max(np.abs(a - b)) < 1e-14


def test_embed_operator_rejects_bad_sites():
    reg = QubitRegister(2)
    with pytest.raises(ValueError):
        embed_operator(reg, SX, (3,))
    with pytest.raises(ValueError):
        embed_operator(reg, np.kron(SX, SX), (1, 1))


def test_total_sz_diagonal():
    diag = xxz_pieces(3, "periodic")[2]
    assert diag[0] == 3 and diag[-1] == -3
    assert diag[1] == 1  # |001> has two up, one down


# ---------------------------------------------------------------- states

def test_dicke_state_w3_amplitudes():
    reg = QubitRegister(3)
    w = dicke_state(reg, 1)
    idx = np.flatnonzero(np.abs(w) > 1e-12)
    assert list(idx) == [1, 2, 4]  # |001>, |010>, |100>
    assert np.allclose(w[idx], 1 / np.sqrt(3))


@pytest.mark.parametrize("n", range(2, 8))
def test_dicke_state_normalized(n):
    reg = QubitRegister(n)
    for k in range(n + 1):
        vec = dicke_state(reg, k)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-13
        weights = np.abs(vec) ** 2
        assert np.count_nonzero(weights > 1e-15) == math.comb(n, k)


def test_dicke_state_bounds():
    with pytest.raises(ValueError):
        dicke_state(QubitRegister(2), 3)


def test_pure_state_projector():
    reg = QubitRegister(2)
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = pure_state(reg, vec)
    assert np.max(np.abs(rho.entries @ rho.entries - rho.entries)) < 1e-13


# ---------------------------------------------------------------- traces

# _partial_trace_matrix keeps the 0-based sites it is given, in register order.

def test_partial_trace_product_recovery():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = pure_state(QubitRegister(1), np.array([1.0, 1.0]) / np.sqrt(2)).entries
    joint = np.kron(a, b)
    assert np.max(np.abs(_partial_trace_matrix(joint, 2, [0]) - a)) < 1e-14
    assert np.max(np.abs(_partial_trace_matrix(joint, 2, [1]) - b)) < 1e-14


def test_partial_trace_bell_is_maximally_mixed():
    bell = pure_state(QubitRegister(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    red = _partial_trace_matrix(bell.entries, 2, [1])
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-14


def test_partial_trace_keep_all_is_identity_map():
    rho = np.eye(4, dtype=complex) / 4
    assert np.max(np.abs(_partial_trace_matrix(rho, 2, [0, 1]) - rho)) < 1e-15


def test_partial_trace_keep_order():
    joint = np.kron(np.diag([0.9, 0.1]), np.diag([0.6, 0.4])).astype(complex)
    kept = _partial_trace_matrix(joint, 2, [0, 1])
    assert np.allclose(np.diag(kept).real, [0.54, 0.36, 0.06, 0.04])


# ---------------------------------------------------------------- json

def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    reg = QubitRegister(2)
    payload = matrix_to_json(reg, a)
    assert set(payload) == {"n", "re", "im"}
    reg2, back = matrix_from_json(payload)
    assert reg2.n == 2
    assert np.max(np.abs(back - a)) == 0.0


def test_matrix_json_strictness():
    ok = {"n": 1, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValueError, match="missing"):
        matrix_from_json({k: v for k, v in ok.items() if k != "im"})
    with pytest.raises(ValueError, match="unknown"):
        matrix_from_json({**ok, "comment": "hi"})
    with pytest.raises(ValueError):
        matrix_from_json({**ok, "n": 2})


def test_operator_json_round_trips():
    reg = QubitRegister(1)
    rho = DensityMatrix(reg, np.diag([0.3, 0.7]))
    assert np.max(np.abs(density_from_json(matrix_to_json(reg, rho.entries)).entries - rho.entries)) == 0

    u = UnitaryOperator(reg, (SX + SZ) / np.sqrt(2))
    assert np.max(np.abs(unitary_from_json(matrix_to_json(reg, u.entries)).entries - u.entries)) == 0


def test_unitary_from_json_rejects_nonunitary():
    reg = QubitRegister(1)
    payload = matrix_to_json(reg, np.diag([1.0, 0.5]))
    with pytest.raises(NumericalCheckError, match="unitarity"):
        unitary_from_json(payload)
