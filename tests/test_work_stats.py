"""
Tests for two-point-measurement work statistics.

Covers:
- transition matrix construction and the doubly stochastic property
- closed-form exponential work averages against partition-function ratios
- the U-independence that makes those averages protocol-free
- the work-distribution container and its log-space average
- exact vs Trotterized evolution operators, sampling conventions, ordering
- the trajectory sampler: determinism, error bars, scaling
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_chain_pieces, dense_propagator, dense_transitions, dense_xxz
from entwit import (
    DrivingSchedule,
    HermitianOperator,
    NumericalCheckError,
    QubitRegister,
    ThermalSpec,
    TransitionMatrix,
    UnitaryOperator,
    XXZParams,
    detection_protocol,
    exact_evolution,
    build_xxz,
    gibbs_relative_entropy,
    log_work_average,
    relative_entropy_via_work,
    sample_tpm,
    spectral_decompose,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)

from entwit.spin_models import params_at
from entwit.work_stats import (
    COMMUTATION_ATOL,
    SAMPLE_BLOCK,
    _log_final_sums,
    _log_work_sum,
    _mean_and_std,
    _pair_groups,
    _radix_order,
    _sample_block,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SZ_OPERATOR = HermitianOperator(QubitRegister(1), SZ)


def random_hermitian(n, rng, scale=0.6):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(QubitRegister(n), scale * (a + a.conj().T) / 2)


def identity_on(n):
    return UnitaryOperator(QubitRegister(n), np.eye(2**n))


def sector_hamiltonian(n, rng):
    """A random Hermitian matrix with its entries between popcount sectors
    set to 0, so its spectrum keeps the S^z blocks."""
    ones = np.array([bin(i).count("1") for i in range(2**n)])
    h = random_hermitian(n, rng).entries
    return HermitianOperator(QubitRegister(n), np.where(ones[:, None] == ones[None, :], h, 0))


def assert_same_stacks(got, want):
    for (rows, columns, q), (rows_want, columns_want, q_want) in zip(got.stacks, want.stacks, strict=True):
        assert np.array_equal(rows, rows_want) and np.array_equal(columns, columns_want)
        assert q.dtype == q_want.dtype and q.tobytes() == q_want.tobytes()


def measured(h_initial, h_final, u):
    """The transition matrix of the drive u between two Hamiltonians."""
    return transition_matrix(spectral_decompose(h_initial), spectral_decompose(h_final), u)


def measured_specs(initial, final, u):
    """The transition matrix of the drive u between two Gibbs specs."""
    return transition_matrix(initial.spectrum, final.spectrum, u)


# ═══════════════════════════════════════════════════════════════════
# Transition matrices
# ═══════════════════════════════════════════════════════════════════


class TestTransitionMatrix:
    def test_doubly_stochastic_over_random_protocols(self, haar):
        rng = np.random.default_rng(42)
        for seed in range(20):
            n = 2 + seed % 2
            h_i, h_f = random_hermitian(n, rng), random_hermitian(n, rng)
            q = dense_transitions(measured(h_i, h_f, haar(QubitRegister(n), 1000 + seed)))
            assert np.max(np.abs(q.sum(axis=0) - 1.0)) < 1e-10
            assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-10
            assert np.min(q) >= -1e-14

    def test_identity_protocol_gives_identity_matrix(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.2, 1.9]))
        tm = measured(h, h, identity_on(1))
        assert np.max(np.abs(dense_transitions(tm) - np.eye(2))) < 1e-14

    def test_rejects_nonstochastic_matrix(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.0, 1.0]))
        dec = spectral_decompose(h)
        levels = np.arange(2)[None, :]
        with pytest.raises(NumericalCheckError):
            TransitionMatrix(((levels, levels, np.full((1, 2, 2), 0.75)),), dec, dec)

    def test_rejects_shape_mismatch(self):
        h1 = spectral_decompose(HermitianOperator(QubitRegister(1), SZ))
        levels = np.arange(4)[None, :]
        with pytest.raises(ValueError):
            TransitionMatrix(((levels, levels, np.eye(4)[None] / 1.0),), h1, h1)

    def test_takes_spectra_not_hamiltonians(self):
        h = HermitianOperator(QubitRegister(1), SZ)
        with pytest.raises(TypeError, match="SpectralDecomposition"):
            transition_matrix(h, h, identity_on(1))

    def test_refuses_a_unitary_on_another_register(self):
        dec = spectral_decompose(HermitianOperator(QubitRegister(1), SZ))
        with pytest.raises(ValueError, match="one register"):
            transition_matrix(dec, dec, identity_on(2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_unitary_gives_the_transitions_of_the_identity_matrix(self, n):
        # an undriven protocol between S^z-sector spectra, complex and real
        rng = np.random.default_rng(n)
        for part in (np.asarray, np.real):
            a, b = (sector_hamiltonian(n, rng) for _ in range(2))
            a, b = (spectral_decompose(HermitianOperator(h.register, part(h.entries))) for h in (a, b))
            assert len(a.stacks) == len(b.stacks) == (n + 2) // 2
            assert_same_stacks(transition_matrix(a, b, None), transition_matrix(a, b, identity_on(n)))

    @pytest.mark.parametrize("mixed_side", [0, 1])
    def test_no_unitary_between_spectra_of_different_blocks_is_the_identity_matrix(self, mixed_side):
        # an S^x term on site 1 makes one side one whole-register block
        rng = np.random.default_rng(3)
        sx = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(4))
        h = sector_hamiltonian(3, rng)
        sides = [spectral_decompose(sector_hamiltonian(3, rng)) for _ in range(2)]
        sides[mixed_side] = spectral_decompose(HermitianOperator(h.register, h.entries + 0.3 * sx))
        assert [len(side.stacks) for side in sides] == [1 + mixed_side, 2 - mixed_side]
        tm = transition_matrix(*sides, None)
        assert len(tm.stacks) == 1
        assert_same_stacks(tm, transition_matrix(*sides, identity_on(3)))

    def test_no_unitary_still_refuses_spectra_on_two_registers(self):
        rng = np.random.default_rng(5)
        one, two = (spectral_decompose(random_hermitian(n, rng)) for n in (1, 2))
        for pair in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="one register"):
                transition_matrix(*pair, None)


# ═══════════════════════════════════════════════════════════════════
# Closed-form averages
# ═══════════════════════════════════════════════════════════════════


class TestExponentialAverages:
    def test_single_qubit_two_temperature_value(self):
        # H = sz at beta 1 -> 2: the average is Z(2)/Z(1) = cosh(2)/cosh(1)
        h = HermitianOperator(QubitRegister(1), SZ)
        got = np.exp(log_work_average(measured(h, h, identity_on(1)), 1.0, 2.0))
        assert abs(got - 2.4381069959666024) < 1e-12
        assert abs(got - np.cosh(2.0) / np.cosh(1.0)) < 1e-12

    def test_zero_hamiltonians_average_to_one(self, haar):
        zero = HermitianOperator(QubitRegister(2), np.zeros((4, 4)))
        got = log_work_average(measured(zero, zero, haar(QubitRegister(2), 8)), 1.3, 0.7)
        assert abs(got) < 1e-13

    def test_jarzynski_matches_partition_ratio(self, haar):
        rng = np.random.default_rng(23)
        for seed in range(10):
            h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
            beta = float(rng.uniform(0.2, 2.0))
            expected = ThermalSpec(h_f, beta).log_partition - ThermalSpec(h_i, beta).log_partition
            got = log_work_average(measured(h_i, h_f, haar(QubitRegister(2), seed)), beta, beta)
            assert abs(got - expected) < 1e-12

    def test_protocol_independence(self, haar):
        # the average depends only on the endpoint spectra, never on U
        rng = np.random.default_rng(31)
        h_i, h_f = random_hermitian(3, rng), random_hermitian(3, rng)
        values = [
            log_work_average(measured(h_i, h_f, haar(QubitRegister(3), seed)), 1.1, 0.4)
            for seed in range(20)
        ]
        assert np.ptp(values) < 1e-12

    def test_degenerate_spectrum_basis_invariance(self, haar):
        # conjugating everything by a site permutation changes the arbitrary
        # eigenbasis chosen inside each degenerate block but not the average
        h_i = HermitianOperator(QubitRegister(2), np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
        rng = np.random.default_rng(4)
        h_f = random_hermitian(2, rng)
        u = haar(QubitRegister(2), 12)
        perm = np.zeros((4, 4))
        for idx, target in enumerate((0, 2, 1, 3)):  # swap the two qubits
            perm[target, idx] = 1.0
        h_i_p = HermitianOperator(QubitRegister(2), perm @ h_i.entries @ perm.T)
        h_f_p = HermitianOperator(QubitRegister(2), perm @ h_f.entries @ perm.T)
        u_p = UnitaryOperator(QubitRegister(2), perm @ u.entries @ perm.T)
        a = log_work_average(measured(h_i, h_f, u), 0.9, 1.7)
        b = log_work_average(measured(h_i_p, h_f_p, u_p), 0.9, 1.7)
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_a_nonpositive_or_nonfinite_beta(self, bad):
        # on either side, as a number and inside the sweep's axis of betas
        h = HermitianOperator(QubitRegister(1), SZ)
        tm = measured(h, h, identity_on(1))
        energies = tm.initial.eigenvalues
        for betas in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="inverse temperatures must be positive"):
                log_work_average(tm, *betas)
            for reader in (work_distribution, lambda *args: sample_tpm(*args, count=10, seed=1)):
                with pytest.raises(ValueError, match="inverse temperatures must be positive"):
                    reader(tm, *betas)
        with pytest.raises(ValueError, match="inverse temperatures must be positive"):
            _log_final_sums(tm, bad)
        axis = np.array([[0.5], [bad], [2.0]])
        with pytest.raises(ValueError, match="inverse temperatures must be positive"):
            _log_work_sum(energies[None, None, :], axis, _log_final_sums(tm, 1.0))

    def test_a_beta_axis_gives_each_point(self, haar):
        # the (B, T) call of the one routine is its one-point call at each point
        rng = np.random.default_rng(8)
        h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
        tm = measured(h_i, h_f, haar(QubitRegister(2), 2))
        # increasing shifts keep the levels in ascending order
        energies = tm.initial.eigenvalues + np.array([0.0, 0.5, 2.0])[:, None] * np.arange(4)
        betas = np.array([0.4, 1.0, 3.0])
        plane = _log_work_sum(energies[:, None, :], betas[:, None], _log_final_sums(tm, 1.7))
        assert plane.shape == (3, 3)
        for i, shifted in enumerate(energies):
            moved = dataclasses.replace(tm, initial=dataclasses.replace(tm.initial, eigenvalues=shifted))
            for j, beta in enumerate(betas):
                want = log_work_average(moved, beta, 1.7)
                assert abs(plane[i, j] - want) <= 1e-13 * max(1.0, abs(want))

    def test_mean_work_dominates_free_energy_difference(self, haar):
        # Jensen: <W> >= Delta F for every protocol at equal temperatures
        rng = np.random.default_rng(55)
        for seed in range(50):
            h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
            beta = float(rng.uniform(0.2, 2.0))
            initial = ThermalSpec(h_i, beta)
            final = ThermalSpec(h_f, beta)
            tm = measured_specs(initial, final, haar(QubitRegister(2), seed))
            wd = work_distribution(tm, beta, beta)
            delta_f = final.free_energy - initial.free_energy
            assert wd.mean_work() >= delta_f - 1e-12


class TestViaWork:
    def test_zero_for_identical_specs(self):
        h = HermitianOperator(QubitRegister(2), np.diag([0.0, 0.3, 0.9, 1.4]))
        spec = ThermalSpec(h, 1.2)
        assert abs(relative_entropy_via_work(spec, spec, measured_specs(spec, spec, identity_on(2)))) < 1e-13

    def test_matches_gibbs_identity_for_any_unitary(self, haar):
        rng = np.random.default_rng(61)
        h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
        initial = ThermalSpec(h_i, 0.9)
        final = ThermalSpec(h_f, 1.4)
        expected = gibbs_relative_entropy(initial, final)
        for u in (identity_on(2), haar(QubitRegister(2), 5), haar(QubitRegister(2), 9)):
            tm = measured_specs(initial, final, u)
            assert abs(relative_entropy_via_work(initial, final, tm) - expected) < 1e-12


class TestOneMatrixPerDrive:
    """Each reader takes the one transition matrix of a drive; the work
    route's relative entropy, the one reader that also takes Gibbs specs,
    refuses one measured between other spectra than its specs'."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.initial = ThermalSpec(random_hermitian(2, rng), 1.0)
        self.final = ThermalSpec(random_hermitian(2, rng), 0.5)
        self.other = ThermalSpec(random_hermitian(2, rng), 1.0)

    def test_a_matrix_of_other_spectra_is_refused(self, haar):
        reader = relative_entropy_via_work
        u = haar(QubitRegister(2), 4)
        initial, final, other = self.initial, self.final, self.other
        reader(initial, final, measured_specs(initial, final, u))
        for side, tm in (
            ("initial", measured_specs(other, final, u)),
            ("final", measured_specs(initial, other, u)),
            ("initial", measured_specs(final, initial, u)),
            ("initial", measured(SZ_OPERATOR, SZ_OPERATOR, identity_on(1))),
        ):
            with pytest.raises(ValueError, match=f"{side} spectrum"):
                reader(initial, final, tm)

    def test_one_matrix_serves_every_temperature(self, haar):
        # a spec at another beta on the same spectrum reads the same matrix
        tm = measured_specs(self.initial, self.final, haar(QubitRegister(2), 6))
        for beta in (0.3, 1.0, 4.0):
            initial = ThermalSpec(self.initial.hamiltonian, beta)
            want = gibbs_relative_entropy(initial, self.final)
            assert abs(relative_entropy_via_work(initial, self.final, tm) - want) < 1e-12


# ═══════════════════════════════════════════════════════════════════
# Work distributions
# ═══════════════════════════════════════════════════════════════════


class TestWorkDistribution:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.h_i = random_hermitian(2, rng)
        self.h_f = random_hermitian(2, rng)
        self.initial = ThermalSpec(self.h_i, 0.9)
        self.final = ThermalSpec(self.h_f, 1.4)

    def test_probabilities_sum_to_one(self, haar):
        tm = measured_specs(self.initial, self.final, haar(QubitRegister(2), 3))
        wd = work_distribution(tm, 0.9, 1.4)
        assert abs(wd.probability.sum() - 1.0) < 1e-12
        assert len(wd.probability) == 16

    def test_work_and_exponent_columns(self, haar):
        tm = measured_specs(self.initial, self.final, haar(QubitRegister(2), 3))
        wd = work_distribution(tm, 0.9, 1.4)
        assert np.allclose(wd.work, wd.energy_final - wd.energy_initial)
        equal_beta = work_distribution(measured_specs(self.initial, self.final, identity_on(2)), 0.9, 0.9)
        assert np.allclose(equal_beta.generalized_exponent, 0.9 * equal_beta.work)

    def test_weights_are_the_specs(self, haar):
        # p_n at beta_initial is the rule ThermalSpec.weights reads, bit for bit
        tm = measured_specs(self.initial, self.final, haar(QubitRegister(2), 3))
        probability = work_distribution(tm, 0.9, 1.4).probability.reshape(4, 4)
        assert probability.sum(axis=0).tobytes() == (self.initial.weights * tm.column_sums).tobytes()


# ═══════════════════════════════════════════════════════════════════
# Evolution operators
# ═══════════════════════════════════════════════════════════════════


NONCOMMUTING = DrivingSchedule(
    XXZParams(3, 1.0, 0.8, 0.3, boundary="open"),
    XXZParams(3, 1.0, 0.0, 0.3, boundary="open"),
    t_f=0.8,
    steps=200,
)


class TestEvolution:
    def test_exact_matches_midpoint_trotter_when_commuting(self):
        # the detection drive is linear and its Hamiltonians commute, so the
        # midpoint rule reproduces the exact time-ordered integral
        sched = dataclasses.replace(detection_protocol(3).schedule, steps=250)
        ue = exact_evolution(sched)
        um = trotter_evolution(sched, sampling="midpoint")
        assert np.max(np.abs(ue.entries - um.entries)) < 1e-9

    def test_exact_refuses_noncommuting_schedules(self):
        with pytest.raises(NumericalCheckError, match="trotter"):
            exact_evolution(NONCOMMUTING)

    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_exact_compares_the_endpoints_at_any_step_count(self, steps):
        # with one step the only slice start is t = 0, so H(0) must still be
        # compared with H(t_f); the closed form misses the ordered product by
        # about 0.055 here
        ramp = DrivingSchedule(
            XXZParams(4, J=1.0, Jz=0.9, B=0.2),
            XXZParams(4, J=0.3, Jz=0.0, B=0.9),
            t_f=1.0,
            steps=steps,
        )
        with pytest.raises(NumericalCheckError, match="trotter"):
            exact_evolution(ramp)

    @pytest.mark.parametrize("scale, commutes", [(0.5, True), (2.0, False)])
    def test_a_linear_ramp_is_judged_by_its_endpoints_commutator(self, scale, commutes):
        # J = 1 throughout while Jz ramps 0 -> eps, so [H_i, H_f] =
        # eps [H_xy, H_zz]; eps puts its largest entry at scale * COMMUTATION_ATOL.
        # Every other pair of slices has a smaller commutator, by (t - s)/t_f
        hopping, zz, _ = dense_chain_pieces(4, "periodic")
        largest = np.abs(hopping * zz[None, :] - zz[:, None] * hopping).max()
        eps = scale * COMMUTATION_ATOL / largest
        ramp = DrivingSchedule(XXZParams(4, 1.0, 0.0, 0.3), XXZParams(4, 1.0, eps, 0.3), steps=50)
        if commutes:
            exact_evolution(ramp)
        else:
            with pytest.raises(NumericalCheckError, match="do not commute"):
                exact_evolution(ramp)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_exact_evolution_matches_the_dense_propagator(self, n, boundary):
        # J and Jz keep their ratio, so every slice commutes with every other;
        # U = exp(-i t_f H) at the mean parameters of the ramp
        initial = XXZParams(n, 1.0, 0.4, 0.2, boundary)
        final = XXZParams(n, 0.5, 0.2, 0.9, boundary)
        schedule = DrivingSchedule(initial, final, t_f=1.7, steps=80)
        mean = XXZParams(n, 0.75, 0.3, 0.55, boundary)
        want = dense_propagator(dense_xxz(mean).entries, schedule.t_f)
        assert np.abs(exact_evolution(schedule).entries - want).max() <= 1e-12
        # no time, no evolution: the identity to the bit
        still = exact_evolution(dataclasses.replace(schedule, t_f=0.0))
        assert np.array_equal(still.entries, np.eye(2**n))

    def test_left_sampling_error_is_first_order(self):
        sched = dataclasses.replace(detection_protocol(3).schedule, steps=1000)
        ue = exact_evolution(sched)
        ul = trotter_evolution(sched, sampling="left")
        dev = np.max(np.abs(ul.entries - ue.entries))
        assert 1e-4 < dev < 1e-2  # O(dt) with dt = 1e-3
        um = trotter_evolution(sched, sampling="midpoint")
        assert np.max(np.abs(um.entries - ue.entries)) < dev / 1e4

    def test_step_zero_acts_first(self):
        sched = dataclasses.replace(NONCOMMUTING, steps=2)
        u = trotter_evolution(sched, sampling="left")
        u0, u1 = (
            dense_propagator(dense_xxz(params_at(sched, k * sched.dt)).entries, sched.dt)
            for k in (0, 1)
        )
        assert np.max(np.abs(u.entries - u1 @ u0)) < 1e-13
        assert np.max(np.abs(u.entries - u0 @ u1)) > 1e-2

    def test_trotter_output_is_unitary(self):
        sched = dataclasses.replace(NONCOMMUTING, steps=1000)
        u = trotter_evolution(sched)
        dev = np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(8)))
        assert dev < 1e-12

    def test_bad_sampling_name(self):
        with pytest.raises(ValueError):
            trotter_evolution(NONCOMMUTING, sampling="right")


# ═══════════════════════════════════════════════════════════════════
# Trajectory sampling
# ═══════════════════════════════════════════════════════════════════


class TestSampler:
    def setup_method(self):
        rng = np.random.default_rng(14)
        self.h_i = random_hermitian(2, rng)
        self.h_f = random_hermitian(2, rng)
        self.initial = ThermalSpec(self.h_i, 1.0)
        self.final = ThermalSpec(self.h_f, 1.0)
        self.tm = measured_specs(self.initial, self.final, identity_on(2))

    def test_different_seeds_differ(self):
        b1, _ = sample_tpm(self.tm, 1.0, 1.0, count=2000, seed=1)
        b2, _ = sample_tpm(self.tm, 1.0, 1.0, count=2000, seed=2)
        assert not np.array_equal(b1.m_index, b2.m_index)

    def test_summary_against_closed_form(self):
        _, summary = sample_tpm(self.tm, 1.0, 1.0, count=20000, seed=7)
        exact = np.exp(log_work_average(self.tm, 1.0, 1.0))
        assert abs(summary.exact - exact) < 1e-12
        assert summary.count == 20000
        assert abs(summary.z_score) < 5.0
        assert abs(summary.mean - exact) < 5.0 * summary.stderr

    def test_mean_is_the_sample_average(self):
        batch, summary = sample_tpm(self.tm, 1.0, 1.0, count=3000, seed=5)
        direct = float(np.mean(np.exp(-batch.generalized_exponent)))
        assert abs(summary.mean - direct) < 1e-12
        assert np.allclose(batch.work, batch.energy_final - batch.energy_initial)

    def test_stderr_shrinks_with_count(self):
        _, s3 = sample_tpm(self.tm, 1.0, 1.0, count=1000, seed=11)
        _, s4 = sample_tpm(self.tm, 1.0, 1.0, count=10000, seed=11)
        ratio = s3.stderr / s4.stderr
        assert 2.0 < ratio < 5.0  # sqrt(10) up to sampling noise

    def test_single_sample_has_no_error_bar(self):
        _, summary = sample_tpm(self.tm, 1.0, 1.0, count=1, seed=3)
        assert summary.stderr is None and summary.z_score is None

    @pytest.mark.parametrize("dim, beta", [(2, 1.0), (8, 0.3), (32, 4.0), (128, 10.0)])
    def test_column_search_matches_column_gather(self, haar, dim, beta):
        # the former sampler gathered cum_q[:, n_idx] (dim x block floats) and
        # counted entries <= u; the per-column binary search must pick the
        # same indices bit for bit
        n = int(np.log2(dim))
        rng = np.random.default_rng(dim)
        u = haar(QubitRegister(n), dim).entries
        cum_q = np.cumsum(np.abs(u) ** 2, axis=0)
        cum_q[-1, :] = 1.0
        gibbs = np.exp(-beta * np.sort(rng.normal(size=dim)))
        cum_initial = np.cumsum(gibbs / gibbs.sum())
        cum_initial[-1] = 1.0
        for seed, block, size in [(0, 0, 1), (3, 1, 1000), (12345, 4, SAMPLE_BLOCK)]:
            targets = [(np.arange(dim), np.ascontiguousarray(cum_q[:, n])) for n in range(dim)]
            n_idx, m_idx = _sample_block(seed, block, size, cum_initial, targets)

            stream = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
            )
            first = stream.random(size)
            want_n = np.minimum(np.searchsorted(cum_initial, first, side="right"), dim - 1)
            second = stream.random(size)
            columns = cum_q[:, want_n]
            want_m = np.minimum((columns <= second[None, :]).sum(axis=0), dim - 1)
            assert n_idx.tobytes() == want_n.astype(np.int16).tobytes()
            assert m_idx.tobytes() == want_m.astype(np.int16).tobytes()

    def test_a_draw_above_the_column_total_stays_in_its_block(self, monkeypatch):
        # the largest uniform draw below 1 lies above the rounded total of
        # some columns of q; it must land on an allowed transition of that
        # column's S^z block, not on the register's last level
        schedule = DrivingSchedule(XXZParams(4, 1.0, 0.8, 0.3), XXZParams(4, 1.0, 0.0, 0.7), steps=20)
        initial = ThermalSpec(build_xxz(schedule.initial), 1.0)
        final = ThermalSpec(build_xxz(schedule.final), 1.0)
        tm = measured_specs(initial, final, trotter_evolution(schedule))
        dim = 16
        cum = np.cumsum(initial.weights)
        first = 0.5 * (np.concatenate([[0.0], cum[:-1]]) + cum)  # one draw per level

        class Stub:
            """Hands out ``first``, then the largest double below 1."""

            def __init__(self, bit_generator):
                self.draws = iter([first, np.full(dim, np.nextafter(1.0, 0.0))])

            def random(self, size):
                return next(self.draws)

        monkeypatch.setattr(np.random, "Generator", Stub)
        batch, _ = sample_tpm(tm, 1.0, 1.0, count=dim, seed=0)
        assert batch.n_index.tolist() == list(range(dim))
        probability = work_distribution(tm, 1.0, 1.0).probability.reshape(dim, dim)
        assert np.all(probability[batch.m_index, batch.n_index] > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_tpm(self.tm, 1.0, 1.0, count=0, seed=1)

    @pytest.mark.parametrize("count, seed, field", [(True, 1, "count"), (10, True, "seed"), (10, False, "seed")])
    def test_refuses_a_bool_count_or_seed(self, count, seed, field):
        # a bool is an int to isinstance, but neither a draw count nor a seed
        with pytest.raises(ValueError, match=f"{field} must be a"):
            sample_tpm(self.tm, 1.0, 1.0, count=count, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4096),
    size=st.sampled_from([1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1]),
    occupied=st.integers(min_value=1, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_kernels_equal_the_sorts_they_replace(dim, size, occupied, seed):
    # draws crowd onto a few levels (a cold chain) or spread over all of them
    rng = np.random.default_rng(seed)
    levels = rng.choice(dim, size=min(occupied, dim), replace=False)
    n_index, m_index = (rng.choice(levels, size=size).astype(np.int16) for _ in range(2))
    assert np.array_equal(_radix_order(n_index), np.argsort(n_index.astype(np.int64), kind="stable"))
    first, inverse = _pair_groups(n_index, m_index)
    pairs = n_index.astype(np.int64) * dim + m_index
    _, want_first, want_inverse = np.unique(pairs, return_index=True, return_inverse=True)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse)


@pytest.mark.parametrize("size", [2, 3, 127, 128, 129, 1000, SAMPLE_BLOCK + 1, 200_000])
def test_the_in_place_moments_are_numpys_bit_for_bit(size):
    values = np.random.default_rng(size).lognormal(sigma=3.0, size=size)
    want = (float(values.mean()), float(values.std(ddof=1)))
    assert _mean_and_std(values.copy()) == want
