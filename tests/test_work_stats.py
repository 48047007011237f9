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
    evolution_operator,
    exact_evolution,
    gibbs_relative_entropy,
    hamiltonian_at,
    jarzynski_average,
    log_jarzynski_average,
    log_tasaki_average,
    relative_entropy_via_work,
    sample_tpm,
    spectral_decompose,
    tasaki_average,
    transition_matrix,
    trotter_evolution,
    work_distribution,
)

from entwit.work_stats import SAMPLE_BLOCK, _sample_block

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(n, rng, scale=0.6):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(QubitRegister(n), scale * (a + a.conj().T) / 2)


def identity_on(n):
    return UnitaryOperator(QubitRegister(n), np.eye(2**n))


# ═══════════════════════════════════════════════════════════════════
# Transition matrices
# ═══════════════════════════════════════════════════════════════════


class TestTransitionMatrix:
    def test_doubly_stochastic_over_random_protocols(self, haar):
        rng = np.random.default_rng(42)
        for seed in range(20):
            n = 2 + seed % 2
            tm = transition_matrix(
                random_hermitian(n, rng),
                random_hermitian(n, rng),
                haar(QubitRegister(n), 1000 + seed),
            )
            assert np.max(np.abs(tm.q.sum(axis=0) - 1.0)) < 1e-10
            assert np.max(np.abs(tm.q.sum(axis=1) - 1.0)) < 1e-10
            assert np.min(tm.q) >= -1e-14

    def test_identity_protocol_gives_identity_matrix(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.2, 1.9]))
        tm = transition_matrix(h, h, identity_on(1))
        assert np.max(np.abs(tm.q - np.eye(2))) < 1e-14

    def test_rejects_nonstochastic_matrix(self):
        h = HermitianOperator(QubitRegister(1), np.diag([0.0, 1.0]))
        dec = spectral_decompose(h)
        with pytest.raises(NumericalCheckError):
            TransitionMatrix(np.full((2, 2), 0.75), dec, dec)

    def test_rejects_shape_mismatch(self):
        h1 = spectral_decompose(HermitianOperator(QubitRegister(1), SZ))
        with pytest.raises(ValueError):
            TransitionMatrix(np.eye(4) / 1.0, h1, h1)


# ═══════════════════════════════════════════════════════════════════
# Closed-form averages
# ═══════════════════════════════════════════════════════════════════


class TestExponentialAverages:
    def test_single_qubit_two_temperature_value(self):
        # H = sz at beta 1 -> 2: the average is Z(2)/Z(1) = cosh(2)/cosh(1)
        h = HermitianOperator(QubitRegister(1), SZ)
        got = tasaki_average(1.0, 2.0, h, h, identity_on(1))
        assert abs(got - 2.4381069959666024) < 1e-12
        assert abs(got - np.cosh(2.0) / np.cosh(1.0)) < 1e-12

    def test_zero_hamiltonians_average_to_one(self, haar):
        zero = HermitianOperator(QubitRegister(2), np.zeros((4, 4)))
        got = tasaki_average(1.3, 0.7, zero, zero, haar(QubitRegister(2), 8))
        assert abs(got - 1.0) < 1e-13

    def test_equal_betas_reduce_to_jarzynski(self, haar):
        rng = np.random.default_rng(10)
        h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
        u = haar(QubitRegister(2), 77)
        assert tasaki_average(0.8, 0.8, h_i, h_f, u) == jarzynski_average(0.8, h_i, h_f, u)

    def test_jarzynski_matches_partition_ratio(self, haar):
        rng = np.random.default_rng(23)
        for seed in range(10):
            h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
            beta = float(rng.uniform(0.2, 2.0))
            expected = ThermalSpec(h_f, beta).log_partition - ThermalSpec(h_i, beta).log_partition
            got = log_jarzynski_average(beta, h_i, h_f, haar(QubitRegister(2), seed))
            assert abs(got - expected) < 1e-12

    def test_protocol_independence(self, haar):
        # the average depends only on the endpoint spectra, never on U
        rng = np.random.default_rng(31)
        h_i, h_f = random_hermitian(3, rng), random_hermitian(3, rng)
        values = [
            log_tasaki_average(1.1, 0.4, h_i, h_f, haar(QubitRegister(3), seed))
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
        a = log_tasaki_average(0.9, 1.7, h_i, h_f, u)
        b = log_tasaki_average(0.9, 1.7, h_i_p, h_f_p, u_p)
        assert abs(a - b) < 1e-10

    def test_rejects_nonpositive_beta(self):
        h = HermitianOperator(QubitRegister(1), SZ)
        with pytest.raises(ValueError):
            tasaki_average(0.0, 1.0, h, h, identity_on(1))
        with pytest.raises(ValueError):
            jarzynski_average(-1.0, h, h, identity_on(1))

    def test_mean_work_dominates_free_energy_difference(self, haar):
        # Jensen: <W> >= Delta F for every protocol at equal temperatures
        rng = np.random.default_rng(55)
        for seed in range(50):
            h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
            beta = float(rng.uniform(0.2, 2.0))
            initial = ThermalSpec(h_i, beta)
            final = ThermalSpec(h_f, beta)
            wd = work_distribution(initial, final, haar(QubitRegister(2), seed))
            delta_f = final.free_energy - initial.free_energy
            assert wd.mean_work() >= delta_f - 1e-12


class TestViaWork:
    def test_zero_for_identical_specs(self):
        h = HermitianOperator(QubitRegister(2), np.diag([0.0, 0.3, 0.9, 1.4]))
        spec = ThermalSpec(h, 1.2)
        assert abs(relative_entropy_via_work(spec, spec, identity_on(2))) < 1e-13

    def test_matches_gibbs_identity_for_any_unitary(self, haar):
        rng = np.random.default_rng(61)
        h_i, h_f = random_hermitian(2, rng), random_hermitian(2, rng)
        initial = ThermalSpec(h_i, 0.9)
        final = ThermalSpec(h_f, 1.4)
        expected = gibbs_relative_entropy(initial, final)
        for u in (identity_on(2), haar(QubitRegister(2), 5), haar(QubitRegister(2), 9)):
            assert abs(relative_entropy_via_work(initial, final, u) - expected) < 1e-12


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
        wd = work_distribution(self.initial, self.final, haar(QubitRegister(2), 3))
        assert abs(wd.probability.sum() - 1.0) < 1e-12
        assert len(wd.probability) == 16

    def test_log_average_matches_closed_form(self, haar):
        u = haar(QubitRegister(2), 3)
        wd = work_distribution(self.initial, self.final, u)
        expected = log_tasaki_average(0.9, 1.4, self.h_i, self.h_f, u)
        assert abs(wd.log_exponential_average() - expected) < 1e-12

    def test_work_and_exponent_columns(self, haar):
        wd = work_distribution(self.initial, self.final, haar(QubitRegister(2), 3))
        assert np.allclose(wd.work, wd.energy_final - wd.energy_initial)
        equal_beta = work_distribution(
            ThermalSpec(self.h_i, 0.9), ThermalSpec(self.h_f, 0.9), identity_on(2)
        )
        assert np.allclose(equal_beta.generalized_exponent, 0.9 * equal_beta.work)


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
        u0 = evolution_operator(hamiltonian_at(sched, 0), sched.dt)
        u1 = evolution_operator(hamiltonian_at(sched, 1), sched.dt)
        assert np.max(np.abs(u.entries - u1.entries @ u0.entries)) < 1e-13
        assert np.max(np.abs(u.entries - u0.entries @ u1.entries)) > 1e-2

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
        self.u = identity_on(2)

    def test_deterministic_across_worker_counts(self):
        b1, s1 = sample_tpm(self.initial, self.final, self.u, count=5000, seed=99, workers=1)
        b2, s2 = sample_tpm(self.initial, self.final, self.u, count=5000, seed=99, workers=2)
        assert np.array_equal(b1.work, b2.work)
        assert np.array_equal(b1.n_index, b2.n_index)
        assert s1.mean == s2.mean and s1.stderr == s2.stderr

    def test_different_seeds_differ(self):
        b1, _ = sample_tpm(self.initial, self.final, self.u, count=2000, seed=1)
        b2, _ = sample_tpm(self.initial, self.final, self.u, count=2000, seed=2)
        assert not np.array_equal(b1.m_index, b2.m_index)

    def test_summary_against_closed_form(self):
        _, summary = sample_tpm(self.initial, self.final, self.u, count=20000, seed=7)
        exact = tasaki_average(1.0, 1.0, self.h_i, self.h_f, self.u)
        assert abs(summary.exact - exact) < 1e-12
        assert summary.count == 20000
        assert abs(summary.z_score) < 5.0
        assert abs(summary.mean - exact) < 5.0 * summary.stderr

    def test_mean_is_the_sample_average(self):
        batch, summary = sample_tpm(self.initial, self.final, self.u, count=3000, seed=5)
        direct = float(np.mean(np.exp(-batch.generalized_exponent)))
        assert abs(summary.mean - direct) < 1e-12
        assert np.allclose(batch.work, batch.energy_final - batch.energy_initial)

    def test_stderr_shrinks_with_count(self):
        _, s3 = sample_tpm(self.initial, self.final, self.u, count=1000, seed=11)
        _, s4 = sample_tpm(self.initial, self.final, self.u, count=10000, seed=11)
        ratio = s3.stderr / s4.stderr
        assert 2.0 < ratio < 5.0  # sqrt(10) up to sampling noise

    def test_single_sample_has_no_error_bar(self):
        _, summary = sample_tpm(self.initial, self.final, self.u, count=1, seed=3)
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
            payload = (seed, block, size, cum_initial, cum_q)
            n_idx, m_idx = _sample_block(payload)

            stream = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
            )
            first = stream.random(size)
            want_n = np.minimum(np.searchsorted(cum_initial, first, side="right"), dim - 1)
            second = stream.random(size)
            columns = cum_q[:, want_n]
            want_m = np.minimum((columns <= second[None, :]).sum(axis=0), dim - 1)
            assert n_idx.tobytes() == want_n.astype(np.int64).tobytes()
            assert m_idx.tobytes() == want_m.astype(np.int64).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_tpm(self.initial, self.final, self.u, count=0, seed=1)
        with pytest.raises(ValueError):
            sample_tpm(self.initial, self.final, self.u, count=10, seed=1, workers=0)
