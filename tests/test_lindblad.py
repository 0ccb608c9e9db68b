import math
from collections import namedtuple

import numpy as np
import pytest

import spinheat.lindblad as lindblad
from spinheat.lindblad import (
    BathSpec,
    DissipatorStyle,
    bath_transitions,
    bose_einstein,
    global_transitions,
    standard_baths,
    thermal_rates,
)
from spinheat.oracle import (
    assemble_liouvillian,
    bath_dissipator,
    trace_row,
    unvectorize,
    vectorize,
)
from spinheat.spinops import (
    PAULI_X,
    ChainModel,
    SpectralDecomposition,
    SpinChainSpec,
    build_hamiltonian,
    embed_matrix,
    spectral_decompose,
)

ISING = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)


def ising_decomp():
    return spectral_decompose(build_hamiltonian(ISING))


def one_stack(decomp):
    return SpectralDecomposition(decomp.energies[None], decomp.eigenvectors[None])


Jump = namedtuple("Jump", "frequency matrix")


def global_jumps(decomp, site, n_spins):
    """The eigenbasis jumps of sigma^x on `site`, one per gap in ascending
    order: `global_transitions` on a 1-stack."""
    coupling = embed_matrix(PAULI_X, site, n_spins)
    frequencies, lowering = global_transitions(one_stack(decomp), coupling)
    assert not np.isnan(frequencies).any()  # a 1-stack has no padding
    return [Jump(*jump) for jump in zip(frequencies[0].tolist(), lowering[0])]


def global_bath(site, temperature, kappa=1.0):
    return BathSpec(site, temperature, kappa, DissipatorStyle.GLOBAL)


def local_bath(site, temperature, nu, kappa=1.0):
    return BathSpec(site, temperature, kappa, DissipatorStyle.LOCAL, nu)


class TestBoseEinstein:
    def test_zero_temperature(self):
        assert bose_einstein(1.0, 0.0) == 0.0

    def test_unit_occupation(self):
        assert bose_einstein(1.0, 1.0 / np.log(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_high_temperature_value(self):
        # frozen from 30-digit arithmetic of 1/(e^(1/10) - 1)
        assert bose_einstein(1.0, 10.0) == pytest.approx(9.508331944775050, rel=1e-12)

    def test_small_ratio_stable(self):
        # near-classical limit: n = T/w - 1/2 + w/(12 T) + O(w^3)
        for ratio in (1e-12, 1e-8, 1e-4):
            expected = 1.0 / ratio - 0.5 + ratio / 12.0
            assert bose_einstein(ratio, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_large_ratio_underflows_to_zero(self):
        assert bose_einstein(701.0, 1.0) == 0.0
        assert bose_einstein(699.0, 1.0) > 0.0

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            bose_einstein(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_einstein(-1.0, 1.0)
        with pytest.raises(ValueError):
            bose_einstein(1.0, -0.1)


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathSpec(0, -1.0, 1.0, DissipatorStyle.GLOBAL)
        with pytest.raises(ValueError):
            BathSpec(0, 1.0, 0.0, DissipatorStyle.GLOBAL)
        with pytest.raises(ValueError):
            BathSpec(0, 1.0, 1.0, DissipatorStyle.LOCAL)  # missing frequency
        with pytest.raises(ValueError):
            BathSpec(0, 1.0, 1.0, DissipatorStyle.LOCAL, -0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BathSpec(0, bad, 1.0, DissipatorStyle.GLOBAL)
        with pytest.raises(ValueError, match="finite"):
            BathSpec(0, 1.0, bad, DissipatorStyle.GLOBAL)
        with pytest.raises(ValueError, match="finite"):
            BathSpec(0, 1.0, 1.0, DissipatorStyle.LOCAL, bad)


class TestThermalRates:
    @pytest.mark.parametrize(
        "frequency, temperature", [(0.5, 0.3), (1.0, 1.0), (2.0, 5.0), (1.3, 0.05)]
    )
    def test_detailed_balance(self, frequency, temperature):
        emission, absorption = thermal_rates(1.0, temperature, frequency)
        assert absorption / emission == pytest.approx(np.exp(-frequency / temperature), rel=1e-12)

    def test_zero_temperature_only_emits(self):
        assert thermal_rates(0.7, 0.0, 1.5) == (0.7 * 1.5, 0.0)

    def test_zero_frequency_limit(self):
        assert thermal_rates(1.3, 0.8, 0.0) == (1.3 * 0.8, 1.3 * 0.8)
        assert thermal_rates(1.3, 0.8, 1e-9) == pytest.approx((1.3 * 0.8, 1.3 * 0.8), rel=1e-8)
        assert thermal_rates(1.0, 0.0, 0.0) == (0.0, 0.0)

    def test_array_law_is_the_scalar_law_bit_for_bit(self):
        def scalar_law(kappa, temperature, frequency):
            if frequency > 0:
                spectrum = kappa * frequency
                if temperature == 0 or frequency / temperature > 700.0:
                    occupation = 0.0
                else:
                    occupation = 1.0 / math.expm1(frequency / temperature)
                return spectrum * (1.0 + occupation), spectrum * occupation
            return kappa * temperature, kappa * temperature

        grid = np.geomspace(1e-4, 1e3, 71)
        frequency, temperature = np.meshgrid(grid, grid * 1.37)
        cases = [
            (0.7, 0.0, 1.5),  # zero temperature
            (1.3, 0.8, 0.0),  # zero frequency
            (1.0, 0.0, 0.0),
            (2.0, 1.0, 701.0),  # omega / T > 700
            (2.0, 1.0 / 701.0, 1.0),
            (0.9, 1.0, 700.0),
            (0.5, 1.0, 1e-12),  # omega / T near 1e-12
            (0.5, 1.3e3, 1.3e-9),
        ]
        cases += zip(np.geomspace(0.01, 10.0, grid.size**2), temperature.ravel(), frequency.ravel())
        kappa, temperature, frequency = map(np.array, zip(*cases))
        emission, absorption = thermal_rates(kappa, temperature, frequency)
        expected = np.array([scalar_law(*case) for case in zip(kappa, temperature, frequency)])
        assert np.stack([emission, absorption], axis=1).tobytes() == expected.tobytes()
        # an element does not depend on the array it comes in
        for p in (0, 3, 6, 100):
            alone = thermal_rates(kappa[p], temperature[p], frequency[p])
            assert np.array(alone).tobytes() == expected[p].tobytes()

    def test_only_ratios_up_to_the_cut_reach_expm1(self, monkeypatch):
        reached = []
        original = lindblad._EXPM1

        def expm1(x):
            reached.extend(x.tolist())
            return original(x)

        monkeypatch.setattr(lindblad, "_EXPM1", expm1)
        cut = lindblad._OVERFLOW_EXPONENT
        # (frequency, temperature): T = 0, ratios 1e-300, 700 and just past
        # it, and frequency 0
        cases = [(1.5, 0.0), (1e-300, 1.0), (cut, 1.0), (cut * (1 + 1e-15), 1.0)]
        cases += [(0.0, 0.8), (0.0, 0.0), (2.0, 3.0)]
        frequency, temperature = map(np.array, zip(*cases))
        emission, absorption = thermal_rates(0.7, temperature, frequency)
        assert reached == [1e-300, cut, 2.0 / 3.0]
        for p, (w, t) in enumerate(cases):
            if w == 0:
                expected = (0.7 * t, 0.7 * t)
            else:
                occupation = bose_einstein(w, t)
                expected = (0.7 * w * (1.0 + occupation), 0.7 * w * occupation)
            assert (emission[p], absorption[p]) == expected
            assert np.array(thermal_rates(0.7, t, w)).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("temperature", [-0.5, float("nan"), float("inf")])
    def test_refuses_what_it_is_not_defined_for(self, temperature):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thermal_rates(1.0, temperature, 1.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thermal_rates(np.ones(3), np.array([1.0, temperature, 0.0]), np.ones(3))

    @pytest.mark.parametrize("frequency", [0.0, 0.4, 2.0])
    def test_linear_in_kappa(self, frequency):
        unit = np.array(thermal_rates(1.0, 1.2, frequency))
        for kappa in (0.3, 2.0, 7.5):
            scaled = thermal_rates(kappa, 1.2, frequency)
            assert np.allclose(scaled, kappa * unit, rtol=1e-12, atol=0)


class TestGlobalJumpOperators:
    def test_left_coupling_two_operators(self):
        jumps = global_jumps(ising_decomp(), 0, 2)
        assert [j.frequency for j in jumps] == pytest.approx([0.5, 1.5])
        a_small = np.zeros((4, 4))
        a_small[3, 1] = 1.0  # |dd><ud|
        a_large = np.zeros((4, 4))
        a_large[2, 0] = 1.0  # |du><uu|
        by_freq = {round(j.frequency, 12): j.matrix for j in jumps}
        assert np.allclose(by_freq[0.5], a_small, atol=1e-12)
        assert np.allclose(by_freq[1.5], a_large, atol=1e-12)

    def test_right_coupling_single_degenerate_operator(self):
        jumps = global_jumps(ising_decomp(), 1, 2)
        assert len(jumps) == 1
        assert jumps[0].frequency == pytest.approx(0.5)
        expected = np.zeros((4, 4))
        expected[1, 0] = 1.0  # |ud><uu|
        expected[2, 3] = 1.0  # |du><dd|
        assert np.allclose(jumps[0].matrix, expected, atol=1e-12)

    def test_double_flip_transitions_absent(self):
        # the gap h = 1 connects only states differing on both spins, so no
        # operator survives at that frequency for either coupling
        for site in (0, 1):
            jumps = global_jumps(ising_decomp(), site, 2)
            assert all(abs(j.frequency - 1.0) > 1e-6 for j in jumps)

    @pytest.mark.parametrize(
        "spec",
        [
            ISING,
            SpinChainSpec(2, 1.0, 0.3, ChainModel.XY_TRANSVERSE),
            SpinChainSpec(3, 1.0, 1.0, ChainModel.XY_TRANSVERSE),
        ],
    )
    def test_completeness_of_frequency_grouping(self, spec):
        # transforming back to the eigenbasis, the jump operators plus their
        # adjoints plus the near-degenerate block reproduce the coupling
        H = build_hamiltonian(spec)
        decomp = spectral_decompose(H)
        jumps = global_jumps(decomp, 0, spec.n_spins)
        v = decomp.eigenvectors
        coupling_eig = v.conj().T @ embed_matrix(PAULI_X, 0, spec.n_spins) @ v
        total = np.zeros_like(coupling_eig)
        for j in jumps:
            a_eig = v.conj().T @ j.matrix @ v
            total += a_eig + a_eig.conj().T
        gaps = np.abs(decomp.energies[None, :] - decomp.energies[:, None])
        tol = 1e-9 * np.max(np.abs(decomp.energies))
        total += np.where(gaps <= tol, coupling_eig, 0.0)
        assert np.max(np.abs(total - coupling_eig)) < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            ISING,
            SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ),
            SpinChainSpec(2, 1.0, 0.3, ChainModel.XY_TRANSVERSE),
            SpinChainSpec(3, 1.0, 1.0, ChainModel.XY_TRANSVERSE),
            SpinChainSpec(4, 1.3, 0.4, ChainModel.XY_TRANSVERSE),
        ],
    )
    def test_matches_the_pairwise_loop(self, spec):
        # reference: every level pair with a positive gap, sorted by
        # (gap, i, j); a group takes each gap within tol of its first one.
        # The arithmetic is the same, so the results must agree exactly.
        decomp = spectral_decompose(build_hamiltonian(spec))
        e, v, d = decomp.energies, decomp.eigenvectors, decomp.dim
        tol = 1e-9 * np.max(np.abs(e))
        for site in (0, spec.n_spins - 1):
            coupling_eig = v.conj().T @ embed_matrix(PAULI_X, site, spec.n_spins) @ v
            pairs = sorted(
                (e[j] - e[i], i, j) for i in range(d) for j in range(d) if e[j] - e[i] > tol
            )
            groups = []
            for pair in pairs:
                if groups and pair[0] - groups[-1][0][0] <= tol:
                    groups[-1].append(pair)
                else:
                    groups.append([pair])
            expected = []
            for group in groups:
                a_eig = np.zeros((d, d), dtype=complex)
                for _, i, j in group:
                    a_eig[i, j] = coupling_eig[i, j]
                if np.max(np.abs(a_eig)) > 1e-12:
                    frequency = float(np.mean([gap for gap, _, _ in group]))
                    expected.append((frequency, v @ a_eig @ v.conj().T))
            jumps = global_jumps(decomp, site, spec.n_spins)
            assert [j.frequency for j in jumps] == [f for f, _ in expected]
            for jump, (_, matrix) in zip(jumps, expected):
                assert np.array_equal(jump.matrix, matrix)

    def test_matrices_connect_only_matching_gaps(self):
        spec = SpinChainSpec(3, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
        decomp = spectral_decompose(build_hamiltonian(spec))
        jumps = global_jumps(decomp, 0, 3)
        v = decomp.eigenvectors
        for j in jumps:
            a_eig = v.conj().T @ j.matrix @ v
            idx = np.argwhere(np.abs(a_eig) > 1e-12)
            for i, k in idx:
                gap = decomp.energies[k] - decomp.energies[i]
                assert gap == pytest.approx(j.frequency, abs=1e-9)


class TestGlobalDissipator:
    def test_zero_temperature_kills_ground_state(self):
        part = bath_dissipator(ising_decomp(), global_bath(0, 0.0))
        ground = np.zeros((4, 4), dtype=complex)
        ground[2, 2] = 1.0  # |du><du|, the lowest level
        assert np.max(np.abs(part @ vectorize(ground))) < 1e-14

    def test_decay_rate_from_top_level(self):
        # ohmic weight at the large gap: J(h + delta) = kappa * 1.5
        part = bath_dissipator(ising_decomp(), global_bath(0, 0.0))
        top = np.zeros((4, 4), dtype=complex)
        top[0, 0] = 1.0  # |uu><uu|
        drho = unvectorize(part @ vectorize(top), 4)
        assert drho[2, 2].real == pytest.approx(1.5)  # fills |du>
        assert drho[0, 0].real == pytest.approx(-1.5)

    def test_kappa_scales_linearly(self):
        one = bath_dissipator(ising_decomp(), global_bath(0, 1.0, kappa=1.0))
        three = bath_dissipator(ising_decomp(), global_bath(0, 1.0, kappa=3.0))
        assert np.allclose(three, 3.0 * one)

    def test_bath_driving_no_transition_gives_zero(self):
        # at delta = 0 the right spin of the Ising pair carries no field, so
        # sigma^x there connects only degenerate levels
        spec = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)
        decomp = spectral_decompose(build_hamiltonian(spec))
        bath = global_bath(1, 1.0)
        frequencies, lowering = bath_transitions(one_stack(decomp), bath)
        assert frequencies.shape == (1, 0) and lowering.shape == (1, 0, 4, 4)
        part = bath_dissipator(decomp, bath)
        assert part.shape == (16, 16)
        assert np.count_nonzero(part) == 0

    def test_transitions_are_the_eigenbasis_jumps(self):
        decomp = ising_decomp()
        jumps = global_jumps(decomp, 1, 2)
        frequencies, lowering = bath_transitions(one_stack(decomp), global_bath(1, 1.0))
        assert frequencies.shape == (1, len(jumps))
        assert frequencies[0].tolist() == [j.frequency for j in jumps]
        for matrix, jump in zip(lowering[0], jumps):
            assert np.array_equal(matrix, jump.matrix)


class TestLocalDissipator:
    def test_pure_decay_at_zero_temperature(self):
        part = bath_dissipator(ising_decomp(), local_bath(0, 0.0, 1.0))
        excited = np.zeros((4, 4), dtype=complex)
        excited[0, 0] = 1.0  # left spin up
        drho = unvectorize(part @ vectorize(excited), 4)
        assert drho[0, 0].real == pytest.approx(-1.0)
        assert drho[2, 2].real == pytest.approx(1.0)

    def test_zero_frequency_gives_symmetric_rates(self):
        part = bath_dissipator(ising_decomp(), local_bath(1, 2.0, 0.0))
        up = np.zeros((4, 4), dtype=complex)
        up[0, 0] = 1.0
        down = np.zeros((4, 4), dtype=complex)
        down[1, 1] = 1.0
        flip_down = unvectorize(part @ vectorize(up), 4)[1, 1].real
        flip_up = unvectorize(part @ vectorize(down), 4)[0, 0].real
        assert flip_down == pytest.approx(2.0)
        assert flip_up == pytest.approx(2.0)

    def test_zero_frequency_matches_small_frequency_limit(self):
        exact = bath_dissipator(ising_decomp(), local_bath(1, 2.0, 0.0))
        nearby = bath_dissipator(ising_decomp(), local_bath(1, 2.0, 1e-8))
        assert np.max(np.abs(exact - nearby)) < 1e-7

    def test_zero_frequency_zero_temperature_vanishes(self):
        part = bath_dissipator(ising_decomp(), local_bath(1, 0.0, 0.0))
        assert np.count_nonzero(part) == 0

    def test_transition_is_sigma_minus_on_the_site(self):
        transitions = bath_transitions(one_stack(ising_decomp()), local_bath(1, 2.0, 0.7))
        [[frequency]], [[lowering]] = transitions
        assert frequency == 0.7
        assert np.array_equal(lowering, np.kron(np.eye(2), [[0, 0], [1, 0]]))


class TestAssembleLiouvillian:
    def test_requires_baths(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(build_hamiltonian(ISING), [])

    def test_bath_site_out_of_range(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(build_hamiltonian(ISING), [global_bath(2, 1.0)])

    def test_unique_kernel_dimension(self):
        # 16x16 generator for the driven pair has a one-dimensional kernel
        L = assemble_liouvillian(
            build_hamiltonian(ISING), [global_bath(0, 1.0), global_bath(1, 0.5)]
        )
        s = np.linalg.svd(L.matrix, compute_uv=False)
        assert np.count_nonzero(s < 1e-9 * s[0]) == 1

    def test_trace_row_annihilation(self):
        H = build_hamiltonian(ISING)
        for baths in (
            [global_bath(0, 1.0), global_bath(1, 0.5)],
            standard_baths(ISING, 1.0, 1.0, 0.5, DissipatorStyle.LOCAL),
        ):
            L = assemble_liouvillian(H, baths)
            assert np.max(np.abs(trace_row(4) @ L.matrix)) < 1e-10

    def test_vanishing_coupling_leaves_coherent_spectrum(self):
        # with kappa -> 0 only the commutator part remains and eigenvalues
        # sit at +/- i times the transition frequencies
        L = assemble_liouvillian(
            build_hamiltonian(ISING),
            [global_bath(0, 1.0, kappa=1e-30), global_bath(1, 1.0, kappa=1e-30)],
        )
        eig = np.linalg.eigvals(L.matrix)
        assert np.max(np.abs(eig.real)) < 1e-10
        expected = sorted(
            (eb - ea)
            for ea in (-0.75, -0.25, 0.25, 0.75)
            for eb in (-0.75, -0.25, 0.25, 0.75)
        )
        assert np.allclose(sorted(eig.imag), expected, atol=1e-10)

    def test_parts_sum_to_matrix(self):
        L = assemble_liouvillian(
            build_hamiltonian(ISING), [global_bath(0, 1.0), global_bath(1, 0.5)]
        )
        assert np.allclose(L.h_part + sum(L.bath_parts), L.matrix)


class TestGeneratorInvariants:
    def random_liouvillian(self, rng):
        h = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.05, 0.95) * h
        style = (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL)[int(rng.integers(2))]
        spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
        baths = standard_baths(
            spec, rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), style
        )
        return assemble_liouvillian(build_hamiltonian(spec), baths)

    def test_trace_preservation_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = self.random_liouvillian(rng)
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = x + x.conj().T
            out = unvectorize(L.matrix @ vectorize(rho), 4)
            assert abs(np.trace(out)) < 1e-10

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            L = self.random_liouvillian(rng)
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            image = unvectorize(L.matrix @ vectorize(x), 4)
            image_dagger = unvectorize(L.matrix @ vectorize(x.conj().T), 4)
            assert np.max(np.abs(image.conj().T - image_dagger)) < 1e-10

    def test_spectrum_in_left_half_plane(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            L = self.random_liouvillian(rng)
            assert np.max(np.linalg.eigvals(L.matrix).real) <= 1e-10

    def test_global_part_preserves_eigenbasis_diagonal(self):
        rng = np.random.default_rng(10)
        L = assemble_liouvillian(
            build_hamiltonian(ISING), [global_bath(0, 1.3), global_bath(1, 0.4)]
        )
        for _ in range(5):
            rho = np.diag(rng.uniform(0.1, 1.0, size=4)).astype(complex)
            for part in L.bath_parts:
                out = unvectorize(part @ vectorize(rho), 4)
                offdiag = out - np.diag(np.diag(out))
                assert np.max(np.abs(offdiag)) < 1e-12


class TestStandardBaths:
    def test_ising_local_frequencies(self):
        left, right = standard_baths(ISING, 1.0, 2.0, 1.0, DissipatorStyle.LOCAL)
        assert (left.site, right.site) == (0, 1)
        assert left.local_frequency == pytest.approx(1.0)
        assert right.local_frequency == 0.0

    def test_xy_local_frequencies(self):
        spec = SpinChainSpec(4, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
        left, right = standard_baths(spec, 1.0, 2.0, 1.0, DissipatorStyle.LOCAL)
        assert (left.site, right.site) == (0, 3)
        assert left.local_frequency == pytest.approx(1.0)
        assert right.local_frequency == pytest.approx(1.0)
