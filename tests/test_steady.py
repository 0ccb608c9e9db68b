from fractions import Fraction

import numpy as np
import pytest

from spinheat import oracle, rates
from spinheat.lindblad import DissipatorStyle, standard_baths
from spinheat.oracle import (
    CrossValidationError,
    Liouvillian,
    assemble_liouvillian,
    cross_validate,
    steady_state_nullspace,
    steady_state_rate_equations,
)
from spinheat.spinops import (
    ChainModel,
    SpinChainSpec,
    build_hamiltonian,
    spectral_decompose,
)
from spinheat.steady import SteadyStateError, _kernel_vector

ISING = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)


def solve_global(spec, t_left, t_right, kappa=1.0):
    H = build_hamiltonian(spec)
    baths = standard_baths(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
    return steady_state_nullspace(assemble_liouvillian(H, baths))


def gibbs_state(spec, temperature):
    decomp = spectral_decompose(build_hamiltonian(spec))
    weights = np.exp(-decomp.energies / temperature)
    diag = np.diag(weights / weights.sum()).astype(complex)
    v = decomp.eigenvectors
    return v @ diag @ v.conj().T


class TestNullspaceSolver:
    @pytest.mark.parametrize("temperature", [0.2, 1.0, 5.0])
    def test_equal_temperatures_give_gibbs(self, temperature):
        state = solve_global(ISING, temperature, temperature)
        assert np.max(np.abs(state.rho - gibbs_state(ISING, temperature))) < 1e-8
        assert state.kernel_dim == 1

    def test_zero_temperatures_give_ground_state(self):
        state = solve_global(ISING, 0.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0  # |du>, the lowest level
        assert np.max(np.abs(state.rho - expected)) < 1e-10

    def test_state_is_valid_density_matrix(self):
        for t_left, t_right in ((0.0, 0.0), (2.0, 1.0), (1e4, 0.0), (0.1, 10.0)):
            state = solve_global(ISING, t_left, t_right)
            assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(state.rho - state.rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(state.rho).min() > -1e-10
            assert state.residual < 1e-9
            assert abs(sum(state.bath_currents)) < 1e-9

    def test_degenerate_kernel_reported_for_decoupled_chain(self):
        # at delta = 0 the right bath drives nothing and the chain splits
        spec = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)
        state = solve_global(spec, 1.0, 1.0)
        assert state.kernel_dim > 1
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state.rho).min() > -1e-10

    def test_degenerate_kernel_for_dead_local_bath(self):
        baths = standard_baths(ISING, 1.0, 1.0, 0.0, DissipatorStyle.LOCAL)
        state = steady_state_nullspace(
            assemble_liouvillian(build_hamiltonian(ISING), baths)
        )
        assert state.kernel_dim > 1  # right spin is frozen at nu = 0, T = 0

    def test_empty_kernel_raises(self):
        fake = Liouvillian(
            dim=2,
            matrix=np.eye(4, dtype=complex),
            h_part=np.eye(4, dtype=complex),
            bath_parts=(),
            hamiltonian=np.eye(2, dtype=complex),
        )
        with pytest.raises(SteadyStateError):
            steady_state_nullspace(fake)


class TestRateEquations:
    def test_equilibrium_gibbs_weights_and_zero_cycle(self):
        for t in (0.5, 1.0, 4.0):
            populations, rates = steady_state_rate_equations(1.0, 0.5, 1.0, t, t)
            energies = np.array([-0.75, -0.25, 0.25, 0.75])
            weights = np.exp(-energies / t)
            assert np.allclose(populations, weights / weights.sum(), atol=1e-12)
            assert abs(rates.cycle_gamma) < 1e-12

    def test_hot_cold_limit_of_cycle_rate(self):
        # infinite temperature represented numerically by 1e6 * h
        for delta, kappa in ((0.5, 1.0), (0.1, 2.0)):
            _, rates = steady_state_rate_equations(1.0, delta, kappa, 1e6, 0.0)
            assert rates.cycle_gamma == pytest.approx(-kappa * delta / 4.0, rel=1e-5)

    def test_cold_left_bath_blocks_cycle(self):
        for t_right in (0.5, 2.0, 10.0):
            _, rates = steady_state_rate_equations(1.0, 0.5, 1.0, 0.0, t_right)
            assert abs(rates.cycle_gamma) < 1e-15

    def test_all_net_rates_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = rng.uniform(0.5, 2.0)
            delta = rng.uniform(0.05, 0.95) * h
            _, rates = steady_state_rate_equations(
                h, delta, rng.uniform(0.5, 2.0), rng.uniform(0, 5), rng.uniform(0, 5)
            )
            values = (rates.gamma_41_L, rates.gamma_23_L, rates.gamma_12_R, rates.gamma_34_R)
            assert np.max(np.abs(np.diff(values))) < 1e-10
            assert rates.cycle_gamma == rates.gamma_23_L

    def test_populations_normalized_and_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            populations, _ = steady_state_rate_equations(
                1.0, rng.uniform(0.05, 0.95), 1.0, rng.uniform(0, 5), rng.uniform(0, 5)
            )
            assert populations.sum() == pytest.approx(1.0, abs=1e-12)
            assert populations.min() > -1e-12

    def test_cycle_rate_monotone_in_left_temperature(self):
        grid = np.linspace(0.1, 10.0, 25)
        magnitudes = [
            abs(steady_state_rate_equations(1.0, 0.5, 1.0, t, 0.0)[1].cycle_gamma)
            for t in grid
        ]
        assert np.all(np.diff(magnitudes) >= -1e-12)

    @pytest.mark.parametrize(
        "kappa, t_left, t_right",
        [(1.0, np.nan, 1.0), (1.0, 1.0, -0.5), (1.0, np.inf, 1.0), (0.0, 1.0, 1.0), (np.nan, 1.0, 1.0)],
        ids=["nan-TL", "negative-TR", "inf-TL", "zero-kappa", "nan-kappa"],
    )
    def test_refuses_what_the_rate_law_is_not_defined_for(self, kappa, t_left, t_right):
        with pytest.raises(ValueError, match="must be finite"):
            steady_state_rate_equations(1.0, 0.5, kappa, t_left, t_right)

    def test_requires_coupling_below_field(self):
        with pytest.raises(ValueError):
            steady_state_rate_equations(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            steady_state_rate_equations(1.0, 0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kappa", [1e-12, 1e-300])
    def test_only_the_net_rates_scale_with_kappa(self, kappa):
        unit_populations, unit_rates = steady_state_rate_equations(1.0, 0.5, 1.0, 2.0, 0.5)
        populations, rates = steady_state_rate_equations(1.0, 0.5, kappa, 2.0, 0.5)
        assert np.array_equal(populations, unit_populations)
        assert rates.cycle_gamma == pytest.approx(kappa * unit_rates.cycle_gamma, rel=1e-14)

    def test_singular_rate_matrix_raises(self):
        # at T_R = 0 the right bath's rates, of order delta = 1e-17, vanish
        # against the left bath's, and the cycle splits into two pairs
        with pytest.raises(SteadyStateError, match="rank 3 of 4"):
            steady_state_rate_equations(1.0, 1e-17, 1.0, 1.0, 0.0)


class TestCrossValidation:
    def test_moderate_temperatures(self):
        report = cross_validate(1.0, 0.5, 1.0, 2.0, 1.0)
        assert report.population_deviation < 1e-8
        assert report.coherence_max < 1e-10

    def test_zero_temperatures_ground_state(self):
        report = cross_validate(1.0, 0.5, 1.0, 0.0, 0.0)
        assert report.population_deviation < 1e-10

    def test_near_degenerate_stress_case(self):
        report = cross_validate(1.0, 0.99, 1.0, 5.0, 0.1)
        assert report.population_deviation < 1e-8

    def test_detects_disagreement(self, monkeypatch):
        monkeypatch.setattr(oracle, "POPULATION_TOL", 1e-18)
        with pytest.raises(CrossValidationError):
            cross_validate(1.0, 0.5, 1.0, 2.0, 1.0)


def _random_rate_matrices(size, seed):
    """A (size, 4, 4) stack of rate matrices, rates log-uniform over
    1e-14..1e2 with four in ten edges dropped, and their generators."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-14.0, 2.0, (size, 4, 4)) * (rng.random((size, 4, 4)) < 0.6)
    levels = np.arange(4)
    w[:, levels, levels] = 0.0
    generator = w.copy()
    generator[:, levels, levels] -= w.sum(axis=1)
    return w, generator


def _exact_tree_sums(w):
    """The principal 3 x 3 minors of -G in exact arithmetic, which the
    matrix-tree theorem equates with the tree sums of the float rates `w`."""
    exact = [[Fraction(float(x)) for x in row] for row in w]
    laplacian = [
        [sum(exact[k][j] for k in range(4) if k != j) if i == j else -exact[i][j] for j in range(4)]
        for i in range(4)
    ]
    minors = []
    for root in range(4):
        (a, b, c), (d, e, f), (g, h, i) = (
            [laplacian[r][col] for col in range(4) if col != root] for r in range(4) if r != root
        )
        minors.append(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    return minors


class TestTreeSum:
    W, GENERATOR = _random_rate_matrices(20000, seed=1701)
    POPULATIONS, CERTIFIED = rates._tree_sum(W, GENERATOR)

    def test_both_paths_are_drawn(self):
        assert 0.2 < self.CERTIFIED.mean() < 0.8

    def test_certified_members_have_a_one_dimensional_kernel(self):
        _, kernel_dim = _kernel_vector(self.GENERATOR[self.CERTIFIED], np.full(4, 0.25))
        assert (kernel_dim == 1).all()

    def test_certified_populations_are_the_kernel_vector(self):
        # a kernel vector from the SVD is accurate to about eps s1 / s3
        generator = self.GENERATOR[self.CERTIFIED]
        vectors, _ = _kernel_vector(generator, np.full(4, 0.25))
        from_svd = vectors / vectors.sum(axis=1)[:, None]
        populations = self.POPULATIONS[self.CERTIFIED]
        from_trees = populations / populations.sum(axis=1)[:, None]
        s = np.linalg.svd(generator, compute_uv=False)
        bound = 100 * np.finfo(float).eps * s[:, 0] / s[:, 2]
        assert (np.abs(from_trees - from_svd).max(axis=1) <= bound).all()

    def test_populations_are_the_exact_tree_sums_within_a_few_ulps(self):
        # two roundings per product, four per sum of 16, three for the
        # total and one for the division bound the error by about 16 ulps
        for m in np.flatnonzero(self.CERTIFIED)[:300]:
            exact = _exact_tree_sums(self.W[m])
            populations = self.POPULATIONS[m] / self.POPULATIONS[m].sum()
            for value, tree_sum in zip(populations.tolist(), exact):
                target = tree_sum / sum(exact)
                if target == 0:
                    assert value == 0.0
                    continue
                ulp = Fraction(np.spacing(float(target)))
                assert abs(Fraction(value) - target) <= 16 * ulp, (m, value, float(target))

