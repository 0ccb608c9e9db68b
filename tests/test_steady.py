from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import lindblad, oracle, rates
from spinheat.lindblad import DEGENERACY_TOL, DissipatorStyle, standard_baths
from spinheat.oracle import (
    CrossValidationError,
    Liouvillian,
    _kernel_vector,
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
from spinheat.steady import KERNEL_RTOL, SteadyState, SteadyStateError
from spinheat.thermo import steady_net_current

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

    def test_degenerate_complex_kernels_are_projected_member_by_member(self):
        # the oracle's generators: two degenerate kernels around a unique one
        decoupled = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)
        cases = [
            (ISING, 1.0, 0.0, DissipatorStyle.LOCAL),
            (ISING, 2.0, 1.0, DissipatorStyle.GLOBAL),
            (decoupled, 1.0, 1.0, DissipatorStyle.GLOBAL),
        ]
        generators = np.array([
            assemble_liouvillian(build_hamiltonian(spec), standard_baths(spec, 1.0, *point)).matrix
            for spec, *point in cases
        ])
        kernel_dim = assert_kernel_projection(generators, oracle.vectorize(np.eye(4) / 4))
        assert list(kernel_dim > 1) == [True, False, True]

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


def assert_kernel_projection(matrices, mixed):
    """`_kernel_vector` on a stack gives each member the vector of its own
    1-stack, bit for bit, and within 1e-15 (relative) of the projection
    basis @ (basis^H @ mixed) onto the member's kernel rows of vh; returns
    the kernel dimensions."""
    vectors, kernel_dim = _kernel_vector(matrices, mixed)
    _, s, vh = np.linalg.svd(matrices)
    for p, matrix in enumerate(matrices):
        alone, alone_dim = _kernel_vector(matrix[None], mixed)
        assert vectors[p].tobytes() == alone[0].tobytes()
        assert alone_dim[0] == kernel_dim[p]
        if kernel_dim[p] == 1:
            assert vectors[p].tobytes() == vh[p, -1].conj().tobytes()
            continue
        basis = vh[p][s[p] < KERNEL_RTOL * s[p, 0]].conj().T  # columns span the kernel
        expected = basis @ (basis.conj().T @ mixed)
        assert np.abs(vectors[p] - expected).max() <= 1e-15 * np.abs(expected).max()
    return kernel_dim


# the 8 cycle rates of the rate route, forward along each edge of the cycle
# and back, as flat indices i * 4 + j of a rate matrix (j to i)
CYCLE_EDGES = np.concatenate(
    [rates._HEADS * 4 + rates._CYCLE, rates._CYCLE * 4 + rates._HEADS]
)


def _rate_matrices(cycle_rates):
    """The (P, 4, 4) rate matrices of an (8, P) stack of cycle rates, entry
    (i, j) moving population from level j to level i, and their generators."""
    w = np.zeros((cycle_rates.shape[1], 16))
    w[:, CYCLE_EDGES] = cycle_rates.T
    w = w.reshape(-1, 4, 4)
    levels = np.arange(4)
    generator = w.copy()
    generator[:, levels, levels] -= w.sum(axis=1)
    return w, generator


def _random_cycle_rates(size, seed):
    """An (8, size) stack of cycle rates, log-uniform over 1e-14..1e2 with
    four in ten dropped."""
    rng = np.random.default_rng(seed)
    drawn = 10.0 ** rng.uniform(-14.0, 2.0, (size, 8)) * (rng.random((size, 8)) < 0.6)
    return np.ascontiguousarray(drawn.T)


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


def dense_ising_state(L):
    """The dense oracle's state of the Ising pair's generator `L`, except
    where its kernel rule is at fault: where it reports a degenerate
    kernel although the population block of `L` has one closed class (the
    exact tree sums of the block have a positive total), the state of
    those sums, with the currents and residual `L` gives it."""
    state = steady_state_nullspace(L)
    block = np.real(L.matrix[::5, ::5])  # the rows and columns of the rho_ii
    tree_sums = _exact_tree_sums(block - np.diag(np.diag(block)))
    if state.kernel_dim == 1 or sum(tree_sums) == 0:
        return state
    rho = np.diag([float(t / sum(tree_sums)) for t in tree_sums]).astype(complex)
    return SteadyState(
        rho=rho,
        residual=float(np.linalg.norm(L.matrix @ oracle.vectorize(rho))),
        kernel_dim=1,
        bath_currents=L.bath_currents(rho),
    )


def _sixteen_arc_cut_cycles(cycle_rates):
    """`rates._cut_cycles` by the direct rule on all 16 arcs, forming every
    arc's in-trees: the reference of its closed-arc table."""
    size = cycle_rates.shape[1]
    extended = np.vstack([cycle_rates, np.ones(size), np.zeros(size)])
    closed = (extended[rates._ARC_LEAVING] == 0).all(axis=1)
    closed &= (extended[rates._ARC_INSIDE] > 0).all(axis=1)
    trees = rates._tree_sum(extended, rates._ARC_TREES[:, None])
    largest = np.where(closed, trees.max(axis=1), 1.0)
    trees = np.where(closed[:, None], trees / largest[:, None], 0.0)
    weight = trees.sum(axis=1) / np.where(closed, (trees**2).sum(axis=1), 1.0)
    lost = (largest < np.finfo(float).tiny).any(axis=0)
    return closed.sum(axis=0), (weight[:, None] * trees).sum(axis=0), lost


class TestTreeSum:
    RATES = _random_cycle_rates(20000, seed=1701)
    W, GENERATOR = _rate_matrices(RATES)
    POPULATIONS = rates._tree_sum(RATES)
    ONE_CLASS = POPULATIONS.sum(axis=0) > 0

    def test_one_closed_class_and_cut_cycles_are_drawn(self):
        assert 0.2 < self.ONE_CLASS.mean() < 0.8

    def test_tree_products_are_the_bits_of_prod(self):
        # rates of zero, subnormal, ordinary and 1e300 scale: products that
        # underflow, overflow and meet 0 * inf
        rng = np.random.default_rng(1919)
        exponents = rng.choice([-318.0, -310.0, -8.0, 0.0, 2.0, 299.0, 300.0], (4000, 8))
        w = rng.uniform(1.0, 10.0, exponents.shape) * 10.0**exponents
        w *= rng.random(w.shape) < 0.8
        w = np.ascontiguousarray(w.T)
        with np.errstate(over="ignore", invalid="ignore"):
            populations = rates._tree_sum(w)
            edges = np.take(w, rates._TREES, axis=0)
            expected = edges.prod(axis=0).sum(axis=0)
        assert populations.tobytes() == expected.tobytes()
        assert np.isnan(expected).any() and np.isinf(expected).any()
        finite = expected[np.isfinite(expected)]
        assert ((0 < finite) & (finite < np.finfo(float).tiny)).any()  # subnormal

    def test_one_class_populations_are_the_kernel_vector(self):
        # a kernel vector from the SVD is accurate to about eps s1 / s3,
        # where the SVD rule finds the one-dimensional kernel
        vectors, kernel_dim = _kernel_vector(self.GENERATOR[self.ONE_CLASS], np.full(4, 0.25))
        found = kernel_dim == 1
        assert found.mean() > 0.5
        from_svd = vectors[found] / vectors[found].sum(axis=1)[:, None]
        populations = self.POPULATIONS[:, self.ONE_CLASS][:, found].T
        from_trees = populations / populations.sum(axis=1)[:, None]
        s = np.linalg.svd(self.GENERATOR[self.ONE_CLASS][found], compute_uv=False)
        bound = 100 * np.finfo(float).eps * s[:, 0] / s[:, 2]
        assert (np.abs(from_trees - from_svd).max(axis=1) <= bound).all()

    def test_cut_cycles_are_the_projected_kernel_vector(self):
        # where the SVD rule finds as many kernel vectors as closed classes,
        # the projection of the uniform vector onto them, as accurate as
        # eps s1 / s, s the smallest singular value above the kernel
        cut = ~self.ONE_CLASS & self.RATES.any(axis=0)
        classes, projected, lost = rates._cut_cycles(self.RATES[:, cut])
        projected = projected.T
        assert (classes > 1).all() and not lost.any()
        vectors, kernel_dim = _kernel_vector(self.GENERATOR[cut], np.full(4, 0.25))
        found = kernel_dim == classes
        assert found.mean() > 0.5
        from_svd = vectors[found] / vectors[found].sum(axis=1)[:, None]
        from_classes = projected[found] / projected[found].sum(axis=1)[:, None]
        s = np.linalg.svd(self.GENERATOR[cut][found], compute_uv=False)
        above = np.take_along_axis(s, 3 - classes[found, None], axis=1)[:, 0]
        bound = 100 * np.finfo(float).eps * s[:, 0] / above
        assert (np.abs(from_classes - from_svd).max(axis=1) <= bound).all()

    def test_closed_arc_table_is_the_direct_rule(self):
        # rates at each zero pattern, of sizes that vary across the patterns
        patterns = (np.arange(256)[:, None] >> np.arange(8)) & 1
        cycle = patterns * 10.0 ** np.random.default_rng(7).uniform(-300.0, 300.0, (256, 8))
        extended = np.column_stack([cycle, np.ones(256), np.zeros(256)])
        direct = (extended[:, rates._ARC_LEAVING] == 0).all(axis=2)
        direct &= (extended[:, rates._ARC_INSIDE] > 0).all(axis=2)
        assert np.array_equal(rates._CLOSED_ARCS, direct)
        key = np.packbits(cycle != 0, axis=1, bitorder="little")[:, 0]
        assert np.array_equal(rates._CLOSED_ARCS[key], direct)

    def test_cut_cycles_are_the_sixteen_arc_form(self):
        # on every draw, on the cut cycles alone, and on stacks that close
        # only a few arcs, the cut cycles are the bits of the rule that
        # forms all 16 arcs' in-trees
        cut = ~self.ONE_CLASS & self.RATES.any(axis=0)
        for stack in (self.RATES, self.RATES[:, cut], self.RATES[:, cut][:, :3], self.RATES[:, :0]):
            for ours, reference in zip(rates._cut_cycles(stack), _sixteen_arc_cut_cycles(stack)):
                assert ours.tobytes() == reference.tobytes()

    def test_populations_are_the_exact_tree_sums_within_a_few_ulps(self):
        # two roundings per product, three per sum of 4 trees, three for
        # the total and one for the division bound the error by about 9 ulps
        for m in np.flatnonzero(self.ONE_CLASS)[:300]:
            exact = _exact_tree_sums(self.W[m])
            populations = self.POPULATIONS[:, m] / self.POPULATIONS[:, m].sum()
            for value, tree_sum in zip(populations.tolist(), exact):
                target = tree_sum / sum(exact)
                if target == 0:
                    assert value == 0.0
                    continue
                ulp = Fraction(np.spacing(float(target)))
                assert abs(Fraction(value) - target) <= 16 * ulp, (m, value, float(target))


def test_cycle_rates_are_contiguous_rows_of_points():
    # one row per cycle rate, the points of a stack of several members
    # contiguous along it
    chain = rates.pauli_chain(ISING, ((DissipatorStyle.GLOBAL, (0.01, 0.5, 1.5)),))
    member = np.array([2, 0, 1, 1, 0])
    temperatures = np.linspace(0.0, 2.0, 10).reshape(5, 2)
    cycle = rates._cycle_rates(chain, member, 1.0, temperatures)
    assert cycle.shape == (8, 5) and cycle.flags.c_contiguous


# fig2's T_L = 0 row at delta = 0.01, its hot-left cell at delta = 0.5, fig3
# panel (b) at T_L = 0, the inset at delta T = +-0.04 about 5h, and a cut
# cycle of fig2's local column, each under a rate law of +, * and / alone
_T_LEFT, _DELTA_T = np.logspace(-2, 2, 200), np.linspace(-2.0, 2.0, 101)
FIGURE_STACKS = [
    (
        DissipatorStyle.GLOBAL,
        (0.01, 0.5, np.linspace(0.0, 1.0, 102)[30]),
        [0, 1, 2, 1, 1],
        [
            [0.0, 0.0],
            [_T_LEFT[-1], 0.0],
            [0.0, 10.0],
            [5.0 + 0.5 * _DELTA_T[51], 5.0 - 0.5 * _DELTA_T[51]],
            [5.0 + 0.5 * _DELTA_T[49], 5.0 - 0.5 * _DELTA_T[49]],
        ],
        [
            [0.0, 0.0],
            [0.12437810945273632, -0.12437810945273632],
            [0.0, 0.0],
            [0.008253336423377403, -0.008253336423377403],
            [0.0074003483844326335, -0.0074003483844326335],
        ],
        [1, 1, 1, 1, 1],
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.24875621890547264, 0.24875621890547264, 0.2537313432835821, 0.24875621890547264],
            [0.0, 0.0, 0.5073170731707317, 0.4926829268292683],
            [0.21771186761165126, 0.23791319238724326, 0.2844093054285545, 0.2599656345725509],
            [0.21755318581763228, 0.23774765683842583, 0.28456726756680517, 0.2601318897771367],
        ],
    ),
    (
        DissipatorStyle.LOCAL,
        (0.01,),
        [0],
        [[_T_LEFT[120], 0.0]],
        [[0.0, 0.0]],
        [2],
        [[0.20945006187780502, 0.20945006187780502, 0.290549938122195, 0.290549938122195]],
    ),
]


@pytest.mark.parametrize(
    "style, couplings, member, temperatures, currents, kernel_dim, populations",
    FIGURE_STACKS,
    ids=["global", "local"],
)
def test_figure_cells_keep_their_bits(
    monkeypatch, style, couplings, member, temperatures, currents, kernel_dim, populations
):
    # e = kappa (omega + T) and a = kappa T keep the zero rates of the
    # thermal law and need no libm, so the bits pin the point step alone,
    # the sign of each zero included
    monkeypatch.setattr(
        lindblad,
        "thermal_rates",
        lambda kappa, temperature, frequency: (
            kappa * frequency + kappa * temperature,
            kappa * temperature,
        ),
    )
    chain = rates.pauli_chain(ISING, ((style, couplings),))
    state = rates.steady_state_pauli(chain, member, 1.0, temperatures)
    assert state.bath_currents.tobytes() == np.array(currents).tobytes()
    assert state.kernel_dim.tolist() == kernel_dim
    diagonal = np.diagonal(state.rho, axis1=1, axis2=2)
    assert diagonal.tobytes() == np.array(populations).tobytes()


def _route_state(spec, kappa, t_left, t_right, style):
    """The rate route's 1-stack at one point of the canonical pair."""
    chain = rates.pauli_chain(spec, ((style, (spec.coupling_delta,)),))
    return rates.steady_state_pauli(chain, [0], kappa, [[t_left, t_right]])


def _exact_currents(spec, kappa, t_left, t_right, style):
    """The left and right baths' currents of the canonical pair in exact
    arithmetic on the rate route's own float rates: exact tree sums, the
    levels (uu, ud, du, dd) as exact rationals of h and delta, and each
    bath's sum_ij W[i, j] (E_i - E_j) p_j over the level pairs that differ
    in its spin (the left spin is the high bit of the level index)."""
    chain = rates.pauli_chain(spec, ((style, (spec.coupling_delta,)),))
    cycle = rates._cycle_rates(chain, np.array([0]), kappa, np.array([[t_left, t_right]]))
    matrix = _rate_matrices(cycle)[0][0]
    w = [[Fraction(float(x)) for x in row] for row in matrix]
    tree_sums = _exact_tree_sums(matrix)
    p = [t / sum(tree_sums) for t in tree_sums]
    h, delta = Fraction(spec.field_h), Fraction(spec.coupling_delta)
    energies = [(h + delta) / 2, (h - delta) / 2, -(h + delta) / 2, (delta - h) / 2]
    return tuple(
        sum(
            w[i][j] * (energies[i] - energies[j]) * p[j]
            for i in range(4)
            for j in range(4)
            if i ^ j == flip
        )
        for flip in (2, 1)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.5, 2.0),
    st.floats(-12.0, 12.0).map(lambda exponent: 10.0**exponent),
    st.sampled_from(DissipatorStyle),
)
# the right bath read 9.999999999732445e-07, a difference of levels of
# order h, and 2999999999.6666665, the mean of its group with the gap
# delta - h that sigma^x does not connect
@example(1.0, 1e-6, DissipatorStyle.GLOBAL)
@example(1.0, 3e9, DissipatorStyle.GLOBAL)
def test_chain_step_is_exact(h, ratio, style):
    # each slot's frequency and each bath's carried energy, exactly: the
    # left global bath drives h + delta and |h - delta|, the right one
    # delta, and a gap within the grouping tolerance of zero drives nothing;
    # the left local bath drives h in the first of its two slots, the
    # second being padding, and the right one 0
    spec = SpinChainSpec(2, h, ratio * h, ChainModel.ISING_ZZ)
    delta = spec.coupling_delta
    chain = rates.pauli_chain(spec, ((style, (spec.coupling_delta,)),))
    left, right = (chain.slots.frequency[0, chain.slots.bath == k] for k in range(2))
    if style is DissipatorStyle.GLOBAL:
        tol = DEGENERACY_TOL * (0.5 * h + 0.5 * delta)
        expected = [h + delta, abs(h - delta), delta]
        expected = [f if f > tol else np.nan for f in expected]
        np.testing.assert_array_equal(np.concatenate([left, right]), expected)
    else:
        np.testing.assert_array_equal(np.concatenate([left, right]), [h, np.nan, 0.0])
    assert chain.carried[0].tolist() == [-2.0 * delta, 2.0 * delta]


def _relative_error(value, exact):
    return abs(Fraction(float(value)) - exact) / abs(exact)


class TestCycleFlux:
    """The rate route against exact arithmetic on its own float rates."""

    def test_point_the_svd_rule_misjudged_is_exact(self):
        # the SVD rule counted a Boltzmann factor of 1e-17 as no rate here
        spec = SpinChainSpec(2, 0.5, 1.5, ChainModel.ISING_ZZ)
        point = (1.0, 0.05078125, 0.0, DissipatorStyle.GLOBAL)
        state = _route_state(spec, *point)
        exact_left, exact_right = _exact_currents(spec, *point)
        assert float(exact_left) == 2.0214049735808878e-17 and exact_right == -exact_left
        j_left, j_right = state.bath_currents[0]
        assert _relative_error(j_left, exact_left) <= 1e-15
        assert j_left + j_right == 0.0
        assert (np.diag(state.rho[0]) >= 0).all() and state.kernel_dim[0] == 1

    @pytest.mark.parametrize("t_left", [52.3, 75.75, 87.04, 100.0])
    def test_fig2_cells_at_hot_left_baths_are_exact(self, t_left):
        # fig2's J_delta_0.01 column at kappa = 1: the cells nearest t_left
        grid = np.logspace(-2, 2, 200)
        t_left = float(grid[np.argmin(np.abs(grid - t_left))])
        spec = SpinChainSpec(2, 1.0, 0.01, ChainModel.ISING_ZZ)
        point = (1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
        j = steady_net_current(spec, *point)
        assert _relative_error(j, _exact_currents(spec, *point)[0]) <= 1e-15

    @pytest.mark.parametrize("t_left, t_right", [(4.0, 6.0), (4.92, 5.08), (5.3, 4.7), (0.2, 0.8)])
    def test_cycle_flux_near_equilibrium_does_not_cancel(self, t_left, t_right):
        # points like fig3's inset cells, where Pi+ and Pi- agree to a few percent
        point = (1.0, t_left, t_right, DissipatorStyle.GLOBAL)
        j = steady_net_current(ISING, *point)
        assert _relative_error(j, _exact_currents(ISING, *point)[0]) <= 1e-15

    @pytest.mark.parametrize("t_left", [1e8, 1e10, 1e12, 1e15, 1e20, 1e50, 1e100, 1e150])
    def test_hot_bath_gives_the_saturation_current(self, t_left):
        # kappa delta^2 / 2 at h = kappa = 1, delta = 0.5, T_R = 0
        j = steady_net_current(ISING, 1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
        assert abs(j - 0.125) <= 1e-9

    @pytest.mark.parametrize("t_left", [1e155, 1e200, 1e300])
    def test_hot_bath_beyond_the_double_range_is_refused(self, t_left):
        # the right bath's rates, of order delta, fall 1e-155 below the left
        # bath's: their square leaves the normal range
        with pytest.raises(SteadyStateError, match="double range") as excinfo:
            steady_net_current(ISING, 1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
        assert excinfo.value.member == 0
