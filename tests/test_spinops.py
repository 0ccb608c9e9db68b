import numpy as np
import pytest

from spinheat.spinops import (
    ChainModel,
    HermitianOperator,
    SpinChainSpec,
    build_hamiltonian,
    embed,
    pauli,
    spectral_decompose,
)


def ising(h=1.0, delta=0.5):
    return SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)


class TestPauli:
    def test_definitions(self):
        assert np.array_equal(pauli("z").matrix, np.diag([1.0, -1.0]))
        assert np.array_equal(pauli("x").matrix, np.array([[0, 1], [1, 0]]))
        assert np.array_equal(pauli("y").matrix, np.array([[0, -1j], [1j, 0]]))

    def test_involution(self):
        for axis in "xyz":
            m = pauli(axis).matrix
            assert np.allclose(m @ m, np.eye(2))

    def test_algebra(self):
        x, y, z = (pauli(a).matrix for a in "xyz")
        assert np.allclose(x @ y - y @ x, 2j * z)
        assert np.allclose(x @ y + y @ x, 0)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestEmbed:
    def test_left_site(self):
        m = embed(pauli("z"), 0, 2).matrix
        assert np.allclose(m, np.diag([1, 1, -1, -1]))

    def test_right_site(self):
        m = embed(pauli("z"), 1, 2).matrix
        assert np.allclose(m, np.diag([1, -1, 1, -1]))

    def test_disjoint_sites_commute(self):
        for n in (2, 3):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    a = embed(pauli("x"), i, n).matrix
                    b = embed(pauli("y"), j, n).matrix
                    assert np.max(np.abs(a @ b - b @ a)) < 1e-14

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(pauli("x"), 2, 2)
        with pytest.raises(ValueError):
            embed(pauli("x"), -1, 2)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))


class TestChainSpec:
    @pytest.mark.parametrize(
        "args",
        [
            (1, 1.0, 0.5, ChainModel.ISING_ZZ),
            (3, 1.0, 0.5, ChainModel.ISING_ZZ),
            (2, 0.0, 0.5, ChainModel.ISING_ZZ),
            (2, -1.0, 0.5, ChainModel.XY_TRANSVERSE),
            (2, 1.0, -0.1, ChainModel.XY_TRANSVERSE),
            (2, float("nan"), 0.5, ChainModel.ISING_ZZ),
            (3, float("inf"), 0.5, ChainModel.XY_TRANSVERSE),
            (2, 1.0, float("nan"), ChainModel.XY_TRANSVERSE),
            (2, 1.0, float("inf"), ChainModel.ISING_ZZ),
        ],
    )
    def test_invalid_specs(self, args):
        with pytest.raises(ValueError):
            SpinChainSpec(*args)


class TestHamiltonian:
    def test_ising_diagonal(self):
        H = build_hamiltonian(ising(1.0, 0.5))
        assert np.allclose(H.matrix, np.diag([0.75, 0.25, -0.75, -0.25]))

    def test_ising_decoupled(self):
        H = build_hamiltonian(ising(1.0, 0.0))
        assert np.allclose(H.matrix, np.diag([0.5, 0.5, -0.5, -0.5]))

    def test_xy_flips_antialigned_pair(self):
        # The two-site exchange term maps |ud> to |dd+...>: expanding
        # sx sx + sy sy on |ud> gives 2 |du>, so the off-diagonal element
        # between the anti-aligned states equals the coupling itself.
        spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
        H = build_hamiltonian(spec).matrix
        assert H[1, 2] == pytest.approx(0.5)
        assert H[2, 1] == pytest.approx(0.5)
        # aligned states are untouched by the exchange term
        assert H[0, 0] == pytest.approx(1.0)
        assert H[3, 3] == pytest.approx(-1.0)

    def test_xy_dimension(self):
        spec = SpinChainSpec(4, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
        assert build_hamiltonian(spec).dim == 16


class TestSpectralDecomposition:
    def test_ising_energies_and_labels(self):
        spec = ising(1.0, 0.5)
        d = spectral_decompose(build_hamiltonian(spec), spec)
        assert np.allclose(d.energies, [-0.75, -0.25, 0.25, 0.75])
        assert d.labels == ("du", "dd", "ud", "uu")

    def test_ising_transition_frequencies_exact(self):
        h, delta = 1.0, 0.5
        spec = ising(h, delta)
        e = spectral_decompose(build_hamiltonian(spec), spec).energies
        assert abs((e[3] - e[0]) - (h + delta)) < 1e-14
        assert abs((e[2] - e[1]) - (h - delta)) < 1e-14
        assert abs((e[3] - e[2]) - delta) < 1e-14
        assert abs((e[1] - e[0]) - delta) < 1e-14
        assert abs((e[2] - e[0]) - h) < 1e-14
        assert abs((e[3] - e[1]) - h) < 1e-14

    def test_decoupled_degenerate_pairs(self):
        spec = ising(1.0, 0.0)
        d = spectral_decompose(build_hamiltonian(spec), spec)
        assert np.allclose(d.energies, [-0.5, -0.5, 0.5, 0.5])
        assert d.labels is None  # ordering statement needs 0 < delta < h
        # stable tie-break: basis states 2, 3 come first among the -0.5 pair
        assert np.allclose(d.eigenvectors[:, 0], np.eye(4)[:, 2])
        assert np.allclose(d.eigenvectors[:, 1], np.eye(4)[:, 3])

    def test_labels_omitted_when_coupling_exceeds_field(self):
        spec = ising(1.0, 0.99)
        assert spectral_decompose(build_hamiltonian(spec), spec).labels is not None
        spec = SpinChainSpec(2, 1.0, 1.5, ChainModel.ISING_ZZ)
        assert spectral_decompose(build_hamiltonian(spec), spec).labels is None

    @pytest.mark.parametrize(
        "spec",
        [
            ising(1.0, 0.5),
            ising(2.0, 1.9),
            SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE),
            SpinChainSpec(3, 1.3, 0.7, ChainModel.XY_TRANSVERSE),
            SpinChainSpec(4, 1.0, 1.0, ChainModel.XY_TRANSVERSE),
        ],
    )
    def test_reconstruction_and_unitarity(self, spec):
        H = build_hamiltonian(spec)
        d = spectral_decompose(H, spec)
        v = d.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(H.dim))) < 1e-10
        rebuilt = v @ np.diag(d.energies) @ v.conj().T
        assert np.max(np.abs(rebuilt - H.matrix)) < 1e-10
        assert np.all(np.diff(d.energies) >= -1e-12)
