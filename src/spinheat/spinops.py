"""Spin operators, chain Hamiltonians, and their spectral decompositions.

Units: hbar = k_B = 1 throughout; magnetic fields and couplings are energies.
Basis conventions: |up> = (1, 0)^T, |down> = (0, 1)^T, and site 0 is the
leftmost spin, stored as the leftmost (most significant) Kronecker factor.
The two-spin product basis is therefore ordered (uu, ud, du, dd).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12

# Treated as exactly diagonal below this off-diagonal magnitude, which lets
# degenerate spectra be sorted with a stable tie-break on the basis index.
_DIAGONAL_ATOL = 1e-14

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |down><up|


class ChainModel(enum.Enum):
    """Which interaction couples neighbouring spins."""

    ISING_ZZ = "ising"
    XY_TRANSVERSE = "xy"


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix, validated at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.size and np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpinChainSpec:
    """Parameters of a chain: size, transverse field, coupling, model."""

    n_spins: int
    field_h: float
    coupling_delta: float
    model: ChainModel

    def __post_init__(self):
        if self.n_spins < 2:
            raise ValueError("n_spins must be at least 2")
        if self.model is ChainModel.ISING_ZZ and self.n_spins != 2:
            raise ValueError("the Ising zz model is defined for exactly 2 spins")
        if not (math.isfinite(self.field_h) and self.field_h > 0):
            raise ValueError("field_h must be finite and positive")
        if not (math.isfinite(self.coupling_delta) and self.coupling_delta >= 0):
            raise ValueError("coupling_delta must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition with energies ascending.

    ``eigenvectors[:, k]`` belongs to ``energies[k]``.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]


def _coupling_stack(couplings: Sequence[float]) -> np.ndarray:
    """The couplings of a chain stack as an array, after a check that the
    stack holds at least one chain and that each coupling is finite and
    nonnegative."""
    delta = np.array(couplings, dtype=float)
    if delta.ndim != 1 or not len(delta):
        raise ValueError("a chain stack needs at least one coupling")
    if not (np.isfinite(delta) & (delta >= 0)).all():
        raise ValueError("coupling_delta must be finite and nonnegative")
    return delta


def pauli(axis: str) -> HermitianOperator:
    """Single-spin Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        m = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None
    return HermitianOperator(m.copy())


def embed_matrix(op: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    """I kron op kron I: a single-spin matrix at `site` of an n-spin chain.

    The 2 x 2 block is placed directly, as entry (a, :, b, a, :, b) of the
    matrix viewed as (left, 2, right, left, 2, right), rather than through
    two Kronecker products.
    """
    if not 0 <= site < n_spins:
        raise ValueError(f"site {site} out of range for {n_spins} spins")
    left, right = 2**site, 2 ** (n_spins - site - 1)
    matrix = np.zeros((left, 2, right, left, 2, right), dtype=np.result_type(op, complex))
    a, b = np.ix_(np.arange(left), np.arange(right))
    matrix[a, :, b, a, :, b] = op
    return matrix.reshape(2**n_spins, 2**n_spins)


def build_hamiltonian(spec: SpinChainSpec) -> HermitianOperator:
    """Chain Hamiltonian for the given model.

    Ising zz (2 spins, field on the left spin only), diagonal in the
    product basis:
        H = (h/2) sz_L + (delta/2) sz_L sz_R
    XY in a transverse field (open chain, uniform field on every site):
        H = (h/2) sum_i sz_i + (delta/2) sum_i (sx_i sx_{i+1} + sy_i sy_{i+1})
    """
    n = spec.n_spins
    h = spec.field_h
    delta = spec.coupling_delta
    if spec.model is ChainModel.ISING_ZZ:
        sz_left = np.array([1.0, 1.0, -1.0, -1.0])  # sz_L on (uu, ud, du, dd)
        sz_both = np.array([1.0, -1.0, -1.0, 1.0])  # sz_L sz_R
        m = np.diag(0.5 * h * sz_left + 0.5 * delta * sz_both)
    else:
        m = np.zeros((spec.dim, spec.dim), dtype=complex)
        for i in range(n):
            m += 0.5 * h * embed_matrix(PAULI_Z, i, n)
        for i in range(n - 1):
            m += 0.5 * delta * (
                embed_matrix(PAULI_X, i, n) @ embed_matrix(PAULI_X, i + 1, n)
                + embed_matrix(PAULI_Y, i, n) @ embed_matrix(PAULI_Y, i + 1, n)
            )
    return HermitianOperator(m)


def diagonal_decomposition(levels: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a diagonal Hamiltonian, given its diagonal,
    sorted with a stable tie-break on the basis index, so that degenerate
    spectra come out deterministically."""
    order = np.argsort(levels, kind="stable")
    return SpectralDecomposition(levels[order], np.eye(len(levels), dtype=complex)[:, order])


def spectral_decompose(H: HermitianOperator) -> SpectralDecomposition:
    """Diagonalize H with energies ascending.

    Diagonal matrices take `diagonal_decomposition`.
    """
    m = H.matrix
    offdiag = m - np.diag(np.diag(m))
    if m.size == 0 or np.max(np.abs(offdiag)) <= _DIAGONAL_ATOL:
        return diagonal_decomposition(np.real(np.diag(m)))
    energies, vectors = np.linalg.eigh(m)
    return SpectralDecomposition(energies=energies, eigenvectors=vectors)
