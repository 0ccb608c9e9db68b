"""Steady states: the kernel rule every generator route solves by.

One kernel rule serves every generator route (`_kernel_vector` and
`_density_matrix`): singular values below `KERNEL_RTOL` times the largest
count as kernel, a one-dimensional kernel gives the state directly, and a
degenerate kernel is resolved by projecting the maximally mixed state onto
it; the result is trace-normalized, Hermitized and checked for
positivity.  The rule takes a stack of P generators, takes one batched
SVD and applies the rule to each member, so a member comes out the same
in any stack; the first member that fails a check raises a
SteadyStateError that carries its index.  The rate route of the `rates`
module applies it to a stack of the Ising pair's 4 x 4 rate matrices, and
the Gaussian route of the `gaussian` module zeroes undamped mode pairs by
the same `KERNEL_RTOL`, which gives the same projected state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this fraction of the largest one count as kernel.
KERNEL_RTOL = 1e-9

_MIN_EIGENVALUE = -1e-10


class SteadyStateError(RuntimeError):
    """The kernel of a generator could not be extracted as a valid state.

    The kernel rule and the point steps set `member` to the index of the
    stack member that failed; the dataset runner, which names the failing
    curve and x in the message instead, leaves it None.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class SteadyState:
    """Stationary density matrix with solver diagnostics.

    `residual` is ||L[rho]|| under the full generator.  `kernel_dim` is
    the dimension of the kernel that was solved; above 1, `rho` is the
    normalized projection of the maximally mixed state onto it.
    `bath_currents[k]` is Tr{D_k[rho] H}, the energy the k-th bath of the
    generator (or of the chain step) feeds in per unit time.

    The dense oracle returns one state.  The point step of the `rates`
    module, given a chain stack and, for each of P points, a member of the
    stack, a kappa and a temperature per bath, returns P of them in the
    same fields: `rho` of shape (P, d, d), `residual` and
    `kernel_dim` of shape (P,) and `bath_currents` of shape (P, n_baths),
    P = 0 included.
    """

    rho: np.ndarray
    residual: float | np.ndarray
    kernel_dim: int | np.ndarray
    bath_currents: tuple[float, ...] | np.ndarray


def _first_failure(failed: np.ndarray, message) -> None:
    """Raise SteadyStateError for the first stack member flagged in `failed`,
    with `message(member)` as its text."""
    if np.any(failed):
        member = int(np.argmax(failed))
        raise SteadyStateError(message(member), member=member)


def _kernel_vector(matrices: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel vectors of a (P, m, m) stack and each member's kernel dimension.

    `mixed` is the maximally mixed state in the coordinates of the
    matrices; a degenerate kernel is resolved by projecting it onto the
    kernel.  A member whose kernel is empty raises SteadyStateError.
    """
    _, s, vh = np.linalg.svd(matrices)
    largest, smallest = s[:, 0], s[:, -1]
    _first_failure(largest == 0.0, lambda p: "generator is identically zero")
    kernel_mask = s < KERNEL_RTOL * largest[:, None]
    kernel_dim = np.count_nonzero(kernel_mask, axis=1)
    _first_failure(
        kernel_dim == 0,
        lambda p: f"no kernel found: smallest relative singular value "
        f"{smallest[p] / largest[p]:.3e}",
    )
    vectors = np.array(vh[:, -1].conj())
    for p in np.flatnonzero(kernel_dim > 1):
        basis = vh[p][kernel_mask[p]].conj().T  # columns span the kernel
        vectors[p] = basis @ (basis.conj().T @ mixed)
    return vectors, kernel_dim


def _density_matrix(rho: np.ndarray) -> np.ndarray:
    """Trace-normalized, Hermitized kernel matrices of a (P, d, d) stack,
    each checked for positivity."""
    # the kernel vector carries an arbitrary global phase: dividing by the
    # complex trace removes it before Hermitization can cancel anything
    trace = np.trace(rho, axis1=1, axis2=2).astype(complex)
    _first_failure(np.abs(trace) < 1e-12, lambda p: "kernel vector has vanishing trace")
    rho = rho / trace[:, None, None]
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    min_eig = np.linalg.eigvalsh(rho).min(axis=1)
    _first_failure(
        min_eig < _MIN_EIGENVALUE,
        lambda p: f"steady state not positive: min eigenvalue {min_eig[p]:.3e}",
    )
    return rho
