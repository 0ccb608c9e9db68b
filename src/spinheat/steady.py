"""Steady states: the kernel rule of the dense oracle and of the rate
route's fallback.

`_kernel_vector` takes a stack of P generators and one batched SVD:
singular values below `KERNEL_RTOL` times the largest count as kernel, a
one-dimensional kernel gives the state directly, and a degenerate kernel
is resolved by projecting the maximally mixed state onto it.  A member
comes out the same in any stack, and the first member that fails a check
raises a SteadyStateError that carries its index.

- The rate route of the `rates` module solves the Ising pair's 4 x 4 rate
  matrices by their spanning-tree sum where a certificate shows that this
  rule would find a one-dimensional kernel, and hands the other points to
  the rule as one sub-stack.
- The dense oracle of the `oracle` module solves its d^2 x d^2 generator
  by the rule on a 1-stack.
- The Gaussian route of the `gaussian` module zeroes undamped mode pairs
  by the same `KERNEL_RTOL`, which gives the same projected state.

The rate route and the oracle refuse a state with an eigenvalue (on the
rate route, a population) below `_MIN_EIGENVALUE`, and both transport
routes refuse a point whose bath currents are not finite
(`_check_currents`).
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
    same fields: `rho` of shape (P, d, d), real and diagonal, `residual`
    and `kernel_dim` of shape (P,) and `bath_currents` of shape
    (P, n_baths), P = 0 included.  A point its tree sum answers has
    `kernel_dim` 1, which the sum's certificate guarantees the kernel rule
    would find.
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


def _check_currents(currents: np.ndarray) -> None:
    """Refuse the first point of a (P, n_baths) stack of bath currents that
    holds an infinity or a NaN, as an overflow of the rates leaves."""
    _first_failure(
        ~np.isfinite(currents).all(axis=1),
        lambda p: f"bath currents not finite: {currents[p].tolist()}",
    )


def _kernel_vector(matrices: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel vectors of a (P, m, m) stack and each member's kernel dimension.

    `mixed` is the maximally mixed state in the coordinates of the
    matrices; a degenerate kernel is resolved by projecting it onto the
    kernel.  The projection is one batched product for every degenerate
    member: mixed's coefficients vh @ mixed on the right singular vectors,
    masked to the kernel rows, taken back through vh^H (real or complex).
    A member with a non-finite entry, which the SVD cannot take, or whose
    kernel is empty raises SteadyStateError.
    """
    _first_failure(
        ~np.isfinite(matrices).all(axis=(1, 2)), lambda p: "generator has a non-finite entry"
    )
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
    degenerate = np.flatnonzero(kernel_dim > 1)
    rows = vh[degenerate]  # the kernel rows of each span its kernel
    coefficients = np.where(kernel_mask[degenerate], rows @ mixed, 0.0)
    vectors[degenerate] = (coefficients[:, None, :] @ rows.conj())[:, 0]
    return vectors, kernel_dim
