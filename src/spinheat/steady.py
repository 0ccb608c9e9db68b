"""Steady states: the types and checks the solvers share.

`SteadyState` is the result of every solver and `SteadyStateError` its
refusal, which names the failing stack member by its index: on the dense
oracle and on the two point steps, the first one any check flags, with
the refusal it meets in a stack of its own (`_refuse_first`).
`KERNEL_RTOL` is the relative cut of the dense oracle's kernel rule
(`oracle._kernel_vector`) and the bound of the Gaussian route's residual
guard, ||X K + K X^dag - S|| <= KERNEL_RTOL ||X|| (`gaussian`); the Ising
pair's rate route (`rates`) holds no relative cut.  The rate route and the oracle
refuse a state with an eigenvalue (on the rate route, a population) below
`_MIN_EIGENVALUE`, and both transport routes refuse a point whose bath
currents are not finite (`_currents_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Singular values below this fraction of the largest one count as kernel.
KERNEL_RTOL = 1e-9

_MIN_EIGENVALUE = -1e-10


class SteadyStateError(RuntimeError):
    """A point has no valid steady state, or its rates or currents are refused.

    The oracle's kernel rule and the point steps set `member` to the index
    of the stack member that failed, on a point step the first point
    refused; the dataset runner, which names the failing curve and x in
    the message instead, leaves it None.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class SteadyState:
    """Stationary density matrix with solver diagnostics.

    `residual` is ||L[rho]|| under the full generator.  `kernel_dim` is
    the dimension of the kernel that was solved (on the rate route, the
    number of closed classes); above 1, `rho` is the normalized projection
    of the maximally mixed state onto it.  `bath_currents[k]` is
    Tr{D_k[rho] H}, the energy the k-th bath of the generator (or of the
    chain step) feeds in per unit time.

    The dense oracle returns one state.  The point step of the `rates`
    module, given a chain stack, one kappa and, for each of P points, a
    member of the stack and the left and the right bath's temperature,
    returns P of them in the same fields: `rho` of shape (P, d, d), real
    and diagonal, `residual` and `kernel_dim` of shape (P,) and
    `bath_currents` of shape (P, 2), P = 0 included; where points are
    refused, the SteadyStateError names the first of them.
    """

    rho: np.ndarray
    residual: float | np.ndarray
    kernel_dim: int | np.ndarray
    bath_currents: tuple[float, ...] | np.ndarray


def _refuse_first(refusals: Sequence[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise SteadyStateError for the first stack member that any check
    flags, with the message of the first check that flags it: the refusal
    it meets in a stack of its own.  `refusals` holds each check's failure
    mask and message(member), in the order the checks run."""
    flagged = [
        (int(np.argmax(failed)), k) for k, (failed, _) in enumerate(refusals) if failed.any()
    ]
    if flagged:
        member, k = min(flagged)
        raise SteadyStateError(refusals[k][1](member), member=member)


def _currents_check(currents: np.ndarray) -> tuple[np.ndarray, Callable[[int], str]]:
    """The check that refuses each point of a (P, 2) stack of bath
    currents that holds an infinity or a NaN, as an overflow of the rates
    leaves."""
    return (
        ~np.isfinite(currents).all(axis=1),
        lambda p: f"bath currents not finite: {currents[p].tolist()}",
    )
