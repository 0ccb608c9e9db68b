"""The steady state of the XY chain from its Majorana covariance.

After a Jordan-Wigner transform, c_i = (prod_{j<i} sigma^z_j) sigma^-_i,
the XY chain in a transverse field is quadratic,

    H = sum_ij h_ij c_i^dag c_j + const,

with h on the diagonal of the n x n hopping matrix and delta on its first
off-diagonals.  In the Majorana operators w_{2i} = c_i + c_i^dag and
w_{2i+1} = i(c_i^dag - c_i) it reads H = (i/4) sum_ab A_ab w_a w_b + const,
with the real antisymmetric 2n x 2n form A[2i, 2j+1] = h_ij,
A[2i+1, 2j] = -h_ij.

Both dissipator styles have jump operators linear in the w_a, so the two
point function G_ab = <w_a w_b> = I + i Gamma (Gamma real antisymmetric)
obeys a closed equation and fixes the heat currents (third quantization:
Prosen, NJP 10, 043026 (2008); Prosen and Zunkovic, NJP 12, 025016
(2010)).  A jump operator L = sum_a l_a w_a is stored as its lowering
vector l.

- Local style: sigma^-_0 is c_0.  On the last site sigma^-_{n-1} carries
  the parity string of the other sites, which commutes with every even
  operator of those sites, so it drops out of the equation for every
  quadratic observable; the vector is that of c_{n-1}.
- Global style: sigma^x_0 = c_0 + c_0^dag and sigma^x_{n-1} =
  P (c_{n-1} - c_{n-1}^dag), with P the total parity, which commutes with
  H and with every even operator and so drops out too.  With the modes
  eta_k = sum_i phi_k(i) c_i of h at energies eps_k, a bath at site s
  lowers the energy by |eps| through sum_{eps_k = |eps|} phi_k(s) eta_k
  plus (+1 on site 0, -1 on site n-1) times sum_{eps_k = -|eps|}
  phi_k(s) eta_k^dag.  The gaps sigma^x connects are exactly the |eps_k|,
  so they are grouped by the rule `lindblad.global_transitions` applies
  to the many-body gaps: `lindblad._groups` at the tolerance that
  `lindblad._degeneracy_tolerance` gives the largest |E|, which is
  sum_k |eps_k| / 2.  Zero modes carry no jump operator.  The two
  groupings can differ only where two |eps_k| differ by less than that
  tolerance without being equal (delta near 1e-9 h): there the eigenbasis
  grouping is also anchored on many-body gaps that sigma^x does not
  connect.

The chain step, `gaussian_chain`, takes a stack of C chains that differ
in the coupling alone and holds, for each member, A and each bath's
(frequency, lowering vector) pairs, padded like those of the rate route
with frequency NaN; it alone says where the baths couple, and none of it
depends on temperature or kappa.  Each member is built alone, as the
number of modes a bath drives changes with delta.  The point step,
`steady_state_gaussian`, takes P points on the members at once, a member
index, a kappa and a temperature per bath for each point, takes their
rates (`lindblad._rate_tables`) and solves the points of each member as
one stack, on that member's transitions alone.  It takes the rates into
the bath matrices

    M_k = sum_t (emission l_t^* l_t^T + absorption l_t l_t^dag),

and solves X Gamma + Gamma X^T = -4 Im M with X = A - 2 Re M, M = sum_k
M_k, by an eigendecomposition of X, batched over the (P, 2n, 2n) stack.
A pair of eigenvalues of X that sum to zero (within `KERNEL_RTOL` of the
largest) belongs to modes no bath damps; the component of Gamma there is
set to zero, which is the maximally mixed state on those modes, the state
the dense route projects a degenerate kernel from.  Cost: O(n^3), against O(d^6) = O(64^n) for
the SVD of the dense d^2 x d^2 generator.

The point step also returns each bath's current.  With
<H> = -(1/4) sum_ab A_ab Gamma_ab and the bath part of the covariance's
equation of motion, -2(Re M_k Gamma + Gamma Re M_k) + 4 Im M_k, bath k
feeds in sum_ab A_ab ((Re M_k Gamma + Gamma Re M_k)/2 - Im M_k)_ab.

Where X is defective (an exceptional point: the 2-spin local chain at
h = 1, delta = 0.5, kappa = 1, T_R = 0 has one at n_BE(h, T_L) = 1), its
eigenvectors are nearly parallel and their solution misses the equation.
A residual above `_EIG_RTOL` times ||X|| hands that stack member alone to
the Kronecker solve of (I kron X + X kron I) vec Gamma = vec(-4 Im M), by
minimum-norm least squares with relative cutoff `KERNEL_RTOL`, which
zeroes undamped mode pairs as the eigenvector solution does; the other
members keep their eigenvector solution.  The eigendecomposition
stays first because the Kronecker solve costs O(n^6): 1.5 to 3.7 ms at
n = 5 and 6 (one core of a 2-vCPU 2.0 GHz Xeon VM), against about 0.3 ms
for a whole point.  Its operator grows as n^4 in memory, so past
`_KRONECKER_MAX_SPINS` spins it is not built: such a point raises
SteadyStateError with its n and the operator's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import BathSpec, DissipatorStyle, _degeneracy_tolerance, _groups, _rate_tables
from .spinops import ChainModel, SpinChainSpec, _stack_head
from .steady import _MIN_EIGENVALUE, KERNEL_RTOL, SteadyStateError, _check_currents, _first_failure


# The eigenvector solution is kept while its Lyapunov residual stays below
# this fraction of ||X||.  Generic points reach 5e-15 at most; near an
# exceptional point the error in J tracks the residual (5.3e-10 at a
# residual of 5.4e-10, which the KERNEL_RTOL guard would let through).
_EIG_RTOL = 1e-12

# The longest chain the Kronecker solve is run on.  Its operator has (2n)^2
# rows: 1024 rows (8 MiB) at n = 16, solved in 0.38 s on one core of a 2-vCPU
# 2.0 GHz Xeon VM, and 0.75 GiB at n = 50, 12 GiB at n = 100.
_KRONECKER_MAX_SPINS = 16


@dataclass(frozen=True)
class GaussianChain:
    """The temperature-independent half of the Gaussian route (the chain
    step), for a stack of C chains that differ in the coupling alone.

    `majorana[c]` is the 2n x 2n form A of member c's H.  For each bath,
    `frequencies[c, t]` is the frequency of member c's transition t and
    `lowering[c, t]` its lowering vector.  The slots past a member's
    transitions are padding, with frequency NaN and a zero vector.  Every
    array is read-only.
    """

    majorana: np.ndarray
    frequencies: tuple[np.ndarray, ...]
    lowering: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class GaussianState:
    """The steady Majorana covariances Gamma (<w_a w_b> = I + i Gamma) of P points.

    `covariance` has shape (P, 2n, 2n).  `residual[p]` is
    ||X Gamma + Gamma X^T + 4 Im M|| at point p, and `bath_currents[p, k]`
    the energy the k-th bath of point p feeds in.
    """

    covariance: np.ndarray
    residual: np.ndarray
    bath_currents: np.ndarray


def _mode_vectors(phi: np.ndarray) -> np.ndarray:
    """Row k holds the Majorana coefficients of c_k (phi = identity) or of
    eta_k = sum_i phi[i, k] c_i."""
    n = phi.shape[0]
    vectors = np.zeros((n, 2 * n), dtype=complex)
    vectors[:, 0::2] = 0.5 * phi.T
    vectors[:, 1::2] = 0.5j * phi.T
    return vectors


def _global_transitions(
    eps: np.ndarray, phi: np.ndarray, site: int, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, lowering vectors) of sigma^x on an edge site, grouped by |eps|."""
    modes = _mode_vectors(phi) * phi[site][:, None]
    # a mode below zero is lowered by its creation operator
    lowering = np.where((eps > 0)[:, None], modes, sign * modes.conj())
    energy = np.abs(eps)
    tol = _degeneracy_tolerance(np.array([0.5 * energy.sum()]))
    order = np.argsort(energy, kind="stable")
    order = order[energy[order] > tol]
    labels, means = _groups(energy[order][None], tol)
    vectors = np.zeros((means.shape[1], lowering.shape[1]), dtype=complex)
    for row in range(len(vectors)):
        vectors[row] = lowering[order[labels[0] == row]].sum(axis=0)
    return means[0], vectors


def _chain_member(spec: SpinChainSpec, baths: list[BathSpec]) -> tuple[np.ndarray, list, list]:
    """A and each bath's (frequencies, lowering vectors) of one chain."""
    n = spec.n_spins
    off = np.full(n - 1, spec.coupling_delta)
    hop = spec.field_h * np.eye(n) + np.diag(off, 1) + np.diag(off, -1)
    majorana = np.zeros((2 * n, 2 * n))
    majorana[0::2, 1::2] = hop
    majorana[1::2, 0::2] = -hop

    if baths[0].style is DissipatorStyle.GLOBAL:
        eps, phi = np.linalg.eigh(hop)
    frequencies, lowering = [], []
    for bath in baths:
        if bath.style is DissipatorStyle.GLOBAL:
            sign = 1.0 if bath.site == 0 else -1.0
            freqs, vectors = _global_transitions(eps, phi, bath.site, sign)
        else:
            freqs = np.array([bath.local_frequency])
            vectors = _mode_vectors(np.eye(n))[bath.site : bath.site + 1]
        frequencies.append(freqs)
        lowering.append(vectors)
    return majorana, frequencies, lowering


# an overflow leaves an infinite frequency, which the point step refuses
@np.errstate(over="ignore", invalid="ignore")
def gaussian_chain(specs: Sequence[SpinChainSpec], baths: list[BathSpec]) -> GaussianChain:
    """The chain step of a stack of XY chains that differ in the coupling
    alone: A and each bath's (frequency, lowering vector) pairs, member c
    for `specs[c]`, each member built alone.

    Only each bath's site, style and local frequency are read.  Baths must
    couple to an end of the chain, where the Jordan-Wigner string drops
    out, and share one style.
    """
    head = _stack_head(specs)
    if head.model is not ChainModel.XY_TRANSVERSE:
        raise ValueError("the Gaussian route needs the quadratic XY chain")
    if len({bath.style for bath in baths}) != 1:
        raise ValueError("the Gaussian route needs at least one bath, all of one style")
    n = head.n_spins
    for bath in baths:
        if bath.site not in (0, n - 1):
            raise ValueError(f"bath site {bath.site} is not an end of the {n}-spin chain")
    members = [_chain_member(spec, baths) for spec in specs]
    majorana = np.stack([member[0] for member in members])
    frequencies, lowering = [], []
    for k in range(len(baths)):
        width = max(len(member[1][k]) for member in members)
        bath_frequencies = np.full((len(members), width), np.nan)
        vectors = np.zeros((len(members), width, 2 * n), dtype=complex)
        for c, (_, freqs, rows) in enumerate(members):
            bath_frequencies[c, : len(freqs[k])] = freqs[k]
            vectors[c, : len(rows[k])] = rows[k]
        frequencies.append(bath_frequencies)
        lowering.append(vectors)
    for array in (majorana, *frequencies, *lowering):
        array.setflags(write=False)
    return GaussianChain(
        majorana=majorana, frequencies=tuple(frequencies), lowering=tuple(lowering)
    )


def _bath_matrices(rates: np.ndarray, lowering: np.ndarray) -> np.ndarray:
    """M_k of one bath at P points from its (P, T, 2) rate table, as a (P, 2n, 2n) stack."""
    # sum_t rate_t l_t^* l_t^T is (the rows l_t^* scaled by their rates)^T @ l
    emission = (rates[:, :, 0, None] * lowering.conj()).transpose(0, 2, 1) @ lowering
    absorption = (rates[:, :, 1, None] * lowering).transpose(0, 2, 1) @ lowering.conj()
    return emission + absorption


def _transpose(stack: np.ndarray) -> np.ndarray:
    return stack.swapaxes(-1, -2)


def _lyapunov_eig(x: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Gamma of each member of a (P, 2n, 2n) stack from the eigendecomposition
    of X, zero on undamped mode pairs."""
    d, v = np.linalg.eig(x)
    v_inv = np.linalg.inv(v)
    pair = d[:, :, None] + d[:, None, :]
    undamped = np.abs(pair) <= KERNEL_RTOL * np.max(np.abs(d), axis=1)[:, None, None]
    rotated = v_inv @ source @ _transpose(v_inv)
    solution = np.where(undamped, 0.0, rotated / np.where(undamped, 1.0, pair))
    gamma = (v @ solution @ _transpose(v)).real
    return 0.5 * (gamma - _transpose(gamma))  # antisymmetric up to rounding


def _lyapunov_kronecker(x: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Gamma of one point as the minimum-norm least-squares solution of
    (I kron X + X kron I) vec Gamma = vec S, which needs no eigenvectors."""
    eye = np.eye(len(x))
    operator = np.kron(eye, x) + np.kron(x, eye)
    solution = np.linalg.lstsq(operator, source.reshape(-1), rcond=KERNEL_RTOL)[0]
    gamma = solution.reshape(x.shape)
    return 0.5 * (gamma - gamma.T)


def _lyapunov_residual(x: np.ndarray, gamma: np.ndarray, source: np.ndarray) -> np.ndarray:
    """||X Gamma + Gamma X^T - S|| of one point or of each member of a stack."""
    return np.linalg.norm(x @ gamma + gamma @ _transpose(x) - source, axis=(-2, -1))


# an overflow is refused by the non-finite checks, under the point's index
@np.errstate(over="ignore", invalid="ignore")
def steady_state_gaussian(
    chain: GaussianChain, member: np.ndarray, kappa: np.ndarray, temperatures: np.ndarray
) -> GaussianState:
    """The point step: the steady covariances of P points, and each bath's current.

    Point p is on member `member[p]` of the chain stack, `kappa[p]` is its
    kappa and `temperatures[p, k]` the temperature of the chain step's
    k-th bath there; arrays of other shapes than (P,), (P,) and
    (P, n_baths) raise ValueError.  The points of each chain member are
    solved as one stack (`_solve`).  Raises SteadyStateError, carrying the
    index of the failing point, when X or the source has a non-finite
    entry, a Lyapunov residual exceeds `KERNEL_RTOL` times ||X||, the bath
    currents are not finite, or the spectrum of i Gamma leaves [-1, 1]
    (mode occupations outside [0, 1]); where points of several chain
    members fail, a point of the member first in the stack is named.  The
    returned fields carry a leading axis of length P; a point comes out
    bit-identical in any stack, and on any chain stack that holds its
    chain.
    """
    member = np.asarray(member, dtype=np.intp)
    tables = _rate_tables(member, kappa, temperatures, chain.frequencies)
    chains = sorted(set(member.tolist()))
    if len(chains) == 1:  # every point on one member: the stack is its sub-stack
        return _solve(chain, chains[0], tables)
    size = chain.majorana.shape[1]
    state = GaussianState(
        covariance=np.empty((len(member), size, size)),
        residual=np.empty(len(member)),
        bath_currents=np.empty((len(member), len(tables))),
    )
    for c in chains:
        points = np.flatnonzero(member == c)
        try:
            part = _solve(chain, c, [table[points] for table in tables])
        except SteadyStateError as err:
            raise SteadyStateError(str(err), member=int(points[err.member])) from None
        for field in ("covariance", "residual", "bath_currents"):
            getattr(state, field)[points] = getattr(part, field)
    return state


def _solve(chain: GaussianChain, c: int, tables: list[np.ndarray]) -> GaussianState:
    """The steady states of P points on member c of the chain stack, from
    each bath's (P, T, 2) rate table.

    One batched eigendecomposition of X, and the Kronecker solve for each
    point whose eigenvector solution leaves a residual above `_EIG_RTOL`
    times ||X||, near an exceptional point of X (see the module
    docstring); the other points keep their eigenvector solution.  A
    SteadyStateError carries the index of the failing point.
    """
    # each bath's transitions on member c: the slots before its NaN padding
    live = [np.count_nonzero(~np.isnan(freqs[c])) for freqs in chain.frequencies]
    tables = [table[:, :n] for table, n in zip(tables, live)]
    lowering = [bath_lowering[c, :n] for bath_lowering, n in zip(chain.lowering, live)]
    majorana = chain.majorana[c]
    matrices = tuple(map(_bath_matrices, tables, lowering))
    m = sum(matrices)
    x = majorana - 2.0 * m.real
    source = -4.0 * m.imag
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(source).all(axis=(1, 2))
    _first_failure(~finite, lambda p: "the Lyapunov equation has a non-finite entry")

    scale = np.linalg.norm(x, axis=(1, 2))
    gamma = _lyapunov_eig(x, source)
    residual = _lyapunov_residual(x, gamma, source)
    # a NaN residual takes the Kronecker solve too
    for p in np.flatnonzero(~(residual <= _EIG_RTOL * scale)):
        if x.shape[1] > 2 * _KRONECKER_MAX_SPINS:
            rows = x.shape[1] ** 2
            raise SteadyStateError(
                f"the eigenvector solution misses the Lyapunov equation, and the Kronecker "
                f"solve at n = {x.shape[1] // 2} needs a {rows} x {rows} operator "
                f"({rows**2 * 8 / 2**20:.4g} MiB); it is refused above n = {_KRONECKER_MAX_SPINS}",
                member=int(p),
            )
        gamma[p] = _lyapunov_kronecker(x[p], source[p])
        residual[p] = _lyapunov_residual(x[p], gamma[p], source[p])
    _first_failure(
        residual > KERNEL_RTOL * scale,
        lambda p: f"Lyapunov residual {residual[p]:.3e} exceeds {KERNEL_RTOL:.0e} x "
        f"||X|| = {scale[p]:.3e}",
    )
    flows = [
        (majorana * (0.5 * (m.real @ gamma + gamma @ m.real) - m.imag))
        .reshape(len(gamma), -1)
        .sum(1)
        for m in matrices
    ]
    currents = np.stack(flows, axis=1)
    _check_currents(currents)
    # the mode occupations (1 -+ largest)/2 meet the bound rho's eigenvalues meet
    largest = np.max(np.abs(np.linalg.eigvalsh(1j * gamma)), axis=1)
    _first_failure(
        largest > 1.0 - 2.0 * _MIN_EIGENVALUE,
        lambda p: f"covariance not physical: |spectrum of i Gamma| reaches {largest[p]:.12f}",
    )
    return GaussianState(covariance=gamma, residual=residual, bath_currents=currents)
