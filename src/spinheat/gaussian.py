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
  connect.  Where the many-body energies overflow (delta near 1e308), an
  infinite tolerance would drop every gap: every mode takes frequency
  +inf instead, so the bath drives one transition at an infinite
  frequency, whose rates the point step refuses.

The chain step, `gaussian_chain`, takes a stack of C chains that differ
in the coupling alone and holds, for each member, A and every bath's
transitions side by side (`lindblad.Slots`), padded like those of the
rate route with frequency NaN; it alone says where the baths couple, and
none of it depends on temperature or kappa.  It takes one batched
eigendecomposition of the (C, n, n) hopping matrices and, per bath, one
`lindblad._groups` call on every member's sorted |eps_k| (zero modes
NaN), which puts each member's groups first and NaN past them; one
scatter-add sums each group's lowering vectors.  For each transition,
with lowering vector l, it keeps the real and imaginary parts of
l^* l^T and the work term sum_ab A_ab Im(l^* l^T)_ab, zero on padding.
The point step, `steady_state_gaussian`, takes P points on the members
at once, a member index, a kappa and a temperature per bath for each
point, and takes their rates on the live slots (`lindblad._slot_rates`)
into

    M = sum_k M_k,  M_k = sum_t (emission l_t^* l_t^T + absorption l_t l_t^dag),

whose real part weighs Re(l^* l^T) by emission + absorption and whose
imaginary part weighs Im(l^* l^T) by emission - absorption: two real
products over the slots, summed in slot order from +0, so that a
member's sums do not depend on how wide its stack is padded.  It solves
X Gamma + Gamma X^T = -4 Im M with X = A - 2 Re M by one eigendecomposition
of X, batched over the (P, 2n, 2n) stack of every member's points.  A
pair of eigenvalues of X that sum to zero (within `KERNEL_RTOL` of the
largest) belongs to modes no bath damps; the component of Gamma there is
set to zero, which is the maximally mixed state on those modes, the state
the dense route projects a degenerate kernel from.  Cost: O(n^3) per
point, against O(d^6) = O(64^n) for the SVD of the dense d^2 x d^2
generator; the chain step keeps 2 (2n)^2 + 1 doubles per transition, at
most n of them per bath and member.

The point step also returns each bath's current.  With
<H> = -(1/4) sum_ab A_ab Gamma_ab and the bath part of the covariance's
equation of motion, -2(Re M_k Gamma + Gamma Re M_k) + 4 Im M_k, bath k
feeds in sum_ab A_ab ((Re M_k Gamma + Gamma Re M_k)/2 - Im M_k)_ab, which
is sum_t over its transitions of
(emission + absorption)_t (-1/2) <Re(l^* l^T)_t, A Gamma + Gamma A>
- (emission - absorption)_t work_t, for A and Gamma antisymmetric.

Where X is defective (an exceptional point: the 2-spin local chain at
h = 1, delta = 0.5, kappa = 1, T_R = 0 has one at n_BE(h, T_L) = 1), its
eigenvectors are nearly parallel and their solution misses the equation.
A residual above `_EIG_RTOL` times ||X|| hands that point alone to
the Kronecker solve of (I kron X + X kron I) vec Gamma = vec(-4 Im M), by
minimum-norm least squares with relative cutoff `KERNEL_RTOL`, which
zeroes undamped mode pairs as the eigenvector solution does; the other
points keep their eigenvector solution.  An operator with a non-finite
entry, where sums X_ii + X_kk overflow, is refused rather than handed to
least squares.  The eigendecomposition
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

from .lindblad import (
    BathSpec,
    DissipatorStyle,
    Slots,
    _degeneracy_tolerance,
    _groups,
    _slot_rates,
    _slots,
)
from .spinops import ChainModel, SpinChainSpec, _stack_head
from .steady import (
    _MIN_EIGENVALUE,
    KERNEL_RTOL,
    SteadyStateError,
    _currents_check,
    _refuse_first,
)


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

    `majorana[c]` is the 2n x 2n form A of member c's H.  `slots` holds
    every bath's transitions side by side (`lindblad.Slots`).  For the
    transition in slot s of member c, with lowering vector l,
    `outer[c, s]` holds the real and the imaginary part of l^* l^T, each
    flattened to (2n)^2 entries, and `work[c, s]` is
    sum_ab A_ab Im(l^* l^T)_ab; both are zero on padding.  Every array is
    read-only.
    """

    majorana: np.ndarray
    slots: Slots
    outer: np.ndarray
    work: np.ndarray


@dataclass(frozen=True)
class GaussianState:
    """The steady Majorana covariances Gamma (<w_a w_b> = I + i Gamma) of P points.

    `covariance` has shape (P, 2n, 2n).  `residual[p]` is
    ||X Gamma + Gamma X^T + 4 Im M|| at point p, and `bath_currents[p, k]`
    the energy the k-th bath of point p feeds in.  Where points are
    refused, the SteadyStateError names the first of them.
    """

    covariance: np.ndarray
    residual: np.ndarray
    bath_currents: np.ndarray


def _mode_vectors(phi: np.ndarray) -> np.ndarray:
    """Row k of each member of a (..., n, n) stack holds the Majorana
    coefficients of c_k (phi = identity) or of eta_k = sum_i phi[i, k] c_i."""
    n = phi.shape[-1]
    vectors = np.zeros((*phi.shape[:-2], n, 2 * n), dtype=complex)
    vectors[..., 0::2] = 0.5 * _transpose(phi)
    vectors[..., 1::2] = 0.5j * _transpose(phi)
    return vectors


def _global_transitions(
    eps: np.ndarray, phi: np.ndarray, site: int, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies (C, G), lowering vectors (C, G, 2n)) of sigma^x on an edge
    site of each member of a stack of C mode sets, grouped by |eps|, NaN and
    zero past each member's groups."""
    modes = _mode_vectors(phi) * phi[:, site, :, None]
    # a mode below zero is lowered by its creation operator
    lowering = np.where((eps > 0)[..., None], modes, sign * modes.conj())
    energy = np.abs(eps)
    tol = _degeneracy_tolerance(0.5 * energy.sum(axis=1))
    # zero modes carry no jump operator; where the many-body energies
    # overflow, every mode drives the one transition at an infinite
    # frequency, which the point step refuses under the point's index
    overflow = ~np.isfinite(tol)[:, None]
    energy = np.where(overflow, np.inf, np.where(energy > tol[:, None], energy, np.nan))
    order = np.argsort(energy, axis=1, kind="stable")
    energy = np.take_along_axis(energy, order, axis=1)
    labels, means = _groups(energy, tol)
    # each group sums its modes in sorted order from +0, as np.sum does
    vectors = np.zeros((*means.shape, lowering.shape[2]), dtype=complex)
    member, rank = np.nonzero(~np.isnan(energy))
    np.add.at(vectors, (member, labels[member, rank]), lowering[member, order[member, rank]])
    return means, vectors


# an overflow leaves an infinite frequency, which the point step refuses
@np.errstate(over="ignore", invalid="ignore")
def gaussian_chain(specs: Sequence[SpinChainSpec], baths: list[BathSpec]) -> GaussianChain:
    """The chain step of a stack of XY chains that differ in the coupling
    alone: A and each bath's (frequency, lowering vector) pairs, member c
    for `specs[c]`, built in array operations over the whole stack (one
    batched `eigh` in the global style, none in the local one).

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
    delta = np.array([spec.coupling_delta for spec in specs], dtype=float)
    hop = head.field_h * np.eye(n) + delta[:, None, None] * (np.eye(n, k=1) + np.eye(n, k=-1))
    majorana = np.zeros((len(specs), 2 * n, 2 * n))
    majorana[:, 0::2, 1::2] = hop
    majorana[:, 1::2, 0::2] = -hop

    if baths[0].style is DissipatorStyle.GLOBAL:
        eps, phi = np.linalg.eigh(hop)
    frequencies, lowering = [], []
    for bath in baths:
        if bath.style is DissipatorStyle.GLOBAL:
            sign = 1.0 if bath.site == 0 else -1.0
            freqs, vectors = _global_transitions(eps, phi, bath.site, sign)
        else:
            freqs = np.full((len(specs), 1), float(bath.local_frequency))
            vectors = np.broadcast_to(_mode_vectors(np.eye(n))[bath.site], (len(specs), 1, 2 * n))
        frequencies.append(freqs)
        lowering.append(vectors)
    vectors = np.concatenate(lowering, axis=1)
    outer = vectors.conj()[..., :, None] * vectors[..., None, :]
    work = (majorana[:, None] * outer.imag).reshape(*outer.shape[:2], -1).sum(axis=2)
    outer = np.stack([outer.real, outer.imag], axis=2).reshape(*outer.shape[:2], 2, -1)
    for array in (majorana, outer, work):
        array.setflags(write=False)
    return GaussianChain(majorana=majorana, slots=_slots(frequencies), outer=outer, work=work)


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
    (I kron X + X kron I) vec Gamma = vec S, which needs no eigenvectors.

    A finite X whose sums X_ii + X_kk overflow gives an operator that least
    squares cannot take: SteadyStateError, whose point the caller names."""
    eye = np.eye(len(x))
    operator = np.kron(eye, x) + np.kron(x, eye)
    if not np.isfinite(operator).all():
        raise SteadyStateError("the Kronecker operator has a non-finite entry")
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
    (P, n_baths) raise ValueError.  The points of every chain member are
    solved as one stack: one batched eigendecomposition of X, and the
    Kronecker solve for each point whose eigenvector solution leaves a
    residual above `_EIG_RTOL` times ||X||, near an exceptional point of X
    (see the module docstring); the other points keep their eigenvector
    solution.  The returned fields carry a leading axis of length P; a
    point comes out bit-identical in any stack, and on any chain stack
    that holds its chain.

    Raises SteadyStateError, naming the first point refused with the
    refusal it meets in a stack of its own, when X or the source has a
    non-finite entry, the Kronecker solve is refused, a Lyapunov residual
    exceeds `KERNEL_RTOL` times ||X||, the bath currents are not finite,
    or the spectrum of i Gamma leaves [-1, 1] (mode occupations outside
    [0, 1]).  The eigensolvers see only the points no earlier check
    refuses.
    """
    member = np.asarray(member, dtype=np.intp)
    rates = _slot_rates(chain.slots, member, kappa, temperatures)
    emission, absorption = rates[..., 0], rates[..., 1]
    # M = sum_t (emission l_t^* l_t^T + absorption l_t l_t^dag), so its real
    # part weighs Re(l^* l^T) by e + a and its imaginary part Im(l^* l^T) by
    # e - a.  The sums over the slots run in order from +0, where padding
    # adds zeros alone, so they do not depend on how wide a stack is padded
    weights = np.stack([emission + absorption, emission - absorption], axis=2)
    outer = chain.outer[member]
    m = np.add.reduce(weights[..., None] * outer, axis=1, initial=0.0)
    size = chain.majorana.shape[1]
    majorana = chain.majorana[member]
    x = majorana - 2.0 * m[:, 0].reshape(len(member), size, size)
    source = -4.0 * m[:, 1].reshape(len(member), size, size)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(source).all(axis=(1, 2))

    scale = np.linalg.norm(x, axis=(1, 2))
    gamma = np.zeros(x.shape)
    residual = np.full(len(x), np.nan)
    solved = np.flatnonzero(finite)
    gamma[solved] = _lyapunov_eig(x[solved], source[solved])
    residual[solved] = _lyapunov_residual(x[solved], gamma[solved], source[solved])
    refused = {}  # the Kronecker solve's refusal of each point it refuses
    # a NaN residual takes the Kronecker solve too
    for p in solved[~(residual[solved] <= _EIG_RTOL * scale[solved])].tolist():
        if size > 2 * _KRONECKER_MAX_SPINS:
            rows = size**2
            refused[p] = (
                f"the eigenvector solution misses the Lyapunov equation, and the Kronecker "
                f"solve at n = {size // 2} needs a {rows} x {rows} operator "
                f"({rows**2 * 8 / 2**20:.4g} MiB); it is refused above n = {_KRONECKER_MAX_SPINS}"
            )
            continue
        try:
            gamma[p] = _lyapunov_kronecker(x[p], source[p])
        except SteadyStateError as err:
            refused[p] = str(err)
            continue
        residual[p] = _lyapunov_residual(x[p], gamma[p], source[p])
    kronecker_refused = np.zeros(len(member), dtype=bool)
    kronecker_refused[list(refused)] = True
    unsolved = residual > KERNEL_RTOL * scale
    kept = finite & ~kronecker_refused & ~unsolved

    # bath k feeds in sum_t (e + a)_t (-1/2) <Re(l^* l^T)_t, A Gamma + Gamma A>
    # - (e - a)_t work_t over its slots, summed in order from +0
    anticommutator = (majorana @ gamma + gamma @ majorana).reshape(len(member), 1, size**2)
    damping = -0.5 * (outer[:, :, 0] * anticommutator).sum(axis=2)
    flows = weights[..., 0] * damping - weights[..., 1] * chain.work[member]
    currents = np.zeros((len(member), chain.slots.n_baths))
    np.add.at(currents, (slice(None), chain.slots.bath), flows)
    # the mode occupations (1 -+ largest)/2 meet the bound rho's eigenvalues meet
    largest = np.zeros(len(member))
    largest[kept] = np.max(np.abs(np.linalg.eigvalsh(1j * gamma[kept])), axis=1)
    _refuse_first(
        [
            (~finite, lambda p: "the Lyapunov equation has a non-finite entry"),
            (kronecker_refused, refused.get),
            (
                unsolved,
                lambda p: f"Lyapunov residual {residual[p]:.3e} exceeds {KERNEL_RTOL:.0e} x "
                f"||X|| = {scale[p]:.3e}",
            ),
            _currents_check(currents),
            (
                largest > 1.0 - 2.0 * _MIN_EIGENVALUE,
                lambda p: f"covariance not physical: |spectrum of i Gamma| reaches "
                f"{largest[p]:.12f}",
            ),
        ]
    )
    return GaussianState(covariance=gamma, residual=residual, bath_currents=currents)
