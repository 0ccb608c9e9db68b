"""The steady state of the XY chain from its one-body correlation matrix.

After a Jordan-Wigner transform, c_i = (prod_{j<i} sigma^z_j) sigma^-_i,
the XY chain in a transverse field is quadratic,

    H = sum_ij h_ij c_i^dag c_j + const,

with h on the diagonal of the n x n hopping matrix and delta on its first
off-diagonals.  Each style writes H = sum_ij H_ij a_i^dag a_j + const, H
real symmetric, in a basis of fermions a_i in which every jump operator
is L = sum_i l_i a_i, with a real lowering vector l, or its adjoint.

- Local style: the sites, a_i = c_i and H = h.  sigma^-_0 is c_0.  On the
  last site sigma^-_{n-1} carries the parity string of the other sites,
  which commutes with every even operator of those sites, so it drops out
  of the equation for every quadratic observable; l is e_0 or e_{n-1}.
- Global style: the modes.  With the modes eta_k = sum_i phi_k(i) c_i of
  h at energies eps_k, a_k = xi_k is eta_k for eps_k > 0 and eta_k^dag
  otherwise, so H = diag|eps_k|.  sigma^x_0 = c_0 + c_0^dag and
  sigma^x_{n-1} = P (c_{n-1} - c_{n-1}^dag), with P the total parity,
  which commutes with H and with every even operator and so drops out
  too.  A bath at site s lowers the energy by |eps| through
  sum_{|eps_k| = |eps|} l_k xi_k, with l_k = phi_k(s), times (+1 on site
  0, -1 on site n-1) where eps_k < 0.  The gaps sigma^x connects are
  exactly the |eps_k|, so they are grouped by the rule the dense oracle
  (`lindblad.global_transitions`) applies to the many-body gaps:
  `lindblad._groups` at the tolerance that `lindblad._degeneracy_tolerance`
  gives the largest |E|, which is sum_k |eps_k| / 2.  Zero modes carry no
  jump operator.  This grouping and the oracle's can differ only where
  two |eps_k| differ by less than that tolerance without being equal
  (delta near 1e-9 h).  Where the many-body energies overflow (delta
  near 1e308), an infinite tolerance would drop every gap: every mode
  takes frequency +inf instead, so the bath drives one transition at an
  infinite frequency, whose rates the point step refuses.

No jump operator creates or annihilates two fermions, so the steady state
has no anomalous part <a_i a_j>, and the one-body matrix
K_ij = <a_i^dag a_j> - delta_ij / 2 obeys a closed equation and fixes the
heat currents (third quantization: Prosen, NJP 10, 043026 (2008); Prosen
and Zunkovic, NJP 12, 025016 (2010)).  H adds i[H, K] to dK/dt, and a
transition of lowering vector l, emission rate e and absorption rate a
adds -(e + a)/2 {l l^T, K} - (e - a)/2 l l^T, so the steady K solves

    X K + K X^dag = S,  X = i H - Q / 2,
    Q = sum_t (e + a)_t l_t l_t^T,  S = sum_t (e - a)_t l_t l_t^T / 2.

With <H> = Tr(H K) + const, bath k feeds in the part of d<H>/dt its
transitions add, sum_t -(e + a)_t l_t^T Re(K) H l_t - (e - a)_t l_t^T H l_t / 2
over its transitions.

The chain step, `gaussian_chain`, takes a stack of C chains that differ
in the coupling alone, with the left bath on site 0 and the right bath
on site n - 1, and holds, for each member, H and the two baths'
transitions side by side (`lindblad.Slots`), padded like those of the
rate route with frequency NaN, with each transition's lowering vector,
zero on padding; none of it depends on temperature or kappa.  In the
global style it takes one batched eigendecomposition of the (C, n, n)
hopping matrices and, per bath, one `lindblad._groups` call on every
member's sorted |eps_k| (zero modes NaN), which puts each member's groups
first and NaN past them; each mode sits in one group, so one assignment
puts its l_k in its group's vector.  It records, read-only and per
member, which of three paths the point step takes: `GaussianChain.diagonal`
for a global member whose every group holds one mode, read from the group
labels (the support of the lowering vectors would not tell, since at
delta = 0 `eigh` returns site vectors and the one group of n modes then
has lowering vectors of one entry), and `GaussianChain.tridiagonal` for
every local member.  The point step, `steady_state_gaussian`, takes P
points on the members at once, at one kappa, with a member index and the
two baths' temperatures for each point, takes their rates on the live
slots (`lindblad._slot_rates`), and solves each point on its member's
path.

Both closed forms below take each point's rates after an exact scaling
by a power of two that brings the largest into [0.5, 1), as the Ising
pair's rate route does, and scale what carries the units of a rate back:
no product of two rates leaves the normal range at small kappa (the
one-mode form read 0 from kappa of about 1e-162 on without it), and a
point whose numbers stay in the normal range keeps its bits.

On a member whose every group holds one mode (the global style away from
|eps| collisions), each transition lowers one mode, so X and S are
diagonal and so is K: K_kk = n_k - 1/2, with the occupation

    n_k = A_k / D_k,  A_k = sum_t a_t l_tk^2,  D_k = sum_t (e + a)_t l_tk^2,

and n_k = 1/2 where no bath damps mode k (D_k = 0).  With E_bk and A_bk
bath b's emission and absorption rates times l_bk^2, bath b feeds in

    sum_k eps_k sum_{c != b} (A_bk E_ck - E_bk A_ck) / D_k,

in which no term cancels another: a cold mode (A = 0) carries an exact
zero, where the general form's K = -1/2 would keep a rounding that its
current multiplies by about kappa delta^2 (0.15 against -4.15 in the two
baths of n = 3 at h = kappa = 1, delta = 3e8, T_L = 2, T_R = 0).  Every
sum over slots has at most one nonzero term per entry, and the one over
baths and modes runs elementwise in a fixed order, so a point does not
depend on its stack.  These points take no eigendecomposition and no
matrix product: their residual, ||X||, finiteness and physicality are
taken from the diagonals, at O(n S) per point for S slots.  A two-point
step on the global chain at h = delta = kappa = 1 takes 0.14 to 0.15 ms
at n = 5 and 6, against 0.31 to 0.34 ms by the eigenvector route, and
3.2 ms against 112 ms at n = 200 (one BLAS thread, 2-vCPU Xeon VM).

A local member is the uniform chain, h on the diagonal of H and delta
on its first off-diagonals, with one transition per bath, of rates
(e_L, a_L) on site 0 and (e_R, a_R) on site n - 1, and its steady state
is known exactly (Karevski and Platini, PRL 102, 207207 (2009)).  With
g = e + a and s = (e - a) / 2 for each bath, K is tridiagonal: c_0 on
K_00, c_{n-1} on the last diagonal entry, one bulk value m on the rest
of the diagonal, +i beta above the diagonal and -i beta below it.  It
meets every entry of the equation identically but the two corners and
the first and last entries above the diagonal, which read

    2 delta beta - g_L c_0 = s_L,      delta (m - c_0) = g_L beta / 2,
    -2 delta beta - g_R c_{n-1} = s_R,  delta (c_{n-1} - m) = g_R beta / 2,

so that, with X_LR = a_L e_R - e_L a_R, which has the sign of T_L - T_R,

    2 delta beta = -f X_LR / (g_L + g_R),
    f = 4 delta^2 / (4 delta^2 + g_L g_R) = 1 / (1 + (g_L / 2 delta)(g_R / 2 delta)),
    m = (g_R c_0 + g_L c_{n-1}) / (g_L + g_R),

and the left bath feeds in -h (g_L c_0 + s_L) = h f X_LR / (g_L + g_R),
the right bath exactly its negative: the current does not depend on n,
cannot take the wrong sign, and f, written so, never squares delta.  At
delta = 0 the middle sites are undamped and m is set to 0, the maximally
mixed state on them, the state the dense route projects its degenerate
kernel from.  These points take no eigendecomposition of X: building K
is O(n) per point, and only its checks, the Lyapunov residual by product
and `eigvalsh` of the real tridiagonal matrix similar to 2K, cost
O(n^3).  A two-point step on the local chain at h = delta = kappa = 1
takes 0.15 to 0.18 ms at n = 5 and 6, against 0.25 to 0.29 ms by the
eigenvector route, and 10 ms against 170 ms at n = 200 (one BLAS thread,
2-vCPU Xeon VM).  g > 0 always holds, since h > 0 and kappa > 0 give
every emission rate a floor of kappa h.

The other points, global members with a group of several modes
(delta = 0, sqrt(2) h at n = 3, 2 h at n = 5, and collisions within the
grouping tolerance), take Q and S by one product over the slots per
bath: a bath's transitions share no mode, so each entry of it is one
term, whatever padding a stack adds.  They are solved for K by one
eigendecomposition of X, batched over the (P, n, n) stack of every such
point.  A pair of eigenvalues with d_i + conj(d_j) zero (within
`KERNEL_RTOL` of the largest |d|) belongs to modes no bath damps; the
component of K there is set to zero, which is the maximally mixed state
on those modes, the state the dense route projects a degenerate kernel
from.  Cost: O(n^3) per point, against O(d^6) = O(64^n) for the SVD of
the dense d^2 x d^2 generator; the chain step keeps n^2 doubles per
member and n per transition, at most n transitions per bath and member.

Where X is defective (an exceptional point: the 2-spin local chain at
h = 1, delta = 0.5, kappa = 1, T_R = 0, sent down this route, has one at
n_BE(h, T_L) = 1), its eigenvectors are nearly parallel and their
solution misses the equation.
A residual above `_EIG_RTOL` times ||X|| hands that point alone to the
Kronecker solve of (X kron I + I kron X^*) vec K = vec S, by
minimum-norm least squares with relative cutoff `KERNEL_RTOL`, which
zeroes undamped mode pairs as the eigenvector solution does; the other
points keep their eigenvector solution.  An operator with a non-finite
entry, where sums X_ii + X_kk^* overflow, is refused rather than handed
to least squares.  The eigendecomposition stays first because the
Kronecker solve costs O(n^6): 0.08 to 0.45 ms at n = 5 and 6, about as
much as a whole point, but 14 to 18 ms at n = 16, where a point takes
0.5 to 0.7 ms (one core of a 2-vCPU 2.0 GHz Xeon VM).  Its operator
grows as n^4 in memory, so past `_KRONECKER_MAX_SPINS` spins it is not
built: such a point raises SteadyStateError with its n and the
operator's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import (
    DissipatorStyle,
    Slots,
    _degeneracy_tolerance,
    _groups,
    _local_frequencies,
    _slot_rates,
    _slots,
)
from .spinops import ChainModel, SpinChainSpec, _coupling_stack
from .steady import (
    _MIN_EIGENVALUE,
    KERNEL_RTOL,
    SteadyStateError,
    _currents_check,
    _refuse_first,
)


# The eigenvector solution is kept while its Lyapunov residual stays below
# this fraction of ||X||.  Generic points reach 6e-16 at most; near an
# exceptional point the error in J tracks the residual (5.6e-11 at a
# residual of 7.3e-11, which the KERNEL_RTOL guard would let through).
_EIG_RTOL = 1e-12

# The longest chain the Kronecker solve is run on.  Its complex operator has
# n^2 rows: 256 rows (1 MiB) at n = 16, solved in 14 to 18 ms on one core
# of a 2-vCPU 2.0 GHz Xeon VM, and 95 MiB at n = 50, 1.5 GiB at n = 100.
_KRONECKER_MAX_SPINS = 16


@dataclass(frozen=True)
class GaussianChain:
    """The temperature-independent half of the Gaussian route (the chain
    step), for a stack of C chains that differ in the coupling alone.

    `hamiltonian[c]` is the real n x n matrix H of member c in its style's
    fermions: the hopping matrix (local style) or diag|eps_k| (global
    style).  `slots` holds the two baths' transitions side by side
    (`lindblad.Slots`), and `lowering[c, s]` is the real lowering vector l
    of the transition in slot s of member c, zero on padding.
    `diagonal[c]` says whether every group of member c holds one mode
    (global style only, from the group labels), so that its X, S and K are
    diagonal, and `tridiagonal[c]` whether member c is a local chain, whose
    K is tridiagonal with a uniform bulk; the point step solves the points
    of either in closed form.  Every array is read-only.
    """

    hamiltonian: np.ndarray
    slots: Slots
    lowering: np.ndarray
    diagonal: np.ndarray
    tridiagonal: np.ndarray


@dataclass(frozen=True)
class GaussianState:
    """The steady one-body matrices K = <a_i^dag a_j> - delta_ij / 2 of P points.

    `covariance` has shape (P, n, n), complex Hermitian, in the fermions of
    the chain step's H.  `residual[p]` is ||X K + K X^dag - S|| at point p,
    and `bath_currents[p]` the energy the left and the right bath feed in
    at point p.  Where points are refused, the SteadyStateError names the
    first of them.
    """

    covariance: np.ndarray
    residual: np.ndarray
    bath_currents: np.ndarray


def _global_transitions(
    eps: np.ndarray, phi: np.ndarray, site: int, sign: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frequencies (C, G), lowering vectors (C, G, n), one mode per group
    (C,)) of sigma^x on an edge site of each member of a stack of C mode
    sets, grouped by |eps|, NaN and zero past each member's groups."""
    # a mode below zero is lowered by its creation operator
    coefficient = np.where(eps > 0, phi[:, site], sign * phi[:, site])
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
    # each mode sits in one group
    vectors = np.zeros((*means.shape, eps.shape[1]))
    live = ~np.isnan(energy)
    member, rank = np.nonzero(live)
    mode = order[member, rank]
    vectors[member, labels[member, rank], mode] = coefficient[member, mode]
    # the labels, not the vectors' support: at delta = 0 `eigh` returns site
    # vectors, and a group of n modes has a lowering vector of one entry
    one_mode = ~(live[:, 1:] & (np.diff(labels, axis=1) == 0)).any(axis=1)
    return means, vectors, one_mode


# an overflow leaves an infinite frequency, which the point step refuses
@np.errstate(over="ignore", invalid="ignore")
def gaussian_chain(
    head: SpinChainSpec, couplings: Sequence[float], style: DissipatorStyle
) -> GaussianChain:
    """The chain step of the XY chains that are `head` at each of
    `couplings`, member c at `couplings[c]`, with a bath of `style` on each
    end, the left bath on site 0 and the right bath on site n - 1: H and
    each bath's (frequency, lowering vector) pairs, built in array
    operations over the whole stack (one batched `eigh` in the global
    style, none in the local one), and the path each member's points take.
    The head's own coupling is not read.
    """
    if head.model is not ChainModel.XY_TRANSVERSE:
        raise ValueError("the Gaussian route needs the quadratic XY chain")
    delta = _coupling_stack(couplings)
    n = head.n_spins
    hop = head.field_h * np.eye(n) + delta[:, None, None] * (np.eye(n, k=1) + np.eye(n, k=-1))
    if style is DissipatorStyle.GLOBAL:
        eps, phi = np.linalg.eigh(hop)
        hamiltonian = np.zeros(hop.shape)
        hamiltonian[:, range(n), range(n)] = np.abs(eps)
        left = _global_transitions(eps, phi, 0, 1.0)
        right = _global_transitions(eps, phi, n - 1, -1.0)
        slots = _slots(left[0], right[0])
        lowering = np.concatenate([left[1], right[1]], axis=1)
        diagonal = left[2] & right[2]
        tridiagonal = np.zeros(len(delta), dtype=bool)
    else:
        hamiltonian = hop
        slots = _slots(*(np.full((len(delta), 1), nu) for nu in _local_frequencies(head)))
        lowering = np.repeat(np.eye(n)[None, [0, n - 1]], len(delta), axis=0)
        diagonal = np.zeros(len(delta), dtype=bool)
        tridiagonal = np.ones(len(delta), dtype=bool)
    for array in (hamiltonian, lowering, diagonal, tridiagonal):
        array.setflags(write=False)
    return GaussianChain(
        hamiltonian=hamiltonian,
        slots=slots,
        lowering=lowering,
        diagonal=diagonal,
        tridiagonal=tridiagonal,
    )


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _lyapunov_eig(x: np.ndarray, source: np.ndarray) -> np.ndarray:
    """K of each member of a (P, n, n) stack from the eigendecomposition of
    X, zero on undamped mode pairs."""
    d, v = np.linalg.eig(x)
    v_inv = np.linalg.inv(v)
    pair = d[:, :, None] + d.conj()[:, None, :]
    undamped = np.abs(pair) <= KERNEL_RTOL * np.max(np.abs(d), axis=1)[:, None, None]
    rotated = v_inv @ source @ _adjoint(v_inv)
    solution = np.where(undamped, 0.0, rotated / np.where(undamped, 1.0, pair))
    k = v @ solution @ _adjoint(v)
    return 0.5 * (k + _adjoint(k))  # Hermitian up to rounding


def _lyapunov_kronecker(x: np.ndarray, source: np.ndarray) -> np.ndarray:
    """K of one point as the minimum-norm least-squares solution of
    (X kron I + I kron X^*) vec K = vec S, which needs no eigenvectors.

    A finite X whose sums X_ii + X_kk^* overflow gives an operator that
    least squares cannot take: SteadyStateError, whose point the caller
    names."""
    eye = np.eye(len(x))
    operator = np.kron(x, eye) + np.kron(eye, x.conj())
    if not np.isfinite(operator).all():
        raise SteadyStateError("the Kronecker operator has a non-finite entry")
    solution = np.linalg.lstsq(operator, source.reshape(-1), rcond=KERNEL_RTOL)[0]
    k = solution.reshape(x.shape)
    return 0.5 * (k + _adjoint(k))


def _lyapunov_residual(x: np.ndarray, k: np.ndarray, source: np.ndarray) -> np.ndarray:
    """||X K + K X^dag - S|| of one point or of each member of a stack."""
    return np.linalg.norm(x @ k + k @ _adjoint(x) - source, axis=(-2, -1))


def _scaled(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's (P, S, 2) rates times 2^-E, exactly, with E (P,) the
    exponent that brings the point's largest rate into [0.5, 1); an
    infinite or NaN rate keeps E = 0 and reaches the non-finite checks."""
    exponent = np.frexp(rates.max(axis=(1, 2), initial=0.0))[1]
    return np.ldexp(rates, -exponent[:, None, None]), exponent


def _one_mode_points(
    chain: GaussianChain, member: np.ndarray, rates: np.ndarray, runs: list[slice]
) -> tuple[np.ndarray, ...]:
    """The point step's fields of P points on members whose every group
    holds one mode, where X, S and K are diagonal: elementwise, in closed
    form, with no eigendecomposition (see the module docstring).

    The fields are K, the Lyapunov residual, ||X||, whether X and S are
    finite, the Kronecker solve's refusal (None here), the bath currents,
    and the largest |eigenvalue| of 2K, each with a leading axis of P."""
    energy = np.diagonal(chain.hamiltonian, axis1=1, axis2=2)[member]
    # each slot's scaled (emission, absorption) rates on l_tk^2, summed over
    # each bath's slots: they share no mode and hold one each, so each sum
    # has one term per entry, however many padding slots the stack adds
    scaled, exponent = _scaled(rates)
    exponent = exponent[:, None]
    terms = scaled.transpose(2, 0, 1)[..., None] * np.square(chain.lowering[member])
    emitted, absorbed = np.stack([terms[:, :, run].sum(axis=2) for run in runs], axis=2)
    # the (P, n) sums over the baths, elementwise in bath order
    emission, absorption = emitted.sum(axis=1), absorbed.sum(axis=1)
    damping = emission + absorption
    undamped = damping == 0
    # a mode no bath damps stays half filled
    occupation = np.divide(absorption, damping, out=np.full(damping.shape, 0.5), where=~undamped)
    k_diagonal = occupation - 0.5
    # X, S and the residual in the units of the rates
    unscaled = np.ldexp(damping, exponent)
    x = 1j * energy - 0.5 * unscaled
    source = np.ldexp(0.5 * (emission - absorption), exponent)
    finite = np.isfinite(x).all(axis=1) & np.isfinite(source).all(axis=1)
    residual = np.linalg.norm(-unscaled * k_diagonal - source, axis=1)
    n = energy.shape[1]
    k = np.zeros((len(member), n, n), dtype=complex)
    k.reshape(len(member), n * n)[:, :: n + 1] = k_diagonal
    # bath b gains eps_k sum_c (A_b E_c - E_b A_c) / D_k from mode k, whose
    # c = b term is an exact zero: no term cancels another
    exchange = absorbed[:, :, None] * emitted[:, None] - emitted[:, :, None] * absorbed[:, None]
    flows = np.divide(
        energy[:, None] * exchange.sum(axis=2),
        damping[:, None],
        out=np.zeros(emitted.shape),
        where=~undamped[:, None],
    )
    return (
        k,
        residual,
        np.linalg.norm(x, axis=1),
        finite,
        np.full(len(member), None, dtype=object),
        np.ldexp(flows.sum(axis=2), exponent),
        np.max(np.abs(2.0 * k_diagonal), axis=1),
    )


def _tridiagonal_points(
    chain: GaussianChain, member: np.ndarray, rates: np.ndarray, runs: list[slice]
) -> tuple[np.ndarray, ...]:
    """The point step's fields of P points on local members, the uniform
    chain between two edge baths, whose K is tridiagonal with a uniform
    bulk: in closed form, with no eigendecomposition of X (see the module
    docstring).  The fields are those of `_one_mode_points`; each bath
    has one slot, so `runs` is not needed."""
    hamiltonian = chain.hamiltonian[member]
    field, delta = hamiltonian[:, 0, 0], hamiltonian[:, 0, 1]
    # (P, 2) arrays hold the left bath's and the right bath's one slot
    g = rates.sum(axis=2)
    s = 0.5 * (rates[..., 0] - rates[..., 1])
    # X_LR / (g_L + g_R) from the scaled rates, so that no product of two
    # rates underflows, scaled back
    scaled, exponent = _scaled(rates)
    exchange = scaled[:, 0, 1] * scaled[:, 1, 0] - scaled[:, 0, 0] * scaled[:, 1, 1]
    drive = np.ldexp(exchange / scaled.sum(axis=(1, 2)), exponent)
    # g / (2 delta), infinite at delta = 0, where f = 0 and beta = 0
    half = 0.5 * g / delta[:, None]
    flow = drive / (1.0 + half[:, 0] * half[:, 1])  # f X_LR / (g_L + g_R) = -2 delta beta
    beta = -0.5 * drive / (delta + 0.5 * g[:, 0] * half[:, 1])
    ends = (flow[:, None] * [-1.0, 1.0] - s) / g  # c_0 and c_{n-1}
    bulk = np.where(delta > 0, (g[:, ::-1] * ends).sum(axis=1) / g.sum(axis=1), 0.0)

    n = hamiltonian.shape[1]
    k = np.zeros((len(member), n * n), dtype=complex)
    k[:, :: n + 1] = bulk[:, None]
    k[:, 0], k[:, -1] = ends.T
    k[:, 1 :: n + 1] = 1j * beta[:, None]
    k[:, n :: n + 1] = -1j * beta[:, None]
    k = k.reshape(len(member), n, n)
    x = 1j * hamiltonian
    x[:, 0, 0] -= 0.5 * g[:, 0]
    x[:, -1, -1] -= 0.5 * g[:, 1]
    source = np.zeros(x.shape)
    source[:, 0, 0], source[:, -1, -1] = s.T
    # H is finite: X and S are where g and s are
    finite = np.isfinite(g).all(axis=1) & np.isfinite(s).all(axis=1)
    residual = np.full(len(member), np.nan)
    residual[finite] = _lyapunov_residual(x[finite], k[finite], source[finite])
    scale = np.linalg.norm(x, axis=(1, 2))
    kept = residual <= KERNEL_RTOL * scale
    # a diagonal matrix of phases takes 2K to the real symmetric tridiagonal
    # 2 (Re K + |Im K|), which has its spectrum
    similar = 2.0 * (k.real + np.abs(k.imag))
    largest = np.zeros(len(member))
    largest[kept] = np.abs(np.linalg.eigvalsh(similar[kept])).max(axis=1)
    # the left bath feeds in -h (g_L c_0 + s_L) = h f X_LR / (g_L + g_R), the
    # right bath its negative; adding zero turns a -0 into 0
    currents = (field * flow)[:, None] * [1.0, -1.0] + 0.0
    return k, residual, scale, finite, np.full(len(member), None, dtype=object), currents, largest


def _coupled_points(
    chain: GaussianChain, member: np.ndarray, rates: np.ndarray, runs: list[slice]
) -> tuple[np.ndarray, ...]:
    """The point step's fields of P points on any members, those of
    `_one_mode_points`: one batched eigendecomposition of X, and the
    Kronecker solve for each point whose eigenvector solution misses (see
    the module docstring)."""
    # the (P, 2, S) weights e + a and e - a of each slot
    weights = np.stack([rates[..., 0] + rates[..., 1], rates[..., 0] - rates[..., 1]], axis=1)
    lowering = chain.lowering[member]
    hamiltonian = chain.hamiltonian[member]
    # Q and 2 S, sum_t w_t l_t l_t^T for each weight, one product per bath:
    # a bath's transitions share no mode, so each entry of its product is one
    # term, however many padding slots the stack adds
    products = 0.0
    for run in runs:
        l = lowering[:, None, run]
        products = products + (weights[..., run, None] * l).swapaxes(-1, -2) @ l
    x = 1j * hamiltonian - 0.5 * products[:, 0]
    source = 0.5 * products[:, 1]
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(source).all(axis=(1, 2))

    scale = np.linalg.norm(x, axis=(1, 2))
    k = np.zeros(x.shape, dtype=complex)
    residual = np.full(len(x), np.nan)
    solved = np.flatnonzero(finite)
    k[solved] = _lyapunov_eig(x[solved], source[solved])
    residual[solved] = _lyapunov_residual(x[solved], k[solved], source[solved])
    refused = np.full(len(x), None, dtype=object)  # the Kronecker solve's refusals
    n = x.shape[1]
    # a NaN residual takes the Kronecker solve too
    for p in solved[~(residual[solved] <= _EIG_RTOL * scale[solved])].tolist():
        if n > _KRONECKER_MAX_SPINS:
            rows = n**2
            refused[p] = (
                f"the eigenvector solution misses the Lyapunov equation, and the Kronecker "
                f"solve at n = {n} needs a {rows} x {rows} operator "
                f"({rows**2 * 16 / 2**20:.4g} MiB); it is refused above n = {_KRONECKER_MAX_SPINS}"
            )
            continue
        try:
            k[p] = _lyapunov_kronecker(x[p], source[p])
        except SteadyStateError as err:
            refused[p] = str(err)
            continue
        residual[p] = _lyapunov_residual(x[p], k[p], source[p])
    kept = finite & ~refused.astype(bool) & ~(residual > KERNEL_RTOL * scale)

    # bath k feeds in sum_t -(e + a)_t l_t^T Re(K) H l_t - (e - a)_t l_t^T H l_t / 2
    # over its slots, summed in order from +0
    h_l = hamiltonian[:, None] @ lowering[..., None]
    k_h_l = (k.real[:, None] @ h_l)[..., 0]
    flows = -weights[:, 0] * (lowering * k_h_l).sum(axis=2)
    flows -= 0.5 * weights[:, 1] * (lowering * h_l[..., 0]).sum(axis=2)
    currents = np.zeros((len(member), 2))  # the left bath's and the right bath's
    np.add.at(currents, (slice(None), chain.slots.bath), flows)
    # the mode occupations (1 -+ largest)/2 meet the bound rho's eigenvalues meet
    largest = np.zeros(len(member))
    largest[kept] = np.max(np.abs(np.linalg.eigvalsh(2.0 * k[kept])), axis=1)
    return k, residual, scale, finite, refused, currents, largest


# an overflow is refused by the non-finite checks, under the point's index;
# a local chain's g / (2 delta) is infinite at delta = 0, where f = 0
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def steady_state_gaussian(
    chain: GaussianChain, member: np.ndarray, kappa: float, temperatures: np.ndarray
) -> GaussianState:
    """The point step: the steady one-body matrices of P points at one
    kappa, and the left and the right bath's current.

    Point p is on member `member[p]` of the chain stack, and
    `temperatures[p]` holds the left and the right bath's temperature
    there; arrays of other shapes than (P,) and (P, 2) raise ValueError.
    A point on a member whose every group holds one mode
    (`GaussianChain.diagonal`) is solved in closed form, elementwise, at
    O(n S) for S slots, with no eigendecomposition and no matrix product.
    A point on a local member (`GaussianChain.tridiagonal`) is solved in
    closed form as well, its tridiagonal K in O(n), and checked by its
    Lyapunov residual and the spectrum of 2K at O(n^3), with no
    eigendecomposition of X.  The other points, on global members with a
    group of several modes, are solved as one stack, at O(n^3) each: one
    batched eigendecomposition of X, and the Kronecker solve for each point
    whose eigenvector solution leaves a residual above `_EIG_RTOL` times
    ||X||, near an exceptional point of X (see the module docstring); the
    other points keep their eigenvector solution.  The returned fields
    carry a leading axis of length P; a point comes out bit-identical in
    any stack, and on any chain stack that holds its chain.

    Raises SteadyStateError, naming the first point refused with the
    refusal it meets in a stack of its own, when X or S has a non-finite
    entry, the Kronecker solve is refused, a Lyapunov residual exceeds
    `KERNEL_RTOL` times ||X|| or is NaN, the bath currents are not finite,
    or the spectrum of 2K leaves [-1, 1] (mode occupations outside [0, 1]).
    The eigensolvers see only the points no earlier check refuses and that
    neither closed form takes.
    """
    member = np.asarray(member, dtype=np.intp)
    rates = _slot_rates(chain.slots, member, kappa, temperatures)
    # the left bath's run of slots, then the right bath's
    split = int(np.searchsorted(chain.slots.bath, 1))
    runs = [slice(0, split), slice(split, None)]
    diagonal, tridiagonal = chain.diagonal[member], chain.tridiagonal[member]
    paths = [
        (diagonal, _one_mode_points),
        (tridiagonal, _tridiagonal_points),
        (~(diagonal | tridiagonal), _coupled_points),
    ]
    taken = [(mask, solve) for mask, solve in paths if mask.any()]
    if len(taken) <= 1:  # one path takes every point
        solve = taken[0][1] if taken else _coupled_points
        fields = solve(chain, member, rates, runs)
    else:
        fields = None
        for mask, solve in taken:
            part = solve(chain, member[mask], rates[mask], runs)
            if fields is None:
                fields = [np.empty((len(member), *a.shape[1:]), a.dtype) for a in part]
            for merged, a in zip(fields, part):
                merged[mask] = a
    k, residual, scale, finite, refused, currents, largest = fields
    _refuse_first(
        [
            (~finite, lambda p: "the Lyapunov equation has a non-finite entry"),
            (refused.astype(bool), refused.__getitem__),
            (
                ~(residual <= KERNEL_RTOL * scale),  # a NaN residual too
                lambda p: f"Lyapunov residual {residual[p]:.3e} exceeds {KERNEL_RTOL:.0e} x "
                f"||X|| = {scale[p]:.3e}",
            ),
            _currents_check(currents),
            (
                largest > 1.0 - 2.0 * _MIN_EIGENVALUE,
                lambda p: f"covariance not physical: |spectrum of 2K| reaches "
                f"{largest[p]:.12f}",
            ),
        ]
    )
    return GaussianState(covariance=k, residual=residual, bath_currents=currents)
