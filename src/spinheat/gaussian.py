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
- Global style: the modes, each group of several written on its
  collective modes (below).  With the modes eta_k = sum_i phi_k(i) c_i of
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
  (delta near 1e-9 h).  The model gives each group one energy, the mean
  of its |eps_k|, on all its modes, as its one jump operator has one
  frequency.  Where the many-body energies overflow (delta near 1e308),
  an infinite tolerance would drop every gap: every mode takes frequency
  +inf instead, so the bath drives one transition at an infinite
  frequency, whose rates the point step refuses.

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
in the coupling alone, the left bath on site 0 and the right bath on site
n - 1, and holds, for each member, H's diagonal and its coupling on the
first off-diagonals (0 on the modes of the global style; a dense X is
formed only where a check multiplies by it), and each bath's coordinate
l_bk on each mode a_k (e_0 and e_{n-1} in the local style), with a slot
per bath and mode (`lindblad.Slots`) at its frequency, live where l_bk is
nonzero; a bath's modes of one frequency form its one transition,
sum_k l_bk a_k, and none of it depends on temperature or kappa.  In the global style it
takes one batched eigendecomposition of the (C, n, n) hopping matrices
and one `lindblad._groups` call on every member's sorted |eps_k| (zero
modes NaN), and writes each group of several modes on its collective
modes, in array operations over every such group of the stack, recording
its pairs (`GaussianChain.partner`).  The point step,
`steady_state_gaussian`, takes P points at one kappa, each with a member
index and the two baths' temperatures, takes their rates on the live
slots (`lindblad._slot_rates`), and solves each in the closed form of its
stack's style: no point takes a general eigensolver.

Both closed forms below take each point's rates after an exact scaling
by a power of two that brings the largest into [0.5, 1), as the Ising
pair's rate route does, and scale what carries the units of a rate back:
no product of two rates leaves the normal range at small kappa (the
one-mode form read 0 from kappa of about 1e-162 on without it), and a
point whose numbers stay in the normal range keeps its bits.  The
residual guard takes both its norms after one more such scaling, which
brings every |X_ij| below 1: unscaled, ||X||^2 overflows from |X_ij| of
about 1e154 on, where inf <= KERNEL_RTOL * inf would pass any residual.

On a global member away from pairs (below), each transition lowers one
mode, so X and S are diagonal and so is K: K_kk = n_k - 1/2, with the
occupation

    n_k = A_k / D_k,  A_k = sum_b A_bk,  D_k = sum_b (E_bk + A_bk),

with E_bk and A_bk bath b's emission and absorption rates times l_bk^2,
and n_k = 1/2 where no bath damps mode k (D_k = 0).  Bath b feeds in

    sum_k eps_k sum_{c != b} (A_bk E_ck - E_bk A_ck) / D_k,

in which no term cancels another: a cold mode (A = 0) carries an exact
zero, where the general form's K = -1/2 would keep a rounding that its
current multiplies by about kappa delta^2 (0.15 against -4.15 in the two
baths of n = 3 at h = kappa = 1, delta = 3e8, T_L = 2, T_R = 0).  Each
sum runs elementwise over baths and modes in a fixed order, so a point
does not depend on its stack.  These points take no eigendecomposition
and no matrix product: their residual, ||X||, finiteness and physicality
are taken from the diagonals, at O(n) per point.  A two-point step on the
global chain at h = delta = kappa = 1 takes 0.14 to 0.16 ms at n = 5 and
6, and 0.3 ms at n = 200 (one BLAS thread, 2-vCPU Xeon VM).

On a group of several modes, with u and v the left and the right bath's
lowering vectors there, Q = g_L u u^T + g_R v v^T and S live on
span(u, v), and H, the group's energy times the identity, commutes with
both, so K is zero on the complement of span(u, v), which no bath damps
(the maximally mixed state on those modes, the state the dense route
projects a degenerate kernel from), and takes any orthonormal basis of
the span.  The chain step writes the group on e1 = +-u / |u|, at the
group's lowest mode index, and e2 along the part of v orthogonal to u, at
its next, oriented so that v has coordinates b, c >= 0; the group's other
modes are the undamped complement and carry no jump.  A coordinate at or
below `lindblad._NEGLIGIBLE_ENTRY`, the matrix element below which the
dense oracle drives no transition, is dropped: the rank comes from the
geometry of u and v, never from the rates, so no kappa cuts a damped
direction.  On the uniform chain mirror parity fixes that geometry.  An
|eps| collision pairs the mode theta_k = pi k / (n + 1) above zero with
the mode theta_j below zero, at delta = -h / (cos theta_k + cos theta_j):
v = +-u where k + j is odd (n = 3 at sqrt(2) h, n = 5 at 2 h), so c is
the rounding of `eigh`'s vectors, about 1e-16, and e1 alone is damped; u
and v are independent where k + j is even (cos(u, v) = 0.6 at n = 5,
2 h / sqrt(3), and -1/3 at n = 7, sqrt(2) h); and u is orthogonal to v at
delta = 0, where `eigh` returns site vectors, so b = 0.  Where b or c is
zero, each transition lowers one collective mode, and the one-mode form
above solves the group.

Where b, c > 0, e1 and e2 form a pair: the left bath damps e1 alone, by
D_L1 = g_L |u|^2, and the right bath both, by D_R1 = g_R b^2 and
D_2 = g_R c^2 on the diagonal and g_R b c off it.  The occupations
N = K + 1/2 on the pair solve Q N + N Q = 2 A, A = a_L u u^T + a_R v v^T,
three real unknowns, in closed form: with n_L = a_L / g_L, n_R = a_R / g_R
and Tr Q = D_L1 + D_R1 + D_2,

    N_11 = n_L - (n_L - n_R) D_R1 / Tr Q,  N_22 = n_R + (n_L - n_R) D_R1 / Tr Q,
    N_12 = -(n_L - n_R) g_R b c / Tr Q,

and the left bath feeds in eps (A_L1 E_R1 - E_L1 A_R1) / Tr Q =
eps (u . v)^2 X_LR / (g_L |u|^2 + g_R |v|^2), X_LR = a_L e_R - e_L a_R,
and the right bath its negative: the one-mode current of e1 with Tr Q
for D_1, which has the sign of T_L - T_R and an exact zero on a cold
bath.  A point with a pair is checked on its whole X, S and K, by the
residual by product and `eigvalsh` of 2K, at O(n^3); the other global
points stay at O(n).

One energy per group drops the splitting of modes that differ by less
than the grouping tolerance without being equal.  The full secular
approximation already treats such a group as one transition of one
frequency; a splitting far below every rate kept in H alone mixes two
models, and resolving it needs a coupling scale of its own.  At
h = 1, T_L = 2, T_R = 0 and kappa >= 1e-3 the current moves by about
0.076 kappa times the relative splitting (2.3e-11 kappa at 3e-10), by
up to 4.1e-8 kappa at kappa = 1e-6, and by up to 1.2e-2 kappa at
kappa = 1e-8, where the splitting nears the rates.

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

so that, with X_LR, which has the sign of T_L - T_R,

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
takes 0.16 to 0.17 ms at n = 5 and 6, and 11 ms at n = 200 (one BLAS
thread, 2-vCPU Xeon VM).  g > 0 always holds, since h > 0 and kappa > 0
give every emission rate a floor of kappa h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    _NEGLIGIBLE_ENTRY,
    DissipatorStyle,
    Slots,
    Stack,
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
    _currents_check,
    _refuse_first,
)


@dataclass(frozen=True)
class GaussianChain:
    """The temperature-independent half of the Gaussian route (the chain
    step), for a stack of C chains that differ in the coupling alone.

    H of member c in its style's fermions is real and tridiagonal, with
    `diagonal[c]` on its diagonal and `coupling[c]` on both first
    off-diagonals: the hopping matrix, h and delta (local style), or the
    mode energies, each group's energy on its collective modes, and 0
    (global style).
    `lowering[c, b, k]` is bath b's (0 left, 1 right) coordinate l_bk on
    mode k of member c, and `slots` holds a slot per bath and mode
    (`lindblad.Slots`) at its frequency, live where l_bk is nonzero.
    `partner[c, k]` is the other collective mode of mode k's pair, where
    both baths damp a group's two collective modes together (global style
    only), and k itself elsewhere.  `style` picks the closed form the point
    step takes.  Every array is read-only.
    """

    diagonal: np.ndarray
    coupling: np.ndarray
    slots: Slots
    lowering: np.ndarray
    partner: np.ndarray
    style: DissipatorStyle


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


def _collective_modes(
    eps: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The global style's modes of a stack of C mode sets, each group of
    several modes written on its collective modes (see the module
    docstring): H's diagonal (C, n), each mode at its group's energy, the
    left and the right bath's coordinates on each mode (C, 2, n), and
    `GaussianChain.partner`."""
    n = eps.shape[1]
    energy = np.abs(eps)
    tol = _degeneracy_tolerance(0.5 * energy.sum(axis=1))
    # zero modes carry no jump operator; where the many-body energies
    # overflow, every mode drives the one transition at an infinite
    # frequency, which the point step refuses under the point's index
    overflow = ~np.isfinite(tol)[:, None]
    grouped = np.where(overflow, np.inf, np.where(energy > tol[:, None], energy, np.nan))
    order = np.argsort(grouped, axis=1, kind="stable")
    grouped = np.take_along_axis(grouped, order, axis=1)
    labels, means = _groups(grouped, tol)
    member, rank = np.nonzero(~np.isnan(grouped))
    mode, group = order[member, rank], labels[member, rank]
    # a mode below zero is lowered by its creation operator, with a minus
    # sign on site n - 1
    coefficient = np.stack([phi[:, 0], np.where(eps > 0, phi[:, n - 1], -phi[:, n - 1])], axis=1)
    lowering = np.zeros(coefficient.shape)
    lowering[member, :, mode] = coefficient[member, :, mode]
    diagonal = energy.copy()
    diagonal[member, mode] = means[member, group]

    # each group of several modes: its two lowest mode indices take the
    # collective modes e1 = u / |u| and e2, the rest of span(u, v), and its
    # other modes the undamped complement
    size = np.bincount(member * means.shape[1] + group, minlength=means.size)
    owner, several = np.nonzero(size.reshape(means.shape) > 1)
    within = diagonal[owner] == means[owner, several][:, None]
    first = within.argmax(axis=1)
    second = (within & (np.arange(n) > first[:, None])).argmax(axis=1)
    u, v = np.where(within[:, None], lowering[owner], 0.0).swapaxes(0, 1)
    length = np.sqrt(np.square(u).sum(axis=1))
    e1 = np.divide(u, length[:, None], out=np.zeros(u.shape), where=length[:, None] > 0)
    along = (v * e1).sum(axis=1)
    across = np.sqrt(np.square(v - along[:, None] * e1).sum(axis=1))
    # e1 and e2 are oriented so that v has nonnegative coordinates; one at
    # or below _NEGLIGIBLE_ENTRY is a rounding of v = +-u or of u . v = 0, and
    # drives nothing, as the dense oracle drops such matrix elements.  The
    # groups' modes are zeroed by (member, mode), as a member may hold two
    row, spot = np.nonzero(within)
    lowering[owner[row], :, spot] = 0.0
    lowering[owner, 0, first] = np.where(along < 0, -length, length)
    along, across = (np.where(c > _NEGLIGIBLE_ENTRY, c, 0.0) for c in (np.abs(along), across))
    lowering[owner, 1, first] = along
    lowering[owner, 1, second] = across
    partner = np.tile(np.arange(n), (len(eps), 1))
    pair = (along > 0) & (across > 0)
    ends = first[pair], second[pair]
    partner[owner[pair], ends[0]], partner[owner[pair], ends[1]] = ends[1], ends[0]
    return diagonal, lowering, partner


# an overflow leaves an infinite frequency, which the point step refuses
@np.errstate(over="ignore", invalid="ignore")
def gaussian_chain(head: SpinChainSpec, stack: Stack) -> GaussianChain:
    """The chain step of the XY chains that are `head` at each coupling of
    the one style in `stack`, member c at its c-th coupling, with a bath of
    that style on each end, the left bath on site 0 and the right bath on
    site n - 1: H and each bath's coordinate and frequency on each mode,
    built in array operations over the whole stack (one batched `eigh` in
    the global style, none in the local one).  The point step has one
    closed form per style, so a stack of two styles raises ValueError.  The
    head's own coupling is not read.
    """
    if head.model is not ChainModel.XY_TRANSVERSE:
        raise ValueError("the Gaussian route needs the quadratic XY chain")
    if len(stack) != 1:
        raise ValueError("a Gaussian chain stack holds the couplings of one style")
    ((style, couplings),) = stack
    delta = _coupling_stack(couplings)
    n = head.n_spins
    diagonal = np.full((len(delta), n), head.field_h)
    if style is DissipatorStyle.GLOBAL:
        diagonal, lowering, partner = _collective_modes(*np.linalg.eigh(_hopping(diagonal, delta)))
        coupling = np.zeros(len(delta))
        frequency = diagonal[:, None]
    else:
        coupling = delta
        lowering = np.repeat(np.eye(n)[None, [0, n - 1]], len(delta), axis=0)
        partner = np.tile(np.arange(n), (len(delta), 1))
        frequency = np.array(_local_frequencies(head))[:, None]
    slots = _slots(*np.where(lowering != 0, frequency, np.nan).swapaxes(0, 1))
    for array in (diagonal, coupling, lowering, partner):
        array.setflags(write=False)
    return GaussianChain(
        diagonal=diagonal,
        coupling=coupling,
        slots=slots,
        lowering=lowering,
        partner=partner,
        style=style,
    )


def _hopping(diagonal: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """The dense (P, n, n) tridiagonal matrices with `diagonal` (P, n) on
    the diagonal and `coupling` (P,) on both first off-diagonals."""
    size, n = diagonal.shape
    matrix = np.zeros((size, n * n))
    matrix[:, :: n + 1] = diagonal
    matrix[:, 1 :: n + 1] = matrix[:, n :: n + 1] = coupling[:, None]
    return matrix.reshape(size, n, n)


def _norms(residual: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """||R|| and ||X|| of each point's residual R and X, (P, ...) each,
    times 2^-F, exactly, and F (P,), the least exponent >= 0 that brings
    every |X_ij| below 1: neither norm overflows where X is finite."""
    axes = tuple(range(1, x.ndim))
    power = np.maximum(np.frexp(np.abs(x).max(axis=axes))[1], 0)
    factor = np.ldexp(1.0, -power).reshape((-1,) + (1,) * len(axes))
    return *(np.linalg.norm(m * factor, axis=axes) for m in (residual, x)), power


def _scaled(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's rates (P, ...) times 2^-E, exactly, with E (P,) the
    exponent that brings the point's largest rate into [0.5, 1); an
    infinite or NaN rate keeps E = 0 and reaches the non-finite checks."""
    exponent = np.frexp(rates.max(axis=tuple(range(1, rates.ndim)), initial=0.0))[1]
    return np.ldexp(rates, -exponent.reshape((-1,) + (1,) * (rates.ndim - 1))), exponent


def _global_points(
    chain: GaussianChain, member: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The point step's fields of P points on global members: elementwise
    on the collective modes, where X, S and K are diagonal, and a 2 x 2
    block in closed form on each pair, with no eigendecomposition of X (see
    the module docstring).

    The fields are K, the Lyapunov residual, ||X|| and F of `_norms`,
    whether X and S are finite, the bath currents, and the largest
    |eigenvalue| of 2K, each with a leading axis of P."""
    energy = chain.diagonal[member]
    # each bath's scaled (emission, absorption) rates on each mode times
    # l_bk^2, (P, 2, n) each
    scaled, exponent = _scaled(rates)
    exponent = exponent[:, None]
    emitted, absorbed = np.moveaxis(scaled, -1, 0) * np.square(chain.lowering[member])
    # the (P, n) sums over the baths, elementwise in bath order
    emission, absorption = emitted.sum(axis=1), absorbed.sum(axis=1)
    damping = emission + absorption
    undamped = damping == 0
    # a mode no bath damps stays half filled
    occupation = np.divide(absorption, damping, out=np.full(damping.shape, 0.5), where=~undamped)
    k_diagonal = occupation - 0.5
    n = energy.shape[1]
    k = np.zeros((len(member), n, n), dtype=complex)
    k.reshape(len(member), n * n)[:, :: n + 1] = k_diagonal
    # X, S and the residual in the units of the rates
    unscaled = np.ldexp(damping, exponent)
    x = 1j * energy - 0.5 * unscaled
    source = np.ldexp(0.5 * (emission - absorption), exponent)
    finite = np.isfinite(x).all(axis=1) & np.isfinite(source).all(axis=1)
    residual, scale, power = _norms(-unscaled * k_diagonal - source, x)
    largest = np.max(np.abs(2.0 * k_diagonal), axis=1)

    # each pair (e1, e2), e1 at the lower index: the left bath damps e1
    # alone, by D_L1, and the right bath, of coordinates b, c > 0, both, by
    # D_R1 and D_2 on the diagonal and D_R1 c / b off it
    point, first = np.nonzero(chain.partner[member] > np.arange(n))
    if len(point):
        second = chain.partner[member[point], first]
        ratio = chain.lowering[member[point], 1, second] / chain.lowering[member[point], 1, first]
        damp_left = emitted[point, 0, first] + absorbed[point, 0, first]
        damp_right = emitted[point, 1, first] + absorbed[point, 1, first]
        pooled = damping[point, first] + damping[point, second]  # the trace of Q
        cross = damp_right * ratio
        filled = absorbed[point, 0, first] / damp_left  # n_L
        gap = filled - occupation[point, second]  # n_L - n_R: the right bath alone fills e2
        shift = gap * damp_right / pooled
        k[point, first, first] = filled - shift - 0.5
        k[point, second, second] = occupation[point, second] + shift - 0.5
        k[point, first, second] = k[point, second, first] = -gap * cross / pooled
        # a point with a pair is checked on its whole X, S and K
        paired, rows = np.unique(point, return_inverse=True)
        full_x, full_source = (diagonal[paired, :, None] * np.eye(n) for diagonal in (x, source))
        off_q = np.ldexp(cross, exponent[point, 0])
        off_a = np.ldexp(absorbed[point, 1, first] * ratio, exponent[point, 0])
        for i, j in ((first, second), (second, first)):
            full_x[rows, i, j] = -0.5 * off_q
            full_source[rows, i, j] = 0.5 * off_q - off_a
        defect = full_x @ k[paired] + k[paired] @ full_x.conj().swapaxes(1, 2) - full_source
        residual[paired], scale[paired], power[paired] = _norms(defect, full_x)
        kept = paired[residual[paired] <= KERNEL_RTOL * scale[paired]]
        largest[kept] = np.abs(np.linalg.eigvalsh(2.0 * k[kept].real)).max(axis=1)
        # e1 carries the pair's current, with the trace of Q for D
        damping[point, first] = pooled

    # bath b gains eps_k sum_c (A_b E_c - E_b A_c) / D_k from mode k, whose
    # c = b term is an exact zero: no term cancels another.  A pair's e2
    # carries nothing, as the left bath does not reach it
    exchange = absorbed[:, :, None] * emitted[:, None] - emitted[:, :, None] * absorbed[:, None]
    flows = np.divide(
        energy[:, None] * exchange.sum(axis=2),
        damping[:, None],
        out=np.zeros(emitted.shape),
        where=~undamped[:, None],
    )
    return k, residual, scale, power, finite, np.ldexp(flows.sum(axis=2), exponent), largest


def _tridiagonal_points(
    chain: GaussianChain, member: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The point step's fields of P points on local members, the uniform
    chain between two edge baths, whose K is tridiagonal with a uniform
    bulk: in closed form, with no eigendecomposition of X (see the module
    docstring).  The fields are those of `_global_points`; the left bath
    reaches site 0 alone and the right bath site n - 1."""
    diagonal, delta = chain.diagonal[member], chain.coupling[member]
    field = diagonal[:, 0]
    # (P, 2) arrays hold the left bath's value on site 0 and the right's on n - 1
    rates = np.stack([rates[:, 0, 0], rates[:, 1, -1]], axis=1)
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

    n = diagonal.shape[1]
    k = np.zeros((len(member), n * n), dtype=complex)
    k[:, :: n + 1] = bulk[:, None]
    k[:, 0], k[:, -1] = ends.T
    k[:, 1 :: n + 1] = 1j * beta[:, None]
    k[:, n :: n + 1] = -1j * beta[:, None]
    k = k.reshape(len(member), n, n)
    # the residual by product takes the dense X
    x = 1j * _hopping(diagonal, delta)
    x[:, 0, 0] -= 0.5 * g[:, 0]
    x[:, -1, -1] -= 0.5 * g[:, 1]
    source = np.zeros(x.shape)
    source[:, 0, 0], source[:, -1, -1] = s.T
    # H is finite: X and S are where g and s are
    finite = np.isfinite(g).all(axis=1) & np.isfinite(s).all(axis=1)
    residual, scale, power = _norms(x @ k + k @ x.conj().swapaxes(1, 2) - source, x)
    kept = finite & (residual <= KERNEL_RTOL * scale)
    # a diagonal matrix of phases takes 2K to the real symmetric tridiagonal
    # 2 (Re K + |Im K|), which has its spectrum
    similar = 2.0 * (k.real + np.abs(k.imag))
    largest = np.zeros(len(member))
    largest[kept] = np.abs(np.linalg.eigvalsh(similar[kept])).max(axis=1)
    # the left bath feeds in -h (g_L c_0 + s_L) = h f X_LR / (g_L + g_R), the
    # right bath its negative; adding zero turns a -0 into 0
    currents = (field * flow)[:, None] * [1.0, -1.0] + 0.0
    return k, residual, scale, power, finite, currents, largest


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
    Every point is solved in the closed form of the stack's style (see the
    module docstring), with no eigendecomposition of X.  A point on a
    global member is solved elementwise on its collective modes, at O(n)
    with no matrix product, and a pair of collective modes in
    a 2 x 2 closed form, whose point is checked on its whole X, S and K at
    O(n^3).  A point on a local member gets its tridiagonal K in O(n), and
    is checked by its Lyapunov residual and the spectrum of 2K at O(n^3).
    The returned fields carry a leading axis of length P; a point comes out
    bit-identical in any stack, and on any chain stack that holds its
    chain.

    Raises SteadyStateError, naming the first point refused with the
    refusal it meets in a stack of its own, when X or S has a non-finite
    entry, a Lyapunov residual exceeds `KERNEL_RTOL` times ||X|| or is
    NaN, the bath currents are not finite, or the spectrum of 2K leaves
    [-1, 1] (mode occupations outside [0, 1]).  `eigvalsh` sees only the
    points whose residual passes.
    """
    member = np.asarray(member, dtype=np.intp)
    rates = _slot_rates(chain.slots, member, kappa, temperatures)
    rates = rates.reshape(len(member), *chain.lowering.shape[1:], 2)  # (P, bath, mode, 2)
    solve = _global_points if chain.style is DissipatorStyle.GLOBAL else _tridiagonal_points
    k, residual, scale, power, finite, currents, largest = solve(chain, member, rates)
    _refuse_first(
        [
            (~finite, lambda p: "the Lyapunov equation has a non-finite entry"),
            (
                ~(residual <= KERNEL_RTOL * scale),  # a NaN residual too
                lambda p: f"Lyapunov residual {np.ldexp(residual[p], power[p]):.3e} exceeds "
                f"{KERNEL_RTOL:.0e} x ||X|| = {np.ldexp(scale[p], power[p]):.3e}",
            ),
            _currents_check(currents),
            (
                largest > 1.0 - 2.0 * _MIN_EIGENVALUE,
                lambda p: f"covariance not physical: |spectrum of 2K| reaches "
                f"{largest[p]:.12f}",
            ),
        ]
    )
    return GaussianState(covariance=k, residual=np.ldexp(residual, power), bath_currents=currents)
