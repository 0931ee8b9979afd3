"""Gamma-matrix algebra in the chiral representation and spinor bilinears.

The representation is fixed so that the column (1, 0, 1, 0)^T is a rest-frame,
spin-up eigenstate with positive scalar density (Phi > 0, Theta = 0):

    gamma^0 = [[0, I], [I, 0]]      gamma^k = [[0, sigma_k], [-sigma_k, 0]]

The parity-odd matrix ``pi`` is not a free choice: with the flat Levi-Civita
normalization eps_{0123} = +1 it is pinned by the defining relation

    2i sigma_ab = eps_{abcd} pi sigma^cd

which in this representation yields pi = diag(-1, -1, 1, 1) = i g0 g1 g2 g3.
All matrix entries are exactly 0, +-1 or +-i, so the defining algebraic
identities hold exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import NonRealBilinear
from .sparse import live_rows

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


GAMMA = (
    _block(_Z2, _I2, _I2, _Z2),
    _block(_Z2, _SX, -_SX, _Z2),
    _block(_Z2, _SY, -_SY, _Z2),
    _block(_Z2, _SZ, -_SZ, _Z2),
)
IDENTITY = np.eye(4, dtype=complex)
PI = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
for _mat in (*GAMMA, IDENTITY, PI, ETA):
    _mat.setflags(write=False)


def gamma_lower(a):
    """gamma_a = eta_ab gamma^b (diagonal metric, so a sign at most)."""
    return ETA[a, a] * GAMMA[a]


def _check_index(a):
    if a not in (0, 1, 2, 3):
        raise ValueError(f"Lorentz index out of range: {a!r}")


def sigma(a, b):
    """Lorentz generator sigma_ab = [gamma_a, gamma_b] / 4 (lower flat indices)."""
    _check_index(a)
    _check_index(b)
    ga, gb = gamma_lower(a), gamma_lower(b)
    return (ga @ gb - gb @ ga) / 4.0


def sigma_upper(a, b):
    """sigma^ab with both indices raised by the Minkowski metric."""
    return ETA[a, a] * ETA[b, b] * sigma(a, b)


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


# The totally antisymmetric symbol with eps_{0123} = +1 by its 24 nonzero
# entries: their index tuples, the permutations of (0, 1, 2, 3) in
# lexicographic order, and their signs.  Every other entry has a repeated
# index and is zero.
EPS4_INDEX = tuple(permutations(range(4)))
EPS4_SIGN = np.array([float(_perm_sign(p)) for p in EPS4_INDEX])
EPS4_SIGN.setflags(write=False)

# The gammas by their nonzero entries: row i of gamma^a holds one,
# GAMMA_VALUE[a, i], in column GAMMA_COLUMN[a, i].  Each is +-1 or +-i, so a
# product with one of them is exact.
GAMMA_STACK = np.stack(GAMMA)
GAMMA_COLUMN = np.argmax(np.abs(GAMMA_STACK), axis=2)
GAMMA_VALUE = np.take_along_axis(GAMMA_STACK, GAMMA_COLUMN[..., None], 2)[..., 0]
# The six pairs a < b, their a and b, and sigma^ab for each pair.  A field
# antisymmetric in its first two indices is held as its pairs: pairs[k] =
# C[PAIRS[k]], shape (6,) + the trailing shape of C.  Each sigma^ab has one
# nonzero entry per row too, SIGMA_VALUE[k, i] = +-1/2 or +-i/2 in column
# SIGMA_COLUMN[k, i] for the k-th pair.
PAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
PAIR_INDEX = {pair: k for k, pair in enumerate(PAIRS)}  # k of each pair
PAIR_A, PAIR_B = (np.array(index) for index in zip(*PAIRS))
SIGMA_PAIR_STACK = np.stack([sigma_upper(a, b) for a, b in PAIRS])
SIGMA_COLUMN = np.argmax(np.abs(SIGMA_PAIR_STACK), axis=2)
SIGMA_VALUE = np.take_along_axis(SIGMA_PAIR_STACK, SIGMA_COLUMN[..., None],
                                 2)[..., 0]
for _mat in (GAMMA_STACK, GAMMA_COLUMN, GAMMA_VALUE, PAIR_A, PAIR_B,
             SIGMA_PAIR_STACK, SIGMA_COLUMN, SIGMA_VALUE):
    _mat.setflags(write=False)


def expand_pairs(pairs):
    """The dense field C[a, b, mu] + the point axes of a field antisymmetric
    in (a, b), held as the Live of its pair rows (see spin_action):
    C[a, b, mu] = pairs[k, mu] and C[b, a, mu] = -pairs[k, mu] for each
    live row of the k-th pair (a, b) of PAIRS, and zero elsewhere."""
    values = pairs.values
    dense = np.zeros((4, 4, 4) + values.shape[1:], dtype=values.dtype)
    for (k, mu), value in zip(pairs.index, values):
        a, b = PAIRS[k]
        dense[a, b, mu] = value
        dense[b, a, mu] = -value
    return dense


def spin_action(pairs, psi):
    """(1/2) C_{ab mu} sigma^{ab} psi of a field C antisymmetric in (a, b)
    on a spinor, shape (4 mu, 4 spinor) + the points' shape.

    C comes as the Live of its pair rows (see nldirac.sparse): the entry
    (k, mu) of the layout (6, 4) is C_{ab mu} for the k-th pair (a, b) of
    PAIRS.
    sigma^ab is antisymmetric too, so the sum over all sixteen (a, b) is
    the sum over the six pairs of C_ab sigma^ab.  Each row of sigma^ab psi
    is one component of psi times +-1/2 or +-i/2, exact, and each row mu of
    the result adds its pair products, from zero, in PAIRS order: the order
    and the rounding of an einsum over the pair axis.  A pair row that is
    not live, or a component of psi that is zero at every point, would add
    only zeros, so it is skipped; a NaN is not zero.  Each product is taken
    one spinor row at a time: numpy buffers a broadcast operand to the
    size of the whole product.
    """
    flat = np.reshape(psi, (4, -1))
    live_psi = set(live_rows(flat).tolist())
    rows = np.reshape(pairs.values, (len(pairs.index), -1))
    out = np.zeros((4,) + flat.shape,
                   dtype=np.result_type(pairs.values, psi))
    sigma_psi, product = np.empty_like(flat), np.empty_like(flat[0])
    pair = np.empty_like(product)
    last = None
    for row, (k, mu) in zip(rows, pairs.index):
        if k != last:  # the first live row of the pair k
            last = k
            spin = [(i, column) for i, column in enumerate(SIGMA_COLUMN[k])
                    if column in live_psi]
            for i, column in spin:
                np.multiply(flat[column], SIGMA_VALUE[k, i], out=sigma_psi[i])
        pair[...] = row
        for i, _ in spin:
            out[mu, i] += np.multiply(pair, sigma_psi[i], out=product)
    return out.reshape((4,) + np.shape(psi))


PI_SIGNS = np.real(np.diagonal(PI)).copy()  # pi is diagonal
PI_SIGNS.setflags(write=False)


def pi_action(psi):
    """pi psi, each component of psi times its sign on pi's diagonal, for a
    spinor of shape (4,) + the points' shape."""
    return PI_SIGNS.reshape((4,) + (1,) * (np.ndim(psi) - 1)) * psi


# Bilinear kernels: psi^dag (gamma^0 K) psi for K in {I, pi, gamma^a, gamma^a pi}.
_KERNEL_PHI = GAMMA[0] @ IDENTITY
_KERNEL_THETA = GAMMA[0] @ PI
_KERNEL_U = np.stack([GAMMA[0] @ GAMMA[a] for a in range(4)])
_KERNEL_S = np.stack([GAMMA[0] @ GAMMA[a] @ PI for a in range(4)])
# The kernels as stacks: Theta and Phi, the four U, then the four S.  The
# bilinears take them two at a time, one matrix product each, so that the
# product holds 8 rows per spinor at most.
_KERNEL_STACKS = (np.concatenate((_KERNEL_THETA, _KERNEL_PHI)),
                  np.concatenate(_KERNEL_U), np.concatenate(_KERNEL_S))
for _mat in (_KERNEL_PHI, _KERNEL_THETA, _KERNEL_U, _KERNEL_S, *_KERNEL_STACKS):
    _mat.setflags(write=False)
del _mat
IMAG_TOL = 1e-10  # largest imaginary part of a bilinear, relative to its scale


@dataclass(frozen=True)
class BilinearSet:
    """Real bilinear densities of a Dirac spinor, or of a stack of spinors
    (the point axes then follow the Lorentz index of S and U).

    theta : pseudo-scalar density
    phi   : scalar density
    S     : spin axial 4-vector (flat Lorentz indices)
    U     : velocity 4-vector (flat Lorentz indices)
    """

    theta: float
    phi: float
    S: np.ndarray
    U: np.ndarray


def _real_bilinears(psi, stacks):
    """The bilinears psi^dag (gamma^0 K) psi of the kernel ``stacks``, Theta
    first, real parts only, after the reality check of bilinears.

    The kernels are applied two at a time, one matrix product each, and
    each bilinear is one contraction of its product with conj(psi).  Row i
    of a kernel is taken only where psi_i is nonzero at some point (a NaN
    is not zero): a row whose psi_i is zero at every point adds only zeros
    to the contraction's sum over i, which adds the others in the same
    order.
    """
    psi = np.asarray(psi)
    psi = psi.astype(np.result_type(psi, 1j), copy=False)
    flat = np.reshape(psi, (4, -1))
    live = live_rows(flat)
    conj = (psi if live.size == 4 else psi[live]).conj()
    kernels = np.concatenate(stacks).reshape(-1, 4, 4)[:, live]
    parts = np.empty((len(kernels),) + np.shape(psi)[1:], dtype=psi.dtype)
    for k in range(0, len(kernels), 2):
        two = kernels[k:k + 2]
        np.einsum("i...,ki...->k...", conj,
                  (two.reshape(-1, 4) @ flat).reshape(
                      two.shape[:2] + np.shape(psi)[1:]),
                  out=parts[k:k + 2])
    parts[0] *= 1j
    scale = np.maximum(1.0, np.max(np.abs(parts), axis=0))
    worst = np.max(np.abs(parts.imag), axis=0)
    if np.any(worst > IMAG_TOL * scale):
        raise NonRealBilinear(
            f"imaginary part {np.max(worst):.3e} exceeds {IMAG_TOL:.1e} x scale"
        )
    return parts.real


def bilinears(psi):
    """Compute (Theta, Phi, S^a, U^a) from one spinor, shape (4,), or from a
    stack of spinors with the point axes after the spinor axis.

    All four quantities are real for any spinor; if an imaginary part
    exceeds IMAG_TOL (relative to its spinor's bilinear scale) the gamma
    basis itself is inconsistent and NonRealBilinear is raised.  Imaginary
    parts are discarded after the check.
    """
    parts = _real_bilinears(psi, _KERNEL_STACKS)
    return BilinearSet(theta=parts[0], phi=parts[1], S=parts[6:], U=parts[2:6])


def theta_phi(psi):
    """(Theta, Phi) of bilinears, stacked, from their two kernels alone; the
    reality check reads these two and scales by the larger."""
    return _real_bilinears(psi, _KERNEL_STACKS[:1])


def lorentz_dot(v, w):
    """Minkowski contraction v_a eta^ab w_b over the leading flat index."""
    v = np.asarray(v)
    w = np.asarray(w)
    return v[0] * w[0] - np.sum(v[1:] * w[1:], axis=0)


def fierz_residuals(psis):
    """Relative residuals of the two quadratic bilinear identities.

    For each row of psis: U.U = Theta^2 + Phi^2, S.S = -(Theta^2 + Phi^2)
    and U.S = 0. Returns three arrays of residuals, each divided by
    max(1, (psi^dag psi)^2), the size of the quartic terms and so of their
    rounding, which Theta^2 + Phi^2 can be far below.
    """
    # one spinor component per row, contiguous: numpy reads a row of the
    # transposed view a stride apart
    bl = bilinears(np.ascontiguousarray(np.transpose(psis)))
    scalar2 = bl.theta**2 + bl.phi**2
    uu = lorentz_dot(bl.U, bl.U)
    ss = lorentz_dot(bl.S, bl.S)
    us = lorentz_dot(bl.U, bl.S)
    scale = np.maximum(1.0, np.sum(np.abs(psis) ** 2, axis=-1) ** 2)
    return (
        np.abs(uu - scalar2) / scale,
        np.abs(ss + scalar2) / scale,
        np.abs(us) / scale,
    )


def random_spinors(n, seed=42):
    """Seeded batch of complex-normal spinors for identity suites."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
