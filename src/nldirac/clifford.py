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


def gamma_basis():
    """Return [gamma^0, gamma^1, gamma^2, gamma^3, pi, identity] as copies."""
    return [g.copy() for g in GAMMA] + [PI.copy(), IDENTITY.copy()]


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


def levi_civita4():
    """Totally antisymmetric symbol with eps_{0123} = +1, as a (4,4,4,4) array."""
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = _perm_sign(p)
    return eps


EPS4 = levi_civita4()
EPS4.setflags(write=False)

# Stacks used by the field-equation evaluators.
GAMMA_STACK = np.stack(GAMMA)
SIGMA_UPPER_STACK = np.stack(
    [np.stack([sigma_upper(a, b) for b in range(4)]) for a in range(4)]
)
GAMMA_STACK.setflags(write=False)
SIGMA_UPPER_STACK.setflags(write=False)

# Bilinear kernels: psi^dag (gamma^0 K) psi for K in {I, pi, gamma^a, gamma^a pi}.
_KERNEL_PHI = GAMMA[0] @ IDENTITY
_KERNEL_THETA = GAMMA[0] @ PI
_KERNEL_U = np.stack([GAMMA[0] @ GAMMA[a] for a in range(4)])
_KERNEL_S = np.stack([GAMMA[0] @ GAMMA[a] @ PI for a in range(4)])
for _mat in (_KERNEL_PHI, _KERNEL_THETA, _KERNEL_U, _KERNEL_S):
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


def bilinears(psi):
    """Compute (Theta, Phi, S^a, U^a) from one spinor, shape (4,), or from a
    stack of spinors with the point axes after the spinor axis.

    All four quantities are real for any spinor; if an imaginary part
    exceeds IMAG_TOL (relative to its spinor's bilinear scale) the gamma
    basis itself is inconsistent and NonRealBilinear is raised.  Imaginary
    parts are discarded after the check.
    """
    psi = np.asarray(psi, dtype=complex)
    conj = psi.conj()
    theta = 1j * np.einsum("i...,ij,j...->...", conj, _KERNEL_THETA, psi)
    phi = np.einsum("i...,ij,j...->...", conj, _KERNEL_PHI, psi)
    U = np.einsum("i...,aij,j...->a...", conj, _KERNEL_U, psi)
    S = np.einsum("i...,aij,j...->a...", conj, _KERNEL_S, psi)
    parts = np.stack([theta, phi, *U, *S])
    scale = np.maximum(1.0, np.max(np.abs(parts), axis=0))
    worst = np.max(np.abs(parts.imag), axis=0)
    if np.any(worst > IMAG_TOL * scale):
        raise NonRealBilinear(
            f"imaginary part {np.max(worst):.3e} exceeds {IMAG_TOL:.1e} x scale"
        )
    return BilinearSet(theta=theta.real, phi=phi.real, S=S.real, U=U.real)


def lorentz_dot(v, w):
    """Minkowski contraction v_a eta^ab w_b over the leading flat index."""
    v = np.asarray(v)
    w = np.asarray(w)
    return v[0] * w[0] - np.sum(v[1:] * w[1:], axis=0)


def fierz_residuals(psis):
    """Relative residuals of the two quadratic bilinear identities.

    For each row of psis: U.U = Theta^2 + Phi^2, S.S = -(Theta^2 + Phi^2)
    and U.S = 0. Returns three arrays of relative residuals.
    """
    bl = bilinears(np.transpose(psis))
    scalar2 = bl.theta**2 + bl.phi**2
    uu = lorentz_dot(bl.U, bl.U)
    ss = lorentz_dot(bl.S, bl.S)
    us = lorentz_dot(bl.U, bl.S)
    scale = np.maximum(1.0, scalar2)
    return (
        np.abs(uu - scalar2) / scale,
        np.abs(ss + scalar2) / scale,
        np.abs(us) / scale,
    )


def random_spinors(n, seed=42):
    """Seeded batch of complex-normal spinors for identity suites."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
