"""The spinor and covector kernels equal, bit for bit, the matrix and einsum
expressions they stand in for.

Each reference below builds the per-point matrix or tensor and contracts
it: the rotation exp(-i beta pi/2) applied to the rest column, the
three-operand einsum bilinears, the four-operand axial contraction and the
outer-built nonlinear operator of the standard form.  The kernels skip
those per-point objects; on the closed-form solutions every output must
still be the same float.
"""

import numpy as np
import pytest

from nldirac import clifford, equations, geometry, grids, polar
from nldirac.polar import ModelSpec

MODELS = (ModelSpec.njl, ModelSpec.soler,
          lambda m: ModelSpec.interpolating(0.5, m=m))


def _points(spec, seed):
    """200 seeded points outside the mask, in one GridPoint of arrays."""
    return grids.sample_points(
        np.random.default_rng(seed), 200, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))


def _cases():
    for make in MODELS:
        for m, seed in ((0.5, 11), (1.0, 12), (2.0, 13)):
            spec = make(m=m)
            yield spec, _points(spec, seed)


def _rotation_spinor(f):
    """phi exp(-i beta pi/2) (1, 0, 1, 0)^T through the per-point rotation."""
    half = 0.5 * np.arctan2(f.sin_beta, f.cos_beta)
    rot = (np.multiply.outer(clifford.IDENTITY, np.cos(half))
           - 1j * np.multiply.outer(clifford.PI, np.sin(half)))
    rest = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    return np.sqrt(f.phi2) * np.einsum("ij...,j->i...", rot, rest)


def _einsum_bilinears(psi):
    """(Theta, Phi, U, S), each psi^dag (gamma^0 K) psi by a three-operand
    einsum, imaginary parts kept."""
    conj = psi.conj()
    return (1j * np.einsum("i...,ij,j...->...", conj, clifford._KERNEL_THETA, psi),
            np.einsum("i...,ij,j...->...", conj, clifford._KERNEL_PHI, psi),
            np.einsum("i...,aij,j...->a...", conj, clifford._KERNEL_U, psi),
            np.einsum("i...,aij,j...->a...", conj, clifford._KERNEL_S, psi))


def _reference_covector(pt, spec):
    """covector_components with the axial term as a four-operand einsum."""
    f = polar.closed_form(pt, spec)
    ang = f.ang
    g = geometry.inverse_metric_diagonal(pt)
    Rc = geometry.tensorial_connection_at(pt, ang)
    eps = geometry.coordinate_epsilon_lower(pt)
    u = geometry.velocity_covector(pt, ang)
    s_cov = geometry.spin_covector(pt, ang)
    P = geometry.momentum_covector(spec.E, spec.l)
    R_up3 = g[:, None, None] * g[None, :, None] * g[None, None, :] * Rc
    B = 0.5 * np.einsum("mani...,ani...->m...", eps, R_up3)
    R_trace = np.einsum("n...,mnn...->m...", g, Rc)
    P_up = np.einsum("m...,m->m...", g, P)
    u_up, s_up = g * u, g * s_cov
    Ps = np.einsum("m,m...->...", P, s_up)
    Pu = np.einsum("m,m...->...", P, u_up)
    der = f.derivs
    dbeta = np.stack(np.broadcast_arrays(
        0.0, der.r_d_beta_dr / pt.r, der.d_beta_dtheta, 0.0))
    dlnphi2 = np.stack(np.broadcast_arrays(
        0.0, f.r_dlnphi2_dr / pt.r, f.dlnphi2_dtheta, 0.0))
    if spec.name == "njl":
        nl_chiral, nl_density = f.phi2, 0.0
    else:
        nl_chiral, nl_density = f.phi2 * f.cos_beta**2, f.phi2 * f.cos_beta
    chiral = (dbeta + B + 2.0 * Ps * u - 2.0 * Pu * s_cov
              + (2.0 * spec.m * f.cos_beta - nl_chiral) * s_cov)
    axial_term = -2.0 * np.einsum("r...,n...,a...,mrna...->m...", P_up, u_up,
                                  s_up, eps)
    density = (dlnphi2 + R_trace + axial_term
               + (2.0 * spec.m - nl_density) * f.sin_beta * s_cov)
    return chiral, density


def _reference_standard(pt, spec):
    """residual_standard with the einsum bilinears and the nonlinear
    operator built as a 4x4 matrix per point."""
    nabla, psi, f = polar.covariant_derivative(pt, spec)
    xi = geometry.tetrad_at(pt, f.ang)
    nabla_frame = np.einsum("am...,mj...->aj...", xi, nabla)
    theta, phi, _, _ = _einsum_bilinears(psi)
    dirac = 1j * np.einsum("aij,aj...->i...", clifford.GAMMA_STACK, nabla_frame)
    nonlinear = 0.25 * (
        np.multiply.outer(clifford.IDENTITY, phi.real)
        + 1j * spec.p * np.multiply.outer(clifford.PI, theta.real))
    res = dirac + np.einsum("ij...,j...->i...", nonlinear, psi) - spec.m * psi
    return np.max(np.abs(res), axis=0)


def test_assembled_spinor_equals_the_rotated_rest_column():
    for spec, pts in _cases():
        f = polar.closed_form(pts, spec)
        psi = polar.assemble_spinor(f)
        assert np.array_equal(psi, _rotation_spinor(f)), spec
        # and pi psi by the sign vector equals the matrix product
        assert np.array_equal(clifford.pi_action(psi),
                              np.einsum("ij,j...->i...", clifford.PI, psi))
    # a single point keeps the shape (4,)
    spec = ModelSpec.njl()
    f = polar.closed_form(geometry.GridPoint(0.8, 1.0), spec)
    assert np.array_equal(polar.assemble_spinor(f), _rotation_spinor(f))


def test_bilinears_equal_the_einsum_contractions():
    spinors = [polar.assemble_spinor(polar.closed_form(pts, spec))
               for spec, pts in _cases()]
    spinors.append(np.transpose(clifford.random_spinors(1000, seed=42)))
    for psi in spinors:
        theta, phi, U, S = _einsum_bilinears(psi)
        bl = clifford.bilinears(psi)
        assert np.array_equal(bl.theta, theta.real)
        assert np.array_equal(bl.phi, phi.real)
        assert np.array_equal(bl.U, U.real)
        assert np.array_equal(bl.S, S.real)


@pytest.mark.parametrize("make", MODELS[:2])
def test_covector_components_equal_the_four_operand_contraction(make):
    # the covector system exists for the two endpoint models only
    for m, seed in ((0.5, 21), (1.0, 22), (2.0, 23)):
        p = make(m=m).p
        # the solution's quantum numbers, and wrong ones
        for spec in (ModelSpec(m=m, p=p), ModelSpec(m=m, p=p, E=1.1 * m, l=0.6)):
            pts = _points(spec, seed)
            chiral, density = equations.covector_components(pts, spec)
            ref_chiral, ref_density = _reference_covector(pts, spec)
            assert np.array_equal(chiral, ref_chiral), spec
            assert np.array_equal(density, ref_density), spec


def test_standard_form_equals_the_matrix_nonlinear_term():
    for spec, pts in _cases():
        wrong_energy = ModelSpec(m=spec.m, p=spec.p, E=1.1 * spec.m,
                                 name=spec.name)
        for model in (spec, wrong_energy):
            assert np.array_equal(equations.residual_standard(pts, model),
                                  _reference_standard(pts, model)), model
