import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldirac import clifford
from nldirac.clifford import (
    ETA,
    GAMMA,
    IDENTITY,
    PI,
    bilinears,
    fierz_residuals,
    gamma_basis,
    levi_civita4,
    lorentz_dot,
    random_spinors,
    sigma,
    sigma_upper,
)
from nldirac.errors import NonRealBilinear


def test_anticommutators_exact():
    for a in range(4):
        for b in range(4):
            ac = GAMMA[a] @ GAMMA[b] + GAMMA[b] @ GAMMA[a]
            assert np.array_equal(ac, 2.0 * ETA[a, b] * IDENTITY), (a, b)


def test_basis_entries_are_exact():
    allowed = {0.0, 1.0, -1.0, 1.0j, -1.0j}
    for mat in gamma_basis():
        for entry in mat.ravel():
            assert complex(entry) in allowed


def test_pi_is_product_of_gammas_up_to_phase():
    prod = GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    assert np.array_equal(PI, 1j * prod)
    assert np.array_equal(PI @ PI, IDENTITY)


def test_pi_defining_relation_entrywise():
    # 2i sigma_ab = eps_abcd pi sigma^cd, brute force over all index pairs
    eps = levi_civita4()
    for a in range(4):
        for b in range(4):
            lhs = 2j * sigma(a, b)
            rhs = np.zeros((4, 4), dtype=complex)
            for c in range(4):
                for d in range(4):
                    if eps[a, b, c, d]:
                        rhs += eps[a, b, c, d] * PI @ sigma_upper(c, d)
            assert np.allclose(lhs, rhs, atol=1e-14), (a, b)


def test_sigma_diagonal_is_zero_and_antisymmetric():
    assert np.array_equal(sigma(1, 1), np.zeros((4, 4)))
    for a in range(4):
        for b in range(4):
            assert np.array_equal(sigma(a, b), -sigma(b, a))


def test_sigma_index_out_of_range():
    with pytest.raises(ValueError):
        sigma(0, 4)
    with pytest.raises(ValueError):
        sigma(-1, 2)


def test_sigma_lorentz_algebra_closure():
    # [s_ab, s_cd] = eta_bc s_ad - eta_ac s_bd - eta_bd s_ac + eta_ad s_bc
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    lhs = (sigma(a, b) @ sigma(c, d)
                           - sigma(c, d) @ sigma(a, b))
                    rhs = (
                        ETA[b, c] * sigma(a, d)
                        - ETA[a, c] * sigma(b, d)
                        - ETA[b, d] * sigma(a, c)
                        + ETA[a, d] * sigma(b, c)
                    )
                    assert np.allclose(lhs, rhs, atol=1e-14), (a, b, c, d)


def test_bilinears_rest_frame_column():
    bl = bilinears(np.array([1.0, 0.0, 1.0, 0.0]))
    assert bl.theta == pytest.approx(0.0, abs=1e-14)
    assert bl.phi == pytest.approx(2.0, abs=1e-14)
    # rest frame, spin up along the third axis
    assert np.allclose(bl.U, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(bl.S, [0.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_bilinears_zero_spinor():
    bl = bilinears(np.zeros(4, dtype=complex))
    assert bl.theta == 0.0 and bl.phi == 0.0
    assert np.all(bl.S == 0.0) and np.all(bl.U == 0.0)


def test_fierz_identities_random_spinors():
    res = fierz_residuals(random_spinors(1000, seed=42))
    assert max(r.max() for r in res) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.floats(-100.0, 100.0, allow_subnormal=False),
                      min_size=8, max_size=8))
def test_fierz_identities_hold_for_any_spinor(parts):
    # below Theta^2 + Phi^2 = 1 the residuals are absolute, so rounding in
    # the quartic bilinears grows with |psi|^4 there
    psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm4 = np.vdot(psi, psi).real ** 2
    res = fierz_residuals(psi[None, :])
    assert max(r.max() for r in res) <= 1e-10 * max(1.0, norm4)


def test_bilinears_global_phase_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        chi = rng.uniform(0, 2 * np.pi)
        a = bilinears(psi)
        b = bilinears(np.exp(1j * chi) * psi)
        assert abs(a.theta - b.theta) <= 1e-12 * max(1, abs(a.theta))
        assert abs(a.phi - b.phi) <= 1e-12 * max(1, abs(a.phi))
        assert np.allclose(a.S, b.S, atol=1e-12, rtol=1e-12)
        assert np.allclose(a.U, b.U, atol=1e-12, rtol=1e-12)


def test_non_real_bilinear_raised_on_broken_kernel(monkeypatch):
    # reality of the bilinears encodes hermiticity of the kernels; a
    # one-sided off-diagonal corruption must be caught, it would mean the
    # gamma basis is wrong
    broken = clifford._KERNEL_THETA.copy()
    broken[0, 1] += 0.3
    monkeypatch.setattr(clifford, "_KERNEL_THETA", broken)
    with pytest.raises(NonRealBilinear):
        bilinears(np.array([1.0, 0.3 + 0.2j, -0.1, 0.7j]))


def test_lorentz_dot_signature():
    v = np.array([2.0, 1.0, 0.0, 0.0])
    assert lorentz_dot(v, v) == pytest.approx(3.0)
