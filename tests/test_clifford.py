import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nldirac import clifford, equations, geometry, grids, polar, sparse
from nldirac.clifford import (
    ETA,
    GAMMA,
    IDENTITY,
    PI,
    bilinears,
    fierz_residuals,
    lorentz_dot,
    random_spinors,
    sigma,
    sigma_upper,
)
from nldirac.errors import NonRealBilinear
from nldirac.polar import ModelSpec


def test_anticommutators_exact():
    for a in range(4):
        for b in range(4):
            ac = GAMMA[a] @ GAMMA[b] + GAMMA[b] @ GAMMA[a]
            assert np.array_equal(ac, 2.0 * ETA[a, b] * IDENTITY), (a, b)


def test_basis_entries_are_exact():
    allowed = {0.0, 1.0, -1.0, 1.0j, -1.0j}
    for mat in (*GAMMA, PI, IDENTITY):
        for entry in mat.ravel():
            assert complex(entry) in allowed


def test_each_gamma_row_holds_one_nonzero_entry():
    # the standard form reads gamma^a through these entries alone
    rebuilt = np.zeros((4, 4, 4), dtype=complex)
    np.put_along_axis(rebuilt, clifford.GAMMA_COLUMN[..., None],
                      clifford.GAMMA_VALUE[..., None], axis=2)
    assert np.array_equal(rebuilt, np.stack(GAMMA))


def test_pi_is_product_of_gammas_up_to_phase():
    prod = GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    assert np.array_equal(PI, 1j * prod)
    assert np.array_equal(PI @ PI, IDENTITY)


def levi_civita4():
    """The totally antisymmetric symbol with eps_{0123} = +1 as a dense
    (4, 4, 4, 4) array, each entry the sign of its index permutation
    counted by transpositions, and zero on a repeated index."""
    eps = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        perm, sign = list(p), 1.0
        for i in range(4):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], perm[i]
                sign = -sign
        eps[p] = sign
    return eps


def test_epsilon_entries_are_the_nonzero_entries_in_lexicographic_order():
    eps = levi_civita4()
    nonzero = np.argwhere(eps)  # row-major, so lexicographic
    assert np.array_equal(clifford.EPS4_INDEX, nonzero)
    assert np.array_equal(clifford.EPS4_SIGN, eps[tuple(nonzero.T)])
    assert eps[0, 1, 2, 3] == 1.0 and len(nonzero) == 24


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


def _dense_spin_action(pairs, psi):
    """(1/2) C_{ab mu} sigma^{ab} psi summed over all sixteen (a, b) of the
    dense C of the pairs."""
    C = clifford.expand_pairs(pairs)
    dense = np.stack([np.stack([sigma_upper(a, b) for b in range(4)])
                      for a in range(4)])
    spin = 0.5 * np.einsum("abm...,abij->mij...", C, dense)
    return np.einsum("mij...,j...->mi...", spin, psi)


def test_spin_action_equals_the_dense_sum_on_the_spin_connection():
    # bit for bit on the spin connection of the closed-form solutions
    for spec in (ModelSpec("njl"), ModelSpec("soler"), ModelSpec("p:0.5")):
        pts = grids.sample_points(
            np.random.default_rng(7), 50, m=spec.m,
            reject=lambda pt: equations.is_masked(pt, spec))
        f = polar.closed_form(pts, spec)
        psi = polar.assemble_spinor(f)
        pairs = geometry.spin_connection_at(pts, f.ang)
        action = clifford.spin_action(pairs, psi)
        assert action.shape == (4, 4, 50)
        assert np.array_equal(action, _dense_spin_action(pairs, psi)), spec.name


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_spin_action_equals_the_dense_sum_for_any_connection(seed, n):
    # random pairs, every entry nonzero: each counts, in both triangles of
    # the dense C
    rng = np.random.default_rng(seed)
    pairs = sparse.live(rng.standard_normal((6, 4, n)), (6, 4))
    assert len(pairs.index) == 24
    psi = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    action = clifford.spin_action(pairs, psi)
    dense = _dense_spin_action(pairs, psi)
    assert np.max(np.abs(action - dense)) <= 1e-15 * np.max(np.abs(dense))


def test_spin_action_applies_a_pair_row_nonzero_at_one_point():
    # a pair row is skipped only where it is zero at every point of the
    # call; nonzero at one point, it is live and applied there, bit for bit
    rng = np.random.default_rng(26)
    psi = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    for k in range(6):
        for mu in range(4):
            dense = np.zeros((6, 4, 5))
            dense[k, mu, 2] = rng.standard_normal()
            pairs = sparse.live(dense, (6, 4))
            assert pairs.index == ((k, mu),)
            action = clifford.spin_action(pairs, psi)
            assert np.array_equal(action, _dense_spin_action(pairs, psi)), (
                k, mu)
            assert np.all(action[mu, :, 2] != 0), (k, mu)
            assert not np.any(np.delete(action, 2, axis=2)), (k, mu)


def test_spin_action_carries_a_nan_pair_entry_to_its_mu_row():
    # a NaN is not zero: in a pair row that is zero at every other point
    # (the t row of the (0, 1) pair) and in a live one (the r row of (0, 2))
    # it reaches the components of its mu row that psi feeds at its point,
    # and nothing else
    spec = ModelSpec("njl")
    pts = grids.sample_points(
        np.random.default_rng(7), 50, m=spec.m,
        reject=lambda pt: equations.is_masked(pt, spec))
    f = polar.closed_form(pts, spec)
    psi = polar.assemble_spinor(f)
    pairs = geometry.spin_connection_at(pts, f.ang)
    clean = clifford.spin_action(pairs, psi)
    dense = sparse.dense(pairs, pts.shape)
    for k, mu in ((0, geometry.T), (1, geometry.R)):
        assert ((k, mu) in pairs.index) == (k == 1)
        assert np.any(dense[k, mu]) == (k == 1)
        poisoned = dense.copy()
        poisoned[k, mu, 7] = np.nan
        action = clifford.spin_action(sparse.live(poisoned, (6, 4)), psi)
        assert np.isnan(action[mu, :, 7]).any(), (k, mu)
        assert np.array_equal(np.delete(action, 7, axis=2),
                              np.delete(clean, 7, axis=2)), (k, mu)
        assert np.array_equal(np.delete(action[:, :, 7], mu, axis=0),
                              np.delete(clean[:, :, 7], mu, axis=0)), (k, mu)


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
                      min_size=8, max_size=8),
       weyl=st.sampled_from([None, 0, 1]))
@example(parts=[97.3, -61.2, 88.8, -45.1, 73.7, 12.9, -99.4, 55.5], weyl=0)
@example(parts=[97.3, -61.2, 88.8, -45.1, 73.7, 12.9, -99.4, 55.5], weyl=1)
def test_fierz_identities_hold_for_any_spinor(parts, weyl):
    # the residuals are scaled by (psi^dag psi)^2, the size of the quartic
    # terms, so they stay at rounding even where Theta^2 + Phi^2 is far
    # smaller: a near-Weyl spinor, one chirality pair of components 1e-6 of
    # the other, puts Theta^2 + Phi^2 near 0 at any |psi|.  Scaled by
    # max(1, Theta^2 + Phi^2), the two examples read about 9e-8.
    psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    if weyl is not None:
        psi[2 * weyl:2 * weyl + 2] *= 1e-6
    res = fierz_residuals(psi[None, :])
    assert max(r.max() for r in res) <= 1e-10


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
    # gamma basis is wrong; the Theta kernel is the first four rows of the
    # first stack
    stacks = clifford._KERNEL_STACKS
    broken = stacks[0].copy()
    broken[0, 1] += 0.3
    monkeypatch.setattr(clifford, "_KERNEL_STACKS", (broken, *stacks[1:]))
    with pytest.raises(NonRealBilinear):
        bilinears(np.array([1.0, 0.3 + 0.2j, -0.1, 0.7j]))


def test_theta_phi_checks_the_reality_of_its_two_kernels(monkeypatch):
    # theta_phi reads the first kernel stack alone, Theta and Phi, and the
    # same corruption of the Theta kernel is caught there
    stacks = clifford._KERNEL_STACKS
    psi = np.array([1.0, 0.3 + 0.2j, -0.1, 0.7j])
    bl = bilinears(psi)
    assert np.array_equal(clifford.theta_phi(psi), [bl.theta, bl.phi])
    broken = stacks[0].copy()
    broken[0, 1] += 0.3
    monkeypatch.setattr(clifford, "_KERNEL_STACKS", (broken, *stacks[1:]))
    with pytest.raises(NonRealBilinear):
        clifford.theta_phi(psi)


def test_lorentz_dot_signature():
    v = np.array([2.0, 1.0, 0.0, 0.0])
    assert lorentz_dot(v, v) == pytest.approx(3.0)
