"""Basis enumeration, collective operators, and the brute-force oracle."""

import math

import numpy as np
import pytest

from oracles import (
    detector_coupling_element,
    excitation_number_operator,
    mirror_swap_matrix,
    mirror_operator_column_norm,
    mirror_operator_element,
)
from wgherald.basis import (
    BasisError,
    BasisLabel,
    BasisSet,
    HPMode,
    build_basis,
    goal_amplitudes,
    goal_state,
    matrix_from_action,
    mirror_image,
    roots,
    storage_labels,
)
from wgherald.dissipative import DissipativeParams, target_images

MIRROR_OPS = {"eg": ("e", "g"), "ge": ("g", "e"), "sg": ("s", "g"),
              "gs": ("g", "s"), "se": ("s", "e"), "es": ("e", "s")}


def kl_pairs(m):
    pairs = [(k, l) for k in range(m + 1) for l in (0, 1) if k + l <= m]
    return pairs


def test_basis_counts():
    assert build_basis(1, HPMode.EXACT).dim == 5
    assert build_basis(3, HPMode.EXACT).dim == 13
    assert build_basis(1, HPMode.APPROX).dim == 3
    assert build_basis(1, HPMode.APPROX, with_drive=True).dim == 5
    for m in range(1, 7):
        assert build_basis(m, HPMode.EXACT).dim == 4 * m + 1


def test_parity_sector_bases():
    # a sector's fold spans the P = parity eigenspace of the full basis with
    # orthonormal states, one per representative (2m+1 and 2m of them)
    for m in range(1, 9):
        full = build_basis(m, HPMode.EXACT)
        swap = mirror_swap_matrix(full)
        dims = []
        for parity in (1, -1):
            basis = build_basis(m, HPMode.EXACT, parity=parity)
            assert list(basis.labels) == sorted(basis.labels, key=BasisLabel.sort_key)
            assert [basis.fold[lbl][0] for lbl in basis.labels] == list(range(basis.dim))
            u = np.zeros((full.dim, basis.dim))
            for lbl, (i, w) in basis.fold.items():
                u[full.labels.index(lbl), i] += w
            assert np.allclose(u.T @ u, np.eye(basis.dim), rtol=0, atol=1e-15)
            assert np.array_equal(swap @ u, parity * u)
            dims.append(basis.dim)
        assert sorted(dims) == [2 * m, 2 * m + 1]
    with pytest.raises(BasisError):
        build_basis(2, HPMode.APPROX, parity=1)
    with pytest.raises(BasisError):
        build_basis(2, HPMode.EXACT, parity=0)


def test_basis_label_invariants():
    basis = build_basis(4, HPMode.EXACT)
    for lbl in basis.labels:
        assert lbl.l1 in (0, 1) and lbl.l2 in (0, 1)
        assert lbl.l1 + lbl.l2 <= 1
        assert lbl.k1 + lbl.l1 + lbl.k2 + lbl.l2 <= basis.m
        assert max(lbl.k1, lbl.k2) <= basis.m
    counts = set(np.diag(excitation_number_operator(basis)).real)
    assert counts == {basis.m}


def test_basis_rejections():
    # a basis takes no N, so m > N is the params' to refuse
    with pytest.raises(ValueError, match="1 <= m <= N"):
        DissipativeParams(N=3, m=4)
    with pytest.raises(BasisError):
        build_basis(0, HPMode.APPROX)
    with pytest.raises(BasisError):
        build_basis(1, HPMode.EXACT, with_drive=True)


def test_every_call_form_shares_one_cached_basis():
    basis = build_basis(3, HPMode.EXACT, parity=1)
    assert build_basis(3, HPMode.EXACT, False, 1) is basis
    assert build_basis(m=3, mode=HPMode.EXACT, with_drive=False, parity=1) is basis
    assert build_basis(2, HPMode.APPROX) is build_basis(2, HPMode.APPROX, with_drive=False)


def test_goal_state_small_m():
    g1 = goal_amplitudes(1)
    assert np.allclose(g1, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    g2 = goal_amplitudes(2)
    # (sqrt2, -2, sqrt2)/(2 sqrt2) on occupations (2,0), (1,1), (0,2)
    assert np.allclose(g2, np.array([math.sqrt(2), -2.0, math.sqrt(2)]) / (2 * math.sqrt(2)))
    for m in range(1, 7):
        assert np.vdot(goal_amplitudes(m), goal_amplitudes(m)).real == pytest.approx(1.0)
    assert storage_labels(2) == [(2, 0), (1, 1), (0, 2)]


def test_goal_state_in_each_mode():
    exact = build_basis(3, HPMode.EXACT)
    assert goal_state(exact).shape == (4,)
    approx = build_basis(3, HPMode.APPROX)
    assert np.allclose(goal_state(approx), [1.0])


def test_goal_state_storage_number():
    # eigenvector of the total storage-quanta counter with eigenvalue m
    m = 3
    amps = goal_amplitudes(m)
    ks = np.array([k1 + k2 for k1, k2 in storage_labels(m)])
    assert np.all(ks == m)
    assert np.vdot(amps, ks * amps).real == pytest.approx(m)


def test_single_atom_limit_exact():
    # N=1: collective ops reduce to single-atom flips, sqrt(N - s) = 1
    basis = build_basis(1, HPMode.EXACT)
    op = matrix_from_action(basis, lambda lbl: target_images(basis, lbl, "eg", 1.0)).at(1).matrix
    assert basis.labels[0].source_level == "e"
    col = op[:, 0]
    assert np.count_nonzero(col) == 0 or np.allclose(np.abs(col[np.abs(col) > 0]), 1.0)


def test_linearized_mode_commutator_below_cutoff():
    # [b, b^dag] = 1 on the chain labels, below the occupation cutoff; the
    # matrices act on the chain widened by one excited quantum either way, so
    # both products of a chain label stay inside it
    n_atoms = 200
    basis = build_basis(2, HPMode.APPROX)
    two_n = 2 * n_atoms
    wide = sorted({lbl._replace(l1=l) for lbl in basis.labels
                   for l in (lbl.l1 - 1, lbl.l1, lbl.l1 + 1) if l >= 0},
                  key=lambda lbl: lbl.sort_key())
    wide = BasisSet(tuple(wide), basis.mode, basis.m)
    create = matrix_from_action(
        wide, lambda lbl: target_images(wide, lbl, "eg", 1.0)).at(n_atoms).matrix
    annih = matrix_from_action(
        wide, lambda lbl: target_images(wide, lbl, "ge", 1.0)).at(n_atoms).matrix
    comm_matrix = annih @ create - create @ annih
    for lbl in basis.labels:
        i = wide.labels.index(lbl)
        comm = comm_matrix[i, i]
        assert comm / two_n == pytest.approx(1.0, abs=1e-12)


def test_collective_operator_matches_bruteforce_per_mirror():
    # every per-mirror operator vs explicit symmetrized states, N <= 5, m <= 2
    for n_atoms in (1, 2, 3, 4, 5):
        pairs = [p for p in kl_pairs(2) if sum(p) <= n_atoms]
        for which, (alpha, beta) in MIRROR_OPS.items():
            for k, l in pairs:
                out = mirror_image(which, k, l)
                image = {} if out is None else {out[:2]: out[2][0] * roots(n_atoms, 3)[out[2][1]]}
                for kp, lp in pairs:
                    want = mirror_operator_element(n_atoms, (alpha, beta), (kp, lp), (k, l))
                    got = image.get((kp, lp), 0.0)
                    assert got == pytest.approx(want.real, abs=1e-12), (
                        which, n_atoms, (k, l), (kp, lp)
                    )


def test_truncation_loss_matches_bruteforce_column_norm():
    # S_eg,+ pushes l -> 2 outside the cutoff; the reported loss must equal
    # the squared norm the oracle sees leaving the projected space
    n_atoms, m = 4, 2
    basis = build_basis(m, HPMode.EXACT)
    op = matrix_from_action(basis, lambda lbl: target_images(basis, lbl, "eg", 1.0)).at(n_atoms)
    in_basis = np.abs(op.matrix) ** 2
    total_in = float(in_basis.sum())
    total_full = 0.0
    for lbl in basis.labels:
        for mirror, (k, l) in ((1, (lbl.k1, lbl.l1)), (2, (lbl.k2, lbl.l2))):
            total_full += mirror_operator_column_norm(n_atoms, ("e", "g"), (k, l))
    assert op.truncation_loss == pytest.approx(total_full - total_in, abs=1e-9)


def test_detector_flag_elements_bruteforce():
    # excitation element sqrt(2N) and unit readout element, from 3^(2N) states
    for two_n in (2, 4, 6):
        exc, readout = detector_coupling_element(two_n)
        assert exc == pytest.approx(math.sqrt(two_n), abs=1e-12)
        assert readout == pytest.approx(1.0, abs=1e-12)


def test_exact_operators_approach_linearized():
    # chain-projected Hamiltonian elements deviate from the linearized chain
    # by O(m/N) relative to the collective coupling scale
    from wgherald.dissipative import DissipativeParams, build_H_nh

    m = 3
    devs = {}
    for n in (50, 200, 800):
        exact = build_basis(m, HPMode.EXACT)
        approx = build_basis(m, HPMode.APPROX)
        p = DissipativeParams(N=n, m=m, gamma_star=0.05)
        h_exact = build_H_nh(p, exact)
        h_approx = build_H_nh(p, approx)
        amps = goal_amplitudes(m - 1)
        labels = storage_labels(m - 1)
        chain = np.zeros((exact.dim, 3), complex)
        for (k1, k2), a in zip(labels, amps):
            chain[exact.labels.index(BasisLabel("e", k1, 0, k2, 0)), 0] = a
            chain[exact.labels.index(BasisLabel("g", k1, 1, k2, 0)), 1] += a / math.sqrt(2)
            chain[exact.labels.index(BasisLabel("g", k1, 0, k2, 1)), 1] += a / math.sqrt(2)
        for (k1, k2), a in zip(storage_labels(m), goal_amplitudes(m)):
            chain[exact.labels.index(BasisLabel("g", k1, 0, k2, 0, "excited")), 2] = a
        projected = chain.conj().T @ h_exact @ chain
        scale = math.sqrt(2 * n) / 2
        devs[n] = np.abs(projected - h_approx).max() / scale
        assert devs[n] <= 1.0 * m / n
    assert devs[800] < devs[50] / 4
