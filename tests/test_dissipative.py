"""Double-mirrors Hamiltonian assembly against the closed-form chain matrix and
the brute-force oracle."""

import math

import numpy as np
import pytest

from oracles import FullModelOracle
from wgherald.basis import HPMode, build_basis
from wgherald.dissipative import (
    DissipativeParams,
    build_H_coherent,
    build_H_nh,
    build_jump_operators,
    excitation_number_operator,
    optimal_parameters,
)
from wgherald.linalg import decay_generator_max_eig, is_dissipative


def chain_setup(n, m, gamma_s, gamma_star, drive=0.0):
    p = DissipativeParams(N=n, m=m, gamma_s=gamma_s, gamma_star=gamma_star,
                          drive_omega=drive)
    basis = build_basis(n, m, HPMode.APPROX, with_drive=drive > 0)
    return p, basis


def test_params_validation():
    with pytest.raises(ValueError):
        DissipativeParams(N=0, m=1)
    with pytest.raises(ValueError):
        DissipativeParams(N=10, m=1, gamma_g=0.0)
    with pytest.raises(ValueError):
        DissipativeParams(N=10, m=1, gamma_s=-1.0)
    p = DissipativeParams(N=10, m=4)
    assert p.gamma_s == pytest.approx(0.5)  # optimal 1/sqrt(4)
    assert DissipativeParams(N=10, m=1, gamma_star=0.1).purcell == pytest.approx(10.0)
    assert math.isinf(DissipativeParams(N=10, m=1).purcell)


def test_chain_matrix_reproduces_closed_form():
    n, m = 500, 1
    p, basis = chain_setup(n, m, gamma_s=1.0, gamma_star=0.2)
    h = build_H_nh(p, basis)
    g = math.sqrt(2 * n)
    expect = 0.5 * np.array(
        [
            [-1j * (1.0 + 0.2), g, 0],
            [g, -1j * (m * 1.0 + 0.2), math.sqrt(2 * n * m)],
            [0, math.sqrt(2 * n * m), -1j * 0.2],
        ]
    )
    assert np.abs(h - expect).max() < 1e-12


def test_chain_couplings_sector_m():
    n, m = 200, 3
    p, basis = chain_setup(n, m, gamma_s=0.6, gamma_star=0.0)
    h = build_H_coherent(p, basis)
    assert h[0, 1] == pytest.approx(math.sqrt(2 * n) / 2)
    assert h[1, 2] == pytest.approx(math.sqrt(2 * n * m) * 0.6 / 2)
    assert np.abs(h - h.conj().T).max() < 1e-13


def test_gamma_s_zero_decouples_detector():
    p, basis = chain_setup(100, 1, gamma_s=0.0, gamma_star=0.0)
    h = build_H_coherent(p, basis)
    assert h[1, 2] == 0.0 and h[2, 1] == 0.0


def test_jump_channel_inventory():
    p, basis = chain_setup(100, 2, gamma_s=0.5, gamma_star=0.1)
    names = [ch.name for ch in build_jump_operators(p, basis)]
    assert names == ["source_guided", "target_guided_ge", "target_guided_se",
                     "free_space"]
    p0, basis0 = chain_setup(100, 2, gamma_s=0.5, gamma_star=0.0)
    assert len(build_jump_operators(p0, basis0)) == 3


def test_decay_sum_on_middle_chain_state():
    # sum_k Gamma_k O_k^dag O_k on the second chain state = m gamma_s + gamma*
    n, m = 100, 3
    p, basis = chain_setup(n, m, gamma_s=0.7, gamma_star=0.25)
    total = sum(ch.rate * ch.opdag_op for ch in build_jump_operators(p, basis))
    assert total[1, 1] == pytest.approx(m * 0.7 + 0.25)
    assert total[0, 0] == pytest.approx(p.gamma_g + 0.25)
    assert total[2, 2] == pytest.approx(0.25)


def test_h_nh_dissipative_over_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, min(n, 5) + 1))
        mode = HPMode.EXACT if rng.random() < 0.5 else HPMode.APPROX
        drive = float(rng.uniform(0, 10)) if (mode == HPMode.APPROX and rng.random() < 0.3) else 0.0
        p = DissipativeParams(
            N=n, m=m,
            gamma_g=float(rng.uniform(0.1, 3.0)),
            gamma_s=float(rng.uniform(0.0, 3.0)),
            gamma_star=float(rng.uniform(0.0, 1.0)),
            drive_omega=drive,
        )
        basis = build_basis(n, m, mode, with_drive=drive > 0)
        h = build_H_nh(p, basis)
        assert is_dissipative(h, tol=1e-10)
        assert decay_generator_max_eig(h) <= 1e-10


def test_excitation_number_conserved():
    for mode in (HPMode.EXACT, HPMode.APPROX):
        for (n, m) in ((50, 1), (50, 3)):
            p = DissipativeParams(N=n, m=m, gamma_star=0.1)
            basis = build_basis(n, m, mode)
            h = build_H_coherent(p, basis)
            num = excitation_number_operator(basis)
            assert np.abs(h @ num - num @ h).max() < 1e-12
            assert np.allclose(np.diag(num).real, m)
    # drive basis includes the loaded source state and the read-out state
    p = DissipativeParams(N=50, m=2, gamma_star=0.0, drive_omega=3.0)
    basis = build_basis(50, 2, HPMode.APPROX, with_drive=True)
    h = build_H_coherent(p, basis)
    num = excitation_number_operator(basis)
    assert np.abs(h @ num - num @ h).max() < 1e-12


def test_optimal_parameters_values():
    p = DissipativeParams(N=500, m=1)
    opt = optimal_parameters(p)
    assert opt.gamma_s == pytest.approx(1.0)
    assert opt.T == pytest.approx(0.140496294621, abs=1e-9)
    p4 = DissipativeParams(N=500, m=4)
    assert optimal_parameters(p4).gamma_s == pytest.approx(0.5)
    pdrive = DissipativeParams(N=100, m=1, drive_omega=1.0)
    opt = optimal_parameters(pdrive)
    g = math.sqrt(200)
    assert opt.omega == pytest.approx(math.sqrt(2 / 3) * g)
    # the transfer completes after one half rotation of the five-site chain
    assert opt.T == pytest.approx(2 * math.pi / opt.omega)
    assert opt.T == pytest.approx(math.sqrt(6) * math.pi / g)


def test_eigenvalue_probability_close_to_closed_form():
    # sector 2 at the optimal ratio: evolved norm transfer vs closed form
    from wgherald.formulas import p_double_mirrors
    from wgherald.linalg import expm_apply

    n, m = 500, 2
    p = DissipativeParams.from_purcell(n, m, 10.0)
    basis = build_basis(n, m, HPMode.APPROX)
    h = build_H_nh(p, basis)
    t = optimal_parameters(p).T
    psi = expm_apply(h, t, np.array([1.0, 0, 0], complex))
    assert abs(psi[2]) ** 2 == pytest.approx(p_double_mirrors(n, m, 10.0), rel=0.03)
    assert abs(psi[2]) ** 2 == pytest.approx(0.890111, abs=5e-4)


def test_exact_h_nh_matches_bruteforce():
    for (n, m, gg, gs, gst) in ((3, 1, 1.0, 1.0, 0.0), (4, 2, 1.0, 0.7, 0.3),
                                (5, 2, 0.8, 1.3, 0.05)):
        basis = build_basis(n, m, HPMode.EXACT)
        p = DissipativeParams(N=n, m=m, gamma_g=gg, gamma_s=gs, gamma_star=gst)
        h_pkg = build_H_nh(p, basis)
        orc = FullModelOracle(n)
        h_cols = orc.h_nh_projected(basis.labels, gg, gs, gst)
        assert np.abs(h_pkg - h_cols).max() < 1e-12

        # each channel on its own: <i|O^dag O|j> = (O|i>)^dag (O|j>) with the
        # brute-force O, so a swap between channels cannot hide in the sum
        kets = np.column_stack([
            orc.embed_label(l.source_level, l.k1, l.l1, l.k2, l.l2, l.detector_excited)
            for l in basis.labels
        ])
        d_exc = orc.detector_excite()
        jump_ops = {
            "source_guided": orc.source_op("g", "e"),
            "target_guided_ge": orc.target_op(("g", "e"), -1.0),
            "target_guided_se": orc.target_op(("s", "e"), -1.0),
        }
        # free space: sum over atoms of |e><e|, the excited-atom count
        n_e = (orc.source_op("e", "e") + orc.target_op(("e", "e"), 1.0)
               + d_exc @ d_exc.conj().T / (2 * n))
        channels = build_jump_operators(p, basis)
        want_names = list(jump_ops) + (["free_space"] if gst > 0 else [])
        assert [ch.name for ch in channels] == want_names
        for ch in channels:
            if ch.name == "free_space":
                brute = kets.conj().T @ (n_e @ kets)
            else:
                o_kets = jump_ops[ch.name] @ kets
                brute = o_kets.conj().T @ o_kets
            assert np.abs(ch.opdag_op - brute).max() < 1e-12, ch.name


def test_params_basis_mismatch_rejected():
    p = DissipativeParams(N=10, m=1)
    basis = build_basis(20, 1, HPMode.APPROX)
    with pytest.raises(ValueError):
        build_H_coherent(p, basis)
