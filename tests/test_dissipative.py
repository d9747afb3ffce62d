"""Double-mirrors Hamiltonian assembly against the closed-form chain matrix and
the brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FullModelOracle,
    decay_generator_max_eig,
    drive_matrix,
    excitation_number_operator,
    mirror_swap_matrix,
)
from wgherald import dissipative
from wgherald.basis import (
    ONE,
    RATE_G,
    RATE_S,
    ROOT_2N,
    ROOT_N,
    BasisSet,
    HPMode,
    build_basis,
    matrix_from_action,
    stage_frame,
)
from wgherald.dissipative import (
    DissipativeParams,
    build_H_coherent,
    build_H_nh,
    build_jump_operators,
    optimal_time,
    readout_drive,
    source_drive,
)
from wgherald.protocol import _embed_input, run_step_continuous_drive


def chain_setup(n, m, gamma_s, gamma_star):
    p = DissipativeParams(N=n, m=m, gamma_s=gamma_s, gamma_star=gamma_star)
    basis = build_basis(n, m, HPMode.APPROX)
    return p, basis


def test_params_validation():
    with pytest.raises(ValueError):
        DissipativeParams(N=0, m=1)
    with pytest.raises(ValueError):
        DissipativeParams(N=10, m=1, gamma_star=math.inf)
    with pytest.raises(ValueError):
        DissipativeParams(N=10, m=1, gamma_s=-1.0)
    p = DissipativeParams(N=10, m=4)
    assert p.gamma_s == pytest.approx(0.5)  # optimal 1/sqrt(4)


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
    assert total[0, 0] == pytest.approx(1.0 + 0.25)
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
            gamma_s=float(rng.uniform(0.0, 3.0)),
            gamma_star=float(rng.uniform(0.0, 1.0)),
        )
        basis = build_basis(n, m, mode, with_drive=drive > 0)
        h = build_H_nh(p, basis)
        if drive > 0:
            h = h + (drive / 2) * drive_matrix(basis)
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
    p = DissipativeParams(N=50, m=2, gamma_star=0.0)
    basis = build_basis(50, 2, HPMode.APPROX, with_drive=True)
    h = build_H_coherent(p, basis) + (3.0 / 2) * drive_matrix(basis)
    num = excitation_number_operator(basis)
    assert np.abs(h @ num - num @ h).max() < 1e-12


def test_optimal_time_values():
    assert optimal_time(DissipativeParams(N=500, m=1)) == pytest.approx(0.140496294621,
                                                                       abs=1e-9)
    # driven step at the default omega = sqrt(2/3) sqrt(2N): the transfer
    # completes after one half rotation of the five-site chain
    driven = run_step_continuous_drive(100, 1, math.inf)
    assert driven.T_used == pytest.approx(math.sqrt(6) * math.pi / math.sqrt(200))


def test_eigenvalue_probability_close_to_closed_form():
    # sector 2 at the optimal ratio: evolved norm transfer vs closed form
    from wgherald.formulas import p_double_mirrors
    from wgherald.linalg import Propagator

    n, m = 500, 2
    p = DissipativeParams.from_purcell(n, m, 10.0)
    basis = build_basis(n, m, HPMode.APPROX)
    h = build_H_nh(p, basis)
    t = optimal_time(p)
    psi = Propagator(h, np.array([1.0, 0, 0], complex)).apply(t)
    assert abs(psi[2]) ** 2 == pytest.approx(p_double_mirrors(n, m, 10.0), rel=0.03)
    assert abs(psi[2]) ** 2 == pytest.approx(0.890111, abs=5e-4)


def test_exact_h_nh_matches_bruteforce():
    for (n, m, gs, gst) in ((3, 1, 1.0, 0.0), (4, 2, 0.7, 0.3), (5, 2, 1.3, 0.05)):
        basis = build_basis(n, m, HPMode.EXACT)
        p = DissipativeParams(N=n, m=m, gamma_s=gs, gamma_star=gst)
        h_pkg = build_H_nh(p, basis)
        orc = FullModelOracle(n)
        h_cols = orc.h_nh_projected(basis.labels, gs, gst)
        assert np.abs(h_pkg - h_cols).max() < 1e-12

        # each channel on its own: <i|O^dag O|j> = (O|i>)^dag (O|j>) with the
        # brute-force O, so a swap between channels cannot hide in the sum
        kets = np.column_stack([
            orc.embed_label(l.source_level, l.k1, l.l1, l.k2, l.l2, l.detector == "excited")
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
    # a basis serves every N >= m, so params must match its m and have N >= m
    basis = build_basis(20, 2, HPMode.APPROX)
    for p in (DissipativeParams(N=10, m=1), DissipativeParams(N=1, m=2)):
        with pytest.raises(ValueError):
            build_H_coherent(p, basis)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 1000),
    data=st.data(),
    gamma_s=st.floats(0.0, 10.0),
    gamma_star=st.floats(0.0, 2.0),
)
def test_mirror_swap_commutes_with_the_model(n, data, gamma_s, gamma_star):
    # the premise of the parity-sector steps: P commutes exactly with H_nh and
    # every channel's O^dag O, and the default input of step m has parity
    # (-1)^(m-1)
    m = data.draw(st.integers(1, min(n, 40)), label="m")
    p = DissipativeParams(N=n, m=m, gamma_s=gamma_s, gamma_star=gamma_star)
    basis = build_basis(n, m, HPMode.EXACT)
    swap = mirror_swap_matrix(basis)
    h = build_H_nh(p, basis)
    assert np.array_equal(swap @ h, h @ swap)
    for ch in build_jump_operators(p, basis):
        assert np.array_equal(swap @ ch.opdag_op, ch.opdag_op @ swap), ch.name
    psi0 = _embed_input(basis, None)
    assert np.array_equal(swap @ psi0, (-1.0) ** (m - 1) * psi0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 1000),
    data=st.data(),
    p1d=st.one_of(st.just(math.inf), st.floats(1.0, 100.0)),
    gamma_s=st.floats(0.0, 10.0),
    parity=st.sampled_from([None, 1, -1]),
    omega=st.floats(1e-3, 1e4),
)
def test_stage_frame_makes_the_generator_exactly_real(n, data, p1d, gamma_s, parity, omega):
    # the premise of the real eig: with T = diag(stage_frame), T^-1 (-iH) T
    # has an imaginary part of exactly zero on every exact basis and sector,
    # on the 3-state chain and on the driven chain under either drive
    m = data.draw(st.integers(1, min(n, 40)), label="m")
    p = DissipativeParams.from_purcell(n, m, p1d, gamma_s=gamma_s)
    exact = build_basis(n, m, HPMode.EXACT, parity=parity)
    chain = build_basis(n, m, HPMode.APPROX)
    driven = build_basis(n, m, HPMode.APPROX, with_drive=True)
    h_driven = build_H_nh(p, driven)
    src = matrix_from_action(driven, source_drive).at(n).matrix
    det = matrix_from_action(driven, readout_drive).at(n).matrix
    cases = [(exact, build_H_nh(p, exact)), (chain, build_H_nh(p, chain)),
             (driven, h_driven + (omega / 2) * src), (driven, h_driven + (omega / 2) * det),
             (driven, build_H_coherent(p, driven) + (omega / 2) * (src + det))]
    for basis, h in cases:
        frame = stage_frame(basis)
        g = (-1j * h) * (frame[None, :] / frame[:, None])
        assert np.array_equal(g.imag, np.zeros(h.shape))


def test_terms_are_recorded_once_and_every_matrix_is_fresh(monkeypatch):
    # one basis serves every N: the rules run once on it, the recorded terms
    # are read-only, and each builder call returns newly allocated matrices,
    # so mutating one changes no later call and interleaving two N values of
    # one shape gives the bytes each gives built alone
    calls = []
    record = dissipative.matrix_from_action
    monkeypatch.setattr(dissipative, "matrix_from_action",
                        lambda *args: calls.append(args) or record(*args))
    sector = build_basis(40, 5, HPMode.EXACT, parity=1)

    def fresh():  # an equal basis object with nothing recorded on it yet
        return BasisSet(sector.labels, sector.mode, sector.m, fold=sector.fold)

    def model(p, basis):
        channels = build_jump_operators(p, basis)
        return [build_H_coherent(p, basis), build_H_nh(p, basis)] + [c.opdag_op for c in channels]

    params = {n: DissipativeParams.from_purcell(n, 5, 10.0) for n in (7, 1000)}
    alone = {n: [a.tobytes() for a in model(p, fresh())] for n, p in params.items()}
    shared = fresh()
    del calls[:]
    for n in (7, 1000, 7, 1000):
        matrices = model(params[n], shared)
        assert [a.tobytes() for a in matrices] == alone[n]
        for a in matrices:
            a[...] = np.nan
    assert len(calls) == 1  # one stack: the coherent part and the channels
    terms = shared.memo(dissipative._terms)
    for a in (terms.flat, terms.c, terms.q, terms.ratio):
        with pytest.raises(ValueError):
            a[...] = 0


def loop_matrix(terms, n, rates):
    # the loop the recorded terms stand for: each term's product in its
    # association, added to its entry in term order, the roots from math
    def root(q):
        if q >= ROOT_N:
            return math.sqrt(max(n - (q - ROOT_N), 0))
        return {ONE: 1.0, RATE_G: rates[0], RATE_S: rates[1], ROOT_2N: math.sqrt(2 * n)}[q]

    size = math.prod(terms.shape)
    out = [0.0] * (size + 1)
    for t, flat in enumerate(terms.flat.tolist()):
        (c1, c2), (q1, q2) = terms.c[:, t].tolist(), terms.q[:, t].tolist()
        out[flat] += (c1 * root(q1)) * (c2 * root(q2)) * terms.ratio[t].item()
    return np.array(out[:size]).reshape(terms.shape)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (5, 3), (7, 7), (300, 6), (1000, 40)])
def test_recorded_terms_evaluate_as_their_loop(n, m):
    # the array evaluation gives the bytes of the loop, roots that vanish at
    # N = m included, on every basis kind, with and without the drives
    rates = (0.5, 0.5 / math.sqrt(m))
    bases = [build_basis(n, m, HPMode.EXACT, parity=par) for par in (None, 1, -1)]
    bases += [build_basis(n, m, HPMode.APPROX, with_drive=drive) for drive in (False, True)]
    for basis in bases:
        terms = [basis.memo(dissipative._terms), matrix_from_action(basis, source_drive),
                 matrix_from_action(basis, readout_drive)]
        for t in terms:
            assert t.at(n, rates).matrix.tobytes() == loop_matrix(t, n, rates).tobytes()
