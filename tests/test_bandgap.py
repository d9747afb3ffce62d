"""Finite-range bandgap model: Hamiltonian structure, transfer, scalings."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chebyshev_propagate, dense_lanczos, ideal_bandgap_chain, kms_product
from wgherald import bandgap, sweep
from wgherald.bandgap import (
    KRYLOV_MAX_ERROR,
    BandgapParams,
    TransferWindowError,
    _lanczos,
    _products,
    build_H_bandgap,
    compensate,
    ideal_step_probability,
    run_transfer,
)
from wgherald.basis import HPMode, build_basis
from wgherald.dissipative import DissipativeParams, build_H_coherent
from wgherald.linalg import Propagator, golden_section_max, norm_sq


def test_params_validation():
    with pytest.raises(ValueError):
        BandgapParams(N=0, xi=10.0)
    with pytest.raises(ValueError):
        BandgapParams(N=10, xi=0.0)
    with pytest.raises(ValueError):
        BandgapParams(N=3, m=5, xi=10.0)
    # N and m are integers, numpy ones included, and not bools
    for n, m in ((10.5, 1), (10, 1.5), (10.0, 1), (True, 1), (10, True)):
        with pytest.raises(ValueError, match="integers"):
            BandgapParams(N=n, xi=5.0, m=m)
    assert BandgapParams(N=np.int64(10), xi=5.0, m=np.int32(2)).N_m == 9
    for gamma_star in (-0.2, math.nan, math.inf, True, False, np.True_, np.False_, "0.1", None):
        with pytest.raises(ValueError, match="gamma_star"):
            BandgapParams(N=10, xi=10.0, gamma_star=gamma_star)
    # a bool xi, numpy's included, would run as a range of 1 lattice spacing;
    # a string, a list or None is no range at all
    for xi in (True, np.True_, "10", [1.0], None):
        with pytest.raises(ValueError, match="xi"):
            BandgapParams(N=10, xi=xi)


def test_two_site_coupling():
    p = BandgapParams(N=1, xi=3.0)
    h = build_H_bandgap(p)
    unit = 1 / (2 * p.xi)
    assert h[0, 1] == pytest.approx(unit * math.exp(-1 / 3.0))
    assert h[0, 0] == pytest.approx(unit)  # source self-energy
    assert h[1, 1] == pytest.approx(unit)


def test_large_range_limit_collective_coupling():
    n = 25
    p = BandgapParams(N=n, xi=1e9)
    h = build_H_bandgap(p)
    sym = np.full(n, 1 / math.sqrt(n))
    g_eff = float(np.real(sym @ h[1:, 0]))
    assert g_eff == pytest.approx(p.coupling, rel=1e-6)
    assert p.coupling == pytest.approx(math.sqrt(n) / (2 * p.xi))


def test_compensated_symmetric_mode_near_zero():
    n = 40
    p = BandgapParams(N=n, xi=1e7)
    h = compensate(build_H_bandgap(p), p)
    sym = np.full(n, 1 / math.sqrt(n), dtype=complex)
    shift = np.real(sym.conj() @ h[1:, 1:] @ sym)
    assert abs(shift) < 1e-10 / (2 * p.xi) * n
    assert abs(h[0, 0]) < 1e-15


def test_ideal_chain_compensated_diag_zero():
    p = BandgapParams(N=50, m=1, xi=200.0)
    h = ideal_bandgap_chain(p)
    assert np.allclose(np.diag(h), 0.0)
    assert h[0, 1] == pytest.approx(p.coupling)


def test_norm_conserved_without_free_space_decay():
    p = BandgapParams(N=30, xi=40.0)
    h = compensate(build_H_bandgap(p), p)
    assert np.abs(h - h.conj().T).max() < 1e-13
    psi0 = np.zeros(31, complex)
    psi0[0] = 1.0
    g = p.coupling
    prop = Propagator(-1j * h, psi0, 10 * math.pi / g)
    for t in np.linspace(0.0, 10 * math.pi / g, 7):
        assert norm_sq(prop.apply(t)) == pytest.approx(1.0, abs=1e-10)


def test_transfer_depletes_source_and_records_profile():
    p = BandgapParams(N=100, xi=100.0)
    rec = run_transfer(p)
    assert rec.source_population_at_opt <= 0.05
    assert rec.intensity.shape == (100,)
    assert rec.phase.shape == (100,)
    assert 0.0 <= rec.infidelity < 0.05
    assert rec.survival_probability == 1.0  # gamma_star = 0
    # approximately homogeneous collective mode: flat phase profile
    assert np.ptp(rec.phase) < 0.2


def test_transfer_records_compare_by_identity():
    a, b = (run_transfer(BandgapParams(40, 40.0)) for _ in range(2))
    assert (a == b, a == a) == (False, True)


def test_transfer_infidelity_scaling_with_range():
    infs = {}
    for xi in (50, 100, 200, 400):
        infs[xi] = run_transfer(BandgapParams(N=100, xi=xi)).infidelity
    slope = np.polyfit(np.log(list(infs.keys())), np.log(list(infs.values())), 1)[0]
    assert -2.2 <= slope <= -1.8


def test_transfer_ideal_limit_time_and_infidelity():
    p = BandgapParams(N=25, xi=5000.0)
    rec = run_transfer(p)
    assert rec.infidelity < 1e-5
    # first transfer maximum: half a Rabi period of the collective coupling
    assert rec.optimal_time == pytest.approx(math.pi / (2 * p.coupling), rel=0.01)


def test_transfer_infidelity_matches_direct_eigensolution():
    # recompute the optimal-time state by direct Hermitian diagonalization
    # (no Propagator machinery) and compare the reported infidelity
    import scipy.linalg

    p = BandgapParams(N=100, xi=100.0)
    rec = run_transfer(p)
    h = compensate(build_H_bandgap(p), p)
    evals, evecs = scipy.linalg.eigh(h)
    psi0 = np.zeros(p.N + 1)
    psi0[0] = 1.0
    coeffs = evecs.T @ psi0
    psi = evecs @ (np.exp(-1j * evals * rec.optimal_time) * coeffs)
    c = psi[1:]
    c = c / np.linalg.norm(c)
    sym = np.full(p.N, 1 / math.sqrt(p.N))
    infid = 1.0 - abs(np.vdot(sym, c)) ** 2
    assert rec.infidelity == pytest.approx(infid, abs=1e-8)


@pytest.mark.parametrize("p", [
    BandgapParams(N=n, xi=n * ratio) for n in (1, 2, 5, 40, 300, 600) for ratio in (0.5, 8)
], ids=lambda p: f"N{p.N}-xi{p.xi:g}")
def test_transfer_matches_dense_eigensolution(p):
    # the Krylov transfer against a full eigendecomposition of the same real
    # compensated H, scanned and refined the same way
    rec = run_transfer(p)
    h = compensate(build_H_bandgap(p), p)
    evals, evecs = scipy.linalg.eigh(h)

    def psi(t):
        return evecs @ (np.exp(-1j * evals * t) * evecs[0])

    source = np.exp(-1j * np.outer(rec.times, evals)) @ (evecs[0] ** 2)
    pops = 1.0 - np.abs(source) ** 2
    assert np.abs(rec.target_population - pops).max() <= 1e-12
    assert np.abs(rec.source_population - (1.0 - pops)).max() <= 1e-12

    c = psi(rec.optimal_time)[1:]
    assert np.abs(rec.amplitudes - c).max() <= 1e-12
    sym = np.full(p.N, 1 / math.sqrt(p.N))
    infid = 1.0 - abs(np.vdot(sym, c)) ** 2 / norm_sq(c)
    assert rec.infidelity == pytest.approx(infid, abs=1e-12)

    k = 1 + np.flatnonzero((pops[1:-1] >= pops[:-2]) & (pops[1:-1] > pops[2:]))[0]
    tol = 1e-6 * math.pi / p.coupling
    t_opt = golden_section_max(lambda t: norm_sq(psi(t)[1:]),
                               rec.times[k - 1], rec.times[k + 1], tol)
    assert abs(rec.optimal_time - t_opt) <= tol
    assert 1 <= rec.krylov_steps <= p.N + 1
    assert 0.0 <= rec.error_bound <= KRYLOV_MAX_ERROR


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 600])
@pytest.mark.parametrize("ratio", [1e-3, 0.5, 1.0, 8.0, 8e3])
def test_products_match_dense_kernel(n, ratio):
    # the blocked Kac-Murdock-Szego products against the dense reference:
    # N + 1 = 4 and 16 fill their blocks and 5 and 17 pad them, and at
    # ratio 1e-3 the far field's products underflow to 0
    p = BandgapParams(N=n, xi=n * ratio)
    kernel, hamiltonian = _products(p)
    h = build_H_bandgap(p)
    hc = compensate(h, p)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n + 1), np.ones(n + 1)):
        want = h @ x
        assert np.abs(kernel(x) - want).max() <= 1e-13 * np.abs(want).max()
        # compensation cancels: measure against the size of the terms; at
        # ratio 1e-3 the couplings are below the rounding of the diagonal it
        # removes (in `compensate` too), so that diagonal is one of the terms
        terms = np.abs(hc) if ratio >= 0.5 else np.abs(h) + np.abs(h - hc)
        scale = (terms @ np.abs(x)).max()
        assert np.abs(hamiltonian(x) - hc @ x).max() <= 1e-13 * scale


def test_kernel_product_matches_extended_precision_recursion_at_large_n():
    n = 10**5
    p = BandgapParams(N=n, xi=8.0 * n)
    kernel, _ = _products(p)
    x = np.random.default_rng(n).standard_normal(n + 1)
    want = kms_product(x, p.xi) / (2 * p.xi)
    assert np.abs(kernel(x) - want).max() <= 1e-13 * np.abs(want).max()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 600), ratio=st.floats(0.1, 20.0))
def test_krylov_steps_match_full_bound_at_every_step(n, ratio):
    # skipping the full bound where its partial sum already fails, and the
    # Ritz pairs at even j until that probe first passes, must stop at the
    # step the dense loop with the full bound at every step stops at; the
    # loop is called directly, as short ranges leave no transfer maximum in
    # the window
    p = BandgapParams(N=n, xi=n * ratio)
    dt = 10 * math.pi / p.coupling / (bandgap.SCAN_POINTS - 1)
    _, hamiltonian = _products(p)
    _, _, steps, bound, _ = _lanczos(hamiltonian, n + 1, dt, bandgap.SCAN_POINTS)
    _, _, want, _ = dense_lanczos(compensate(build_H_bandgap(p), p), dt, bandgap.SCAN_POINTS)
    assert steps == want
    assert bound <= KRYLOV_MAX_ERROR


@pytest.mark.parametrize("beta2", [1e-20, 0.0])
def test_krylov_stop_at_a_skipped_step(beta2):
    # beta_2 = 1e-20 leaves the orbit of e_0 nearly invariant after three
    # vectors: the probe first passes at j = 3, and the skipped step j = 2 is
    # tested first and stops there, as the full bound at every step does;
    # beta_2 = 0 (an invariant subspace) stops at j = 2 itself
    h = np.diag([1.0, 1.0, beta2, 1.0, 1.0], -1)
    h += h.T + np.diag([0.0, 0.3, -0.2, 0.5, 0.1, -0.4])
    _, theta, steps, bound, _ = _lanczos(lambda x: h @ x, 6, 0.01, 64)
    assert steps == dense_lanczos(h, 0.01, 64)[2] == 3
    assert bound <= KRYLOV_MAX_ERROR
    assert np.allclose(theta, np.linalg.eigvalsh(h[:3, :3]), rtol=0, atol=1e-14)


def test_skipped_step_is_tested_only_where_its_residual_certifies_it(monkeypatch):
    # at N 300, xi 600 the probe first passes at j = 13; the skipped step 12's
    # residual times the window is far above KRYLOV_MAX_ERROR, so neither its
    # Ritz pairs nor its phase table are taken, and step 14 stops the loop
    calls = {"eigh": 0, "table": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(bandgap, "exp_sums", counted("table", bandgap.exp_sums))
    rec = run_transfer(BandgapParams(N=300, xi=600.0))
    assert rec.krylov_steps == 14
    assert calls == {"eigh": 7, "table": 1}


def test_uncertified_skipped_step_returns_the_next_step():
    # N 10, xi 1e4 (a window of 2.0e5): the every-step loop stops at step 5
    # with a bound of 8.4e-14, but that step's residual does not certify it,
    # so the loop returns step 6, whose bound is far smaller
    p = BandgapParams(N=10, xi=1e4)
    rec = run_transfer(p)
    dt = rec.window[1] / (bandgap.SCAN_POINTS - 1)
    basis, theta, want, _ = dense_lanczos(compensate(build_H_bandgap(p), p), dt,
                                          bandgap.SCAN_POINTS)
    assert (rec.krylov_steps, want) == (6, 5)
    assert rec.error_bound <= KRYLOV_MAX_ERROR
    source = np.abs(np.exp(-1j * np.outer(rec.times, theta)) @ basis[0] ** 2) ** 2
    assert np.abs(rec.source_population - source).max() <= 1e-12


def test_transfer_memory_is_linear_in_n():
    # one dense (N+1)^2 kernel would be 72 MB here
    p = BandgapParams(N=3000, xi=3000.0)
    tracemalloc.start()
    try:
        run_transfer(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("ratio", [0.5, 8.0])
def test_transfer_matches_chebyshev_oracle_at_large_n(ratio):
    n = 10**4
    p = BandgapParams(N=n, xi=n * ratio)
    rec = run_transfer(p)
    kernel, hamiltonian = _products(p)
    # Gershgorin on the positive kernel: its spectrum lies in (0, max row
    # sum], and compensation subtracts a diagonal in [0, max(shift, unit)]
    unit = 1 / (2 * p.xi)
    target = np.ones(n + 1)
    target[0] = 0.0
    lo = -max(target @ kernel(target) / n, unit)
    hi = kernel(np.ones(n + 1)).max()

    t_opt = rec.optimal_time
    scan = [int(np.searchsorted(rec.times, f * t_opt)) for f in (0.5, 1.0, 2.0)]
    stops = sorted([(rec.times[i], i) for i in scan] + [(t_opt, None)], key=lambda s: s[0])
    psi = np.zeros(n + 1, dtype=complex)
    psi[0] = 1.0
    t = 0.0
    for t_next, i in stops:
        psi = chebyshev_propagate(hamiltonian, lo, hi, psi, t_next - t)
        t = t_next
        if i is None:
            assert np.abs(rec.amplitudes - psi[1:]).max() <= 1e-12
        else:
            assert abs(rec.target_population[i] - (1.0 - abs(psi[0]) ** 2)) <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 300), ratio=st.floats(0.5, 8.0),
       gamma_star=st.floats(0.0, 1.0))
def test_transfer_populations_sum_to_one(n, ratio, gamma_star):
    rec = run_transfer(BandgapParams(N=n, xi=n * ratio, gamma_star=gamma_star))
    assert rec.intensity.sum() + rec.source_population_at_opt == pytest.approx(1.0, abs=1e-9)


def test_transfer_survival_matches_closed_form_in_ideal_regime():
    for (n, xi) in ((100, 2000.0), (50, 1500.0)):
        p1d = 20 * xi / math.sqrt(n)
        p = BandgapParams(N=n, xi=xi, gamma_star=1.0 / p1d)
        rec = run_transfer(p)
        closed = ideal_step_probability(p)
        assert rec.survival_probability == pytest.approx(closed, rel=0.02)


def test_transfer_refuses_stored_quanta():
    # the atom-resolved single-excitation model holds no stored quanta, so an
    # m > 1 transfer would run the m = 1 dynamics; only the ideal-limit
    # probability, through N_m, reads m
    with pytest.raises(ValueError, match="m must be 1"):
        run_transfer(BandgapParams(N=40, xi=400.0, m=2))
    p = BandgapParams(N=40, xi=400.0, m=2, gamma_star=0.1)
    # exp(-pi xi / (sqrt(N_m) P_1d)) at N_m = 39 and P_1d = 10
    assert ideal_step_probability(p) == pytest.approx(math.exp(-math.pi * 40 / math.sqrt(39)))
    row = sweep.evaluate_point({**sweep.SweepSpec.from_config({"protocol": "bandgap"}).points()[0],
                                "N": 40, "xi": 400.0, "m": 2})
    assert row["error"].startswith("ValueError: the transfer holds no stored quanta")


def test_ideal_step_probability_values():
    p = BandgapParams(N=100, m=1, xi=100.0, gamma_star=0.1)
    assert ideal_step_probability(p) == pytest.approx(math.exp(-math.pi), rel=1e-12)
    assert ideal_step_probability(BandgapParams(N=100, xi=100.0)) == 1.0
    # monotone: decreasing in xi, increasing in N
    vals_xi = [ideal_step_probability(BandgapParams(N=100, xi=x, gamma_star=0.1))
               for x in (50, 100, 200)]
    assert vals_xi[0] > vals_xi[1] > vals_xi[2]
    vals_n = [ideal_step_probability(BandgapParams(N=n, xi=100.0, gamma_star=0.1))
              for n in (25, 100, 400)]
    assert vals_n[0] < vals_n[1] < vals_n[2]


def test_ideal_chain_equivalent_to_rescaled_mirror_chain():
    # collective three-state chain == double-mirrors chain at gamma_s =
    # gamma_g with every rate divided by xi, half the atoms per mirror (m = 1)
    n, xi = 64, 500.0
    p = BandgapParams(N=n, m=1, xi=xi)
    h_band = ideal_bandgap_chain(p)
    p_mirror = DissipativeParams(N=n // 2, m=1, gamma_s=1.0)
    basis = build_basis(1, HPMode.APPROX)
    h_mirror = build_H_coherent(p_mirror, basis) / xi
    assert np.abs(h_band - h_mirror).max() < 1e-14

    # and the chain transfer completes at sqrt(2) pi xi / sqrt(N)
    t_expect = math.sqrt(2) * math.pi * xi / math.sqrt(n)
    prop = Propagator(-1j * h_band, np.array([1.0, 0, 0], complex), t_expect)
    pop = abs(prop.apply(t_expect)[2]) ** 2
    assert pop == pytest.approx(1.0, abs=1e-9)


def test_transfer_window_error(monkeypatch):
    # a scan too coarse to resolve the first maximum must be diagnosed
    monkeypatch.setattr(bandgap, "SCAN_POINTS", 4)
    with pytest.raises(TransferWindowError):
        run_transfer(BandgapParams(N=100, xi=100.0))
