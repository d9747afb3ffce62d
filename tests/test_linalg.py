"""Propagator, norm/overlap accounting, and dissipativity checks."""

import cmath
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from oracles import decay_generator_max_eig, rk4_evolve
from wgherald import basis, linalg
from wgherald.bandgap import BandgapParams, _products, build_H_bandgap, compensate
from wgherald.basis import HPMode
from wgherald.dissipative import DissipativeParams, optimal_time
from wgherald.linalg import (
    BOOLE_POINTS,
    EIGBASIS_MAX_CONDITION,
    DimensionError,
    NumericError,
    Propagator,
    boole_weights,
    exp_sums,
    golden_section_max,
    norm_sq,
    overlap,
)
from wgherald.protocol import _model, run_step, run_step_continuous_drive


def random_decaying_h(rng, dim):
    """Random H with strictly decay-only anti-Hermitian part."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (a + a.conj().T) / 2
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return herm - 0.5j * (b @ b.conj().T)


def random_hermitian_h(rng, dim):
    """Random H equal to its adjoint to the last bit."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.sqrt(norm_sq(v))


def test_norm_sq_basics():
    assert norm_sq(np.zeros(4)) == 0.0
    e = np.zeros(5, complex)
    e[2] = 1.0
    assert norm_sq(e) == 1.0
    assert norm_sq(np.array([0.6, 0.8j])) == pytest.approx(1.0, abs=1e-15)


def test_overlap_basics():
    u = np.array([1.0, 1j]) / np.sqrt(2)
    assert overlap(u, u) == pytest.approx(1.0, abs=1e-15)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert overlap(e0, e1) == 0.0
    v = np.array([1.0, -1j]) / np.sqrt(2)
    assert abs(overlap(u, v)) < 1e-15
    with pytest.raises(DimensionError):
        overlap(e0, np.ones(3))


def test_expm_identity_and_pure_decay():
    v = random_state(np.random.default_rng(0), 4)
    assert np.allclose(Propagator(np.zeros((4, 4)), v, 2.7).apply(2.7), v, atol=1e-14)
    gamma = 0.8
    h = -0.5j * gamma * np.eye(3)
    v3 = random_state(np.random.default_rng(1), 3)
    out = Propagator(-1j * h, v3, 1.3).apply(1.3)
    assert np.allclose(out, v3 * np.exp(-gamma * 1.3 / 2), atol=1e-13)


def test_expm_chain_norm_matches_rk4():
    # three-state chain, equal rates, no free-space decay
    n, gamma = 500, 1.0
    g = np.sqrt(2 * n) * gamma / 2
    h = np.array(
        [[-0.5j * gamma, g, 0], [g, -0.5j * gamma, g], [0, g, 0.0]], dtype=complex
    )
    t = np.sqrt(2) * np.pi / np.sqrt(2 * n)
    v0 = np.array([1.0, 0, 0], dtype=complex)
    exact = Propagator(-1j * h, v0, t).apply(t)
    ref = rk4_evolve(h, v0, t, 10**5)
    assert abs(abs(exact[2]) ** 2 - abs(ref[2]) ** 2) <= 1e-8


def test_expm_matches_rk4_random_8x8():
    rng = np.random.default_rng(42)
    for _ in range(3):
        h = random_decaying_h(rng, 8)
        h /= np.linalg.norm(h, 2)
        v0 = random_state(rng, 8)
        t = 1.5
        exact = Propagator(-1j * h, v0, t).apply(t)
        ref = rk4_evolve(h, v0, t, 5000)
        assert np.abs(exact - ref).max() < 1e-7


def test_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = random_decaying_h(rng, 6)
        v = random_state(rng, 6)
        t1, t2 = rng.uniform(0.05, 0.8, size=2)
        once = Propagator(-1j * h, v, t1 + t2).apply(t1 + t2)
        twice = Propagator(-1j * h, Propagator(-1j * h, v, t1).apply(t1), t2).apply(t2)
        assert np.abs(once - twice).max() < 1e-9


def test_norm_monotone_under_decay():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = random_decaying_h(rng, dim)
        assert decay_generator_max_eig(h) <= 1e-10
        prop = Propagator(-1j * h, random_state(rng, dim), 2.0)
        times = np.sort(rng.uniform(0.0, 2.0, size=10))
        norms = [norm_sq(prop.apply(t)) for t in times]
        assert norms[0] <= 1.0 + 1e-9
        for earlier, later in zip(norms, norms[1:]):
            assert later <= earlier + 1e-10


def test_decay_generator_sign():
    h = -0.5j * np.eye(2)
    assert decay_generator_max_eig(h) <= 1e-12
    h_gain = +0.5j * np.eye(2)
    assert not decay_generator_max_eig(h_gain) <= 1e-10


def test_integrated_expectation_matches_quadrature():
    # one call integrates several operators off one density; each integral
    # matches a trapezoid rule over apply, on a grid fine enough for the
    # non-diagonal operator
    rng = np.random.default_rng(11)
    h = random_decaying_h(rng, 5)
    diag = np.diag(rng.uniform(0.0, 2.0, size=5))
    v0 = random_state(rng, 5)
    b = rng.standard_normal((5, 5))
    ops = np.array([diag, b @ b.T, np.eye(5)])
    t = 0.9
    prop = Propagator(-1j * h, v0, t)
    exact = prop.integrated_expectation(ops, t)
    assert exact.shape == (3,)
    ts = np.linspace(0, t, 16001)
    psis = [prop.apply(s) for s in ts]
    for m, got in zip(ops, exact):
        vals = [np.vdot(psi, m @ psi).real for psi in psis]
        ref = scipy.integrate.trapezoid(vals, ts)
        assert got == pytest.approx(ref, rel=1e-7)


def test_integrated_expectation_takes_a_stack():
    # the operators come as a real (k, dim, dim) stack, checked with one shape
    # and one finiteness test; a list of matrices is not a stack, and a complex
    # stack is refused like any other malformed one
    rng = np.random.default_rng(12)
    h, v0, t = random_decaying_h(rng, 4), random_state(rng, 4), 0.7
    prop = Propagator(-1j * h, v0, t)
    b = rng.standard_normal((3, 4, 4))
    stack = b @ b.transpose(0, 2, 1)
    want = prop.integrated_expectation(stack, t)
    assert want.shape == (3,)
    for k in range(3):
        assert prop.integrated_expectation(stack[k:k + 1], t)[0] == want[k]
    assert prop.integrated_expectation(np.zeros((0, 4, 4)), t).shape == (0,)
    for bad in (list(stack), [], np.zeros((2, 3, 3)), np.zeros((0, 3, 3)), np.eye(4),
                np.zeros((1, 4, 4, 1)), stack.astype(complex), np.zeros((0, 4, 4), complex)):
        with pytest.raises(DimensionError):
            prop.integrated_expectation(bad, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(3):
            for value in (np.nan, np.inf, -np.inf):
                ops = stack.copy()
                ops[k, 1, 2] = value
                with pytest.raises(NumericError, match="operator"):
                    prop.integrated_expectation(ops, t)


def test_integrated_expectation_at_large_eigenvalues_matches_the_closed_form():
    # each pairwise factor is (e^{i mu t} - 1) / (i mu) at any |mu t|, and t at
    # mu = 0, however large the eigenvalues: here they are near 1e10, with
    # one pair at |mu t| ~ 10, one real eigenvalue and the rest far apart
    lam = np.array([1e10, 1e10 + 10 - 2j, -3e10 - 0.5j, 2e10 - 1j])
    rng = np.random.default_rng(15)
    v0 = random_state(rng, 4)
    b = rng.standard_normal((4, 4))
    m = b @ b.T
    t = 1.0
    ref = 0.0
    for a in range(4):
        for c in range(4):
            mu = lam[a].conjugate() - lam[c]
            factor = t if mu == 0 else (cmath.exp(1j * mu * t) - 1) / (1j * mu)
            ref += (v0[a].conjugate() * m[a, c] * v0[c] * factor).real
    got = Propagator(np.diag(-1j * lam), v0, t).integrated_expectation(m[None], t)[0]
    assert got == pytest.approx(ref, rel=1e-12)


def test_boole_weights_integrate_quintics_exactly():
    # the expm fallback's quadrature is composite Boole on a uniform grid,
    # weights 2h/45 [7, 32, 12, 32, 14, ..., 14, 32, 12, 32, 7]: exact for
    # every monomial up to degree 5, and not for degree 6
    assert np.array_equal(boole_weights(180.0, 9),
                          [7.0, 32.0, 12.0, 32.0, 14.0, 32.0, 12.0, 32.0, 7.0])
    t = 0.9
    for npts in (5, 9, 65, BOOLE_POINTS):
        times = np.linspace(0.0, t, npts)
        w = boole_weights(t, npts)
        for k in range(6):
            assert w @ times**k == pytest.approx(t ** (k + 1) / (k + 1), rel=1e-14)
    times = np.linspace(0.0, t, 5)
    assert abs(boole_weights(t, 5) @ times**6 - t**7 / 7) > 1e-6


def test_pade_fallback_on_defective_matrix():
    # a Jordan block has no usable eigenbasis; the scaling-and-squaring path
    # and its quadrature-based loss integral must take over
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    prop = Propagator(-1j * h, np.array([0.0, 1.0], dtype=complex), 0.9)
    assert prop.method == "expm"
    out = prop.apply(0.7)
    # e^{-iHt} = I - iHt for a nilpotent H
    assert np.allclose(out, np.array([-0.7j, 1.0]), atol=1e-12)
    ops = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)])
    got = prop.integrated_expectation(ops, 0.9)
    # |psi_0(t)|^2 = t^2 and |psi_1(t)|^2 = 1 integrated over [0, 0.9]
    for value, ref in zip(got, (0.9**3 / 3, 0.9, 0.9 + 0.9**3 / 3)):
        assert value == pytest.approx(ref, rel=1e-8)


def test_frobenius_condition_bounds_the_2_norm_condition():
    rng = np.random.default_rng(13)
    for _ in range(50):
        dim = int(rng.integers(2, 30))
        prop = Propagator(-1j * random_decaying_h(rng, dim), random_state(rng, dim), 1.0)
        assert prop.method == "eig"
        assert prop.condition >= np.linalg.cond(prop.eigvecs)
        assert dim <= prop.condition < EIGBASIS_MAX_CONDITION


def test_singular_or_overflowing_eigenvectors_fall_back_quietly():
    # eig's V for a 2x2 Jordan block is invertible, but ||V^-1||_F overflows;
    # for the 3x3 nilpotent block V is exactly singular and inv raises
    jordan2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    jordan3 = np.eye(3, k=1, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(jordan3)[1])
    for h in (jordan2, jordan3):
        v = np.zeros(h.shape[0], dtype=complex)
        v[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prop = Propagator(-1j * h, v, 0.7)
        assert prop.method == "expm"
        assert prop.condition == np.inf
        ref = scipy.linalg.expm(-1j * h * 0.7) @ v
        assert np.abs(prop.apply(0.7) - ref).max() < 1e-14


def test_eig_and_expm_paths_agree():
    rng = np.random.default_rng(8)
    for make_h in (random_decaying_h, random_hermitian_h):
        h = make_h(rng, 5)
        v = random_state(rng, 5)
        prop = Propagator(-1j * h, v, 0.8)
        assert prop.method == "eig"
        ref = scipy.linalg.expm(-1j * h * 0.8) @ v
        assert np.abs(prop.apply(0.8) - ref).max() < 1e-10


def test_population_matches_apply_on_every_path():
    rng = np.random.default_rng(5)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    times = np.linspace(0.0, 3.0, 600)
    for h, index, method in ((random_decaying_h(rng, 6), [1, 4], "eig"),
                             (random_hermitian_h(rng, 6), [0], "eig"),
                             (jordan, [0], "expm"), (random_decaying_h(rng, 6), 3, "eig"),
                             (jordan, 1, "expm")):
        prop = Propagator(-1j * h, random_state(rng, h.shape[0]), 3.0)
        assert prop.method == method
        got = prop.population(3.0, 600, index)
        ref = np.array([norm_sq(prop.apply(t)[index]) for t in times])
        assert got.shape == times.shape
        assert np.abs(got - ref).max() < 1e-12


def test_dimension_and_finiteness_errors():
    # the operator and the state are checked once, when the propagator is built
    for h, v in ((np.zeros((3, 3)), np.zeros(4)), (np.zeros((3, 2)), np.zeros(3)),
                 (np.zeros((3, 3)), np.zeros((3, 1)))):
        with pytest.raises(DimensionError):
            Propagator(h, v, 1.0)
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        Propagator(bad, np.zeros(2), 1.0)
    with pytest.raises(NumericError):
        Propagator(np.zeros((3, 3)), [0.0, np.inf, 0.0], 1.0)
    with pytest.raises(NumericError):
        Propagator(np.zeros((2, 2)), np.zeros(2), 1.0).apply(np.inf)
    prop = Propagator(np.zeros((3, 3)), np.zeros(3), 1.0)
    for n in (1, 0):
        with pytest.raises(DimensionError):
            prop.population(1.0, n, [0])
    with pytest.raises(NumericError):
        prop.population(np.nan, 2, [0])
    # a non-finite time is a numeric failure in every method
    for t in (np.nan, np.inf):
        with pytest.raises(NumericError):
            prop.integrated_expectation(np.eye(3)[None], t)
    # gain e^{1000 t} overflows on the eigenbasis path and on the fallback
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for h in (1000j * np.eye(2), 1000j * np.eye(2) + jordan):
        with pytest.raises(NumericError):
            Propagator(-1j * h, np.ones(2), 1.0).population(1.0, 2, [0])
    # apply and the loss integrals raise without a numpy warning where a gain
    # overflows, and the integrals where a gap mu t does with every lambda t finite
    gain = Propagator(-1j * (1000j * np.eye(2)), np.ones(2), 1.0)
    with pytest.raises(NumericError):
        gain.apply(1.0)
    for prop, t in ((gain, 1.0),
                    (Propagator(-1j * np.diag([1e300 - 1j, -1e300 - 1j]), np.ones(2), 1e8), 1e8)):
        with pytest.raises(NumericError):
            prop.integrated_expectation(np.eye(2)[None], t)


def _chain(n=500, gamma=1.0, gamma_star=0.1):
    # the 3-state chain e -> target excited -> detector excited, whose
    # stage-parity frame is [1j, 1, 1j]
    g = np.sqrt(2 * n) * gamma / 2
    return np.array([[-0.5j * (gamma + gamma_star), g, 0],
                     [g, -0.5j * (gamma + gamma_star), g],
                     [0, g, -0.5j * gamma_star]], dtype=complex)


def _in_frame(h, frame):
    # the generator T^-1 (-iH) T of u = T^-1 psi, for the diagonal frame T
    return (-1j * h) * (frame[None, :] / frame[:, None])


def _eig_inputs(monkeypatch):
    # record whether each eig that linalg runs gets a complex array
    seen, eig = [], np.linalg.eig
    monkeypatch.setattr(linalg.np.linalg, "eig",
                        lambda a: seen.append(np.iscomplexobj(a)) or eig(a))
    return seen


def test_real_frame_path_matches_the_complex_eig(monkeypatch):
    # the chain's generator is exactly real in the coordinates u = T^-1 psi
    # of its stage-parity frame: a Propagator of that real generator from
    # T^-1 v0 runs the real eig, and T u(t) is the state of the complex
    # reference; populations and loss integrals of stage-diagonal operators,
    # the peak time of herald weights carrying T, and the condition number
    # are the reference's
    h = _chain()
    frame = np.array([1j, 1.0, 1j])
    g = _in_frame(h, frame)
    assert not g.imag.any()
    v0 = random_state(np.random.default_rng(4), 3)
    t = np.sqrt(2) * np.pi / np.sqrt(1000)
    seen = _eig_inputs(monkeypatch)
    prop = Propagator(g.real, v0 / frame, 2 * t)
    assert seen == [False] and prop.method == "eig"
    ref = Propagator(-1j * h, v0, 2 * t)
    assert seen == [False, True]
    ops = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.eye(3)])
    assert np.abs(frame * prop.apply(t) - ref.apply(t)).max() <= 1e-12
    want = ref.population(2 * t, 300, [2])
    assert np.abs(prop.population(2 * t, 300, [2]) - want).max() <= 1e-12
    assert np.abs(prop.integrated_expectation(ops, t)
                  - ref.integrated_expectation(ops, t)).max() <= 1e-12
    weights = np.array([0.6, 0.8])
    want = ref.peak_time(0.5 * t, 1.5 * t, 1e-12 * t, [1, 2], weights)
    got = prop.peak_time(0.5 * t, 1.5 * t, 1e-12 * t, [1, 2], weights * frame[[1, 2]])
    assert abs(got - want) <= 1e-12 * t
    assert abs(prop.condition - ref.condition) <= 1e-12 * ref.condition
    expm = scipy.linalg.expm(-1j * h * t) @ v0
    assert np.abs(frame * prop.apply(t) - expm).max() <= 1e-12


def test_complex_generator_in_a_frame_matches_expm(monkeypatch):
    # a real detuning on one diagonal entry, or a random complex H, leaves
    # T^-1 (-iH) T complex: the same eig runs on that complex generator, and
    # T u(t) from u0 = T^-1 v0 matches expm of -iH
    rng = np.random.default_rng(9)
    detuned = _chain()
    detuned[1, 1] += 0.3
    seen = _eig_inputs(monkeypatch)
    for h, frame in ((detuned, np.array([1j, 1.0, 1j])),
                     (random_decaying_h(rng, 6), np.array([1, 1j, 1, 1j, -1, -1j]))):
        v0 = random_state(rng, h.shape[0])
        prop = Propagator(_in_frame(h, frame), v0 / frame, 0.8)
        assert seen.pop() and prop.method == "eig"
        ref = scipy.linalg.expm(-1j * h * 0.8) @ v0
        assert np.abs(frame * prop.apply(0.8) - ref).max() <= 1e-12


def test_expm_fallback_still_triggers_with_a_frame(monkeypatch):
    # with the eigenbasis refused, the fallback's expm of the real generator
    # evolves u = T^-1 psi, and T u(t) matches expm of -iH
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    h = _chain()
    frame = np.array([1j, 1.0, 1j])
    v0 = random_state(np.random.default_rng(6), 3)
    t = np.sqrt(2) * np.pi / np.sqrt(1000)
    prop = Propagator(_in_frame(h, frame).real, v0 / frame, t)
    assert prop.method == "expm"
    ref = scipy.linalg.expm(-1j * h * t) @ v0
    assert np.abs(frame * prop.apply(t) - ref).max() <= 1e-14


def test_golden_section_max():
    x = golden_section_max(lambda t: -((t - 1.3) ** 2), 0.0, 3.0, 1e-9)
    assert x == pytest.approx(1.3, abs=1e-7)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_golden_section_max_refuses_a_tolerance_that_is_not_positive(tol):
    # a tolerance of 0 or below never ends the search, and nan ended it at
    # once with the bracket's midpoint: each is refused before f is evaluated
    calls = []
    with pytest.raises(ValueError, match="tol"):
        golden_section_max(lambda x: calls.append(x) or -((x - 0.3) ** 2), 0.0, 1.0, tol)
    assert calls == []


def _random_generator(rng, dim, dtype=float):
    # a random generator whose log-norm, the largest eigenvalue of
    # (G + G^dag)/2, is positive, with a spectral radius near 1
    g = rng.standard_normal((dim, dim))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((dim, dim))
    return g / np.sqrt(2 * dim) - 0.3 * np.eye(dim)


@pytest.mark.parametrize("dtype", [float, complex])
def test_reduced_propagator_with_a_positive_log_norm_matches_expm(full_propagator, dtype):
    # the bound's factor e^{w t}, w from Gershgorin's circles, covers a
    # generator that is not dissipative: for a real g with a state real up to
    # one global phase the reduction closes well below the dimension, and a
    # complex g keeps the full decomposition; every query up to the horizon
    # matches expm
    rng = np.random.default_rng(31)
    dim, horizon = linalg.KRYLOV_MIN_DIM + 19, 0.5
    g = _random_generator(rng, dim, dtype)
    assert np.linalg.eigvalsh((g + g.conj().T) / 2).max() > 0.5
    v0 = rng.standard_normal(dim) * (0.6 - 0.8j) if dtype is float else random_state(rng, dim)
    prop = Propagator(g, v0, horizon=horizon)
    assert prop.method == "eig" and prop.dim == dim
    assert (prop.eigvecs.shape[1] < dim // 2) == (dtype is float)
    b = rng.standard_normal((2, dim, dim))
    ops = b @ b.transpose(0, 2, 1)
    for t in (horizon, horizon / 3):
        ref = scipy.linalg.expm(g * t) @ v0
        assert np.abs(prop.apply(t) - ref).max() <= 1e-12 * np.abs(ref).max()
    dense = full_propagator(g, v0, horizon)
    assert dense.eigvecs.shape == (dim, dim)
    want = dense.population(horizon, 50, [0, 5])
    assert np.abs(prop.population(horizon, 50, [0, 5]) - want).max() <= 1e-12 * want.max()
    want = dense.integrated_expectation(ops, horizon)
    assert np.abs(prop.integrated_expectation(ops, horizon) - want).max() <= 1e-12 * want.max()


def test_reduction_stops_exactly_at_an_invariant_subspace():
    # e_0 is an eigenvector of an upper-triangular generator: the first
    # Arnoldi step leaves nothing (h = 0), and the one-dimensional space
    # propagates it exactly
    rng = np.random.default_rng(32)
    dim = linalg.KRYLOV_MIN_DIM + 3
    g = np.triu(rng.standard_normal((dim, dim)), 1) - np.diag(rng.uniform(0.5, 2.0, dim))
    v0 = np.zeros(dim, dtype=complex)
    v0[0] = -1j
    prop = Propagator(g, v0, horizon=2.0)
    assert prop.method == "eig" and prop.eigvecs.shape == (dim, 1)
    for t in (0.0, 0.7, 2.0):
        want = v0 * np.exp(g[0, 0] * t)
        assert np.abs(prop.apply(t) - want).max() <= 1e-16
    want = (1 - np.exp(2 * g[0, 0] * 2.0)) / (-2 * g[0, 0])
    assert prop.integrated_expectation(np.eye(dim)[None], 2.0)[0] == pytest.approx(want, rel=1e-14)
    # a leading upper-Hessenberg 3 x 3 block with nothing below it: the third
    # step leaves exactly nothing, and the three-dimensional space propagates
    # e_0 as that block's exponential does
    g[1, 0], g[2, 1] = rng.uniform(0.5, 2.0, 2)
    prop = Propagator(g, v0, horizon=2.0)
    assert prop.method == "eig" and prop.eigvecs.shape == (dim, 3)
    for t in (0.7, 2.0):
        want = scipy.linalg.expm(g[:3, :3] * t) @ v0[:3]
        assert np.abs(prop.apply(t) - np.pad(want, (0, dim - 3))).max() <= 1e-14


def test_reduction_falls_back_to_the_full_decomposition():
    # below the crossover, from a state complex past one global phase, and
    # where the Krylov space does not close by half the dimension (a horizon
    # of many periods; at dimension 63 the basis grows to exactly kmax + 1 =
    # 32 rows), the propagator decomposes g itself.  The last generator grows
    # so fast that e^{w t} times its bound passes the float range, quietly
    rng = np.random.default_rng(33)
    big, small = linalg.KRYLOV_MIN_DIM + 9, linalg.KRYLOV_MIN_DIM - 1
    complex_past_one_phase = np.exp(1j * np.arange(big))
    for g, horizon, phases in ((_random_generator(rng, small), 1.0, 1.0),
                               (_random_generator(rng, big), 1.0, complex_past_one_phase),
                               (_random_generator(rng, big), 200.0, 1.0),
                               (_random_generator(np.random.default_rng(63), 63), 5.0, 1.0),
                               (_random_generator(np.random.default_rng(2), big), 200.0, 1.0)):
        dim = g.shape[0]
        prop = Propagator(g, rng.standard_normal(dim) * phases, horizon=horizon)
        assert prop.method == "eig" and prop.eigvecs.shape == (dim, dim)


@pytest.mark.parametrize("horizon", [0.5, 2.0, 10.0, 1e4])
def test_reduction_on_a_contractive_generator_at_long_horizons(full_propagator, horizon):
    # an antisymmetric part and a negative diagonal: Gershgorin's w is 0, so
    # the bound's factor is 1 however long the horizon.  The bound's grid
    # resolves H_k's rates, so at every horizon the states and integrals agree
    # with the full decomposition: reduced up to horizon 2, in full from 10
    # on (the space does not close by half the dimension, and at 1e4 the grid
    # would pass 1,024 intervals).  At 1e4 the integrand lives in the first
    # 1/64 of the horizon: a grid that does not resolve it passes at k = 24,
    # with states 6e-2 off
    rng = np.random.default_rng(35)
    dim = 60
    a = rng.standard_normal((dim, dim))
    g = (a - a.T) / np.sqrt(dim) - np.diag(rng.uniform(0.05, 0.5, dim))
    v0 = rng.standard_normal(dim)
    prop = Propagator(g, v0, horizon=horizon)
    full = full_propagator(g, v0, horizon)
    assert prop.method == "eig"
    assert (prop.eigvecs.shape[1] < dim) == (horizon <= 2.0)
    for t in (horizon / 1000, horizon / 10, horizon):
        assert np.abs(prop.apply(t) - full.apply(t)).max() <= 1e-12 * np.linalg.norm(v0)
    b = rng.standard_normal((2, dim, dim))
    ops = b @ b.transpose(0, 2, 1)
    for t in (horizon / 1000, horizon):
        want = full.integrated_expectation(ops, t)
        assert np.abs(prop.integrated_expectation(ops, t) - want).max() <= 1e-12 * want.max()


def test_queries_outside_the_horizon_are_refused():
    rng = np.random.default_rng(34)
    for dim in (linalg.KRYLOV_MIN_DIM - 1, linalg.KRYLOV_MIN_DIM + 9):
        prop = Propagator(_random_generator(rng, dim), rng.standard_normal(dim), horizon=1.5)
        prop.apply(1.5)
        prop.population(1.5, 2, [0])
        prop.integrated_expectation(np.eye(dim)[None], 1.5)
        for t in (1.5 + 1e-12, -0.1):
            with pytest.raises(ValueError, match="horizon"):
                prop.apply(t)
            with pytest.raises(ValueError, match="horizon"):
                prop.population(t, 2, [0])
            with pytest.raises(ValueError, match="horizon"):
                prop.integrated_expectation(np.eye(dim)[None], t)
    for horizon in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            Propagator(np.zeros((2, 2)), np.ones(2), horizon=horizon)


def test_times_and_grid_counts_must_be_numbers():
    # a bool time ran at t = 1 and a string failed in math.isfinite; a
    # fractional grid count failed inside exp_sums with a bare TypeError
    prop = Propagator(-np.eye(2), np.ones(2), horizon=1.5)
    for t in (True, np.True_, "1", 1 + 0j):
        with pytest.raises(ValueError, match="must be real numbers"):
            prop.apply(t)
        with pytest.raises(ValueError, match="must be real numbers"):
            prop.population(t, 3, [0])
    for n in (2.5, 3.0, True, "3"):
        with pytest.raises(DimensionError, match="grid of at least 2 times"):
            prop.population(1.0, n, [0])
    assert prop.population(np.float64(1.0), np.int64(3), [0]).shape == (3,)


# each positive quantity's message name, and a call that passes it a value
POSITIVE_QUANTITIES = {
    "run_step T": ("evolution time T",
                   lambda v: run_step(DissipativeParams.from_purcell(100, 1, 10.0), T=v)),
    "continuous-drive omega": ("drive strength omega",
                               lambda v: run_step_continuous_drive(100, 1, 10.0, omega=v)),
    "Propagator horizon": ("horizon", lambda v: Propagator(-np.eye(2), np.ones(2), v)),
    "peak_time tol": ("search tolerance tol", lambda v: Propagator(-np.eye(2), np.ones(2), 1.0)
                      .peak_time(0.0, 1.0, v, [0], np.ones(1))),
    "golden_section_max tol": ("search tolerance tol",
                               lambda v: golden_section_max(lambda x: -x * x, -1.0, 1.0, v)),
    "BandgapParams xi": ("xi", lambda v: BandgapParams(10, v)),
}


@pytest.mark.parametrize("value", [True, np.True_, "1", 1 + 0j, 0, -1, np.inf, np.nan])
@pytest.mark.parametrize("quantity", list(POSITIVE_QUANTITIES))
def test_positive_quantities_take_only_a_positive_finite_real(quantity, value):
    # one rule, linalg.check_positive: a plain ValueError naming the
    # quantity, raised before any basis is looked up or built
    name, call = POSITIVE_QUANTITIES[quantity]
    before = basis._build_basis.cache_info()
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, not ") as err:
        call(value)
    assert err.type is ValueError
    assert basis._build_basis.cache_info() == before


def _arnoldi_case(name):
    # (the operator as a matrix, its product, a unit start vector, kmax)
    if name == "random":
        a = np.random.default_rng(36).standard_normal((60, 60))
        start = np.random.default_rng(37).standard_normal(60)
        return a, lambda x: a @ x, start / np.linalg.norm(start), 59
    p = BandgapParams(N=300, xi=600.0)
    return compensate(build_H_bandgap(p), p), _products(p)[1], np.eye(301)[0], 40


@pytest.mark.parametrize("name", ["random", "bandgap"])
def test_arnoldi_relation_and_orthonormal_basis_at_every_step(name):
    # a real non-symmetric g and the transfer's matrix-free Hamiltonian: at
    # every step A Q_k = Q_k H_k + b q_k e_k^T and Q_k^T Q_k = I, and the
    # basis grows by doubling, never past max(16, 2k) rows or kmax + 1
    a, matvec, start, kmax = _arnoldi_case(name)
    scale = np.linalg.norm(a, 2)
    steps = 0
    for j, b, q, h in linalg.arnoldi(matvec, start, kmax):
        k = j + 1
        if j:  # step j - 1's residual b q_j is now the row q_j and h[j, j - 1]
            rel = a @ q[:j].T - q[:j].T @ h[:j, :j]
            rel[:, -1] -= h[j, j - 1] * q[j]
            assert np.linalg.norm(rel) <= 1e-13 * scale
        rel = a @ q[:k].T - q[:k].T @ h[:k, :k]
        assert np.linalg.norm(rel[:, :-1]) <= 1e-13 * scale
        assert abs(np.linalg.norm(rel[:, -1]) - b) <= 1e-13 * scale
        assert np.linalg.norm(q[:k] @ q[:k].T - np.eye(k)) <= 1e-14
        assert len(q) <= min(max(16, 2 * k), kmax + 1) and h.shape == (len(q), len(q))
        steps += 1
    assert steps == kmax


def test_arnoldi_ends_at_an_invariant_subspace():
    # a leading upper-Hessenberg 3 x 3 block with nothing below it: from e_0
    # the third step leaves exactly nothing (b = 0), and the iteration ends
    # there without dividing by it (numpy warnings are errors in this suite)
    g = np.random.default_rng(38).standard_normal((20, 20))
    g[3:, :3] = 0.0
    g[2, 0] = 0.0
    steps = [(j, b) for j, b, _, _ in linalg.arnoldi(lambda x: g @ x, np.eye(20)[0], 19)]
    assert [j for j, _ in steps] == [0, 1, 2]
    assert steps[-1][1] == 0.0 and min(b for _, b in steps[:-1]) > 0.0


def test_exp_sums_on_stacked_weights_equals_its_rows():
    # the transfer's stopping step sums the bound's weights and the source
    # weights on one table; each row is bit for bit the sum of that row alone
    rng = np.random.default_rng(8)
    for k, n in ((1, 3), (7, 2048), (40, 2048), (13, 100)):
        theta = rng.normal(size=k)
        c = rng.normal(size=(2, k))
        stacked = exp_sums(-1j * theta, c, 0.37, n)
        assert stacked.shape == (2, n)
        for row, weights in zip(stacked, c):
            assert np.array_equal(row, exp_sums(-1j * theta, weights, 0.37, n))


@pytest.mark.parametrize("n", [1, 2, 65, 513, 1025, 2048])
def test_exp_sums_match_the_direct_sum(n):
    # complex exponents with Re lam <= 0 (the step propagator's bound) and
    # real ones, against exp of the full outer product, within 1e-12 of the
    # largest |sum|; the grid spans 4 units of time whatever n
    rng = np.random.default_rng(n)
    dt = 4.0 / n
    for lam, c in ((-rng.uniform(0.0, 2.0, 20) + 1j * rng.normal(0.0, 10.0, 20),
                    rng.normal(size=20) + 1j * rng.normal(size=20)),
                   (rng.uniform(-4.0, 0.5, 9), rng.normal(size=9))):
        want = np.exp(np.outer(np.arange(n) * dt, lam)) @ c
        got = exp_sums(lam, c, dt, n)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _exact_sector(n, m):
    # the no-jump sector of exact step m at P_1d 10 from its default input,
    # with the analytic step time
    p = DissipativeParams.from_purcell(n, m, 10.0)
    return _model(p, HPMode.EXACT), optimal_time(p)


@pytest.mark.parametrize("path, m", [("full", 6), ("reduced", 30), ("expm", 6)])
def test_peak_time_slope_matches_a_central_difference(monkeypatch, path, m):
    # f'(t) and f''(t) of the search, in closed form from the eigenbasis (of
    # the whole sector below dimension 41, of its Krylov space above) and
    # from g psi and g (g psi) on the expm fallback, against central
    # differences of the weighted herald population read off apply and of
    # the closed-form f'; the search's time agrees with golden section's
    # within golden's tolerance
    if path == "expm":
        monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    model, T = _exact_sector(300, m)
    prop = Propagator(model.g, model.psi0, 1.2 * T)
    assert prop.method == ("expm" if path == "expm" else "eig")
    assert (prop.dim < linalg.KRYLOV_MIN_DIM) == (path != "reduced")
    if path != "expm":
        assert (prop.eigvecs.shape[1] < prop.dim) == (path == "reduced")
    f = lambda t: norm_sq(model.weights * prop.apply(t)[model.idx])  # noqa: E731
    evaluate, h = prop._slope(model.idx, model.weights), 1e-5 * T
    for t in (0.85 * T, 0.9 * T, 1.1 * T):
        value, slope, curvature = evaluate(t)
        assert value == pytest.approx(f(t), rel=1e-12)
        assert slope == pytest.approx((f(t + h) - f(t - h)) / (2 * h), rel=1e-6)
        assert curvature == pytest.approx((evaluate(t + h)[1] - evaluate(t - h)[1]) / (2 * h),
                                          rel=1e-6)
    peak = prop.peak_time(0.8 * T, 1.2 * T, 1e-6 * T, model.idx, model.weights)
    assert abs(peak - golden_section_max(f, 0.8 * T, 1.2 * T, 1e-6 * T)) <= 1e-6 * T


def test_peak_time_returns_the_higher_end_without_a_sign_change():
    # a decaying or a growing population has no interior maximum: the search
    # returns the end where the population is larger
    for rate, want in ((-1.0, 0.2), (0.5, 1.0)):
        prop = Propagator(np.array([[rate]]), np.ones(1), 1.0)
        assert prop.peak_time(0.2, 1.0, 1e-9, [0], np.ones(1)) == want


def test_peak_time_refuses_bad_brackets_and_non_finite_slopes(monkeypatch):
    model, T = _exact_sector(300, 6)
    prop = Propagator(model.g, model.psi0, 1.2 * T)
    for lo, hi in ((0.8 * T, 1.2 * T * (1 + 1e-12)), (-0.1 * T, T), (T, 0.9 * T)):
        with pytest.raises(ValueError, match="horizon"):
            prop.peak_time(lo, hi, 1e-6 * T, model.idx, model.weights)
    with pytest.raises(NumericError):
        prop.peak_time(0.8 * T, np.nan, 1e-6 * T, model.idx, model.weights)
    with pytest.raises(ValueError, match="horizon"):
        Propagator(np.eye(2), np.ones(2), 1.0).peak_time(1.0, 0.5, 1e-6, [0], np.ones(1))
    # a gain e^{1000 t} overflows the population at t = 1; rates of -1e308
    # leave every amplitude finite but overflow the slope at t = 0, on the
    # eigenbasis path and on the expm fallback: NumericError, and no numpy
    # warning first
    props = [Propagator(g, np.ones(2), 1.0)
             for g in (1000.0 * np.eye(2), np.diag([-1e308, -1e308]))]
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    props.append(Propagator(np.diag([-1e308, -1e308]), np.ones(2), 1.0))
    assert [prop.method for prop in props] == ["eig", "eig", "expm"]
    for prop in props:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="slope"):
                prop.peak_time(0.0, 1.0, 1e-9, [0, 1], np.ones(2))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_peak_time_refuses_a_tolerance_that_is_not_positive(monkeypatch, tol):
    # on the m = 3 exact step, a tolerance of 0 or below never ended the
    # search, and nan raised NumericError from a non-finite slope: each is a
    # ValueError naming tol, raised before any evaluation, on the eigenbasis
    # path and on the expm fallback
    model, T = _exact_sector(150, 3)
    props = [Propagator(model.g, model.psi0, 1.2 * T)]
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    props.append(Propagator(model.g, model.psi0, 1.2 * T))
    assert [prop.method for prop in props] == ["eig", "expm"]
    for prop in props:
        prop._slope = lambda index, weights: pytest.fail("the search evaluated its slope")
        with pytest.raises(ValueError, match="tol"):
            prop.peak_time(0.8 * T, 1.2 * T, tol, model.idx, model.weights)
