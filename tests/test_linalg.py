"""Propagator, norm/overlap accounting, and dissipativity checks."""

import cmath
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from oracles import decay_generator_max_eig, rk4_evolve
from wgherald import linalg
from wgherald.linalg import (
    EIGBASIS_MAX_CONDITION,
    SIMPSON_POINTS,
    DimensionError,
    NumericError,
    Propagator,
    golden_section_max,
    norm_sq,
    overlap,
    simpson_weights,
)


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
    assert np.allclose(Propagator(np.zeros((4, 4)), v).apply(2.7), v, atol=1e-14)
    gamma = 0.8
    h = -0.5j * gamma * np.eye(3)
    v3 = random_state(np.random.default_rng(1), 3)
    out = Propagator(h, v3).apply(1.3)
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
    exact = Propagator(h, v0).apply(t)
    ref = rk4_evolve(h, v0, t, 10**5)
    assert abs(abs(exact[2]) ** 2 - abs(ref[2]) ** 2) <= 1e-8


def test_expm_matches_rk4_random_8x8():
    rng = np.random.default_rng(42)
    for _ in range(3):
        h = random_decaying_h(rng, 8)
        h /= np.linalg.norm(h, 2)
        v0 = random_state(rng, 8)
        t = 1.5
        exact = Propagator(h, v0).apply(t)
        ref = rk4_evolve(h, v0, t, 5000)
        assert np.abs(exact - ref).max() < 1e-7


def test_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = random_decaying_h(rng, 6)
        v = random_state(rng, 6)
        t1, t2 = rng.uniform(0.05, 0.8, size=2)
        once = Propagator(h, v).apply(t1 + t2)
        twice = Propagator(h, Propagator(h, v).apply(t1)).apply(t2)
        assert np.abs(once - twice).max() < 1e-9


def test_norm_monotone_under_decay():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = random_decaying_h(rng, dim)
        assert decay_generator_max_eig(h) <= 1e-10
        prop = Propagator(h, random_state(rng, dim))
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
    diag = np.diag(rng.uniform(0.0, 2.0, size=5)).astype(complex)
    v0 = random_state(rng, 5)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    ops = np.array([diag, b @ b.conj().T, np.eye(5, dtype=complex)])
    t = 0.9
    prop = Propagator(h, v0)
    exact = prop.integrated_expectation(ops, t)
    assert exact.shape == (3,)
    ts = np.linspace(0, t, 16001)
    psis = [prop.apply(s) for s in ts]
    for m, got in zip(ops, exact):
        vals = [np.vdot(psi, m @ psi).real for psi in psis]
        ref = scipy.integrate.trapezoid(vals, ts)
        assert got == pytest.approx(ref, rel=1e-7)


def test_integrated_expectation_takes_a_stack():
    # the operators come as a (k, dim, dim) stack, real or complex, and give
    # the same values; the stack is checked with one shape and one finiteness
    # test, and a list of matrices is not a stack
    rng = np.random.default_rng(12)
    h, v0, t = random_decaying_h(rng, 4), random_state(rng, 4), 0.7
    prop = Propagator(h, v0)
    b = rng.standard_normal((3, 4, 4))
    stack = b @ b.transpose(0, 2, 1)
    want = prop.integrated_expectation(stack, t)
    assert want.shape == (3,)
    assert np.array_equal(prop.integrated_expectation(stack.astype(complex), t), want)
    for k in range(3):
        assert prop.integrated_expectation(stack[k:k + 1], t)[0] == want[k]
    assert prop.integrated_expectation(np.zeros((0, 4, 4)), t).shape == (0,)
    for bad in (list(stack), [], np.zeros((2, 3, 3)), np.zeros((0, 3, 3)), np.eye(4),
                np.zeros((1, 4, 4, 1))):
        with pytest.raises(DimensionError):
            prop.integrated_expectation(bad, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(3):
            for value in (np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)):
                ops = stack.astype(complex)
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
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = b @ b.conj().T
    t = 1.0
    ref = 0.0
    for a in range(4):
        for c in range(4):
            mu = lam[a].conjugate() - lam[c]
            factor = t if mu == 0 else (cmath.exp(1j * mu * t) - 1) / (1j * mu)
            ref += (v0[a].conjugate() * m[a, c] * v0[c] * factor).real
    got = Propagator(np.diag(lam), v0).integrated_expectation(m[None], t)[0]
    assert got == pytest.approx(ref, rel=1e-12)


def test_simpson_weights_match_scipy():
    # the expm fallback's quadrature is scipy's composite Simpson rule on a
    # uniform grid, written as weights h/3 [1, 4, 2, ..., 2, 4, 1]
    assert np.array_equal(simpson_weights(3.0, 5), [0.25, 1.0, 0.5, 1.0, 0.25])
    t = 0.9
    for npts in (3, 5, 9, 65):
        times = np.linspace(0.0, t, npts)
        ref = scipy.integrate.simpson(np.eye(npts), x=times)
        assert np.abs(simpson_weights(t, npts) - ref).max() <= 1e-15
    times = np.linspace(0.0, t, SIMPSON_POINTS)
    vals = np.random.default_rng(3).standard_normal(SIMPSON_POINTS)
    ref = scipy.integrate.simpson(vals, x=times)
    assert simpson_weights(t, SIMPSON_POINTS) @ vals == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_pade_fallback_on_defective_matrix():
    # a Jordan block has no usable eigenbasis; the scaling-and-squaring path
    # and its quadrature-based loss integral must take over
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    prop = Propagator(h, np.array([0.0, 1.0], dtype=complex))
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
        prop = Propagator(random_decaying_h(rng, dim), random_state(rng, dim))
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
            prop = Propagator(h, v)
        assert prop.method == "expm"
        assert prop.condition == np.inf
        ref = scipy.linalg.expm(-1j * h * 0.7) @ v
        assert np.abs(prop.apply(0.7) - ref).max() < 1e-14


def test_eig_and_expm_paths_agree():
    rng = np.random.default_rng(8)
    for make_h in (random_decaying_h, random_hermitian_h):
        h = make_h(rng, 5)
        v = random_state(rng, 5)
        prop = Propagator(h, v)
        assert prop.method == "eig"
        ref = scipy.linalg.expm(-1j * h * 0.8) @ v
        assert np.abs(prop.apply(0.8) - ref).max() < 1e-10


def test_population_matches_apply_on_every_path():
    rng = np.random.default_rng(5)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    times = np.linspace(0.0, 3.0, 600)  # more than one block of times
    for h, index, method in ((random_decaying_h(rng, 6), [1, 4], "eig"),
                             (random_hermitian_h(rng, 6), [0], "eig"),
                             (jordan, [0], "expm")):
        prop = Propagator(h, random_state(rng, h.shape[0]))
        assert prop.method == method
        got = prop.population(times, index)
        ref = np.array([norm_sq(prop.apply(t)[index]) for t in times])
        assert got.shape == times.shape
        assert np.abs(got - ref).max() < 1e-12


def test_dimension_and_finiteness_errors():
    # the operator and the state are checked once, when the propagator is built
    for h, v in ((np.zeros((3, 3)), np.zeros(4)), (np.zeros((3, 2)), np.zeros(3)),
                 (np.zeros((3, 3)), np.zeros((3, 1)))):
        with pytest.raises(DimensionError):
            Propagator(h, v)
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        Propagator(bad, np.zeros(2))
    with pytest.raises(NumericError):
        Propagator(np.zeros((3, 3)), [0.0, np.inf, 0.0])
    with pytest.raises(NumericError):
        Propagator(np.zeros((2, 2)), np.zeros(2)).apply(np.inf)
    prop = Propagator(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(DimensionError):
        prop.population([[0.0, 1.0]], [0])
    with pytest.raises(NumericError):
        prop.population([0.0, np.nan], [0])
    # gain e^{1000 t} overflows on the eigenbasis path and on the fallback
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for h in (1000j * np.eye(2), 1000j * np.eye(2) + jordan):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            Propagator(h, np.ones(2)).population([0.0, 1.0], [0])
    # apply and the loss integrals raise without a numpy warning where a gain
    # overflows, and the integrals where a gap mu t does with every lambda t finite
    gain = Propagator(1000j * np.eye(2), np.ones(2))
    with pytest.raises(NumericError):
        gain.apply(1.0)
    for prop, t in ((gain, 1.0),
                    (Propagator(np.diag([1e300 - 1j, -1e300 - 1j]), np.ones(2)), 1e8)):
        with pytest.raises(NumericError):
            prop.integrated_expectation(np.eye(2)[None], t)


def _chain(n=500, gamma=1.0, gamma_star=0.1):
    # the 3-state chain e -> target excited -> detector excited, whose
    # stage-parity frame is [1j, 1, 1j]
    g = np.sqrt(2 * n) * gamma / 2
    return np.array([[-0.5j * (gamma + gamma_star), g, 0],
                     [g, -0.5j * (gamma + gamma_star), g],
                     [0, g, -0.5j * gamma_star]], dtype=complex)


def _eig_inputs(monkeypatch):
    # record whether each eig that linalg runs gets a complex array
    seen, eig = [], np.linalg.eig
    monkeypatch.setattr(linalg.np.linalg, "eig",
                        lambda a: seen.append(np.iscomplexobj(a)) or eig(a))
    return seen


def test_real_frame_path_matches_the_complex_eig(monkeypatch):
    h = _chain()
    frame = np.array([1j, 1.0, 1j])
    v0 = random_state(np.random.default_rng(4), 3)
    seen = _eig_inputs(monkeypatch)
    prop = Propagator(h, v0, frame)
    assert seen == [False] and prop.method == "eig"
    ref = Propagator(h, v0)
    assert seen == [False, True]
    t = np.sqrt(2) * np.pi / np.sqrt(1000)
    ops = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]), np.eye(3)])
    assert np.abs(prop.apply(t) - ref.apply(t)).max() <= 1e-12
    times = np.linspace(0.0, 2 * t, 300)
    assert np.abs(prop.population(times, [2]) - ref.population(times, [2])).max() <= 1e-12
    assert np.abs(prop.integrated_expectation(ops, t)
                  - ref.integrated_expectation(ops, t)).max() <= 1e-12
    assert abs(prop.condition - ref.condition) <= 1e-12 * ref.condition
    expm = scipy.linalg.expm(-1j * h * t) @ v0
    assert np.abs(prop.apply(t) - expm).max() <= 1e-12
    with pytest.raises(DimensionError):
        Propagator(h, v0, frame[:2])


def test_frame_leaving_an_imaginary_part_falls_through(monkeypatch):
    # a real detuning on one diagonal entry, or a random complex H, leaves
    # T^-1 (-iH) T complex: the complex eig of H runs and matches expm
    rng = np.random.default_rng(9)
    detuned = _chain()
    detuned[1, 1] += 0.3
    seen = _eig_inputs(monkeypatch)
    for h, frame in ((detuned, np.array([1j, 1.0, 1j])),
                     (random_decaying_h(rng, 6), np.array([1, 1j, 1, 1j, -1, -1j]))):
        v0 = random_state(rng, h.shape[0])
        prop = Propagator(h, v0, frame)
        assert seen.pop() and prop.method == "eig"
        ref = scipy.linalg.expm(-1j * h * 0.8) @ v0
        assert np.abs(prop.apply(0.8) - ref).max() <= 1e-12


def test_expm_fallback_still_triggers_with_a_frame(monkeypatch):
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    h = _chain()
    v0 = random_state(np.random.default_rng(6), 3)
    prop = Propagator(h, v0, np.array([1j, 1.0, 1j]))
    assert prop.method == "expm"
    t = np.sqrt(2) * np.pi / np.sqrt(1000)
    ref = scipy.linalg.expm(-1j * h * t) @ v0
    assert np.abs(prop.apply(t) - ref).max() <= 1e-14


def test_golden_section_max():
    x = golden_section_max(lambda t: -((t - 1.3) ** 2), 0.0, 3.0, 1e-9)
    assert x == pytest.approx(1.3, abs=1e-7)
