"""Propagator, norm/overlap accounting, and dissipativity checks."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from oracles import decay_generator_max_eig, rk4_evolve
from wgherald.linalg import (
    DimensionError,
    NumericError,
    Propagator,
    golden_section_max,
    norm_sq,
    overlap,
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
    assert np.allclose(Propagator(np.zeros((4, 4))).apply(2.7, v), v, atol=1e-14)
    gamma = 0.8
    h = -0.5j * gamma * np.eye(3)
    v3 = random_state(np.random.default_rng(1), 3)
    out = Propagator(h).apply(1.3, v3)
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
    exact = Propagator(h).apply(t, v0)
    ref = rk4_evolve(h, v0, t, 10**5)
    assert abs(abs(exact[2]) ** 2 - abs(ref[2]) ** 2) <= 1e-8


def test_expm_matches_rk4_random_8x8():
    rng = np.random.default_rng(42)
    for _ in range(3):
        h = random_decaying_h(rng, 8)
        h /= np.linalg.norm(h, 2)
        v0 = random_state(rng, 8)
        t = 1.5
        exact = Propagator(h).apply(t, v0)
        ref = rk4_evolve(h, v0, t, 5000)
        assert np.abs(exact - ref).max() < 1e-7


def test_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = random_decaying_h(rng, 6)
        v = random_state(rng, 6)
        t1, t2 = rng.uniform(0.05, 0.8, size=2)
        once = Propagator(h).apply(t1 + t2, v)
        twice = Propagator(h).apply(t2, Propagator(h).apply(t1, v))
        assert np.abs(once - twice).max() < 1e-9


def test_norm_monotone_under_decay():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = random_decaying_h(rng, dim)
        assert decay_generator_max_eig(h) <= 1e-10
        prop = Propagator(h)
        v = random_state(rng, dim)
        times = np.sort(rng.uniform(0.0, 2.0, size=10))
        norms = [norm_sq(prop.apply(t, v)) for t in times]
        assert norms[0] <= 1.0 + 1e-9
        for earlier, later in zip(norms, norms[1:]):
            assert later <= earlier + 1e-10


def test_decay_generator_sign():
    h = -0.5j * np.eye(2)
    assert decay_generator_max_eig(h) <= 1e-12
    h_gain = +0.5j * np.eye(2)
    assert not decay_generator_max_eig(h_gain) <= 1e-10


def test_integrated_expectation_matches_quadrature():
    rng = np.random.default_rng(11)
    h = random_decaying_h(rng, 5)
    m = np.diag(rng.uniform(0.0, 2.0, size=5)).astype(complex)
    v0 = random_state(rng, 5)
    t = 0.9
    prop = Propagator(h)
    exact = prop.integrated_expectation(m, t, v0)
    ts = np.linspace(0, t, 4001)
    vals = [np.vdot(prop.apply(s, v0), m @ prop.apply(s, v0)).real for s in ts]
    ref = scipy.integrate.trapezoid(vals, ts)
    assert exact == pytest.approx(ref, rel=1e-7)


def test_pade_fallback_on_defective_matrix():
    # a Jordan block has no usable eigenbasis; the scaling-and-squaring path
    # and its quadrature-based loss integral must take over
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    prop = Propagator(h)
    assert prop.method == "expm"
    v0 = np.array([0.0, 1.0], dtype=complex)
    out = prop.apply(0.7, v0)
    # e^{-iHt} = I - iHt for a nilpotent H
    assert np.allclose(out, np.array([-0.7j, 1.0]), atol=1e-12)
    m = np.diag([1.0, 0.0]).astype(complex)
    got = prop.integrated_expectation(m, 0.9, v0)
    # integral of |t|^2 over [0, 0.9]
    assert got == pytest.approx(0.9**3 / 3, rel=1e-8)


def test_eig_and_expm_paths_agree():
    rng = np.random.default_rng(8)
    for make_h in (random_decaying_h, random_hermitian_h):
        h = make_h(rng, 5)
        v = random_state(rng, 5)
        prop = Propagator(h)
        assert prop.method == "eig"
        ref = scipy.linalg.expm(-1j * h * 0.8) @ v
        assert np.abs(prop.apply(0.8, v) - ref).max() < 1e-10


def test_population_matches_apply_on_every_path():
    rng = np.random.default_rng(5)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    times = np.linspace(0.0, 3.0, 600)  # more than one block of times
    for h, index, method in ((random_decaying_h(rng, 6), [1, 4], "eig"),
                             (random_hermitian_h(rng, 6), [0], "eig"),
                             (jordan, [0], "expm")):
        prop = Propagator(h)
        assert prop.method == method
        v = random_state(rng, h.shape[0])
        got = prop.population(times, v, index)
        ref = np.array([norm_sq(prop.apply(t, v)[index]) for t in times])
        assert got.shape == times.shape
        assert np.abs(got - ref).max() < 1e-12


def test_dimension_and_finiteness_errors():
    with pytest.raises(DimensionError):
        Propagator(np.zeros((3, 3))).apply(1.0, np.zeros(4))
    with pytest.raises(DimensionError):
        Propagator(np.zeros((3, 2))).apply(1.0, np.zeros(3))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        Propagator(bad).apply(1.0, np.zeros(2))
    with pytest.raises(NumericError):
        Propagator(np.zeros((2, 2))).apply(np.inf, np.zeros(2))
    prop = Propagator(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        prop.population([0.0, 1.0], np.zeros(4), [0])
    with pytest.raises(DimensionError):
        prop.population([[0.0, 1.0]], np.zeros(3), [0])
    with pytest.raises(NumericError):
        prop.population([0.0, np.nan], np.zeros(3), [0])
    with pytest.raises(NumericError):
        prop.population([0.0, 1.0], [0.0, np.inf, 0.0], [0])
    # gain e^{1000 t} overflows on the eigenbasis path and on the fallback
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for h in (1000j * np.eye(2), 1000j * np.eye(2) + jordan):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            Propagator(h).population([0.0, 1.0], np.ones(2), [0])


def test_golden_section_max():
    x = golden_section_max(lambda t: -((t - 1.3) ** 2), 0.0, 3.0, 1e-9)
    assert x == pytest.approx(1.3, abs=1e-7)
