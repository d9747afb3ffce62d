"""Independent oracles: fine-step RK4 integration, brute-force collective
operators on the full tensor-product space, and the reference quantities the
tests check the package against (decay generator, excitation number, the
drive terms, the stage-parity sign, the signed mirror swap, the explicit
two-mode images of the linearized chain, the ideal-limit bandgap chain, a
straight-line fit, a Chebyshev propagator, an extended-precision
Kac-Murdock-Szego product, the candidate fixed-ratio plateaus).

These deliberately share no code with the package internals: states are
base-3 integer configurations, collective operators are sums of sparse
single-atom flips, and symmetric states are explicit permutation sums.  There
are three exceptions.  `full_basis_step` runs a step on the unreduced exact
basis with the package's own model and propagator, as the reference for its
parity-sector steps; its losses come from `eigenbasis_integral`, one
operator at a time, not from the package's integrated density.
`dense_lanczos` is the bandgap Lanczos loop on the dense Hamiltonian with the
full stopping bound at every step, sharing the package's bound quadrature,
as the reference for the step count of the matrix-free transfer.
`coherent_drive` is the continuous-drive step with every channel dropped,
the lossless limit the package has no switch for, built from the step's own
model and propagator.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.special import jv

LEVELS = {"g": 0, "e": 1, "s": 2}


def rk4_evolve(h, v0, t_final, steps):
    """Classic fixed-step RK4 for dv/dt = -i H v.

    On a linear system one RK4 step is the map v -> M v with M the Taylor
    polynomial sum_{k<=4} (-i dt H)^k / k!, so M is formed once and applied
    at each step.
    """
    h = np.asarray(h, dtype=complex)
    v = np.asarray(v0, dtype=complex).copy()
    a = -1j * (t_final / steps) * h
    m = np.eye(len(h), dtype=complex)
    term = m
    for k in range(1, 5):
        term = term @ a / k
        m = m + term
    for _ in range(steps):
        v = m @ v
    return v


def decay_generator_max_eig(h) -> float:
    """Largest eigenvalue of the Hermitian decay generator (H - H^dag)/(2i).

    For a dissipative Hamiltonian H = H_0 - (i/2) sum_k Gamma_k O_k^dag O_k
    this matrix equals -(1/2) sum_k Gamma_k O_k^dag O_k, so its spectrum is
    non-positive exactly when the evolution can only lose norm.
    """
    h = np.asarray(h, dtype=complex)
    gen = (h - h.conj().T) / 2j
    return float(np.linalg.eigvalsh(gen).max())


def excitation_number_operator(basis):
    """Diagonal protocol excitation count on a package basis: source e or s,
    target s and e quanta.

    Detector flips do not add to the count (the flip is fed by a target
    quantum), so every reachable state of one sector carries the same number.
    """
    out = []
    for lbl in basis.labels:
        n = int(lbl.source_level in ("e", "s"))
        n += lbl.k1 + lbl.l1 + lbl.k2 + lbl.l2
        out.append(n)
    return np.diag(np.array(out, dtype=float).astype(complex))


def drive_matrix(basis):
    """Unit-strength loading plus readout drive on a package basis: the flips
    source e <-> s and detector excited <-> heralded, each with amplitude 1.

    A continuous drive of strength omega adds (omega/2) times this matrix to
    the undriven no-jump generator.
    """
    flips = {"source_level": {"e": "s", "s": "e"},
             "detector": {"excited": "heralded", "heralded": "excited"}}
    index = {lbl: i for i, lbl in enumerate(basis.labels)}
    out = np.zeros((len(index), len(index)))
    for j, lbl in enumerate(basis.labels):
        for name, flip in flips.items():
            level = getattr(lbl, name)
            if level in flip:
                image = lbl._replace(**{name: flip[level]})
                if image in index:
                    out[index[image], j] = 1.0
    return out


def stage_sign(basis):
    """The stage-parity sign of a package basis, S_ij = odd_j - odd_i with
    odd 1 on the odd stages (source e, detector excited) and 0 on the even
    ones: +1 from an odd stage to an even one, -1 back, 0 within a parity.

    A coherent term X joins adjacent stages, so S o X is its term of the
    real no-jump generator, and S o (S o X) = X.
    """
    odd = np.array([float(lbl.source_level == "e" or lbl.detector == "excited")
                    for lbl in basis.labels])
    return odd - odd[:, None]


def coherent_drive(p, omega, T):
    """The continuous-drive step of p at drive strength omega with every
    channel dropped, evolved to T: the step's driven chain
    (`protocol._model`) with the generator S o (H + (omega/2) drive) of its
    coherent part H (`dissipative.build_H_coherent`), `drive_matrix` and
    `stage_sign`, and an empty loss stack.  Returns the model and its herald
    probability at T.

    The input evolves under `protocol.Propagator`, looked up at call time,
    so a test that replaces the step's Propagator replaces this one too.
    """
    from wgherald import protocol
    from wgherald.basis import HPMode
    from wgherald.dissipative import build_H_coherent
    from wgherald.linalg import norm_sq

    model = protocol._model(p, HPMode.APPROX, with_drive=True)
    model.g = stage_sign(model.basis) * (build_H_coherent(p, model.basis)
                                         + (omega / 2) * drive_matrix(model.basis))
    model.channels, model.rates, model.ops = [], [], model.ops[:0]
    psi = protocol.Propagator(model.g, model.psi0, T).apply(T)
    return model, norm_sq(model.heralded(psi))


def linearized_images(lbl, which, sign):
    """Images of a linearized-chain label under S_which,sign, each with its
    amplitude as (c, root), root "1" or "sqrt(2N)": the two-mode rules
    written out (k1 the antisymmetric storage mode, l1 the symmetric excited
    mode), the reference for the package's images from the mirror algebra.
    None where the operator leaves the chain."""
    k, l = lbl.k1, lbl.l1
    if (which, sign) == ("eg", 1.0):
        return [(lbl._replace(l1=l + 1), (math.sqrt(l + 1), "sqrt(2N)"))]
    if (which, sign) == ("ge", 1.0):
        return [(lbl._replace(l1=l - 1), (math.sqrt(l), "sqrt(2N)"))] if l else []
    if (which, sign) == ("ge", -1.0):
        # annihilates the antisymmetric excited mode, which the chain never fills
        return []
    if (which, sign) == ("se", -1.0):
        # bs-^dag be+ survives; bs+^dag be- annihilates an empty mode
        return [(lbl._replace(k1=k + 1, l1=l - 1),
                 (math.sqrt(k + 1) * math.sqrt(l), "1"))] if l else []
    if (which, sign) == ("es", -1.0):
        return [(lbl._replace(k1=k - 1, l1=l + 1),
                 (math.sqrt(k) * math.sqrt(l + 1), "1"))] if k else []
    return None


def mirror_swap_matrix(basis):
    """Signed mirror swap P on a package EXACT basis: (k1, l1) <-> (k2, l2),
    with sign -1 on detector-excited labels and +1 otherwise."""
    index = {(lbl.source_level, lbl.k1, lbl.l1, lbl.k2, lbl.l2, lbl.detector): i
             for i, lbl in enumerate(basis.labels)}
    out = np.zeros((len(index), len(index)))
    for j, lbl in enumerate(basis.labels):
        image = (lbl.source_level, lbl.k2, lbl.l2, lbl.k1, lbl.l1, lbl.detector)
        out[index[image], j] = -1.0 if lbl.detector == "excited" else 1.0
    return out


def eigenbasis_integral(h, m, t, v0):
    """Closed-form integral_0^t <psi(s)|M|psi(s)> ds along psi(s) = e^{-iHs} v0
    for one operator M, from H's own eigendecomposition H = V diag(lambda) V^-1.

    With c = V^-1 v0 and G = V^dag M V the integrand is
    sum_ab conj(c_a) c_b G_ab e^{i (conj(lambda_a) - lambda_b) s}; each
    exponential integrates in closed form, or by its second-order series
    where the exponent is negligible.
    """
    lam, v = np.linalg.eig(np.asarray(h, dtype=complex))
    c = np.linalg.inv(v) @ np.asarray(v0, dtype=complex)
    g = v.conj().T @ np.asarray(m, dtype=complex) @ v
    mu = np.conj(lam)[:, None] - lam[None, :]
    scale = max(1.0, float(np.abs(lam).max()))
    small = np.abs(mu) * t < 1e-8 * scale * max(t, 1.0)
    mu_safe = np.where(small, 1.0, mu)
    factors = np.where(small, t * (1.0 + 0.5j * mu * t),
                       (np.exp(1j * mu_safe * t) - 1.0) / (1j * mu_safe))
    return float(np.einsum("a,b,ab,ab->", np.conj(c), c, g, factors).real)


def full_basis_step(p, input_state, T):
    """Reference exact fast-pulse step on the unreduced 4m+1 basis.

    The storage-space input (sector m-1) goes under the excited source, the
    state evolves under `build_H_nh` with one `Propagator`, and the herald
    reads the excited detector.  Returns (p_success, channel losses,
    unheralded residual, post state in storage order).
    """
    from wgherald.basis import HPMode, build_basis
    from wgherald.dissipative import build_H_nh, build_jump_operators
    from wgherald.linalg import Propagator

    basis = build_basis(p.m, HPMode.EXACT)
    index = {(lbl.source_level, lbl.k1, lbl.l1, lbl.k2, lbl.l2, lbl.detector): i
             for i, lbl in enumerate(basis.labels)}
    psi0 = np.zeros(basis.dim, dtype=complex)
    for i, amp in enumerate(input_state):
        psi0[index[("e", p.m - 1 - i, 0, i, 0, "none")]] = amp
    h = build_H_nh(p, basis)
    losses = {ch.name: ch.rate * eigenbasis_integral(h, ch.opdag_op, T, psi0)
              for ch in build_jump_operators(p, basis)}
    psi = Propagator(-1j * h, psi0, T).apply(T)
    herald = psi[[index[("g", p.m - i, 0, i, 0, "excited")] for i in range(p.m + 1)]]
    p_success = float(np.vdot(herald, herald).real)
    residual = float(np.vdot(psi, psi).real) - p_success
    return p_success, losses, residual, herald / math.sqrt(p_success)


def ideal_bandgap_chain(p):
    """Ideal-limit collective three-state bandgap chain (source, target mode,
    detector mode) for package BandgapParams p, shifts already compensated.

    Couplings carry the exact collective factors sqrt(N_m) and sqrt(N m), with
    N detector atoms at gamma_s = 1 / sqrt(m); the free-space rate puts
    -i gamma_star / 2 on every state.
    """
    a = p.coupling
    gamma_s = 1 / math.sqrt(p.m)
    b = math.sqrt(p.N * p.m) * gamma_s / (2 * p.xi)
    h = np.array([[0, a, 0], [a, 0, b], [0, b, 0]], dtype=complex)
    if p.gamma_star > 0:
        h -= 0.5j * p.gamma_star * np.eye(h.shape[0])
    return h


def dense_lanczos(h, dt, n_grid):
    """The bandgap transfer's Lanczos loop on a dense real symmetric h, with
    the full Hochbruck-Lubich bound evaluated at every step and
    `scipy.linalg.eigh_tridiagonal` for the Ritz pairs.  Returns the basis
    Q S, the Ritz values, the step count k and the bound reached.
    """
    from wgherald.bandgap import KRYLOV_MAX_ERROR
    from wgherald.linalg import exp_sums

    n = h.shape[0]
    q = np.zeros((n, n))
    q[0, 0] = 1.0
    alpha, beta = [], []
    for j in range(n):
        w = h @ q[j]
        alpha.append(q[j] @ w)
        for _ in range(2):
            w -= (q[:j + 1] @ w) @ q[:j + 1]
        b = math.sqrt(w @ w)
        theta, s = scipy.linalg.eigh_tridiagonal(np.array(alpha), np.array(beta))
        defect = np.abs(exp_sums(-1j * theta, s[-1] * s[0], dt, n_grid))
        bound = b * dt * (defect.sum() - 0.5 * (defect[0] + defect[-1]))
        if bound <= KRYLOV_MAX_ERROR or j + 1 == n:
            return q[:j + 1].T @ s, theta, j + 1, bound
        beta.append(b)
        q[j + 1] = w / b


def chebyshev_propagate(apply, lo, hi, v, t, tol=1e-18):
    """e^{-iHt} v for a real symmetric H with spectrum inside [lo, hi], given
    as its product `apply` on real vectors (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)).

    With c and r the centre and half-width of [lo, hi],
    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k((H - c) / r),
    the T_k v by the three-term recurrence.  The series stops once k > rt and
    |J_k(rt)| < tol, where the Bessel factors fall off faster than
    exponentially.
    """
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    a = r * t

    def scaled(x):
        return (apply(x.real) + 1j * apply(x.imag) - c * x) / r

    prev = np.asarray(v, dtype=complex)
    cur = scaled(prev)
    out = jv(0, a) * prev - 2j * jv(1, a) * cur
    k = 1
    while True:
        k += 1
        prev, cur = cur, 2 * scaled(cur) - prev
        coef = jv(k, a)
        out += 2 * (1, -1j, -1, 1j)[k % 4] * coef * cur  # (-i)^k
        if k > a and abs(coef) < tol:
            return np.exp(-1j * c * t) * out


def kms_product(x, xi):
    """sum_j exp(-|i - j| / xi) x_j for every i, in np.longdouble.

    The Kac-Murdock-Szego kernel rho^|i-j|, rho = exp(-1/xi), is y + u - x,
    with y_i = x_i + rho y_{i-1} run forward over x and u the same recursion
    run backward: two first-order recursions, one element at a time.
    """
    x = np.asarray(x, dtype=np.longdouble)
    rho = np.exp(np.longdouble(-1) / np.longdouble(xi))
    y, u = np.empty_like(x), np.empty_like(x)
    acc = np.longdouble(0)
    for i in range(len(x)):
        acc = x[i] + rho * acc
        y[i] = acc
    acc = np.longdouble(0)
    for i in reversed(range(len(x))):
        acc = x[i] + rho * acc
        u[i] = acc
    return y + u - x


def linear_regression_r2(x, y) -> tuple[float, float, float]:
    """Plain least-squares line y = a + b x; returns (a, b, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def single_atom_flip(n_atoms, atom, alpha, beta):
    """Sparse |alpha><beta| on one atom of a 3^n_atoms register."""
    dim = 3**n_atoms
    a, b = LEVELS[alpha], LEVELS[beta]
    stride = 3**atom
    rows, cols = [], []
    for idx in range(dim):
        if (idx // stride) % 3 == b:
            rows.append(idx + (a - b) * stride)
            cols.append(idx)
    data = np.ones(len(rows))
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def collective_flip(n_atoms, alpha, beta):
    """Sum of |alpha><beta| over every atom of the register."""
    op = sparse.csr_matrix((3**n_atoms, 3**n_atoms))
    for atom in range(n_atoms):
        op = op + single_atom_flip(n_atoms, atom, alpha, beta)
    return op


def symmetric_state(n_atoms, k, l):
    """Normalized symmetric state with k atoms in s, l in e, rest in g."""
    if k + l > n_atoms or k < 0 or l < 0:
        raise ValueError("bad occupation numbers")
    config = ["s"] * k + ["e"] * l + ["g"] * (n_atoms - k - l)
    seen = set()
    vec = np.zeros(3**n_atoms, dtype=complex)
    for perm in itertools.permutations(config):
        if perm in seen:
            continue
        seen.add(perm)
        idx = sum(LEVELS[level] * 3**pos for pos, level in enumerate(perm))
        vec[idx] = 1.0
    return vec / np.linalg.norm(vec)


def mirror_operator_element(n_atoms, which, bra_kl, ket_kl):
    """<k', l'| S_which |k, l> on the symmetric sector by direct application."""
    alpha, beta = which
    ket = symmetric_state(n_atoms, *ket_kl)
    bra = symmetric_state(n_atoms, *bra_kl)
    return complex(bra.conj() @ (collective_flip(n_atoms, alpha, beta) @ ket))


def mirror_operator_column_norm(n_atoms, which, ket_kl):
    """|| S_which |k, l> ||^2, including components outside any cutoff."""
    alpha, beta = which
    ket = symmetric_state(n_atoms, *ket_kl)
    out = collective_flip(n_atoms, alpha, beta) @ ket
    return float(np.vdot(out, out).real)


class FullModelOracle:
    """Brute-force double-mirrors model on source x mirror1 x mirror2 x flag.

    Both target mirrors are full 3^N registers; the detector pair is reduced
    to its two reachable collective states, whose matrix elements are
    themselves verified brute-force elsewhere (detector_coupling_element).
    """

    def __init__(self, N):
        self.N = N
        self.dim_mirror = 3**N
        self.ids = sparse.identity(3, format="csr")
        self.idm = sparse.identity(self.dim_mirror, format="csr")
        self.idd = sparse.identity(2, format="csr")

    def _lift(self, src=None, m1=None, m2=None, det=None):
        def pick(op, ident):
            return ident if op is None else op

        return sparse.kron(
            sparse.kron(pick(src, self.ids), pick(m1, self.idm), format="csr"),
            sparse.kron(pick(m2, self.idm), pick(det, self.idd), format="csr"),
            format="csr",
        )

    def source_op(self, alpha, beta):
        mat = sparse.csr_matrix(
            (np.ones(1), ([LEVELS[alpha]], [LEVELS[beta]])), shape=(3, 3)
        )
        return self._lift(src=mat)

    def target_op(self, which, sign):
        flip = collective_flip(self.N, *which)
        return self._lift(m1=flip) + sign * self._lift(m2=flip)

    def detector_excite(self):
        # collective flip between the two reachable detector states
        amp = math.sqrt(2 * self.N)
        mat = sparse.csr_matrix((np.array([amp]), ([1], [0])), shape=(2, 2))
        return self._lift(det=mat)

    def embed_label(self, source_level, k1, l1, k2, l2, detector_excited):
        src = np.zeros(3, dtype=complex)
        src[LEVELS[source_level]] = 1.0
        det = np.zeros(2, dtype=complex)
        det[1 if detector_excited else 0] = 1.0
        vec = np.kron(
            np.kron(src, symmetric_state(self.N, k1, l1)),
            np.kron(symmetric_state(self.N, k2, l2), det),
        )
        return vec

    def _h_nh_terms(self, gamma_s, gamma_star):
        """(coefficient, [factors applied right-to-left]) for every term, at
        gamma_g = 1."""
        s_ge = self.source_op("g", "e")
        s_eg = self.source_op("e", "g")
        t_eg_plus = self.target_op(("e", "g"), +1.0)
        t_ge_plus = self.target_op(("g", "e"), +1.0)
        t_ge_minus = self.target_op(("g", "e"), -1.0)
        t_eg_minus = self.target_op(("e", "g"), -1.0)
        t_se_minus = self.target_op(("s", "e"), -1.0)
        t_es_minus = self.target_op(("e", "s"), -1.0)
        d_exc = self.detector_excite()
        d_dex = d_exc.conj().T
        n_e = self._lift(src=sparse.diags([0.0, 1.0, 0.0])) \
            + self._lift(m1=collective_flip(self.N, "e", "e")) \
            + self._lift(m2=collective_flip(self.N, "e", "e")) \
            + self._lift(det=sparse.diags([0.0, 1.0]))
        return [
            (0.5, [s_ge, t_eg_plus]),
            (0.5, [s_eg, t_ge_plus]),
            (gamma_s / 2, [d_exc, t_se_minus]),
            (gamma_s / 2, [d_dex, t_es_minus]),
            (-0.5j, [s_eg, s_ge]),
            (-0.5j, [t_eg_minus, t_ge_minus]),
            (-0.5j * gamma_s, [t_es_minus, t_se_minus]),
            (-0.5j * gamma_star, [n_e]),
        ]

    def h_nh_projected(self, labels, gamma_s, gamma_star):
        """Matrix elements of the no-jump generator on embedded basis labels.

        Columns are built by applying each term's sparse factors to the
        embedded kets (no full-space matrix products)."""
        kets = [
            self.embed_label(l.source_level, l.k1, l.l1, l.k2, l.l2,
                             l.detector == "excited")
            for l in labels
        ]
        terms = self._h_nh_terms(gamma_s, gamma_star)
        out = np.zeros((len(labels), len(labels)), dtype=complex)
        for j, ket in enumerate(kets):
            acc = np.zeros_like(ket)
            for coeff, factors in terms:
                vec = ket
                for op in reversed(factors):
                    vec = op @ vec
                acc = acc + coeff * vec
            for i, bra in enumerate(kets):
                out[i, j] = bra.conj() @ acc
        return out


def detector_coupling_element(n_atoms_total):
    """Brute-force check of the detector reduction on 3^(2N) atoms.

    Returns (excitation element, de-excitation-to-readout element): the
    collective e<-s flip with alternating mirror signs applied to the parked
    register, and the uniform g<-e flip applied to the excited state.
    """
    n = n_atoms_total
    half = n // 2
    parked_idx = sum(LEVELS["s"] * 3**pos for pos in range(n))
    parked = np.zeros(3**n, dtype=complex)
    parked[parked_idx] = 1.0

    flip_es = sparse.csr_matrix((3**n, 3**n))
    for atom in range(n):
        sign = 1.0 if atom < half else -1.0
        flip_es = flip_es + sign * single_atom_flip(n, atom, "e", "s")
    excited = flip_es @ parked
    exc_norm = np.linalg.norm(excited)
    excited = excited / exc_norm

    flip_ge = collective_flip(n, "g", "e")
    readout = flip_ge @ excited
    return float(exc_norm), float(np.linalg.norm(readout))


def limit_fixed_ratio(m: float) -> dict[str, float]:
    """Candidate large-N plateaus of the fixed-ratio probability.

    Two inconsistent closed forms circulate for this constant, 4m/(m+1)^2 and
    4m/(m+2)^2.  Both are exposed so numerical evolution can arbitrate; the
    dynamics matches the (m+1)^2 form (see the acceptance suite).
    """
    return {"m_plus_1": 4 * m / (m + 1) ** 2, "m_plus_2": 4 * m / (m + 2) ** 2}
