"""Kernel tests: eigendecomposition, PSD root, tensor ops, traces."""

import numpy as np
import pytest

from skewinfo import (
    DimensionMismatch,
    InvalidState,
    NoConvergence,
    NotHermitian,
    NotPSD,
    commutator,
    haar_unitaries,
    hermitian_eig,
    kron,
    partial_trace,
    sqrtm_psd,
    stream,
    trace_inner,
)
from skewinfo.linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    _eigvalsh_closed,
    hermiticity_residual,
    psd_sqrt_eigh,
    psd_sqrt_eigvalsh,
    require_hermitian,
)
from skewinfo.states import require_states, require_unitary

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def random_psd(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z @ z.conj().T


def test_eig_identity():
    w, v = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eig_diagonal_ascending():
    w, _ = hermitian_eig(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(w, [0.25, 0.75])


def test_eig_pauli_x_spectrum():
    w, _ = hermitian_eig(SIGMA_X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)


def test_eig_reconstruction_and_unitarity():
    rng = stream(1, 0)
    for n in (2, 3, 8, 32):
        m = random_hermitian(n, rng)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= -1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)


def test_eig_matches_characteristic_roots_2x2():
    rng = stream(1, 1)
    for _ in range(50):
        m = random_hermitian(2, rng)
        tr = np.trace(m).real
        det = np.linalg.det(m).real
        disc = np.sqrt(tr * tr - 4 * det)
        roots = sorted([(tr - disc) / 2, (tr + disc) / 2])
        w, _ = hermitian_eig(m)
        np.testing.assert_allclose(w, roots, atol=1e-10)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_sqrtm_identity():
    np.testing.assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-12)


def test_sqrtm_diagonal():
    root = sqrtm_psd(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(root, np.diag([0.5, np.sqrt(0.75)]), atol=1e-12)


def test_sqrtm_rank1_projector_fixed_point():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(plus, plus.conj())
    np.testing.assert_allclose(sqrtm_psd(proj), proj, atol=1e-12)


def test_sqrtm_squares_back():
    rng = stream(1, 2)
    for n in (2, 5, 16, 32):
        m = random_psd(n, rng)
        root = sqrtm_psd(m)
        assert hermiticity_residual(root) < 1e-12
        np.testing.assert_allclose(root @ root, m, atol=1e-9 * max(1.0, np.linalg.norm(m)))


def test_sqrtm_clamps_noise_eigenvalues():
    m = np.diag([1.0, -5e-11])
    root = sqrtm_psd(m)
    np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


def test_sqrtm_rejects_negative():
    with pytest.raises(NotPSD):
        sqrtm_psd(np.diag([1.0, -1e-6]))


def test_sqrtm_stack_matches_per_matrix():
    rng = stream(1, 3)
    for n in (2, 3, 6):
        stack = np.stack([random_psd(n, rng) for _ in range(4)])
        stack[1] = np.outer(stack[1][:, 0], stack[1][:, 0].conj())  # a rank-1 member
        roots = sqrtm_psd(stack)
        assert roots.shape == stack.shape
        for member, root in zip(stack, roots):
            np.testing.assert_allclose(root, sqrtm_psd(member), atol=1e-14)
    nested = np.stack([stack[:2], stack[2:]])  # (2, 2, n, n)
    np.testing.assert_allclose(sqrtm_psd(nested), roots.reshape(nested.shape), atol=1e-14)


def test_sqrtm_stack_rejects_any_bad_member():
    good = np.eye(2) / 2
    with pytest.raises(NotPSD):
        sqrtm_psd(np.stack([good, np.diag([1.0, -2 * PSD_TOL]), good]))
    with pytest.raises(NotHermitian):
        sqrtm_psd(np.stack([good, np.array([[0.5, 0.1], [0.0, 0.5]])]))
    with pytest.raises(DimensionMismatch):
        sqrtm_psd(np.zeros((3, 2, 3)))


def test_sqrtm_stack_noise_floor_per_member():
    # the rank-1 member's noise eigenvalues are zeroed by its own floor;
    # the tiny but genuine eigenvalue of the second member survives, though
    # it lies below the floor the large third member would set
    rng = stream(1, 4)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    tiny = np.diag([1e-3, 1e-13, 0.5])
    roots = sqrtm_psd(np.stack([proj, tiny, 1e6 * np.eye(3)]))
    np.testing.assert_allclose(roots[0], proj, atol=1e-12)
    np.testing.assert_allclose(roots[1], np.diag(np.sqrt([1e-3, 1e-13, 0.5])), atol=1e-15)
    np.testing.assert_allclose(roots[2], 1e3 * np.eye(3), atol=1e-9)


def test_eigenvalue_only_root_has_the_checks_and_floor_of_the_eigh_root(monkeypatch):
    # the same roots as psd_sqrt_eigh, with each member's own floor or with
    # a given scale (here one that zeroes the 1e-13 eigenvalue), the same
    # rejections, and a solver failure raised as NoConvergence
    rng = stream(1, 5)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    stack = np.stack([np.outer(v, v.conj()), np.diag([1e-3, 1e-13, 0.5]), 1e6 * np.eye(3)])
    for scale, zeros in ((None, [2, 0, 0]), (np.full((3, 1), 1e3), [2, 1, 0])):
        sw, _ = psd_sqrt_eigh(stack, scale)
        roots = psd_sqrt_eigvalsh(stack, scale)
        np.testing.assert_allclose(roots, sw, rtol=1e-12, atol=0.0)
        assert [int(np.sum(r == 0.0)) for r in roots] == zeros
    good = np.eye(2) / 2
    with pytest.raises(NotPSD):
        psd_sqrt_eigvalsh(np.stack([good, np.diag([1.0, -2 * PSD_TOL])]))
    with pytest.raises(NotHermitian):
        psd_sqrt_eigvalsh(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the 2x2 closed form runs no solver; a scalar 3x3 matrix falls back to
    # eigvalsh, and a 4x4 one has no closed form
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    for scalar in (np.eye(3) / 3, np.eye(4) / 4):
        with pytest.raises(NoConvergence, match="did not converge"):
            psd_sqrt_eigvalsh(scalar)


def eigvalsh_roots(m):
    """Root eigenvalues from LAPACK's eigvalsh, floored as the kernel floors
    them (below n eps lambda_max is 0)."""
    w = np.linalg.eigvalsh(m)
    w[w < w.shape[-1] * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)] = 0.0
    return np.sqrt(w)


def conjugated_spectra(spectrum, count, rng):
    """``count`` Haar conjugates of diag(spectrum)."""
    u = haar_unitaries(len(spectrum), count, rng)
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_eigenvalues_equal_eigvalsh(n, monkeypatch):
    # on random stacks, ascending and within 1e-14 lambda_max of LAPACK, with
    # few PSD members handed to eigvalsh. Nearly scalar members have all
    # their eigenvalues within rounding of each other
    rng = stream(1, 40 + n)
    z = rng.standard_normal((2000, n, n)) + 1j * rng.standard_normal((2000, n, n))
    h = z + z.conj().swapaxes(-1, -2)
    scalar = np.eye(n) * rng.uniform(0.1, 1.0, (2000, 1, 1))
    stacks = (h, z @ z.conj().swapaxes(-1, -2), scalar + 1e-17 * h)
    expected = [np.linalg.eigvalsh(m) for m in stacks]
    handed = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        handed.append(m.reshape(-1, n, n).shape[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for m, want in zip(stacks, expected):
        w = _eigvalsh_closed(m)
        assert np.all(np.diff(w, axis=-1) >= 0.0)
        assert np.all(np.abs(w - want) <= 1e-14 * np.abs(want).max(axis=-1, keepdims=True))
    # the random Hermitian 3x3 members are mostly indefinite, and those go to
    # eigvalsh; about 4% of the PSD and 11% of the nearly scalar ones do
    assert sum(handed) <= (len(z) if n == 3 else 0) + 2 * len(z) // 10


@pytest.mark.parametrize("g", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5])
def test_closed_form_roots_are_as_accurate_as_eigvalsh_near_degeneracy(g):
    # spectra {g, g + delta, 1}: near-degenerate, and rank-deficient for
    # small g. Each member's root sum is no further from the exact sum than
    # LAPACK's, and its eigenvalues are within 1e-14 of LAPACK's (a merging
    # pair errs in opposite directions, which the sum does not see)
    rng = stream(2, int(-np.log10(g)) if g else 0)
    for delta in [0.0] + [10.0**-k for k in range(14, 0, -1)]:
        spectrum = np.array([g, g + delta, 1.0])
        c = conjugated_spectra(spectrum, 40, rng)
        exact = np.sqrt(spectrum).sum()
        ours = np.abs(psd_sqrt_eigvalsh(c).sum(axis=-1) - exact)
        lapack = np.abs(eigvalsh_roots(c).sum(axis=-1) - exact)
        assert np.all(ours <= lapack + 1e-12), (g, delta)
        np.testing.assert_allclose(_eigvalsh_closed(c), np.linalg.eigvalsh(c), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_roots_of_zero_rank_one_and_indefinite_matrices(n):
    rng = stream(3, n)
    assert np.all(psd_sqrt_eigvalsh(np.zeros((4, n, n), dtype=complex)) == 0.0)
    # rank 1: Tr sqrt(c) = sqrt(Tr c), at traces from about 1e-6 to 1e2
    v = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
    v *= np.logspace(-3, 1, 50)[:, None]
    rank1 = v[:, :, None] * v[:, None, :].conj()
    np.testing.assert_allclose(
        psd_sqrt_eigvalsh(rank1).sum(axis=-1), np.sqrt(np.trace(rank1, axis1=-2, axis2=-1).real), rtol=1e-14
    )
    # NotPSD at a smallest eigenvalue of -1e-8, never on PSD inputs
    top = np.linspace(0.3, 1.0, n - 1)
    with pytest.raises(NotPSD):
        psd_sqrt_eigvalsh(conjugated_spectra([-1e-8, *top], 20, rng))
    for low in (0.0, 1e-12, 1e-3):
        psd_sqrt_eigvalsh(conjugated_spectra([low, *top], 200, rng))
    psd_sqrt_eigvalsh(np.array([random_psd(n, rng) for _ in range(200)]))


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_roots_of_a_member_do_not_depend_on_its_stack(n):
    # every member equals its own call bit for bit, in stacks of several
    # lengths, closed-form members and members handed to eigvalsh alike
    rng = stream(4, n)
    stack = np.array([random_psd(n, rng) for _ in range(37)])
    stack[3] = 0.0
    stack[4] = np.eye(n)
    stack[5] = np.outer(stack[6][:, 0], stack[6][:, 0].conj())
    stack[7] = conjugated_spectra([1e-6, *np.linspace(0.5, 1.0, n - 1)], 1, rng)[0]
    full = psd_sqrt_eigvalsh(stack)
    for i, member in enumerate(stack):
        np.testing.assert_array_equal(psd_sqrt_eigvalsh(member), full[i])
    for size in (2, 5, 16):
        for start in range(0, len(stack) - size, 3):
            np.testing.assert_array_equal(psd_sqrt_eigvalsh(stack[start : start + size]), full[start : start + size])
    np.testing.assert_array_equal(psd_sqrt_eigvalsh(stack.reshape(37, 1, n, n)), full.reshape(37, 1, n))


@pytest.mark.parametrize("trace", [1e6, 1e-6])
def test_root_checks_scale_with_the_member(trace):
    # the checks compare with PSD_TOL max(1, lambda_max) and HERMITIAN_TOL
    # max(1, max|m|): rank-1 members v v^dagger, whose null eigenvalues the
    # solvers put near -eps Tr (below -PSD_TOL at trace 1e6), are roots of
    # themselves over sqrt(Tr); a member at twice either bound still raises,
    # one at half of it does not, and at trace 1e-6 the bounds are absolute
    rng = stream(6, int(trace > 1))
    v = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    v *= np.sqrt(trace) / np.linalg.norm(v, axis=-1, keepdims=True)
    rank1 = v[:, :, None] * v[:, None, :].conj()
    np.testing.assert_allclose(sqrtm_psd(rank1), rank1 / np.sqrt(trace), rtol=0.0, atol=1e-12 * np.sqrt(trace))
    for roots in (psd_sqrt_eigvalsh(rank1), psd_sqrt_eigh(rank1)[0]):
        np.testing.assert_allclose(roots.sum(axis=-1), np.sqrt(trace), rtol=1e-12)
    scale = max(1.0, trace)
    asymmetric = np.zeros((3, 3), dtype=complex)
    asymmetric[0, 1] = HERMITIAN_TOL * max(1.0, np.abs(rank1[0]).max())
    for factor, raises in ((0.5, False), (2.0, True)):
        indefinite = conjugated_spectra([-factor * PSD_TOL * scale, 0.5 * trace, trace], 1, rng)
        for check in (psd_sqrt_eigvalsh, psd_sqrt_eigh, sqrtm_psd):
            for bad, error in ((indefinite, NotPSD), (rank1[:1] + factor * asymmetric, NotHermitian)):
                if raises:
                    with pytest.raises(error):
                        check(np.concatenate([rank1[1:4], bad]))
                else:
                    check(np.concatenate([rank1[1:4], bad]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_fail_every_check(bad):
    # a NaN residual is not within any tolerance, and no check warns on the way
    m = np.eye(3, dtype=complex) / 3
    m[0, 0] = bad
    stack = np.stack([np.eye(3) / 3, m])
    for check in (require_hermitian, psd_sqrt_eigvalsh, psd_sqrt_eigh, sqrtm_psd):
        for x in (m, stack):
            with pytest.raises(NotHermitian):
                check(x)
    for x in (m, stack):
        with pytest.raises(InvalidState, match="hermiticity"):
            require_states(x)
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    with pytest.raises(InvalidState):
        require_unitary(u, "orthonormal columns")


def test_kron_scalar_identity():
    a = np.arange(4).reshape(2, 2).astype(complex)
    np.testing.assert_allclose(kron(a, np.eye(1)), a)


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0, 2.0, 0.0]))


def test_kron_zz_fixes_00():
    zz = kron(SIGMA_Z, SIGMA_Z)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(zz @ ket00, ket00)


def test_partial_trace_product_state(rng):
    a = random_psd(2, rng)
    a /= np.trace(a).real
    b = random_psd(3, rng)
    b /= np.trace(b).real
    joint = kron(a, b)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), "B"), a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), "A"), b, atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(v, v.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_identity():
    np.testing.assert_allclose(partial_trace(np.eye(4) / 4, (2, 2), "A"), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace(rng):
    for n_a, n_b in ((2, 2), (2, 3), (3, 2), (4, 2)):
        m = rng.standard_normal((n_a * n_b, n_a * n_b)) + 1j * rng.standard_normal((n_a * n_b, n_a * n_b))
        for side in ("A", "B"):
            assert abs(np.trace(partial_trace(m, (n_a, n_b), side)) - np.trace(m)) < 1e-12


def test_partial_trace_of_kron_scales_by_trace(rng):
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            partial_trace(kron(a, b), (2, 3), "B"), np.trace(b) * a, atol=1e-12
        )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), (2, 3), "A")


def test_commutator_examples():
    np.testing.assert_allclose(commutator(SIGMA_Z, SIGMA_Z), np.zeros((2, 2)))
    np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-14)


def test_trace_inner_examples():
    assert trace_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)
    # real-valued for Hermitian pairs
    val = trace_inner(SIGMA_X + SIGMA_Z, SIGMA_Y)
    assert abs(val.imag) < 1e-14


def test_trace_inner_conjugates_first_argument():
    a = np.array([[1j, 0], [0, 0]], dtype=complex)
    b = np.array([[2j, 0], [0, 0]], dtype=complex)
    assert trace_inner(a, b) == pytest.approx(2.0)


def test_trace_inner_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_inner(np.eye(2), np.eye(3))


def test_kron_and_partial_trace_act_member_by_member_on_stacks(rng):
    # the stacked forms the harness chunks use: each member equals the
    # one-matrix call bit for bit (np.kron is the independent reference)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    joint = kron(a, b)
    assert joint.shape == (5, 6, 6)
    for k in range(5):
        np.testing.assert_array_equal(joint[k], np.kron(a[k], b[k]))
        for side in ("A", "B"):
            np.testing.assert_array_equal(partial_trace(joint, (3, 2), side)[k], partial_trace(joint[k], (3, 2), side))
    with pytest.raises(DimensionMismatch):
        partial_trace(joint, (2, 2), "A")
