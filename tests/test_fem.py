"""Finite element assembly and the surface eigenproblem."""

import numpy as np
import pytest

from tricva.model import CorrelationTriple
from tricva import domain3d, fem


@pytest.fixture(scope="module")
def octant_small():
    spec = domain3d.build_domain(CorrelationTriple(0.0, 0.0, 0.0))
    mesh = domain3d.build_mesh(spec, n_points=600, seed=0)
    return spec, mesh, fem.build_basis(mesh, n_modes=50)


@pytest.fixture(scope="module")
def tiny_mesh():
    spec = domain3d.build_domain(CorrelationTriple(0.5, 0.1, 0.2))
    return domain3d.build_mesh(spec, n_points=150, seed=2)


class TestOctantSpectrum:
    # Dirichlet harmonics on the octant keep only degrees with l - m odd
    # and even sine orders, so l(l+1) gives 12, then 30 twice, then 56
    # three times.
    def test_ground_eigenvalue(self, octant_small):
        _, _, basis = octant_small
        assert 11.8 < basis.lam2[0] < 12.8

    def test_degenerate_pair(self, octant_small):
        _, _, basis = octant_small
        assert 29.5 < basis.lam2[1] < 31.5
        assert 29.5 < basis.lam2[2] < 31.5
        assert abs(basis.lam2[2] - basis.lam2[1]) < 0.5

    def test_third_cluster_is_triple(self, octant_small):
        _, _, basis = octant_small
        assert np.all(basis.lam2[3:6] > 54.0)
        assert np.all(basis.lam2[3:6] < 59.0)
        assert basis.lam2[6] > 80.0

    def test_mode_count_below_threshold(self, octant_small):
        _, _, basis = octant_small
        assert int(np.sum(basis.lam2 <= 45.0)) == 3

    def test_ground_mode_matches_harmonic(self, octant_small):
        # exact ground state: sin^2(theta) cos(theta) sin(2 phi), unit
        # mass norm 2 pi / 105 on the octant
        _, mesh, basis = octant_small
        phi = mesh.vertices[:, 0]
        theta = mesh.vertices[:, 1]
        exact = (np.sin(theta) ** 2 * np.cos(theta) * np.sin(2 * phi)
                 / np.sqrt(2 * np.pi / 105.0))
        diff = basis.psi[:, 0] - exact
        _, M = fem._assemble_full(basis.mesh)
        err = np.sqrt(diff @ M @ diff)
        assert err < 0.03


class TestBasisProperties:
    def test_mass_orthonormal(self, octant_small):
        _, _, basis = octant_small
        _, M = fem._assemble_full(basis.mesh)
        gram = basis.psi.T @ M @ basis.psi
        assert np.abs(gram - np.eye(basis.n_modes)).max() < 1e-10

    def test_interior_rows_solve_the_problem(self, octant_small):
        _, mesh, basis = octant_small
        K, M = fem._assemble_full(basis.mesh)
        resid = K @ basis.psi - M @ basis.psi * basis.lam2
        inner = ~mesh.boundary_mask
        scale = np.abs(resid[mesh.boundary_mask]).max()
        assert np.abs(resid[inner]).max() < 1e-9 * scale

    def test_boundary_values_zero(self, octant_small):
        _, mesh, basis = octant_small
        assert np.abs(basis.psi[mesh.boundary_mask]).max() == 0.0

    def test_surface_integrals_non_negative(self, octant_small):
        _, _, basis = octant_small
        assert np.all(basis.s_n >= 0.0)

    def test_ground_mode_one_signed(self, octant_small):
        _, _, basis = octant_small
        assert basis.psi[:, 0].min() > -1e-10

    def test_nu_definition(self, octant_small):
        _, _, basis = octant_small
        assert basis.nu == pytest.approx(np.sqrt(basis.lam2 + 0.25),
                                         rel=1e-15)

    def test_stored_rows_are_boundary_residuals(self, octant_small):
        _, mesh, basis = octant_small
        K, M = fem._assemble_full(basis.mesh)
        resid = K @ basis.psi - M @ basis.psi * basis.lam2
        want = resid[mesh.boundary_mask]
        assert basis.boundary_residual.shape == want.shape
        scale = np.abs(want).max()
        assert np.abs(basis.boundary_residual - want).max() < 1e-12 * scale

    def test_one_assembly_per_basis(self, tiny_mesh, monkeypatch):
        full = fem._assemble_full
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return full(*args, **kwargs)

        monkeypatch.setattr(fem, "_assemble_full", counted)
        fem.build_basis(tiny_mesh, n_modes=4)
        assert len(calls) == 1

    def test_rejects_too_many_modes(self, tiny_mesh):
        with pytest.raises(ValueError):
            fem.build_basis(tiny_mesh, n_modes=10_000)

    def test_mismatched_matrices_rejected(self, tiny_mesh):
        K, M = fem._assemble_full(tiny_mesh)
        with pytest.raises(ValueError):
            fem.solve_eig(K[:-1, :-1], M[:-1, :-1], tiny_mesh, n_modes=4)


class TestAssembly:
    def test_free_vertex_dimensions(self, tiny_mesh):
        K, M = fem.assemble(tiny_mesh)
        n_free = int((~tiny_mesh.boundary_mask).sum())
        assert K.shape == (n_free, n_free)
        assert M.shape == (n_free, n_free)
        assert np.abs(K - K.T).max() < 1e-12
        assert np.abs(M - M.T).max() < 1e-12

    def test_reference_triangle_flat_metric(self):
        # unit right triangle with its centroid on the equator, where the
        # metric weight sin(theta) is 1: the P1 stiffness and one-point
        # mass have textbook closed forms
        th0 = np.pi / 2 - 1.0 / 3.0
        mesh = domain3d.SurfaceMesh(
            vertices=np.array([[0.0, th0], [1.0, th0], [0.0, th0 + 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_mask=np.zeros(3, dtype=bool),
            h0=1.0,
        )
        K, M = fem.assemble(mesh)
        k_ref = 0.5 * np.array([[2.0, -1.0, -1.0],
                                [-1.0, 1.0, 0.0],
                                [-1.0, 0.0, 1.0]])
        assert K == pytest.approx(k_ref, abs=1e-14)
        assert M == pytest.approx(np.full((3, 3), 1.0 / 18.0), abs=1e-14)

    def test_degenerate_triangle_rejected(self):
        mesh = domain3d.SurfaceMesh(
            vertices=np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_mask=np.zeros(3, dtype=bool),
            h0=1.0,
        )
        with pytest.raises(ValueError):
            fem.assemble(mesh)


class TestSymmetricSolver:
    def test_generalized_problem_matches_lapack(self, tiny_mesh):
        import scipy.linalg as sla

        ref = sla.eigh(*fem.assemble(tiny_mesh), eigvals_only=True)[:8]
        K, M = fem._assemble_full(tiny_mesh)
        basis = fem.solve_eig(K, M, tiny_mesh, n_modes=8)
        assert basis.lam2 == pytest.approx(ref, rel=1e-9)

    def test_indefinite_mass_rejected(self, tiny_mesh):
        K, M = fem._assemble_full(tiny_mesh)
        M = M.copy()
        # a free vertex: boundary rows do not enter the eigenproblem
        i = np.nonzero(~tiny_mesh.boundary_mask)[0][0]
        M[i, i] = -M[i, i]
        with pytest.raises(ValueError, match="not positive definite"):
            fem.solve_eig(K, M, tiny_mesh, n_modes=4)


def _jacobi_eigh(A, sweeps=30):
    # cyclic Jacobi rotations, plain python; independent of lapack
    A = A.copy()
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-14:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
        if off < 1e-13:
            break
    return np.diag(A).copy(), V


class TestAgainstJacobiRotations:
    def test_generalized_eigenvalues_match(self, tiny_mesh):
        mesh = tiny_mesh
        basis = fem.build_basis(mesh, n_modes=8)
        K, M = fem._assemble_full(basis.mesh)
        idx = np.nonzero(~mesh.boundary_mask)[0]
        Kii = K[np.ix_(idx, idx)].toarray()
        Mii = M[np.ix_(idx, idx)].toarray()
        dm, Vm = _jacobi_eigh(Mii)
        assert dm.min() > 0.0
        half = Vm @ np.diag(dm ** -0.5) @ Vm.T
        dc, _ = _jacobi_eigh(half @ Kii @ half)
        ref = np.sort(dc)[:8]
        assert basis.lam2 == pytest.approx(ref, rel=1e-8)


class TestPointEvaluation:
    def test_vertex_values_reproduced(self, octant_small):
        _, mesh, basis = octant_small
        pick = np.arange(0, len(mesh.vertices), 37)
        vals = fem.eval_basis(basis, mesh.vertices[pick, 0],
                              mesh.vertices[pick, 1])
        assert vals == pytest.approx(basis.psi[pick], abs=1e-11)

    def test_interpolation_is_linear_inside_triangles(self, octant_small):
        _, mesh, basis = octant_small
        tri = mesh.triangles[50]
        corners = mesh.vertices[tri]
        w = np.array([0.2, 0.3, 0.5])
        p = w @ corners
        val = fem.eval_basis(basis, p[0], p[1])[0]
        assert val == pytest.approx(w @ basis.psi[tri], abs=1e-11)

    def test_outside_point_raises(self, octant_small):
        _, _, basis = octant_small
        with pytest.raises(ValueError):
            fem.eval_basis(basis, -0.5, -0.5)
