"""Three-driver survival, Green function and bilateral CVA/DVA legs."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from tricva.model import CorrelationTriple, CdsTerms
from tricva import cds1d, cds2d, cds3d, domain3d, fem
from tricva.specfun import (IVE_TABLE_RTOL, IveTable, bessel_i_scaled,
                            gauss_legendre)

# worked three-name setup: seller, reference, buyer driver distances
X0 = 1.4713114754098361
Y0 = 2.9043062200956938
Z0 = 1.9031746031746032
TERMS = CdsTerms(coupon=0.02, rate=0.02, recovery=0.4, maturity=5.0)


@pytest.fixture(scope="module")
def reduction_basis():
    """Reference/seller correlated only; buyer independent."""
    spec = domain3d.build_domain(CorrelationTriple(0.8, 0.0, 0.0))
    mesh = domain3d.build_mesh(spec, n_points=1500, seed=0)
    return spec, fem.build_basis(mesh, n_modes=80)


def _source(pair, x0=X0, y0=Y0, z0=Z0):
    spec, basis = pair
    return cds3d.transform_3d(spec, x0, y0, z0)


class TestTransform:
    def test_uncorrelated_is_spherical_identity(self, octant_basis):
        spec, _ = octant_basis
        s = cds3d.transform_3d(spec, 1.0, 2.0, 3.0)
        assert s.r0 == pytest.approx(np.sqrt(14.0), rel=1e-14)
        assert s.phi0 == pytest.approx(np.arctan2(1.0, 2.0), rel=1e-14)
        assert s.theta0 == pytest.approx(np.arccos(3.0 / np.sqrt(14.0)),
                                         rel=1e-14)

    def test_reference_distance_recovered(self, basis_table1):
        spec, _ = basis_table1
        a, b, _ = domain3d.decorrelate(spec, X0, Y0, Z0)
        rec = spec.rho_xy * a + spec.rho_bar_xy * b
        assert rec == pytest.approx(Y0, abs=1e-12)

    def test_face_limits(self, basis_table1):
        # each driver hitting its barrier lands on its own chart face
        spec, _ = basis_table1
        near_seller = cds3d.transform_3d(spec, 1e-12, Y0, Z0)
        assert abs(near_seller.phi0) < 1e-10
        near_ref = cds3d.transform_3d(spec, X0, 1e-12, Z0)
        assert abs(near_ref.phi0 - spec.varpi) < 1e-10
        near_buyer = cds3d.transform_3d(spec, X0, Y0, 1e-12)
        cap = domain3d.theta_max_at(spec, near_buyer.phi0)
        assert abs(near_buyer.theta0 - cap) < 1e-9

    def test_records_the_drivers_outside_equality(self, octant_basis):
        spec, _ = octant_basis
        s = cds3d.transform_3d(spec, 1.0, 2.0, 3.0)
        assert s.drivers == (1.0, 2.0, 3.0)
        assert s.domain is spec
        assert s == cds3d.SphericalPoint(s.r0, s.phi0, s.theta0)
        assert "drivers" not in repr(s)

    def test_rejects_nonpositive_distance(self, octant_basis):
        spec, _ = octant_basis
        with pytest.raises(ValueError):
            cds3d.transform_3d(spec, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_distance(self, basis_table1, slot, bad):
        # a NaN source would otherwise map to NaN chart coordinates and
        # price as an unreachable buyer
        spec, _ = basis_table1
        drivers = [X0, Y0, Z0]
        drivers[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            cds3d.transform_3d(spec, *drivers)


class TestGreen3d:
    def test_source_target_symmetry(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        tgt = cds3d.SphericalPoint(r0=2.2, phi0=0.9, theta0=0.7)
        g1 = cds3d.green_3d(basis, 1.0, tgt.r0, tgt.phi0, tgt.theta0, src)
        g2 = cds3d.green_3d(basis, 1.0, src.r0, src.phi0, src.theta0, tgt)
        assert g1 == pytest.approx(g2, rel=1e-12)
        assert g1 > 0.0

    def test_vanishes_on_face_vertices(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        idx = np.nonzero(basis.mesh.boundary_mask)[0][:8]
        g = cds3d.green_3d(basis, 1.0, 2.0, basis.mesh.vertices[idx, 0],
                           basis.mesh.vertices[idx, 1], src)
        assert np.abs(g).max() == 0.0

    def test_truncation_warning(self, octant_basis):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.warns(cds3d.TruncationWarning):
            cds3d.green_3d(basis, 0.05, src.r0, src.phi0,
                           src.theta0 * 1.01, src)

    def _lattice(self, basis, n_radii=24, n_angles=40):
        inner = np.nonzero(~basis.mesh.boundary_mask)[0][:n_angles]
        phi, theta = basis.mesh.vertices[inner].T
        r = np.linspace(0.5, 6.0, n_radii)
        return r[:, None], phi[None, :], theta[None, :]

    def test_lattice_asks_bessel_per_radius(self, octant_basis,
                                            monkeypatch):
        _, basis = octant_basis
        src = _source(octant_basis)
        asked = []

        def counting(nu, x):
            asked.append(np.broadcast(nu, x).size)
            return bessel_i_scaled(nu, x)

        monkeypatch.setattr(cds3d, "bessel_i_scaled", counting)
        r, phi, theta = self._lattice(basis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cds3d.green_3d(fem.truncate_basis(basis, 40), 1.0, r, phi,
                           theta, src)
        # the live cells of the 24 radii x 40 modes, asked once per
        # radius whatever the angles
        radii = r[:, 0]
        base = (np.exp(-(radii - src.r0) ** 2 / 2.0)
                / np.sqrt(radii * src.r0))
        live = IveTable(basis.nu[:40], radii * src.r0, base).n_live
        assert sum(asked) == live.sum() <= 24 * 40

    def test_lattice_matches_full_grid(self, octant_basis):
        # the density against every (radius, mode) cell, and the bound
        # on what the skipped cells held (specfun.IveTable)
        _, basis = octant_basis
        src = _source(octant_basis)
        r, phi, theta = self._lattice(basis, n_radii=60)
        radii = np.concatenate([r[:, 0], [12.0, 16.0]])
        modes = fem.eval_basis(basis, phi[0], theta[0])
        psi0 = fem.eval_basis(basis, src.phi0, src.theta0)[0]
        z = radii * src.r0
        base = np.exp(-(radii - src.r0) ** 2 / 2.0) / np.sqrt(z)
        bess = bessel_i_scaled(basis.nu, z[:, None])
        full = np.einsum("pn,n,kn->kp", modes, psi0, base[:, None] * bess)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = cds3d.green_3d(basis, 1.0, radii[:, None], phi, theta,
                                 src)
        diff = np.abs(got - full)
        assert diff.max() <= 1e-13 * np.abs(full).max()
        kept = IveTable(basis.nu, z, base).n_live
        assert kept.min() < basis.n_modes
        ive_c = np.where(kept > 0, bess[np.arange(len(radii)),
                                        np.maximum(kept - 1, 0)], 1.0)
        terms_n = np.abs(modes * psi0)                   # (p, n)
        tail = np.concatenate([np.cumsum(terms_n[:, ::-1], axis=1)[:, ::-1],
                               np.zeros((len(terms_n), 1))], axis=1)
        bound = (base * ive_c)[:, None] * tail[:, kept].T
        round_off = IVE_TABLE_RTOL * np.einsum("pn,kn->kp", terms_n,
                                               base[:, None] * bess)
        assert np.all(diff <= bound + round_off)

    def test_lattice_locates_each_angle_once(self, octant_basis,
                                             monkeypatch):
        _, basis = octant_basis
        src = _source(octant_basis)
        located = []

        def recording(b, phi, theta):
            located.append(np.column_stack([np.ravel(phi),
                                            np.ravel(theta)]))
            return fem.eval_basis(b, phi, theta)

        monkeypatch.setattr(cds3d, "eval_basis", recording)
        r, phi, theta = self._lattice(basis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cds3d.green_3d(basis, 1.0, r, phi, theta, src)
        # one call for the lattice's angles, one for the source
        lattice = located[0]
        assert len(lattice) == len(np.unique(lattice, axis=0)) == 40
        assert np.array_equal(np.unique(lattice, axis=0), np.unique(
            np.column_stack([phi.ravel(), theta.ravel()]), axis=0))

    def test_lattice_matches_scalar_calls(self, octant_basis):
        _, basis = octant_basis
        src = _source(octant_basis)
        r, phi, theta = self._lattice(basis, n_radii=6, n_angles=15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lattice = cds3d.green_3d(basis, 1.0, r, phi, theta, src)
            loop = np.array([[cds3d.green_3d(basis, 1.0, rk, pj, tj, src)
                              for pj, tj in zip(phi[0], theta[0])]
                             for rk in r[:, 0]])
        assert lattice.shape == (6, 15)
        scale = np.abs(loop).max()
        assert scale > 0.0
        assert np.abs(lattice - loop).max() <= 1e-13 * scale

    def test_rejects_array_tau(self, octant_basis):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.raises(ValueError, match="tau must be"):
            cds3d.green_3d(basis, [1.0, 2.0], src.r0, src.phi0,
                           src.theta0, src)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_nonpositive_tau(self, octant_basis, tau):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.raises(ValueError, match="tau must be positive"):
            cds3d.green_3d(basis, tau, src.r0, src.phi0, src.theta0, src)

    def test_rejects_negative_radius(self, octant_basis):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.raises(ValueError, match="r must be non-negative"):
            cds3d.green_3d(basis, 1.0, [1.0, -0.5], src.phi0, src.theta0,
                           src)

    def test_volume_integral_is_survival_identity(self, octant_basis):
        # with the shared caches the equality is algebraic: integrating
        # the mode profiles with the mass matrix reproduces s_n exactly
        spec, basis = octant_basis
        src = _source(octant_basis)
        verts = basis.mesh.vertices
        _, M = fem._assemble_full(basis.mesh)
        one_m = M.sum(axis=0)
        r_nodes, r_w = gauss_legendre(200, 1e-9, src.r0 + 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tot = 0.0
            for rk, wk in zip(r_nodes, r_w):
                gk = cds3d.green_3d(basis, 1.0, rk, verts[:, 0],
                                    verts[:, 1], src)
                tot += wk * rk * rk * float(one_m @ gk)
            q = cds3d.survival_3d(basis, 1.0, src)
        assert tot == pytest.approx(q, rel=1e-10)

    def test_volume_integral_independent_quadrature(self, octant_basis):
        # edge-midpoint sampling does not share nodes with any cache,
        # so this one is a true mesh-limited consistency check
        spec, basis = octant_basis
        src = _source(octant_basis)
        mesh = basis.mesh
        tri = mesh.triangles
        v = mesh.vertices
        p1, p2, p3 = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
        area = 0.5 * np.abs(
            (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
            - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))
        mids = np.concatenate([(p1 + p2) / 2, (p2 + p3) / 2, (p3 + p1) / 2])
        ang_w = np.concatenate([area, area, area]) / 3.0 * np.sin(mids[:, 1])
        r_nodes, r_w = gauss_legendre(100, 1e-9, src.r0 + 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tot = 0.0
            for rk, wk in zip(r_nodes, r_w):
                gk = cds3d.green_3d(basis, 1.0, rk, mids[:, 0],
                                    mids[:, 1], src)
                tot += wk * rk * rk * float(ang_w @ gk)
            q = cds3d.survival_3d(basis, 1.0, src)
        assert tot == pytest.approx(q, rel=1e-3)

    def test_factorizes_when_uncorrelated(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        x, y, z = 1.2, 1.0, 2.0
        tgt = cds3d.transform_3d(spec, x, y, z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g3 = cds3d.green_3d(basis, 1.0, tgt.r0, tgt.phi0, tgt.theta0,
                                src)
        g_prod = (cds1d.green_1d_images(1.0, X0, x)
                  * cds1d.green_1d_images(1.0, Y0, y)
                  * cds1d.green_1d_images(1.0, Z0, z))
        assert g3 == pytest.approx(g_prod, rel=0.03)


class TestSurvival3d:
    def test_radial_closed_form_matches_quadrature(self, basis_table1):
        # the log-space confluent form per mode against brute Gauss
        # integration of the Bessel kernel times r^2
        spec, basis = basis_table1
        src = _source(basis_table1)
        psi0 = fem.eval_basis(basis, src.phi0, src.theta0)[0]
        for tau in (0.5, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q = cds3d.survival_3d(basis, tau, src)
            r_nodes, r_w = gauss_legendre(
                1600, 1e-9, src.r0 + 14.0 * np.sqrt(tau))
            acc = 0.0
            for n in range(basis.n_modes):
                nu = basis.nu[n]
                rad = (np.exp(-(r_nodes - src.r0) ** 2 / (2.0 * tau))
                       / (tau * np.sqrt(r_nodes * src.r0))
                       * bessel_i_scaled(nu, r_nodes * src.r0 / tau))
                acc += (psi0[n] * basis.s_n[n]
                        * np.sum(r_w * rad * r_nodes ** 2))
            assert acc == pytest.approx(q, rel=1e-10)

    def test_factorizes_when_uncorrelated(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        for tau in (1.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q3 = cds3d.survival_3d(basis, tau, src)
            q_prod = (cds1d.survival_1d(tau, X0)
                      * cds1d.survival_1d(tau, Y0)
                      * cds1d.survival_1d(tau, Z0))
            assert q3 == pytest.approx(q_prod, rel=1e-2)

    def test_small_radius_kills_survival(self, octant_basis):
        _, basis = octant_basis
        src = cds3d.SphericalPoint(r0=1e-8, phi0=0.6, theta0=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q = cds3d.survival_3d(basis, 1.0, src)
        assert 0.0 <= q < 1e-6

    def test_bounded_in_unit_interval(self, basis_table1):
        _, basis = basis_table1
        src = _source(basis_table1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for tau in (0.1, 1.0, 10.0, 50.0):
                q = cds3d.survival_3d(basis, tau, src)
                assert 0.0 <= q <= 1.0

    def test_monotone_in_time_and_distances(self, basis_table1):
        spec, basis = basis_table1
        pts = [0.8, 1.3, 1.9]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = {}
            for it, tau in enumerate((0.5, 1.5)):
                for ix, x in enumerate(pts):
                    for iy, y in enumerate(pts):
                        for iz, z in enumerate(pts):
                            s = cds3d.transform_3d(spec, x, y, z)
                            vals[(it, ix, iy, iz)] = cds3d.survival_3d(
                                basis, tau, s)
        for (it, ix, iy, iz), q in vals.items():
            for key in ((it, ix + 1, iy, iz), (it, ix, iy + 1, iz),
                        (it, ix, iy, iz + 1)):
                if key in vals:
                    assert vals[key] >= q - 1e-9
            later = (1, ix, iy, iz)
            if it == 0:
                assert vals[later] <= q + 1e-9

    def test_bounded_by_pairwise_survivals(self, basis_table1):
        spec, basis = basis_table1
        src = _source(basis_table1)
        for tau in (1.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q3 = cds3d.survival_3d(basis, tau, src)
            pairs = [cds2d.survival_2d(tau, cds2d.to_wedge(X0, Y0, 0.8)),
                     cds2d.survival_2d(tau, cds2d.to_wedge(X0, Z0, 0.5)),
                     cds2d.survival_2d(tau, cds2d.to_wedge(Y0, Z0, 0.3))]
            singles = [cds1d.survival_1d(tau, v) for v in (X0, Y0, Z0)]
            # slack covers the eigen-series truncation of the 3D value;
            # the 2D comparisons are converged far beyond it
            assert q3 <= min(pairs) + 1e-3
            assert min(pairs) <= min(singles) + 1e-9

    def test_rejects_array_tau(self, octant_basis):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.raises(ValueError, match="tau must be a positive scalar"):
            cds3d.survival_3d(basis, [1.0, 2.0], src)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_nonpositive_tau(self, octant_basis, tau):
        _, basis = octant_basis
        src = _source(octant_basis)
        with pytest.raises(ValueError, match="tau must be positive"):
            cds3d.survival_3d(basis, tau, src)

    def test_truncation_warning_for_short_horizon(self, basis_table1):
        _, basis = basis_table1
        src = _source(basis_table1)
        with pytest.warns(cds3d.TruncationWarning):
            cds3d.survival_3d(basis, 0.25, src)

    def test_series_depth_insensitive_when_suppressed(self, basis_table1):
        # the radial factor damps high orders once r0^2/2tau is moderate
        spec, basis = basis_table1
        src = _source(basis_table1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b50 = fem.truncate_basis(basis, 50)
            b80 = fem.truncate_basis(basis, 80)
            for tau in (1.0, 5.0):
                q50 = cds3d.survival_3d(b50, tau, src)
                q80 = cds3d.survival_3d(b80, tau, src)
                assert q50 == pytest.approx(q80, rel=1e-3)
            near = cds3d.transform_3d(spec, 0.9, 1.2, 1.0)
            q50 = cds3d.survival_3d(b50, 0.25, near)
            q80 = cds3d.survival_3d(b80, 0.25, near)
            assert q50 == pytest.approx(q80, rel=1e-3)


class TestBoundaryDerivativeSampler:
    def test_refinement_convergence(self, octant_basis):
        # doubling the vertex count: integrated ground-mode face fluxes
        # are quadrature-grade
        spec, coarse = octant_basis
        mesh_f = domain3d.build_mesh(spec, n_points=3000, seed=0)
        fine = fem.build_basis(mesh_f, n_modes=8)
        fl_c = cds3d._variational_face_fluxes(coarse, spec)
        fl_f = cds3d._variational_face_fluxes(fine, spec)
        for name in ("seller_coeff", "buyer_coeff", "reference_coeff"):
            a = getattr(fl_c, name)[:, 0].sum()
            b = getattr(fl_f, name)[:, 0].sum()
            assert a == pytest.approx(b, rel=0.02)


class TestVariationalFluxes:
    def test_total_flux_identity(self, basis_table1):
        # row sums of the stiffness vanish, so summing the residual over
        # every vertex must give -lambda^2 times the mode's surface mass
        _, basis = basis_table1
        K, M = fem._assemble_full(basis.mesh)
        resid = K @ basis.psi - M @ basis.psi * basis.lam2
        total = resid.sum(axis=0)
        target = -basis.lam2 * basis.s_n
        scale = np.abs(resid).sum(axis=0).max()
        assert np.abs(total - target).max() < 1e-10 * scale

    def test_ground_mode_outward_flux_nonpositive(self, octant_basis):
        spec, basis = octant_basis
        fl = cds3d._variational_face_fluxes(basis, spec)
        assert fl.seller_coeff[:, 0].max() < 5e-3
        assert fl.buyer_coeff[:, 0].max() < 5e-3
        assert fl.reference_coeff[:, 0].max() < 5e-3
        assert fl.seller_coeff[:, 0].min() < -1e-2
        assert fl.buyer_coeff[:, 0].min() < -1e-2

    def test_face_node_counts_cover_boundary(self, octant_basis):
        spec, basis = octant_basis
        fl = cds3d._variational_face_fluxes(basis, spec)
        n_faces = (len(fl.seller_theta) + len(fl.buyer_phi)
                   + len(fl.reference_theta))
        n_boundary = int(basis.mesh.boundary_mask.sum())
        # everything except the handful of chart-floor nodes
        assert n_boundary - n_faces < 0.35 * n_boundary


class TestPricing:
    def test_adjustments_nonnegative(self, basis_table1):
        spec, basis = basis_table1
        src = _source(basis_table1)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        cva = cds3d.cva_3d(grid, TERMS.coupon)
        dva = cds3d.dva_3d(grid, TERMS.coupon)
        assert cva > 0.0
        assert dva > 0.0
        assert cva < 0.6    # bounded by the loss-given-default cap
        assert dva < 0.6

    def test_quadrature_refinement_stable(self, basis_table1):
        spec, basis = basis_table1
        src = _source(basis_table1)
        g1 = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        g2 = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4,
                                   n_time=96, n_radial=400)
        c1 = cds3d.cva_3d(g1, TERMS.coupon)
        c2 = cds3d.cva_3d(g2, TERMS.coupon)
        d1 = cds3d.dva_3d(g1, TERMS.coupon)
        d2 = cds3d.dva_3d(g2, TERMS.coupon)
        assert c1 == pytest.approx(c2, rel=5e-4)
        assert d1 == pytest.approx(d2, rel=5e-4)

    def test_seller_reference_correlation_raises_cva(
            self, octant_basis, basis_table1):
        spec_o, basis_o = octant_basis
        spec_t, basis_t = basis_table1
        cva_o = cds3d.cva_3d(cds3d.prepare_pricing(
            basis_o, _source(octant_basis), TERMS, 0.5, 0.4), TERMS.coupon)
        cva_t = cds3d.cva_3d(cds3d.prepare_pricing(
            basis_t, _source(basis_table1), TERMS, 0.5, 0.4), TERMS.coupon)
        assert cva_t > 1.5 * cva_o

    def test_cva_falls_as_seller_gets_safer(self, basis_table1):
        spec, basis = basis_table1
        vals = []
        for x0 in (X0, 2.5, 4.0):
            src = cds3d.transform_3d(spec, x0, Y0, Z0)
            grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
            vals.append(cds3d.cva_3d(grid, TERMS.coupon))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.2 * vals[0]

    def test_dva_falls_as_buyer_gets_safer(self, basis_table1):
        spec, basis = basis_table1
        near = cds3d.transform_3d(spec, X0, Y0, Z0)
        far = cds3d.transform_3d(spec, X0, Y0, 3.0)
        d_near = cds3d.dva_3d(
            cds3d.prepare_pricing(basis, near, TERMS, 0.5, 0.4), TERMS.coupon)
        d_far = cds3d.dva_3d(
            cds3d.prepare_pricing(basis, far, TERMS, 0.5, 0.4), TERMS.coupon)
        assert d_far < d_near

    def test_reduces_to_two_driver_price(self, reduction_basis):
        # independent, comfortably distant buyer: the three-driver CVA
        # collapses onto the two-driver wedge value
        spec, basis = reduction_basis
        src = cds3d.transform_3d(spec, X0, Y0, 6.0)
        c3 = cds3d.cva_3d(cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4),
                          TERMS.coupon)
        wedge = cds2d.to_wedge(X0, Y0, 0.8)
        c2 = cds2d.cva_2d(wedge, TERMS, recovery_seller=0.5)
        assert c3 == pytest.approx(c2, rel=0.05)
        # past z0 = 4 sqrt(T), where the buyer's crossing mass
        # erfc(z0/sqrt(2T)) bounds every gap to the two-name problem, the
        # three-name values are the wedge's own, bit for bit, and the
        # buyer's default, the only source of DVA, is dropped
        q2 = cds2d.survival_2d(TERMS.maturity, wedge)
        for z0 in (10.0, 50.0):
            src = cds3d.transform_3d(spec, X0, Y0, z0)
            grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
            assert cds3d.cva_3d(grid, TERMS.coupon) == c2
            assert cds3d.dva_3d(grid, TERMS.coupon) == 0.0
            assert cds3d.survival_3d(basis, TERMS.maturity, src) == q2


def _face_weights(basis, src, n_time, n_radial):
    """prepare_pricing's cell weights on the full (time, radius, face
    node) grid of each face, seller then buyer, with the time left and
    the reference distance of every cell."""
    spec = src.domain
    t, t_w = gauss_legendre(n_time, 0.0, TERMS.maturity)
    r_hi = src.r0 + 8.0 * np.sqrt(TERMS.maturity)
    r, r_w = gauss_legendre(n_radial, r_hi * 1e-6, r_hi)
    z, base = cds3d._radial_grid(t[:, None], r, src.r0)
    table = IveTable(basis.nu, z, base)
    fluxes = cds3d._variational_face_fluxes(basis, spec)
    coeff = np.concatenate([fluxes.seller_coeff, fluxes.buyer_coeff]).T
    flux = table.sums(bessel_i_scaled(*table.asks), coeff * fem.eval_basis(
        basis, src.phi0, src.theta0)[0][:, None])
    cell_w = base * (-0.5 * t_w * np.exp(-TERMS.rate * t))[:, None] * r_w
    x_gap, _, z_gap = src.drivers
    out = []
    for face, gap, y in zip(np.split(flux, [len(fluxes.seller_theta)],
                                     axis=2), (x_gap, z_gap),
                            cds3d._face_distances(spec, fluxes, r)):
        taper = np.exp(np.minimum(
            0.0, cds3d._REACH_EXPONENT - gap * gap / (2.0 * t)))
        weight = face * (taper[:, None] * cell_w)[:, :, None]
        tau_left, y = np.broadcast_arrays(
            (TERMS.maturity - t)[:, None, None], y[None])
        out.append((weight, tau_left, y))
    return out


class TestPricingGrid:
    def test_values_match_closed_form_on_face_grids(self, basis_table1):
        # D - coupon A, kept once per grid on the cells of nonzero
        # weight, reproduces the 1D closed form there at every coupon
        # bit for bit, and the dropped cells are the zero-weight ones
        _, basis = basis_table1
        src = _source(basis_table1)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        faces = _face_weights(basis, src, 48, 200)
        for cells, (weight, tau_left, y) in zip((grid.seller, grid.buyer),
                                                faces):
            live = weight != 0.0
            assert 0 < live.sum() < live.size
            assert np.array_equal(cells.weight, weight[live])
            for coupon in (0.01, 0.035):
                t = replace(TERMS, coupon=coupon)
                want = cds1d.cds_values_1d(tau_left, y, t)[live]
                got = cells.default - coupon * cells.annuity
                assert np.array_equal(got, want)

    def test_legs_only_on_nonzero_weights(self, basis_table1, monkeypatch):
        # the 1D legs are evaluated on the kept cells alone, and no cell
        # of exactly 0 weight is kept
        _, basis = basis_table1
        sizes = []
        legs = cds1d._legs_1d

        def recorded(tau, y0, rate, recovery):
            if np.ndim(y0):
                sizes.append(np.broadcast(tau, y0).size)
            return legs(tau, y0, rate, recovery)

        monkeypatch.setattr(cds1d, "_legs_1d", recorded)
        monkeypatch.setattr(cds2d, "_legs_1d", recorded)
        grid = cds3d.prepare_pricing(basis, _source(basis_table1), TERMS,
                                     0.5, 0.4, n_time=24, n_radial=100)
        cells = (grid.seller, grid.buyer)
        assert sizes == [c.weight.size for c in cells]
        for c in cells:
            assert np.all(c.weight != 0.0)
            assert c.default.shape == c.annuity.shape == c.weight.shape

    def test_asks_fewer_bessel_values_than_the_grid(self, basis_table1,
                                                    monkeypatch):
        # one library call for the grid's Bessel table: its nodes and the
        # cells of the orders it asks directly
        spec, basis = basis_table1
        asked, tables = [], []

        def counting(nu, x):
            asked.append(np.broadcast(nu, x).size)
            return bessel_i_scaled(nu, x)

        class Recording(IveTable):
            def __init__(self, nu, z, pref):
                super().__init__(nu, z, pref)
                self.n_cells = self.n_live.sum()
                tables.append(self)

        monkeypatch.setattr(cds3d, "bessel_i_scaled", counting)
        monkeypatch.setattr(cds3d, "IveTable", Recording)
        cds3d.prepare_pricing(basis, _source(basis_table1), TERMS, 0.5,
                              0.4, n_time=24, n_radial=100)
        assert len(tables) == len(asked) == 1
        assert 0 < asked[0] == len(tables[0].asks[0])
        assert asked[0] < tables[0].n_cells / 5

    def test_live_weights_match_full_grid(self, basis_table1):
        # the kept weights against every (time, radius, order) cell, and
        # the stated bound on what the skipped cells held; a dropped cell
        # counts as 0
        spec, basis = basis_table1
        src = _source(basis_table1)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4,
                                     n_time=24, n_radial=100)
        t, t_w = gauss_legendre(24, 0.0, TERMS.maturity)
        r_hi = src.r0 + 8.0 * np.sqrt(TERMS.maturity)
        r, r_w = gauss_legendre(100, r_hi * 1e-6, r_hi)
        r0, nu = src.r0, basis.nu
        base = (np.exp(-(r[None, :] - r0) ** 2 / (2.0 * t[:, None]))
                / (t[:, None] * np.sqrt(r[None, :] * r0)))
        z = np.multiply.outer(1.0 / t, r * r0)
        bess = bessel_i_scaled(nu, z[:, :, None])
        kept = IveTable(nu, z, base).n_live.reshape(base.shape)
        ive_c = np.where(kept > 0, np.take_along_axis(
            bess, np.maximum(kept - 1, 0)[:, :, None], axis=2)[:, :, 0],
            1.0)
        psi0 = fem.eval_basis(basis, src.phi0, src.theta0)[0]
        fluxes = cds3d._variational_face_fluxes(basis, spec)
        x_gap, _, z_gap = src.drivers
        cell_w = (0.5 * t_w * np.exp(-TERMS.rate * t))[:, None] * r_w
        for cells, coeff, gap, (weight, _, _) in zip(
                (grid.seller, grid.buyer),
                (fluxes.seller_coeff, fluxes.buyer_coeff), (x_gap, z_gap),
                _face_weights(basis, src, 24, 100)):
            taper = np.exp(np.minimum(
                0.0, cds3d._REACH_EXPONENT - gap * gap / (2.0 * t)))
            scale = (taper[:, None] * cell_w)[:, :, None]   # |-1/2 ...|
            terms_n = psi0[:, None] * coeff.T          # (n, k)
            full = -np.einsum("ijn,nk->ijk", base[:, :, None] * bess,
                              terms_n) * scale
            got = np.zeros_like(full)
            got[weight != 0.0] = cells.weight
            diff = np.abs(got - full)
            assert diff.max() <= 1e-12 * np.abs(full).max()
            tail = np.concatenate([np.cumsum(np.abs(terms_n)[::-1],
                                             axis=0)[::-1],
                                   np.zeros((1, terms_n.shape[1]))])
            bound = scale * (base * ive_c)[:, :, None] * tail[kept]
            round_off = IVE_TABLE_RTOL * np.einsum(
                "ijn,nk->ijk", base[:, :, None] * bess,
                np.abs(terms_n)) * scale
            assert np.all(diff <= bound + round_off)

    def test_takes_the_contract_from_its_source(self, basis_table1):
        # the plain legs at the reference's own distance, and no grid for
        # a source that carries no chart
        _, basis = basis_table1
        grid = cds3d.prepare_pricing(basis, _source(basis_table1), TERMS,
                                     0.5, 0.4, n_time=8, n_radial=16)
        d0, a0 = cds1d._legs_1d(TERMS.maturity, Y0, TERMS.rate,
                                TERMS.recovery)
        assert (grid.d0, grid.a0) == (d0, a0)
        bare = cds3d.SphericalPoint(r0=3.0, phi0=0.6, theta0=0.8)
        with pytest.raises(ValueError, match="transform_3d"):
            cds3d.prepare_pricing(basis, bare, TERMS, 0.5, 0.4)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, float("nan")])
    def test_refuses_recovery_outside_unit_interval(self, basis_table1, bad):
        _, basis = basis_table1
        src = _source(basis_table1)
        for recoveries in ((bad, 0.4), (0.5, bad)):
            with pytest.raises(ValueError, match="recovery"):
                cds3d.prepare_pricing(basis, src, TERMS, *recoveries,
                                      n_time=8, n_radial=16)

    @pytest.mark.parametrize("z0", [Z0, 50.0], ids=["near", "far_buyer"])
    def test_seller_recovery_scales_only_the_cva(self, basis_table1, z0):
        # the grid carries its recoveries: on the three-name grid and on
        # a far buyer's, whose seller leg is the wedge's, a seller that
        # recovers nothing doubles the CVA of one that recovers half
        spec, basis = basis_table1
        src = cds3d.transform_3d(spec, X0, Y0, z0)
        half, none = (cds3d.prepare_pricing(basis, src, TERMS, rec_s, 0.4,
                                            n_time=8, n_radial=16)
                      for rec_s in (0.5, 0.0))
        assert cds3d.cva_3d(none, TERMS.coupon) == 2.0 * cds3d.cva_3d(
            half, TERMS.coupon) > 0.0
        assert cds3d.dva_3d(none, TERMS.coupon) == cds3d.dva_3d(
            half, TERMS.coupon)


class TestBreakeven:
    def test_orderings_and_plain_reduction(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        bec = {m: cds3d.breakeven_coupon_3d(grid, m)
               for m in ("none", "cva", "dva", "bilateral")}
        assert bec["none"] == pytest.approx(
            cds1d.breakeven_coupon_1d(5.0, Y0, 0.02, 0.4), rel=1e-12)
        assert bec["cva"] < bec["bilateral"] < bec["none"] < bec["dva"]

    def test_bilateral_root_zeroes_adjusted_value(self, octant_basis):
        spec, basis = octant_basis
        src = _source(octant_basis)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        c = cds3d.breakeven_coupon_3d(grid, "bilateral")
        t2 = CdsTerms(coupon=c, rate=TERMS.rate, recovery=TERMS.recovery,
                      maturity=TERMS.maturity)
        v = (cds1d.cds_values_1d(5.0, Y0, t2)
             - cds3d.cva_3d(grid, t2.coupon)
             + cds3d.dva_3d(grid, t2.coupon))
        assert abs(v) < 1e-9

    def test_unreachable_buyer_root_zeroes_adjusted_value(
            self, reduction_basis, monkeypatch):
        # a buyer that cannot default by maturity is priced on the
        # seller-reference wedge alone: no three-name kernel, no DVA
        spec, basis = reduction_basis
        src = cds3d.transform_3d(spec, X0, Y0, 50.0)

        def no_kernel(*args, **kwargs):
            raise AssertionError("three-name kernel evaluated")

        monkeypatch.setattr(cds3d, "IveTable", no_kernel)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4)
        bec = {m: cds3d.breakeven_coupon_3d(grid, m)
               for m in ("none", "cva", "bilateral")}
        assert bec["cva"] == bec["bilateral"] < bec["none"]
        t2 = CdsTerms(coupon=bec["bilateral"], rate=TERMS.rate,
                      recovery=TERMS.recovery, maturity=TERMS.maturity)
        v = (cds1d.cds_values_1d(5.0, Y0, t2)
             - cds3d.cva_3d(grid, t2.coupon)
             + cds3d.dva_3d(grid, t2.coupon))
        assert abs(v) < 1e-9

    def test_far_buyer_prices_with_few_wedge_quadratures(
            self, reduction_basis, monkeypatch):
        # the CVA-only root by Newton and the CVA at the contract coupon;
        # the bilateral root is the CVA-only one past the buyer cut, and
        # a near buyer's contract runs no wedge quadrature
        spec, basis = reduction_basis
        src = cds3d.transform_3d(spec, X0, Y0, 50.0)
        calls = []
        quadrature = cds2d._wedge_cells

        def counting(*args, **kwargs):
            calls.append(args[1].coupon)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(cds2d, "_wedge_cells", counting)
        monkeypatch.setattr(cds3d, "_wedge_cells", counting)
        p = cds3d.price_3d(cds3d.prepare_pricing(basis, src, TERMS, 0.5,
                                                 0.4))
        assert len(calls) <= 5
        assert p.bec_cva_only == p.bec_bilateral < p.bec_1d
        assert p.bec_dva_only == p.bec_1d
        del calls[:]
        cds3d.price_3d(cds3d.prepare_pricing(
            basis, _source(reduction_basis), TERMS, 0.5, 0.4, n_time=24,
            n_radial=100))
        assert calls == []

    def test_far_seller_bilateral_is_the_dva_only_root(
            self, basis_table1, monkeypatch):
        # a seller 1e3 from its barrier: its tapered weights all
        # underflow, so its leg has no cells and the bilateral coupon is
        # the DVA-only one, with no root of its own
        spec, basis = basis_table1
        src = cds3d.transform_3d(spec, 1e3, Y0, Z0)
        grid = cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4, n_time=24,
                                     n_radial=100)
        assert grid.seller.weight.size == 0 < grid.buyer.weight.size
        adjusts = []
        root = cds3d.breakeven_coupon_3d

        def recorded(*args):
            adjusts.append(args[-1])
            return root(*args)

        monkeypatch.setattr(cds3d, "breakeven_coupon_3d", recorded)
        p = cds3d.price_3d(grid)
        assert "bilateral" not in adjusts
        assert p.cva == 0.0 < p.dva
        assert p.bec_bilateral == p.bec_dva_only
        assert p.bec_bilateral == cds3d.breakeven_coupon_3d(grid,
                                                            "bilateral")

    @pytest.mark.parametrize("bundle, maturity", [
        ("octant_basis", 1.0), ("octant_basis", 5.0),
        ("basis_mixed_neg", 1.0), ("basis_mixed_neg", 5.0),
        ("reduction_basis", 5.0)])
    def test_newton_roots_match_tight_brentq(self, request, bundle,
                                             maturity):
        # the adjusted roots against a tight brentq of the reported legs;
        # the reduction basis's buyer at z = 50 is past the cut, so its
        # leg has no cells and the seller's is the two-name wedge's,
        # where the CVA-only root is the one that steps on the wedge
        # quadrature
        spec, basis = request.getfixturevalue(bundle)
        far = bundle == "reduction_basis"
        src = cds3d.transform_3d(spec, X0, Y0, 50.0 if far else Z0)
        terms = replace(TERMS, maturity=maturity)
        grid = cds3d.prepare_pricing(basis, src, terms, 0.5, 0.4)
        assert (grid.buyer.weight.size == 0) == far
        d0, a0 = cds1d._legs_1d(maturity, Y0, terms.rate, terms.recovery)
        for adjust in ("cva",) if far else ("cva", "dva", "bilateral"):
            got = cds3d.breakeven_coupon_3d(grid, adjust)

            def adjusted(coupon):
                value = d0 - coupon * a0
                if adjust != "dva":
                    value -= cds3d.cva_3d(grid, coupon)
                if adjust != "cva":
                    value += cds3d.dva_3d(grid, coupon)
                return value

            want = brentq(adjusted, 0.5 * d0 / a0, 2.0 * d0 / a0,
                          xtol=1e-15, rtol=1e-15)
            assert got == pytest.approx(want, rel=1e-12), adjust

    @pytest.mark.parametrize("adjust", ["CVA", "both", None])
    def test_rejects_unknown_adjust(self, octant_basis, adjust):
        _, basis = octant_basis
        grid = cds3d.prepare_pricing(basis, _source(octant_basis), TERMS,
                                     0.5, 0.4, n_time=8, n_radial=16)
        with pytest.raises(ValueError, match="none, cva, dva, bilateral"):
            cds3d.breakeven_coupon_3d(grid, adjust)

    def test_safe_buyer_roots_on_the_reported_legs(self):
        # at 1y the raw buyer leg of this safe buyer is a hair negative
        # (-3e-8); dva_3d reports it as 0, and the roots must agree
        spec = domain3d.build_domain(CorrelationTriple(0.8, 0.5, 0.3))
        mesh = domain3d.build_mesh(spec, n_points=500, seed=0)
        basis = fem.build_basis(mesh, n_modes=60)
        x0, y0, z0 = 1.863937644072288, 2.503456943005701, 2.985653180560821
        src = cds3d.transform_3d(spec, x0, y0, z0)
        terms = replace(TERMS, maturity=1.0)
        grid = cds3d.prepare_pricing(basis, src, terms, 0.5, 0.4,
                                     n_time=24, n_radial=100)
        bec = {m: cds3d.breakeven_coupon_3d(grid, m)
               for m in ("none", "cva", "dva", "bilateral")}
        # the roots carry the Newton stop's 1e-12 round-off
        assert bec["dva"] >= bec["none"] * (1.0 - 1e-12)
        assert bec["bilateral"] >= bec["cva"] * (1.0 - 1e-12)
        t2 = replace(terms, coupon=bec["bilateral"])
        v = (cds1d.cds_values_1d(1.0, y0, t2)
             - cds3d.cva_3d(grid, t2.coupon)
             + cds3d.dva_3d(grid, t2.coupon))
        assert abs(v) < 1e-9


@pytest.fixture(scope="module")
def bench_basis():
    """The benchmark's basis size: 500 points, 60 modes, table-1 rho."""
    spec = domain3d.build_domain(CorrelationTriple(0.8, 0.5, 0.3))
    mesh = domain3d.build_mesh(spec, n_points=500, seed=0)
    return spec, fem.build_basis(mesh, n_modes=60)


class TestFrozenPrices:
    # price_3d on 24 x 100 nodes against frozen values: 1e-10 relative
    # is far above the round-off of the legs' summation order (1e-14)
    # and of another platform's eigensolve, and far below the
    # quadrature's own error (about 1e-5)
    @pytest.mark.parametrize("z0, want", [
        (Z0, (0.024847469247223957, 0.017914785323661277,
              0.025480039464848767, 0.018317157124150253,
              0.029751809141740346, 0.0018695698255185155)),
        (50.0, (0.024847469247223957, 0.016095824996710417,
                0.024847469247223957, 0.016095824996710417,
                0.03655065292663736, 0.0))])
    def test_prices_against_frozen_values(self, bench_basis, z0, want):
        spec, basis = bench_basis
        src = cds3d.transform_3d(spec, X0, Y0, z0)
        p = cds3d.price_3d(cds3d.prepare_pricing(basis, src, TERMS, 0.5, 0.4,
                                                 n_time=24, n_radial=100))
        assert (p.bec_1d, p.bec_cva_only, p.bec_dva_only, p.bec_bilateral,
                p.cva, p.dva) == pytest.approx(want, rel=1e-10, abs=0.0)
