"""Chart geometry and mesh generation for the three-driver domain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricva.cli import _triangle_min_angles
from tricva.model import CorrelationTriple
from tricva import domain3d as d3, fem

# frozen with mpmath at 25 digits
GEOMETRY_REFERENCES = [
    # rho_xy, rho_xz, rho_yz, chi, Theta(0), Theta(inf)
    ((0.8, 0.2, 0.5), 0.47958315233127195,
     2.1875031202784182, 1.1756966595085071),
    ((0.2, -0.1, -0.6), 0.7835815209663893,
     0.93360258330030844, 1.5963146143712298),
]


def make_domain(rho):
    return d3.build_domain(CorrelationTriple(*rho))


class TestGeometry:
    def test_octant_is_a_right_corner(self):
        spec = make_domain((0.0, 0.0, 0.0))
        assert spec.varpi == pytest.approx(np.pi / 2, abs=1e-15)
        assert spec.chi == pytest.approx(1.0, abs=1e-15)
        phi = np.linspace(0.0, spec.varpi, 17)
        assert d3.theta_max_at(spec, phi) == pytest.approx(
            np.full(17, np.pi / 2), abs=1e-12)

    @pytest.mark.parametrize("rho,chi,th0,thinf", GEOMETRY_REFERENCES)
    def test_frozen_angles(self, rho, chi, th0, thinf):
        spec = make_domain(rho)
        assert spec.chi == pytest.approx(chi, rel=1e-14)
        assert d3.theta_max_at(spec, 0.0) == pytest.approx(th0, rel=1e-13)
        assert d3.theta_max_at(spec, spec.varpi) == pytest.approx(
            thinf, rel=1e-13)

    def test_curve_parametrizations_agree(self):
        # theta_max_at inverts phi(omega); both must trace the same curve
        spec = make_domain((0.8, 0.2, 0.5))
        omega = np.linspace(0.0, 50.0, 200)
        phi = d3.phi_curve(spec, omega)
        assert d3.theta_max_at(spec, phi) == pytest.approx(
            d3.theta_curve(spec, omega), abs=1e-12)

    def test_omega_inversion_round_trip(self):
        spec = make_domain((0.2, -0.1, -0.6))
        omega = np.geomspace(1e-3, 1e3, 60)
        back = d3.omega_of_phi(spec, d3.phi_curve(spec, omega))
        assert back == pytest.approx(omega, rel=1e-9)

    def test_versors_unit_and_on_their_edges(self):
        for rho, *_ in GEOMETRY_REFERENCES:
            spec = make_domain(rho)
            e1, e2, e3 = d3.versors(spec)
            for e in (e1, e2, e3):
                assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-14)
            # e1 spans y = z = 0, e2 spans x = z = 0, e3 spans x = y = 0
            x, y, z = d3.correlate(spec, *e1)
            assert abs(y) < 1e-14 and abs(z) < 1e-14 and x > 0
            x, y, z = d3.correlate(spec, *e2)
            assert abs(x) < 1e-14 and abs(z) < 1e-14 and y > 0
            x, y, z = d3.correlate(spec, *e3)
            assert abs(x) < 1e-14 and abs(y) < 1e-14 and z > 0

    def test_corner_angles_match_curve(self):
        # the versor polar/azimuth angles sit where the faces say
        spec = make_domain((0.8, 0.2, 0.5))
        e1, e2, _ = d3.versors(spec)

        def angles(e):
            r = np.linalg.norm(e)
            return np.arctan2(e[0], e[1]), np.arccos(e[2] / r)

        phi1, th1 = angles(e1)   # y=z=0 corner: phi = varpi, theta = Theta
        assert phi1 == pytest.approx(spec.varpi, abs=1e-12)
        assert th1 == pytest.approx(d3.theta_max_at(spec, spec.varpi),
                                    abs=1e-12)
        phi2, th2 = angles(e2)   # x=z=0 corner: phi = 0, theta = Theta(0)
        assert phi2 == pytest.approx(0.0, abs=1e-12)
        assert th2 == pytest.approx(d3.theta_max_at(spec, 0.0), abs=1e-12)

    @given(x=st.floats(0.05, 5.0), y=st.floats(0.05, 5.0),
           z=st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_octant_maps_inside(self, x, y, z):
        spec = make_domain((0.8, 0.2, 0.5))
        a, b, g = d3.decorrelate(spec, x, y, z)
        r = np.sqrt(a * a + b * b + g * g)
        phi = np.arctan2(a, b)
        theta = np.arccos(g / r)
        assert 0.0 < phi < spec.varpi
        assert 0.0 < theta < d3.theta_max_at(spec, phi)
        xb, yb, zb = d3.correlate(spec, a, b, g)
        assert (xb, yb, zb) == pytest.approx((x, y, z), rel=1e-12)

    def test_rejects_degenerate_correlations(self):
        with pytest.raises(ValueError):
            make_domain((0.7, 0.7, -0.0205))

    def test_rejects_face_below_the_floor_at_an_end(self):
        # Theta(0) = 4.6e-4 < theta_floor, though mid-azimuth is clear
        with pytest.raises(ValueError, match="pole"):
            make_domain((0.3, 0.6, -0.58315128))
        # Theta(0) = 3.2e-3 clears the floor: still a chart
        spec = make_domain((0.1387, 0.757, -0.5421))
        assert d3.theta_max_at(spec, 0.0) > spec.theta_floor


class TestSignedDistance:
    def test_sign_and_straight_edge_values(self):
        spec = make_domain((0.8, 0.2, 0.5))
        mid_theta = 0.5 * d3.theta_max_at(spec, 0.3)
        assert d3.signed_distance(spec, [[0.3, mid_theta]])[0] < 0
        assert d3.signed_distance(spec, [[-0.1, mid_theta]])[0] == \
            pytest.approx(0.1, rel=1e-12)
        assert d3.signed_distance(
            spec, [[spec.varpi + 0.07, 0.9]])[0] == pytest.approx(
                0.07, rel=1e-9)
        deep = [[0.3, spec.theta_floor - 0.05]]
        assert d3.signed_distance(spec, deep)[0] == pytest.approx(
            0.05, rel=1e-9)

    def test_zero_on_curved_face(self):
        spec = make_domain((0.2, -0.1, -0.6))
        phi = np.linspace(0.05, spec.varpi - 0.05, 9)
        pts = np.column_stack([phi, d3.theta_max_at(spec, phi)])
        assert np.max(np.abs(d3.signed_distance(spec, pts))) < 1e-12

    def test_tracks_displacement_off_curved_face(self):
        spec = make_domain((0.8, 0.2, 0.5))
        phi = 0.9
        cap = d3.theta_max_at(spec, phi)
        for eps in (1e-3, 1e-2):
            d_out = d3.signed_distance(spec, [[phi, cap + eps]])[0]
            d_in = d3.signed_distance(spec, [[phi, cap - eps]])[0]
            assert 0 < d_out <= eps * (1 + 1e-9)
            assert -eps * (1 + 1e-9) <= d_in < 0
            # first-order distance: within 10% of the vertical gap scale
            assert d_out == pytest.approx(-d_in, rel=0.05)


class TestDelaunay:
    def brute_force_check(self, pts, tri):
        # every triangle's circumcircle must be empty of other points
        ok = True
        for t in tri:
            a, b, c = pts[t]
            m = np.array([[b[0] - a[0], b[1] - a[1]],
                          [c[0] - a[0], c[1] - a[1]]])
            rhs = 0.5 * np.array([m[0] @ (a + b), m[1] @ (a + c)])
            center = np.linalg.solve(m, rhs)
            r2 = ((a - center) ** 2).sum()
            d2 = ((pts - center) ** 2).sum(axis=1)
            d2[t] = np.inf
            ok &= bool(np.all(d2 >= r2 * (1 - 1e-9)))
        return ok

    def test_matches_empty_circumcircle_property(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(40, 2))
        tri = d3.delaunay(pts)
        assert self.brute_force_check(pts, tri)

    def test_covers_convex_hull_area(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(60, 2))
        tri = d3.delaunay(pts)
        v = pts[tri]
        area = 0.5 * np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])).sum()
        from scipy.spatial import ConvexHull
        assert area == pytest.approx(ConvexHull(pts).volume, rel=1e-10)


@pytest.fixture(scope="module")
def octant_mesh():
    spec = make_domain((0.0, 0.0, 0.0))
    return spec, d3.build_mesh(spec, n_points=600, seed=0)


class TestMesh:
    def test_point_count_near_request(self, octant_mesh):
        _, mesh = octant_mesh
        assert abs(len(mesh.vertices) - 600) < 0.1 * 600

    def test_vertices_inside_closure(self, octant_mesh):
        spec, mesh = octant_mesh
        sd = d3.signed_distance(spec, mesh.vertices)
        assert np.max(sd) <= 1e-9

    def test_boundary_mask_consistent(self, octant_mesh):
        spec, mesh = octant_mesh
        sd = d3.signed_distance(spec, mesh.vertices)
        assert np.all(np.abs(sd[mesh.boundary_mask]) < 1e-6)
        assert np.all(sd[~mesh.boundary_mask] < -1e-4)
        # all four corners of the chart are present
        corners = np.array([
            [0.0, spec.theta_floor],
            [spec.varpi, spec.theta_floor],
            [0.0, d3.theta_max_at(spec, 0.0)],
            [spec.varpi, d3.theta_max_at(spec, spec.varpi)]])
        dmin = np.min(np.linalg.norm(
            mesh.vertices[:, None, :] - corners[None, :, :], axis=2), axis=0)
        assert np.max(dmin) < 1e-9

    def test_triangles_index_every_vertex(self, octant_mesh):
        _, mesh = octant_mesh
        used = np.unique(mesh.triangles)
        assert np.array_equal(used, np.arange(len(mesh.vertices)))

    def test_edge_lengths_cluster_around_target(self, octant_mesh):
        _, mesh = octant_mesh
        lengths = mesh.edge_lengths()
        assert lengths.std() / lengths.mean() < 0.2
        assert lengths.max() / lengths.min() < 3.0

    def test_no_degenerate_triangles(self, octant_mesh):
        _, mesh = octant_mesh
        v = mesh.vertices[mesh.triangles]
        a = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
        b = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
        s = 0.5 * (a + b + c)
        area2 = np.maximum(s * (s - a) * (s - b) * (s - c), 0.0)
        q = 8.0 * area2 / (s * a * b * c)
        assert q.min() > 0.02

    def test_area_adds_up(self, octant_mesh):
        spec, mesh = octant_mesh
        v = mesh.vertices[mesh.triangles]
        area = 0.5 * np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])).sum()
        phi = np.linspace(0.0, spec.varpi, 2049)
        exact = np.trapezoid(d3.theta_max_at(spec, phi) - spec.theta_floor,
                             phi)
        # boundary is polygonal so the gap scales with h^2
        assert area == pytest.approx(exact, rel=5e-3)

    def test_deterministic_rebuild(self):
        spec = make_domain((0.2, -0.1, -0.6))
        m1 = d3.build_mesh(spec, n_points=400, seed=3)
        m2 = d3.build_mesh(spec, n_points=400, seed=3)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_one_delaunay_call_per_mesh(self, monkeypatch):
        calls = []
        delaunay = d3.delaunay

        def counted(points):
            calls.append(len(points))
            return delaunay(points)

        monkeypatch.setattr(d3, "delaunay", counted)
        for rho in ((0.0, 0.0, 0.0), (0.8, 0.2, 0.5)):
            calls.clear()
            mesh = d3.build_mesh(make_domain(rho), n_points=500)
            assert calls == [len(mesh.vertices)]

    def test_seed_leaves_the_mesh_unchanged(self):
        spec = make_domain((0.0, 0.0, 0.0))
        u0, u1 = (d3.build_mesh(spec, n_points=200, seed=s) for s in (0, 1))
        assert np.array_equal(u0.vertices, u1.vertices)
        assert np.array_equal(u0.triangles, u1.triangles)

    @pytest.mark.parametrize("rho,n_points", [
        ((0.0, 0.0, 0.0), 500), ((0.8, 0.2, 0.5), 600),
        ((0.2, -0.1, -0.6), 540), ((0.0, 0.0, 0.0), 1500)])
    def test_smallest_angle_and_vertex_count(self, rho, n_points):
        mesh = d3.build_mesh(make_domain(rho), n_points=n_points)
        assert _triangle_min_angles(mesh).min() >= 20.0
        assert abs(len(mesh.vertices) - n_points) <= 0.03 * n_points

    def test_triangles_are_locator_simplices(self, octant_mesh):
        # eval_basis interpolates on the FE triangles only if the
        # locator's Delaunay keeps every mesh triangle
        _, mesh = octant_mesh
        located = {tuple(t) for t in np.sort(
            fem._Locator(mesh).tri.simplices, axis=1)}
        assert {tuple(t) for t in np.sort(mesh.triangles, axis=1)} \
            <= located

    def test_distorted_chart_ground_mode_settles(self):
        # the buyer face passes within 3.2e-3 of the pole at phi = 0;
        # lambda_1 is 13.07 on a 6000-point mesh
        spec = make_domain((0.1387, 0.757, -0.5421))
        lam = [fem.build_basis(d3.build_mesh(spec, n_points=n),
                               n_modes=1).lam2[0] for n in (600, 1500)]
        assert lam[0] == pytest.approx(lam[1], rel=0.01)
        assert lam[1] == pytest.approx(13.07, rel=0.02)
