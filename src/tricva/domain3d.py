"""Spherical-triangle domain for three correlated drivers.

Decorrelating (x, y, z) maps the positive octant to a cone over a
geodesic triangle on the unit sphere. In the chart (phi, theta) the
domain is 0 < phi < varpi, theta_floor < theta < Theta(phi): the phi = 0
edge is the seller's barrier plane (x = 0), phi = varpi the reference's
(y = 0), and the curved edge theta = Theta(phi) the buyer's (z = 0).
theta = 0 is the chart image of a single point (the x = y = 0 corner),
kept off by a small floor.

Also contains the unstructured mesher for that chart region: exact
face nodes and a clipped hex lattice, triangulated by one Delaunay
call.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _Delaunay

from .model import validate_correlations

THETA_FLOOR = 1e-3


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the decorrelated chart for one correlation triple."""
    rho_xy: float
    rho_xz: float
    rho_yz: float
    varpi: float
    chi: float
    theta_floor: float

    @property
    def rho_bar_xy(self):
        return math.sqrt(1.0 - self.rho_xy ** 2)

    @property
    def rho_bar_xz(self):
        return math.sqrt(1.0 - self.rho_xz ** 2)

    @property
    def rho_bar_yz(self):
        return math.sqrt(1.0 - self.rho_yz ** 2)


def build_domain(corr):
    """Validate the correlations and assemble the chart geometry.

    The construction is checked on the spot: points on each chart face
    must land on the matching driver barrier when mapped back to the
    original coordinates.
    """
    validate_correlations(corr)
    spec = DomainSpec(rho_xy=corr.rho_xy, rho_xz=corr.rho_xz,
                      rho_yz=corr.rho_yz,
                      varpi=math.acos(-corr.rho_xy), chi=corr.chi(),
                      theta_floor=THETA_FLOOR)
    # the face must clear the floor at every azimuth, ends included, and
    # stand well off the pole at mid-azimuth (index 128 of 257)
    cap = theta_max_at(spec, np.linspace(0.0, spec.varpi, 257))
    if np.min(cap) <= THETA_FLOOR or cap[128] < 10.0 * THETA_FLOOR:
        raise ValueError("buyer face collapses onto the pole; correlations "
                         "too extreme for the chart")
    _check_orientation(spec)
    return spec


def theta_curve(spec, omega):
    """Polar angle of the buyer's face along its parameter omega >= 0.

    cos Theta = -(a + omega b) / (rbar_xy sqrt(rbar_xz^2
                - 2 omega (rho_xy - rho_xz rho_yz) + omega^2 rbar_yz^2))

    with a = rho_yz - rho_xy rho_xz and b = rho_xz - rho_xy rho_yz. The
    omega -> inf limit is taken analytically.
    """
    a = spec.rho_yz - spec.rho_xy * spec.rho_xz
    b = spec.rho_xz - spec.rho_xy * spec.rho_yz
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        norm = np.sqrt(spec.rho_bar_xz ** 2
                       - 2.0 * omega * (spec.rho_xy
                                        - spec.rho_xz * spec.rho_yz)
                       + omega ** 2 * spec.rho_bar_yz ** 2)
        c = -(a + omega * b) / (spec.rho_bar_xy * norm)
    c_inf = -b / (spec.rho_bar_xy * spec.rho_bar_yz)
    c = np.where(np.isfinite(c), c, c_inf)
    out = np.arccos(np.clip(c, -1.0, 1.0))
    return out if out.ndim else float(out)


def phi_curve(spec, omega):
    """Azimuth of the buyer's face along omega: atan2 form of
    arccos((1 - rho_xy omega)/sqrt(1 - 2 rho_xy omega + omega^2))."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.arctan2(omega * spec.rho_bar_xy, 1.0 - spec.rho_xy * omega)
    out = np.where(np.isfinite(omega), out, spec.varpi)
    return out if out.ndim else float(out)


def omega_of_phi(spec, phi):
    """Invert phi(omega); returns inf at phi = varpi."""
    phi = np.asarray(phi, dtype=float)
    den = spec.rho_bar_xy * np.cos(phi) + spec.rho_xy * np.sin(phi)
    with np.errstate(divide="ignore"):
        out = np.where(den > 0, np.sin(phi) / np.where(den > 0, den, 1.0),
                       np.inf)
    return out if out.ndim else float(out)


def theta_max_at(spec, phi):
    """Upper theta of the chart at azimuth phi (the buyer's face)."""
    return theta_curve(spec, omega_of_phi(spec, phi))


def versors(spec):
    """Unit vectors of the three barrier-plane intersections in the
    decorrelated frame: e1 = y=z=0 edge, e2 = x=z=0 edge, e3 = x=y=0."""
    rxy, rxz, ryz = spec.rho_xy, spec.rho_xz, spec.rho_yz
    bxy, bxz, byz = spec.rho_bar_xy, spec.rho_bar_xz, spec.rho_bar_yz
    chi = spec.chi
    e1 = np.array([chi / byz, -rxy * chi / (bxy * byz),
                   -(rxz - ryz * rxy) / (bxy * byz)])
    e2 = np.array([0.0, chi / (bxy * bxz), -(ryz - rxz * rxy) / (bxy * bxz)])
    e3 = np.array([0.0, 0.0, 1.0])
    return e1, e2, e3


def decorrelate(spec, x, y, z):
    """Map driver coordinates to the independent frame (alpha, beta,
    gamma)."""
    bxy, chi = spec.rho_bar_xy, spec.chi
    alpha = x
    beta = (y - spec.rho_xy * x) / bxy
    gamma = ((spec.rho_xy * spec.rho_yz - spec.rho_xz) * x
             + (spec.rho_xy * spec.rho_xz - spec.rho_yz) * y
             + bxy * bxy * z) / (bxy * chi)
    return alpha, beta, gamma


def correlate(spec, alpha, beta, gamma):
    """Inverse of decorrelate."""
    bxy, chi = spec.rho_bar_xy, spec.chi
    x = alpha
    y = spec.rho_xy * alpha + bxy * beta
    z = (gamma * bxy * chi
         - (spec.rho_xy * spec.rho_yz - spec.rho_xz) * x
         - (spec.rho_xy * spec.rho_xz - spec.rho_yz) * y) / (bxy * bxy)
    return x, y, z


def _chart_point(r, phi, theta):
    return (r * math.sin(theta) * math.sin(phi),
            r * math.sin(theta) * math.cos(phi),
            r * math.cos(theta))


def _check_orientation(spec):
    # each chart face must return to its driver barrier
    for theta in (0.3, 0.9):
        x, _, _ = correlate(spec, *_chart_point(1.0, 0.0, theta))
        if abs(x) > 1e-10:
            raise AssertionError("phi=0 face is not the seller barrier")
        _, y, _ = correlate(spec, *_chart_point(1.0, spec.varpi,
                                                min(theta, 0.99 * theta_max_at(
                                                    spec, spec.varpi))))
        if abs(y) > 1e-10:
            raise AssertionError("phi=varpi face is not the reference "
                                 "barrier")
    for phi in (0.25 * spec.varpi, 0.75 * spec.varpi):
        _, _, z = correlate(spec, *_chart_point(
            1.0, phi, theta_max_at(spec, phi)))
        if abs(z) > 1e-10:
            raise AssertionError("curved face is not the buyer barrier")


def signed_distance(spec, pts):
    """Approximate signed distance to the chart boundary, negative inside.

    Intersection of four signed fields: the three straight edges are
    exact half-plane distances and the curved face uses the slope-scaled
    vertical gap (theta - Theta(phi)) / sqrt(1 + Theta'^2). The zero set
    is the exact boundary; magnitudes are first-order near corners,
    which is all the mesher's clipping needs.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    phi, theta = pts[:, 0], pts[:, 1]
    phic = np.clip(phi, 0.0, spec.varpi)
    cap = theta_max_at(spec, phic)
    eps = 1e-6
    slope = (theta_max_at(spec, np.clip(phic + eps, 0.0, spec.varpi))
             - theta_max_at(spec, np.clip(phic - eps, 0.0, spec.varpi)))
    slope /= 2.0 * eps
    d_curve = (theta - cap) / np.sqrt(1.0 + slope ** 2)
    d = np.maximum.reduce([-phi, phi - spec.varpi,
                           spec.theta_floor - theta, d_curve])
    return d if d.ndim else float(d)


def delaunay(points):
    """Delaunay triangulation of 2D points; (m, 3) vertex indices."""
    return _Delaunay(points).simplices.copy()


@dataclass
class SurfaceMesh:
    """Unstructured triangulation of the chart region."""
    vertices: np.ndarray       # (n, 2) chart coordinates (phi, theta)
    triangles: np.ndarray      # (m, 3) indices
    boundary_mask: np.ndarray  # (n,) True where the vertex sits on an edge
    h0: float                  # node spacing

    def edge_lengths(self):
        v, t = self.vertices, self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        return np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1)


def _face_nodes(spec, h, phi_s, arc):
    """Boundary nodes at spacing about h, corners once each.

    The straight faces are split evenly; the curved face is split evenly
    in arc length (arc: cumulative length at the azimuths phi_s), with
    each node placed exactly on theta = Theta(phi).
    """
    fl = spec.theta_floor
    th0, th1 = theta_max_at(spec, 0.0), theta_max_at(spec, spec.varpi)

    def split(length):
        return np.linspace(0.0, 1.0, max(1, round(length / h)) + 1)

    phi_c = np.interp(split(arc[-1]) * arc[-1], arc, phi_s)
    u = split(spec.varpi)
    left, right = split(th0 - fl)[1:-1], split(th1 - fl)[1:-1]
    return np.vstack([
        np.column_stack([u * spec.varpi, np.full(len(u), fl)]),
        np.column_stack([np.zeros(len(left)), fl + left * (th0 - fl)]),
        np.column_stack([np.full(len(right), spec.varpi),
                         fl + right * (th1 - fl)]),
        np.column_stack([phi_c, theta_max_at(spec, phi_c)])])


def build_mesh(spec, n_points=1500, seed=0):
    """Delaunay mesh of the chart region from one triangulation.

    Nodes sit on the four faces at spacing about h (_face_nodes), and a
    hex lattice of spacing h adds its points more than h/2 inside. One
    Delaunay call triangulates them all; triangles whose centroid lies
    outside the chart are dropped. h solves the expected vertex count
    for area A and perimeter P: the lattice's 2A/(sqrt(3) h^2), less the
    P/(sqrt(3) h) it loses in the h/2 strip, plus P/h face nodes. seed
    is accepted and ignored: the mesh is deterministic.
    """
    phi_s = np.linspace(0.0, spec.varpi, 2049)
    cap_s = theta_max_at(spec, phi_s)
    area = float(np.trapezoid(cap_s - spec.theta_floor, phi_s))
    arc = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(phi_s),
                                                    np.diff(cap_s)))])
    perim = (spec.varpi + cap_s[0] + cap_s[-1] - 2.0 * spec.theta_floor
             + arc[-1])
    a = 2.0 * area / math.sqrt(3.0)
    b = (1.0 - 1.0 / math.sqrt(3.0)) * perim
    n = max(n_points, 4)
    h = (b + math.sqrt(b * b + 4.0 * n * a)) / (2.0 * n)

    # the lattice starts (3h/4, dy/2) off the corner (0, theta_floor):
    # no column or row lies on the h/2 clip line of the seller face or
    # the floor, so rounding never decides which points stay. Other
    # offsets mesh as accurately but move a 1500-point basis's short-
    # horizon values by their source-position noise (README)
    dy = h * math.sqrt(3.0) / 2.0
    xs = np.arange(0.75 * h, spec.varpi + h, h)
    ys = np.arange(spec.theta_floor + 0.5 * dy, float(np.max(cap_s)) + h,
                   dy)
    px, py = np.meshgrid(xs, ys)
    px[1::2] += h / 2.0  # shifted rows pack hexagonally
    lattice = np.column_stack([px.ravel(), py.ravel()])
    lattice = lattice[signed_distance(spec, lattice) < -0.5 * h]
    faces = _face_nodes(spec, h, phi_s, arc)
    pts = np.vstack([faces, lattice])

    tri = delaunay(pts)
    tri = tri[signed_distance(spec, pts[tri].mean(axis=1)) < -1e-3 * h]
    return SurfaceMesh(vertices=pts, triangles=tri,
                       boundary_mask=np.arange(len(pts)) < len(faces),
                       h0=h)
