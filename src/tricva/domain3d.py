"""Spherical-triangle domain for three correlated drivers.

Decorrelating (x, y, z) maps the positive octant to a cone over a
geodesic triangle on the unit sphere. In the chart (phi, theta) the
domain is 0 < phi < varpi, theta_floor < theta < Theta(phi): the phi = 0
edge is the seller's barrier plane (x = 0), phi = varpi the reference's
(y = 0), and the curved edge theta = Theta(phi) the buyer's (z = 0).
theta = 0 is the chart image of a single point (the x = y = 0 corner),
kept off by a small floor.

Also contains the unstructured mesher for that chart region: a spring
relaxation over repeated Delaunay triangulations, with outside points
projected back to the boundary each sweep.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _Delaunay

from .model import validate_correlations

THETA_FLOOR = 1e-3
# spring relaxation: share of the net edge force moved per sweep, and
# rest length over the mesh's RMS edge (> 1, so springs push outward)
_FORCE_STEP = 0.2
_FORCE_SCALE = 1.2
# retriangulate once some point has moved this share of h0 since the
# last Delaunay call (Persson & Strang, SIAM Review 46(2), 2004)
_RETRI_MOVE = 0.1


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


def build_domain(corr, theta_floor=THETA_FLOOR):
    """Validate the correlations and assemble the chart geometry.

    The construction is checked on the spot: points on each chart face
    must land on the matching driver barrier when mapped back to the
    original coordinates.
    """
    validate_correlations(corr)
    spec = DomainSpec(rho_xy=corr.rho_xy, rho_xz=corr.rho_xz,
                      rho_yz=corr.rho_yz,
                      varpi=math.acos(-corr.rho_xy), chi=corr.chi(),
                      theta_floor=theta_floor)
    if theta_max_at(spec, 0.5 * spec.varpi) < 10.0 * theta_floor:
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


def boundary_curve(spec, n=256):
    """Sampled polyline (phi_i, theta_i) along the buyer's face.

    Uses the compactified parameter u = omega/(1+omega) so both endpoints
    are included exactly.
    """
    u = np.linspace(0.0, 1.0, n)
    with np.errstate(divide="ignore"):
        omega = u / (1.0 - u)
    omega[-1] = np.inf
    return phi_curve(spec, omega), theta_curve(spec, omega)


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
    which is all the relaxation needs.
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
    h0: float                  # seed spacing

    @property
    def n_interior(self):
        return int((~self.boundary_mask).sum())

    def edge_lengths(self):
        v, t = self.vertices, self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        return np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1)


def _project_to_boundary(spec, pts, steps=3):
    # Newton steps along the numerical distance gradient; the distance
    # field has near-unit gradient so this converges fast
    eps = 1e-7
    for _ in range(steps):
        d = signed_distance(spec, pts)
        if np.all(np.abs(d) < 1e-12):
            break
        dpx = signed_distance(spec, pts + [eps, 0.0])
        dpy = signed_distance(spec, pts + [0.0, eps])
        gx, gy = (dpx - d) / eps, (dpy - d) / eps
        norm = np.maximum(np.hypot(gx, gy), 1e-12)
        pts = pts - (d / norm ** 2)[:, None] * np.column_stack([gx, gy])
    return pts


def build_mesh(spec, n_points=1500, seed=0, max_iter=150, size_fn=None):
    """Spring-relaxed Delaunay mesh of the chart region.

    Seeds a hex lattice over the bounding box, thins it by the sizing
    function (none: uniform), then runs max_iter sweeps of a force step
    along edges. Corner vertices are pinned; points pushed outside are
    projected back onto the boundary. The triangulation and its edge
    list are kept from sweep to sweep and rebuilt only once some point
    has moved more than _RETRI_MOVE * h0 since the last Delaunay call,
    about 21 calls in 150 sweeps. The loop would stop early once the
    largest interior move fell under 1e-3 of the mean edge, but that
    does not happen: the ratio stalls at 4e-3 to 8e-3 (500 to 1500
    points), so every mesh runs all max_iter sweeps. seed drives only
    the random thinning by size_fn, so a uniform mesh is the same for
    every seed.
    """
    phi_s = np.linspace(0.0, spec.varpi, 2049)
    cap_s = theta_max_at(spec, phi_s)
    th_hi = float(np.max(cap_s))
    area = float(np.trapezoid(cap_s - spec.theta_floor, phi_s))
    h0 = math.sqrt(2.0 * area / (math.sqrt(3.0) * max(n_points, 4)))
    geps = 1e-3 * h0

    xs = np.arange(0.0, spec.varpi + h0, h0)
    ys = np.arange(spec.theta_floor, th_hi + h0 * math.sqrt(3.0) / 2.0,
                   h0 * math.sqrt(3.0) / 2.0)
    px, py = np.meshgrid(xs, ys)
    px[1::2] += h0 / 2.0  # shifted rows pack hexagonally
    pts = np.column_stack([px.ravel(), py.ravel()])
    pts = pts[signed_distance(spec, pts) < -geps]

    if size_fn is not None:
        h = np.asarray(size_fn(pts), dtype=float)
        keep = (np.min(h) / h) ** 2
        rng = np.random.default_rng(seed)
        pts = pts[rng.uniform(size=len(pts)) < keep]

    corners = np.array([
        [0.0, spec.theta_floor],
        [spec.varpi, spec.theta_floor],
        [0.0, theta_max_at(spec, 0.0)],
        [spec.varpi, theta_max_at(spec, spec.varpi)]])
    # drop seeds sitting on top of a pinned corner
    keep = np.min(np.linalg.norm(pts[:, None, :] - corners[None, :, :],
                                 axis=2), axis=1) > 0.5 * h0
    pts = np.vstack([corners, pts[keep]])
    n_fix = len(corners)

    tri_pts = np.full_like(pts, np.inf)
    for _ in range(max_iter):
        if np.max(np.linalg.norm(pts - tri_pts, axis=1)) > _RETRI_MOVE * h0:
            tri_pts = pts.copy()
            tri = delaunay(pts)
            cent = pts[tri].mean(axis=1)
            tri = tri[signed_distance(spec, cent) < -geps]
            edges = unique_edges(tri, len(pts))
        vec = pts[edges[:, 0]] - pts[edges[:, 1]]
        length = np.maximum(np.linalg.norm(vec, axis=1), 1e-12)
        mid = 0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]])
        hmid = (np.ones(len(mid)) if size_fn is None
                else np.asarray(size_fn(mid), dtype=float))
        want = hmid * _FORCE_SCALE * math.sqrt(
            float(np.sum(length ** 2)) / float(np.sum(hmid ** 2)))
        f = np.maximum(want - length, 0.0)
        fvec = (f / length)[:, None] * vec
        move = np.zeros_like(pts)
        np.add.at(move, edges[:, 0], fvec)
        np.add.at(move, edges[:, 1], -fvec)
        move *= _FORCE_STEP
        move[:n_fix] = 0.0
        pts = pts + move
        d_now = signed_distance(spec, pts)
        out = d_now > 0
        out[:n_fix] = False
        if np.any(out):
            pts[out] = _project_to_boundary(spec, pts[out])
        interior = d_now < -geps
        max_move = float(np.max(np.linalg.norm(move[interior], axis=1),
                                initial=0.0))
        if max_move < 1e-3 * float(np.mean(length)):
            break

    # snap everything within reach of an edge exactly onto it
    d = signed_distance(spec, pts)
    near = np.abs(d) < 0.3 * geps
    near[:n_fix] = True
    if np.any(near):
        pts[near] = _project_to_boundary(spec, pts[near])

    for _ in range(6):
        tri = delaunay(pts)
        cent = pts[tri].mean(axis=1)
        tri = tri[signed_distance(spec, cent) < -geps]
        bad = _cap_vertices(pts, tri, n_fix, floor=0.05)
        if bad.size == 0:
            break
        keep = np.ones(len(pts), dtype=bool)
        keep[bad] = False
        pts = pts[keep]
    referenced = np.zeros(len(pts), dtype=bool)
    referenced[tri.ravel()] = True
    # compress out any vertex no triangle uses
    index = np.cumsum(referenced) - 1
    pts = pts[referenced]
    tri = index[tri]
    bmask = np.abs(signed_distance(spec, pts)) < 1e-6
    return SurfaceMesh(vertices=pts, triangles=tri, boundary_mask=bmask,
                       h0=h0)


def unique_edges(tri, n):
    """Edges of a triangle list, each once, as sorted (i, j) rows, i < j.

    Each edge is the int64 key i*n + j, which sorts as the (i, j) rows
    do, so this equals np.unique of the sorted rows with axis=0 without
    its row-record sort.
    """
    e = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                tri[:, [2, 0]]]), axis=1).astype(np.int64)
    key = np.unique(e[:, 0] * n + e[:, 1])
    return np.column_stack([key // n, key % n])


def _cap_vertices(pts, tri, n_fix, floor):
    """Vertices opposite the long edge of near-degenerate triangles.

    Quality is the usual 2 r_in / r_circ ratio; a cap triangle's apex is
    nearly collinear with the other two, so deleting it heals the patch.
    Pinned corner vertices are never returned.
    """
    v = pts[tri]
    a = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
    b = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
    c = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
    s = 0.5 * (a + b + c)
    area2 = np.maximum(s * (s - a) * (s - b) * (s - c), 0.0)
    quality = 8.0 * area2 / np.maximum(s * a * b * c, 1e-300)
    bad = np.nonzero(quality < floor)[0]
    if bad.size == 0:
        return bad
    apex = np.argmax(np.column_stack([a, b, c])[bad], axis=1)
    verts = tri[bad, apex]
    return np.unique(verts[verts >= n_fix])
