"""P1 finite elements for the spherical-surface eigenproblem.

The angular operator separates in the chart (phi, theta): stiffness uses
the metric weights 1/sin(theta) on phi-derivatives and sin(theta) on
theta-derivatives, mass carries sin(theta). Dirichlet rows (all chart
edges) are eliminated and the lowest eigenpairs of the generalized
problem K psi = lam2 M psi come from one LAPACK call, scipy.linalg.eigh.
The returned basis is mass-orthonormal with each mode's surface integral
made non-negative.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.spatial import Delaunay as _Delaunay

from .domain3d import SurfaceMesh


def _triangle_geometry(mesh):
    v = mesh.vertices
    t = mesh.triangles
    p1, p2, p3 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    a2 = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
          - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))  # signed, 2A
    if np.any(np.abs(a2) == 0.0):
        raise ValueError("mesh has a zero-area triangle; mass would be "
                         "singular")
    # hat-function gradients, rows are (d/dphi, d/dtheta)
    gphi = np.stack([p2[:, 1] - p3[:, 1],
                     p3[:, 1] - p1[:, 1],
                     p1[:, 1] - p2[:, 1]], axis=1) / a2[:, None]
    gth = np.stack([p3[:, 0] - p2[:, 0],
                    p1[:, 0] - p3[:, 0],
                    p2[:, 0] - p1[:, 0]], axis=1) / a2[:, None]
    return p1, p2, p3, 0.5 * np.abs(a2), gphi, gth


def _assemble_full(mesh, quadrature="centroid", weighted=True):
    """K and M over all vertices, boundary rows included."""
    if quadrature not in ("centroid", "midedge"):
        raise ValueError("quadrature must be 'centroid' or 'midedge'")
    p1, p2, p3, area, gphi, gth = _triangle_geometry(mesh)
    theta = np.stack([p1[:, 1], p2[:, 1], p3[:, 1]], axis=1)

    if quadrature == "centroid":
        s = np.sin(theta.mean(axis=1)) if weighted \
            else np.ones(len(theta))
        ke = area[:, None, None] * (
            gphi[:, :, None] * gphi[:, None, :] / s[:, None, None]
            + gth[:, :, None] * gth[:, None, :] * s[:, None, None])
        me = (area * s / 9.0)[:, None, None] * np.ones((1, 3, 3))
    else:
        mid = 0.5 * np.stack([theta[:, 0] + theta[:, 1],
                              theta[:, 1] + theta[:, 2],
                              theta[:, 2] + theta[:, 0]], axis=1)
        sq = np.sin(mid) if weighted else np.ones_like(mid)
        hats = np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]])
        wsum = sq.mean(axis=1)
        winv = (1.0 / sq).mean(axis=1)
        ke = area[:, None, None] * (
            gphi[:, :, None] * gphi[:, None, :] * winv[:, None, None]
            + gth[:, :, None] * gth[:, None, :] * wsum[:, None, None])
        me = area[:, None, None] / 3.0 * np.einsum(
            "tq,qi,qj->tij", sq, hats, hats)

    n = len(mesh.vertices)
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    t = mesh.triangles
    for i in range(3):
        for j in range(3):
            np.add.at(K, (t[:, i], t[:, j]), ke[:, i, j])
            np.add.at(M, (t[:, i], t[:, j]), me[:, i, j])
    return K, M


def assemble(mesh, quadrature="centroid", weighted=True):
    """Stiffness and mass over the free (interior) vertices.

    Dirichlet rows and columns are eliminated. The weighted flag exists
    for tests: False replaces the sin(theta) metric by 1, turning K into
    the plain flat-triangle P1 form.
    """
    K, M = _assemble_full(mesh, quadrature, weighted)
    idx = np.nonzero(~mesh.boundary_mask)[0]
    return K[np.ix_(idx, idx)], M[np.ix_(idx, idx)]


@dataclass
class EigenBasis:
    """Discrete eigenpairs of the surface operator.

    psi holds vertex values of each mode (zero on the boundary), columns
    mass-orthonormal. s_n is the surface integral of each mode, used as
    the source weight in survival expansions; signs are fixed so it is
    non-negative. stiffness and mass keep the full (all-vertex) forms so
    boundary fluxes can be recovered variationally.
    """
    mesh: SurfaceMesh
    lam2: np.ndarray       # (k,) ascending
    psi: np.ndarray        # (n_vertices, k)
    s_n: np.ndarray        # (k,)
    quadrature: str
    stiffness: np.ndarray = field(repr=False, default=None)
    mass: np.ndarray = field(repr=False, default=None)
    _locator: object = field(repr=False, default=None, compare=False)

    @property
    def n_modes(self):
        return len(self.lam2)

    @property
    def nu(self):
        """Radial Bessel orders sqrt(lam2 + 1/4)."""
        return np.sqrt(self.lam2 + 0.25)


def solve_eig(K, M, mesh, n_modes=50, quadrature="centroid"):
    """Lowest generalized eigenpairs with Dirichlet chart edges.

    K and M are the free-vertex matrices from assemble (same quadrature
    setting); the mesh supplies the boundary layout for the caches.
    """
    idx = np.nonzero(~mesh.boundary_mask)[0]
    if n_modes > len(idx):
        raise ValueError("mesh too coarse for %d modes" % n_modes)
    if K.shape != (len(idx), len(idx)):
        raise ValueError("matrices do not match the mesh free vertices")
    try:
        lam2, psi_in = eigh(K, M, subset_by_index=[0, n_modes - 1])
    except np.linalg.LinAlgError as err:
        raise ValueError("mass matrix not positive definite; broken "
                         "mesh") from err

    Kf, Mf = _assemble_full(mesh, quadrature)
    n = len(mesh.vertices)
    psi = np.zeros((n, n_modes))
    psi[idx] = psi_in
    s_n = (Mf @ psi).sum(axis=0)
    flip = s_n < 0
    # ambiguous when a mode has zero net mass; anchor on its first
    # nonvanishing vertex value instead
    tiny = np.abs(s_n) < 1e-12
    for j in np.nonzero(tiny)[0]:
        lead = psi[np.nonzero(np.abs(psi[:, j]) > 1e-12)[0][0], j]
        flip[j] = lead < 0
    psi[:, flip] *= -1.0
    s_n[flip] *= -1.0
    s_n[tiny] = np.abs(s_n[tiny])
    return EigenBasis(mesh=mesh, lam2=lam2, psi=psi, s_n=s_n,
                      quadrature=quadrature, stiffness=Kf, mass=Mf)


def build_basis(mesh, n_modes=50, quadrature="centroid"):
    """Assemble and solve in one step."""
    K, M = assemble(mesh, quadrature)
    return solve_eig(K, M, mesh, n_modes=n_modes, quadrature=quadrature)


class _Locator:
    """Maps chart points to containing triangles with barycentrics.

    Rebuilds the Delaunay hull of the mesh vertices; kept triangles are
    a subset of it, so interior queries resolve to valid triples.
    """

    def __init__(self, mesh):
        self.tri = _Delaunay(mesh.vertices)

    def locate(self, pts):
        pts = np.atleast_2d(pts)
        s = self.tri.find_simplex(pts)
        miss = s < 0
        if np.any(miss):
            s2 = self.tri.find_simplex(pts[miss], bruteforce=True, tol=1e-9)
            s[miss] = s2
        if np.any(s < 0):
            raise ValueError("query point outside the chart hull")
        verts = self.tri.simplices[s]
        T = self.tri.transform[s]
        b = np.einsum("nij,nj->ni", T[:, :2, :],
                      pts - T[:, 2, :])
        bary = np.column_stack([b, 1.0 - b.sum(axis=1)])
        return verts, bary, T


def _locator(basis):
    if basis._locator is None:
        basis._locator = _Locator(basis.mesh)
    return basis._locator


def eval_basis(basis, phi, theta):
    """Mode values at chart points; (npts, n_modes)."""
    pts = np.column_stack([np.ravel(phi), np.ravel(theta)])
    verts, bary, _ = _locator(basis).locate(pts)
    return np.einsum("nj,njk->nk", bary, basis.psi[verts])


def eval_basis_gradient(basis, phi, theta):
    """Chart-coordinate mode gradients at points; (npts, n_modes, 2).

    Piecewise constant per triangle: last axis is (d/dphi, d/dtheta).
    """
    pts = np.column_stack([np.ravel(phi), np.ravel(theta)])
    verts, _, T = _locator(basis).locate(pts)
    gb = np.empty((len(pts), 3, 2))
    gb[:, 0, :] = T[:, 0, :]
    gb[:, 1, :] = T[:, 1, :]
    gb[:, 2, :] = -T[:, 0, :] - T[:, 1, :]
    return np.einsum("njd,njk->nkd", gb, basis.psi[verts])
