"""P1 finite elements for the spherical-surface eigenproblem.

The angular operator separates in the chart (phi, theta): stiffness uses
the metric weights 1/sin(theta) on phi-derivatives and sin(theta) on
theta-derivatives, mass carries sin(theta). K and M are assembled once,
sparse, over all vertices. Dirichlet rows (all chart edges) are
eliminated and the lowest eigenpairs of the generalized problem
K psi = lam2 M psi come from one LAPACK call, scipy.linalg.eigh, on the
dense free block. The returned basis is mass-orthonormal with each
mode's surface integral made non-negative, and keeps of K and M only
the boundary rows of each mode's residual (K - lam2 M) psi, the face
fluxes that pricing reads.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import coo_array
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


def _assemble_full(mesh):
    """Sparse (CSR) K and M over all vertices, boundary rows included.

    The metric weights sin(theta) and 1/sin(theta) are taken at each
    triangle's centroid.
    """
    p1, p2, p3, area, gphi, gth = _triangle_geometry(mesh)
    s = np.sin((p1[:, 1] + p2[:, 1] + p3[:, 1]) / 3.0)
    ke = area[:, None, None] * (
        gphi[:, :, None] * gphi[:, None, :] / s[:, None, None]
        + gth[:, :, None] * gth[:, None, :] * s[:, None, None])
    me = (area * s / 9.0)[:, None, None] * np.ones((1, 3, 3))

    # element entry (t, i, j) lands on (tri[t, i], tri[t, j]); the CSR
    # conversion sums the duplicates
    n = len(mesh.vertices)
    t = mesh.triangles
    ij = (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())
    return (coo_array((ke.ravel(), ij), shape=(n, n)).tocsr(),
            coo_array((me.ravel(), ij), shape=(n, n)).tocsr())


def _free_block(A, mesh):
    """Dense rows and columns of the free (interior) vertices."""
    idx = np.nonzero(~mesh.boundary_mask)[0]
    return A[np.ix_(idx, idx)].toarray()


def assemble(mesh):
    """Dense stiffness and mass over the free (interior) vertices.

    Dirichlet rows and columns are eliminated.
    """
    K, M = _assemble_full(mesh)
    return _free_block(K, mesh), _free_block(M, mesh)


@dataclass
class EigenBasis:
    """Discrete eigenpairs of the surface operator.

    psi holds vertex values of each mode (zero on the boundary), columns
    mass-orthonormal. s_n is the surface integral of each mode, used as
    the source weight in survival expansions; signs are fixed so it is
    non-negative. boundary_residual holds each mode's residual
    (K - lam2 M) psi on the boundary vertices, in mesh order, from which
    the face fluxes are taken variationally.
    """
    mesh: SurfaceMesh
    lam2: np.ndarray       # (k,) ascending
    psi: np.ndarray        # (n_vertices, k)
    s_n: np.ndarray        # (k,)
    boundary_residual: np.ndarray = field(repr=False)  # (n_boundary, k)
    _locator: object = field(repr=False, default=None, compare=False)

    @property
    def n_modes(self):
        return len(self.lam2)

    @property
    def nu(self):
        """Radial Bessel orders sqrt(lam2 + 1/4)."""
        return np.sqrt(self.lam2 + 0.25)


def solve_eig(K, M, mesh, n_modes=50):
    """Lowest generalized eigenpairs with Dirichlet chart edges.

    K and M are the all-vertex sparse matrices from _assemble_full; their
    free block is solved densely and their boundary rows give the stored
    residuals.
    """
    n = len(mesh.vertices)
    idx = np.nonzero(~mesh.boundary_mask)[0]
    if n_modes > len(idx):
        raise ValueError("mesh too coarse for %d modes" % n_modes)
    if K.shape != (n, n) or M.shape != (n, n):
        raise ValueError("matrices do not match the mesh vertices")
    try:
        lam2, psi_in = eigh(_free_block(K, mesh), _free_block(M, mesh),
                            subset_by_index=[0, n_modes - 1])
    except np.linalg.LinAlgError as err:
        raise ValueError("mass matrix not positive definite; broken "
                         "mesh") from err

    psi = np.zeros((n, n_modes))
    psi[idx] = psi_in
    s_n = (M @ psi).sum(axis=0)
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
    bnd = np.nonzero(mesh.boundary_mask)[0]
    residual = K[bnd] @ psi - (M[bnd] @ psi) * lam2
    return EigenBasis(mesh=mesh, lam2=lam2, psi=psi, s_n=s_n,
                      boundary_residual=residual)


def truncate_basis(basis, n_modes):
    """The basis cut to its first n_modes modes, as views of its arrays.

    Pricing uses every mode of the basis it is given; a price on this
    cut equals, bit for bit, the same sum stopped after n_modes terms.
    """
    if n_modes == basis.n_modes:
        return basis
    if not 1 <= n_modes < basis.n_modes:
        raise ValueError("basis holds %d modes, not %d"
                         % (basis.n_modes, n_modes))
    return EigenBasis(mesh=basis.mesh, lam2=basis.lam2[:n_modes],
                      psi=basis.psi[:, :n_modes], s_n=basis.s_n[:n_modes],
                      boundary_residual=basis.boundary_residual[:, :n_modes])


def build_basis(mesh, n_modes=50):
    """Assemble once and solve."""
    K, M = _assemble_full(mesh)
    return solve_eig(K, M, mesh, n_modes=n_modes)


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
        T = self.tri.transform[s]
        b = np.einsum("nij,nj->ni", T[:, :2, :],
                      pts - T[:, 2, :])
        bary = np.column_stack([b, 1.0 - b.sum(axis=1)])
        return self.tri.simplices[s], bary


def _locator(basis):
    if basis._locator is None:
        basis._locator = _Locator(basis.mesh)
    return basis._locator


def eval_basis(basis, phi, theta):
    """Mode values at chart points; (npts, n_modes)."""
    pts = np.column_stack([np.ravel(phi), np.ravel(theta)])
    verts, bary = _locator(basis).locate(pts)
    return np.einsum("nj,njk->nk", bary, basis.psi[verts])

