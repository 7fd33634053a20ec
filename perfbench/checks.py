"""Output checks for each request.

Each check returns a list of violations, empty when the outputs hold.
References come from scipy.special and numpy directly, or from the
library's one- and two-name closed forms, which share no code with the
three-name engine under test.
"""

import math

import numpy as np
from scipy import linalg
from scipy.special import erfc, ndtr

# Room for the round-off of a break-even root (brentq at 1e-12) and for
# a far buyer's DVA root, which lands 1 ulp below the plain coupon.
ORDER_RTOL = 1e-12
# The engine maps a source into the chart and back before it dispatches
# to the two-name wedge; the round trip costs about 1e-14 relative.
ROUND_TRIP_RTOL = 1e-9
# Three-name survival may exceed a two-name one by this much: the 1 %
# of release criterion 5 for the eigen series against exact products.
ENGINE_RTOL = 0.01
CRITERION_1 = ((11.8, 12.6), (29.5, 31.5), (29.5, 31.5))
CRITERION_2 = {(0.8, 0.2, 0.5): 5.2, (0.2, -0.1, -0.6): 21.5}
# The density mass is checked to this relative gap against survival_3d;
# 24 Gauss-Legendre radii reach 1e-4 on these meshes.
MASS_RTOL = 2e-3
# Octant density against the product of 1D image densities, in L1 over
# the lattice relative to the mass: the truncated eigen series and the
# P1 mesh leave a few per cent.
OCTANT_L1 = 0.1


def tail(distance, tau):
    """P(a driver at this distance hits its barrier by tau)."""
    return float(erfc(distance / math.sqrt(2.0 * tau)))


def survival_1d(tau, distance):
    return float(2.0 * ndtr(distance / math.sqrt(tau)) - 1.0)


def breakeven_1d(tau, y0, rate, recovery, n_nodes=400):
    """Plain coupon (1-R) E[e^(-r t) dQ] / int e^(-r t) Q dt by quadrature.

    The first-passage density y0 exp(-y0^2 / 2t) / sqrt(2 pi t^3) and
    the survival 2 Phi(y0 / sqrt t) - 1 are smooth on [0, tau], so
    Gauss-Legendre converges to round-off.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    t = 0.5 * tau * (x + 1.0)
    w = 0.5 * tau * w
    disc = np.exp(-rate * t)
    density = y0 * np.exp(-0.5 * y0 * y0 / t) / np.sqrt(2.0 * math.pi * t ** 3)
    surv = 2.0 * ndtr(y0 / np.sqrt(t)) - 1.0
    return float((1.0 - recovery) * np.sum(w * disc * density)
                 / np.sum(w * disc * surv))


# The faults of the fixed contracts that fail today (inputs.FIXED), by
# contract kind: the only violations such a contract may show and still
# count as the known fault. Any other violation, a failed exit status
# among them, makes the run incorrect.
KNOWN_FAULTS = {
    # survival_3d far under the buyer-reference wedge, and so under the
    # seller-reference one too: the seller cannot default, and the
    # engine has no dispatch for that
    "unreachable-seller": (
        "survival_3d below the buyer-reference wedge by more than",
        "survival_3d below the seller-reference wedge by more than"),
    # the DVA root uses the raw buyer leg, which turns negative at 1 y
    "one-year": ("bec_dva_only below bec_1d",
                 "bec_bilateral below bec_cva_only"),
}


def only_known_fault(kind, violations):
    """True if the violations are all the known fault of this kind."""
    known = KNOWN_FAULTS.get(kind, ())
    return bool(violations) and all(v.startswith(known) for v in violations)


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_price_row(row, contract, terms, rec_seller, rec_buyer,
                    survival_2d_xy, survival_2d_zy, far_reference=None):
    """Checks of one price.csv row.

    row maps the CSV columns to floats; terms holds coupon, rate and
    recovery; survival_2d_* are the pairwise joint survivals of the
    seller-reference and buyer-reference wedges; far_reference is the
    wedge CVA for a far buyer.
    """
    bad = []
    T = contract.maturity
    plain = breakeven_1d(T, contract.y, terms["rate"], terms["recovery"])
    if _rel_gap(row["bec_1d"], plain) > 1e-9:
        bad.append("bec_1d %.12g vs closed form %.12g" % (row["bec_1d"],
                                                         plain))
    for mid in ("bec_1d", "bec_bilateral"):
        slack = ORDER_RTOL * abs(row[mid])
        for lo, hi in (("bec_cva_only", mid), (mid, "bec_dva_only")):
            if not row[lo] <= row[hi] + slack:
                bad.append("%s below %s: %r < %r"
                           % (hi, lo, row[hi], row[lo]))
    cva_cap = ((1.0 - rec_seller) * (1.0 - terms["recovery"])
               * tail(contract.x, T))
    if not 0.0 <= row["cva"] <= cva_cap:
        bad.append("cva %.6g outside [0, %.6g]" % (row["cva"], cva_cap))
    dva_cap = (1.0 - rec_buyer) * terms["coupon"] * T * tail(contract.z, T)
    if not 0.0 <= row["dva"] <= dva_cap:
        bad.append("dva %.6g outside [0, %.6g]" % (row["dva"], dva_cap))
    # the joint survival of three names sits below that of any two, by
    # at most the third name's chance of reaching its barrier
    q3 = row["survival_3d"]
    for name, q2, third in (("seller-reference", survival_2d_xy, contract.z),
                            ("buyer-reference", survival_2d_zy, contract.x)):
        if q3 > q2 * (1.0 + ENGINE_RTOL):
            bad.append("survival_3d above the %s wedge: %.6f > %.6f"
                       % (name, q3, q2))
        reach = tail(third, T)
        if q2 - q3 > reach + ENGINE_RTOL * q2:
            bad.append("survival_3d below the %s wedge by more than the "
                       "third name's reach: %.6f < %.6f - %.3g"
                       % (name, q3, q2, reach))
    if far_reference is not None:
        reach = tail(contract.z, T)
        if abs(q3 - survival_2d_xy) > reach + ROUND_TRIP_RTOL * q3:
            bad.append("far buyer: survival_3d %.12g vs wedge %.12g"
                       % (q3, survival_2d_xy))
        cap = (1.0 - rec_seller) * (1.0 - terms["recovery"]) * reach
        if abs(row["cva"] - far_reference) > \
                cap + ROUND_TRIP_RTOL * far_reference:
            bad.append("far buyer: cva %.12g vs cva_2d %.12g"
                       % (row["cva"], far_reference))
    return bad


def check_validate(status, rows, case, tau, tolerance_se):
    """validate must exit 0 and its MC survivals match octant products."""
    bad = [] if status == 0 else ["validate exited %d" % status]
    q = {d: survival_1d(tau, d) for d in (case.x, case.y, case.z)}
    exact = {"survival_1d": q[case.y],
             "survival_2d": q[case.x] * q[case.y],
             "survival_3d": q[case.x] * q[case.y] * q[case.z]}
    for name, value in exact.items():
        row = rows.get(name)
        if row is None:
            bad.append("validate.csv lacks %s" % name)
            continue
        n_se = abs(row["mc_mean"] - value) / row["mc_se"]
        if not n_se <= tolerance_se:
            bad.append("%s MC %.6f vs exact %.6f: %.2f SE"
                       % (name, row["mc_mean"], value, n_se))
    return bad


def check_eigenvalues(rho, lam2, K, M):
    """Criterion ranges and agreement with LAPACK on the same matrices."""
    bad = []
    ref = linalg.eigh(K, M, eigvals_only=True,
                      subset_by_index=[0, len(lam2) - 1])
    worst = float(np.max(np.abs(lam2 - ref) / ref))
    if worst > 1e-8:
        bad.append("eigenvalues off LAPACK by %.3g relative" % worst)
    if tuple(rho) == (0.0, 0.0, 0.0):
        for k, (lo, hi) in enumerate(CRITERION_1):
            if not lo <= lam2[k] <= hi:
                bad.append("octant lambda_%d %.4f outside [%g, %g]"
                           % (k + 1, lam2[k], lo, hi))
    elif tuple(rho) in CRITERION_2:
        want = CRITERION_2[tuple(rho)]
        if _rel_gap(lam2[0], want) > 0.05:
            bad.append("lambda_1 %.4f not within 5%% of %g"
                       % (lam2[0], want))
    return bad


def lattice_mass(density, r, r_w, theta_mid, tri_area):
    """Volume integral of the density on the radii x edge-midpoint lattice.

    density has shape (radii, midpoints); tri_area holds, per midpoint,
    one third of the chart area of each triangle that uses its edge, so
    the angular sum is the midpoint rule exact for quadratics per
    triangle, weighted by the surface element sin(theta).
    """
    ang = density @ (tri_area * np.sin(theta_mid))
    return float(np.sum(r_w * r * r * ang))


def check_density(density, r, r_w, theta_mid, tri_area, survival):
    mass = lattice_mass(density, r, r_w, theta_mid, tri_area)
    if _rel_gap(mass, survival) > MASS_RTOL:
        return ["density mass %.6f vs survival_3d %.6f" % (mass, survival)]
    return []


def image_density_1d(tau, x0, x):
    s = math.sqrt(tau)
    return (np.exp(-0.5 * ((x - x0) / s) ** 2)
            - np.exp(-0.5 * ((x + x0) / s) ** 2)) / (s * math.sqrt(2 * math.pi))


def check_octant_density(density, r, r_w, phi_mid, theta_mid, tri_area,
                         tau, source):
    """Octant density against the product of three 1D image densities."""
    st = np.sin(theta_mid)
    x = r[:, None] * st * np.sin(phi_mid)
    y = r[:, None] * st * np.cos(phi_mid)
    z = r[:, None] * np.cos(theta_mid)
    exact = (image_density_1d(tau, source[0], x)
             * image_density_1d(tau, source[1], y)
             * image_density_1d(tau, source[2], z))
    weight = (r_w * r * r)[:, None] * (tri_area * st)[None, :]
    l1 = float(np.sum(weight * np.abs(density - exact)))
    mass = float(np.sum(weight * exact))
    if l1 > OCTANT_L1 * mass:
        return ["octant density L1 gap %.4f of mass %.6f" % (l1 / mass,
                                                            mass)]
    return []
