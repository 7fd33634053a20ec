"""Seeded inputs for the three workloads.

Every generator is a pure function of the seed: the same seed gives the
same book, scenarios and validation case. The program sees only the
configs and arguments built from these records.
"""

import math
from dataclasses import dataclass

import numpy as np

# Worked three-name example of the paper: seller-reference,
# seller-buyer and reference-buyer correlations.
BOOK_RHO = (0.8, 0.5, 0.3)
# Contract terms (the reference's recovery among them) and the
# recoveries of seller and buyer, for every workload.
TERMS = {"coupon": 0.02, "rate": 0.02, "recovery": 0.40}
REC_SELLER = 0.50
REC_BUYER = 0.40
# Basis and quadrature sizes of the book and of the validation case.
# They are below the CLI defaults (1500 points, 160 modes, 48 x 200
# nodes) so that one run holds whole rounds of requests within the
# benchmark's time budget; every check below still holds at these sizes.
BASIS_POINTS = 500
BASIS_MODES = 60
N_TIME = 24
N_RADIAL = 100

# One far buyer costs about seven near contracts, and its time spreads
# twice as much from run to run (a Brent root per time node in cva_2d);
# 16 near contracts per far one keep it under a third of a round, and a
# round (about 30 s) within one run.
NEAR_PER_BOOK = 16
FAR_PER_BOOK = 1
FAR_MATURITY = 5.0
# The far buyer's seller and reference, near the worked example. Its
# request reruns cva_2d at every break-even step, and how long that takes
# depends on these two distances: over seeds 1..10 of a draw from
# [1.2, 1.8] x [2.6, 3.2] it took 17 to 19 cva_2d calls of 0.30 to
# 0.45 s, so a drawn pair let the book's cost move the run's rate.
FAR_X = 1.5
FAR_Y = 2.9
# The contracts that fail today, one of each in every round; they do
# not depend on the seed (checks.KNOWN_FAULTS names their faults). A
# seller too far from its barrier to default, and a one-year contract
# whose DVA-adjusted coupon falls below the plain one.
FIXED = (
    {"kind": "unreachable-seller", "x": 50.0, "y": 2.9043062200956938,
     "z": 1.9031746031746032, "maturity": 5.0},
    {"kind": "one-year", "x": 1.863937644072288, "y": 2.503456943005701,
     "z": 2.985653180560821, "maturity": 1.0},
)

# (correlations, mesh points): the triples with eigenvalue references
# outside the engine, at a third of the release-gate mesh sizes.
SCENARIO_TRIPLES = (((0.0, 0.0, 0.0), 500),
                    ((0.8, 0.2, 0.5), 600),
                    ((0.2, -0.1, -0.6), 540))
SCENARIO_MODES = 60
# Gauss-Legendre radii of the density lattice, on [0, source + 8 sqrt(tau)].
LATTICE_RADII = 24
LATTICE_TAU = 1.0

# Validation runs: a smaller MC than the CLI default (1e5 paths at 200
# and 400 steps) keeps several requests in one run; the two-level
# Richardson pipeline is unchanged.
MC_PATHS = 20_000
MC_STEPS = 100
MC_MATURITY = 5.0


@dataclass(frozen=True)
class Contract:
    """One CDS of the book: driver distances and maturity (years)."""
    kind: str      # "near", "far-buyer" or "unreachable-seller"
    x: float       # seller
    y: float       # reference
    z: float       # buyer
    maturity: float


@dataclass(frozen=True)
class Scenario:
    """One cold correlation scenario with its source point."""
    rho: tuple
    n_points: int
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class McCase:
    """Drivers and MC seed of one octant validation."""
    x: float
    y: float
    z: float
    mc_seed: int


def book(seed):
    """The contracts of one round of price-book, in pricing order.

    Drawn near contracts run from 2 to 5 years: at 1 year the engine's
    buyer leg changes sign for some safe buyers, so a drawn 1-year
    contract fails on some seeds only. The fixed one-year contract shows
    that fault in every round instead. The far buyer sits past the
    dispatch cut z > 4 sqrt(T) and is priced on the seller-reference
    wedge. Its request costs seven near ones (every break-even step
    reruns cva_2d), so only its buyer distance, which the wedge does
    not see, is drawn: its seller and reference are FAR_X and FAR_Y at
    5 years, so that the book's cost, not the program's speed, does not
    set the run-to-run spread.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(NEAR_PER_BOOK):
        out.append(Contract("near", x=float(rng.uniform(1.0, 3.0)),
                            y=float(rng.uniform(1.5, 3.5)),
                            z=float(rng.uniform(1.0, 3.0)),
                            maturity=float(rng.integers(2, 6))))
    for _ in range(FAR_PER_BOOK):
        out.append(Contract("far-buyer", x=FAR_X, y=FAR_Y,
                            z=4.0 * math.sqrt(FAR_MATURITY)
                            * float(rng.uniform(1.25, 2.5)),
                            maturity=FAR_MATURITY))
    out.extend(Contract(**fixed) for fixed in FIXED)
    return out


def scenarios(seed):
    """One round of scenario-cold: each triple once, seeded sources."""
    rng = np.random.default_rng([seed, 2])
    return [Scenario(rho=rho, n_points=n, x=float(rng.uniform(1.0, 3.0)),
                     y=float(rng.uniform(1.0, 3.0)),
                     z=float(rng.uniform(1.0, 3.0)))
            for rho, n in SCENARIO_TRIPLES]


def mc_case(seed):
    """One octant validation: drivers near the worked example."""
    rng = np.random.default_rng([seed, 3])
    return McCase(x=float(rng.uniform(1.2, 2.0)),
                  y=float(rng.uniform(2.4, 3.4)),
                  z=float(rng.uniform(1.5, 2.5)),
                  mc_seed=int(rng.integers(1, 2 ** 31 - 1)))


def _config(rho, x, y, z, n_points, n_modes):
    # volatility 1 makes each firm's log distance its driver distance
    firm = {"liabilities": 1.0, "volatility": 1.0}
    return {
        "initial_value_is_distance": True,
        "firms": {"X": dict(firm, equity=x, recovery=REC_SELLER),
                  "Y": dict(firm, equity=y, recovery=TERMS["recovery"]),
                  "Z": dict(firm, equity=z, recovery=REC_BUYER)},
        "rho": {"xy": rho[0], "xz": rho[1], "yz": rho[2]},
        "mesh": {"n_points": n_points, "seed": 0},
        "series": {"n_terms": n_modes},
        "quadrature": {"n_time": N_TIME, "n_radial": N_RADIAL},
    }


def price_config(contract):
    """tricva config pricing one contract at its own maturity."""
    cfg = _config(BOOK_RHO, contract.x, contract.y, contract.z,
                  BASIS_POINTS, BASIS_MODES)
    cfg["terms"] = dict(TERMS, maturity=contract.maturity)
    cfg["maturities"] = [contract.maturity]
    return cfg


def basis_config(rho):
    """tricva config whose basis is the one the requests will load."""
    return _config(rho, 1.0, 1.0, 1.0, BASIS_POINTS, BASIS_MODES)


def validate_config(case):
    """tricva config of one octant validation at 5 years."""
    cfg = _config((0.0, 0.0, 0.0), case.x, case.y, case.z, BASIS_POINTS,
                  BASIS_MODES)
    cfg["terms"] = dict(TERMS, maturity=MC_MATURITY)
    cfg["mc"] = {"n_paths": MC_PATHS, "n_steps": MC_STEPS,
                 "seed": case.mc_seed, "antithetic": True}
    return cfg
