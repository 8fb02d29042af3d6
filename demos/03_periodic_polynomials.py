"""Periodic analogue: best trigonometric polynomial approximants.

Periodizing the line construction gives, for each degree N, the unique
degree-N trigonometric polynomial minimizing the circle L1 distance to
the periodized exponential p(lam, x) -- and, after integrating in lam,
to log|1 - e(x)|.  The script builds both, checks the interpolation
nodes, and tabulates the closed-form errors against quadrature into
periodic_errors.json in the working directory.
"""

import json
import math
from pathlib import Path

import numpy as np

from xapprox import (
    HaarLog,
    build_k,
    build_k_mu,
    catalan,
    eval_p,
    eval_q_mu,
    interpolation_oracle,
    ExpPeriodized,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
)

OUT = Path("periodic_errors.json")  # in the working directory


def exp_target_section(lam=1.0):
    print(f"--- periodized exponential, lam = {lam} ---")
    rows = []
    for N in (0, 1, 3, 7):
        poly = build_k(lam, N)
        L = 2 * N + 2
        nodes = (np.arange(L) + 0.5) / L
        resid = float(np.max(np.abs(eval_p(lam, nodes) - poly.eval(nodes))))
        closed = periodic_l1_error(lam, N)
        quadr = periodic_l1_quadrature(lam, N)
        print(f"N={N}:  L1 closed {closed:.12f}   quadrature {quadr:.12f}   "
              f"node residual {resid:.1e}")
        rows.append({"N": N, "l1_closed": closed, "l1_quadrature": quadr,
                     "node_residual": resid})

    # the construction agrees with plain interpolation through the nodes
    a = build_k(lam, 2).coeffs
    b = interpolation_oracle(ExpPeriodized(lam), 2).coeffs
    print(f"construction vs interpolation oracle, N=2: "
          f"max coeff diff {float(np.max(np.abs(a - b))):.1e}")
    return rows


def log_target_section():
    print("--- periodized log target ---")
    G = catalan()
    rows = []
    for N in (0, 1, 2, 4):
        v = -build_k_mu(HaarLog(), N)  # negate: the raw build tracks -log
        closed = periodic_l1_error_mu(HaarLog(), N)
        print(f"N={N}:  optimal L1 error {closed:.12f}   "
              f"( = 4G/((2N+2)pi), G = {G:.12f} )")
        rows.append({"N": N, "l1_closed": closed,
                     "v_at_quarter": float(v.eval(0.25))})
    # spot value: target log|1-e(x)| at x=1/4 is log sqrt(2) = 0.5 log 2
    target = -eval_q_mu(HaarLog(), 0.25)
    assert abs(target - 0.5 * math.log(2.0)) < 1e-12
    print(f"target at x=1/4: {target:.12f} (= log sqrt 2)")
    return rows


def main():
    data = {"exp": exp_target_section(), "log": log_target_section()}
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT.resolve()}")


if __name__ == "__main__":
    main()
