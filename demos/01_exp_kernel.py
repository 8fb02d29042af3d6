"""Exponential-kernel walkthrough.

Builds the bandlimited approximant K(lam, .) of exp(-lam|x|), shows the
three facts that make it the best L1 choice of its type, and writes a
small CSV with the pointwise error for plotting to the working directory.

Run:  python3 demos/01_exp_kernel.py
"""

import csv
import math
from pathlib import Path

import numpy as np

from xapprox import (
    ExpKernel,
    K_hat,
    dual_lower_bound_exp,
    error_exp,
    eval_K,
    k_value_at_zero,
    l1_error_exp,
    l1_error_exp_quadrature,
)

LAM = 1.0
OUT = Path("exp_kernel_error.csv")  # in the working directory


def main():
    k = ExpKernel(LAM)

    # 1. interpolation: at half-integers the approximant equals the target
    #    exactly (the evaluator is structurally exact there, not merely close)
    m = np.arange(6) + 0.5
    resid = np.abs(eval_K(k, m) - np.exp(-LAM * m))
    print(f"node residuals at m = 0.5 .. 5.5 : max = {resid.max():.3e}")

    # 2. the L1 error has a closed form, and sign-split quadrature agrees
    closed = l1_error_exp(LAM)
    quadr = l1_error_exp_quadrature(LAM)
    print(f"L1 error closed form              : {closed:.15f}")
    print(f"L1 error sign-split quadrature    : {quadr:.15f}")
    print(f"                        difference: {abs(closed - quadr):.3e}")
    assert abs(closed - (2.0 - 2.0 / math.cosh(0.5))) < 1e-15

    # 3. no function of the same type can do better: the duality series
    #    climbs to the same number from below
    for terms in (10, 1000, 100_000):
        print(f"duality lower bound, {terms:>6} terms: "
              f"{dual_lower_bound_exp(LAM, 1.0, terms):.15f}")

    # the transform is nonnegative, supported in [-1/2, 1/2], zero at the edge
    print(f"transform at t=0 (equals csch(lam/2)) : {K_hat(k, 0.0):.12f}")
    print(f"transform at the support edge         : {K_hat(k, 0.5):.1f}")
    print(f"value at the origin, closed form      : {k_value_at_zero(LAM):.12f}")

    xs = np.linspace(-6.0, 6.0, 481)
    err = error_exp(k, xs)
    with OUT.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "target_minus_kernel"])
        for x, e in zip(xs, err):
            w.writerow([f"{x:.6f}", f"{e:.12e}"])
    print(f"wrote {OUT.resolve()} ({xs.size} rows); the error changes sign at"
          " every half-integer, like cos(pi x)")


if __name__ == "__main__":
    main()
