#!/usr/bin/env python3
"""Steering-cost survey over Haar-random unitaries.

For each dimension, draws random unitaries whose numerical range misses the
origin and plans the minimal one-hot diagonal-phase push; reports how the
steering time t* and the perturbation norm distribute.  Writes a CSV next to
a console summary.
"""

import argparse
import os

import numpy as np

from nrsteer.linalg import unitary_eig
from nrsteer.numrange import OUTSIDE, contains_zero_unitary
from nrsteer.steering import plan
from nrsteer.testkit import haar_unitary

# Rejection sampling gives up after this many draws per dimension: the origin
# lies outside W(U) for about 5% of Haar draws at d = 4 and almost never from d = 6.
MAX_DRAWS_PER_DIM = 20_000


def survey(dims, per_dim, seed, horizon):
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        found = draws = 0
        while found < per_dim:
            if draws == MAX_DRAWS_PER_DIM:
                raise SystemExit(
                    f"error: d={d}: found {found} of {per_dim} unitaries with 0 outside "
                    f"the numerical range in {draws} Haar draws"
                )
            draws += 1
            u = haar_unitary(d, rng)
            if contains_zero_unitary(unitary_eig(u)) != OUTSIDE:
                continue
            found += 1
            result = plan(u, t_horizon=horizon, tol_t=1e-3)
            rows.append(
                (
                    d,
                    result.t_star if result.t_star is not None else np.nan,
                    result.perturbation_norm if result.perturbation_norm is not None else np.nan,
                    result.verdict,
                )
            )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dims", default="2,3,4", help="comma list of dimensions")
    parser.add_argument("--per-dim", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=float, default=2 * np.pi)
    parser.add_argument("--out-dir", default="out/sweep")
    args = parser.parse_args()

    dims = [int(x) for x in args.dims.split(",")]
    rows = survey(dims, args.per_dim, args.seed, args.horizon)

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "steering_sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,t_star,perturbation_norm,verdict\n")
        for d, t_star, norm, verdict in rows:
            fh.write(f"{d},{t_star!r},{norm!r},{verdict}\n")

    for d in dims:
        norms = np.array([n for dd, _, n, v in rows if dd == d and v != "not_reached_within_horizon"])
        times = np.array([t for dd, t, _, v in rows if dd == d and v != "not_reached_within_horizon"])
        missed = sum(1 for dd, _, _, v in rows if dd == d and v == "not_reached_within_horizon")
        if norms.size:
            print(
                f"d={d}: reached {norms.size}/{norms.size + missed}, "
                f"t* median {np.median(times):.3f}, norm median {np.median(norms):.3f}"
            )
        else:
            print(f"d={d}: reached 0/{missed}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
