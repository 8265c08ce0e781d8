#!/usr/bin/env python3
"""Steering-cost survey over conditioned random unitaries.

For each dimension, draws unitaries with a Haar eigenbasis and eigenvalues in
an arc shorter than π (``testkit.conditioned_unitary``), so the numerical
range misses the origin, and plans the minimal one-hot diagonal-phase push;
reports how the steering time t* and the perturbation norm distribute.
Writes a CSV next to a console summary.
"""

import argparse
import os

import numpy as np

from nrsteer.steering import plan
from nrsteer.testkit import conditioned_unitary


def survey(dims, per_dim, seed, horizon):
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        for _ in range(per_dim):
            result = plan(conditioned_unitary(d, rng), t_horizon=horizon, tol_t=1e-3)
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
