"""Relaxation-time hierarchy across chain sizes.

For each size: the median relaxation time of an ensemble of random
observables, which dephase on the Boltzmann scale, against the single slow
observable built from neighboring occupied levels, which survives toward
the Heisenberg time. The ratio grows with size because the occupied level
spacing shrinks exponentially while the occupied width only grows like
sqrt(N).
"""
import argparse

# quenchlab before numpy: it sets OPENBLAS_THREAD_TIMEOUT, which OpenBLAS
# reads when numpy loads it, so that idle BLAS threads sleep
import quenchlab as ql
import numpy as np


def neel(n: int) -> ql.PureState:
    return ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])


def run_size(n: int, n_seeds: int, threshold: float):
    # the quench's weights and levels alone: no reader below needs V
    sdata = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n)), neel(n), vectors=False)
    ts = ql.timescales(sdata)

    relax_grid = ql.default_relax_grid(ts)
    times = []
    for seed in range(n_seeds):
        obs = ql.typical_observable(sdata.dim, seed)
        series = ql.expectation_series(sdata, obs, relax_grid)
        rep = ql.relaxation_time(series, ql.diagonal_ensemble(sdata, obs.diagonal()), threshold)
        times.append(rep.relaxation_time if rep.relaxed else np.inf)
    typical = float(np.median(times))

    # the slow observable has no diagonal, so its equilibrium is 0
    series = ql.slow_series(sdata, ql.default_slow_grid(ts))
    rep = ql.relaxation_time(series, ql.diagonal_ensemble(sdata, np.zeros(sdata.dim)), threshold)
    slow_t = rep.relaxation_time if rep.relaxed else np.inf
    return ts, typical, slow_t


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--seeds", type=int, default=8, help="ensemble size per chain")
    ap.add_argument("--threshold", type=float, default=0.7)
    args = ap.parse_args()

    print(f"{'N':>3} {'tau_B':>9} {'t_H':>9} {'typical':>9} {'slow':>9} {'ratio':>8}")
    for n in args.sizes:
        ts, typical, slow_t = run_size(n, args.seeds, args.threshold)
        print(
            f"{n:>3} {ts.boltzmann_time:>9.4f} {ts.heisenberg_time:>9.3f} "
            f"{typical:>9.4f} {slow_t:>9.3f} {slow_t / typical:>8.1f}"
        )


if __name__ == "__main__":
    main()
