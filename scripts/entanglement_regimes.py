"""Entanglement growth under a local chain and its scrambled twin.

Same spectrum, same initial state: the local chain grows entropy at a
cut-independent rate because only the cut's boundary does work, while the
scrambled Hamiltonian fills every bipartition to the random-state plateau
within a few Boltzmann times. The local profile is scanned over the
linear-growth window, the scrambled one over five Boltzmann times.
"""
import argparse
from pathlib import Path

# quenchlab before numpy: it sets OPENBLAS_THREAD_TIMEOUT, which OpenBLAS
# reads when numpy loads it, so that idle BLAS threads sleep
import quenchlab as ql
import numpy as np


def neel(n: int) -> ql.PureState:
    return ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])


def profile_csv(path: Path, profile: ql.EntanglementProfile) -> None:
    rows = ["t,cut,entropy_nats"]
    for k, t in enumerate(profile.grid.times):
        for i, cut in enumerate(profile.cuts):
            rows.append(f"{t:.17g},{cut},{profile.entropies[i, k]:.17g}")
    path.write_text("\n".join(rows) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=10)
    ap.add_argument("--points", type=int, default=46)
    ap.add_argument("--scramble-seed", type=int, default=1)
    ap.add_argument("--out-dir", default="entanglement_out")
    args = ap.parse_args()

    n = args.sites
    params = ql.ChainParams(n_sites=n)
    chain_eig = ql.diagonalize(ql.build_local_chain(params))
    psi0 = neel(n)
    cuts = range(1, n)
    page = (n // 2) * np.log(2.0) - 0.5

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pairs = (("local", chain_eig), ("scrambled", ql.scramble(chain_eig, args.scramble_seed)))
    for tag, eig in pairs:
        ts = ql.timescales(ql.occupied_spectrum(eig, psi0))
        t_max = 3.0 / abs(params.J) if tag == "local" else 5.0 * ts.boltzmann_time
        profile = ql.entropy_scan(eig, psi0, cuts, ql.linear_grid(t_max, args.points))
        profile_csv(out / f"entropy_{tag}.csv", profile)
        half = profile.entropies[list(profile.cuts).index(n // 2)]
        fit = ql.growth_fit(profile).for_cut(n // 2)
        rate = "no fit window" if fit.window_too_small else f"rate {fit.rate:.3f}"
        print(
            f"{tag:>10}: half-cut {rate}, final {half[-1]:.3f} nats "
            f"({half[-1] / page:.2f} of the random-state value)"
        )
    print(f"wrote profiles to {out}")


if __name__ == "__main__":
    main()
