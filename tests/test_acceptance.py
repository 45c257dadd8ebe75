"""End-to-end checks of the package's headline behavior, one test per claim.

Each test prints the measured numbers next to the bound it enforces, so a
verbose run doubles as a checklist of what the laboratory demonstrates:
dephasing on the Boltzmann scale, the slow observable's survival, Gaussian
occupied spectra, the two entanglement-growth regimes, light cones, and
bit-reproducible experiment runs.
"""
import hashlib
import math

import numpy as np
import pytest
import yaml
from scipy.stats import spearmanr

import quenchlab as ql
from conftest import typical_runs
from oracles import SiteRegion, dense_vectors, entropy, evolve_spectral, krylov_evolve, slow_observable

LN2 = math.log(2.0)


def median_relax(runs, threshold):
    reps = [ql.relaxation_time(series, eq, threshold) for series, eq in runs]
    assert all(r.relaxed for r in reps), "a typical observable never settled"
    return float(np.median([r.relaxation_time for r in reps]))


def test_typical_observables_relax_on_the_boltzmann_scale(typical_runs10, quench10):
    med = median_relax(typical_runs10, 1.0 / math.e) / quench10.ts.boltzmann_time
    print(f"median typical relaxation: {med:.3f} boltzmann times (required 0.2..5)")
    assert 0.2 <= med <= 5.0


def test_slow_observable_outlives_typical_by_growing_margins(
    quench6, quench8, quench10, typical_runs10
):
    threshold = 0.7
    ratios = []
    for q, runs in (
        (quench6, typical_runs(quench6)),
        (quench8, typical_runs(quench8)),
        (quench10, typical_runs10),
    ):
        med_typical = median_relax(runs, threshold)
        series = ql.slow_series(q.sdata, ql.default_slow_grid(q.ts))
        rep = ql.relaxation_time(
            series, ql.diagonal_ensemble(q.sdata, np.zeros(q.sdata.dim)), threshold
        )
        assert rep.relaxed, f"slow observable never settled at {q.params.n_sites} sites"
        ratios.append(rep.relaxation_time / med_typical)
        if q is quench10:
            eq = rep.equilibrium_value
            k = int(np.searchsorted(series.times, 20.0 * q.ts.boltzmann_time))
            retention = abs(series.values[k] - eq) / abs(series.values[0] - eq)
    print(
        "slow/typical relaxation ratios at 6, 8, 10 sites: "
        + ", ".join(f"{r:.1f}" for r in ratios)
        + f" (strictly increasing, last >= 10); retention at 20 boltzmann "
        f"times: {retention:.2f} (required >= 0.5)"
    )
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] >= 10.0
    assert retention >= 0.5


def test_slow_observable_matches_its_cosine_sum(quench8):
    # the cosine sum the library evaluates against the series of the dense
    # band of adjacent occupied levels
    sdata = quench8.sdata
    grid = ql.default_slow_grid(quench8.ts)
    series = ql.slow_series(sdata, grid)
    oracle = ql.expectation_series(sdata, slow_observable(sdata), grid).values
    err = float(np.max(np.abs(series.values - oracle)))
    print(f"max deviation from the dense band's series: {err:.2e} (required < 1e-10)")
    assert err < 1e-10


def test_occupied_density_of_states_is_near_gaussian(quench12):
    fit = ql.dos_fit(quench12.sdata)
    print(
        f"occupied spectrum at 12 sites: skewness {fit.skewness:+.4f} (|.| <= 0.3), "
        f"excess kurtosis {fit.excess_kurtosis:+.4f} (|.| <= 0.5), "
        f"max CDF deviation {fit.max_cdf_deviation:.4f} (<= 0.08)"
    )
    assert abs(fit.skewness) <= 0.3
    assert abs(fit.excess_kurtosis) <= 0.5
    assert fit.max_cdf_deviation <= 0.08


def test_entanglement_distinguishes_local_from_scrambled_dynamics(
    quench12, scrambled12
):
    # local chain: every interior cut grows linearly at nearly the same rate
    grid = ql.linear_grid(3.0, 46)
    profile = ql.entropy_scan(quench12.eig, quench12.psi0, range(1, 12), grid)
    fit = ql.growth_fit(profile)
    interior = [c for c in profile.cuts if 3 <= c <= 9]
    for cut in interior:
        f = fit.for_cut(cut)
        assert not f.window_too_small
        assert f.r_squared >= 0.95, f"cut {cut}: r^2 {f.r_squared:.4f}"
    t_end = min(fit.for_cut(c).fit_window[1] for c in interior)
    rows = [profile.cuts.index(c) for c in interior]
    cols = np.nonzero((grid.times > 0) & (grid.times <= t_end + 1e-12))[0]
    sub = profile.entropies[np.ix_(rows, cols)]
    spread = float(np.max((sub.max(axis=0) - sub.min(axis=0)) / sub.mean(axis=0)))
    r2_min = min(fit.for_cut(c).r_squared for c in interior)

    # scrambled partner: entropy tracks the smaller block and reaches the
    # random-state plateau within a few Boltzmann times
    tau = scrambled12.ts.boltzmann_time
    cuts = tuple(range(1, 12))
    scan = ql.entropy_scan(
        scrambled12.eig, scrambled12.psi0, cuts, ql.TimeGrid([tau, 5.0 * tau])
    )
    block = [min(c, 12 - c) for c in cuts]
    rho, _ = spearmanr(scan.entropies[:, 0], block)
    page = 6.0 * LN2 - 0.5
    frac = scan.entropies[cuts.index(6), 1] / page
    print(
        f"local growth: interior spread {spread:.3f} (< 0.2), min r^2 {r2_min:.4f} "
        f"(>= 0.95); scrambled: block-size correlation {rho:.3f} (> 0.9), "
        f"half-cut at 5 boltzmann times {frac:.3f} of the random-state value (>= 0.8)"
    )
    assert spread < 0.2
    assert rho > 0.9
    assert frac >= 0.8


def test_correlations_stay_inside_the_light_cone(quench12):
    grid = ql.linear_grid(3.0, 61)
    front = ql.light_cone(quench12.eig, quench12.psi0, 0, grid, threshold=0.01)
    defined = int(np.sum(~np.isnan(front.arrival_times)))
    radii = np.asarray(front.radii, dtype=float)[:, None]
    exterior = radii > 2.0 * front.velocity * grid.times[None, :] + 1.0
    ext_max = float(front.correlator[exterior].max()) if exterior.any() else 0.0

    # velocity recovery on a synthetic ballistic front of known speed
    r_syn = np.arange(1, 9)
    t_syn = np.linspace(0.0, 6.0, 400)
    corr = np.exp(-np.maximum(0.0, r_syn[:, None] - 2.0 * t_syn[None, :]) / 0.25)
    _, v_syn = ql.fit_front(r_syn, t_syn, corr, threshold=0.5)
    print(
        f"front velocity {front.velocity:.3f} with {defined} arrivals (>= 4); "
        f"max correlation outside twice the cone {ext_max:.2e} (< 1e-3); "
        f"synthetic speed-2 front recovered as {v_syn:.3f} (within 10%)"
    )
    assert defined >= 4
    assert ext_max < 1e-3
    assert abs(v_syn - 2.0) <= 0.2


def test_independent_numerical_routes_agree(quench8):
    # iterated Krylov propagation against the exact spectral evolution
    dt = quench8.ts.boltzmann_time
    psi = quench8.psi0
    worst_fidelity = 1.0
    for k in range(1, 21):
        psi = krylov_evolve(quench8.chain, psi, dt)
        exact = evolve_spectral(quench8.eig, quench8.psi0, k * dt)
        worst_fidelity = min(
            worst_fidelity, abs(np.vdot(exact.amplitudes, psi.amplitudes))
        )

    # reduced-state entropy against the singular-value route
    rng = np.random.default_rng(20240817)
    region = SiteRegion(0, 4, 8)
    worst_entropy_gap = 0.0
    for _ in range(50):
        amp = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        amp /= np.linalg.norm(amp)
        state = ql.PureState(amp)
        lam = np.linalg.svd(amp.reshape(16, 16), compute_uv=False) ** 2
        lam = lam[lam > 1e-14]
        oracle = float(-np.sum(lam * np.log(lam)))
        worst_entropy_gap = max(
            worst_entropy_gap, abs(entropy(state, region) - oracle)
        )

    # fast expectation path against the literal double sum over level pairs,
    # written in the gauge diagonalize returns: complex overlaps c and the
    # observable dressed with their phases, D O D^dag
    obs = ql.typical_observable(256, seed=0)
    grid = ql.linear_grid(2.0, 30)
    series = ql.expectation_series(quench8.sdata, obs, grid)
    c = dense_vectors(quench8.eig).conj().T @ quench8.psi0.amplitudes
    unit = np.exp(1j * np.angle(c))
    dressed = unit[:, None] * obs.matrix * unit.conj()[None, :]
    e = quench8.sdata.eigenvalues
    pair = c.conj()[:, None] * dressed * c[None, :]
    worst_sum_gap = 0.0
    for k, t in enumerate(grid.times):
        total = np.sum(pair * np.exp(1j * (e[:, None] - e[None, :]) * t))
        worst_sum_gap = max(worst_sum_gap, abs(total.real - series.values[k]))
    print(
        f"krylov fidelity over 20 steps: {worst_fidelity:.12f} (>= 1 - 1e-10); "
        f"entropy vs singular values: {worst_entropy_gap:.2e} (< 1e-10); "
        f"double sum vs matrix route: {worst_sum_gap:.2e} (< 1e-10)"
    )
    assert worst_fidelity >= 1.0 - 1e-10
    assert worst_entropy_gap < 1e-10
    assert worst_sum_gap < 1e-10


def test_matched_random_matrix_reproduces_chain_relaxation(
    quench10, goe10, typical_runs10, typical_runs10_goe
):
    threshold = 1.0 / math.e
    chain_med = median_relax(typical_runs10, threshold) / quench10.ts.boltzmann_time
    goe_med = median_relax(typical_runs10_goe, threshold) / goe10.ts.boltzmann_time
    ratio = goe_med / chain_med

    tau = goe10.ts.boltzmann_time
    cuts = tuple(range(1, 10))
    scan = ql.entropy_scan(
        goe10.eig, goe10.psi0, cuts, ql.TimeGrid([tau, 5.0 * tau])
    )
    block = [min(c, 10 - c) for c in cuts]
    rho, _ = spearmanr(scan.entropies[:, 0], block)
    page = 5.0 * LN2 - 0.5
    frac = scan.entropies[cuts.index(5), 1] / page
    print(
        f"relaxation ratio random-matrix/chain: {ratio:.3f} (within 1/3..3); "
        f"block-size correlation {rho:.3f} (> 0.9); half-cut at 5 boltzmann "
        f"times {frac:.3f} of the random-state value (>= 0.8)"
    )
    assert 1.0 / 3.0 <= ratio <= 3.0
    assert rho > 0.9
    assert frac >= 0.8


def test_cli_runs_are_deterministic_across_thread_counts(tmp_path):
    from quenchlab import cli

    raw = {
        "kind": "relax",
        "model": {"n_sites": 8},
        "observables": {"typical_count": 2, "slow": True},
        "master_seed": 5,
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out, threads in zip(outs, ("1", "3")):
        code = cli.main(
            ["run", str(config), "--out-dir", str(out), "--threads", threads]
        )
        assert code == 0
    names = sorted(p.name for p in outs[0].iterdir() if p.suffix == ".csv")
    assert names == [
        "series_slow.csv",
        "series_typical_0.csv",
        "series_typical_1.csv",
    ]
    digests = []
    for out in outs:
        digests.append(
            {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
        )
    manifests = []
    for out in outs:
        m = yaml.safe_load((out / "manifest.yaml").read_text())
        m["config"]["out_dir"] = ""
        manifests.append(m)
    print(
        f"single- and triple-thread runs emitted identical bytes for {len(names)} "
        "series files and matching manifests"
    )
    assert digests[0] == digests[1]
    assert manifests[0] == manifests[1]
