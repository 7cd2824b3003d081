import hashlib
import importlib
import multiprocessing
import os
import pkgutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mlpicard
import mlpicard.harness as harness_mod
from helpers import csv_without_wall
from mlpicard.cli import main
from mlpicard.errors import ConfigError, ResourceLimitError, WorkerCrashError
from mlpicard.harness import build_config, direct_gronwall, direct_two_step, run
from mlpicard.mlp import realize_estimate, rep_seed

QUICK_CONVERGENCE = [
    "problem=law_only_linear", "b=-1.0", "d=1", "T=1.0", "xi=1.0",
    "k_min=1", "k_max=2", "reps=10", "seed=7",
]
QUICK_PARTICLES = ["particles_n=80", "particles_m=8"]


def _cfg(mode, tmp_path, extra=(), name="out.csv", jobs=1):
    sets = list(QUICK_CONVERGENCE) + list(extra)
    return build_config(None, sets, mode=mode, out=str(tmp_path / name), jobs=jobs)


# Masked SHA-256 of each mode's CSV at a small config.  Any change to these
# bytes (rows, footers, config echo, number formatting) must be deliberate.
GOLDEN_BASE = [
    "problem=law_only_linear", "b=-1.0", "d=2", "k_min=1", "k_max=4", "reps=20", "seed=11",
]
GOLDEN_SINE = ["problem=sine_meanfield", "L=1.0"]
GOLDEN_PARTICLES = ["particles_n=60", "particles_m=6"]
GOLDEN_CSV = {
    "convergence": ([], "bb0156a283e7a189bbf9cd3319b2fbab2d1fdf27fdbdeb40366e78dc84d15bbf"),
    "cost-table": (GOLDEN_SINE, "777afb57af3688da51ee56e5a56db2dd9757ea9dd5e611d4e359f26089ce8768"),
    "verify-bounds": (
        GOLDEN_SINE + GOLDEN_PARTICLES + ["rec_draws=40", "bound_draws=40"],
        "6d1861b768befefba7200fddd3e970ca2674152f4beee545ac20980d76c7918f",
    ),
    "oracle-compare": (
        GOLDEN_SINE + GOLDEN_PARTICLES + ["mlp_n=3", "mlp_m=2"],
        "1018169029cd7a07210099ede8cf934cf12faea1912c37b85cb1f97eb7c4bf11",
    ),
    "recursion-selftest": (
        ["rec_draws=40"], "23b1e52c538e32119c1fe59d0475fc358aff0b733e397dbed111d7cc8668eee1",
    ),
    "certificate": (
        ["problem=zero_drift", "xi=0.0", "delta=0.95", "cert_kmax=200"],
        "6b709aafbbbc8779d6ad3efa072ad5b64e11ff7263cc18792276416474a1c0bb",
    ),
}


@pytest.mark.parametrize(
    "mode, jobs",
    [(mode, 1) for mode in GOLDEN_CSV] + [("convergence", 2), ("oracle-compare", 2)],
)
def test_mode_csv_golden(tmp_path, mode, jobs):
    extra, want = GOLDEN_CSV[mode]
    out = tmp_path / f"{mode}.csv"
    run(build_config(None, GOLDEN_BASE + extra, mode=mode, out=str(out), jobs=jobs))
    assert hashlib.sha256(csv_without_wall(out).encode()).hexdigest() == want


def test_config_file_and_sets(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nproblem=sine_meanfield\nL=1.0\nreps=12\n\nseed=3 # inline\n")
    cfg = build_config(str(path), ["reps=20"], mode="convergence")
    assert cfg.problem == "sine_meanfield"
    assert cfg.reps == 20  # --set overrides the file
    assert cfg.seed == 3


def test_config_errors():
    with pytest.raises(ConfigError):
        build_config(None, ["nonsense=1"], mode="convergence")
    with pytest.raises(ConfigError):
        build_config(None, ["reps=abc"], mode="convergence")
    with pytest.raises(ConfigError):
        build_config(None, ["reps"], mode="convergence")
    with pytest.raises(ConfigError):
        build_config(None, [], mode="no-such-mode")
    with pytest.raises(ConfigError):
        build_config(None, ["k_max=5"], mode="convergence")  # needs --extended
    build_config(None, ["k_max=5", "extended=true"], mode="convergence")
    with pytest.raises(ConfigError):
        build_config(None, ["delta=1.5"], mode="certificate")
    with pytest.raises(ConfigError):
        build_config(None, ["eps_list=0.5,-1"], mode="certificate")
    for count in ("rec_draws", "bound_draws"):
        for bad in (0, -3):
            with pytest.raises(ConfigError, match=count):
                build_config(None, [f"{count}={bad}"], mode="verify-bounds")
    # mean-only problems cannot drive the coupled-error mode
    cfg = build_config(None, ["problem=full_linear"], mode="convergence")
    with pytest.raises(ConfigError):
        run(cfg)


def test_convergence_mode_rows_and_determinism(tmp_path):
    cfg1 = _cfg("convergence", tmp_path, name="a.csv")
    res = run(cfg1)
    assert res.ok
    assert len(res.rows) == 2
    text = Path(cfg1.out).read_text()
    assert text.startswith("# mlpicard csv v")
    assert "# mode=convergence" in text
    assert any(line.startswith("slope=") for line in (f[2:] for f in text.splitlines() if f.startswith("# ")))

    cfg2 = _cfg("convergence", tmp_path, name="b.csv")
    run(cfg2)
    assert csv_without_wall(cfg1.out) == csv_without_wall(cfg2.out)


def test_convergence_slope_negative_full_grid(tmp_path):
    # log-RMSE trend over k = 1..4 is negative at 95% for the linear problem
    cfg = build_config(
        None,
        ["problem=law_only_linear", "b=-1.0", "k_min=1", "k_max=4", "reps=50", "seed=7"],
        mode="convergence",
        out=str(tmp_path / "slope.csv"),
        jobs=2,
    )
    res = run(cfg)
    assert res.ok
    assert "slope_negative_95=1" in res.footer
    assert "monotone_95=1" in res.footer


def test_convergence_jobs_do_not_change_bytes(tmp_path):
    serial = _cfg("convergence", tmp_path, name="serial.csv", jobs=1)
    pooled = _cfg("convergence", tmp_path, name="pooled.csv", jobs=2)
    run(serial)
    run(pooled)
    assert csv_without_wall(serial.out) == csv_without_wall(pooled.out)


def test_cost_table_mode(tmp_path):
    cfg = _cfg("cost-table", tmp_path, extra=["problem=sine_meanfield", "L=1.0", "k_max=3"])
    res = run(cfg)
    assert res.ok
    assert len(res.rows) == 9
    columns = dict(zip(res.columns, zip(*res.rows)))
    assert all(columns["draws"][i] <= columns["draws_budget"][i] for i in range(9))
    assert all(columns["cost_budget"][i] <= columns["cost_bound"][i] for i in range(9))
    cell = {(row[0], row[1]): row for row in res.rows}[(2, 2)]
    by_name = dict(zip(res.columns, cell))
    assert by_name["cost_budget"] == 27
    assert by_name["cost_bound"] == 128
    assert by_name["draws"] + by_name["evals"] <= 27

    rerun = _cfg("cost-table", tmp_path, extra=["problem=sine_meanfield", "L=1.0", "k_max=3"],
                 name="again.csv")
    run(rerun)
    assert csv_without_wall(cfg.out) == csv_without_wall(rerun.out)


def test_verify_bounds_mode(tmp_path):
    extra = QUICK_PARTICLES + ["problem=sine_meanfield", "L=1.0", "rec_draws=40", "bound_draws=40"]
    cfg = _cfg("verify-bounds", tmp_path, extra=extra)
    res = run(cfg)
    assert res.ok, res.rows
    checks = {row[0] for row in res.rows}
    assert "particle_second_moment_root" in checks
    assert "gronwall_majorant_overshoot_max" in checks

    rerun = _cfg("verify-bounds", tmp_path, extra=extra, name="again.csv")
    run(rerun)
    assert csv_without_wall(cfg.out) == csv_without_wall(rerun.out)


def test_oracle_compare_mode(tmp_path):
    extra = QUICK_PARTICLES + ["problem=sine_meanfield", "L=1.0", "mlp_n=2", "mlp_m=2", "reps=20"]
    cfg = _cfg("oracle-compare", tmp_path, extra=extra)
    res = run(cfg)
    assert res.ok
    assert any(entry.startswith("distance=") for entry in res.footer)

    rerun = _cfg("oracle-compare", tmp_path, extra=extra, name="again.csv", jobs=2)
    run(rerun)
    assert csv_without_wall(cfg.out) == csv_without_wall(rerun.out)


def test_recursion_selftest_mode(tmp_path):
    cfg = _cfg("recursion-selftest", tmp_path, extra=["rec_draws=60"])
    res = run(cfg)
    assert res.ok
    suites = {row[0] for row in res.rows}
    assert "budget_vs_bruteforce" in suites
    assert "two_step_complex" in suites

    rerun = _cfg("recursion-selftest", tmp_path, extra=["rec_draws=60"], name="again.csv")
    run(rerun)
    assert csv_without_wall(cfg.out) == csv_without_wall(rerun.out)


def test_certificate_mode_attained(tmp_path):
    extra = ["problem=zero_drift", "xi=0.0", "delta=0.95", "cert_kmax=200"]
    cfg = _cfg("certificate", tmp_path, extra=extra)
    res = run(cfg)
    assert res.ok
    assert "sup_attained=1" in res.footer
    rerun = _cfg("certificate", tmp_path, extra=extra, name="again.csv")
    run(rerun)
    assert csv_without_wall(cfg.out) == csv_without_wall(rerun.out)


def test_certificate_mode_reports_non_attainment(tmp_path):
    # delta = 0.5 still rises at k = 200: an honest failure, exit code 1
    extra = ["problem=zero_drift", "xi=0.0", "delta=0.5", "cert_kmax=200"]
    cfg = _cfg("certificate", tmp_path, extra=extra)
    res = run(cfg)
    assert not res.ok
    assert "sup_attained=0" in res.footer


@pytest.mark.parametrize("reps", [7, 64])
def test_repetitions_do_not_depend_on_jobs_or_chunks(monkeypatch, reps):
    # chunks of 1 (reps = 7) and of 16, 8 and 5 with a short last one
    # (reps = 64) give each seed's realization, in seed order
    cfg = build_config(None, ["d=2", f"reps={reps}", "seed=5"], mode="convergence")
    spec = harness_mod.problem_spec(cfg)
    problem = spec.build()
    want = []
    for r in range(reps):
        single = realize_estimate(problem, 2, 2, rep_seed(cfg.seed, r))
        want.append((single.value.tolist(), single.w0_terminal.tolist(),
                     *single.ledger.snapshot()))
    runs = {}
    for jobs in (1, 2, 3):
        cfg = replace(cfg, jobs=jobs)
        with harness_mod._worker_pool(jobs) as pool:
            runs[jobs] = harness_mod._repetitions(cfg, spec, 2, 2, pool)
    monkeypatch.setattr(harness_mod, "_CHUNK_BUDGET", 1)  # every chunk one seed
    runs["cap"] = harness_mod._repetitions(cfg, spec, 2, 2, None)
    for jobs, got in runs.items():
        assert repr(got) == repr(want), jobs


class CountedPool(ProcessPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("mode, extra", [
    ("convergence", ["k_max=4", "reps=8"]),
    ("oracle-compare", QUICK_PARTICLES + ["mlp_n=2", "mlp_m=2", "reps=8"]),
])
def test_one_worker_pool_per_run(tmp_path, monkeypatch, mode, extra):
    # every level of a run shares one pool; in process there is none
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountedPool)
    for jobs, want in ((2, 1), (1, 0)):
        CountedPool.made = 0
        res = run(_cfg(mode, tmp_path, extra=extra, name=f"{jobs}.csv", jobs=jobs))
        assert res.ok
        assert CountedPool.made == want, jobs
    if mode == "convergence":
        assert len(res.rows) == 4


def _dying_worker(task):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool through fork")
def test_dead_worker_fails_closed(tmp_path, monkeypatch, capfd):
    # a worker killed mid-run is a worker failure (exit 3) with one line on
    # stderr, not a BrokenProcessPool traceback, and no CSV
    monkeypatch.setattr(harness_mod, "_worker", _dying_worker)
    out = tmp_path / "dead.csv"
    code = main(["convergence", "--jobs", "2", "--reps", "8", "--set", "k_max=2",
                 "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 3
    assert err.startswith("worker failure: a worker process died")
    assert "Traceback" not in err
    assert not out.exists()
    assert issubclass(WorkerCrashError, ResourceLimitError)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_drift_exit_code(tmp_path, capsys):
    # b * y overflows for y near xi = 10: refused mid-recursion (exit 2)
    # instead of a nan RMSE row, in process and from a worker
    out = tmp_path / "inf.csv"
    for jobs in ("1", "2"):
        code = main(["convergence", "--set", "b=1e308", "--set", "xi=10",
                     "--set", "k_min=2", "--set", "k_max=2", "--reps", "4",
                     "--jobs", jobs, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: drift 'law_only_linear' returned a non-finite")
        assert not out.exists()


def test_direct_recursion_helpers_match_naive_loops():
    forcing = np.array([1.0, -0.5, 2.0, 0.25, -1.0])
    kappa, lam = 0.7, 1.3
    naive = []
    for n in range(len(forcing)):
        total = forcing[n]
        for k in range(n):
            total += kappa * naive[k]
            if k >= 1:
                total += lam * naive[k - 1]
        naive.append(total)
    assert np.allclose(direct_gronwall(kappa, lam, forcing), naive, rtol=1e-13)
    two = direct_two_step(kappa, lam, forcing)
    assert two[2] == pytest.approx(forcing[2] + kappa * two[1] + lam * two[0], rel=1e-13)


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "cli.csv"
    ok = main([
        "recursion-selftest", "--set", "rec_draws=40", "--out", str(out), "--seed", "5",
    ])
    assert ok == 0
    assert out.exists()

    assert main(["convergence", "--set", "bogus=1", "--out", str(out)]) == 2

    refused = main([
        "convergence", "--set", "cost_ceiling=10", "--reps", "4",
        "--set", "k_min=2", "--set", "k_max=2", "--out", str(out),
    ])
    assert refused == 3

    failing = main([
        "certificate", "--set", "problem=zero_drift", "--set", "xi=0.0",
        "--set", "delta=0.5", "--set", "cert_kmax=200", "--out", str(out),
    ])
    assert failing == 1


def test_statistical_failure_exit_code(tmp_path, monkeypatch):
    # force the bound to zero: every row must fail and the CLI must say so
    monkeypatch.setattr(harness_mod, "error_bound", lambda *args: 0.0)
    code = main([
        "convergence", "--set", "reps=5", "--set", "k_max=1",
        "--out", str(tmp_path / "fail.csv"), "--seed", "2",
    ])
    assert code == 1
    text = Path(tmp_path / "fail.csv").read_text()
    assert "FAIL" in text  # machine-readable failure rows


def test_certificate_default_config_reports_rows(tmp_path):
    # the default accuracies select n_eps = 75, 77, 78, whose cost bounds
    # leave the 64-bit range; the check runs in log space and the table is
    # written with exact integer bounds.  At the default delta = 0.5 the
    # supremand still rises at cert_kmax = 200, so the run is an honest
    # non-attainment (exit 1), not a refusal (exit 3)
    out = tmp_path / "cert.csv"
    assert main(["certificate", "--out", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    assert [r[col["n_eps"]] for r in body] == ["75", "77", "78"]
    assert [r[col["status"]] for r in body] == ["ok"] * 3
    for row in body:
        n = int(row[col["n_eps"]])
        assert int(row[col["cost_bound"]]) == 2 * (4 * n) ** n
        assert float(row[col["log_lhs"]]) < float(row[col["log_rhs"]])
    assert [round(float(r[col["log_lhs"]]), 1) for r in body] == [426.7, 437.9, 442.9]
    assert round(float(body[0][col["log_rhs"]]), 1) == 1083.2
    assert "# sup_attained=0" in out.read_text()


def test_certificate_refuses_unprintable_cost_bound(tmp_path, capsys):
    # L*T = 25 pushes n_eps past 7000, where (4n)**n has more digits than a
    # CSV cell may hold: a refusal (exit 3), not a traceback
    code = main([
        "certificate", "--set", "problem=sine_meanfield", "--set", "L=5.0",
        "--set", "T=5.0", "--set", "cert_kmax=20000", "--set", "eps_list=0.5",
        "--out", str(tmp_path / "cert.csv"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("resource refusal:")


@pytest.mark.parametrize(
    "mode, count",
    [("recursion-selftest", "rec_draws"), ("verify-bounds", "rec_draws"),
     ("verify-bounds", "bound_draws")],
)
def test_empty_suites_fail_closed(tmp_path, capsys, mode, count):
    # a suite of no cases would pass vacuously (cases=0, or a worst gap of
    # -inf); the count is refused as a configuration error, before any CSV
    out = tmp_path / "empty.csv"
    code = main([mode, "--set", f"{count}=0", "--out", str(out)] + [
        arg for item in QUICK_PARTICLES for arg in ("--set", item)
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: need rec_draws >= 1")
    assert not out.exists()


# The modes that run the estimator, each at one (n, m) = (2, 2) budget.
BUDGETED_MODES = {
    "convergence": ["k_min=2", "k_max=2", "reps=4"],
    "cost-table": ["k_min=2", "k_max=2"],
    "oracle-compare": ["mlp_n=2", "mlp_m=2", "reps=4"] + QUICK_PARTICLES,
}


@pytest.mark.parametrize("mode", list(BUDGETED_MODES))
def test_budget_refusal_in_every_caller(tmp_path, capsys, mode):
    # the cost budget at n = m = 2, d = 1 is 27: one below refuses (exit 3)
    # before any output, the budget itself runs
    out = tmp_path / "out.csv"
    sets = [arg for item in BUDGETED_MODES[mode] for arg in ("--set", item)]
    args = [mode, "--out", str(out)] + sets
    assert main(args + ["--set", "cost_ceiling=26"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource refusal: cost budget 27 for (n=2, m=2, d=1)")
    assert "ceiling 26" in err
    assert not out.exists()
    assert main(args + ["--set", "cost_ceiling=27"]) == 0
    assert out.exists()


def test_public_names_resolve():
    # every name in the package's and each submodule's __all__ is an
    # attribute of that module; a stale name would be skipped silently by
    # whatever walks __all__ with getattr(module, name, None)
    modules = [mlpicard] + [
        importlib.import_module(f"mlpicard.{info.name}")
        for info in pkgutil.iter_modules(mlpicard.__path__)
        if not info.name.startswith("_")
    ]
    assert len(modules) >= 11
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_resource_refusal_from_run(tmp_path):
    cfg = _cfg("convergence", tmp_path, extra=["cost_ceiling=5", "k_min=2", "k_max=2"])
    with pytest.raises(ResourceLimitError):
        run(cfg)


def test_17_digit_formatting(tmp_path):
    cfg = _cfg("recursion-selftest", tmp_path, extra=["rec_draws=30"])
    run(cfg)
    text = Path(cfg.out).read_text()
    assert "1.0000000000000001e-09" in text  # tol column, 17 significant digits
