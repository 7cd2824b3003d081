import ast
import hashlib
import importlib
import math
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mlpicard
import mlpicard.harness as harness_mod
import mlpicard.mlp as mlp_mod
import mlpicard.particles as particles_mod
from helpers import csv_without_wall
from mlpicard.cli import main
from mlpicard.errors import ConfigError, ResourceLimitError
from mlpicard.harness import build_config, direct_gronwall, direct_two_step, run
from mlpicard.mlp import realize_estimate, rep_seed
from mlpicard.recursions import complexity_certificate, gronwall_bound

QUICK_CONVERGENCE = [
    "problem=law_only_linear", "b=-1.0", "d=1", "T=1.0", "xi=1.0",
    "k_min=1", "k_max=2", "reps=10", "seed=7",
]
QUICK_PARTICLES = ["particles_n=80", "particles_m=8"]


def _cfg(mode, tmp_path, extra=(), name="out.csv", jobs=1):
    sets = list(QUICK_CONVERGENCE) + list(extra)
    return build_config(None, [*sets, f"mode={mode}", f"out={tmp_path / name}", f"jobs={jobs}"])


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
    run(build_config(None, [*GOLDEN_BASE, *extra, f"mode={mode}", f"out={out}", f"jobs={jobs}"]))
    assert hashlib.sha256(csv_without_wall(out).encode()).hexdigest() == want


def test_config_file_and_sets(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nproblem=sine_meanfield\nL=1.0\nreps=12\n\nseed=3 # inline\n")
    cfg = build_config(str(path), ["reps=20", "mode=convergence"])
    assert cfg.problem == "sine_meanfield"
    assert cfg.reps == 20  # --set overrides the file
    assert cfg.seed == 3


def test_shorthands_win_over_sets(tmp_path):
    # file < --set < shorthand < subcommand: a shorthand is the item after
    # every --set item, and the subcommand is the last item of all
    out = tmp_path / "table.csv"
    assert main(["cost-table", "--set", "seed=3", "--seed", "5", "--set", "k_max=2",
                 "--set", "extended=false", "--extended", "--set", "mode=convergence",
                 "--out", str(out)]) == 0
    echo = out.read_text().splitlines()[2].split()
    assert {"mode=cost-table", "seed=5", "extended=true"} <= set(echo)


def test_config_errors():
    with pytest.raises(ConfigError):
        build_config(None, ["nonsense=1", "mode=convergence"])
    with pytest.raises(ConfigError):
        build_config(None, ["reps=abc", "mode=convergence"])
    with pytest.raises(ConfigError):
        build_config(None, ["reps", "mode=convergence"])
    with pytest.raises(ConfigError):
        build_config(None, ["mode=no-such-mode"])
    with pytest.raises(ConfigError):
        build_config(None, ["k_max=5", "mode=convergence"])  # needs --extended
    build_config(None, ["k_max=5", "extended=true", "mode=convergence"])
    with pytest.raises(ConfigError):
        build_config(None, ["delta=1.5", "mode=certificate"])
    with pytest.raises(ConfigError):
        build_config(None, ["eps_list=0.5,-1", "mode=certificate"])
    for count in ("rec_draws", "bound_draws"):
        for bad in (0, -3):
            with pytest.raises(ConfigError, match=count):
                build_config(None, [f"{count}={bad}", "mode=verify-bounds"])
    # a problem without a pathwise solution cannot drive the coupled-error mode
    cfg = build_config(None, ["problem=full_linear", "mode=convergence"])
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
    cfg = build_config(None, [
        "problem=law_only_linear", "b=-1.0", "k_min=1", "k_max=4", "reps=50", "seed=7",
        "mode=convergence", f"out={tmp_path / 'slope.csv'}", "jobs=2",
    ])
    res = run(cfg)
    assert res.ok
    assert "slope_negative_95=1" in res.footer
    assert "monotone_95=1" in res.footer


@pytest.mark.parametrize("problem, levels, want", [
    (["problem=law_only_linear", "b=-1.0"], ["k_min=2", "k_max=2"], "0"),
    (["problem=zero_drift"], ["k_min=2", "k_max=2"], "0"),
    (["problem=zero_drift"], ["k_min=1", "k_max=2"], "1"),
])
def test_convergence_slope_footer_without_two_positive_levels(tmp_path, problem, levels, want):
    # a single level shows no trend, whatever its RMSE; errors that vanish on
    # every one of two or more levels are trivially converged
    cfg = build_config(None, problem + levels + ["reps=20", "seed=7", "mode=convergence",
                                                 f"out={tmp_path / 'one.csv'}"])
    res = run(cfg)
    assert "slope=nan" in res.footer
    assert f"slope_negative_95={want}" in res.footer


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


def _majorant_overshoot_loop(kappa, lam, c1, c2, c3, c4, horizon, bound):
    # the majorized inequality run with equality as one float loop, the
    # histories carried as running sums
    worst = -math.inf
    geometric = 0.0
    sum_full = sum_lag = 0.0
    history = []
    for n in range(horizon + 1):
        if n >= 1:
            geometric += c4**n
        a_n = c1 + c2 * n + c3 * geometric + kappa * sum_full + lam * sum_lag
        if n >= 1:
            sum_lag += history[n - 1]
        sum_full += a_n
        history.append(a_n)
        worst = max(worst, a_n - bound(kappa, lam, c1, c2, c3, c4, n))
    return worst


@pytest.mark.parametrize("seed", [7, 11, 2024])
def test_majorant_overshoot_matches_float_loop_per_draw(seed, monkeypatch):
    # every verify-bounds draw, not only the maximum the goldens pin, gives
    # the float loop's overshoot bit for bit
    draws = harness_mod._harness_draws(
        seed, 500, "majorant-params", 6, harness_mod._majorant_parameters
    )

    def check(bound):
        for kappa, lam, cs in draws:
            for horizon in (0, 1, 20):
                got = harness_mod._gronwall_majorant_overshoot(kappa, lam, *cs, horizon=horizon)
                want = _majorant_overshoot_loop(kappa, lam, *cs, horizon, bound)
                assert float(got).hex() == float(want).hex(), (kappa, lam, cs, horizon)

    check(gronwall_bound)
    # The overshoot of every draw here peaks at n = 0, where only c1 counts.
    # Against a zero bound it is the maximal solution at the horizon itself,
    # which every forcing and history term reaches.
    monkeypatch.setattr(harness_mod, "gronwall_bound", lambda *args: 0.0)
    check(lambda *args: 0.0)


def test_oracle_compare_mode(tmp_path):
    extra = QUICK_PARTICLES + ["problem=sine_meanfield", "L=1.0", "mlp_n=2", "mlp_m=2", "reps=20"]
    cfg = _cfg("oracle-compare", tmp_path, extra=extra)
    res = run(cfg)
    assert res.ok
    assert any(entry.startswith("distance=") for entry in res.footer)

    rerun = _cfg("oracle-compare", tmp_path, extra=extra, name="again.csv", jobs=2)
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
    # at delta = 0.5 the supremand peaks at k = 13981, beyond cert_kmax =
    # 200, which bounds only the n_eps table: the run reports the maximum the
    # 40000-term scan of acceptance criterion 7 finds, and passes
    extra = ["problem=zero_drift", "xi=0.0", "delta=0.5", "cert_kmax=200"]
    res = run(_cfg("certificate", tmp_path, extra=extra))
    scan = complexity_certificate(0.5, 1.0, 1, 0.0, 0.0, 0.0, 40000).log_supremand
    assert res.ok
    assert res.footer == [
        f"argmax_k={int(np.argmax(scan)) + 1}", f"log_sup={scan.max():.17g}", "sup_attained=1",
    ]
    assert "argmax_k=13981" in res.footer
    # only a maximum beyond k = 2**53 (delta = 0.05 puts it near e**95) is
    # not attained: an honest failure, exit code 1
    extra[2] = "delta=0.05"
    res = run(_cfg("certificate", tmp_path, extra=extra, name="far.csv"))
    assert not res.ok
    assert res.footer[0] == f"argmax_k={2**53}"
    assert "sup_attained=0" in res.footer


@pytest.mark.parametrize("reps", [7, 64])
def test_repetitions_do_not_depend_on_jobs_or_chunks(monkeypatch, reps):
    # several cells in one queue, each cut into one chunk per worker (reps =
    # 7: 7, then 4 and 3, then 3, 3 and 1; reps = 64: 64, 32 and 32, 22, 22
    # and 20) or into one-seed chunks, give each cell's realizations under
    # each seed, in seed order, and the cells in the order asked
    cfg = build_config(None, ["d=2", f"reps={reps}", "seed=5", "mode=convergence"])
    problem = harness_mod._problem(cfg)
    cells = [(1, 1), (2, 2), (3, 2)]
    want = []
    for n, m in cells:
        singles = [realize_estimate(problem, n, m, rep_seed(cfg.seed, r)) for r in range(reps)]
        assert all(single.ledger.snapshot() == singles[0].ledger.snapshot() for single in singles)
        want.append((np.array([single.value for single in singles]).tobytes(),
                     np.array([single.w0_terminal for single in singles]).tobytes(),
                     singles[0].ledger.snapshot()))
    runs = {jobs: harness_mod._repetitions(replace(cfg, jobs=jobs), cells)
            for jobs in (1, 2, 3)}
    monkeypatch.setattr(harness_mod, "_CHUNK_BUDGET", 1)  # every chunk one seed
    runs["cap"] = harness_mod._repetitions(replace(cfg, jobs=1), cells)
    for jobs, got in runs.items():
        assert [(values.tobytes(), w0.tobytes(), tally) for values, w0, tally, _ in got] == want, jobs
        assert all(seconds > 0.0 for *_, seconds in got), jobs


class CountedPool(ProcessPoolExecutor):
    made = 0
    workers: list = []

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        type(self).workers.append(kwargs["max_workers"])
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("mode, extra", [
    ("convergence", ["k_max=4"]),
    ("oracle-compare", QUICK_PARTICLES + ["mlp_n=2", "mlp_m=2"]),
])
def test_one_worker_pool_per_run(tmp_path, monkeypatch, mode, extra):
    # every level of a run shares one pool of min(jobs, reps) workers; in
    # process there is none
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountedPool)
    for jobs, reps, want, workers in ((2, 8, 1, [2]), (3, 2, 1, [2]), (1, 8, 0, [])):
        CountedPool.made, CountedPool.workers = 0, []
        res = run(_cfg(mode, tmp_path, extra=extra + [f"reps={reps}"], name=f"{jobs}.csv",
                       jobs=jobs))
        assert res.ok
        assert CountedPool.made == want, jobs
        assert CountedPool.workers == workers, jobs
    if mode == "convergence":
        assert len(res.rows) == 4


def test_in_process_queue_runs_costliest_cell_first(tmp_path, monkeypatch):
    # in process, as on a pool, the one queue holds every level's chunks
    # costliest level first, each level's in seed order
    ran, worker = [], harness_mod._worker
    monkeypatch.setattr(harness_mod, "_worker", lambda task: ran.append(task[1:]) or worker(task))
    monkeypatch.setattr(harness_mod, "_CHUNK_BUDGET", 1)
    assert run(_cfg("convergence", tmp_path, extra=["k_max=4", "reps=3"])).ok
    seeds = [(rep_seed(7, r),) for r in range(3)]
    assert ran == [(k, k, seed) for k in (4, 3, 2, 1) for seed in seeds]


def _dying_worker(task):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool through fork")
def test_dead_worker_fails_closed(tmp_path, monkeypatch, capfd):
    # a worker killed mid-run is a resource refusal (exit 3) with one line on
    # stderr, not a BrokenProcessPool traceback, and no CSV
    monkeypatch.setattr(harness_mod, "_worker", _dying_worker)
    out = tmp_path / "dead.csv"
    code = main(["convergence", "--jobs", "2", "--reps", "8", "--set", "k_max=2",
                 "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 3
    assert err.startswith("resource refusal: a worker process died")
    assert "Traceback" not in err
    assert not out.exists()


def _refusing_worker(task):
    # every chunk logs its level; the refusing level's chunks refuse at once,
    # and every other chunk pauses (when k = 4 refuses: long enough that the
    # refusal is seen before the workers could reach the cheapest level)
    with open(_refusing_worker.log, "a") as log:
        log.write(f"{task[1]}\n")
    if task[1] == _refusing_worker.refused:
        raise ConfigError(f"k={task[1]} chunk refused")
    time.sleep(_refusing_worker.pause)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool through fork")
@pytest.mark.parametrize("refused, pause", [(4, 0.2), (1, 0.0)], ids=["costliest", "cheapest"])
def test_refusing_chunk_cancels_the_queue(tmp_path, monkeypatch, capfd, refused, pause):
    # a chunk that raises ConfigError ends a pooled run with exit 2, one line
    # on stderr and no CSV, the cheapest level's chunks, reached last,
    # included; when the costliest level refuses, the chunks still queued
    # are cancelled: of the 32 one-seed chunks (k = 1..4, 8 per level,
    # costliest level first) only those a worker had taken or the pool had
    # handed on run, so the cheapest level never does
    monkeypatch.setattr(harness_mod, "_worker", _refusing_worker)
    monkeypatch.setattr(harness_mod, "_CHUNK_BUDGET", 1)
    for name, value in (("log", str(tmp_path / "chunks.log")), ("refused", refused),
                        ("pause", pause)):
        monkeypatch.setattr(_refusing_worker, name, value, raising=False)
    out = tmp_path / "refused.csv"
    code = main(["convergence", "--jobs", "2", "--reps", "8", "--set", "k_max=4",
                 "--out", str(out)])
    err = capfd.readouterr().err
    assert (code, err) == (2, f"config error: k={refused} chunk refused\n")
    assert not out.exists()
    levels = (tmp_path / "chunks.log").read_text().split()
    if refused == 4:
        assert "4" in levels and "1" not in levels and len(levels) < 32, levels


def run_cli(args):
    """(exit code, stderr) of the command line run in a fresh interpreter, so
    numpy's warnings print as they do for a user, also from worker processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "mlpicard", *args], capture_output=True,
                          text=True, env=env)
    return done.returncode, done.stderr


def test_huge_finite_xi_completes(tmp_path):
    # ||xi|| = 1e200 is finite although its square is not, and so is the
    # moment bound: verify-bounds reports finite rows, with no numpy warning
    out = tmp_path / "huge.csv"
    code, err = run_cli(["verify-bounds", "--set", "problem=sine_meanfield", "--set", "xi=1e200",
                         "--set", "particles_n=50", "--set", "particles_m=5", "--set",
                         "rec_draws=40", "--set", "bound_draws=40", "--out", str(out)])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.read_text().splitlines()[4:] if line[0] != "#"]
    assert rows[0][0] == "particle_second_moment_root"
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:4]), rows
    assert 1e200 <= float(rows[0][1]) <= float(rows[0][2]) < 3e200


def test_oracle_compare_huge_finite_xi_keeps_its_errors_finite(tmp_path):
    # the estimator's values near 2.6e200 have finite standard errors whose
    # squares are not: the distance, combined standard error and sigmas stay
    # finite, with no numpy warning, and agreement is decided by them (an
    # infinite standard error would agree with any distance)
    out = tmp_path / "huge.csv"
    code, err = run_cli(["oracle-compare", "--set", "problem=law_only_linear", "--set", "b=1",
                         "--set", "xi=1e200", "--set", "particles_n=50", "--set",
                         "particles_m=5", "--set", "mlp_n=3", "--set", "mlp_m=2", "--reps", "8",
                         "--out", str(out)])
    assert (code, err) == (0, "")
    footer = dict(line[2:].split("=") for line in out.read_text().splitlines()[-4:])
    assert set(footer) == {"distance", "combined_se", "sigmas", "agree_3se"}
    assert all(math.isfinite(float(value)) for value in footer.values()), footer
    assert 1e198 < float(footer["combined_se"]) < 1e200
    assert float(footer["distance"]) <= 3.0 * float(footer["combined_se"])
    assert footer["agree_3se"] == "1"


def test_oracle_compare_floors_its_rule_at_rounding(tmp_path, monkeypatch):
    # at xi = 1e200 both standard errors round to 0, and the means differ by
    # rounding alone (about 2 ulps): they agree, with no numpy warning; a
    # particle mean shifted by 1000 ulps still does not
    args = ["oracle-compare", "--set", "problem=sine_meanfield", "--set", "xi=1e200", "--set",
            "particles_n=50", "--set", "particles_m=5", "--set", "mlp_n=2", "--set", "mlp_m=2",
            "--reps", "8", "--out", str(tmp_path / "huge.csv")]
    assert run_cli(args) == (0, "")
    lines = (tmp_path / "huge.csv").read_text().splitlines()
    footer = dict(line[2:].split("=") for line in lines[-4:])
    assert float(footer["distance"]) > 0.0 and footer["agree_3se"] == "1", footer
    simulate = harness_mod.simulate_particles

    def shifted(*args):
        samples = simulate(*args)
        return samples + 1000 * np.spacing(samples)

    monkeypatch.setattr(harness_mod, "simulate_particles", shifted)
    assert main(args) == 1
    assert "# agree_3se=0" in (tmp_path / "huge.csv").read_text().splitlines()


def test_non_finite_drift_exit_code(tmp_path):
    # convergence: L = 2e155 and the bounds are finite at T = 1e-155, but
    # b * y overflows for y near xi = 1e154 mid-recursion; oracle-compare:
    # xi = 1e307 keeps the estimator finite, but the particles' drift sum
    # over 20 partners passes the double range.  Each is refused (exit 2)
    # instead of a nan row, in process and from a worker, with one line on
    # stderr and no numpy warning
    out = tmp_path / "inf.csv"
    cases = [
        (["convergence", "--set", "T=1e-155", "--set", "b=1e155", "--set", "xi=1e154",
          "--set", "k_min=2", "--set", "k_max=2"],
         "returned a non-finite value mid-recursion"),
        (["oracle-compare", "--set", "problem=law_only_linear", "--set", "b=1",
          "--set", "xi=1e307", "--set", "particles_n=20", "--set", "particles_m=2",
          "--set", "mlp_n=2", "--set", "mlp_m=2"],
         "drove the particle ensemble to a non-finite value"),
    ]
    for args, reason in cases:
        for jobs in ("1", "2"):
            code, err = run_cli(args + ["--reps", "4", "--jobs", jobs, "--out", str(out)])
            assert (code, err) == (2, f"config error: drift 'law_only_linear' {reason}\n")
            assert not out.exists()


@pytest.mark.parametrize("mode, sets", [
    ("convergence", ["T=nan"]),
    ("certificate", ["T=nan"]),
    ("convergence", ["T=inf"]),
    ("convergence", ["xi=nan"]),
    ("convergence", ["xi=inf"]),
    ("verify-bounds", ["problem=sine_meanfield", "L=-1"]),
    ("convergence", ["problem=nope"]),
    ("convergence", ["d=0"]),
    ("convergence", ["T=0"]),
    ("cost-table", ["k_min=3", "k_max=2"]),
    ("convergence", ["--jobs=0"]),
    ("certificate", ["cert_kmax=0"]),
    ("verify-bounds", ["particles_n=1"]),
    ("oracle-compare", ["mlp_n=0"]),
    ("certificate", ["eps_list=0.5,abc"]),
    ("cost-table", ["T=nan"]),
    ("convergence", ["extended=maybe"]),
    ("convergence", ["--config={tmp}/missing.cfg"]),
    ("convergence", ["--config={tmp}/no_equals.cfg"]),
    ("convergence", ["--seed=abc"]),
    ("convergence", ["--reps=x"]),
    ("convergence", ["--jobs=two"]),
    ("certificate", ["cert_kmax=1000001"]),
    ("cost-table", ["--out={tmp}/missing/x.csv"]),
    ("cost-table", ["--out={tmp}"]),
    ("verify-bounds", ["--out={tmp}/missing/x.csv"]),
])
def test_bad_problem_parameters_exit_code(tmp_path, capsys, monkeypatch, mode, sets):
    # a non-finite parameter, one the built-in problem rejects, or any other
    # configuration the harness refuses (an unknown problem, an empty grid, a
    # count below its minimum, cert_kmax above its cap, an unparsable value,
    # the shorthands' included, a missing config file, a config line
    # without '=' or an --out path in a missing directory or naming a
    # directory) is a configuration error (exit 2) with one line on stderr
    # and no CSV; at k = 1 no drift is evaluated mid-recursion to catch it
    # later.  Each is refused before any realization or particle work.  An
    # item starting with -- is a flag, any other a --set pair
    def no_work(*args):
        raise RuntimeError("work started before the refusal")
    for name in ("_realize_batch", "simulate_particles"):
        monkeypatch.setattr(harness_mod, name, no_work)
    (tmp_path / "no_equals.cfg").write_text("seed=3\nreps 4\n")
    out = tmp_path / "bad.csv"
    args = [mode, "--reps", "4", "--set", "k_max=1", "--out", str(out)]
    for item in sets:
        item = item.format(tmp=tmp_path)
        args += [item] if item.startswith("--") else ["--set", item]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode, sets, code, message", [
    ("oracle-compare", ["mlp_n=30", "mlp_m=30"], 3,
     "resource refusal: (n=30, m=30, d=1): cost budget for n=10, m=30 exceeds the 64-bit"),
    ("convergence", ["b=-400", "k_max=2"], 2,
     "config error: error_bound passes the double range at L=800.0, ||xi||=1.0, "),
    ("verify-bounds", ["problem=sine_meanfield", "L=800", "particles_n=50", "particles_m=5"], 2,
     "config error: moment_bound passes the double range at L=800.0, ||xi||=1.0, "),
    # L = 2|b| overflows to inf
    ("convergence", ["b=1e308", "k_max=1"], 2,
     "config error: bound constants must be finite, got L=inf, ||xi||=1.0, "),
    ("certificate", ["b=1e308"], 2,
     "config error: bound constants must be finite, got L=inf, ||xi||=1.0, "),
    # ||xi|| = 2e308 passes the double range
    ("verify-bounds", ["problem=sine_meanfield", "xi=1e308", "d=4", "particles_n=20",
                       "particles_m=2"],
     2, "config error: bound constants must be finite, got L=1.0, ||xi||=inf, "),
    # finite constants, but the moment bound's product overflows to inf
    ("verify-bounds", ["problem=sine_meanfield", "xi=1e154", "L=200", "T=2"], 2,
     "config error: moment_bound passes the double range at L=200.0, ||xi||=1e+154, "),
    # a particle ensemble past the pairwise ceiling, or whose noise (2 x 5e8
    # steps) or pair buffer (64 x 64 x 976562) passes the array ceiling
    ("oracle-compare", ["particles_n=200000", "mlp_n=4", "mlp_m=4"], 3,
     "resource refusal: pairwise work N*N*M*d = 8000000000000 exceeds the ceiling 4000000000"),
    ("oracle-compare", ["particles_n=2", "particles_m=500000000"], 3,
     "resource refusal: particle arrays of 1000000004 elements (noise N*M*d = 1000000000, "),
    ("verify-bounds", ["particles_n=64", "particles_m=1", "d=976562"], 3,
     "resource refusal: particle arrays of 4062497920 elements (noise N*M*d = 62499968, "),
])
def test_out_of_range_budget_or_bound_fails_closed(tmp_path, capsys, monkeypatch, mode, sets,
                                                   code, message):
    # a cost budget past 64 bits or a particle ensemble past its size
    # ceilings is a resource refusal (exit 3), and a bound constant that is
    # not finite, or an error or moment bound past the double range (by an
    # OverflowError or as inf), a configuration error (exit 2) naming the
    # constants: one line on stderr, no traceback and no CSV, before any
    # estimator or particle work starts
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(harness_mod, "_realize_batch", no_work)
    monkeypatch.setattr(harness_mod, "simulate_particles", no_work)
    out = tmp_path / "refused.csv"
    args = [mode, "--reps", "4", "--out", str(out)]
    assert main(args + [arg for item in sets for arg in ("--set", item)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert not out.exists()


def test_wall_columns_time_each_rows_own_work(tmp_path, monkeypatch):
    # every CSV hash masks wall_s, but perfbench's particles-dense rate
    # divides the particle work by the particle row's wall_s: a 50 ms pause in
    # the particle simulation must show in that row of verify-bounds and in
    # no later row, and the rows of oracle-compare share the one span of
    # their estimate
    simulate = harness_mod.simulate_particles

    def slow_simulate(*args, **kwargs):
        time.sleep(0.05)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "simulate_particles", slow_simulate)
    extra = QUICK_PARTICLES + ["problem=sine_meanfield", "L=1.0", "rec_draws=40",
                               "bound_draws=40"]
    res = run(_cfg("verify-bounds", tmp_path, extra=extra))
    first, *later = res.rows
    assert first[0] == "particle_second_moment_root"
    assert first[-1] >= 0.05
    assert len(later) == 6 and all(row[-1] < 0.05 for row in later), later
    # a pooled convergence run queues its costliest level first, but each
    # row's wall_s is the seconds of its own level's chunks, not the span up
    # to its row: k = 4 takes longer than k = 1
    res = run(_cfg("convergence", tmp_path, extra=["reps=8", "k_max=4"], name="c.csv", jobs=2))
    walls = [row[-1] for row in res.rows]
    assert [row[0] for row in res.rows] == [1, 2, 3, 4]
    assert walls[3] > walls[0], walls

    extra = QUICK_PARTICLES + ["problem=sine_meanfield", "L=1.0", "mlp_n=2", "mlp_m=2", "d=2"]
    res = run(_cfg("oracle-compare", tmp_path, extra=extra, name="oc.csv"))
    assert len(res.rows) == 2
    assert res.rows[0][-1] == res.rows[1][-1] >= 0.05


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
    ok = main(["cost-table", "--set", "k_max=2", "--out", str(out), "--seed", "5"])
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
        "--set", "delta=0.05", "--set", "cert_kmax=200", "--out", str(out),
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
    # supremand peaks at k = 136495375087, far beyond cert_kmax = 200, which
    # bounds only the table
    out = tmp_path / "cert.csv"
    assert main(["certificate", "--out", str(out)]) == 0
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
    assert round(float(body[0][col["log_rhs"]]), 1) == 34123843807.2
    assert "# argmax_k=136495375087\n" in out.read_text()
    assert "# sup_attained=1" in out.read_text()


def test_certificate_rows_for_unreached_levels(tmp_path):
    # no level up to cert_kmax = 3 brings the error bound below 0.5, let
    # alone 1e-300: each accuracy gets a FAIL row with n_eps = -1, a zero
    # cost bound and a nan log_lhs, and the run exits 1
    out = tmp_path / "cert.csv"
    assert main(["certificate", "--set", "eps_list=0.5,1e-300", "--set", "cert_kmax=3",
                 "--out", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    columns = [header.index(name) for name in ("eps", "n_eps", "cost_bound", "log_lhs",
                                               "status")]
    assert [[row[i] for i in columns] for row in body] == [
        ["0.5", "-1", "0", "nan", "FAIL"], ["1e-300", "-1", "0", "nan", "FAIL"],
    ]


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
    [("verify-bounds", "rec_draws"), ("verify-bounds", "bound_draws")],
)
def test_empty_suites_fail_closed(tmp_path, capsys, mode, count):
    # a suite of no cases would pass vacuously (a worst gap of 0, or of
    # -inf); the count is refused as a configuration error, before any CSV
    out = tmp_path / "empty.csv"
    code = main([mode, "--set", f"{count}=0", "--out", str(out)] + [
        arg for item in QUICK_PARTICLES for arg in ("--set", item)
    ])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {count} must be at least 1, got 0\n"
    assert not out.exists()


# The modes that run the estimator, each at one (n, m) = (2, 2) budget.
BUDGETED_MODES = {
    "convergence": ["k_min=2", "k_max=2", "reps=4"],
    "cost-table": ["k_min=2", "k_max=2"],
    "oracle-compare": ["mlp_n=2", "mlp_m=2", "reps=4"] + QUICK_PARTICLES,
}


@pytest.mark.parametrize("mode", list(BUDGETED_MODES))
def test_budget_refusal_in_every_caller(tmp_path, capsys, monkeypatch, mode):
    # the cost budget at n = m = 2, d = 1 is 27: one below refuses (exit 3)
    # before any output or realization, also where (2, 2) is a later cell of
    # a grid whose first cells fit; the budget itself runs
    calls = []
    realize = harness_mod._realize_batch

    def counted(*args):
        calls.append(args)
        return realize(*args)

    monkeypatch.setattr(harness_mod, "_realize_batch", counted)
    out = tmp_path / "out.csv"
    sets = [arg for item in BUDGETED_MODES[mode] for arg in ("--set", item)]
    args = [mode, "--out", str(out)] + sets
    grids = [[]] if mode == "oracle-compare" else [[], ["--set", "k_min=1"]]
    for grid in grids:
        assert main(args + grid + ["--set", "cost_ceiling=26"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource refusal: cost budget 27 for (n=2, m=2, d=1)")
        assert "ceiling 26" in err
        assert err.count("\n") == 1
        assert not out.exists()
        assert calls == []
    assert main(args + ["--set", "cost_ceiling=27"]) == 0
    assert out.exists()


@pytest.mark.parametrize("mode", [*BUDGETED_MODES, "verify-bounds", "certificate"])
def test_huge_dimension_fails_closed(tmp_path, capsys, monkeypatch, mode):
    # d = 4e9 asks for 30 GB per state vector: the budgeted modes refuse its
    # cost budget before the problem is built, and an allocation that fails
    # in the other modes is a resource refusal too (exit 3), with one line on
    # stderr and no CSV.  No test allocates: the problem's builder is
    # replaced, by one that must not run or by one that runs out of memory
    def unbuilt(cfg):
        raise AssertionError("problem built before the budget check")

    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (4000000000,)")

    budgeted = mode in BUDGETED_MODES
    monkeypatch.setattr(harness_mod, "_problem", unbuilt if budgeted else out_of_memory)
    out = tmp_path / "huge.csv"
    assert main([mode, "--set", "d=4000000000", "--reps", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    if budgeted:
        assert err.startswith("resource refusal: cost budget ")
        assert "d=4000000000) exceeds the ceiling 1000000000" in err
    else:
        assert err.startswith("resource refusal: out of memory: Unable to allocate 29.8 GiB")
    assert err.count("\n") == 1
    assert not out.exists()


def test_public_names_resolve():
    # every name in the package's and each submodule's __all__ is an
    # attribute of that module; a stale name would be skipped silently by
    # whatever walks __all__ with getattr(module, name, None)
    modules = [mlpicard] + [
        importlib.import_module(f"mlpicard.{info.name}")
        for info in pkgutil.iter_modules(mlpicard.__path__)
        if not info.name.startswith("_")
    ]
    assert len(modules) >= 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_public_api_is_pinned():
    # growing or shrinking the package's API is a reviewed edit of this list
    assert mlpicard.__all__ == [
        "ConfigError",
        "CostLedger",
        "DriftModel",
        "Problem",
        "ResourceLimitError",
        "builtin_problem",
        "complexity_certificate",
        "cost_bound",
        "cost_budget",
        "derive_seed",
        "ensemble_stats",
        "error_bound",
        "gronwall_bound",
        "gronwall_closed_form",
        "make_drift",
        "moment_bound",
        "pathwise_value",
        "realize_estimate",
        "simulate_particles",
        "two_step_closed_form",
    ]
    assert mlpicard.models.__all__ == [
        "DriftModel",
        "PROBLEM_PARAMS",
        "Problem",
        "builtin_problem",
        "make_drift",
        "pathwise_value",
    ]
    assert mlp_mod.__all__ == ["CostLedger", "RealizeResult", "realize_estimate", "rep_seed"]
    assert mlpicard.recursions.__all__ == [
        "CertificateResult",
        "complexity_certificate",
        "cost_bound",
        "cost_budget",
        "error_bound",
        "gronwall_beta",
        "gronwall_bound",
        "gronwall_closed_form",
        "log_cost_bound",
        "log_error_bound",
        "moment_bound",
        "two_step_closed_form",
        "two_step_roots",
    ]
    assert mlpicard.hier_rng.__all__ == [
        "batch_normals",
        "batch_step_normals",
        "batch_uniforms",
        "children",
        "derive_seed",
        "pack",
    ]
    assert harness_mod.__all__ == [
        "ExperimentConfig",
        "ExperimentResult",
        "MODES",
        "build_config",
        "direct_gronwall",
        "direct_two_step",
        "run",
        "write_csv",
    ]


def test_module_imports_are_pinned():
    # each module's in-package imports; a new edge between layers (say the
    # problems drawing randomness, or paths or the harness charging the cost
    # ledger, which only the estimator does) is a reviewed edit of this table
    package = Path(mlpicard.__file__).parent
    imports = {}
    for path in sorted(package.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.add(node.module or "__init__")  # from . import name
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names]
                found.update(name.split(".", 1)[1] if "." in name else "__init__"
                             for name in names if name.split(".")[0] == "mlpicard")
        imports[path.stem] = found
    assert imports == {
        "__init__": {"errors", "hier_rng", "mlp", "models", "particles", "recursions"},
        "__main__": {"cli"},
        "brownian": {"hier_rng"},
        "cli": {"errors", "harness"},
        "errors": set(),
        "harness": {"__init__", "errors", "hier_rng", "mlp", "models", "particles",
                    "recursions"},
        "hier_rng": set(),
        "mlp": {"brownian", "errors", "hier_rng", "models"},
        "models": {"errors"},
        "particles": {"errors", "hier_rng", "models"},
        "recursions": set(),
    }


def test_root_branches_are_distinct():
    # the estimator, the particle oracle and the harness draw under one
    # master seed from the root branches (branch,) of their key paths; their
    # streams are independent only while the branches differ
    branches = (mlp_mod._ESTIMATOR_BRANCH, particles_mod._PARTICLE_BRANCH,
                harness_mod._HARNESS_BRANCH)
    assert len(set(branches)) == len(branches)
    assert all(type(branch) is int and branch >= 0 for branch in branches)


def test_resource_refusal_from_run(tmp_path):
    cfg = _cfg("convergence", tmp_path, extra=["cost_ceiling=5", "k_min=2", "k_max=2"])
    with pytest.raises(ResourceLimitError):
        run(cfg)


def test_17_digit_formatting(tmp_path):
    cfg = _cfg("verify-bounds", tmp_path,
               extra=[*QUICK_PARTICLES, "rec_draws=30", "bound_draws=30"])
    run(cfg)
    text = Path(cfg.out).read_text()
    assert "1.0000000000000001e-09" in text  # limit column, 17 significant digits
