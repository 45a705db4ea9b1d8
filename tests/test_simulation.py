"""The three-bundle simulation design and its recovery benchmark."""

import contextlib
import os
import signal
import time
import warnings

import numpy as np
import pytest

from varsphere import (
    ConvergenceWarning,
    NumericalError,
    SimConfig,
    ValidationError,
    Weights,
    rand_discrepancy,
    run_benchmark,
    sample_resultants,
    simulate_latents,
    simulate_sample,
    simulation,
)
from varsphere.cli import main
from varsphere.simulation import TRUTH, _quintile_codes


def w_dot_uniform(x, y):
    return float(np.mean(x * y))


def test_latents_are_standardized_and_orthogonal():
    rng = np.random.default_rng(3)
    for beta in (np.pi / 4.0, np.pi / 3.0, np.pi / 2.0):
        xi = simulate_latents(50, beta, rng)
        assert xi.shape == (50, 4)
        for j in range(4):
            assert np.mean(xi[:, j]) == pytest.approx(0.0, abs=1e-12)
            assert w_dot_uniform(xi[:, j], xi[:, j]) == pytest.approx(1.0, abs=1e-12)
        # the shared plane, and the distractor, are exactly orthogonal
        assert w_dot_uniform(xi[:, 0], xi[:, 1]) == pytest.approx(0.0, abs=1e-12)
        assert w_dot_uniform(xi[:, 0], xi[:, 3]) == pytest.approx(0.0, abs=1e-12)
        assert w_dot_uniform(xi[:, 1], xi[:, 3]) == pytest.approx(0.0, abs=1e-12)
        assert w_dot_uniform(xi[:, 2], xi[:, 3]) == pytest.approx(0.0, abs=1e-12)
        assert w_dot_uniform(xi[:, 2], xi[:, 0]) == pytest.approx(0.0, abs=1e-12)
        # the tilted factor correlates with the plane by construction
        expected = np.cos(beta) / np.sqrt(1.0 + np.cos(beta) ** 2)
        assert w_dot_uniform(xi[:, 2], xi[:, 1]) == pytest.approx(expected, abs=1e-12)


def test_right_angle_makes_all_latents_orthonormal():
    rng = np.random.default_rng(5)
    xi = simulate_latents(40, np.pi / 2.0, rng)
    gram = xi.T @ xi / 40.0
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_quintile_codes_balance_and_order():
    rng = np.random.default_rng(7)
    for n in (30, 40, 47, 100):
        x = rng.standard_normal(n)
        codes = _quintile_codes(x)
        assert codes.min() == 1 and codes.max() == 5
        counts = np.bincount(codes, minlength=6)[1:]
        assert counts.min() >= n // 5
        assert counts.max() <= n // 5 + 1
        # codes respect the ordering of the underlying values
        order = np.argsort(x)
        assert np.all(np.diff(codes[order]) >= 0)


def test_sample_layout_and_truth():
    rng = np.random.default_rng(11)
    config = SimConfig(n=40, beta=np.pi / 3.0, sigma2=0.1)
    sample = simulate_sample(config, rng)
    assert sample.numeric.shape == (40, 17)
    assert sample.categorical.shape == (40, 4)
    assert sample.names == tuple(f"x{j}" for j in range(1, 22))
    assert np.array_equal(sample.truth, TRUTH)
    assert np.array_equal(
        sample.truth, np.array([0] * 7 + [1] * 5 + [2] * 5 + [0, 0, 1, 2])
    )
    rs = sample_resultants(sample)
    assert len(rs) == 21
    assert [r.label for r in rs] == [f"x{j}" for j in range(1, 22)]
    for r in rs:
        assert r.normed
        assert r.weights.same_as(Weights.uniform(40))


def test_bundles_separate_when_noise_is_small():
    # with beta = pi/2 and tiny noise, variables correlate strongly within
    # their own bundle and barely across bundles
    rng = np.random.default_rng(13)
    config = SimConfig(n=200, beta=np.pi / 2.0, sigma2=0.001)
    sample = simulate_sample(config, rng)
    rs = sample_resultants(sample)
    within = [rs[7].dot(rs[8]), rs[12].dot(rs[13])]
    across = [rs[7].dot(rs[12]), rs[0].dot(rs[12]), rs[0].dot(rs[7])]
    assert min(within) > 0.9
    assert max(across) < 0.2


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n=4, beta=np.pi / 2.0, sigma2=0.1)
    with pytest.raises(ValidationError):
        SimConfig(n=30, beta=0.0, sigma2=0.1)
    with pytest.raises(ValidationError):
        SimConfig(n=30, beta=np.pi, sigma2=0.1)
    with pytest.raises(ValidationError):
        SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=repr(bad)):
            SimConfig(n=30, beta=np.pi / 2.0, sigma2=bad)
    with pytest.raises(ValidationError):
        SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, replications=0)
    with pytest.raises(ValidationError):
        SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, theta_grid=(0.0, 1.5))


def test_rand_discrepancy_worked_examples():
    # identical partitions, with or without renaming, have no discrepancy
    assert rand_discrepancy([0, 0, 1, 1], [5, 5, 9, 9]) == 0.0
    # all singletons on both sides: no co-clustered pair exists at all
    assert rand_discrepancy([0, 1, 2], [2, 0, 1]) == 0.0
    # co-clustered pairs {01, 23} vs {02, 13}: every pair is in exactly one
    assert rand_discrepancy([0, 0, 1, 1], [0, 1, 0, 1]) == 1.0
    # one co-clustered pair each, disjoint: {ab} vs {cd}
    assert rand_discrepancy([0, 0, 1, 2], [0, 1, 2, 2]) == 1.0
    # {ab|c} vs {a|bc}: pair sets {ab} vs {bc} share nothing
    assert rand_discrepancy([0, 0, 1], [0, 1, 1]) == 1.0
    # moving one item out of a pair: p has {01}, q has none; union {01}
    assert rand_discrepancy([0, 0, 1], [0, 1, 2]) == 1.0
    # p co-clusters {01, 02, 12}, q co-clusters {01}: two pairs differ
    assert rand_discrepancy([0, 0, 0], [0, 0, 1]) == pytest.approx(2.0 / 3.0)
    # moving x21 from bundle C (6 members) to B (6 members) in the design
    # truth loses 5 co-pairs and gains 6: symdiff 11 over union 66 + 6
    flipped = TRUTH.copy()
    flipped[20] = 1
    assert rand_discrepancy(TRUTH, flipped) == pytest.approx(11.0 / 72.0)
    assert rand_discrepancy(flipped, TRUTH) == pytest.approx(11.0 / 72.0)
    with pytest.raises(ValidationError):
        rand_discrepancy([0, 1], [0, 1, 2])


def test_benchmark_shape_and_determinism():
    grid = [
        SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=9, replications=2,
                  theta_grid=(0.0, 1.0)),
        SimConfig(n=30, beta=np.pi / 4.0, sigma2=0.1, seed=9, replications=2,
                  theta_grid=(0.0, 1.0)),
    ]
    rows1 = run_benchmark(grid, n_starts=3)
    rows2 = run_benchmark(grid, n_starts=3)
    assert len(rows1) == 4
    assert rows1 == rows2
    for row in rows1:
        assert row.replications == 2
        assert row.failures == 0
        assert 0.0 <= row.mean_rand <= 1.0
        assert row.sd_rand >= 0.0
    # rows carry their design coordinates
    assert [(r.n, r.beta, r.theta) for r in rows1] == [
        (30, np.pi / 2.0, 0.0),
        (30, np.pi / 2.0, 1.0),
        (30, np.pi / 4.0, 0.0),
        (30, np.pi / 4.0, 1.0),
    ]


def test_benchmark_cells_do_not_depend_on_grid_order():
    a = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.15, seed=4, replications=2,
                  theta_grid=(0.5,))
    b = SimConfig(n=35, beta=np.pi / 3.0, sigma2=0.15, seed=4, replications=2,
                  theta_grid=(0.5,))
    fwd = run_benchmark([a, b], n_starts=2)
    rev = run_benchmark([b, a], n_starts=2)
    assert fwd[0] == rev[1]
    assert fwd[1] == rev[0]


def test_single_replication_reports_zero_sd():
    cfg = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=1, replications=1,
                    theta_grid=(1.0,))
    row = run_benchmark([cfg], n_starts=2)[0]
    assert row.sd_rand == 0.0
    assert row.replications == 1


def _plant(monkeypatch, fault=None, in_worker_only=False):
    """Make every replication warn with a text unique to its draw and, when
    a fault is given, raise fault(text) on draws whose first value is
    negative (on every draw of a forked worker when in_worker_only)."""
    encode = simulation.sample_resultants
    parent = os.getpid()

    def planted(sample, weights=None):
        x = float(sample.numeric[0, 0])
        warnings.warn(f"planted warning {x!r}", ConvergenceWarning)
        hit = os.getpid() != parent if in_worker_only else x < 0.0
        if fault is not None and hit:
            raise fault(f"planted fault {x!r}")
        return encode(sample, weights)

    monkeypatch.setattr(simulation, "sample_resultants", planted)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when a run waits on a worker forever."""
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _counting_warn(monkeypatch):
    """Count ConvergenceWarnings the way the benchmark worker does: by
    wrapping warnings.warn and reading its category argument."""
    count = [0]
    original = warnings.warn

    def warn(message, category=None, stacklevel=1, **kwargs):
        if isinstance(category, type) and issubclass(category, ConvergenceWarning):
            count[0] += 1
        return original(message, category, stacklevel + 1, **kwargs)

    monkeypatch.setattr(warnings, "warn", warn)
    return count


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs serially here")
def test_outputs_and_warnings_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    _plant(monkeypatch, NumericalError)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    count = _counting_warn(monkeypatch)
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / str(cores)
        forks.clear()
        count[0] = 0
        with _deadline(120):
            rc = main(["simulate", "--n", "30", "--beta", "pi/4,pi/2", "--sigma2", "0.1",
                       "--theta-grid", "0,1", "--reps", "3", "--starts", "2", "--seed", "5",
                       "--out-dir", str(out)])
        assert len(forks) == cores - 1
        runs.append((rc, capsys.readouterr().err, count[0],
                     (out / "benchmark.csv").read_text(), (out / "simulate.json").read_text()))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    rc, err, n_convergence, table, _ = runs[0]
    lines = err.splitlines()
    # six replications, each warning once; the failed ones are reported
    # right after their own warning
    assert rc == 4 and n_convergence == 6
    assert sum(line.startswith("warning: planted warning") for line in lines) == 6
    failed = [i for i, line in enumerate(lines) if "failed and was excluded: planted fault" in line]
    assert failed and len(failed) < 6
    for i in failed:
        assert lines[i - 1].split()[-1] == lines[i].split()[-1]
    failures = [int(row.split(",")[-1]) for row in table.splitlines()[1:]]
    assert sum(failures) == 2 * len(failed)


def _share_with_a_worker(monkeypatch, log, in_worker=None):
    """Make this process's replications wait until a forked worker has taken
    one, so that a worker is sure to take work.  A worker appends the number
    of each replication it takes to `log`, then calls `in_worker` if given."""
    replicate, parent = simulation._replicate, os.getpid()

    def shared(config, rep, n_starts, distance):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{rep}\n")
            if in_worker is not None:
                in_worker()
        while not log.exists():
            time.sleep(0.001)
        return replicate(config, rep, n_starts, distance)

    monkeypatch.setattr(simulation, "_replicate", shared)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs serially here")
def test_a_failed_replication_in_a_worker_is_counted_warned_and_excluded(monkeypatch, tmp_path):
    _plant(monkeypatch, NumericalError, in_worker_only=True)
    _share_with_a_worker(monkeypatch, tmp_path / "worker")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=3, replications=5,
                       theta_grid=(1.0,))
    with warnings.catch_warnings(record=True) as caught, _deadline(120):
        warnings.simplefilter("always")
        (row,) = run_benchmark([config], n_starts=2)
    # every replication the worker took failed, and only those
    taken = sorted(int(line) for line in (tmp_path / "worker").read_text().split())
    assert taken and (row.replications, row.failures) == (5 - len(taken), len(taken))
    messages = [str(w.message) for w in caught]
    failed = [i for i, m in enumerate(messages) if "excluded" in m]
    assert [messages[i].split(":")[0] for i in failed] == [
        f"replication {rep} failed and was excluded" for rep in taken]
    assert all(": planted fault " in messages[i] for i in failed)
    # each failure comes right after its own replication's warning
    for i in failed:
        assert messages[i - 1].startswith("planted warning ")
        assert messages[i - 1].split()[-1] == messages[i].split()[-1]
    assert [w.category for w in caught].count(ConvergenceWarning) == 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs serially here")
def test_more_replications_than_the_claim_pipe_holds_run_once_each(monkeypatch):
    # 20,000 4-byte tickets overfill a 64 KiB pipe: the caller must take the
    # tickets that do not fit itself, not block on the feed
    monkeypatch.setattr(simulation, "_replicate", lambda config, rep, *_: [float(rep)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=3, replications=20_000,
                       theta_grid=(1.0,))
    with _deadline(60):
        outcomes = simulation._outcomes([config], 2, "chord")
    assert outcomes == [[float(rep)] for rep in range(20_000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs serially here")
def test_a_defect_in_a_worker_is_raised_in_the_caller(monkeypatch, tmp_path):
    _plant(monkeypatch, ZeroDivisionError, in_worker_only=True)
    _share_with_a_worker(monkeypatch, tmp_path / "worker")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    config = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=3, replications=6,
                       theta_grid=(1.0,))
    with warnings.catch_warnings(), _deadline(120):
        warnings.simplefilter("ignore")
        with pytest.raises(ZeroDivisionError, match="planted fault"):
            run_benchmark([config], n_starts=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="runs serially here")
def test_a_worker_that_dies_is_named_once_every_worker_is_reaped(monkeypatch, tmp_path):
    log = tmp_path / "worker"
    _share_with_a_worker(monkeypatch, log, in_worker=lambda: os._exit(3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = SimConfig(n=30, beta=np.pi / 2.0, sigma2=0.1, seed=3, replications=4,
                       theta_grid=(1.0,))
    with _deadline(120), pytest.raises(RuntimeError) as info:
        run_benchmark([config], n_starts=2)
    # the worker dies on the first replication it takes
    (rep,) = log.read_text().split()
    assert f"replication {rep} of the cell n=30, beta=1.5708, sigma2=0.1" in str(info.value)
    assert "wait status 768" in str(info.value)  # exit code 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
