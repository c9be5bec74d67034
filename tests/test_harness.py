"""Unit tests for configuration, orchestration, CSV/JSON output, and the
pilot-efficiency analysis."""

import json
import math
import os
import re
import select
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from test_baselines import _allow_cpus, assert_no_child_left

from omlcae import harness, metalearn
from omlcae import rng as rngmod
from omlcae.cae import CaeModel
from omlcae.channel import NoiseModel, rayleigh_sample, snr_to_sigma2
from omlcae.harness import (ExperimentConfig, MetricsRecord, apply_profile,
                            efficiency_analysis, export_constellation,
                            mean_efficiency_ratio, parse_config,
                            run_experiment, summarize, write_metrics_csv,
                            write_summary_csv)
from omlcae.metalearn import (CellSettings, MetaConfig, RunConfig,
                              make_pilot_task)


def tiny_cfg(tmp_path, **kw):
    meta = MetaConfig(outer_iters=2, finetune_iters=5)
    base = dict(k=2, n_ch=1, snr_db=(5.0,), shots=(1,), n_sequences=2,
                methods=("cae", "qpsk_mle"), meta=meta, n_eval=100, seed=0,
                profile="desk", out_dir=str(tmp_path), hidden=8,
                dtype="float64")
    base.update(kw)
    return ExperimentConfig(**base)


def read_metrics(path):
    # write_metrics_csv's header, then one MetricsRecord per line
    with open(path) as f:
        assert f.readline() == "method,snr_db,shots,sequence,ser,seed\n"
        return [MetricsRecord(m, float(snr), int(shots), int(seq), float(ser),
                              int(seed))
                for m, snr, shots, seq, ser, seed in
                (line.rstrip("\n").split(",") for line in f)]


def test_config_validation():
    cfg = tiny_cfg("/tmp")
    cfg.validate()
    with pytest.raises(ValueError):
        tiny_cfg("/tmp", k=3, methods=("qpsk_mle",)).validate()
    with pytest.raises(ValueError):
        tiny_cfg("/tmp", methods=("bogus",)).validate()
    with pytest.raises(ValueError):
        tiny_cfg("/tmp", shots=(0,)).validate()
    with pytest.raises(ValueError):
        tiny_cfg("/tmp", rho=1.5).validate()
    with pytest.raises(ValueError):
        tiny_cfg("/tmp", dtype="float16").validate()
    with pytest.raises(ValueError, match="query_shots"):
        tiny_cfg("/tmp", query_shots=0).validate()
    with pytest.raises(ValueError, match="warmup"):
        tiny_cfg("/tmp", warmup=-1).validate()
    with pytest.raises(ValueError, match="tasks_per_update"):
        tiny_cfg("/tmp", meta=MetaConfig(tasks_per_update=0)).validate()
    with pytest.raises(ValueError, match="hidden"):
        tiny_cfg("/tmp", hidden=0).validate()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        tiny_cfg("/tmp", seed=-1).validate()
    for name, bad in (("snr_db", ()), ("snr_db", (5.0, 5.0)),
                      ("shots", ()), ("shots", (1, 1)), ("methods", ()),
                      ("methods", ("cae", "qpsk_mle", "cae"))):
        with pytest.raises(ValueError, match=name):
            tiny_cfg("/tmp", **{name: bad}).validate()
    # NaN dB has no noise variance, -inf dB an infinite one, and below about
    # -3083 dB the variance overflows a float
    for bad in (float("nan"), float("-inf"), -4000.0):
        with pytest.raises(ValueError, match=f"snr_db entry {bad!r} .*sigma2"):
            tiny_cfg("/tmp", snr_db=(5.0, bad)).validate()
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma2"):
            NoiseModel(bad)
    with pytest.raises(ValueError, match="lr_gamma"):
        tiny_cfg("/tmp", meta=MetaConfig(lr_gamma=float("nan"))).validate()
    tiny_cfg("/tmp", query_shots=1, warmup=0).validate()
    # +inf dB is the noiseless channel (criterion 6)
    tiny_cfg("/tmp", snr_db=(5.0, float("inf"))).validate()


def test_an_integer_snr_is_the_same_cell_as_its_float(tmp_path):
    # the SNR keyed the substreams as str(5) and str(5.0): two cells, and two
    # metrics.csv rows with one key; a bool SNR ran at 1 dB
    # (5 == 5.0, so the two cells are a list, not a dict keyed by SNR)
    cells = [RunConfig(k=2, n_ch=1, snr_db=snr, n_sequences=3, hidden=8)
             for snr in (5, 5.0)]
    model = cells[1].build_model()
    assert np.array_equal(cells[0].build_model().params, model.params)
    tasks = [list(metalearn.task_sequence(cfg, model)) for cfg in cells]
    assert len(tasks[0]) == len(tasks[1]) == 3
    for (i, h, task), (j, h_f, task_f) in zip(*tasks):
        assert i == j and np.array_equal(h, h_f)
        assert np.array_equal(task.support, task_f.support)
        assert np.array_equal(task.query, task_f.query)
    csv = []
    for name, snr in (("int", 5), ("float", 5.0)):
        out = tmp_path / name
        run_experiment(tiny_cfg(out, snr_db=(snr,), warmup=0,
                                meta=MetaConfig(outer_iters=2,
                                                finetune_iters=3),
                                methods=("cae", "qpsk_mle"), n_eval=200))
        csv.append((out / "metrics.csv").read_bytes())
    assert csv[0] == csv[1]
    with pytest.raises(ValueError, match="snr_db is not a real number: True"):
        RunConfig(snr_db=True).validate()
    with pytest.raises(ValueError, match="snr_db is not a real number: True"):
        tiny_cfg(tmp_path, snr_db=(True,)).validate()


META_INTS = ("adapt_steps", "outer_iters", "finetune_iters",
             "tasks_per_update", "lr_step_size", "buffer_capacity")


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize("name", (
    "k", "n_ch", "n_sequences", "n_eval", "hidden", "warmup", "seed",
    "shots", "query_shots") + META_INTS)
def test_config_validation_rejects_non_integer_counts(tmp_path, name, bad):
    # a float count passed validation and died in the grid with a TypeError,
    # and a bool ran as 0 or 1
    cfg, where = tiny_cfg(tmp_path), f"ExperimentConfig.{name}"
    if name in META_INTS:
        cfg.meta, where = replace(cfg.meta, **{name: bad}), f"MetaConfig.{name}"
    elif name == "shots":
        cfg.shots, where = (bad,), "ExperimentConfig.shots[0]"
    else:
        setattr(cfg, name, bad)
    with pytest.raises(ValueError, match=re.escape(
            f"{where} must be an integer, got {bad!r}")):
        cfg.validate()


def test_the_paper_profile_is_the_defaults():
    # omlcae constellation takes its cell from parse_config's paper profile,
    # so the profile, the ExperimentConfig defaults and the RunConfig (and
    # MetaConfig) defaults must agree in every field but dtype: the paper
    # profile computes in float32, the library defaults stay float64
    cfg = apply_profile(ExperimentConfig())
    assert cfg.dtype == "float32"
    assert replace(cfg, dtype="float64") == ExperimentConfig()
    assert cfg.run_config(5.0, 1) == RunConfig(snr_db=5.0, shots=1,
                                               dtype="float32")
    assert ExperimentConfig().run_config(5.0, 1) == RunConfig(snr_db=5.0,
                                                              shots=1)


def test_run_config_carries_every_cell_setting():
    # ExperimentConfig.run_config copied the shared settings by hand, so a
    # setting left out of the copy ran at RunConfig's default
    changed = dict(k=2, n_ch=1, n_sequences=7, rho=0.5, n_eval=123, seed=9,
                   meta=MetaConfig(inner_lr=0.01), hidden=16,
                   dtype="float32", query_shots=3)
    assert set(changed) == {f.name for f in fields(CellSettings)}
    for name, value in changed.items():
        assert value != getattr(CellSettings(), name), name
    rc = ExperimentConfig(**changed).run_config(7.0, 2)
    assert rc == RunConfig(snr_db=7.0, shots=2, **changed)


def test_apply_profile_fills_fields():
    cfg = apply_profile(ExperimentConfig(profile="desk"))
    assert cfg.n_sequences == 60 and cfg.n_eval == 4000
    assert cfg.meta.outer_iters == 1500 and cfg.meta.finetune_iters == 300
    assert cfg.hidden == 64 and cfg.meta.adapt_steps == 10
    assert cfg.dtype == "float64" and cfg.query_shots == 1
    assert cfg.meta.outer_rule == "reptile" and cfg.meta.outer_lr == 1e-3
    # the library path and the config-file/CLI path build the same method
    assert cfg.meta == parse_config(None, {"profile": "desk"}).meta
    cfg = apply_profile(ExperimentConfig(profile="paper"))
    assert cfg.n_sequences == 300 and cfg.meta.outer_iters == 6000
    assert cfg.hidden == 256 and cfg.meta.adapt_steps == 1
    assert cfg.dtype == "float32" and cfg.query_shots is None
    assert cfg.meta.outer_rule == "fomaml" and cfg.meta.outer_lr == 1e-4
    assert cfg.meta == parse_config(None, {"profile": "paper"}).meta
    # desk leaves dtype to the config; paper sets it, as it sets every field
    # it lists, so only parse_config's explicit values beat it
    cfg = apply_profile(ExperimentConfig(profile="desk", dtype="float32"))
    assert cfg.dtype == "float32"
    assert apply_profile(ExperimentConfig(profile="paper",
                                          dtype="float64")).dtype == "float32"
    for profile, dtype in (("desk", "float32"), ("paper", "float64")):
        assert parse_config(None, {"profile": profile,
                                   "dtype": dtype}).dtype == dtype


def test_run_experiment_writes_csvs(tmp_path):
    cfg = tiny_cfg(tmp_path)
    records = run_experiment(cfg)
    assert len(records) == 2 * 2  # 2 methods x 2 sequences
    metrics = os.path.join(str(tmp_path), "metrics.csv")
    summary = os.path.join(str(tmp_path), "summary.csv")
    assert os.path.exists(metrics) and os.path.exists(summary)
    with open(metrics, "rb") as f:
        content = f.read()
    assert content.startswith(b"method,snr_db,shots,sequence,ser,seed\n")
    assert b"\r" not in content
    back = read_metrics(metrics)
    assert [(r.method, r.sequence, r.ser) for r in back] == \
           [(r.method, r.sequence, r.ser) for r in records]


@pytest.mark.parametrize("method", ["oml_cae", "cae", "joint_cae"])
def test_non_finite_parameters_fail_loudly(tmp_path, method):
    # a diverging fine-tune must raise, naming the cell and the sequence,
    # instead of reporting the SER of NaN parameters
    meta = MetaConfig(inner_lr=1e4, outer_iters=2, finetune_iters=20)
    cfg = tiny_cfg(tmp_path, methods=(method,), meta=meta)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^{method}: .*snr 5 dB, shots 1, sequence 1$"):
        run_experiment(cfg)


@pytest.mark.parametrize("method", ["oml_cae", "cae", "joint_cae"])
def test_non_finite_guard_names_a_sequence_inside_a_block(tmp_path, method,
                                                          monkeypatch):
    # all five sequences fine-tune in one stacked block; only sequence 3's
    # pilots are corrupted, and the guard still names sequence 3
    make_task, seen = metalearn.make_pilot_task, []

    def corrupt_third(model, h, sigma2, shots, rng, query_shots=None):
        task = make_task(model, h, sigma2, shots, rng, query_shots)
        if len(seen) == 2:
            task.support[0] = np.nan
        seen.append(task)
        return task

    monkeypatch.setattr(metalearn, "make_pilot_task", corrupt_third)
    cfg = tiny_cfg(tmp_path, methods=(method,), n_sequences=5)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^{method}: .*snr 5 dB, shots 1, sequence 3$"):
        run_experiment(cfg)
    assert len(seen) == 5  # the block held every sequence


def test_run_experiment_deterministic_outputs(tmp_path):
    cfg1 = tiny_cfg(tmp_path / "a")
    cfg2 = tiny_cfg(tmp_path / "b")
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("metrics.csv", "summary.csv"):
        with open(tmp_path / "a" / name, "rb") as f:
            a = f.read()
        with open(tmp_path / "b" / name, "rb") as f:
            b = f.read()
        assert a == b, name


def _grid_cells(cfg):
    return [(m, snr, shots) for m in cfg.methods for snr in cfg.snr_db
            for shots in cfg.shots]


def _outputs(cfg):
    records = run_experiment(cfg)
    files = []
    for name in ("metrics.csv", "summary.csv"):
        with open(os.path.join(cfg.out_dir, name), "rb") as f:
            files.append(f.read())
    return records, files


def test_pooled_cells_match_serial_in_grid_order(tmp_path, monkeypatch):
    # with c CPUs, min(c, cells) - 1 children run cells beside the caller,
    # which runs the first and the last cell; the records and both CSVs are
    # a serial run's, byte for byte, and no child outlives the grid
    in_caller, live, most = [], [0], [0]
    fork, waitpid, run_cell = os.fork, os.waitpid, harness._run_cell

    def logged(cfg, method, snr, shots):
        in_caller.append((method, snr, shots))  # a child's dies with it
        return run_cell(cfg, method, snr, shots)

    def counted_fork():
        pid = fork()
        if pid:
            live[0] += 1
            most[0] = max(most[0], live[0])
        return pid

    def counted_waitpid(pid, options):
        done, status = waitpid(pid, options)
        live[0] -= done > 0
        return done, status

    monkeypatch.setattr(harness, "_run_cell", logged)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    grids = [dict(methods=("cae",)),
             dict(methods=("oml_cae", "qpsk_mle")),
             dict(methods=("joint_cae",), shots=(1, 2, 3, 4, 5)),
             dict(methods=("oml_cae",), snr_db=tuple(range(7)))]
    for n, grid in enumerate(grids):
        cfg = tiny_cfg(tmp_path / f"serial-{n}", **grid)
        cells = _grid_cells(cfg)
        _allow_cpus(monkeypatch, {0})
        want = _outputs(cfg)
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            _allow_cpus(monkeypatch, cpus)
            in_caller.clear()
            most[0] = 0
            pooled = replace(cfg, out_dir=str(tmp_path / f"{n}-{len(cpus)}"))
            assert _outputs(pooled) == want, (cells, cpus)
            assert in_caller[0] == cells[0] and in_caller[-1] == cells[-1]
            assert in_caller == sorted(in_caller, key=cells.index)
            if len(cpus) == 1:
                assert in_caller == cells
            assert most[0] == min(len(cpus), len(cells)) - 1, (cells, cpus)
            assert live[0] == 0
            assert_no_child_left()


def test_grid_pool_processes_fine_tune_inline(tmp_path, monkeypatch):
    # one-sequence fine-tune blocks, as at the paper width: a grid of 2 or
    # 3 cells at 2 CPUs forks its one grid child and no fine-tune child,
    # while a one-cell grid still forks fine-tune children.  Every process
    # writes a byte per fork into one pipe
    monkeypatch.setattr(metalearn, "FINE_TUNE_BLOCK_BYTES", 1)
    _allow_cpus(monkeypatch, {0, 1})
    forks_r, forks_w = os.pipe()
    fork = os.fork

    def counted_fork():
        os.write(forks_w, b".")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    try:
        for shots, forks in (((1, 2), 1), ((1, 2, 3), 1), ((1,), 2)):
            cfg = tiny_cfg(tmp_path / str(len(shots)), methods=("cae",),
                           shots=shots, n_sequences=5)
            run_experiment(cfg)
            assert os.read(forks_r, 100) == b"." * forks, shots
            assert_no_child_left()
    finally:
        os.close(forks_r)
        os.close(forks_w)
    assert not metalearn._in_grid_pool


@pytest.fixture
def three_cells_at_two_cpus(monkeypatch):
    """Place a 3-cell grid's cells at 2 CPUs: the caller runs the first and
    the last, and its first waits until the one child has started a cell,
    so the child runs the middle one.  Yields the SNRs the caller ran."""
    _allow_cpus(monkeypatch, {0, 1})
    started_r, started_w = os.pipe()
    caller, in_caller = os.getpid(), []

    def place(run_cell):
        def placed(cfg, method, snr, shots):
            if os.getpid() != caller:
                os.write(started_w, b".")
            else:
                if not in_caller:
                    assert select.select([started_r], [], [], 60)[0], \
                        "no child started a cell"
                    os.read(started_r, 1)
                in_caller.append(snr)
            return run_cell(cfg, method, snr, shots)
        monkeypatch.setattr(harness, "_run_cell", placed)
        return in_caller

    yield place
    os.close(started_r)
    os.close(started_w)


# the 5 dB cell is the child's (the middle cell) or the caller's last
PLACEMENTS = [((4.0, 5.0, 6.0), True), ((4.0, 6.0, 5.0), False)]


@pytest.mark.parametrize("snr_db, in_child", PLACEMENTS)
@pytest.mark.parametrize("method", ["oml_cae", "cae", "joint_cae"])
def test_non_finite_parameters_fail_loudly_in_any_process(
        tmp_path, three_cells_at_two_cpus, method, snr_db, in_child):
    # only the 5 dB cell's fine-tune diverges; its error reads the same
    # whether the caller or a child ran the cell
    run_cell = harness._run_cell

    def diverging(cfg, method, snr, shots):
        if snr == 5.0:
            cfg = replace(cfg, meta=replace(cfg.meta, inner_lr=1e4))
        return run_cell(cfg, method, snr, shots)

    in_caller = three_cells_at_two_cpus(diverging)
    meta = MetaConfig(outer_iters=2, finetune_iters=20)
    cfg = tiny_cfg(tmp_path, methods=(method,), meta=meta, snr_db=snr_db)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^{method}: .*snr 5 dB, shots 1, sequence 1$"):
        run_experiment(cfg)
    assert (5.0 not in in_caller) == in_child
    assert_no_child_left()


@pytest.mark.parametrize("snr_db, in_child", PLACEMENTS)
@pytest.mark.parametrize("method", ["oml_cae", "cae", "joint_cae"])
def test_non_finite_guard_names_a_sequence_inside_a_block_in_any_process(
        tmp_path, monkeypatch, three_cells_at_two_cpus, method, snr_db,
        in_child):
    # the 5 dB cell's five sequences fine-tune in one stacked block, and
    # only its sequence 3 has corrupted pilots; each process counts the
    # 5 dB tasks it draws
    make_task, seen = metalearn.make_pilot_task, []

    def corrupt_third(model, h, sigma2, shots, rng, query_shots=None):
        task = make_task(model, h, sigma2, shots, rng, query_shots)
        if sigma2 == snr_to_sigma2(5.0):
            if len(seen) == 2:
                task.support[0] = np.nan
            seen.append(task)
        return task

    monkeypatch.setattr(metalearn, "make_pilot_task", corrupt_third)
    in_caller = three_cells_at_two_cpus(harness._run_cell)
    cfg = tiny_cfg(tmp_path, methods=(method,), n_sequences=5, snr_db=snr_db)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^{method}: .*snr 5 dB, shots 1, sequence 3$"):
        run_experiment(cfg)
    assert (5.0 not in in_caller) == in_child
    assert_no_child_left()


def test_a_child_that_dies_names_its_cell(tmp_path, monkeypatch,
                                          three_cells_at_two_cpus):
    # a child that exits without sending an exception: RuntimeError naming
    # the method, the cell, the pid and the exit code
    run_cell = harness._run_cell

    def dying(cfg, method, snr, shots):
        if snr == 5.0:
            os._exit(3)
        return run_cell(cfg, method, snr, shots)

    three_cells_at_two_cpus(dying)
    cfg = tiny_cfg(tmp_path, methods=("cae",), snr_db=(4.0, 5.0, 6.0))
    with pytest.raises(RuntimeError, match=r"^cae: cell at snr 5 dB, shots 1 "
                       r"failed in child process \d+ \(exit code 3\)$"):
        run_experiment(cfg)
    assert_no_child_left()


def test_an_interrupted_grid_kills_and_reaps_its_children(
        tmp_path, three_cells_at_two_cpus):
    # the caller's last cell is interrupted while the child's cell still
    # runs: the interrupt reaches the caller, and the child is killed
    run_cell = harness._run_cell

    def stuck_or_interrupted(cfg, method, snr, shots):
        if snr == 5.0:
            time.sleep(600)
        if snr == 6.0:
            raise KeyboardInterrupt
        return run_cell(cfg, method, snr, shots)

    three_cells_at_two_cpus(stuck_or_interrupted)
    cfg = tiny_cfg(tmp_path, methods=("cae",), snr_db=(4.0, 5.0, 6.0))
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert time.monotonic() - began < 60
    assert_no_child_left()
    assert not metalearn._in_grid_pool


def test_qpsk_high_snr_all_zero(tmp_path):
    cfg = tiny_cfg(tmp_path, snr_db=(60.0,), methods=("qpsk_mle",),
                   n_sequences=3)
    records = run_experiment(cfg)
    assert all(r.ser == 0.0 for r in records)


def test_summarize_warmup_window():
    rows = [MetricsRecord("cae", 5.0, 1, i, float(i), 0) for i in range(1, 21)]
    (method, snr, shots, mean_ser, n, seed), = summarize(rows, warmup=15)
    assert n == 5 and mean_ser == np.mean([16, 17, 18, 19, 20])
    # all sequences inside the warm-up window: fall back to every row
    (_, _, _, mean_all, n_all, _), = summarize(rows[:10], warmup=15)
    assert n_all == 10


def test_metrics_csv_round_trip(tmp_path):
    rows = [MetricsRecord("oml_cae", 5.0, 1, 1, 0.125, 7),
            MetricsRecord("qpsk_mle", 10.0, 5, 2, 0.0, 7)]
    path = str(tmp_path / "m.csv")
    write_metrics_csv(path, rows)
    assert read_metrics(path) == rows
    write_summary_csv(str(tmp_path / "s.csv"), rows, warmup=0)
    with open(tmp_path / "s.csv") as f:
        assert f.readline().strip() == \
            "method,snr_db,shots,mean_ser,n_sequences,warmup,seed"


def test_efficiency_identical_curves_ratio_one():
    curve = [(1, 0.4), (2, 0.2), (3, 0.1)]
    rows = efficiency_analysis(curve, curve)
    assert all(r.reachable and np.isclose(r.ratio, 1.0) for r in rows)
    assert np.isclose(mean_efficiency_ratio(rows), 1.0)


def test_efficiency_exact_node_hit():
    rows = efficiency_analysis([(1, 0.2)], [(1, 0.4), (2, 0.2), (3, 0.1)])
    assert np.isclose(rows[0].cae_equivalent_shots, 2.0)
    assert np.isclose(rows[0].ratio, 2.0)


def test_efficiency_interpolation_log_ser():
    # geometric midpoint between (1, 0.4) and (2, 0.1) -> shots 1.5
    rows = efficiency_analysis([(1, 0.2)], [(1, 0.4), (2, 0.1)])
    assert np.isclose(rows[0].cae_equivalent_shots, 1.5)


def test_efficiency_unreachable_and_clamp():
    curve = [(1, 0.4), (2, 0.2)]
    rows = efficiency_analysis([(1, 0.05), (1, 0.9)], curve)
    assert not rows[0].reachable and math.isnan(rows[0].ratio)
    assert rows[1].reachable and np.isclose(rows[1].cae_equivalent_shots, 1.0)
    with pytest.raises(ValueError):
        efficiency_analysis([(1, 0.2)], [(1, 0.4)])
    with pytest.raises(ValueError):
        efficiency_analysis([(1, 0.2)], [(1, 0.4), (1, 0.2)])
    with pytest.raises(ValueError):
        mean_efficiency_ratio(rows[:1])


def test_efficiency_non_monotone_curve_clamped():
    # the bump at shots=2 is clamped by the running minimum
    rows = efficiency_analysis([(1, 0.3)], [(1, 0.3), (2, 0.5), (3, 0.1)])
    assert rows[0].reachable and np.isclose(rows[0].cae_equivalent_shots, 1.0)


def test_export_constellation_schema(tmp_path):
    model = CaeModel.build(2, 1, rngmod.substream(0, "ec"), hidden=8)
    h = rayleigh_sample(rngmod.substream(0, "ec-h"), 1)
    path = str(tmp_path / "c.json")
    doc = export_constellation(model, h, NoiseModel(0.1), 5.0, 20,
                               rngmod.substream(0, "ec-rng"), path)
    with open(path) as f:
        loaded = json.load(f)
    assert loaded == doc
    assert set(doc) == {"k", "n_ch", "snr_db", "h", "sigma2",
                        "constellation", "received"}
    assert len(doc["constellation"]) == 4
    assert len(doc["received"]) == 20
    pts = np.array([c["point"] for c in doc["constellation"]])
    assert np.isclose(np.mean(np.sum(pts ** 2, axis=-1)), 1.0, atol=1e-6)
    for r in doc["received"]:
        assert set(r) == {"message", "predicted", "correct", "point"}
        assert r["correct"] == (r["message"] == r["predicted"])


def test_export_constellation_noiseless_fitted_model(tmp_path):
    model = CaeModel.build(2, 1, rngmod.substream(1, "ecf"), hidden=32)
    rng = rngmod.substream(1, "ecf-t")
    h = rayleigh_sample(rng, 1)
    task = make_pilot_task(model, h, 0.0, 1, rng)
    from omlcae.metalearn import inner_adapt
    theta = inner_adapt(model, model.params, task, 1000, 0.05)
    doc = export_constellation(model, h, NoiseModel(0.0), 60.0, 30,
                               rngmod.substream(1, "ecf-r"),
                               str(tmp_path / "c.json"), theta=theta)
    assert all(r["correct"] for r in doc["received"])


def test_parse_config_defaults_are_paper_profile():
    cfg = parse_config(None, {})
    assert cfg.profile == "paper"
    assert cfg.meta.inner_lr == 0.05 and cfg.meta.outer_lr == 1e-4
    assert cfg.meta.buffer_capacity == 15 and cfg.meta.outer_iters == 6000
    assert cfg.n_sequences == 300 and cfg.dtype == "float32"


def test_parse_config_file_dtype_beats_the_paper_profile(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\ndtype = float64\n")
    cfg = parse_config(str(path), {"profile": "paper"})
    assert cfg.profile == "paper" and cfg.hidden == 256
    assert cfg.dtype == "float64"
    assert cfg.run_config(5.0, 1).dtype == "float64"


def test_parse_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\nk = 4\nn_ch = 2\nsnr_db = 5\n"
                    "shots = 1,2,3,4,5\nprofile = desk\n"
                    "[meta]\nouter_iters = 7\n")
    cfg = parse_config(str(path), {"seed": 9, "shots": (1, 5)})
    assert cfg.k == 4 and cfg.n_ch == 2
    assert cfg.shots == (1, 5)  # flag beats file
    assert cfg.seed == 9
    assert cfg.meta.outer_iters == 7  # explicit beats profile
    assert cfg.meta.finetune_iters == 300  # profile fills the rest
    assert cfg.hidden == 64 and cfg.meta.adapt_steps == 10
    assert cfg.dtype == "float64" and cfg.query_shots == 1
    assert cfg.meta.outer_rule == "reptile"
    cfg = parse_config(str(path), {"outer_rule": "fomaml", "outer_lr": 3e-4})
    assert cfg.meta.outer_rule == "fomaml" and cfg.meta.outer_lr == 3e-4


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_config(str(path), {})
    path.write_text("[nope]\nk = 1\n")
    with pytest.raises(ValueError, match="nope"):
        parse_config(str(path), {})
    path.write_text("[experiment]\nk = abc\n")
    with pytest.raises(ValueError, match="k"):
        parse_config(str(path), {})
    with pytest.raises(ValueError):
        parse_config(None, {"mystery": 1})
    # an unknown profile is a config error, not a KeyError
    path.write_text("[experiment]\nprofile = bogus\n")
    with pytest.raises(ValueError, match="profile"):
        parse_config(str(path), {})
    with pytest.raises(ValueError, match="profile"):
        apply_profile(ExperimentConfig(profile="bogus")).validate()


def test_parse_config_constraint_error_names_key():
    with pytest.raises(ValueError, match="qpsk_mle"):
        parse_config(None, {"k": 3, "n_ch": 2, "methods": ("qpsk_mle",)})
