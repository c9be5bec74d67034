"""Smoke tests for the command-line interface."""

import json

import numpy as np
import pytest

from omlcae import baselines, cli, metalearn
from omlcae.channel import NoiseModel
from omlcae.cli import main
from omlcae.harness import export_constellation, parse_config


def test_run_tiny_grid_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nk = 2\nn_ch = 1\nsnr_db = 5\nshots = 1\n"
                   "n_sequences = 2\nn_eval = 100\nhidden = 8\n"
                   "methods = cae,qpsk_mle\ndtype = float64\n"
                   "[meta]\nouter_iters = 2\nfinetune_iters = 5\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
    assert "mean SER" in capsys.readouterr().out
    for name in ("metrics.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_rejects_an_invalid_config_without_a_traceback(tmp_path):
    # 10 ** 400 overflows a float: the message names the entry, and no
    # output directory is made; a negative seed and a zero width fail in
    # the config checks, not in numpy's seeding or the network's layout
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="omlcae run: snr_db entry -4000.0 "):
        main(["run", "--snr-db=-4000", "--out", str(out)])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nhidden = 0\n")
    for args, message in ((["--seed=-1"], "seed must be >= 0, got -1$"),
                          (["--config", str(cfg)], "n_eval, n_sequences and "
                                                   "hidden must be >= 1$")):
        with pytest.raises(SystemExit, match=f"^omlcae run: {message}"):
            main(["run", *args, "--out", str(out)])
    assert not out.exists()


def _write_summary(path, cells):
    # summary.csv rows: (method, snr, shots, post-warm-up mean SER)
    path.write_text("method,snr_db,shots,mean_ser,n_sequences,warmup,seed\n"
                    + "".join(f"{m},{snr},{shots},{ser},5,15,0\n"
                              for m, snr, shots, ser in cells))


def test_efficiency_command(tmp_path, capsys):
    oml = tmp_path / "oml.csv"
    cae = tmp_path / "cae.csv"
    _write_summary(oml, [("oml_cae", 5, 1, 0.2)])
    _write_summary(cae, [("cae", 5, 1, 0.4), ("cae", 5, 2, 0.2),
                         ("cae", 5, 3, 0.1)])
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--oml", str(oml), "--cae", str(cae),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "target_ser,oml_shots,cae_equivalent_shots,ratio,reachable"
    assert lines[1].startswith("0.2,1,2,")
    assert "mean ratio" in capsys.readouterr().out
    # an OML-CAE SER below the CAE's best has no ratio, and no traceback
    _write_summary(oml, [("oml_cae", 5, 1, 0.05)])
    assert main(["efficiency", "--oml", str(oml), "--cae", str(cae),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0.05,1,nan,nan,false"
    assert "no reachable target" in capsys.readouterr().out


def test_efficiency_uses_post_warmup_cell_means(tmp_path):
    # the curves are summary.csv's post-warm-up means: OML 0.05 at 1 shot,
    # CAE 0.1 and 0.025 at 1 and 2 shots, so the CAE needs 1.5 shots
    # (midway in log SER)
    oml, cae, out = tmp_path / "oml.csv", tmp_path / "cae.csv", tmp_path / "e"
    _write_summary(oml, [("oml_cae", 5, 1, 0.05)])
    _write_summary(cae, [("cae", 5, 1, 0.1), ("cae", 5, 2, 0.025)])
    assert main(["efficiency", "--oml", str(oml), "--cae", str(cae),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0.05,1,1.5,1.5,true"
    # a second SNR in one CSV is rejected, not averaged in
    _write_summary(cae, [("cae", 5, 1, 0.1), ("cae", 20, 1, 0.0)])
    with pytest.raises(SystemExit, match="2 SNRs .5, 20 dB."):
        main(["efficiency", "--oml", str(oml), "--cae", str(cae),
              "--out", str(out)])
    # so is a metrics.csv, whose rows are per sequence, not per cell
    cae.write_text("method,snr_db,shots,sequence,ser,seed\ncae,5,1,1,0.1,0\n")
    with pytest.raises(SystemExit, match="is not a summary.csv"):
        main(["efficiency", "--oml", str(oml), "--cae", str(cae),
              "--out", str(out)])


@pytest.mark.parametrize("oml_cells, cae_cells, message", [
    # one CAE shot count, as a run with one shots entry gives: no curve
    ([("oml_cae", 5, 1, 0.2)], [("cae", 5, 1, 0.3)],
     r"cae\.csv: 1 cae\* shot counts, need at least 2$"),
    # no OML-CAE cells: no targets, so no CSV, not a header-only one
    ([("cae", 5, 1, 0.3)], [("cae", 5, 1, 0.3), ("cae", 5, 2, 0.1)],
     r"oml\.csv: 0 oml\* shot counts, need at least 1$")])
def test_efficiency_rejects_too_few_cells(tmp_path, oml_cells, cae_cells,
                                          message):
    oml, cae, out = tmp_path / "oml.csv", tmp_path / "cae.csv", tmp_path / "e"
    _write_summary(oml, oml_cells)
    _write_summary(cae, cae_cells)
    with pytest.raises(SystemExit, match=f"^omlcae efficiency: .*{message}"):
        main(["efficiency", "--oml", str(oml), "--cae", str(cae),
              "--out", str(out)])
    assert not out.exists()


def test_efficiency_follows_the_runs_warmup(tmp_path):
    # a warmup = 5 run summarizes sequences 6-8; the default warm-up of 15
    # would keep all 8, and the efficiency targets are the run's own means
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nk = 2\nn_ch = 1\nsnr_db = 5\nshots = 1,2\n"
                   "n_sequences = 8\nwarmup = 5\nn_eval = 100\nhidden = 8\n"
                   "methods = oml_cae,cae\n"
                   "[meta]\nouter_iters = 8\nfinetune_iters = 5\n")
    run, out = tmp_path / "run", tmp_path / "eff.csv"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == 0
    oml = {}  # shots -> [(sequence, ser)] of the OML-CAE rows
    for method, _, shots, seq, ser, _ in (
            line.split(",") for line in
            (run / "metrics.csv").read_text().splitlines()[1:]):
        if method == "oml_cae":
            oml.setdefault(int(shots), []).append((int(seq), float(ser)))

    def means(first):  # the OML-CAE curve over sequences >= first
        return [f"{np.mean([s for i, s in oml[shots] if i >= first]):.10g}"
                for shots in (1, 2)]

    assert means(6) != means(1)
    summary = str(run / "summary.csv")
    assert main(["efficiency", "--oml", summary, "--cae", summary,
                 "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in
            out.read_text().splitlines()[1:]] == means(6)


def test_constellation_oml_needs_two_sequences(tmp_path):
    # at one sequence OML-CAE would fine-tune the untrained init, so its
    # export would show no meta-learning
    args = ["constellation", "--bits", "2", "--channel-uses", "1", "--iters",
            "5", "--meta-iters", "2", "--n-show", "4", "--method", "oml_cae"]
    with pytest.raises(SystemExit, match="--sequences >= 2"):
        main(args + ["--out", str(tmp_path / "one.json")])
    assert not (tmp_path / "one.json").exists()
    assert main(args + ["--sequences", "2",
                        "--out", str(tmp_path / "two.json")]) == 0


@pytest.mark.parametrize("flag, message", [
    ("--snr-db=-4000", "snr_db entry -4000.0 "),
    ("--shots=0", "shots must be >= 1"),
    ("--snr-db=nan", "snr_db entry nan "),
    ("--seed=-1", "seed must be >= 0")])
def test_constellation_rejects_an_invalid_config_before_training(
        tmp_path, monkeypatch, flag, message):
    # the flags go through run's config checks: one line naming the field,
    # no traceback, no training and no file
    def train(*args, **kwargs):
        raise AssertionError("trained on an invalid config")

    monkeypatch.setattr(cli, "scratch_starts", train)
    monkeypatch.setattr(cli, "online_starts", train)
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as exc:
        main(["constellation", flag, "--out", str(out)])
    text = str(exc.value)
    assert text.startswith(f"omlcae constellation: {message}"), text
    assert "\n" not in text and exc.value.__suppress_context__
    assert not out.exists()


def _export(path, cfg, model, theta):
    # the last sequence's export of theta, as omlcae constellation writes it
    *_, (_, h) = metalearn.channel_sequence(cfg)
    export_constellation(model, h, NoiseModel(cfg.sigma2), cfg.snr_db,
                         cfg.n_eval, cfg.cell_substream("export"), str(path),
                         theta=theta)
    return path


def test_constellation_cae_exports_the_scratch_runs_last_theta(
        tmp_path, monkeypatch):
    # the export fine-tunes the last sequence from the scratch CAE's own
    # start, so it writes the bytes of run_scratch_cae's last fine-tuned theta
    cfg = parse_config(None, dict(
        k=2, n_ch=1, snr_db=(5.0,), shots=(1,), n_sequences=3, seed=0,
        finetune_iters=5, n_eval=16, methods=("cae",))).run_config(5.0, 1)
    model = cfg.build_model()
    scored, sequence_ser = [], metalearn.sequence_ser

    def kept_ser(model, cfg, i, h, theta):
        scored.append(theta)
        return sequence_ser(model, cfg, i, h, theta)

    monkeypatch.setattr(metalearn, "sequence_ser", kept_ser)
    assert len(baselines.run_scratch_cae(cfg, model)) == len(scored) == 3
    want = _export(tmp_path / "want.json", cfg, model, scored[-1])
    out = tmp_path / "c.json"
    assert main(["constellation", "--method", "cae", "--bits", "2",
                 "--channel-uses", "1", "--shots", "1", "--sequences", "3",
                 "--iters", "5", "--n-show", "16", "--out", str(out)]) == 0
    assert len(scored) == 3  # the export scores no sequence
    assert out.read_bytes() == want.read_bytes()


def test_constellation_oml_fine_tunes_only_the_exported_sequence(
        tmp_path, monkeypatch):
    # the export fine-tunes the last sequence from its meta-initialization
    # and scores no sequence, yet writes the bytes of online_run's last theta
    cfg = parse_config(None, dict(
        k=2, n_ch=1, snr_db=(5.0,), shots=(1,), n_sequences=4, seed=0,
        finetune_iters=5, outer_iters=6, n_eval=16,
        methods=("oml_cae",))).run_config(5.0, 1)
    model = cfg.build_model()
    theta = metalearn.online_run(cfg, model=model, row=lambda i, _, th: th
                                 if i == cfg.n_sequences else None)[-1]
    want = _export(tmp_path / "want.json", cfg, model, theta)

    calls = {"sequence_ser": 0, "fine-tuned": 0}
    adapt = metalearn.inner_adapt

    def counted_adapt(model, theta, task, *args, **kwargs):
        calls["fine-tuned"] += len(task) if isinstance(task, list) else 1
        return adapt(model, theta, task, *args, **kwargs)

    def counted_ser(*args):
        calls["sequence_ser"] += 1
        return 0.0

    monkeypatch.setattr(metalearn, "inner_adapt", counted_adapt)
    monkeypatch.setattr(cli, "inner_adapt", counted_adapt)
    monkeypatch.setattr(metalearn, "sequence_ser", counted_ser)
    out = tmp_path / "c.json"
    assert main(["constellation", "--method", "oml_cae", "--bits", "2",
                 "--channel-uses", "1", "--shots", "1", "--sequences", "4",
                 "--iters", "5", "--meta-iters", "6", "--n-show", "16",
                 "--out", str(out)]) == 0
    assert calls == {"sequence_ser": 0, "fine-tuned": 1}
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("method", ["cae", "oml_cae"])
def test_constellation_rejects_non_finite_parameters(tmp_path, monkeypatch,
                                                     method):
    monkeypatch.setattr(cli, "inner_adapt",
                        lambda model, *args: np.full(model.n_params, np.nan))
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit, match="non-finite parameters after the "
                                         "fine-tune of sequence 2"):
        main(["constellation", "--method", method, "--sequences", "2",
              "--iters", "1", "--meta-iters", "1", "--out", str(out)])
    assert not out.exists()


def test_constellation_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["constellation", "--bits", "2", "--channel-uses", "1",
                 "--snr-db", "5", "--shots", "1", "--seed", "0",
                 "--iters", "20", "--meta-iters", "2", "--n-show", "10",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["constellation"]) == 4 and len(doc["received"]) == 10


def test_constellation_writes_strict_json_at_infinite_snr(tmp_path):
    # json.dump wrote the noiseless channel's SNR as the bare word Infinity,
    # which strict parsers reject; sigma2 = 0 records that channel
    def no_constant(name):
        raise ValueError(f"not JSON: {name}")

    out = tmp_path / "c.json"
    assert main(["constellation", "--snr-db", "inf", "--iters", "2",
                 "--n-show", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=no_constant)
    assert doc["snr_db"] is None and doc["sigma2"] == 0.0


@pytest.mark.parametrize("flag, expected", [
    ("--snr-db", "comma-separated float list"),
    ("--shots", "comma-separated int list")])
def test_run_list_flag_errors_name_the_format(capsys, flag, expected):
    # the parsers were lambdas, so argparse printed "invalid <lambda> value"
    with pytest.raises(SystemExit):
        main(["run", flag, "5,x"])
    err = capsys.readouterr().err
    assert f"invalid {expected} value: '5,x'" in err and "<lambda>" not in err


def test_channel_stats_command(capsys):
    assert main(["channel-stats", "--rho", "0.5", "--steps", "2000"]) == 0
    out = capsys.readouterr().out
    assert "lag-1 correlation" in out and "E|h|^2" in out


def test_gradcheck_passes_at_defaults_and_fails_on_a_wrong_entry(
        monkeypatch, capsys):
    assert main(["gradcheck"]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out
    loss_and_grads = cli.loss_and_grads

    def shifted(*args, **kwargs):
        # one entry off by 1e-3 of the largest: normwise error 1e-3 > 1e-4
        loss, grads = loss_and_grads(*args, **kwargs)
        grads[len(grads) // 2] += 1e-3 * np.max(np.abs(grads))
        return loss, grads

    monkeypatch.setattr(cli, "loss_and_grads", shifted)
    assert main(["gradcheck"]) == 1
    assert "gradcheck FAIL" in capsys.readouterr().out

    def nan_grads(*args, **kwargs):
        # a NaN error compares false against the bound, yet is the worst
        loss, grads = loss_and_grads(*args, **kwargs)
        return loss, np.full_like(grads, np.nan)

    monkeypatch.setattr(cli, "loss_and_grads", nan_grads)
    assert main(["gradcheck"]) == 1
    assert "gradcheck FAIL (worst nan)" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["channel-stats", "--steps", "1"], "--steps must be >= 2 for a lag-1 "
                                        "correlation, got 1"),
    (["channel-stats", "--steps", "0"], "--steps must be >= 2"),
    (["channel-stats", "--rho", "2"], "--rho must be in [0, 1], got 2.0"),
    (["channel-stats", "--rho", "nan"], "--rho must be in [0, 1], got nan"),
    (["channel-stats", "--n", "0"], "--n must be >= 1, got 0"),
    (["channel-stats", "--seed=-1"], "--seed must be >= 0, got -1"),
    (["gradcheck", "--eps", "0"], "--eps must be finite and > 0, got 0.0"),
    (["gradcheck", "--eps", "nan"], "--eps must be finite and > 0, got nan"),
    (["gradcheck", "--hidden", "0"], "--hidden must be >= 1, got 0"),
    (["gradcheck", "--seed=-1"], "--seed must be >= 0, got -1")])
def test_stats_and_gradcheck_reject_invalid_flags(args, message):
    # one line naming the flag, as run and constellation give, not a
    # traceback or a NaN report
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert str(exc.value).startswith(f"omlcae {args[0]}: {message}")
    assert "\n" not in str(exc.value)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
