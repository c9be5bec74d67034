"""Smoke tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from omlcae import cli, metalearn
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
    # output directory is made
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="omlcae run: snr_db entry -4000.0 "):
        main(["run", "--snr-db=-4000", "--out", str(out)])
    assert not out.exists()


def test_efficiency_command(tmp_path, capsys):
    oml = tmp_path / "oml.csv"
    cae = tmp_path / "cae.csv"
    header = "method,snr_db,shots,sequence,ser,seed\n"
    oml.write_text(header + "oml_cae,5,1,1,0.2,0\n")
    cae.write_text(header + "cae,5,1,1,0.4,0\ncae,5,2,1,0.2,0\n"
                   "cae,5,3,1,0.1,0\n")
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--oml", str(oml), "--cae", str(cae),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "target_ser,oml_shots,cae_equivalent_shots,ratio,reachable"
    assert lines[1].startswith("0.2,1,2,")
    assert "mean ratio" in capsys.readouterr().out


def _write_rows(path, rows):
    path.write_text("method,snr_db,shots,sequence,ser,seed\n" + "".join(
        f"{m},{snr},{shots},{seq},{ser},0\n" for m, snr, shots, seq, ser in rows))


def _warmup_rows(method, snr, shots, late_ser):
    # SER 1.0 through the default 15-sequence warm-up, late_ser after it
    return [(method, snr, shots, seq, 1.0 if seq <= 15 else late_ser)
            for seq in range(1, 21)]


def test_efficiency_uses_post_warmup_cell_means(tmp_path, capsys):
    # the curves are summary.csv's post-warm-up means: OML 0.05 at 1 shot,
    # CAE 0.1 and 0.025 at 1 and 2 shots, so the CAE needs 1.5 shots
    # (midway in log SER); means over all rows would give 0.76 and 0.78
    oml, cae, out = tmp_path / "oml.csv", tmp_path / "cae.csv", tmp_path / "e"
    _write_rows(oml, _warmup_rows("oml_cae", 5, 1, 0.05))
    _write_rows(cae, _warmup_rows("cae", 5, 1, 0.1)
                + _warmup_rows("cae", 5, 2, 0.025))
    assert main(["efficiency", "--oml", str(oml), "--cae", str(cae),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0.05,1,1.5,1.5,true"
    # a second SNR in one CSV is rejected, not averaged in
    _write_rows(cae, _warmup_rows("cae", 5, 1, 0.1)
                + _warmup_rows("cae", 20, 1, 0.0))
    with pytest.raises(SystemExit, match="2 SNRs .5, 20 dB."):
        main(["efficiency", "--oml", str(oml), "--cae", str(cae),
              "--out", str(out)])


def test_constellation_oml_needs_two_sequences(tmp_path):
    # at one sequence the OML-CAE export is the scratch CAE's, byte for byte
    args = ["constellation", "--bits", "2", "--channel-uses", "1", "--iters",
            "5", "--meta-iters", "2", "--n-show", "4", "--method", "oml_cae"]
    with pytest.raises(SystemExit, match="--sequences >= 2"):
        main(args + ["--out", str(tmp_path / "one.json")])
    assert not (tmp_path / "one.json").exists()
    assert main(args + ["--sequences", "2",
                        "--out", str(tmp_path / "two.json")]) == 0


@pytest.mark.parametrize("flag, message", [
    ("--snr-db=-4000", "snr_db entry -4000.0 "),
    ("--shots=0", "shots entries must be >= 1"),
    ("--snr-db=nan", "snr_db entry nan ")])
def test_constellation_rejects_an_invalid_config_before_training(
        tmp_path, monkeypatch, flag, message):
    # the flags go through run's config checks: one line naming the field,
    # no traceback, no training and no file
    def train(*args, **kwargs):
        raise AssertionError("trained on an invalid config")

    monkeypatch.setattr(cli, "task_sequence", train)
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as exc:
        main(["constellation", flag, "--out", str(out)])
    text = str(exc.value)
    assert text.startswith(f"omlcae constellation: {message}"), text
    assert "\n" not in text and exc.value.__suppress_context__
    assert not out.exists()


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
    *_, (_, h) = metalearn.channel_sequence(cfg)
    want = tmp_path / "want.json"
    export_constellation(model, h, NoiseModel(cfg.sigma2), cfg.snr_db,
                         cfg.n_eval, cfg.cell_substream("export"), str(want),
                         theta=theta)

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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
