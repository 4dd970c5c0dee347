import json
import subprocess
import sys

import pytest

from simumt.cascade import TimedWord, save_timed_streams
from simumt.cli import CONFIG_ENV_VAR, cli


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end pipeline shared by the read-only CLI tests:
    generated corpus, a 1-epoch model, and a timed word stream."""
    ws = tmp_path_factory.mktemp("cli")
    corpus = ws / "corpus.tsv"
    assert cli(["gen-data", "--task", "copy", "--n-pairs", "400",
                "--seed", "1", "--out", str(corpus)]) == 0
    run = ws / "run"
    assert cli(["train", "--corpus", str(corpus), "--out-dir", str(run),
                "--epochs", "1", "--n-dev", "50", "--batch-size", "16",
                "--bpe-size", "40", "--base-lr", "0.2"]) == 0
    stream = ws / "stream.tsv"
    save_timed_streams(
        [[TimedWord("b", 0, 300), TimedWord("c", 400, 300)],
         [TimedWord("a", 0, 300), TimedWord("a", 3000, 300)]], stream)
    return ws


def test_gen_data_writes_pairs(tmp_path):
    out = tmp_path / "pairs.tsv"
    assert cli(["gen-data", "--task", "digit_to_word", "--n-pairs", "10",
                "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert all("\t" in l for l in lines)


def test_gen_data_jsonl(tmp_path):
    out = tmp_path / "pairs.jsonl"
    assert cli(["gen-data", "--task", "copy", "--n-pairs", "5", "--seed", "0",
                "--format", "jsonl", "--out", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(recs) == 5 and all("src" in r and "tgt" in r for r in recs)


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "bpe.model").exists()
    assert (run / "model.ckpt").exists()
    log_lines = (run / "train_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("# ")
    stamped = json.loads(log_lines[0][2:])
    assert "sha256" in stamped["inputs"]["corpus"]
    assert log_lines[1] == "epoch,train_loss,dev_loss,lr"
    assert len(log_lines) == 3                      # one epoch

    cfg = json.loads((run / "config.json").read_text())
    assert cfg["resolved"]["values"]["epochs"] == 1
    assert cfg["resolved"]["provenance"]["epochs"] == "flag"
    assert cfg["resolved"]["provenance"]["d_model"] == "default"


def test_train_config_file_and_env(tmp_path, monkeypatch):
    corpus = tmp_path / "c.tsv"
    assert cli(["gen-data", "--task", "copy", "--n-pairs", "80", "--seed", "2",
                "--out", str(corpus)]) == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 2, "n_dev": 20,
                                    "batch_size": 16, "bpe_vocab_size": 40,
                                    "d_model": 16, "n_heads": 2,
                                    "n_enc_layers": 1, "n_dec_layers": 1,
                                    "d_ffn": 24}))
    run = tmp_path / "run"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_file))
    assert cli(["train", "--corpus", str(corpus), "--out-dir", str(run),
                "--epochs", "1"]) == 0        # flag still beats the env config
    resolved = json.loads((run / "config.json").read_text())["resolved"]
    assert resolved["values"]["epochs"] == 1
    assert resolved["provenance"]["epochs"] == "flag"
    assert resolved["values"]["n_dev"] == 20
    assert resolved["provenance"]["n_dev"] == "config_file"


def test_train_rejects_unknown_config_key(tmp_path):
    corpus = tmp_path / "c.tsv"
    cli(["gen-data", "--task", "copy", "--n-pairs", "60", "--seed", "0",
         "--out", str(corpus)])
    bad = tmp_path / "bad.json"
    bad.write_text('{"epocs": 3}')
    assert cli(["train", "--corpus", str(corpus), "--out-dir",
                str(tmp_path / "r"), "--config", str(bad)]) == 1


def test_translate(workspace, tmp_path):
    run = workspace / "run"
    inp = tmp_path / "input.txt"
    inp.write_text("a b c d\nb c\n")
    out = tmp_path / "hyps.jsonl"
    assert cli(["translate", "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"), "--k", "3",
                "--input", str(inp), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    recs = [json.loads(l) for l in lines[1:]]
    assert [r["id"] for r in recs] == [0, 1]
    for r in recs:
        assert {"a": "R", "i": 0} in r["trace"]
        assert any(f["a"] == "W" for f in r["trace"])
        assert isinstance(r["detok"], str)


def test_cascade_command(workspace, tmp_path):
    run = workspace / "run"
    out = tmp_path / "cascade.jsonl"
    assert cli(["cascade", "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"),
                "--stream", str(workspace / "stream.tsv"), "--out", str(out),
                "--sz", "2", "--beta", "3", "--rule", "c:1.0",
                "--rule", "b:0.5:8.0"]) == 0
    lines = out.read_text().splitlines()
    recs = [json.loads(l) for l in lines[1:]]
    assert len(recs) == 2
    for r in recs:
        reads = [f for f in r["trace"] if f["a"] == "R"]
        writes = [f for f in r["trace"] if f["a"] == "W"]
        assert reads and writes
        assert all("g_ms" in f for f in writes)


def test_segment_command(workspace, tmp_path):
    out = tmp_path / "segments.tsv"
    assert cli(["segment", "--input", str(workspace / "stream.tsv"),
                "--out", str(out)]) == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()]
    assert [r[0] for r in rows] == ["b", "c", "a", "a"]
    # the 2.3 s gap in the second stream splits it
    assert [r[3] for r in rows] == ["0", "0", "1", "2"]


@pytest.mark.parametrize("flag", ["--theta-long", "--theta-short"])
def test_segment_refuses_a_nan_threshold(workspace, tmp_path, flag):
    out = tmp_path / "segments.tsv"
    assert cli(["segment", "--input", str(workspace / "stream.tsv"),
                "--out", str(out), flag, "nan"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("n_pairs", ["0", "-5"])
def test_gen_data_refuses_fewer_than_one_pair(tmp_path, n_pairs):
    out = tmp_path / "pairs.tsv"
    assert cli(["gen-data", "--task", "copy", "--n-pairs", n_pairs,
                "--out", str(out)]) == 1
    assert not out.exists()


def test_sweep_command(workspace, tmp_path):
    run = workspace / "run"
    out = tmp_path / "plot.csv"
    assert cli(["sweep", "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"),
                "--testset", str(workspace / "corpus.tsv"),
                "--k", "1,3,inf", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "system,k,bleu,al_words,al_ms"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 3
    assert sorted(r[1] for r in rows) == ["1", "3", "inf"]
    assert all(r[0] == "model" for r in rows)       # checkpoint file stem


def test_sweep_ensemble_adds_system(workspace, tmp_path):
    run = workspace / "run"
    out = tmp_path / "plot.csv"
    assert cli(["sweep", "--model", str(run / "model.ckpt"),
                "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"),
                "--testset", str(workspace / "corpus.tsv"),
                "--k", "1", "--ensemble", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert {r[0] for r in rows} == {"model", "ensemble"}


def test_sweep_ensemble_loads_each_checkpoint_once(workspace, tmp_path, monkeypatch):
    from simumt import model
    loaded = []
    real_load = model.load_checkpoint

    def load(path):
        loaded.append(path)
        return real_load(path)

    monkeypatch.setattr(model, "load_checkpoint", load)
    run = workspace / "run"
    assert cli(["sweep", "--model", str(run / "model.ckpt"),
                "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"),
                "--testset", str(workspace / "corpus.tsv"),
                "--k", "1", "--ensemble", "--out", str(tmp_path / "plot.csv")]) == 0
    assert len(loaded) == 2


def test_sweep_system_ids_are_unique(workspace, tmp_path, monkeypatch):
    # `simumt train` always writes model.ckpt, so two runs' checkpoints used
    # to give two rows named "model" at each k, and ensemble.ckpt one more
    # row named "ensemble"
    from simumt import sweep
    ckpt = (workspace / "run" / "model.ckpt").read_bytes()
    for name in ("a/model.ckpt", "b/model.ckpt", "c/ensemble.ckpt"):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_bytes(ckpt)
    testset = tmp_path / "t.tsv"
    testset.write_text("".join((workspace / "corpus.tsv").read_text().splitlines(True)[:3]))
    swept = []
    real_sweep = sweep.sweep_t2t
    monkeypatch.setattr(sweep, "sweep_t2t", lambda systems, *a: swept.append(systems)
                        or real_sweep(systems, *a))

    def ids(*models, ensemble=False):
        out = tmp_path / "plot.csv"
        args = [a for m in models for a in ("--model", str(tmp_path / m))]
        assert cli(["sweep", *args, "--bpe", str(workspace / "run" / "bpe.model"),
                    "--testset", str(testset), "--k", "1", "--out", str(out)]
                   + ["--ensemble"] * ensemble) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        assert len(rows) == len({r[0] for r in rows})
        return [r[0] for r in rows]

    assert ids("a/model.ckpt", "b/model.ckpt") == ["a/model", "b/model"]
    assert ids("a/model.ckpt", "c/ensemble.ckpt") == ["ensemble", "model"]  # stems differ
    # a path given twice is one system; the ensemble still averages every --model
    assert ids("a/model.ckpt", "a/model.ckpt", "c/ensemble.ckpt", ensemble=True) == [
        "c/ensemble", "ensemble", "model"]
    assert [len(s.models) for s in swept[-1]] == [1, 1, 3]


def test_serve_detokenizes_like_the_sweep(tmp_path, monkeypatch):
    # served scores used to read <unk> glued to the next word, '<unk>ab cd'
    from simumt import bpe, server
    subword = bpe.train_bpe(["ab cd ab cd"], target_vocab_size=10)
    subword.save(tmp_path / "bpe.model")
    (tmp_path / "t.tsv").write_text("ab cd\tab cd\n")
    served = []

    class Idle:
        def serve_forever(self):
            pass

        def server_close(self):
            pass

    monkeypatch.setattr(server, "serve_eval", lambda host, port, ts: served.append(ts) or Idle())
    assert cli(["serve", "--bind", "127.0.0.1:0", "--bpe", str(tmp_path / "bpe.model"),
                "--testset", str(tmp_path / "t.tsv")]) == 0
    tokens = ["<unk>", "ab</w>", "cd</w>"]
    assert (served[0].detokenize(tokens) == subword.decode(subword.vocab.encode_tokens(tokens))
            == "<unk> ab cd")


def test_grad_check_pass_and_fail(capsys):
    assert cli(["grad-check", "--probes", "10"]) == 0
    assert "PASS" in capsys.readouterr().out
    # an unreachable tolerance must turn into a runtime failure, not a pass
    assert cli(["grad-check", "--probes", "10", "--tol", "1e-15"]) == 2
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes

def test_exit_1_usage_errors(tmp_path, capsys):
    assert cli([]) == 1                              # no subcommand
    assert cli(["translate", "--model", "x"]) == 1   # missing required flags
    assert cli(["gen-data", "--task", "nope", "--out", "x"]) == 1
    assert cli(["serve", "--bind", "nocolon", "--bpe", "x",
                "--testset", "y"]) == 1
    capsys.readouterr()


def test_exit_1_missing_files(workspace, tmp_path, capsys):
    run = workspace / "run"
    assert cli(["translate", "--model", str(tmp_path / "missing.ckpt"),
                "--bpe", str(run / "bpe.model"), "--k", "1",
                "--input", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "o")]) == 1
    assert cli(["train", "--corpus", str(tmp_path / "missing.tsv"),
                "--out-dir", str(tmp_path / "r")]) == 1
    capsys.readouterr()


def test_exit_1_bad_values(workspace, tmp_path, capsys):
    run = workspace / "run"
    # unparsable k list
    assert cli(["translate", "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"), "--k", "1,x",
                "--input", str(workspace / "corpus.tsv"),
                "--out", str(tmp_path / "o")]) == 1
    # dev split larger than the corpus
    assert cli(["train", "--corpus", str(workspace / "corpus.tsv"),
                "--out-dir", str(tmp_path / "r"), "--n-dev", "100000"]) == 1
    # malformed endpoint rule
    assert cli(["cascade", "--model", str(run / "model.ckpt"),
                "--bpe", str(run / "bpe.model"),
                "--stream", str(workspace / "stream.tsv"),
                "--out", str(tmp_path / "o"), "--rule", "q:1:2:3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("lr", ["-0.5", "nan"])
def test_exit_1_bad_base_lr(workspace, tmp_path, capsys, lr):
    # a negative rate used to train by gradient ascent (exit 0) and NaN to
    # diverge (exit 2): both are usage errors
    assert cli(["train", "--corpus", str(workspace / "corpus.tsv"),
                "--out-dir", str(tmp_path / "r"), "--epochs", "1", "--n-dev", "50",
                "--bpe-size", "40", "--base-lr", lr]) == 1
    assert "base_lr must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "r" / "model.ckpt").exists()


@pytest.mark.parametrize("values", [{"epochs": "2"}, {"batch_size": 2.5}, {"epochs": True}])
def test_exit_1_config_value_of_the_wrong_type(workspace, tmp_path, capsys, values):
    # "2" and 2.5 used to end in a TypeError traceback, 2.5 only after BPE
    # training and model init; true trained one epoch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert cli(["train", "--corpus", str(workspace / "corpus.tsv"),
                "--out-dir", str(tmp_path / "r"), "--config", str(cfg)]) == 1
    assert f"simumt: config {next(iter(values))}=" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_exit_1_serve_port_out_of_range(workspace, capsys):
    # a port above 65535 used to reach bind() and end in an OverflowError traceback
    assert cli(["serve", "--bind", "127.0.0.1:99999",
                "--bpe", str(workspace / "run" / "bpe.model"),
                "--testset", str(workspace / "corpus.tsv")]) == 1
    assert "bad --bind '127.0.0.1:99999'" in capsys.readouterr().err


def test_exit_1_grad_check_nan_tol(capsys):
    # tol=nan used to fail every probe and exit 2
    assert cli(["grad-check", "--probes", "10", "--tol", "nan"]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_exit_1_bad_corpus_and_testset_lines(workspace, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"src": 5, "tgt": "a b"}\n')
    assert cli(["train", "--corpus", str(corpus), "--out-dir", str(tmp_path / "r")]) == 1
    assert f"simumt: {corpus}:1: src and tgt must be strings" in capsys.readouterr().err
    testset = tmp_path / "t.tsv"
    testset.write_text("\tfoo\n")
    assert cli(["serve", "--bind", "127.0.0.1:0", "--bpe",
                str(workspace / "run" / "bpe.model"), "--testset", str(testset)]) == 1
    assert "simumt: source 0 is empty" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "pairs.tsv"
    proc = subprocess.run(
        [sys.executable, "-m", "simumt.cli", "gen-data", "--task", "copy",
         "--n-pairs", "3", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 3
    proc = subprocess.run([sys.executable, "-m", "simumt.cli"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
