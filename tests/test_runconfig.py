import csv
import hashlib
import json

import pytest

from simumt import runconfig as R
from simumt.sweep import TradeoffRecord, emit_plotdata
from simumt.training import INFINITE_K


DEFAULTS = {"epochs": 10, "mode": "multi_path", "base_lr": 0.05}


def test_resolution_order_and_provenance():
    cfg = R.resolve_config(DEFAULTS,
                           file_values={"epochs": 3, "base_lr": 0.2},
                           flag_values={"epochs": 7, "mode": None})
    assert cfg["epochs"] == 7                   # flag beats file
    assert cfg["base_lr"] == 0.2                # file beats default
    assert cfg["mode"] == "multi_path"          # None flag means "not given"
    assert cfg.provenance == {"epochs": R.PROVENANCE_FLAG,
                              "base_lr": R.PROVENANCE_FILE,
                              "mode": R.PROVENANCE_DEFAULT}


def test_defaults_only():
    cfg = R.resolve_config(DEFAULTS)
    assert cfg.values == DEFAULTS
    assert set(cfg.provenance.values()) == {R.PROVENANCE_DEFAULT}


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="epoks"):
        R.resolve_config(DEFAULTS, file_values={"epoks": 3})
    with pytest.raises(ValueError, match="modee"):
        R.resolve_config(DEFAULTS, flag_values={"modee": "x"})


def test_values_must_have_their_defaults_type():
    defaults = {**DEFAULTS, "k": None}
    for key, bad in (("epochs", "2"), ("epochs", True), ("epochs", 2.0),
                     ("mode", 1), ("base_lr", "0.1"), ("base_lr", False)):
        with pytest.raises(ValueError, match=f"config {key}="):
            R.resolve_config(defaults, file_values={key: bad})
        with pytest.raises(ValueError, match=f"config {key}="):
            R.resolve_config(defaults, flag_values={key: bad})
    # a float default takes an int; a None default is checked by its reader
    cfg = R.resolve_config(defaults, file_values={"base_lr": 1, "k": "inf"})
    assert cfg["base_lr"] == 1 and cfg["k"] == "inf"


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"epochs": 4}')
    assert R.load_config_file(p) == {"epochs": 4}
    p.write_text('[1, 2]')
    with pytest.raises(ValueError, match="JSON object"):
        R.load_config_file(p)
    p.write_text('not json')
    with pytest.raises(json.JSONDecodeError):
        R.load_config_file(p)


def test_load_config_file_refuses_json_nested_past_the_recursion_limit(tmp_path):
    # json raises RecursionError on it; every reader of outside JSON raises
    # ValueError instead (`parse_json`)
    p = tmp_path / "cfg.json"
    p.write_text("[" * 60000)
    with pytest.raises(ValueError, match="nested too deeply"):
        R.load_config_file(p)


def test_file_sha256(tmp_path):
    p = tmp_path / "data.bin"
    p.write_bytes(b"hello streaming world")
    assert R.file_sha256(p) == hashlib.sha256(b"hello streaming world").hexdigest()


def test_artifact_header_embeds_config_and_hashes(tmp_path):
    inp = tmp_path / "corpus.tsv"
    inp.write_text("a\tb\n")
    cfg = R.resolve_config(DEFAULTS, flag_values={"epochs": 2})
    header = R.artifact_header(cfg, {"corpus": inp})
    assert header.startswith("# ")
    obj = json.loads(header[2:])
    assert obj["config"]["values"]["epochs"] == 2
    assert obj["config"]["provenance"]["epochs"] == R.PROVENANCE_FLAG
    assert obj["inputs"]["corpus"]["sha256"] == R.file_sha256(inp)
    assert obj["inputs"]["corpus"]["path"] == str(inp)


def test_artifact_header_accepts_plain_dict():
    obj = json.loads(R.artifact_header({"seed": 1})[2:])
    assert obj == {"config": {"seed": 1}, "inputs": {}}


def test_emit_plotdata_sorted_exact_and_inf(tmp_path):
    recs = [
        TradeoffRecord("b", 2, 0.5, 3.25, None),
        TradeoffRecord("a", INFINITE_K, 0.75, 8.0, 800.0),
        TradeoffRecord("a", 1, 0.25, 1.5, 150.0),
    ]
    p = tmp_path / "plot.csv"
    emit_plotdata(recs, p, config_header="# cfg")
    lines = p.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1] == "system,k,bleu,al_words,al_ms"
    assert lines[2] == "a,1,0.25,1.5,150.0"
    assert lines[3] == "a,inf,0.75,8.0,800.0"
    assert lines[4] == "b,2,0.5,3.25,"
    # repr round-trips exactly
    assert float(lines[2].split(",")[3]) == 1.5


def test_emit_plotdata_quotes_a_system_id_with_a_comma(tmp_path):
    # ids come from checkpoint stems; "a,b" once read back as 6 fields
    recs = [TradeoffRecord("a,b", 1, 0.25, 1.5, None),
            TradeoffRecord('say "hi"', 2, 0.5, 3.25, None)]
    p = tmp_path / "plot.csv"
    emit_plotdata(recs, p)
    with open(p, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[1:] == [["a,b", "1", "0.25", "1.5", ""],
                        ['say "hi"', "2", "0.5", "3.25", ""]]
