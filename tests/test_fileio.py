import json

import numpy as np
import pytest

from cycsid import (
    ParseError,
    SchemaError,
    SignalLog,
    build_masks,
    load_model,
    load_signals,
    save_model,
    save_signals,
    simulate_multirate,
)
from cycsid.fileio import ModelFile
from cycsid.pipeline import load_config
from cycsid.subspace import IdentifiedModel
from cycsid.transform import extract_components
from cycsid import cyclic_reformulate


def test_signals_roundtrip_bit_exact(plant, tmp_path):
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, (100, 1))
    log = simulate_multirate(plant, build_masks((2, 3)), u)
    path = tmp_path / "signals.csv"
    save_signals(log, path)
    back = load_signals(path)
    assert np.array_equal(back.u, log.u)
    assert np.array_equal(back.y, log.y)
    assert np.array_equal(back.obs, log.obs)


def test_signals_header(tmp_path):
    log = SignalLog(u=np.ones((3, 1)), y=np.ones((3, 2)), x0=np.zeros(1))
    path = tmp_path / "s.csv"
    save_signals(log, path)
    assert path.read_text().splitlines()[0] == "k,u_1,y_1,y_2,obs_1,obs_2"


def test_signals_missing_obs_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,u_1,y_1,y_2\n0,1.0,2.0,3.0\n")
    with pytest.raises(SchemaError, match="obs"):
        load_signals(path)


def test_signals_non_numeric_field_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,u_1,y_1,obs_1\n0,1.0,2.0,1\n1,oops,2.0,1\n")
    with pytest.raises(ParseError) as err:
        load_signals(path)
    assert err.value.line == 3


def test_model_roundtrip_identified(plant, dual_rate_run, tmp_path):
    _, model, report = dual_rate_run
    idm = model.source
    path = tmp_path / "model.json"
    save_model(idm, path, rates=(2, 3), provenance={"seed": report.seed,
                                                    "N": report.N,
                                                    "convention": report.convention})
    mf = load_model(path)
    assert isinstance(mf, ModelFile) and mf.kind == "identified"
    assert np.array_equal(mf.model.A, idm.A)
    assert np.array_equal(mf.model.D, idm.D)
    assert mf.provenance["convention"] == report.convention
    assert mf.model.depth_evidence() == idm.depth_evidence() == report.block_rows


def test_model_saved_without_depth_record_loads(dual_rate_run, tmp_path):
    idm = dual_rate_run[1].source
    path = tmp_path / "model.json"
    save_model(idm, path, rates=(2, 3))
    doc = json.loads(path.read_text())
    del doc["block_rows"]
    path.write_text(json.dumps(doc))
    mf = load_model(path)
    assert np.array_equal(mf.model.A, idm.A)
    assert mf.model.depth_evidence() == {"used": 0, "pattern": 0, "shift_margin": None}
    doc["block_rows"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="block_rows"):
        load_model(path)


def test_model_roundtrip_cyclic(plant, tmp_path):
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    cm = extract_components(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, tol=0.0)
    path = tmp_path / "cyclic.json"
    save_model(cm, path, rates=(1, 3))
    mf = load_model(path)
    assert mf.kind == "cyclic"
    for i in range(3):
        assert np.array_equal(mf.model.A_phases[i], cm.A_phases[i])
    assert mf.model.structure == cm.structure


def test_model_roundtrip_cyclic_keeps_measured_margin(dual_rate_run, tmp_path):
    _, model, report = dual_rate_run
    path = tmp_path / "cyclic.json"
    save_model(model, path, rates=(2, 3))
    structure = load_model(path).model.structure
    assert structure == model.structure
    assert structure.to_dict() == report.cyclic_form
    assert structure.max_offpattern > 0.0  # not the clean rebuild's zero


@pytest.mark.parametrize("edit", ["drop", "partial", "malformed"])
def test_model_cyclic_bad_structure(plant, tmp_path, edit):
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    cm = extract_components(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, tol=0.0)
    path = tmp_path / "cyclic.json"
    save_model(cm, path, rates=(1, 3))
    doc = json.loads(path.read_text())
    if edit == "drop":
        del doc["structure"]
    elif edit == "partial":
        del doc["structure"]["B_cyclic"]
    else:
        del doc["structure"]["A_cyclic"]["tol"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="structure"):
        load_model(path)


def test_model_rate_dimension_mismatch(plant, tmp_path):
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    idm = IdentifiedModel(A=cs.A, B=cs.B, C=cs.C, D=cs.D, order=9,
                          n=3, m=1, l=2, M=3,
                          x0=np.zeros(9), singular_values=np.zeros(0))
    path = tmp_path / "model.json"
    save_model(idm, path, rates=(1, 3))
    doc = json.loads(path.read_text())
    doc["rates"] = [2, 3]  # lcm 6 disagrees with stored M = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


def test_model_cyclic_bad_block_shape(plant, tmp_path):
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    cm = extract_components(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3, tol=0.0)
    path = tmp_path / "cyclic.json"
    save_model(cm, path, rates=(1, 3))
    doc = json.loads(path.read_text())
    doc["B_phases"][1] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]  # n x m is 3x1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="B_phases"):
        load_model(path)


def test_model_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "identified",\n  "n": }')
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert err.value.line == 2


def test_config_roundtrip(tmp_path):
    doc = {
        "plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
        "rates": [2],
        "input": {"kind": "uniform", "amplitude": 0.5, "seed": 9},
        "N": 900,
        "tolerances": {"tf": 1e-7},
        "convention": "example",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.N == 900
    assert cfg.rates == (2,)
    assert cfg.convention == "example"
    assert cfg.tolerances["tf"] == 1e-7
    assert cfg.tolerances["structure"] == 1e-6  # default preserved


def test_config_missing_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"plant": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]}}))
    with pytest.raises(SchemaError, match="D"):
        load_config(path)


def test_config_rate_count_mismatch(tmp_path):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [2, 3]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_config(path)


@pytest.mark.parametrize("extra, key", [
    pytest.param({"tolerence": {"tf": 1e-9}}, "tolerence", id="tolerence"),
    pytest.param({"sv_gap_tol": 0.5}, "sv_gap_tol", id="sv_gap_tol"),
    pytest.param({"block_rows": 8}, "block_rows", id="block_rows"),
    pytest.param({"tolerances": {"tff": 1e-9}}, "tff", id="tff"),
    pytest.param({"input": {"kind": "uniform", "amplitud": 5.0}}, "amplitud", id="amplitud"),
    pytest.param({"input": {"kind": "uniform", "sed": 3}}, "sed", id="sed"),
    pytest.param({"input": {"file": "signals.csv", "seed": 3}}, "file", id="file-and-seed"),
    pytest.param({"input": {"kind": "gaussian"}}, "gaussian", id="kind"),
])
def test_config_rejects_unknown_key(tmp_path, extra, key):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [2], **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=key):
        load_config(path)
