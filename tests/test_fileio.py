import dataclasses
import json
import re

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
from cycsid.fileio import MODEL_KEYS, ModelFile
from cycsid.pipeline import load_config, run_identification
from cycsid import cyclic_reformulate

from conftest import identified_model


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


@pytest.mark.parametrize("field", ["nan", "inf", "-Infinity"])
def test_signals_non_finite_field_reports_line_and_column(tmp_path, field):
    # a field that parses as a float but is not finite is a parse error where
    # it stands, not a failure of the record built from the file
    path = tmp_path / "bad.csv"
    path.write_text("k,u_1,y_1,obs_1\n0,1.0,2.0,1\n" f"1,1.0,{field},1\n")
    with pytest.raises(ParseError, match=f"field '{field}' is not a finite number") as err:
        load_signals(path)
    assert (err.value.line, err.value.column) == (3, 3)


@pytest.mark.parametrize("ks, line, found", [
    # two rows swapped and one missing: five samples in the wrong order
    pytest.param((0, 2, 1, 4, 5), 3, "2", id="swap-and-gap"),
    pytest.param((0, 1, 2, 4, 5), 5, "4", id="gap"),
    pytest.param((1, 2, 3), 2, "1", id="starts-at-1"),
    pytest.param((0, "1.5", 2), 3, "1.5", id="non-integer"),
    pytest.param((0, "x", 2), 3, "x", id="non-numeric"),
])
def test_signals_k_must_count_the_data_rows(tmp_path, ks, line, found):
    path = tmp_path / "bad.csv"
    path.write_text("k,u_1,y_1,obs_1\n" + "".join(f"{k},1.0,2.0,1\n" for k in ks))
    with pytest.raises(ParseError, match=f"found '{re.escape(found)}'") as err:
        load_signals(path)
    assert err.value.line == line


def test_model_roundtrip_identified(plant, dual_rate_run, tmp_path):
    _, model, report = dual_rate_run
    idm = model.source
    path = tmp_path / "model.json"
    save_model(idm, path, build_masks((2, 3)), provenance={"seed": report.seed,
                                                    "N": report.N})
    mf = load_model(path)
    assert isinstance(mf, ModelFile)
    assert json.loads(path.read_text())["kind"] == "identified"
    assert np.array_equal(mf.model.A, idm.A)
    assert np.array_equal(mf.model.D, idm.D)
    assert mf.provenance == {"seed": report.seed, "N": report.N}
    assert (mf.model.order_gap, mf.model.order_exposed) == (report.sv_gap, report.order_exposed)
    assert mf.model.depth_evidence() == idm.depth_evidence() == report.block_rows


@pytest.mark.parametrize("offsets", [(0, 0), (1, 0)])
def test_model_file_round_trip_is_lossless(dual_rate_run, tmp_path, offsets):
    # every field of the identified record comes back bit for bit, x0 and the
    # evidence included, and the file holds exactly the model keys
    cfg = dataclasses.replace(dual_rate_run[0], offsets=offsets)
    idm = run_identification(cfg)[0].source if any(offsets) else dual_rate_run[1].source
    path = tmp_path / "model.json"
    save_model(idm, path, cfg.spec, {"seed": 5, "N": cfg.N})
    assert list(json.loads(path.read_text())) == list(MODEL_KEYS)
    mf = load_model(path)
    assert (mf.spec, mf.provenance) == (cfg.spec, {"seed": 5, "N": cfg.N})
    for f in dataclasses.fields(idm):
        assert np.array_equal(getattr(mf.model, f.name), getattr(idm, f.name)), f.name
    assert (mf.model.order_gap, mf.model.order_exposed) == (idm.order_gap, idm.order_exposed)


def test_model_roundtrip_keeps_the_per_phase_record(dual_rate_run, tmp_path):
    # per phase sigma_n/sigma_1 and sigma_(n+1)/sigma_n, and the size of A's
    # zeroed off-pattern part; the worst phase gap is the model's SV gap
    _, model, report = dual_rate_run
    idm = model.source
    record = idm.phase_evidence()
    assert len(record["rank_margin"]) == len(record["sv_gap"]) == idm.M
    assert max(record["sv_gap"]) == idm.order_gap == report.sv_gap
    assert report.phases == record and 0.0 <= record["a_offpattern"] < 1e-12
    path = tmp_path / "model.json"
    save_model(idm, path, build_masks((2, 3)))
    assert load_model(path).model.phase_evidence() == record


@pytest.mark.parametrize("edit, key", [
    pytest.param({"sv_gpa": 0.5}, "unknown model keys ['sv_gpa']", id="top-level"),
    pytest.param({"blok_rows": {"used": 9}}, "unknown model keys ['blok_rows']", id="blok_rows"),
    pytest.param({"block_rows": {"used": 9, "patern": 9}}, "unknown block_rows keys ['patern']",
                 id="block_rows"),
    pytest.param({"phases": {"rank_margn": None}}, "unknown phases keys ['rank_margn']",
                 id="phases"),
])
def test_model_file_refuses_unknown_keys(dual_rate_run, tmp_path, edit, key):
    # a misspelt key is an error that names it, not a field that loads as missing
    path = tmp_path / "model.json"
    save_model(dual_rate_run[1].source, path, build_masks((2, 3)))
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(SchemaError, match=re.escape(key)):
        load_model(path)


def test_model_file_records_offsets(dual_rate_run, tmp_path):
    idm = dual_rate_run[1].source
    path = tmp_path / "model.json"
    save_model(idm, path, build_masks((2, 3), (1, 0)))
    doc = json.loads(path.read_text())
    assert list(doc)[list(doc).index("rates") + 1] == "offsets"
    assert load_model(path).spec == build_masks((2, 3), (1, 0))
    doc["offsets"] = [1]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="offsets"):
        load_model(path)


def test_model_rate_dimension_mismatch(plant, tmp_path):
    cs = cyclic_reformulate(plant, build_masks((1, 3)))
    idm = identified_model(cs.A, cs.B, cs.C, cs.D, 3, 1, 2, 3)
    path = tmp_path / "model.json"
    save_model(idm, path, build_masks((1, 3)))
    doc = json.loads(path.read_text())
    doc["rates"] = [2, 3]  # lcm 6 disagrees with stored M = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
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
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.N == 900
    assert cfg.rates == (2,)
    assert cfg.tolerances["tf"] == 1e-7
    assert cfg.tolerances["structure"] == 1e-6  # default preserved


def test_config_offsets_pair_with_rates(tmp_path):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).offsets == (0,)  # the default is filled in
    # one offset per rate, in [0, rate): offset 2 or -1 at rate 2 samples the
    # same steps as 0 or 1, and the model file would record it differently
    for offsets in ([1, 0], [2], [-1]):
        path.write_text(json.dumps({**doc, "offsets": offsets}))
        with pytest.raises(SchemaError, match=r"need one in \[0, rate\) per rate"):
            load_config(path)


def test_config_rejects_a_nonpositive_rate(tmp_path):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"rates must be positive, got \(0,\)"):
        load_config(path)


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
    pytest.param({"convention": "general"}, "convention", id="convention"),
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


@pytest.mark.parametrize("extra, message", [
    pytest.param({"N": "abc"}, "N must be an integer, got 'abc'", id="N-text"),
    pytest.param({"N": 200.7}, "N must be an integer, got 200.7", id="N-fraction"),
    pytest.param({"noise": "x"}, "noise must be a number, got 'x'", id="noise"),
    pytest.param({"noise": float("nan")}, "noise must be nonnegative", id="noise-nan"),
    pytest.param({"noise": float("inf")}, "noise must be finite, got inf", id="noise-inf"),
    pytest.param({"plant": 5}, "expected an object holding 'A', got int", id="plant-number"),
    pytest.param({"plant": {"A": [[0.5, 0.1]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}},
                 "A must be square, got (1, 2)", id="plant-non-square"),
    pytest.param({"plant": {"A": [[0.5]], "B": [[float("nan")]], "C": [[1.0]], "D": [[0.0]]}},
                 "B contains non-finite entries", id="plant-nan"),
    pytest.param({"rates": 3}, "rates must be a list of integers, got 3", id="rates-scalar"),
    pytest.param({"rates": ["q"]}, "rates must be a list of integers, got ['q']",
                 id="rates-text"),
    pytest.param({"offsets": ["a"]}, "offsets must be a list of integers, got ['a']",
                 id="offsets"),
    pytest.param({"x0": ["a"]}, "x0 must be a list of numbers, got ['a']", id="x0"),
    pytest.param({"tolerances": {"tf": "x"}}, "tolerances.tf must be a number, got 'x'",
                 id="tolerances"),
    pytest.param({"tolerances": {"tf": float("nan")}}, "tolerances must be positive",
                 id="tolerances-nan"),
    pytest.param({"input": {"amplitude": "x"}}, "input.amplitude must be a number, got 'x'",
                 id="amplitude"),
    *(pytest.param({"input": {"amplitude": v}}, f"input.amplitude must be finite, got {v}",
                   id=f"amplitude-{name}")
      for v, name in ((float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "neg-inf"))),
    pytest.param({"input": {"seed": "s"}},
                 "input.seed must be a nonnegative integer or null, got 's'", id="seed-text"),
    pytest.param({"input": {"seed": 1.5}},
                 "input.seed must be a nonnegative integer or null, got 1.5", id="seed-fraction"),
    pytest.param({"input": {"seed": -1}},
                 "input.seed must be a nonnegative integer or null, got -1", id="seed-negative"),
    pytest.param({"input": None}, "input must be an object, got None", id="input-null"),
    pytest.param({"tolerances": [1]}, "tolerances must be an object or null, got [1]",
                 id="tolerances-list"),
    pytest.param({"out_dir": 5}, "out_dir must be a string or null, got 5", id="out_dir"),
])
def test_config_value_that_fails_conversion_names_its_key(tmp_path, extra, message):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [2], **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: {message}"


def test_config_seed_may_be_null(tmp_path):
    doc = {"plant": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
           "rates": [2], "input": {"seed": None}, "N": 200.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.input["seed"] is None and cfg.N == 200 and isinstance(cfg.N, int)
