import json

import numpy as np
import pytest

from cohbreak.channels import channel_to_json, dephasing_channel, y_to_x_channel
from cohbreak.classifiers import ClassificationReport
from cohbreak.cli import main
from cohbreak.concentration import ConcentrationReport
from cohbreak.states import state_to_json
from conftest import rotated_dephasing_channel


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["delta"] = tmp_path / "delta.json"
    paths["delta"].write_text(json.dumps(channel_to_json(dephasing_channel(2))))
    paths["gad"] = tmp_path / "gad.json"
    paths["gad"].write_text(json.dumps({"gad": {"p": 0.7, "t": 1.0}}))
    paths["example1"] = tmp_path / "example1.json"
    paths["example1"].write_text(json.dumps(channel_to_json(y_to_x_channel(0.5))))
    paths["rotated"] = tmp_path / "rotated.json"
    paths["rotated"].write_text(json.dumps(channel_to_json(rotated_dephasing_channel())))
    paths["state"] = tmp_path / "state.json"
    paths["state"].write_text(json.dumps({"bloch": [0.3, 0.5, 0.2]}))
    paths["state3"] = tmp_path / "state3.json"
    paths["state3"].write_text(json.dumps(state_to_json(np.eye(3) / 3)))
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text("{not json")
    paths["badkey"] = tmp_path / "badkey.json"
    paths["badkey"].write_text(json.dumps({"kraus_ops": []}))
    paths["tmp"] = tmp_path
    return paths


def test_classify_delta_all_yes(files, capsys):
    out = files["tmp"] / "report.json"
    code = main(["classify", "--channel", str(files["delta"]), "--out", str(out)])
    assert code == 0
    report = ClassificationReport.from_dict(json.loads(out.read_text()))
    assert all(v == "yes" for v in report.verdicts.values())


def test_classify_gad_not_breaking(files):
    out = files["tmp"] / "gad_report.json"
    assert main(["classify", "--channel", str(files["gad"]), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["cbc"] == "no"
    assert report["verdicts"]["incoherent"] == "yes"


def test_classify_malformed_json_exits_2(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--channel", str(files["bad"])])
    assert exc.value.code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_classify_wrong_key_names_the_problem(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--channel", str(files["badkey"])])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kraus" in err and "affine" in err


def test_index_outputs(files, capsys):
    assert main(["index", "--channel", str(files["example1"])]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["index", "--channel", str(files["gad"]), "--cap", "64"]) == 0
    assert capsys.readouterr().out.strip() == "exceeds cap 64"
    assert main(["index", "--channel", str(files["delta"])]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_index_json_format(files):
    out = files["tmp"] / "index.json"
    assert main(["index", "--channel", str(files["example1"]), "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["index"] == 2 and data["exceeded"] is False


def test_index_rejects_non_incoherent_channel(files, capsys):
    code = main(["index", "--channel", str(files["rotated"])])
    assert code == 3
    assert "incoherent" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["classify"], ["index"]])
def test_nan_kraus_entry_is_usage_error(files, capsys, command):
    kraus = channel_to_json(dephasing_channel(2))
    kraus["kraus"][0][1][1] = [float("nan"), 0.0]
    path = files["tmp"] / "nan_channel.json"
    path.write_text(json.dumps(kraus))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--channel", str(path)])
    assert exc.value.code == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_evolve_nan_state_is_usage_error(files, capsys):
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = np.nan
    path = files["tmp"] / "nan_state.json"
    path.write_text(json.dumps(state_to_json(rho)))
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--channel", str(files["gad"]), "--state", str(path),
              "--steps", "2"])
    assert exc.value.code == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_evolve_fig2_lines(files):
    out = files["tmp"] / "traj.csv"
    code = main(["evolve", "--channel", str(files["example1"]),
                 "--state", str(files["state"]), "--steps", "10",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "step,c_l1"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(values) == 11
    assert abs(values[0] - np.sqrt(0.34)) < 1e-12
    assert abs(values[1] - 0.25) < 1e-12
    assert max(values[2:]) < 1e-9
    sidecar = json.loads((files["tmp"] / "traj.json").read_text())
    assert sidecar["sudden_death_step"] == 2


def test_evolve_gad_line(files):
    out = files["tmp"] / "gad_traj.csv"
    assert main(["evolve", "--channel", str(files["gad"]),
                 "--state", str(files["state"]), "--steps", "10",
                 "--out", str(out)]) == 0
    values = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
    for j, value in enumerate(values):
        assert abs(value - 0.7 ** (j / 2) * np.sqrt(0.34)) < 1e-9
    sidecar = json.loads((files["tmp"] / "gad_traj.json").read_text())
    assert sidecar["sudden_death_step"] is None


def test_evolve_zero_steps_is_usage_error(files):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--channel", str(files["gad"]),
              "--state", str(files["state"]), "--steps", "0"])
    assert exc.value.code == 2


def test_evolve_dimension_mismatch_is_domain_error(files, capsys):
    code = main(["evolve", "--channel", str(files["gad"]),
                 "--state", str(files["state3"]), "--steps", "2"])
    assert code == 3


def test_concentrate_is_byte_identical_for_fixed_seed(files):
    out_a = files["tmp"] / "a.json"
    out_b = files["tmp"] / "b.json"
    argv = ["concentrate", "--dim", "2", "--samples", "2000", "--seed", "7",
            "--eps", "0.05,0.1"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = ConcentrationReport.from_dict(json.loads(out_a.read_text()))
    assert report.samples == 2000 and report.dim == 2


def test_concentrate_csv_format(files):
    out = files["tmp"] / "conc.csv"
    assert main(["concentrate", "--dim", "4", "--samples", "500", "--seed", "3",
                 "--eps", "0.1,0.5", "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "epsilon,empirical_tail,levy_bound,corollary_bound"
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row.split(",")) == 4


def test_concentrate_accepts_channel_file(files):
    out = files["tmp"] / "conc_gad.json"
    assert main(["concentrate", "--dim", "2", "--samples", "500", "--seed", "5",
                 "--eps", "0.1", "--channel", str(files["gad"]),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["channel"].endswith("gad.json")


def test_concentrate_dimension_one_is_usage_error(files):
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--dim", "1", "--samples", "100", "--seed", "1",
              "--eps", "0.1"])
    assert exc.value.code == 2


def test_concentrate_requires_dim():
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--samples", "100", "--seed", "1", "--eps", "0.1"])
    assert exc.value.code == 2


def test_concentrate_dim_channel_mismatch_is_usage_error(files):
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--dim", "3", "--samples", "100", "--seed", "1",
              "--eps", "0.1", "--channel", str(files["gad"])])
    assert exc.value.code == 2


def test_concentrate_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--dim", "4", "--samples", "10", "--seed", "-1",
              "--eps", "0.1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["index", "--channel", "identity", "--dim", "2", "--tol", "inf"],
    ["index", "--channel", "identity", "--dim", "2", "--tol", "nan"],
    ["classify", "--channel", "identity", "--dim", "2", "--tol", "nan"],
    ["concentrate", "--dim", "8", "--samples", "50", "--seed", "1", "--eps", "nan,0.1"],
    ["concentrate", "--dim", "8", "--samples", "50", "--seed", "1", "--eps", "inf"],
    ["concentrate", "--dim", "8", "--samples", "50", "--seed", "1", "--eps", "0.1",
     "--eta", "nan"],
])
def test_non_finite_numeric_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nope"])
    assert exc.value.code == 2
