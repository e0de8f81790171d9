import contextlib
import copy
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak import cli
from cohbreak.channels import (
    cbc_from_povm,
    channel_to_json,
    dephasing_channel,
    identity_channel,
    partial_dephasing_channel,
    random_povm,
    y_to_x_channel,
)
from cohbreak.classifiers import ClassificationReport
from cohbreak.cli import main
from cohbreak.concentration import ConcentrationReport
from cohbreak.states import complex_matrix_to_json, state_to_json
from conftest import (BLOCH_STRING, MALFORMED_SPARSE, STRING_NUMBERS, dense_channel_json,
                      rotated_dephasing_channel)


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
    kraus = dense_channel_json(dephasing_channel(2))
    kraus["kraus"][0][1][1] = [float("nan"), 0.0]
    path = files["tmp"] / "nan_channel.json"
    path.write_text(json.dumps(kraus))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--channel", str(path)])
    assert exc.value.code == 2
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["classify"], ["index"]])
def test_nan_sparse_entry_is_usage_error(files, capsys, command):
    sparse = channel_to_json(dephasing_channel(2))
    sparse["sparse"][1][0][2] = float("nan")
    path = files["tmp"] / "nan_channel.json"
    path.write_text(json.dumps(sparse))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--channel", str(path)])
    assert exc.value.code == 2
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("channel", [
    partial_dephasing_channel(3, 0.3),
    cbc_from_povm(random_povm(3, 3, np.random.default_rng(5))),
    partial_dephasing_channel(8, 0.5),
], ids=["partial-dephasing", "povm", "partial-dephasing-d8"])
@pytest.mark.parametrize("argv", [
    ["classify"],
    ["index", "--format", "json"],
    ["index"],
    ["evolve", "--state", "mixed", "--steps", "3"],
    ["concentrate", "--dim", "d", "--samples", "64", "--seed", "4", "--eps", "0.05,0.1"],
], ids=["classify", "index-json", "index-text", "evolve", "concentrate"])
def test_sparse_and_dense_files_give_identical_output(files, channel, argv):
    d, mixed = channel.dim, files["tmp"] / "mixed.json"
    mixed.write_text(json.dumps(state_to_json(np.eye(d) / d)))
    argv = [{"mixed": str(mixed), "d": str(d)}.get(a, a) for a in argv]
    outputs = []
    for obj in (channel_to_json(channel), dense_channel_json(channel)):
        path, out = files["tmp"] / "channel.json", files["tmp"] / "out.csv"
        path.write_text(json.dumps(obj))
        code = main([*argv, "--channel", str(path), "--out", str(out)])
        sidecar = out.with_suffix(".json")
        outputs.append((code, out.read_bytes(), sidecar.exists() and sidecar.read_bytes()))
    assert "sparse" in channel_to_json(channel)
    assert outputs[0] == outputs[1]


def test_classify_dimension_one_is_in_every_class(capsys):
    assert main(["classify", "--channel", "identity", "--dim", "1"]) == 0
    report = ClassificationReport.from_dict(json.loads(capsys.readouterr().out))
    assert set(report.verdicts.values()) == {"yes"}


def test_linalg_error_while_computing_is_domain_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["classify", "--channel", "identity", "--dim", "2"]) == 3
    assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_running_out_of_memory_while_loading_is_domain_error(files, monkeypatch, capsys):
    # The parser is replaced, so nothing is allocated for the declared d = 4096.
    path = files["tmp"] / "huge.json"
    path.write_text(json.dumps({"dim": 4096, "sparse": [[[0, 0, 1, 0]]]}))
    monkeypatch.setattr(cli, "channel_from_json", _out_of_memory)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--channel", str(path)])
    assert exc.value.code == 3
    assert capsys.readouterr().err == (
        f"error: out of memory in classify at d = 4096 loading {path}\n")


@pytest.mark.parametrize("command, function, extra", [
    ("classify", "classify", []),
    ("concentrate", "run_concentration_experiment", ["--samples", "4", "--seed", "1",
                                                     "--eps", "0.1"]),
])
def test_running_out_of_memory_while_computing_is_domain_error(monkeypatch, capsys, command,
                                                               function, extra):
    monkeypatch.setattr(cli, function, _out_of_memory)
    assert main([command, "--channel", "identity", "--dim", "3", *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory in {command} at d = 3\n"
    assert captured.out == ""


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


def test_evolve_out_colliding_with_its_sidecar_is_usage_error(files, capsys):
    # The sidecar goes to the --out path with the suffix .json, which is the
    # --out path itself here: the CSV would be overwritten.
    out = files["tmp"] / "traj.json"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--channel", str(files["gad"]), "--state", str(files["state"]),
              "--steps", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert f"cohbreak: error: --out {out}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command, extra", [
    ("classify", []),
    ("index", []),
    ("evolve", ["--steps", "2"]),
    ("concentrate", ["--samples", "10", "--seed", "1", "--eps", "0.1"]),
])
def test_dim_other_than_the_channel_files_is_usage_error(files, capsys, command, extra):
    argv = [command, "--channel", str(files["gad"]), *extra]
    if command == "evolve":
        argv += ["--state", str(files["state"])]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dim", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{files['gad']}: --dim 7 does not match" in err
    assert main(argv + ["--dim", "2", "--out", str(files["tmp"] / "out.txt")]) == 0


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


def test_concentrate_takes_no_tolerance():
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--dim", "4", "--samples", "8", "--seed", "1", "--eps", "0.1",
              "--tol", "1e-8"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, parameter", [
    (["--eps", "0.1", "--eta", "0"], "need a finite eta_channel > 0, got 0.0"),
    (["--eps", "0.1,-0.5"], "need a finite epsilon >= 0, got -0.5"),
    (["--eps", ","], "need at least one epsilon"),
], ids=["eta-zero", "eps-negative", "eps-empty"])
def test_a_real_out_of_range_is_a_usage_error_naming_the_parameter(capsys, flags, parameter):
    with pytest.raises(SystemExit) as exc:
        main(["concentrate", "--dim", "4", "--samples", "8", "--seed", "1", *flags])
    assert exc.value.code == 2
    assert parameter in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nope"])
    assert exc.value.code == 2


GOOD_KRAUS = dense_channel_json(dephasing_channel(2))


@pytest.mark.parametrize("flag, obj", [
    ("--channel", {**GOOD_KRAUS, "dim": None}),
    ("--channel", {**GOOD_KRAUS, "dim": [2]}),
    ("--channel", {"gad": {"p": None, "t": 0.5}}),
    ("--channel", {"kraus": 5}),
    ("--state", {"bloch": None}),
    ("--state", {"bloch": [0.1, 0.2]}),
    ("--state", {**state_to_json(np.eye(2) / 2), "dim": None}),
    ("--state", {"bloch": [float("nan"), 0.0, 0.0]}),
    ("--channel", {**GOOD_KRAUS, "dim": 2.0}),
    ("--channel", {**GOOD_KRAUS, "dim": "2"}),
    ("--state", {**state_to_json(np.eye(2) / 2), "dim": 2.0}),
    ("--state", {**state_to_json(np.eye(2) / 2), "dim": "2"}),
    *(("--channel", obj) for obj in MALFORMED_SPARSE.values()),
    *(("--channel", obj) for obj in STRING_NUMBERS.values()),
    ("--state", BLOCH_STRING),
    ("--channel", {"gad": {"p": True, "t": 0.5}}),
    ("--state", {"bloch": [0.3, 0.5, 0.2], **state_to_json(np.eye(2) / 2)}),
    ("--state", {"bloch": [0.3, 0.5, 0.2], "dim": 3}),
    ("--state", {"bloch": [0.3, 0.5, 0.2], "dim": "x"}),
], ids=["dim-null", "dim-list", "gad-p-null", "kraus-int",
        "bloch-null", "bloch-short", "matrix-dim-null", "bloch-nan",
        "dim-float", "dim-string", "matrix-dim-float", "matrix-dim-string",
        *(f"sparse-{name}" for name in MALFORMED_SPARSE), *STRING_NUMBERS, "bloch-string",
        "gad-p-true", "bloch-and-matrix", "bloch-dim-3", "bloch-dim-string"])
def test_malformed_input_file_is_usage_error_naming_it(files, capsys, flag, obj):
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(obj))
    inputs = {"--channel": str(files["gad"]), "--state": str(files["state"]), flag: str(path)}
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--channel", inputs["--channel"], "--state", inputs["--state"],
              "--steps", "2"])
    assert exc.value.code == 2
    assert f"cohbreak: error: {path}" in capsys.readouterr().err


def test_index_text_format_writes_out_file(files, capsys):
    out = files["tmp"] / "index.txt"
    assert main(["index", "--channel", str(files["example1"]), "--out", str(out)]) == 0
    assert out.read_text() == "2\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--format", "json"],
    ["evolve", "--state", "state", "--steps", "1", "--format", "csv"],
], ids=["classify", "evolve"])
def test_format_flag_is_usage_error_where_there_is_one_format(files, capsys, argv):
    argv = [str(files[a]) if a in files else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--channel", str(files["gad"])])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_unwritable_out_path_is_usage_error(files, capsys):
    out = files["tmp"] / "missing-dir" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--channel", "identity", "--dim", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"cannot write {out}" in capsys.readouterr().err


# --- fuzz: generated channel and state files through the whole CLI ----------

NUMBERS = st.one_of(
    st.floats(-2, 2),
    st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf, 10**400]),
    st.integers(-2, 5),
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), NUMBERS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6,
)
ENTRY = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JUNK)
INDEX = st.one_of(st.integers(-1, 4), JUNK)
SPARSE_ENTRY = st.one_of(st.tuples(INDEX, INDEX, NUMBERS, NUMBERS).map(list), JUNK)
DIM = st.one_of(st.integers(1, 4), JUNK)


@st.composite
def matrices(draw):
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(ENTRY, min_size=d, max_size=d), min_size=d, max_size=d))


@st.composite
def mutated(draw, base):
    """A copy of `base` with one value, at any depth, replaced by junk."""
    obj = copy.deepcopy(base)
    node = obj
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(st.one_of(JUNK, DIM))
        return obj


GOOD_CHANNELS = [
    channel_to_json(identity_channel(3)),
    channel_to_json(partial_dephasing_channel(4, 0.3)),
    dense_channel_json(partial_dephasing_channel(4, 0.3)),
    channel_to_json(cbc_from_povm(random_povm(3, 3, np.random.default_rng(2)))),
    channel_to_json(y_to_x_channel(0.5)),
    channel_to_json(rotated_dephasing_channel()),
    {"gad": {"p": 0.7, "t": 1.0}},
    {"affine": {"m": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.25]], "n": [0, 0, 0.1]}},
    {"povm": [complex_matrix_to_json(np.diag([1.0, 0.0])),
              complex_matrix_to_json(np.diag([0.0, 1.0]))]},
]
GOOD_STATES = [{"bloch": [0.3, 0.5, 0.2]}] + [
    state_to_json(np.full((d, d), 1.0 / d)) for d in (2, 3, 4)
]
# Good files are drawn often enough that every exit code shows up.
CHANNELS = st.sampled_from([
    *[st.sampled_from(GOOD_CHANNELS)] * 4,
    st.sampled_from(GOOD_CHANNELS).flatmap(mutated),
    st.fixed_dictionaries({"dim": DIM, "kraus": st.lists(matrices(), max_size=3)}),
    st.fixed_dictionaries({"dim": DIM, "sparse": st.lists(st.lists(SPARSE_ENTRY, max_size=5),
                                                          max_size=3)}),
    st.fixed_dictionaries({"affine": st.fixed_dictionaries({"m": JUNK, "n": JUNK})}),
    st.fixed_dictionaries({"gad": st.fixed_dictionaries({"p": NUMBERS, "t": JUNK})}),
    st.fixed_dictionaries({"povm": st.lists(matrices(), max_size=3)}),
    JUNK,
]).flatmap(lambda strategy: strategy)
STATES = st.sampled_from([
    *[st.sampled_from(GOOD_STATES)] * 3,
    st.sampled_from(GOOD_STATES).flatmap(mutated),
    st.fixed_dictionaries({"bloch": st.one_of(st.lists(NUMBERS, max_size=4), JUNK)}),
    st.fixed_dictionaries({"dim": DIM, "matrix": matrices()}),
    JUNK,
]).flatmap(lambda strategy: strategy)
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["classify", "index", "evolve"]),
       channel=CHANNELS, state=STATES)
def test_fuzzed_input_files_exit_cleanly(tmp_path_factory, command, channel, state):
    work = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--channel", str(work / "channel.json")]
    (work / "channel.json").write_text(json.dumps(channel))
    if command == "evolve":
        (work / "state.json").write_text(json.dumps(state))
        argv += ["--state", str(work / "state.json"), "--steps", "3"]
    elif command == "index":
        argv += ["--cap", "8"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert not NON_FINITE.search(out.getvalue())
