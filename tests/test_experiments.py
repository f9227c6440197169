"""Experiment harness and CLI: every verb on the H4 line, determinism, errors."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hcbmeasure.cli import main
from hcbmeasure.experiments import COMMANDS, cmd_decompose, config_from_dict, load_config

H4_LINE = {
    "system": {"shape": "line", "n_atoms": 4, "spacing": 1.5},
    "rotations": {"auto_graphs": 3, "random_count": 2},
    "repetitions": 5,
}

# sample_method only changes what `sample` measures, so the other verbs run once
RUNS = [(verb, "si") for verb in sorted(COMMANDS)] + [("sample", "protocol")]


def _run(out_dir, verb, method):
    config = config_from_dict(
        {**H4_LINE, "sample_method": method, "output_dir": str(out_dir)})
    payload = COMMANDS[verb](config)
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return payload, files


@pytest.fixture(scope="module")
def h4_runs(tmp_path_factory):
    """Every run twice, each into its own fresh directory."""
    runs = {}
    for verb, method in RUNS:
        runs[verb, method] = [
            _run(tmp_path_factory.mktemp(f"{verb}-{method}"), verb, method)
            for _ in range(2)
        ]
    return runs


@pytest.mark.parametrize("verb,method", RUNS)
def test_verb_outputs_are_byte_identical_across_runs(h4_runs, verb, method):
    (_, first), (_, second) = h4_runs[verb, method]
    assert first
    assert first == second


def test_h4_line_summaries(h4_runs):
    groups = h4_runs["groups", "si"][0][0]
    assert (groups["LF"], groups["RLF"], groups["SI"]) == (29, 19, 19)
    assert groups["protocol"] == 15

    decompose = h4_runs["decompose", "si"][0][0]
    assert decompose["n_steps"] == 5
    for record in decompose["records"]:
        assert record["cumulative"] + record["residual_expectation"] == \
            pytest.approx(decompose["exact_energy"], abs=1e-9)
        assert record["abs_error"] == abs(record["residual_expectation"])

    si = h4_runs["sample", "si"][0][0]
    protocol = h4_runs["sample", "protocol"][0][0]
    assert si["exact_reference"] == pytest.approx(si["exact_energy"], abs=1e-9)
    assert protocol["exact_reference"] == pytest.approx(
        decompose["records"][-1]["cumulative"], abs=1e-10)
    for payload in (si, protocol):
        assert payload["total_shots"] > 0
    _, files = h4_runs["sample", "protocol"][0]
    assert len(files["sample.csv"].splitlines()) == 1 + H4_LINE["repetitions"]


@pytest.mark.parametrize("method", ["si", "protocol"])
def test_infinite_shots_report_the_exact_reference(tmp_path, h4_runs, method):
    config = config_from_dict({**H4_LINE, "sample_method": method, "infinite_shots": True,
                               "output_dir": str(tmp_path)})
    payload = COMMANDS["sample"](config)
    exact = payload["exact_reference"]
    assert payload["total_shots"] == 0
    assert exact == h4_runs["sample", method][0][0]["exact_reference"]
    rows = (tmp_path / "sample.csv").read_text().splitlines()[1:]
    assert len(rows) == H4_LINE["repetitions"]
    for k, row in enumerate(rows):
        assert row == f"{k},{exact:.12e},{0.0:.12e}"
    assert payload["max_abs_error"] == 0.0
    assert payload["mean_energy"] == exact
    assert payload["error_of_mean"] == 0.0


def test_batch_decompose_defaults_to_the_available_matchings(tmp_path):
    """H4 has 3 perfect matchings, fewer than the default of 5 graphs."""
    config = config_from_dict({
        "system": {"n_atoms": 4},
        "batch": {"count": 2, "random_rotations": 1},
        "output_dir": str(tmp_path),
    })
    payload = cmd_decompose(config)
    assert payload["batch_count"] == 2
    rows = (tmp_path / "batch.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["4", "4"]


def test_batch_decompose_rejects_too_many_explicit_graphs(tmp_path):
    config = config_from_dict({
        "system": {"n_atoms": 4},
        "rotations": {"auto_graphs": 4},
        "batch": {"count": 1, "random_rotations": 0},
        "output_dir": str(tmp_path),
    })
    with pytest.raises(ValueError, match="only 3 exist"):
        cmd_decompose(config)


def _batch_rows(tmp_path, n_atoms, rotations=None, random_rotations=1):
    data = {
        "system": {"n_atoms": n_atoms},
        "batch": {"count": 1, "random_rotations": random_rotations},
        "output_dir": str(tmp_path),
    }
    if rotations is not None:
        data["rotations"] = rotations
    cmd_decompose(config_from_dict(data))
    return (tmp_path / "batch.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("rotations", [None, {"auto_graphs": 0}])
def test_batch_decompose_runs_odd_atom_counts_on_random_rotations(tmp_path, rotations):
    """H3 has no perfect matching, so only the random rotation runs."""
    rows = _batch_rows(tmp_path, 3, rotations)
    assert [row.split(",")[1] for row in rows] == ["1"]


def test_batch_decompose_keeps_an_explicit_zero_graph_count(tmp_path):
    rows = _batch_rows(tmp_path, 4, {"auto_graphs": 0}, random_rotations=2)
    assert [row.split(",")[1] for row in rows] == ["2"]


@pytest.mark.parametrize("n_atoms,rotations", [(3, None), (4, {"auto_graphs": 0})])
def test_batch_decompose_rejects_an_empty_rotation_set(tmp_path, n_atoms, rotations):
    with pytest.raises(ValueError, match="the rotation set is empty"):
        _batch_rows(tmp_path, n_atoms, rotations, random_rotations=0)


def test_batch_decompose_is_byte_identical_across_worker_counts(tmp_path):
    files = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        cmd_decompose(config_from_dict({
            "system": {"n_atoms": 4},
            "batch": {"count": 2, "random_rotations": 2},
            "workers": workers,
            "output_dir": str(out),
        }))
        files.append({name: (out / name).read_bytes()
                      for name in ("batch.csv", "batch_summary.json")})
    assert files[0] == files[1]


BATCH_H4 = {"system": {"n_atoms": 4}, "batch": {"count": 1, "seed": 5, "random_rotations": 1}}


def _batch_row(out_dir, data):
    cmd_decompose(config_from_dict({**data, "output_dir": str(out_dir)}))
    (row,) = (out_dir / "batch.csv").read_text().splitlines()[1:]
    return row


@pytest.mark.parametrize("fields", [
    {"system": {"n_atoms": 4, "orbital_mode": "hartree-fock"}},
    {"prune_threshold": 0.01},
    {"max_steps": 1},
    {"rotations": {"graphs": ["0-1,2-3"]}},
    {"scenario": "II", "ansatz": {"graphs": ["0-1,2-3"], "restarts": 1}},
], ids=["orbital_mode", "prune_threshold", "max_steps", "graphs", "scenario"])
def test_batch_job_is_the_single_run_of_its_seed(tmp_path, fields):
    """A batch row changes with the field and equals decompose on the same
    config placed on the seed's random geometry and rotations."""
    row = _batch_row(tmp_path / "batch", {**BATCH_H4, **fields})
    assert row != _batch_row(tmp_path / "plain", BATCH_H4)
    single = {**BATCH_H4, **fields}
    del single["batch"]
    single["system"] = {**single["system"], "shape": "random", "seed": 5}
    single["rotations"] = {**single.get("rotations", {}), "auto_graphs": 3,
                           "random_count": 1, "random_seed": 5000}
    payload = cmd_decompose(config_from_dict({**single, "output_dir": str(tmp_path / "one")}))
    assert row.split(",")[:4] == [
        "5", str(payload["n_steps"]), str(payload["best_step"]),
        "%.12e" % payload["best_abs_error"]]


@pytest.mark.parametrize("fields,name", [
    ({"system": {"n_atoms": 4, "seed": 1}}, "system.seed"),
    ({"rotations": {"random_count": 2}}, "rotations.random_count"),
    ({"rotations": {"auto_graphs": 1, "random_seed": 7}}, "rotations.random_seed"),
])
def test_batch_rejects_fields_it_sets_per_seed(tmp_path, fields, name):
    with pytest.raises(ValueError, match=f"batch mode sets {name} per seed"):
        _batch_row(tmp_path, {**BATCH_H4, **fields})


def test_yaml_exponent_without_point_is_a_float(tmp_path, capsys):
    """YAML 1.1 reads 1e-3 as a string; the float field still accepts it."""
    config = tmp_path / "eigen.yaml"
    config.write_text(f"epsilon: 1e-3\noutput_dir: {tmp_path / 'out'}\n")
    assert load_config(config).epsilon == 1e-3
    assert main(["eigen", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["n_qubits"] == 8


@pytest.mark.parametrize("key,value,expected", [
    ("repetitions", "5", "int"),
    ("repetitions", True, "int"),
    ("epsilon", "small", "float"),
])
def test_config_rejects_values_of_the_wrong_type(key, value, expected):
    with pytest.raises(ValueError, match=f"{key!r} has value {value!r}.*expected {expected}"):
        config_from_dict({key: value})


@pytest.mark.parametrize("key", ["epsilon", "prune_threshold"])
def test_config_rejects_nan_thresholds(key):
    with pytest.raises(ValueError, match=key):
        config_from_dict({key: "nan"})


@pytest.mark.parametrize("text", ["epsilon: .inf", "epsilon: inf", "epsilon: .nan"])
def test_config_rejects_a_non_finite_epsilon(tmp_path, text):
    config = tmp_path / "eps.yaml"
    config.write_text(text + "\n")
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        load_config(config)


@pytest.mark.parametrize("restarts", [0, -3])
def test_config_rejects_restarts_below_one(restarts):
    with pytest.raises(ValueError, match=f"ansatz.restarts must be >= 1, got {restarts}$"):
        config_from_dict({"scenario": "II",
                          "ansatz": {"graphs": ["0-1,2-3"], "restarts": restarts}})


def test_cli_zero_restarts_exits_1_with_error_json(tmp_path, capsys):
    config = tmp_path / "ii.yaml"
    config.write_text("scenario: II\nansatz: {graphs: ['0-1,2-3'], restarts: 0}\n")
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "ansatz.restarts must be >= 1, got 0"}


@pytest.mark.parametrize("args,start", [
    (["eigen", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["bogus"], "argument verb: invalid choice: 'bogus'"),
    (["eigen", "--ordering", "bogus"], "argument --ordering: invalid choice: 'bogus'"),
    (["eigen", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: verb"),
])
def test_cli_usage_errors_exit_1_with_error_json(tmp_path, capsys, args, start):
    """Argument errors take the error-JSON path of every other bad input."""
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert set(error) == {"error", "message"}
    assert error["error"] == "ValueError"
    assert error["message"].startswith(start)
    assert not (tmp_path / "out").exists()


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: hcbmeasure")
    assert captured.err == ""


@pytest.mark.parametrize("data,message", [
    ({"rotations": {"graphs": ["0-1,2-3"], "auto_graphs": -4}},
     "rotations.auto_graphs must be >= 0, got -4"),
    ({"rotations": {"graphs": ["0-1,2-3"], "random_count": -2}},
     "rotations.random_count must be >= 0, got -2"),
    ({"rotations": {"random_seed": -1}}, "rotations.random_seed must be >= 0, got -1"),
    ({"batch": {"count": 0}}, "batch.count must be >= 1, got 0"),
    ({"batch": {"seed": -5}}, "batch.seed must be >= 0, got -5"),
    ({"batch": {"random_rotations": -1}}, "batch.random_rotations must be >= 0, got -1"),
    ({"seed": -3}, "seed must be >= 0, got -3"),
    ({"system": {"seed": -1}}, "system.seed must be >= 0, got -1"),
    ({"scenario": "II", "ansatz": {"graphs": ["0-1,2-3"], "seed": -2}},
     "ansatz.seed must be >= 0, got -2"),
    ({"system": {"spacing": float("nan")}}, "system.spacing must be finite and positive, got nan"),
    ({"system": {"spacing": "inf"}}, "system.spacing must be finite and positive, got inf"),
    ({"system": {"spacing": 0}}, "system.spacing must be finite and positive, got 0.0"),
])
def test_config_rejects_out_of_range_counts_seeds_and_spacings(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


@pytest.mark.parametrize("text,args,message", [
    ("", ["--seed", "-3"], "seed must be >= 0, got -3"),
    ("system: {spacing: .nan}\n", [], "system.spacing must be finite and positive, got nan"),
    ("rotations: {graphs: ['0-1,2-3'], auto_graphs: -4, random_count: -2}\n", [],
     "rotations.auto_graphs must be >= 0, got -4"),
    ("batch: {count: 0}\n", [], "batch.count must be >= 1, got 0"),
])
def test_cli_out_of_range_values_exit_1_with_error_json(tmp_path, capsys, text, args, message):
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    verb = "decompose" if "batch" in text else "groups"
    assert main([verb, "--config", str(config), "--out", str(tmp_path / "out"), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


# depth.csv of the H4 and H6 lines under three ranked graphs and two random
# rotations, both orderings: the circuit builders and the ladder layout
PINNED_DEPTH_CSV = {
    4: """rotation,ordering,total_depth,two_qubit_depth
R[0-1,2-3],interleaved,6,6
R[0-1,2-3],reordered,1,1
R[0-2,1-3],interleaved,28,28
R[0-2,1-3],reordered,6,6
R[0-3,1-2],interleaved,28,28
R[0-3,1-2],reordered,6,6
random[0],interleaved,64,64
random[0],reordered,15,14
random[1],interleaved,64,64
random[1],reordered,15,14
""",
    6: """rotation,ordering,total_depth,two_qubit_depth
R[0-1,2-3,4-5],interleaved,6,6
R[0-1,2-3,4-5],reordered,1,1
R[0-1,2-4,3-5],interleaved,28,28
R[0-1,2-4,3-5],reordered,6,6
R[0-1,2-5,3-4],interleaved,28,28
R[0-1,2-5,3-4],reordered,6,6
random[0],interleaved,242,242
random[0],reordered,56,55
random[1],interleaved,242,242
random[1],reordered,55,55
""",
}


@pytest.mark.parametrize("n_atoms", sorted(PINNED_DEPTH_CSV))
def test_depth_table_is_pinned(tmp_path, n_atoms):
    config = config_from_dict({**H4_LINE, "output_dir": str(tmp_path),
                               "system": {**H4_LINE["system"], "n_atoms": n_atoms}})
    COMMANDS["depth"](config)
    assert (tmp_path / "depth.csv").read_text() == PINNED_DEPTH_CSV[n_atoms]


def test_config_checks_section_values(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("rotations: {graphs: '0-1,2-3'}\n")
    assert main(["depth", "--config", str(config)]) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "'rotations.graphs'" in message and "list of str" in message
    with pytest.raises(ValueError, match="'system.n_atoms'.*expected int"):
        config_from_dict({"system": {"n_atoms": 4.0}})


def test_cli_prints_summary_and_exits_0(tmp_path, capsys):
    config = tmp_path / "depth.yaml"
    config.write_text("rotations: {graphs: ['0-1,2-3']}\n")
    assert main(["depth", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rotations"][0]["rotation"]
    assert (tmp_path / "out" / "depth.csv").exists()


def test_cli_bad_config_key_exits_1_with_error_json(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("bogus_key: 1\n")
    assert main(["eigen", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert set(error) == {"error", "message"}
    assert error["error"] == "ValueError"
    assert "bogus_key" in error["message"]


def test_scenario_two_rejects_an_ansatz_of_another_electron_count(tmp_path):
    """One edge prepares 2 electrons; the H4 line has 4."""
    config = config_from_dict({
        "system": {"n_atoms": 4},
        "scenario": "II",
        "ansatz": {"graphs": ["0-1"], "restarts": 1},
        "rotations": {"graphs": ["0-1,2-3"]},
        "output_dir": str(tmp_path),
    })
    with pytest.raises(ValueError, match="prepares 2 electrons .*the system has 4"):
        cmd_decompose(config)


def _cli(tmp_path, capsys, verb, text):
    """Run one verb on a YAML config through the CLI; (exit code, stdout JSON or stderr JSON)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / f"{verb}.yaml"
    config.write_text(text)
    code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
    captured = capsys.readouterr()
    return code, json.loads(captured.out if code == 0 else captured.err)


@pytest.mark.parametrize("verb", ["decompose", "groups", "shots", "depth"])
def test_rotation_verbs_run_under_the_default_config(tmp_path, capsys, verb):
    """With no rotations section, the H4 line takes its 3 ranked matchings."""
    code, payload = _cli(tmp_path, capsys, verb, "{}\n")
    assert code == 0
    if verb == "depth":
        assert len(payload["rotations"]) == 3
    elif verb != "shots":
        assert payload["n_steps"] == 3


def test_default_rotation_set_yields_to_explicit_values(tmp_path, capsys):
    code, payload = _cli(tmp_path, capsys, "groups",
                         "rotations: {graphs: ['0-1,2-3']}\n")
    assert (code, payload["n_steps"]) == (0, 1)
    code, error = _cli(tmp_path, capsys, "groups", "rotations: {auto_graphs: 0}\n")
    assert code == 1 and "the rotation set is empty" in error["message"]


def test_fcidump_system_keeps_the_empty_rotation_set_error(tmp_path, capsys):
    fcidump = Path(__file__).parent / "data" / "h4_line_1p5_external.fcidump"
    code, error = _cli(tmp_path, capsys, "depth", f"system: {{fcidump: {fcidump}}}\n")
    assert code == 1 and "the rotation set is empty" in error["message"]


def test_eigen_rejects_a_non_finite_fcidump_integral(tmp_path, capsys):
    source = Path(__file__).parent / "data" / "h4_line_1p5_external.fcidump"
    lines = source.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.split()[-4:] == ["2", "2", "1", "1"])
    lines[first] = " nan   2   2   1   1\n"
    fcidump = tmp_path / "nan.fcidump"
    fcidump.write_text("".join(lines))
    code, error = _cli(tmp_path, capsys, "eigen", f"system: {{fcidump: {fcidump}}}\n")
    assert code == 1
    assert error == {"error": "ValueError", "message": "two_body must be finite"}


REORDERED_H4 = """\
system: {shape: line, n_atoms: 4, spacing: 1.5}
rotations: {auto_graphs: 3}
ordering: reordered
"""


def test_reordered_layout_reaches_every_ground_state_caller(tmp_path, capsys):
    """eigen and decompose in Scenario I and decompose in Scenario II all
    solve the ground state in the reordered layout."""
    code, reordered = _cli(tmp_path / "reordered", capsys, "eigen", REORDERED_H4)
    assert code == 0
    code, interleaved = _cli(tmp_path / "interleaved", capsys, "eigen",
                             REORDERED_H4.replace("reordered", "interleaved"))
    assert code == 0
    assert reordered["ordering"] == "reordered"
    assert abs(reordered["ground_energy"] - interleaved["ground_energy"]) < 1e-10
    code, payload = _cli(tmp_path / "one", capsys, "decompose", REORDERED_H4)
    assert code == 0
    assert payload["exact_energy"] == reordered["ground_energy"]
    code, payload = _cli(tmp_path / "two", capsys, "decompose", REORDERED_H4 + (
        "scenario: II\nansatz: {graphs: ['0-1,2-3'], restarts: 1}\n"))
    assert code == 0
    assert payload["exact_energy"] == reordered["ground_energy"]
    assert payload["state_energy"] >= payload["exact_energy"]


# decompose's records on the H4 line (both orderings) and on H4 Scenario II,
# taken from the Pauli-evaluated protocol: the behaviour gate of the protocol
PROTOCOL_PINS = json.loads(
    (Path(__file__).parent / "data" / "protocol_pins.json").read_text())


@pytest.mark.parametrize("case", sorted(PROTOCOL_PINS))
def test_decompose_records_are_pinned(tmp_path, case):
    pin = PROTOCOL_PINS[case]
    payload = cmd_decompose(config_from_dict({**pin["config"], "output_dir": str(tmp_path)}))
    assert payload["best_step"] == pin["best_step"]
    got, want = payload["records"], pin["records"]
    assert [(r["step"], r["rotation"]) for r in got] == \
        [(r["step"], r["rotation"]) for r in want]
    for r, w in zip(got, want):
        values = [*r["contributions"], r["cumulative"], r["residual_expectation"],
                  r["abs_error"]]
        pinned = [*w["contributions"], w["cumulative"], w["residual_expectation"],
                  w["abs_error"]]
        assert np.max(np.abs(np.subtract(values, pinned))) <= 1e-12
    rows = (tmp_path / "error_curve.csv").read_text().splitlines()[1:]
    assert len(rows) == len(want)
    for row, w in zip(rows, want):
        assert row.startswith(f"{w['step']},{w['rotation']},")
