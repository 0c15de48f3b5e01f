import json

import pytest

from sprinkle import path_graph, read_edge_list, two_cliques, write_edge_list
from sprinkle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(
        capsys, "generate", "family=two_cliques", "n=10", "--out", str(out)
    )
    assert code == 0
    assert read_edge_list(out) == two_cliques(10)


def test_generate_seeded_family_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "generate", "family=gnm", "n=15", "M=30", "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_generate_unknown_family_fails(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "family=zoo", "--out", str(tmp_path / "x")])


def test_augment_roundtrip(tmp_path, capsys):
    src = tmp_path / "g.txt"
    write_edge_list(two_cliques(8), src)
    dst = tmp_path / "aug.txt"
    added = tmp_path / "added.txt"
    code, _, _ = run_cli(
        capsys,
        "augment", "--model", "uniform", "--m", "3", "--seed", "2",
        "--in", str(src), "--out", str(dst), "--added-out", str(added),
    )
    assert code == 0
    g = read_edge_list(dst)
    assert g.edge_count == two_cliques(8).edge_count + 3
    assert len(added.read_text().splitlines()) == 3


def test_augment_infeasible_m_is_an_error(tmp_path, capsys):
    src = tmp_path / "k3.txt"
    write_edge_list(two_cliques(8), src)
    code, _, err = run_cli(
        capsys, "augment", "--model", "uniform", "--m", "100", "--in", str(src)
    )
    assert code == 2
    assert "non-edges" in err


def test_check_properties(tmp_path, capsys):
    src = tmp_path / "g.txt"
    write_edge_list(two_cliques(8), src)
    code, out, _ = run_cli(capsys, "check", "--property", "diam", str(src))
    assert code == 0
    assert json.loads(out)["value"] == "infinite"

    code, out, _ = run_cli(capsys, "check", "--property", "clique:4", str(src))
    doc = json.loads(out)
    assert code == 0 and doc["holds"] and len(doc["witness"]) == 4

    code, out, _ = run_cli(capsys, "check", "--property", "kconn:1", str(src))
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is False and doc["witness"] == []

    code, out, _ = run_cli(capsys, "check", "--property", "kappa", str(src))
    assert json.loads(out)["value"] == 0

    code, out, _ = run_cli(capsys, "check", "--property", "chi", str(src))
    doc = json.loads(out)
    assert doc["value"] == 4
    colors = doc["witness"]
    g = two_cliques(8)
    assert all(colors[u] != colors[v] for u, v in g.edges())

    code, out, _ = run_cli(capsys, "check", "--property", "density", str(src))
    assert json.loads(out)["value"] == "3/2"

    code, out, _ = run_cli(capsys, "check", "--property", "cliquecount:3", str(src))
    assert json.loads(out)["value"] == 8


def test_check_diameter_bound(tmp_path, capsys):
    src = tmp_path / "p4.txt"
    write_edge_list(path_graph(4), src)
    code, out, _ = run_cli(capsys, "check", "--property", "diam:2", str(src))
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is False and doc["witness"] == [0, 3]
    assert "value" not in doc
    code, out, _ = run_cli(capsys, "check", "--property", "diam:3", str(src))
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is True and doc["witness"] is None
    code, out, _ = run_cli(capsys, "check", "--property", "diam", str(src))
    assert code == 0 and json.loads(out)["value"] == 3
    code, _, err = run_cli(capsys, "check", "--property", "diam:-1", str(src))
    assert code == 2 and "nonnegative" in err


@pytest.mark.parametrize("spec", ["kappa:9", "chi:3", "omega:2", "density:1"])
def test_check_rejects_an_argument_to_a_plain_property(tmp_path, capsys, spec):
    src = tmp_path / "p4.txt"
    write_edge_list(path_graph(4), src)
    with pytest.raises(SystemExit, match="takes no argument"):
        main(["check", "--property", spec, str(src)])


def test_check_unknown_property(tmp_path, capsys):
    src = tmp_path / "g.txt"
    write_edge_list(two_cliques(4), src)
    with pytest.raises(SystemExit):
        main(["check", "--property", "girth", str(src)])


def test_partition_json(tmp_path, capsys):
    src = tmp_path / "g.txt"
    write_edge_list(two_cliques(16), src)
    code, out, _ = run_cli(capsys, "partition", "--k", "7", str(src))
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 2
    assert sorted(v for part in doc["parts"] for v in part) == list(range(16))


def test_regcheck_json(tmp_path, capsys):
    src = tmp_path / "g.txt"
    write_edge_list(two_cliques(8).with_edges([(0, 4), (1, 5), (2, 6)]), src)
    code, out, _ = run_cli(
        capsys,
        "regcheck", "--A", "0,1,2,3", "--B", "4,5,6,7",
        "--eps", "3/4", "--delta", "1/8", "--k", "2", str(src),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["density"] == "3/16"
    assert doc["is_regular"] is True


def test_sweep_csv_and_seed_override(tmp_path, capsys):
    cfg = {
        "generator": {"name": "two_cliques", "params": {"n": 10}},
        "model": "uniform",
        "grid": [0, 2, 5],
        "trials": 10,
        "property": {"name": "connected", "params": {}},
        "master_seed": {"seed": 1, "stream_id": 0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    assert out.splitlines()[0] == "m,trials,successes,p_hat,ci_lo,ci_hi"
    code, out2, _ = run_cli(capsys, "sweep", "--config", str(path), "--seed", "99")
    assert code == 0
    assert out2.splitlines()[0] == out.splitlines()[0]


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "uniform", "oops": 1}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("field, value", [
    ("generator", "two_cliques"),
    ("property", "connected"),
    ("master_seed", {"stream_id": 3}),
    ("master_seed", {"seed": 1.9, "stream_id": True}),
    ("master_seed", {"seed": 1, "stream_id": 0.5}),
    ("master_seed", 1.5),
    ("master_seed", True),
    ("master_seed", "1"),
    ("generator", {"name": "two_cliques", "params": {"n": 12.7}}),
    ("generator", {"name": "disjoint_cliques", "params": {"n": 12, "clique_size": "3"}}),
    ("property", {"name": "k_connected", "params": {"k": True}}),
    ("property", {"name": "diameter_le", "params": {"t": 2.0}}),
])
def test_sweep_rejects_malformed_field(tmp_path, capsys, field, value):
    cfg = {
        "generator": {"name": "two_cliques", "params": {"n": 10}},
        "model": "uniform",
        "grid": [0, 2],
        "trials": 2,
        "property": {"name": "connected", "params": {}},
        "master_seed": {"seed": 1, "stream_id": 0},
        field: value,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2 and out == "" and err.startswith("error:") and field in err


def test_preset_emit_and_run(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "preset", "--name", "thm6", "--n", "36", "d=0.25", "k=3")
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"]["name"] == "disjoint_cliques"

    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys,
        "preset", "--name", "thm6", "--n", "36", "d=0.25", "k=3",
        "trials=5", "--run", "--csv", str(csv_path), "--seed", "3",
    )
    assert code == 0
    assert csv_path.read_text().startswith("m,trials,successes")


def test_preset_bound_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "preset", "--name", "thm6", "--n", "60", "d=0.2", "k=4",
        "samples=5", "--bound-check", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_preset_rejects_unknown_params(capsys):
    code, out, err = run_cli(capsys, "preset", "--name", "thm6", "--n", "36",
                             "d=0.25", "k=3", "trails=5", "--run")
    assert code == 2 and out == "" and "['trails']" in err
    # samples belongs to --bound-check only
    code, _, err = run_cli(capsys, "preset", "--name", "thm6", "--n", "36",
                           "d=0.25", "k=3", "samples=5")
    assert code == 2 and "['samples']" in err


@pytest.mark.parametrize("params, key", [
    (["master_seed=1.5"], "seed"),
    (["trials=2.7"], "trials"),
    (["trials=true"], "trials"),
])
def test_preset_rejects_non_integer_params(capsys, params, key):
    code, out, err = run_cli(capsys, "preset", "--name", "thm5", "--n", "60", *params)
    assert code == 2 and out == "" and err.startswith("error:") and key in err


def test_preset_bound_check_rejects_non_integer_samples(capsys):
    code, out, err = run_cli(capsys, "preset", "--name", "thm6", "--n", "60", "d=0.2",
                             "k=4", "samples=2.5", "--bound-check")
    assert code == 2 and out == "" and err.startswith("error:") and "samples" in err


@pytest.mark.parametrize("argv, named", [
    (["preset", "--name", "thm5", "--n", "3"], "n >= 4"),  # two_cliques(3) has density 0
    (["preset", "--name", "thm6", "--n", "36", "d=[1]", "k=3"], "[1]"),
    (["preset", "--name", "thm6", "--n", "36", "d=1/0", "k=3"], "'1/0'"),
    (["generate", "family=blocked_gnp", "n=20", "d=null"], "None"),
    (["generate", "family=complete_multipartite", "parts=[2.5,true]"], "[2.5, True]"),
    (["generate", "family=complete_multipartite", "parts=5"], "got 5"),
])
def test_bad_density_or_size_exits_2_naming_it(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and named in err


def test_exit_code_nonzero_on_bad_input(tmp_path, capsys):
    missing = tmp_path / "none.txt"
    code, _, err = run_cli(capsys, "check", "--property", "diam", str(missing))
    assert code == 2 and err.startswith("error:")
