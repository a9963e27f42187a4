import json

import numpy as np
import pytest

from lppart.cli import run
from lppart.graph import thread_count


def _read(path):
    return path.read_text(encoding="utf-8")


def test_gen_partition_metrics_happy_path(tmp_path):
    graph = tmp_path / "g.tsv"
    parts = tmp_path / "p.tsv"
    manifest = tmp_path / "m.json"
    report = tmp_path / "r.json"
    assert run(["gen", "--model", "planted_partition(2,50,1.0,0.0)", "--seed", "42",
                "--out", str(graph)]) == 0
    assert run(["partition", "--input", str(graph), "--k", "2", "--seed", "42",
                "--out", str(parts), "--manifest", str(manifest)]) == 0
    assert run(["metrics", "--input", str(graph), "--parts", str(parts),
                "--json", str(report)]) == 0
    scored = json.loads(_read(report))
    assert scored["edge_cut_ratio"] == 0.0  # two disconnected cliques split cleanly
    assert scored["per_part_nodes"] == [50, 50]
    manifest_data = json.loads(_read(manifest))
    assert manifest_data["config"]["p_ratio"] == 0.5
    assert manifest_data["config"]["p_bound"] == 0.1
    assert manifest_data["config"]["t_iterations"] == 2
    assert manifest_data["config"]["outer_t"] == 2
    assert manifest_data["config"]["k"] == 2
    assert set(manifest_data["timings_ms"]) == {"load_ms", "label_prop_ms", "coarsen_ms",
                                                "kway_ms", "write_ms"}


def test_partition_runs_are_byte_identical(tmp_path):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "random_weighted(300,1500,0.1,1.0)", "--seed", "7",
         "--out", str(graph)])
    outs = []
    for name, threads in (("a.tsv", "1"), ("b.tsv", "1"), ("c.tsv", "8")):
        out = tmp_path / name
        assert run(["partition", "--input", str(graph), "--k", "4", "--seed", "5",
                    "--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_are_rejected(tmp_path, capsys, threads):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "ring(6)", "--out", str(graph)])
    assert run(["partition", "--input", str(graph), "--k", "2", "--threads", threads,
                "--out", str(tmp_path / "p.tsv")]) == 1
    assert f"error: thread count must be at least 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


def test_manifest_records_the_threads_used(tmp_path):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "ring(6)", "--out", str(graph)])
    for argv, want in (([], thread_count()), (["--threads", "3"], 3)):
        manifest = tmp_path / "m.json"
        assert run(["partition", "--input", str(graph), "--k", "2", "--out",
                    str(tmp_path / "p.tsv"), "--manifest", str(manifest)] + argv) == 0
        assert json.loads(_read(manifest))["threads"] == want


def test_metrics_on_single_part_assignment(tmp_path):
    graph = tmp_path / "g.tsv"
    parts = tmp_path / "p.tsv"
    report = tmp_path / "r.json"
    run(["gen", "--model", "ring(6)", "--out", str(graph)])
    parts.write_text("".join(f"{i}\t0\n" for i in range(6)))
    assert run(["metrics", "--input", str(graph), "--parts", str(parts),
                "--json", str(report)]) == 0
    assert json.loads(_read(report))["edge_cut_ratio"] == 0.0


def test_coarsen_subcommand_writes_both_files(tmp_path):
    graph = tmp_path / "g.tsv"
    parts = tmp_path / "p.tsv"
    out = tmp_path / "coarse.tsv"
    graph.write_text("0\t1\t1.0\n1\t2\t0.3\n0\t2\t0.4\n2\t3\t1.0\n")
    parts.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
    assert run(["coarsen", "--input", str(graph), "--parts", str(parts),
                "--mode", "node", "--out", str(out)]) == 0
    assert _read(out) == "0\t1\t0.7\n"
    values = _read(tmp_path / "coarse.tsv.values").strip().split("\n")
    assert values[0].split("\t")[:2] == ["0", "2"]


def test_refine_and_pagerank_subcommands(tmp_path):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "random_weighted(40,120,0.1,1.0)", "--seed", "3",
         "--out", str(graph)])
    scores = tmp_path / "pr.tsv"
    assert run(["pagerank", "--input", str(graph), "--out", str(scores)]) == 0
    values = [float(line.split("\t")[1]) for line in _read(scores).strip().split("\n")]
    assert sum(values) == pytest.approx(1.0, abs=1e-9)
    refined = tmp_path / "refined.tsv"
    assert run(["refine", "--input", str(graph), "--fraction", "0.1",
                "--mode", "nodes", "--out", str(refined)]) == 0
    kept_ids = set()
    for line in _read(refined).strip().split("\n"):
        a, b, _ = line.split("\t")
        kept_ids.update((int(a), int(b)))
    assert len(kept_ids) <= 40 - 4  # ceil(0.1 * 40) removed


def test_sample_subcommand_prints_ids(tmp_path, capsys):
    parts = tmp_path / "p.tsv"
    parts.write_text("".join(f"{i}\t{i % 50}\n" for i in range(100)))
    assert run(["sample", "--parts", str(parts), "--ratio", "0.1", "--seed", "42"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 5
    assert len(set(out)) == 5
    assert all(0 <= int(x) < 50 for x in out)


def test_features_aggregate_and_concat(tmp_path):
    feats = tmp_path / "f.tsv"
    parts = tmp_path / "p.tsv"
    feats.write_text("#dim 2\n0\t1.0\t2.0\n1\t3.0\t4.0\n2\t5.0\t6.0\n")
    parts.write_text("0\t0\n1\t0\n2\t1\n")
    agg = tmp_path / "agg.tsv"
    assert run(["features", "aggregate", "--features", str(feats), "--parts", str(parts),
                "--out", str(agg)]) == 0
    lines = _read(agg).strip().split("\n")
    assert lines[0] == "#dim 2"
    assert lines[1].split("\t") == ["0", "2.0", "3.0"]
    joined = tmp_path / "joined.tsv"
    assert run(["features", "concat", "--features", str(feats), "--global", str(agg),
                "--parts", str(parts), "--out", str(joined)]) == 0
    rows = _read(joined).strip().split("\n")
    assert rows[0] == "#dim 4"
    assert rows[1].split("\t") == ["0", "1.0", "2.0", "2.0", "3.0"]


def test_exit_codes():
    assert run(["partition", "--input", "/nonexistent/g.tsv", "--k", "2",
                "--out", "/tmp/x.tsv"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["--help"]) == 0
    assert run(["partition", "--help"]) == 0


def test_infeasible_k_exit_code(tmp_path):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "ring(5)", "--out", str(graph)])
    assert run(["partition", "--input", str(graph), "--k", "50",
                "--out", str(tmp_path / "p.tsv")]) == 2


def test_malformed_input_exit_code(tmp_path):
    graph = tmp_path / "bad.tsv"
    graph.write_text("1\t2\n1\tnot_a_number\textra\tfields\n")
    assert run(["partition", "--input", str(graph), "--k", "1",
                "--out", str(tmp_path / "p.tsv")]) == 1


def test_node_id_outside_int64_is_a_format_error(tmp_path, capsys):
    graph = tmp_path / "big.tsv"
    graph.write_text("9223372036854775808\t1\t1.0\n")
    assert run(["partition", "--input", str(graph), "--k", "1",
                "--out", str(tmp_path / "p.tsv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err
    assert "Traceback" not in err


def test_help_lists_flags_with_defaults(capsys):
    from lppart.cli import _build_parser
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["partition", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag, default in [("--p-ratio", "0.5"), ("--p-bound", "0.1"), ("--t", "2"),
                          ("--outer-t", "2"), ("--epsilon", "0.1"), ("--seed", "42"),
                          ("--min-subgraph-warn", "30000")]:
        assert flag in text
        assert default in text


def test_gen_reproducible_outputs(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    for out in (a, b):
        assert run(["gen", "--model", "random_weighted(50,200,0.5,2.0)", "--seed", "9",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_stable_except_timestamps(tmp_path):
    graph = tmp_path / "g.tsv"
    run(["gen", "--model", "random_weighted(100,400,0.1,1.0)", "--seed", "2",
         "--out", str(graph)])
    manifests = []
    for rep in ("m1", "m2"):
        path = tmp_path / f"{rep}.json"
        assert run(["partition", "--input", str(graph), "--k", "3", "--seed", "2",
                    "--out", str(tmp_path / f"{rep}.tsv"), "--manifest", str(path)]) == 0
        manifests.append(json.loads(path.read_text()))
    for m in manifests:
        m.pop("created_utc")
        m.pop("timings_ms")
    assert manifests[0] == manifests[1]


# non-contiguous external ids, listed out of numeric order
_SPARSE_GRAPH = ("100\t7\t0.5\n7\t42\t1.5\n42\t9\t0.25\n9\t55\t2.0\n"
                 "55\t100\t1.0\n100\t42\t0.75\n")


def test_refine_and_pagerank_keep_external_ids(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text(_SPARSE_GRAPH)
    outputs = {}
    for mode in ("nodes", "edges"):
        out = tmp_path / f"refined-{mode}.tsv"
        assert run(["refine", "--input", str(graph), "--fraction", "0.2", "--mode", mode,
                    "--out", str(out)]) == 0
        outputs[mode] = _read(out)
    scores = tmp_path / "pr.tsv"
    assert run(["pagerank", "--input", str(graph), "--out", str(scores)]) == 0
    outputs["pagerank"] = _read(scores)
    assert outputs == {
        "nodes": "100\t42\t0.75\n100\t55\t1.0\n42\t9\t0.25\n9\t55\t2.0\n",
        "edges": "100\t42\t0.75\n100\t55\t1.0\n7\t42\t1.5\n9\t55\t2.0\n",
        "pagerank": ("100\t0.24369645043170976\n7\t0.1680946552383403\n"
                     "42\t0.24369645043170976\n9\t0.17225622194911996\n"
                     "55\t0.17225622194911996\n"),
    }


@pytest.mark.parametrize("text, line", [
    ("0\t1.0\t2.0\n1\t3.0\n", "line 2"),            # ragged rows, no #dim header
    ("#dim x\n0\t1.0\n", "line 1"),                # header width is not an integer
])
def test_features_malformed_table_names_the_line(tmp_path, capsys, text, line):
    feats = tmp_path / "f.tsv"
    parts = tmp_path / "p.tsv"
    feats.write_text(text)
    parts.write_text("0\t0\n1\t0\n")
    assert run(["features", "aggregate", "--features", str(feats), "--parts", str(parts),
                "--out", str(tmp_path / "agg.tsv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and line in err


@pytest.mark.parametrize("text, message", [
    (f"0\t1.0\n{2**63}\t2.0\n",
     f"error: line 2: node id {2**63} is outside the signed 64-bit range\n"),
    ("0\t1.0\n1\t2.0\n0\t3.0\n", "error: line 3: repeated node id 0\n"),
], ids=["id 2**63", "repeated id"])
def test_features_bad_node_id_names_the_line(tmp_path, capsys, text, message):
    feats = tmp_path / "f.tsv"
    parts = tmp_path / "p.tsv"
    feats.write_text(text)
    parts.write_text("0\t0\n1\t0\n")
    assert run(["features", "aggregate", "--features", str(feats), "--parts", str(parts),
                "--out", str(tmp_path / "agg.tsv")]) == 1
    assert capsys.readouterr().err == message


def test_sample_malformed_line_is_named(tmp_path, capsys):
    parts = tmp_path / "p.tsv"
    parts.write_text("1\t0\nx\t1\n")
    assert run(["sample", "--parts", str(parts)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_sample_repeated_id_keeps_its_last_part(tmp_path, capsys):
    parts = tmp_path / "p.tsv"
    parts.write_text("0\t0\n1\t0\n1\t5\n")
    assert run(["sample", "--parts", str(parts), "--ratio", "1.0"]) == 0
    assert capsys.readouterr().out.split() == [str(i) for i in range(6)]


@pytest.mark.parametrize("command", ["sample", "metrics"])
@pytest.mark.parametrize("text, name", [
    ("0\t9223372036854775808\n", "part"),
    ("-9223372036854775809\t0\n", "node"),
])
def test_partition_file_id_outside_int64_is_named(tmp_path, capsys, command, text, name):
    graph = tmp_path / "g.tsv"
    parts = tmp_path / "p.tsv"
    graph.write_text("0\t1\t1.0\n")
    parts.write_text("1\t0\n" + text)
    argv = {"sample": ["sample", "--parts", str(parts)],
            "metrics": ["metrics", "--input", str(graph), "--parts", str(parts),
                        "--json", str(tmp_path / "r.json")]}[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: line 2: {name} id" in err and "outside the signed 64-bit range" in err
    assert "Traceback" not in err


def test_metrics_names_the_line_of_an_unknown_node_id(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    parts = tmp_path / "p.tsv"
    graph.write_text("0\t1\t1.0\n")
    parts.write_text("0\t0\n1\t0\n5\t1\n")
    assert run(["metrics", "--input", str(graph), "--parts", str(parts),
                "--json", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: line 3: unknown node id 5\n"
