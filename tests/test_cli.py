"""The command-line interface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json

import pytest

from classgraph import cli
from classgraph.cli import main
from classgraph.construct import atlas_group
from classgraph.graph import build_graph
from classgraph.verify import verify_pair


def test_atlas_list(capsys):
    assert main(["atlas", "--list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 20
    assert "GammaL(1,8)" in out


def test_atlas_emit_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["atlas", "--emit", str(out)]) == 0
    files = sorted(out.glob("*.jsonl"))
    assert len(files) >= 20
    capsys.readouterr()
    # re-verify two small emitted groups from their corpus files
    small = [f for f in files if f.name.startswith(("Sigma3", "D10"))]
    assert len(small) == 2
    combined = tmp_path / "two.jsonl"
    combined.write_text("".join(f.read_text() for f in small))
    code = main(["verify", "--corpus", str(combined), "--primes", "5"])
    assert code == 0


def test_analyze_json(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code = main(["analyze", "--group", "atlas:C7:C6", "--prime", "2",
                 "--json", "--dot", str(dot)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["shape"] == "b"
    assert doc["graph"]["vertex_sizes"] == [6, 7, 7]
    text = dot.read_text()
    assert text.startswith("graph gamma {")
    assert '"v7_1" -- "v7_2";' in text


def test_analyze_json_bytes_equal_the_standard_writer(capsys):
    assert main(["analyze", "--group", "atlas:E25:Sigma3", "--prime", "5", "--json"]) == 0
    report = verify_pair(atlas_group("E25:Sigma3"), 5)
    assert capsys.readouterr().out == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_analyze_group_from_file(tmp_path, capsys):
    corpus = tmp_path / "one.jsonl"
    corpus.write_text('{"name":"D10","degree":5,'
                      '"generators":["(1,2,3,4,5)","(2,5)(3,4)"]}\n')
    assert main(["analyze", "--group", str(corpus), "--prime", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 10
    assert doc["graph"]["shape"] == "b"


def test_analyze_rejects_multi_record_file(tmp_path, capsys):
    corpus = tmp_path / "two.jsonl"
    corpus.write_text('{"name":"A","degree":2,"generators":["(1,2)"]}\n'
                      '{"name":"B","degree":3,"generators":["(1,2,3)"]}\n')
    assert main(["analyze", "--group", str(corpus), "--prime", "2"]) == 2


def test_analyze_unknown_atlas_name(capsys):
    assert main(["analyze", "--group", "atlas:Nope", "--prime", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: no atlas group named 'Nope'; run `classgraph atlas --list`\n")


def test_analyze_missing_file(capsys):
    assert main(["analyze", "--group", "/nonexistent.jsonl", "--prime", "2"]) == 2


def test_graph_subcommand(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code = main(["graph", "--group", "atlas:Sigma3", "--prime", "5",
                 "--dot", str(dot)])
    assert code == 0
    assert "v2_0" in dot.read_text()


def test_graph_subcommand_counts_the_edges(tmp_path, capsys):
    # the count is read off the adjacency masks, not the edge set
    graph = build_graph(atlas_group("ES27:Q8"), 5)
    assert (len(graph.vertices), len(graph.edges)) == (13, 78)
    dot = tmp_path / "out.dot"
    assert main(["graph", "--group", "atlas:ES27:Q8", "--prime", "5", "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == (
        f"{len(graph.vertices)} vertices, {len(graph.edges)} edges, "
        f"shape {graph.shape} -> {dot}\n")


def test_verify_report_written(tmp_path, capsys):
    report = tmp_path / "report.json"
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"name":"S3","degree":3,"generators":["(1,2)","(1,2,3)"]}\n')
    code = main(["verify", "--corpus", str(corpus), "--primes", "2,3",
                 "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == "classgraph-report-v1"
    assert doc["summary"]["pairs"] == 2
    assert doc["summary"]["fail"] == 0


def test_verify_byte_identical_reruns(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"name":"S3","degree":3,"generators":["(1,2)","(1,2,3)"]}\n')
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--corpus", str(corpus), "--primes", "2,3,5",
                 "--report", str(out1)]) == 0
    assert main(["verify", "--corpus", str(corpus), "--primes", "2,3,5",
                 "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_corpus_syntax_error_exit_code(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"name": broken\n')
    assert main(["verify", "--corpus", str(corpus)]) == 2


@pytest.mark.parametrize("layout", ["empty directory", "no jsonl file", "empty file"])
def test_a_corpus_with_no_records_is_an_error(layout, tmp_path, capsys):
    # a run that checks nothing must not pass
    corpus = tmp_path / ("c.jsonl" if layout == "empty file" else "corpus")
    if layout == "empty file":
        corpus.write_text("")
    else:
        corpus.mkdir()
        if layout == "no jsonl file":
            (corpus / "notes.txt").write_text("not a corpus\n")
    assert main(["verify", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err == f"error: no group records in {corpus}\n"


def test_a_group_name_in_two_sources_is_an_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["atlas", "--emit", str(out)]) == 0
    (out / "zz_copy.jsonl").write_text((out / "Sigma3.jsonl").read_text())
    capsys.readouterr()
    assert main(["verify", "--corpus", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: duplicate group name 'Sigma3' in "
                                       f"{out / 'Sigma3.jsonl'} and {out / 'zz_copy.jsonl'}\n")
    # the built-in atlas counts as a source too
    assert main(["verify", "--atlas", "--corpus", str(out / "D10.jsonl")]) == 2
    assert capsys.readouterr().err == (f"error: duplicate group name 'D10' in "
                                       f"the built-in atlas and {out / 'D10.jsonl'}\n")


def test_max_order_env_override(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"name":"C7","degree":7,"generators":["(1,2,3,4,5,6,7)"]}\n')
    monkeypatch.setenv("CLASSGRAPH_MAX_ORDER", "5")
    assert main(["verify", "--corpus", str(corpus), "--primes", "7"]) == 2
    monkeypatch.setenv("CLASSGRAPH_MAX_ORDER", "50")
    assert main(["verify", "--corpus", str(corpus), "--primes", "7"]) == 0
    # the flag wins over the environment
    monkeypatch.setenv("CLASSGRAPH_MAX_ORDER", "5")
    assert main(["verify", "--corpus", str(corpus), "--primes", "7",
                 "--max-order", "50"]) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--group", "atlas:Sigma3"])  # missing --prime
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "4"],                 # not prime
    ["verify", "--primes", "upto:x"],            # malformed bound
    ["verify", "--primes", "2,2"],               # repeated prime
    ["verify", "--primes", "2,x"],               # not an integer
    ["analyze", "--group", "atlas:Sigma3", "--prime", "x"],  # not an integer
    ["graph", "--group", "atlas:Sigma3", "--prime", "x", "--dot", "g.dot"],
    ["verify", "--jobs", "-3"],
])
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "atlas:Sigma3", "--prime", "4"],
    ["graph", "--group", "atlas:Sigma3", "--prime", "4", "--dot", "g.dot"],
])
def test_a_non_prime_prime_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # rejected while parsing, before a group is built or a check runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --prime: 4 is not prime" in captured.err
    assert captured.out == "" and not (tmp_path / "g.dot").exists()


@pytest.mark.parametrize("flag", [["--seed", "7"], ["--restarts", "1"]])
def test_removed_search_flags_are_usage_errors(flag, capsys):
    # every subgroup search is one deterministic pass, with nothing to set
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--group", "atlas:Sigma3", "--prime", "2", *flag])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_primes_list_tolerates_spaces(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"name":"S3","degree":3,"generators":["(1,2)","(1,2,3)"]}\n')
    assert main(["verify", "--corpus", str(corpus), "--primes", "2, 3"]) == 0
    assert "pairs=2 " in capsys.readouterr().out


def test_non_integer_max_order_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CLASSGRAPH_MAX_ORDER", "abc")
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == (
        "error: CLASSGRAPH_MAX_ORDER='abc' is not an integer\n")


# each command's refusal names the declared order, since no closure ran
_REFUSED = {
    "analyze": "atlas group 'C2x(Q8:C9)' of order 144 exceeds the order cap 143",
    "graph": "atlas group 'A4' of order 12 exceeds the order cap 11",
    "verify": "atlas group '(C5xC5):SL(2,3)' of order 600 exceeds the order cap 599",
}


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "atlas:C2x(Q8:C9)", "--prime", "2", "--max-order", "143"],
    ["graph", "--group", "atlas:A4", "--prime", "2", "--dot", "g.dot", "--max-order", "11"],
    ["verify", "--max-order", "599"],  # the atlas holds one group of order 600
])
def test_an_atlas_group_over_the_cap_is_refused_unbuilt(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an atlas group over the cap was built")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "atlas_group", refuse)
    monkeypatch.setattr(cli, "builtin_atlas", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_REFUSED[argv[0]]}\n"
    assert captured.out == "" and not (tmp_path / "g.dot").exists()


def test_an_atlas_group_at_the_cap_runs(tmp_path, capsys):
    assert main(["graph", "--group", "atlas:A4", "--prime", "2",
                 "--dot", str(tmp_path / "g.dot"), "--max-order", "12"]) == 0
    assert main(["analyze", "--group", "atlas:A4", "--prime", "2", "--max-order", "12"]) == 0
    assert main(["verify", "--max-order", "600", "--primes", "2"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_cap_below_one_is_a_usage_error(value, monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--group", "atlas:Sigma3", "--prime", "2", "--max-order", value])
    assert info.value.code == 2
    assert "error: argument --max-order: needs an integer >= 1" in capsys.readouterr().err
    monkeypatch.setenv("CLASSGRAPH_MAX_ORDER", value)
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: CLASSGRAPH_MAX_ORDER={value!r} is below 1\n"
    assert captured.out == ""
