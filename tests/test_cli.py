"""End-to-end command tests via the in-process entry point."""

import csv
import json
import os
import shutil
import stat

import pytest

from reprank.cli import _atomic_write, main
from reprank.graph import RatingGraph
from reprank.metrics import quality_ranks, ranking_score, top_fraction_benchmark
from reprank.projection import ProjectionParams, project_graph
from reprank.ranking import RankingConfig, rank
from reprank.sweep import DEFAULT_BENCHMARK_FRACTION
from reprank.synth import SynthSpec, generate_network

SIZE_ARGS = ["--users", "50", "--items", "30", "--links", "400",
             "--seed", "9"]
SYNTH_ARGS = SIZE_ARGS + ["--case", "1"]
SYNTH_SPEC = SynthSpec(num_users=50, num_items=30, num_links=400,
                       case=1, seed=9)
SOURCE_ARGS = ["--synth-case", "1"] + SIZE_ARGS


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def run_synth(tmp_path, name):
    ratings = tmp_path / f"{name}.csv"
    truth = tmp_path / f"{name}.json"
    rc = main(["synth", *SYNTH_ARGS, "--out-ratings", str(ratings),
               "--out-truth", str(truth)])
    assert rc == 0
    return ratings, truth


def test_synth_writes_reproducible_files(tmp_path, capsys):
    r1, t1 = run_synth(tmp_path, "a")
    r2, t2 = run_synth(tmp_path, "b")
    assert r1.read_text().splitlines()[0].startswith("# config:")
    assert data_lines(r1) == data_lines(r2)
    assert t1.read_text() == t2.read_text()
    out = capsys.readouterr().out
    assert "users=" in out and "wrote" in out


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_take_the_mode_the_umask_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        ratings, truth = run_synth(tmp_path, "a")
    finally:
        os.umask(old)
    for path in (ratings, truth):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_a_failed_write_keeps_the_old_output_and_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def fail(fh):
        fh.write("new\n")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        _atomic_write(path, fail)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_ingest_normalizes(tmp_path, capsys):
    ratings, _ = run_synth(tmp_path, "src")
    capsys.readouterr()
    out = tmp_path / "normalized.csv"
    rc = main(["ingest", "--ratings", str(ratings), "--out", str(out)])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("users=") and "sparsity=" in first
    # same triples, possibly reordered; a second pass is a fixed point
    assert sorted(data_lines(out)[1:]) == sorted(data_lines(ratings)[1:])
    out2 = tmp_path / "normalized2.csv"
    assert main(["ingest", "--ratings", str(out), "--out", str(out2)]) == 0
    assert data_lines(out2)[1:] == data_lines(out)[1:]


def test_ingest_movielens(tmp_path, capsys):
    src = tmp_path / "ml.dat"
    src.write_text("7::100::5::123\n7::200::3::123\n8::100::4::123\n")
    rc = main(["ingest", "--ratings", str(src), "--format", "movielens",
               "--out", str(tmp_path / "out.csv")])
    assert rc == 0
    assert "users=2 items=2 links=3" in capsys.readouterr().out


def test_ingest_rejects_id_it_cannot_read_back(tmp_path, capsys):
    src = tmp_path / "ml.dat"
    src.write_text("a,b::100::5::0\n")
    out = tmp_path / "out.csv"
    rc = main(["ingest", "--ratings", str(src), "--format", "movielens",
               "--out", str(out)])
    assert rc == 1
    assert "'a,b' cannot be written" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_error_paths(tmp_path, capsys):
    rc = main(["ingest", "--ratings", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,9\n")
    rc = main(["ingest", "--ratings", str(bad),
               "--out", str(tmp_path / "y.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err


def test_rank_rejects_file_without_ratings(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# no data yet\nuser_id,item_id,rating\n")
    for algorithm in ("mean", "rr"):
        rc = main(["rank", "--ratings", str(empty), "--algorithm", algorithm,
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "error: no ratings found" in capsys.readouterr().err


def test_rank_outputs_sorted_items(tmp_path):
    items = tmp_path / "items.csv"
    users = tmp_path / "users.csv"
    rc = main(["rank", *SOURCE_ARGS, "--algorithm", "mean",
               "--out-items", str(items), "--out-users", str(users)])
    assert rc == 0

    graph, _ = generate_network(SYNTH_SPEC)
    res = rank(graph, RankingConfig(algorithm="mean"))
    ranks = quality_ranks(res.qualities)

    rows = [l.split(",") for l in data_lines(items)[1:]]
    assert len(rows) == graph.num_items
    got_ranks = [float(r[2]) for r in rows]
    assert got_ranks == sorted(got_ranks)
    for ext, q, r in rows:
        j = int(ext)
        assert float(q) == res.qualities[j]
        assert float(r) == ranks[j]

    urows = [l.split(",") for l in data_lines(users)[1:]]
    assert len(urows) == graph.num_users
    assert all(float(rep) == 1.0 for _, rep in urows)


def test_rank_warns_when_not_converged(tmp_path, capsys):
    rc = main(["rank", *SOURCE_ARGS, "--algorithm", "cr", "--max-iter", "1",
               "--out-items", str(tmp_path / "i.csv"),
               "--out-users", str(tmp_path / "u.csv")])
    assert rc == 0
    assert "warning: not converged after 1 iterations" in (
        capsys.readouterr().err)


def test_rank_and_eval_rank_on_the_source_grouping(tmp_path, capsys,
                                                   monkeypatch):
    """rank and eval rank on the source graph's own class grouping, with no
    projected copy, bit for bit as rank(project_graph(...))."""
    graph, truth = generate_network(SYNTH_SPEC)
    config = RankingConfig(algorithm="cr")
    direct = rank(project_graph(graph, ProjectionParams(0.3, 0.7)), config)
    benchmark = top_fraction_benchmark(truth, DEFAULT_BENCHMARK_FRACTION)
    rs = ranking_score(direct.qualities, benchmark).value

    def copy(*args, **kwargs):
        raise AssertionError("ranked a with_ratings copy")

    monkeypatch.setattr(RatingGraph, "with_ratings", copy)
    argv = [*SOURCE_ARGS, "--algorithm", "cr", "--p1", "0.3", "--p2", "0.7"]
    items, users = tmp_path / "items.csv", tmp_path / "users.csv"
    assert main(["rank", *argv, "--out-items", str(items),
                 "--out-users", str(users)]) == 0
    qualities = dict(l.split(",")[:2] for l in data_lines(items)[1:])
    assert [float(qualities[str(j)]) for j in range(graph.num_items)] == (
        direct.qualities.tolist())
    assert [float(l.split(",")[1]) for l in data_lines(users)[1:]] == (
        direct.reputations.tolist())
    capsys.readouterr()
    assert main(["eval", *argv]) == 0
    assert f"rs={rs!r}" in capsys.readouterr().out.splitlines()


def test_source_must_be_unambiguous(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--out-items", str(tmp_path / "i.csv"),
              "--out-users", str(tmp_path / "u.csv")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--ratings", "r.csv", "--synth-case", "0"])
    assert exc.value.code == 2


def test_eval_synthetic(tmp_path, capsys):
    out = tmp_path / "metrics.txt"
    rc = main(["eval", *SOURCE_ARGS, "--algorithm", "cr", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "rs=" in stdout and "correlation=" in stdout
    assert "benchmark_size=2" in stdout  # top 5% of 30 items
    assert out.read_text().startswith("# config:")


def test_eval_flat_reputations_flagged(capsys):
    rc = main(["eval", *SOURCE_ARGS, "--algorithm", "mean"])
    assert rc == 0
    assert "correlation_degenerate=true" in capsys.readouterr().out


def test_eval_real_data_with_benchmark(tmp_path, capsys):
    ratings, truth = run_synth(tmp_path, "src")
    bench = tmp_path / "bench.txt"
    bench.write_text("0\n1\nnot-an-item\n")
    rc = main(["eval", "--ratings", str(ratings), "--benchmark", str(bench),
               "--algorithm", "cr"])
    assert rc == 0
    assert "rs=" in capsys.readouterr().out

    bench.write_text("not-an-item\n")
    rc = main(["eval", "--ratings", str(ratings), "--benchmark", str(bench)])
    assert rc == 1
    assert "empty benchmark" in capsys.readouterr().err


def test_eval_truth_requires_real_ratings(tmp_path, capsys):
    rc = main(["eval", *SOURCE_ARGS, "--truth", str(tmp_path / "none.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: --truth requires a real ratings file" in err


def test_eval_benchmark_requires_real_ratings(tmp_path, capsys):
    rc = main(["eval", *SOURCE_ARGS, "--benchmark", str(tmp_path / "b.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: --benchmark requires a real ratings file" in err


def test_eval_real_ratings_need_a_benchmark(tmp_path, capsys):
    ratings, _ = run_synth(tmp_path, "src")
    rc = main(["eval", "--ratings", str(ratings)])
    assert rc == 1
    assert "error: no benchmark available" in capsys.readouterr().err


def test_eval_truth_must_cover_ratings(tmp_path, capsys):
    ratings, _ = run_synth(tmp_path, "src")
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"intrinsic_quality": [3.0],
                                 "error_magnitude": [1.0]}))
    rc = main(["eval", "--ratings", str(ratings), "--truth", str(short)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: truth file does not cover the ratings file" in err


def test_eval_rejects_nested_truth_vectors(tmp_path, capsys):
    ratings, truth = run_synth(tmp_path, "src")
    truth.write_text(json.dumps({"intrinsic_quality": [[3.0]],
                                 "error_magnitude": [[1.0], [2.0]]}))
    rc = main(["eval", "--ratings", str(ratings), "--truth", str(truth)])
    assert rc == 1
    assert "error: truth vectors must be 1-D" in capsys.readouterr().err


def test_eval_truth_alignment(tmp_path, capsys):
    ratings, truth = run_synth(tmp_path, "src")
    rc = main(["eval", "--ratings", str(ratings), "--truth", str(truth),
               "--algorithm", "cr"])
    assert rc == 0
    assert "correlation=" in capsys.readouterr().out

    named = tmp_path / "named.csv"
    named.write_text("user_id,item_id,rating\nalice,apple,4\nbob,apple,2\n")
    rc = main(["eval", "--ratings", str(named), "--truth", str(truth)])
    assert rc == 1
    assert "integer external ids" in capsys.readouterr().err


@pytest.mark.parametrize("records", ["-1,0,4\n0,1,3\n", "0,01,4\n1,1,3\n",
                                     "0,0,4\n00,1,3\n"])
def test_eval_truth_rejects_noncanonical_ids(tmp_path, capsys, records):
    _, truth = run_synth(tmp_path, "src")
    ratings = tmp_path / "odd.csv"
    ratings.write_text("user_id,item_id,rating\n" + records)
    rc = main(["eval", "--ratings", str(ratings), "--truth", str(truth)])
    assert rc == 1
    assert "integer external ids" in capsys.readouterr().err


def test_eval_rejects_bad_fraction(capsys):
    rc = main(["eval", *SOURCE_ARGS, "--benchmark-fraction", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("beta, message", [
    ("40", "error: ir iteration 2 gave a non-finite quality or reputation"),
    ("inf", "error: beta must be finite"),
], ids=["40", "inf"])
def test_eval_rejects_non_finite_ir(tmp_path, capsys, beta, message):
    # beta=40 overflows epsilon**-beta once the qualities fit some users
    out = tmp_path / "metrics.txt"
    rc = main(["eval", *SOURCE_ARGS, "--algorithm", "ir", "--beta", beta,
               "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def sweep_file(tmp_path, name, *extra):
    out = tmp_path / f"{name}.csv"
    rc = main(["sweep", *SOURCE_ARGS, "--algorithm", "cr",
               "--realizations", "2", "--grid-step", "0.5",
               "--out", str(out), *extra])
    assert rc == 0
    return out


def test_sweep_grid_file(tmp_path, capsys):
    out = sweep_file(tmp_path, "slice", "--fix-p1", "0.5")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "# tag=case1 algorithm=cr metric=rs n=2"
    assert lines[2] == "p1,p2,mean,std,n,converged_frac"
    assert lines[-1].startswith("# optimum")
    assert len(lines) == 3 + 3 + 1  # p2 in {0, 0.5, 1}
    assert "optimum" in capsys.readouterr().out

    again = sweep_file(tmp_path, "slice2", "--fix-p1", "0.5")
    assert data_lines(out)[1:] == data_lines(again)[1:]
    pooled = sweep_file(tmp_path, "slice3", "--fix-p1", "0.5",
                        "--threads", "2")
    assert data_lines(out)[1:] == data_lines(pooled)[1:]


def test_sweep_real_source(tmp_path, capsys):
    ratings, _ = run_synth(tmp_path, "src")
    bench = tmp_path / "bench.txt"
    bench.write_text("0\n1\n2\n")
    out = tmp_path / "real.csv"
    rc = main(["sweep", "--ratings", str(ratings), "--benchmark", str(bench),
               "--algorithm", "cr", "--grid-step", "0.5",
               "--fix-p1", "0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "tag=src" in lines[1] and "n=1" in lines[1]


def test_sweep_benchmark_requires_real_ratings(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--synth-case", "1", "--users", "20", "--items", "10",
               "--links", "60", "--grid-step", "0.5", "--realizations", "1",
               "--benchmark", str(tmp_path / "b.txt"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: --benchmark requires a real ratings file" in err
    assert not out.exists()


def test_sweep_without_converged_cell(tmp_path, capsys):
    out = sweep_file(tmp_path, "stuck", "--fix-p1", "0.5", "--max-iter", "1")
    summary = "optimum unavailable: every cell failed to converge"
    assert summary in capsys.readouterr().out
    assert out.read_text().splitlines()[-1] == f"# {summary}"


def test_table_command(tmp_path, capsys):
    a = sweep_file(tmp_path, "a")
    b = sweep_file(tmp_path, "b", "--algorithm", "mean")
    out = tmp_path / "table.csv"
    rc = main(["table", "--sweeps", str(a), str(b), "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in data_lines(out)[1:]]
    assert [r[1] for r in rows] == ["cr", "mean"]
    assert all(r[0] == "case1" for r in rows)
    for r in rows:
        assert float(r[3]) <= float(r[2])  # projected <= original


def test_table_reads_past_a_byte_order_mark(tmp_path, capsys):
    plain = sweep_file(tmp_path, "plain", "--fix-p1", "0.5")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    tables = []
    for sweep in (plain, bom):
        out = tmp_path / f"table_{sweep.stem}.csv"
        assert main(["table", "--sweeps", str(sweep), "--out", str(out)]) == 0
        tables.append(data_lines(out))
    assert tables[0] == tables[1]


def real_sweep(tmp_path, filename):
    """Runs a small cr sweep on a copy of a synthetic ratings file named
    `filename`, so the sweep's tag is the file name's stem."""
    ratings, _ = run_synth(tmp_path, "src")
    named = tmp_path / filename
    shutil.copy(ratings, named)
    bench = tmp_path / "bench.txt"
    bench.write_text("0\n1\n2\n")
    sweep = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ratings", str(named), "--benchmark", str(bench),
               "--algorithm", "cr", "--grid-step", "0.5", "--out", str(sweep)])
    assert rc == 0
    return sweep


def test_table_keeps_tag_with_spaces(tmp_path, capsys):
    sweep = real_sweep(tmp_path, "my data.csv")
    assert sweep.read_text().splitlines()[1] == (
        "# tag=my data algorithm=cr metric=rs n=1")
    capsys.readouterr()
    out = tmp_path / "table.csv"
    assert main(["table", "--sweeps", str(sweep), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("my data cr: original=")
    assert data_lines(out)[1].startswith("my data,cr,")


def test_table_quotes_tag_with_comma(tmp_path, capsys):
    sweep = real_sweep(tmp_path, "a,b.csv")
    out = tmp_path / "table.csv"
    assert main(["table", "--sweeps", str(sweep), "--out", str(out)]) == 0
    header, row = csv.reader(data_lines(out))
    assert len(header) == len(row) == 6
    assert row[:2] == ["a,b", "cr"]


def test_table_rejects_bad_inputs(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("nothing\n")
    rc = main(["table", "--sweeps", str(junk),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "not a sweep output" in capsys.readouterr().err

    good = sweep_file(tmp_path, "good", "--fix-p1", "0.5").read_text(
        ).splitlines()
    assert good[1].startswith("# tag=") and good[2].startswith("p1,p2,")
    row = good[4]   # the second data row

    def without(i, *replacement):
        return good[:i] + list(replacement) + good[i + 1:]

    bad = tmp_path / "bad.csv"
    for lines in (without(4, row.rsplit(",", 1)[0]),         # 5 fields
                  without(4, row + ",1"),                     # 7 fields
                  without(4, row.replace(",2,", ",2.0,")),    # n not an int
                  without(1),                                 # no `# tag=`
                  without(2)):                                # no header
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["table", "--sweeps", str(bad),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert f"{bad}: not a sweep output" in capsys.readouterr().err

    corr = tmp_path / "corr.csv"
    rc = main(["sweep", *SOURCE_ARGS, "--metric", "corr", "--algorithm", "cr",
               "--realizations", "2", "--fix-p1", "0.5", "--fix-p2", "0.5",
               "--out", str(corr)])
    assert rc == 0
    rc = main(["table", "--sweeps", str(corr),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "rs sweeps" in capsys.readouterr().err


def test_table_rejects_incomplete_grid(tmp_path, capsys):
    sweep = sweep_file(tmp_path, "full", "--realizations", "1")
    lines = sweep.read_text().splitlines()
    del lines[4]  # the (0, 0.5) cell
    sweep.write_text("\n".join(lines) + "\n")
    rc = main(["table", "--sweeps", str(sweep),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "incomplete grid" in capsys.readouterr().err


def refused_sweep(tmp_path, name, edit):
    """A p1 = 0.5 sweep file whose lines passed through `edit`, after
    checking that `table` refuses it."""
    sweep = sweep_file(tmp_path, name, "--fix-p1", "0.5")
    lines = sweep.read_text().splitlines()
    assert lines[4].startswith("0.5,0.5,") and lines[1].endswith(" n=2")
    sweep.write_text("\n".join(edit(lines)) + "\n")
    assert main(["table", "--sweeps", str(sweep),
                 "--out", str(tmp_path / "t.csv")]) == 1
    return sweep


def test_table_rejects_a_repeated_cell(tmp_path, capsys):
    # a later row for a cell used to replace the earlier one silently
    def repeat(lines):
        p1, p2, mean, *rest = lines[4].split(",")
        return lines[:5] + [",".join([p1, p2, "0.25", *rest])] + lines[5:]
    sweep = refused_sweep(tmp_path, "twice", repeat)
    assert f"{sweep}: cell (0.5, 0.5) repeated" in capsys.readouterr().err


def test_table_rejects_a_row_n_other_than_the_tag_lines(tmp_path, capsys):
    # a row's n used to be read only from the first row, and never checked
    def renumber(lines):
        fields = lines[4].split(",")
        fields[4] = "7"
        return lines[:4] + [",".join(fields)] + lines[5:]
    sweep = refused_sweep(tmp_path, "seven", renumber)
    assert f"{sweep}: a row's n differs from n=2" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRANK_OUTDIR", str(tmp_path / "artifacts"))
    rc = main(["synth", *SYNTH_ARGS, "--out-ratings", "r.csv",
               "--out-truth", "t.json"])
    assert rc == 0
    assert (tmp_path / "artifacts" / "r.csv").exists()
    assert (tmp_path / "artifacts" / "t.json").exists()


def header_argv(path):
    """Command line rebuilt from an artifact's `# config:` header."""
    first = path.read_text().splitlines()[0]
    cfg = json.loads(first.removeprefix("# config: "))
    argv = [cfg.pop("command")]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value is not False:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("command", ["synth", "ingest", "rank", "eval",
                                     "sweep", "table"])
def test_config_header_reproduces_artifact(tmp_path, capsys, command):
    ratings, truth = run_synth(tmp_path, "src")
    out = tmp_path / "artifact.csv"
    argv = {
        "synth": ["synth", *SYNTH_ARGS, "--spam-p", "0.1",
                  "--out-ratings", str(out), "--out-truth", str(truth)],
        "ingest": ["ingest", "--ratings", str(ratings), "--out", str(out)],
        "rank": ["rank", *SOURCE_ARGS, "--algorithm", "rr", "--p1", "0.2",
                 "--out-items", str(out),
                 "--out-users", str(tmp_path / "users.csv")],
        "eval": ["eval", "--ratings", str(ratings), "--truth", str(truth),
                 "--algorithm", "cr", "--p2", "0.9", "--verbose",
                 "--out", str(out)],
        "sweep": ["sweep", *SOURCE_ARGS, "--algorithm", "cr",
                  "--realizations", "2", "--grid-step", "0.5",
                  "--fix-p1", "0.5", "--out", str(out)],
        "table": ["table", "--sweeps", str(sweep_file(tmp_path, "a")),
                  str(sweep_file(tmp_path, "b", "--algorithm", "mean")),
                  "--out", str(out)],
    }[command]
    assert main(argv) == 0
    first = out.read_bytes()
    again = header_argv(out)
    out.unlink()
    assert main(again) == 0
    assert out.read_bytes() == first
