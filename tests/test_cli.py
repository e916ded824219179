"""End-to-end command tests via the in-process entry point."""

import json
import shutil

import pytest

from reprank.cli import main
from reprank.metrics import quality_ranks
from reprank.ranking import rank_mean
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
    res = rank_mean(graph)
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


def test_table_keeps_tag_with_spaces(tmp_path, capsys):
    ratings, _ = run_synth(tmp_path, "src")
    spaced = tmp_path / "my data.csv"
    shutil.copy(ratings, spaced)
    bench = tmp_path / "bench.txt"
    bench.write_text("0\n1\n2\n")
    sweep = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ratings", str(spaced), "--benchmark", str(bench),
               "--algorithm", "cr", "--grid-step", "0.5", "--out", str(sweep)])
    assert rc == 0
    assert sweep.read_text().splitlines()[1] == (
        "# tag=my data algorithm=cr metric=rs n=1")
    capsys.readouterr()
    out = tmp_path / "table.csv"
    assert main(["table", "--sweeps", str(sweep), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("my data cr: original=")
    assert data_lines(out)[1].startswith("my data,cr,")


def test_table_rejects_bad_inputs(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("nothing\n")
    rc = main(["table", "--sweeps", str(junk),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "not a sweep output" in capsys.readouterr().err

    corr = tmp_path / "corr.csv"
    rc = main(["sweep", *SOURCE_ARGS, "--metric", "corr", "--algorithm", "cr",
               "--realizations", "2", "--fix-p1", "0.5", "--fix-p2", "0.5",
               "--out", str(corr)])
    assert rc == 0
    rc = main(["table", "--sweeps", str(corr),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "rs sweeps" in capsys.readouterr().err


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
