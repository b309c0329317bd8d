"""Command-line interface: single runs, dumps, and benchmark suites."""

import csv
import json
import random

import pytest

from eqmatch import cli
from eqmatch.cli import load_problem, main
from eqmatch.graphs import (Graph, serialize_lad,
                            serialize_multiplex_edgelist)
from eqmatch.reporting import compress, export_dot, induce_subgraph
from eqmatch.search import ALL_MODES, Mode, Slot, SolutionClass, solve
from eqmatch.synth import (cover_problem, random_multiplex_graph,
                           random_problem, star_problem, toy_problem)


@pytest.fixture
def toy_paths(data_dir):
    return (str(data_dir / "fan_template.lad"), str(data_dir / "fan_world.lad"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_multiplex(tmp_path, problem):
    paths = (tmp_path / "t.txt", tmp_path / "w.txt")
    paths[0].write_text(serialize_multiplex_edgelist(problem.template))
    paths[1].write_text(serialize_multiplex_edgelist(problem.world))
    return paths


def assert_stream_is_json_dumps(capsys, tmp_path, t, w, mode,
                                fmt="multiplex", max_solutions=None,
                                want=None):
    """Stream ``--solutions`` and check that its lines are, byte for byte,
    ``json.dumps(sc.to_json())`` of the library's classes (or ``want``);
    returns the lines."""
    out_path = tmp_path / "classes.jsonl"
    cap = [] if max_solutions is None else ["--max-solutions",
                                            str(max_solutions)]
    code, _, _ = run_cli(capsys, "--template", str(t), "--world", str(w),
                         "--format", fmt, "--mode", mode,
                         "--solutions", str(out_path), *cap)
    assert code == 0
    if want is None:
        _, classes = solve(load_problem(t, w, fmt), mode,
                           max_solutions=max_solutions)
        want = [json.dumps(sc.to_json()) + "\n" for sc in classes]
    assert out_path.read_bytes() == "".join(want).encode()
    return want


class TestSingleRun:
    @pytest.mark.parametrize("mode,reps", [("ne", 18), ("fe", 2), ("nc", 2)])
    def test_toy_report(self, capsys, toy_paths, mode, reps):
        t, w = toy_paths
        code, out, _ = run_cli(capsys, "--template", t, "--world", w,
                               "--mode", mode)
        assert code == 0
        payload = json.loads(out)
        assert payload["representatives"] == reps
        assert payload["total"] == "18"
        assert payload["status"] == "completed"

    def test_unsatisfiable_is_not_an_error(self, capsys, tmp_path, toy_paths):
        t = tmp_path / "t.lad"
        t.write_text("2\n1 1\n1 0\n")  # mutual pair, absent from the world
        code, out, _ = run_cli(capsys, "--template", str(t),
                               "--world", toy_paths[1], "--mode", "ne")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == "0"
        assert payload["status"] == "completed"

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_root_wipe_out_writes_empty_outputs(self, capsys, tmp_path,
                                                toy_paths, monkeypatch, mode):
        # No file format carries labels, so the loader hands the CLI the toy
        # problem with a template label the world lacks: the root fails,
        # and the run writes no class and the empty DOT graph.
        p = toy_problem()
        p.template.labels = ["x"] + [None] * (p.template.vertex_count - 1)
        monkeypatch.setattr(cli, "load_problem", lambda *args: p)
        jsonl, dot = tmp_path / "classes.jsonl", tmp_path / "out.dot"
        code, out, _ = run_cli(capsys, "--template", toy_paths[0],
                               "--world", toy_paths[1], "--mode", mode,
                               "--solutions", str(jsonl), "--dot", str(dot))
        assert code == 0
        payload = json.loads(out)
        assert (payload["status"], payload["total"],
                payload["representatives"]) == ("completed", "0", 0)
        assert jsonl.read_bytes() == b""
        assert dot.read_text() == "digraph G { }"

    def test_multiplex_format(self, capsys, tmp_path):
        p = toy_problem()
        t = tmp_path / "t.txt"
        w = tmp_path / "w.txt"
        t.write_text(serialize_multiplex_edgelist(p.template))
        w.write_text(serialize_multiplex_edgelist(p.world))
        code, out, _ = run_cli(capsys, "--template", str(t), "--world", str(w),
                               "--format", "multiplex", "--mode", "tewe")
        assert code == 0
        assert json.loads(out)["representatives"] == 6

    def test_solutions_jsonl_stream(self, capsys, tmp_path, toy_paths):
        t, w = toy_paths
        out_path = tmp_path / "classes.jsonl"
        code, _, _ = run_cli(capsys, "--template", t, "--world", w,
                             "--mode", "fe", "--solutions", str(out_path))
        assert code == 0
        lines = [json.loads(s) for s in out_path.read_text().splitlines()]
        assert len(lines) == 2
        assert sum(int(rec["count"]) for rec in lines) == 18
        assert all(isinstance(rec["count"], str) for rec in lines)
        for rec in lines:
            for tv, members in rec["assignments"]:
                assert isinstance(tv, int) and isinstance(members, list)

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_solutions_lines_equal_json_dumps(self, capsys, tmp_path,
                                              toy_paths, mode):
        cover = cover_problem()
        cover_paths = (tmp_path / "cover_t.lad", tmp_path / "cover_w.lad")
        cover_paths[0].write_text(serialize_lad(cover.template))
        cover_paths[1].write_text(serialize_lad(cover.world))
        for t, w in (toy_paths, cover_paths):
            out_path = tmp_path / "classes.jsonl"
            code, _, _ = run_cli(capsys, "--template", str(t), "--world",
                                 str(w), "--mode", mode,
                                 "--solutions", str(out_path))
            assert code == 0
            _, classes = solve(load_problem(t, w, "lad"), mode)
            want = "".join(json.dumps(sc.to_json()) + "\n" for sc in classes)
            assert classes and out_path.read_bytes() == want.encode()

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_solutions_lines_equal_json_dumps_star(self, capsys, tmp_path,
                                                   mode):
        # Star WE, TEWE, CE and FE cells have many members; a capped run
        # streams the library's first three classes (NE and TE have more).
        t, w = write_multiplex(tmp_path, star_problem(5, 9))
        want = assert_stream_is_json_dumps(capsys, tmp_path, t, w, mode)
        assert want
        assert_stream_is_json_dumps(capsys, tmp_path, t, w, mode,
                                    max_solutions=3, want=want[:3])

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_solutions_lines_equal_json_dumps_random(self, capsys, tmp_path,
                                                     mode):
        # ``scripts/class_dump.py``'s generator: self-loops, 1-3 channels,
        # directed and undirected.
        rng, lines, channels = random.Random(0xD0), 0, set()
        for i in range(10):
            problem = random_problem(
                rng, template_size=(3, 6), world_size=(6, 11),
                channels=(1, 2, 3), edge_prob=rng.choice([0.2, 0.3, 0.45]),
                planted=i % 5 != 4, self_loops=i % 3 == 0,
                directed=i % 2 == 0)
            channels.add(problem.world.channels)
            t, w = write_multiplex(tmp_path, problem)
            lines += len(assert_stream_is_json_dumps(capsys, tmp_path, t, w,
                                                     mode))
        assert lines and channels == {1, 2, 3}

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_solutions_lines_equal_json_dumps_at_every_depth(self, capsys,
                                                             tmp_path, mode):
        # The writer keeps the text of each line's head (its slots but the
        # last) and rebuilds it from the deepest changed slot. A 4-path and
        # a 5-vertex kite (a triangle of two twins with a 2-path tail) in a
        # seeded G(40, 0.1) world change the head at each of its depths; a
        # one-vertex template's head is always empty.
        world = random_multiplex_graph(random.Random(40), 40, 1,
                                       edge_prob=0.1, max_multiplicity=1,
                                       directed=False)
        w = tmp_path / "w.lad"
        w.write_text(serialize_lad(world))
        for arcs, n in (([(0, 1), (1, 2), (2, 3)], 4),
                        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5),
                        ([], 1)):
            template = Graph(n)
            for a, b in arcs:
                template.add_edge(a, b)
                template.add_edge(b, a)
            t = tmp_path / "t.lad"
            t.write_text(serialize_lad(template))
            lines = assert_stream_is_json_dumps(capsys, tmp_path, t, w, mode,
                                                fmt="lad")
            heads = [json.loads(line)["assignments"][:-1] for line in lines]
            changed = {next(d for d, (a, b) in enumerate(zip(h1, h2))
                            if a != b)
                       for h1, h2 in zip(heads, heads[1:]) if h1 != h2}
            assert lines and changed == set(range(n - 1))

    @pytest.mark.parametrize("mode", [m.value for m in ALL_MODES])
    def test_solutions_line_of_the_empty_template(self, capsys, tmp_path,
                                                  mode):
        p = toy_problem()
        t, w = tmp_path / "t.lad", tmp_path / "w.lad"
        t.write_text("0\n")
        w.write_text(serialize_lad(p.world))
        want = assert_stream_is_json_dumps(capsys, tmp_path, t, w, mode,
                                           fmt="lad")
        assert want == ['{"assignments": [], "count": "1"}\n']

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_solutions_below_one_is_an_error(self, capsys, tmp_path,
                                                 toy_paths, cap):
        t, w = toy_paths
        out_path = tmp_path / "classes.jsonl"
        code, out, err = run_cli(capsys, "--template", t, "--world", w,
                                 "--max-solutions", cap,
                                 "--solutions", str(out_path))
        assert code == 2
        assert "max_solutions" in err and out == ""
        assert not out_path.exists()  # rejected before any file is opened

    def test_nan_max_solutions_is_rejected(self, toy_paths):
        t, w = toy_paths
        with pytest.raises(ValueError, match="max_solutions must be positive"):
            cli.RunConfig(template=t, world=w, max_solutions=float("nan"))

    def test_dump_classes(self, capsys, toy_paths):
        t, w = toy_paths
        code, out, _ = run_cli(capsys, "--template", t, "--world", w,
                               "--mode", "ce", "--dump-classes")
        payload = json.loads(out)
        assert len(payload["classes"]) == 5

    def test_dot_compressed_class(self, capsys, tmp_path, toy_paths):
        t, w = toy_paths
        dot = tmp_path / "out.dot"
        code, _, _ = run_cli(capsys, "--template", t, "--world", w,
                             "--mode", "fe", "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph G {")

    def test_dot_of_streamed_first_class(self, capsys, tmp_path, toy_paths,
                                         monkeypatch):
        t, w = toy_paths
        jsonl, dot = tmp_path / "classes.jsonl", tmp_path / "out.dot"
        collects = []
        solve = cli.solve
        def spy(*args, **kwargs):
            collects.append(kwargs["collect"])
            return solve(*args, **kwargs)
        monkeypatch.setattr(cli, "solve", spy)
        code, _, _ = run_cli(capsys, "--template", t, "--world", w,
                             "--mode", "fe", "--solutions", str(jsonl),
                             "--dot", str(dot))
        assert code == 0
        assert collects == [False]  # streaming alone holds no classes
        first = json.loads(jsonl.read_text().splitlines()[0])
        slots = tuple(Slot(tv, (tv,), members[0], tuple(members), 1)
                      for tv, members in first["assignments"])
        sc = SolutionClass(Mode.FE, slots, int(first["count"]))
        problem = load_problem(t, w, "lad")
        assert dot.read_text() == export_dot(compress(induce_subgraph(
            problem.world, sc, problem.template)))

    def test_dot_candidate_structure(self, capsys, tmp_path, toy_paths):
        t, w = toy_paths
        dot = tmp_path / "pairs.dot"
        code, _, _ = run_cli(capsys, "--template", t, "--world", w,
                             "--mode", "ne", "--dump-candidate-structure",
                             "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert '"(0,0)"' in text and '"(0,3)"' in text

    def test_candidate_structure_cap(self, capsys, tmp_path, toy_paths):
        t, w = toy_paths
        dot = tmp_path / "pairs.dot"
        code, _, err = run_cli(capsys, "--template", t, "--world", w,
                               "--dump-candidate-structure", "--dot", str(dot),
                               "--pair-cap", "3")
        assert code == 0
        assert "above the cap" in err
        assert not dot.exists()

    def test_candidate_structure_cap_is_checked_first(
            self, capsys, monkeypatch, tmp_path, toy_paths):
        # The node count comes from the candidate sets: a structure over
        # the cap is never built.
        def build(*args):
            raise AssertionError("pair graph built over the cap")
        monkeypatch.setattr(cli, "build_candidate_structure", build)
        t, w = toy_paths
        dot = tmp_path / "pairs.dot"
        code, _, err = run_cli(capsys, "--template", t, "--world", w,
                               "--dump-candidate-structure", "--dot", str(dot),
                               "--pair-cap", "3")
        assert code == 0
        assert "above the cap of 3; skipping dump" in err
        assert not dot.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--dump-candidate-structure"], "requires --dot"),
        (["--dump-candidate-structure", "--dot", "pairs.dot",
          "--pair-cap", "-1"], "pair_cap"),
        (["--dot", "pairs.dot", "--pair-cap", "-1"], "pair_cap")])
    def test_candidate_structure_flags_are_checked(self, capsys, tmp_path,
                                                   toy_paths, flags, message):
        t, w = toy_paths
        out_path = tmp_path / "classes.jsonl"
        flags = [str(tmp_path / f) if f.endswith(".dot") else f for f in flags]
        code, out, err = run_cli(capsys, "--template", t, "--world", w,
                                 "--solutions", str(out_path), *flags)
        assert code == 2
        assert message in err and out == ""
        # Rejected before any file is opened.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_timeout_is_an_error(self, capsys, tmp_path,
                                              toy_paths, timeout):
        t, w = toy_paths
        out_path = tmp_path / "classes.jsonl"
        code, out, err = run_cli(capsys, "--template", t, "--world", w,
                                 "--timeout", timeout,
                                 "--solutions", str(out_path))
        assert code == 2
        assert "error: timeout must be positive" in err and out == ""
        assert not out_path.exists()  # rejected before any file is opened

    def test_missing_file_is_an_error(self, capsys, toy_paths):
        code, _, err = run_cli(capsys, "--template", "/nonexistent.lad",
                               "--world", toy_paths[1])
        assert code == 2
        assert "error" in err

    def test_parse_failure_reports_line(self, capsys, tmp_path, toy_paths):
        bad = tmp_path / "bad.lad"
        bad.write_text("2\nbogus\n")
        code, _, err = run_cli(capsys, "--template", str(bad),
                               "--world", toy_paths[1])
        assert code == 2
        assert "line 2" in err

    def test_flags_required(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "ne")
        assert code == 2


class TestSuite:
    def write_manifest(self, tmp_path, rows):
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ["name", "template", "world", "format"])
            writer.writeheader()
            writer.writerows(rows)
        return manifest

    def test_toy_suite_all_modes(self, capsys, tmp_path, data_dir):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "--suite", str(data_dir),
                             "--manifest", str(manifest), "--out", str(out),
                             "--jobs", "2")
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        data = [r for r in rows if r["instance"] == "toy"]
        aggs = [r for r in rows if r["instance"] == "__aggregate__"]
        assert len(data) == 7
        assert all(r["total"] == "18" for r in data)
        assert all(r["status"] == "completed" for r in data)
        assert len(aggs) == 7
        assert all(r["fully_enumerated_proportion"] == "1" for r in aggs)
        fe_agg = next(r for r in aggs if r["mode"] == "fe")
        assert float(fe_agg["mean_compression_rate"]) == pytest.approx(2 / 18)

    def test_empty_suite_header_only(self, capsys, tmp_path):
        manifest = self.write_manifest(tmp_path, [])
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "--suite", str(tmp_path),
                             "--manifest", str(manifest), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance,mode,")

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_timeout_is_an_error(self, capsys, tmp_path,
                                              data_dir, timeout):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "--suite", str(data_dir),
                               "--manifest", str(manifest), "--out", str(out),
                               "--timeout", timeout, "--jobs", "1")
        assert code == 2
        assert "error: timeout must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_an_error(self, capsys, tmp_path, data_dir,
                                           jobs):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "--suite", str(data_dir),
                               "--manifest", str(manifest), "--out", str(out),
                               "--jobs", jobs)
        assert code == 2
        assert "error: jobs must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("modes", [",", "ne,ne"], ids=["none", "twice"])
    def test_no_mode_or_a_repeated_mode_is_an_error(self, capsys, tmp_path,
                                                    data_dir, modes):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "--suite", str(data_dir),
                               "--manifest", str(manifest), "--out", str(out),
                               "--modes", modes, "--jobs", "1")
        assert code == 2
        assert "error: modes must name at least one mode, each once" in err
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [
        # No name column.
        ("template,world,format\nfan_template.lad,fan_world.lad,lad\n", 2),
        # A short row: no world field.
        ("name,template,world\ntoy,fan_template.lad,fan_world.lad\n"
         "bad,fan_template.lad\n", 3),
        # A long row: one field more than the header.
        ("name,template,world,format\n"
         "toy,fan_template.lad,fan_world.lad,lad,extra\n", 2)],
        ids=["no-name-column", "short-row", "long-row"])
    def test_malformed_manifest_is_an_error(self, capsys, tmp_path,
                                            data_dir, text, line):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text)
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "--suite", str(data_dir),
                               "--manifest", str(manifest), "--out", str(out),
                               "--jobs", "1")
        assert code == 2
        assert f"error: manifest line {line}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_entry_reported_per_row(self, capsys, tmp_path, data_dir):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"},
            {"name": "ghost", "template": "missing.lad",
             "world": "missing.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "--suite", str(data_dir),
                             "--manifest", str(manifest), "--out", str(out),
                             "--modes", "ne,fe", "--jobs", "1")
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        ghost = [r for r in rows if r["instance"] == "ghost"]
        assert len(ghost) == 2
        assert all(r["status"].startswith("error") for r in ghost)
        assert any(r["instance"] == "toy" and r["total"] == "18" for r in rows)

    def test_unexpected_error_keeps_other_rows(self, capsys, tmp_path,
                                               data_dir, monkeypatch):
        # ``solve`` fails on the edgeless template only.
        bad_template = tmp_path / "bad_template.lad"
        bad_template.write_text("3\n0\n0\n0\n")
        real_solve = cli.solve

        def solve(problem, *args, **kwargs):
            if problem.template.edge_count() == 0:
                raise RuntimeError("boom")
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", solve)
        manifest = self.write_manifest(tmp_path, [
            {"name": "bad", "template": str(bad_template),
             "world": "fan_world.lad", "format": "lad"},
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "--suite", str(data_dir),
                               "--manifest", str(manifest), "--out", str(out),
                               "--modes", "ne,fe", "--jobs", "1")
        assert code == 0
        assert err.count("RuntimeError: boom") == 2  # tracebacks kept
        rows = list(csv.DictReader(open(out)))
        bad = [r for r in rows if r["instance"] == "bad"]
        toy = [r for r in rows if r["instance"] == "toy"]
        aggs = [r for r in rows if r["instance"] == "__aggregate__"]
        assert [r["status"] for r in bad] == ["error: boom"] * 2
        assert [r["total"] for r in toy] == ["18", "18"]
        assert [r["mode"] for r in aggs] == ["ne", "fe"]
        assert all(r["fully_enumerated_proportion"] == "1" for r in aggs)

    def test_rows_stream_before_the_suite_ends(self, capsys, tmp_path,
                                              data_dir, monkeypatch):
        # ``_suite_entry`` catches only ``Exception``, so this ends the run
        # on the last instance; the rows before it must already be written.
        class Abort(BaseException):
            pass

        bad_template = tmp_path / "bad_template.lad"
        bad_template.write_text("3\n0\n0\n0\n")
        real_solve = cli.solve

        def solve(problem, *args, **kwargs):
            if problem.template.edge_count() == 0:
                raise Abort
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", solve)
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"},
            {"name": "bad", "template": str(bad_template),
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        with pytest.raises(Abort):
            main(["--suite", str(data_dir), "--manifest", str(manifest),
                  "--out", str(out), "--modes", "ne,fe", "--jobs", "1"])
        rows = list(csv.DictReader(open(out)))
        assert [(r["instance"], r["mode"], r["total"]) for r in rows] == \
            [("toy", "ne", "18"), ("toy", "fe", "18")]

    def test_mode_subset(self, capsys, tmp_path, data_dir):
        manifest = self.write_manifest(tmp_path, [
            {"name": "toy", "template": "fan_template.lad",
             "world": "fan_world.lad", "format": "lad"}])
        out = tmp_path / "out.csv"
        run_cli(capsys, "--suite", str(data_dir), "--manifest", str(manifest),
                "--out", str(out), "--modes", "tewe", "--jobs", "1")
        rows = list(csv.DictReader(open(out)))
        assert [r["mode"] for r in rows] == ["tewe", "tewe"]
        assert rows[0]["representatives"] == "6"
