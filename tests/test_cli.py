"""Stream grammar, engine selection, exit codes, benchmark output."""

import io
import json

import pytest

from skewivm import cli
from skewivm.cli import (ConfigError, RunConfig, StreamFormatError, Update,
                         family_arities, format_stream, parse_stream)


class TestParseStream:
    def test_basic_insert(self):
        ups = parse_stream(["R + 1 2"], family_arities("triangle"))
        assert ups == [Update("R", (1, 2), 1)]

    def test_delete_with_multiplicity(self):
        ups = parse_stream(["S - 2 3 * 4"], family_arities("triangle"))
        assert ups == [Update("S", (2, 3), -4)]

    def test_comments_and_blanks_skipped(self):
        ups = parse_stream(["# header", "", "T + 3 1  # trailing"],
                           family_arities("triangle"))
        assert ups == [Update("T", (3, 1), 1)]

    def test_arity_mismatch(self):
        with pytest.raises(StreamFormatError):
            parse_stream(["T + 3"], family_arities("triangle"))

    def test_zero_multiplicity(self):
        with pytest.raises(StreamFormatError):
            parse_stream(["R + 1 2 * 0"], family_arities("triangle"))

    def test_unknown_relation(self):
        with pytest.raises(StreamFormatError):
            parse_stream(["X + 1 2"], family_arities("triangle"))

    def test_family_shapes(self):
        assert family_arities("path4") == {"R": 1, "S": 2, "T": 2, "U": 1}
        assert family_arities("lw:4") == {"R1": 3, "R2": 3, "R3": 3, "R4": 3}
        with pytest.raises(ConfigError):
            family_arities("lw:2")
        with pytest.raises(ConfigError):
            family_arities("pentagon")

    def test_round_trip(self):
        ups = [Update("R", (1, 2), 3), Update("S", (4, 5), -1), Update("T", (6, 7), -2)]
        assert parse_stream(format_stream(ups), family_arities("triangle")) == ups

    def test_generator_streams_round_trip(self):
        for gen in cli.GENERATORS.values():
            ups = gen(50, 1, "triangle")
            assert parse_stream(format_stream(ups), family_arities("triangle")) == ups


class TestConfigValidation:
    def test_classic_requires_extreme_epsilon(self):
        cfg = RunConfig(mode="classic", eps=0.5)
        with pytest.raises(ConfigError):
            cfg.validate()
        RunConfig(mode="classic", eps=1.0).validate()

    def test_factorized_requires_mixed_binary_triple(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="factorized", eps_rst=(0.5, 0.0, 1.0)).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="factorized", eps_rst=(1.0, 1.0, 1.0)).validate()
        RunConfig(mode="factorized", eps_rst=(0.0, 0.0, 1.0)).validate()

    def test_epsilon_rst_is_refused_outside_factorized_mode(self, tmp_path):
        # without factorized mode the per-relation exponents would be ignored
        with pytest.raises(ConfigError):
            RunConfig(eps_rst=(0.0, 0.0, 1.0)).validate()
        path = tmp_path / "stream.txt"
        path.write_text("R + 1 2\n", encoding="utf-8")
        assert cli.main(["run", "--epsilon-rst", "0,0,1", "--stream", str(path)]) == 2
        assert cli.main(["run", "--mode", "factorized", "--epsilon-rst", "0,0,1",
                         "--stream", str(path)]) == 0

    def test_epsilon_is_refused_where_no_engine_reads_it(self, tmp_path, capsys):
        # factorized mode takes its exponents from --epsilon-rst, and static
        # mode counts at 1/2: an explicit --epsilon would be ignored there
        for mode, extra in (("factorized", ["--epsilon-rst", "0,0,1"]), ("static", [])):
            with pytest.raises(ConfigError, match="--epsilon"):
                RunConfig(mode=mode, eps=0.1,
                          eps_rst=(0.0, 0.0, 1.0) if extra else None).validate()
            path = tmp_path / "stream.txt"
            path.write_text("R + 1 2\nS + 2 3\nT + 3 1\n", encoding="utf-8")
            args = ["run", "--mode", mode, *extra, "--stream", str(path)]
            assert cli.main(args + ["--epsilon", "0.1"]) == 2
            assert "--epsilon" in capsys.readouterr().err
            assert cli.main(args) == 0
            assert json.loads(capsys.readouterr().out)["answer"] == 1

    def test_epsilon_defaults_to_one_half_where_it_is_read(self):
        assert RunConfig().eps is None
        assert cli.build_engine(RunConfig()).eps == 0.5
        assert cli.build_engine(RunConfig(query="lw:4", eps=0.25)).eps == 0.25
        assert cli.build_engine(RunConfig(mode="factorized",
                                          eps_rst=(0.0, 0.0, 1.0))).eps == (0.0, 0.0, 1.0)

    def test_refined_and_enum_are_triangle_only(self):
        with pytest.raises(ConfigError):
            RunConfig(query="path4", mode="refined").validate()
        with pytest.raises(ConfigError):
            RunConfig(query="triangle-selfjoin", mode="enum").validate()


class TestRun:
    def triangle_file(self, tmp_path, lines):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_final_record_of_one_triangle(self, tmp_path, capsys):
        path = self.triangle_file(tmp_path, ["R + 1 2", "S + 2 3", "T + 3 1"])
        rc = cli.main(["run", "--stream", path, "--verify"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["answer"] == 1 and rec["step"] == 3

    def test_per_step_emission(self, tmp_path, capsys):
        path = self.triangle_file(tmp_path, ["R + 1 2", "S + 2 3", "T + 3 1"])
        rc = cli.main(["run", "--stream", path, "--emit", "per-step"])
        assert rc == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["answer"] for r in recs] == [0, 0, 1]
        assert all({"step", "answer", "N", "db_size", "ops", "rebalances",
                    "pending_moves"} <= set(r) for r in recs)

    def test_verify_passes_on_generated_streams(self, tmp_path):
        for query, mode in (("triangle", "ivm-eps"), ("triangle", "refined"),
                            ("triangle-selfjoin", "ivm-eps"), ("path4", "ivm-eps"),
                            ("lw:4", "ivm-eps")):
            ups = cli.random_mixed_stream(query, 120, 6, seed=3)
            path = tmp_path / f"{query.replace(':', '_')}.txt"
            path.write_text("\n".join(format_stream(ups)) + "\n", encoding="utf-8")
            rc = cli.main(["run", "--query", query, "--mode", mode,
                           "--stream", str(path), "--verify"])
            assert rc == 0, (query, mode)

    def test_static_mode(self, tmp_path, capsys):
        path = self.triangle_file(tmp_path, ["R + 1 2", "S + 2 3", "T + 3 1",
                                             "R + 1 2 * 2"])
        rc = cli.main(["run", "--mode", "static", "--stream", path, "--verify"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["answer"] == 3

    def test_exit_code_config_error(self, tmp_path):
        path = self.triangle_file(tmp_path, ["R + 1 2"])
        assert cli.main(["run", "--mode", "classic", "--epsilon", "0.5",
                         "--stream", path]) == 2

    def test_exit_code_io_error(self):
        assert cli.main(["run", "--stream", "/nonexistent/stream.txt"]) == 3

    def test_exit_code_verification_failure(self, tmp_path, monkeypatch):
        class LyingTracker:
            count = 99

            def update(self, *args):
                pass

        monkeypatch.setattr(cli, "build_tracker", lambda query: LyingTracker())
        path = self.triangle_file(tmp_path, ["R + 1 2"])
        assert cli.main(["run", "--stream", path, "--verify"]) == 1

    def test_metrics_file_written(self, tmp_path, capsys):
        path = self.triangle_file(tmp_path, ["R + 1 2", "S + 2 3", "T + 3 1"])
        metrics = tmp_path / "metrics.jsonl"
        rc = cli.main(["run", "--stream", path, "--metrics", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        lines = metrics.read_text().splitlines()
        assert len(lines) == 3 and json.loads(lines[-1])["answer"] == 1


class TestBench:
    def test_csv_with_slope_column(self):
        cfg = RunConfig(query="triangle", mode="ivm-eps", eps=0.5, seed=1)
        buf = io.StringIO()
        rc = cli.bench(cfg, [200, 800, 3200], gen="er", out=buf)
        assert rc == 0
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 4  # header + one row per size
        header = lines[0].split(",")
        assert {"slope", "total_ops", "pending_moves"} <= set(header)
        slope_col = header.index("slope")
        slopes = {line.split(",")[slope_col] for line in lines[1:]}
        assert len(slopes) == 1 and "" not in slopes

    def test_slope_empty_below_three_sizes(self):
        cfg = RunConfig(query="triangle", mode="ivm-eps", eps=0.5, seed=1)
        buf = io.StringIO()
        cli.bench(cfg, [200, 800], gen="er", out=buf)
        lines = buf.getvalue().strip().splitlines()
        slope_col = lines[0].split(",").index("slope")
        assert all(line.split(",")[slope_col] == "" for line in lines[1:])

    def test_deterministic_under_fixed_seed(self):
        cfg = RunConfig(query="triangle", mode="ivm-eps", eps=0.5, seed=7)
        a, b = io.StringIO(), io.StringIO()
        cli.bench(cfg, [300, 600, 1200], gen="hub", out=a)
        cli.bench(cfg, [300, 600, 1200], gen="hub", out=b)
        strip = lambda s: [line.rsplit(",", 2)[0] + line.rsplit(",", 1)[1]
                           for line in s.getvalue().splitlines()]  # drop wall time
        assert strip(a) == strip(b)

    def test_seed_is_a_bench_option(self, tmp_path, capsys):
        # run replays a given stream, so a seed there would do nothing
        path = tmp_path / "stream.txt"
        path.write_text("R + 1 2\n", encoding="utf-8")
        assert cli.main(["run", "--seed", "3", "--stream", str(path)]) == 2
        capsys.readouterr()
        outs = []
        for seed in ("1", "1", "2"):
            assert cli.main(["bench", "--gen", "er", "--sizes", "300", "--seed", seed]) == 0
            header, row = capsys.readouterr().out.strip().splitlines()
            wall = header.split(",").index("wall_s")
            outs.append(row.split(",")[:wall])
        assert outs[0] == outs[1] != outs[2]

    @pytest.mark.parametrize("gen", sorted(cli.GENERATORS))
    @pytest.mark.parametrize("query", ["triangle", "triangle-selfjoin", "path4", "lw:4"])
    def test_every_family_and_generator_runs_or_is_refused_up_front(
            self, query, gen, monkeypatch, capsys):
        built = []
        real_build = cli.build_engine
        monkeypatch.setattr(cli, "build_engine",
                            lambda cfg: built.append(cfg) or real_build(cfg))
        rc = cli.main(["bench", "--query", query, "--gen", gen, "--sizes", "40,90"])
        if gen in ("hub", "space") and query != "triangle":
            assert rc == 2
            assert not built
            assert "triangle streams only" in capsys.readouterr().err
        else:
            assert rc == 0
            assert len(built) == 2
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 3 and lines[1].startswith(f"{query},")

    def test_static_mode_is_refused_before_any_stream(self, monkeypatch, capsys):
        made = []
        real_er = cli.GENERATORS["er"]
        monkeypatch.setitem(cli.GENERATORS, "er",
                            lambda *args: made.append(args) or real_er(*args))
        rc = cli.main(["bench", "--mode", "static", "--gen", "er", "--sizes", "300,600,1200"])
        captured = capsys.readouterr()
        assert rc == 2 and not made and not captured.out
        assert "static mode" in captured.err
        with pytest.raises(ConfigError):
            cli.bench(RunConfig(mode="static"), [40], gen="er", out=io.StringIO())

    def test_er_emits_each_relation_at_its_arity(self):
        for query in ("triangle", "triangle-selfjoin", "path4", "lw:4", "lw:5"):
            arities = family_arities(query)
            ups = cli.GENERATORS["er"](60, 2, query)
            assert {u.rel for u in ups} == set(arities)
            assert all(len(u.values) == arities[u.rel] for u in ups)


def test_main_usage_error_returns_2():
    assert cli.main(["run", "--mode", "bogus"]) == 2
