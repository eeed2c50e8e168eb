import argparse
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from priobeacon import analytic as an
from priobeacon import cli, sim
from priobeacon.cli import build_parser, main
from priobeacon.config import ExperimentConfig, canonical_text, derive_seed, parse_config, parse_config_text, splitmix64
from priobeacon.geometry import Category, SweepMode, category_from_token
from priobeacon.metrics import BitSums, build_estimates
from priobeacon.policy import BackoffPolicy, PolicyKind, UncategorizedMode, backoff_range
from priobeacon.sim import read_point, run_simulation


class TestSeeds:
    def test_splitmix64_reference_vector(self):
        # first outputs of the splitmix64 stream seeded at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4

    def test_point_seed_layout_disjoint(self):
        cfg = ExperimentConfig(master_seed=99)
        seeds = {cfg.scenario_seed()}
        for idx, *_ in cfg.grid_points():
            seeds.add(cfg.sim_seed(idx))
            seeds.add(cfg.subsample_seed(idx))
        assert len(seeds) == 1 + 2 * len(cfg.grid_points())


DEFAULT_CANONICAL = """[scenario]
width = 2000.0
height = 2000.0
danger_x = none
danger_y = none
density = 2e-05
th1 = 300.0
th2 = 500.0
th3 = 700.0
drop_mode = fixedcount

[policy]
policies = traditional proposed
cw = 15 127 511
categories = cat1 cat2 cat3

[contention]
n_sta = 10 20 40 80
sweep_mode = subsample

[mac]
t_ibi = 0.1
t_slot = 5e-05
difs = 0.000128
sifs = 2.8e-05
header_airtime = 4e-05
payload_bytes = 40
data_rate = 6000000.0
t_prop = 1e-06

[sim]
periods = 1000
sense_range = 700.0
full_connectivity = false
random_phase_offsets = false
uncategorized = contend
zero_based_irt = false

[seeds]
master = 1

[report]
tau_tol = 0.05
e_nbo_tol = none
delay_tol = none
r_tol = none

[output]
dir = out

"""

EVERY_KEY_SET = """[scenario]
width = 1500.0
height = 1200.0
danger_x = 700.5
danger_y = 600.25
density = 3e-05
th1 = 200.0
th2 = 400.0
th3 = 650.0
drop_mode = poissoncount

[policy]
policies = proposed traditional
cw = 31 63
categories = cat3 cat1

[contention]
n_sta = 12 24
sweep_mode = rescale

[mac]
t_ibi = 0.05
t_slot = 6.67e-05
difs = 0.0001
sifs = 3e-05
header_airtime = 5e-05
payload_bytes = 100
data_rate = 12000000.0
t_prop = 2e-06

[sim]
periods = 250
sense_range = 500.0
full_connectivity = true
random_phase_offsets = true
uncategorized = silent
zero_based_irt = true

[seeds]
master = 42

[report]
tau_tol = 0.1
e_nbo_tol = 0.2
delay_tol = 0.3
r_tol = 0.4

[output]
dir = results

"""


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()

    def test_overrides(self):
        cfg = parse_config_text(
            """
[policy]
cw = 15 127
policies = traditional
[contention]
n_sta = 5 10
sweep_mode = rescale
[sim]
periods = 250
full_connectivity = true
uncategorized = silent
[seeds]
master = 7
"""
        )
        assert cfg.cw_values == (15, 127)
        assert cfg.policies == (PolicyKind.TRADITIONAL,)
        assert cfg.n_sta == (5, 10)
        assert cfg.sweep_mode is SweepMode.RESCALE
        assert cfg.periods == 250
        assert cfg.full_connectivity is True
        assert cfg.uncategorized is UncategorizedMode.SILENT
        assert cfg.master_seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("[sim]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            parse_config_text("[nope]\nx = 1\n")

    def test_unordered_thresholds_named(self):
        with pytest.raises(ValueError, match="th1"):
            parse_config_text("[scenario]\nth1 = 500\nth2 = 300\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="sim.periods"):
            parse_config_text("[sim]\nperiods = many\n")

    def test_too_few_periods_rejected(self):
        with pytest.raises(ValueError, match="sim.periods"):
            parse_config_text("[sim]\nperiods = 99\n")
        assert parse_config_text("[sim]\nperiods = 100\n").periods == 100

    def test_proposed_small_cw_rejected(self):
        with pytest.raises(ValueError, match="policy.cw"):
            parse_config_text("[policy]\ncw = 2 15\n")
        assert parse_config_text("[policy]\npolicies = traditional\ncw = 2 15\n").cw_values == (2, 15)
        assert parse_config_text("[policy]\ncw = 3 15\n").cw_values == (3, 15)

    def test_readme_grammar_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [ln.split(";", 1)[0].rstrip() for ln in block.splitlines()]
        expected = canonical_text(ExperimentConfig()).splitlines()
        assert [ln for ln in lines if ln] == [ln for ln in expected if ln]

    def test_readme_flags_are_the_parser_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"^Flags:(.*?)\.\s", readme, re.M | re.S).group(1)
        documented = re.findall(r"`(--[\w-]+)", sentence)
        (stages,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for name, stage in stages.choices.items():
            options = [opt for action in stage._actions for opt in action.option_strings]
            assert options == ["-h", "--help", *documented], name

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out

    @pytest.mark.parametrize("stage", ["drop", "analyze", "simulate", "report", "sweep"])
    def test_help_lists_only_config_and_out(self, capsys, stage):
        with pytest.raises(SystemExit) as exc:
            main([stage, "--help"])
        assert exc.value.code == 0
        assert sorted(set(re.findall(r"--[\w-]+", capsys.readouterr().out))) == ["--config", "--help", "--out"]

    def test_canonical_round_trip(self):
        cfg = parse_config_text("[policy]\ncw = 31\n[mac]\nt_slot = 66.7e-6\n[report]\ne_nbo_tol = 0.25\n")
        assert parse_config_text(canonical_text(cfg)) == cfg
        # every key off its default: each kind's format is what its parse reads back
        cfg = parse_config_text(EVERY_KEY_SET)
        default = ExperimentConfig()
        assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == []
        assert canonical_text(cfg) == EVERY_KEY_SET
        assert parse_config_text(canonical_text(cfg)) == cfg

    def test_default_canonical_text_is_unchanged(self):
        # metadata.txt echoes this text, so its bytes are part of every run's output
        assert canonical_text(ExperimentConfig()) == DEFAULT_CANONICAL

    def test_grid_enumeration_order(self):
        cfg = ExperimentConfig(
            policies=(PolicyKind.TRADITIONAL, PolicyKind.PROPOSED), cw_values=(15, 127), n_sta=(10, 20)
        )
        points = cfg.grid_points()
        assert points[0] == (0, BackoffPolicy.traditional(15), 10)
        assert points[1] == (1, BackoffPolicy.traditional(15), 20)
        assert points[2] == (2, BackoffPolicy.traditional(127), 10)
        assert points[-1] == (7, BackoffPolicy.proposed(127), 20)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("cw", [3, 15, 127, 511])
    def test_one_all_row_exactly_when_every_category_shares_a_range(self, kind, cw):
        cfg = ExperimentConfig(policies=(kind,), cw_values=(cw,))
        policy = BackoffPolicy(kind, cw)
        ranges = {backoff_range(policy, cat) for cat in Category}
        shared = len(ranges) == 1
        assert policy.shared_range() == (ranges.pop() if shared else None)
        rows = cli._reporting_categories(cfg, policy)
        assert (rows == [("all", None)]) == shared
        assert shared == (kind is PolicyKind.TRADITIONAL)
        if not shared:
            assert rows == [("cat1", Category.CAT1), ("cat2", Category.CAT2), ("cat3", Category.CAT3)]


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def sim_outcomes(monkeypatch):
    """`run_simulation`'s outcome of each config that cmd_simulate simulates, in grid order;
    cmd_simulate streams each point's files without keeping its arrays."""
    outcomes = []
    real_points = cli.simulate_points

    def capture(out, points):
        outcomes.extend(run_simulation(config) for _, config in points)
        return real_points(out, points)

    monkeypatch.setattr(cli, "simulate_points", capture)
    return outcomes


SMALL = """
[policy]
policies = traditional
cw = 127
[contention]
n_sta = 5 10
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
"""


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs most of a second to import on every CLI call
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, priobeacon.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_states_a_window_longer_than_the_period_once(tmp_path):
    # 20 ms gives 400 slots per beacon, so cw 511 draws past the period end
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    text = SMALL.replace("cw = 127", "cw = 15 511").replace("[sim]", "[mac]\nt_ibi = 0.02\n[sim]")
    cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
    cmd = [sys.executable, "-m", "priobeacon.cli", "sweep", "--config", cfgp]
    err = subprocess.run(cmd, env=env, capture_output=True, text=True).stderr
    lines = [ln for ln in err.splitlines() if "511 exceeds 400 slots per beacon" in ln]
    assert lines == ["warning: contention window 511 exceeds 400 slots per beacon; large draws will always expire"]
    assert "UserWarning" not in err


class TestCliDrop:
    def test_writes_scenario_and_counts(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
        assert main(["drop", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        assert "80 nodes" in out
        for tok in ("cat1:", "cat2:", "cat3:", "uncat:"):
            assert tok in out
        assert (tmp_path / "out" / "scenario.txt").exists()

    def test_repeat_is_byte_identical(self, tmp_path):
        cfgp = write_config(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
        main(["drop", "--config", cfgp])
        first = (tmp_path / "out" / "scenario.txt").read_bytes()
        main(["drop", "--config", cfgp])
        assert (tmp_path / "out" / "scenario.txt").read_bytes() == first

    def test_invalid_thresholds_exit_code(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "[scenario]\nth1 = 500\nth2 = 400\nth3 = 700\n")
        assert main(["drop", "--config", cfgp]) == 2
        assert "th1" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["drop", "analyze", "simulate", "sweep"])
    def test_unallocatable_drop_is_an_error_and_writes_nothing(self, tmp_path, capsys, stage):
        # 1e14 nodes pass parse time (the count is finite) but their positions cannot be allocated
        cfgp = write_config(tmp_path, "[scenario]\nwidth = 1e7\nheight = 1e7\ndensity = 1\n")
        assert main([stage, "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


class TestCliAnalyze:
    def test_sixteen_row_grid(self, tmp_path):
        text = f"""
[policy]
policies = traditional proposed
cw = 127
categories = cat1
[contention]
n_sta = 10 20 30 40 50 60 70 80
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        assert main(["analyze", "--config", cfgp]) == 0
        lines = (tmp_path / "out" / "analytic.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 16
        assert lines[0].startswith("policy,category,cw,n_sta,tau")

    def test_single_station_row_tau_one(self, tmp_path):
        text = f"""
[policy]
policies = traditional
cw = 127
[contention]
n_sta = 1
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        assert main(["analyze", "--config", cfgp]) == 0
        row = (tmp_path / "out" / "analytic.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[4]) == 1.0

    def test_rerun_without_failed_rows_deletes_the_error_list(self, tmp_path):
        text = f"""
[policy]
policies = proposed
cw = 127
[contention]
n_sta = 1
[mac]
t_ibi = 0.001
[output]
dir = {tmp_path}/out
"""
        errors = tmp_path / "out" / "analyze_errors.txt"
        assert main(["analyze", "--config", write_config(tmp_path, text)]) == 0
        assert len(errors.read_text().splitlines()) == 2  # cat2 and cat3 start past the 20-slot period
        assert main(["analyze", "--config", write_config(tmp_path, text.replace("0.001", "0.1"))]) == 0
        assert not errors.exists()

    def test_row_the_model_cannot_allocate_fails_alone(self, tmp_path, monkeypatch):
        # a window too wide to allocate fails its own row, not the sweep
        real = an.evaluate

        def evaluate(config):
            if config.category is Category.CAT2:
                raise MemoryError("Unable to allocate 8.00 TiB")
            return real(config)

        monkeypatch.setattr(an, "evaluate", evaluate)
        text = SMALL.replace("policies = traditional", "policies = proposed") + f"[output]\ndir = {tmp_path}/out\n"
        assert main(["analyze", "--config", write_config(tmp_path, text)]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "out" / "analytic.csv").read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            values = np.array(row[4:], dtype=float)
            assert np.isnan(values).all() if row[1] == "cat2" else np.isfinite(values).all()
        errors = (tmp_path / "out" / "analyze_errors.txt").read_text().splitlines()
        assert errors == [
            f"point {i} (proposed cat2 cw=127 n_sta={n}): Unable to allocate 8.00 TiB" for i, n in ((0, 5), (1, 10))
        ]

    def test_proposed_tau_dominates_traditional_at_cw127(self, tmp_path):
        text = f"""
[policy]
policies = traditional proposed
cw = 127
categories = cat1
[contention]
n_sta = 10 20 40 80
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        main(["analyze", "--config", cfgp])
        rows = [ln.split(",") for ln in (tmp_path / "out" / "analytic.csv").read_text().strip().splitlines()[1:]]
        trad = {int(r[3]): float(r[4]) for r in rows if r[0] == "traditional"}
        prop = {int(r[3]): float(r[4]) for r in rows if r[0] == "proposed"}
        for n in (10, 20, 40, 80):
            assert prop[n] >= trad[n]


class TestCliSimulate:
    def test_manifest_and_determinism(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        manifest = (out / "manifest.csv").read_text()
        assert manifest.count(",ok,") == 2
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["simulate", "--config", cfgp]) == 0
        for p in out.iterdir():
            assert files[p.name] == p.read_bytes(), p.name

    def test_rerun_deletes_the_point_files_of_an_earlier_grid(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        for n_sta in ("5 10", "5"):
            text = SMALL.replace("n_sta = 5 10", f"n_sta = {n_sta}") + f"[output]\ndir = {out}\n"
            assert main(["simulate", "--config", write_config(tmp_path, text)]) == 0
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        named = {name for row in manifest[1:] for name in row.split(",")[7:10]}
        point_files = {p.name for pattern in ("outcome_*", "bits_*", "stats_*") for p in out.glob(pattern)}
        tag = "000_traditional_cw127_n5"
        assert named == point_files == {f"outcome_{tag}.csv", f"bits_{tag}.txt", f"stats_{tag}.csv"}
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_failed_rerun_leaves_no_point_file_of_the_earlier_run(self, tmp_path, capsys, monkeypatch):
        # after a 2-point 120-period run, a 1-point 240-period run whose bits file is written one
        # byte short fails: it leaves its own partial bits file and no file of the earlier run
        out = tmp_path / "out"
        text = SMALL + f"[output]\ndir = {out}\n"
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 0
        assert len(list(out.glob("*_n10*"))) == 3
        rerun = text.replace("n_sta = 5 10", "n_sta = 5").replace("periods = 120", "periods = 240")
        real_pwrite = os.pwrite
        monkeypatch.setattr(sim.os, "pwrite", lambda fd, data, offset: real_pwrite(fd, data[:-1], offset))
        capsys.readouterr()
        assert main(["simulate", "--config", write_config(tmp_path, rerun, "rerun.ini")]) == 2
        assert capsys.readouterr().err == "error: short write to a bits file\n"
        assert {p.name for p in out.iterdir()} == {"bits_000_traditional_cw127_n5.txt"}

    def test_failed_run_leaves_no_files_for_report_to_judge(self, tmp_path, capsys, monkeypatch):
        # after a 120-period sweep, a 240-period simulate whose second point's bits file is written
        # one byte short fails; no manifest may name the earlier sweep's point files, and the
        # report that follows fails too and leaves none of that sweep's verdict files
        out = tmp_path / "out"
        text = SMALL.replace("cw = 127", "cw = 15") + f"[output]\ndir = {out}\n"
        assert main(["sweep", "--config", write_config(tmp_path, text)]) == 0
        verdict = {"report.csv", "irt_cw15.csv", "summary.txt"}
        assert verdict | {"manifest.csv", "sim_points.csv", "metadata.txt"} <= {p.name for p in out.iterdir()}
        longer = write_config(tmp_path, text.replace("periods = 120", "periods = 240"), "longer.ini")
        real_pwrite, firsts = os.pwrite, []

        def pwrite(fd, data, offset):
            firsts.append(offset == 0)  # each point's first row, once per point
            return real_pwrite(fd, data if sum(firsts) < 2 else data[:-1], offset)

        monkeypatch.setattr(sim.os, "pwrite", pwrite)
        capsys.readouterr()
        assert main(["simulate", "--config", longer]) == 2
        assert capsys.readouterr().err == "error: short write to a bits file\n"
        assert not {"manifest.csv", "sim_points.csv", "metadata.txt"} & {p.name for p in out.iterdir()}
        assert main(["report", "--config", longer]) == 2
        assert not verdict & {p.name for p in out.iterdir()}

    def test_failed_analyze_leaves_no_rows_for_report_to_judge(self, tmp_path, capsys, monkeypatch):
        # after a sweep, an analyze whose drop fails may leave no analytic.csv (nor an error list)
        # of the earlier run, so the report that follows fails and leaves no verdict files
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, SMALL.replace("cw = 127", "cw = 15") + f"[output]\ndir = {out}\n")
        assert main(["sweep", "--config", cfgp]) == 0
        verdict = {"report.csv", "irt_cw15.csv", "summary.txt"}
        assert verdict | {"analytic.csv"} <= {p.name for p in out.iterdir()}
        (out / "analyze_errors.txt").write_text("an earlier run's failed rows\n")

        def drop_nodes(*args, **kwargs):
            raise ValueError("no drop")

        monkeypatch.setattr(cli, "drop_nodes", drop_nodes)
        capsys.readouterr()
        assert main(["analyze", "--config", cfgp]) == 2
        assert capsys.readouterr().err == "error: no drop\n"
        assert not {"analytic.csv", "analyze_errors.txt"} & {p.name for p in out.iterdir()}
        assert main(["report", "--config", cfgp]) == 2
        assert "analytic.csv" in capsys.readouterr().err
        assert not verdict & {p.name for p in out.iterdir()}

    def test_full_connectivity_override_recorded_and_no_hn(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        main(["simulate", "--config", cfgp])
        meta = (tmp_path / "out" / "metadata.txt").read_text()
        assert "full_connectivity: True" in meta
        manifest = (tmp_path / "out" / "manifest.csv").read_text().strip().splitlines()
        assert manifest[0].endswith(",full_connectivity")
        assert all(ln.endswith(",true") for ln in manifest[1:])
        for p in (tmp_path / "out").glob("outcome_*.csv"):
            for line in p.read_text().strip().splitlines()[1:]:
                assert int(line.split(",")[4]) == 0  # hn column

    def test_conservation_in_outcome_files(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        main(["simulate", "--config", cfgp])
        for p in (tmp_path / "out").glob("outcome_*.csv"):
            for line in p.read_text().strip().splitlines()[1:]:
                parts = [int(v) for v in line.split(",")[2:]]
                assert sum(parts) == 120


class TestCliReport:
    def test_complete_traditional_run_passes(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        assert main(["report", "--config", cfgp]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "overall: PASS" in summary
        assert "missing" not in summary
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert report[0] == "metric,policy,category,cw,n_sta,analytic,empirical,ci"
        assert any(ln.startswith("tau,traditional,all,127,5,") for ln in report)

    def test_irt_table_for_cw15_and_zero_based_gaps(self, tmp_path):
        text = SMALL.replace("cw = 127", "cw = 15") + f"[output]\ndir = {tmp_path}/out\n"
        cfgp = write_config(tmp_path, text)
        main(["analyze", "--config", cfgp])
        main(["simulate", "--config", cfgp])
        main(["report", "--config", cfgp])
        table = (tmp_path / "out" / "irt_cw15.csv").read_text().strip().splitlines()
        assert table[0] == "policy,category,n_sta,gap,pmf,cdf"
        gaps = [int(ln.split(",")[3]) for ln in table[1:]]
        assert min(gaps) == 1
        zero_based = write_config(tmp_path, text.replace("[sim]", "[sim]\nzero_based_irt = true"), "zero.ini")
        main(["report", "--config", zero_based])
        table0 = (tmp_path / "out" / "irt_cw15.csv").read_text().strip().splitlines()
        gaps0 = [int(ln.split(",")[3]) for ln in table0[1:]]
        assert min(gaps0) == 0

    def test_rerun_without_cw15_deletes_the_irt_table(self, tmp_path):
        table = tmp_path / "out" / "irt_cw15.csv"
        for cw, exists in (("15", True), ("127", False)):
            text = SMALL.replace("cw = 127", f"cw = {cw}") + f"[output]\ndir = {tmp_path}/out\n"
            assert main(["sweep", "--config", write_config(tmp_path, text)]) == 0
            assert table.exists() is exists

    def test_missing_point_reported_and_fails(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        main(["analyze", "--config", cfgp])
        main(["simulate", "--config", cfgp])
        # drop one simulated point from the manifest
        manifest = tmp_path / "out" / "manifest.csv"
        lines = manifest.read_text().strip().splitlines()
        manifest.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["report", "--config", cfgp]) == 1
        assert "missing" in (tmp_path / "out" / "summary.txt").read_text()


    def test_report_with_a_bad_analytic_header_leaves_no_verdict(self, tmp_path, capsys):
        # a passing sweep with cw 15 writes every verdict file; a report that then fails on an
        # analytic.csv with a wrong header returns 2 and leaves none of them
        out = tmp_path / "out"
        text = SMALL.replace("cw = 127", "cw = 15") + f"[output]\ndir = {out}\n"
        cfgp = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfgp]) == 0
        verdict = {"report.csv", "irt_cw15.csv", "summary.txt"}
        assert verdict <= {p.name for p in out.iterdir()}
        analytic = out / "analytic.csv"
        header, *rows = analytic.read_text().splitlines()
        analytic.write_text("\n".join([header.replace(",", ";"), *rows]) + "\n")
        capsys.readouterr()
        assert main(["report", "--config", cfgp]) == 2
        assert "unexpected analytic CSV header" in capsys.readouterr().err
        assert not verdict & {p.name for p in out.iterdir()}


class TestCliSweep:
    def test_end_to_end(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 0
        out = tmp_path / "out"
        for name in ("scenario.txt", "analytic.csv", "manifest.csv", "report.csv", "summary.txt"):
            assert (out / name).exists()

    def test_master_seed_changes_the_drop(self, tmp_path):
        text = SMALL + f"[output]\ndir = {tmp_path}/out\n"
        main(["drop", "--config", write_config(tmp_path, text.replace("master = 5", "master = 123"))])
        a = (tmp_path / "out" / "scenario.txt").read_bytes()
        main(["drop", "--config", write_config(tmp_path, text.replace("master = 5", "master = 124"))])
        b = (tmp_path / "out" / "scenario.txt").read_bytes()
        assert a != b

    def test_rescale_sweep_mode(self, tmp_path):
        text = f"""
[policy]
policies = traditional
cw = 127
[contention]
n_sta = 8 16
sweep_mode = rescale
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfgp]) == 0
        # rescaled drops regenerate the scenario at density n/area: exact node
        # counts with dense fresh ids (a subsample would keep sparse parent ids)
        for n in (8, 16):
            matches = list((tmp_path / "out").glob(f"outcome_*_n{n}.csv"))
            assert len(matches) == 1
            lines = matches[0].read_text().strip().splitlines()[1:]
            assert [int(ln.split(",")[0]) for ln in lines] == list(range(n))

    @pytest.mark.filterwarnings("ignore:contention window")
    def test_unsolvable_analytic_rows_do_not_abort(self, tmp_path):
        # 20-slot periods: the proposed cat2/cat3 ranges at cw 511 start past the
        # period end, so those rows have no analytic value; the sweep carries on
        text = f"""
[policy]
policies = traditional proposed
cw = 15 511
[contention]
n_sta = 10
[sim]
periods = 120
full_connectivity = true
[mac]
t_ibi = 0.001
[seeds]
master = 5
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfgp]) == 1
        out = tmp_path / "out"
        errors = (out / "analyze_errors.txt").read_text().splitlines()
        assert [ln.split(":")[0] for ln in errors] == [
            "point 3 (proposed cat2 cw=511 n_sta=10)", "point 3 (proposed cat3 cw=511 n_sta=10)"
        ]
        rows = (out / "analytic.csv").read_text().splitlines()[1:]
        assert sum(",nan," in r for r in rows) == 2 and len(rows) == 8
        manifest = (out / "manifest.csv").read_text().splitlines()[1:]
        assert len(manifest) == 4 and all(",ok," in ln for ln in manifest)
        summary = (out / "summary.txt").read_text()
        for cat in ("cat2", "cat3"):
            assert f"missing: no analytic row for ('proposed', '{cat}', 511, 10)" in summary
        assert summary.endswith("overall: FAIL\n")

    def test_uncat_category_adds_rows(self, tmp_path):
        text = f"""
[policy]
policies = proposed
cw = 127
categories = cat3 uncat
[contention]
n_sta = 40
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        main(["analyze", "--config", cfgp])
        rows = (tmp_path / "out" / "analytic.csv").read_text().strip().splitlines()[1:]
        cats = [r.split(",")[1] for r in rows]
        assert cats == ["cat3", "uncat"]
        main(["simulate", "--config", cfgp])
        assert main(["report", "--config", cfgp]) == 0
        report = (tmp_path / "out" / "report.csv").read_text()
        assert ",proposed,uncat,127,40," in report


class TestParseTimeLimits:
    def test_sweep_with_zero_occupancy_writes_nothing(self, tmp_path, capsys):
        mac = "[mac]\ndifs = 0\nsifs = 0\nheader_airtime = 0\npayload_bytes = 0\nt_prop = 0\n"
        cfgp = write_config(tmp_path, SMALL + mac + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert "at least one slot" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_too_few_periods_writes_nothing(self, tmp_path, capsys):
        text = SMALL.replace("periods = 120", "periods = 50")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert "sim.periods" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_proposed_small_cw_writes_nothing(self, tmp_path, capsys):
        text = SMALL.replace("policies = traditional", "policies = proposed").replace("cw = 127", "cw = 2 15")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert "policy.cw" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cw", [2**63, 2**63 + 1])
    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    def test_sweep_with_a_window_past_int64_writes_nothing(self, tmp_path, capsys, kind, cw):
        # draws are int64: such a window used to pass parsing and then stop `simulate`
        text = SMALL.replace("policies = traditional", f"policies = {kind}").replace("cw = 127", f"cw = {cw}")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: policy.cw: ") and str(cw) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    def test_largest_int64_window_is_drawn_and_expires(self, tmp_path, capsys, kind):
        # cw 2^63 - 1 is simulated, every packet expiring; the model cannot hold the window,
        # which fails its rows alone, so the sweep runs to the report, which fails them
        out = tmp_path / "out"
        text = SMALL.replace("policies = traditional", f"policies = {kind}").replace("cw = 127", f"cw = {2**63 - 1}")
        assert main(["sweep", "--config", write_config(tmp_path, text + f"[output]\ndir = {out}\n")]) == 1
        assert "exceeds 2000 slots per beacon" in capsys.readouterr().err
        manifest = (out / "manifest.csv").read_text().splitlines()[1:]
        assert len(manifest) == 2 and all(",ok," in row for row in manifest)
        outcome_files = list(out.glob("outcome_*.csv"))
        assert len(outcome_files) == 2
        for path in outcome_files:
            for line in path.read_text().splitlines()[1:]:
                assert line.endswith(",0,0,0,120")
        rows = (out / "analytic.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",nan" * 7) for row in rows)
        assert len((out / "analyze_errors.txt").read_text().splitlines()) == len(rows)

    @pytest.mark.parametrize("line", ["danger_x = 100", "danger_y = 100"])
    def test_sweep_with_half_a_danger_point_writes_nothing(self, tmp_path, capsys, line):
        cfgp = write_config(tmp_path, SMALL + f"[scenario]\n{line}\n[output]\ndir = {tmp_path}/out\n")
        assert main(["drop", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "scenario.danger_x" in err and "scenario.danger_y" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lines, keys",
        [
            ("width = 1e200\nheight = 1e200", "scenario.width/height/danger_x/danger_y: "),
            ("width = inf", "scenario.width/height/danger_x/danger_y: "),
            ("height = nan", "scenario.width/height/danger_x/danger_y: "),
            ("danger_x = 5000\ndanger_y = 100", "scenario.width/height/danger_x/danger_y: "),
            ("density = 1e300\nwidth = 1e5\nheight = 1e5", "scenario.density/width/height: "),
        ],
        ids=["area-overflow", "infinite-width", "nan-height", "danger-outside", "count-overflow"],
    )
    def test_drop_with_a_bad_region_writes_nothing(self, tmp_path, capsys, lines, keys):
        cfgp = write_config(tmp_path, f"[scenario]\n{lines}\n[output]\ndir = {tmp_path}/out\n")
        assert main(["drop", "--config", cfgp]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {keys}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("policies = traditional", "policies = traditional proposed traditional",
             "policy.policies must not repeat a value: traditional proposed traditional"),
            ("cw = 127", "cw = 127 15 127", "policy.cw must not repeat a value: 127 15 127"),
            ("cw = 127", "cw = 127\ncategories = cat1 cat2 cat1",
             "policy.categories must not repeat a value: cat1 cat2 cat1"),
            ("n_sta = 5 10", "n_sta = 20 20", "contention.n_sta must not repeat a value: 20 20"),
        ],
    )
    def test_sweep_with_repeated_grid_value_writes_nothing(self, tmp_path, capsys, old, new, message):
        # the values print as the config spells them
        cfgp = write_config(tmp_path, SMALL.replace(old, new) + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, name, value",
        [
            ("policies = traditional", "policies = traditional fastest", "policy.policies", "fastest"),
            ("[sim]", "[scenario]\ndrop_mode = gridded\n[sim]", "scenario.drop_mode", "gridded"),
            ("cw = 127", "cw = 127\ncategories = cat1 catx", "policy.categories", "catx"),
        ],
        ids=["policy", "drop-mode", "category"],
    )
    def test_sweep_with_unknown_name_writes_nothing(self, tmp_path, capsys, old, new, name, value):
        cfgp = write_config(tmp_path, SMALL.replace(old, new) + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}: ") and repr(value) in err
        assert not (tmp_path / "out").exists()

    def test_uncat_category_with_silent_uncategorized_writes_nothing(self, tmp_path, capsys):
        # silent removes the uncat nodes, so an uncat row could never be judged
        text = SMALL.replace("policies = traditional", "policies = proposed\ncategories = cat1 uncat")
        text = text.replace("[sim]", "[sim]\nuncategorized = silent")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "config error: policy.categories must not list uncat" in err and "sim.uncategorized = silent" in err
        assert not (tmp_path / "out").exists()

    def test_reported_uncategorized_names_the_categories_key(self, tmp_path, capsys):
        text = SMALL.replace("[sim]", "[sim]\nuncategorized = report")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.uncategorized must be contend or silent")
        assert "list uncat in policy.categories" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--periods", "200"], ["--full-connectivity"], ["--zero-based-irt"],
                 ["--include-uncategorized"]], ids=lambda flag: flag[0]
    )
    def test_sweep_with_a_setting_flag_writes_nothing(self, tmp_path, capsys, flag):
        # settings have one spelling, their config key
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfgp, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("master = 5\n" + SMALL, "no section headers"),
            (SMALL + "[seeds]\nmaster = 6\n", "section 'seeds' already exists"),
            (SMALL.replace("periods = 120", "periods = 120\nperiods = 130"), "option 'periods'"),
        ],
        ids=["key-before-section", "duplicate-section", "duplicate-key"],
    )
    def test_sweep_with_malformed_file_writes_nothing(self, tmp_path, capsys, monkeypatch, text, reason):
        monkeypatch.chdir(tmp_path)
        cfgp = write_config(tmp_path, text + "[output]\ndir = out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config file") and reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, line, name",
        [
            ("sim", "sense_range = 0", "sim.sense_range"),
            ("sim", "sense_range = inf", "sim.sense_range"),
            ("scenario", "density = 0", "scenario.density"),
            ("scenario", "density = nan", "scenario.density"),
            ("report", "tau_tol = -1", "report.tau_tol"),
            ("report", "delay_tol = inf", "report.delay_tol"),
            ("mac", "t_ibi = 0.00004", "t_ibi"),  # shorter than t_slot: no slot per period
            ("mac", "t_ibi = inf", "t_ibi"),
            ("mac", "difs = inf", "difs"),
            ("mac", "t_ibi = 1e300\nt_slot = 1e-300", "t_ibi / t_slot"),  # finite times, infinite slot count
            ("mac", "t_ibi = 2e5", "t_ibi"),  # 4e9 slots: past the simulator's int32 start slots
        ],
    )
    def test_sweep_with_bad_value_writes_nothing(self, tmp_path, capsys, section, line, name):
        header = f"[{section}]\n"
        text = SMALL.replace(header, header + line + "\n") if header in SMALL else SMALL + header + line + "\n"
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert f"config error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


TWO_POINTS = """
[policy]
policies = traditional
cw = 127
[contention]
n_sta = 10 20
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
"""


def _drop_stats_rows(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:3] + lines[5:]) + "\n"


def _bump_tx_count(text: str) -> str:
    lines = text.splitlines()
    node, cat, tx, elapsed = lines[4].split(",")
    lines[4] = f"{node},{cat},{int(tx) - 1},{elapsed}"
    return "\n".join(lines) + "\n"


def _break_stats_row(text: str) -> str:
    lines = text.splitlines()
    lines[4] = lines[4].replace(",", ";")
    return "\n".join(lines) + "\n"


def _edit_lines(text: str, edits: dict) -> str:
    """`text` with line i (from 0) replaced by edits[i](line); a None result drops the line."""
    lines = [edits[i](line) if i in edits else line for i, line in enumerate(text.splitlines())]
    return "\n".join(line for line in lines if line is not None) + "\n"


# node row 12 of the 20-node point: past the first block of 1 or 7 rows
LATER_ROW = {
    "bits-ragged-row": ("bits", {11: lambda r: r + "0"}, "bits rows differ in length"),
    # the file keeps its size, so only the block holding row 12 sees it
    "bits-ragged-rows-same-size": (
        "bits", {11: lambda r: r + "0", 14: lambda r: r[:-1]}, "bits rows differ in length"
    ),
    "bits-foreign-character": ("bits", {11: lambda r: "x" + r[1:]}, "row 12: a character other than"),
    "bits-cut-to-15-rows": ("bits", dict.fromkeys(range(15, 20), lambda r: None), "has 15 nodes but"),
    "stats-missing-two-rows": ("stats", dict.fromkeys((12, 13), lambda r: None), "has 18"),
    "stats-tx-count": (
        "stats", {12: lambda r: ",".join([*r.split(",")[:2], "0", r.split(",")[3]])}, "node row 12: tx_count 0"
    ),
    "stats-bad-line": ("stats", {12: lambda r: r.replace(",", ";")}, "line 13: malformed stats row"),
}


class TestReportPairValidation:
    """A malformed bits/stats pair fails its own point; the others are still judged."""

    @pytest.mark.parametrize(
        "prefix, corrupt, reason",
        [
            ("bits", lambda t: "\n".join(t.splitlines()[:15]) + "\n", "has 15 nodes but"),
            ("bits", lambda t: t.replace("\n", "0\n", 1), "differ in length"),
            # the count of '1's still matches tx_count, so only the character check catches it
            ("bits", lambda t: t.replace("\n", "x\n"), "a character other than '0' and '1'"),
            ("stats", _drop_stats_rows, "has 18"),
            ("stats", _bump_tx_count, "tx_count"),
            ("stats", _break_stats_row, "malformed stats row"),
        ],
        ids=[
            "bits-cut-to-15-rows", "bits-ragged-row", "bits-foreign-character", "stats-missing-two-rows",
            "stats-tx-count", "stats-bad-line",
        ],
    )
    def test_bad_pair_goes_to_missing(self, tmp_path, prefix, corrupt, reason):
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        (path,) = out.glob(f"{prefix}_001_*_n20.*")
        path.write_text(corrupt(path.read_text()))
        assert main(["report", "--config", cfgp]) == 1
        summary = (out / "summary.txt").read_text()
        bad = [ln for ln in summary.splitlines() if ln.startswith("missing: point 1 (traditional cw=127 n_sta=20): ")]
        assert len(bad) == 1 and reason in bad[0], summary
        assert "no simulated point" not in summary
        assert "point policy=traditional category=all cw=127 n_sta=10" in summary
        report = (out / "report.csv").read_text()
        assert "tau,traditional,all,127,10," in report
        assert ",traditional,all,127,20," not in report

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("case", list(LATER_ROW))
    def test_bad_row_in_a_later_block_keeps_its_reason(self, tmp_path, monkeypatch, case, block):
        # `report` reads a bits file `block` rows at a time (120 periods and a newline a row)
        prefix, edits, reason = LATER_ROW[case]
        monkeypatch.setattr(sim, "_READ_BLOCK_BYTES", block * 121)
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        (path,) = out.glob(f"{prefix}_001_*_n20.*")
        path.write_text(_edit_lines(path.read_text(), edits))
        assert main(["report", "--config", cfgp]) == 1
        summary = (out / "summary.txt").read_text()
        bad = [ln for ln in summary.splitlines() if ln.startswith("missing: point 1 (traditional cw=127 n_sta=20): ")]
        assert len(bad) == 1 and reason in bad[0], summary
        assert "point policy=traditional category=all cw=127 n_sta=10" in summary

    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize(
        "bits_edits, stats_edit, reason",
        [
            # node row 4's tx_count is off, and bits row 12 holds an 'x'
            ({11: lambda r: "x" + r[1:]}, _bump_tx_count, "row 12: a character other than '0' and '1'"),
            # bits row 4 holds an 'x', and rows 12 and 15 differ in length but keep the file's size
            ({3: lambda r: "x" + r[1:], 11: lambda r: r + "0", 14: lambda r: r[:-1]}, None, "differ in length"),
        ],
        ids=["tx-count-then-foreign-character", "foreign-character-then-ragged-row"],
    )
    def test_reason_does_not_depend_on_the_faults_blocks(
        self, tmp_path, monkeypatch, bits_edits, stats_edit, reason, block
    ):
        # the later fault wins, as when the file is read whole, though with blocks of 1 or 7
        # rows (121 bytes a row) the earlier fault lies in an earlier block
        if block is not None:
            monkeypatch.setattr(sim, "_READ_BLOCK_BYTES", block * 121)
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        (bits,) = out.glob("bits_001_*_n20.*")
        bits.write_text(_edit_lines(bits.read_text(), bits_edits))
        if stats_edit is not None:
            (stats,) = out.glob("stats_001_*_n20.*")
            stats.write_text(stats_edit(stats.read_text()))
        assert main(["report", "--config", cfgp]) == 1
        summary = (out / "summary.txt").read_text()
        bad = [ln for ln in summary.splitlines() if ln.startswith("missing: point 1 (traditional cw=127 n_sta=20): ")]
        assert len(bad) == 1 and reason in bad[0], summary

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda row: row.rsplit(",", 1)[0], "line 3 has 10 fields, not 11"),
            (lambda row: ",".join(row.split(",")[:4] + ["high"] + row.split(",")[5:]), "line 3 has a non-numeric value"),
            (lambda row: f"{row}\n{row}", "line 4 repeats the key"),
        ],
        ids=["short-row", "non-numeric", "repeated-key"],
    )
    def test_bad_analytic_row_goes_to_missing(self, tmp_path, corrupt, reason):
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        path = tmp_path / "out" / "analytic.csv"
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, corrupt(second)]) + "\n")
        assert main(["report", "--config", cfgp]) == 1
        summary = (tmp_path / "out" / "summary.txt").read_text()
        bad = [ln for ln in summary.splitlines() if ln.startswith("missing: ")]
        assert bad == [f"missing: point 1 (traditional all cw=127 n_sta=20): analytic.csv {reason}"]
        assert "point policy=traditional category=all cw=127 n_sta=10" in summary
        report = (tmp_path / "out" / "report.csv").read_text()
        assert "tau,traditional,all,127,10," in report
        assert ",traditional,all,127,20," not in report

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda row: ",".join(row.split(",")[:3]), "manifest row '1,traditional,127' is not this point's 11-field row"),
            (lambda row: row.replace(",traditional,", ",fastest,"), "manifest row '1,fastest,127,20,"),
            (lambda row: row.replace(",127,", ",15,"), "manifest row '1,traditional,15,20,"),
            (lambda row: None, "no manifest row"),
        ],
        ids=["truncated-row", "unknown-policy", "other-cw", "deleted-row"],
    )
    def test_bad_manifest_row_goes_to_missing(self, tmp_path, corrupt, reason):
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        out = tmp_path / "out"
        header, first, second = (out / "manifest.csv").read_text().splitlines()
        (out / "manifest.csv").write_text("\n".join([header, first, *filter(None, [corrupt(second)])]) + "\n")
        assert main(["report", "--config", cfgp]) == 1
        summary = (out / "summary.txt").read_text()
        bad = [ln for ln in summary.splitlines() if ln.startswith("missing: ")]
        assert len(bad) == 1 and bad[0].startswith("missing: point 1 (traditional cw=127 n_sta=20): "), summary
        assert reason in bad[0]
        assert "point policy=traditional category=all cw=127 n_sta=10" in summary
        report = (out / "report.csv").read_text()
        assert "tau,traditional,all,127,10," in report
        assert ",traditional,all,127,20," not in report

    def test_analytic_line_without_key_goes_to_missing(self, tmp_path):
        cfgp = write_config(tmp_path, TWO_POINTS + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["analyze", "--config", cfgp]) == 0
        assert main(["simulate", "--config", cfgp]) == 0
        path = tmp_path / "out" / "analytic.csv"
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, "traditional;all"]) + "\n")
        assert main(["report", "--config", cfgp]) == 1
        bad = [ln for ln in (tmp_path / "out" / "summary.txt").read_text().splitlines() if ln.startswith("missing: ")]
        assert bad == [
            "missing: analytic.csv line 3: no grid key in 'traditional;all'",
            "missing: no analytic row for ('traditional', 'all', 127, 20)",
        ]
        assert "tau,traditional,all,127,10," in (tmp_path / "out" / "report.csv").read_text()


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("full_connectivity", ["true", "false"])
    def test_outputs_do_not_depend_on_the_block_sizes(self, tmp_path, monkeypatch, full_connectivity, block):
        # `simulate` computing and writing `block` periods at a time (at 40 nodes) and `report`
        # reading `block` rows at a time give the bytes of one chunk and one read per file: the
        # bits files and report.csv, irt_cw15.csv (cw 15) and summary.txt, per category
        # (proposed) and for all nodes (traditional), at 3 ms periods where packets expire, on
        # the closed form and on the walker (700 m, where hidden nodes collide)
        text = f"""
[policy]
policies = traditional proposed
cw = 15 127
[contention]
n_sta = 20 40
[mac]
t_ibi = 0.003
[sim]
periods = 120
full_connectivity = {full_connectivity}
"""
        whole = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/whole\n", "whole.ini")
        blocks = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/blocks\n", "blocks.ini")
        assert 40 * 120 <= sim._CHUNK_NODE_PERIODS and 40 * 121 <= sim._READ_BLOCK_BYTES  # one of each
        rc = main(["sweep", "--config", whole])
        monkeypatch.setattr(sim, "_CHUNK_NODE_PERIODS", block * 40 + 39)
        monkeypatch.setattr(sim, "_READ_BLOCK_BYTES", block * 121)
        assert main(["sweep", "--config", blocks]) == rc and rc in (0, 1)
        names = sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "blocks").iterdir())
        assert {"report.csv", "irt_cw15.csv", "summary.txt"} <= set(names)
        for name in names:
            assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name
        assert "category=cat2" in (tmp_path / "whole" / "summary.txt").read_text()
        points = [line.split(",") for line in (tmp_path / "whole" / "sim_points.csv").read_text().splitlines()[1:]]
        engine = "full-connectivity" if full_connectivity == "true" else "slot-walker"
        assert {point[2] for point in points} == {engine}
        assert any(int(point[4]) > 0 for point in points) == (full_connectivity == "false")  # hn_events


class TestEstimatorRoundTrip:
    """Estimates from a SimOutcome equal, exactly, those from the files cmd_simulate writes."""

    @pytest.mark.parametrize("full_connectivity", [False, True], ids=["walker-700m", "full-connectivity"])
    def test_outcome_and_files_agree(self, tmp_path, sim_outcomes, full_connectivity):
        text = f"""
[policy]
policies = proposed
cw = 15
[contention]
n_sta = 80
[mac]
t_ibi = 0.003
[sim]
periods = 120
full_connectivity = {str(full_connectivity).lower()}
[seeds]
master = 3
[output]
dir = {tmp_path}/out
"""
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 0
        (outcome,) = sim_outcomes
        expected_engine = "full-connectivity" if full_connectivity else "slot-walker"
        assert outcome.diagnostics["engine"] == expected_engine
        if not full_connectivity:
            assert outcome.diagnostics["hn_events"] > 0
        # 60-slot periods: some packets expire, so the elapsed sums must skip them
        assert 0 < outcome.transmitted_bits().mean() < 1
        out = tmp_path / "out"
        (bits_path,) = out.glob("bits_*.txt")
        (stats_path,) = out.glob("stats_*.csv")
        present = [Category(int(c)) for c in np.unique(outcome.config.scenario.categories)]
        assert len(present) >= 3
        selections = [(None, np.arange(outcome.n_nodes))]
        selections += [(cat, outcome.category_nodes(cat)) for cat in present]
        groups = read_point(bits_path, stats_path, [cat for cat, _ in selections])
        for (cat, nodes), (bit_sums, elapsed_sums) in zip(selections, groups):
            from_outcome = build_estimates(
                BitSums.of(outcome.transmitted_bits()[nodes]), outcome.elapsed_sums()[nodes], outcome.config.params
            )
            from_files = build_estimates(bit_sums, elapsed_sums, outcome.config.params)
            assert from_outcome is not None and from_outcome.n_nodes == len(nodes)
            assert from_outcome == from_files, cat


SILENT = """
[policy]
policies = traditional proposed
cw = 127
[contention]
n_sta = 40 80
[sim]
periods = 120
full_connectivity = true
uncategorized = silent
[seeds]
master = 5
"""


def _rows_against_simulated_stations(cfgp: str) -> list[tuple[int, int, str, str]]:
    """(grid n_sta, simulated station count, analytic.csv row, expected row) per analytic row.

    The expected row is `evaluate` on the station count and category mix
    read from the point's stats file, keyed by the grid point.
    """
    cfg = parse_config(cfgp)
    out = Path(cfg.out_dir)
    rows = {ln.rsplit(",", 7)[0]: ln for ln in (out / "analytic.csv").read_text().splitlines()[1:]}
    manifest = [ln.split(",") for ln in (out / "manifest.csv").read_text().splitlines()[1:]]
    checked = []
    for idx, policy, n_sta in cfg.grid_points():
        stats = manifest[idx][9]
        cats = [category_from_token(ln.split(",")[1]) for ln in (out / stats).read_text().splitlines()[1:]]
        mix = {c: cats.count(c) / len(cats) for c in Category}
        for tok, cat in cli._reporting_categories(cfg, policy):
            model = an.ContentionConfig(
                n_sta=len(cats), policy=policy, category=cat, params=cfg.mac_params(), category_mix=mix
            )
            key = (policy.kind.value, tok, policy.cw, n_sta)
            expected = an.analytic_csv_row(key, an.evaluate(model))
            checked.append((n_sta, len(cats), rows[",".join(map(str, key))], expected))
    return checked


class TestPointStations:
    """The model and the simulation of a grid point run the same stations."""

    def test_silent_uncategorized_removed(self, tmp_path, sim_outcomes):
        text = SILENT.replace("traditional proposed", "proposed").replace("n_sta = 40 80", "n_sta = 80")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfgp]) == 0
        sc = cli._drop_scenario(parse_config(cfgp))  # n_sta 80 is the whole drop
        (out,) = sim_outcomes
        assert (out.config.scenario.categories != int(Category.UNCATEGORIZED)).all()
        assert out.n_nodes == int((sc.categories != Category.UNCATEGORIZED).sum())

    @pytest.mark.parametrize("sim", ["full_connectivity = true", "random_phase_offsets = true"])
    def test_sim_points_record_stations_and_diagnostics(self, tmp_path, sim_outcomes, sim):
        text = SILENT.replace("full_connectivity = true", sim) + f"[output]\ndir = {tmp_path}/out\n"
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 0
        out = tmp_path / "out"
        manifest = [ln.split(",") for ln in (out / "manifest.csv").read_text().splitlines()[1:]]
        lines = (out / "sim_points.csv").read_text().splitlines()
        assert lines[0] == "index,stations,engine,sync_events,hn_events,dual_label_events"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == [m[0] for m in manifest]
        assert len(sim_outcomes) == len(rows) == 4
        for row, point, outcome in zip(rows, manifest, sim_outcomes):
            stations = len((out / point[9]).read_text().splitlines()) - 1
            assert int(row[1]) == stations == outcome.n_nodes
            diag = outcome.diagnostics
            assert row[2:] == [diag["engine"], *(str(diag[k]) for k in ("sync_events", "hn_events", "dual_label_events"))]
        assert any(int(r[1]) < int(m[3]) for r, m in zip(rows, manifest))  # silent left some stations out

    def test_silent_sweep_models_the_simulated_stations(self, tmp_path):
        cfgp = write_config(tmp_path, SILENT + f"[output]\ndir = {tmp_path}/out\n")
        main(["sweep", "--config", cfgp])
        checked = _rows_against_simulated_stations(cfgp)
        assert len(checked) == 8
        assert any(n != n_sta for n_sta, n, _, _ in checked)  # silent left some stations out
        for _n_sta, _n, row, expected in checked:
            assert row == expected
        out = tmp_path / "out"
        files = ["analytic.csv", "report.csv", "summary.txt"]
        for path in [*out.glob("outcome_*.csv"), *out.glob("stats_*.csv"), *(out / f for f in files)]:
            assert "uncat" not in path.read_text(), path.name

    def test_rescale_poissoncount_models_the_simulated_stations(self, tmp_path):
        text = f"""
[scenario]
drop_mode = poissoncount
[policy]
policies = traditional
cw = 127
[contention]
n_sta = 10 20 40 80
sweep_mode = rescale
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
[output]
dir = {tmp_path}/out
"""
        cfgp = write_config(tmp_path, text)
        main(["sweep", "--config", cfgp])
        checked = _rows_against_simulated_stations(cfgp)
        assert [n_sta for n_sta, *_ in checked] == [10, 20, 40, 80]
        assert any(n != n_sta for n_sta, n, _, _ in checked)  # a Poisson count rarely hits n_sta
        for _n_sta, _n, row, expected in checked:
            assert row == expected

    def test_silent_with_no_station_left_fails_per_point(self, tmp_path):
        # every vehicle lies beyond 3 m of the danger, so all are uncategorized and silent
        text = SILENT + f"[scenario]\nth1 = 1\nth2 = 2\nth3 = 3\n[output]\ndir = {tmp_path}/out\n"
        assert main(["sweep", "--config", write_config(tmp_path, text)]) == 1
        out = tmp_path / "out"
        rows = (out / "analytic.csv").read_text().splitlines()[1:]
        assert len(rows) == 8 and all(r.endswith(",nan,nan,nan,nan,nan,nan,nan") for r in rows)
        errors = (out / "analyze_errors.txt").read_text().splitlines()
        manifest = (out / "manifest.csv").read_text().splitlines()[1:]
        assert len(errors) == 4 and len(manifest) == 4
        for error, row in zip(errors, manifest):  # both stages give each point the same reason
            status = row.split(",")[6]
            assert status.startswith("error: ") and error.endswith("): " + status.removeprefix("error: "))
        assert (out / "sim_points.csv").read_text().splitlines()[1:] == []
        summary = (out / "summary.txt").read_text()
        assert summary.count("missing: point ") == 4
        assert "no simulated point" not in summary  # each failed point is reported once
        assert summary.endswith("overall: FAIL\n")
