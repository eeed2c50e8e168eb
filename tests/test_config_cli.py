from pathlib import Path

import numpy as np
import pytest

from priobeacon import analytic as an
from priobeacon import cli
from priobeacon.cli import main
from priobeacon.config import ExperimentConfig, canonical_text, derive_seed, parse_config, parse_config_text, splitmix64
from priobeacon.geometry import Category, category_from_token
from priobeacon.metrics import GridKey, build_estimates


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
[sim]
periods = 250
full_connectivity = true
[seeds]
master = 7
"""
        )
        assert cfg.cw_values == (15, 127)
        assert cfg.policies == ("traditional",)
        assert cfg.n_sta == (5, 10)
        assert cfg.periods == 250
        assert cfg.full_connectivity is True
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

    def test_canonical_round_trip(self):
        cfg = parse_config_text("[policy]\ncw = 31\n[mac]\nt_slot = 66.7e-6\n[report]\ne_nbo_tol = 0.25\n")
        assert parse_config_text(canonical_text(cfg)) == cfg

    def test_grid_enumeration_order(self):
        cfg = ExperimentConfig(policies=("traditional", "proposed"), cw_values=(15, 127), n_sta=(10, 20))
        points = cfg.grid_points()
        assert points[0] == (0, "traditional", 15, 10)
        assert points[1] == (1, "traditional", 15, 20)
        assert points[2] == (2, "traditional", 127, 10)
        assert points[-1] == (7, "proposed", 127, 20)


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def sim_outcomes(monkeypatch):
    """Every SimOutcome that cmd_simulate produces, in grid order."""
    outcomes = []
    real_run = cli.run_simulations

    def capture(configs):
        for outcome in real_run(configs):
            outcomes.append(outcome)
            yield outcome

    monkeypatch.setattr(cli, "run_simulations", capture)
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

    def test_irt_table_for_cw15_and_zero_based_flag(self, tmp_path):
        text = SMALL.replace("cw = 127", "cw = 15") + f"[output]\ndir = {tmp_path}/out\n"
        cfgp = write_config(tmp_path, text)
        main(["analyze", "--config", cfgp])
        main(["simulate", "--config", cfgp])
        main(["report", "--config", cfgp])
        table = (tmp_path / "out" / "irt_cw15.csv").read_text().strip().splitlines()
        assert table[0] == "policy,category,n_sta,gap,pmf,cdf"
        gaps = [int(ln.split(",")[3]) for ln in table[1:]]
        assert min(gaps) == 1
        main(["report", "--config", cfgp, "--zero-based-irt"])
        table0 = (tmp_path / "out" / "irt_cw15.csv").read_text().strip().splitlines()
        gaps0 = [int(ln.split(",")[3]) for ln in table0[1:]]
        assert min(gaps0) == 0

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


class TestCliSweep:
    def test_end_to_end(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 0
        out = tmp_path / "out"
        for name in ("scenario.txt", "analytic.csv", "manifest.csv", "report.csv", "summary.txt"):
            assert (out / name).exists()

    def test_seed_flag_overrides_master(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        main(["drop", "--config", cfgp, "--seed", "123"])
        a = (tmp_path / "out" / "scenario.txt").read_bytes()
        main(["drop", "--config", cfgp, "--seed", "124"])
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

    def test_include_uncategorized_adds_rows(self, tmp_path):
        text = f"""
[policy]
policies = proposed
cw = 127
categories = cat3
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
        main(["analyze", "--config", cfgp, "--include-uncategorized"])
        rows = (tmp_path / "out" / "analytic.csv").read_text().strip().splitlines()[1:]
        cats = [r.split(",")[1] for r in rows]
        assert cats == ["cat3", "uncat"]
        main(["simulate", "--config", cfgp, "--include-uncategorized"])
        assert main(["report", "--config", cfgp, "--include-uncategorized"]) == 0
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
        cfgp = write_config(tmp_path, SMALL + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp, "--periods", "50"]) == 2
        assert "sim.periods" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_proposed_small_cw_writes_nothing(self, tmp_path, capsys):
        text = SMALL.replace("policies = traditional", "policies = proposed").replace("cw = 127", "cw = 2 15")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["sweep", "--config", cfgp]) == 2
        assert "policy.cw" in capsys.readouterr().err
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


class TestReportPairValidation:
    """A malformed bits/stats pair fails its own point; the others are still judged."""

    @pytest.mark.parametrize(
        "prefix, corrupt, reason",
        [
            ("bits", lambda t: "\n".join(t.splitlines()[:15]) + "\n", "has 15 nodes but"),
            ("bits", lambda t: t.replace("\n", "0\n", 1), "differ in length"),
            ("stats", _drop_stats_rows, "has 18"),
            ("stats", _bump_tx_count, "tx_count"),
            ("stats", _break_stats_row, "malformed stats row"),
        ],
        ids=["bits-cut-to-15-rows", "bits-ragged-row", "stats-missing-two-rows", "stats-tx-count", "stats-bad-line"],
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
        assert "point policy=traditional category=all cw=127 n_sta=10" in summary
        report = (out / "report.csv").read_text()
        assert "tau,traditional,all,127,10," in report
        assert ",traditional,all,127,20," not in report


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
        bits, cats, elapsed_sums = cli._read_point(bits_path, stats_path)

        present = [Category(int(c)) for c in np.unique(outcome.categories)]
        assert len(present) >= 3
        selections = [("all", np.arange(outcome.n_nodes))]
        selections += [(cat.token, outcome.category_nodes(cat)) for cat in present]
        for tok, nodes in selections:
            key = GridKey("proposed", tok, 15, 80)
            from_outcome = build_estimates(
                key, outcome.transmitted_bits()[nodes], outcome.elapsed_sums()[nodes], outcome.params
            )
            sel = [i for i, c in enumerate(cats) if tok in ("all", c)]
            from_files = build_estimates(key, bits[sel], elapsed_sums[sel], outcome.params)
            assert from_outcome is not None and from_outcome.n_nodes == len(nodes)
            assert from_outcome == from_files, tok


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
    checked = []
    for line in (out / "manifest.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        policy_name, cw, n_sta = parts[1], int(parts[2]), int(parts[3])
        cats = [category_from_token(ln.split(",")[1]) for ln in (out / parts[9]).read_text().splitlines()[1:]]
        mix = {c: cats.count(c) / len(cats) for c in Category}
        policy = cli._make_policy(cfg, policy_name, cw)
        for tok, cat in cli._reporting_categories(cfg, policy_name):
            model = an.ContentionConfig(
                n_sta=len(cats), policy=policy, category=cat, params=cfg.mac_params(), category_mix=mix
            )
            key = f"{policy_name},{tok},{cw},{n_sta}"
            checked.append((n_sta, len(cats), rows[key], f"{key},{an.analytic_csv_values(an.evaluate(model))}"))
    return checked


class TestPointStations:
    """The model and the simulation of a grid point run the same stations."""

    def test_silent_uncategorized_removed(self, tmp_path, sim_outcomes):
        text = SILENT.replace("traditional proposed", "proposed").replace("n_sta = 40 80", "n_sta = 80")
        cfgp = write_config(tmp_path, text + f"[output]\ndir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfgp]) == 0
        sc = cli._drop_scenario(parse_config(cfgp))  # n_sta 80 is the whole drop
        (out,) = sim_outcomes
        assert (out.categories != int(Category.UNCATEGORIZED)).all()
        assert out.n_nodes == sum(1 for nd in sc.nodes if nd.category is not Category.UNCATEGORIZED)

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
        assert len(errors) == 4 and all("empty scenario" in ln for ln in errors)
        manifest = (out / "manifest.csv").read_text().splitlines()[1:]
        assert len(manifest) == 4 and all(",error: " in ln for ln in manifest)
        assert (out / "sim_points.csv").read_text().splitlines()[1:] == []
        summary = (out / "summary.txt").read_text()
        assert summary.count("missing: point ") == 4
        assert summary.endswith("overall: FAIL\n")
