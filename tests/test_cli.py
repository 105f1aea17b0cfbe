import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from holeflow.cli import Config, load_config, main
from holeflow.dvar import read_dvar
from holeflow.iteration import ExperimentResult

# SHA-256 of every file that `experiment --j 1 --level 4` writes
CLI_EXPERIMENT_PIN = Path(__file__).with_name("cli_experiment_l4_sha256.json")


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha = 0.6\nQ = 3\n# comment\nzeta = 0.2\n")
        cfg = load_config(p)
        assert cfg.alpha == 0.6 and cfg.Q == 3 and cfg.zeta == 0.2
        assert cfg.r0 == 0.1  # untouched default

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(p)

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, where):
        p = tmp_path / "run.cfg"
        p.write_text("seed = -1\n")
        argv = (["--seed=-1"] if where == "flag" else ["--config", str(p)])
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--suite", "grassmann", *argv)
        assert err.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["alpha", "r0", "zeta", "delta", "eps",
                                     "dt_factor"])
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys, key,
                                             value, where):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        argv = ([f"{flag}={value}"] if where == "flag"
                else ["--config", str(p)])
        out = tmp_path / "out.dvar"
        with pytest.raises(SystemExit) as err:
            run_cli("gen-fixture", "--out", str(out), *argv)
        assert err.value.code == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize("key", ["quad_order", "threads"])
    def test_removed_knob_is_usage_error(self, tmp_path, capsys, key, where):
        # the quadrature rule and the thread count are fixed in the library
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = 1\n")
        flag = "--" + key.replace("_", "-")
        argv = ([f"{flag}=1"] if where == "flag" else ["--config", str(p)])
        out = tmp_path / "out.dvar"
        with pytest.raises(SystemExit) as err:
            run_cli("gen-fixture", "--out", str(out), *argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert (f"unknown key {key!r}" in err_text if where == "file"
                else f"unrecognized arguments: {flag}=1" in err_text)
        assert not out.exists()

    def test_critical_alpha_guard(self):
        cfg = Config(alpha=0.5)
        with pytest.raises(ValueError):
            cfg.validate()
        cfg.validate(allow_critical=True)


class TestGenFixture:
    def test_writes_readable_mesh(self, tmp_path):
        out = tmp_path / "fix.dvar"
        rc = run_cli("gen-fixture", "--kind", "flat_stack", "--Q", "2",
                     "--level", "4", "--out", str(out))
        assert rc == 0
        v = read_dvar(out)
        assert v.num_faces == 2 * 6 * 16**2
        from holeflow.varifold import density_ratio
        assert density_ratio(v, np.zeros(3), 0.1) == pytest.approx(2.0,
                                                                   rel=0.02)

    def test_branched_disk_passes_envelope(self, tmp_path):
        out = tmp_path / "branch.dvar"
        rc = run_cli("gen-fixture", "--kind", "branched_disk", "--Q", "2",
                     "--level", "4", "--out", str(out))
        assert rc == 0
        from holeflow.geom import coordinate_plane
        from holeflow.nucleation import GrowthEnvelope, envelope_check
        v = read_dvar(out)
        ok, _ = envelope_check(v, GrowthEnvelope(alpha=0.51, r0=0.1),
                               coordinate_plane([0, 1], 3))
        assert ok

    def test_invalid_q_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-fixture", "--Q", "0", "--out",
                    str(tmp_path / "x.dvar"))
        assert err.value.code == 2

    @pytest.mark.parametrize("radius", ["-1", "0", "inf"])
    def test_non_positive_radius_is_usage_error(self, tmp_path, capsys,
                                                radius):
        out = tmp_path / "x.dvar"
        with pytest.raises(SystemExit) as err:
            run_cli("gen-fixture", "--radius", radius, "--out", str(out))
        assert err.value.code == 2
        assert "--radius: must be positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command,out_flag", [("gen-fixture", "--out"),
                                              ("expanding-holes", "--out"),
                                              ("experiment", "--out-dir")])
@pytest.mark.parametrize("spacing", ["nan", "inf", "-inf"])
def test_non_finite_spacing_is_usage_error(tmp_path, capsys, command,
                                           out_flag, spacing):
    with pytest.raises(SystemExit) as err:
        run_cli(command, f"--spacing={spacing}", out_flag,
                str(tmp_path / "out"))
    assert err.value.code == 2
    assert "--spacing: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestNucleateCommand:
    def test_roundtrip_and_checks(self, tmp_path, capsys):
        fix = tmp_path / "fix.dvar"
        run_cli("gen-fixture", "--Q", "2", "--level", "4", "--out", str(fix))
        out = tmp_path / "nuc.dvar"
        rc = run_cli("nucleate", "--mesh", str(fix), "--eps", "0.05",
                     "--out", str(out))
        assert rc == 0
        assert read_dvar(out).total_mass() < read_dvar(fix).total_mass()

    def test_eps_too_large_refused(self, tmp_path, capsys):
        fix = tmp_path / "fix.dvar"
        run_cli("gen-fixture", "--Q", "2", "--level", "4",
                "--spacing", "0.01", "--out", str(fix))
        rc = run_cli("nucleate", "--mesh", str(fix), "--eps", "0.05",
                     "--out", str(tmp_path / "nuc.dvar"))
        assert rc == 1
        assert "height bound" in capsys.readouterr().err

    def test_corrupt_mesh_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.dvar"
        bad.write_text("DVAR 1 3\nv 0 0 0\nv oops 0 0\n")
        rc = run_cli("nucleate", "--mesh", str(bad), "--eps", "0.05",
                     "--out", str(tmp_path / "x.dvar"))
        assert rc == 1
        assert "line 3" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        rc = run_cli("verify", "--suite", "grassmann")
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite grassmann: PASS" in out
        assert "heat" not in out

    def test_corrupt_mesh_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.dvar"
        bad.write_text("not a mesh\n")
        rc = run_cli("verify", "--suite", "grassmann", "--mesh", str(bad))
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_all_suites(self, capsys):
        rc = run_cli("verify")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("suite ") and ": PASS (" in line
                   for line in lines)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--suite", "bogus")
        assert err.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestSeriesAndReport:
    def test_series_only_schedule(self, tmp_path):
        out_dir = tmp_path / "series"
        rc = run_cli("series", "--K", "50", "--J", "200",
                     "--out-dir", str(out_dir))
        assert rc == 0
        sched = json.loads((out_dir / "schedule.json").read_text())
        assert sched["depth"] == 200 and sched["tail_start"] == 50
        assert len(sched["terms"]) == 150
        assert (out_dir / "plot" / "series.dat").exists()

    def test_tail_start_below_three_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("series", "--K", "2", "--J", "10",
                     "--out-dir", str(tmp_path / "s"))
        assert rc == 2
        assert "tail start must be >= 3" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_series_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            run_cli("series", "--K", "10", "--J", "40", "--out-dir", str(d))
        assert (a / "schedule.json").read_bytes() == \
            (b / "schedule.json").read_bytes()
        assert (a / "plot" / "series.dat").read_bytes() == \
            (b / "plot" / "series.dat").read_bytes()

    def test_headers_embed_config_and_hash(self, tmp_path):
        d = tmp_path / "s"
        run_cli("series", "--K", "10", "--J", "40", "--out-dir", str(d))
        text = (d / "plot" / "series.dat").read_text()
        assert text.startswith("# holeflow config:")
        assert "# inputs-sha1:" in text

    def test_inputs_hash_covers_arguments(self, tmp_path):
        # --J changes the output, so it changes the hash in the header and
        # in the _meta block; a repeated run keeps both
        def hashes(name, j):
            d = tmp_path / name
            assert run_cli("series", "--K", "3", "--J", j,
                           "--out-dir", str(d)) == 0
            header = (d / "plot" / "series.dat").read_text().splitlines()[1]
            meta = json.loads((d / "schedule.json").read_text())["_meta"]
            assert header == f"# inputs-sha1: {meta['inputs_sha1']}"
            return header

        first = hashes("a", "10")
        assert hashes("b", "20") != first
        assert hashes("c", "10") == first

    def test_report_reads_summary(self, tmp_path, capsys):
        d = tmp_path / "exp"
        d.mkdir()
        (d / "summary.json").write_text(json.dumps({
            "passes": True, "mass_initial": 1.0, "mass_final": 0.5,
            "mass_after_nucleation": 0.9, "mass_drop_required": 0.1,
            "lef2_lhs": 0.2, "lef2_rhs": 0.4, "final_ratio": 2.5,
            "omega_n": 3.14, "density_sup": 2.0}))
        assert run_cli("report", "--dir", str(d)) == 0
        (d / "summary.json").write_text(json.dumps({"passes": False}))
        assert run_cli("report", "--dir", str(d)) == 1


class TestExpandingHolesCommand:
    def test_writes_excess_report(self, tmp_path):
        out = tmp_path / "excess_report.json"
        rc = run_cli("expanding-holes", "--kind", "flat_stack",
                     "--spacing", "0.001", "--level", "4",
                     "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        for key in ("times", "mu_sq", "alpha_sq", "mass_ratio_start",
                    "mass_ratio_end", "empirical_M",
                    "dissipation", "config", "_meta"):
            assert key in rep
        assert len(rep["times"]) == len(rep["mu_sq"]) == 21
        assert all(c["pass"] for c in rep["dissipation"])


class TestExperimentCommand:
    def test_full_run_outputs(self, tmp_path):
        out_dir = tmp_path / "exp"
        rc = run_cli("experiment", "--j", "1", "--level", "4",
                     "--out-dir", str(out_dir))
        assert rc == 0
        csv = (out_dir / "experiment.csv").read_text().splitlines()
        assert csv[2] == ("h,scale,mu_h_sq_measured,mu_h_sq_bound,"
                          "ratio_before,ratio_after,M_empirical")
        assert len(csv) == 4  # header x2 + columns + one window row
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["passes"]
        assert summary["mass_final"] < summary["mass_initial"]
        # every ExperimentResult field but the three that have files of
        # their own (experiment.csv, ledger.csv, excess_report_h*.json)
        assert set(summary) == ({f.name for f in fields(ExperimentResult)}
                                - {"rows", "trajectory", "reports"}
                                | {"_meta"})
        assert summary["barrier_contacts"] == [None]
        written = {str(p.relative_to(out_dir)):
                   hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert written == json.loads(CLI_EXPERIMENT_PIN.read_text())
        assert run_cli("report", "--dir", str(out_dir)) == 0

    @pytest.mark.parametrize("j", ["0", "-1"])
    def test_j_below_one_is_usage_error(self, tmp_path, capsys, j):
        out_dir = tmp_path / "exp"
        with pytest.raises(SystemExit) as err:
            run_cli("experiment", "--j", j, "--out-dir", str(out_dir))
        assert err.value.code == 2
        assert "--j: must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_window_past_the_rim_is_refused(self, tmp_path, capsys):
        rc = run_cli("experiment", "--j", "5", "--level", "4",
                     "--out-dir", str(tmp_path / "exp"))
        assert rc == 1
        assert "refused: window 5" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()


class TestEvolveCommand:
    def test_negative_end_time_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("evolve", "--mesh", str(tmp_path / "unread.dvar"),
                    "--t-end", "-1", "--out-dir", str(tmp_path / "run"))
        assert err.value.code == 2
        assert "--t-end: must be positive" in capsys.readouterr().err

    def test_negative_snapshot_count_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("evolve", "--mesh", str(tmp_path / "unread.dvar"),
                    "--t-end", "0.01", "--snapshots", "-1",
                    "--out-dir", str(tmp_path / "run"))
        assert err.value.code == 2
        assert "--snapshots: must be non-negative" in capsys.readouterr().err

    def test_zero_snapshots_still_evolves(self, tmp_path):
        from holeflow.dvar import write_dvar
        from holeflow.fixtures import icosphere
        mesh = tmp_path / "s.dvar"
        write_dvar(icosphere(2), mesh)
        rc = run_cli("evolve", "--mesh", str(mesh), "--t-end", "0.01",
                     "--snapshots", "0", "--out-dir", str(tmp_path / "run"))
        assert rc == 0
        assert (tmp_path / "run" / "ledger.csv").exists()

    def test_isolated_vertex_refused(self, tmp_path, capsys):
        # the flow refuses an interior vertex with no face; the CLI reports
        # the refusal and exits 1 instead of raising
        from holeflow.dvar import write_dvar
        from holeflow.fixtures import icosphere
        from holeflow.varifold import DiscreteVarifold
        s = icosphere(2)
        mesh = tmp_path / "iso.dvar"
        write_dvar(DiscreteVarifold(np.vstack([s.vertices, np.zeros((1, 3))]),
                                    s.faces, s.multiplicity,
                                    np.append(s.boundary, False)), mesh)
        rc = run_cli("evolve", "--mesh", str(mesh), "--t-end", "0.01",
                     "--out-dir", str(tmp_path / "run"))
        assert rc == 1
        assert "refused: isolated vertex" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resolution_exhausted_exit_code(self, tmp_path, capsys):
        from holeflow.dvar import write_dvar
        from holeflow.fixtures import icosphere
        mesh = tmp_path / "tiny.dvar"
        write_dvar(icosphere(2, radius=0.05), mesh)
        rc = run_cli("evolve", "--mesh", str(mesh), "--t-end", "0.01",
                     "--out-dir", str(tmp_path / "run"))
        assert rc == 3
        assert not (tmp_path / "run").exists()

    def test_evolve_outputs(self, tmp_path):
        from holeflow.dvar import write_dvar
        from holeflow.fixtures import icosphere
        mesh = tmp_path / "s.dvar"
        write_dvar(icosphere(2), mesh)
        rc = run_cli("evolve", "--mesh", str(mesh), "--t-end", "0.01",
                     "--snapshots", "3", "--out-dir", str(tmp_path / "run"))
        assert rc == 0
        assert (tmp_path / "run" / "ledger.csv").exists()
        assert (tmp_path / "run" / "snapshot_0002.dvar").exists()
        header = (tmp_path / "run" / "ledger.csv").read_text().splitlines()
        assert header[0].startswith("# holeflow config:")
        assert header[2].split(",")[0] == "t"
