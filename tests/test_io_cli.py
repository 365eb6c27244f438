"""Config schema, persistence formats, CLI contract, exit codes."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hysterm.cli
from hysterm.cli import main, measure_oscillator_period
from hysterm.config import config_from_dict, load_config
from hysterm.errors import CFLError, ConfigError, DataIntegrityError
from hysterm.reports import (
    analyze_run,
    load_run,
    read_pgm,
    read_snapshot_csv,
    save_config,
    save_run,
    verify_manifest,
    write_pgm,
    write_snapshot_csv,
)
from hysterm.solver import run


# a monkeypatched hysterm.cli._sweep_child reaches the sweep's worker
# processes only when they are forked
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs the fork start method",
)


def minimal_dict(**overrides):
    data = {
        "name": "mini",
        "dim": 1,
        "extent": [1.0],
        "nx": [11],
        "dt": 1e-3,
        "T": 0.5,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_defaults_filled(self):
        cfg = config_from_dict(minimal_dict())
        assert cfg.snapshot_stride == 1
        assert cfg.freeze_h is False
        assert cfg.cfl_safety == 0.9

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(minimal_dict(snapshot_stride=4, seed=3))
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p).to_dict() == cfg.to_dict()

    def test_alpha_beta_order(self):
        with pytest.raises(ConfigError, match="alpha >= beta"):
            config_from_dict(minimal_dict(alpha=1.0, beta=0.0))

    def test_cfl_names_bound(self):
        with pytest.raises(CFLError, match="CFL violated") as exc:
            config_from_dict(minimal_dict(dt=0.1**2))
        assert "dx_min" in str(exc.value)

    def test_unknown_keys_fatal(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(minimal_dict(tpyo=1))
        with pytest.raises(ConfigError, match="unknown preset keys"):
            config_from_dict(
                minimal_dict(
                    preset={"kind": "homogeneous", "u0": 0.5, "h0": 1, "x": 2}
                )
            )

    def test_parse_error_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x",\n  "dim": }\n')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_T_must_be_whole_multiple_of_dt(self):
        with pytest.raises(ConfigError, match=r"T=0\.0505 .* dt=0\.001"):
            config_from_dict(minimal_dict(T=0.0505, dt=1e-3))
        # T / dt = 9999.999999999998 in floating point: a whole step count
        cfg = config_from_dict(minimal_dict(T=0.3, dt=3e-5))
        assert run(cfg).times[-1] == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"snapshot_stride": 2.5}, "snapshot_stride"),
            ({"nx": [11.7]}, r"nx\[0\]"),
            ({"freeze_h": "no"}, "freeze_h"),
            ({"dim": True}, "dim"),
            ({"preset": {"kind": "sine", "amplitude": float("nan"), "modes": 1}},
             "preset.amplitude"),
            ({"preset": {"kind": "gaussian_bump", "amplitude": 0.5, "width": 0.0,
                         "center": [0.5], "base": 0.4, "h0": -1}}, "width"),
            ({"preset": {"kind": "gaussian_bump", "amplitude": 0.5, "width": 0.1,
                         "center": [0.5, 0.5], "base": 0.4, "h0": -1}}, "center"),
        ],
        ids=["float_stride", "float_nx", "string_freeze_h", "bool_dim",
             "nan_amplitude", "zero_width", "long_center"],
    )
    def test_load_config_rejects_mistyped_values(self, tmp_path, overrides, match):
        """Each value was truncated, coerced or left to fail at run time."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_dict(**overrides)))
        with pytest.raises(ConfigError, match=match):
            load_config(p)

    def test_band_presets_validated(self):
        with pytest.raises(ConfigError, match="two_phase_wall"):
            config_from_dict(
                minimal_dict(
                    preset={"kind": "two_phase_wall", "u0": 2.0, "wall_position": 0.5}
                )
            )


class TestSnapshotCsv:
    def test_round_trip_1d(self, tmp_path):
        rng = np.random.default_rng(0)
        f = rng.normal(size=17)
        p = tmp_path / "s.csv"
        write_snapshot_csv(p, f, t=0.125)
        t, g = read_snapshot_csv(p)
        assert t == 0.125
        assert np.array_equal(f, g)

    def test_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(5, 7))
        p = tmp_path / "s2.csv"
        write_snapshot_csv(p, f, t=1e-9)
        t, g = read_snapshot_csv(p)
        assert t == 1e-9
        assert np.array_equal(f, g)

    def test_header_format(self, tmp_path):
        p = tmp_path / "s.csv"
        write_snapshot_csv(p, np.zeros(3), t=0.1)
        assert p.read_text().splitlines()[0] == "# t=0.1"


class TestPgm:
    def test_linear_scaling(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.array([[0.0, 0.5, 1.0]]))
        img = read_pgm(p)
        assert img.tolist() == [[0, 128, 255]]

    def test_constant_field(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm(p, np.full((2, 2), 3.3))
        assert read_pgm(p).tolist() == [[0, 0], [0, 0]]

    def test_header_bytes(self, tmp_path):
        p = tmp_path / "h.pgm"
        write_pgm(p, np.zeros((2, 3)))
        assert p.read_bytes().startswith(b"P5\n3 2\n255\n")


@pytest.fixture
def run_dir(tmp_path):
    cfg = config_from_dict(minimal_dict())
    sol = run(cfg)
    return save_run(sol, cfg, tmp_path / "run"), cfg, sol


class TestRunPersistence:
    def test_inventory(self, run_dir):
        rd, cfg, sol = run_dir
        n = sol.num_snapshots
        assert len(list(rd.glob("u_*.csv"))) == n
        assert len(list(rd.glob("h_*.csv"))) == n
        assert (rd / "u_final.pgm").exists()
        assert (rd / "h_final.pgm").exists()
        manifest = verify_manifest(rd)
        assert len(manifest["files"]) == 2 * n + 3  # + config + 2 pgm

    def test_load_round_trip(self, run_dir):
        rd, cfg, sol = run_dir
        sol2, cfg2 = load_run(rd)
        assert np.array_equal(sol.u, sol2.u)
        assert np.array_equal(sol.h, sol2.h)
        assert np.array_equal(sol.times, sol2.times)
        assert sol2.sup_bound_M == sol.sup_bound_M

    def test_digest_detects_flip(self, run_dir):
        rd, _, _ = run_dir
        target = rd / "u_000003.csv"
        raw = bytearray(target.read_bytes())
        raw[10] ^= 0x01
        target.write_bytes(bytes(raw))
        with pytest.raises(DataIntegrityError, match="digest mismatch"):
            verify_manifest(rd)

    def test_manifest_lists_only_written_files(self, tmp_path):
        """A shorter rerun into an analysed run directory removes the old
        run's extra snapshots and leaves its reports on disk but out of the
        manifest."""
        rd = tmp_path / "rerun"
        cfg = config_from_dict(minimal_dict(T=0.01))
        analyze_run(save_run(run(cfg), cfg, rd))
        cfg = config_from_dict(minimal_dict(T=0.005))
        save_run(run(cfg), cfg, rd)
        manifest = verify_manifest(rd)
        assert manifest["num_snapshots"] == 6
        assert not (rd / "u_000010.csv").exists() and (rd / "atlas.csv").exists()
        for kind in "uh":
            assert len(list(rd.glob(f"{kind}_*.csv"))) == manifest["num_snapshots"]
        snapshots = [f"{v}_{k:06d}.csv" for k in range(6) for v in "uh"]
        assert sorted(manifest["files"]) == sorted(
            ["config.json", "u_final.pgm", "h_final.pgm", *snapshots]
        )

    def test_rerun_byte_identical(self, tmp_path):
        cfg = config_from_dict(minimal_dict())
        d1 = save_run(run(cfg), cfg, tmp_path / "r1")
        d2 = save_run(run(cfg), cfg, tmp_path / "r2")
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        assert "manifest.json" in names
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestAnalyze:
    def test_report_files(self, run_dir):
        rd, _, _ = run_dir
        out = rd
        analyze_run(rd)
        for name in (
            "atlas.csv",
            "walls.csv",
            "growth.csv",
            "phi.csv",
            "signs.csv",
            "profile.csv",
            "summary.json",
        ):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["gamma_v"] == 0

    def test_walls_csv_lists_the_face_runs(self, tmp_path):
        """A relay wall seeded between x=0.4 and x=0.5 persists through the
        run: one face run over every snapshot, counted as both endpoints
        at each snapshot."""
        cfg = config_from_dict(minimal_dict(name="wall", T=0.05, preset={
            "kind": "two_phase_wall", "u0": 0.5, "wall_position": 0.45}))
        rd = save_run(run(cfg), cfg, tmp_path / "w")
        summary = analyze_run(rd)
        last = json.loads((rd / "manifest.json").read_text())["num_snapshots"] - 1
        assert (rd / "walls.csv").read_text().splitlines() == [
            "axis,first_t_index,last_t_index,x_index", f"0,0,{last},4"
        ]
        assert summary["counts"]["gamma_v"] == 2 * (last + 1)
        assert (rd / "atlas.csv").read_text().splitlines() == [
            "t_index,x_index,kind,u_value,grad_norm,dt_u"
        ]

    def test_frozen_run_has_no_temporal_events(self, tmp_path):
        cfg = config_from_dict(minimal_dict(freeze_h=True, name="frozen"))
        rd = save_run(run(cfg), cfg, tmp_path / "fr")
        analyze_run(rd)
        summary = json.loads((rd / "summary.json").read_text())
        assert summary["counts"]["gamma_alpha"] == 0
        assert summary["counts"]["gamma_beta"] == 0

    def test_analyze_deterministic(self, run_dir, tmp_path):
        rd, _, _ = run_dir
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        analyze_run(rd, out_dir=out1)
        analyze_run(rd, out_dir=out2)
        for name in ("atlas.csv", "growth.csv", "phi.csv", "signs.csv",
                     "profile.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        data = minimal_dict(**overrides)
        data.setdefault("output_dir", str(tmp_path / data["name"]))
        p = tmp_path / f"{data['name']}.json"
        p.write_text(json.dumps(data))
        return p, data

    def test_run_and_analyze_exit_codes(self, tmp_path, capsys):
        p, data = self.write_cfg(tmp_path)
        assert main(["run", str(p)]) == 0
        assert main(["analyze", data["output_dir"]]) == 0
        out = capsys.readouterr().out
        assert "run complete" in out and "analysis complete" in out

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p, data = self.write_cfg(tmp_path, alpha=2.0, name="bad")
        assert main(["run", str(p)]) == 2
        assert "alpha >= beta" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_tampered_snapshot_exit_3(self, tmp_path, capsys):
        p, data = self.write_cfg(tmp_path, name="tamper")
        assert main(["run", str(p)]) == 0
        target = sorted((tmp_path / "tamper").glob("u_*.csv"))[2]
        raw = bytearray(target.read_bytes())
        raw[8] ^= 0x01
        target.write_bytes(bytes(raw))
        assert main(["analyze", str(tmp_path / "tamper")]) == 3
        assert "digest mismatch" in capsys.readouterr().err

    def test_corrupt_manifest_exit_3(self, tmp_path, capsys):
        p, data = self.write_cfg(tmp_path, name="badman")
        assert main(["run", str(p)]) == 0
        (tmp_path / "badman" / "manifest.json").write_text('{"files": ')
        assert main(["analyze", str(tmp_path / "badman")]) == 3
        assert "manifest" in capsys.readouterr().err

    def test_wrong_value_count_exit_3(self, tmp_path, capsys):
        """A snapshot short of one value, with its digest updated to match."""
        p, data = self.write_cfg(tmp_path, name="short")
        assert main(["run", str(p)]) == 0
        rd = tmp_path / "short"
        target = rd / "u_000002.csv"
        header, row = target.read_text().splitlines()
        target.write_text(header + "\n" + row.rsplit(",", 1)[0] + "\n")
        manifest = json.loads((rd / "manifest.json").read_text())
        manifest["files"][target.name] = hashlib.sha256(
            target.read_bytes()
        ).hexdigest()
        (rd / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(rd)]) == 3
        assert "snapshot 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("files", None), ("config", None), ("num_snapshots", None),
         ("files", []), ("num_snapshots", "6"), ("sup_bound_M", None),
         ("sup_bound_M", "big"), ("num_snapshots", True), ("num_snapshots", -1),
         ("num_snapshots", 0), ("num_snapshots", 1), ("num_snapshots", 5),
         ("num_snapshots", 7)],
    )
    def test_manifest_missing_or_malformed_key_exit_3(
        self, tmp_path, capsys, key, value
    ):
        """None deletes the key; other values replace it."""
        p, data = self.write_cfg(tmp_path, name="nokey")
        assert main(["run", str(p)]) == 0
        path = tmp_path / "nokey" / "manifest.json"
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
        assert main(["analyze", str(tmp_path / "nokey")]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits, unlist, expected",
        [
            pytest.param([("h_000003.csv", None, "0.7")], False, "h_000003.csv",
                         id="relay_value_not_pm1"),
            pytest.param([("u_000003.csv", None, "nan")], False, "u_000003.csv",
                         id="nan_field_value"),
            pytest.param([("u_000003.csv", "0.002", None),
                          ("h_000003.csv", "0.002", None)], False,
                         "not after the previous snapshot",
                         id="times_not_increasing"),
            pytest.param([("h_000003.csv", "0.0031", None)], False,
                         "h_000003.csv", id="h_time_differs"),
            pytest.param([("u_000003.csv", None, "0.25")], True, "u_000003.csv",
                         id="snapshot_not_listed"),
        ],
    )
    def test_malformed_snapshot_exit_3(
        self, tmp_path, capsys, edits, unlist, expected
    ):
        """Each edit sets a snapshot's header time and/or its first value.
        The edited files' digests are updated to match, or, with
        ``unlist``, the files are dropped from the manifest."""
        p, data = self.write_cfg(tmp_path, name="edited")
        assert main(["run", str(p)]) == 0
        rd = tmp_path / "edited"
        manifest = json.loads((rd / "manifest.json").read_text())
        for name, t, first in edits:
            header, row = (rd / name).read_text().splitlines()
            if t is not None:
                header = f"# t={t}"
            if first is not None:
                row = ",".join([first, *row.split(",")[1:]])
            (rd / name).write_text(header + "\n" + row + "\n")
            if unlist:
                del manifest["files"][name]
            else:
                manifest["files"][name] = hashlib.sha256(
                    (rd / name).read_bytes()
                ).hexdigest()
        (rd / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(rd)]) == 3
        assert expected in capsys.readouterr().err

    def test_ragged_2d_rows_exit_3(self, tmp_path, capsys):
        """A 2D snapshot with one value moved to the next row, right total
        count and digest updated to match."""
        p, data = self.write_cfg(
            tmp_path, name="ragged", dim=2, extent=[1.0, 1.0], nx=[5, 5],
            dt=1e-3, T=0.01,
        )
        assert main(["run", str(p)]) == 0
        rd = tmp_path / "ragged"
        target = rd / "u_000002.csv"
        header, *rows = target.read_text().splitlines()
        first, moved = rows[0].rsplit(",", 1)
        rows[0], rows[1] = first, moved + "," + rows[1]
        target.write_text("\n".join([header, *rows]) + "\n")
        manifest = json.loads((rd / "manifest.json").read_text())
        manifest["files"][target.name] = hashlib.sha256(
            target.read_bytes()
        ).hexdigest()
        (rd / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(rd)]) == 3
        assert target.name in capsys.readouterr().err

    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYSTERM_THREADS", "abc")
        monkeypatch.chdir(tmp_path)
        p, _ = self.write_cfg(tmp_path, name="swt", output_dir=None)
        code = main(["sweep", str(p), "--param", "/preset/u0", "--values", "0.5"])
        assert code == 2
        assert "HYSTERM_THREADS" in capsys.readouterr().err

    def test_analyze_options(self, tmp_path):
        p, data = self.write_cfg(tmp_path, name="opts")
        assert main(["run", str(p)]) == 0
        assert (
            main(
                [
                    "analyze",
                    data["output_dir"],
                    "--grad-tol",
                    "0.3",
                    "--level-tol",
                    "0.01",
                    "--radii",
                    "0.2,0.1",
                ]
            )
            == 0
        )
        summary = json.loads(
            (tmp_path / "opts" / "summary.json").read_text()
        )
        assert summary["tolerances"]["grad_tol"] == 0.3
        assert summary["tolerances"]["level_tol"] == 0.01

    def test_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYSTERM_THREADS", "2")
        monkeypatch.chdir(tmp_path)
        p, data = self.write_cfg(tmp_path, name="sw", output_dir=None)
        code = main(
            ["sweep", str(p), "--param", "/preset/u0", "--values", "0.3,0.5,0.7"]
        )
        assert code == 0
        rows = (tmp_path / "runs" / "sw_sweep" / "sweep_summary.csv").read_text()
        lines = rows.strip().splitlines()
        assert lines[0] == "value,status,gamma_v_count,profile_max,error"
        assert len(lines) == 4
        assert all(",ok," in line for line in lines[1:])

    def test_sweep_records_child_failure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p, data = self.write_cfg(tmp_path, name="swf", output_dir=None)
        # the second dt violates the CFL bound and must fail per-row only
        code = main(
            ["sweep", str(p), "--param", "/dt", "--values", "0.001,0.02"]
        )
        assert code == 0
        lines = (
            (tmp_path / "runs" / "swf_sweep" / "sweep_summary.csv")
            .read_text()
            .strip()
            .splitlines()
        )
        assert ",ok," in lines[1]
        assert ",failed," in lines[2]
        # the error tells a member that raised from one lost with the pool
        assert "raised CFLError: " in lines[2]

    def test_sweep_no_values(self, tmp_path, capsys):
        p, _ = self.write_cfg(tmp_path, name="swe")
        assert main(["sweep", str(p), "--param", "/dt", "--values", ""]) == 2
        assert "no values" in capsys.readouterr().err

    def test_sweep_single_value_matches_direct(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p, data = self.write_cfg(tmp_path, name="sw1", output_dir=None)
        assert main(
            ["sweep", str(p), "--param", "/preset/u0", "--values", "0.5"]
        ) == 0
        child = tmp_path / "runs" / "sw1_sweep" / "v000"
        direct_cfg = config_from_dict(minimal_dict(name="direct"))
        direct = save_run(run(direct_cfg), direct_cfg, tmp_path / "direct")
        analyze_run(direct)
        assert (child / "atlas.csv").read_bytes() == (direct / "atlas.csv").read_bytes()

    def test_sweep_members_match_direct_runs(self, tmp_path, monkeypatch):
        values = [0.3, 0.5, 0.7]
        p, _ = self.write_cfg(tmp_path, name="swd", output_dir=None)
        direct = {}
        for i, u0 in enumerate(values):
            data = minimal_dict(name=f"swd_v{i:03d}", output_dir=None)
            data["preset"] = dict(data["preset"], u0=u0)
            cfg = config_from_dict(data)
            run_dir = save_run(run(cfg), cfg, tmp_path / "direct" / f"v{i:03d}")
            analyze_run(run_dir)
            direct[run_dir.name] = {
                f.name: f.read_bytes() for f in sorted(run_dir.iterdir())
            }
        summaries = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HYSTERM_THREADS", threads)
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            assert main(
                ["sweep", str(p), "--param", "/preset/u0",
                 "--values", ",".join(map(str, values))]
            ) == 0
            out_root = tmp_path / threads / "runs" / "swd_sweep"
            for tag, files in direct.items():
                member = out_root / tag
                got = {f.name: f.read_bytes() for f in sorted(member.iterdir())}
                assert got.keys() == files.keys()
                for name, data in files.items():
                    assert got[name] == data, f"{threads} workers: {tag}/{name}"
            summaries.append((out_root / "sweep_summary.csv").read_bytes())
        assert summaries[0] == summaries[1]
        with (tmp_path / "1" / "runs" / "swd_sweep" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == values
        assert all(r["status"] == "ok" for r in rows)

    def test_sweep_under_spawn_matches_default(self, tmp_path):
        # spawned workers import hysterm afresh and receive the member job
        # pickled; the rows must not depend on the start method
        p, _ = self.write_cfg(tmp_path, name="sws", output_dir=None, T=0.1)
        script = (
            "import multiprocessing, sys\n"
            "from hysterm.cli import main\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "sys.exit(main(['sweep', sys.argv[2], '--param', '/preset/u0',"
            " '--values', '0.3,0.7']))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(hysterm.__file__).parents[1]),
            HYSTERM_THREADS="2",
        )
        summaries = []
        for method in ("spawn", multiprocessing.get_start_method()):
            (tmp_path / method).mkdir(exist_ok=True)
            subprocess.run(
                [sys.executable, "-c", script, method, str(p)],
                cwd=tmp_path / method, env=env, check=True, capture_output=True,
            )
            summaries.append(
                (tmp_path / method / "runs" / "sws_sweep" / "sweep_summary.csv").read_text()
            )
        assert summaries[0] == summaries[1]
        assert summaries[0].count(",ok,") == 2

    def dying_sweep(self, tmp_path, monkeypatch, name, values, dying, threads="2"):
        """Rows of a sweep over /preset/u0 whose members with a value in
        ``dying`` kill their worker process."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HYSTERM_THREADS", threads)
        p, _ = self.write_cfg(tmp_path, name=name, output_dir=None, T=0.1)
        child = hysterm.cli._sweep_child

        def dying_child(base, pointer, value, out_root, tag):
            if value in dying:
                os._exit(1)
            return child(base, pointer, value, out_root, tag)

        monkeypatch.setattr(hysterm.cli, "_sweep_child", dying_child)
        text = ",".join(map(str, values))
        assert main(["sweep", str(p), "--param", "/preset/u0", "--values", text]) == 0
        with (tmp_path / "runs" / f"{name}_sweep" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == values
        return rows

    @fork_only
    def test_sweep_survives_dead_worker(self, tmp_path, monkeypatch, capsys):
        # 0.3 and 0.5 start side by side and 0.7 waits; the death can take
        # 0.3 down too, and then both run again, one at a time
        rows = self.dying_sweep(tmp_path, monkeypatch, "swx", [0.3, 0.5, 0.7], {0.5})
        assert "3 rows, 1 failed" in capsys.readouterr().out
        assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
        assert rows[1]["error"] == (
            "BrokenProcessPool: its worker process died while it ran"
        )
        # the members that ran again are those of a direct run
        for tag, u0 in (("v000", 0.3), ("v002", 0.7)):
            data = minimal_dict(name=f"swx_{tag}", output_dir=None, T=0.1)
            data["preset"] = dict(data["preset"], u0=u0)
            cfg = config_from_dict(data)
            direct = save_run(run(cfg), cfg, tmp_path / "direct" / tag)
            analyze_run(direct)
            member = tmp_path / "runs" / "swx_sweep" / tag
            assert sorted(p.name for p in member.iterdir()) == sorted(
                p.name for p in direct.iterdir())
            for f in direct.iterdir():
                assert (member / f.name).read_bytes() == f.read_bytes(), f"{tag}/{f.name}"

    @fork_only
    def test_sweep_dead_worker_one_worker(self, tmp_path, monkeypatch):
        # a member alone in flight fails at once; the next round runs the rest
        rows = self.dying_sweep(
            tmp_path, monkeypatch, "sw1w", [0.3, 0.5, 0.7], {0.5}, threads="1")
        assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
        assert rows[1]["error"] == (
            "BrokenProcessPool: its worker process died while it ran"
        )

    @fork_only
    def test_sweep_dead_worker_at_the_head(self, tmp_path, monkeypatch):
        # the first member tried again dies: the round after it still runs
        # the rest
        rows = self.dying_sweep(
            tmp_path, monkeypatch, "swh", [0.5, 0.3, 0.7, 0.4], {0.5})
        assert [r["status"] for r in rows] == ["failed", "ok", "ok", "ok"]

    @fork_only
    def test_sweep_stops_after_two_idle_rounds(self, tmp_path, monkeypatch):
        # two deaths in a row end the retries; the members not run again
        # fail as lost, not as dead
        rows = self.dying_sweep(
            tmp_path, monkeypatch, "sws2", [0.5, 0.6, 0.3, 0.7], {0.5, 0.6})
        died = "BrokenProcessPool: its worker process died while it ran"
        lost = "BrokenProcessPool: lost with a broken worker pool and not run again"
        assert [r["error"] for r in rows] == [died, died, lost, lost]

    @fork_only
    def test_sweep_survives_pool_broken_while_submitting(self, tmp_path, monkeypatch):
        # every worker dies: after the first round the retries run one
        # member at a time and stop after two rounds in which none returns,
        # so the long value list costs a few pools, not a process per value
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HYSTERM_THREADS", "2")
        p, _ = self.write_cfg(tmp_path, name="swb", output_dir=None)
        monkeypatch.setattr(hysterm.cli, "_sweep_child", lambda *job: os._exit(1))
        values = ",".join(str(i) for i in range(20000))
        assert main(["sweep", str(p), "--param", "/preset/u0", "--values", values]) == 0
        with (tmp_path / "runs" / "swb_sweep" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20000
        assert all(r["error"].startswith("BrokenProcessPool: ") for r in rows)
        assert sum("worker process died" in r["error"] for r in rows) <= 3

    def test_selftest_examples(self, capsys):
        period, expected = measure_oscillator_period(0.0, 1.0, 1e-3)
        assert expected == 2.0 and abs(period - 2.0) <= 2e-3
        period, expected = measure_oscillator_period(0.0, 0.5, 1e-3)
        assert expected == 1.0 and abs(period - 1.0) <= 2e-3

    def test_selftest_rounds_T_up_to_whole_steps(self):
        """5 * (beta - alpha) = 2.0 is 2857.14 steps of 7e-4: the selftest
        runs 2858 steps instead of a config that fails validation."""
        period, expected = measure_oscillator_period(0.0, 0.4, 7e-4)
        assert expected == 0.8 and abs(period - 0.8) <= 1.4e-3

    def test_selftest_cli_pass(self, capsys):
        assert (
            main(["selftest-oscillator", "--alpha", "0", "--beta", "1", "--dt", "1e-3"])
            == 0
        )
        assert "pass" in capsys.readouterr().out

    def test_selftest_invalid_thresholds_exit_2(self, capsys):
        code = main(
            ["selftest-oscillator", "--alpha", "1", "--beta", "0", "--dt", "1e-3"]
        )
        assert code == 2
        assert "alpha >= beta" in capsys.readouterr().err


# sha256 of the files of a small 1D plateau run and its analysis.  The run
# uses only + - * / and sqrt, which IEEE arithmetic rounds the same way on
# every CPU, so these digests hold across machines and lock the on-disk
# formats across changes of the code.
GOLDEN_CONFIG = {
    "name": "golden", "dim": 1, "extent": [2.0], "nx": [21], "dt": 0.004,
    "T": 0.2, "alpha": 0.0, "beta": 1.0, "bc": {"kind": "neumann"},
    "snapshot_stride": 10,
    "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
}
GOLDEN_DIGESTS = {
    "atlas.csv": "87aca93cd075706c446354ad5b73ba81ff2b41e0f7885bc669be5b4698812a8c",
    "config.json": "8db7b4dc0a0cb22e305baf4bacb4c24020c9a66ec1a33020ddda7940fb004ef3",
    "h_000000.csv": "5aa573f47087ccbba896d36136aab6403f6723d19bda6e74acab22250714101a",
    "h_000001.csv": "e4a9cf89d05696c1ea55c6e0d3d8e799a31976b1351c3e9ca97dc15ca592d307",
    "h_000002.csv": "c23b5fd7514ceef183e2f7ee4be4b5d0d1851d4aaca6e1e75a8156c954e7a9cb",
    "h_000003.csv": "050372aabe912589d40502b40a8eb6e933bd681d2630dfd0b5a57afa6775c34b",
    "h_000004.csv": "6483545a5dac61c3905844cff5a419ab513833a724b625897f36fa3d80538326",
    "h_000005.csv": "76408f991a5111ef4d84bc21d176ec009a777d29b55a93bae85c9026337f6e76",
    "h_final.pgm": "7e674255637849ad562916e6d50a81f3188565da9003f4469b06ca25e77f1a6b",
    "manifest.json": "9813e69ff13b436d1fc028543b2cccce45d229d139045c94100fa6b34ef4d953",
    "u_000000.csv": "dd0dd3019b07531874f95c2ae0ca629a8f5ec44ba82922c0f4ffa1bd138fc91d",
    "u_000001.csv": "9834c41f0979958836b76c896e47bb3bca194befda8f67101df8b70e4e3d02d4",
    "u_000002.csv": "d11047325e4d74e9947fa1d00d85de87ebf9b8724b449bae9b9e4b9c51194dda",
    "u_000003.csv": "4d9ccd87ef518f80c4e34495c5e98c3a059e321227badb3ccdc7d5b3f4994a04",
    "u_000004.csv": "26603756410d2db18b1d772f424ca932967474755e0a06d5de6feb119a9cfd71",
    "u_000005.csv": "95e209be01f5a3c0e2390ab6775bfc3cd947624b1f5a5bc7d1e423aa321b1a21",
    "u_final.pgm": "e49efe50a27fd5912a3f3e037cd5464551eea620f1576619b2b41d740b1b64d4",
}


def test_golden_digests(tmp_path, monkeypatch):
    # config.json and the manifest hold output_dir: keep it machine-free
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(GOLDEN_CONFIG, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    assert main(["analyze", "run"]) == 0
    got = {
        name: hashlib.sha256((Path("run") / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert got == GOLDEN_DIGESTS


# The same for small 2D plateau runs, one per boundary condition kind, on a
# grid with different spacings along x and y; the Neumann run also stores a
# final snapshot off the stride.  Both runs flip relays in both directions.
# Every run file is pinned: the config, each snapshot, both PGMs and the
# manifest (which holds sup_bound_M).
GOLDEN_2D_BASE = {
    "dim": 2, "extent": [2.0, 1.0], "nx": [9, 6], "dt": 0.008, "T": 0.2,
}
GOLDEN_2D = {
    "neumann": (
        dict(GOLDEN_2D_BASE, name="golden2d_neumann", alpha=0.0, beta=1.0,
             bc={"kind": "neumann"}, snapshot_stride=4,
             preset={"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1}),
        {
            "config.json":
                "432da67dba2cfccdcafa28d7b32c96d7dd3458ce0700e3d1dc2aedca7a5487bd",
            "h_000000.csv":
                "490ba46c6c5aedb01a5d5d813cbdb1c171c3ea9f228070fc2d37b14bc29d7595",
            "h_000001.csv":
                "4f32217c658eec2ca9e0a287435b927b2ca6d3224ea8b883b938175a5ce92661",
            "h_000002.csv":
                "627e8cf2c0bdf981a59cdabc22ab7b5bd70af9f5cf1b834afde7fd103b325bd1",
            "h_000003.csv":
                "e5233d1bc2deab1b2ddb9a7924ee094163c5c94f3fe3ef0da5967c2460278ccc",
            "h_000004.csv":
                "d884a63d4a0d6ec59f994a1c293b2cbf3eb7c6c43d42d5c2932a607ddbb70c73",
            "h_000005.csv":
                "39226e8d6cdf265dbd966cc96bf406e5c3d96a9cd49490caa493181e67c95c6b",
            "h_000006.csv":
                "3d4f325f038f365ca5356eb08ca877e91be0e841100aaa355a8715015a07d599",
            "h_000007.csv":
                "ce50b913759dc5dc50b787ea455ca4806847edb94662731ead649aa5ac8de5b8",
            "h_final.pgm":
                "de221c661e84cded85e0498430381919d8485d13530ca2d787d8e3b9da9813ad",
            "manifest.json":
                "14cfb779f76994b4c223dfc936004daeb4812bcdfc8139c01f5bfce8b0c9ec05",
            "u_000000.csv":
                "80c668f66edb3e2a96b24e647a06c63374365c8103144ed67282c490753ce131",
            "u_000001.csv":
                "ab1a44f5a692ca64586a5f131f387078940a68ca8dc7acfa3232fee4614dfeff",
            "u_000002.csv":
                "57089733711f066d38155707b670054866d1e144e1b49b576982607668b02fe9",
            "u_000003.csv":
                "598789e7b6d61c2e1ae4e57d678b0218624386b8dc6d88e4e91a6e80419445e2",
            "u_000004.csv":
                "84fa87e2603e62fe7681f199b45f6ea8352d1e5f9c689d7299855c99438a7a32",
            "u_000005.csv":
                "068795d9bbb2795d6c33bbf31c5be9dc5d8ed697aecc3153a69162f996a90230",
            "u_000006.csv":
                "96a99f9bfe496b05734dba8afcf9f7e407bc02875ae3cde1cef352ffce6219a2",
            "u_000007.csv":
                "b583dbba29c1797f652a03d4db594a3517f61a70fc5b6b67ae5d108462a32234",
            "u_final.pgm":
                "0a07f483abb8920a983571a2896905eec28979c806cf7b9ad6135a7f9caef38b",
        },
    ),
    "dirichlet": (
        dict(GOLDEN_2D_BASE, name="golden2d_dirichlet", alpha=0.28, beta=0.31,
             bc={"kind": "dirichlet", "value": 0.3}, snapshot_stride=5,
             preset={"kind": "plateau", "level": 0.29, "curvature": 0.01, "h0": 1}),
        {
            "config.json":
                "b3933293f819fafce98d1d02c2ce86932ebbb8a15074ccd4d6a01dcf232a29ca",
            "h_000000.csv":
                "490ba46c6c5aedb01a5d5d813cbdb1c171c3ea9f228070fc2d37b14bc29d7595",
            "h_000001.csv":
                "bb249567307363d4b8e9f1844433f21c2812417e2a881e8c6196fadd3419cb06",
            "h_000002.csv":
                "85267b37e7c8c3952ba1ac8a5650d9a679c46715f3503fc07679ec380df93f9f",
            "h_000003.csv":
                "505a5b81da40477f9eafff72e30f2927e49754c580c454c9643189b6cbf3b146",
            "h_000004.csv":
                "1059ee15e1a30c8743dc76bf69d464ddaec2b7f3bcbd9c0b3fab001f8332949e",
            "h_000005.csv":
                "68bacd6ca666573c654e0e238d09e3d59c5f1931ad65bf3239680389a85e7d9d",
            "h_final.pgm":
                "de221c661e84cded85e0498430381919d8485d13530ca2d787d8e3b9da9813ad",
            "manifest.json":
                "af233b7421cdc221b57bfa8247dee1677dc3e59a974a1528360d9a1149a1ff59",
            "u_000000.csv":
                "aee0b5b4178831d474d5d4d4e04a68cd59ac4229d32fb746f193a2c74bee3e2d",
            "u_000001.csv":
                "ab82067c82e1b24218d20c7aeaf7a06045386c1934ed66b9147b64801c0a63b7",
            "u_000002.csv":
                "77b98cf256bb514e64dc83d921329296c9fbfdec0d279bc7d7acfcc583c896e9",
            "u_000003.csv":
                "f979d777198e028b06e6f13e94f7e29a115772056812b978afe326727dfdb54b",
            "u_000004.csv":
                "3b624e350626607e746fe57cda39993ddcae0092f706eacdaacfa1bc7a1d2524",
            "u_000005.csv":
                "bdeafc1916c2c19d7f6621c0400d764b3b445638f2c9265e897e4643ec9573f5",
            "u_final.pgm":
                "8de847dd2d9c11b234ee05c97556a975bff1ef1f760524bf8c667c286663b127",
        },
    ),
}


@pytest.mark.parametrize("bc", sorted(GOLDEN_2D))
def test_golden_digests_2d(tmp_path, monkeypatch, bc):
    cfg, digests = GOLDEN_2D[bc]
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(cfg, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in Path("run").iterdir()}
    assert got == digests


# A 2D analysis with non-empty phi tables: the benchmark's levelsets_2d
# scenario, whose four Gamma_0 centres give 16 tables and 48 phi.csv rows.
# The sine preset and the heat kernel go through numpy's sin and exp, whose
# last bit may differ between SIMD code paths, so unlike the digests above
# these hold for one numpy build on one CPU family (taken with numpy 2.4 on
# x86-64 with AVX-512).
GOLDEN_PHI_CONFIG = {
    "name": "levelsets_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [21, 21],
    "dt": 5e-4, "T": 0.075, "alpha": 0.2, "beta": 0.7,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 5,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}
GOLDEN_PHI_DIGESTS = {
    "phi.csv": "0e1a9469a3dcac45515031449bd804f21ba4274a50c1bff6ca8095b661f5910c",
    "summary.json": "0941a29f147430718591a78b744e3db592f936f7995bce274cfa82f5112c0faf",
}


def test_golden_digests_phi_2d(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(GOLDEN_PHI_CONFIG, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    assert main(["analyze", "run"]) == 0
    assert len((Path("run") / "phi.csv").read_text().splitlines()) == 1 + 48
    got = {
        name: hashlib.sha256((Path("run") / name).read_bytes()).hexdigest()
        for name in GOLDEN_PHI_DIGESTS
    }
    assert got == GOLDEN_PHI_DIGESTS


def test_phi_csv_2d_holds_plain_numbers(tmp_path):
    """Every phi.csv field of a 2D analysis is a decimal number (the probe
    direction is ';'-separated), not a numpy scalar's repr."""
    data = {
        "name": "phi2d", "dim": 2, "extent": [2.0, 2.0], "nx": [21, 21],
        "dt": 0.002, "T": 0.3, "alpha": 0.0, "beta": 1.0,
        "bc": {"kind": "neumann"}, "snapshot_stride": 15,
        "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
    }
    cfg = config_from_dict(data)
    rd = save_run(run(cfg), cfg, tmp_path / "phi2d")
    analyze_run(rd)
    with open(rd / "phi.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for row in rows:
        for field in row:
            for part in field.split(";"):
                float(part)


def test_run_and_analyze_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 15 ms to import; np.unique would pull it in
    script = """
import sys
from hysterm.config import config_from_dict
from hysterm.reports import analyze_run, save_run
from hysterm.solver import run
cfg = config_from_dict({
    "name": "ma", "dim": 2, "extent": [1.0, 1.0], "nx": [11, 11],
    "dt": 1e-3, "T": 0.05, "alpha": 0.0, "beta": 1.0,
    "bc": {"kind": "neumann"},
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": 1},
})
analyze_run(save_run(run(cfg), cfg, sys.argv[1]))
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hysterm.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert (tmp_path / "run" / "summary.json").exists()
    assert out.stdout.strip() == "False"
