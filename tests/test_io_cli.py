"""Config schema, persistence formats, CLI contract, exit codes."""

import csv
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hysterm.cli
from hysterm.cli import main, measure_oscillator_period
from hysterm.config import config_from_dict, load_config
from hysterm.errors import CFLError, ConfigError, DataIntegrityError
from hysterm.presets import bundled_config
from hysterm.reports import (
    _parse_snapshot,
    analyze_run,
    load_run,
    read_snapshot_csv,
    save_config,
    save_run,
    verify_manifest,
    write_pgm,
    write_snapshot_csv,
)
from hysterm.solver import run


# a monkeypatched hysterm.cli._sweep_child reaches the sweep's member
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

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"nx": [2]}, "nx must be >= 3"),
            ({"extent": [0.0]}, "extent must be positive"),
            ({"dim": 3, "nx": [5, 5, 5], "extent": [1.0, 1.0, 1.0]},
             "dim must be 1 or 2"),
            ({"bc": {"kind": "robin"}}, "robin"),
            ({"alpha": 1.0}, "alpha >= beta"),
        ],
        ids=["nx_2", "zero_extent", "dim_3", "robin_bc", "alpha_equals_beta"],
    )
    def test_grid_and_thresholds_checks_exit_2(self, tmp_path, capsys, overrides,
                                               match):
        """Checked by the Grid and Thresholds the config builds, reported as
        config errors."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_dict(output_dir=str(tmp_path / "run"),
                                             **overrides)))
        with pytest.raises(ConfigError, match=match):
            load_config(p)
        assert main(["run", str(p)]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_band_presets_validated(self):
        with pytest.raises(ConfigError, match="two_phase_wall"):
            config_from_dict(
                minimal_dict(
                    preset={"kind": "two_phase_wall", "u0": 2.0, "wall_position": 0.5}
                )
            )


def old_render_snapshot(f, t) -> bytes:
    """The per-value snapshot writer as it stood before the row-wise one,
    with integer fields written as integers."""
    cast = int if np.issubdtype(f.dtype, np.integer) else float
    rows = "".join(
        ",".join(repr(cast(v)) for v in row) + "\n" for row in np.atleast_2d(f)
    )
    return f"# t={float(t)!r}\n{rows}".encode()


def old_parse_snapshot(data: bytes, name) -> tuple:
    """The per-value snapshot parser as it stood before the single cast."""
    try:
        lines = data.decode().strip().splitlines()
        if not lines or not lines[0].startswith("# t="):
            raise DataIntegrityError(f"missing '# t=' header in {name}")
        t = float(lines[0][4:])
        arr = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise DataIntegrityError(f"malformed snapshot {name}: {exc}") from exc
    return t, arr[0] if len(arr) == 1 else arr


@st.composite
def snapshot_fields(draw):
    """A 1D field, a 2D field or a relay field, values of any magnitude."""
    shape = draw(st.sampled_from([(1,), (7,), (1, 4), (3, 5), (6, 2)]))
    if draw(st.booleans()):
        values, dtype = st.sampled_from([-1, 1]), np.int8
    else:
        values, dtype = st.floats(allow_nan=False) | st.floats(-1.0, 1.0), float
    n = math.prod(shape)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                    dtype=dtype).reshape(shape)


class TestSnapshotCsv:
    @given(f=snapshot_fields(), t=st.floats(0.0, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_render_and_parse_match_per_value_forms(self, tmp_path_factory, f, t):
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        data = old_render_snapshot(f, t)
        assert write_snapshot_csv(path, f, t) == hashlib.sha256(data).hexdigest()
        assert path.read_bytes() == data
        t_new, a_new = _parse_snapshot(data, "s")
        t_old, a_old = old_parse_snapshot(data, "s")
        assert t_new == t_old == t
        rows = np.atleast_2d(f)
        want = rows[0] if len(rows) == 1 else rows
        assert a_new.shape == a_old.shape == want.shape
        assert np.array_equal(a_new, a_old) and np.array_equal(a_new, want)

    @pytest.mark.parametrize("text", [
        pytest.param("# t=0.0\n1.0,,2.0\n", id="empty_token"),
        pytest.param("# t=0.0\n1.0,abc\n", id="not_a_number"),
        pytest.param("# t=0.0\n1.0,2.0\n3.0\n", id="ragged_rows"),
        pytest.param("# t=0.0\n1.0\n2.0,3.0\n", id="ragged_rows_short_first"),
        pytest.param("# t=x\n1.0\n", id="bad_time"),
        pytest.param("1.0,2.0\n", id="no_header"),
        pytest.param("", id="empty_file"),
        pytest.param("# t=0.0\n1.0\n\xff\n", id="not_utf8"),
    ])
    def test_malformed_raise_like_per_value_parser(self, text):
        data = text.encode("latin-1")
        for parse in (_parse_snapshot, old_parse_snapshot):
            with pytest.raises(DataIntegrityError):
                parse(data, "s")

    def test_header_only_rejected(self):
        """The per-value parser returned an empty array here, which
        ``load_run`` refused for its size; now the parse refuses it."""
        with pytest.raises(DataIntegrityError, match="no rows"):
            _parse_snapshot(b"# t=0.0\n", "s")
        assert old_parse_snapshot(b"# t=0.0\n", "s")[1].size == 0

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

    @pytest.mark.parametrize("f, text", [
        pytest.param(np.array([0.1, -2.5, 3e-8], dtype=np.float32),
                     "0.10000000149011612,-2.5,2.999999892949745e-08\n", id="float32"),
        pytest.param(np.array([[True, False], [False, True]]), "1.0,0.0\n0.0,1.0\n",
                     id="bool"),
        pytest.param(np.array([-1, 1], dtype=np.int8), "-1,1\n", id="int8"),
        pytest.param(np.array([3, -7]), "3,-7\n", id="int64"),
    ])
    def test_integers_as_integers_all_else_as_float64(self, tmp_path, f, text):
        """float32 and bool fields are cast to float64 and render as they
        did when every field was cast; integer fields render as integers."""
        p = tmp_path / "s.csv"
        write_snapshot_csv(p, f, t=0.5)
        assert p.read_text() == "# t=0.5\n" + text


class TestPgm:
    def test_linear_scaling(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.array([[0.0, 0.5, 1.0]]))
        assert p.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 128, 255])

    def test_constant_field(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm(p, np.full((2, 2), 3.3))
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 0, 0, 0])

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

    def test_manifest_is_sorted_indented_json(self, run_dir):
        """The streamed manifest is the indented JSON text of its object plus
        a newline, listing the files in sorted name order."""
        rd, _, _ = run_dir
        raw = (rd / "manifest.json").read_bytes()
        manifest = json.loads(raw)
        assert raw == (json.dumps(manifest, indent=2) + "\n").encode()
        assert list(manifest["files"]) == sorted(manifest["files"])

    def test_save_run_memory(self, tmp_path):
        """Saving the bundled oscillator at T=3 (3,001 snapshots, 6,006
        files) peaks below 2.25 MiB under tracemalloc: the file table and
        the streamed manifest, with no copy of the manifest text.  Building
        the text whole, a copy with its newline and then its bytes peaked
        at 3.2 MiB."""
        cfg = bundled_config("oscillator", T=3.0)
        sol = run(cfg)
        tracemalloc.start()
        try:
            save_run(sol, cfg, tmp_path / "osc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20


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
        for out in (out1, out2):
            shutil.copytree(rd, out)
            analyze_run(out)
        for name in ("atlas.csv", "walls.csv", "growth.csv", "phi.csv",
                     "signs.csv", "profile.csv", "summary.json"):
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
            *(pytest.param([("h_000003.csv", None, token)], False, "h_000003.csv",
                           id=f"relay_token_{token}") for token in ("0", "2", "0.5", "nan")),
            pytest.param([("u_000003.csv", None, "nan")], False, "u_000003.csv",
                         id="nan_field_value"),
            pytest.param([("u_000003.csv", "0.002", None),
                          ("h_000003.csv", "0.002", None)], False,
                         "not after the previous snapshot",
                         id="times_not_increasing"),
            pytest.param([("u_000003.csv", "nan", None),
                          ("h_000003.csv", "nan", None)], False,
                         "snapshot 3 at t=nan is not finite", id="time_nan"),
            pytest.param([("u_000500.csv", "inf", None),
                          ("h_000500.csv", "inf", None)], False,
                         "not after the previous snapshot", id="last_time_inf"),
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

    @pytest.mark.parametrize("unlisted", [[], ["u_000003.csv"]], ids=["extra", "swap"])
    def test_snapshot_beyond_num_snapshots_exit_3(self, tmp_path, capsys, unlisted):
        """The manifest of 501 snapshot pairs also lists ``u_000501.csv``, a
        copy of the last u snapshot with its digest; with ``swap`` it drops
        ``u_000003.csv``, so it lists as many snapshot files as it should."""
        p, data = self.write_cfg(tmp_path, name="beyond")
        assert main(["run", str(p)]) == 0
        rd = tmp_path / "beyond"
        manifest = json.loads((rd / "manifest.json").read_text())
        assert manifest["num_snapshots"] == 501
        extra = rd / "u_000501.csv"
        extra.write_bytes((rd / "u_000500.csv").read_bytes())
        manifest["files"][extra.name] = hashlib.sha256(extra.read_bytes()).hexdigest()
        for name in unlisted:
            del manifest["files"][name]
        (rd / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", str(rd)]) == 3
        err = capsys.readouterr().err
        assert all(name in err for name in ["u_000501.csv", *unlisted])

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

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("HYSTERM_THREADS", threads)
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

    @pytest.mark.parametrize("flag, value", [
        ("--level-tol", "nan"), ("--level-tol", "inf"), ("--level-tol", "-1"),
        ("--grad-tol", "nan"), ("--grad-tol", "0"),
        ("--radii", "nan"), ("--radii", "inf"), ("--radii", "0.2,-0.1"),
    ])
    def test_analyze_rejects_bad_numbers(self, run_dir, capsys, flag, value):
        """A tolerance or radius that is not finite and positive exits 2
        before any report file is written."""
        rd = run_dir[0]
        before = sorted(p.name for p in rd.iterdir())
        assert main(["analyze", str(rd), f"{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in rd.iterdir()) == before

    @pytest.mark.parametrize("extent, dt, T, preset", [
        ([2.0], 4e-4, 0.3, {"kind": "plateau", "level": 0.05, "curvature": 0.3,
                            "h0": 1}),
        ([1.0], 1e-4, 0.05, {"kind": "two_phase_wall", "u0": 0.5,
                             "wall_position": 0.5}),
    ], ids=["plateau", "two_phase_wall"])
    def test_analyze_rejects_repeated_radius(self, tmp_path, capsys, extent, dt,
                                             T, preset):
        """A repeated radius exits 2 naming radii before any report file is
        written, on a run with growth centres (the plateau) and on one
        without (the two-phase run)."""
        p, data = self.write_cfg(tmp_path, name="rep", extent=extent, nx=[51],
                                 dt=dt, T=T, snapshot_stride=5, preset=preset)
        assert main(["run", str(p)]) == 0
        rd = Path(data["output_dir"])
        before = sorted(p.name for p in rd.iterdir())
        assert main(["analyze", str(rd), "--radii", "0.2,0.2"]) == 2
        assert "radii" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="radii"):
            analyze_run(rd, radii=[0.2, 0.2])
        assert sorted(p.name for p in rd.iterdir()) == before

    @pytest.mark.parametrize(
        "pointer", ["preset/u0", "/presets/u0", "/nx/5", "/preset/u0/x"]
    )
    def test_sweep_bad_pointer_exit_2(self, tmp_path, monkeypatch, capsys, pointer):
        """A pointer that does not resolve exits 2 before any member starts."""
        monkeypatch.setenv("HYSTERM_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        p, _ = self.write_cfg(tmp_path, name="swp", output_dir=None)
        code = main(["sweep", str(p), "--param", pointer, "--values", "0.4,0.5"])
        assert code == 2
        assert pointer in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sweep_pointer_may_add_a_key(self, tmp_path, monkeypatch):
        """A new key inside an existing object resolves."""
        monkeypatch.setenv("HYSTERM_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        p, _ = self.write_cfg(tmp_path, name="swk", output_dir=None)
        assert main(["sweep", str(p), "--param", "/bc/value", "--values", "0.0"]) == 0
        rows = (tmp_path / "runs" / "swk_sweep" / "sweep_summary.csv").read_text()
        assert ",ok," in rows.splitlines()[1]

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
        # the error tells a member that raised from one whose process died
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
        """Run a sweep over /preset/u0 whose members with a value in
        ``dying`` kill their process: each member's process starts once, and
        only the dying members fail."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HYSTERM_THREADS", threads)
        p, _ = self.write_cfg(tmp_path, name=name, output_dir=None, T=0.1)
        child = hysterm.cli._sweep_child
        starts = tmp_path / "starts.txt"

        def dying_child(base, pointer, value, out_root, tag):
            with starts.open("a") as fh:
                fh.write(f"{tag}\n")
            if value in dying:
                os._exit(1)
            return child(base, pointer, value, out_root, tag)

        monkeypatch.setattr(hysterm.cli, "_sweep_child", dying_child)
        text = ",".join(map(str, values))
        assert main(["sweep", str(p), "--param", "/preset/u0", "--values", text]) == 0
        with (tmp_path / "runs" / f"{name}_sweep" / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == values
        assert sorted(starts.read_text().split()) == [
            f"v{i:03d}" for i in range(len(values))]
        for r in rows:
            assert (r["status"], r["error"]) == (
                ("failed", "died with exit code 1") if float(r["value"]) in dying
                else ("ok", ""))

    def assert_members_match_direct(self, tmp_path, name, values):
        """The sweep members of ``values`` hold the files of a direct run."""
        for i, u0 in values.items():
            tag = f"v{i:03d}"
            data = minimal_dict(name=f"{name}_{tag}", output_dir=None, T=0.1)
            data["preset"] = dict(data["preset"], u0=u0)
            cfg = config_from_dict(data)
            direct = save_run(run(cfg), cfg, tmp_path / "direct" / tag)
            analyze_run(direct)
            member = tmp_path / "runs" / f"{name}_sweep" / tag
            assert sorted(p.name for p in member.iterdir()) == sorted(
                p.name for p in direct.iterdir())
            for f in direct.iterdir():
                assert (member / f.name).read_bytes() == f.read_bytes(), f"{tag}/{f.name}"

    @fork_only
    def test_sweep_survives_dead_worker(self, tmp_path, monkeypatch, capsys):
        # 0.3 and 0.5 start side by side and 0.7 starts when one ends; the
        # death of 0.5's process fails 0.5 alone
        self.dying_sweep(tmp_path, monkeypatch, "swx", [0.3, 0.5, 0.7], {0.5})
        assert "3 rows, 1 failed" in capsys.readouterr().out
        self.assert_members_match_direct(tmp_path, "swx", {0: 0.3, 2: 0.7})

    @fork_only
    def test_sweep_dead_worker_one_worker(self, tmp_path, monkeypatch):
        # one member at a time: the death fails its member and the next runs
        self.dying_sweep(
            tmp_path, monkeypatch, "sw1w", [0.3, 0.5, 0.7], {0.5}, threads="1")
        self.assert_members_match_direct(tmp_path, "sw1w", {0: 0.3, 2: 0.7})

    @fork_only
    def test_sweep_dead_worker_at_the_head(self, tmp_path, monkeypatch):
        # the first member dies: the rest still run
        self.dying_sweep(tmp_path, monkeypatch, "swh", [0.5, 0.3, 0.7, 0.4], {0.5})

    @fork_only
    def test_sweep_members_after_deaths_still_run(self, tmp_path, monkeypatch):
        # two deaths in a row, filling both slots, stop nothing
        self.dying_sweep(
            tmp_path, monkeypatch, "sws2", [0.5, 0.6, 0.3, 0.7], {0.5, 0.6})
        self.assert_members_match_direct(tmp_path, "sws2", {2: 0.3, 3: 0.7})

    @fork_only
    def test_sweep_survives_pool_broken_while_submitting(self, tmp_path, monkeypatch):
        # every member dies: each fails alone, and none runs again
        values = [i / 100 for i in range(40)]
        self.dying_sweep(tmp_path, monkeypatch, "swb", values, set(values))

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

    @pytest.mark.parametrize("alpha, beta, key", [
        ("nan", "1", "alpha"), ("0", "inf", "beta"), ("-inf", "1", "alpha"),
        ("0", "nan", "beta"),
    ])
    def test_selftest_non_finite_thresholds_exit_2(self, capsys, alpha, beta, key):
        """A threshold that is not finite is named before it forms the span."""
        code = main(["selftest-oscillator", f"--alpha={alpha}", f"--beta={beta}",
                     "--dt", "1e-3"])
        assert code == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err

    def test_selftest_nan_dt_exit_2(self, capsys):
        code = main(
            ["selftest-oscillator", "--alpha", "0", "--beta", "1", "--dt", "nan"]
        )
        assert code == 2
        assert "dt must be a finite number" in capsys.readouterr().err


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
    "atlas.csv": "841c58968276af06191c349f49ac5673eb1fb353b51ecf8d0eb6823679ca3c8d",
    "config.json": "8db7b4dc0a0cb22e305baf4bacb4c24020c9a66ec1a33020ddda7940fb004ef3",
    "growth.csv": "a4bc3b9b62be6b7afce7091a57ccc9265825b4734b358199d9851a0f7346a894",
    "h_000000.csv": "3073180d91a18b77e4f27493925b9edb9a5c2d979503931b2af30b7e1daf61ca",
    "h_000001.csv": "8641b25c55b01f7a15b6e839fe9567aa94554a015df7881bddf47cdb16e0bc2b",
    "h_000002.csv": "3a992a4013efacca7ea5ff40fa52646c5b60935082f6f67a9ac0ff32151ed3ed",
    "h_000003.csv": "ba4dd76e0a119ff328d6a3a7a8246fb4c0da2d1fd5622c894a9faa4e51875e60",
    "h_000004.csv": "d05a3c285b98cb3a0d986b9cc03c17b5c8aca2dc11030e924aaafc5b6454778e",
    "h_000005.csv": "bc4d1b31f2ef0ee03f196b04103eb52d2f3df3c503e8097f664c3b4ec5a4a552",
    "h_final.pgm": "7e674255637849ad562916e6d50a81f3188565da9003f4469b06ca25e77f1a6b",
    "manifest.json": "26d70763105ac88a2907e20e4836af8f9e3dda088f2876e7795f9681a4158370",
    "phi.csv": "f1671d9dbbaa58d63bf9fd97eb66e6a5a5812fe2c7fa180dd5afb3c8dffee0dc",
    "profile.csv": "c04e65c1c94f607a6f08157ceeb0173b0c28979d8999613fe27bc9c48bef6c89",
    "signs.csv": "ec6f4327e5c3f0d69ea2430f09833a3170ef53fd48bd3df03d6c88cda8098e22",
    "summary.json": "bae27df294ba38fbf13545b5494e68fe4d68d0d869e416bdaa122f74e315a8a8",
    "u_000000.csv": "dd0dd3019b07531874f95c2ae0ca629a8f5ec44ba82922c0f4ffa1bd138fc91d",
    "u_000001.csv": "3e7e4453cba62e65a7d90bc300b6d69d8db4088931c2a95eb01c1dc8aac9ee6c",
    "u_000002.csv": "6c555d23f6aef9d00add2be6fd56e2125783885e0c594720d39f9596b9865bae",
    "u_000003.csv": "0a7ea8fb4603025485417395b8bfaee7b6506095d7e65641e22edc555546048e",
    "u_000004.csv": "d7fbc4ccb2d6211533d471a88023db6b35522572d1965c834ccf6518bc7074af",
    "u_000005.csv": "a117e24eef5c35a28c0f8b52ea6630678af684bf66b4bba601afa224787d39f2",
    "u_final.pgm": "e49efe50a27fd5912a3f3e037cd5464551eea620f1576619b2b41d740b1b64d4",
    "walls.csv": "cf10d308b5506076fd9be7ece082f6f237ecf5ed82732bdcdef8d2cbb45feecd",
}


# sha256 of the times, u and h stacks that load_run returns for the golden
# runs: the file pins above may move with the text format, these may not
GOLDEN_ARRAYS = {
    "times": "1f4c28cb4122f4758cbd2dfe0ed46d4cdc5ab1ceec61b92c2c70c60601890562",
    "u": "0f425f9de7d5791dba394558ce086e4eee93f61a4a501d1a26d0773a17d3a8d3",
    "h": "5aa30c46cb446f075d4f4062825f6e0ed6cc3b6d208680966488fbcf088db75c",
}


def array_digests(run_dir) -> dict:
    sol, _ = load_run(run_dir)
    return {k: hashlib.sha256(getattr(sol, k).tobytes()).hexdigest()
            for k in ("times", "u", "h")}


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
    assert array_digests("run") == GOLDEN_ARRAYS


# The same for small 2D plateau runs, one per boundary condition kind, on a
# grid with different spacings along x and y; the Neumann run also stores a
# final snapshot off the stride.  Both runs flip relays in both directions.
# Every file is pinned: the config, each snapshot, both PGMs, the manifest
# (which holds sup_bound_M) and the analysis files; then the loaded stacks,
# as above.
GOLDEN_2D_BASE = {
    "dim": 2, "extent": [2.0, 1.0], "nx": [9, 6], "dt": 0.008, "T": 0.2,
}
GOLDEN_2D = {
    "neumann": (
        dict(GOLDEN_2D_BASE, name="golden2d_neumann", alpha=0.0, beta=1.0,
             bc={"kind": "neumann"}, snapshot_stride=4,
             preset={"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1}),
        {
            "atlas.csv":
                "391ee329d0b9a4d34314964ebf0847b171b3370fa419932dabaa6c64b2bed4cf",
            "config.json":
                "432da67dba2cfccdcafa28d7b32c96d7dd3458ce0700e3d1dc2aedca7a5487bd",
            "growth.csv":
                "b662f8dda1f7843a9749e8cfe05d424615c605fe73c72ecc88ae23ad51a6ff37",
            "h_000000.csv":
                "78019fc1f817dc02102aeeac75cc800acf584d47cb940c032a076806786b6c7d",
            "h_000001.csv":
                "165aaaefadc9876b15fcbd4464dad32c397509068a0c3d7a1acea305504ab7e2",
            "h_000002.csv":
                "7fea72ea263ee20990a59c570a19dbea41d87f4ebd7b33cd360f4ad0cb5c0a38",
            "h_000003.csv":
                "92d87fc6e5b0fbc8524fc9718e5056d626159bdf0b9993f41cef588629c681e3",
            "h_000004.csv":
                "cb3f5b0bfc3047861315dbf562a27db50344608c3f9b2c45bd8bf8e4a039711f",
            "h_000005.csv":
                "af42aa843abb0a992d552769aa2ecabef9d646d98f6393db2c289fe68c1c1a1a",
            "h_000006.csv":
                "b6f0b34bffa9b88f9d8d4f1ae76fcbd1dbe50f20e06e6253fef1c96fdf3f26a8",
            "h_000007.csv":
                "ae8b4110e56a984a7be7ee1355ec0ce4165a8fd7ed15da699744a7d3d58cb618",
            "h_final.pgm":
                "de221c661e84cded85e0498430381919d8485d13530ca2d787d8e3b9da9813ad",
            "manifest.json":
                "6f958898b9f7178509dde6e9e5ba02387ff167fc86bcea4e5c7bf88a5a864990",
            "phi.csv":
                "82c7537750304a184f622c881f6f14837d551bcdf4956f1e911556f26416073b",
            "profile.csv":
                "04b04ce2206550c9985518480babe1d1fd3163f771c7ef55f4748394711cc6eb",
            "signs.csv":
                "f3f9aa0bd661bcb60f960ee4f9e6dc6beb0e88f9824d7175a1a3d49880261f55",
            "summary.json":
                "2191de31f598c3b121948187e0f401c6b153fcaa9d221efd69ccd9267b121d89",
            "u_000000.csv":
                "80c668f66edb3e2a96b24e647a06c63374365c8103144ed67282c490753ce131",
            "u_000001.csv":
                "505b7bbe57f21b82a614d34ef4a8c38affb6e23f89cd5f1d19603854dd5e7992",
            "u_000002.csv":
                "729d2c09d8bced5935b940325a8a6794fe0a54636c0d10c72c0cfab643e8db58",
            "u_000003.csv":
                "a4a5134f1f29521befe5f80d50e52818af99366592414e5fb45dc4b05934e823",
            "u_000004.csv":
                "706cf900a19db85fc89d9c07aff2ccb170d31abfdc4c955887f2cb8fd7a9560f",
            "u_000005.csv":
                "57796ee23fa6b7d63aa6163154226207f86b010611d31a899e04897b3444a722",
            "u_000006.csv":
                "2f977c5c9a9c8d66dacbf6a13cc2d3dff2902e8d34f72b8c716980d78f1d669a",
            "u_000007.csv":
                "c0393feee3cffe42c5c46ddf9868c6ff2d95c9af0515ff5f98020290f02d49da",
            "u_final.pgm":
                "0a07f483abb8920a983571a2896905eec28979c806cf7b9ad6135a7f9caef38b",
            "walls.csv":
                "be299e59da081c0dcc80cdf3cf104168880a96b162d049e9c25a705e58639405",
        },
        {
            "times": "7863f3689189c43639d6e6116ba53945ccc726186bc24445f4a0185c16dfc201",
            "u": "8dbcc754b45d79ccd81cd563d8a272b4805dfa534d630e8474fa4c29c0193d10",
            "h": "71c0c294219dc1de8f93238b73628c1b0e9fcbe05a0b262e9a4aba14befc2456",
        },
    ),
    "dirichlet": (
        dict(GOLDEN_2D_BASE, name="golden2d_dirichlet", alpha=0.28, beta=0.31,
             bc={"kind": "dirichlet", "value": 0.3}, snapshot_stride=5,
             preset={"kind": "plateau", "level": 0.29, "curvature": 0.01, "h0": 1}),
        {
            "atlas.csv":
                "183e1f07063c7c4b86874e266cb7f4ccc96906aa0809ff73ca7c745693c2d4e0",
            "config.json":
                "b3933293f819fafce98d1d02c2ce86932ebbb8a15074ccd4d6a01dcf232a29ca",
            "growth.csv":
                "b662f8dda1f7843a9749e8cfe05d424615c605fe73c72ecc88ae23ad51a6ff37",
            "h_000000.csv":
                "78019fc1f817dc02102aeeac75cc800acf584d47cb940c032a076806786b6c7d",
            "h_000001.csv":
                "7eba8774e3ae9588a1f136d3b5aeef5671120ca10c9a76b1003387b8a388501c",
            "h_000002.csv":
                "007eb5efd3a2f4f3b97e0f2cd6c374c4f457b1047a77f86bc58aa95c977f4f37",
            "h_000003.csv":
                "c68f7e9893822aa59763b6cf1a3aeac37c31701f73a1470fa7d872628302741e",
            "h_000004.csv":
                "4e4dfd3778ad02e7a27b98e8b868d7440202c6195807bc08ba1568d75effbbcf",
            "h_000005.csv":
                "babfd42a37050118e06f9f75449eb7320d8499af11e506324e0d88b29606da51",
            "h_final.pgm":
                "de221c661e84cded85e0498430381919d8485d13530ca2d787d8e3b9da9813ad",
            "manifest.json":
                "98122b57ec1a2285cf4ef11742672f4748ca889a1e06414388b0b285ccbc8802",
            "phi.csv":
                "82c7537750304a184f622c881f6f14837d551bcdf4956f1e911556f26416073b",
            "profile.csv":
                "63154b4a45bba16e786824eb7cc63af16e574eb6bd02302ae8d93596da6108e1",
            "signs.csv":
                "ec6f4327e5c3f0d69ea2430f09833a3170ef53fd48bd3df03d6c88cda8098e22",
            "summary.json":
                "98b3b6295b0c210f54da20dafecd3ba8f8fc70f470604440ab855e8eba58f8bd",
            "u_000000.csv":
                "aee0b5b4178831d474d5d4d4e04a68cd59ac4229d32fb746f193a2c74bee3e2d",
            "u_000001.csv":
                "7600388563dd93fe6334d6432410b83538fc3423791527cf999bfb7ae157f114",
            "u_000002.csv":
                "c9184f7f6bfb9dc43d894b7cabdd17e1979785a292d3ab07b1de39febe3b1fc1",
            "u_000003.csv":
                "06a79a9fe32e7b7524fa33058454b0e5188870426189fe81afe30b916cf4211c",
            "u_000004.csv":
                "753048f3243732a388569f88d2f0cc09af82d951aeaa03175d044f36e30c4c19",
            "u_000005.csv":
                "281147222bd4d068c5788fe588a7105199e46af53ec09d1b926f99f490f389ae",
            "u_final.pgm":
                "8de847dd2d9c11b234ee05c97556a975bff1ef1f760524bf8c667c286663b127",
            "walls.csv":
                "be299e59da081c0dcc80cdf3cf104168880a96b162d049e9c25a705e58639405",
        },
        {
            "times": "1f4c28cb4122f4758cbd2dfe0ed46d4cdc5ab1ceec61b92c2c70c60601890562",
            "u": "7c89508e67827b9e1a5b84acd93d0b7f32a846059daa5c8fe08209f54442bd1b",
            "h": "6ca0a0f970e3ad0f8da52da5b531189c518507f849503fe12549ec6007c7ee0a",
        },
    ),
}


@pytest.mark.parametrize("bc", sorted(GOLDEN_2D))
def test_golden_digests_2d(tmp_path, monkeypatch, bc):
    cfg, digests, arrays = GOLDEN_2D[bc]
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(cfg, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    assert main(["analyze", "run"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in Path("run").iterdir()}
    assert got == digests
    assert array_digests("run") == arrays


# A small 1D two-phase run whose right phase falls through alpha towards the
# wall: the wall rows, a near-wall event the sign check skips and the
# profile's distances to the walls are pinned.  The preset and the analysis
# use only + - * / and sqrt, as above; the ladder's largest radius exceeds
# every boundary gap, so no phi table (the heat kernel's exp) enters the
# summary.  The manifest pins the run files by their digests.
GOLDEN_WALL_CONFIG = {
    "name": "golden_wall", "dim": 1, "extent": [1.0], "nx": [21], "dt": 0.001,
    "T": 0.4, "alpha": 0.0, "beta": 1.0, "bc": {"kind": "neumann"},
    "snapshot_stride": 20,
    "preset": {"kind": "two_phase_wall", "u0": 0.1, "wall_position": 0.1},
}
GOLDEN_WALL_ANALYZE = ["--grad-tol", "0.01", "--radii", "0.6,0.3"]
GOLDEN_WALL_DIGESTS = {
    "atlas.csv": "0f43da0c37641b78bef67464194d14509081983ff92672436c70a1b76032f413",
    "config.json": "868ddf3ab0a2a92ea0b401b0dd861d2ff6bf86582b652e2fdf923de0b83450ae",
    "growth.csv": "19bd12be037610d976f61ece89b1ebe5b018ae6348e0d86ee77e8d685d3424c9",
    "manifest.json": "a08b94d56f5d7b91cfa7efb90af454a5b65591b53c0cf5db461ee130184f12be",
    "phi.csv": "f1671d9dbbaa58d63bf9fd97eb66e6a5a5812fe2c7fa180dd5afb3c8dffee0dc",
    "profile.csv": "c9bc42458489f34a58639b48dc8565affdd64736d74d434bf0143b981805e159",
    "signs.csv": "6534d8d724bf8a6eb83668af649b604692fa6ac7f234f67ad0bb9fb0a5c57e44",
    "summary.json": "b20c102991a5331d04b77725866dc4349053e154fb471c00c67106f3066bee53",
    "walls.csv": "c5e15463b02e6a231ac8ae8bfa5e75eeb62d876947447c9f16c91acd94d88c42",
}
GOLDEN_WALL_ARRAYS = {
    "times": "88c5599c522a397226e41126de304f8a24ca050d6bde6dc618dcd5c2d6922f60",
    "u": "e1594c7385b2d97c9d3cc00df08bd35f9736072a7bacd10ccf22d33be2f512dc",
    "h": "5986569ce9b8cbddc755987117c932a1757ceb09a786c7f4ac2d7e688fb5449d",
}


def test_golden_digests_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(GOLDEN_WALL_CONFIG, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    assert main(["analyze", "run", *GOLDEN_WALL_ANALYZE]) == 0
    got = {
        name: hashlib.sha256((Path("run") / name).read_bytes()).hexdigest()
        for name in GOLDEN_WALL_DIGESTS
    }
    assert got == GOLDEN_WALL_DIGESTS
    assert array_digests("run") == GOLDEN_WALL_ARRAYS
    signs = (Path("run") / "signs.csv").read_text().splitlines()[1].split(",")
    assert signs[2] == "1"  # skipped_near_wall
    assert len((Path("run") / "walls.csv").read_text().splitlines()) == 1 + 7


@pytest.mark.parametrize("cfg", [GOLDEN_CONFIG, GOLDEN_2D["neumann"][0]],
                         ids=["1d", "2d"])
def test_legacy_float_relay_files_load_alike(tmp_path, monkeypatch, cfg):
    """A run directory whose h files hold the older ``-1.0``/``1.0`` text
    (digests updated) loads to the same relay stack, and its analysis
    writes the same report files."""
    monkeypatch.chdir(tmp_path)
    Path("golden.json").write_text(json.dumps(dict(cfg, output_dir="run")))
    assert main(["run", "golden.json"]) == 0
    shutil.copytree("run", "legacy")
    sol, _ = load_run("run")
    manifest = json.loads(Path("legacy/manifest.json").read_text())
    for k, t in enumerate(sol.times):
        path = Path(f"legacy/h_{k:06d}.csv")
        data = old_render_snapshot(sol.h[k].astype(float), t)
        assert b"." not in path.read_bytes().split(b"\n", 1)[1]
        assert data.split(b"\n", 1)[1].count(b".0") == sol.h[k].size
        path.write_bytes(data)
        manifest["files"][path.name] = hashlib.sha256(data).hexdigest()
    Path("legacy/manifest.json").write_text(json.dumps(manifest))
    legacy, _ = load_run("legacy")
    assert legacy.h.dtype == sol.h.dtype and legacy.h.tobytes() == sol.h.tobytes()
    assert main(["analyze", "run"]) == 0 and main(["analyze", "legacy"]) == 0
    for name in ("summary.json", "atlas.csv", "walls.csv", "growth.csv", "phi.csv",
                 "signs.csv", "profile.csv"):
        assert Path("legacy", name).read_bytes() == Path("run", name).read_bytes()


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
    "phi.csv": "93d0f20a83307301a8ffed5a10de384aebf458ab09effe9ea85a3a2693fe6fe3",
    "summary.json": "53babaf710baba9d2fb1e9c8e2e446a92455af650a475c24e8944d9c66843e28",
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


def test_cli_import_leaves_lazy_modules_unloaded():
    """``setup_s`` compiles every module ``import hysterm.cli`` loads; the
    diagnostics and the process machinery load only when a command needs
    them."""
    script = """
import sys
import hysterm.cli
print(sorted(m for m in ("hysterm.diagnostics", "hysterm.growth", "multiprocessing",
                         "concurrent.futures", "logging") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hysterm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
