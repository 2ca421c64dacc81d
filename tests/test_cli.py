import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from bandlt import bandset, cli, hill, ltsums, moebius, operators
from bandlt.errors import (EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_NUMERICAL, ConfigError,
                           ValidationError)


@pytest.fixture(scope="module")
def bands_file(tmp_path_factory):
    """Ray-closed band set for the cos potential, computed once."""
    I = bandset.close_with_ray(hill.band_edges_report(hill.cosine(1.0, 2 * math.pi), 10.0)[0])
    path = tmp_path_factory.mktemp("bands") / "I.json"
    path.write_text(json.dumps(bandset.to_json(I)))
    return str(path)


def spectrum_config(bands_file, **overrides):
    doc = {
        "v0": {"type": "cos", "q": 1.0, "period": 2 * math.pi},
        "v": {"type": "bump", "center": 25.0, "halfwidth": 3.0,
              "amplitude": [0.4, 0.6]},
        "grid": {"periods": 8, "points": 300, "boundary": "dirichlet"},
        "bands": {"file": bands_file},
        "exponents": {"p": 2.0, "epsilon": 0.5},
        "omega": "auto",
        "delta": "auto",
        "output": {"json": "out.json", "csv": "out.csv", "svg": "out.svg"},
        "seed": 11,
    }
    doc.update(overrides)
    return doc


class TestConfigHandling:
    def test_missing_section_names_path(self, tmp_path):
        status, result = cli.run({"command": "spectrum"}, out_dir=str(tmp_path))
        assert status == EXIT_CONFIG
        assert "v0" in result["error"]

    def test_bad_field_type_names_path(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file)
        doc["grid"]["points"] = "many"
        status, result = cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert status == EXIT_CONFIG
        assert "grid.points" in result["error"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_path(self, tmp_path, bands_file, value):
        doc = spectrum_config(bands_file, theorem="T1")
        doc["v"]["center"] = value
        status, result = cli.run(doc, command="ltcheck", out_dir=str(tmp_path))
        assert status == EXIT_CONFIG
        assert "v.center" in result["error"]

    def test_infinite_e_max_refused_before_scan(self):
        # an infinite e_max would pass the > 0 check of band_edges_report
        doc = {"v0": {"type": "free", "period": 1.0},
               "bands": yaml.safe_load("{e_max: .inf}")}
        status, result = cli.run(doc, command="bands")
        assert status == EXIT_CONFIG
        assert "bands.e_max" in result["error"]

    def test_grid_points_over_cap_refused_before_assembly(self, tmp_path, bands_file,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator assembled despite the size cap")

        monkeypatch.setattr(operators, "discretize", refuse)
        doc = spectrum_config(bands_file)
        doc["grid"]["points"] = operators.SOLVER_CAP + 1
        status, result = cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert status == EXIT_CONFIG
        assert "grid.points" in result["error"]

    @pytest.mark.parametrize("command", ["spectrum", "ltcheck", "sweep"])
    def test_periodic_boundary_refused(self, tmp_path, bands_file, monkeypatch, command):
        # models are Dirichlet boxes only: a ring request exits 2 by name
        def refuse(*args, **kwargs):
            raise AssertionError("operator assembled for a periodic grid")

        monkeypatch.setattr(operators, "discretize", refuse)
        doc = spectrum_config(bands_file, theorem="T1", alphas=[1.0])
        doc["grid"]["boundary"] = "periodic"
        status, result = cli.run(doc, command=command, out_dir=str(tmp_path))
        assert status == EXIT_CONFIG, result
        assert "grid.boundary" in result["error"]

    @pytest.mark.parametrize("command", ["spectrum", "ltcheck"])
    @pytest.mark.parametrize("grid", [{"length": 1e300}, {"length": 1e-170},
                                      {"periods": 1e308}],
                             ids=["length-huge", "length-tiny", "periods-overflow"])
    def test_unusable_grid_exits_2_before_sampling(self, tmp_path, bands_file, monkeypatch,
                                                   command, grid):
        # h^2 overflows or underflows, or periods times the period is inf:
        # refused with no float error or warning and before V0 is sampled
        potential = cli._potential

        def unsampled(cfg):
            def refuse(x):
                raise AssertionError("V0 sampled despite an unusable grid")
            v0 = potential(cfg)
            return hill.PeriodicPotential(v0.period, refuse, v0.sup_norm)

        monkeypatch.setattr(cli, "_potential", unsampled)
        doc = spectrum_config(bands_file, theorem="T1", output={})
        doc["grid"] = {"points": 60, **grid}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, result = cli.run(doc, command=command, out_dir=str(tmp_path))
        assert status == EXIT_CONFIG, result
        assert re.search("length|spacing", result["error"])

    @pytest.mark.parametrize("command, field, value", [
        ("distort", "samples", -5),
        ("distort", "samples", 0),
        ("distort", "samples", 10**7 + 1),
        ("hansmann", "trials", -3),
        ("hansmann", "trials", 0),
        ("hansmann", "trials", 10**4 + 1),
        ("hansmann", "n", 1),
        ("hansmann", "n", operators.SOLVER_CAP + 1),
    ], ids=["samples-negative", "samples-zero", "samples-over-cap", "trials-negative",
            "trials-zero", "trials-over-cap", "n-one", "n-over-cap"])
    def test_count_out_of_range_refused_before_work(self, monkeypatch, bands_file,
                                                    command, field, value):
        def refuse(*args, **kwargs):
            raise AssertionError("ran despite an out-of-range count")

        monkeypatch.setattr(moebius, "verify_distortion", refuse)
        monkeypatch.setattr(ltsums, "hansmann_ensemble", refuse)
        doc = {"bands": {"file": bands_file}, "distort": {"omega": -0.5},
               "hansmann": {"p": 2.0, "scale": 0.5}}
        doc[command][field] = value
        status, result = cli.run(doc, command=command)
        assert status == EXIT_CONFIG
        assert f"{command}.{field}" in result["error"]

    def test_integer_range_is_inclusive(self):
        cfg = cli.Cfg({"k": 5}, "s")
        assert cfg.integer("k", lo=5, hi=5) == 5
        with pytest.raises(ConfigError, match="'s.k' = 5 is below the minimum 6"):
            cfg.integer("k", lo=6)
        with pytest.raises(ConfigError, match="'s.k' = 5 exceeds the cap 4"):
            cfg.integer("k", hi=4)

    @pytest.mark.parametrize("value, status", [
        ("false", EXIT_CONFIG), (0, EXIT_CONFIG), (True, 0), (False, 0),
    ], ids=["string", "int", "true", "false"])
    def test_hansmann_diagonal_is_a_boolean(self, value, status):
        doc = {"hansmann": {"n": 5, "trials": 3, "diagonal": value}}
        got, result = cli.run(doc, command="hansmann", seed=1)
        assert got == status, result
        if status == EXIT_CONFIG:
            assert "hansmann.diagonal" in result["error"]
        else:
            assert result["diagonal"] is value

    @pytest.mark.parametrize("value, status", [
        ("no", EXIT_CONFIG), (0, EXIT_CONFIG), (True, 0), (False, 0),
    ], ids=["string", "int", "true", "false"])
    def test_close_with_ray_is_a_boolean(self, tmp_path, monkeypatch, value, status):
        two_bands = bandset.validate([(0.5, 1.0), (1.5, 3.0)])
        monkeypatch.setattr(hill, "band_edges_report", lambda *a, **k: (two_bands, {}))
        doc = spectrum_config(None, output={})
        doc["grid"]["points"] = 60
        doc["bands"] = {"e_max": 3.0, "close_with_ray": value}
        got, result = cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert got == status, result
        if status == EXIT_CONFIG:
            assert "bands.close_with_ray" in result["error"]
        else:
            expect = bandset.close_with_ray(two_bands) if value else two_bands
            assert result["band_set"] == bandset.to_json(expect)

    def test_v0_spec_dispatch(self):
        def potential(v0):
            return cli._potential(cli.Cfg({"v0": v0}))

        assert potential({"type": "free", "period": 2.0}).period == 2.0
        V = potential({"type": "cos", "q": 1.5})
        assert V.sup_norm == 3.0
        V = potential({"type": "samples", "period": 1.0, "values": [0.0, 1.0, 0.0, 1.0]})
        assert V.period == 1.0
        with pytest.raises(ValidationError):
            potential({"type": "sawtooth"})

    @pytest.mark.parametrize("command, edit, field", [
        ("distort", lambda d: d["bands"].update(file="/nonexistent/I.json"), "bands.file"),
        ("distort", "not-json", "bands.file"),
        ("sweep", lambda d: d.update(alphas=["a"]), "alphas[0]"),
        ("sweep", lambda d: d.update(alphas=[1.0, None]), "alphas[1]"),
        ("ltcheck", lambda d: d.update(theorem="T3", a_values="x"), "a_values"),
        ("bands", lambda d: d.update(bands={"e_max": 10**400}), "bands.e_max"),
        ("bands", lambda d: d.update(v0={"type": "cos"}), "v0.q"),
        ("bands", lambda d: d.update(v0={"type": "cos", "q": "x"}), "v0.q"),
        ("spectrum", lambda d: d["v"].update(amplitude=["a", 1]), "v.amplitude[0]"),
        ("ltcheck", lambda d: d["exponents"].update(p=1.0), "exponents.p"),
        ("hansmann", lambda d: d.update(hansmann={"n": 5, "trials": 3, "p": 1.0}),
         "hansmann.p"),
    ], ids=["file-missing", "file-not-json", "alpha-string", "alpha-null",
            "a_values-string", "e_max-int-overflow", "q-missing", "q-string",
            "amplitude-string", "p-at-one", "hansmann-p-at-one"])
    def test_malformed_field_exits_2(self, tmp_path, bands_file, command, edit, field):
        doc = spectrum_config(bands_file, theorem="T1", alphas=[1.0],
                              distort={"omega": -0.5, "samples": 10})
        doc["grid"]["points"] = 60
        if edit == "not-json":
            bad = tmp_path / "I.json"
            bad.write_text("{bands: [[1, 2]]")
            doc["bands"] = {"file": str(bad)}
        else:
            edit(doc)
        if command == "bands" and "e_max" not in doc["bands"]:
            doc["bands"] = {"e_max": 2.0}
        status, result = cli.run(doc, command=command, out_dir=str(tmp_path))
        assert status == EXIT_CONFIG, result
        assert field in result["error"]

    @pytest.mark.parametrize("bands, words", [
        ({"e_max": 1e12}, "RK4 steps"),
    ], ids=["too-many-steps"])
    def test_hill_refuses_unbounded_work(self, monkeypatch, bands, words):
        def refuse(*args, **kwargs):
            raise AssertionError("monodromy integrated despite the refusal")

        monkeypatch.setattr(hill, "_monodromy_batch", refuse)
        doc = {"v0": {"type": "cos", "q": 1.0, "period": 2 * math.pi}, "bands": bands}
        status, result = cli.run(doc, command="bands")
        assert status == EXIT_CONFIG
        assert words in result["error"]

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d["bands"].update(scan_step=0.1), "bands.scan_step"),
        (lambda d: d["bands"].update(emax_typo=1), "bands.emax_typo"),
        (lambda d: d.update(thoerem="T1"), "thoerem"),
        (lambda d: d["v0"].update(amplitude=2.0), "v0.amplitude"),
        (lambda d: d.update(output={"jsn": "x.json"}), "output.jsn"),
    ], ids=["scan_step", "bands-typo", "top-level-typo", "v0-key", "output-key"])
    def test_unknown_key_exits_2_naming_it(self, monkeypatch, edit, path):
        def refuse(*args, **kwargs):
            raise AssertionError("monodromy integrated despite an unknown key")

        monkeypatch.setattr(hill, "_monodromy_batch", refuse)
        doc = {"v0": {"type": "cos", "q": 2.0}, "bands": {"e_max": 9.0}}
        edit(doc)
        status, result = cli.run(doc, command="bands")
        assert status == EXIT_CONFIG, result
        assert f"'{path}'" in result["error"]

    def test_cos_zero_period_exit_2(self):
        # refused before 2 pi / period, which exited 4 on a float division
        doc = {"v0": {"type": "cos", "q": 1.0, "period": 0}, "bands": {"e_max": 9.0}}
        status, result = cli.run(doc, command="bands")
        assert status == EXIT_CONFIG, result
        assert "period must be positive" in result["error"]

    @pytest.mark.parametrize("v0", [
        {"type": "cos", "q": 1e308},
        {"type": "cos", "q": 1.0, "period": 1e308},
        {"type": "cos", "q": 1.0, "period": 1e-320},
        {"type": "free", "period": 1e308},
        {"type": "samples", "values": [0.0, 1.0, 2.0], "period": 1e308},
    ], ids=["cos-q", "cos-period-huge", "cos-period-tiny", "free-period", "samples-period"])
    def test_v0_overflow_exit_2(self, v0):
        # refused before the sup norm 2 q, the probe grid x + period or the
        # wave number 2 pi / period overflows: no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, result = cli.run({"v0": v0, "bands": {"e_max": 9.0}}, command="bands")
        assert status == EXIT_CONFIG, result
        assert re.search("2 q finite|period must be positive", result["error"])

    @pytest.mark.parametrize("command, doc", [
        ("distort", {"v0": {"type": "cos", "q": 1.0}, "bands": {"e_max": 4.0},
                     "distort": {"omega": -0.5, "variant": "uniform", "samples": 10}}),
        ("hansmann", {"hansmann": {"n": 10, "trials": 5, "p": 2.0, "scale": 0.5}}),
    ], ids=["distort", "hansmann"])
    def test_negative_seed_exit_2(self, tmp_path, command, doc):
        # numpy's default_rng raised ValueError past cli.run and main
        status, result = cli.run({**doc, "seed": -1}, command=command)
        assert status == EXIT_CONFIG, result
        assert result["error"] == "'seed' = -1 is below the minimum 0"
        status, result = cli.run(doc, command=command, seed=-1)
        assert status == EXIT_CONFIG, result
        assert result["error"] == "'--seed' = -1 is below the minimum 0"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert cli.main([command, "--config", str(cfg), "--seed", "-1"]) == EXIT_CONFIG

    def test_samples_below_zero_exit_3(self):
        doc = {"v0": {"type": "samples", "period": 1.0, "values": [1.0, -1e-6, 1.0]},
               "bands": {"e_max": 9.0}}
        status, result = cli.run(doc, command="bands")
        assert status == EXIT_HYPOTHESIS, result

    @staticmethod
    def readme_blocks():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return {text.split()[1]: yaml.safe_load(text)
                for text in re.findall(r"```yaml\n(.*?)```", readme, re.S)}

    def test_readme_configs_run(self, tmp_path, monkeypatch):
        # every YAML block of the README, run by the commands it names;
        # the ltcheck block adds to spectrum.yaml and serves sweep too
        blocks = self.readme_blocks()
        assert set(blocks) == {"bands.yaml", "spectrum.yaml", "ltcheck.yaml",
                               "distort.yaml", "hansmann.yaml"}
        model = {**blocks["spectrum.yaml"], **blocks["ltcheck.yaml"]}
        monkeypatch.chdir(tmp_path)  # outputs, and bands.json for distort
        for command, doc in [("bands", blocks["bands.yaml"]),
                             ("distort", blocks["distort.yaml"]),
                             ("spectrum", blocks["spectrum.yaml"]),
                             ("ltcheck", model), ("sweep", model),
                             ("hansmann", blocks["hansmann.yaml"])]:
            status, result = cli.run(doc, command=command)
            assert status == 0, (command, result)

    def test_readme_distort_repeats_without_seed(self, tmp_path, monkeypatch):
        # distort.yaml names no seed: both runs draw from seed 0 and record it
        blocks = self.readme_blocks()
        assert "seed" not in blocks["distort.yaml"]
        monkeypatch.chdir(tmp_path)
        assert cli.run(blocks["bands.yaml"], command="bands")[0] == 0
        reports = []
        for _ in range(2):
            assert cli.run(blocks["distort.yaml"], command="distort")[0] == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["seed"] == 0

    def test_yaml_file_loading(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"command": "bands",
                                       "v0": {"type": "free", "period": 1.0},
                                       "bands": {"e_max": 20.0}}))
        assert cli.load_config(str(cfg))["command"] == "bands"

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/path.yaml")


class TestFloatFailures:
    HUGE_V = {"type": "bump", "center": 25.0, "halfwidth": 3.0, "amplitude": [1e160, 0]}

    @pytest.mark.parametrize("command, changes", [
        ("ltcheck", {"theorem": "T1", "v": HUGE_V}),
        ("ltcheck", {"theorem": "T2", "v": HUGE_V}),
        ("ltcheck", {"theorem": "T3", "v": HUGE_V}),
        ("ltcheck", {"theorem": "T1", "exponents": {"p": 1000}}),
        ("ltcheck", {"theorem": "T1simplified", "exponents": {"p": 1000}}),
        ("ltcheck", {"theorem": "T2", "exponents": {"p": 1000}}),
        ("ltcheck", {"theorem": "T1", "exponents": {"p": 1e300}}),
        ("ltcheck", {"theorem": "T3", "exponents": {"p": 1e300}}),
        ("hansmann", {"hansmann": {"n": 5, "trials": 3, "p": 1e5}}),
    ], ids=["amplitude-T1", "amplitude-T2", "amplitude-T3", "p1000-T1",
            "p1000-T1simplified", "p1000-T2", "p1e300-T1", "p1e300-T3",
            "hansmann-p1e5"])
    def test_overflow_exits_4(self, tmp_path, bands_file, command, changes):
        # finite configs whose bound formulas overflow, underflow a sum of
        # positive terms to 0, or divide by zero
        doc = spectrum_config(bands_file, output={}, **changes)
        doc["grid"]["points"] = 60
        status, result = cli.run(doc, command=command, seed=1, out_dir=str(tmp_path))
        assert status == EXIT_NUMERICAL, result
        assert "float arithmetic failed" in result["error"]

    @pytest.mark.parametrize("command, section, changes, key", [
        ("spectrum", "v", {"halfwidth": 1e-320}, "v.halfwidth"),
        ("spectrum", "v", {"amplitude": -1e308}, "v.amplitude"),
        ("hansmann", "hansmann", {"scale": 1e308}, "hansmann.scale"),
        ("hansmann", "hansmann", {"scale": -1e308}, "hansmann.scale"),
    ], ids=["halfwidth-1e-320", "amplitude-minus-1e308", "scale-1e308", "scale-minus-1e308"])
    def test_overflowing_magnitude_exits_2(self, tmp_path, bands_file, command, section,
                                           changes, key):
        # each once overflowed with a RuntimeWarning (an error in this suite)
        # in a divide, a dot or a power before it could fail
        doc = spectrum_config(bands_file, output={},
                              hansmann={"n": 5, "trials": 3, "p": 2.0})
        doc["grid"]["points"] = 60
        doc[section].update(changes)
        status, result = cli.run(doc, command=command, seed=1, out_dir=str(tmp_path))
        assert status == EXIT_CONFIG, result
        assert key in result["error"]

    @pytest.mark.parametrize("command, v, status, keys", [
        ("spectrum", {"amplitude": 1e308}, 0, ()),
        ("spectrum", {"amplitude": [0.0, 1e308]}, EXIT_NUMERICAL, ()),
        ("spectrum", {"amplitude": -cli._MAX_DEPTH}, 0, ()),
        ("spectrum", {"amplitude": np.nextafter(-cli._MAX_DEPTH, -np.inf)}, EXIT_CONFIG,
         ("v.amplitude",)),
        ("ltcheck", {"amplitude": -cli._MAX_DEPTH}, EXIT_NUMERICAL, ()),
        ("spectrum", {"type": "samples", "values": [-1e200, 0.0]}, EXIT_CONFIG, ("v.values",)),
        ("ltcheck", {"type": "samples", "values": [-1e160, 0.0]}, EXIT_CONFIG, ("v.values",)),
        ("spectrum", {"coupling": 1e300, "amplitude": 1e300}, EXIT_CONFIG,
         ("v.amplitude", "v.coupling")),
        ("sweep", {"coupling": 1e10, "amplitude": 1.0}, EXIT_CONFIG,
         ("v.amplitude", "v.coupling")),
    ], ids=["barrier-1e308", "imaginary-1e308", "deepest-well", "past-deepest-well",
            "deepest-well-ltcheck", "samples-well-1e200", "samples-well-1e160-ltcheck",
            "coupling-times-amplitude-overflows", "sweep-alpha-times-amplitude-overflows"])
    def test_extreme_amplitude_fails_cleanly(self, tmp_path, bands_file, command, v,
                                             status, keys):
        # only a well deeper than _MAX_DEPTH, or an alpha V past the float
        # range, is refused (naming its keys); the rest either run or fail
        # as numerics, and none lets an overflow warning (an error here)
        # escape.  A samples V holds the given pair at one node, 0 elsewhere
        doc = spectrum_config(bands_file, output={}, theorem="T1", alphas=[1.0, 1e300])
        doc["grid"]["points"] = 60
        doc["v"].update(v)
        if doc["v"]["type"] == "samples":
            doc["v"]["values"] = [[0.0, 0.0]] * 30 + [v["values"]] + [[0.0, 0.0]] * 29
        got, result = cli.run(doc, command=command, seed=1, out_dir=str(tmp_path))
        assert got == status, result
        assert all(key in result["error"] for key in keys), result
        if command == "ltcheck" and status == EXIT_NUMERICAL:
            assert "overflow encountered in power" in result["error"]

    def test_huge_barrier_states_run(self, tmp_path):
        # on a ray-free band set the barrier states up to Re 9.5e307 are
        # candidates; their inverse-iteration solves pass 1e154, where the
        # 2-norm overflows, and were once called "diverged" (exit 4)
        bands = tmp_path / "I.json"
        bands.write_text(json.dumps(bandset.to_json(
            hill.band_edges_report(hill.cosine(2.0), 4.0)[0])))
        doc = spectrum_config(str(bands), output={})
        doc["grid"]["points"] = 30
        doc["v"]["amplitude"] = 1e308
        status, result = cli.run(doc, command="spectrum", seed=1, out_dir=str(tmp_path))
        assert status == 0, result
        assert len(result["discrete"]) == 4
        assert min(z[0] for z in result["discrete"]) > 1e306

    def test_import_leaves_out_quadrature_and_special_functions(self):
        mods = ("scipy.integrate", "scipy.special", "scipy.optimize")
        code = f"import sys, bandlt.cli; print(*(m for m in {mods!r} if m in sys.modules))"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == []

    def test_bands_and_distort_leave_out_scipy(self, tmp_path):
        # neither command builds an operator, so neither may load scipy
        doc = {"v0": {"type": "cos", "q": 2.0}, "bands": {"e_max": 9.0},
               "distort": {"omega": -1.0, "samples": 100}}
        code = ("import sys, bandlt.cli\n"
                "for command in ('bands', 'distort'):\n"
                f"    assert bandlt.cli.run({doc!r}, command=command)[0] == 0\n"
                "print('scipy' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False"]


# hostile values for every fuzzed config path: wrong types, empty
# containers, float extremes, integers past the float range, and [re, im]
# pairs for a well far past the deepest one and for a product that overflows
_HOSTILE = [None, "", "x", True, [], {}, [None], 0, -1, 1e-320, 1e308, -1e308, 10**400,
            -10**400, 2**63, math.nan, math.inf, -math.inf, [-1e200, 0.0], [1e300, 1e300]]
_FUZZ_RUN_SECONDS = 5.0


def _fuzz_paths(doc):
    """The paths that the config fuzz sets: every top-level key of ``doc``
    and seed, every key that ``cli._KNOWN_KEYS`` allows in a section of
    ``doc``, and the first entry of every list among them."""
    for key in sorted(set(doc) | {"seed"}):
        yield (key,)
        value = doc.get(key)
        if isinstance(value, dict):
            for sub in sorted(cli._KNOWN_KEYS[key]):
                yield key, sub
                if isinstance(value.get(sub), list):
                    yield key, sub, 0
        elif isinstance(value, list):
            yield key, 0


def _with(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _bounded_run(doc, command, out_dir):
    """``cli.run`` with warnings as errors and SIGALRM after
    ``_FUZZ_RUN_SECONDS``: (status, result), or (None, the exception) for
    a warning, a timeout or any other exception that escapes."""
    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {_FUZZ_RUN_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _FUZZ_RUN_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.run(doc, command=command, out_dir=str(out_dir))
    except Exception as exc:
        return None, repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestConfigFuzz:
    """The README configs, shrunk, with each fuzzed path set in turn to each
    hostile value: every run ends in exit 0, 2, 3 or 4 within its time
    bound, and no warning escapes."""

    @staticmethod
    def bases(bands_path):
        blocks = TestConfigHandling.readme_blocks()
        spectrum = {**blocks["spectrum.yaml"], "grid": {"periods": 8, "points": 30},
                    "bands": {"file": bands_path}}
        model = {**spectrum, **blocks["ltcheck.yaml"], "alphas": [1.0, 0.5]}
        samples = {**spectrum, "v": {"type": "samples", "values": [[1.0, 0.0]] * 30}}
        step = {**spectrum, "v": {"type": "step", "center": 25.0, "halfwidth": 3.0,
                                  "amplitude": 2.0}}
        return [("bands", {**blocks["bands.yaml"], "bands": {"e_max": 4.0}}),
                ("distort", {**blocks["distort.yaml"], "bands": {"file": bands_path},
                             "distort": {**blocks["distort.yaml"]["distort"], "samples": 200}}),
                ("spectrum", spectrum), ("ltcheck", model), ("sweep", model),
                ("hansmann", {**blocks["hansmann.yaml"],
                              "hansmann": {"n": 8, "trials": 5, "p": 2.0, "scale": 0.5}}),
                ("spectrum", samples), ("spectrum", step)]

    def test_every_run_exits_cleanly(self, tmp_path):
        # the other commands read the bands base's Hill band set, which has
        # no terminal ray, from a file that no fuzzed run overwrites.  A
        # path is not read by the command when [{}], which no config getter
        # accepts, still runs clean; its other values are skipped
        bases = self.bases(str(tmp_path / "bands.json"))
        assert _bounded_run(bases[0][1], "bands", tmp_path)[0] == 0
        out = tmp_path / "runs"
        out.mkdir()
        failures, runs = [], 0
        for command, doc in bases:
            assert _bounded_run(doc, command, out)[0] == 0, command
            for path in _fuzz_paths(doc):
                if _bounded_run(_with(doc, path, [{}]), command, out)[0] == 0:
                    continue
                for value in _HOSTILE:
                    runs += 1
                    status, result = _bounded_run(_with(doc, path, value), command, out)
                    if status not in (0, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_NUMERICAL):
                        failures.append((command, path, value, result))
        assert runs > 3000
        assert not failures, failures[:10]


class TestHostileImaginaryPart:
    """Magnitudes of Im V that the first-order Aberth starts divide by or
    scale to, under warnings as errors: ``spectrum`` certifies finite
    eigenvalues or exits 4, and ``ltcheck`` and ``sweep`` exit 4 where the
    L^p norm of V underflows."""

    @pytest.mark.parametrize("v, statuses", [
        ({"coupling": 1e-320}, (0, 4, 4)),
        ({"type": "samples", "values": [[0.0, 1e-300 if i == 100 else 0.0]
                                        for i in range(300)]}, (0, 4, 4)),
        ({"amplitude": [0.0, 1e300]}, (4, 4, 4)),
    ], ids=["coupling-1e-320", "one-node-1e-300i", "bump-1e300i"])
    def test_status_and_finite_eigenvalues(self, tmp_path, bands_file, v, statuses):
        doc = spectrum_config(bands_file, theorem="T1", alphas=[1.0, 0.5])
        doc["v"] = {**doc["v"], **v}
        for command, expected in zip(("spectrum", "ltcheck", "sweep"), statuses):
            status, result = _bounded_run(doc, command, tmp_path)
            assert status == expected, (command, result)
            if status == 0:
                vals = np.array([complex(*z) for z in result["eigenvalues"]])
                assert vals.size == 300 and np.all(np.isfinite(vals))
            else:
                assert "not certified" in result["error"] or "underflowed" in result["error"]


class TestBandsCommand:
    def test_free_potential_single_band(self, tmp_path):
        doc = {
            "v0": {"type": "free", "period": 1.0},
            "bands": {"e_max": 50.0},
            "output": {"json": "bands.json"},
        }
        status, result = cli.run(doc, command="bands", out_dir=str(tmp_path))
        assert status == 0
        assert len(result["bands"]) == 1
        assert result["bands"][0][0] == pytest.approx(0.0, abs=1e-9)
        on_disk = json.loads((tmp_path / "bands.json").read_text())
        assert bandset.from_json(on_disk).num_bands == 1

    def test_free_potential_tiny_period(self):
        doc = {"v0": {"type": "free", "period": 1e-6}, "bands": {"e_max": 10.0}}
        status, result = cli.run(doc, command="bands")
        assert status == 0, result
        assert result["bands"] == [[0.0, 10.0]]


class TestDistortCommand:
    def test_verification_report(self, tmp_path):
        bands_file = tmp_path / "I.json"
        I = bandset.validate([(1, 2), (3, 4), (6, 8)])
        bands_file.write_text(json.dumps(bandset.to_json(I)))
        doc = {
            "bands": {"file": str(bands_file)},
            "distort": {"omega": -0.5, "variant": "uniform", "samples": 3000},
            "output": {"json": "distort.json"},
        }
        status, result = cli.run(doc, command="distort", seed=3,
                                 out_dir=str(tmp_path))
        assert status == 0
        assert result["samples"] == 3000
        assert result["violations"] == []
        assert result["min_quotient"] >= 1.0 - 1e-12


    @pytest.mark.parametrize("edges, omega, variant, match", [
        ([(1, 2), (3, 4), (6, 8)], 100.0, "gap", "below a_1"),
        ([(1, 2), (3, 4), (6, 8)], 1e6, "uniform", "below a_1"),
        ([(1, 2), (3, 4), (6, 8)], 0.5, "uniform", "omega <= 0"),
        ([(1, 2)], -0.5, "gap", "no gaps"),
    ], ids=["gap-omega-above-a1", "uniform-omega-above-a1", "uniform-omega-positive",
            "gap-no-gaps"])
    def test_precondition_refused_before_any_draw(self, tmp_path, monkeypatch,
                                                  edges, omega, variant, match):
        class NoDraws:
            def uniform(self, *args):
                raise AssertionError("drew before checking the preconditions")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        bands_file = tmp_path / "I.json"
        bands_file.write_text(json.dumps(bandset.to_json(bandset.validate(edges))))
        doc = {"bands": {"file": str(bands_file)},
               "distort": {"omega": omega, "variant": variant, "samples": 10**7}}
        status, result = cli.run(doc, command="distort", seed=1)
        assert status == EXIT_CONFIG, result
        assert match in result["error"]

    def test_one_distance_pass(self, tmp_path, monkeypatch):
        # rejection batches decide "on the set" from region codes; the only
        # distance pass is the ratio over the accepted points, one buffer of
        # moebius._CHUNK // 4 = 8192 samples at a time
        calls = []
        dist = bandset.dist_to_bands

        def counted(z, *args, **kwargs):
            calls.append(np.size(z))
            return dist(z, *args, **kwargs)

        monkeypatch.setattr(bandset, "dist_to_bands", counted)
        bands_file = tmp_path / "I.json"
        bands_file.write_text(json.dumps(bandset.to_json(
            bandset.validate([(1, 2), (3, 4), (6, 8)]))))
        doc = {"bands": {"file": str(bands_file)},
               "distort": {"omega": -0.5, "variant": "gap", "samples": 20_000}}
        status, result = cli.run(doc, command="distort", seed=3)
        assert status == 0
        assert result["rejected"] > 0
        assert len(calls) == 3  # ceil(20000 / 8192)
        assert sum(calls) == 20_000

    def test_hill_path_passes_e_max(self, monkeypatch):
        seen = []

        def fake_report(v0, e_max):
            seen.append((v0.period, e_max))
            return bandset.validate([(1, 2), (3, 4)]), {}

        monkeypatch.setattr(hill, "band_edges_report", fake_report)
        doc = {"v0": {"type": "free", "period": 1.0},
               "bands": {"e_max": 5.0},
               "distort": {"omega": -0.5, "samples": 100}}
        status, result = cli.run(doc, command="distort", seed=1)
        assert status == 0
        assert seen == [(1.0, 5.0)]


class TestSpectrumCommand:
    def test_artifacts_written(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file)
        status, result = cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert status == 0
        assert (tmp_path / "out.json").exists()
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.svg").exists()
        assert result["N"] == 300
        with (tmp_path / "out.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300
        assert {"re", "im", "dist", "discrete", "artifact"} <= set(rows[0])

    @pytest.mark.parametrize("v, candidates, flagged", [
        ({"type": "step", "center": 0.25, "halfwidth": 0.3, "amplitude": [-20, 5]},
         [-3.4002 + 3.4838j], 1),
        ({"type": "bump", "center": 25.0, "halfwidth": 3.0, "amplitude": [-3, 2]},
         3, 0),
    ], ids=["wall-step", "bump"])
    def test_csv_and_svg_classes_match_json(self, tmp_path, v, candidates, flagged):
        # the README spectrum grid and Hill band set, with a perturbation at
        # the wall (its one candidate is a flagged wall state) or inside
        doc = {
            "v0": {"type": "cos", "q": 1.0, "period": 2 * math.pi},
            "v": v,
            "grid": {"periods": 8, "points": 500, "boundary": "dirichlet"},
            "bands": {"e_max": 10.0, "close_with_ray": True},
            "exponents": {"p": 2.0},
            "delta": "auto",
            "output": {"json": "s.json", "csv": "s.csv", "svg": "s.svg"},
        }
        status, result = cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert status == 0, result
        found = [complex(*z) for z in result["discrete"]]
        if isinstance(candidates, int):
            assert len(found) == candidates
        else:
            assert found == pytest.approx(candidates, abs=1e-4)
        assert len(result["boundary_artifacts"]) == flagged
        with (tmp_path / "s.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500

        def marked(column):
            return [[float(r["re"]), float(r["im"])] for r in rows if r[column] == "1"]

        assert marked("discrete") == result["discrete"]
        assert marked("artifact") == result["boundary_artifacts"]
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<path") == flagged
        assert svg.count('r="5"') == len(result["discrete"]) - flagged

    def test_svg_deterministic_and_markers(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file)
        cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        first = (tmp_path / "out.svg").read_bytes()
        cli.run(doc, command="spectrum", out_dir=str(tmp_path))
        assert (tmp_path / "out.svg").read_bytes() == first
        body = first.decode()
        assert body.count("<circle") >= 1
        assert "<rect" in body  # delta tube shading

    def test_svg_with_empty_spectrum(self, tmp_path):
        I = bandset.validate([(0, 1), (2, 3)])
        report = operators.classify_discrete([], I, delta=0.05)
        path = tmp_path / "empty.svg"
        cli.emit_svg_scatter(report, path)
        body = path.read_text()
        assert "<circle" not in body
        assert body.count('stroke="#1f4e8c"') == 2


class TestLtcheckCommand:
    def test_t1_report_roundtrip(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file, theorem="T1")
        status, result = cli.run(doc, command="ltcheck", out_dir=str(tmp_path))
        assert status == 0
        assert result["theorem"] == "T1"
        assert np.isfinite(result["lhs"])
        with (tmp_path / "out.csv").open() as fh:
            row = next(csv.DictReader(fh))
        assert row["theorem"] == "T1"
        assert float(row["lhs"]) == result["lhs"]
        assert json.loads(row["parameters"]) == result["parameters"]

    def test_t3_rejects_sign_indefinite_real_part(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file, theorem="T3")
        doc["v"]["amplitude"] = [-0.4, 0.6]
        status, result = cli.run(doc, command="ltcheck", out_dir=str(tmp_path))
        assert status == EXIT_HYPOTHESIS
        assert "Re V" in result["error"]

    def test_t3_accretive_accepted(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file, theorem="T3")
        status, result = cli.run(doc, command="ltcheck", out_dir=str(tmp_path))
        assert status == 0
        assert result["rhs_structure"] == pytest.approx(
            result["parameters"]["v_p"] ** 2
        )


class TestHansmannCommand:
    def test_reproducible_outputs(self, tmp_path):
        doc = {
            "hansmann": {"n": 20, "trials": 25, "p": 2.0, "scale": 0.5},
            "output": {"json": "h.json", "csv": "h.csv"},
            "seed": 5,
        }
        status, result = cli.run(doc, command="hansmann", out_dir=str(tmp_path))
        assert status == 0
        assert len(result["ratios"]) == 25
        first = (tmp_path / "h.json").read_bytes()
        cli.run(doc, command="hansmann", out_dir=str(tmp_path))
        assert (tmp_path / "h.json").read_bytes() == first

    def test_default_seed_is_recorded(self, tmp_path):
        doc = {"hansmann": {"n": 10, "trials": 5, "p": 2.0, "scale": 0.5},
               "output": {"json": "h.json"}}
        cli.run(doc, command="hansmann", out_dir=str(tmp_path / "unseeded"))
        cli.run(doc, command="hansmann", seed=0, out_dir=str(tmp_path / "seed0"))
        unseeded = (tmp_path / "unseeded" / "h.json").read_bytes()
        assert unseeded == (tmp_path / "seed0" / "h.json").read_bytes()
        assert json.loads(unseeded)["seed"] == 0

    def test_seed_changes_draws(self, tmp_path):
        doc = {"hansmann": {"n": 10, "trials": 5, "p": 2.0, "scale": 0.5}}
        _, r1 = cli.run(doc, command="hansmann", seed=1)
        _, r2 = cli.run(doc, command="hansmann", seed=2)
        assert r1["ratios"] != r2["ratios"]


class TestSweepCommand:
    def test_rows_and_trend(self, tmp_path, bands_file):
        doc = spectrum_config(bands_file, theorem="T1",
                              alphas=[1.0, 0.5, 0.25, 0.125])
        doc["grid"]["points"] = 200
        status, result = cli.run(doc, command="sweep", out_dir=str(tmp_path))
        assert status == 0
        assert len(result["rows"]) == 4
        assert "trend_ok" in result["trend"]
        with (tmp_path / "out.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [1.0, 0.5, 0.25, 0.125]


    def test_coupling_free_work_done_once(self, monkeypatch):
        calls = {"band_edges_report": 0, "discretize": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(hill, "band_edges_report")
        counted(operators, "discretize")
        doc = {
            "v0": {"type": "cos", "q": 1.0, "period": 2 * math.pi},
            "v": {"type": "bump", "center": 6.0, "halfwidth": 2.0,
                  "amplitude": [0.4, 0.6]},
            "grid": {"periods": 2, "points": 80},
            "bands": {"e_max": 2.0},
            "theorem": "T1",
            "alphas": [1.0, 0.5, 0.25],
        }
        status, result = cli.run(doc, command="sweep")
        assert status == 0
        assert len(result["rows"]) == 3
        assert calls == {"band_edges_report": 1, "discretize": 3}


class TestMainEntry:
    def test_exit_codes_propagate(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"v0": {"type": "nope"}}))
        code = cli.main(["bands", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "band-lt:" in capsys.readouterr().err

    def test_bands_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "b.yaml"
        cfg.write_text(yaml.safe_dump({
            "v0": {"type": "free", "period": 1.0},
            "bands": {"e_max": 10.0},
            "output": {"json": "bands.json"},
        }))
        code = cli.main(["bands", "--config", str(cfg),
                         "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["bands"]
