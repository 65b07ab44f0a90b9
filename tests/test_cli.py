"""Config parsing, command dispatch, reports, exit codes, determinism."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erasure_lab import erasure, run_delayed_choice
from erasure_lab.cli import (
    _CLI_KEYS,
    _ERASURE_KEYS,
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    execute,
    main,
    parse_config,
)
from helpers import dense_delayed_table, rounding_tolerance

FLOAT_KEYS = ("envelope_width", "phase_gradient", "bin_width", "span", "tolerance")

# Arbitrary JSON values, NaN and infinities and unbounded integers included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CONFIG_DOCS = st.dictionaries(st.sampled_from(_CLI_KEYS + _ERASURE_KEYS), st.sampled_from(COMMANDS) | JSON_VALUES)


@st.composite
def geometry_docs(draw):
    """Any valid geometry: bins tiling the span, the window inside it, any kappa, Q, basis and rule."""
    n_bins, bin_width = draw(st.integers(1, 32)), draw(st.floats(2**-10, 16.0))
    span = n_bins * bin_width
    # Subnormal floats are config errors (see test_unresolvable_geometry_rejected).
    return {
        "envelope_width": draw(st.floats(0.0, span / 8.0, exclude_min=True, allow_subnormal=False)),
        "phase_gradient": draw(st.floats(0.0, 4.0, exclude_min=True, allow_subnormal=False)),
        "n_bins": n_bins,
        "bin_width": bin_width,
        "span": span,
        "basis": draw(st.sampled_from(erasure.BASIS_CHOICES)),
        "born_rule": draw(st.sampled_from(erasure.BORN_RULES)),
        "quadrature_points": draw(st.integers(1, 64)),
    }


def run_cli(args):
    return main(args)


def config_to_json(config: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, native float repr."""
    return json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"


class TestParseConfig:
    def test_defaults_filled(self):
        config = parse_config('{"command": "verify"}')
        assert config.command == "verify"
        assert config.erasure.n_bins == 16
        assert config.erasure.quadrature_points == 64
        assert config.erasure.basis == "pm"
        assert config.erasure.born_rule == "intensity"
        assert config.erasure.phase_gradient == pytest.approx(3 * math.pi / 8)
        assert config.tolerance == 1e-9

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="n_bin"):
            parse_config('{"command": "verify", "n_bin": 4}')

    def test_out_of_range_value_named(self):
        with pytest.raises(ConfigError, match="n_bins must be positive"):
            parse_config('{"command": "verify", "n_bins": -1}')

    def test_bad_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config('{"command": "explode"}')

    def test_command_argument_overrides_document(self):
        config = parse_config('{"command": "verify"}', command="schmidt")
        assert config.command == "schmidt"

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("{}")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"tolerance": "abc"}, "tolerance must be a finite number"),
            ({"tolerance": [1e-9]}, "tolerance must be a finite number"),
            ({"n_bins": True, "bin_width": 8.0}, "n_bins must be an integer"),
            ({"quadrature_points": True}, "quadrature_points must be an integer"),
            ({"output_path": None}, "output_path must be a non-empty string"),
            ({"output_path": {"a": 1}}, "output_path must be a non-empty string"),
            ({"output_path": 3}, "output_path must be a non-empty string"),
            ({"output_path": ""}, "output_path must be a non-empty string"),
            ({"output_path": "a\u0000b"}, "output_path must be a non-empty string without NUL"),
            ({"output_path": "\ud800x"}, "output_path must be a non-empty string without NUL or unencodable"),
            ({"bin_width": "0.5"}, "bin_width must be a finite number"),
            ({"n_bins": "16"}, "n_bins must be an integer"),
            ({"tolerance": "1e-9"}, "tolerance must be a finite number"),
        ],
        ids=[
            "tolerance-text",
            "tolerance-list",
            "n_bins-bool",
            "quadrature_points-bool",
            "output_path-null",
            "output_path-object",
            "output_path-number",
            "output_path-empty",
            "output_path-nul",
            "output_path-lone-surrogate",
            "bin_width-numeric-text",
            "n_bins-numeric-text",
            "tolerance-numeric-text",
        ],
    )
    def test_wrong_types_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"command": "verify", **doc}))

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_DOCS)
    def test_any_document_parses_or_raises_config_error(self, doc):
        try:
            parse_config(json.dumps(doc))
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"envelope_width": 5e-324}, "envelope_width must be positive and not subnormal"),
            ({"bin_width": 1e-310}, "bin_width must be positive and not subnormal"),
            ({"n_bins": 1, "bin_width": 1e-14, "span": 1e-14, "envelope_width": 1e-13}, "envelope"),
            ({"span": 8.000000004, "envelope_width": 1.0000000005}, r"envelope support .* past n_bins \* bin_width"),
        ],
        ids=["envelope_width-subnormal", "bin_width-subnormal", "window-wider-than-tiny-span", "window-past-the-bins"],
    )
    def test_unresolvable_geometry_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"command": "verify", **doc}))

    def test_round_trip_is_stable(self):
        text = '{"command": "verify", "n_bins": 4, "bin_width": 2.0, "basis": "pmi"}'
        once = parse_config(text)
        twice = parse_config(config_to_json(once))
        assert config_to_json(once) == config_to_json(twice)
        assert config_hash(once) == config_hash(twice)


class TestExecute:
    def test_verify_passes_and_writes_files(self, tmp_path):
        config = parse_config(
            json.dumps({"command": "verify", "output_path": str(tmp_path / "out")})
        )
        report = execute(config)
        assert report.passed
        assert report.max_deviation < 1e-9
        assert report.config_hash == config_hash(config)
        names = {p.split("/")[-1] for p in report.files}
        assert names == {"verify_simple.csv", "verify_delayed.csv"}
        assert (tmp_path / "out" / "verify_report.json").exists()

    def test_verify_report_consistent_with_exit_code(self, tmp_path, capsys):
        code = run_cli(["verify", "--out", str(tmp_path), "--tolerance", "1e-30"])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert code == (0 if report["passed"] else 1)
        assert code == (0 if report["max_deviation"] <= 1e-30 else 1)

    def test_schmidt_summary(self, tmp_path, capsys):
        code = run_cli(["schmidt", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.7071067811865476, 0.7071067811865476" in out
        assert "epr_type: true" in out

    def test_search_bases_csv(self, tmp_path):
        code = run_cli(["search-bases", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "symmetric_bases.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,delta,class"
        classes = [line.split(",")[2] for line in lines[1:]]
        assert classes.count("termwise-symmetric") == 2
        assert classes.count("term-swapping") == 2

    def test_cut_demo_passes(self, tmp_path, capsys):
        code = run_cli(["cut-demo", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cut-demo_report.json").read_text())
        assert report["passed"]
        assert report["max_deviation"] < 1e-10

    def test_whichway_marginals_match_simple(self, tmp_path):
        # The unconditioned screen distribution is basis-independent.
        assert run_cli(["erasure", "simple", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["erasure", "whichway", "--out", str(tmp_path / "b")]) == 0

        def marginals(path):
            rows = path.read_text().strip().split("\n")[1:]
            acc = {}
            for row in rows:
                _, _, n, _, p = row.split(",")
                acc[int(n)] = acc.get(int(n), 0.0) + float(p)
            return np.array([acc[n] for n in sorted(acc)])

        a = marginals(tmp_path / "a" / "erasure_simple.csv")
        b = marginals(tmp_path / "b" / "erasure_whichway.csv")
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_erasure_delayed_runs(self, tmp_path):
        assert run_cli(["erasure", "delayed", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "erasure_delayed.csv").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"command": "verify", "n_bins": -1}')
        assert run_cli(["verify", "--config", str(bad)]) == 2
        assert "n_bins" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"command": "verify", "slit_sep": 1.0}')
        assert run_cli(["verify", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_is_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"command": "verify", "{key}": {value}}}')
        assert run_cli(["verify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert run_cli(["verify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: config is not valid UTF-8")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=48))
    @example(b"\xff\xfe{")
    def test_any_config_bytes_exit_cleanly(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("config_bytes")
        (work / "config.json").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["verify", "--config", str(work / "config.json"), "--out", str(work / "out")])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    def test_unreadable_config_is_3(self, tmp_path):
        assert run_cli(["verify", "--config", str(tmp_path / "missing.json")]) == 3

    @pytest.mark.parametrize(
        "doc",
        [{"output_path": "a\u0000b"}, {"output_path": "\ud800x"}, {"bin_width": "0.5", "tolerance": "1e-9"}],
        ids=["nul-path", "lone-surrogate-path", "numeric-text"],
    )
    def test_unusable_config_values_are_2(self, tmp_path, capsys, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(json.dumps({"command": "verify", **doc}))
        assert run_cli(["verify", "--config", "bad.json"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_missing_command_is_2(self, capsys):
        assert run_cli([]) == 2

    def test_bad_tolerance_flag_is_2(self, tmp_path, capsys):
        assert run_cli(["verify", "--tolerance", "nan", "--out", str(tmp_path)]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_unexpected_error_is_4(self, tmp_path, capsys, monkeypatch):
        # Stands in for an array too large to allocate, without allocating one.
        def exhausted(config, marker_unitary=None):
            raise MemoryError("array does not fit")

        monkeypatch.setattr(erasure, "run_delayed_choice", exhausted)
        assert run_cli(["erasure", "delayed", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == "error: MemoryError: array does not fit\n"
        assert "Traceback" not in err

    def test_out_naming_a_file_is_3(self, tmp_path, capsys):
        # The command computes, then its output directory cannot be made.
        (tmp_path / "taken").write_text("keep")
        assert run_cli(["verify", "--out", str(tmp_path / "taken")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == "keep"

    def test_failing_command_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # verify's simple route has run when the delayed one raises; nothing is written yet.
        def broken(config, marker_unitary=None):
            raise RuntimeError("route failed")

        monkeypatch.setattr(erasure, "run_delayed_choice", broken)
        assert run_cli(["verify", "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == "error: RuntimeError: route failed\n"
        assert not (tmp_path / "out").exists()

    def test_unnormalized_grid_state_is_4(self, tmp_path, capsys, monkeypatch):
        # Modes 1% too large fail the delayed route's norm check on the grid state.
        slit_modes = erasure.ErasureConfig.slit_modes
        monkeypatch.setattr(erasure.ErasureConfig, "slit_modes", lambda self, x: 1.01 * slit_modes(self, x))
        assert run_cli(["erasure", "delayed", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ValueError: \|state vector norm - 1\|: .* exceeds tolerance 1e-10\n", err)


class TestVerifyGeometry:
    """`verify` reports the delayed route's discretization error on any valid geometry."""

    @pytest.mark.parametrize("command", [["verify"], ["erasure", "delayed"]])
    def test_window_edge_inside_a_bin_runs(self, tmp_path, command):
        # The window edge 4 * 0.9 = 3.6 falls inside the outer bins [+-3.5, +-4].
        (tmp_path / "config.json").write_text('{"envelope_width": 0.9}')
        assert run_cli(command + ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0

    def test_coarse_quadrature_fails_verify(self, tmp_path):
        # One node per bin misses the fringes; the closed-form simple route does not.
        (tmp_path / "config.json").write_text('{"quadrature_points": 1}')
        assert run_cli(["verify", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["passed"] is False
        assert report["max_deviation"] == pytest.approx(1.74e-3, rel=0.01)

    @settings(max_examples=50, deadline=None)
    @given(doc=geometry_docs())
    @example(
        doc={
            "envelope_width": 9.06,
            "phase_gradient": 3.99,
            "n_bins": 19,
            "bin_width": 11.05,
            "span": 19 * 11.05,
            "basis": "pmi",
            "born_rule": "intensity",
            "quadrature_points": 2,
        }
    )
    def test_any_valid_geometry_verifies_or_fails(self, tmp_path_factory, doc):
        work = tmp_path_factory.mktemp("geometry")
        (work / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(["verify", "--config", str(work / "config.json"), "--out", str(work / "out")])
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # The dense register is at most 32 * 32 * 64 * 33 bytes (2.2 MB) here,
        # so every draw is checked against it.
        config = erasure.ErasureConfig(**doc)
        dense = dense_delayed_table(config)
        tolerance = rounding_tolerance(config, dense)
        report = erasure.verify_equality(run_delayed_choice(config), dense, tolerance)
        assert report.passed, f"max deviation {report.max_deviation} against {tolerance:.3g}"


class TestDeterminism:
    def test_verify_outputs_byte_identical(self, tmp_path):
        for name in ("first", "second"):
            assert run_cli(["verify", "--out", str(tmp_path / name)]) == 0
        for fname in ("verify_simple.csv", "verify_delayed.csv", "verify_report.json"):
            a = (tmp_path / "first" / fname).read_bytes()
            b = (tmp_path / "second" / fname).read_bytes()
            assert a == b, f"{fname} differs between identical runs"

    def test_report_embeds_stable_config_hash(self, tmp_path):
        run_cli(["search-bases", "--out", str(tmp_path / "a")])
        run_cli(["search-bases", "--out", str(tmp_path / "b")])
        ra = json.loads((tmp_path / "a" / "search-bases_report.json").read_text())
        rb = json.loads((tmp_path / "b" / "search-bases_report.json").read_text())
        assert ra["config_hash"] == rb["config_hash"]
        assert len(ra["config_hash"]) == 64
