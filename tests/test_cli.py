import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_trace_writer import recorded_forks

from qcsim import report
from qcsim.adversary import ATTACKS, Tap
from qcsim.cli import (
    MAX_GRID_POINTS,
    SWEEP_PARAMS,
    _parse_grid,
    main,
)
from qcsim.config import load_config
from qcsim.errors import ConfigError
from qcsim.quadrature import R_MAX
from qcsim.report import load_report
from qcsim.session import ABORT_NO_KEY, SessionConfig, _point_config, run_session

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SIX_BIT_CONFIG = """\
[session]
r = 0.4375
key_bits = 100110
seed = 7
frames = 6
slots_per_frame = 64
"""

BLOCKING_CONFIG = """\
[session]
r = 0.4375
key_bits = 100110
seed = 11
frames = 20
slots_per_frame = 500
block_prob = 0.3
"""

INTERCEPT_CONFIG = """\
[session]
r = 0.4375
key_bits = 100110
seed = 11
frames = 24
slots_per_frame = 1000
block_prob = 0.25

[attack]
kind = intercept_resend
fake_r = 1.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_accepts_six_bit_exchange(tmp_path, capsys):
    config = _write(tmp_path, "session.ini", SIX_BIT_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == 0
    report = load_report(out / "report.json")
    assert report.status == "accept"
    assert report.key == "100110"
    assert report.ber == 0.0
    assert "100110" in capsys.readouterr().out


def test_run_exit_code_for_intercept_resend(tmp_path):
    config = _write(tmp_path, "attacked.ini", INTERCEPT_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == 2
    report = load_report(out / "report.json")
    assert report.status == "abort"
    assert report.abort_reason == "eavesdropper_suspected"
    assert "trace_anticorrelation_lost" in report.verdict_reasons


def test_run_exit_code_for_no_key_material(tmp_path, capsys):
    config = _write(
        tmp_path,
        "blocked.ini",
        SIX_BIT_CONFIG + "block_prob = 1.0\n",
    )
    code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 3
    # No bits were compared, so there is no error rate.
    assert load_report(tmp_path / "out" / "report.json").ber is None
    assert "ber: n/a" in capsys.readouterr().out


ATTACK_SECTIONS = {
    "none": "",
    "tap": "[attack]\nkind = tap\ntau = 0.3\n",
    "intercept_resend": "[attack]\nkind = intercept_resend\n",
    "qnd": "[attack]\nkind = qnd\n",
}


@pytest.mark.parametrize("attack", sorted(ATTACK_SECTIONS))
@pytest.mark.parametrize("block_prob", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("slots_per_frame", [1, 2])
def test_run_ends_in_documented_exit_code(
    tmp_path, capsys, slots_per_frame, block_prob, attack
):
    config = _write(
        tmp_path,
        "small.ini",
        "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 3\nframes = 6\n"
        f"slots_per_frame = {slots_per_frame}\nblock_prob = {block_prob}\n"
        + ATTACK_SECTIONS[attack],
    )
    code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2, 3)
    if slots_per_frame < 2:
        assert code == 1
        assert "slots_per_frame must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("[session]\nr = 400\nkey_bits = 10\nseed = 3\n", "r: "),
        (
            "[session]\nkey_bits = 10\nseed = 3\n"
            "[attack]\nkind = intercept_resend\nfake_r = 800\n",
            "[attack] ",
        ),
    ],
    ids=["r", "fake_r"],
)
def test_run_rejects_correlation_above_bound(tmp_path, capsys, text, named):
    # Both values pass every other check; without the bound they end in an
    # OverflowError traceback.
    config = _write(tmp_path, "strong.ini", text)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert f"[0, {R_MAX:g}]" in err
    assert not out.exists()


UNIT = st.floats(0.0, 1.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CORRELATION = st.floats(0.0, R_MAX)

#: Every [session], [detector], [attack] and [thresholds] key over its
#: whole accepted domain, at shapes of at most 8 frames of 32 slots.
RUN_CONFIGS = st.fixed_dictionaries(
    {
        "session": st.fixed_dictionaries(
            {
                "r": CORRELATION,
                "key_bits": st.text("01", min_size=1, max_size=8),
                "seed": st.integers(-(2**64), 2**64),
                "frames": st.integers(1, 8),
                "slots_per_frame": st.integers(2, 32),
                "margin": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                "eta_out": UNIT,
                "eta_back": UNIT,
                "block_prob": UNIT,
            }
        ),
        "detector": st.fixed_dictionaries({"electronic_noise_var": st.floats(0.0, 1e6)}),
        "attack": st.fixed_dictionaries(
            {
                "kind": st.sampled_from(sorted(ATTACKS)),
                "tau": UNIT,
                "fake_r": CORRELATION,
                "measured_quadrature": st.sampled_from(["x", "y"]),
                "measurement_var": st.floats(0.0, 1e6, exclude_min=True),
            }
        ),
        "thresholds": st.fixed_dictionaries(
            {
                "pearson": st.none() | FINITE,
                "rms_ratio": st.none() | FINITE,
                "cd_margin_db": FINITE,
            }
        ),
    }
)


def _ini(sections: dict) -> str:
    return "".join(
        f"[{name}]\n"
        + "".join(
            f"{key} = {'' if v is None else v if isinstance(v, str) else repr(v)}\n"
            for key, v in values.items()
        )
        for name, values in sections.items()
    )


_RUNS = itertools.count()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sections=RUN_CONFIGS)
def test_run_never_raises_on_any_config(tmp_path, sections):
    # The [spectrum] section keeps its defaults: a resolution bandwidth far
    # below the span asks for that many bins.
    run_dir = tmp_path / str(next(_RUNS))
    run_dir.mkdir()
    config = _write(run_dir, "session.ini", _ini(sections))
    argv = ["run", "--config", config, "--spectrum", "--out", str(run_dir / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("r, margin", [(0.4375, 1e-17), (60.0, 1e-300)])
def test_run_names_margin_that_rounds_onto_window_edge(tmp_path, capsys, r, margin):
    config = _write(
        tmp_path,
        "edge.ini",
        f"[session]\nr = {r!r}\nmargin = {margin!r}\nkey_bits = 10\nseed = 3\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert f"margin {margin!r} at r={r:g}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_qnd_variance_whose_back_action_overflows(tmp_path, capsys):
    # 1/1e-310 overflows to inf: unchecked, the session samples infinite
    # beams, NumPy warns, and the run fails only after simulating.
    config = _write(
        tmp_path,
        "qnd.ini",
        f"{SIX_BIT_CONFIG}[attack]\nkind = qnd\nmeasurement_var = 1e-310\n",
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert "[attack] measurement_var" in capsys.readouterr().err
    assert not out.exists()


def test_run_too_large_for_memory_exits_1_without_traceback(tmp_path, capsys):
    # NumPy refuses the first frame-sized allocation (petabytes) up front,
    # without touching memory.
    config = _write(
        tmp_path,
        "huge.ini",
        "[session]\nr = 0.4375\nkey_bits = 10\nseed = 3\nframes = 1000000000000000\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qcsim: error: ") and "allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_run_rejects_seed_outside_64_bits(tmp_path, capsys, seed):
    # The random streams key on the seed's low 64 bits, so either seed would
    # alias one inside the range and repeat its outputs.
    config = _write(tmp_path, "session.ini", SIX_BIT_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--seed", seed, "--out", str(out)]) == 1
    assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_run_into_reused_out_keeps_only_its_own_files(tmp_path):
    config = str(CONFIGS / "blocking_session.ini")
    out = tmp_path / "out"
    out.mkdir()
    # Names qcsim never writes: its frame numbers have at least four digits.
    foreign = ["notes.txt", "trace_frame_7.csv", "trace_frame_12.csv"]
    for name in foreign:
        (out / name).write_text("not written by qcsim\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", "--config", config, "--seed", "1", "--spectrum", "--out", str(out)])
        first = load_report(out / "report.json")
        main(["run", "--config", config, "--seed", "2", "--out", str(out)])
    report = load_report(out / "report.json")
    assert first.spectrum_file is not None and report.spectrum_file is None
    assert set(first.trace_files) - set(report.trace_files)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*foreign, "report.json", *report.trace_files]
    )
    for name in foreign:
        assert (out / name).read_text() == "not written by qcsim\n"


def test_run_rejects_subthreshold_correlation(tmp_path, capsys):
    config = _write(
        tmp_path,
        "weak.ini",
        "[session]\nr = 0.2\nkey_bits = 100110\nseed = 1\n",
    )
    code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "0.27" in err  # names the usable-correlation threshold


def test_run_seed_override_changes_outputs(tmp_path):
    config = _write(tmp_path, "session.ini", BLOCKING_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a)]) == 0
    assert main(["run", "--config", config, "--seed", "99", "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() != (out_b / "report.json").read_bytes()
    assert load_report(out_b / "report.json").seed == 99


def test_run_outputs_are_byte_identical_across_runs(tmp_path):
    config = _write(tmp_path, "session.ini", BLOCKING_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--spectrum", "--out", str(out_a)]) == 0
    assert main(["run", "--config", config, "--spectrum", "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    assert any(name.startswith("trace_frame_") for name in files_a)
    assert "spectrum.csv" in files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_golden_file_regression(tmp_path):
    # Frozen digests for one tiny session: the seed must determine every
    # output byte.  A change here means the sampling stream or the output
    # format moved (e.g. a numpy bit-stream change) and is worth noticing.
    config = _write(
        tmp_path,
        "golden.ini",
        "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 19\nframes = 8\n"
        "slots_per_frame = 50\nblock_prob = 0.25\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--spectrum", "--out", str(out)]) in (0, 2)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert digests == {
        "report.json": "d449d52fe21fad3b91ca5c9436971583830b5db06008782091af6c36d7e6041c",
        "spectrum.csv": "67dae66d7aa149b4bf225286f537994f196c12754ce25a2277183be3c91cf9ab",
        "trace_frame_0000.csv": "97cb9e48a3ac147e82dc9107ea98a3c90cfd7dcef6ed0eaa13b1a7fb5162accb",
        "trace_frame_0006.csv": "7519c5303810983f75c87616c6b72283abe4f097b32ec0d90cfadba4cbb43613",
    }


def test_forked_trace_writer_gives_the_golden_digests(tmp_path, monkeypatch):
    # With two usable CPUs and the break-even forced down, a forked child
    # writes the golden session's second trace.
    forks = recorded_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(report, "_FORK_MIN_VALUES", 1)
    test_golden_file_regression(tmp_path)
    assert len(forks) == 1


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "reason='eavesdropper_suspected'" in out


def test_trace_and_spectrum_headers(tmp_path):
    config = _write(tmp_path, "session.ini", BLOCKING_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--spectrum", "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    assert report.trace_files
    trace = (out / report.trace_files[0]).read_text().splitlines()
    assert trace[0] == "point,alice,bob"
    assert trace[1].startswith("0,")
    spectrum_lines = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum_lines[0] == "freq_hz,snl_db,single_beam_db,correlation_db"
    assert len(spectrum_lines) == 1 + 67


def test_run_with_invalid_spectrum_settings_writes_no_file(tmp_path, capsys):
    text = BLOCKING_CONFIG + "[spectrum]\naverages = 0\n"
    config = _write(tmp_path, "session.ini", text)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), "--spectrum"]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_removed_signal_quadrature_key(tmp_path, capsys):
    # The tone's quadrature changed no output, so the key no longer exists.
    text = BLOCKING_CONFIG + "[spectrum]\nsignal_quadrature = y\n"
    config = _write(tmp_path, "session.ini", text)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[spectrum] unknown option(s): signal_quadrature" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "spectrum_flag", [[], ["--spectrum"]], ids=["no-spectrum", "spectrum"]
)
@pytest.mark.parametrize(
    "section",
    [
        "averages = -3",
        "averages = 0",
        "rbw_hz = 0",
        "rbw_hz = 3e6",
        "span_low_hz = 3e6\nspan_high_hz = 1e6",
        "signal_freq_hz = 5e6",
        "rbw_hz = 0.001",
    ],
    ids=[
        "negative-averages",
        "zero-averages",
        "zero-rbw",
        "rbw-above-span",
        "reversed-span",
        "signal-outside-span",
        "too-many-bins",
    ],
)
def test_run_rejects_invalid_spectrum_section(tmp_path, capsys, section, spectrum_flag):
    # The [spectrum] section is checked on load, whether or not the run
    # computes a spectrum.
    config = _write(tmp_path, "session.ini", f"{BLOCKING_CONFIG}[spectrum]\n{section}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), *spectrum_flag]) == 1
    assert "[spectrum]" in capsys.readouterr().err
    assert not out.exists()


def test_report_round_trips(tmp_path):
    config = _write(tmp_path, "session.ini", BLOCKING_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    assert report.schema_version == "1.0"
    from qcsim.report import RunReport, dumps_deterministic

    rebuilt = RunReport.from_dict(json.loads(dumps_deterministic(report.to_dict())))
    assert rebuilt == report


def test_sweep_tap_fraction_degrades_correlation(tmp_path):
    config = _write(
        tmp_path,
        "sweep.ini",
        "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 5\n"
        "frames = 20\nslots_per_frame = 500\n",
    )
    out = tmp_path / "tap.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "tau",
            "--grid",
            "0:0.5:0.1",
            "--out",
            str(out),
            "--sessions-per-point",
            "3",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,value,cd_db,ber,detection_rate"
    assert len(lines) == 1 + 6
    cds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(a > b for a, b in zip(cds, cds[1:]))


def test_sweep_r_flags_empty_window_rows(tmp_path, capsys):
    config = _write(
        tmp_path,
        "sweep.ini",
        "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 5\n"
        "frames = 10\nslots_per_frame = 200\n",
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "r",
            "--grid",
            "0.1:1.0:0.3",
            "--out",
            str(out),
            "--sessions-per-point",
            "2",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    first = lines[1].split(",")
    assert first[1] == "0.1"
    assert first[3] == "" and first[4] == ""  # no key possible below threshold
    assert first[2] != ""  # correlation still measurable
    later = lines[-1].split(",")
    assert later[3] != "" and later[4] != ""
    assert "no hiding window" in capsys.readouterr().err


def test_sweep_r_leaves_cd_blank_at_attacked_probe_points(tmp_path, capsys):
    # The probe that measures an empty-window point runs no attack, so it
    # cannot stand for an attacked channel.
    config = _write(
        tmp_path,
        "sweep.ini",
        "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 5\n"
        "frames = 20\nslots_per_frame = 500\n[attack]\nkind = tap\ntau = 0.5\n",
    )
    out = tmp_path / "r.csv"
    argv = ["sweep", "--config", config, "--param", "r", "--grid", "0.1:0.5:0.2",
            "--out", str(out), "--sessions-per-point", "1"]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "r,0.1,,,"
    assert lines[2].startswith("r,0.3,") and lines[2].split(",")[2] != ""
    assert "cd_db is blank: the probe runs no tap attack" in capsys.readouterr().err


SWEEP_SESSION = """\
[session]
r = 0.4375
key_bits = 100110
seed = {seed}
frames = 8
slots_per_frame = 50
block_prob = 0.25
"""


@pytest.mark.parametrize(
    "param, grid, config, digest",
    [
        (
            # The first point has an empty hiding window, so its row comes
            # from the unmodulated correlation-degree probe.
            "r",
            "0.2:0.5:0.15",
            SWEEP_SESSION.format(seed=23),
            "36fc201c9961b1f572aed67b1a65a1827d9cb2a1987e8e78ebe9b8a97164df37",
        ),
        (
            "tau",
            "0:0.3:0.15",
            SWEEP_SESSION.format(seed=29) + "\n[attack]\nkind = tap\ntau = 0.3\n",
            "2e4fe4ed61cf7a86b2582ec23edce8647541540a7eaa9502d3d3bb00fef9e7d0",
        ),
    ],
    ids=["r", "tau"],
)
def test_sweep_golden_digest(tmp_path, param, grid, config, digest):
    # Frozen bytes of two small sweeps, as test_golden_file_regression
    # freezes those of a run.
    path = _write(tmp_path, "sweep.ini", config)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", path, "--param", param, "--grid", grid,
            "--out", str(out), "--sessions-per-point", "2"]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, field", [("r", "r"), ("eta", "eta_out"), ("margin", "margin")]
)
def test_session_sweep_params_set_only_their_field(name, field):
    cfg = SessionConfig(
        key_bits="1", seed=1, r=0.5, margin=0.4, eta_out=0.8, eta_back=0.7,
        attack=Tap(tau=0.2),
    )
    swept, _ = _point_config(cfg, name, 0.3)
    assert getattr(swept, field) == 0.3
    assert replace(swept, **{field: getattr(cfg, field)}) == cfg


def test_sweep_rejects_unknown_parameter(tmp_path):
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG)
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "bogus",
            "--grid",
            "0:1:0.5",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def test_sweep_leaves_ber_empty_without_compared_bits(tmp_path):
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG + "block_prob = 1.0\n")
    out = tmp_path / "blocked.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "tau",
            "--grid",
            "0:0.2:0.1",
            "--out",
            str(out),
            "--sessions-per-point",
            "2",
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[3] == "" and row[4] != "" for row in rows)


def test_sweep_counts_a_no_key_abort_as_no_detection(tmp_path, monkeypatch):
    # With every frame blocked, each session aborts for want of key bits
    # while its verdict stays honest: the point detects nothing.
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG + "block_prob = 1.0\n")
    reasons = []

    def recording(cfg):
        transcript = run_session(cfg)
        reasons.append(transcript.outcome.reason)
        return transcript

    monkeypatch.setattr("qcsim.session.run_session", recording)
    out = tmp_path / "blocked.csv"
    argv = ["sweep", "--config", str(config), "--param", "margin", "--grid"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "0.4:0.6:0.1", "--out", str(out)]) == 0
    assert reasons == [ABORT_NO_KEY] * 12
    rows = [line.split(",")[3:] for line in out.read_text().splitlines()[1:]]
    assert rows == [["", "0"]] * 3


def test_sweep_rejects_colliding_point_seeds(tmp_path, capsys):
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG)
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "tau",
            "--grid",
            "0:0.1:0.1",
            "--out",
            str(tmp_path / "x.csv"),
            "--sessions-per-point",
            "7920",
        ]
    )
    assert code == 1
    assert "--sessions-per-point" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_empty_grid(tmp_path):
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG)
    code = main(
        [
            "sweep",
            "--config",
            str(config),
            "--param",
            "tau",
            "--grid",
            "0.5:0.1:0.1",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def _no_session(cfg):
    raise AssertionError("a session ran")


def _grid_case(param, grid, named):
    # The tau cases are named by grid and message alone, so their ids stay stable.
    prefix = "" if param == "tau" else f"{param}-"
    return pytest.param(param, grid, named, id=f"{prefix}{grid}-{named}")


@pytest.mark.parametrize(
    "param, grid, named",
    [
        _grid_case("tau", "nan:1:0.1", "finite"),
        _grid_case("tau", "0:inf:1", "finite"),
        _grid_case("tau", "0:1:inf", "finite"),
        _grid_case("tau", "0:1:1e-300", f"more than {MAX_GRID_POINTS} points"),
        # A point outside the parameter's domain, after points inside it.
        _grid_case("tau", "0:2:0.5", "grid point tau=1.5: tap fraction"),
        _grid_case("margin", "0.5:1.2:0.25", "grid point margin=1: margin"),
        _grid_case("eta", "0.5:1.5:0.25", "grid point eta=1.25: eta_out"),
        _grid_case("r", "0.4:200:99.5", "grid point r=199.4: r:"),
        _grid_case("fake_r", "0:200:100", "grid point fake_r=200: correlation"),
        _grid_case("sigma_m", "0:1:0.5", "grid point sigma_m=0: measurement"),
        _grid_case(
            "sigma_m", "1e-310:1:0.5", "grid point sigma_m=1e-310: measurement_var"
        ),
        # Grids that are not three numbers.
        _grid_case("tau", "0:1", "grid must be start:stop:step"),
        _grid_case("tau", "0:a:0.1", "grid values must be numbers"),
    ],
)
def test_sweep_rejects_unbounded_grid_before_any_session(
    tmp_path, capsys, monkeypatch, param, grid, named
):
    monkeypatch.setattr("qcsim.session.run_session", _no_session)
    monkeypatch.setattr("qcsim.session._cd_probe", _no_session)
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--config", config, "--param", param, "--grid", grid,
            "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "grid" in err and named in err
    assert not out.exists()


def test_sweep_rejects_seed_that_would_wrap_before_any_session(
    tmp_path, capsys, monkeypatch
):
    config = _write(tmp_path, "sweep.ini", SIX_BIT_CONFIG)
    out = tmp_path / "x.csv"
    # Two points of four sessions: the last runs at seed + 2*7919 + 3.
    seed = 2**64 - 2 * 7919 - 3
    argv = ["sweep", "--config", config, "--param", "tau", "--grid", "0:0.1:0.1",
            "--out", str(out), "--seed"]
    monkeypatch.setattr("qcsim.session.run_session", _no_session)
    monkeypatch.setattr("qcsim.session._cd_probe", _no_session)
    assert main([*argv, str(seed)]) == 1
    assert f"seed {2**64}, outside [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, str(seed - 1)]) == 0


def _sweep_grid(start, stop, step) -> str:
    return f"{start!r}:{stop!r}:{step!r}"


NEAR_UNIT = st.floats(-0.5, 1.5)
VALID_GRIDS = st.builds(
    lambda start, step, k: _sweep_grid(start, start + k * step, step),
    NEAR_UNIT,
    st.floats(0.01, 1.0),
    st.integers(0, 4),
)
INVALID_GRIDS = st.one_of(
    # One non-finite value.
    st.builds(
        lambda values, bad, i: _sweep_grid(*values[:i], bad, *values[i + 1 :]),
        st.tuples(NEAR_UNIT, NEAR_UNIT, NEAR_UNIT),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 2),
    ),
    # No points: stop below start.
    st.builds(
        lambda start, step: _sweep_grid(start, start - step, step),
        NEAR_UNIT,
        st.floats(0.01, 1.0),
    ),
    # More points than the cap.
    st.builds(
        lambda start, span: _sweep_grid(start, start + span, span / (MAX_GRID_POINTS + 1)),
        NEAR_UNIT,
        st.floats(0.01, 1.0),
    ),
    st.sampled_from(["", "0:1", "0:1:0", "0:1:-0.5", "a:b:c", "0:1:0.5:2"]),
)
# Half the grids are valid, of one to five points.
SWEEP_GRIDS = st.booleans().flatmap(lambda valid: VALID_GRIDS if valid else INVALID_GRIDS)

# No override, any integer, or a base whose derived seeds may pass 2**64.
SWEEP_SEEDS = st.one_of(
    st.none(),
    st.integers(-(2**64), 2**64),
    st.integers(2**64 - 5 * 7919 - 8000, 2**64 - 1),
)

SWEEP_BASES = st.fixed_dictionaries(
    {
        "r": st.floats(0.0, 3.0),
        "key_bits": st.text("01", min_size=1, max_size=4),
        "seed": st.integers(0, 100),
        "frames": st.integers(1, 4),
        "slots_per_frame": st.integers(2, 16),
        "block_prob": UNIT,
    }
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    session=SWEEP_BASES,
    kind=st.sampled_from(sorted(ATTACKS)),
    param=st.sampled_from([*SWEEP_PARAMS, "unknown"]),
    grid=SWEEP_GRIDS,
    # Half the draws ask for a few sessions, half for any count up to 8000.
    sessions=st.integers(1, 8) | st.integers(0, 8000),
    seed=SWEEP_SEEDS,
)
def test_sweep_never_raises_on_any_arguments(
    tmp_path, monkeypatch, session, kind, param, grid, sessions, seed
):
    # Only the first session of each grid point runs; the others, which
    # differ from it only in seed, repeat its transcript, so thousands of
    # sessions per point cost about as much as one.
    first = {}

    def first_session_of_point(cfg):
        point = (cfg.r, cfg.eta_out, cfg.margin, cfg.attack)
        if point not in first:
            first[point] = run_session(cfg)
        return first[point]

    monkeypatch.setattr("qcsim.session.run_session", first_session_of_point)
    run_dir = tmp_path / str(next(_RUNS))
    run_dir.mkdir()
    config = _write(run_dir, "sweep.ini", _ini({"session": session, "attack": {"kind": kind}}))
    # The `=` forms keep a value that starts with "-" from reading as an option.
    argv = ["sweep", "--config", config, "--param", param, f"--grid={grid}",
            f"--sessions-per-point={sessions}", "--out", str(run_dir / "x.csv")]
    if seed is not None:
        argv.append(f"--seed={seed}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    assert code in (0, 1)


def test_grid_values_are_start_plus_k_steps_up_to_the_cap():
    assert _parse_grid("0:0.5:0.1") == [0.0 + k * 0.1 for k in range(6)]
    assert _parse_grid(f"1:{MAX_GRID_POINTS}:1") == [
        1.0 + k for k in range(MAX_GRID_POINTS)
    ]
    with pytest.raises(ConfigError, match="points"):
        _parse_grid(f"0:{MAX_GRID_POINTS}:1")


@pytest.mark.parametrize("margin", ["0", "-1"])
def test_run_rejects_non_positive_cd_margin_before_simulating(
    tmp_path, capsys, monkeypatch, margin
):
    import qcsim.cli as cli

    monkeypatch.setattr(cli, "run_session", _no_session)
    text = f"{SIX_BIT_CONFIG}[thresholds]\ncd_margin_db = {margin}\n"
    config = _write(tmp_path, "margin.ini", text)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert "[thresholds] cd margin must be > 0 dB" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--config"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_config_unknown_key_is_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[session]\nr = 0.4375\nkey_bits = 1\nseed = 1\nbogus = 3\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_config_missing_required_fields(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[session]\nr = 0.4375\nseed = 1\n")
    with pytest.raises(ConfigError, match="key_bits"):
        load_config(path)
    path.write_text("[session]\nr = 0.4375\nkey_bits = 101\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    # ... unless the seed is supplied as an override.
    cfg, _ = load_config(path, seed_override=5)
    assert cfg.seed == 5


def test_config_parses_attack_and_sections(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(
        "[session]\nr = 0.5\nkey_bits = 1011\nseed = 9\nframes = 12\n"
        "slots_per_frame = 32\nmargin = 0.4\neta_out = 0.9\neta_back = 0.95\n"
        "block_prob = 0.2\n"
        "[detector]\nelectronic_noise_var = 0.25\n"
        "[attack]\nkind = qnd\nmeasured_quadrature = y\nmeasurement_var = 0.5\n"
        "[thresholds]\ncd_margin_db = 0.8\n"
        "[spectrum]\nrbw_hz = 10e3\naverages = 64\n"
    )
    cfg, spectrum_settings = load_config(path)
    assert cfg.r == 0.5
    assert cfg.frames == 12
    assert cfg.detector.electronic_noise_var == 0.25
    from qcsim.adversary import Qnd
    from qcsim.quadrature import Quadrature

    assert isinstance(cfg.attack, Qnd)
    assert cfg.attack.measured_quadrature is Quadrature.Y
    assert cfg.attack.measurement_var == 0.5
    assert cfg.thresholds.cd_margin_db == 0.8
    assert spectrum_settings.rbw_hz == 10e3
    assert spectrum_settings.averages == 64


def test_config_rejects_bad_values(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[session]\nr = abc\nkey_bits = 1\nseed = 1\n")
    with pytest.raises(ConfigError, match=r"\[session\] r"):
        load_config(path)
    path.write_text(
        "[session]\nr = 0.4375\nkey_bits = 1\nseed = 1\n[attack]\nkind = laser\n"
    )
    with pytest.raises(ConfigError, match="kind"):
        load_config(path)
    path.write_text(
        "[session]\nr = 0.4375\nkey_bits = 1\nseed = 1\n[attack]\nkind = tap\ntau = 2\n"
    )
    with pytest.raises(ConfigError, match=r"\[attack\]"):
        load_config(path)
    # Each of these exits 1 through the command line, with its message.
    session = "[session]\nr = 0.4375\nkey_bits = 1\nseed = 1\n"
    for text, message in [
        (session + "frames = 2.5\n", "[session] frames: expected an integer, got '2.5'"),
        (session + "[attack]\nkind = qnd\nmeasured_quadrature = z\n",
         "[attack] measured_quadrature: expected 'x' or 'y', got 'z'"),
        ("r = 0.4375\n" + session, "cannot parse"),
        (session + "[foo]\n", "unknown config section [foo]"),
        (session.replace("key_bits = 1", "key_bits = 12"),
         "key_bits must be a 0/1 string, got '12'"),
    ]:
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
