import json
from dataclasses import replace

import pytest

from qcsim import SessionConfig, Tap, load_config
from qcsim.cli import _apply_sweep_param, main
from qcsim.errors import ConfigError
from qcsim.report import load_report

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
    import hashlib

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
    ],
    ids=[
        "negative-averages",
        "zero-averages",
        "zero-rbw",
        "rbw-above-span",
        "reversed-span",
        "signal-outside-span",
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


@pytest.mark.parametrize(
    "name, field", [("r", "r"), ("eta", "eta_out"), ("margin", "margin")]
)
def test_session_sweep_params_set_only_their_field(name, field):
    cfg = SessionConfig(
        key_bits="1", seed=1, r=0.5, margin=0.4, eta_out=0.8, eta_back=0.7,
        attack=Tap(tau=0.2),
    )
    swept = _apply_sweep_param(cfg, name, 0.3)
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
    from qcsim import Qnd, Quadrature

    assert isinstance(cfg.attack, Qnd)
    assert cfg.attack.measured_quadrature is Quadrature.Y
    assert cfg.attack.measurement_var == 0.5
    assert cfg.thresholds.cd_margin_db == 0.8
    assert spectrum_settings.rbw_hz == 10e3
    assert spectrum_settings.averages == 64


def test_config_rejects_bad_values(tmp_path):
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
