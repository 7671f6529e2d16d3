"""Output bytes that do not hang on the CPU's SIMD level.

NumPy picks each loop's SIMD target at run time, and its transcendental
loops round differently per target: `np.log10` under AVX-512 and under
AVX2 can differ by an ULP.  The files a run writes must not.  A child
process with every enabled dispatch target but the lowest disabled
(`NPY_DISABLE_CPU_FEATURES`, which acts on that process only) writes the
golden run and three spectra whose `%.10g` text an ULP used to flip; its
bytes must equal this process's.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcsim.cli import main
from qcsim.detection import DetectorConfig, SpectrumSettings, spectrum
from qcsim.quadrature import RngStream
from qcsim.report import write_spectrum_csv
from qcsim.session import _PHASE_SPECTRUM

TESTS = Path(__file__).resolve().parent

#: The config of `test_cli.py::test_golden_file_regression`, whose run
#: writes a report, two traces and a spectrum.
GOLDEN_CONFIG = (
    "[session]\nr = 0.4375\nkey_bits = 100110\nseed = 19\nframes = 8\n"
    "slots_per_frame = 50\nblock_prob = 0.25\n"
)

#: (seed, r) of three spectra, at rbw 1 kHz and signal power 1.083, that
#: NumPy's AVX-512 and AVX2 `log10` loops wrote differently at `%.10g`:
#: single beam bin 680, correlation bin 977 and single beam bin 1503.
SPECTRA = ((229, 1.3), (731, 0.4375), (1468, 0.4375))


def _enabled_targets() -> list[str]:
    """NumPy's dispatch targets that this CPU runs, lowest first."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def written_digests(out: Path) -> dict[str, str]:
    """sha256 of each file the golden run and the three spectra write
    under `out`, by path relative to it."""
    (out / "golden.ini").write_text(GOLDEN_CONFIG)
    main(["run", "--config", str(out / "golden.ini"), "--spectrum", "--out", str(out / "run")])
    for seed, r in SPECTRA:
        rng = RngStream(seed).substream(0, _PHASE_SPECTRUM)
        traces = spectrum(r, SpectrumSettings(rbw_hz=1e3), DetectorConfig(), rng, 1.083)
        write_spectrum_csv(out / f"spectrum_{seed}_{r}.csv", traces)
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.suffix in (".csv", ".json")
    }


def test_output_bytes_are_the_same_at_the_lowest_simd_target(tmp_path):
    targets = _enabled_targets()
    if len(targets) < 2:
        pytest.skip(f"NumPy enables {targets or 'no'} dispatch target here: no SIMD "
                    "level above the lowest to disable")
    (tmp_path / "here").mkdir()
    (tmp_path / "child").mkdir()
    src = str(TESTS.parent / "src")
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
         "from test_simd_dispatch import _enabled_targets, written_digests; "
         "print(json.dumps([_enabled_targets(), written_digests(Path(sys.argv[3]))]))",
         src, str(TESTS), str(tmp_path / "child")],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets[1:])},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    here = written_digests(tmp_path / "here")
    assert len(here) == 4 + len(SPECTRA)
    # The golden run prints its status lines first.
    assert json.loads(child.stdout.splitlines()[-1]) == [targets[:1], here]
