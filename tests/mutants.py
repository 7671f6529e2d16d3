"""One-line mutants of qcsim that tier-1 must kill by behaviour.

Each entry of `MUTANTS` patches `old` into `new` in one source file and
names the test that is expected to kill it.  `tests/test_mutants.py` checks,
without running anything, that every `old` occurs exactly once and every
named test exists.  Running this file is opt-in, because each mutant costs a
full tier-1 run:

    python tests/mutants.py

copies the tree to a temporary directory per mutant, applies the patch,
runs tier-1 without the sha256 digest tests (`DIGEST_TESTS`), so that only a
test that checks behaviour counts as a kill, and without the check of this
list, and prints which tests failed and then the survivors.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: The tests that compare whole outputs with a sha256 digest.  They kill
#: almost any mutant that moves a byte and say nothing about which behaviour
#: broke, so the runner leaves them out.
DIGEST_TESTS = (
    "tests/test_cli.py::test_golden_file_regression",
    "tests/test_cli.py::test_forked_trace_writer_gives_the_golden_digests",
    "tests/test_cli.py::test_sweep_golden_digest",
    "tests/test_chunk_walk.py::test_chunk_walk_keeps_per_frame_bytes",
    "tests/test_bench_contract.py::test_first_attack_cycle_matches_reference_digests",
)

#: The check of this list, which fails on every applied patch.
SELF_TEST = "tests/test_mutants.py"

#: Seconds one mutant's tier-1 run may take before it counts as hung.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    killer: str  # the test id expected to fail, "file::function"


_QUADRATURE = "src/qcsim/quadrature.py"
_SESSION = "src/qcsim/session.py"
_ROWS_TESTS = "tests/test_quadrature.py"
_REPORT = "src/qcsim/report.py"
_DETECTION = "src/qcsim/detection.py"
_RECORD_TEST = "tests/test_report.py::test_transcript_writes_each_record_by_its_fields"
_WRITER_TESTS = "tests/test_trace_writer.py"
_CHILD_FAILS_TEST = (
    f"{_WRITER_TESTS}::test_a_failed_write_in_the_childs_share_exits_1_with_one_error_line"
)
_REFUSALS_TEST = f"{_ROWS_TESTS}::test_frame_rows_reject_negative_indices_and_mismatched_draws"
_STAGES_TEST = "tests/test_draw_stages.py::test_each_drawing_stage_computes_its_textbook_expression"
_SWEEP_TESTS = "tests/test_sweep.py"

MUTANTS = [
    # The threaded draw: a row claimed without the lock.
    Mutant(
        _QUADRATURE,
        "            with self._lock:\n                i = self._next\n",
        "            if True:\n                i = self._next\n",
        f"{_ROWS_TESTS}::test_two_threads_claiming_at_once_fill_each_row_once",
    ),
    # `finish` returns without waiting for the row in flight on the helper.
    Mutant(
        _QUADRATURE,
        "        if started:\n",
        "        if started and self.task.done():\n",
        f"{_ROWS_TESTS}::test_a_draw_ahead_is_the_draw_and_others_fill_here_meanwhile",
    ),
    # The helper's fill error is dropped, leaving its row unfilled.
    Mutant(
        _QUADRATURE,
        "            if fill and error is not None:\n",
        "            if False:\n",
        f"{_ROWS_TESTS}::test_the_draw_that_takes_a_failed_draw_ahead_raises_its_error",
    ),
    # `cancel` fills the unclaimed rows of a draw nobody takes.
    Mutant(
        _QUADRATURE,
        "        if job is not None:\n            job.finish(fill=False)\n",
        "        if job is not None:\n            job.finish()\n",
        "tests/test_draw_ahead.py::test_a_session_that_raises_mid_walk_leaves_the_helper_ready",
    ),
    # The return leg's loss vacuum is not drawn ahead.
    Mutant(
        _SESSION,
        "        if is_sent and cfg.eta_back < 1.0:\n            draws[_PHASE_LOSS_BACK] = 2\n",
        "",
        "tests/test_draw_ahead.py::test_every_draw_ahead_is_taken",
    ),
    # The session draws only the chunks after the first ahead.
    Mutant(
        _SESSION,
        "        if threaded:\n            draw_ahead(*chunks[0])\n",
        "",
        "tests/test_draw_ahead.py::test_every_draw_ahead_is_taken",
    ),
    # A draw ignores its draw ahead and fills serially, leaving the job open.
    Mutant(
        _QUADRATURE,
        "        job, self._ahead = self._ahead, None\n        if job is None:\n",
        "        job, self._ahead = None, None\n        if job is None:\n",
        f"{_ROWS_TESTS}::test_a_draw_ahead_is_the_draw_and_others_fill_here_meanwhile",
    ),
    # The record walk rounds only fields annotated exactly `float`, so a
    # `float | None` threshold is echoed unrounded.
    Mutant(
        _REPORT,
        'if f.type.startswith("float")',
        'if f.type == "float"',
        _RECORD_TEST,
    ),
    # The record walk keeps enums, so the verdict status is not a string.
    Mutant(_REPORT, "    if isinstance(record, Enum):\n", "    if False:\n", _RECORD_TEST),
    # Arrays are written by `repr`, not at `FLOAT_SPEC`.
    Mutant(
        _REPORT,
        "        return _render(_LINE, record).splitlines()\n",
        "        return list(map(repr, record.tolist()))\n",
        _RECORD_TEST,
    ),
    # Dict keys are kept as they are, so Eve's frames stay integers.
    Mutant(_REPORT, "{str(k): record_to_dict(v)", "{k: record_to_dict(v)", _RECORD_TEST),
    # Chunks of twice the slots, and so twice the working set.
    Mutant(
        _SESSION,
        "_CHUNK_SLOTS = 1 << 15\n",
        "_CHUNK_SLOTS = 1 << 16\n",
        "tests/test_session.py::test_a_long_session_holds_one_chunk_at_a_time",
    ),
    # Two frames a chunk even when one frame is longer than a chunk.
    Mutant(
        _SESSION,
        "    step = max(1, _CHUNK_SLOTS // slots_per_frame)\n",
        "    step = max(2, _CHUNK_SLOTS // slots_per_frame)\n",
        "tests/test_chunk_walk.py::test_hooks_see_chunks_of_one_kind",
    ),
    # A float field takes any value `float` converts, a string included.
    Mutant(
        _QUADRATURE,
        '"a real number", isinstance(value, numbers.Real), float',
        '"a real number", True, float',
        "tests/test_session.py::test_config_validation_messages_name_fields",
    ),
    # The EPR source takes a pair's difference after its sum is stored.
    Mutant(
        _QUADRATURE,
        "    diff = p - q\n    p += q\n",
        "    p += q\n    diff = p - q\n",
        _STAGES_TEST,
    ),
    # The detector adds its noise before scaling it.
    Mutant(
        _DETECTION,
        "        noise *= math.sqrt(self.electronic_noise_var)\n        noise[0] += a\n",
        "        noise[0] += a\n        noise *= math.sqrt(self.electronic_noise_var)\n",
        _STAGES_TEST,
    ),
    # The joint measurement forms both sums before adding either.
    Mutant(
        _DETECTION,
        "    yield received[0] + idler[0]\n    yield received[1] - idler[1]\n",
        "    sums = received[0] + idler[0], received[1] - idler[1]\n    yield from sums\n",
        "tests/test_draw_stages.py::test_bell_measure_holds_one_joint_sum_beside_its_noise",
    ),
    # The beam splitter's reflected port reads the scaled vacuum.
    Mutant(
        _QUADRATURE,
        "    reflected = _plus(r, x, -t * vacuum[0]) if reflect else None\n    vacuum *= r\n",
        "    vacuum *= r\n    reflected = _plus(r, x, -t * vacuum[0]) if reflect else None\n",
        _STAGES_TEST,
    ),
    # The parent writes one trace short of its share.
    Mutant(
        _REPORT,
        "        _write_traces(jobs[:split])\n",
        "        _write_traces(jobs[: split - 1])\n",
        f"{_WRITER_TESTS}::test_forked_and_serial_trace_writers_write_the_same_bytes",
    ),
    # The parent ignores a failed child's exit status.
    Mutant(_REPORT, "    if status:\n", "    if False:\n", _CHILD_FAILS_TEST),
    # The child ends without sending its error text.
    Mutant(
        _REPORT,
        "            os.write(write_end, str(exc).encode())\n",
        "            pass\n",
        _CHILD_FAILS_TEST,
    ),
    # A stream key word may equal 2**bits, which aliases key 0 of the next word.
    Mutant(
        _QUADRATURE,
        "        if 0 <= value < 1 << bits:\n",
        "        if 0 <= value <= 1 << bits:\n",
        _REFUSALS_TEST,
    ),
    # A record float may be a NaN or an infinity, so a NaN threshold
    # switches its check off.
    Mutant(
        _QUADRATURE,
        "        if cast is float and not math.isfinite(value):\n",
        "        if False:\n",
        "tests/test_verification.py::test_thresholds_reject_non_finite_values",
    ),
    # An integer array of frames may hold an index past 32 bits.
    Mutant(
        _QUADRATURE,
        "frames.min() >= 0 and frames.max() < 1 << 32",
        "frames.min() >= 0",
        _REFUSALS_TEST,
    ),
    # `substream` keys its phase one bit lower than `rows` does.
    Mutant(
        _QUADRATURE,
        "        return RngStream(self.seed, phase << 32 | index)\n",
        "        return RngStream(self.seed, phase << 31 | index)\n",
        f"{_ROWS_TESTS}::test_frame_rows_draw_what_each_substream_draws",
    ),
    # The return leg's loss draws the outbound leg's vacuum.
    Mutant(
        _SESSION,
        "_PHASE_LOSS_BACK = 4\n",
        "_PHASE_LOSS_BACK = 3\n",
        "tests/test_session.py::test_substream_phases_are_distinct",
    ),
    # The eavesdropper's source is keyed by another salt.
    Mutant(
        _SESSION,
        "_EVE_SEED_SALT = 0x517CC1B727220A95\n",
        "_EVE_SEED_SALT = 0x517CC1B727220A96\n",
        "tests/test_reference_session.py::test_session_matches_frame_at_a_time_reference",
    ),
    # The spectrum may hold one bin more than the cap.
    Mutant(
        _DETECTION,
        "+ 1e-9 < MAX_SPECTRUM_BINS:\n",
        "+ 1e-9 < MAX_SPECTRUM_BINS + 1:\n",
        "tests/test_detection.py::test_spectrum_input_validation",
    ),
    # A sweep point's cd_db averages the phase channel's correlation degree.
    Mutant(
        _SESSION,
        "cds.append(transcript.cd.measured_plus_db)",
        "cds.append(transcript.cd.measured_minus_db)",
        f"{_SWEEP_TESTS}::test_sweep_equals_sessions_run_by_hand_on_a_tau_grid",
    ),
    # A no-key abort counts as a detection.
    Mutant(
        _SESSION,
        "detections.append(transcript.verdict.status is VerdictStatus.EVE_SUSPECTED)",
        "detections.append(not transcript.outcome.accepted)",
        f"{_SWEEP_TESTS}::test_sweep_marks_what_no_session_measured",
    ),
    # A session that compared no bits counts as error free.
    Mutant(
        _SESSION,
        "            if ber is not None:\n                bers.append(ber)\n",
        "            bers.append(ber or 0.0)\n",
        f"{_SWEEP_TESTS}::test_sweep_marks_what_no_session_measured",
    ),
]


def label(mutant: Mutant) -> str:
    """The mutant's first changed line, old -> new; for a patch that only
    reorders lines, the first line of each."""
    old, new = mutant.old.splitlines(), mutant.new.splitlines()
    removed = next((line for line in old if line not in new), old[0])
    added = next((line for line in new if line not in old), new[0] if new else "")
    return f"{mutant.file}: {removed.strip()!r} -> {added.strip()!r}"


def _failures(mutant: Mutant) -> list[str] | None:
    """The ids of the tests that fail on `mutant`, or None if tier-1 hung;
    a run that fails without naming a test gives its exit status."""
    with tempfile.TemporaryDirectory(prefix="qcsim-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, tree,
            ignore=shutil.ignore_patterns(".git", ".hypothesis", "__pycache__"),
        )
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        command += [f"--deselect={test}" for test in (*DIGEST_TESTS, SELF_TEST)]
        try:
            done = subprocess.run(
                command, cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
    failed = list(dict.fromkeys(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)))
    return failed or ([f"pytest exit status {done.returncode}"] if done.returncode else [])


def main() -> int:
    survivors = []
    for i, mutant in enumerate(MUTANTS, 1):
        failed = _failures(mutant)
        if failed is None:
            verdict = f"killed: tier-1 ran over {TIMEOUT_S} s"
        elif not failed:
            verdict = "SURVIVED"
            survivors.append(i)
        else:
            named = any(test.split("[")[0] == mutant.killer for test in failed)
            among = "among" if named else "NOT among"
            verdict = f"killed by {len(failed)} tests, the named one {among} them"
        print(f"{i}. {label(mutant)}\n   {verdict}", flush=True)
        for test in failed or ():
            print(f"     {test}")
    print(f"survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
