"""The benchmark's workloads: how each builds its inputs, what one timed
operation calls, and how the operation's output is digested.

Every operation is a call into qcsim's public functions, looked up on the
module at call time so that the tracing wrappers (see tracing.py) see it.
Operation ``i`` of a run with workload seed ``s`` uses op seed
``(s + i) mod REF_SPAN``; digests for every op seed in ``[0, REF_SPAN)`` are
recorded in ``refs/<workload>.txt`` by record_refs.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

#: The checkout under test: the benchmark lives in its top-level directory.
ROOT = BENCH_DIR.parent

#: Spans and scratch files of the benchmark, inside the checkout.
OUT_DIR = ROOT / ".bench-out"

#: Number of op seeds with a recorded reference digest; a multiple of the
#: attack cycle so that wrapping around keeps the attack rotation.
REF_SPAN = 1024

#: Reference files keep the first 64 bits of each sha256 digest.
REF_HEX = 16

R = 0.4375
KEY_BITS = "100110"


class MissingSource(RuntimeError):
    """The checkout holds no qcsim source tree to measure."""


def import_qcsim():
    """Import qcsim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qcsim" / "__init__.py").is_file():
        raise MissingSource(f"no qcsim package under {src}")
    sys.path.insert(0, str(src))
    import qcsim
    import qcsim.cli

    if Path(qcsim.__file__).resolve().parent != (src / "qcsim").resolve():
        raise MissingSource(f"qcsim was imported from {qcsim.__file__}, not {src}")
    return qcsim


def attacks():
    """The attack rotation of the session workloads, indexed by op seed mod 4."""
    import qcsim

    return (
        qcsim.NoAttack(),
        qcsim.Tap(tau=0.3),
        qcsim.InterceptResend(fake_r=1.0),
        qcsim.Qnd(qcsim.Quadrature.X, measurement_var=1.0),
    )


def op_seed(workload_seed: int, i: int) -> int:
    return (workload_seed + i) % REF_SPAN


@dataclass
class SessionWorkload:
    """``run_session`` on one shape; the attack rotates with the op seed."""

    name: str
    frames: int
    slots_per_frame: int
    kernel: str
    block_prob: float = 0.35

    @property
    def slots_per_op(self) -> int:
        return self.frames * self.slots_per_frame

    def setup(self, work_dir: Path) -> None:
        import qcsim

        self._attacks = attacks()
        self._qcsim = qcsim

    def prepare(self, seed: int):
        return self._qcsim.SessionConfig(
            r=R,
            key_bits=KEY_BITS,
            seed=seed,
            frames=self.frames,
            slots_per_frame=self.slots_per_frame,
            block_prob=self.block_prob,
            attack=self._attacks[seed % len(self._attacks)],
        )

    def call(self, cfg):
        return self._qcsim.run_session(cfg)

    def digest(self, cfg, transcript) -> tuple[str, int]:
        """sha256 of the deterministic transcript dump; writes no bytes."""
        text = self._qcsim.report.transcript_to_json(transcript)
        return hashlib.sha256(text.encode()).hexdigest(), 0

    def cleanup(self, cfg) -> None:
        pass


CLI_CONFIG = """\
[session]
r = {r}
key_bits = {key_bits}
seed = 11
frames = {frames}
slots_per_frame = {slots_per_frame}
block_prob = {block_prob}
"""


@dataclass
class CliWorkload:
    """``qcsim run --spectrum`` in process, into a fresh output directory."""

    name: str
    frames: int
    slots_per_frame: int
    kernel: str
    block_prob: float = 0.5

    @property
    def slots_per_op(self) -> int:
        return self.frames * self.slots_per_frame

    def setup(self, work_dir: Path) -> None:
        import qcsim.cli

        self._cli = qcsim.cli
        self._work = work_dir / self.name
        self._work.mkdir(parents=True, exist_ok=True)
        self._config = self._work / "session.ini"
        self._config.write_text(
            CLI_CONFIG.format(
                r=R,
                key_bits=KEY_BITS,
                frames=self.frames,
                slots_per_frame=self.slots_per_frame,
                block_prob=self.block_prob,
            )
        )
        # The command prints a short summary per run; keep it off the
        # benchmark's own output.
        self._stdout = io.StringIO()

    def prepare(self, seed: int):
        out = self._work / f"out-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", str(self._config), "--spectrum",
                "--seed", str(seed), "--out", str(out)]
        return out, argv

    def call(self, args):
        _, argv = args
        with contextlib.redirect_stdout(self._stdout):
            return self._cli.main(argv)

    def digest(self, args, exit_code) -> tuple[str, int]:
        """sha256 over the exit code and every output file, by name."""
        out, _ = args
        h = hashlib.sha256(f"exit {exit_code}\n".encode())
        written = 0
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            written += len(data)
            h.update(f"{path.name} {len(data)}\n".encode())
            h.update(data)
        return h.hexdigest(), written

    def cleanup(self, args) -> None:
        out, _ = args
        shutil.rmtree(out, ignore_errors=True)
        self._stdout.seek(0)
        self._stdout.truncate()


# Why each workload exists is recorded in README.md next to this file.
# `kernel` names the host-speed kernel whose work resembles the op's (see
# hostspeed.py).
WORKLOADS = {
    w.name: w
    for w in (
        SessionWorkload("small_frames", frames=500, slots_per_frame=64,
                        kernel="interpreter"),
        SessionWorkload("long_frames", frames=40, slots_per_frame=10_000,
                        kernel="arrays"),
        CliWorkload("cli_run", frames=60, slots_per_frame=1000, kernel="interpreter"),
    )
}


def load_refs(name: str) -> list[str]:
    """Recorded digest prefixes, indexed by op seed."""
    refs = [None] * REF_SPAN
    for line in (REFS_DIR / f"{name}.txt").read_text().splitlines():
        seed, digest = line.split()
        refs[int(seed)] = digest
    if None in refs:
        raise ValueError(f"refs/{name}.txt does not cover op seeds 0..{REF_SPAN - 1}")
    return refs
