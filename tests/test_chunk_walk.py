"""Byte pins and the hook sequence of the chunked session core.

`run_session` walks the blocked frames first and the sent frames after,
each kind in chunks of at most `_CHUNK_SLOTS` slots.  The sha256 digests
of `transcript_to_json` below were recorded with the frame-at-a-time
session loop of commit 337ccdb, before frames were batched, so they hold
the chunk walk to the per-frame results byte for byte.  The two shapes
straddle the chunk size: 1030 x 64 slots spans two chunks, and each
70 000-slot frame is larger than a chunk.  The lossy channel also runs
detectors without electronic noise, which skips their noise draws.  Seed
2028 blocks frame 1 of 3, so the long-frame sessions hold blocked and
unblocked frames.  A recording eavesdropper pins the order and size of
the chunks that the attack hooks see.
"""

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import pytest

from qcsim.adversary import EveRecord, InterceptResend, NoAttack, Qnd, Tap
from qcsim.detection import DetectorConfig
from qcsim.quadrature import Quadrature
from qcsim.report import transcript_to_json
from qcsim.session import _CHUNK_SLOTS, SessionConfig, run_session

ATTACKS = {
    "none": NoAttack(),
    "tap": Tap(tau=0.3),
    "intercept_resend": InterceptResend(fake_r=1.0),
    "qnd": Qnd(Quadrature.X, measurement_var=1.0),
}

CHANNELS = {
    "lossless": {},
    "lossy": dict(
        eta_out=0.6, eta_back=0.8, detector=DetectorConfig(electronic_noise_var=0.0)
    ),
}

DIGESTS = {
    ((1030, 64), "none", "lossless"): "ec1b85fde2f623128bad6f58eab6b2df9af0e804c8dca855b029350a192edbcb",
    ((1030, 64), "tap", "lossless"): "1bebb92f7085aaa10961104b98f335c236c8a9c7f75dc61171f01581e09281de",
    ((1030, 64), "intercept_resend", "lossless"): "64d4fd5b09e097953b8c2598f442c75ca3702b675fe6d0b368d09b10cbd64d07",
    ((1030, 64), "qnd", "lossless"): "1399b6a9c517684bdf4b64b912abd885d42c5aff63b2309ef7067bf83a090c1e",
    ((1030, 64), "none", "lossy"): "c05cfaaaa53413a207012847f6f8b4f37cd1ad310fd90beb40683342210cab64",
    ((1030, 64), "tap", "lossy"): "5437f602adb7e7e8446bd6f4d9126e4bab212605f968bc3811e12c89d0cbcdcb",
    ((1030, 64), "intercept_resend", "lossy"): "521cb5dec04d0d6ceb78e72a08cbdd618c2b33c309a5da5f93fb78e9e9829413",
    ((1030, 64), "qnd", "lossy"): "f7e5012ceec06375dcdbe02e51605d443027bb7520c073868f728ce2aeca1bb3",
    ((3, 70000), "none", "lossless"): "145e4373a72053bf048e56c9a51ff8c024c028e8f97edb6d0bd07dee111cd47c",
    ((3, 70000), "tap", "lossless"): "7fec732bf3b1e7fc00e16c0de03325effe61be7881539ef1c9826b7e29692aab",
    ((3, 70000), "intercept_resend", "lossless"): "b23c9b09aec7df89ad2e75d0d7c24f8fca6eda1400a7932dbe821ddadf9fd823",
    ((3, 70000), "qnd", "lossless"): "6685dd52a742378e55f55f0792684552742d396fadaaf390e0886e5bb00d97b5",
    ((3, 70000), "none", "lossy"): "0b7fb247144346f170e45378bf36031f4968d3c4bee9d34466e76dde465fb781",
    ((3, 70000), "tap", "lossy"): "f604bc81205815ea00cf7562a7b526c4555fb8925138f6077294eb78c12732f9",
    ((3, 70000), "intercept_resend", "lossy"): "ac39d67fad2fd76d785c43d69341bd817aaa034c0bf13db15cc7ddfc992de2da",
    ((3, 70000), "qnd", "lossy"): "852fcc163c9c831bd0fc0c1cd2435e064db48c1884e06994346667cab988f4a5",
}


def test_shapes_straddle_the_chunk_size():
    assert 1030 * 64 > _CHUNK_SLOTS > 64
    assert 70000 > _CHUNK_SLOTS


@pytest.mark.parametrize(
    "shape, attack, channel",
    sorted(DIGESTS),
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_chunk_walk_keeps_per_frame_bytes(shape, attack, channel):
    frames, slots_per_frame = shape
    cfg = SessionConfig(
        key_bits="100110",
        seed=2028,
        frames=frames,
        slots_per_frame=slots_per_frame,
        block_prob=0.35,
        attack=ATTACKS[attack],
        **CHANNELS[channel],
    )
    text = transcript_to_json(run_session(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[shape, attack, channel]


class _RecordingEve:
    """Passes every beam on untouched and logs each hook call as
    (hook, frames, whether y was given)."""

    def __init__(self, calls: list):
        self.record = EveRecord()
        self.calls = calls

    def substitute(self, frames, x, y):
        self.calls.append(("substitute", frames.tolist(), y is not None))
        return x, y

    def drop(self, frames):
        self.calls.append(("drop", frames.tolist(), False))

    def relay(self, frames, x, y, rng):
        self.calls.append(("relay", frames.tolist(), y is not None))
        return x, y


@dataclass(frozen=True)
class _Recording:
    kind: ClassVar[str] = "recording"
    calls: list = field(default_factory=list)

    def begin(self, amplitude, session_r, rng):
        return _RecordingEve(self.calls)


@pytest.mark.parametrize("shape", [(1030, 64), (3, 70000)], ids=["1030x64", "3x70000"])
def test_hooks_see_chunks_of_one_kind(shape):
    frames, slots_per_frame = shape
    attack = _Recording()
    cfg = SessionConfig(
        key_bits="100110",
        seed=2028,
        frames=frames,
        slots_per_frame=slots_per_frame,
        block_prob=0.35,
        attack=attack,
    )
    transcript = run_session(cfg)
    calls = attack.calls
    # Each substitute is followed by drop (blocked, no y) or relay (sent,
    # with y) on the same frames.
    assert len(calls) % 2 == 0
    chunks = {"drop": [], "relay": []}
    for (hook, held, has_y), (end, returned, end_has_y) in zip(calls[::2], calls[1::2]):
        assert hook == "substitute"
        assert end in chunks and returned == held
        assert has_y is end_has_y is (end == "relay")
        chunks[end].append(held)
    # All blocked chunks come first, then all sent chunks.
    ends = [end for end, _, _ in calls[1::2]]
    assert ends == ["drop"] * len(chunks["drop"]) + ["relay"] * len(chunks["relay"])
    blocked = [f for chunk in chunks["drop"] for f in chunk]
    sent = [f for chunk in chunks["relay"] for f in chunk]
    # Each kind in ascending frame order, each frame in exactly one call.
    assert blocked == list(transcript.blocked_frames)
    assert sorted(blocked + sent) == list(range(frames))
    assert sent == sorted(sent)
    assert blocked and sent
    # Every chunk but the last of its kind is full.
    full = max(1, _CHUNK_SLOTS // slots_per_frame)
    for kind in chunks.values():
        assert all(len(chunk) == full for chunk in kind[:-1])
        assert 1 <= len(kind[-1]) <= full
