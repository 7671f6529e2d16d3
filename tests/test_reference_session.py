"""`run_session` against the frame-at-a-time reference in `reference_session`,
byte for byte, and metamorphic relations over the same configs.

The reference walks one frame at a time and draws straight from each
frame's substreams, so any drift in the chunk walk, the row batching, the
skipped draws or the attack hooks shows up as a differing transcript on
some config, not only on the shapes and seed the chunk-walk pins hold.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference_session import reference_session

from qcsim.adversary import InterceptResend, NoAttack, Qnd, Tap
from qcsim.detection import DEFAULT_ELECTRONIC_NOISE_VAR, DetectorConfig
from qcsim.quadrature import Quadrature
from qcsim.report import transcript_to_dict, transcript_to_json
from qcsim.session import ABORT_EVE_SUSPECTED, ABORT_NO_KEY, SessionConfig, run_session

ETAS = st.just(1.0) | st.floats(0.05, 1.0)

ATTACKS = st.one_of(
    st.just(NoAttack()),
    st.builds(Tap, tau=st.floats(0.0, 1.0)),
    st.builds(InterceptResend, fake_r=st.floats(0.0, 3.0)),
    st.builds(
        Qnd,
        measured_quadrature=st.sampled_from(Quadrature),
        measurement_var=st.floats(0.05, 20.0),
    ),
)

CONFIGS = st.builds(
    SessionConfig,
    key_bits=st.text("01", min_size=1, max_size=8),
    seed=st.integers(0, 2**64 - 1),
    r=st.floats(0.3, 3.0),
    frames=st.integers(1, 12),
    slots_per_frame=st.integers(2, 300),
    margin=st.floats(0.05, 0.95),
    eta_out=ETAS,
    eta_back=ETAS,
    block_prob=st.sampled_from([0.0, 0.35, 1.0]) | st.floats(0.0, 1.0),
    detector=st.builds(
        DetectorConfig,
        electronic_noise_var=st.sampled_from([0.0, 0.3, DEFAULT_ELECTRONIC_NOISE_VAR]),
    ),
    attack=ATTACKS,
)

ORACLE = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Shapes that cross the chunk size: 1030 x 64 slots spans two chunks, and
# each 70 000-slot frame is a chunk of its own.  Frames of 10 000 slots
# make chunks of six frames whose rows fill on two threads, with the next
# chunk drawn ahead.
LONG = dict(key_bits="100110", seed=2028, block_prob=0.35)


@ORACLE
@given(CONFIGS)
@example(SessionConfig(frames=1030, slots_per_frame=64, attack=Tap(0.3), **LONG))
@example(
    SessionConfig(
        frames=1030,
        slots_per_frame=64,
        eta_out=0.6,
        eta_back=0.8,
        attack=InterceptResend(1.0),
        **LONG,
    )
)
@example(
    SessionConfig(
        frames=3,
        slots_per_frame=70000,
        eta_out=0.6,
        detector=DetectorConfig(electronic_noise_var=0.0),
        attack=Qnd(Quadrature.Y, 0.5),
        **LONG,
    )
)
@example(SessionConfig(frames=3, slots_per_frame=70000, **LONG))
@example(
    SessionConfig(
        frames=26,
        slots_per_frame=10000,
        eta_back=0.7,
        attack=InterceptResend(1.0),
        **LONG,
    )
)
def test_session_matches_frame_at_a_time_reference(cfg):
    session = transcript_to_json(run_session(cfg)).splitlines()
    reference = transcript_to_json(reference_session(cfg)).splitlines()
    # A plain `==` would have pytest diff two multi-megabyte texts.
    moved = [
        (i + 1, ours, theirs)
        for i, (ours, theirs) in enumerate(zip(session, reference))
        if ours != theirs
    ]
    assert not moved, (
        f"{len(moved)} lines differ; the first as (line, session, reference): "
        f"{moved[0]}"
    )
    assert len(session) == len(reference)


@ORACLE
@given(CONFIGS)
def test_zero_tap_gives_the_honest_transcript(cfg):
    def record(attack):
        d = transcript_to_dict(run_session(replace(cfg, attack=attack)))
        del d["config"], d["eve"]
        return d

    assert record(Tap(tau=0.0)) == record(NoAttack())


@ORACLE
@given(CONFIGS)
def test_swapping_the_legs_keeps_the_expected_cd(cfg):
    swapped = replace(cfg, eta_out=cfg.eta_back, eta_back=cfg.eta_out)
    cd, cd_swapped = run_session(cfg).cd, run_session(swapped).cd
    assert (cd is None) is (cd_swapped is None)
    if cd is not None:
        assert cd.expected_db == cd_swapped.expected_db


@ORACLE
@given(CONFIGS)
def test_blocking_every_frame_sends_no_bit_and_never_accepts(cfg):
    t = run_session(replace(cfg, block_prob=1.0))
    assert t.sent_bits == t.decoded_bits == ""
    assert t.blocked_frames == tuple(range(cfg.frames))
    assert t.cd is None and not t.frame_cd
    assert not t.outcome.accepted
    assert t.outcome.reason in (ABORT_EVE_SUSPECTED, ABORT_NO_KEY)
