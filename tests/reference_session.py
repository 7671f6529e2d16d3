"""A frame-at-a-time reference for `run_session`, straight from the substreams.

`run_session` walks frames in chunks, draws every chunk's rows together,
skips the draws no output reads and splits the attacks into hooks.  This
module does none of that.  It walks the frames one by one in index order
and applies the protocol to each in the order the beam meets it: the EPR
pair, outbound loss, the eavesdropper's substitution, then either the
blocked frame's traces or the modulation, the eavesdropper's probe, return
loss, joint detection and the block-mean decode.  Every random quantity of
frame f is the first draw of a fresh generator keyed by (f, phase), and
every phase draws all the quadratures it could use, so the transcript it
builds is what the chunked session must give, byte for byte.

The substream phases and the eavesdropper's seed salt are restated here
rather than imported, so that renumbering one in the session fails the
comparison.  The verdict rules, the signal sizing and the honest-channel
model are reused: this checks the walk and the draws, not those rules.
"""

from __future__ import annotations

import math

import numpy as np

from qcsim.adversary import EveRecord, InterceptResend, NoAttack, Qnd, Tap
from qcsim.codec import signal_amplitude_for
from qcsim.detection import db_below_snl
from qcsim.quadrature import Quadrature, RngStream, expected_sum_variance
from qcsim.session import (
    FrameCd,
    SessionConfig,
    SessionTranscript,
    finalize,
)
from qcsim.verification import BlockTraces, CdSummary, TraceStats, verdict

PHASE_BLOCKS = 1
PHASE_EPR = 2
PHASE_LOSS_OUT = 3
PHASE_LOSS_BACK = 4
PHASE_DETECTOR = 5
PHASE_SCOPES = 6
PHASE_ATTACK = 7
EVE_SEED_SALT = 0x517CC1B727220A95


def _epr(r: float, normals: np.ndarray):
    """(x1, y1, x2, y2) of one frame's slots from its four rows of normals."""
    u, v, w, z = normals
    a = math.exp(-r) / math.sqrt(2.0)
    b = math.exp(r) / math.sqrt(2.0)
    return a * u + b * v, b * w + a * z, a * u - b * v, b * w - a * z


def _loss(x, y, eta: float, draw, phase: int):
    """One beam through a beam splitter of transmission eta."""
    if eta == 1.0:
        return x, y
    vx, vy = draw(phase, 2)
    t, f = math.sqrt(eta), math.sqrt(1.0 - eta)
    return t * x + f * vx, t * y + f * vy


def _noisy(a, b, e: float, draw, phase: int):
    """`a` and `b` with the detector's electronic noise of variance e."""
    if e == 0.0:
        return a, b
    na, nb = draw(phase, 2)
    return a + math.sqrt(e) * na, b + math.sqrt(e) * nb


def _draws(seed: int, frame: int, n_slots: int):
    """`draw(phase, k)`: k rows of n_slots normals, the first draw of the
    frame's fresh generator at `phase`."""

    def draw(phase: int, k: int) -> np.ndarray:
        gen = RngStream(seed).substream(frame, phase).generator()
        return gen.standard_normal((k, n_slots))

    return draw


def _encode(bit: int, s: float, x, y):
    return (x + s, y) if bit == 1 else (x, y + s)


def _decide(d_plus, d_minus):
    """The block-mean decision: (bit, |mean d+|, |mean d-|)."""
    m_plus = abs(float(np.mean(d_plus)))
    m_minus = abs(float(np.mean(d_minus)))
    return int(m_plus > m_minus), m_plus, m_minus


def _trace_stats(a, b) -> TraceStats:
    sa, sb = np.std(a), np.std(b)
    cov = np.mean((a - a.mean()) * (b - b.mean()))
    pearson = 0.0 if sa == 0.0 or sb == 0.0 else float(cov / (sa * sb))
    return TraceStats(
        pearson,
        float(np.sqrt(np.mean((a + b) ** 2))),
        float(np.sqrt(np.mean((a - b) ** 2))),
    )


def _residual_ss(d) -> float:
    return float(np.sum((d - d.mean()) ** 2))


def reference_session(cfg: SessionConfig) -> SessionTranscript:
    """The transcript of `cfg`, simulated one frame at a time."""
    n_slots = cfg.slots_per_frame
    e = cfg.detector.electronic_noise_var
    attack = cfg.attack
    amplitude = signal_amplitude_for(cfg.r, cfg.margin)
    noise_var = expected_sum_variance(cfg.r, cfg.eta_out * cfg.eta_back, e)

    blocks = RngStream(cfg.seed).substream(0, PHASE_BLOCKS).generator()
    blocked = (blocks.random(cfg.frames) < cfg.block_prob).tolist()
    key = [int(b) for b in cfg.key_bits]

    eve = None if type(attack) is NoAttack else EveRecord()
    sent_bits, decoded, confidences, frame_cd = [], [], [], []
    rss_plus, rss_minus, traces, stats = [], [], [], []
    for f in range(cfg.frames):
        draw = _draws(cfg.seed, f, n_slots)
        x1, y1, x2, y2 = _epr(cfg.r, draw(PHASE_EPR, 4))
        x, y = _loss(x1, y1, cfg.eta_out, draw, PHASE_LOSS_OUT)
        if type(attack) is InterceptResend:
            # She keeps the genuine beam and sends one of her own pair's.
            held = (x, y)
            eve_draw = _draws(cfg.seed ^ EVE_SEED_SALT, f, n_slots)
            x, y, fake_x2, fake_y2 = _epr(attack.fake_r, eve_draw(0, 4))

        if blocked[f]:
            alice, bob = _noisy(x, x2, e, draw, PHASE_SCOPES)
            traces.append(BlockTraces(f, alice, bob))
            stats.append(_trace_stats(alice, bob))
            continue

        bit = key[len(sent_bits) % len(key)]
        sent_bits.append(bit)
        x, y = _encode(bit, amplitude, x, y)

        if type(attack) is Tap:
            vx, vy = draw(PHASE_ATTACK, 2)
            keep, take = math.sqrt(1.0 - attack.tau), math.sqrt(attack.tau)
            eve.observations[f] = take * x - keep * vx
            x, y = keep * x + take * vx, keep * y + take * vy
        elif type(attack) is Qnd:
            readout, kick = draw(PHASE_ATTACK, 2)
            readout = math.sqrt(attack.measurement_var) * readout
            kick = math.sqrt(1.0 / attack.measurement_var) * kick
            if attack.measured_quadrature is Quadrature.X:
                eve.observations[f] = x + readout
                y = y + kick
            else:
                eve.observations[f] = y + readout
                x = x + kick
        elif type(attack) is InterceptResend:
            # Her ideal joint detection of the returned fake beam.
            d_plus, d_minus = x + fake_x2, y - fake_y2
            eve_bit = _decide(d_plus, d_minus)[0]
            eve.decoded_bits.append(eve_bit)
            eve.observations[f] = d_plus
            x, y = _encode(eve_bit, amplitude, *held)

        x, y = _loss(x, y, cfg.eta_back, draw, PHASE_LOSS_BACK)
        d_plus, d_minus = _noisy(x + x2, y - y2, e, draw, PHASE_DETECTOR)
        bit, m_plus, m_minus = _decide(d_plus, d_minus)
        decoded.append(bit)
        confidences.append(abs(m_plus - m_minus) / math.sqrt(noise_var / n_slots))
        frame_cd.append(
            FrameCd(
                f,
                db_below_snl(np.var(d_plus, ddof=1)),
                db_below_snl(np.var(d_minus, ddof=1)),
            )
        )
        rss_plus.append(_residual_ss(d_plus))
        rss_minus.append(_residual_ss(d_minus))

    cd = None
    if decoded:
        dof = len(decoded) * n_slots - len(decoded)
        cd = CdSummary(
            measured_plus_db=db_below_snl(sum(rss_plus) / dof),
            measured_minus_db=db_below_snl(sum(rss_minus) / dof),
            expected_db=db_below_snl(noise_var),
        )
    session_verdict = verdict(stats, cd, cfg.thresholds.resolve(cfg.r))
    decoded_bits = "".join(map(str, decoded))
    return SessionTranscript(
        config=cfg,
        signal_amplitude=amplitude,
        sent_bits="".join(map(str, sent_bits)),
        decoded_bits=decoded_bits,
        confidences=tuple(confidences),
        blocked_frames=tuple(f for f in range(cfg.frames) if blocked[f]),
        traces=tuple(traces),
        trace_stats=tuple(stats),
        frame_cd=tuple(frame_cd),
        cd=cd,
        verdict=session_verdict,
        outcome=finalize(session_verdict, decoded_bits),
        eve=eve,
    )
