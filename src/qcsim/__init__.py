"""Monte Carlo simulator of a continuous-variable key-distribution protocol.

The receiver keeps one beam of each EPR-correlated pair and sends the other
to the sender, who hides key bits as small quadrature displacements inside
the beam's quantum noise.  Joint detection against the retained idler
recovers the bits; channel monitoring and random beam blocking expose
eavesdroppers.  The package exposes the building blocks (quadrature
sampling, codec, detection, attacks, verification), a session state
machine, and a CLI that emits analysis data files.
"""

from .adversary import (
    AttackSpec,
    EveRecord,
    InterceptResend,
    InterceptResendEve,
    NoAttack,
    Qnd,
    Tap,
    back_action_var,
    qnd_measure,
    tap,
)
from .codec import (
    BitBlock,
    BitFrame,
    DecodedBit,
    Modulation,
    ModulationSymbol,
    decode_bit,
    encode_bit,
    signal_amplitude_for,
    symbol_for_bit,
)
from .config import SpectrumSettings, load_config
from .detection import (
    DEFAULT_ELECTRONIC_NOISE_VAR,
    TWO_BEAM_SNL,
    CorrelationDegree,
    DetectorConfig,
    JointMeasurement,
    NoiseSpectrum,
    SpectralSignal,
    bell_measure,
    correlation_degree,
    snl_reference,
    spectrum,
)
from .errors import (
    ConfigError,
    DomainError,
    HidingWindowError,
    ProtocolOrderError,
    SignalBudgetError,
    SimulationError,
)
from .quadrature import (
    HIDING_THRESHOLD_R,
    FrameRows,
    HidingWindow,
    Quadrature,
    RngStream,
    SlotPair,
    SqueezeParam,
    VariancePair,
    apply_loss,
    covariance_matrix,
    epr_variance,
    expected_sum_variance,
    hiding_window,
    sample_slots,
    slot_from_normals,
)
from .report import PACKAGE_VERSION, RunReport, build_run_report, transcript_to_json
from .session import (
    KeyComparison,
    SessionConfig,
    SessionOutcome,
    SessionTranscript,
    compare_keys,
    finalize,
    run_session,
    simulate_frame,
)
from .verification import (
    BlockSchedule,
    BlockTraces,
    CdSummary,
    FluctuationTrace,
    Thresholds,
    TraceStats,
    Verdict,
    VerdictStatus,
    record_block_traces,
    schedule_blocks,
    trace_stats,
    verdict,
)

__version__ = PACKAGE_VERSION
