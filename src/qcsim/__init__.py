"""Monte Carlo simulator of a continuous-variable key-distribution protocol.

The receiver keeps one beam of each EPR-correlated pair and sends the other
to the sender, who hides key bits as small quadrature displacements inside
the beam's quantum noise.  Joint detection against the retained idler
recovers the bits; channel monitoring and random beam blocking expose
eavesdroppers.  The package exposes the building blocks (quadrature
sampling, codec, detection, attacks, verification), a session state
machine, and a CLI that emits analysis data files.

The package namespace holds what a session script needs; every other name
is imported from its module (`qcsim.codec`, `qcsim.verification`, ...).
"""

from .adversary import InterceptResend, NoAttack, Qnd, Tap, qnd_measure, tap
from .codec import signal_amplitude_for
from .config import load_config
from .detection import DetectorConfig, bell_measure, correlation_degree
from .quadrature import (
    HIDING_THRESHOLD_R,
    Quadrature,
    RngStream,
    hiding_window,
    sample_slots,
)
from .report import PACKAGE_VERSION
from .session import SessionConfig, SweepPoint, run_session, sweep
from .verification import VerdictStatus

__version__ = PACKAGE_VERSION
