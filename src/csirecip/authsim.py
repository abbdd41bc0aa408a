"""CSI-handshake authentication and simulated recording/replay attacks.

The handshake: both sides measure CSI from exchanged probes, the station
sends back its measurement under a keyed authentication tag, and the
access point accepts only when the tag verifies, the two measurements
correlate strongly, and the estimated time shift is small.  A replayed
recording carries a valid tag but stale CSI, so it fails the channel
checks instead of the cryptographic one.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DegenerateSeriesError, InvalidParameterError, TooShortError, _freeze, instance,
                     integer, real, real_series)
from .metrics import pearson, xcorr_lag

PROBE_LEN = 600  # samples of each side's CSI that the channel checks compare


class Reason(str, Enum):
    OK = "ok"
    BAD_SIGNATURE = "bad_signature"
    LOW_CORR = "low_corr"
    HIGH_SHIFT = "high_shift"


@dataclass(frozen=True)
class AuthPolicy:
    """Acceptance thresholds; defaults sit midway between the observed
    legitimate (high corr, tiny shift) and replay (near-zero corr, large
    shift) operating points.  ``max_shift`` stays below ``PROBE_LEN // 3``,
    the widest lag the channel checks scan, so a shift above it is visible."""

    min_corr: float = 0.4
    max_shift: int = 50

    def __post_init__(self):
        real(self.min_corr, "min_corr", hi=1)
        object.__setattr__(self, "max_shift",
                           integer(self.max_shift, "max_shift", 0, PROBE_LEN // 3))


@dataclass(frozen=True)
class AuthMessage:
    """S3 message: the station's measured CSI under an authentication tag."""

    payload_csi: np.ndarray
    tag: bytes

    def __post_init__(self):
        _freeze(self, payload_csi=np.float64)


@dataclass(frozen=True)
class AuthDecision:
    accepted: bool
    corr: float
    shift: int
    reason: Reason

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "corr": self.corr,
            "shift": self.shift,
            "reason": self.reason.value,
        }


def _tag(payload: np.ndarray, key: bytes) -> bytes:
    data = np.ascontiguousarray(payload, dtype=np.float64).tobytes()
    return hmac.new(instance(key, "key", (bytes, bytearray)), data, hashlib.sha256).digest()


def sign_csi(csi, key: bytes) -> AuthMessage:
    """Build the signed S3 message for a measured CSI window (a 1-D real series)."""
    payload = real_series(csi, "csi")
    return AuthMessage(payload_csi=payload, tag=_tag(payload, key))


def verify_tag(message: AuthMessage, key: bytes) -> bool:
    return hmac.compare_digest(message.tag, _tag(message.payload_csi, key))


def _corr_shift(x: np.ndarray, y: np.ndarray, n: int) -> tuple[float, int]:
    """Pearson corr and |lag| (scan +-max(1, n // 3)) of the first n samples.

    A frozen channel gives (0.0, 0): it can never authenticate.
    """
    x, y = x[:n], y[:n]
    try:
        return pearson(x, y), abs(xcorr_lag(x, y, max(1, n // 3)).lag)
    except DegenerateSeriesError:
        return 0.0, 0


def _decide(ap_csi, message: AuthMessage, policy: AuthPolicy, key: bytes) -> AuthDecision:
    """The AP's decision: the tag gate, then the channel checks.

    A window shorter than ``3 * (max_shift + 1)`` samples leaves the lag
    scan too narrow to see a rejectable shift, and one holding NaN or +-inf
    on either side carries no channel estimate, so both fail closed like a
    frozen channel.
    """
    ap_csi = real_series(ap_csi, "ap_csi")
    instance(message, "message", (AuthMessage,))
    instance(policy, "policy", (AuthPolicy,))
    if not verify_tag(message, key):
        return AuthDecision(False, 0.0, 0, Reason.BAD_SIGNATURE)
    n = min(len(ap_csi), len(message.payload_csi), PROBE_LEN)
    if (n < 3 * (policy.max_shift + 1) or not np.isfinite(ap_csi[:n]).all()
            or not np.isfinite(message.payload_csi[:n]).all()):
        return AuthDecision(False, 0.0, 0, Reason.LOW_CORR)
    corr, shift = _corr_shift(ap_csi, message.payload_csi, n)
    if corr < policy.min_corr:
        return AuthDecision(False, corr, shift, Reason.LOW_CORR)
    if shift > policy.max_shift:
        return AuthDecision(False, corr, shift, Reason.HIGH_SHIFT)
    return AuthDecision(True, corr, shift, Reason.OK)


def run_handshake(ap_csi, sta_csi, policy: AuthPolicy, key: bytes) -> AuthDecision:
    """Legitimate handshake: AP checks the station's signed CSI report.

    The signature gate runs before any channel math.
    """
    return _decide(ap_csi, sign_csi(sta_csi, key), policy, key)


def replay_attack(recorded_s1, recorded_s3: AuthMessage, ap_now,
                  policy: AuthPolicy, key: bytes) -> AuthDecision:
    """Replay of a recorded handshake against fresh AP measurements.

    The recording's tag verifies (replay preserves signatures), so the
    decision rides on correlating the attacker-induced fresh CSI with the
    stale payload: temporal and spatial decorrelation push the correlation
    down and the apparent shift up.  ``recorded_s1`` is carried for
    protocol fidelity; the AP's fresh measurement ``ap_now`` is what the
    replayed probe produced at the AP.
    """
    del recorded_s1  # the stale probe itself never reaches the decision
    return _decide(ap_now, recorded_s3, policy, key)


def temporal_decorrelation_curve(generator, gaps, seed: int = 0
                                 ) -> list[tuple[float, float, int]]:
    """Correlation and |shift| as a function of collection-time gap.

    ``generator(gap_s, rng)`` must return the paired (reference, delayed)
    series for one trial; gaps must be ascending and start at 0 so the
    first point anchors the no-gap operating point used to calibrate
    :class:`AuthPolicy`.  Series shorter than ``3 * (max_shift + 1)``
    samples of the default policy, the shortest window it decides, raise
    :class:`TooShortError`.
    """
    gaps = list(instance(gaps, "gaps", (Iterable,)))
    for gap in gaps:
        real(gap, "gaps", zero=True)
    if not gaps or gaps[0] != 0 or gaps != sorted(gaps):
        raise InvalidParameterError(f"gaps must be ascending and start at 0, got {gaps}")
    instance(generator, "generator", (Callable,))
    rng = np.random.default_rng(integer(seed, "seed", 0))
    min_len = 3 * (AuthPolicy.max_shift + 1)
    out = []
    for gap in gaps:
        series = generator(float(gap), rng)
        try:
            x, y = series
        except (TypeError, ValueError):  # not iterable, or not two items
            raise InvalidParameterError(
                f"gap {gap}: the generator must return two series, got {series!r}") from None
        x, y = (real_series(s, f"gap {gap}: each series") for s in (x, y))
        n = min(len(x), len(y))
        if n < min_len:
            raise TooShortError(f"gap {gap}: series of {n} samples, need at least {min_len}")
        out.append((float(gap), *_corr_shift(x, y, n)))
    return out
