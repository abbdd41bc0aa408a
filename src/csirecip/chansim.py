"""Synthetic reciprocal-channel generator.

The shared fading process is a sum of log-spaced carriers inside a
configurable band, each modulated by an independent complex
Ornstein-Uhlenbeck coefficient with correlation time ``coherence_time_s``.
This gives every acceptance bound an analytic or counting oracle: the
process is band-limited and Gaussian, long-gap correlation decays like
the OU autocorrelation exp(-gap/T), and injected lags and packet drops
are exact by construction.

Each carrier draws from its own seeded substream, so extending the
horizon (for delayed replay) preserves earlier samples bit-exactly.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from math import inf, isfinite

import numpy as np

from .errors import InvalidParameterError, UnknownPresetError, choice, instance, integer, pair, real
from .traces import CsiTrace

MAGNITUDE_OFFSET = 10.0  # keeps simulated magnitudes positive
N_CARRIERS = 128  # sets the independent-channel correlation floor ~1/sqrt(K)


@dataclass(frozen=True)
class LossEvent:
    """Contiguous packet drop: which side, start time (s, >= 0), packet count."""

    side: str  # "ap" or "sta"
    start_s: float
    count: int

    def __post_init__(self):
        choice(self.side, "LossEvent.side", ("ap", "sta"))
        # a negative start would index the packets from the end of the trace
        real(self.start_s, "LossEvent.start_s", zero=True)
        object.__setattr__(self, "count", integer(self.count, "LossEvent.count", 0))


@dataclass(frozen=True)
class ChannelConfig:
    duration_s: float = 300.0
    rate_hz: float = 10.0
    base_band: tuple[float, float] = (0.05, 2.0)
    snr_db: float = 15.0
    lag_samples: int = 0
    loss: tuple[LossEvent, ...] = ()
    coherence_time_s: float = 120.0
    subcarriers: int = 8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))
        for name in ("duration_s", "rate_hz", "coherence_time_s"):
            real(getattr(self, name), name)
        snr = self.snr_db  # any real number: negative is noisier than the signal, +inf noise-free
        if isinstance(snr, bool) or not isinstance(snr, numbers.Real) or not snr > -inf:
            raise InvalidParameterError(f"snr_db must be a number above -inf, got {snr!r}")
        f_lo, f_hi = pair(self.base_band, "base_band")
        object.__setattr__(self, "base_band", (f_lo, f_hi))
        if not f_lo < f_hi:
            raise InvalidParameterError(f"base_band needs 0 < f_lo < f_hi, got [{f_lo}, {f_hi}]")
        if f_hi > self.rate_hz / 2:
            raise InvalidParameterError(
                f"base_band top {f_hi} Hz exceeds Nyquist {self.rate_hz / 2} Hz"
            )
        if self.n_samples < 1:
            raise InvalidParameterError(
                f"duration_s must give at least one sample at {self.rate_hz} Hz, "
                f"got {self.duration_s}"
            )
        object.__setattr__(self, "subcarriers", integer(self.subcarriers, "subcarriers", 1))
        lag = integer(self.lag_samples, "lag_samples")
        if abs(lag) >= self.n_samples:  # the devices would share no sample
            raise InvalidParameterError(
                f"|lag_samples| must be below the {self.n_samples} samples of duration_s, "
                f"got {self.lag_samples!r}")
        object.__setattr__(self, "lag_samples", lag)
        loss = self.loss
        if not (isinstance(loss, (tuple, list)) and all(isinstance(e, LossEvent) for e in loss)):
            raise InvalidParameterError(f"loss must be a sequence of LossEvent, got {loss!r}")
        object.__setattr__(self, "loss", tuple(loss))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.rate_hz))


def ou_process(n: int, dt: float, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Ornstein-Uhlenbeck path via exact AR(1) discretization.

    Autocorrelation at lag k*dt is exp(-k*dt/tau) in expectation; the
    stationary start draws x[0] from the stationary law.
    """
    n = integer(n, "n", 1)
    rho = float(np.exp(-real(dt, "dt") / real(tau, "tau")))
    innov = instance(rng, "rng", (np.random.Generator,)).standard_normal(n)
    drive = np.sqrt(1 - rho * rho) * innov
    drive[0] = innov[0]
    y = drive.tolist()
    for i in range(1, n):
        y[i] += rho * y[i - 1]
    return np.array(y)


def _innovations(z: np.ndarray) -> np.ndarray:
    """Unit-variance complex innovations from (re, im) normal pairs, in place.

    Equals ``(z[..., 0] + 1j * z[..., 1]) / np.sqrt(2)`` bit for bit:
    numpy divides a complex by a real by multiplying by its reciprocal.
    """
    z *= 1 / np.sqrt(2)
    return z.view(np.complex128)[..., 0]


BLOCK = 256  # samples per step of the streamed carrier simulation

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit LCG multiplier
_M128 = (1 << 128) - 1


def _carrier_states(seed: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of every carrier, for a non-negative int seed.

    Equals ``[PCG64(c).state for c in SeedSequence(seed).spawn(N_CARRIERS)]``.
    SeedSequence's hash mix runs on uint32 arrays across the spawn keys (array
    products wrap silently where scalar ones warn), and PCG64's seeding
    (``pcg_setseq_128_srandom_r``) runs on Python ints.
    """
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))  # a spawned sequence pads its entropy to the pool size
    entropy = [np.full(N_CARRIERS, w, np.uint32) for w in words]
    entropy.append(np.arange(N_CARRIERS, dtype=np.uint32))  # the spawn key
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const = _INIT_B
    out = []  # generate_state(4, uint64): 8 words, little-endian pairs
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        out.append(value ^ value >> 16)
    s_hi, s_lo, i_hi, i_lo = (
        (out[2 * j].astype(np.uint64) | out[2 * j + 1].astype(np.uint64) << np.uint64(32)).tolist()
        for j in range(4))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    return states


class _Workspace:
    """One thread's carrier generators and block buffers.

    Built on a thread's first ``base_signal`` call and reused by its later
    ones: every call reseeds all generators and overwrites the buffers
    before reading them, so nothing carries over from one call to the next.
    """

    def __init__(self):
        self.rngs = [np.random.Generator(np.random.PCG64(0)) for _ in range(N_CARRIERS)]
        self.draws = np.empty((N_CARRIERS, BLOCK, 2))  # carrier-major, as drawn
        # time-major phasors past the table; reuses the draws once copied
        self.phasors = self.draws.view(np.complex128).reshape(BLOCK, N_CARRIERS)
        self.coef = np.empty((BLOCK, N_CARRIERS), dtype=np.complex128)  # time-major
        self.rows = list(self.coef.view(np.float64))  # one time step of all carriers each
        self.real = self.coef.real  # column k: carrier k's term once multiplied

    def reseed(self, seed: int) -> list[np.random.Generator]:
        for rng, (state, inc) in zip(self.rngs, _carrier_states(seed)):
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                       "uinteger": 0, "state": {"state": state, "inc": inc}}
        return self.rngs


_local = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace; built on first use, so importing builds none."""
    try:
        return _local.workspace
    except AttributeError:
        _local.workspace = _Workspace()
        return _local.workspace


TABLE = 4 * BLOCK  # leading samples whose phasors are kept per (band, rate): 2 MB
_TABLES = 2  # (band, rate) phasor tables kept at once


def _omega(f_lo: float, f_hi: float) -> np.ndarray:
    return 2 * np.pi * np.geomspace(f_lo, f_hi, N_CARRIERS)


def _phasors(out: np.ndarray, omega: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(i * omega * t) into the time-major ``out``, one row per time in ``t``."""
    # numpy's complex product 2j * pi * f * t is exactly 0 + 1j * (2 * pi * f) * t
    out.real = 0.0
    np.multiply(t[:, None], omega, out=out.imag)
    return np.exp(out, out=out)


@lru_cache(maxsize=_TABLES)
def _phasor_table(f_lo: float, f_hi: float, rate_hz: float) -> np.ndarray:
    """The carrier phasors of samples 0..TABLE-1, (TABLE, N_CARRIERS); read-only.

    They depend on the band and the rate only, never on the seed, so every
    call and thread simulating that channel reads the same table.
    """
    table = np.empty((TABLE, N_CARRIERS), dtype=np.complex128)
    _phasors(table, _omega(f_lo, f_hi), np.arange(TABLE) * (1.0 / rate_hz))
    table.setflags(write=False)
    return table


def base_signal(cfg: ChannelConfig, n: int, start_s: float = 0.0) -> np.ndarray:
    """Shared band-limited fading signal, unit variance, zero mean.

    Deterministic in (cfg.seed, sample position): sample i of any window
    starting at ``start_s`` equals sample i+offset of the window starting
    at zero, provided offsets are whole samples.

    Each carrier's coefficient is the :func:`ou_process` recurrence driven
    by unit-variance complex innovations from interleaved (re, im) draws,
    so sample i does not depend on the horizon.  Every sample before
    ``start_s`` is simulated too: time grows linearly with ``start_s``.
    Time is streamed in blocks of BLOCK samples through fixed buffers, and
    each sample advances the OU recurrence of all carriers in one vector
    step.  The carrier generators and the buffers live in a per-thread
    workspace that every call reuses.
    The phasors of the first TABLE samples are read from a 2 MB read-only
    table shared by all calls and threads, kept for the last ``_TABLES``
    (band, rate) pairs used; later samples compute theirs per block.
    """
    instance(cfg, "cfg", (ChannelConfig,))
    n = integer(n, "n", 0)
    dt = 1.0 / cfg.rate_hz
    offset = -1
    if isinstance(start_s, numbers.Real) and not isinstance(start_s, bool) and isfinite(start_s):
        offset = int(round(start_s / dt))
    if offset < 0:  # no sample precedes sample 0
        raise InvalidParameterError(
            f"start_s must be finite and round to a sample >= 0, got {start_s!r}")
    total = offset + n
    ws = _workspace()
    rngs = ws.reseed(cfg.seed)
    draws, coef, rows, terms = ws.draws, ws.coef, ws.rows, ws.real
    f_lo, f_hi = cfg.base_band
    table = _phasor_table(float(f_lo), float(f_hi), float(cfg.rate_hz))
    omega = _omega(f_lo, f_hi)
    rho = np.exp(-dt / cfg.coherence_time_s)
    gain = np.sqrt(1 - rho * rho)
    rho_row = np.full(2 * N_CARRIERS, rho)
    prev = np.zeros(2 * N_CARRIERS)  # the step before the block
    step = np.empty(2 * N_CARRIERS)
    x = np.zeros(n)
    for a in range(0, total, BLOCK):
        m = min(BLOCK, total - a)
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=draws[k, :m])
        innov = _innovations(draws[:, :m])
        draws[:, 1 if a == 0 else 0:m] *= gain  # the stationary start keeps its draw
        np.copyto(coef[:m], innov.T)
        for row in rows[:m]:
            np.multiply(prev, rho_row, step)
            np.add(row, step, row)
            prev = row
        prev = prev.copy()  # the buffers are refilled by the next block
        lo = max(offset - a, 0)  # samples before the window only advance the state
        if lo < m:
            if a + m <= TABLE:  # TABLE is whole blocks, so a block is in it or past it
                ph = table[a + lo:a + m]
            else:
                ph = _phasors(ws.phasors[:m - lo], omega, np.arange(a + lo, a + m) * dt)
            np.multiply(coef[lo:m], ph, out=coef[lo:m])
            acc = x[a + lo - offset:a + m - offset]
            for k in range(N_CARRIERS):
                acc += terms[lo:m, k]
    return x / np.sqrt(N_CARRIERS / 2.0)


def _device_trace(cfg: ChannelConfig, device_id: str, magnitudes: np.ndarray,
                  noise_stream: int, dropped: np.ndarray) -> CsiTrace:
    n = len(magnitudes)
    sigma = 10.0 ** (-cfg.snr_db / 20.0)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, noise_stream]))
    noise = sigma * rng.standard_normal((cfg.subcarriers, n))
    mags = np.maximum(magnitudes[None, :] + noise, 0.0)
    drop = np.zeros(n, dtype=bool)
    drop[dropped[dropped < n]] = True
    seqs = np.flatnonzero(~drop)
    return CsiTrace(device_id=device_id, subcarriers=cfg.subcarriers, rate_hz=cfg.rate_hz,
                    seqs=seqs, t=seqs * (1.0 / cfg.rate_hz), iq=mags.T[seqs])


def _dropped_seqs(cfg: ChannelConfig, side: str) -> np.ndarray:
    out: list[np.ndarray] = []
    for ev in cfg.loss:
        if ev.side != side:
            continue
        start = int(round(ev.start_s * cfg.rate_hz))
        out.append(np.arange(start, start + ev.count))
    if not out:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(out))


def gen_pair(cfg: ChannelConfig) -> tuple[CsiTrace, CsiTrace, dict]:
    """Generate the AP and STA views of one reciprocal channel.

    AP sees the base signal plus its own noise; STA sees the base delayed
    by ``lag_samples`` plus independent noise.  Loss events delete whole
    packets per side.  Returns (ap, sta, truth) with the ground truth a
    dict of the injected lag and per-side dropped seq arrays.
    """
    n = instance(cfg, "cfg", (ChannelConfig,)).n_samples
    lag = cfg.lag_samples
    pad = abs(lag)
    b = base_signal(cfg, n + pad)
    a0 = max(lag, 0)
    base_ap = b[a0:a0 + n]
    base_sta = b[a0 - lag:a0 - lag + n]

    drop_ap = _dropped_seqs(cfg, "ap")
    drop_sta = _dropped_seqs(cfg, "sta")
    ap = _device_trace(cfg, "ap", MAGNITUDE_OFFSET + base_ap, 101, drop_ap)
    sta = _device_trace(cfg, "sta", MAGNITUDE_OFFSET + base_sta, 202, drop_sta)
    truth = {
        "lag": lag,
        "dropped_seqs": {"ap": drop_ap.tolist(), "sta": drop_sta.tolist()},
    }
    return ap, sta, truth


def gen_attacker(cfg: ChannelConfig, mode: str = "independent",
                 gap_s: float = 0.0) -> CsiTrace:
    """Channel trace as an attacker would observe it.

    ``independent`` draws a fresh base process with the same statistics
    (spatial decorrelation); ``delayed_replay`` continues the legitimate
    base process ``gap_s`` later, so its correlation with the original is
    bounded by the OU envelope exp(-gap_s / coherence_time_s) and decays
    even faster once the carrier phases rotate through a full cycle.  The
    base process is simulated through the gap, so time grows linearly with
    ``gap_s``.
    """
    gap_s = real(gap_s, "gap_s", zero=True)
    n = instance(cfg, "cfg", (ChannelConfig,)).n_samples
    if choice(mode, "mode", ("independent", "delayed_replay")) == "independent":
        base = base_signal(replace(cfg, seed=cfg.seed + 0x5EED), n)
    else:
        base = base_signal(cfg, n, start_s=gap_s)
    rng_stream = 303 if mode == "independent" else 404
    return _device_trace(
        cfg, f"attacker-{mode}", MAGNITUDE_OFFSET + base, rng_stream,
        np.array([], dtype=np.int64),
    )


_KEYGEN_BAND = (0.05, 0.8)  # slow-fading band the coherence selection targets

_PRESETS = {
    # calibrated desk-scale analogs of the three measurement locations;
    # levels are artifact calibration, not measured values
    "los-short": dict(snr_db=11.0, lag_samples=2, loss=(),
                      base_band=_KEYGEN_BAND),
    "nlos-short": dict(
        snr_db=9.0, lag_samples=5, base_band=_KEYGEN_BAND,
        loss=(LossEvent("sta", 120.0, 30),),
    ),
    "nlos-long": dict(
        snr_db=8.0, lag_samples=12, base_band=_KEYGEN_BAND,
        loss=(LossEvent("sta", 90.0, 90), LossEvent("ap", 300.0, 60)),
    ),
    # the preset used by the reciprocity-enhancement contract
    "reciprocal": dict(
        snr_db=5.0, lag_samples=5, base_band=_KEYGEN_BAND,
        loss=(LossEvent("sta", 150.0, 30),),
    ),
}


def preset(name: str, duration_s: float = 600.0, seed: int = 0,
           **overrides) -> ChannelConfig:
    """Named scenario presets; any field can be overridden."""
    key = name.lower().replace("_", "-") if isinstance(name, str) else None
    if key not in _PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    unknown = sorted(set(overrides) - {f.name for f in fields(ChannelConfig)})
    if unknown:
        raise InvalidParameterError(f"unknown ChannelConfig field {unknown[0]!r}")
    kw = dict(_PRESETS[key])
    kw.update(overrides)
    return ChannelConfig(duration_s=duration_s, seed=seed, **kw)
