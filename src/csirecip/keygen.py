"""Secret-key generation: CDF quantization, Gray coding, and session driver.

The session driver runs the three-step scheme end to end: threshold
agreement on a probe window, per-device reconstruction plus optional
synchronization, then block quantization and key comparison at a set of
bit-error thresholds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (DegenerateBlockError, InvalidParameterError, LengthMismatchError,
                     TooShortError, _freeze, finite_series, integer)
from .metrics import xcorr_lag
from .reconstruct import (
    ReciprocalBand,
    adapt_thresholds,
    apply_lag,
    fft_reconstruct,
    golay_filter,
    wpt_denoise,
    wt_reconstruct,
)
from .traces import MagnitudeSeries
from .wavelet import CwtParams, default_params, wavelet_coherence

PIPELINES = ("raw", "golay", "fft", "wpt", "wt")
PROBE_LEN = 500  # public probe window, samples: agreement only, never key material
MAX_LAG = 50  # lag search on the probe window, samples
BLOCK_LEN = 100  # samples per key block
_AGREEMENTS = 8  # probe agreements kept: sessions over one pair agree once


@dataclass(frozen=True)
class QuantizerSpec:
    """CDF-based quantizer: thresholds at the k/levels empirical quantiles."""

    levels: int
    thresholds: np.ndarray

    def __post_init__(self):
        _freeze(self, thresholds=np.float64)
        th = self.thresholds
        object.__setattr__(self, "levels", _check_levels(self.levels))
        if len(th) != self.levels - 1:
            raise InvalidParameterError(
                f"need levels-1 = {self.levels - 1} thresholds, got {len(th)}: {th.tolist()}")
        if not np.all(np.isfinite(th)):
            raise InvalidParameterError(f"thresholds must be finite, got {th.tolist()}")
        if not np.all(np.diff(th) > 0):
            raise InvalidParameterError(
                f"thresholds must be strictly increasing, got {th.tolist()}")


@dataclass(frozen=True)
class KeyBlock:
    """One key-generation window: quantization levels and Gray-coded bits."""

    start_seq: int
    levels: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        _freeze(self, levels=None, bits=None)


@dataclass(frozen=True)
class ThresholdStats:
    error_threshold: int
    accepted: int
    attempted: int
    kgr: float
    mean_ber: float | None  # over accepted keys; None when none accepted


@dataclass(frozen=True)
class SessionReport:
    """Paired-device evaluation of one key-generation session."""

    per_threshold: tuple[ThresholdStats, ...]
    overall_ber: float | None
    total_packets: int
    key_bits: int
    blocks: int
    skipped_blocks: int = 0
    pipeline: str | None = None
    sync: bool | None = None
    lag: int | None = None
    alpha: float | None = None
    beta: int | None = None
    band: tuple[float, float] | None = None

    def stats_at(self, theta: int) -> ThresholdStats:
        for st in self.per_threshold:
            if st.error_threshold == theta:
                return st
        raise KeyError(f"no stats at threshold {theta}")

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "sync": self.sync,
            "lag": self.lag,
            "alpha": self.alpha,
            "beta": self.beta,
            "band_hz": list(self.band) if self.band else None,
            "total_packets": self.total_packets,
            "key_bits": self.key_bits,
            "blocks": self.blocks,
            "skipped_blocks": self.skipped_blocks,
            "overall_ber": self.overall_ber,
            "per_threshold": [
                {
                    "error_threshold": st.error_threshold,
                    "accepted": st.accepted,
                    "attempted": st.attempted,
                    "kgr": st.kgr,
                    "mean_ber": st.mean_ber,
                }
                for st in self.per_threshold
            ],
        }


def _check_levels(levels, name: str = "levels") -> int:
    """``levels`` as an int, if it is a power of two >= 2."""
    levels = integer(levels, name)
    if levels < 2 or levels & (levels - 1):
        raise InvalidParameterError(f"{name} must be a power of two >= 2, got {levels!r}")
    return levels


def _error_thresholds(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, if they are nonempty and ascending."""
    try:
        th = tuple(operator.index(t) for t in values)
    except TypeError:
        raise InvalidParameterError(f"{name} must be integers, got {values!r}") from None
    if not th or list(th) != sorted(th):
        raise InvalidParameterError(f"{name} must be nonempty ascending, got {list(th)}")
    return th


def _cdf_rows(chunks: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's thresholds at its k/levels quantiles (linear between order
    statistics), and which rows can be quantized: those with at least
    ``levels`` distinct values and finite, strictly increasing thresholds.
    An interpolation that overflows (order statistics more than ~1.8e308
    apart) gives an inf or NaN threshold, so its row is not kept.

    The thresholds equal ``np.quantile(chunks, k / levels, axis=1,
    method="linear")`` bit for bit, read off the one sort that also counts
    the distinct values.  Only a zero threshold is taken from ``np.quantile``
    itself: its sign follows where numpy's partition leaves -0.0 and 0.0,
    which no sort reproduces.
    """
    n = chunks.shape[1]
    srt = np.sort(chunks, axis=1)
    q = np.arange(1, levels) / levels
    v = (n - 1) * q  # numpy's virtual index
    i = np.floor(v).astype(np.intp)
    g = v - np.where(v >= n - 1, -1, i)  # numpy weighs the last point from index -1
    a, b = srt[:, i], srt[:, np.minimum(i + 1, n - 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        d = b - a
        th = np.where(g >= 0.5, b - d * (1 - g), a + d * g)  # numpy's _lerp
        zero = np.any(th == 0, axis=1)
        if zero.any():
            th[zero] = np.quantile(chunks[zero], q, axis=1, method="linear").T
        increasing = np.all(np.diff(th, axis=1) > 0, axis=1)
    distinct = 1 + np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1)
    return th, (distinct >= levels) & increasing & np.all(np.isfinite(th), axis=1)


def _level_rows(chunks: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Each sample's level: how many of its row's thresholds lie strictly below it."""
    lv = np.zeros(chunks.shape, dtype=np.int64)
    for k in range(th.shape[1]):
        lv += chunks > th[:, k:k + 1]
    return lv


def cdf_thresholds(block, levels: int = 4) -> QuantizerSpec:
    """Quantizer thresholds at the k/levels empirical quantiles of a block.

    Linear interpolation between order statistics.  A block with fewer
    distinct values than levels (or ties collapsing adjacent quantiles)
    is degenerate and should be skipped by the caller.
    """
    block = finite_series(block, "block")
    levels = _check_levels(levels)
    if len(block) < levels:
        raise DegenerateBlockError(f"block of {len(block)} < {levels} levels")
    th, keep = _cdf_rows(block[None], levels)
    if not keep[0]:
        raise DegenerateBlockError(f"fewer than {levels} distinct values, or ties collapse "
                                   f"adjacent quantiles or one overflows: {th[0].tolist()}")
    return QuantizerSpec(levels=levels, thresholds=th[0])


def quantize(block, spec: QuantizerSpec) -> np.ndarray:
    """Map every sample to a level; boundary values go to the lower level."""
    block = finite_series(block, "block")
    return _level_rows(block[None], spec.thresholds[None])[0]


def _gray_rows(lv: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit binary-reflected Gray code of each level, MSB first, one row each."""
    gray = lv ^ (lv >> 1)
    return ((gray[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def gray_encode(levels_seq, levels_count: int) -> np.ndarray:
    """Binary-reflected Gray code of each level, MSB first, concatenated.

    The codes are read from a (levels_count, width) table indexed by level.
    When there are fewer levels to encode than table rows, they are coded
    directly, so memory follows the input and not the level count.
    """
    levels_count = _check_levels(levels_count, "levels_count")
    lv = np.asarray(levels_seq, dtype=np.int64).ravel()
    if lv.size and (lv.min() < 0 or lv.max() >= levels_count):
        raise InvalidParameterError(
            f"levels outside [0, {levels_count}): {lv.min()}..{lv.max()}"
        )
    width = levels_count.bit_length() - 1
    if lv.size < levels_count:
        return _gray_rows(lv, width).ravel()
    return np.take(_gray_rows(np.arange(levels_count), width), lv, axis=0).ravel()


def make_keys(x, block_len: int = BLOCK_LEN, levels: int = 4) -> tuple[list[KeyBlock], int]:
    """Cut a series into key blocks: quantize, Gray-encode.

    Blocks are consecutive and non-overlapping; a trailing partial block is
    discarded.  Degenerate blocks (the cases :func:`cdf_thresholds` rejects)
    are skipped and counted (second return value).  Thresholds are
    per-block, tracking channel drift.  All blocks are processed as one
    (blocks, block_len) matrix.
    """
    x = finite_series(x, "x")
    block_len = integer(block_len, "block_len")
    if block_len < 1:
        raise InvalidParameterError(f"block_len must be >= 1, got {block_len}")
    levels = _check_levels(levels)
    if len(x) < block_len:
        raise TooShortError(f"{len(x)} samples < block_len {block_len}")
    n_blocks = len(x) // block_len
    chunks = x[:n_blocks * block_len].reshape(n_blocks, block_len)
    th, keep = _cdf_rows(chunks, levels)
    lv = _level_rows(chunks[keep], th[keep])
    bits = gray_encode(lv, levels).reshape(len(lv), block_len * (levels.bit_length() - 1))
    lv.setflags(write=False)  # the blocks take row views without a copy
    bits.setflags(write=False)
    starts = np.flatnonzero(keep) * block_len
    blocks = [KeyBlock(start_seq=int(s), levels=l, bits=b)
              for s, l, b in zip(starts, lv, bits)]
    return blocks, n_blocks - len(blocks)


def evaluate(keys_a: list[KeyBlock], keys_b: list[KeyBlock], total_packets: int,
             thresholds=(5, 15, 20)) -> SessionReport:
    """Score paired key blocks at each bit-error threshold.

    A block pair is accepted at threshold theta when its Hamming distance
    is at most theta.  ``kgr`` is accepted key bits per exchanged packet;
    ``mean_ber`` averages over accepted keys only, while ``overall_ber``
    covers every paired block regardless of threshold.  Every block of
    both lists must hold as many bits as the first, and the distances
    come from one compare of the stacked bits.
    """
    if len(keys_a) != len(keys_b):
        raise LengthMismatchError(f"{len(keys_a)} vs {len(keys_b)} blocks")
    if total_packets <= 0:
        raise InvalidParameterError(f"total_packets must be positive, got {total_packets!r}")
    thresholds = _error_thresholds(thresholds, "thresholds")

    bits_a = [k.bits for k in keys_a]
    bits_b = [k.bits for k in keys_b]
    key_bits = len(bits_a[0]) if bits_a else 0
    for i, (a, b) in enumerate(zip(bits_a, bits_b)):
        if len(a) != key_bits or len(b) != key_bits:
            raise LengthMismatchError(
                f"block {i} (start_seq {keys_a[i].start_seq}) pairs {len(a)} and {len(b)} "
                f"bits; block 0 has {key_bits}")
    # np.array of no blocks is 1-D, so the shape is given
    shape = (len(bits_a), key_bits)
    hams = np.count_nonzero(np.array(bits_a).reshape(shape) != np.array(bits_b).reshape(shape),
                            axis=1)

    stats = []
    for theta in thresholds:
        acc = hams[hams <= theta]
        stats.append(ThresholdStats(
            error_threshold=theta,
            accepted=len(acc),
            attempted=len(hams),
            kgr=len(acc) * key_bits / total_packets,
            mean_ber=float(acc.sum() / (len(acc) * key_bits)) if len(acc) else None,
        ))
    overall = float(hams.sum() / (len(hams) * key_bits)) if len(hams) else None
    return SessionReport(
        per_threshold=tuple(stats),
        overall_ber=overall,
        total_packets=total_packets,
        key_bits=key_bits,
        blocks=len(hams),
    )


@dataclass(frozen=True)
class SessionConfig:
    """What a session caller chooses; the scheme's constants are module level.

    Both devices reconstruct over the one band agreed on the probe window.
    Invalid values raise ``InvalidParameterError`` (a ``ValueError``) naming
    the field at construction.
    """

    pipeline: str = "wt"
    sync: bool = True
    error_thresholds: tuple[int, ...] = (5, 15, 20)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise InvalidParameterError(
                f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        object.__setattr__(self, "error_thresholds",
                           _error_thresholds(self.error_thresholds, "error_thresholds"))


def _rate(series, default: float = 10.0) -> float:
    return series.rate_hz if isinstance(series, MagnitudeSeries) else default


def _key_params(n: int, rate: float, band: tuple[float, float]) -> CwtParams:
    return CwtParams(min_freq=min(4.0 / (n / rate), band[0]), max_freq=rate / 2, sample_rate=rate)


def _agree_thresholds(a: np.ndarray, b: np.ndarray, rate: float) -> tuple[ReciprocalBand, int]:
    """Step 1: probe-window coherence, threshold adaptation, lag estimate.

    Memoized on the exact probe bytes and the rate, so sessions that
    compare pipelines over one pair agree once.  The result is immutable.
    """
    return _agree_cached(a.tobytes(), b.tobytes(), rate)


@lru_cache(maxsize=_AGREEMENTS)
def _agree_cached(a: bytes, b: bytes, rate: float) -> tuple[ReciprocalBand, int]:
    a, b = np.frombuffer(a), np.frombuffer(b)
    # one full period per probe window: maximizes the octave span so the
    # half-grid selection target stays inside the physically coherent band
    params = default_params(len(a), rate, periods=1.0)
    cmap = wavelet_coherence(a, b, params)
    band = adapt_thresholds(cmap)
    ra = wt_reconstruct(a, band.band, params)
    rb = wt_reconstruct(b, band.band, params)
    return band, xcorr_lag(ra, rb, MAX_LAG).lag


def _run_pipeline(x: np.ndarray, rate: float, band: tuple, pipeline: str) -> np.ndarray:
    if pipeline == "raw":
        return x
    if pipeline == "golay":
        return golay_filter(x)
    if pipeline == "fft":
        return fft_reconstruct(x)
    if pipeline == "wpt":
        return wpt_denoise(x)
    return wt_reconstruct(x, band, _key_params(len(x), rate, band))


@dataclass(frozen=True)
class PreprocessResult:
    """Reconstructed, optionally synchronized key-window pair."""

    x: np.ndarray
    y: np.ndarray
    band: ReciprocalBand
    lag: int
    total_packets: int


def preprocess_pair(ap, sta, cfg: SessionConfig = SessionConfig()) -> PreprocessResult:
    """Steps 1-2 of the session: agreement, reconstruction, synchronization.

    Agrees (alpha, beta, lag) on the first ``PROBE_LEN`` samples (public,
    so excluded from key material), reconstructs the remaining samples of
    both devices with the configured pipeline over that agreed band, and
    aligns them by the agreed lag when ``sync`` is on.
    """
    a, b = (finite_series(s.values if isinstance(s, MagnitudeSeries) else s, name)
            for s, name in ((ap, "ap"), (sta, "sta")))
    if len(a) != len(b):
        raise LengthMismatchError("session inputs must be paired to equal length")
    rate = _rate(ap)
    n = len(a)
    L = PROBE_LEN
    if n < L + BLOCK_LEN:
        raise TooShortError(
            f"need at least PROBE_LEN + BLOCK_LEN = {L + BLOCK_LEN} samples, got {n}"
        )

    band, lag = _agree_thresholds(a[:L], b[:L], rate)
    pa = _run_pipeline(a[L:], rate, band.band, cfg.pipeline)
    pb = _run_pipeline(b[L:], rate, band.band, cfg.pipeline)
    if cfg.sync and lag != 0:
        pa, pb = apply_lag(pa, pb, lag)

    return PreprocessResult(x=pa, y=pb, band=band, lag=int(lag), total_packets=n)


def wskg_session(ap, sta, cfg: SessionConfig = SessionConfig()) -> SessionReport:
    """Run one complete key-generation session between two devices.

    Steps: (1) threshold agreement on the first ``PROBE_LEN`` samples (the
    probe is public, so it never contributes key material); (2) per-device
    reconstruction with the configured pipeline, plus alignment by the
    agreed lag when ``sync`` is on; (3) block quantization, Gray coding,
    and evaluation at each error threshold.  A key window that the lag
    trim leaves shorter than one block yields no blocks.

    ``ap`` and ``sta`` must already be paired (equal length, gap-free),
    e.g. via ``pair_traces(..., gap_policy="interpolate_linear")``.  Plain
    arrays are taken as sampled at 10 Hz; pass ``MagnitudeSeries`` for any
    other rate.  Sessions over the same probe bytes and rate reuse one
    step-1 agreement.
    """
    pre = preprocess_pair(ap, sta, cfg)
    short = len(pre.x) < BLOCK_LEN
    keys_a, skip_a = ([], 0) if short else make_keys(pre.x)
    keys_b, skip_b = ([], 0) if short else make_keys(pre.y)
    index_a = {k.start_seq: k for k in keys_a}
    index_b = {k.start_seq: k for k in keys_b}
    common = sorted(set(index_a) & set(index_b))
    report = evaluate([index_a[s] for s in common], [index_b[s] for s in common],
                      pre.total_packets, cfg.error_thresholds)
    return replace(
        report,
        skipped_blocks=skip_a + skip_b,
        pipeline=cfg.pipeline,
        sync=cfg.sync,
        lag=pre.lag,
        alpha=float(pre.band.alpha),
        beta=int(pre.band.beta),
        band=pre.band.band,
    )
