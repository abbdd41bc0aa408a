"""Secret-key generation: CDF quantization, Gray coding, and session driver.

The session driver runs the three-step scheme end to end: threshold
agreement on a probe window, per-device reconstruction plus optional
synchronization, then block quantization and key comparison at a set of
bit-error thresholds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateBlockError, InvalidParameterError, LengthMismatchError,
                     TooShortError, _record, choice, finite_series, instance, integer)
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
from .traces import MagnitudeSeries, _common_rate
from .wavelet import CwtParams, default_params, wavelet_coherence

PIPELINES = ("raw", "golay", "fft", "wpt", "wt")
PROBE_LEN = 500  # public probe window, samples: agreement only, never key material
MAX_LAG = 50  # lag search on the probe window, samples
BLOCK_LEN = 100  # samples per key block
_AGREEMENTS = 8  # probe agreements kept: sessions over one pair agree once


@_record(thresholds=np.float64)
class QuantizerSpec:
    """CDF-based quantizer: thresholds at the k/levels empirical quantiles."""

    levels: int
    thresholds: np.ndarray

    def __post_init__(self):
        th = self.thresholds
        object.__setattr__(self, "levels", _check_levels(self.levels))
        if th.shape != (self.levels - 1,):
            got = len(th) if th.ndim == 1 else f"shape {th.shape}"
            raise InvalidParameterError(
                f"need levels-1 = {self.levels - 1} thresholds, got {got}: {th.tolist()}")
        if not np.all(np.isfinite(th)):
            raise InvalidParameterError(f"thresholds must be finite, got {th.tolist()}")
        if not np.all(np.diff(th) > 0):
            raise InvalidParameterError(
                f"thresholds must be strictly increasing, got {th.tolist()}")


@_record(levels=None, bits=None)
class KeyBlock:
    """One key-generation window: quantization levels and Gray-coded bits."""

    start_seq: int
    levels: np.ndarray
    bits: np.ndarray


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
            "per_threshold": [asdict(st) for st in self.per_threshold],
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
        th = tuple(integer(t, name) for t in values)
    except (TypeError, InvalidParameterError):  # not iterable, or not integers
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
    srt = np.sort(chunks, axis=1)
    n = chunks.shape[1]
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
    """Each sample's level: how many of its row's thresholds lie strictly below it, counted
    in the narrowest unsigned type that holds the threshold count, then cast to int64."""
    lv = np.zeros(chunks.shape, dtype=np.min_scalar_type(th.shape[1]))
    for k in range(th.shape[1]):
        lv += chunks > th[:, k:k + 1]
    return lv.astype(np.int64)


def cdf_thresholds(block, levels: int = 4) -> QuantizerSpec:
    """Quantizer thresholds at the k/levels empirical quantiles of a block.

    Linear interpolation between order statistics.  A block with fewer
    distinct values than levels (or ties collapsing adjacent quantiles)
    is degenerate and should be skipped by the caller.
    """
    block = finite_series(block, "block", empty=True)  # an empty block is degenerate too
    levels = _check_levels(levels)
    if len(block) < levels:
        raise DegenerateBlockError(f"block of shape {block.shape} < {levels} levels")
    th, keep = _cdf_rows(block[None], levels)
    if not keep[0]:
        raise DegenerateBlockError(f"fewer than {levels} distinct values, or ties collapse "
                                   f"adjacent quantiles or one overflows: {th[0].tolist()}")
    return QuantizerSpec(levels=levels, thresholds=th[0])


def quantize(block, spec: QuantizerSpec) -> np.ndarray:
    """Map every sample to a level; boundary values go to the lower level."""
    block = finite_series(block, "block")
    return _level_rows(block[None], instance(spec, "spec", (QuantizerSpec,)).thresholds[None])[0]


def _gray_rows(lv: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit binary-reflected Gray code of each level, MSB first, one row each."""
    gray = lv ^ (lv >> 1)
    return ((gray[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def gray_encode(levels_seq, levels_count: int) -> np.ndarray:
    """Binary-reflected Gray code of each level, MSB first, concatenated.

    The codes are read from a (levels_count, width) table indexed by level,
    built on each call.  When there are fewer levels to encode than table
    rows, they are coded directly and no table is built, so memory follows
    the input and not the level count.
    """
    levels_count = _check_levels(levels_count, "levels_count")
    lv = np.asarray(levels_seq)
    if lv.dtype.kind not in "biufc":  # strings, dates and objects are not levels
        raise InvalidParameterError(
            f"levels must be integers, got shape {lv.shape} of dtype {lv.dtype}")
    if lv.dtype.kind not in "iu":  # a cast to int64 would truncate 1.7 to level 1
        # a cast to float64 would drop an imaginary part, so no complex level passes
        fl = np.asarray(lv.real, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(fl) | (fl != np.round(fl)) | (lv.dtype.kind == "c"))
        if bad.size:
            raise InvalidParameterError(
                f"levels must be integers, got {lv.ravel().tolist()[bad[0]]!r} at index {bad[0]}")
        lv = fl
    lv = lv.astype(np.int64, copy=False).ravel()
    if lv.size and (lv.min() < 0 or lv.max() >= levels_count):
        raise InvalidParameterError(
            f"levels outside [0, {levels_count}): {lv.min()}..{lv.max()}"
        )
    width = levels_count.bit_length() - 1
    if lv.size < levels_count:
        return _gray_rows(lv, width).ravel()
    return np.take(_gray_rows(np.arange(levels_count), width), lv, axis=0).ravel()


def _key_rows(x, block_len: int, levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``make_keys``' checks, then every whole block of the window at once: which blocks
    are kept (the mask), and the kept blocks' levels and Gray-coded bits, one row each.
    No block of fewer samples than ``levels`` holds ``levels`` distinct values, so then
    none is kept and no quantile index is built."""
    x = finite_series(x, "x")
    block_len = integer(block_len, "block_len", 1)
    levels = _check_levels(levels)
    if len(x) < block_len:
        raise TooShortError(f"{len(x)} samples < block_len {block_len}")
    n_blocks = len(x) // block_len
    if levels > block_len:
        return (np.zeros(n_blocks, bool), np.empty((0, block_len), np.int64),
                np.empty((0, block_len * (levels.bit_length() - 1)), np.uint8))
    chunks = x[:n_blocks * block_len].reshape(n_blocks, block_len)
    th, keep = _cdf_rows(chunks, levels)
    lv = _level_rows(chunks[keep], th[keep])
    bits = gray_encode(lv, levels).reshape(len(lv), block_len * (levels.bit_length() - 1))
    return keep, lv, bits


def make_keys(x, block_len: int = BLOCK_LEN, levels: int = 4) -> tuple[list[KeyBlock], int]:
    """Cut a series into key blocks: quantize, Gray-encode.

    Blocks are consecutive and non-overlapping; a trailing partial block is
    discarded.  Degenerate blocks (the cases :func:`cdf_thresholds` rejects)
    are skipped and counted (second return value).  Thresholds are
    per-block, tracking channel drift.  All blocks are processed as one
    (blocks, block_len) matrix, built into :class:`KeyBlock` objects through
    their constructor, which keeps the matrices' read-only rows as views,
    not copies.
    """
    keep, lv, bits = _key_rows(x, block_len, levels)
    lv.setflags(write=False)  # the blocks take row views without a copy
    bits.setflags(write=False)
    blocks = [KeyBlock(s, l, b)
              for s, l, b in zip((np.flatnonzero(keep) * lv.shape[1]).tolist(), lv, bits)]
    return blocks, len(keep) - len(blocks)


def _score(hams: np.ndarray, key_bits: int, total_packets: int, thresholds: tuple[int, ...],
           **session) -> SessionReport:
    """The report on paired blocks with Hamming distances ``hams`` of ``key_bits``
    bits each; ``session`` holds the report's session fields."""
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
        **session,
    )


def evaluate(keys_a: list[KeyBlock], keys_b: list[KeyBlock], total_packets: int,
             thresholds=(5, 15, 20)) -> SessionReport:
    """Score paired key blocks at each bit-error threshold.

    A block pair is accepted at threshold theta when its Hamming distance
    is at most theta.  ``kgr`` is accepted key bits per exchanged packet;
    ``mean_ber`` averages over accepted keys only, while ``overall_ber``
    covers every paired block regardless of threshold.  Every block of
    both lists must hold as many bits as the first, and the distances
    come from one compare of the stacked bits.  :func:`wskg_session`
    scores its blocks by the same rule without building block lists.
    """
    instance(keys_a, "keys_a", (list, tuple))
    if len(keys_a) != len(instance(keys_b, "keys_b", (list, tuple))):
        raise LengthMismatchError(f"{len(keys_a)} vs {len(keys_b)} blocks")
    total_packets = integer(total_packets, "total_packets", 1)
    thresholds = _error_thresholds(thresholds, "thresholds")

    bits_a = [instance(k, "keys_a block", (KeyBlock,)).bits for k in keys_a]
    bits_b = [instance(k, "keys_b block", (KeyBlock,)).bits for k in keys_b]
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
    return _score(hams, key_bits, total_packets, thresholds)


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
        choice(self.pipeline, "pipeline", PIPELINES)
        if not isinstance(self.sync, (bool, np.bool_)):
            raise InvalidParameterError(f"sync must be a bool, got {self.sync!r}")
        object.__setattr__(self, "error_thresholds",
                           _error_thresholds(self.error_thresholds, "error_thresholds"))


def _key_params(n: int, rate: float, band: tuple[float, float]) -> CwtParams:
    return CwtParams(min_freq=min(4.0 / (n / rate), band[0]), max_freq=rate / 2, sample_rate=rate)


@lru_cache(maxsize=_AGREEMENTS)
def _agree_cached(a: bytes, b: bytes, rate: float) -> tuple[ReciprocalBand, int]:
    """Step 1: probe-window coherence, threshold adaptation, lag estimate.

    Memoized on the exact probe bytes (``a`` and ``b``, float64) and the
    rate, so sessions that compare pipelines over one pair agree once.  The
    result is immutable.
    """
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


@_record(x=np.float64, y=np.float64)
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
    instance(cfg, "cfg", (SessionConfig,))
    a, b = (finite_series(s.values if isinstance(s, MagnitudeSeries) else s, name)
            for s, name in ((ap, "ap"), (sta, "sta")))
    if len(a) != len(b):
        raise LengthMismatchError("session inputs must be paired to equal length")
    rate = _common_rate(*(s.rate_hz if isinstance(s, MagnitudeSeries) else 10.0
                          for s in (ap, sta)))
    n = len(a)
    L = PROBE_LEN
    if n < L + BLOCK_LEN:
        raise TooShortError(
            f"need at least PROBE_LEN + BLOCK_LEN = {L + BLOCK_LEN} samples, got {n}"
        )

    band, lag = _agree_cached(a[:L].tobytes(), b[:L].tobytes(), rate)
    pa = _run_pipeline(a[L:], rate, band.band, cfg.pipeline)
    pb = _run_pipeline(b[L:], rate, band.band, cfg.pipeline)
    if cfg.sync and lag != 0:
        pa, pb = apply_lag(pa, pb, lag)

    return PreprocessResult(x=pa, y=pb, band=band, lag=lag, total_packets=n)


def wskg_session(ap, sta, cfg: SessionConfig = SessionConfig()) -> SessionReport:
    """Run one complete key-generation session between two devices.

    Steps: (1) threshold agreement on the first ``PROBE_LEN`` samples (the
    probe is public, so it never contributes key material); (2) per-device
    reconstruction with the configured pipeline, plus alignment by the
    agreed lag when ``sync`` is on; (3) block quantization, Gray coding,
    and evaluation at each error threshold.  A key window that the lag
    trim leaves shorter than one block yields no blocks.

    Step 3 gives what :func:`make_keys` on each window, then :func:`evaluate` on
    the blocks kept on both sides, would give, with the same checks and errors,
    from the windows' bit matrices: no :class:`KeyBlock` is built.

    ``ap`` and ``sta`` must already be paired (equal length, gap-free),
    e.g. via ``pair_traces(..., gap_policy="interpolate_linear")``.  Plain
    arrays are taken as sampled at 10 Hz; pass ``MagnitudeSeries`` for any
    other rate.  Rates further apart than ``traces.RATE_TOLERANCE`` raise
    :class:`RateMismatchError`.  Sessions over the same probe bytes and rate
    reuse one step-1 agreement.
    """
    pre = preprocess_pair(ap, sta, cfg)
    hams, key_bits, skipped = np.zeros(0, dtype=np.intp), 0, 0
    if len(pre.x) >= BLOCK_LEN:  # else the lag trim left no whole block
        keep_a, _, bits_a = _key_rows(pre.x, BLOCK_LEN, 4)  # make_keys' defaults
        keep_b, _, bits_b = _key_rows(pre.y, BLOCK_LEN, 4)
        # both windows have one length, so block k of each starts at k * BLOCK_LEN
        both = keep_a & keep_b
        hams = np.count_nonzero(bits_a[both[keep_a]] != bits_b[both[keep_b]], axis=1)
        key_bits = bits_a.shape[1] if len(hams) else 0
        skipped = 2 * len(both) - len(bits_a) - len(bits_b)
    return _score(hams, key_bits, pre.total_packets, cfg.error_thresholds,
                  skipped_blocks=skipped, pipeline=cfg.pipeline, sync=cfg.sync, lag=pre.lag,
                  alpha=pre.band.alpha, beta=pre.band.beta, band=pre.band.band)
