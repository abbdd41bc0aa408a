"""Secret-key generation: CDF quantization, Gray coding, and session driver.

The session driver runs the three-step scheme end to end: threshold
agreement on a probe window, per-device reconstruction plus optional
synchronization, then block quantization and key comparison at a set of
bit-error thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateBlockError, LengthMismatchError, LevelOutOfRangeError,
                     TooShortError, finite_series)
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


@dataclass(frozen=True)
class QuantizerSpec:
    """CDF-based quantizer: thresholds at the k/levels empirical quantiles."""

    levels: int
    thresholds: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thresholds, dtype=np.float64)
        th.setflags(write=False)
        object.__setattr__(self, "thresholds", th)
        if self.levels < 2 or self.levels & (self.levels - 1):
            raise ValueError("levels must be a power of two >= 2")
        if len(th) != self.levels - 1:
            raise ValueError("need levels-1 thresholds")
        if np.any(np.diff(th) <= 0):
            raise ValueError("thresholds must be strictly increasing")


@dataclass(frozen=True)
class KeyBlock:
    """One key-generation window: quantization levels and Gray-coded bits."""

    start_seq: int
    levels: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        for name in ("levels", "bits"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def cdf_thresholds(block, levels: int = 4) -> QuantizerSpec:
    """Quantizer thresholds at the k/levels empirical quantiles of a block.

    Linear interpolation between order statistics.  A block with fewer
    distinct values than levels (or ties collapsing adjacent quantiles)
    is degenerate and should be skipped by the caller.
    """
    block = finite_series(block, "block")
    if levels < 2 or levels & (levels - 1):
        raise ValueError("levels must be a power of two >= 2")
    if len(block) < levels:
        raise DegenerateBlockError(f"block of {len(block)} < {levels} levels")
    if len(np.unique(block)) < levels:
        raise DegenerateBlockError("fewer distinct values than levels")
    qs = np.arange(1, levels) / levels
    th = np.quantile(block, qs, method="linear")
    if np.any(np.diff(th) <= 0):
        raise DegenerateBlockError("ties collapse adjacent quantiles")
    return QuantizerSpec(levels=levels, thresholds=th)


def quantize(block, spec: QuantizerSpec) -> np.ndarray:
    """Map every sample to a level; boundary values go to the lower level."""
    block = finite_series(block, "block")
    return np.searchsorted(spec.thresholds, block, side="left").astype(np.int64)


def gray_encode(levels_seq, levels_count: int) -> np.ndarray:
    """Binary-reflected Gray code of each level, MSB first, concatenated."""
    lv = np.asarray(levels_seq, dtype=np.int64).ravel()
    if lv.size and (lv.min() < 0 or lv.max() >= levels_count):
        raise LevelOutOfRangeError(
            f"levels outside [0, {levels_count}): {lv.min()}..{lv.max()}"
        )
    width = int(levels_count).bit_length() - 1
    gray = lv ^ (lv >> 1)
    shifts = np.arange(width - 1, -1, -1)
    return ((gray[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def make_keys(x, block_len: int = BLOCK_LEN, levels: int = 4) -> tuple[list[KeyBlock], int]:
    """Cut a series into key blocks: quantize, Gray-encode.

    Blocks are consecutive and non-overlapping; a trailing partial block is
    discarded.  Degenerate blocks (the cases :func:`cdf_thresholds` rejects)
    are skipped and counted (second return value).  Thresholds are
    per-block, tracking channel drift.  All blocks are processed as one
    (blocks, block_len) matrix.
    """
    x = finite_series(x, "x")
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    if levels < 2 or levels & (levels - 1):
        raise ValueError("levels must be a power of two >= 2")
    if len(x) < block_len:
        raise TooShortError(f"{len(x)} samples < block_len {block_len}")
    n_blocks = len(x) // block_len
    chunks = x[:n_blocks * block_len].reshape(n_blocks, block_len)
    th = np.quantile(chunks, np.arange(1, levels) / levels, axis=1, method="linear").T
    srt = np.sort(chunks, axis=1)
    distinct = 1 + np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1)
    keep = (distinct >= levels) & ~np.any(np.diff(th, axis=1) <= 0, axis=1)
    # number of thresholds strictly below each sample: searchsorted(side="left")
    lv = (chunks[keep, :, None] > th[keep, None, :]).sum(-1, dtype=np.int64)
    bits = gray_encode(lv, levels).reshape(len(lv), block_len * (int(levels).bit_length() - 1))
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
    covers every paired block regardless of threshold.
    """
    if len(keys_a) != len(keys_b):
        raise LengthMismatchError(f"{len(keys_a)} vs {len(keys_b)} blocks")
    if total_packets <= 0:
        raise ValueError("total_packets must be positive")
    thresholds = tuple(int(t) for t in thresholds)
    if not thresholds or list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be nonempty ascending")

    key_bits = len(keys_a[0].bits) if keys_a else 0
    hams = []
    for a, b in zip(keys_a, keys_b):
        if len(a.bits) != len(b.bits):
            raise LengthMismatchError("paired blocks have different bit lengths")
        hams.append(int(np.count_nonzero(a.bits != b.bits)))
    hams = np.asarray(hams, dtype=np.int64)

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
    Invalid values raise ``ValueError`` naming the field at construction.
    """

    pipeline: str = "wt"
    sync: bool = True
    error_thresholds: tuple[int, ...] = (5, 15, 20)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        th = list(self.error_thresholds)
        if not th or th != sorted(th):
            raise ValueError(f"error_thresholds must be nonempty ascending, got {th}")


def _rate(series, default: float = 10.0) -> float:
    return series.rate_hz if isinstance(series, MagnitudeSeries) else default


def _key_params(n: int, rate: float, band: tuple[float, float]) -> CwtParams:
    return CwtParams(min_freq=min(4.0 / (n / rate), band[0]), max_freq=rate / 2, sample_rate=rate)


def _agree_thresholds(a: np.ndarray, b: np.ndarray, rate: float) -> tuple[ReciprocalBand, int]:
    """Step 1: probe-window coherence, threshold adaptation, lag estimate."""
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
    e.g. via ``pair_traces(..., gap_policy="interpolate_linear")``.
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
