"""The error family and the array-record rule, across every module."""

import ast
import inspect
import math
import numbers
import re
from collections.abc import Callable, Iterable
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import csirecip
from csirecip import errors, keygen, reconstruct, wavelet
from csirecip.authsim import (AuthMessage, AuthPolicy, replay_attack, run_handshake, sign_csi,
                              temporal_decorrelation_curve)
from csirecip.chansim import (ChannelConfig, LossEvent, base_signal, gen_attacker, gen_pair,
                              ou_process, preset)
from csirecip.errors import (CsiRecipError, EmptyBandError, EmptyTraceError, InvalidParameterError,
                             LengthMismatchError, MalformedHeaderError)
from csirecip.keygen import (KeyBlock, PreprocessResult, QuantizerSpec, SessionConfig,
                             cdf_thresholds, evaluate, gray_encode, make_keys, preprocess_pair,
                             quantize, wskg_session)
from csirecip.metrics import (DivergenceConfig, LagEstimate, ber, jeffrey_divergence, pearson,
                              wasserstein_1d, xcorr_lag)
from csirecip.reconstruct import (ReciprocalBand, adapt_thresholds, apply_lag, fft_reconstruct,
                                  golay_filter, select_reciprocal_freqs, wpt_denoise,
                                  wt_reconstruct)
from csirecip.traces import (CsiTrace, MagnitudeSeries, magnitude_series, pair_traces,
                             parse_csi_csv, write_csi_csv)
from csirecip.wavelet import (CoherenceMap, CwtParams, Scalogram, band_average, coherence_summary,
                              coherent_gap_width, cwt, default_params, icwt, wavelet_coherence)

SRC = Path(csirecip.__file__).parent


def _raised_names() -> set[str]:
    """Every name inside a ``raise`` expression under the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    return names


def test_every_error_class_is_raised():
    family = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
              if obj.__module__ == errors.__name__]
    assert all(issubclass(cls, CsiRecipError) for cls in family)
    unraised = {cls.__name__ for cls in family if cls is not CsiRecipError} - _raised_names()
    assert not unraised
    assert len(family) == 17


def test_no_plain_value_error_raised():
    hits = [f"{path.name}:{i}" for path in SRC.glob("*.py")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"raise ValueError\(", line)]
    assert hits == []


def test_operator_index_only_in_errors():
    # the integer rule, errors.integer, is the one place that reads an int argument
    assert [path.name for path in SRC.glob("*.py")
            if "operator.index" in path.read_text() and path.name != "errors.py"] == []


def _trace(**kw):
    args = dict(device_id="ap", subcarriers=1, rate_hz=10.0, seqs=[1, 2], t=[0.1, 0.2],
                iq=np.ones((2, 1)))
    return CsiTrace(**{**args, **kw})


PARAMS = CwtParams(0.1, 5.0, 10.0)
NB = len(PARAMS.freq_grid())


def _cmap(**kw):
    grid = np.zeros((NB, 4))
    args = dict(wc=grid.copy(), phase=grid.copy(), freqs=PARAMS.freq_grid(),
                times=np.arange(4.0), coi=np.ones((NB, 4), bool), params=PARAMS)
    return CoherenceMap(**{**args, **kw})


def _scalogram(**kw):
    args = dict(coeffs=np.zeros((NB, 4), complex), freqs=PARAMS.freq_grid(), params=PARAMS,
                coi=np.zeros(4, int))
    return Scalogram(**{**args, **kw})


def _pairs_of(series):
    """A decorrelation-curve generator returning ``series`` for both devices."""
    return lambda gap_s, rng: (series, series)


@pytest.mark.parametrize("call, message", [
    (lambda: _trace(device_id="a,b"), r"device_id 'a,b' must not hold ',', '\n' or '\r'"),
    (lambda: _trace(t=[0.1]),
     "need seqs and t of one length and iq of (len(seqs), 1); got seqs (2,), t (1,), iq (2, 1)"),
    (lambda: _trace(seqs=[1, 3, 2, 4], t=np.zeros(4), iq=np.ones((4, 1))),
     "seqs must be strictly increasing, got 2 after 3 at row 2"),
    (lambda: _trace(t=[0.1, np.inf]), "non-finite capture time at seq 2: inf"),
    (lambda: _trace(iq=[[1], [np.nan]]), "non-finite i/q value at seq 2: (nan+0j)"),
    (lambda: MagnitudeSeries(0, [1.0, 2.0], [1], 10.0),
     "values and seqs must have equal length, got shapes (2,) and (1,)"),
    (lambda: MagnitudeSeries(0, [1.0, -0.5], [1, 2], 10.0),
     "magnitudes must be non-negative, got -0.5 at index 1"),
    (lambda: pair_traces(_trace(), _trace(), 0, gap_policy="nearest"),
     "gap_policy must be one of ('drop_both', 'interpolate_linear'), got 'nearest'"),
    (lambda: pair_traces(_trace(), _trace(subcarriers=2, iq=np.ones((2, 2))), 0),
     "traces declare different subcarrier counts: AP 1, STA 2"),
    (lambda: AuthPolicy(min_corr=1.5), "min_corr must be in (0, 1], got 1.5"),
    (lambda: AuthPolicy(max_shift=200), "max_shift must be in [0, 200), got 200"),
    # each was accepted, or ended in a bare IndexError
    (lambda: AuthPolicy(max_shift=2.5), "max_shift must be an integer, got 2.5"),
    (lambda: AuthPolicy(max_shift=True), "max_shift must be an integer, got True"),
    (lambda: magnitude_series(_trace(), 1.5), "subcarrier must be an integer, got 1.5"),
    (lambda: pair_traces(_trace(), _trace(), 0.0), "subcarrier must be an integer, got 0.0"),
    (lambda: errors.integer(np.True_, "n"), "n must be an integer, got np.True_"),
    # a 2-D or complex window was raveled and signed, with only a ComplexWarning
    (lambda: sign_csi(np.ones((3, 2)), b"k"),
     "csi must be a 1-D real series, got shape (3, 2) of dtype float64"),
    (lambda: sign_csi(np.ones(3, complex), b"k"),
     "csi must be a 1-D real series, got shape (3,) of dtype complex128"),
    (lambda: sign_csi(2.0, b"k"), "csi must be a 1-D real series, got shape () of dtype float64"),
    (lambda: run_handshake(np.ones((4, 1)), np.ones(4), AuthPolicy(), b"k"),
     "ap_csi must be a 1-D real series, got shape (4, 1) of dtype float64"),
    (lambda: temporal_decorrelation_curve(None, [0, 20, 10]),
     "gaps must be ascending and start at 0, got [0, 20, 10]"),
    (lambda: DivergenceConfig(bins=1), "bins must be >= 2, got 1"),
    (lambda: DivergenceConfig(epsilon=0.0), "epsilon must be finite and positive, got 0.0"),
    (lambda: gen_attacker(ChannelConfig(duration_s=1.0), "teleport"),
     "mode must be one of ('independent', 'delayed_replay'), got 'teleport'"),
    # accepted, and read as sync on
    (lambda: SessionConfig(sync="no"), "sync must be a bool, got 'no'"),
    # each ended in a bare TypeError, IndexError, ValueError or ZeroDivisionError, or was
    # accepted (total_packets nan gave a NaN kgr)
    (lambda: apply_lag(np.ones(4), np.ones(4), 2.5), "lag must be an integer, got 2.5"),
    (lambda: ou_process(2.5, 0.1, 1.0, np.random.default_rng(0)),
     "n must be an integer, got 2.5"),
    (lambda: default_params(0, 10.0), "n_samples must be >= 1, got 0"),
    (lambda: DivergenceConfig(bins=2.5), "bins must be an integer, got 2.5"),
    (lambda: select_reciprocal_freqs(_cmap(), 0.5, 2.5), "beta must be an integer, got 2.5"),
    (lambda: ReciprocalBand([0.5], 0.5, 3.5), "beta must be an integer, got 3.5"),
    (lambda: evaluate([], [], 2.5), "total_packets must be an integer, got 2.5"),
    (lambda: evaluate([], [], np.nan), "total_packets must be an integer, got nan"),
    (lambda: MagnitudeSeries(0, [1.0], [1], np.nan),
     "rate_hz must be finite and positive, got nan"),
    (lambda: temporal_decorrelation_curve(None, [0, np.nan]),
     "gaps must be finite and >= 0, got nan"),
    # a generator's matrices were raveled to one series, a complex series cast to float
    (lambda: temporal_decorrelation_curve(_pairs_of(np.ones((200, 2))), [0, 10]),
     "gap 0: each series must be a 1-D real series, got shape (200, 2) of dtype float64"),
    (lambda: temporal_decorrelation_curve(_pairs_of(np.ones(200, complex)), [0, 10]),
     "gap 0: each series must be a 1-D real series, got shape (200,) of dtype complex128"),
    # coded from its real part, with only a ComplexWarning
    (lambda: gray_encode([1 + 0j], 4), "levels must be integers, got (1+0j) at index 0"),
    # a bare ValueError from float(), and True read as 1 Hz
    (lambda: parse_csi_csv("seq,t,dev,i0,q0\n1,0.1,a,1,2\n", rate_hz="abc"),
     "rate_hz must be finite and positive, got 'abc'"),
    (lambda: parse_csi_csv("seq,t,dev,i0,q0\n1,0.1,a,1,2\n", rate_hz=True),
     "rate_hz must be finite and positive, got True"),
    # a matrix was raveled into one series, a complex series cast with only a ComplexWarning
    (lambda: golay_filter(np.ones((20, 2))),
     "x must be a 1-D real series, got shape (20, 2) of dtype float64"),
    (lambda: wavelet_coherence(np.ones((500, 2)), np.ones((500, 2)), PARAMS),
     "x must be a 1-D real series, got shape (500, 2) of dtype float64"),
    (lambda: wavelet_coherence(np.ones(64), np.ones(64, complex), default_params(64, 10.0)),
     "y must be a 1-D real series, got shape (64,) of dtype complex128"),
    (lambda: fft_reconstruct(np.ones(16, complex)),
     "x must be a 1-D real series, got shape (16,) of dtype complex128"),
    (lambda: wpt_denoise(np.ones((32, 1))),
     "x must be a 1-D real series, got shape (32, 1) of dtype float64"),
    (lambda: apply_lag(np.ones(4), np.ones((4, 1)), 1),
     "y must be a 1-D real series, got shape (4, 1) of dtype float64"),
    (lambda: make_keys(np.ones(300, bool)),
     "x must be a 1-D real series, got shape (300,) of dtype bool"),
    (lambda: pearson(np.ones(8), 3.0),
     "y must be a 1-D real series, got shape () of dtype float64"),
    # each ended in a bare TypeError or AttributeError, or was accepted
    (lambda: ChannelConfig(loss=5), "loss must be a sequence of LossEvent, got 5"),
    (lambda: ChannelConfig(loss=("x",)), "loss must be a sequence of LossEvent, got ('x',)"),
    (lambda: preset(1), "unknown preset 1; choose from "
     "['los-short', 'nlos-long', 'nlos-short', 'reciprocal']"),
    (lambda: preset("los-short", bogus=1), "unknown ChannelConfig field 'bogus'"),
    (lambda: ChannelConfig(snr_db="15"), "snr_db must be a number above -inf, got '15'"),
    (lambda: ChannelConfig(snr_db=True), "snr_db must be a number above -inf, got True"),
    (lambda: ChannelConfig(base_band=("0.05", 2.0)),
     "base_band[0] must be finite and positive, got '0.05'"),
    (lambda: ChannelConfig(base_band=0.5), "base_band must be a pair (f_lo, f_hi), got 0.5"),
    (lambda: ChannelConfig(base_band=(0.05, 1.0, 2.0)),
     "base_band must be a pair (f_lo, f_hi), got (0.05, 1.0, 2.0)"),
    (lambda: base_signal(ChannelConfig(duration_s=1.0), "10"), "n must be an integer, got '10'"),
    (lambda: base_signal(ChannelConfig(duration_s=1.0), 10, "0"),
     "start_s must be finite and round to a sample >= 0, got '0'"),
    (lambda: base_signal(ChannelConfig(duration_s=1.0), 10, -0.06),
     "start_s must be finite and round to a sample >= 0, got -0.06"),
    (lambda: gen_attacker(ChannelConfig(duration_s=1.0), "delayed_replay", "5"),
     "gap_s must be finite and >= 0, got '5'"),
    (lambda: default_params(64, 10.0, "4"), "periods must be finite and positive, got '4'"),
    (lambda: CwtParams("0.1", 5.0, 10.0), "min_freq must be finite and positive, got '0.1'"),
    (lambda: CwtParams(0.1, "5", 10.0), "max_freq must be finite and positive, got '5'"),
    (lambda: CwtParams(0.1, 5.0, "10"), "sample_rate must be finite and positive, got '10'"),
    # each ended in a bare AttributeError or TypeError
    (lambda: parse_csi_csv(5), "stream must be of type bytes or str, got 5"),
    (lambda: magnitude_series("x", 1), "trace must be of type CsiTrace, got 'x'"),
    (lambda: write_csi_csv("x"), "trace must be of type CsiTrace, got 'x'"),
    (lambda: pair_traces(_trace(), "x", 0), "sta must be of type CsiTrace, got 'x'"),
    (lambda: _trace(device_id=5), "device_id must be of type str, got 5"),
    # accepted, and write_csi_csv then ended in a bare TypeError from range(1.0)
    (lambda: _trace(subcarriers=1.0), "subcarriers must be an integer, got 1.0"),
    # each ended in a bare TypeError or AttributeError
    (lambda: sign_csi(np.ones(3), "k"), "key must be of type bytes or bytearray, got 'k'"),
    (lambda: run_handshake(np.ones(4), np.ones(4), None, b"k"),
     "policy must be of type AuthPolicy, got None"),
    (lambda: replay_attack(None, None, np.ones(4), AuthPolicy(), b"k"),
     "message must be of type AuthMessage, got None"),
    (lambda: wskg_session(np.ones(4), np.ones(4), None),
     "cfg must be of type SessionConfig, got None"),
    (lambda: preprocess_pair(np.ones(4), np.ones(4), None),
     "cfg must be of type SessionConfig, got None"),
    (lambda: evaluate([1], [2], 10), "keys_a block must be of type KeyBlock, got 1"),
    (lambda: select_reciprocal_freqs("x", 0.5, 1), "cmap must be of type CoherenceMap, got 'x'"),
    (lambda: adapt_thresholds("x"), "cmap must be of type CoherenceMap, got 'x'"),
    # each ended in a bare TypeError, ValueError or AttributeError
    (lambda: _trace(seqs=None), "seqs must be an array of int64, got None"),
    (lambda: MagnitudeSeries(0, "x", [1], 10.0), "values must be an array of float64, got 'x'"),
    (lambda: _trace(seqs=[2 ** 70, 1]),
     "seqs must be an array of int64, got [1180591620717411303424, 1]"),
    (lambda: QuantizerSpec(4, None), "need levels-1 = 3 thresholds, got shape (): nan"),
    (lambda: QuantizerSpec(2, [[0.0]]), "need levels-1 = 1 thresholds, got shape (1, 1): [[0.0]]"),
    (lambda: gray_encode("x", 4), "levels must be integers, got shape () of dtype <U1"),
    (lambda: write_csi_csv(_trace(), stream=5), "stream must have write and writelines, got 5"),
    # each ended in a bare TypeError or ValueError
    (lambda: coherent_gap_width(_cmap(), (0.1, 1.0), None), "wc_floor must be in [0, 1], got None"),
    (lambda: temporal_decorrelation_curve(lambda gap_s, rng: None, [0, 10]),
     "gap 0: the generator must return two series, got None"),
    (lambda: temporal_decorrelation_curve(lambda gap_s, rng: ([1.0], [1.0], [1.0]), [0, 10]),
     "gap 0: the generator must return two series, got ([1.0], [1.0], [1.0])"),
    # each was accepted, or named only as a negative magnitude
    (lambda: MagnitudeSeries(0, [None, 1.0], [4, 5], 10.0), "non-finite magnitude at seq 4: nan"),
    (lambda: MagnitudeSeries(0, [1.0, np.inf], [4, 5], 10.0), "non-finite magnitude at seq 5: inf"),
    (lambda: MagnitudeSeries(0, [1.0, -np.inf], [4, 5], 10.0),
     "non-finite magnitude at seq 5: -inf"),
    (lambda: ReciprocalBand(3, 0.5, 3), "f_rec must be nonempty and 1-D, got 3.0"),
    (lambda: ReciprocalBand([[0.5, 1.0]], 0.5, 3),
     "f_rec must be nonempty and 1-D, got [[0.5, 1.0]]"),
    # the band is f_rec's closure, so its edges follow the band rule
    (lambda: ReciprocalBand([0.5, np.nan], 0.5, 3), "f_rec must be finite and >= 0, got nan"),
    (lambda: ReciprocalBand([-0.5, 1.0], 0.5, 3), "f_rec must be finite and >= 0, got -0.5"),
    # a band is one run of rows only on a descending grid: an ascending one averaged other rows
    (lambda: band_average(_cmap(freqs=PARAMS.freq_grid()[::-1]), (0.1, 0.2)),
     f"freqs must be strictly descending, got {PARAMS.freq_grid()[-2]} after "
     f"{PARAMS.freq_grid()[-1]} at row 1"),
    (lambda: icwt(_scalogram(freqs=np.r_[PARAMS.freq_grid()[:-1], np.nan]), (0.1, 0.2)),
     f"freqs must be strictly descending, got nan after {PARAMS.freq_grid()[-2]} at row {NB - 1}"),
    # each was cast to uint8 and compared (256 wrapped to 0, 1.7 and -255 to 1), ended in a
    # bare ValueError or TypeError, or was raveled
    (lambda: ber([256], [0]), "bits_a must hold only bits 0 and 1, got 256 at index 0"),
    (lambda: ber([1.7], [1]), "bits_a must hold only bits 0 and 1, got 1.7 at index 0"),
    (lambda: ber([-255], [1]), "bits_a must hold only bits 0 and 1, got -255 at index 0"),
    (lambda: ber([0, 1], [1, 2]), "bits_b must hold only bits 0 and 1, got 2 at index 1"),
    (lambda: ber([None], [1]), "bits_a must hold only bits 0 and 1, got None at index 0"),
    (lambda: ber("ab", "cd"), "bits_a must be a 1-D series of bits, got shape () of dtype <U2"),
    (lambda: ber([[1, 0]], [[1, 0]]),
     "bits_a must be a 1-D series of bits, got shape (1, 2) of dtype int64"),
    (lambda: ber([[1], [1, 0]], [1, 0]), "bits_a must hold only bits 0 and 1, got [1] at index 0"),
    (lambda: errors.real(10 ** 400, "x"), f"x must be finite and positive, got {10 ** 400!r}"),
    (lambda: wasserstein_1d([], [1.0]),
     "x must be a nonempty 1-D real series, got shape (0,) of dtype float64"),
    # past the length the halves came back unequal: 5 and 0 samples, or 0 and 5
    (lambda: apply_lag(np.arange(10.0), np.arange(10.0), 15), "lag must be in [-10, 11), got 15"),
    (lambda: apply_lag(np.arange(10.0), np.arange(10.0), -15),
     "lag must be in [-10, 11), got -15"),
    # each was accepted, though CsiTrace refuses both
    (lambda: MagnitudeSeries(0, [1.0, 2.0, 3.0], [5, 5, 2], 10.0),
     "seqs must be strictly increasing, got 5 after 5 at row 1"),
    (lambda: MagnitudeSeries(0, [[1.0, 2.0]], [[1, 2]], 10.0), "seqs must be 1-D, got shape (1, 2)"),
    # 1e-300 Hz built 11987 rows; 5e-324 Hz ended in a bare OverflowError from freq_grid()
    (lambda: CwtParams(1e-300, 5.0, 10.0),
     "min_freq must be >= max_freq / 2**32 = 1.1641532182693481e-09, got 1e-300"),
    (lambda: CwtParams(5e-324, 5.0, 10.0),
     "min_freq must be >= max_freq / 2**32 = 1.1641532182693481e-09, got 5e-324"),
    (lambda: default_params(4096, 10.0, periods=1e-300),
     "min_freq must be >= max_freq / 2**32 = 1.1641532182693481e-09, got 2.44140625e-303"),
])
def test_bad_parameter_names_value(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call, error, message", [
    (lambda: evaluate([], [], 10).stats_at(7), KeyError, "no stats at threshold 7"),
    (lambda: wskg_session(np.ones(700), np.ones(600), SessionConfig()), LengthMismatchError,
     "session inputs must be paired to equal length"),
    (lambda: pearson([1.0], [2.0]), LengthMismatchError, "need at least 2 samples"),
    (lambda: jeffrey_divergence(np.arange(10.0), np.arange(10.0)), LengthMismatchError,
     "need at least 32 samples per series"),
    (lambda: xcorr_lag(np.ones(10), np.ones(11), 2), LengthMismatchError,
     "lengths differ: 10 vs 11"),
    (lambda: ber([], []), LengthMismatchError, "empty bit sequences"),
    (lambda: parse_csi_csv("seq,t,dev,i0\n1,0.1,a,1\n"), MalformedHeaderError,
     "header does not declare i0,q0,...,i{N-1},q{N-1}"),
    (lambda: pair_traces(_trace(seqs=[], t=[], iq=np.ones((0, 1))), _trace(), 0),
     EmptyTraceError, "cannot pair an empty trace"),
])
def test_bad_input_raises_its_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.args == (message,)


def test_stream_without_writelines_refused_before_writing():
    # the header went to write(), then writelines ended in a bare AttributeError
    written = []

    class WriteOnly:
        def write(self, text):
            written.append(text)

    with pytest.raises(InvalidParameterError, match="stream must have write and writelines"):
        write_csi_csv(_trace(), WriteOnly())
    assert written == []


def test_non_utf8_csv_names_line_and_offset():
    # was a bare UnicodeDecodeError
    with pytest.raises(MalformedHeaderError) as exc:
        parse_csi_csv(b"seq,t,dev,i0,q0\n1,0.1,\xff,1,2\n")
    assert str(exc.value) == "line 2 is not UTF-8: byte 0xff at offset 22"


def _noise_pair(gap_s, rng):
    return rng.normal(size=200), rng.normal(size=200)


# a 0.02 Hz channel: a start or gap of 1e6 s is 20000 samples to simulate first
SLOW = ChannelConfig(duration_s=100.0, rate_hz=0.02, base_band=(0.001, 0.01))

# (public callable, numeric parameter): a call with that one argument set to v
INTEGER_PARAMS = {
    "LossEvent.count": lambda v: LossEvent("ap", 0.0, v),
    "ChannelConfig.seed": lambda v: ChannelConfig(seed=v),
    "ChannelConfig.subcarriers": lambda v: ChannelConfig(subcarriers=v),
    "ChannelConfig.lag_samples": lambda v: ChannelConfig(lag_samples=v),
    "CsiTrace.subcarriers": lambda v: _trace(subcarriers=v),
    "ou_process.n": lambda v: ou_process(v, 0.1, 1.0, np.random.default_rng(0)),
    "AuthPolicy.max_shift": lambda v: AuthPolicy(max_shift=v),
    "make_keys.block_len": lambda v: make_keys(np.arange(300.0), v),
    "evaluate.total_packets": lambda v: evaluate([], [], v),
    "evaluate.thresholds": lambda v: evaluate([], [], 10, (v, 15)),
    "SessionConfig.error_thresholds": lambda v: SessionConfig(error_thresholds=(v,)),
    "DivergenceConfig.bins": lambda v: DivergenceConfig(bins=v),
    "xcorr_lag.max_lag": lambda v: xcorr_lag(np.sin(np.arange(64.0)), np.cos(np.arange(64.0)), v),
    "ReciprocalBand.beta": lambda v: ReciprocalBand([0.5], 0.5, v),
    "select_reciprocal_freqs.beta": lambda v: select_reciprocal_freqs(_cmap(), 0.5, v),
    "apply_lag.lag": lambda v: apply_lag(np.ones(4), np.ones(4), v),
    "default_params.n_samples": lambda v: default_params(v, 10.0),
    "base_signal.n": lambda v: base_signal(SLOW, v),
}
REAL_PARAMS = {
    "LossEvent.start_s": lambda v: LossEvent("ap", v, 1),
    "ChannelConfig.duration_s": lambda v: ChannelConfig(duration_s=v),
    "ChannelConfig.rate_hz": lambda v: ChannelConfig(rate_hz=v),
    "ChannelConfig.coherence_time_s": lambda v: ChannelConfig(coherence_time_s=v),
    "ou_process.dt": lambda v: ou_process(8, v, 1.0, np.random.default_rng(0)),
    "ou_process.tau": lambda v: ou_process(8, 0.1, v, np.random.default_rng(0)),
    "AuthPolicy.min_corr": lambda v: AuthPolicy(min_corr=v),
    "DivergenceConfig.epsilon": lambda v: DivergenceConfig(epsilon=v),
    "ReciprocalBand.alpha": lambda v: ReciprocalBand([0.5], v, 3),
    "select_reciprocal_freqs.alpha": lambda v: select_reciprocal_freqs(_cmap(), v, 2),
    "CsiTrace.rate_hz": lambda v: _trace(rate_hz=v),
    "MagnitudeSeries.rate_hz": lambda v: MagnitudeSeries(0, [1.0], [1], v),
    "parse_csi_csv.rate_hz": lambda v: parse_csi_csv("seq,t,dev,i0,q0\n1,0.1,a,1,2\n", v),
    "temporal_decorrelation_curve.gaps": lambda v: temporal_decorrelation_curve(
        _noise_pair, [0, v]),
    "default_params.sample_rate": lambda v: default_params(64, v),
    "default_params.periods": lambda v: default_params(64, 10.0, v),
    "ChannelConfig.base_band[0]": lambda v: ChannelConfig(base_band=(v, 2.0)),
    "ChannelConfig.base_band[1]": lambda v: ChannelConfig(base_band=(0.05, v)),
    "gen_attacker.gap_s": lambda v: gen_attacker(SLOW, "delayed_replay", v),
    "CwtParams.min_freq": lambda v: CwtParams(v, 5.0, 10.0),
    "CwtParams.max_freq": lambda v: CwtParams(0.1, v, 10.0),
    "CwtParams.sample_rate": lambda v: CwtParams(0.1, 5.0, v),
    "coherent_gap_width.wc_floor": lambda v: coherent_gap_width(_cmap(), (0.1, 1.0), v),
}
# some negative values are valid: a negative SNR is noisier than the signal, and a start
# less than half a sample before 0 rounds to sample 0
SIGNED_PARAMS = {
    "ChannelConfig.snr_db": lambda v: ChannelConfig(snr_db=v),
    "base_signal.start_s": lambda v: base_signal(SLOW, 4, v),
}
# objects of the wrong type: None, a string, an int, a dataclass of another parameter
OBJECTS = [None, "x", 3, DivergenceConfig(), SessionConfig(), PARAMS, ChannelConfig(),
           QuantizerSpec(4, [0.0, 1.0, 2.0])]
# fractions, NaN, +-inf, negatives, bools and objects that are not numbers
BAD_NUMBERS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, True, False, np.True_, np.float64(-2.0)]),
    st.sampled_from(OBJECTS),
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(-2 ** 70, -1),
    st.floats(max_value=-1e-300),
)


@pytest.mark.parametrize("call, kind",
                         [*((c, "integer") for c in INTEGER_PARAMS.values()),
                          *((c, "real") for c in REAL_PARAMS.values()),
                          *((c, "signed") for c in SIGNED_PARAMS.values())],
                         ids=[*INTEGER_PARAMS, *REAL_PARAMS, *SIGNED_PARAMS])
@settings(max_examples=15, deadline=None)
@given(value=BAD_NUMBERS)
@example(value=Fraction(1, 2))  # an alpha of 1/2 once reached a '.3f' format
@example(value=0.5)
@example(value=-1)
@example(value="2")  # a string ended in a bare TypeError at nine parameters
def test_numeric_parameter_raises_only_the_family(call, kind, value):
    # a non-number (None, a string, a dataclass), a bool, NaN or -inf is always refused; so
    # are +inf, a negative real and a non-int integer argument, except at a signed
    # parameter; whatever else happens, only a CsiRecipError comes out
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Number):
        refused = True
    elif kind == "signed":
        refused = not value > -math.inf
    else:
        refused = (not math.isfinite(value)
                   or (not isinstance(value, int) if kind == "integer" else value < 0))
    try:
        call(value)
    except CsiRecipError:
        return
    assert not refused, f"{value!r} was accepted"


# (public callable, object parameter): a call with that one argument set to v, and the types
# the parameter takes
OBJECT_PARAMS = {
    "cwt.params": (lambda v: cwt(GOOD, v), CwtParams),
    "wavelet_coherence.params": (lambda v: wavelet_coherence(GOOD, GOOD, v), CwtParams),
    "wt_reconstruct.params": (lambda v: wt_reconstruct(GOOD, (0.1, 1.0), v), CwtParams),
    "icwt.sg": (lambda v: icwt(v), Scalogram),
    "band_average.cmap": (lambda v: band_average(v, (0.1, 1.0)), CoherenceMap),
    "coherent_gap_width.cmap": (lambda v: coherent_gap_width(v), CoherenceMap),
    "coherence_summary.cmap": (lambda v: coherence_summary(v), CoherenceMap),
    "adapt_thresholds.cmap": (lambda v: adapt_thresholds(v), CoherenceMap),
    "select_reciprocal_freqs.cmap": (lambda v: select_reciprocal_freqs(v, 0.5, 2), CoherenceMap),
    "quantize.spec": (lambda v: quantize(GOOD, v), QuantizerSpec),
    "evaluate.keys_a": (lambda v: evaluate(v, [], 10), (list, tuple)),
    "evaluate.keys_b": (lambda v: evaluate([], v, 10), (list, tuple)),
    "preprocess_pair.cfg": (lambda v: preprocess_pair(GOOD, GOOD, v), SessionConfig),
    "wskg_session.cfg": (lambda v: wskg_session(GOOD, GOOD, v), SessionConfig),
    "gen_pair.cfg": (lambda v: gen_pair(v), ChannelConfig),
    "gen_attacker.cfg": (lambda v: gen_attacker(v), ChannelConfig),
    "base_signal.cfg": (lambda v: base_signal(v, 10), ChannelConfig),
    "ou_process.rng": (lambda v: ou_process(8, 0.1, 1.0, v), np.random.Generator),
    "jeffrey_divergence.cfg": (lambda v: jeffrey_divergence(GOOD, GOOD[::-1], v),
                               DivergenceConfig),
    "temporal_decorrelation_curve.generator": (
        lambda v: temporal_decorrelation_curve(v, [0, 10]), Callable),
    "temporal_decorrelation_curve.gaps": (
        lambda v: temporal_decorrelation_curve(_noise_pair, v), Iterable),
    "magnitude_series.trace": (lambda v: magnitude_series(v, 0), CsiTrace),
    "write_csi_csv.trace": (lambda v: write_csi_csv(v), CsiTrace),
    "pair_traces.sta": (lambda v: pair_traces(_trace(), v, 0), CsiTrace),
    "parse_csi_csv.stream": (lambda v: parse_csi_csv(v), (bytes, str)),
    "run_handshake.policy": (lambda v: run_handshake(GOOD, GOOD, v, b"k"), AuthPolicy),
    "replay_attack.recorded_s3": (lambda v: replay_attack(None, v, GOOD, AuthPolicy(), b"k"),
                                  AuthMessage),
    "sign_csi.key": (lambda v: sign_csi(GOOD, v), (bytes, bytearray)),
    "write_csi_csv.stream": (lambda v: write_csi_csv(_trace(), v), type(None)),
    # what the generator returns: a two-character string unpacks into two series, which the
    # series rule refuses by the character
    "temporal_decorrelation_curve.generator()": (
        lambda v: temporal_decorrelation_curve(lambda gap_s, rng: v, [0, 10]), str),
}


@pytest.mark.parametrize("call, kinds", OBJECT_PARAMS.values(), ids=OBJECT_PARAMS)
@settings(max_examples=12, deadline=None)
@given(value=st.sampled_from([*OBJECTS, _cmap(), _scalogram()]) | st.text(max_size=4)
       | st.integers(-2 ** 70, 2 ** 70))
def test_object_parameter_raises_naming_value(call, kinds, value):
    # an object that is not of the parameter's type is refused by name, not by a bare
    # AttributeError or TypeError from deep inside the call
    assume(not isinstance(value, kinds))
    with pytest.raises(InvalidParameterError) as exc:
        call(value)
    assert repr(value) in str(exc.value)


# (frozen dataclass, array field): a construction with that one field set to v
FIELD_PARAMS = {
    "CsiTrace.seqs": lambda v: _trace(seqs=v),
    "CsiTrace.t": lambda v: _trace(t=v),
    "CsiTrace.iq": lambda v: _trace(iq=v),
    "MagnitudeSeries.values": lambda v: MagnitudeSeries(0, v, [1], 10.0),
    "MagnitudeSeries.seqs": lambda v: MagnitudeSeries(0, [1.0], v, 10.0),
    "QuantizerSpec.thresholds": lambda v: QuantizerSpec(4, v),
    "ReciprocalBand.f_rec": lambda v: ReciprocalBand(v, 0.5, 3),
}


@pytest.mark.parametrize("name", FIELD_PARAMS)
@settings(max_examples=15, deadline=None)
@given(value=st.sampled_from([*OBJECTS, [[1.0], [1.0, 2.0]], [1j, 2j]]) | st.text(max_size=4)
       | st.integers(-2 ** 70, 2 ** 70))
def test_array_field_raises_naming_value(name, value):
    # a value that is not an array of the field's shape is refused by the field's name;
    # one that cannot become its array at all is named in the message too
    with pytest.raises(InvalidParameterError) as exc:
        FIELD_PARAMS[name](value)
    field = name.split(".")[1]
    assert field in str(exc.value)
    if "must be an array" in str(exc.value):
        assert str(exc.value).startswith(field) and repr(value) in str(exc.value)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0) | st.sampled_from([None, np.nan, -np.inf]),
                       min_size=1, max_size=6), first=st.integers(-2 ** 62, 2 ** 62))
def test_non_finite_magnitude_names_seq(values, first):
    # NaN, None (read as NaN) and +inf were accepted, -inf named only as negative
    bad = [i for i, v in enumerate(values) if v is None or not math.isfinite(v)]
    assume(bad)
    i = bad[0]
    with pytest.raises(InvalidParameterError) as exc:
        MagnitudeSeries(0, values, np.arange(len(values)) + first, 10.0)
    want = np.float64(np.nan if values[i] is None else values[i]).item()
    assert str(exc.value) == f"non-finite magnitude at seq {first + i}: {want!r}"


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.sampled_from([0, 1, True, False, 0.0, 1.0]), max_size=6),
       bad=st.sampled_from([2, 256, -1, -255, 0.5, 1.7, -np.inf, np.nan, None]),
       at=st.integers(0, 6))
@example(bits=[1], bad=256, at=0)  # wrapped to 0 by the uint8 cast, so it matched a 0
def test_bit_other_than_0_or_1_named(bits, bad, at):
    # each was cast to uint8: a value past 255 wrapped, a fraction truncated, NaN read as 0
    at = min(at, len(bits))
    a = [*bits[:at], bad, *bits[at:]]
    with pytest.raises(InvalidParameterError) as exc:
        ber(a, [0] * len(a))
    assert str(exc.value) == (f"bits_a must hold only bits 0 and 1, "
                              f"got {np.asarray(a).tolist()[at]!r} at index {at}")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30), lag=st.integers(-70, 70))
@example(n=10, lag=15)
@example(n=10, lag=-10)
def test_lag_past_the_series_refused(n, lag):
    # past the length the two halves came back unequal; up to it they are equal, and empty
    # at |lag| = n
    x = np.arange(float(n))
    if abs(lag) > n:
        with pytest.raises(InvalidParameterError) as exc:
            apply_lag(x, x, lag)
        assert str(exc.value) == f"lag must be in [{-n}, {n + 1}), got {lag}"
    else:
        xa, ya = apply_lag(x, x, lag)
        assert len(xa) == len(ya) == n - abs(lag)


@settings(max_examples=30, deadline=None)
@given(seqs=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=2, max_size=6))
@example(seqs=[5, 5, 2])
@example(seqs=[-2 ** 63, 2 ** 63 - 1, -2 ** 63])  # np.diff would wrap to 1
def test_magnitude_seqs_out_of_order_named(seqs):
    # a repeated or descending seq was accepted, though an absent seq reads as a lost packet;
    # CsiTrace's rule and message, through one check
    bad = [i for i in range(1, len(seqs)) if seqs[i] <= seqs[i - 1]]
    assume(bad)
    i = bad[0]
    with pytest.raises(InvalidParameterError) as exc:
        MagnitudeSeries(0, np.ones(len(seqs)), seqs, 10.0)
    assert str(exc.value) == (f"seqs must be strictly increasing, got {seqs[i]} after "
                              f"{seqs[i - 1]} at row {i}")


@settings(max_examples=40, deadline=None)
@given(min_freq=st.floats(min_value=5e-324, max_value=4.0))
@example(min_freq=5e-324)  # ended in a bare OverflowError from freq_grid()
@example(min_freq=5.0 / 2 ** 32)  # exactly MAX_OCTAVES: the widest grid allowed
@example(min_freq=np.nextafter(5.0 / 2 ** 32, 0.0))
def test_octave_span_bounded(min_freq):
    # the rows grew with log2(max_freq / min_freq), 11987 of them at 1e-300 Hz
    if math.log2(5.0) - math.log2(min_freq) > wavelet.MAX_OCTAVES:
        with pytest.raises(InvalidParameterError) as exc:
            CwtParams(min_freq, 5.0, 10.0)
        assert str(exc.value).startswith("min_freq must be >= max_freq / 2**32")
        assert str(exc.value).endswith(f"got {min_freq}")
    else:
        rows = len(CwtParams(min_freq, 5.0, 10.0).freq_grid())
        assert rows <= wavelet.MAX_OCTAVES * wavelet.VOICES_PER_OCTAVE + 1


@settings(max_examples=30, deadline=None)
@given(value=hnp.arrays(hnp.unicode_string_dtypes(max_len=3) | hnp.byte_string_dtypes(max_len=3)
                        | hnp.datetime64_dtypes() | hnp.timedelta64_dtypes()
                        | st.just(np.dtype(object)),
                        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)))
def test_levels_neither_numeric_nor_bool_refused(value):
    # a string array ended in a bare ValueError from its float cast
    with pytest.raises(InvalidParameterError) as exc:
        gray_encode(value, 4)
    assert str(exc.value) == (f"levels must be integers, got shape {value.shape} "
                              f"of dtype {value.dtype}")


GOOD = np.sin(np.arange(600.0) / 7.0) + 0.01 * np.arange(600.0)
P600 = default_params(600, 10.0)
SPEC = QuantizerSpec(4, [0.0, 1.0, 2.0])

# (public callable, series parameter): a call with that one series set to v, every other
# argument valid
SERIES_PARAMS = {
    "xcorr_lag.x": lambda v: xcorr_lag(v, GOOD, 10),
    "xcorr_lag.y": lambda v: xcorr_lag(GOOD, v, 10),
    "pearson.x": lambda v: pearson(v, GOOD),
    "pearson.y": lambda v: pearson(GOOD, v),
    "make_keys.x": lambda v: make_keys(v),
    "cdf_thresholds.block": lambda v: cdf_thresholds(v),
    "quantize.block": lambda v: quantize(v, SPEC),
    "golay_filter.x": lambda v: golay_filter(v),
    "fft_reconstruct.x": lambda v: fft_reconstruct(v),
    "wpt_denoise.x": lambda v: wpt_denoise(v),
    "wt_reconstruct.x": lambda v: wt_reconstruct(v, (0.1, 1.0), P600),
    "wavelet_coherence.x": lambda v: wavelet_coherence(v, GOOD, P600),
    "wavelet_coherence.y": lambda v: wavelet_coherence(GOOD, v, P600),
    "cwt.x": lambda v: cwt(v, P600),
    "apply_lag.x": lambda v: apply_lag(v, GOOD, 1),
    "apply_lag.y": lambda v: apply_lag(GOOD, v, 1),
    "sign_csi.csi": lambda v: sign_csi(v, b"k"),
}
# the configuration tables (tests/test_keygen.py clears them too): a refused argument builds none
TABLES = (wavelet._morlet_rows, wavelet._gauss_rows, wavelet._recon_plateau,
          wavelet._band_response)
LENGTHS = st.integers(1, 700)
BAD_ARRAYS = st.one_of(
    hnp.arrays(np.float64, st.tuples(st.integers(0, 700), st.integers(1, 3))
               | st.tuples(st.integers(1, 3), st.integers(0, 700))),  # 2-D
    hnp.arrays(np.complex128, LENGTHS),
    hnp.arrays(np.bool_, LENGTHS),
    hnp.arrays(hnp.unicode_string_dtypes(max_len=3), LENGTHS),
    LENGTHS.map(lambda n: GOOD[:n].astype(object)),
    st.lists(st.lists(st.floats(-1.0, 1.0), max_size=3), min_size=2, max_size=4)
    .filter(lambda rows: len({len(r) for r in rows}) > 1),  # ragged
    st.sampled_from([np.array([]), np.array([], np.int64), []]),  # empty
)


def _shape_and_dtype(v) -> tuple[str, str]:
    try:
        a = np.asarray(v)
    except ValueError:  # ragged
        a = np.asarray(v, dtype=object)
    return str(a.shape), str(a.dtype)


@pytest.mark.parametrize("call", SERIES_PARAMS.values(), ids=SERIES_PARAMS)
@settings(max_examples=20, deadline=None)
@given(value=BAD_ARRAYS)
@example(value=np.ones((600, 2)))
@example(value=GOOD.astype(complex))  # every imaginary part zero
@example(value=GOOD > 0)
@example(value=np.array(["1.0"] * 600))
@example(value=[[1.0], [1.0, 2.0]])  # a bare ValueError from np.asarray
@example(value=np.array([]))  # quantize, apply_lag and sign_csi accepted it
def test_array_argument_raises_naming_shape_or_dtype(call, value):
    for table in TABLES:
        table.cache_clear()
    with pytest.raises(CsiRecipError) as exc:
        call(value)
    shape, dtype = _shape_and_dtype(value)
    assert shape in str(exc.value) or dtype in str(exc.value)
    assert [t.cache_info().currsize for t in TABLES] == [0] * len(TABLES)


@pytest.mark.parametrize("name", ["wt_reconstruct.x", "wavelet_coherence.x", "cwt.x"])
def test_valid_array_argument_builds_its_tables(name):
    # the check above is not vacuous: a valid series of these calls does build tables
    for table in TABLES:
        table.cache_clear()
    SERIES_PARAMS[name](GOOD)
    assert sum(t.cache_info().currsize for t in TABLES) > 0


# (public callable, band parameter): a call with that band, every other argument valid
BAND_PARAMS = {
    "wt_reconstruct.band": lambda v: wt_reconstruct(GOOD, v, P600),
    "icwt.band": lambda v: icwt(_scalogram(), v),
    "band_average.band": lambda v: band_average(_cmap(), v),
    "coherent_gap_width.band": lambda v: coherent_gap_width(_cmap(), v),
}
# each ended in a bare TypeError, ValueError or UFuncTypeError, or a NaN edge in EmptyBandError;
# an inverted band, or one between two grid rows, stays an EmptyBandError
BAD_BANDS = [
    (None, InvalidParameterError, "band must be a pair (f_lo, f_hi), got None"),  # icwt: all rows
    ((1,), InvalidParameterError, "band must be a pair (f_lo, f_hi), got (1,)"),
    ("ab", InvalidParameterError, "band[0] must be finite and >= 0, got 'a'"),
    ((0.5, "a"), InvalidParameterError, "band[1] must be finite and >= 0, got 'a'"),
    ((np.nan, 1.0), InvalidParameterError, "band[0] must be finite and >= 0, got nan"),
    ((-1.0, 1.0), InvalidParameterError, "band[0] must be finite and >= 0, got -1.0"),
    ((2.0, 1.0), EmptyBandError, "inverted band [2.0, 1.0]"),
    ((4.8, 4.9), EmptyBandError, "no frequency bins inside band (4.8, 4.9)"),
]


@pytest.mark.parametrize("name, band, error, message",
                         [pytest.param(name, *case, id=f"{name}-{case[0]!r}")
                          for name in BAND_PARAMS for case in BAD_BANDS
                          if (name, case[0]) != ("icwt.band", None)])
def test_bad_band_raises_naming_it(name, band, error, message):
    for table in TABLES:
        table.cache_clear()
    with pytest.raises(error) as exc:
        BAND_PARAMS[name](band)
    assert str(exc.value) == message
    assert [t.cache_info().currsize for t in TABLES] == [0] * len(TABLES)


@pytest.mark.parametrize("name", BAND_PARAMS)
def test_band_may_start_at_zero_hz(name):
    BAND_PARAMS[name]([0, 1.0])


def _frozen_cases():
    """(build from a caller's array, the field holding it, that writeable array) for
    every array field of the ten array records."""
    grid = np.zeros((NB, 4))
    band = ReciprocalBand(np.array([0.5, 1.0]), 0.5, 3)
    return [
        (lambda v: _trace(seqs=v), "seqs", np.array([1, 2], np.int64)),
        (lambda v: _trace(t=v), "t", np.array([0.1, 0.2])),
        (lambda v: _trace(iq=v), "iq", np.ones((2, 1), complex)),
        (lambda v: MagnitudeSeries(0, v, np.array([0, 1]), 10.0), "values", np.array([1.0, 2.0])),
        (lambda v: MagnitudeSeries(0, np.ones(2), v, 10.0), "seqs", np.array([0, 1])),
        (lambda v: KeyBlock(0, v, np.zeros(4, np.uint8)), "levels", np.array([0, 3])),
        (lambda v: KeyBlock(0, np.zeros(2, np.int64), v), "bits", np.array([0, 1, 1, 0], np.uint8)),
        (lambda v: QuantizerSpec(4, v), "thresholds", np.array([0.0, 1.0, 2.0])),
        (lambda v: ReciprocalBand(v, 0.5, 3), "f_rec", np.array([0.5, 1.0])),
        (lambda v: AuthMessage(v, b"tag"), "payload_csi", np.array([1.0, 2.0])),
        (lambda v: _scalogram(coeffs=v), "coeffs", grid.astype(complex)),
        (lambda v: _scalogram(coi=v), "coi", np.zeros(4, int)),
        (lambda v: _cmap(wc=v), "wc", grid.copy()),
        (lambda v: _cmap(phase=v), "phase", grid.copy()),
        (lambda v: _cmap(times=v), "times", np.arange(4.0)),
        (lambda v: _cmap(coi=v), "coi", np.zeros((NB, 4), bool)),
        (lambda v: LagEstimate(0, 1.0, v, np.zeros(3)), "lags", np.arange(-1, 2)),
        (lambda v: LagEstimate(0, 1.0, np.arange(-1, 2), v), "curve", np.array([0.1, 1.0, 0.2])),
        (lambda v: PreprocessResult(v, np.ones(2), band, 0, 502), "x", np.array([1.0, 2.0])),
        (lambda v: PreprocessResult(np.ones(2), v, band, 0, 502), "y", np.array([1.0, 2.0])),
    ]


@pytest.mark.parametrize("build, field, arr", _frozen_cases())
def test_construction_leaves_caller_array_writeable(build, field, arr):
    # the object used to freeze the caller's array in place and share it
    obj = build(arr)
    held = getattr(obj, field)
    assert arr.flags.writeable and not held.flags.writeable
    before = held.copy()
    arr[(0,) * arr.ndim] += 1
    np.testing.assert_array_equal(getattr(obj, field), before)


@pytest.mark.parametrize("build, field, arr", _frozen_cases())
def test_records_compare_by_value(build, field, arr):
    # == on two equal records, CsiTrace's aside, ended in numpy's bare ValueError
    obj = build(arr)
    assert (obj == build(arr.copy())) is True
    changed = arr.copy()
    changed[(-1,) * arr.ndim] += 1  # the last element, so seqs stay increasing
    assert (obj == build(changed)) is False
    assert (obj == "other") is False


def test_read_only_array_is_kept():
    v = np.array([1.0, 2.0])
    v.setflags(write=False)
    assert MagnitudeSeries(0, v, np.array([0, 1]), 10.0).values is v
