"""The error family and the frozen-array rule, across every module."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import csirecip
from csirecip import errors
from csirecip.authsim import (AuthMessage, AuthPolicy, run_handshake, sign_csi,
                              temporal_decorrelation_curve)
from csirecip.chansim import ChannelConfig, gen_attacker
from csirecip.errors import CsiRecipError, InvalidParameterError
from csirecip.keygen import KeyBlock, QuantizerSpec
from csirecip.metrics import DivergenceConfig
from csirecip.reconstruct import ReciprocalBand
from csirecip.traces import CsiTrace, MagnitudeSeries, magnitude_series, pair_traces
from csirecip.wavelet import CoherenceMap, CwtParams, Scalogram

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


def _trace(**kw):
    args = dict(device_id="ap", subcarriers=1, rate_hz=10.0, seqs=[1, 2], t=[0.1, 0.2],
                iq=np.ones((2, 1)))
    return CsiTrace(**{**args, **kw})


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
     "unknown gap_policy 'nearest'"),
    (lambda: pair_traces(_trace(), _trace(subcarriers=2, iq=np.ones((2, 2))), 0),
     "traces declare different subcarrier counts: AP 1, STA 2"),
    (lambda: AuthPolicy(min_corr=1.5), "min_corr must be in (0, 1), got 1.5"),
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
    (lambda: DivergenceConfig(epsilon=0.0), "epsilon must be positive, got 0.0"),
    (lambda: gen_attacker(ChannelConfig(duration_s=1.0), "teleport"),
     "unknown attacker mode 'teleport'"),
])
def test_bad_parameter_names_value(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, ValueError)


def _frozen_cases():
    """(build from a caller's array, the field holding it, that writeable array) for
    every array field of the eight frozen dataclasses."""
    params = CwtParams(0.1, 5.0, 10.0)
    nb = len(params.freq_grid())
    grid = np.zeros((nb, 4))

    def cmap(**kw):
        args = dict(wc=grid.copy(), phase=grid.copy(), freqs=params.freq_grid(),
                    times=np.arange(4.0), coi=np.ones((nb, 4), bool), params=params)
        return CoherenceMap(**{**args, **kw})

    def scalogram(**kw):
        args = dict(coeffs=grid.astype(complex), freqs=params.freq_grid(), params=params,
                    coi=np.zeros(4, int))
        return Scalogram(**{**args, **kw})

    return [
        (lambda v: _trace(seqs=v), "seqs", np.array([1, 2], np.int64)),
        (lambda v: _trace(t=v), "t", np.array([0.1, 0.2])),
        (lambda v: _trace(iq=v), "iq", np.ones((2, 1), complex)),
        (lambda v: MagnitudeSeries(0, v, np.array([0, 1]), 10.0), "values", np.array([1.0, 2.0])),
        (lambda v: MagnitudeSeries(0, np.ones(2), v, 10.0), "seqs", np.array([0, 1])),
        (lambda v: KeyBlock(0, v, np.zeros(4, np.uint8)), "levels", np.array([0, 3])),
        (lambda v: KeyBlock(0, np.zeros(2, np.int64), v), "bits", np.array([0, 1, 1, 0], np.uint8)),
        (lambda v: QuantizerSpec(4, v), "thresholds", np.array([0.0, 1.0, 2.0])),
        (lambda v: ReciprocalBand(v, (0.5, 1.0), 0.5, 3), "f_rec", np.array([0.5, 1.0])),
        (lambda v: AuthMessage(v, b"tag"), "payload_csi", np.array([1.0, 2.0])),
        (lambda v: scalogram(coeffs=v), "coeffs", grid.astype(complex)),
        (lambda v: scalogram(coi=v), "coi", np.zeros(4, int)),
        (lambda v: cmap(wc=v), "wc", grid.copy()),
        (lambda v: cmap(phase=v), "phase", grid.copy()),
        (lambda v: cmap(times=v), "times", np.arange(4.0)),
        (lambda v: cmap(coi=v), "coi", np.zeros((nb, 4), bool)),
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


def test_read_only_array_is_kept():
    v = np.array([1.0, 2.0])
    v.setflags(write=False)
    assert MagnitudeSeries(0, v, np.array([0, 1]), 10.0).values is v
