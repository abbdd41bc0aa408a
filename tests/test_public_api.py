"""The package's public surface, pinned: adding or removing a knob is a reviewed edit here.

Each function exported by ``csirecip`` maps to its parameter names and each exported
dataclass to its field names.  Settings fixed by the scheme are module constants, not
parameters: ``reconstruct.GOLAY_WINDOW``, ``GOLAY_ORDER``, ``FFT_POWER_KEEP``, ``WPT_DEPTH``
and ``wavelet.GAP_BAND``, ``GAP_WC_FLOOR``, ``VOICES_PER_OCTAVE``; their values are pinned too.
"""

import dataclasses
import inspect

import csirecip
from csirecip import reconstruct, wavelet

FUNCTIONS = {
    "adapt_thresholds": ("cmap",),
    "apply_lag": ("x", "y", "lag"),
    "band_average": ("cmap", "band"),
    "ber": ("bits_a", "bits_b"),
    "cdf_thresholds": ("block", "levels"),
    "coherence_summary": ("cmap",),
    "coherent_gap_width": ("cmap", "band", "wc_floor"),
    "cwt": ("x", "params"),
    "default_params": ("n_samples", "sample_rate", "periods"),
    "evaluate": ("keys_a", "keys_b", "total_packets", "thresholds"),
    "fft_reconstruct": ("x",),
    "gen_attacker": ("cfg", "mode", "gap_s"),
    "gen_pair": ("cfg",),
    "golay_filter": ("x",),
    "gray_encode": ("levels_seq", "levels_count"),
    "icwt": ("sg", "band"),
    "jeffrey_divergence": ("x", "y", "cfg"),
    "magnitude_series": ("trace", "subcarrier"),
    "make_keys": ("x", "block_len", "levels"),
    "ou_process": ("n", "dt", "tau", "rng"),
    "pair_traces": ("ap", "sta", "subcarrier", "gap_policy"),
    "parse_csi_csv": ("stream", "rate_hz"),
    "pearson": ("x", "y"),
    "preprocess_pair": ("ap", "sta", "cfg"),
    "preset": ("name", "duration_s", "seed", "overrides"),
    "quantize": ("block", "spec"),
    "replay_attack": ("recorded_s1", "recorded_s3", "ap_now", "policy", "key"),
    "run_handshake": ("ap_csi", "sta_csi", "policy", "key"),
    "select_reciprocal_freqs": ("cmap", "alpha", "beta"),
    "sign_csi": ("csi", "key"),
    "temporal_decorrelation_curve": ("generator", "gaps", "seed"),
    "wasserstein_1d": ("x", "y"),
    "wavelet_coherence": ("x", "y", "params"),
    "wpt_denoise": ("x",),
    "write_csi_csv": ("trace", "stream"),
    "wskg_session": ("ap", "sta", "cfg"),
    "wt_reconstruct": ("x", "band", "params"),
    "xcorr_lag": ("x", "y", "max_lag"),
}
DATACLASSES = {
    "AuthDecision": ("accepted", "corr", "shift", "reason"),
    "AuthMessage": ("payload_csi", "tag"),
    "AuthPolicy": ("min_corr", "max_shift"),
    "ChannelConfig": ("duration_s", "rate_hz", "base_band", "snr_db", "lag_samples", "loss",
                      "coherence_time_s", "subcarriers", "seed"),
    "CoherenceMap": ("wc", "phase", "freqs", "times", "coi", "params"),
    "CsiTrace": ("device_id", "subcarriers", "rate_hz", "seqs", "t", "iq", "parse_stats"),
    "CwtParams": ("min_freq", "max_freq", "sample_rate"),
    "DivergenceConfig": ("bins", "epsilon"),
    "KeyBlock": ("start_seq", "levels", "bits"),
    "LagEstimate": ("lag", "peak_corr", "lags", "curve"),
    "LossEvent": ("side", "start_s", "count"),
    "MagnitudeSeries": ("subcarrier", "values", "seqs", "rate_hz"),
    "PreprocessResult": ("x", "y", "band", "lag", "total_packets"),
    "QuantizerSpec": ("levels", "thresholds"),
    "ReciprocalBand": ("f_rec", "alpha", "beta"),
    "Scalogram": ("coeffs", "freqs", "params", "coi", "mean"),
    "SessionConfig": ("pipeline", "sync", "error_thresholds"),
    "SessionReport": ("per_threshold", "overall_ber", "total_packets", "key_bits", "blocks",
                      "skipped_blocks", "pipeline", "sync", "lag", "alpha", "beta", "band"),
}
OTHER_CLASSES = {"CsiRecipError", "Reason"}  # the error base and the rejection-reason enum


def _exports() -> dict:
    return {name: obj for name, obj in vars(csirecip).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def test_every_export_is_pinned():
    assert set(_exports()) == set(FUNCTIONS) | set(DATACLASSES) | OTHER_CLASSES


def test_function_parameters():
    got = {name: tuple(inspect.signature(obj).parameters)
           for name, obj in _exports().items() if inspect.isfunction(obj)}
    assert got == FUNCTIONS


def test_dataclass_fields():
    got = {name: tuple(f.name for f in dataclasses.fields(obj))
           for name, obj in _exports().items() if dataclasses.is_dataclass(obj)}
    assert got == DATACLASSES


def test_scheme_constants():
    assert (reconstruct.GOLAY_WINDOW, reconstruct.GOLAY_ORDER, reconstruct.FFT_POWER_KEEP,
            reconstruct.WPT_DEPTH) == (11, 3, 0.98, 4)
    assert (wavelet.GAP_BAND, wavelet.GAP_WC_FLOOR, wavelet.VOICES_PER_OCTAVE) == (
        (0.06, 1.5), 0.3, 12)


def test_packet_tree_parameters():
    # not exported, but the benchmark traces both by name
    assert tuple(inspect.signature(reconstruct.wpt_forward).parameters) == ("x",)
    assert tuple(inspect.signature(reconstruct.wpt_inverse).parameters) == ("bands", "n")
