"""csirecip: channel-reciprocity analysis and key generation for CSI traces.

Quantifies wireless channel reciprocity from CSI magnitude series,
reconstructs reciprocity-enhanced CSI through wavelet-coherence-guided
band selection, generates and scores secret keys, and detects replay
attacks through CSI correlation and time-shift checks.  Works on
synthetic channels (``csirecip.chansim``) or CSV trace datasets.
"""

from .authsim import (
    AuthDecision,
    AuthMessage,
    AuthPolicy,
    Reason,
    replay_attack,
    run_handshake,
    sign_csi,
    temporal_decorrelation_curve,
)
from .chansim import ChannelConfig, LossEvent, gen_attacker, gen_pair, ou_process, preset
from .errors import CsiRecipError
from .keygen import (
    KeyBlock,
    PreprocessResult,
    QuantizerSpec,
    SessionConfig,
    SessionReport,
    cdf_thresholds,
    evaluate,
    gray_encode,
    make_keys,
    preprocess_pair,
    quantize,
    wskg_session,
)
from .metrics import (
    DivergenceConfig,
    LagEstimate,
    ber,
    jeffrey_divergence,
    pearson,
    wasserstein_1d,
    xcorr_lag,
)
from .reconstruct import (
    ReciprocalBand,
    adapt_thresholds,
    apply_lag,
    fft_reconstruct,
    golay_filter,
    select_reciprocal_freqs,
    wpt_denoise,
    wt_reconstruct,
)
from .traces import (
    CsiTrace,
    MagnitudeSeries,
    magnitude_series,
    pair_traces,
    parse_csi_csv,
    write_csi_csv,
)
from .wavelet import (
    CoherenceMap,
    CwtParams,
    Scalogram,
    band_average,
    coherent_gap_width,
    coherence_summary,
    cwt,
    default_params,
    icwt,
    wavelet_coherence,
)

__version__ = "0.1.0"
