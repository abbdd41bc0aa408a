"""Simulated channels that more than one test reads, each built once per test run.

Each function here is ``functools.cache``d on its exact arguments, so every caller passes
the same ones.  It returns read-only arrays, so no test can change another test's input.
"""

from functools import cache

from csirecip.chansim import ChannelConfig, gen_attacker, gen_pair
from csirecip.traces import magnitude_series


@cache
def auth_trial(seed: int) -> tuple:
    """Subcarrier-6 magnitudes (AP, STA, independent attacker) of the 60 s, 15 dB, lag-1
    channel that criterion 9 and ``test_authsim.py::TestSeparation`` both run on."""
    cfg = ChannelConfig(duration_s=60.0, snr_db=15.0, lag_samples=1, seed=seed)
    ap, sta, _ = gen_pair(cfg)
    return tuple(magnitude_series(trace, 6).values
                 for trace in (ap, sta, gen_attacker(cfg, "independent")))
