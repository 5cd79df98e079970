"""Countable loop graphs of prescribed Gurevich entropy and period, with
certified Vere-Jones classification."""

from .classifier import (ClassificationReport, Radius, Verdict, classify,
                         entropy_enclosure, entropy_of_lift, lambda_estimate,
                         radius_L)
from .graph import (ExplicitGraph, export, export_dot, export_json,
                    import_json, lift_period, period, realize)
from .intervals import (BetaValue, CReal, certified_floor, exp_fraction,
                        geometric_tail, log_fraction, power_series)
from .oracle import (GrowthEstimate, PathCountTable, count_first_returns,
                     count_paths, growth_rate, renewal_convolve,
                     table_from_spectrum)
from .spectrum import (LoopSpectrum, SpectrumMeta, build_spectrum,
                       delete_loop, spectrum_checks, spectrum_tail_bounds,
                       unit_sum_enclosure, unit_sum_target, user_spectrum,
                       weighted_sum_enclosure)

__all__ = [name for name in dir() if not name.startswith("_")]
