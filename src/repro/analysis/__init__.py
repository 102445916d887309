"""Profile analysis: peaks, comparison metrics, selection, theory.

* :mod:`~repro.analysis.peaks` — peak segmentation on log histograms.
* :mod:`~repro.analysis.compare` — chi-squared, Minkowski, intersection,
  KL/Jeffrey, EMD, and scalar total-ops/total-latency differences.
* :mod:`~repro.analysis.select` — the 3-phase automated interesting-
  profile selector.
* :mod:`~repro.analysis.priorknowledge` — characteristic-time peak
  attribution.
* :mod:`~repro.analysis.preemption` — Equation 3 and its validation.
* :mod:`~repro.analysis.groundtruth` — synthetic labelled pairs for the
  Section 5.3 accuracy study.
* :mod:`~repro.analysis.report` — ASCII/Gnuplot rendering, checksums.
"""

from .._lazy import lazy_exports

__all__ = [
    "ChangePoint", "change_points", "distance_series",
    "ClusterFinding", "ClusterReport", "NodeProfiles", "aggregate",
    "outlier_nodes",
    "METRICS", "chi_squared", "compare", "earth_movers_distance",
    "intersection_distance", "jeffrey_divergence", "kullback_leibler",
    "minkowski", "total_latency_difference", "total_ops_difference",
    "Finding", "Investigation",
    "MethodAccuracy", "PairGenerator", "PeakSpec", "ProfilePairSample",
    "evaluate_methods",
    "Peak", "find_peaks", "peak_signature", "peaks_differ",
    "PreemptionPrediction", "expected_preempted_requests",
    "forced_preemption_probability", "predict_preemption", "quantum_bucket",
    "PAPER_TIMES", "CharacteristicTime", "CharacteristicTimes",
    "ConsistencyError", "check_consistency", "gnuplot_data",
    "render_profile", "render_profile_set", "render_sampled",
    "ProfilePairReport", "ProfileSelector", "SelectionConfig",
    "top_contributors",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".anomaly": ("ChangePoint", "change_points", "distance_series"),
    ".cluster": ("ClusterFinding", "ClusterReport", "NodeProfiles",
                 "aggregate", "outlier_nodes"),
    ".compare": ("METRICS", "chi_squared", "compare", "earth_movers_distance",
                 "intersection_distance", "jeffrey_divergence",
                 "kullback_leibler", "minkowski", "total_latency_difference",
                 "total_ops_difference"),
    ".investigate": ("Finding", "Investigation"),
    ".groundtruth": ("MethodAccuracy", "PairGenerator", "PeakSpec",
                     "ProfilePairSample", "evaluate_methods"),
    ".peaks": ("Peak", "find_peaks", "peak_signature", "peaks_differ"),
    ".preemption": ("PreemptionPrediction", "expected_preempted_requests",
                    "forced_preemption_probability", "predict_preemption",
                    "quantum_bucket"),
    ".priorknowledge": ("PAPER_TIMES", "CharacteristicTime",
                        "CharacteristicTimes"),
    ".report": ("ConsistencyError", "check_consistency", "gnuplot_data",
                "render_profile", "render_profile_set", "render_sampled"),
    ".select": ("ProfilePairReport", "ProfileSelector", "SelectionConfig",
                "top_contributors"),
})
