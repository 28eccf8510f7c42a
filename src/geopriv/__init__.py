"""geopriv: measure what location obfuscation actually hides.

Obfuscates GPS mobility traces with planar-Laplace noise, re-extracts
points of interest the way a curious service would, and scores recall,
geographic and semantic accuracy, user re-identification and the utility
cost of obfuscated queries.
"""

from .core import (
    Dataset,
    GeoPoint,
    MobilityTrace,
    Poi,
    PoiSet,
    TimestampedLocation,
    distance,
)
from .mechanism import (
    PrivacyLevel,
    RandomSource,
    derive_seed,
    inverse_radius_cdf,
    obfuscate_trace,
    perturb,
)
from .poi import ExtractionParams, Stay, dj_cluster, extract_pois, extract_stays
from .features import Feature, FeatureStore, generate_synthetic_features
from .ingest import FilterPolicy, filter_dataset, parse_canonical, write_canonical
from .metrics import (
    RemapResult,
    geographic_distances,
    most_likely_user,
    poi_set_distance,
    reidentification_rate,
    remap,
    semantic_distances,
)
from .experiment import (
    DEFAULT_LEVELS,
    EvaluationReport,
    ExperimentConfig,
    PrecisionConfig,
    SweepConfig,
    SweepResult,
    evaluate,
    extract_ground_truth,
    obfuscation_campaign,
    observe,
    precision_summary,
    run_experiment,
    threshold_sweep,
    write_report,
)

__version__ = "0.1.0"
