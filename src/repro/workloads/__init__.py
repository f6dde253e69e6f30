"""Workloads: DCN profiles, rate distributions, traces, study datasets.

This package is the substitute for the paper's proprietary inputs: the
Table-1 loss-rate distributions, the 15 study DCN shapes (§2), the medium/
large simulation DCNs (§7.1), corruption-onset traces, and the synthetic
monitoring dataset behind the §2–3 analyses.
"""

from repro.workloads.dcn_profiles import (
    DCNProfile,
    LARGE_DCN,
    MEDIUM_DCN,
    study_profiles,
)
from repro.workloads.flows import sample_flow_population
from repro.workloads.generator import (
    DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY,
    burst_trace,
    deduplicate_active,
    generate_trace,
)
from repro.workloads.rates import (
    BUCKET_EDGES,
    LOSSY_THRESHOLD,
    TABLE1_CONGESTION_SHARES,
    TABLE1_CORRUPTION_SHARES,
    bucket_shares,
    sample_corruption_rate,
    sample_from_buckets,
)
from repro.workloads.study import (
    DcnStudy,
    LinkStudyRecord,
    StudyDataset,
    generate_dcn_study,
    generate_study,
)
from repro.workloads.trace import CorruptionTrace

__all__ = [
    "BUCKET_EDGES",
    "CorruptionTrace",
    "DCNProfile",
    "DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY",
    "DcnStudy",
    "LARGE_DCN",
    "LOSSY_THRESHOLD",
    "LinkStudyRecord",
    "MEDIUM_DCN",
    "StudyDataset",
    "TABLE1_CONGESTION_SHARES",
    "TABLE1_CORRUPTION_SHARES",
    "bucket_shares",
    "burst_trace",
    "deduplicate_active",
    "generate_dcn_study",
    "generate_study",
    "generate_trace",
    "sample_corruption_rate",
    "sample_flow_population",
    "sample_from_buckets",
    "study_profiles",
]
