"""Percentile-based citation impact analysis.

Normalizes citation counts into percentile ranks within reference sets
(same subject category and publication year), computes top-x% excellence
shares with tie-robust fractional counting, and evaluates institutional
differences with effect sizes (Cohen's d and h), confidence intervals,
t and z tests, plus bootstrap and Mann-Whitney robustness checks.
"""

from .data import (
    Dataset,
    IngestionConfig,
    PublicationRecord,
    ReferenceSetKey,
    RejectedRow,
    SetMembership,
    filter_years,
    group_reference_sets,
    parse_records,
    select_institution_sample,
    serialize_dataset,
    write_rejects_report,
)
from .effects import (
    MAGNITUDE_THRESHOLDS,
    Magnitude,
    MeanTestResult,
    OverlapVerdict,
    ProportionTestResult,
    SummaryStats,
    ci_overlap_verdict,
    classify_magnitude,
    cohens_d_one,
    cohens_h_one,
    one_sample_prop_z,
    one_sample_t,
    pooled_sd,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
    two_sample_welch_t,
)
from .errors import (
    CitationImpactError,
    ConfigurationError,
    DataError,
    DegenerateReferenceError,
    DegenerateVarianceError,
    EmptyDatasetError,
    RejectThresholdError,
    SampleSizeError,
    UnknownInstitutionError,
)
from .kernels import normal_cdf, normal_quantile, t_cdf, t_quantile
from .percentiles import (
    BestPercentiles,
    FractionalTopShare,
    OutlierSensitivityReport,
    PercentileAssignment,
    PercentileFormula,
    PercentileScheme,
    assign_best_percentiles,
    classify_top_x,
    fractional_top_share,
    mncs,
    outlier_sensitivity,
    outlier_sensitivity_report,
    percentile_rank,
    rank_ascending,
    rank_descending,
)
from .resampling import (
    BootstrapResult,
    BootstrapSpec,
    BootstrapStatistic,
    CiMethod,
    RankSumResult,
    bootstrap_samples,
    bootstrap_statistic,
    mann_whitney,
)
from .svgchart import CiChartSpec, CiSeries, render_ci_chart
from .tables import (
    Cell,
    ReportTable,
    compare_table,
    summary_table,
    topcompare_table,
    topshare_table,
)

__version__ = "0.1.0"
