"""Context-augmented natural-language explanations for flagged NetFlow records.

The package ingests labelled NetFlow-v2 exports, enriches each flagged
flow with feature specifications, protocol names, address knowledge and
connection history, builds deterministic prompts for a pluggable LLM
backend, and evaluates the generated explanations with machine-assisted
consistency checkers plus human-annotation aggregation.
"""

from .catalog import (
    CatalogError,
    FeatureCatalog,
    FeatureSpec,
    default_catalog,
    load_catalog,
)
from .checkers import (
    CheckFinding,
    FeatureMention,
    check_factual_claims,
    check_feature_consistency,
    decode_tcp_flags,
    extract_feature_mentions,
    milliseconds_to,
    run_all_checks,
    well_known_ports,
)
from .enrichment import (
    ContextBuilder,
    EnrichmentContext,
    IpKnowledge,
    Unavailability,
    classify_ip,
)
from .evaluation import (
    AnnotationError,
    AnnotationSet,
    MetricsReport,
    aggregate_metrics,
    ingest_annotations,
    proportion_standard_error,
    render_metrics_table,
)
from .flows import (
    DatasetFormatError,
    FlowRecord,
    ParseReport,
    RecordValidationError,
    SamplingError,
    parse_dataset,
    render_flow_text,
    sample_malicious,
)
from .gateway import (
    Gateway,
    GenerationRequest,
    GenerationResult,
    HTTPBackend,
    HTTPBackendProfile,
    MockBackend,
    PricingTable,
    RetryPolicy,
    TokenUsage,
    UsageLedger,
    estimate_cost,
)
from .history import (
    FlowHistoryEntry,
    FlowHistoryStore,
    HistoryQuery,
    StoreError,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    Runtime,
    run_cost,
    run_evaluate,
    run_explain,
    run_ingest,
    run_sample,
)
from .prompts import (
    BudgetInfeasibleError,
    PromptBundle,
    PromptTemplate,
    TemplateError,
    build_augmented_prompt,
    build_basic_prompt,
    count_tokens,
    enforce_budget,
    load_template,
)
from .protocols import ProtocolInfo, map_l4_protocol, map_l7_protocol
from .providers import (
    FixtureGeoProvider,
    FixtureThreatProvider,
    GeoInfo,
    HTTPGeoProvider,
    HTTPThreatProvider,
    ProviderError,
    ThreatIntel,
    TTLCache,
)

__version__ = "0.1.0"
