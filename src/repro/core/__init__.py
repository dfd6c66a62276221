"""SOFT — the paper's primary contribution.

Seed collection from docs and regression suites, the ten
boundary-value-generation patterns, the execution runner, the pluggable
oracle pipeline (crash, differential, error-conformance, and the
metamorphic TLP/NoREC pair), and campaign orchestration.
"""

from .campaign import (
    BUDGET_24_HOURS,
    BUDGET_TWO_WEEKS,
    DEFAULT_CHECKPOINT_EVERY,
    Campaign,
    CampaignResult,
    run_campaign,
    run_campaigns,
)
from .clauses import ClauseBoundaryGenerator
from .collect import Seed, SeedCollector
from .config import CampaignConfig, fault_spec
from .literals import boundary_literals, boundary_repeat_counts
from .minimize import (
    CrashProbe,
    DivergenceProbe,
    MetamorphicProbe,
    MinimizationResult,
    Minimizer,
    Probe,
    minimize_poc,
)
from .oracles import (
    ConformanceFinding,
    CrashOracle,
    DiscoveredBug,
    DivergenceFinding,
    Finding,
    MetamorphicFinding,
    NoRECOracle,
    OraclePipeline,
    OracleStateError,
    TLPOracle,
    build_pipeline,
    parse_oracle_names,
)
from .patterns import CAST_TARGETS, GeneratedCase, PatternEngine
from .tables import BASE_QUERY, PREDICATE_PREFIX, TABLE_NAME, TABLE_SETUP
from .report import (
    Table4Row,
    feedback_summary,
    format_findings,
    format_resilience,
    format_table4,
    render_bug_report,
    render_finding,
    resilience_summary,
    table4_rows,
)
from .runner import Outcome, Runner

__all__ = [
    "BASE_QUERY", "BUDGET_24_HOURS", "BUDGET_TWO_WEEKS", "CAST_TARGETS",
    "Campaign", "CampaignConfig", "CampaignResult", "ClauseBoundaryGenerator",
    "ConformanceFinding", "fault_spec",
    "CrashOracle", "CrashProbe", "DEFAULT_CHECKPOINT_EVERY",
    "DiscoveredBug", "DivergenceFinding", "DivergenceProbe", "Finding",
    "GeneratedCase", "MetamorphicFinding", "MetamorphicProbe", "MinimizationResult",
    "Minimizer", "NoRECOracle", "OraclePipeline", "OracleStateError",
    "Outcome", "PREDICATE_PREFIX", "PatternEngine", "Probe", "Runner",
    "Seed", "SeedCollector", "TABLE_NAME", "TABLE_SETUP", "TLPOracle",
    "Table4Row", "boundary_literals", "boundary_repeat_counts",
    "build_pipeline", "feedback_summary",
    "format_findings", "format_resilience", "format_table4", "minimize_poc",
    "parse_oracle_names", "render_bug_report", "render_finding",
    "resilience_summary", "run_campaign", "run_campaigns", "table4_rows",
]
