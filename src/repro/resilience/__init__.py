"""Campaign-level self-healing for REWL runs (DESIGN.md §14).

Numerical guard rails, bounded rollback, window quarantine with exchange
re-pairing, and terminate-and-harvest budgets — everything that turns
"one window died, the campaign aborted" into "the campaign finished,
degraded, with every disposition on record".
"""

from repro.resilience.guards import (
    GUARD_MODES,
    GuardPolicy,
    GuardViolation,
    check_team,
    check_walker,
)
from repro.resilience.supervisor import (
    RESILIENCE_ENV_VAR,
    BudgetPolicy,
    CampaignSupervisor,
    ResilienceConfig,
    WindowState,
)

__all__ = [
    "GUARD_MODES",
    "RESILIENCE_ENV_VAR",
    "BudgetPolicy",
    "CampaignSupervisor",
    "GuardPolicy",
    "GuardViolation",
    "ResilienceConfig",
    "WindowState",
    "check_team",
    "check_walker",
]
