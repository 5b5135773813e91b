"""dynsel: subset selection under dynamically changing cost constraints."""

__version__ = "0.4.0"

from .core import EvalCounter, phi_ratio, substream
from .algorithms import (AdaptiveGreedy, Eamc, Gga, Nsga2, Pomc,
                         brute_force_front, gga, knapsack_opt_value)
from .dynamics import (BudgetSchedule, RunRecord, gen_schedule, load_schedule,
                       preset_schedule, run_dynamic, save_schedule)
from .analysis import (bonferroni_posthoc, check_phi_approx, kruskal_wallis,
                       offline_errors, partial_offline_error)

__all__ = [
    "AdaptiveGreedy", "BudgetSchedule", "Eamc", "EvalCounter", "Gga", "Nsga2",
    "Pomc", "RunRecord", "bonferroni_posthoc", "brute_force_front",
    "check_phi_approx", "gen_schedule", "gga", "knapsack_opt_value",
    "kruskal_wallis", "load_schedule", "offline_errors",
    "partial_offline_error", "phi_ratio", "preset_schedule", "run_dynamic",
    "save_schedule", "substream",
]
