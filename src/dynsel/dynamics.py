"""Budget-change schedules and the dynamic run harness.

A run walks a schedule of signed budget perturbations through one solver
protocol, the same for all six algorithms: the solver is built at the
initial budget and warmed up, then every change is `set_budget(b)`,
`run(tau)` and `answer_value()`.  The iterative solvers (POMC, EAMC,
NSGA-II) spend exactly `tau` evaluations between changes; the greedy
procedures react to each change in `set_budget`, and their evaluations are
recorded but not charged against tau.  The answer is snapshotted right
before every change (and once more at the end), so a schedule with k
deltas yields k + 1 records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isfinite

from .algorithms import AdaptiveGreedy, Eamc, Gga, Nsga2, Pomc
from .core import substream

ALL_ALGORITHMS = ("gga", "adgga", "pomc", "pomc-wp", "eamc", "nsga2")

DEFAULT_WARMUP_EVALS = 10_000  # POMC^wp: evaluations before the first change


@dataclass
class BudgetSchedule:
    """Initial budget, clamp bounds and the signed per-change deltas."""

    b_init: float
    b_min: float
    b_max: float
    deltas: list
    tau: int
    r: float
    seed: int | None = None

    def __post_init__(self):
        for name in ("b_init", "b_min", "b_max", "r"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {getattr(self, name)!r}")
        if self.b_min < 0:
            raise ValueError(f"b_min must be non-negative, got {self.b_min!r}")
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau!r}")
        if not self.b_min <= self.b_init <= self.b_max:
            raise ValueError(f"need b_min <= b_init <= b_max, got b_min = "
                             f"{self.b_min!r}, b_init = {self.b_init!r}, "
                             f"b_max = {self.b_max!r}")
        if any(abs(d) > self.r + 1e-12 for d in self.deltas):
            raise ValueError("delta outside [-r, r]")

    @property
    def count(self) -> int:
        return len(self.deltas)

    def budgets(self) -> list:
        """Budget trajectory: initial value, then one post-clamp value per change."""
        out = [float(self.b_init)]
        b = float(self.b_init)
        for d in self.deltas:
            b = min(max(b + d, self.b_min), self.b_max)
            out.append(b)
        return out


def gen_schedule(b_init, b_min, b_max, r, count, tau, rng,
                 integer_deltas=False, seed=None) -> BudgetSchedule:
    """Random change sequence: two-point {-r, r} draws, or nonzero integers
    in [-r, r] when `integer_deltas` is set."""
    if r <= 0:
        raise ValueError("r must be positive")
    if integer_deltas and r < 1:
        raise ValueError(f"integer deltas need r >= 1, got r = {r!r}")
    if count < 1:
        raise ValueError("need at least one change")
    deltas = []
    for _ in range(count):
        if integer_deltas:
            d = 0
            while d == 0:
                d = int(rng.integers(-int(r), int(r) + 1))
            deltas.append(float(d))
        else:
            deltas.append(float(r) if rng.random() < 0.5 else -float(r))
    return BudgetSchedule(b_init=float(b_init), b_min=float(b_min),
                          b_max=float(b_max), deltas=deltas, tau=int(tau),
                          r=float(r), seed=seed)


SCHEDULE_PRESETS = {
    # B_init = 10 within [5, 30], delta in {-1, 1}
    "influence": dict(b_init=10, b_min=5, b_max=30, r=1, integer_deltas=False),
    # B_init = 500 within [250, 750], integer delta in [-20, 20]
    "outdegree": dict(b_init=500, b_min=250, b_max=750, r=20, integer_deltas=True),
    # B_init = 1 within [0, 3], delta in {-0.1, 0.1}
    "random-cost": dict(b_init=1.0, b_min=0.0, b_max=3.0, r=0.1, integer_deltas=False),
}


# schedule file keys, config keys and `generate schedule` flags, by the
# gen_schedule parameter each one sets
SCHEDULE_KEYS = {"binit": "b_init", "bmin": "b_min", "bmax": "b_max", "r": "r"}


def preset_schedule(name, rng, count=200, tau=1000, seed=None, **given):
    """Schedule from preset `name`'s parameters with every `given` one laid
    over them; with `name` None, `given` must hold all of SCHEDULE_KEYS."""
    if name is not None and name not in SCHEDULE_PRESETS:
        raise ValueError(f"unknown schedule preset {name!r}")
    params = {**SCHEDULE_PRESETS.get(name, {}), **given}
    missing = [key for key, param in SCHEDULE_KEYS.items() if param not in params]
    if missing:
        raise ValueError(f"schedule needs a preset or {', '.join(missing)}")
    return gen_schedule(count=count, tau=tau, rng=rng, seed=seed, **params)


def save_schedule(schedule: BudgetSchedule, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"binit={schedule.b_init!r}\n")
        fh.write(f"bmin={schedule.b_min!r}\n")
        fh.write(f"bmax={schedule.b_max!r}\n")
        fh.write(f"r={schedule.r!r}\n")
        fh.write(f"tau={schedule.tau}\n")
        fh.write(f"seed={schedule.seed if schedule.seed is not None else ''}\n")
        for d in schedule.deltas:
            fh.write(f"{d!r}\n")


def _finite(text) -> float:
    """`text` as a finite float; anything else raises ValueError."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# the header keys `save_schedule` writes, in its order
SCHEDULE_FILE_KEYS = ("binit", "bmin", "bmax", "r", "tau", "seed")


def load_schedule(path) -> BudgetSchedule:
    """The schedule `save_schedule` wrote; a missing, repeated or unknown
    key, a line that is not a finite number (an integer for tau and seed)
    or a value `BudgetSchedule` refuses (a negative tau, say) is refused
    with a ValueError that names the file, and the line where there is
    one."""
    header, lines = {}, {}  # key -> its value, key -> its line number
    deltas = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in SCHEDULE_FILE_KEYS:
                    raise ValueError(
                        f"{path}: line {lineno}: unknown key {key!r}; a "
                        f"schedule file holds {', '.join(SCHEDULE_FILE_KEYS)}")
                if key in header:
                    raise ValueError(f"{path}: line {lineno}: {key}= repeats "
                                     f"line {lines[key]}")
                header[key] = value.strip()
                lines[key] = lineno
                continue
            try:
                deltas.append(_finite(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: {line!r} is not a "
                                 f"finite budget change") from None

    def value(key, kind):
        if key not in header:
            raise ValueError(f"{path}: the schedule file has no {key}= line")
        try:
            return kind(header[key])
        except ValueError:
            what = "an integer" if kind is int else "a finite number"
            raise ValueError(f"{path}: line {lines[key]}: {key}={header[key]!r} "
                             f"is not {what}") from None

    seed = value("seed", int) if header.get("seed") else None
    fields = dict(b_init=value("binit", _finite), b_min=value("bmin", _finite),
                  b_max=value("bmax", _finite), tau=value("tau", int),
                  r=value("r", _finite))
    try:
        return BudgetSchedule(deltas=deltas, seed=seed, **fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class RunRecord:
    """(f, cost) of the answer at the end of one epoch."""

    change_index: int
    budget: float
    algorithm: str
    best_f: float
    best_cost: float
    evaluations: int
    wall_ms: float


RUN_CSV_COLUMNS = ("run_id", "seed", "change_index", "budget", "algorithm",
                   "best_f", "best_cost", "evaluations", "wall_ms")


def write_run_csv(path, run_id, seed, records) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_CSV_COLUMNS)
        for rec in records:
            writer.writerow([run_id, seed, rec.change_index, repr(rec.budget),
                             rec.algorithm, repr(rec.best_f), repr(rec.best_cost),
                             rec.evaluations, f"{rec.wall_ms:.3f}"])


# the columns read back into a RunRecord, in its field order, with their types
RUN_CSV_FIELDS = (("change_index", int), ("budget", float), ("algorithm", str),
                  ("best_f", float), ("best_cost", float),
                  ("evaluations", int), ("wall_ms", float))
# the float columns that must also be finite (read_run_csv checks them)
_FINITE_RUN_CSV_FIELDS = ("budget", "best_f", "best_cost")


def read_run_csv(path):
    """The records `write_run_csv` wrote, its columns found by header name.
    A missing column, a short row or a field that is not a number (a
    finite one for budget, best_f and best_cost) is refused with a
    ValueError naming the file, and the line or column."""
    import csv

    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for name, _kind in RUN_CSV_FIELDS:
            if name not in header:
                raise ValueError(f"{path}: the run file has no {name} column")
        fields = [(header.index(name), kind) for name, kind in RUN_CSV_FIELDS]
        for row in rows:
            if not row:
                continue
            try:
                rec = RunRecord(*[kind(row[i]) for i, kind in fields])
            except (IndexError, ValueError):
                rec = None
            if rec is None or not (isfinite(rec.budget) and isfinite(rec.best_f)
                                   and isfinite(rec.best_cost)):
                raise ValueError(f"{path}: line {rows.line_num}: "
                                 f"{_bad_field(row, header)}")
            records.append(rec)
    return records


def _bad_field(row, header) -> str:
    """What is wrong with a run-file row that did not parse."""
    for name, kind in RUN_CSV_FIELDS:
        i = header.index(name)
        if i >= len(row):
            return f"the row has no {name} field"
        try:
            value = kind(row[i])
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            return f"{name} {row[i]!r} is not {noun}"
        if name in _FINITE_RUN_CSV_FIELDS and not isfinite(value):
            return f"{name} {row[i]!r} is not a finite number"
    return "the row does not parse"


def make_solver(name, f, c, budget, rng, params=None):
    """Construct a solver by algorithm name."""
    params = params or {}
    if name == "gga":
        return Gga(f, c, budget)
    if name == "adgga":
        return AdaptiveGreedy(f, c, budget)
    if name in ("pomc", "pomc-wp"):
        return Pomc(f, c, budget, rng)
    if name == "eamc":
        return Eamc(f, c, budget, rng)
    if name == "nsga2":
        return Nsga2(f, c, budget, rng, delta_cap=params.get("delta_cap", 1.0))
    raise ValueError(f"unknown algorithm {name!r}")


def _warmup_evals(name, params) -> int:
    return int(params.get("warmup_evals",
                          DEFAULT_WARMUP_EVALS if name == "pomc-wp" else 0))


def planned_evals(name, schedule: BudgetSchedule, params=None) -> int:
    """The evaluations `run_dynamic` will count against warm-up and tau:
    warm-up plus tau per budget, and 0 for gga and adgga, whose scans are
    not charged to tau."""
    if name in ("gga", "adgga"):
        return 0
    return _warmup_evals(name, params or {}) + schedule.tau * (schedule.count + 1)


def run_dynamic(name, f, c, schedule: BudgetSchedule, seed, params=None):
    """Execute one algorithm over one change sequence.

    Each record reports the evaluations counted since warm-up: exact
    multiples of tau for the iterative algorithms, the greedy procedures'
    own scans, which are kept outside the tau budget, for gga and adgga.
    """
    params = params or {}
    warmup_evals = _warmup_evals(name, params)
    if warmup_evals < 0:
        raise ValueError(f"[run] warmup must be non-negative, got {warmup_evals}")
    budgets = schedule.budgets()
    solver = make_solver(name, f, c, budgets[0], substream(seed, "run", name),
                         params=params)
    counter = solver.counter
    solver.run(warmup_evals)
    warmed = counter.count
    records = []
    for i, b in enumerate(budgets):
        t0 = time.perf_counter()
        solver.set_budget(b)
        solver.run(schedule.tau)
        best_f, best_cost = solver.answer_value()
        wall = (time.perf_counter() - t0) * 1000
        records.append(RunRecord(i, b, name, best_f, best_cost,
                                 counter.count - warmed, wall))
    return records
