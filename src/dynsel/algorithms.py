"""The five solvers plus exhaustive oracles.

Every solver derives from `_Solver` and shares one protocol: `set_budget(b)`
applies a dynamic change, `run(evals)` spends exactly `evals` evaluations
(a negative count is refused), and `answer_value(budget)` reads the best
stored (f, cost) within a bound (the current one by default).  Each solver
owns its `counter`.

Greedy (GGA, `Gga`) and its adaptive variant (AdGGA) draw no random numbers
and do their whole work in `set_budget`.  Every round is counted as a full
rescan of its candidates, but f and c are called only in the first round of
an epoch (the rounds between two additions, `_Epoch`), and `Gga` replays
without a call the epochs of its last fill that a change leaves as they
were.  None of this is charged against `run`, which does nothing, and their
answer holds for the current bound only.  POMC, EAMC and NSGA-II are
iterative: every f and c call they make, NSGA-II's f(V) and c(V) included,
is one evaluation through `evaluate`, the single place that counts and
applies the infeasibility cutoff.  A child that flips no bit is counted
without calling f or c.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .core import NEG_INF, POS_INF, EvalCounter


class TooLargeError(ValueError):
    """Exhaustive enumeration requested beyond the hard cap."""


class NoFeasibleMemberError(RuntimeError):
    """Answer extraction found no member within the current budget."""


BRUTE_FORCE_CAP = 24


def evaluate(f, c, bits, counter, cutoff):
    """One counted evaluation: c first, then f only when cost <= cutoff.

    Returns (f or NEG_INF, cost).  The cutoff is B + 1 for POMC's
    bi-objective reformulation, B for EAMC and +inf for NSGA-II.
    """
    counter.increment()
    cost = float(c(bits))
    if cost > cutoff:
        return NEG_INF, cost
    return float(f(bits)), cost


def _enumerable(n):
    if n > BRUTE_FORCE_CAP:
        raise TooLargeError(f"n = {n} exceeds enumeration cap {BRUTE_FORCE_CAP}")


def all_subsets(n):
    """Every subset of an n-element ground set as 0/1 rows, in mask order
    (row k of the enumeration is the binary expansion of k, bit i = element i)."""
    _enumerable(n)
    total = 1 << n
    for start in range(0, total, 4096):
        # the masks' little-endian bytes, unpacked straight to uint8 rows
        masks = np.arange(start, min(start + 4096, total), dtype="<u4")
        yield from np.unpackbits(masks.view(np.uint8).reshape(-1, 4), axis=1,
                                 count=n, bitorder="little")


def _subsets_within(n, c, top):
    """(bits, cost) of every subset with c(bits) <= top, in mask order.

    A cost that declares `monotone = True` prices no superset of a set
    already priced above `top`: every set with an immediate subset marked
    as over `top` is marked without calling c, since it costs at least as
    much (the Apriori rule, Agrawal & Srikant, VLDB 1994).  Any other
    cost, routing's among them, is called on every subset.
    """
    _enumerable(n)
    if not getattr(c, "monotone", False):
        for bits in all_subsets(n):
            cost = float(c(bits))
            if cost <= top:
                yield bits, cost
        return
    over = bytearray(1 << n)
    for k, bits in enumerate(all_subsets(n)):
        rest = k
        while rest:
            low = rest & -rest
            if over[k ^ low]:
                break
            rest ^= low
        if rest:
            over[k] = 1
            continue
        cost = float(c(bits))
        if cost <= top:
            yield bits, cost
        else:
            over[k] = 1


def brute_force_front(f, c, budgets):
    """Optimum value for each budget in `budgets` from a single enumeration,
    n <= 24 (NEG_INF for a budget nothing fits)."""
    budgets = sorted(budgets)
    best = [NEG_INF] * len(budgets)
    top = budgets[-1] if budgets else NEG_INF
    for bits, cost in _subsets_within(f.n, c, top):
        val = float(f(bits))
        for i in range(bisect_left(budgets, cost), len(budgets)):
            if val > best[i]:
                best[i] = val
    return dict(zip(budgets, best))


def knapsack_opt_value(f, c, budget) -> float:
    """Exact optimum of a linear knapsack (0/1 DP) with item values
    `f.values` and integer item costs `c.weights`.

    Independent of any greedy trace; used where enumeration is out of reach.
    """
    costs, values = c.weights.tolist(), f.values.tolist()
    if any(cost != int(cost) for cost in costs):
        raise ValueError("DP oracle needs integer costs")
    cap = int(math.floor(budget))
    if cap < 0:
        return 0.0
    dp = [0.0] * (cap + 1)
    for cost, value in zip(costs, values):
        ci = int(cost)
        for w in range(cap, ci - 1, -1):
            cand = dp[w - ci] + value
            if cand > dp[w]:
                dp[w] = cand
    return dp[cap]


# ---------------------------------------------------------------------------
# the solver protocol


def _bound(budget) -> float:
    """`budget` as a float; a negative bound is refused with a ValueError."""
    b = float(budget)
    if not b >= 0:
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    return b


class _Solver:
    """State and answer rule every solver shares.

    A solver holds f, c, n, the current bound and the `EvalCounter` it
    counts its own evaluations on.  Each subclass lists its stored (f, cost)
    pairs in `_stored()`, in the order ties go; `answer_value` reads the
    answer from them.  `run` checks the count and leaves the work to the
    subclass's `_run`.  The constructor and every `set_budget` refuse a
    negative bound (`_bound`).
    """

    def __init__(self, f, c, budget):
        self.f = f
        self.c = c
        self.n = f.n
        self.budget = _bound(budget)
        self.counter = EvalCounter()

    def set_budget(self, budget) -> None:
        """Dynamic change; stored values are left as they are."""
        self.budget = _bound(budget)

    def run(self, evals: int) -> None:
        """Spend exactly `evals` evaluations in `_run`; a negative count is
        refused with a ValueError."""
        if evals < 0:
            raise ValueError(f"evals must be non-negative, got {evals}")
        self._run(evals)

    def answer_value(self, budget=None):
        """(f, cost) of the first stored pair with the highest f among those
        whose cost fits `budget` (the current bound when None); free."""
        b = self.budget if budget is None else float(budget)
        best = None
        for fc in self._stored():
            if fc[1] <= b and (best is None or fc[0] > best[0]):
                best = fc
        if best is None:
            raise NoFeasibleMemberError(f"no stored answer with cost <= {b}")
        return best


# ---------------------------------------------------------------------------
# greedy


def _fc(f, c, x):
    """(f(x), c(x)), calling c first as `evaluate` does."""
    cost = float(c(x))
    return float(f(x)), cost


def _scan(f, c, x, candidates):
    """(f, c) of x + v for each v in `candidates`, leaving x as it was.

    Uncounted: the caller charges one evaluation per pair it uses.
    """
    out = []
    for v in candidates:
        x[v] = 1
        out.append(_fc(f, c, x))
        x[v] = 0
    return out


def _ratio(v, fx, cx, fv, cv):
    """The marginal ratio of element v, from a set with (f, c) = (fx, cx)
    to the same set plus v, with (fv, cv): the gain in f per unit of cost,
    +inf for a gain at no cost and 0 for no gain at no cost.  A removal
    passes the two ends swapped, so its ratio is the loss per unit of cost
    saved.  A NaN ratio is refused with a ValueError naming v."""
    dc, gain = cv - cx, fv - fx
    ratio = (POS_INF if gain > 0 else 0.0) if dc == 0 else gain / dc
    if ratio != ratio:
        raise ValueError(f"greedy: the marginal ratio of element {v} is NaN "
                         f"(f {fx} -> {fv}, cost {cx} -> {cv})")
    return ratio


class _Epoch:
    """The greedy rounds between two additions.

    An epoch starts from x, with (f, c) of x as (fx, cx), over the
    candidates V' in index order; `scan[i]` is the (f, c) of
    x + candidates[i].  While x does not change a round's rescan would
    return the same scan, so each round pops the next position of `order`:
    the positions by descending marginal ratio (`_ratio`), ties by index (a
    stable sort), which is the first-maximum-by-index of one argmax pass
    per round.
    """

    __slots__ = ("x", "fx", "cx", "candidates", "scan", "order")

    def __init__(self, f, c, x, fx, cx, candidates):
        self.x, self.fx, self.cx = x, fx, cx
        self.candidates = candidates
        self.scan = _scan(f, c, x, candidates)
        ratios = [_ratio(v, fx, cx, fv, cv)
                  for v, (fv, cv) in zip(candidates, self.scan)]
        self.order = sorted(range(len(ratios)), key=ratios.__getitem__,
                            reverse=True)

    def addition(self, budget):
        """The index in `order` of the round that adds its element under
        `budget`, the first whose x + v fits; None when no round does."""
        scan = self.scan
        for k, i in enumerate(self.order):
            if scan[i][1] <= budget:
                return k
        return None

    def charge(self, k):
        """Evaluations of the rounds up to the addition at `k` (every round
        when `k` is None): round j of the epoch rescans len(V') - j."""
        m = len(self.candidates)
        rounds = m if k is None else k + 1
        return rounds * m - rounds * (rounds - 1) // 2


def _walk(f, c, trace, budget, counter):
    """Alg. 1 from the last epoch of `trace` on, under `budget`: each round
    drops its element from V' and adds it when x + v fits.  An addition
    opens a new epoch, scanned over the V' left, and appended to `trace`;
    the walk ends at the epoch that adds nothing, which it returns.  Every
    round is charged one evaluation per element of V', as a full rescan.
    """
    epoch = trace[-1]
    while True:
        k = epoch.addition(budget)
        counter.increment(epoch.charge(k))
        if k is None:
            return epoch
        popped = set(epoch.order[:k + 1])
        i = epoch.order[k]
        x = epoch.x.copy()
        x[epoch.candidates[i]] = 1
        rest = [v for j, v in enumerate(epoch.candidates) if j not in popped]
        epoch = _Epoch(f, c, x, *epoch.scan[i], rest)
        trace.append(epoch)


def _with_best_singleton(x, fx, cx, singletons, budget, counter):
    """(bits, f, cost) of the better of x and the best feasible singleton.

    `singletons[v]` is the stored (f, c) of {v}; each feasible one is charged
    one evaluation.  Ties keep x, then the lowest element index.
    """
    best_v, best_val, feasible = None, NEG_INF, 0
    for v, (fv, cv) in enumerate(singletons):
        if cv <= budget:
            feasible += 1
            if fv > best_val:
                best_v, best_val = v, fv
    counter.increment(feasible)
    if best_v is not None and best_val > fx:
        bits = np.zeros(x.size, dtype=np.uint8)
        bits[best_v] = 1
        return bits, best_val, singletons[best_v][1]
    return x, fx, cx


def _first_epoch(f, c, x_bits):
    """The epoch of a fill from x_bits (copied), over every element not in
    it; f and c are called on x_bits and on each x_bits + v."""
    x = x_bits.copy()
    return _Epoch(f, c, x, *_fc(f, c, x), np.flatnonzero(x == 0).tolist())


def _greedy_extend(f, c, x_bits, budget, counter):
    """Alg. 1 body from x_bits: scan V', add the argmax marginal-ratio
    element when feasible, and drop the argmax from V' regardless of
    feasibility, one `_Epoch` per addition (`_walk`).

    Every round is charged one evaluation per element of V', as in a full
    rescan, but f and c are only called again after an element is added.
    Ties go to the lowest element index.  Returns (x, f(x), c(x), first
    scan), the first scan being the (f, c) of x_bits + v for every v in V'
    in index order; from the empty set, these are the singletons.
    """
    first = _first_epoch(f, c, x_bits)
    counter.increment()  # x_bits itself
    last = _walk(f, c, [first], budget, counter)
    return last.x, last.fx, last.cx, first.scan


def gga(f, c, budget, counter=None):
    """Generalized greedy: ratio-greedy fill, then compare with the best
    feasible singleton, read from the fill's first scan.  Returns
    (bits, f, cost) of the answer."""
    counter = counter if counter is not None else EvalCounter()
    x, fx, cx, singletons = _greedy_extend(
        f, c, np.zeros(f.n, dtype=np.uint8), budget, counter)
    return _with_best_singleton(x, fx, cx, singletons, budget, counter)


class _Greedy(_Solver):
    """The protocol of the greedy solvers.  The constructor evaluates
    nothing; `set_budget(b)` makes the whole change and stores the answer's
    (f, cost); `run` has nothing to do, because greedy evaluations are
    counted but not charged against tau."""

    def __init__(self, f, c, budget):
        super().__init__(f, c, budget)
        self._answer = None  # (f, cost), set by set_budget

    def _run(self, evals: int) -> None:
        """Greedy spends no share of tau."""

    def _stored(self):
        return () if self._answer is None else (self._answer,)

    def answer_value(self, budget=None):
        """Override: a greedy answer holds for its current bound only, so
        any other bound raises ValueError."""
        if budget is not None and float(budget) != self.budget:
            raise ValueError(f"a greedy answer holds for its current bound "
                             f"{self.budget}, not {budget}")
        return super().answer_value()


class Gga(_Greedy):
    """GGA under a moving budget: every change answers what `gga` restarted
    from the empty set answers, and is charged what it is charged.

    The solver holds the epochs of its last fill (`_trace`).  A change
    replays each epoch whose addition is the same under the new bound as
    under the old, charging its rounds without calling f or c, and resumes
    the walk at the first epoch whose addition differs: only the epochs
    after it are scanned again.
    """

    def __init__(self, f, c, budget):
        super().__init__(f, c, budget)
        self._trace = []  # the epochs of the fill under self.budget

    def set_budget(self, budget) -> None:
        b = _bound(budget)
        f, c, counter, trace = self.f, self.c, self.counter, self._trace
        if not trace:
            trace.append(_first_epoch(f, c, np.zeros(self.n, dtype=np.uint8)))
        counter.increment()  # the empty set, as `gga` charges it
        e = 0
        while e < len(trace) - 1:
            k = trace[e].addition(b)
            if k != trace[e].addition(self.budget):
                break
            counter.increment(trace[e].charge(k))
            e += 1
        del trace[e + 1:]
        self.budget = b  # first, so a walk that raises leaves the trace valid
        last = _walk(f, c, trace, b, counter)
        self._answer = _with_best_singleton(last.x, last.fx, last.cx,
                                            trace[0].scan, b, counter)[1:]


class AdaptiveGreedy(_Greedy):
    """AdGGA: keeps its working set across budget changes.

    The first change fills the working set from the empty set.  Later
    decreases strip the argmin marginal-ratio element until feasible;
    increases greedily extend over the unselected elements.  The answer is
    the better of the working set and the best feasible singleton, but the
    singleton never overwrites the working set.  Each answer is charged one
    evaluation for the working set, whose (f, c) the scans already hold,
    plus one per feasible singleton, whose values the first fill's scan
    holds.
    """

    def __init__(self, f, c, budget):
        super().__init__(f, c, budget)
        self.x = None  # the working set, from the first change on
        self._value = None  # (f, c) of x
        self._singletons = None

    def _shrink(self, new_budget):
        """Strip elements until x fits; returns (f, c) of the result.  Each
        step removes the element of lowest marginal ratio (`_ratio` from
        x - v to x), ties to the lowest index."""
        x = self.x
        fx, cx = self._value
        self.counter.increment()  # x itself, answered from its stored value
        while cx > new_budget:  # c(empty) = 0 fits any bound >= 0
            selected = np.flatnonzero(x)
            scan = []
            for v in selected:
                x[v] = 0
                scan.append(_fc(self.f, self.c, x))
                x[v] = 1
            self.counter.increment(len(scan))
            ratios = [_ratio(v, fv, cv, fx, cx)
                      for v, (fv, cv) in zip(selected, scan)]
            best_i = ratios.index(min(ratios))  # ties: lowest index wins
            x[selected[best_i]] = 0
            fx, cx = scan[best_i]
        return fx, cx

    def set_budget(self, budget) -> None:
        budget = _bound(budget)
        f, c, counter = self.f, self.c, self.counter
        if self.x is None:
            self.x, fx, cx, self._singletons = _greedy_extend(
                f, c, np.zeros(f.n, dtype=np.uint8), budget, counter)
        elif budget < self.budget:
            fx, cx = self._shrink(budget)
        elif budget > self.budget:
            self.x, fx, cx, _ = _greedy_extend(f, c, self.x, budget, counter)
        else:
            fx, cx = self._value
        self.budget, self._value = budget, (fx, cx)
        counter.increment()  # the answer's evaluation of the working set
        self._answer = _with_best_singleton(self.x, fx, cx, self._singletons,
                                            budget, counter)[1:]


# ---------------------------------------------------------------------------
# POMC


def _mutation_draws(rng, evals, n):
    """The random draws of `evals` mutation iterations, as
    (u, flips, flipped) per iteration: u in [0, 1) picks the parent, the
    bool row `flips` is a per-bit flip at 1/n, `flipped` is `flips.any()`.

    Draws are taken in chunks of 4096 parent draws, each chunk's mutation
    rows in consecutive blocks of about 32768 draws.  `random((k, n))` fills
    row by row, so the blocks take the same stream as one `(chunk, n)` draw
    while holding about 256 KB of floats instead of 4096 n.  POMC and EAMC
    share this layout.
    """
    rate = 1.0 / n
    rng_random = rng.random
    block = max(1, 32768 // n)
    done = 0
    while done < evals:
        chunk = min(4096, evals - done)
        sel = rng_random(chunk).tolist()
        for start in range(0, chunk, block):
            flips = rng_random((min(block, chunk - start), n)) < rate
            flipped = flips.any(axis=1).tolist()
            yield from zip(sel[start:start + len(flipped)], flips, flipped)
        done += chunk


class Pomc(_Solver):
    """Pareto optimization (GSEMO) over (f1, f2) = (f, -cost).

    Vectors are stamped at creation and never recomputed, so budget changes
    cost no evaluations.  The members, mutually non-dominated, are held in
    cost order (`_bits`, `_f1`, `_cost`), a staircase along which cost and
    f1 both strictly rise.
    """

    def __init__(self, f, c, budget, rng):
        super().__init__(f, c, budget)
        self.rng = rng
        zeros = np.zeros(self.n, dtype=np.uint8)
        f1, cost = evaluate(f, c, zeros, self.counter, self.budget + 1)
        self._bits, self._f1, self._cost = [zeros], [f1], [cost]

    def __len__(self):
        return len(self._bits)

    def _insert(self, child, f1, cost):
        """Add `child` unless the last member with cost <= its own, the only
        one that can, strictly dominates it (a -inf child fails against the
        cost-0 member).  It replaces the members it weakly dominates: the run
        from its cost on whose f1 is no higher than its own."""
        values, costs = self._f1, self._cost
        i = bisect_right(costs, cost) - 1
        if values[i] > f1 or (values[i] == f1 and costs[i] < cost):
            return
        lo = hi = bisect_left(costs, cost)
        while hi < len(costs) and values[hi] <= f1:
            hi += 1
        self._bits[lo:hi] = [child]
        values[lo:hi] = [f1]
        costs[lo:hi] = [cost]

    def _run(self, evals: int) -> None:
        """`evals` iterations, each a uniform parent (member `int(u * len)`
        in cost order), a per-bit flip at 1/n (drawn by `_mutation_draws`)
        and one evaluation (f1 = -inf iff cost > budget + 1).  A child that
        flips no bit equals its parent, so it could only take its parent's
        place: it is counted, f and c are not called, and the population is
        left as it is.
        """
        f, c, counter, cutoff = self.f, self.c, self.counter, self.budget + 1
        bits, insert = self._bits, self._insert
        for u, flips, flipped in _mutation_draws(self.rng, evals, self.n):
            if flipped:
                child = bits[int(u * len(bits))] ^ flips
                insert(child, *evaluate(f, c, child, counter, cutoff))
            else:
                counter.increment()

    def _stored(self):
        return zip(self._f1, self._cost)

    def check_invariants(self) -> None:
        """Debug hook: cost and f1 strictly rise and no member is -inf,
        which in cost order is pairwise non-dominance."""
        values, costs = self._f1, self._cost
        if NEG_INF in values:
            raise AssertionError("population holds a -inf member")
        for i in range(1, len(costs)):
            if costs[i] <= costs[i - 1] or values[i] <= values[i - 1]:
                raise AssertionError("population unsorted or dominated")


# ---------------------------------------------------------------------------
# EAMC


def _eamc_g(fval, cost, size, budget):
    """Budget-normalized surrogate f / (1 - e^(-c / B)), with the
    submodularity ratio alpha_f = 1 of every objective dynsel builds;
    g(empty) = f(empty)."""
    if size == 0:
        return fval
    denom = 1.0 - math.exp(-cost / budget) if cost > 0 else 0.0
    if denom <= 0.0:
        return POS_INF if fval > 0 else fval
    return fval / denom


class Eamc(_Solver):
    """EAMC: at most two solutions per subset size (best by g, best by f).

    Every member is feasible under the current budget; a change simply drops
    the members that became infeasible.
    """

    def __init__(self, f, c, budget, rng):
        super().__init__(f, c, budget)
        self.rng = rng
        zeros = np.zeros(self.n, dtype=np.uint8)
        entry = (zeros, *evaluate(f, c, zeros, self.counter, self.budget))
        self.bins = {0: [entry, entry]}  # size -> [U, V]
        self._rebuild_members()

    def _rebuild_members(self):
        members = []
        for u, v in self.bins.values():
            members.append(u)
            if v is not u:
                members.append(v)
        self._members = members

    def __len__(self):
        return len(self._members)

    def _g(self, fval, cost, size):
        return _eamc_g(fval, cost, size, self.budget)

    def _insert(self, child, fval, cost) -> None:
        """Offer a feasible child to the bin of its size."""
        size = int(np.count_nonzero(child))
        entry = (child, fval, cost)
        slot = self.bins.get(size)
        if slot is None:
            self.bins[size] = [entry, entry]
        else:
            u, v = slot
            changed = False
            if self._g(fval, cost, size) > self._g(u[1], u[2], size):
                slot[0] = entry
                changed = True
            if fval > v[1]:
                slot[1] = entry
                changed = True
            if not changed:
                return
        self._rebuild_members()

    def _run(self, evals: int) -> None:
        """`evals` offspring, each a uniform member mutated per bit at 1/n
        (the draws of `_mutation_draws`, as in `Pomc._run`) and evaluated
        with the cutoff at the budget.  A zero-flip child is counted and
        offered with its parent's stored (f, cost), without calling f or c:
        after a change re-ranks g, a copy of a bin's V can replace its U."""
        f, c, counter, budget = self.f, self.c, self.counter, self.budget
        for u, flips, flipped in _mutation_draws(self.rng, evals, self.n):
            members = self._members
            parent, fval, cost = members[int(u * len(members))]
            if flipped:
                child = parent ^ flips
                fval, cost = evaluate(f, c, child, counter, budget)
            else:
                child = parent
                counter.increment()
            if cost <= budget:
                self._insert(child, fval, cost)

    def set_budget(self, budget) -> None:
        """Remove every member with cost above the new bound; keep bin(0)."""
        self.budget = _bound(budget)
        for size, slot in list(self.bins.items()):
            kept = [m for m in slot if m[2] <= self.budget]
            if kept:  # a lone survivor fills both slots
                self.bins[size] = [kept[0], kept[-1]]
            else:
                del self.bins[size]
        self._rebuild_members()

    def _stored(self):
        return ((fval, cost) for _bits, fval, cost in self._members)

    def check_invariants(self) -> None:
        if len(self._members) > 2 * self.n + 2:
            raise AssertionError("population exceeds 2n + 2 members")
        for (_bits, _fval, cost) in self._members:
            if cost > self.budget:
                raise AssertionError("population holds an infeasible member")


# ---------------------------------------------------------------------------
# NSGA-II with elitism


def _fronts(f, c, size):
    """Deb's non-dominated fronts of the pairs (f[i], c[i]), f maximised and
    c minimised, as index lists, listed until they hold `size` members.

    Ranks come from one sweep (Jensen, IEEE TEC 2003) over the pairs in
    order of f descending, then c ascending, ties by index: each pair joins
    the first front whose last-placed member does not dominate it.  Within
    a front the sweep places c non-increasing, so the last-placed member
    has the front's lowest c and decides alone; its c never falls from one
    front to the next, so bisection over them finds that front.  Each
    front is then ordered as Deb's O(m²) procedure lists it: front 0 by
    index, front k + 1 by the position in front k of each member's last
    dominator there, ties by index.
    """
    order = sorted(range(len(f)), key=c.__getitem__)
    order.sort(key=[-fi for fi in f].__getitem__)
    swept, last_f, last_c = [], [], []  # per front: members in sweep order
    for i in order:
        fi, ci = f[i], c[i]
        # the fronts that dominate (fi, ci): those with last_c < ci, then
        # those with last_c == ci and a higher last f
        lo = bisect_left(last_c, ci)
        while lo < len(swept) and last_c[lo] == ci and last_f[lo] > fi:
            lo += 1
        if lo == len(swept):
            swept.append([i])
            last_f.append(fi)
            last_c.append(ci)
        else:
            swept[lo].append(i)
            last_f[lo], last_c[lo] = fi, ci
    fronts = [sorted(swept[0])]
    total = len(fronts[0])
    for k in range(1, len(swept)):
        if total >= size:
            break
        before = swept[k - 1]
        position = {i: p for p, i in enumerate(fronts[-1])}
        positions = [position[i] for i in before]
        # along the sweep -f and -c rise, so the dominators of j in front
        # k - 1 are the run with f >= f[j] and c <= c[j]
        neg_f = [-f[i] for i in before]
        neg_c = [-c[i] for i in before]
        front = sorted(swept[k], key=lambda j: (max(positions[
            bisect_left(neg_c, -c[j]):bisect_right(neg_f, -f[j])]), j))
        fronts.append(front)
        total += len(front)
    return fronts


def _crowding(f, c, front, out):
    """Write the crowding distance of each member i of `front` to out[i].

    Members of a front do not dominate each other, so a higher f means a
    higher c and an equal f an equal c: stable sorts by f and by c give one
    permutation.  Its two ends get +inf; every other member adds its
    neighbours' f gap over the f span, then their c gap over the c span.
    Fronts of one or two members are all ends.
    """
    if len(front) <= 2:
        for i in front:
            out[i] = POS_INF
        return
    ordered = sorted(front, key=f.__getitem__)
    lo, hi = ordered[0], ordered[-1]
    out[lo] = out[hi] = POS_INF
    span_f, span_c = f[hi] - f[lo], c[hi] - c[lo]
    for prev, i, nxt in zip(ordered, ordered[1:-1], ordered[2:]):
        dist = 0.0
        if span_f > 0:
            dist += (f[nxt] - f[prev]) / span_f
        if span_c > 0:
            dist += (c[nxt] - c[prev]) / span_c
        out[i] = dist


class Nsga2(_Solver):
    """NSGA-II on (maximize f_N, minimize c_N) with best-feasible elitism.

    Solutions with cost up to budget + delta_cap are kept unpenalized to
    prepare for upcoming changes; beyond that, both objectives are pushed
    into the dominated region proportionally to the violation, scaled by
    f_max = f(V) and c_max = c(V), one counted evaluation in the
    constructor.  Once per sort, the best feasible member's crowding
    distance is set to +inf so it survives truncation.  Penalties are
    derived from stored raw values, so a budget change costs no
    evaluations.

    The parents are the rows of the `(pop_size, n)` uint8 matrix `parents`
    with their raw f, raw cost, rank and crowding distance in the lists
    `f_raw`, `c_raw`, `rank` and `crowding`.  The constructor fills them
    with pop_size copies of the seed individual, the empty set, which
    `is_seed` marks.  The copies stand for one individual: they share one
    rank and one crowding distance in every generation.
    """

    pop_size = 20
    crossover_rate = 0.9

    def __init__(self, f, c, budget, rng, *, delta_cap):
        super().__init__(f, c, budget)
        self.delta_cap = float(delta_cap)
        self.rng = rng
        self.f_max, self.c_max = evaluate(
            f, c, np.ones(self.n, dtype=np.uint8), self.counter, POS_INF)
        self.parents = np.zeros((self.pop_size, self.n), dtype=np.uint8)
        self.seed_value = evaluate(f, c, self.parents[0], self.counter, POS_INF)
        self.f_raw = [self.seed_value[0]] * self.pop_size
        self.c_raw = [self.seed_value[1]] * self.pop_size
        self.rank = [0] * self.pop_size
        self.crowding = [POS_INF] * self.pop_size
        self.is_seed = [True] * self.pop_size

    def _penalized(self, f_raw, c_raw):
        """(f_N, c_N) of a raw (f, cost) under the current bound."""
        cap = self.budget + self.delta_cap
        if c_raw <= cap:
            return f_raw, c_raw
        h = c_raw - cap
        return (f_raw - (self.n * self.f_max + 1.0) * h,
                c_raw + (self.n * self.c_max + 1.0) * h)

    def _make_offspring(self, count):
        """`count` children as (bits, raw f list, raw cost list), their
        random draws taken once per generation.

        Each child's two parents come from binary tournaments over the
        columns of `integers(pop_size, size=(count, 4))`, (0, 1) for p1 and
        (2, 3) for p2: lower rank wins, then higher crowding, and ties go to
        the first pick.  One `random(count * (2n + 1))` then holds, in this
        order, the same stream as three calls: `count` crossover coins,
        `(count, n)` crossover masks and `(count, n)` mutation masks.  A
        coin below the crossover rate takes each bit from p1 where its mask
        row is below 0.5 and from p2 elsewhere; otherwise the child copies
        p1.  A mutation row below 1/n then flips bits.  Each child costs one
        evaluation.
        """
        rng, n = self.rng, self.n
        picks = rng.integers(self.pop_size, size=(count, 4))
        draws = rng.random(count * (2 * n + 1))
        cross = draws[:count] < self.crossover_rate
        take = draws[count:count * (n + 1)].reshape(count, n) < 0.5
        flips = draws[count * (n + 1):].reshape(count, n) < 1.0 / n
        rank, crowding = self.rank, self.crowding
        winners = [a if rank[a] < rank[b] or (rank[a] == rank[b]
                                              and crowding[a] >= crowding[b])
                   else b for a, b in picks.reshape(-1, 2).tolist()]
        chosen = self.parents[winners]  # rows p1, p2 of each child in turn
        children = np.where(take | ~cross[:, None], chosen[0::2], chosen[1::2])
        children ^= flips
        f, c, counter = self.f, self.c, self.counter
        values = [evaluate(f, c, child, counter, POS_INF) for child in children]
        return (children, [fval for fval, _ in values],
                [cost for _, cost in values])

    def generation(self, size=None) -> None:
        """One generation of `size` offspring (pop_size by default), one
        evaluation each, truncated back to pop_size survivors.

        Ranks and crowding distances are computed only for the fronts that
        hold the survivors (`_fronts`), up to the one that crosses pop_size;
        copies of one vector always share a front.
        """
        count = self.pop_size if size is None else size
        children, child_f, child_c = self._make_offspring(count)
        f_raw, c_raw = self.f_raw + child_f, self.c_raw + child_c
        is_seed = self.is_seed + [False] * count
        cap = self.budget + self.delta_cap
        pen_f, pen_c = f_raw[:], c_raw[:]
        for i, cost in enumerate(c_raw):
            if cost > cap:
                pen_f[i], pen_c[i] = self._penalized(f_raw[i], cost)
        fronts = _fronts(pen_f, pen_c, self.pop_size)
        rank = [0] * len(f_raw)
        crowding = [0.0] * len(f_raw)
        for r, front in enumerate(fronts):
            for i in front:
                rank[i] = r
            _crowding(pen_f, pen_c, front, crowding)
        feasible = [i for i, cost in enumerate(c_raw) if cost <= self.budget]
        elite = max(feasible, key=f_raw.__getitem__) if feasible else None
        # the seed copies are one individual: the distance of the copy last
        # in fronts order holds for all of them, or +inf if one is the elite
        seeds = [i for front in fronts for i in front if is_seed[i]]
        if seeds:
            shared = POS_INF if elite in seeds else crowding[seeds[-1]]
            for i in seeds:
                crowding[i] = shared
        if elite is not None:
            crowding[elite] = POS_INF
        keep = []
        for front in fronts:
            room = self.pop_size - len(keep)
            if len(front) > room:
                front = sorted(front, key=crowding.__getitem__,
                               reverse=True)[:room]
            keep.extend(front)
        self.parents = np.concatenate((self.parents, children))[keep]
        self.f_raw = [f_raw[i] for i in keep]
        self.c_raw = [c_raw[i] for i in keep]
        self.rank = [rank[i] for i in keep]
        self.crowding = [crowding[i] for i in keep]
        self.is_seed = [is_seed[i] for i in keep]

    def _run(self, evals: int) -> None:
        """Whole generations, then one partial generation for the
        remainder."""
        whole, rest = divmod(evals, self.pop_size)
        for _ in range(whole):
            self.generation()
        if rest:
            self.generation(rest)

    def _stored(self):
        return zip(self.f_raw, self.c_raw)

    def answer_value(self, budget=None):
        """Override: when no parent fits, the answer is the seed individual,
        the empty set, whose (f, cost) the constructor stored."""
        try:
            return super().answer_value(budget)
        except NoFeasibleMemberError:
            return self.seed_value
