"""The five solvers plus exhaustive oracles.

Every solver derives from `_Solver` and shares one protocol: `set_budget(b)`
applies a dynamic change, `run(evals)` spends exactly `evals` evaluations,
and `answer_value(budget)` reads the best stored (f, cost) within a bound
(the current one by default).  Each solver owns its `counter`.

Greedy (GGA, `Gga`) and its adaptive variant (AdGGA) draw no random numbers
and do their whole work in `set_budget`: every evaluation of their scans is
counted, also one read from an earlier scan, but none is charged against
`run`, which does nothing, and their answer holds for the current bound
only.  POMC, EAMC and NSGA-II are iterative: every one of their evaluations
goes through `evaluate`, the single place that counts and applies the
infeasibility cutoff.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NEG_INF, POS_INF, EvalCounter


class TooLargeError(ValueError):
    """Exhaustive enumeration requested beyond the hard cap."""


class NoFeasibleMemberError(RuntimeError):
    """Answer extraction found no member within the current budget."""


BRUTE_FORCE_CAP = 24


def evaluate(f, c, bits, counter, cutoff, known=None):
    """One counted evaluation: c first, then f only when cost <= cutoff.

    Returns (f or NEG_INF, cost).  The cutoff is B + 1 for POMC's
    bi-objective reformulation, B for EAMC and +inf for NSGA-II.  `known`
    is the stored (f, cost) of a vector equal to `bits`: the evaluation is
    still counted and cut off, but answered without calling f or c.
    """
    counter.increment()
    if known is not None:
        fval, cost = known
        return (NEG_INF if cost > cutoff else fval), cost
    cost = float(c(bits))
    if cost > cutoff:
        return NEG_INF, cost
    return float(f(bits)), cost


def all_subsets(n):
    """Every subset of an n-element ground set as 0/1 rows, in mask order
    (row k of the enumeration is the binary expansion of k, bit i = element i)."""
    if n > BRUTE_FORCE_CAP:
        raise TooLargeError(f"n = {n} exceeds enumeration cap {BRUTE_FORCE_CAP}")
    shifts = np.arange(n, dtype=np.uint64)
    total = 1 << n
    for start in range(0, total, 4096):
        masks = np.arange(start, min(start + 4096, total), dtype=np.uint64)
        yield from ((masks[:, None] >> shifts) & 1).astype(np.uint8)


def brute_force_opt(f, c, budget):
    """(bits, value) of an exact maximizer of f over {X : c(X) <= budget} by
    enumeration, n <= 24."""
    n = f.n
    best_bits, best_val = None, NEG_INF
    for bits in all_subsets(n):
        if float(c(bits)) <= budget:
            val = float(f(bits))
            if val > best_val:
                best_bits, best_val = bits, val
    if best_bits is None:
        # c is monotone with c(empty) = 0, so this only happens for budget < 0
        empty = np.zeros(n, dtype=np.uint8)
        return empty, float(f(empty))
    return best_bits.copy(), best_val


def brute_force_front(f, c, budgets):
    """Optimum value for each budget in `budgets` from a single enumeration."""
    budgets = sorted(budgets)
    best = {b: NEG_INF for b in budgets}
    for bits in all_subsets(f.n):
        cost = float(c(bits))
        val = None
        for b in budgets:
            if cost <= b:
                if val is None:
                    val = float(f(bits))
                if val > best[b]:
                    best[b] = val
    return best


def knapsack_opt_value(instance, budget) -> float:
    """Exact optimum of a linear knapsack with integer item costs (0/1 DP).

    Independent of any greedy trace; used where enumeration is out of reach.
    """
    costs = [c for (c, _v) in instance.items]
    values = [v for (_c, v) in instance.items]
    if any(c != int(c) for c in costs):
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


class _Solver:
    """State and answer rule every solver shares.

    A solver holds f, c, n, the current bound and the `EvalCounter` it
    counts its own evaluations on.  Each subclass lists its stored (f, cost)
    pairs in `_stored()`, in the order ties go; `answer_value` reads the
    answer from them.
    """

    def __init__(self, f, c, budget):
        self.f = f
        self.c = c
        self.n = f.n
        self.budget = float(budget)
        self.counter = EvalCounter()

    def set_budget(self, budget) -> None:
        """Dynamic change; stored values are left as they are."""
        self.budget = float(budget)

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


class ScanMemo:
    """(f, c) of the vectors greedy scans saw at the current and the previous
    budget change, keyed by `bits.tobytes()`.

    Consecutive budgets differ by a few units, so a greedy restarted from
    the empty set repeats most of the previous change's scans.  A hit saves
    only the f and c calls: the caller still charges the evaluation.
    Entries older than the previous change are dropped.
    """

    def __init__(self):
        self.current, self.previous = {}, {}

    def next_change(self) -> None:
        self.previous, self.current = self.current, {}

    def __call__(self, f, c, x):
        key = x.tobytes()
        fc = self.current.get(key)
        if fc is None:
            fc = self.previous.get(key)
            if fc is None:
                fc = _fc(f, c, x)
            self.current[key] = fc
        return fc


def _scan(f, c, x, candidates, value=_fc):
    """(f, c) of x + v for each v in `candidates`, leaving x as it was.

    Uncounted: the caller charges one evaluation per pair it uses.  Each
    pair comes from `value(f, c, x)`: `_fc`, or a `ScanMemo`.
    """
    out = []
    for v in candidates:
        x[v] = 1
        out.append(value(f, c, x))
        x[v] = 0
    return out


def _with_best_singleton(x, fx, cx, singletons, budget, counter):
    """(bits, f, cost) of the better of x and the best feasible singleton.

    `singletons[v]` is the stored (f, c) of {v}; each feasible one is charged
    one evaluation.  Ties keep x, then the lowest element index.
    """
    best_v, best_val = None, NEG_INF
    for v, (fv, cv) in enumerate(singletons):
        if cv <= budget:
            counter.increment()
            if fv > best_val:
                best_v, best_val = v, fv
    if best_v is not None and best_val > fx:
        bits = np.zeros(x.size, dtype=np.uint8)
        bits[best_v] = 1
        return bits, best_val, singletons[best_v][1]
    return x, fx, cx


def _greedy_extend(f, c, x_bits, budget, counter, value=_fc):
    """Alg. 1 body: scan V', add the argmax marginal-ratio element when
    feasible, and drop the argmax from V' regardless of feasibility.

    Every round is charged one evaluation per element of V', as in a full
    rescan.  While x is unchanged (the argmax was infeasible), a rescan would
    return the same (f, c) for every remaining element, so f and c are only
    called again after an element is added.  Ties go to the lowest element
    index either way.  Returns (x, f(x), c(x), first scan), the first scan
    being the (f, c) of x_bits + v for every v in V' in index order; from
    the empty set, these are the singletons.  `value` is passed on to
    `_scan`.
    """
    x = x_bits.copy()
    remaining = np.flatnonzero(x == 0).tolist()
    fx, cx = value(f, c, x)
    counter.increment()
    first = scan = None
    while remaining:
        if scan is None:
            scan = _scan(f, c, x, remaining, value)
            if first is None:
                first = scan[:]
            ratios = []
            for fv, cv in scan:
                dc = cv - cx
                gain = fv - fx
                ratios.append((POS_INF if gain > 0 else 0.0) if dc == 0
                              else gain / dc)
        counter.increment(len(remaining))
        best_i, best_ratio = None, NEG_INF
        for i, ratio in enumerate(ratios):
            if ratio > best_ratio:  # ties: lowest element index wins
                best_i, best_ratio = i, ratio
        v = remaining.pop(best_i)
        best_fv, best_cv = scan.pop(best_i)
        del ratios[best_i]
        if best_cv <= budget:
            x[v] = 1
            fx, cx = best_fv, best_cv
            scan = None
    return x, fx, cx, first or []


def gga(f, c, budget, counter=None, value=_fc):
    """Generalized greedy: ratio-greedy fill, then compare with the best
    feasible singleton, read from the fill's first scan.  Returns
    (bits, f, cost) of the answer; `value` is passed on to `_scan`."""
    counter = counter if counter is not None else EvalCounter()
    x, fx, cx, singletons = _greedy_extend(
        f, c, np.zeros(f.n, dtype=np.uint8), budget, counter, value)
    return _with_best_singleton(x, fx, cx, singletons, budget, counter)


class _Greedy(_Solver):
    """The protocol of the greedy solvers.  The constructor evaluates
    nothing; `set_budget(b)` makes the whole change and stores the answer's
    (f, cost); `run` has nothing to do, because greedy evaluations are
    counted but not charged against tau."""

    def __init__(self, f, c, budget):
        super().__init__(f, c, budget)
        self._answer = None  # (f, cost), set by set_budget

    def run(self, evals: int) -> None:
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
    """GGA under a moving budget: every change restarts `gga` from the
    empty set.  A `ScanMemo` answers the scans that repeat the previous
    change's, so they are charged but f and c are not called again."""

    def __init__(self, f, c, budget):
        super().__init__(f, c, budget)
        self._memo = ScanMemo()

    def set_budget(self, budget) -> None:
        self.budget = float(budget)
        self._memo.next_change()
        self._answer = gga(self.f, self.c, self.budget, self.counter,
                           self._memo)[1:]


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
        """Strip elements until x fits; returns (f, c) of the result."""
        x = self.x
        fx, cx = self._value
        self.counter.increment()  # x itself, answered from its stored value
        while cx > new_budget:
            selected = np.flatnonzero(x)
            best_i, best_ratio = 0, POS_INF
            best_fv = best_cv = None
            for i, v in enumerate(selected):
                x[v] = 0
                cv = float(self.c(x))
                self.counter.increment()
                fv = float(self.f(x))
                x[v] = 1
                dc = cx - cv
                loss = fx - fv
                ratio = (POS_INF if loss > 0 else 0.0) if dc == 0 else loss / dc
                if best_fv is None or ratio < best_ratio:  # ties: lowest index wins
                    best_i, best_ratio = i, ratio
                    best_fv, best_cv = fv, cv
            if best_fv is None:  # selection already empty, nothing to strip
                break
            x[selected[best_i]] = 0
            fx, cx = best_fv, best_cv
        return fx, cx

    def set_budget(self, budget) -> None:
        budget = float(budget)
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


class Pomc(_Solver):
    """Pareto optimization (GSEMO) over (f1, f2) with stale-vector semantics.

    Objective vectors are stamped at creation and never recomputed, so budget
    changes cost no evaluations: members created under an old bound simply
    keep their stored vectors.
    """

    def __init__(self, f, c, budget, rng):
        super().__init__(f, c, budget)
        self.rng = rng
        zeros = np.zeros(self.n, dtype=np.uint8)
        f1, cost = evaluate(f, c, zeros, self.counter, self.budget + 1)
        self._bits = [zeros]
        self._f1 = [f1]
        self._f2 = [-cost]

    def __len__(self):
        return len(self._bits)

    def _insert(self, child, f1, f2):
        pf1, pf2 = self._f1, self._f2
        for m1, m2 in zip(pf1, pf2):
            if m1 >= f1 and m2 >= f2 and (m1 > f1 or m2 > f2):
                return  # strictly dominated by an incumbent
        keep = [i for i, (m1, m2) in enumerate(zip(pf1, pf2))
                if not (f1 >= m1 and f2 >= m2)]
        self._bits = [self._bits[i] for i in keep] + [child]
        self._f1 = [pf1[i] for i in keep] + [f1]
        self._f2 = [pf2[i] for i in keep] + [f2]

    def run(self, evals: int) -> None:
        """`evals` iterations, each a uniform parent, a per-bit flip at 1/n
        and one evaluation (f1 = -inf iff cost > budget + 1); random draws
        are taken in chunks of 4096 parent draws, each chunk's mutation rows
        in consecutive blocks of about 32768 draws.  `random((k, n))` fills
        row by row, so the blocks take the same stream as one `(chunk, n)`
        draw while holding about 256 KB of floats instead of 4096 n.

        A child whose mutation flips no bit equals its parent.  Its
        evaluation is still counted and cut off at the current bound, but
        answered from the parent's stored vector, and its insert needs no
        archive walk.  f of a stored member is always finite (a cost-0
        member dominates every -inf child), so a cut-off copy is strictly
        dominated by its parent and rejected.  Otherwise the copy weakly
        dominates its parent and, as members are mutually non-dominated
        with distinct vectors, nothing else: the parent's entry moves to
        the end, as `_insert` would leave it.
        """
        n, rate = self.n, 1.0 / self.n
        f, c, counter, cutoff = self.f, self.c, self.counter, self.budget + 1
        insert = self._insert
        rng_random = self.rng.random
        block = max(1, 32768 // n)
        done = 0
        while done < evals:
            chunk = min(4096, evals - done)
            sel = rng_random(chunk).tolist()
            for start in range(0, chunk, block):
                flips = rng_random((min(block, chunk - start), n)) < rate
                flipped = flips.any(axis=1).tolist()
                for j, u in enumerate(sel[start:start + len(flipped)]):
                    bits, pf1, pf2 = self._bits, self._f1, self._f2
                    k = int(u * len(bits))
                    if flipped[j]:
                        child = bits[k] ^ flips[j]
                        f1, cost = evaluate(f, c, child, counter, cutoff)
                        insert(child, f1, -cost)
                    elif evaluate(f, c, bits[k], counter, cutoff,
                                  (pf1[k], -pf2[k]))[0] != NEG_INF:
                        bits.append(bits.pop(k))
                        pf1.append(pf1.pop(k))
                        pf2.append(pf2.pop(k))
            done += chunk

    def _stored(self):
        return ((f1, -f2) for f1, f2 in zip(self._f1, self._f2))

    def check_invariants(self) -> None:
        """Debug hook: pairwise mutual non-dominance and no -inf member."""
        vecs = list(zip(self._f1, self._f2))
        for i, (a1, a2) in enumerate(vecs):
            if a1 == NEG_INF:
                raise AssertionError("population holds a -inf member")
            for j, (b1, b2) in enumerate(vecs):
                if i != j and a1 >= b1 and a2 >= b2:
                    raise AssertionError("population holds a dominated member")


# ---------------------------------------------------------------------------
# EAMC


def _eamc_g(fval, cost, size, alpha, budget):
    """Budget-normalized surrogate; g(empty) = f(empty)."""
    if size == 0:
        return fval
    denom = 1.0 - math.exp(-alpha * cost / budget) if cost > 0 else 0.0
    if denom <= 0.0:
        return POS_INF if fval > 0 else fval
    return fval / denom


class Eamc(_Solver):
    """EAMC: at most two solutions per subset size (best by g, best by f).

    Every member is feasible under the current budget; a change simply drops
    the members that became infeasible.
    """

    def __init__(self, f, c, budget, rng, alpha=1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        super().__init__(f, c, budget)
        self.alpha = alpha
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
        return _eamc_g(fval, cost, size, self.alpha, self.budget)

    def step(self) -> None:
        """One offspring; a zero-flip child is answered from its parent's
        stored (f, cost), as in `Pomc.run`."""
        i = int(self.rng.integers(len(self._members)))
        flips = self.rng.random(self.n) < 1.0 / self.n
        parent, pf, pcost = self._members[i]
        if flips.any():
            child, known = parent ^ flips, None
        else:
            child, known = parent, (pf, pcost)
        fval, cost = evaluate(self.f, self.c, child, self.counter, self.budget,
                              known)
        if cost > self.budget:
            return
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

    def run(self, evals: int) -> None:
        for _ in range(evals):
            self.step()

    def set_budget(self, budget) -> None:
        """Remove every member with cost above the new bound; keep bin(0)."""
        self.budget = float(budget)
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


class _Individual:
    __slots__ = ("bits", "f_raw", "c_raw", "rank", "crowding")

    def __init__(self, bits, f_raw, c_raw):
        self.bits = bits
        self.f_raw = f_raw
        self.c_raw = c_raw
        self.rank = 0
        self.crowding = POS_INF


def _best_within(individuals, budget):
    """Highest raw-f individual with raw cost <= budget (first on ties)."""
    best = None
    for ind in individuals:
        if ind.c_raw <= budget and (best is None or ind.f_raw > best.f_raw):
            best = ind
    return best


def _fast_nondominated_sort(objs):
    """objs: list of (maximize, minimize) pairs; returns list of fronts
    (index lists)."""
    m = len(objs)
    dominated_by = [[] for _ in range(m)]
    dom_count = [0] * m
    fronts = [[]]
    for i in range(m):
        fi, ci = objs[i]
        for j in range(i + 1, m):
            fj, cj = objs[j]
            if fi >= fj and ci <= cj and (fi > fj or ci < cj):
                dominated_by[i].append(j)
                dom_count[j] += 1
            elif fj >= fi and cj <= ci and (fj > fi or cj < ci):
                dominated_by[j].append(i)
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return fronts[:-1]


def _crowding_distances(objs, front):
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: POS_INF for i in front}
    for dim in range(2):
        ordered = sorted(front, key=lambda i: objs[i][dim])
        lo, hi = objs[ordered[0]][dim], objs[ordered[-1]][dim]
        dist[ordered[0]] = dist[ordered[-1]] = POS_INF
        span = hi - lo
        if span <= 0:
            continue
        for a in range(1, len(ordered) - 1):
            i = ordered[a]
            if dist[i] != POS_INF:
                dist[i] += (objs[ordered[a + 1]][dim] - objs[ordered[a - 1]][dim]) / span
    return dist


class Nsga2(_Solver):
    """NSGA-II on (maximize f_N, minimize c_N) with best-feasible elitism.

    Solutions with cost up to budget + delta_cap are kept unpenalized to
    prepare for upcoming changes; beyond that, both objectives are pushed
    into the dominated region proportionally to the violation, scaled by
    f_max = f(V) and c_max = c(V).  Once per
    sort, the best feasible member's crowding distance is set to +inf so it
    survives truncation.  Penalties are derived from stored raw values, so
    a budget change costs no evaluations.
    """

    pop_size = 20
    crossover_rate = 0.9

    def __init__(self, f, c, budget, rng, *, delta_cap):
        super().__init__(f, c, budget)
        self.delta_cap = float(delta_cap)
        self.rng = rng
        full = np.ones(self.n, dtype=np.uint8)
        self.f_max = float(f(full))
        self.c_max = float(c(full))
        zeros = np.zeros(self.n, dtype=np.uint8)
        self.seed_individual = _Individual(
            zeros, *evaluate(f, c, zeros, self.counter, POS_INF))
        self.parents = [self.seed_individual] * self.pop_size

    def _penalized(self, ind):
        cap = self.budget + self.delta_cap
        if ind.c_raw <= cap:
            return ind.f_raw, ind.c_raw
        h = ind.c_raw - cap
        return (ind.f_raw - (self.n * self.f_max + 1.0) * h,
                ind.c_raw + (self.n * self.c_max + 1.0) * h)

    def _tournament(self):
        # two scalar draws yield the same values as one size-2 draw, faster
        pa = self.parents[int(self.rng.integers(self.pop_size))]
        pb = self.parents[int(self.rng.integers(self.pop_size))]
        if pa.rank != pb.rank:
            return pa if pa.rank < pb.rank else pb
        return pa if pa.crowding >= pb.crowding else pb

    def _make_offspring(self, count):
        out = []
        rate = 1.0 / self.n
        for _ in range(count):
            p1, p2 = self._tournament(), self._tournament()
            if self.rng.random() < self.crossover_rate:
                take = self.rng.random(self.n) < 0.5
                child = np.where(take, p1.bits, p2.bits)  # uint8, as both parents
            else:
                child = p1.bits  # not written: the XOR below makes a new array
            child = child ^ (self.rng.random(self.n) < rate)
            out.append(_Individual(
                child, *evaluate(self.f, self.c, child, self.counter, POS_INF)))
        return out

    def generation(self, size=None) -> None:
        """One generation of `size` offspring (pop_size by default), one
        evaluation each, truncated back to pop_size survivors."""
        offspring = self._make_offspring(self.pop_size if size is None else size)
        pool = self.parents + offspring
        objs = [self._penalized(ind) for ind in pool]
        fronts = _fast_nondominated_sort(objs)
        for rank, front in enumerate(fronts):
            dist = _crowding_distances(objs, front)
            for i in front:
                pool[i].rank = rank
                pool[i].crowding = dist[i]
        elite = _best_within(pool, self.budget)
        if elite is not None:
            elite.crowding = POS_INF
        nxt = []
        for front in fronts:
            if len(nxt) + len(front) <= self.pop_size:
                nxt.extend(pool[i] for i in front)
            else:
                rest = sorted(front, key=lambda i: -pool[i].crowding)
                nxt.extend(pool[i] for i in rest[: self.pop_size - len(nxt)])
                break
        self.parents = nxt

    def run(self, evals: int) -> None:
        """Exactly `evals` evaluations: whole generations, then one partial
        generation for the remainder."""
        whole, rest = divmod(evals, self.pop_size)
        for _ in range(whole):
            self.generation()
        if rest:
            self.generation(rest)

    def _stored(self):
        return ((ind.f_raw, ind.c_raw) for ind in self.parents)

    def answer_value(self, budget=None):
        """Override: when no parent fits, the answer is the seed individual,
        the empty set, whose (f, cost) the constructor stored."""
        try:
            return super().answer_value(budget)
        except NoFeasibleMemberError:
            return self.seed_individual.f_raw, self.seed_individual.c_raw
