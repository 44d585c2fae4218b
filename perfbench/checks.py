"""Output checks: every task result is compared with an independent route.

The reference values are computed here with numpy straight from the
JSON inputs, sharing no code with choqkit.  A check accepts any correct
answer (any violating witness, any maximising chain, any increasing
decomposition) and compares the values that are unique with the
reference.  Checks return an error message or None; they never use
`assert`, so they keep working under `python -O`.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def _close(value, ref, scale=1.0):
    return abs(float(value) - float(ref)) <= TOL * max(1.0, abs(float(ref)), scale)


def _bit(n, x):
    """Membership of element x in every mask 0 .. 2^n - 1."""
    return (np.arange(1 << n) >> x) & 1


def _piecewise_linear(points, t):
    """The concave transform g of the README schema, extended linearly."""
    ts = np.array([p[0] for p in points], dtype=float)
    vs = np.array([p[1] for p in points], dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.interp(t, ts, vs)
    if len(ts) > 1:
        slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
        out = np.where(t > ts[-1], vs[-1] + slope * (t - ts[-1]), out)
    return out


def reference_table(obj) -> np.ndarray:
    """All 2^n values of a README-schema setfunction, vectorised."""
    n, kind, payload = int(obj["n"]), obj["kind"], obj["payload"]
    if kind == "table":
        return np.array(payload["values"], dtype=float)
    bits = [_bit(n, x) for x in range(n)]
    if kind == "cut":
        out = np.zeros(1 << n)
        for u, v, w in payload["edges"]:
            out += w * (bits[u] != bits[v])
        return out
    if kind == "coverage":
        out = np.zeros(1 << n)
        for item, weight in enumerate(payload["item_weights"]):
            holders = [x for x, cover in enumerate(payload["covers"])
                       if item in cover]
            covered = np.zeros(1 << n, dtype=bool)
            for x in holders:
                covered |= bits[x] == 1
            out += weight * covered
        return out
    if kind == "matroid-rank":
        popcount = sum(bits)
        if payload["matroid"] == "uniform":
            return np.minimum(popcount, payload["rank"]).astype(float)
        out = np.zeros(1 << n)
        for block, cap in zip(payload["blocks"], payload["capacities"]):
            out += np.minimum(sum(bits[x] for x in block), cap)
        return out
    sums = np.zeros(1 << n)
    for x, w in enumerate(payload["weights"]):
        sums += w * bits[x]
    if kind == "modular":
        return sums
    if kind == "concave-of-modular":
        return _piecewise_linear(payload["breakpoints"], sums)
    raise ValueError(f"unknown kind {kind!r}")


def _second_difference_extremes(vals, n):
    """Largest d and |d| over d = phi(B+x+y) + phi(B) - phi(B+x) - phi(B+y)."""
    masks = np.arange(1 << n)
    top = top_abs = 0.0
    for x in range(n):
        for y in range(x + 1, n):
            base = masks[(masks >> x & 1 == 0) & (masks >> y & 1 == 0)]
            bx, by = base | 1 << x, base | 1 << y
            d = vals[bx | by] + vals[base] - vals[bx] - vals[by]
            top = max(top, float(d.max()))
            top_abs = max(top_abs, float(np.abs(d).max()))
    return top, top_abs


def _largest_down_step(vals, n):
    """Largest phi(S) - phi(S+x) over every S and x outside S."""
    masks = np.arange(1 << n)
    top = -np.inf
    for x in range(n):
        base = masks[masks >> x & 1 == 0]
        top = max(top, float((vals[base] - vals[base | 1 << x]).max()))
    return top


def _is_increasing(vals, n):
    return _largest_down_step(np.asarray(vals, dtype=float), n) <= TOL


def _variation_dp(vals, n):
    """K(phi): largest sum of |increments| over maximal chains, by layers."""
    masks = np.arange(1 << n)
    popcount = sum(_bit(n, x) for x in range(n))
    best = np.zeros(1 << n)
    for layer in range(1, n + 1):
        members = masks[popcount == layer]
        cand = np.full((len(members), n), -np.inf)
        for x in range(n):
            has = members >> x & 1 == 1
            m = members[has]
            step = np.abs(vals[m] - vals[m ^ 1 << x])
            cand[has, x] = best[m ^ 1 << x] + step
        best[members] = cand.max(1)
    return float(best[-1])


def choquet_values(vals, rows) -> np.ndarray:
    """Lovasz's sorting formula for a batch of vectors (one per row)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    shift = np.maximum(0.0, -rows.min(1))
    lifted = rows + shift[:, None]
    order = np.argsort(-lifted, axis=1, kind="stable")
    levels = np.take_along_axis(lifted, order, 1)
    masks = np.cumsum(np.left_shift(1, order), axis=1)
    below = np.concatenate([levels[:, 1:], np.zeros((len(rows), 1))], 1)
    return ((levels - below) * vals[masks]).sum(1) - shift * vals[-1]


class Reference:
    """Reference values for one workload's inputs, computed on demand."""

    def __init__(self, doc):
        self.doc = doc
        self._tables = {}

    def table(self, key):
        if key not in self._tables:
            self._tables[key] = reference_table(self.doc["setfunctions"][key])
        return self._tables[key]

    # ---- one check per task kind; each returns an error or None ------

    def check(self, task, verdicts):
        vals = self.table(task["phi"])
        n = int(self.doc["setfunctions"][task["phi"]]["n"])
        full = (1 << n) - 1
        sub, inc, mod = verdicts
        top, top_abs = _second_difference_extremes(vals, n)
        if sub.holds:
            if top > TOL:
                return "reported submodular, but a pair violates the inequality"
        else:
            s, t = sub.witness
            if not 0 <= min(s, t) <= max(s, t) <= full or \
                    vals[s | t] + vals[s & t] <= vals[s] + vals[t] + TOL:
                return f"submodularity witness {sub.witness} violates nothing"
        if inc.holds:
            if _largest_down_step(vals, n) > TOL:
                return "reported increasing, but an element step decreases"
        else:
            s, t = inc.witness
            if not 0 <= min(s, t) <= max(s, t) <= full or s & t != s or \
                    vals[s] <= vals[t] + TOL:
                return f"monotonicity witness {inc.witness} violates nothing"
        if mod.holds:
            if top_abs > TOL:
                return "reported modular, but a pair breaks the equality"
        else:
            s, t = mod.witness
            if not 0 <= min(s, t) <= max(s, t) <= full or \
                    abs(vals[s | t] + vals[s & t] - vals[s] - vals[t]) <= TOL:
                return f"modularity witness {mod.witness} violates nothing"
        return None

    def _variation(self, key):
        n = int(self.doc["setfunctions"][key]["n"])
        vals = self.table(key)
        return vals, n, _variation_dp(vals, n)

    def variation(self, task, result):
        k, chain = result
        vals, n, k_ref = self._variation(task["phi"])
        if not _close(k, k_ref):
            return f"K(phi) = {k!r}, reference {k_ref!r}"
        if not chain or chain[0] != 0 or chain[-1] != (1 << n) - 1:
            return "chain does not run from the empty set to the ground set"
        for a, b in zip(chain, chain[1:]):
            if a & b != a or a == b:
                return f"chain step {a} -> {b} is not a strict inclusion"
        total = sum(abs(vals[b] - vals[a]) for a, b in zip(chain, chain[1:]))
        if not _close(total, k_ref):
            return f"chain variation {total!r} != K(phi) {k_ref!r}"
        return None

    def decompose(self, task, dec):
        vals, n, k_ref = self._variation(task["phi"])
        mu, nu = np.array(dec.mu, dtype=float), np.array(dec.nu, dtype=float)
        if mu.shape != vals.shape or nu.shape != vals.shape:
            return "decomposition tables have the wrong length"
        if np.abs(mu - nu - vals).max() > TOL * max(1.0, k_ref):
            return "mu - nu != phi"
        if not (_is_increasing(mu, n) and _is_increasing(nu, n)):
            return "a part of the decomposition is not increasing"
        if not _close(dec.variation, k_ref):
            return f"variation {dec.variation!r}, reference {k_ref!r}"
        return None

    def choquet_eval(self, task, values):
        vals = self.table(task["phi"])
        rows = self.doc["vectors"][task["vectors"]]
        ref = choquet_values(vals, rows)
        scale = float(np.abs(vals).max()) * max(abs(v) for r in rows for v in r)
        for got, want in zip(values, ref):
            if not _close(got, want, scale):
                return f"choquet value {got!r}, reference {want!r}"
        return None if len(values) == len(rows) else "missing choquet values"

    def ls_decompose(self, task, result):
        psi, rest = (np.array(part, dtype=float) for part in result)
        vals = self.table(task["phi"])
        n = int(self.doc["setfunctions"][task["phi"]]["n"])
        best = vals.copy()
        masks = np.arange(1 << n)
        for x in range(n):
            upper = masks[masks >> x & 1 == 1]
            best[upper] = np.maximum(best[upper], best[upper ^ 1 << x])
        if psi.shape != vals.shape or np.abs(psi - best).max() > TOL:
            return "psi is not the running maximum over subsets"
        if np.abs(psi + rest - vals).max() > TOL:
            return "psi + remainder != phi"
        if not (_is_increasing(psi, n) and _is_increasing(-rest, n)):
            return "psi not increasing or remainder not decreasing"
        return None

    def fubini(self, task, result):
        inst_obj = self.doc["fubini"][task["input"]]
        _, lopsided, trace = result
        vals = reference_table(inst_obj["phi"])
        lam = np.array(inst_obj["lambda"])
        F = np.array(inst_obj["F"], dtype=float)
        rows = choquet_values(vals, F)
        g = lam @ F
        lhs, rhs = float(choquet_values(vals, g)[0]), float(lam @ rows)
        if not (_close(lopsided.lhs, lhs) and _close(lopsided.rhs, rhs)):
            return f"lopsided ({lopsided.lhs!r}, {lopsided.rhs!r}) != ({lhs!r}, {rhs!r})"
        if not lopsided.holds:
            return "lopsided inequality reported violated for submodular phi"
        steps = task["steps"]
        samples = np.array(trace.samples, dtype=int)
        if len(trace.records) != steps or samples.shape != (steps,) or \
                samples.min() < 0 or samples.max() >= len(F):
            return "LLN trace has the wrong length or sample range"
        k = np.arange(1, steps + 1)
        f_k = np.cumsum(F[samples], axis=0) / k[:, None]
        want = {"k": k,
                "what_f": choquet_values(vals, f_k),
                "running_avg": np.cumsum(rows[samples]) / k,
                "what_h": choquet_values(vals, g - f_k),
                "norm_h": np.abs(g - f_k).max(1)}
        for name, ref in want.items():
            got = np.array([getattr(rec, name) for rec in trace.records])
            if np.abs(got - ref).max() > TOL * max(1.0, float(np.abs(ref).max())):
                return f"LLN trace column {name} disagrees with the reference"
        if not (_close(trace.lhs, lhs) and _close(trace.rhs, rhs)):
            return "LLN trace summary disagrees with the lopsided check"
        return None

    def uncross(self, task, result):
        trace, (lhs, rhs, ok) = result
        fam = self.doc["families"][task["family"]]
        n = int(fam["n"])
        vals = self.table(task["phi"])
        initial = {}
        for mask, mult in fam["entries"]:
            initial[mask] = initial.get(mask, 0) + mult

        def pointwise(entries):
            h = np.zeros(n)
            for mask, mult in entries:
                h += mult * ((mask >> np.arange(n)) & 1)
            return h

        h0 = pointwise(initial.items())
        final = list(trace.final.entries)
        masks = sorted((m for m, _ in final), key=lambda m: bin(m).count("1"))
        if any(a & b != a for a, b in zip(masks, masks[1:])):
            return "final family is not a chain"
        if not np.array_equal(pointwise(final), h0):
            return "uncrossing changed the pointwise sum"
        if sum(m for _, m in final) != sum(initial.values()):
            return "uncrossing changed the total multiplicity"
        before = sum(mult * vals[mask] for mask, mult in initial.items())
        if trace.steps and not _close(trace.steps[0].phi_sum_before, before):
            return "first phi-sum disagrees with the reference"
        for step in trace.steps:
            if step.potential_after <= step.potential_before:
                return "potential did not increase"
            if step.phi_sum_after > step.phi_sum_before + TOL:
                return "phi-sum increased under a submodular phi"
        chain_sum = sum(mult * vals[mask] for mask, mult in final)
        value = float(choquet_values(vals, h0)[0])
        if not (ok and _close(lhs, value) and _close(rhs, chain_sum)):
            return f"chain certificate ({lhs!r}, {rhs!r}, {ok}) != {value!r}"
        return None

    def interval_choquet(self, task, result):
        value, exceptional = result
        obj = self.doc["intervals"][task["input"]]
        want = interval_reference(obj["phi"], obj["f"])
        if not _close(value, want):
            return f"interval choquet value {value!r}, reference {want!r}"
        if exceptional:
            return f"step function reported exceptional thresholds {exceptional}"
        return None

    def continuity(self, task, table):
        vals = self.table(task["phi"])
        n = int(self.doc["setfunctions"][task["phi"]]["n"])
        measure = sum(w * _bit(n, x) for x, w in enumerate(task["pi"]))
        s, t = np.triu_indices(1 << n, 1)
        gaps = np.abs(vals[s] - vals[t])
        order = np.argsort(-gaps, kind="stable")
        running_min = np.minimum.accumulate(measure[s ^ t][order])
        descending = gaps[order]
        eps_ref = np.unique(gaps[gaps > 0])
        if len(table) != len(eps_ref):
            return f"{len(table)} epsilons, reference {len(eps_ref)}"
        for (eps, delta), want_eps in zip(table, eps_ref):
            qualifying = np.searchsorted(-descending, -eps, side="right")
            want = running_min[qualifying - 1]
            if abs(eps - want_eps) > TOL or not _close(delta, want):
                return f"modulus ({eps!r}, {delta!r}) != ({want_eps!r}, {want!r})"
        return None

    def selftest(self, task, result):
        return None if result.passed else f"criterion failed: {result.detail}"


def interval_reference(phi, f) -> float:
    """Choquet integral of a step function on [0, 1) by the layer cake."""
    bps = np.array(f["breakpoints"], dtype=float)
    values = np.array(f["values"], dtype=float)
    if phi["kind"] == "point-mass":
        piece = np.searchsorted(bps, phi["location"], side="right") - 1
        return float(phi["mass"] * values[piece])
    density = phi.get("density") or {"breakpoints": [0.0, 1.0], "values": [1.0]}
    dbps = np.array(density["breakpoints"], dtype=float)
    dvals = np.array(density["values"], dtype=float)
    lo = np.maximum(bps[:-1, None], dbps[None, :-1])
    hi = np.minimum(bps[1:, None], dbps[None, 1:])
    piece_mass = (np.clip(hi - lo, 0.0, None) * dvals).sum(1)
    levels = np.unique(values)[::-1]
    mass_at = np.array([piece_mass[values >= t].sum() for t in levels])
    g = _piecewise_linear(phi["breakpoints"], mass_at)
    widths = levels - np.append(levels[1:], 0.0)
    return float((widths * g).sum())
