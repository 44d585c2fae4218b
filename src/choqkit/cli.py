"""Command-line entry point: one subcommand per module.

Instances travel as JSON (path or inline).  Every subcommand prints
one JSON object under --format json; otherwise traces leave as CSV.
Exit codes: 0 ok, 1 selftest or inequality violation (including a
bound that `fubini --steps` finds violated under --force), 2 malformed
input or a result that is not finite, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .choquet import choquet
from .fubini import FubiniInstance, LopsidedResult, lln_run, lopsided_check
from .intervals import IntervalSetFunction, StepFunction, choquet_interval
from .selftest import run_all
from .setfunctions import (TOL, GroundSet, PreconditionError, is_increasing,
                           is_modular, is_submodular, setfunction_from_json)
from .uncrossing import WeightedFamily, family_sum, uncross
from .variation import canonical_decomposition, max_variation_chain, total_variation


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON input")


def _finite_int(text: str) -> int:
    """A JSON integer, rejected as non-finite past float64's largest value."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        _reject_constant(f"{text[:8]}... ({len(text)} digits)")
    return value


def _load_json(source: str):
    options = {"parse_constant": _reject_constant, "parse_int": _finite_int}
    if os.path.exists(source):
        with open(source) as handle:
            return json.load(handle, **options)
    return json.loads(source, **options)


def _interval_phi_from_json(obj) -> IntervalSetFunction:
    if obj["kind"] == "concave-of-measure":
        density = obj.get("density")
        if density is not None:
            density = (tuple(density["breakpoints"]), tuple(density["values"]))
        return IntervalSetFunction.concave_of_measure(obj["breakpoints"], density)
    if obj["kind"] == "point-mass":
        return IntervalSetFunction.point_mass(obj["location"], obj["mass"])
    raise ValueError(f"unknown interval setfunction kind {obj['kind']!r}")


def _at_least(low, convert):
    """argparse type: `convert(text)`, which must be finite and >= low."""
    def parse(text):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # for argparse's "invalid int value" error
    return parse


def _require_finite_output(obj) -> None:
    """ValueError unless every float in nested dicts, lists, tuples and arrays is finite."""
    if isinstance(obj, np.ndarray):
        obj = obj[~np.isfinite(obj)][:1].tolist()  # its first non-finite entry, or []
    if isinstance(obj, (dict, list, tuple)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            _require_finite_output(item)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite result {obj!r}: float64 overflowed")


def _emit(args, report: dict, table=None, text=(), status: int = 0) -> int:
    """The one stdout path, returning `status`.  Under --format json, or
    with `text` None, it prints `report` as one JSON object (arrays as
    lists), a `table` (key, columns, rows) setting report[key] to one
    object per row keyed by the columns (a key already in `report` keeps
    its place); otherwise the table as CSV of reprs, then the `text` lines."""
    key, columns, rows = table or (None, (), ())
    _require_finite_output((report, rows))
    if args.format == "json" or text is None:
        if key is not None:
            report[key] = [dict(zip(columns, row)) for row in rows]
        text = [json.dumps(report, default=np.ndarray.tolist)]
    elif key is not None:
        text = [",".join(columns), *(",".join(map(repr, row)) for row in rows), *text]
    print("\n".join(text))
    return status


def _verdict_text(name, verdict, ground):
    if verdict.source == "construction":  # which only ever says yes
        return f"{name}: yes (by construction)"
    if verdict:
        return f"{name}: yes"
    s, t = verdict.witness
    return (f"{name}: no (witness {ground.format_mask(s)}, "
            f"{ground.format_mask(t)})")


def cmd_check(args):
    phi = setfunction_from_json(_load_json(args.input))
    verdicts = {"submodular": is_submodular(phi, args.tol),
                "increasing": is_increasing(phi, args.tol),
                "modular": is_modular(phi, args.tol)}
    return _emit(args, {name: {"holds": verdict.holds, "witness": verdict.witness,
                               "source": verdict.source}
                        for name, verdict in verdicts.items()},
                 text=[_verdict_text(name, verdict, phi.ground)
                       for name, verdict in verdicts.items()])


def cmd_choquet(args):
    phi = setfunction_from_json(_load_json(args.input))
    f = [float(v) for v in _load_json(args.function)]
    value = choquet(phi, f, shift=args.shift)
    table = None
    if args.chain:  # the level sets {f >= t}, t over f's distinct values, decreasing
        levels = sorted(set(f), reverse=True)
        masks = [sum(1 << x for x, v in enumerate(f) if v >= t) for t in levels]
        columns = ("threshold", "mask", "phi", "contribution")
        rows = [(t, mask, phi(mask), (t - nxt) * phi(mask))
                for t, mask, nxt in zip(levels, masks, levels[1:] + [0.0])]
        table = ("chain", columns, rows)
    return _emit(args, {"value": value}, table, [f"choquet value: {value!r}"])


def cmd_variation(args):
    phi = setfunction_from_json(_load_json(args.input))
    k, chain = total_variation(phi), max_variation_chain(phi)
    return _emit(args, {"variation": k, "chain": chain},
                 text=[f"total variation: {k!r}", "maximizing chain: "
                       + " -> ".join(phi.ground.format_mask(m) for m in chain)])


def cmd_decompose(args):
    dec = canonical_decomposition(setfunction_from_json(_load_json(args.input)))
    return _emit(args, {"mu": dec.mu, "nu": dec.nu, "variation": dec.variation}, text=None)


def cmd_uncross(args):
    obj = _load_json(args.input)
    ground = GroundSet(obj["n"])
    family = WeightedFamily.of(ground, obj["entries"])
    phi = None
    if args.phi is not None:
        phi = setfunction_from_json(_load_json(args.phi))
    trace = uncross(family, phi)
    columns = ("step", "mask_a", "mask_b", "potential_before",
               "potential_after", "phi_sum_before", "phi_sum_after")
    rows = [(i, *step.pair, step.potential_before, step.potential_after,
             step.phi_sum_before, step.phi_sum_after)
            for i, step in enumerate(trace.steps)]
    chain = [list(e) for e in trace.final.entries]
    h = family_sum(trace.final).tolist()
    # "steps" leads the JSON object; _emit fills it in from the table
    return _emit(args, {"steps": None, "final_chain": chain, "h": h},
                 ("steps", columns, rows),
                 [f"final chain: {json.dumps(chain)}", f"h: {json.dumps(h)}"])


def cmd_interval_choquet(args):
    obj = _load_json(args.input)
    phi = _interval_phi_from_json(obj["phi"])
    f = StepFunction(tuple(obj["f"]["breakpoints"]), tuple(obj["f"]["values"]))
    value = choquet_interval(phi, f)
    return _emit(args, {"value": value}, text=[f"interval choquet value: {value!r}"])


def cmd_fubini(args):
    obj = _load_json(args.input)
    phi = setfunction_from_json(obj["phi"])
    inst = FubiniInstance.of(obj["lambda"], obj["pi"], obj["F"], phi,
                             validate=not args.force, tol=args.tol)
    table = None
    if args.steps > 0:
        try:
            trace = lln_run(inst, steps=args.steps, seed=args.seed, tol=args.tol)
        except AssertionError as exc:
            print(f"inequality violation: {exc}", file=sys.stderr)
            return 1
        result = LopsidedResult.of(trace.lhs, trace.rhs, args.tol)
        columns = (trace.k, trace.what_f, trace.running_avg, trace.what_h, trace.norm_h)
        table = ("steps", ("k", "what_f_k", "running_avg", "what_h_k", "norm_h_k"),
                 list(zip(*(column.tolist() for column in columns))))
    else:
        result = lopsided_check(inst, args.tol)
    summary = {"lhs": result.lhs, "rhs": result.rhs, "slack": result.slack,
               "holds": result.holds}
    return _emit(args, summary, table,
                 [",".join(summary), ",".join(map(repr, summary.values()))],
                 status=0 if (result.holds or args.force) else 1)


def cmd_selftest(args):
    results = run_all(seed=args.seed)
    passed = all(r.passed for r in results)
    return _emit(args, {"passed": passed, "criteria": [vars(r) for r in results]},
                 text=[r.line() for r in results], status=0 if passed else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choqkit",
        description="Choquet extensions of submodular setfunctions: "
                    "evaluation, variation, uncrossing, and checks.")
    parser.add_argument("--tol", type=_at_least(0, float), default=TOL,
                        help="absolute comparison tolerance >= 0 (default 1e-9)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="submodular / increasing / modular verdicts")
    p.add_argument("input", help="setfunction JSON (path or inline)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("choquet-eval", help="evaluate the Choquet extension")
    p.add_argument("input", help="setfunction JSON (path or inline)")
    p.add_argument("--function", required=True,
                   help="JSON real array of length n (path or inline)")
    p.add_argument("--shift", type=float, default=None,
                   help="explicit shift constant c >= sup|f|")
    p.add_argument("--chain", action="store_true",
                   help="also print the level chain as CSV")
    p.set_defaults(fn=cmd_choquet)

    p = sub.add_parser("variation", help="total variation and a maximizing chain")
    p.add_argument("input")
    p.set_defaults(fn=cmd_variation)

    p = sub.add_parser("decompose", help="canonical mu/nu decomposition as JSON")
    p.add_argument("input")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("uncross", help="run the uncrossing procedure")
    p.add_argument("input", help='{"n": int, "entries": [[mask, mult], ...]}')
    p.add_argument("--phi", default=None, help="optional setfunction JSON")
    p.set_defaults(fn=cmd_uncross)

    p = sub.add_parser("interval-choquet",
                       help="Choquet integral on the interval algebra")
    p.add_argument("input", help='{"phi": {...}, "f": {"breakpoints": [...], '
                                 '"values": [...]}}')
    p.set_defaults(fn=cmd_interval_choquet)

    p = sub.add_parser("fubini", help="lopsided Fubini check and LLN trace")
    p.add_argument("input")
    p.add_argument("--steps", type=_at_least(0, int), default=0)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--force", action="store_true",
                   help="skip the submodular/nonnegative hypothesis check")
    p.set_defaults(fn=cmd_fubini)

    p = sub.add_parser("selftest", help="run the invariant suite, criterion k at seed + k")
    p.add_argument("--seed", type=_at_least(-1, int), default=0)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow is refused where its result is checked, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
