"""The library work behind one CLI subcommand on one input.

Each task calls the public functions its subcommand calls, in the same
order, with argparse and printing left out.  `ls-decompose` and
`continuity` have no subcommand; they call one library function each.
Every call goes through `tr.call(name, ...)` so the traced run can
record a span named `<module>.<function>` around it.
"""

from __future__ import annotations

from choqkit import selftest
from choqkit.choquet import choquet
from choqkit.fubini import (FubiniInstance, lln_run, lopsided_check,
                            uniform_continuity_modulus)
from choqkit.intervals import (IntervalSetFunction, StepFunction, ae_gap,
                               choquet_interval)
from choqkit.setfunctions import (GroundSet, is_increasing, is_modular,
                                  is_submodular, setfunction_from_json)
from choqkit.uncrossing import WeightedFamily, certify_chain_equality, uncross
from choqkit.variation import (canonical_decomposition, ls_decomposition,
                               max_variation_chain, total_variation)

TOL = 1e-9


class Inputs:
    """Every input of a workload, loaded from its JSON document."""

    def __init__(self, doc, tr):
        self.phi = {key: tr.call("setfunctions.setfunction_from_json",
                                 setfunction_from_json, obj)
                    for key, obj in doc["setfunctions"].items()}
        self.vectors = {key: [[float(v) for v in row] for row in rows]
                        for key, rows in doc["vectors"].items()}
        self.fubini = {}
        for key, obj in doc["fubini"].items():
            phi = tr.call("setfunctions.setfunction_from_json",
                          setfunction_from_json, obj["phi"])
            self.fubini[key] = (obj["lambda"], obj["pi"], obj["F"], phi)
        self.families = {
            key: tr.call("uncrossing.WeightedFamily.of", WeightedFamily.of,
                         GroundSet(int(obj["n"])),
                         [(int(m), int(a)) for m, a in obj["entries"]])
            for key, obj in doc["families"].items()}
        self.intervals = {key: (_interval_phi(obj["phi"], tr),
                                tr.call("intervals.StepFunction", StepFunction,
                                        tuple(obj["f"]["breakpoints"]),
                                        tuple(obj["f"]["values"])))
                          for key, obj in doc["intervals"].items()}


def _interval_phi(obj, tr):
    """The interval setfunction of the `interval-choquet` input schema."""
    if obj["kind"] == "point-mass":
        return tr.call("intervals.IntervalSetFunction.point_mass",
                       IntervalSetFunction.point_mass,
                       obj["location"], obj["mass"])
    density = obj.get("density")
    if density is not None:
        density = (tuple(density["breakpoints"]), tuple(density["values"]))
    return tr.call("intervals.IntervalSetFunction.concave_of_measure",
                   IntervalSetFunction.concave_of_measure,
                   obj["breakpoints"], density)


def check(inp, task, tr):
    phi = inp.phi[task["phi"]]
    return (tr.call("setfunctions.is_submodular", is_submodular, phi, TOL),
            tr.call("setfunctions.is_increasing", is_increasing, phi, TOL),
            tr.call("setfunctions.is_modular", is_modular, phi, TOL))


def variation(inp, task, tr):
    phi = inp.phi[task["phi"]]
    return (tr.call("variation.total_variation", total_variation, phi),
            tr.call("variation.max_variation_chain", max_variation_chain, phi))


def decompose(inp, task, tr):
    return tr.call("variation.canonical_decomposition",
                   canonical_decomposition, inp.phi[task["phi"]])


def choquet_eval(inp, task, tr):
    phi = inp.phi[task["phi"]]
    return [tr.call("choquet.choquet", choquet, phi, f)
            for f in inp.vectors[task["vectors"]]]


def ls_decompose(inp, task, tr):
    return tr.call("variation.ls_decomposition", ls_decomposition,
                   inp.phi[task["phi"]], TOL)


def fubini(inp, task, tr):
    lam, pi, F, phi = inp.fubini[task["input"]]
    inst = tr.call("fubini.FubiniInstance.of", FubiniInstance.of,
                   lam, pi, F, phi, validate=True, tol=TOL)
    result = tr.call("fubini.lopsided_check", lopsided_check, inst, TOL)
    trace = tr.call("fubini.lln_run", lln_run, inst, steps=task["steps"],
                    seed=task["seed"], tol=TOL)
    return inst, result, trace


def uncross_task(inp, task, tr):
    phi = inp.phi[task["phi"]]
    trace = tr.call("uncrossing.uncross", uncross,
                    inp.families[task["family"]], phi)
    return trace, tr.call("uncrossing.certify_chain_equality",
                          certify_chain_equality, phi, trace.final, TOL)


def interval_choquet(inp, task, tr):
    phi, f = inp.intervals[task["input"]]
    return (tr.call("intervals.choquet_interval", choquet_interval, phi, f),
            tr.call("intervals.ae_gap", ae_gap, phi, f, TOL))


def continuity(inp, task, tr):
    return tr.call("fubini.uniform_continuity_modulus",
                   uniform_continuity_modulus, inp.phi[task["phi"]], task["pi"])


def selftest_criterion(inp, task, tr):
    k = task["criterion"]
    return tr.call(f"selftest.criterion_{k}",
                   getattr(selftest, f"criterion_{k}"), task["seed"])


# task kind -> (runner, name of the Reference check)
TASKS = {
    "check": (check, "check"),
    "variation": (variation, "variation"),
    "decompose": (decompose, "decompose"),
    "choquet-eval": (choquet_eval, "choquet_eval"),
    "ls-decompose": (ls_decompose, "ls_decompose"),
    "fubini": (fubini, "fubini"),
    "uncross": (uncross_task, "uncross"),
    "interval-choquet": (interval_choquet, "interval_choquet"),
    "continuity": (continuity, "continuity"),
    "selftest": (selftest_criterion, "selftest"),
}
