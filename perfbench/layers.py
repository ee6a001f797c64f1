"""Which of acda's callables the traced run wraps, and the per-layer
metrics made from their spans.

The per-layer metrics cover the set-up (block 0) and the first rounds of a
run (blocks 1..min_rounds), a fixed amount of work, so their counts repeat
exactly from one traced run to the next.
"""

from __future__ import annotations

from spans import Tracer, total

# Layer of each traced callable, keyed by "module:qualname".  Stage 1 is the
# ``_adversarial_fit`` call that ``run_algorithm_1`` makes directly; the
# stage-3 calls are the ones inside ``stage3_train``.  One ``_StepGraphs``
# build makes the critic and the model graph of one batch shape, with their
# gradient nodes.
LAYERS = {
    "acda.acda:_adversarial_fit": "acda.fit",
    "acda.acda:stage3_train": "acda.stage3",
    "acda.acda:query_scores": "acda.query",
    "acda.acda:select_queries": "acda.query",
    "acda.acda:random_queries": "acda.query",
    "acda.acda:update_pools": "acda.query",
    "acda.acda:uncertainty_weights": "acda.query",
    "acda.acda:run_algorithm_1": "acda.algorithm",
    "acda.acda:_StepGraphs.__init__": "autodiff.graph_build",
    "acda.autodiff:forward_eval": "autodiff.forward_eval",
    "acda.optim:Adam.step": "optim.adam",
    "acda.optim:Adam.step_ascent": "optim.adam",
    "acda.seeding:derive_seed": "seeding.derive",
    "acda.seeding:make_rng": "seeding.derive",
    "acda.transport:interpolates": "transport.interpolates",
    "acda.transport:exact_w1": "transport.exact_w1",
    "acda.nets:forward": "nets.forward",
    "acda.data:gen_two_moons_pair": "data.generate",
    "acda.data:gen_gaussian_shift_pair": "data.generate",
    "acda.data:standardize_features": "data.standardize",
    "acda.experiments:run_experiment": "experiments.run",
}


def _graph_kind(args):
    """Critic graphs take the interpolates ``xhat``; model graphs the
    classification batch ``xs_cls``."""
    graph = args[0]
    kind = "critic" if "xhat" in graph.leaves else "model" if "xs_cls" in graph.leaves else "other"
    return kind, graph.num_nodes


def _w1_case(args):
    m, n = len(args[0]), len(args[1])
    return f"n{m}" if m == n else "lp"


TAGGERS = {
    "acda.autodiff:forward_eval": _graph_kind,
    "acda.transport:exact_w1": _w1_case,
}

W1_CASES = ("n64", "n256", "n512", "lp")


def per_layer(tracer: Tracer, blocks: set, bytes_written: int) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric."""
    def spans(layer):
        return tracer.outermost(layer, blocks)

    out = {}
    fits = spans("acda.fit")
    out["acda.stage1_s"] = (total(s for s in fits if not tracer.within(s, "acda.stage3")), "s")
    out["acda.stage3_s"] = (total(spans("acda.stage3")), "s")
    out["acda.query_s"] = (total(spans("acda.query")), "s")
    adam = spans("optim.adam")
    out["acda.model_steps"] = (sum(s.name == "Adam.step" for s in adam), "count")
    out["acda.critic_steps"] = (sum(s.name == "Adam.step_ascent" for s in adam), "count")
    evals = spans("autodiff.forward_eval")
    for kind in ("critic", "model"):
        mine = [s for s in evals if s.tag[0] == kind]
        seconds = total(mine)
        out[f"autodiff.{kind}_evals"] = (len(mine), "count")
        out[f"autodiff.{kind}_eval_s"] = (seconds, "s")
        out[f"autodiff.{kind}_eval_us"] = (1e6 * seconds / len(mine) if mine else 0.0, "us")
        out[f"autodiff.{kind}_nodes"] = (
            sum(s.tag[1] for s in mine) / len(mine) if mine else 0.0, "count")
    builds = spans("autodiff.graph_build")
    out["autodiff.graphs_built"] = (len(builds), "count")
    out["autodiff.graph_build_s"] = (total(builds), "s")
    out["optim.adam_steps"] = (len(adam), "count")
    out["optim.adam_s"] = (total(adam), "s")
    for layer, name in (("seeding.derive", "seeding.derive_seed"),
                        ("transport.interpolates", "transport.interpolates"),
                        ("nets.forward", "nets.forward")):
        found = spans(layer)
        out[f"{name}_calls"] = (len(found), "count")
        out[f"{name}_s"] = (total(found), "s")
    out["data.generate_s"] = (total(spans("data.generate")), "s")
    out["data.standardize_s"] = (total(spans("data.standardize")), "s")
    harness = spans("experiments.run")
    inner = [s for s in spans("acda.algorithm") if tracer.within(s, "experiments.run")]
    out["experiments.harness_s"] = (total(harness) - total(inner), "s")
    out["experiments.bytes_written"] = (bytes_written, "count")
    solves = spans("transport.exact_w1")
    out["transport.exact_w1_calls"] = (len(solves), "count")
    for case in W1_CASES:
        out[f"transport.exact_w1_s.{case}"] = (total(s for s in solves if s.tag == case), "s")
    return out
