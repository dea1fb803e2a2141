"""Traced in-process run of the three workload pipelines.

Spans are recorded from outside the library.  Each public call the CLI
makes for a workload gets a span: `build_relations`, the `LieModel` and
`AssocModel` constructors, `load_or_build_model`, `build_cw_surjection`,
`tym_hat_generators` and `SidedResolution.verify_weight`.  Where one layer
calls another, the public method is wrapped on that instance only:
`LieModel.project` and `struct`, and `SidedResolution.b1/b2/b3_columns`.
Counters are read from public return values and attributes, so two traced
runs of one input give identical counters.
"""

import json
import time
from contextlib import contextmanager

import workloads as wl

# Per-layer metrics of each pipeline, name -> unit.  A traced run runs all
# three pipelines and emits each pipeline's metrics under its workload's
# name, `<workload>.<layer>.<metric>`, so that a layer two pipelines share
# (`project`/`struct`) is reported for each of them apart.
LAYERS = {
    wl.ORBIT: {
        "presentation.relations_s": "s",
        "engine.build_s": "s",
        "engine.project_calls": "count",
        "engine.project_s": "s",
        "engine.struct_calls": "count",
        "engine.struct_self_s": "s",
        "engine.dim_total": "count",
        "engine.ideal_rows": "count",
        "engine.echelon_nnz": "count",
        "engine.coeff_bits_max": "bits",
        "engine.rep_accept_ratio": "ratio",
        "surjection.self_s": "s",
    },
    wl.FREEGENS: {
        "presentation.relations_s": "s",
        "cache.model_load_s": "s",
        "cache.model_bytes": "bytes",
        "engine.project_calls": "count",
        "engine.project_s": "s",
        "engine.struct_calls": "count",
        "engine.struct_self_s": "s",
        "engine.freegens_self_s": "s",
    },
    wl.RESOLUTION: {
        "presentation.relations_s": "s",
        "assoc.build_s": "s",
        "assoc.normal_words": "count",
        "assoc.candidate_ratio": "ratio",
        "resolution.columns_s": "s",
        "resolution.checks_s": "s",
        "resolution.column_nnz": "count",
        "resolution.coeff_bits_max": "bits",
    },
}

# name -> unit of every per-layer metric a traced run emits
PER_LAYER = {f"{pipeline}.{metric}": unit
             for pipeline, metrics in LAYERS.items()
             for metric, unit in metrics.items()}
PER_LAYER["trace.overhead_s"] = "s"

COLUMN_METHODS = ("b1_columns", "b2_columns", "b3_columns")


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, method, name, observe=None):
        """Trace `obj.method` on this instance; `observe` sees each result."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                out = inner(*args, **kwargs)
            if observe is not None:
                observe(out)
            return out

        setattr(obj, method, traced)

    def _named(self, names):
        return [s for s in self.spans if s["name"] in names]

    def calls(self, *names):
        return len(self._named(names))

    def total_s(self, *names):
        return sum(s["end"] - s["start"] for s in self._named(names))

    def self_s(self, *names):
        """Span time minus the time of the spans' direct children."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child.get(s["id"], 0.0)
                   for s in self._named(names))


def _relations(tr, p):
    from symalg import build_relations

    with tr.span("presentation.build_relations"):
        r0, r1 = build_relations(p)
    return r0 + r1


def _trace_lie_queries(tr, model):
    tr.wrap(model, "project", "engine.project")
    tr.wrap(model, "struct", "engine.struct")


def _orbit(tr, small, work, seed):
    from symalg import LieModel, build_cw_surjection, plan_assignment, preset

    p = preset(3, 1)
    l = wl.sizes(small)["orbit_l"]
    if l is None:  # the CLI default
        l = 2 * plan_assignment(3, 1, 1, 1)[2] + 1
    rels = _relations(tr, p)
    with tr.span("engine.LieModel"):
        model = LieModel(p.alphabet, rels, cutoff=l)
    _trace_lie_queries(tr, model)
    with tr.span("surjection.build_cw_surjection"):
        res = build_cw_surjection(p, 1, 1, l=l, model=model)
    got = json.loads(json.dumps(res.report(), default=str))
    expected = wl.reference(wl.ORBIT, small)
    ok = res.ok and all(got[k] == expected[k] for k in got)
    return None if ok else "report differs from the reference", _lie_counters(model)


def _freegens(tr, small, work, seed):
    from symalg import preset, tym_hat_generators
    from symalg.engine import load_or_build_model

    p = preset(3, 1)
    max_w = wl.sizes(small)["freegens_max"]
    digest = wl.presentation_sha256(p.to_json())
    pickle = work / "primed" / "models" / f"{digest}-l{max_w - 1}.pickle"
    # load_or_build_model builds the model when the pickle is missing;
    # then the load span would time a build, so the run fails instead
    why = None if pickle.is_file() else f"no primed model cache at {pickle.name}"
    rels = _relations(tr, p)
    with tr.span("cache.load_or_build_model"):
        model = load_or_build_model(p.alphabet, rels, max_w - 1,
                                    work / "primed", digest)
    _trace_lie_queries(tr, model)
    with tr.span("engine.tym_hat_generators"):
        analysis = tym_hat_generators(model, p.n, max_weight=max_w)
    counts = {str(w): c for w, c in analysis.counts().items()}
    if why is None and counts != wl.reference(wl.FREEGENS, small)["generator_dims"]:
        why = "generator counts differ from the reference"
    return why, {"cache.model_bytes": pickle.stat().st_size if pickle.is_file() else 0}


def _resolution(tr, small, work, seed):
    from symalg import AssocModel, SidedResolution, SymPresentation

    p = SymPresentation.from_json(next(wl.presentations(seed)))
    max_w = wl.sizes(small)["resolution_max"]
    rels = _relations(tr, p)
    with tr.span("assoc.AssocModel"):
        model = AssocModel(p.alphabet, rels, max_weight=max_w)
    counters = _assoc_counters(model)
    counters["resolution.column_nnz"] = counters["resolution.coeff_bits_max"] = 0

    def observe(cols):
        for col in cols.values():
            counters["resolution.column_nnz"] += len(col)
            for v in col.values():
                counters["resolution.coeff_bits_max"] = max(
                    counters["resolution.coeff_bits_max"],
                    abs(v.numerator).bit_length(), v.denominator.bit_length())

    reports = []
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        for method in COLUMN_METHODS:
            tr.wrap(res, method, f"resolution.{method}", observe)
        tr.wrap(res, "verify_weight", "resolution.verify_weight")
        reports += [res.verify_weight(w) for w in range(max_w + 1)]
    ok = all(r.ok for r in reports)
    return None if ok else "a resolution check failed", counters


PIPELINES = {wl.ORBIT: _orbit, wl.FREEGENS: _freegens, wl.RESOLUTION: _resolution}


def _lie_counters(model):
    nnz = bits = 0
    for solver in model.solvers.values():
        for row in solver.rows.values():
            nnz += len(row)
            bits = max(bits, max(abs(v).bit_length() for v in row.values()))
    gens = model.alphabet.generators
    dims = model.dims()
    # candidates per weight: the generators of that weight, then one
    # bracket [g, b] per generator g and lower representative b
    candidates = sum(
        sum(g.weight == w for g in gens) + sum(dims.get(w - g.weight, 0) for g in gens)
        for w in dims
    )
    return {
        "engine.dim_total": model.total_dim(),
        "engine.ideal_rows": sum(model.ideal_dim(w) for w in dims),
        "engine.echelon_nnz": nnz,
        "engine.coeff_bits_max": bits,
        "engine.rep_accept_ratio": sum(dims.values()) / candidates,
    }


def _assoc_counters(model):
    gens = model.alphabet.generators
    dims = model.dims()
    positive = [w for w in dims if w >= 1]
    # candidates per weight: g * n for every generator g and lower normal word n
    candidates = sum(dims.get(w - g.weight, 0) for w in positive for g in gens)
    return {
        "assoc.normal_words": sum(dims.values()),
        "assoc.candidate_ratio": sum(dims[w] for w in positive) / candidates,
    }


def _timings(tr):
    """Every timing and call count a pipeline's spans can give; each
    pipeline keeps the ones LAYERS names for it."""
    return {
        "presentation.relations_s": tr.total_s("presentation.build_relations"),
        "engine.build_s": tr.total_s("engine.LieModel"),
        "engine.project_calls": tr.calls("engine.project"),
        "engine.project_s": tr.total_s("engine.project"),
        "engine.struct_calls": tr.calls("engine.struct"),
        "engine.struct_self_s": tr.self_s("engine.struct"),
        "engine.freegens_self_s": tr.self_s("engine.tym_hat_generators"),
        "cache.model_load_s": tr.total_s("cache.load_or_build_model"),
        "surjection.self_s": tr.self_s("surjection.build_cw_surjection"),
        "assoc.build_s": tr.total_s("assoc.AssocModel"),
        "resolution.columns_s": tr.total_s(*(f"resolution.{m}" for m in COLUMN_METHODS)),
        "resolution.checks_s": tr.self_s("resolution.verify_weight"),
    }


def traced_run(name, small, work, seed, untraced_wall_s, spans_path):
    """Run the three pipelines once each with spans, in workload order.

    Every layer is thus measured in every traced run, on the pipeline that
    exercises it, and each pipeline's metrics carry its workload's name.
    Returns (failures, metrics) with every PER_LAYER metric;
    `trace.overhead_s` compares workload `name`'s pipeline with
    `untraced_wall_s`, the wall time of one untraced CLI process on the
    same input.  `work` must hold the primed model cache in `primed/`.
    Span ids are unique within a run id (one per pipeline).
    """
    failures = []
    metrics = {}
    spans = []
    for pipeline, run in PIPELINES.items():
        tr = Tracer(f"{pipeline}/seed{seed}")
        with tr.span(f"workload.{pipeline}"):
            why, counters = run(tr, small, work, seed)
        if why:
            failures.append(f"traced {pipeline}: {why}")
        values = {**_timings(tr), **counters}
        metrics.update({f"{pipeline}.{m}": values[m] for m in LAYERS[pipeline]})
        if pipeline == name:
            metrics["trace.overhead_s"] = tr.total_s(f"workload.{name}") - untraced_wall_s
        spans += tr.spans
    with open(spans_path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
    return failures, {m: metrics[m] for m in PER_LAYER}
