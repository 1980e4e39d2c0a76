"""The collinea benchmark: exact searches, enumerations and certificates over
GF(q), Z_n and the order-9 planes, timed end to end and, in a traced run,
layer by layer.

    python3 perfbench/run.py --workload minimum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run sets collinea up several times (fresh import, fields with their op
tables, plane fixtures), then repeats whole rounds of its workload's calls
until --seconds have passed, checking every result against perfbench/oracle.py
after each round, outside the timed region.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups per run: half before the rounds, half after them, so that the
# median spans the run rather than one moment of a machine whose speed drifts.
SETUP_REPEATS = 10
PARALLEL = {"threads": 2, "parallel_depth": 2}
# fractional maps certified per field in enumerate-certify, drawn from the seed
SAMPLE = {11: 8, 13: 8, 25: 2}

WORKLOADS = {
    "minimum": {"fields": (7, 8, 9), "planes": ("ag_2_9", "hall_translation_deleted")},
    "enumerate-certify": {"fields": (7, 9, 11, 13, 25),
                          "planes": ("hall_translation_deleted",)},
    "parallel": {"fields": (9,), "planes": ()},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    **{f"search.{d}.{m}": u for d in ("field", "zn")
       for m, u in (("s", "s"), ("nodes", "count"), ("knodes_per_s", "knodes/s"),
                    ("prune_ratio", "ratio"))},
    "search.plane.s": "s", "search.plane.nodes": "count",
    "search.plane.knodes_per_s": "knodes/s",
    "search.witnesses": "count",
    "search.pool.wall_s": "s", "search.pool.child_cpu_s": "s",
    "search.pool.idle_s": "s", "search.pool.child_maxrss_mib": "MiB",
    "classify.calls": "count", "classify.certify_ms.prime": "ms",
    "classify.certify_ms.ext": "ms",
    "collinear.calls": "count", "collinear.count_triples_us.prime": "us",
    "collinear.count_triples_us.ext": "us", "collinear.list_triples_us": "us",
    "collinear.recognize_ms": "ms",
    "algebra.field_ops": "count", "algebra.mul_ns.prime": "ns", "algebra.mul_ns.ext": "ns",
    "algebra.field_make_ms": "ms", "plane.load_ms": "ms",
    "trace.overhead_s": "s",
}


def cpu_now():
    """User + system CPU of this process and of its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def set_up(spec):
    """Import collinea afresh, build each field with its op tables and load
    each plane.  Returns the total time, the per-call field_make and
    load_fixture times, and the package with its fields and planes."""
    for name in [n for n in sys.modules if n == "collinea" or n.startswith("collinea.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    col = importlib.import_module("collinea")
    fields, make_s = {}, []
    for q in spec["fields"]:
        t = time.perf_counter()
        fields[q] = col.field_make(q)
        fields[q].mul(1, 1)  # extension fields build their op tables on first use
        make_s.append(time.perf_counter() - t)
    planes, load_s = {}, []
    for name in spec["planes"]:
        t = time.perf_counter()
        planes[name] = col.load_fixture(name)
        load_s.append(time.perf_counter() - t)
    return time.perf_counter() - t0, make_s, load_s, col, fields, planes


class Round:
    """Counts the public calls one round attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed call is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc()
            return None


class Env:
    """collinea's objects for one workload plus the oracle's expectations,
    computed once per run, outside the timed region."""

    def __init__(self, col, fields, planes, seed):
        import zn_oracle  # from tools/, present once main has checked the checkout

        self.zn = zn_oracle
        self.col, self.fields, self.planes = col, fields, planes
        self.rng = random.Random(seed)
        self._cache = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def field(self, q):
        return self._memo(("field", q), lambda: oracle.Field(q))

    def family(self, q):
        return self._memo(("family", q), lambda: oracle.fractional_family(self.field(q)))

    def flat(self, n):
        """(psi, lex-least minimizer) of Z_n from tools/zn_oracle.py's sweep
        over sigma(0) = 0, which holds a lex-least minimizer."""
        return self._memo(("zn", n), lambda: self.zn.flat_min(n)[::2])

    def raw_plane(self, name):
        return self._memo(("plane", name), lambda: oracle.RawPlane(name))

    def plane_truth(self, name):
        """(psi, every minimizer in lex order) at classes (0, 1), by the
        oracle's own search over raw incidence."""
        return self._memo(("minimizers", name), lambda: self.raw_plane(name).minimizers())

    # -- checks: each returns a list of problems ---------------------------

    def check_field_min(self, q, out):
        if len(out.witnesses) != 1:
            return [f"GF({q}): {len(out.witnesses)} witnesses, expected 1"]
        fam = self.family(q) if q % 2 else None
        return oracle.check_field_min(self.field(q), out.psi, out.witnesses[0], fam)

    def check_first_below(self, q, out):
        if out.psi is not None or out.witnesses:
            return [f"GF({q}): first_below found {out.witnesses} below the minimum"]
        return []

    def check_zn(self, n, out):
        if len(out.witnesses) != 1:
            return [f"Z_{n}: {len(out.witnesses)} witnesses, expected 1"]
        psi, least = self.flat(n)
        probs = oracle.check_zn(n, out.psi, out.witnesses[0], psi, self.zn.count_triples)
        if tuple(out.witnesses) != (least,):
            probs.append(f"Z_{n}: witnesses {out.witnesses}, expected the lex-least {least}")
        return probs

    def check_plane_min(self, name, out):
        return oracle.check_plane(self.raw_plane(name), out.psi, out.witnesses,
                                  self.plane_truth(name))

    def check_field_enum(self, q, out, bundles=()):
        fam = self.family(q)
        probs = oracle.check_field_enumeration(self.field(q), out.psi, out.witnesses, fam)
        for w, b in zip(out.witnesses, bundles):
            if b is not None and w in fam:
                probs += oracle.check_certificate(self.field(q), w, fam[w], b)
        return probs

    def check_plane_enum(self, name, out):
        return oracle.check_plane(self.raw_plane(name), out.psi, out.witnesses,
                                  self.plane_truth(name), enumeration=True)

    def check_sample(self, q, sample, bundles):
        probs = []
        for (images, params), b in zip(sample, bundles):
            if b is not None:
                probs += oracle.check_certificate(self.field(q), images, params, b)
        return probs

    def fractional_sample(self, q, k):
        """k distinct patched fractional maps of GF(q), drawn from the seed and
        built by the oracle."""
        F = self.field(q)
        params = set()
        while len(params) < k:
            a, b, g = (self.rng.randrange(q) for _ in range(3))
            if F.mul[a][g] != b:
                params.add((a, b, g))
        return [(oracle.fractional_map(F, *p), p) for p in sorted(params)]


def steps_for(workload, env):
    """The workload's round as (name, run(round) -> result, check(result))
    steps; the seed fixes their order."""
    col, F, P = env.col, env.fields, env.planes
    cfg = col.SearchConfig
    steps = []

    def search(fn, *args):
        # looked up at call time, so a traced round calls the traced function
        return lambda rnd: rnd.call(getattr(col, fn), *args)

    if workload == "minimum":
        for q in (7, 8, 9):
            for mode in ("min_value", "lex_least"):
                steps.append((f"{mode} GF({q})", search("min_triples_field", F[q], cfg(mode=mode)),
                              lambda out, q=q: env.check_field_min(q, out)))
        below_psi = cfg(mode="first_below", bound=oracle.odd_psi(9))
        steps.append(("first_below GF(9) at psi", search("min_triples_field", F[9], below_psi),
                      lambda out: env.check_first_below(9, out)))
        for n in (9, 10):
            steps.append((f"min_value Z_{n}", search("min_triples_zn", n, cfg()),
                          lambda out, n=n: env.check_zn(n, out)))
        for name in WORKLOADS[workload]["planes"]:
            steps.append((f"min_value {name}",
                          search("min_triples_plane", P[name], 0, 1, cfg()),
                          lambda out, name=name: env.check_plane_min(name, out)))
    elif workload == "enumerate-certify":
        enum = cfg(mode="enumerate_all_min")

        def enumerate_and_certify(q):
            def run(rnd):
                out = rnd.call(col.min_triples_field, F[q], enum)
                if out is None:
                    return None
                return out, [rnd.call(col.certificate_bundle, col.PermGraph(F[q], w))
                             for w in out.witnesses]
            return run

        for q in (7, 9):
            steps.append((f"enumerate and certify GF({q})", enumerate_and_certify(q),
                          lambda res, q=q: env.check_field_enum(q, *res)))
        name = "hall_translation_deleted"
        steps.append((f"enumerate {name}", search("min_triples_plane", P[name], 0, 1, enum),
                      lambda out: env.check_plane_enum(name, out)))
        for q, k in SAMPLE.items():
            sample = env.fractional_sample(q, k)

            def certify(rnd, q=q, sample=sample):
                return [rnd.call(col.certificate_bundle, col.PermGraph(F[q], images))
                        for images, _ in sample]

            steps.append((f"certify {k} fractional maps of GF({q})", certify,
                          lambda res, q=q, sample=sample: env.check_sample(q, sample, res)))
    else:
        steps.append(("parallel min_value GF(9)",
                      search("min_triples_field", F[9], cfg(**PARALLEL)),
                      lambda out: env.check_field_min(9, out)))
        steps.append(("parallel enumerate GF(9)",
                      search("min_triples_field", F[9], cfg(mode="enumerate_all_min", **PARALLEL)),
                      lambda out: env.check_field_enum(9, out)))
        for n in (9, 10):
            steps.append((f"parallel min_value Z_{n}",
                          search("min_triples_zn", n, cfg(**PARALLEL)),
                          lambda out, n=n: env.check_zn(n, out)))
    env.rng.shuffle(steps)
    return steps


def run_round(steps, tracer=None, describe=None):
    """One timed pass over the steps, then their checks (untimed).  Returns
    wall seconds, CPU seconds, the Round and the problems found."""
    rnd = Round()
    if tracer is not None:
        tracer.install(describe)
    try:
        c0 = cpu_now()
        t0 = time.perf_counter()
        results = [run(rnd) for _, run, _ in steps]
        wall = time.perf_counter() - t0
        cpu = cpu_now() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = []
    for (name, _, check), res in zip(steps, results):
        if res is not None:
            problems += [f"{name}: {p}" for p in check(res)]
    return wall, cpu, rnd, problems


def describer(col):
    """Span attributes: the search domain and outcome counts, and whether a
    counted or certified permutation lives over a prime or extension field."""
    by_name = {"search.min_triples_field": "field", "search.min_triples_zn": "zn",
               "search.min_triples_plane": "plane"}

    def ctx_kind(ctx):
        if isinstance(ctx, col.FieldSpec):
            return "prime" if ctx.k == 1 else "ext"
        return "ring"

    def describe(name, args, out):
        if name in by_name:
            return {"domain": by_name[name], "nodes": out.nodes_expanded,
                    "prunes": out.prunes, "witnesses": len(out.witnesses)}
        if name in ("collinear.count_triples", "classify.certificate_bundle"):
            return {"ctx": ctx_kind(args[0].ctx)}
        return None

    return describe


# spans timed per call, by metric name (prime/ext suffix added where a
# field context is recorded)
PER_CALL = {"classify.certificate_bundle": "classify.certify_ms",
            "collinear.count_triples": "collinear.count_triples_us",
            "collinear.list_triples": "collinear.list_triples_us",
            "collinear.recognize_fractional": "collinear.recognize_ms"}


def layer_metrics(tracer, rounds):
    """Per-round sums and per-call means over the traced rounds' spans."""
    spans = tracer.spans
    own = tracer.self_times()

    def domain(i):
        while i >= 0:  # search calls below min_triples_* take their caller's domain
            attrs = spans[i][4]
            if attrs and attrs.get("domain"):
                return attrs["domain"]
            i = spans[i][3]
        return None

    tot = defaultdict(float)
    n = defaultdict(int)
    maxrss = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        attrs = attrs or {}
        layer = name.split(".", 1)[0]
        if name == "search.pool":
            cpu = attrs["child_cpu_s"]
            tot["search.pool.wall_s"] += dur
            tot["search.pool.child_cpu_s"] += cpu
            tot["search.pool.idle_s"] += attrs["workers"] * dur - cpu
            tot[f"search.{domain(parent)}.s"] += cpu
            maxrss = max(maxrss, attrs["child_maxrss_mib"])
        elif layer == "search":
            dom = domain(i)
            tot[f"search.{dom}.s"] += own[i]
            if "nodes" in attrs:
                tot[f"search.{dom}.nodes"] += attrs["nodes"]
                tot[f"search.{dom}.prunes"] += attrs["prunes"]
                tot["search.witnesses"] += attrs["witnesses"]
        elif layer in ("classify", "collinear"):
            n[f"{layer}.calls"] += 1
            key = PER_CALL.get(name)
            kind = attrs.get("ctx")
            if key and kind != "ring":  # Z_n counts are in the calls only
                key += f".{kind}" if kind else ""
                tot[key] += dur
                n[key] += 1

    m = {}
    for dom in ("field", "zn", "plane"):
        s, nodes = tot[f"search.{dom}.s"] / rounds, tot[f"search.{dom}.nodes"] / rounds
        m[f"search.{dom}.s"] = s
        m[f"search.{dom}.nodes"] = nodes
        m[f"search.{dom}.knodes_per_s"] = nodes / s / 1e3 if s else 0.0
        if dom != "plane":
            prunes = tot[f"search.{dom}.prunes"] / rounds
            m[f"search.{dom}.prune_ratio"] = prunes / nodes if nodes else 0.0
    m["search.witnesses"] = tot["search.witnesses"] / rounds
    for k in ("wall_s", "child_cpu_s", "idle_s"):
        m[f"search.pool.{k}"] = tot[f"search.pool.{k}"] / rounds
    m["search.pool.child_maxrss_mib"] = maxrss
    for layer in ("classify", "collinear"):
        m[f"{layer}.calls"] = n[f"{layer}.calls"] / rounds
    for key, scale in (("classify.certify_ms.prime", 1e3), ("classify.certify_ms.ext", 1e3),
                       ("collinear.count_triples_us.prime", 1e6),
                       ("collinear.count_triples_us.ext", 1e6),
                       ("collinear.list_triples_us", 1e6), ("collinear.recognize_ms", 1e3)):
        m[key] = tot[key] / n[key] * scale if n[key] else 0.0
    m["algebra.field_ops"] = tracer.field_ops[0] / rounds
    return m


def mul_ns(f, reps=5, loops=300):
    """Median ns per FieldSpec.mul over all element pairs of f."""
    pairs = [(a, b) for a in range(f.q) for b in range(f.q)]
    mul = f.mul
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                mul(a, b)
        times.append((time.perf_counter() - t) / (loops * len(pairs)))
    return statistics.median(times) * 1e9


def run_workload(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        *times, col, fields, planes = set_up(spec)
        setups.append(times)
    env = Env(col, fields, planes, seed)
    steps = steps_for(workload, env)

    tracer = Tracer() if trace else None
    describe = describer(col) if trace else None
    walls, cpus, traced_walls = [], [], []
    tallies = []  # (Round, problems) of every round, traced or not
    while sum(walls) + sum(traced_walls) < seconds:  # checks are not counted
        wall, cpu, rnd, probs = run_round(steps)
        walls.append(wall)
        cpus.append(cpu)
        tallies.append((rnd, probs))
        print(f"round {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
        if trace:
            wall, _, rnd, probs = run_round(steps, tracer, describe)
            traced_walls.append(wall)
            tallies.append((rnd, probs))
            print(f"traced round {len(traced_walls)}: wall {wall:.3f} s", file=sys.stderr)
    problems = [p for _, probs in tallies for p in probs]

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [set_up(spec)[:3] for _ in range(SETUP_REPEATS)]
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    if trace:
        metrics = layer_metrics(tracer, len(traced_walls))
        metrics["algebra.mul_ns.prime"] = mul_ns(col.field_make(11))
        metrics["algebra.mul_ns.ext"] = mul_ns(col.field_make(9))
        metrics["algebra.field_make_ms"] = statistics.median(sum(s[1]) for s in setups) * 1e3
        load = [t for s in setups for t in s[2]]
        metrics["plane.load_ms"] = statistics.median(load) * 1e3 if load else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json"))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s[0] for s in setups),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(rnd.attempted for rnd, _ in tallies),
        "failed": sum(rnd.failed for rnd, _ in tallies),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(args):
    """Each workload in its own process (peak memory is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, v in res["metrics"].items():
            print(f"  {name:36s} {v['value']:14.6f} {v['unit']}")
            total["metrics"][f"{workload}/{name}"] = v
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join(SRC, "collinea", "__init__.py"),
                 os.path.join(ROOT, "tools", "zn_oracle.py")):
        if not os.path.isfile(need):
            print(f"{need} not found: run from a collinea source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        res = run_all(args)
    else:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        for name, v in res["metrics"].items():
            print(f"{name} {v['value']} {v['unit']}", file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
