"""Closed-loop benchmark of the causelab CLI, one workload per process.

    python3 perfbench/run.py --workload cq-large --seed 1 --seconds 26 --trace 0

Run from the root of a checkout.  Set-up imports causelab from ``src/``,
generates the workload's inputs from the seed and writes them as
instance, query, constraint and program files; it is repeated and its
median reported as ``setup_s``.  After one warm-up pass on a small
input, a single client calls ``causelab.cli.main(argv)`` in-process with
stdout captured, one request after another, in passes over the
workload's request list, until another pass would not fit in
``--seconds`` at the reference speed (or in ``WALL_CAP`` times
``--seconds`` of wall time).  Only the call is timed.  Outside the timed region every
response is checked against ``reference`` (a later identical response
by its digest); a request fails when it exits non-zero, raises, or does
not verify.

The last line of stdout is the result object; the line before it gives
the per-verb figures, and the per-request records (and spans, when
traced) go to ``.perfbench_out/`` in the checkout.

Times reported as metrics are scaled to a reference speed by a probe
loop timed around each call (see ``probe_ms``); the raw times are in the
detail line and the records.

With ``--trace 1`` passes alternate untraced and traced; the traced
ones run with :mod:`tracer` installed and give the per-layer metrics,
and the difference between the two kinds is the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# The speed probe and its time at the reference speed.  Times reported
# to BENCHMARK.json are scaled by PROBE_REF_MS over the probe time
# measured around them: on a shared 2-vCPU VM the speed swung by up to
# 40% for tens of seconds at a time; see README.md.
PROBE_LOOPS = 25_000
PROBE_REF_MS = 1.65
# Passes run while another fits in --seconds at the reference speed, so a
# slow spell does not cut the sample (and, in harness, the cache growth);
# the wall clock may stretch to WALL_CAP times --seconds.
WALL_CAP = 1.2

VERBS = ["causes", "responsibility", "repairs_s", "repairs_c", "cqa", "diagnose", "abduce", "check"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    sys.path.insert(0, str(HERE))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def pin_hash_seed(seed: int) -> None:
    """Re-execute under a hash seed derived from ``--seed``.

    Set iteration order steers the fixpoint and antichain loops, so with
    a fixed hash seed one ``--seed`` repeats the same work, and counts in
    the traced run repeat exactly.
    """
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": want})


def import_cli():
    """Import causelab afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "causelab" or m.startswith("causelab.")]:
        del sys.modules[name]
    return importlib.import_module("causelab.cli")


def probe_ms() -> float:
    """Best of three runs of a fixed arithmetic loop, in ms."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def call(main, argv: list[str], trc=None, req_id: int = -1) -> tuple[float, float, str, str, dict | None]:
    """Time one CLI call; returns (ms, probe ms, status, stdout, trace).

    The collector starts each call empty-handed, as in a fresh CLI
    process; otherwise garbage left by earlier calls decides when the
    collections inside this one run, which varied one request's time by
    a third between repeats.  The speed probe runs right before and right
    after the call, and the returned probe time is their mean.  With a
    tracer, the call is one traced request.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    before = probe_ms()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if trc:
            trc.begin_request(req_id)
        start = time.perf_counter()
        try:
            code = main(argv)
            status = "ok" if code == 0 else f"exit{code}"
        except Exception as exc:  # the CLI lets some errors escape; they are failures
            status = type(exc).__name__
        ms = (time.perf_counter() - start) * 1e3
        record = trc.end_request() if trc else None
    probe = (before + probe_ms()) / 2
    return ms, probe, status, out.getvalue() if status == "ok" else "", record


class Verifier:
    """Checks each response once; an identical later response reuses the
    verdict through its digest."""

    def __init__(self) -> None:
        self.verified: dict[str, str] = {}
        self.mismatches: list[dict] = []

    def check(self, req, text: str) -> str:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.verified.get(req.rid) == digest:
            return "ok"
        try:
            problem = req.verify(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed response: {exc!r}"
        if problem is None:
            self.verified[req.rid] = digest
            return "ok"
        self.mismatches.append({"request": req.rid, "problem": problem})
        return "mismatch"


def ranked(samples: list[dict], key: str) -> list[float]:
    """Latencies, each failure counted as slower than every success."""
    slowest = max(s[key] for s in samples)
    return [s[key] if s["status"] == "ok" else slowest for s in samples]


def summarize(samples: list[dict]) -> dict:
    """Median, geometric mean and, where ten samples lie beyond it, p90,
    at the reference speed; per-verb medians; and the raw figures."""
    ms = ranked(samples, "ref_ms")
    out = {
        "samples": len(samples),
        "req_p50_ms": statistics.median(ms),
        "req_gmean_ms": statistics.geometric_mean(s["ref_ms"] for s in samples),
        "failed_frac": sum(s["status"] != "ok" for s in samples) / len(samples),
        "raw_req_p50_ms": statistics.median(ranked(samples, "ms")),
        "raw_req_gmean_ms": statistics.geometric_mean(s["ms"] for s in samples),
        "probe_p50_ms": statistics.median(s["probe_ms"] for s in samples),
    }
    if len(ms) >= 100:
        out["req_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    for verb in VERBS:
        mine = [s for s in samples if s["verb"] == verb]
        if mine:
            out[f"{verb}_p50_ms"] = statistics.median(ranked(mine, "ref_ms"))
            out[f"{verb}_samples"] = len(mine)
    return out


def layer_metrics(traced: list[dict], passes: int, overhead_ms: float) -> dict:
    """Per-layer figures per pass over the request list."""
    import tracer

    def total(key: str, sub: str | None = None) -> float:
        return sum((r["trace"][key] if sub is None else r["trace"][key].get(sub, 0)) for r in traced) / passes

    req_ms = total("traced_ms")
    self_ms = {layer: total("self_ms", layer) for layer in tracer.LAYERS}
    uncovered = total("uncovered_ms")
    groups = sorted({g for r in traced for g in r["trace"]["group_ms"]})
    calls = sorted({c for r in traced for c in r["trace"]["calls"]})
    sets_out = total("counts", "hitting.sets_out")
    m = {
        "traced_req_ms": req_ms,
        "uncovered_ms": uncovered,
        "trace_overhead_ms": overhead_ms,
        "closure_gap_ms": req_ms - uncovered - sum(self_ms.values()),
        "io.bytes_out": sum(r["bytes_out"] for r in traced) / passes,
        "hitting.us_per_set": total("group_ms", "hitting.mhs") * 1e3 / sets_out if sets_out else 0.0,
        "model.eval_bcq_calls": total("calls", "model.eval_bcq"),
        "model.witnesses_calls": total("calls", "model.witnesses"),
        "hitting.mhs_calls": total("calls", "hitting.minimal_hitting_sets"),
        "datalog.fixpoint_calls": total("calls", "datalog._seminaive"),
        "abduction.solutions_calls": total("calls", "abduction.abductive_solutions"),
        "oracles.calls": sum((total("calls", c) for c in calls if c.startswith("oracles.")), 0.0),
    }
    for key in ["model.valuations", "model.witnesses_out", "hitting.family_in", "hitting.sets_out",
                "datalog.model_facts", "datalog.supports_out"]:
        m[key] = total("counts", key)
    for layer in tracer.LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
        m[f"{layer}.self_pct"] = 100 * self_ms[layer] / req_ms
        m[f"{layer}.errors"] = total("errors", layer)
    m["uncovered_pct"] = 100 * uncovered / req_ms
    for group in ["io.load", "io.emit", "model.join", "hitting.mhs", "hitting.minimize",
                  "datalog.fixpoint", "datalog.supports"] + groups:
        m[f"{group}_ms"] = total("group_ms", group)
    m["oracles.ms"] = m.pop("oracles_ms", 0.0)
    return m


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    import workloads

    setup_s = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        before = probe_ms()
        start = time.perf_counter()
        cli = import_cli()
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        wl = workloads.build(args.workload, args.seed, target)
        seconds = time.perf_counter() - start
        setup_s.append(seconds * PROBE_REF_MS / ((before + probe_ms()) / 2))

    for req in wl.warmup:
        call(cli.main, req.argv)

    trc = None
    if args.trace:
        import tracer
        trc = tracer.Tracer()
    verifier = Verifier()
    samples: list[dict] = []
    pass_ms = {False: [], True: []}
    started = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace and k % 2)
        if traced:
            trc.install()
        spent = 0.0
        for req in wl.pass_requests(k):
            ms, probe, status, text, record = call(cli.main, req.argv, trc if traced else None,
                                                   len(samples))
            if status == "ok":
                status = verifier.check(req, text)
            ref_ms = ms * PROBE_REF_MS / probe
            spent += ref_ms
            samples.append({"request": req.rid, "verb": req.verb, "pass": k, "traced": traced,
                            "ms": ms, "ref_ms": ref_ms, "probe_ms": probe,
                            "status": status, "bytes_out": len(text),
                            "size": dict(req.size), "trace": record})
        if traced:
            trc.uninstall()
        pass_ms[traced].append(spent)
        k += 1
        elapsed = time.perf_counter() - started
        speed = PROBE_REF_MS / statistics.median(s["probe_ms"] for s in samples)
        if (k >= 2 or not args.trace) and (
            elapsed * speed * (k + 1) / k > args.seconds or elapsed * (k + 1) / k > WALL_CAP * args.seconds
        ):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = [s for s in samples if not s["traced"]]
    summary = summarize(timed)
    failures = sorted({(s["request"], s["status"]) for s in samples if s["status"] != "ok"})
    property_failures: dict[str, int] = {}
    for s in samples:
        for pid, n in s["size"].get("property_failures", {}).items():
            property_failures[pid] = property_failures.get(pid, 0) + n
    detail = {
        "workload": args.workload, "seed": args.seed, "passes": k, **summary,
        "failures": [f"{rid}: {status}" for rid, status in failures],
        "mismatches": verifier.mismatches,
        "check_property_failures": property_failures,
    }
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "req_p50_ms": (summary["req_p50_ms"], "ms"),
        "req_gmean_ms": (summary["req_gmean_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1 - summary["failed_frac"], "ratio"),
    }
    record = {"detail": detail, "setup_s": setup_s, "samples": samples}
    if args.trace:
        traced = [s for s in samples if s["traced"]]
        overhead = statistics.fmean(pass_ms[True]) - statistics.fmean(pass_ms[False])
        layers = layer_metrics(traced, len(pass_ms[True]), overhead)
        detail["layers"] = layers
        record["spans"] = trc.dump()
        metrics = {name: (layers[name], unit) for name, unit in per_layer_units().items()}
    else:
        metrics = end_to_end
    result = {
        "correct": not verifier.mismatches,
        "attempted": len(samples),
        "failed": sum(s["status"] != "ok" for s in samples),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, record


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics BENCHMARK.json declares, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "causelab" / "cli.py").is_file():
        print(f"perfbench: no causelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_hash_seed(args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    outfile = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    outfile.write_text(json.dumps(record))
    record["detail"]["records"] = str(outfile.relative_to(ROOT))
    print(json.dumps(record["detail"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
