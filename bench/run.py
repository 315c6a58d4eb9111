"""Benchmark of the tropeci engine: three seeded exact-arithmetic workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bkk_chain --seed 1 --seconds 35 --trace 0

The benchmark imports ``tropeci`` from ``src/`` of the checkout and measures
it from outside, in one process and one thread.  The loop is closed: each
operation starts when the previous one has finished, and each builds fresh
objects from the raw generated inputs.

``--trace 0`` runs operations for ``--seconds`` and reports the end-to-end
metrics.  A run cycles through a pool of distinct inputs, timing each two to
four times.  Throughput and median are taken over each distinct input's
slowest timing (see ``_slowest``), the tail over all operations.  On a
shared host the same work runs up to 40% faster in bursts of tens of seconds
when the host is quiet, while the contended speed is steadier, so the
slowest of repeats spread through the run measures the code at that speed.
For the same reason ``setup_s`` is the upper quartile of set-ups in fresh
processes, taken between operations and spread through the run.

``--trace 1`` runs each operation twice for ``--seconds``, first
untraced and then with spans around the calls into each layer (see
``tracing.py``), and reports the per-layer metrics per traced operation plus
the tracing overhead.  Either way every output is then checked, untimed,
against an independent route; a mismatch or an exception makes the command
exit 1.  Outputs (and, when traced, spans) are written under ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ["bkk_chain", "eliminant_verified", "euler_genera"]
SETUP_SAMPLES = 8

# per-layer metric -> (span or module name, statistic, unit); statistics are
# per traced operation except the ratios
PER_LAYER = {}


def _layer(span: str, stats: str, unit_of=None) -> None:
    for stat in stats.split():
        unit = {"calls": "count/op", "time_s": "s/op", "self_s": "s/op"}.get(
            stat, unit_of)
        PER_LAYER[f"{span}.{stat}"] = (span, stat, unit)


_layer("linalg.inverse_rows", "calls self_s")
_layer("linalg.solve", "calls self_s")
_layer("linalg.smith_with_basis", "calls self_s")
_layer("linalg.kernel_basis", "calls")
_layer("linalg", "self_s")
_layer("cones.dual_description", "calls self_s")
_layer("cones.chamber_complex", "calls")
_layer("cones.chamber_complex", "chambers", "count/op")
_layer("cones.may_meet_full_dim", "calls")
_layer("cones.may_meet_full_dim", "pass_ratio", "ratio")
_layer("cones", "self_s")
_layer("polytopes.LatticePolytope", "calls time_s")
_layer("polytopes.lattice_points", "calls time_s")
_layer("polytopes.lattice_points", "hit_ratio", "ratio")
_layer("polytopes.minkowski_sum", "calls")
_layer("polytopes", "self_s")
_layer("fans.wall_lift", "calls self_s")
_layer("fans.is_balanced", "calls time_s")
_layer("fans.pushforward", "time_s")
_layer("fans.consolidate", "time_s")
_layer("fans", "self_s")
_layer("plfunc.corner_locus", "calls time_s self_s")
_layer("plfunc.corner_locus", "walls", "count/op")
_layer("plfunc.refine_with_function", "calls")
_layer("plfunc.refine_with_function", "pieces", "count/op")
_layer("plfunc.refine_with_function", "keep_ratio", "ratio")
_layer("plfunc.pullback_linear", "calls time_s")
_layer("plfunc.reconstruct_polytope", "time_s")
_layer("plfunc", "self_s")
_layer("ppfunc.pp_iterated_number", "calls time_s self_s")
_layer("ppfunc._FanEngine.fold", "calls self_s")
_layer("ppfunc.triangulate_complete_fan", "simplices", "count/op")
_layer("ppfunc", "self_s")
_layer("mci.tci_from_mci", "calls time_s self_s")
PER_LAYER["mci.threshold_cells"] = ("mci.tci_from_mci", "threshold_cells", "count/op")
_layer("mci", "self_s")
_layer("elimination.shadow_function", "calls time_s self_s")
_layer("elimination.shadow_function", "cells", "count/op")
_layer("elimination.eliminant_support_value", "calls time_s")
_layer("elimination.tropical_eliminant", "time_s")
_layer("elimination", "self_s")
_layer("invariants.hirzebruch_chi_p", "time_s")
_layer("invariants.val_decompose", "calls")
_layer("invariants.val_decompose", "terms", "count/op")
_layer("invariants.euler_from_genera", "time_s")
_layer("invariants.tropical_csm", "time_s self_s")
_layer("invariants", "self_s")
PER_LAYER["trace.op_time_s"] = ("trace", "op_time_s", "s/op")
PER_LAYER["trace.overhead_ratio"] = ("trace", "overhead_ratio", "ratio")

END_TO_END_UNITS = {"throughput_ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
                    "correct_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import tropeci, generate the inputs and exit "
                         "(one sample of setup_s)")
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first on the path and load the workloads."""
    src = ROOT / "src"
    if not (src / "tropeci").is_dir():
        raise SystemExit(f"error: no tropeci sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def _setup_seconds(args) -> float:
    """Wall time of a fresh process that imports tropeci and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = perf_counter()
    # no timeout: Popen.wait polls with up to 50 ms sleeps when given one
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process exited with {proc.returncode}")
    return seconds


def _timed(op, inp) -> tuple:
    """(output, evidence, seconds, exception or None) of one operation."""
    t0 = perf_counter()
    try:
        out, ev = op(inp)
        exc = None
    except Exception as e:  # an operation's failure is a result to count
        out, ev, exc = None, None, e
    return out, ev, perf_counter() - t0, exc


def _check_all(workloads, workload, inputs, outputs, evidence, errors) -> list:
    """Oracle check of the first output per input; repeats must equal it.

    Only first outputs keep their evidence, so memory held for the checks
    does not grow with the number of operations.
    """
    ok = []
    for i, (out, ev) in enumerate(zip(outputs, evidence)):
        first = i % len(inputs)
        if i in errors:
            ok.append(False)
        elif first < i:
            ok.append(ok[first] and out == outputs[first])
        else:
            ok.append(workloads.check(workload, inputs[i], out, ev))
    return ok


def _slowest(durations, pool: int, ok) -> tuple:
    """(slowest timing, correct) per distinct input timed in the run.

    Operation ``i`` ran input ``i % pool``; an input is correct when every
    one of its operations was.
    """
    slowest, correct = {}, {}
    for i, d in enumerate(durations):
        k = i % pool
        slowest[k] = max(slowest.get(k, 0.0), d)
        correct[k] = correct.get(k, True) and ok[i]
    return list(slowest.values()), list(correct.values())


def _tail(durations) -> tuple:
    """Time at the highest percentile with at least 10 samples beyond it.

    Returns (seconds, percentile, samples beyond).  At most 10 samples have
    no such percentile; they report the maximum.
    """
    ds = sorted(durations)
    if len(ds) <= 10:
        return ds[-1], 100.0, 0
    k = len(ds) - 11
    return ds[k], 100.0 * (k + 1) / len(ds), len(ds) - 1 - k


def _report(record: dict, lines: list) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for line in lines:
        print(line)


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed)
        return 0
    inputs = workloads.make_inputs(args.workload, args.seed)
    op = workloads.OPERATIONS[args.workload]

    outputs, evidence, durations, errors = [], [], [], {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        plain_outputs, plain_seconds = [], 0.0
        start = perf_counter()
        while not outputs or perf_counter() < start + args.seconds:
            # each input runs untraced, then traced, so drifts in machine
            # speed cancel out of the overhead ratio
            i, inp = len(outputs), inputs[len(outputs) % len(inputs)]
            out, _, dur, exc = _timed(op, inp)
            plain_outputs.append(out)
            plain_seconds += dur
            if exc is not None:
                errors[i] = exc
            tracer.op_id = i
            with tracer.installed():
                out, ev, dur, exc = _timed(op, inp)
            outputs.append(out)
            evidence.append(ev if len(evidence) < len(inputs) else None)
            durations.append(dur)
            if exc is not None:
                errors[i] = exc
        n = len(outputs)
        ok = _check_all(workloads, args.workload, inputs, outputs, evidence, errors)
        mismatched = [i for i in range(n) if outputs[i] != plain_outputs[i]]
        for i in mismatched:
            ok[i] = False
        layers = tracer.per_layer(n)
        layers["trace"] = {"op_time_s": sum(durations) / n,
                           "overhead_ratio": sum(durations) / plain_seconds}
        metrics = {}
        for key, (span, stat, unit) in PER_LAYER.items():
            entry = layers[span]
            value = entry[stat] if stat in entry else (
                entry["ratio"] if stat.endswith("_ratio") else entry["x"])
            metrics[key] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        summary = [f"traced {n} operations; {len(tracer.name)} spans; "
                   f"{len(mismatched)} outputs differ from the untraced run"]
    else:
        # set-up samples are taken between operations, spread through the
        # run, and the time they take is added to the run
        setup = [_setup_seconds(args)]
        start = perf_counter()
        deadline = start + args.seconds
        while not outputs or perf_counter() < deadline:
            if (len(setup) < SETUP_SAMPLES
                    and perf_counter() >= start + len(setup) * args.seconds / SETUP_SAMPLES):
                setup.append(_setup_seconds(args))
                deadline += setup[-1]
            out, ev, dur, exc = _timed(op, inputs[len(outputs) % len(inputs)])
            if exc is not None:
                errors[len(outputs)] = exc
            outputs.append(out)
            evidence.append(ev if len(evidence) < len(inputs) else None)
            durations.append(dur)
        while len(setup) < SETUP_SAMPLES:
            setup.append(_setup_seconds(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = _check_all(workloads, args.workload, inputs, outputs, evidence, errors)
        n = len(outputs)
        slowest, slowest_ok = _slowest(durations, len(inputs), ok)
        tail, pct, beyond = _tail(durations)
        metrics = {
            "throughput_ops_per_s": sum(slowest_ok) / sum(slowest),
            "op_p50_s": statistics.median(slowest),
            "op_tail_s": tail,
            "correct_ratio": sum(ok) / n,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.quantiles(setup, n=4)[2],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        summary = [f"throughput and op_p50_s are over the slowest timing of each "
                   f"of {len(slowest)} distinct inputs; op_tail_s is the "
                   f"p{pct:.1f} of {n} operations ({beyond} samples beyond it)",
                   "setup_s samples: " + " ".join(f"{s:.4f}" for s in setup)]

    for i, exc in sorted(errors.items())[:3]:
        print(f"operation {i} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
    correct = sum(ok)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "outputs": [repr(o) for o in outputs], "correct": ok,
              "failed": sorted(errors), "durations_s": durations}
    summary.insert(0, f"{args.workload} seed={args.seed} trace={args.trace}: "
                      f"{n} operations, {correct} correct, {len(errors)} failed "
                      f"(failed_ratio {len(errors) / n:.4f})")
    _report(record, summary)
    print(json.dumps({"correct": correct == n, "attempted": n, "failed": len(errors),
                      "metrics": metrics}))
    return 0 if correct == n else 1


if __name__ == "__main__":
    sys.exit(main())
