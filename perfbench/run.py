"""infgon benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload arc-pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
One operation is in flight at a time.  With ``--trace 0`` the run measures
the end-to-end metrics; with ``--trace 1`` it measures the per-layer metrics
of the traced run (see perfbench/README.md).  Every operation is checked
through an independent route.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the run record.  ``--workload all`` runs every
workload in a fresh process and prints one table.  The exit code is 1 when
an output check failed (named known-defect checks excepted) and 2 on a usage
error, such as a directory without the program's sources.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()  # before the imports below, which count towards set-up

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array

from speed import Gauge, kernel_gauge, start_gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("arc-pairs", "window-flips", "infinite-families", "cli-cold")
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
# operations per run counted in rounds of each workload's fixed mix (a round of arc-pairs is one pair)
TINY_ROUNDS = {"arc-pairs": 300, "window-flips": 2, "infinite-families": 2, "cli-cold": 1}
# traced runs: (blocks, rounds per block); each traced block follows an untraced one
TRACE_BLOCKS = {"arc-pairs": (12, 500), "window-flips": (2, 1), "infinite-families": (2, 20), "cli-cold": (4, 1)}
# peak memory is sampled over a fixed prefix of the timed pass, so a faster
# program that completes more operations (and fills its caches further) does
# not read as a memory regression
RSS_ROUNDS = {"arc-pairs": 100000, "window-flips": 20, "infinite-families": 400, "cli-cold": 1}
INFGON_MODULES = ("infgon", "surface", "arcs", "homs", "affine", "triangulation", "mutation", "render", "acceptance", "cli")


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def since_process_start() -> float:
    """Seconds since this process was created, from its kernel start time.

    Falls back to the time since this script started where the kernel's
    figure is unavailable or implausible.
    """
    fallback = time.perf_counter() - SCRIPT_START
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return since if fallback <= since < fallback + 60 else fallback


# --- metadata --------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read without running git; None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def src_lines() -> dict:
    pkg = os.path.join(SRC, "infgon")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    out["total"] = sum(out.values())
    return out


# --- statistics ----------------------------------------------------------------------


def tail(sorted_lat: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest of p99 and p90 leaving ten samples beyond.

    With fewer than 100 samples neither does; the run then reports the highest
    percentile that still leaves ten beyond it, and records which.
    """
    n = len(sorted_lat)
    for pct in (99.0, 90.0):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, sorted_lat[rank - 1], n - rank
    rank = max(n - 10, 1)
    return 100.0 * rank / n, sorted_lat[rank - 1], n - rank


def throughput(lat, round_len: int, chunks: int = 10) -> float:
    """Operations per busy second: the median over up to ten consecutive slices of whole rounds.

    A slice median keeps a few seconds of interference from other tenants of
    the machine out of the figure, where a single total would average it in.
    """
    size = max(round_len, len(lat) // chunks // round_len * round_len)
    rates = [size / math.fsum(lat[i:i + size]) for i in range(0, len(lat) - size + 1, size)]
    return statistics.median(rates) if rates else len(lat) / math.fsum(lat)


# --- the run ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, tiny: bool, workdir: str):
    if name == "cli-cold":
        from cli_cold import CliCold

        return CliCold(seed, tiny, workdir, SRC)
    import workloads

    cls = {"arc-pairs": workloads.ArcPairs, "window-flips": workloads.WindowFlips, "infinite-families": workloads.InfiniteFamilies}
    return cls[name](seed, tiny)


class Pass:
    """Outcome of one closed-loop pass: latencies, failures and known-defect checks."""

    def __init__(self) -> None:
        self.lat = array("d")  # seconds as measured
        self.scaled = array("d")  # the same, at the reference speed (speed.py)
        self.verified = 0
        self.failed = 0
        self.messages: list[str] = []
        self.defects: dict[str, list[int]] = {}  # name -> [invocations, still defective]
        self.peak_rss_mb = 0.0  # highest resident memory sampled between operations

    @property
    def busy(self) -> float:
        return math.fsum(self.lat)

    def merge(self, other: "Pass") -> None:
        self.lat.extend(other.lat)
        self.scaled.extend(other.scaled)
        self.verified += other.verified
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 5 - len(self.messages))])
        for name, (n, bad) in other.defects.items():
            seen = self.defects.setdefault(name, [0, 0])
            seen[0] += n
            seen[1] += bad
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)


def run_pass(wl, ops, seconds: float, max_ops: int | None, tracer=None, rss_ops: float = math.inf,
             gauge: Gauge | None = None) -> Pass:
    out = Pass()
    clock = time.perf_counter
    known_defect = getattr(wl, "known_defect", lambda op: None)
    deadline = clock() + seconds
    next_sample = 0.0
    since_gauge = 0.0
    for op in ops:
        if tracer is not None:
            root = tracer.begin_op(op[0])
            tracer.enabled = True
        t0 = clock()
        try:
            res, exc = wl.run(op), None
        except Exception as e:  # an operation that raises is a failed operation
            res, exc = None, e
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
            tracer.end_op(root)
        out.lat.append(t1 - t0)
        if gauge is not None:
            since_gauge += t1 - t0
            if since_gauge >= gauge.every_s:
                gauge.sample()
                since_gauge = 0.0
            out.scaled.append((t1 - t0) * gauge.scale())
        msg = f"raised {type(exc).__name__}: {exc}" if exc is not None else wl.check(op, res)
        out.verified += 1
        defect = known_defect(op)
        if defect is not None:
            seen = out.defects.setdefault(defect, [0, 0])
            seen[0] += 1
            seen[1] += msg is not None
        elif msg is not None:
            out.failed += 1
            if len(out.messages) < 5:
                out.messages.append(f"{op[0]}: {msg}")
        n = len(out.lat)
        if n <= rss_ops and (t1 >= next_sample or n == rss_ops):
            out.peak_rss_mb = max(out.peak_rss_mb, rss_mb())
            next_sample = t1 + 0.01
        if (max_ops is not None and n >= max_ops) or t1 >= deadline:
            break
    if len(out.lat) < rss_ops:
        out.peak_rss_mb = max(out.peak_rss_mb, rss_mb())
    return out


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process doing this run's set-up and nothing else: (scaled, raw)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def child_times(argv: list, env: dict, repeat: int) -> list[float]:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True)
        out.append(time.perf_counter() - t0)
    return out


def import_times(env: dict, repeat: int) -> dict:
    """Self import time of every infgon module in ms, median of cold ``-X importtime`` runs."""
    samples: dict[str, list[float]] = {m: [] for m in INFGON_MODULES}
    for _ in range(repeat):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infgon.cli"],
                              env=env, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            short = "infgon" if name == "infgon" else name[len("infgon."):] if name.startswith("infgon.") else None
            if short in samples and self_us.isdigit():
                samples[short].append(int(self_us) / 1000)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def measure(args, workdir: str) -> tuple[dict, dict, Pass]:
    gauge = start_gauge(sys.executable, _child_env()) if args.workload == "cli-cold" else kernel_gauge()
    gauge.sample(gauge.window)
    wl = make_workload(args.workload, args.seed, args.tiny, workdir)
    warm = run_pass(wl, iter(wl.warm), math.inf, None)
    gc.collect()  # set-up garbage is not the workload's memory
    setup_raw = since_process_start()
    gauge.sample(gauge.window)
    setup_main = (setup_raw * gauge.scale(), setup_raw)
    if args.probe:
        print("setup %r %r" % setup_main)
        return {}, {}, warm
    record: dict = {"workload_inputs": wl.description, "warmup_ops": len(warm.lat)}
    max_ops = TINY_ROUNDS[args.workload] * wl.round_len if args.tiny else None
    ops = wl.ops()
    if not args.trace:
        timed = run_pass(wl, ops, args.seconds, max_ops, rss_ops=RSS_ROUNDS[args.workload] * wl.round_len, gauge=gauge)
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup = [setup_main] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics, raw = {}, {}
        for out, lat, setup_s in ((metrics, timed.scaled, [s[0] for s in setup]), (raw, timed.lat, [s[1] for s in setup])):
            ordered = sorted(lat)
            pct, tail_v, beyond = tail(ordered)
            out.update({
                "setup_s": statistics.median(setup_s),
                "ops_per_s": throughput(lat, wl.round_len),
                "op_p50_ms": statistics.median(ordered) * 1e3,
                "op_tail_ms": tail_v * 1e3,
                "peak_rss_mb": children_kb / 1024 if args.workload == "cli-cold" else timed.peak_rss_mb,
            })
        record.update(raw_metrics=raw, reference=gauge.summary(), setup_samples_s=setup, samples=len(timed.lat),
                      tail_percentile=pct, tail_beyond=beyond,
                      rss_of="largest child" if args.workload == "cli-cold" else "this process during the timed pass")
        warm.merge(timed)  # warm-up answers are checked and counted too
        return metrics, record, warm

    # traced run: blocks of rounds alternate between untraced (the overhead baseline) and
    # traced, on fresh inputs of the same mix, so the program's warming caches favour neither
    from tracing import Tracer

    if args.workload == "cli-cold":
        wl.in_process = True  # cli.main replayed in this process, so its calls can be traced
    blocks, size = (1, max_ops) if args.tiny else (TRACE_BLOCKS[args.workload][0], TRACE_BLOCKS[args.workload][1] * wl.round_len)
    plain, traced = Pass(), Pass()
    tracer = Tracer()
    for _ in range(blocks):
        plain.merge(run_pass(wl, itertools.islice(ops, size), math.inf, None))
        tracer.install()
        try:
            traced.merge(run_pass(wl, itertools.islice(ops, size), math.inf, None, tracer))
        finally:
            tracer.uninstall()
    metrics = tracer.summary()
    child_env = _child_env()
    for module, ms in import_times(child_env, 1 if args.tiny else 3).items():
        metrics[f"cli.import.{module}_ms"] = ms
    metrics["cli.interp_start_ms"] = statistics.median(child_times([sys.executable, "-c", "pass"], child_env, 5)) * 1e3
    plain_rate = len(plain.lat) / plain.busy
    traced_rate = len(traced.lat) / traced.busy
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = plain_rate / traced_rate
    os.makedirs(os.path.join(STATE, "trace"), exist_ok=True)
    span_file = os.path.join(STATE, "trace", f"{args.workload}-seed{args.seed}.spans.tsv")
    record.update(spans=tracer.write_spans(span_file), span_file=os.path.relpath(span_file, ROOT),
                  traced_ops=len(traced.lat), untraced_ops=len(plain.lat))
    for p in (plain, traced):
        warm.merge(p)
    return metrics, record, warm


def _child_env() -> dict:
    from cli_cold import child_env

    return child_env(SRC)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "infgon", "__init__.py")):
        print(f"error: no infgon sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every run compiles the sources, like the cold children
    sys.path.insert(0, SRC)
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    try:
        metrics, record, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.probe:
        return 0
    spec = benchmark_spec()
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = len(result.lat)
    known = {}
    if args.workload == "cli-cold":
        from cli_cold import KNOWN_DEFECTS

        known = {name: {"expected": why, "invocations": result.defects.get(name, [0, 0])[0],
                        "still_defective": result.defects.get(name, [0, 0])[1]} for name, why in KNOWN_DEFECTS.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_lines": src_lines(), "attempted": attempted, "verified": result.verified,
        "failed": result.failed, "fail_ratio": result.failed / attempted, "failures": result.messages,
        "known_defects": known, **record,
    }
    os.makedirs(os.path.join(STATE, "records"), exist_ok=True)
    with open(os.path.join(STATE, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  ({attempted} operations)")
    shown = metrics if not args.trace else {k: v for k, v in metrics.items() if not k.endswith(".calls") or v}
    for name, value in shown.items():
        print(f"  {name:48s} {value:14.6g} {unit_of.get(name, '')}")
    print(f"  {'fail_ratio':48s} {record['fail_ratio']:14.6g} ratio  ({result.failed}/{attempted})")
    if not args.trace:
        print(f"  op_tail_ms is p{record['tail_percentile']:g} with {record['tail_beyond']} samples beyond")
    for name, k in known.items():
        state = "still defective" if k["still_defective"] else "fixed"
        print(f"  known defect {name}: {state} in {k['still_defective']}/{k['invocations']} invocations")
    for msg in result.messages:
        print(f"  FAILED {msg}")
    print("record " + json.dumps(record, sort_keys=True))
    out = {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": result.failed == 0, "attempted": attempted, "failed": result.failed, "metrics": out}))
    return 0 if result.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    rows = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        code = max(code, proc.returncode)
        rows[name] = json.loads(lines[-1])
    print()
    if not args.trace:
        e2e = benchmark_spec()["end_to_end"]
        print(f"{'workload':20s}" + "".join(f"{m['name']:>14s}" for m in e2e) + f"{'fail_ratio':>14s}")
        print(f"{'':20s}" + "".join(f"{m['unit']:>14s}" for m in e2e) + f"{'ratio':>14s}")
        for name, row in rows.items():
            vals = [row["metrics"][m["name"]]["value"] for m in e2e] + [row["failed"] / row["attempted"]]
            print(f"{name:20s}" + "".join(f"{v:14.5g}" for v in vals))
    metrics = {f"{w}.{m}": v for w, row in rows.items() for m, v in row["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": metrics,
    }))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs and a fixed handful of operations")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
