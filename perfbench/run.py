#!/usr/bin/env python3
"""The repository benchmark: qualifier inference through the shipped
`cqual` and `cquald` binaries on seeded `qual_cgen` corpora.

    python3 perfbench/run.py --workload batch|edit|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds `cqual`, `cquald` and the
helper in `perfbench/` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), works in `.bench_work/`, prints a human-readable report
and, as the last line of stdout, one JSON object
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` it times the workload and reports the end-to-end
metrics. Each workload fills the same metric names with its own
requests (see README.md):

    workload  primary_ms          control_ms          driver_ms
    batch     cqual FILE (poly)   cqual --mode mono   cqual --jobs 2
    edit      cached rerun        classic rerun       unchanged rerun
    serve     QueryQual           memo-hit Analyze    edit + Reanalyze

CPU-bound times are scaled to the speed at which the reference kernel
(`src/bin/calib.rs`, timed between the timed runs) takes
`CALIB_NOMINAL_MS`; the raw times are printed beside them.

With `--trace 1` it runs the separate in-process traced run of all
three paths on the same seed's inputs and reports the per-layer
metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BATCH_LINES = 100_000
EDIT_LINES = 37_000
# Set-up repeats whose median is `setup_s`.
SETUP_REPEATS = {"batch": 3, "edit": 3, "serve": 3}
# Reanalyzed sources of a `serve` run checked against `cqual`, evenly
# spaced over the run (the last one always among them).
SERVE_CHECKS = 8
WORKLOADS = ("batch", "edit", "serve")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Exit well inside the 180 s a run may take, whatever hangs.
WATCHDOG_S = 170
# The reference kernel's time at the speed the scaled metrics report.
CALIB_NOMINAL_MS = 100.0


class Failed(Exception):
    """The benchmark could not run; no result is printed."""


def say(line=""):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

CHILDREN = set()


def spawn(args, **kw):
    # Each child leads its own process group, so a kill also reaches
    # the daemon the traced run starts.
    p = subprocess.Popen(args, start_new_session=True, **kw)
    CHILDREN.add(p)
    return p


def kill_children():
    for p in list(CHILDREN):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        CHILDREN.discard(p)


class Run:
    """One child run: wall time, exit code, peak RSS, stdout."""

    def __init__(self, seconds, code, rss_mb, out):
        self.seconds, self.code, self.rss_mb, self.out = seconds, code, rss_mb, out


def timed(args, out_path):
    """Runs `args` to completion, stdout to `out_path`. The wall clock
    covers exec to exit; the peak RSS is the kernel's for this child."""
    with open(out_path, "wb") as out:
        t = time.perf_counter()
        p = spawn(args, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.discard(p)
    with open(out_path, "rb") as f:
        data = f.read()
    # ru_maxrss is in KiB on Linux.
    return Run(dt, p.returncode, usage.ru_maxrss / 1024.0, data)


def check_call(args):
    p = spawn(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = p.communicate()
    CHILDREN.discard(p)
    if p.returncode != 0:
        raise Failed(f"{' '.join(args)} exited {p.returncode}: {err.decode(errors='replace')[-2000:]}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values):
    """The highest percentile of the ladder with at least ten samples
    beyond it: (percentile, value, samples beyond), or None."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        at_or_below = math.ceil(n * p / 100.0)
        if n - at_or_below >= 10:
            return p, xs[at_or_below - 1], n - at_or_below
    return None


def scale(kernel_s, label=""):
    """Nominal over measured speed: a time times this (a rate divided by
    it) is the figure at the speed where the kernel takes
    CALIB_NOMINAL_MS. Prints the kernel's times and the factor."""
    k = CALIB_NOMINAL_MS / (1e3 * statistics.median(kernel_s))
    describe(f"{label}kernel_ms", kernel_s, "ms", 1e3)
    say(f"  {label + 'scale':<18} {k:12.4f}       {CALIB_NOMINAL_MS:g} ms / median {label}kernel_ms")
    return k


def describe(name, values, unit, scale=1.0):
    xs = [v * scale for v in values]
    line = f"  {name:<18} {statistics.median(xs):12.4f} {unit:<5} median of {len(xs)}"
    if len(xs) >= 4:
        q = statistics.quantiles(xs, n=4)
        line += f"; quartiles {q[0]:.4f} .. {q[2]:.4f}"
    t = tail(xs)
    if t:
        line += f"; p{t[0]:g} {t[1]:.4f} ({t[2]} samples beyond)"
    say(line)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Ctx:
    def __init__(self, args, binary, helper, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.bin = binary
        self.helper = helper
        self.work = work
        self.attempted = 0
        self.failures = []

    def kernel(self):
        """Wall seconds of one run of the reference kernel, exec to exit."""
        r = timed([os.path.join(self.bin, "calib")], self.path("calib.out"))
        if r.code != 0:
            raise Failed(f"reference kernel exited {r.code}")
        return r.seconds

    def cqual(self, *a):
        return [os.path.join(self.bin, "cqual"), *a]

    def path(self, name):
        return os.path.join(self.work, name)

    def op(self, ok, what):
        """Counts one operation; a failed one is recorded with `what`."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def gen(self, lines, name):
        out = self.path(name)
        check_call([self.helper, "gen", "--lines", str(lines), "--seed", str(self.seed), "--out", out])
        return out

    def edit(self, index, src, dst):
        check_call([self.helper, "edit", "--seed", str(self.seed), "--index", str(index), "--src", src, "--out", dst])

    def verify_gate(self, src):
        """`cqual --verify`: the independent checker certifies the
        solution. Returns the report without the certificate line."""
        r = timed(self.cqual("--verify", src), self.path("verify.out"))
        lines = r.out.decode().splitlines(keepends=True)
        ok = r.code == 0 and lines and lines[-1].startswith("cqual: certified: solution satisfies")
        self.op(ok, f"cqual --verify {os.path.basename(src)}: exit {r.code}")
        return "".join(lines[:-1]).encode()


def counts_line(report):
    return report.split(b"\n", 1)[0].decode()


def expected_counts(ctx, report_by_mode):
    """The `batch` counts must equal those pinned in expected.json."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        pinned = json.load(f)["batch"].get(str(ctx.seed))
    if pinned is None:
        return
    for mode, line in pinned.items():
        got = counts_line(report_by_mode[mode])
        ctx.op(got == line, f"batch {mode} counts {got!r} != pinned {line!r}")


def batch(ctx):
    # Set-up is everything before the timed loop: the corpus and the
    # `--verify` gate that certifies its solution.
    # Both are CPU-bound, so setup_s is scaled like the timed runs, by
    # the kernel run before and after each set-up.
    setups, setup_kernel = [], [ctx.kernel()]
    for _ in range(SETUP_REPEATS["batch"]):
        t = time.perf_counter()
        src = ctx.gen(BATCH_LINES, "batch.c")
        reference = ctx.verify_gate(src)
        setups.append(time.perf_counter() - t)
        setup_kernel.append(ctx.kernel())

    modes = {
        "poly": ctx.cqual(src),
        "mono": ctx.cqual("--mode", "mono", src),
        "jobs2": ctx.cqual("--jobs", "2", src),
    }
    # Per-run noise on a shared box is ~10% of a sample; the single-
    # threaded modes get twice the samples of the long --jobs 2 run.
    rotation = ("poly", "mono", "poly", "mono", "jobs2")
    # classic poly and the --jobs 2 driver must print the certified
    # report byte for byte; mono must repeat its own first report.
    want = {"poly": reference, "jobs2": reference, "mono": None}
    runs = {m: [] for m in modes}
    kernel = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < ctx.seconds:
        for mode in rotation:
            if time.perf_counter() - t0 >= ctx.seconds:
                break
            kernel.append(ctx.kernel())
            r = timed(modes[mode], ctx.path(f"{mode}.out"))
            if want[mode] is None:
                want[mode] = r.out
            ctx.op(r.code == 0 and r.out == want[mode], f"{mode}: exit {r.code} or report differs")
            runs[mode].append(r)
    elapsed = time.perf_counter() - t0 - sum(kernel)
    if not all(runs.values()):
        raise Failed("--seconds too short for one run of each mode")
    expected_counts(ctx, {m: rs[0].out for m, rs in runs.items()})

    say(f"batch: {BATCH_LINES}-line corpus, closed loop, 1 client, modes in turn")
    describe("setup_s", setups, "s")
    setup_k = scale(setup_kernel, "setup_")
    for mode in modes:
        describe(f"{mode}_s", [r.seconds for r in runs[mode]], "s")
    describe("peak_rss_mb", [r.rss_mb for r in runs["poly"]], "MB")
    k = scale(kernel)
    ops = sum(len(v) for v in runs.values())
    return {
        "setup_s": setup_k * statistics.median(setups),
        "primary_ms": 1e3 * k * statistics.median(r.seconds for r in runs["poly"]),
        "control_ms": 1e3 * k * statistics.median(r.seconds for r in runs["mono"]),
        "driver_ms": 1e3 * k * statistics.median(r.seconds for r in runs["jobs2"]),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs["poly"]),
        "requests_per_s": ops / elapsed / k,
    }


def edit(ctx):
    setups, fills = [], []
    for i in range(SETUP_REPEATS["edit"]):
        cache = ctx.path("cache")
        shutil.rmtree(cache, ignore_errors=True)
        t = time.perf_counter()
        src = ctx.gen(EDIT_LINES, "base.c")
        fill = timed(ctx.cqual("--cache-dir", cache, "--jobs", "2", src), ctx.path("fill.out"))
        setups.append(time.perf_counter() - t)
        fills.append(fill)
    reference = ctx.verify_gate(src)
    for fill in fills:
        ctx.op(fill.code == 0 and fill.out == reference, f"cold fill: exit {fill.code} or report differs")

    cur, nxt = ctx.path("cur.c"), ctx.path("next.c")
    shutil.copyfile(src, cur)
    cached = ctx.cqual("--cache-dir", cache, "--jobs", "2", cur)
    reruns, classics, warms = [], [], []
    kernel = []
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < ctx.seconds:
        kernel.append(ctx.kernel())
        ctx.edit(i, cur, nxt)
        os.replace(nxt, cur)
        i += 1
        rerun = timed(cached, ctx.path("rerun.out"))
        classic = timed(ctx.cqual(cur), ctx.path("classic.out"))
        # The same bytes again: every unit comes from the cache.
        warm = timed(cached, ctx.path("warm.out"))
        ctx.op(classic.code == 0, f"classic rerun: exit {classic.code}")
        ctx.op(rerun.code == 0 and rerun.out == classic.out, f"edit {i}: cached rerun report differs from classic")
        ctx.op(warm.code == 0 and warm.out == classic.out, f"edit {i}: warm rerun report differs from classic")
        reruns.append(rerun)
        classics.append(classic)
        warms.append(warm)
    elapsed = time.perf_counter() - t0 - sum(kernel)

    say(f"edit: {EDIT_LINES}-line corpus, closed loop, 1 client, one-function edit per rerun")
    describe("setup_s", setups, "s")
    # fsync-bound and too unsteady to gate: reported here and, traced,
    # as the per-layer fill.* metrics.
    describe("cold_fill_s", [r.seconds for r in fills], "s")
    describe("edit_p50_ms", [r.seconds for r in reruns], "ms", 1e3)
    describe("classic_ms", [r.seconds for r in classics], "ms", 1e3)
    describe("warm_rerun_ms", [r.seconds for r in warms], "ms", 1e3)
    describe("peak_rss_mb", [r.rss_mb for r in reruns], "MB")
    k = scale(kernel)
    return {
        "setup_s": statistics.median(setups),
        "primary_ms": 1e3 * k * statistics.median(r.seconds for r in reruns),
        "control_ms": 1e3 * k * statistics.median(r.seconds for r in classics),
        "driver_ms": 1e3 * k * statistics.median(r.seconds for r in warms),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reruns),
        "requests_per_s": 3 * len(reruns) / elapsed / k,
    }


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failed("no VmHWM for cquald")


def start_daemon(ctx, sock, cache):
    d = spawn([os.path.join(ctx.bin, "cquald"), "--socket", sock, "--cache-dir", cache],
              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.perf_counter() + 30
    while True:
        if d.poll() is not None:
            raise Failed(f"cquald exited {d.returncode} at start")
        try:
            with socket.socket(socket.AF_UNIX) as s:
                s.connect(sock)
            return d
        except OSError:
            if time.perf_counter() > deadline:
                raise Failed("cquald did not come up within 30 s")
            time.sleep(0.002)


def stop_daemon(d):
    d.send_signal(signal.SIGTERM)
    try:
        d.wait(timeout=10)
    except subprocess.TimeoutExpired:
        d.kill()
        d.wait()
    CHILDREN.discard(d)


def serve(ctx):
    sock = ctx.path("cquald.sock")
    setups = []
    daemon = None
    for i in range(SETUP_REPEATS["serve"]):
        if daemon:
            stop_daemon(daemon)
        cache = ctx.path(f"serve_cache{i}")
        t = time.perf_counter()
        src = ctx.gen(EDIT_LINES, "base.c")
        daemon = start_daemon(ctx, sock, cache)
        check_call([ctx.helper, "prime", "--socket", sock, "--src", src, "--out", ctx.path("prime.txt")])
        setups.append(time.perf_counter() - t)
        shutil.rmtree(ctx.path(f"serve_cache{i - 1}"), ignore_errors=True)
    try:
        reference = ctx.verify_gate(src)
        with open(ctx.path("prime.txt"), "rb") as f:
            ctx.op(f.read() == reference, "primed served report differs from cqual's")
        load_dir = ctx.path("load")
        os.makedirs(load_dir, exist_ok=True)
        check_call([ctx.helper, "load", "--socket", sock, "--src", src, "--seed", str(ctx.seed),
                    "--seconds", str(ctx.seconds), "--work", load_dir, "--out", ctx.path("load.json"),
                    "--calib", os.path.join(ctx.bin, "calib")])
        rss = vm_hwm_mb(daemon.pid)
    finally:
        stop_daemon(daemon)
    with open(ctx.path("load.json")) as f:
        load = json.load(f)
    ctx.attempted += load["attempted"]
    ctx.failures += load["failures"]
    ctx.failures += ["(further load failures)"] * (load["failed"] - len(load["failures"]))
    # Reanalyzed sources, checked against the CLI on the same bytes.
    checks = load["checks"]
    step = max(1, len(checks) // SERVE_CHECKS)
    for c_path, served_path in checks[::-1][::step][:SERVE_CHECKS]:
        r = timed(ctx.cqual(c_path), ctx.path("check.out"))
        with open(served_path, "rb") as f:
            ctx.op(r.code == 0 and f.read() == r.out, f"served report for {os.path.basename(c_path)} differs from cqual's")

    if not (load["query_ms"] and load["memo_ms"] and load["reanalyze_ms"]):
        raise Failed("--seconds too short for one request of each kind")
    say(f"serve: {EDIT_LINES}-line corpus resident in cquald, closed loop, 1 client, mix 16 query : 3 memo : 1 reanalyze")
    describe("setup_s", setups, "s")
    describe("query_ms", load["query_ms"], "ms")
    describe("memo_ms", load["memo_ms"], "ms")
    describe("reanalyze_ms", load["reanalyze_ms"], "ms")
    requests = len(load["query_ms"]) + len(load["memo_ms"]) + len(load["reanalyze_ms"])
    say(f"  {'requests_per_s':<18} {requests / load['elapsed_s']:12.4f} 1/s   {requests} requests")
    say(f"  {'peak_rss_mb':<18} {rss:12.4f} MB    cquald VmHWM")
    # Queries and memo hits wait on the daemon more than they compute:
    # only the CPU-bound Reanalyze is scaled.
    k = scale([ms / 1e3 for ms in load["calib_ms"]])
    return {
        "setup_s": statistics.median(setups),
        "primary_ms": statistics.median(load["query_ms"]),
        "control_ms": statistics.median(load["memo_ms"]),
        "driver_ms": k * statistics.median(load["reanalyze_ms"]),
        "peak_rss_mb": rss,
        "requests_per_s": requests / load["elapsed_s"],
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced(ctx, per_layer):
    out = ctx.path("trace.json")
    check_call([ctx.helper, "trace", "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
                "--batch-lines", str(BATCH_LINES), "--edit-lines", str(EDIT_LINES),
                "--bin", ctx.bin, "--work", ctx.work, "--out", out])
    with open(out) as f:
        doc = json.load(f)
    say("traced run (in process, all three paths on this seed's inputs)")
    for t in doc["tables"]:
        rows_sum = sum(v for _, v in t["rows"])
        ctx.op(abs(rows_sum - t["total_ms"]) <= 1e-6 * max(1.0, t["total_ms"]),
               f"{t['title']}: rows do not sum to the traced total")
        say(f"  {t['title']}: traced total {t['total_ms']:.3f} ms")
        for name, v in t["rows"]:
            say(f"    {name:<58} {v:12.3f} ms {100 * v / t['total_ms']:6.1f}%")
        if t["untraced_what"]:
            say(f"    tracing overhead: traced {t['total_ms']:.3f} ms vs untraced "
                f"{t['untraced_ms']:.3f} ms ({t['untraced_what']}), ratio {t['total_ms'] / t['untraced_ms']:.3f}")
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name not in doc["metrics"]:
            raise Failed(f"traced run did not report {name}")
        metrics[name] = {"value": doc["metrics"][name], "unit": m["unit"]}
    return metrics


# ---------------------------------------------------------------------------


def watchdog(*_):
    raise Failed(f"watchdog: the run took longer than {WATCHDOG_S} s")


def build(root):
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "qual-incr", "--bin", "cqual", "--bin", "cquald"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise Failed(f"build failed: {' '.join(cmd)}\n{r.stdout.decode(errors='replace')[-3000:]}")
    release = os.path.join(target, "release")
    return release, os.path.join(release, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary, helper = build(root)
    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)

    # Relative to the checkout root, which every child shares as its
    # working directory: keeps the daemons' socket paths short.
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(args, binary, helper, work)
    try:
        if args.trace:
            metrics = traced(ctx, spec["per_layer"])
        else:
            values = {"batch": batch, "edit": edit, "serve": serve}[args.workload](ctx)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    finally:
        kill_children()
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass  # another run is still using it

    failed = len(ctx.failures)
    for what in ctx.failures[:10]:
        say(f"FAILED: {what}")
    say(f"  {'fail_ratio':<18} {failed / max(1, ctx.attempted):12.4f}       {failed} failed of {ctx.attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except Failed as e:
        kill_children()
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
