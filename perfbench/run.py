#!/usr/bin/env python3
"""perfbench: the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a distsplit checkout. Builds the shipped tools, the
traced driver and the host-speed probe from source (into $CARGO_TARGET_DIR,
default .bench_build), makes the workload's inputs from --seed, measures for
--seconds, checks every output, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json (untraced binaries, times given at
the reference host speed); --trace 1 the per-layer metrics (the traced
driver, perfbench/trace_driver.cpp). Exits non-zero on any correctness
failure. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import loadgen  # noqa: E402

TARGETS = ["distsplit_cli", "distsplit_rank", "distsplit_serve", "perfbench_trace",
           "perfbench_calibrate"]
JOB_TIMEOUT_S = 120.0


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# ----------------------------------------------------------------- build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail_setup("no distsplit sources next to perfbench/ (need CMakeLists.txt and src/)")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = os.path.join(out, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    blog = os.path.join(bdir, "build.log")
    with open(blog, "w") as fh:
        # Configuring every time (0.2 s once cached) picks up new targets.
        steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", bdir, "-j4", "--target"] + TARGETS]
        for cmd in steps:
            if subprocess.call(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(blog) as rd:
                    sys.stderr.write(rd.read()[-4000:])
                fail_setup("build failed: " + " ".join(cmd))
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    tools = os.path.join(bdir, "distsplit")
    return {
        "cli": os.path.join(tools, "distsplit_cli"),
        "rank": os.path.join(tools, "distsplit_rank"),
        "serve": os.path.join(tools, "distsplit_serve"),
        "trace": os.path.join(bdir, "perfbench_trace"),
        "calibrate": os.path.join(bdir, "perfbench_calibrate"),
        "work": work,
    }


# ------------------------------------------------------------- processes --

def derive_seed(seed, name):
    """A run/instance seed for `name`, a pure function of the workload seed."""
    digest = hashlib.sha256(("%s/%s" % (seed, name)).encode()).digest()
    return 1 + int.from_bytes(digest[:4], "little") % (1 << 31)


def run_process(cmd, out_path, timeout_s=JOB_TIMEOUT_S):
    """Runs `cmd` to completion with stdout+stderr in `out_path`. Returns
    (exit code, start ns, end ns, peak RSS KB of the largest process in its
    tree, output text). A hung process is killed and reported as 124."""
    with open(out_path, "w") as fh:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout_s, lambda: os.killpg(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode
    if code == -signal.SIGKILL and end - start >= timeout_s * 1e9:
        code = 124
    with open(out_path) as fh:
        text = fh.read()
    return code, start, end, usage.ru_maxrss, text


def parse_outcome(text):
    """(verified, digest) from a CLI/driver run or every rank line of a
    loopback fleet; verified only if every line agrees."""
    verified, digests = [], set()
    for line in text.splitlines():
        if line.startswith("verified: "):
            verified.append(line.split(": ", 1)[1].strip() == "yes")
        elif line.startswith("output-digest: "):
            digests.add(line.split(": ", 1)[1].strip())
        elif line.startswith("[rank ") and "output-digest=" in line:
            verified.append("verified=yes" in line)
            digests.add(line.rsplit("output-digest=", 1)[1].split()[0])
    ok = bool(verified) and all(verified) and len(digests) == 1
    return ok, (digests.pop() if len(digests) == 1 else None)


# ------------------------------------------------------------ host speed --

# What perfbench_calibrate takes on the reference host (4-vCPU KVM guest,
# Intel Xeon, 300 MiB shared L3). The host's other tenants make it slower or
# faster for minutes at a time, by up to a third on memory-bound work; on the
# one-shot workloads the probe runs after each set-up repeat and each pass,
# with none of the program's processes alive, and their end-to-end times are
# reported at the reference speed.
REFERENCE_PROBE_S = 0.2


def probe(paths, probes):
    """Runs the host-speed probe once and appends its seconds to `probes`."""
    out = subprocess.run([paths["calibrate"]], capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        fail_setup("perfbench_calibrate failed: " + out.stderr[-500:])
    probes.append(float(out.stdout.split()[0]))


def host_scale(probes):
    """Factor that turns a time measured on this host now into one at the
    reference speed; logs it with its sample count."""
    scale = REFERENCE_PROBE_S / benchlib.median(probes)
    log("host-speed probe: median %.6f s of %d, reference %.3f s, scale %.4f" % (
        benchlib.median(probes), len(probes), REFERENCE_PROBE_S, scale))
    return scale


# -------------------------------------------------------------- one-shot --

def oneshot_inputs(spec, seed, paths):
    """Packs the workload's instances (one set-up). Returns (seconds,
    {instance: (gen spec, seed, dsg path)})."""
    inputs = {}
    start = time.monotonic_ns()
    for name, gen in spec["instances"].items():
        s = derive_seed(seed, name)
        dsg = os.path.join(paths["work"], "%s.dsg" % name)
        code, _, _, _, text = run_process(
            [paths["cli"], "pack", "--gen=" + gen, "--seed=%d" % s, "--out=" + dsg],
            os.path.join(paths["work"], "pack.%s.out" % name))
        if code != 0:
            fail_setup("pack %s failed: %s" % (gen, text[-500:]))
        inputs[name] = (gen, s, dsg)
    return (time.monotonic_ns() - start) / 1e9, inputs


def job_command(job, inputs, paths, spans=None):
    gen, s, dsg = inputs[job["instance"]]
    args = list(job.get("args", []))
    if spans is not None:
        cmd = [paths["trace"], "job", "--algo=" + job["algo"], "--seed=%d" % s,
               "--spans=" + spans]
        cmd += ["--gen=" + gen] if job["tool"] == "rank" else ["--graph=" + dsg]
        return cmd + args
    if job["tool"] == "rank":
        return [paths["rank"], "--algo=" + job["algo"], "--gen=" + gen, "--seed=%d" % s] + args
    return [paths["cli"], "run", "--algo=" + job["algo"], "--graph=" + dsg,
            "--seed=%d" % s] + args


def run_pass(spec, inputs, paths, tag, traced=False):
    """One pass over the job list. Returns (pass wall s, [job records])."""
    records = []
    start = time.monotonic_ns()
    for job in spec["jobs"]:
        spans = os.path.join(paths["work"], "%s.%s.spans.json" % (tag, job["name"])) if traced else None
        out = os.path.join(paths["work"], "%s.%s.out" % (tag, job["name"]))
        code, t0, t1, rss_kb, text = run_process(job_command(job, inputs, paths, spans), out)
        verified, digest = parse_outcome(text)
        gen, s, _ = inputs[job["instance"]]
        records.append({
            "job": job["name"], "key": (gen, job["algo"], s), "code": code,
            "verified": verified, "digest": digest, "start_ns": t0, "end_ns": t1,
            "wall_ms": (t1 - t0) / 1e6, "rss_kb": rss_kb, "spans": spans,
        })
    return (time.monotonic_ns() - start) / 1e9, records


def check_records(records):
    """Marks failures in place (non-zero exit, not verified, digest
    disagreement among runs of the same (instance, algo, seed)). Returns the
    number of failed records."""
    by_key = {}
    for r in records:
        if r["digest"] is not None:
            by_key.setdefault(r["key"], set()).add(r["digest"])
    failed = 0
    for r in records:
        why = None
        if r["code"] != 0:
            why = "exit code %d" % r["code"]
        elif not r["verified"]:
            why = "not verified"
        elif len(by_key.get(r["key"], ())) != 1:
            why = "digest disagreement %s" % sorted(by_key[r["key"]])
        r["failure"] = why
        if why:
            failed += 1
            log("FAIL %s: %s" % (r["job"], why))
    return failed


def timed_passes(spec, inputs, paths, seconds, tag, traced=False, probes=None):
    """Whole passes while the next one still fits in `seconds` (at least
    one), each followed by a host-speed probe if `probes` is a list.
    Returns ([pass walls], [records])."""
    walls, records = [], []
    start = time.monotonic()
    while True:
        lap = time.monotonic()
        wall, recs = run_pass(spec, inputs, paths, "%s%d" % (tag, len(walls)), traced)
        walls.append(wall)
        records += recs
        if probes is not None:
            probe(paths, probes)
        if time.monotonic() - start + (time.monotonic() - lap) > seconds:
            return walls, records


def setup_oneshot(spec, seed, paths, probes, repeats=5):
    times = []
    for _ in range(repeats):
        t, inputs = oneshot_inputs(spec, seed, paths)
        times.append(t)
        probe(paths, probes)
    return benchlib.median(times), inputs


def oneshot_e2e(workload, spec, seed, seconds, paths):
    probes = []
    setup_s, inputs = setup_oneshot(spec, seed, paths, probes)
    # The first pass after set-up runs markedly slower (cold caches); it is
    # checked but not timed.
    _, records = run_pass(spec, inputs, paths, "warm")
    walls, timed = timed_passes(spec, inputs, paths, seconds, "e2e", probes=probes)
    records += timed
    failed = check_records(records)
    for r in records:
        log("job %-16s %9.1f ms  rss %7.1f MB  digest %s" % (
            r["job"], r["wall_ms"], r["rss_kb"] / 1024.0, r["digest"]))
    log("timed passes: %d (walls %s s) after 1 warm-up pass; jobs: %d" % (
        len(walls), ", ".join("%.3f" % w for w in walls), len(records)))
    log("measured: setup_s %.6f s, wall_s %.6f s" % (setup_s, benchlib.median(walls)))
    scale = host_scale(probes)
    metrics = {
        "setup_s": setup_s * scale,
        "wall_s": benchlib.median(walls) * scale,
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
    }
    return metrics, len(records), failed


# ---------------------------------------------------------------- ledger --

# Self time of a span goes to the layer that owns it. Round containers and
# transport phases belong to the runtime that ran them.
RUNTIME_LAYER = {"sequential": "local", "parallel": "runtime", "mp": "dist",
                 "tcp": "net", "insitu-tcp": "net"}


def runtime_of(fact):
    for key in ("parallel", "mp", "insitu-tcp", "tcp"):
        if fact.startswith(key):
            return key
    return "sequential"


def span_metric(name, runtime, algo):
    """The per-layer metric a span's self time is booked to."""
    transport = RUNTIME_LAYER[runtime]
    fixed = {
        "graph.load": "graph.load_us", "graph.generate": "graph.generate_us",
        "graph.bipartite": "graph.bipartite_us", "graph.girth": "graph.girth_us",
        "graph.shard": "graph.shard_us", "support.rng": "support.rng_us",
        "dist.partition": "dist.partition_us", "algo.verify": "algo.verify_us",
        "algo.digest": "algo.digest_us", "net.fleet": "net.launch_us",
        "net.rendezvous": "net.launch_us", "send": "local.send_us",
        "receive": "local.receive_us", "epoch": "runtime.epoch_us",
    }
    if name in fixed:
        return fixed[name]
    if name == "algo.execute":
        return "splitting.solve_us" if algo == "weak-splitting" else "local.setup_us"
    if name == "round":
        return transport + ".round_us"
    if name in ("ship", "barrier", "patch", "gather"):
        return ("net." if transport == "net" else "dist.") + name + "_us"
    return "unattributed_us"


def write_trace(paths, workload, trace):
    """Writes the run's span trees, each span tagged with its job or
    request id, as one JSON file at the end of the run."""
    path = os.path.join(paths["work"], "trace.%s.json" % workload)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    log("trace: %d spans in %s" % (len(trace), path))


def tagged(spans, owner):
    return [{"owner": owner, "id": str(sid), "name": s["name"], "start_ns": s["start_ns"],
             "end_ns": s["end_ns"], "parent": None if s["parent"] is None else str(s["parent"])}
            for sid, s in spans.items()]


def job_ledger(record, algo):
    """Per-layer self times (us) of one traced job, rooted at the process
    wall the benchmark measured. Returns (ledger, facts) where the ledger
    adds up to the process wall and its execute subtree to algo.execute_us."""
    with open(record["spans"]) as fh:
        data = json.load(fh)
    runtime = runtime_of(data["facts"].get("runtime", "sequential"))
    spans = {"P": {"name": "process", "start_ns": record["start_ns"],
                   "end_ns": record["end_ns"], "parent": None}}
    for s in data["spans"]:
        if s["parent"] == -2:
            continue  # a concurrent lane: listed in the file, not in the tree
        spans[s["id"]] = {"name": s["name"], "start_ns": s["start_ns"], "end_ns": s["end_ns"],
                          "parent": "P" if s["parent"] == -1 else s["parent"]}
    selfs = benchlib.self_times(spans)
    ledger = {}
    for sid, ns in selfs.items():
        key = "unattributed_us" if sid == "P" else span_metric(spans[sid]["name"], runtime, algo)
        ledger[key] = ledger.get(key, 0.0) + ns / 1e3
    wall_us = (record["end_ns"] - record["start_ns"]) / 1e3
    execute = [sid for sid in spans if spans[sid]["name"] == "algo.execute"]
    execute_us = sum((spans[i]["end_ns"] - spans[i]["start_ns"]) / 1e3 for i in execute)
    execute_sum = sum(benchlib.subtree_ns(spans, selfs, i) / 1e3 for i in execute)
    facts = {
        "wall_us": wall_us, "execute_us": execute_us,
        "ledger_error_us": abs(sum(ledger.values()) - wall_us) + abs(execute_sum - execute_us),
        "metrics": data["metrics"], "values": data["values"], "runtime": runtime,
        "spans": spans,
    }
    return ledger, facts


LAYER_METRICS = [
    "graph.load_us", "graph.generate_us", "graph.bipartite_us", "graph.girth_us",
    "graph.shard_us", "support.rng_us", "local.setup_us", "local.send_us",
    "local.receive_us", "local.round_us", "algo.verify_us", "algo.digest_us",
    "splitting.solve_us", "runtime.epoch_us", "runtime.round_us", "dist.partition_us",
    "dist.ship_us", "dist.barrier_us", "dist.patch_us", "dist.gather_us",
    "dist.round_us", "net.ship_us", "net.barrier_us", "net.patch_us", "net.gather_us",
    "net.round_us", "net.launch_us", "unattributed_us",
]
SERVE_METRICS = [
    "serve.client_us", "serve.daemon_us", "serve.wire_us", "serve.queue_depth_max",
    "serve.cache_hits", "serve.cache_misses", "serve.cache_hit_ratio", "serve.drain_s",
    "serve.generator_lag_ms.light", "serve.generator_lag_ms.busy",
    "serve.generator_lag_ms.full", "serve.generator_lag_ms.over", "serve.p50_ms.light",
    "serve.tail_ms.light", "serve.p50_ms.busy", "serve.tail_ms.busy", "serve.max_rate_rps",
]
COUNTER_METRICS = {
    "rounds.executed": "rounds.executed", "rounds.messages": "rounds.messages",
    "rounds.payload_words": "rounds.payload_words", "net.tx_bytes": "tcp.tx.bytes",
    "net.tx_frames": "tcp.tx.frames", "net.poll_iterations": "tcp.poll.iterations",
    "net.send_retries": "tcp.send.retries",
}


def counter_sum(metrics, prefix):
    return float(sum(v for k, v in metrics.items() if k == prefix or k.startswith(prefix + ".")))


def pass_layers(records, spec, trace):
    """Per-layer totals of one traced pass (sums over its jobs), with the
    per-job ledgers printed and the span trees appended to `trace`."""
    algo_of = {j["name"]: j["algo"] for j in spec["jobs"]}
    totals = {m: 0.0 for m in LAYER_METRICS}
    totals.update({m: 0.0 for m in COUNTER_METRICS})
    totals.update({"algo.execute_us": 0.0, "support.rng_new_ns": 0.0})
    rng_ns, worst = [], 0.0
    for r in records:
        ledger, facts = job_ledger(r, algo_of[r["job"]])
        worst = max(worst, facts["ledger_error_us"])
        trace += tagged(facts["spans"], "%s@%d" % (r["job"], r["start_ns"]))
        for k, v in ledger.items():
            totals[k] += v
        totals["algo.execute_us"] += facts["execute_us"]
        if algo_of[r["job"]] == "weak-splitting":
            # The solver computes the girth again inside execute; the probe's
            # time stands in for that share.
            totals["splitting.solve_us"] -= ledger.get("graph.girth_us", 0.0)
        for name, src in COUNTER_METRICS.items():
            totals[name] += counter_sum(facts["metrics"], src)
        rng_ns.append(facts["values"].get("support.rng_new_ns", 0.0))
        log("ledger %-16s wall %10.0f us = %s" % (r["job"], facts["wall_us"], " + ".join(
            "%s %.0f" % (k.replace("_us", ""), v) for k, v in sorted(ledger.items()) if v)))
    totals["support.rng_new_ns"] = benchlib.median(rng_ns)
    return totals, worst


def oneshot_trace(workload, spec, seed, seconds, paths):
    _, inputs = oneshot_inputs(spec, seed, paths)
    _, warm = run_pass(spec, inputs, paths, "warm")
    plain_wall, plain = run_pass(spec, inputs, paths, "plain")
    traced_walls, traced = timed_passes(spec, inputs, paths, max(0.0, seconds - plain_wall),
                                        "traced", traced=True)
    records = warm + plain + traced
    failed = check_records(records)
    if failed:
        return {}, len(records), failed
    per_pass, trace = [], []
    n = len(spec["jobs"])
    worst = 0.0
    for i in range(len(traced_walls)):
        totals, err = pass_layers(traced[i * n:(i + 1) * n], spec, trace)
        per_pass.append(totals)
        worst = max(worst, err)
    write_trace(paths, workload, trace)
    metrics = {k: benchlib.median([p[k] for p in per_pass]) for k in per_pass[0]}
    metrics["obs.trace_overhead_ratio"] = benchlib.median(traced_walls) / plain_wall
    metrics.update({m: 0.0 for m in SERVE_METRICS})  # no daemon in this workload
    log("ledger check: per job, layer self times + unattributed == process wall and the "
        "execute subtree == algo.execute_us, worst error %.3f us" % worst)
    if worst > 5.0:
        log("FAIL ledger does not add up (%.3f us)" % worst)
        failed += 1
    return metrics, len(records), failed


# ----------------------------------------------------------------- serve --

class Daemon:
    """A resident fleet: the shipped distsplit_serve, or the traced driver's
    `serve` mode. Waits for `serve: listening on port P`."""

    def __init__(self, cmd, out_path, timeout_s=30.0):
        self.fh = open(out_path, "w")
        self.launch_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.fh,
                                     cwd=ROOT, text=True, start_new_session=True)
        self.port, self.http_port = None, None
        # A daemon that never reports its port is killed, which ends the read.
        timer = threading.Timer(timeout_s, self.kill)
        timer.start()
        lines = []
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                timer.cancel()
                self.kill()
                self.proc.wait()
                fail_setup("daemon did not come up: " + "".join(lines)[-500:])
            lines.append(line)
            if line.startswith("serve: listening on port "):
                self.port = int(line.split()[-1])
            elif line.startswith("[rank 0/") and "http: listening on port" in line:
                self.http_port = int(line.split("port ")[1].split()[0])
        self.ready_ns = time.monotonic_ns()
        timer.cancel()
        self.lines = lines
        self.reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self.reader.start()

    def _drain_stdout(self):
        for line in self.proc.stdout:
            self.lines.append(line)

    def stop(self, timeout_s=30.0):
        """SIGTERM, then wait for the drain. Returns (exit code, or None if
        it hung and was killed, drain seconds). Records the peak RSS of the
        largest process of the fleet in `rss_kb`."""
        start = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        hung = threading.Event()

        def on_timeout():
            hung.set()
            os.killpg(self.proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        drain = time.monotonic() - start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        self.reader.join(timeout=5)
        self.fh.close()
        return (None if hung.is_set() else self.proc.returncode), drain

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def cache_counts(self):
        for line in self.lines:
            if line.startswith("[rank 0/") and "partition cache" in line:
                part = line.split("partition cache ")[1]
                return int(part.split()[0]), int(part.split("/ ")[1].split()[0])
        return None


def serve_inputs(spec, seed, paths):
    s = derive_seed(seed, "serve")
    dsg = os.path.join(paths["work"], "serve.dsg")
    code, _, _, _, text = run_process(
        [paths["cli"], "pack", "--gen=" + spec["instance"], "--seed=%d" % s, "--out=" + dsg],
        os.path.join(paths["work"], "pack.serve.out"))
    if code != 0:
        fail_setup("pack %s failed: %s" % (spec["instance"], text[-500:]))
    return dsg


def serve_cmd(spec, paths, dsg, http=False):
    cmd = [paths["serve"], "--local=%d" % spec["ranks"], "--graph=" + dsg]
    return cmd + (["--http-port=0"] if http else [])


def mix_entries(spec):
    return [(m["weight"], {"algo": m["algo"], "params": [tuple(p) for p in m.get("params", [])]})
            for m in spec["mix"]]


def closed_loop_list(spec, seed):
    """The fixed closed-loop request list: the mix in exact proportions."""
    n = spec["closed_loop"]["requests"]
    total = sum(m["weight"] for m in spec["mix"])
    out = []
    for m in spec["mix"]:
        for _ in range(round(n * m["weight"] / total)):
            out.append({"algo": m["algo"], "params": [tuple(p) for p in m.get("params", [])]})
    for i, req in enumerate(out):
        req["seed"] = derive_seed(seed, "closed%d" % i)
    return out


class Ids:
    def __init__(self):
        self.next = 0

    def tag(self, reqs):
        for r in reqs:
            self.next += 1
            r["id"] = self.next
        return reqs


def closed_loop(port, reqs, ids, timeout_s):
    """Sends `reqs` one at a time. Returns (wall s, records)."""
    records = []
    start = time.monotonic_ns()
    for req in ids.tag([dict(r, due_s=0.0) for r in reqs]):
        records += loadgen.run(port, [req], time.monotonic_ns(), timeout_s)
    return (time.monotonic_ns() - start) / 1e9, records


def scrape_queue_depth(http_port, stop, out):
    """Polls rank 0's /metrics for the queue-depth gauge until `stop`."""
    url = "http://127.0.0.1:%d/metrics" % http_port
    while not stop.is_set():
        try:
            with urllib.request.urlopen(url, timeout=2) as resp:
                for line in resp.read().decode().splitlines():
                    if line.startswith("distsplit_serve_queue_depth"):
                        out.append(float(line.split()[-1]))
        except OSError:
            pass
        stop.wait(0.1)


def warm_up(spec, seed, port, ids):
    """Closed-loop requests for `warmup_s` before anything is timed: a
    freshly launched fleet answers its first seconds of requests markedly
    slower. The answers are still checked."""
    records = []
    deadline = time.monotonic() + spec["warmup_s"]
    while time.monotonic() < deadline:
        records += closed_loop(port, closed_loop_list(spec, seed), ids,
                               spec["request_timeout_s"])[1]
    return records


def ladder(spec, seed, seconds, port, ids, http_port=None, only=None):
    """Runs every rung (or those in `only`) open-loop. Returns ({rung:
    summary}, all records)."""
    rungs, records = {}, []
    mix = mix_entries(spec)
    for rung, rate in spec["rates_rps"].items():
        if only is not None and rung not in only:
            continue
        count = max(20, round(spec["counts"][rung] * seconds / spec["counts_seconds"]))
        reqs = ids.tag(benchlib.schedule(seed, rung, rate, count, mix))
        depth, stop = [], threading.Event()
        scraper = None
        if http_port:
            scraper = threading.Thread(target=scrape_queue_depth, args=(http_port, stop, depth))
            scraper.start()
        # The scraper's HTTP connection takes one of the generator's slots.
        conns = loadgen.MAX_CONNECTIONS - (1 if http_port else 0)
        recs = loadgen.run(port, reqs, time.monotonic_ns() + 20_000_000,
                           spec["request_timeout_s"], conns)
        if scraper:
            stop.set()
            scraper.join()
        lat, lag = [], []
        for r in recs:
            r["rung"] = rung
            latency, late = benchlib.due_latency_ms(r["due_ns"], r["send_ns"], r["done_ns"])
            lat.append(latency)
            lag.append(late)
        failures = sum(1 for r in recs if r["status"] != "ok")
        pct, tail_ms, beyond = benchlib.tail(lat)
        span_s = (max(r["done_ns"] for r in recs) - min(r["due_ns"] for r in recs)) / 1e9
        rungs[rung] = {
            "rate": rate, "count": len(recs), "failures": failures,
            "p50_ms": benchlib.median(lat), "tail_pct": pct, "tail_ms": tail_ms,
            "beyond": beyond, "growing": benchlib.backlog_growing(lat, spec["tail_limit_ms"]),
            "ok": benchlib.rung_ok(lat, failures, spec["tail_limit_ms"]),
            "throughput_rps": len(recs) / span_s, "lag_p95_ms": benchlib.nearest_rank(sorted(lag), 95),
            "queue_depth_max": max(depth) if depth else 0.0,
        }
        records += recs
        log("rung %-5s %6.1f req/s x %d: p50 %.2f ms, tail p%g %.2f ms (%d beyond), "
            "failures %d, backlog %s, generator lag p95 %.2f ms -> %s" % (
                rung, rate, len(recs), rungs[rung]["p50_ms"], pct, tail_ms, beyond, failures,
                "growing" if rungs[rung]["growing"] else "steady", rungs[rung]["lag_p95_ms"],
                "meets" if rungs[rung]["ok"] else "misses", ))
    return rungs, records


def check_served(records, spec, dsg, paths, sample):
    """Counts failed responses, requires one digest per (algo, seed,
    params) among the served answers, and checks served digests against
    one-shot CLI runs on the same instance. Returns failures."""
    failed = 0
    for r in records:
        if r["status"] != "ok":
            failed += 1
            log("FAIL request %d (%s): %s %s" % (r["id"], r["algo"], r["status"],
                                               r.get("error") or r.get("brief")))
    served = [r for r in records if r["status"] == "ok"]
    digests = {}
    for r in served:
        digests.setdefault((r["algo"], r["seed"], tuple(r["params"])), set()).add(r["digest"])
    for key, seen in digests.items():
        if len(seen) != 1:
            failed += 1
            log("FAIL served digests disagree for %s: %s" % (key, sorted(seen)))
    # Every distinct closed-loop request, plus a strided sample of the
    # open-loop ones.
    checks = {}
    for r in served:
        if "rung" not in r:
            checks.setdefault((r["algo"], r["seed"], tuple(r["params"])), r)
    ladder_served = [r for r in served if "rung" in r]
    checks.update(((r["algo"], r["seed"], tuple(r["params"])), r)
                  for r in ladder_served[:: max(1, len(ladder_served) // sample)][:sample])
    for r in checks.values():
        cmd = [paths["cli"], "run", "--algo=" + r["algo"], "--graph=" + dsg,
               "--seed=%d" % r["seed"]] + ["--param=%s=%s" % kv for kv in r["params"]]
        code, _, _, _, text = run_process(cmd, os.path.join(paths["work"], "check.out"))
        verified, digest = parse_outcome(text)
        if code != 0 or not verified or digest != r["digest"]:
            failed += 1
            log("FAIL served digest %s for %s seed %d != one-shot %s" % (
                r["digest"], r["algo"], r["seed"], digest))
    return failed


def serve_setup(spec, paths, dsg):
    """Launches the daemon `setup_launches` times (launch -> listening) and
    stops each again. Returns (median set-up s, failed stops)."""
    times, failed = [], 0
    for i in range(spec["setup_launches"]):
        daemon = Daemon(serve_cmd(spec, paths, dsg), os.path.join(paths["work"], "setup%d.err" % i))
        times.append((daemon.ready_ns - daemon.launch_ns) / 1e9)
        failed += stop_checked(daemon)[0]
    return benchlib.median(times), failed


def stop_checked(daemon):
    """Stops `daemon`; a non-zero or hung exit is a failure. Returns
    (failures, drain s)."""
    code, drain_s = daemon.stop()
    if code != 0:
        log("FAIL daemon exit code %s after SIGTERM (drain %.3f s)" % (code, drain_s))
    return (0 if code == 0 else 1), drain_s


def closed_loop_walls(spec, seed, daemon, ids):
    """Warm-up, then `passes` closed-loop passes. Returns (walls, records)."""
    records = warm_up(spec, seed, daemon.port, ids)
    walls = []
    for _ in range(spec["closed_loop"]["passes"]):
        wall, recs = closed_loop(daemon.port, closed_loop_list(spec, seed), ids,
                                 spec["request_timeout_s"])
        walls.append(wall)
        records += recs
    return walls, records


def max_rate(rungs):
    """The highest rung with every rung up to it meeting the bar, or None."""
    best = None
    for r in sorted(rungs.values(), key=lambda r: r["rate"]):
        if not r["ok"]:
            break
        best = r
    return best


def open_loop_metrics(rungs):
    """The open-loop serving numbers: latency at the light and busy rungs,
    and the throughput measured at the highest rung meeting the bar."""
    best = max_rate(rungs)
    log("max rate: %s" % ("rung %.1f req/s, measured %.3f req/s" % (
        best["rate"], best["throughput_rps"]) if best else "no rung meets the limit"))
    out = {"max_rate_rps": best["throughput_rps"] if best else 0.0}
    for rung in ("light", "busy"):
        out["p50_ms." + rung] = rungs[rung]["p50_ms"]
        out["tail_ms." + rung] = rungs[rung]["tail_ms"]
    return out


def serve_e2e(workload, spec, seed, seconds, paths):
    """Gated: set-up, the closed-loop pass wall over several daemon
    launches, peak RSS. Printed: the open-loop ladder on the last launch."""
    dsg = serve_inputs(spec, seed, paths)
    setup_s, failed = serve_setup(spec, paths, dsg)
    ids = Ids()
    records, walls, rss_kb = [], [], 0
    launches = spec["closed_loop"]["launches"]
    for i in range(launches):
        daemon = Daemon(serve_cmd(spec, paths, dsg), os.path.join(paths["work"], "serve%d.err" % i))
        try:
            w, recs = closed_loop_walls(spec, seed, daemon, ids)
            walls.append(w)
            records += recs
            if i + 1 == launches:
                rungs, recs = ladder(spec, seed, seconds, daemon.port, ids)
                records += recs
        finally:
            fails, drain_s = stop_checked(daemon)
        failed += fails
        rss_kb = max(rss_kb, daemon.rss_kb)
    log("closed-loop passes of %d requests, per launch: %s s; drain %.3f s; cache %s" % (
        spec["closed_loop"]["requests"],
        " | ".join(", ".join("%.4f" % w for w in launch) for launch in walls), drain_s,
        daemon.cache_counts()))
    failed += check_served(records, spec, dsg, paths, spec["check_sample"])
    for name, value in open_loop_metrics(rungs).items():
        log("open-loop %-16s %12.4f %s" % (name, value, "1/s" if name.endswith("rps") else "ms"))
    metrics = {
        "setup_s": setup_s,
        # Whole launches run up to twice as slow as others; the best
        # launch's median pass estimates the uncontended per-request cost.
        "wall_s": min(benchlib.median(launch) for launch in walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, len(records) + spec["setup_launches"] + launches, failed


def request_ledgers(records, spans_path, trace):
    """Assigns the traced daemon's rank-0 round spans to the requests whose
    client window holds them (requests ran one at a time), books self times
    per layer and appends each request's span tree to `trace`. Returns
    (per-layer sums, worst ledger error us)."""
    with open(spans_path) as fh:
        data = json.load(fh)
    top = [s for s in data["spans"] if s["parent"] == -1 and s["name"] in ("round", "gather")]
    kids = {}
    for s in data["spans"]:
        if s["parent"] >= 0:
            kids.setdefault(s["parent"], []).append(s)
    totals, worst = {}, 0.0
    for r in records:
        spans = {"R": {"name": "request", "start_ns": r["send_ns"], "end_ns": r["done_ns"],
                       "parent": None}}
        for s in top:
            if s["start_ns"] >= r["send_ns"] and s["end_ns"] <= r["done_ns"]:
                spans[s["id"]] = {"name": s["name"], "start_ns": s["start_ns"],
                                  "end_ns": s["end_ns"], "parent": "R"}
                for k in kids.get(s["id"], []):
                    spans[k["id"]] = {"name": k["name"], "start_ns": k["start_ns"],
                                      "end_ns": k["end_ns"], "parent": s["id"]}
        selfs = benchlib.self_times(spans)
        trace += tagged(spans, "request-%d" % r["id"])
        booked = 0.0
        for sid, ns in selfs.items():
            key = "unattributed_us" if sid == "R" else span_metric(spans[sid]["name"], "tcp", r["algo"])
            totals[key] = totals.get(key, 0.0) + ns / 1e3
            booked += ns / 1e3
        worst = max(worst, abs(booked - (r["done_ns"] - r["send_ns"]) / 1e3))
    return totals, worst


def serve_trace(workload, spec, seed, seconds, paths):
    dsg = serve_inputs(spec, seed, paths)
    ids = Ids()
    # The shipped daemon, untraced: the open-loop ladder (latency, generator
    # lag), a closed-loop pass for the client/daemon/wire split, the drain.
    daemon = Daemon(serve_cmd(spec, paths, dsg), os.path.join(paths["work"], "serve.plain.err"))
    try:
        walls, records = closed_loop_walls(spec, seed, daemon, ids)
        plain_recs = records[-spec["closed_loop"]["requests"]:]
        rungs, recs = ladder(spec, seed, seconds, daemon.port, ids)
        records += recs
    finally:
        failed, drain_s = stop_checked(daemon)
    cache = daemon.cache_counts() or (0, 0)
    # The instrumented daemon (--http-port turns its recorder on) under the
    # busy rung, for the queue depth /metrics reports.
    daemon = Daemon(serve_cmd(spec, paths, dsg, http=True), os.path.join(paths["work"], "serve.http.err"))
    try:
        records += warm_up(spec, seed, daemon.port, ids)
        http_rungs, recs = ladder(spec, seed, seconds, daemon.port, ids, daemon.http_port,
                                  only=("busy",))
        records += recs
    finally:
        failed += stop_checked(daemon)[0]
    # The traced driver's in-process daemon: the per-request ledger and the
    # overhead against the untraced closed-loop pass.
    spans_path = os.path.join(paths["work"], "serve.spans.json")
    daemon = Daemon([paths["trace"], "serve", "--graph=" + dsg, "--local=%d" % spec["ranks"],
                     "--spans=" + spans_path], os.path.join(paths["work"], "serve.traced.err"))
    try:
        traced_walls, traced_recs = closed_loop_walls(spec, seed, daemon, ids)
        records += traced_recs
        traced_recs = traced_recs[-spec["closed_loop"]["requests"]:]
    finally:
        failed += stop_checked(daemon)[0]
    failed += check_served(records, spec, dsg, paths, spec["check_sample"])
    if failed:
        return {}, len(records), failed
    trace = []
    layers, worst = request_ledgers(traced_recs, spans_path, trace)
    write_trace(paths, workload, trace)
    with open(spans_path) as fh:
        part = [s for s in json.load(fh)["spans"] if s["name"] == "dist.partition"]
    client = [(r["done_ns"] - r["send_ns"]) / 1e3 for r in plain_recs]
    daemon_us = [float(r["wall_us"]) for r in plain_recs]
    log("serve: client p50 %.0f us, daemon wall_us p50 %.0f us (millisecond resolution), "
        "cache %d hits / %d misses, drain %.3f s, request ledger worst error %.3f us" % (
            benchlib.median(client), benchlib.median(daemon_us), cache[0], cache[1],
            drain_s, worst))
    metrics = {m: 0.0 for m in LAYER_METRICS}
    metrics.update({m: 0.0 for m in COUNTER_METRICS})
    metrics.update(layers)
    metrics.update({
        "algo.execute_us": 0.0, "support.rng_new_ns": 0.0,
        "dist.partition_us": (part[0]["end_ns"] - part[0]["start_ns"]) / 1e3 if part else 0.0,
        "serve.client_us": benchlib.median(client),
        "serve.daemon_us": benchlib.median(daemon_us),
        "serve.wire_us": benchlib.median([c - d for c, d in zip(client, daemon_us)]),
        "serve.queue_depth_max": max(r["queue_depth_max"] for r in http_rungs.values()),
        "serve.cache_hits": float(cache[0]),
        "serve.cache_misses": float(cache[1]),
        "serve.cache_hit_ratio": cache[0] / float(max(1, cache[0] + cache[1])),
        "serve.drain_s": drain_s,
        "obs.trace_overhead_ratio": benchlib.median(traced_walls) / benchlib.median(walls),
    })
    metrics.update({"serve." + k: v for k, v in open_loop_metrics(rungs).items()})
    for rung, r in rungs.items():
        metrics["serve.generator_lag_ms." + rung] = r["lag_p95_ms"]
    if worst > 5.0:
        log("FAIL request ledger does not add up (%.3f us)" % worst)
        failed += 1
    return metrics, len(records), failed


# ------------------------------------------------------------------ main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail_setup("BENCHMARK.json not found at the checkout root")
    with open(bench_path) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)
    if args.workload not in workloads:
        fail_setup("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))
    paths = build()
    spec = workloads[args.workload]
    serve = args.workload == "serve-open"
    if args.trace:
        run = serve_trace if serve else oneshot_trace
    else:
        run = serve_e2e if serve else oneshot_e2e
    metrics, attempted, failed = run(args.workload, spec, args.seed, args.seconds, paths)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            if not failed:
                fail_setup("metric %s was not measured" % m["name"])
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        log("metric %-32s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    log("fail_ratio: %d / %d = %.6f ratio" % (failed, attempted, failed / float(attempted)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
