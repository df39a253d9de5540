#!/usr/bin/env python3
"""End-to-end benchmark of the ivt product (paper Algorithm 1, lines 2-29,
plus the output sink, the Sec. 4.4 apps and the serve daemon).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds `ivt` and
the probe (perfbench/probe) into $CARGO_TARGET_DIR (default .bench_build)
with the repository's own CMake build. Inputs are generated from --seed;
the product only ever sees the generated files.

--trace 0 measures the shipped binary, untraced, one child process per
job (so peak RSS and CPU come from that child's own wait4 rusage) and
prints the end-to-end metrics. --trace 1 additionally runs each job
decomposed into public calls in perfbench_probe, with one bench-side
span per call, and prints the per-layer metrics. Every job and a seeded
sample of serve requests is checked against reference outputs. The
last stdout line is the result object; details of the run (inputs,
modes, environment, raw samples) go to .bench_work/.
"""

import argparse
import json
import math
import os
import platform
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
NPROC = os.cpu_count() or 1

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # One vehicle per dataset (perfbench_probe simulate, vehicle seed 42);
    # --seed draws the journey. The vehicle sets the catalog and how much
    # work a journey second holds: with `ivt simulate --seed`, which draws
    # both, SYN's records varied 0.8M-1.48M between seeds at equal K_s +
    # reduced rows, and set-up time with them. Journeys of one vehicle
    # match in size to within 0.1 %. LIG 0.0058: about 12,000 records;
    # SYN 0.092: about 2.2M K_s + reduced rows.
    "lig_wide": {"kind": "batch", "dataset": "LIG", "scale": 0.0058,
                 "mine": True, "exec": "batch", "ref": "lig_wide"},
    "syn_long": {"kind": "batch", "dataset": "SYN", "scale": 0.092,
                 "mine": True, "exec": "batch", "ref": "syn_long"},
    "syn_dist": {"kind": "batch", "dataset": "SYN", "scale": 0.092,
                 "mine": False, "exec": "dist", "ref": "syn_long"},
    # The journeys and groups are fixed (data seed 42, group seed 0);
    # --seed draws the time slices. Tier-2 hits and misses depend on
    # entry sizes against the 64 MiB budget, and drawing the data per
    # seed swung CPU per request and peak RSS by 20-50 % between seeds.
    "serve_domains": {"kind": "serve", "dataset": "LIG", "scale": 0.01,
                      "data_seed": 42, "journeys": 4, "chunks_per_journey": 8,
                      "rate_rps": 30, "groups_per_domain": 3},
}
SIM_NODES = 4
LADDER_RPS = (25, 50, 100)
LADDER_REQUESTS = 500  # p98 is the highest percentile with 10 samples beyond
LADDER_PERCENTILE = 98
P99_REQUESTS = 1000
SERVE_CONNECTIONS = min(4, NPROC)
SERVE_VERIFY_SAMPLE = 24
MIN_JOBS = 3
JOB_LIMIT_S = 60.0  # a batch job slower than this counts as failed

END_TO_END = {
    "setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB",
    "slo_ok_frac": "frac",
}
STAGES = ("preselect", "interpret", "split", "reduce", "classify", "branch",
          "stream_extract_split", "dist_merge")
PER_LAYER = dict(
    [("colstore.scan_ms", "ms"), ("colstore.rows_out", "count"),
     ("colstore.chunks_decoded", "count"), ("colstore.chunks_pruned", "count"),
     ("colstore.runs_pruned_frac", "frac"), ("colstore.pack_ms", "ms"),
     ("core.extract_reduce_ms", "ms"), ("core.ks_rows", "count"),
     ("core.reduced_rows", "count"), ("core.reduce_keep_frac", "frac"),
     ("core.pipeline_ms", "ms")]
    + [("core.stage.%s_ms" % s, "ms") for s in STAGES]
    + [("core.state_repr_ms", "ms"), ("core.state_rows", "count"),
       ("core.state_cells", "count"), ("core.state_rss_hwm_mb", "MB"),
       ("dataflow.sink_ms", "ms"), ("dataflow.sink_mb", "MB"),
       ("dataflow.pool_busy_frac", "frac"), ("apps.anomaly_ms", "ms"),
       ("apps.transition_ms", "ms"), ("apps.rules_ms", "ms"),
       ("serve.req_p50_ms", "ms"), ("serve.req_p99_ms", "ms"),
       ("serve.slo_rps", "1/s"), ("serve.wait_ms_p50", "ms"),
       ("serve.wait_ms_p99", "ms"), ("serve.compute_ms_p50", "ms"),
       ("serve.compute_ms_p99", "ms"), ("serve.stage.scan_ms_p50", "ms"),
       ("serve.stage.pipeline_ms_p50", "ms"),
       ("serve.stage.serialize_ms_p50", "ms"),
       ("serve.state_cache_hit_frac", "frac"),
       ("serve.state_cache_evictions", "count"),
       ("serve.state_cache_mb", "MB"), ("serve.chunk_cache_hit_frac", "frac"),
       ("serve.chunks_decoded", "count"), ("serve.overloaded_frac", "frac"),
       ("serve.gen_lag_ms_p99", "ms"), ("serve.payload_mb", "MB"),
       ("dist.run_ms", "ms"), ("dist.merge_ms", "ms"),
       ("dist.ranges_total", "count"), ("dist.speculative_launched", "count"),
       ("dist.spec_win_frac", "frac"), ("dist.results_deduped", "count"),
       ("bench.traced_job_ms", "ms"), ("bench.trace_overhead_frac", "frac"),
       ("bench.unaccounted_frac", "frac")])


class BenchError(Exception):
    pass


# ------------------------------------------------------------ processes

LIVE = []  # Popen objects still running


class ChildResult:
    def __init__(self, rc, wall, cpu, rss_mb, stdout, stderr):
        self.rc, self.wall, self.cpu, self.rss_mb = rc, wall, cpu, rss_mb
        self.stdout, self.stderr = stdout, stderr


def reap(proc):
    """wait4 the child: (exit code, user+sys seconds, peak RSS MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc in LIVE:
        LIVE.remove(proc)
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def run_child(argv, work, timeout=170):
    """Run one process to completion; its rusage is its own. A child
    still running after `timeout` seconds is killed."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        LIVE.append(proc)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            rc, cpu, rss = reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "r", errors="replace") as f:
        stdout = f.read()
    with open(err_path, "r", errors="replace") as f:
        stderr = f.read()
    return ChildResult(rc, wall, cpu, rss, stdout, stderr)


def run_checked(argv, work, what):
    res = run_child(argv, work)
    if res.rc != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, res.rc, res.stderr.strip()[-800:]))
    return res


def stop_all():
    for proc in list(LIVE):
        try:
            proc.kill()
        except OSError:
            pass
        try:
            reap(proc)
        except ChildProcessError:
            LIVE.remove(proc)


# ------------------------------------------------------------ build

def build():
    """Configure (once) and build `ivt` plus the probe; returns paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no ivt sources in %s: run from a checkout root"
                         % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    with open(log, "ab") as out:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            argv = ["cmake", "-S", ROOT, "-B", build_dir,
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(HERE, "probe", "inject.cmake")]
            if shutil.which("ninja"):
                argv += ["-G", "Ninja"]
            if subprocess.call(argv, stdout=out, stderr=out) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                raise BenchError("cmake configure failed (see %s)" % log)
        argv = ["cmake", "--build", build_dir, "--target", "ivt",
                "perfbench_probe", "-j", str(NPROC)]
        if subprocess.call(argv, stdout=out, stderr=out) != 0:
            raise BenchError("build failed (see %s)" % log)
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                         line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    # The root CMakeLists.txt picks the build type when the cache leaves
    # it empty; the compile line shows what was actually used.
    flags = ""
    with open(os.path.join(build_dir, "compile_commands.json")) as f:
        for entry in json.load(f):
            if entry["file"].endswith("pipeline.cpp"):
                flags = " ".join(w for w in entry["command"].split()
                                 if w.startswith(("-O", "-g", "-D", "-m")))
    return {
        "ivt": os.path.join(build_dir, "src", "cli", "ivt"),
        "probe": os.path.join(build_dir, "perfbench_probe"),
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "project default",
        "compile_flags": flags,
        "compiler": version,
    }


# ------------------------------------------------------------ setup

# setup_s is the median of at least SETUP_MIN_RUNS set-ups. Host speed
# drifts over seconds, so batch workloads spread their repeats over the
# run, SETUP_PER_JOB_S of set-ups after each job; serve repeats its
# set-up up front for at least SETUP_FLOOR_S (at most SETUP_MAX_RUNS).
SETUP_MIN_RUNS = 5
SETUP_PER_JOB_S = 0.25
SETUP_FLOOR_S = 3.0
SETUP_MAX_RUNS = 25


def timed_setup(make_one, d, samples):
    """One set-up into the fresh directory `d`; appends its wall time to
    `samples` and returns what make_one returns."""
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    start = time.perf_counter()
    result = make_one(d)
    samples.append(time.perf_counter() - start)
    return result


def timed_setups(make_one, first_dir):
    """Repeat set-up back to back; returns (median_s, samples, result of
    the last set-up). Earlier set-ups are torn down."""
    samples = []
    last = None
    while len(samples) < SETUP_MIN_RUNS or (sum(samples) < SETUP_FLOOR_S and
                                            len(samples) < SETUP_MAX_RUNS):
        if last is not None:
            last["teardown"]()
        last = timed_setup(make_one, "%s%d" % (first_dir, len(samples)),
                           samples)
    return bl.median(samples), samples, last


def simulate(tools, cfg, seed, d, work, journeys):
    prefix = os.path.join(d, "in")
    res = run_checked([tools["ivt"], "simulate", "--dataset", cfg["dataset"],
                       "--scale", repr(cfg["scale"]), "--seed", str(seed),
                       "--journeys", str(journeys), "--out", prefix],
                      work, "simulate")
    records = [int(n) for n in re.findall(r"\((\d+) records", res.stderr)]
    return prefix, records


def pack(tools, ivt_path, ivc_path, work, chunk_rows=None):
    argv = [tools["ivt"], "pack", "--trace", ivt_path, "--out", ivc_path]
    if chunk_rows:
        argv += ["--chunk-rows", str(chunk_rows)]
    res = run_checked(argv, work, "pack")
    m = re.search(r"into (\d+) chunks", res.stderr)
    return int(m.group(1)) if m else 0


def setup_batch(tools, cfg, seed, work):
    """Set-up of a batch workload: simulate journey `seed` of the
    workload's vehicle and pack it."""
    def make_one(d):
        prefix = os.path.join(d, "in")
        res = run_checked([tools["probe"], "simulate", "--dataset",
                           cfg["dataset"], "--scale", repr(cfg["scale"]),
                           "--journey-seed", str(seed), "--out", prefix],
                          work, "perfbench_probe simulate")
        chunks = pack(tools, prefix + "_J1.ivt", prefix + ".ivc", work)
        return {
            "ivc": prefix + ".ivc", "ivt": prefix + "_J1.ivt",
            "catalog": prefix + ".ivsdb",
            "records": json.loads(res.stdout)["records"], "chunks": chunks,
            "ivc_mb": os.path.getsize(prefix + ".ivc") / 1e6,
            "teardown": lambda: shutil.rmtree(d, ignore_errors=True),
        }
    return make_one


# ------------------------------------------------------------ batch jobs

SUMMARY_RE = re.compile(
    r"K_b (\d+) -> K_pre (\d+) -> K_s (\d+) -> reduced (\d+) -> R_out (\d+)"
    r" \(state rows: (\d+), sequences: (\d+)\)")
RULES_RE = re.compile(r"association rules \(top \d+ of (\d+)\)")


def job_argvs(tools, cfg, inp, state_csv):
    run = [tools["ivt"], "run", "--trace", inp["ivc"], "--catalog",
           inp["catalog"], "--state", state_csv, "--report", "json"]
    if cfg["exec"] == "dist":
        run += ["--exec", "dist", "--sim-nodes", str(SIM_NODES)]
    argvs = [run]
    if cfg["mine"]:
        argvs.append([tools["ivt"], "mine", "--trace", inp["ivc"],
                      "--catalog", inp["catalog"]])
    return argvs


def observed_from_cli(results, state_csv, mine):
    """Counts and digests of one untraced job, in reference shape."""
    report = json.loads(results[0].stdout)
    obs = {"kb": report["kb_rows"], "kpre": report["kpre_rows"],
           "ks": report["ks_rows"], "reduced": report["reduced_rows"],
           "krep": report["krep_rows"], "state_rows": report["state_rows"],
           "state_sha256": bl.file_digest(state_csv)}
    if mine:
        text = results[1].stdout
        m = SUMMARY_RE.search(text)
        r = RULES_RE.search(text)
        if m:
            obs["mine_krep"] = int(m.group(5))
            obs["mine_state_rows"] = int(m.group(6))
        obs["mine_rules"] = int(r.group(1)) if r else -1
        obs["mine_anomalies"] = len(re.findall(r"^  sev ", text, re.M))
    return obs


def observed_from_probe(out, state_csv, mine):
    c = out["counts"]
    obs = {"kb": c["kb"], "kpre": c["kpre"], "ks": c["ks"],
           "reduced": c["reduced"], "krep": c["krep"],
           "state_rows": c["state_rows"],
           "state_sha256": bl.file_digest(state_csv)}
    if mine:
        obs["mine_krep"] = out["mine_counts"]["krep"]
        obs["mine_state_rows"] = out["mine_counts"]["state_rows"]
        obs["mine_rules"] = out["apps"]["rules"]
        obs["mine_anomalies"] = out["apps"]["anomalies"]
    return obs


def run_untraced_job(tools, cfg, inp, work):
    """One whole job, each command in its own child process. Returns
    (wall_s, cpu_s, peak_rss_mb, observed counts or None, error)."""
    state_csv = os.path.join(work, "job_state.csv")
    results = []
    start = time.perf_counter()
    for argv in job_argvs(tools, cfg, inp, state_csv):
        res = run_child(argv, work)
        results.append(res)
        if res.rc != 0:
            break
    wall = time.perf_counter() - start
    cpu = sum(r.cpu for r in results)
    rss = max(r.rss_mb for r in results)
    if any(r.rc != 0 for r in results):
        return wall, cpu, rss, None, "exit %d: %s" % (
            results[-1].rc, results[-1].stderr.strip()[-400:])
    try:
        obs = observed_from_cli(results, state_csv, cfg["mine"])
    except (ValueError, KeyError) as e:
        return wall, cpu, rss, None, "unreadable output: %s" % e
    finally:
        if os.path.exists(state_csv):
            os.remove(state_csv)
    return wall, cpu, rss, obs, None


def probe_job(tools, cfg, inp, work, exec_mode=None, inline=False,
              job_id=None, layer_probes=False):
    """One job decomposed in perfbench_probe, one process per CLI command
    of the job (as the untraced job runs them). Returns (merged JSON,
    observed counts, spans; spans only when job_id is given). The merged
    JSON carries the wall time of the probe processes as "wall_s"."""
    state_csv = os.path.join(work, "probe_state.csv")
    out = {"pool_busy_ns": 0.0, "pool_idle_ns": 0.0, "state_rss_hwm_mb": 0.0,
           "wall_s": 0.0}
    spans = []
    for part in ("run", "mine") if cfg["mine"] else ("run",):
        argv = [tools["probe"], "job", "--part", part, "--trace", inp["ivc"],
                "--catalog", inp["catalog"], "--state-out", state_csv,
                "--exec", exec_mode or cfg["exec"]]
        if inline:
            argv += ["--workers", "0"]
        span_file = os.path.join(work, "spans-%s.json" % part)
        if job_id is not None:
            argv += ["--spans", span_file, "--job-id", str(job_id)]
        if layer_probes and part == "run":
            argv += ["--layer-probes", "1", "--row-trace", inp["ivt"],
                     "--pack-out", os.path.join(work, "repack.ivc")]
        res = run_checked(argv, work, "perfbench_probe job --part " + part)
        out["wall_s"] += res.wall
        part_out = json.loads(res.stdout.strip().splitlines()[-1])
        for key in ("pool_busy_ns", "pool_idle_ns"):
            out[key] += part_out.pop(key)
        out["state_rss_hwm_mb"] = max(out["state_rss_hwm_mb"],
                                      part_out.pop("state_rss_hwm_mb"))
        out.update(part_out)
        if job_id is not None:
            with open(span_file) as f:
                base = len(spans)
                for span in json.load(f):
                    if span["parent"] >= 0:
                        span["parent"] += base
                    spans.append(span)
    out["state_mb"] = os.path.getsize(state_csv) / 1e6
    obs = observed_from_probe(out, state_csv, cfg["mine"])
    os.remove(state_csv)
    return out, obs, spans


def load_reference(name, seed):
    path = os.path.join(HERE, "references.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get("%s/%d" % (name, seed))


def batch_reference(tools, cfg, inp, work, seed):
    """Recorded reference when this seed has one; otherwise computed in
    process on the inline engine (`--workers 0`), through the decomposed
    path: an execution order independent of the parallel CLI job."""
    ref = load_reference(cfg["ref"], seed)
    source = "recorded"
    if ref is None:
        _, ref, _ = probe_job(tools, cfg, inp, work, exec_mode="batch",
                              inline=True)
        source = "computed"
    if not cfg["mine"]:
        ref = {k: v for k, v in ref.items() if not k.startswith("mine_")}
    return ref, source


def span_layers(spans, root_name):
    """Per traced job: {job id: (root duration ns, root self ns,
    {span name: summed self ns})}, summed over the job's root spans
    named `root_name` (one per process of the job). Self time = duration
    minus the part of it covered by child spans."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)

    def self_ns(i):
        s = spans[i]
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children.get(i, []),
                        key=lambda k: spans[k]["start_ns"]):
            lo = max(cursor, spans[c]["start_ns"])
            hi = min(s["end_ns"], spans[c]["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return s["end_ns"] - s["start_ns"] - covered

    out = {}
    for i, s in enumerate(spans):
        if s["parent"] != -1 or s["name"] != root_name:
            continue
        layers = {}
        stack = list(children.get(i, []))
        while stack:
            k = stack.pop()
            layers[spans[k]["name"]] = (layers.get(spans[k]["name"], 0)
                                        + self_ns(k))
            stack.extend(children.get(k, []))
        total, own, merged = out.get(s["job"], (0, 0, {}))
        for name, ns in layers.items():
            merged[name] = merged.get(name, 0) + ns
        out[s["job"]] = (total + s["end_ns"] - s["start_ns"],
                         own + self_ns(i), merged)
    return out


def batch_workload(args, tools, cfg, work, info):
    make_input = setup_batch(tools, cfg, args.seed, work)
    setup_samples = []
    inp = timed_setup(make_input, os.path.join(work, "setup0"),
                      setup_samples)
    setups_per_job = max(1, math.ceil(SETUP_PER_JOB_S / setup_samples[0]))

    def repeat_setup(count):
        for _ in range(count):
            timed_setup(make_input, os.path.join(work, "setup-repeat"),
                        setup_samples)["teardown"]()
    info["input"] = {k: inp[k] for k in ("records", "chunks", "ivc_mb")}
    ref, ref_source = batch_reference(tools, cfg, inp, work, args.seed)
    info["reference"] = ref
    info["reference_source"] = ref_source
    info["job_commands"] = [" ".join(os.path.basename(a) if i == 0 else a
                                     for i, a in enumerate(argv))
                            for argv in job_argvs(tools, cfg, inp,
                                                  "STATE.csv")]

    jobs = []
    failures = []
    traced = []
    spans = []
    start = time.perf_counter()
    while (len(jobs) < (MIN_JOBS if args.trace == 0 else 2) or
           time.perf_counter() - start - sum(setup_samples[1:])
           < args.seconds):
        wall, cpu, rss, obs, err = run_untraced_job(tools, cfg, inp, work)
        ok = err is None and not bl.check_against(ref, obs)
        if not ok:
            failures.append(err or "mismatch in %s" %
                            bl.check_against(ref, obs))
        jobs.append({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                     "ok": ok and wall <= JOB_LIMIT_S})
        if args.trace == 1:
            job_id = len(traced) + 1
            out, pobs, job_spans = probe_job(tools, cfg, inp, work,
                                             job_id=job_id,
                                             layer_probes=job_id == 1)
            bad = bl.check_against(ref, pobs)
            if bad:
                failures.append("decomposed path differs in %s" % bad)
            base = len(spans)
            for span in job_spans:
                if span["parent"] >= 0:
                    span["parent"] += base
            spans.extend(job_spans)
            traced.append(out)
            jobs[-1]["ok"] = jobs[-1]["ok"] and not bad
        else:
            repeat_setup(setups_per_job)
        if time.perf_counter() - start > 120:
            break
    if args.trace == 0:
        repeat_setup(SETUP_MIN_RUNS - len(setup_samples))
        info["setup_samples_s"] = setup_samples
    info["jobs"] = jobs
    info["job_s_iqr_spread"] = bl.iqr_spread([j["wall_s"] for j in jobs])
    info["failures"] = failures
    attempted = len(jobs)
    failed = sum(1 for j in jobs if not j["ok"])
    if args.trace == 0:
        metrics = {
            "setup_s": bl.median(setup_samples),
            "job_s": bl.median([j["wall_s"] for j in jobs]),
            "job_cpu_s": bl.median([j["cpu_s"] for j in jobs]),
            "peak_rss_mb": bl.median([j["rss_mb"] for j in jobs]),
            "slo_ok_frac": (attempted - failed) / attempted,
        }
    else:
        metrics = batch_layer_metrics(traced, spans, jobs, info)
        info["spans"] = spans
    return metrics, attempted, failed


def batch_layer_metrics(traced, spans, jobs, info):
    m = {name: 0.0 for name in PER_LAYER}
    per_job = span_layers(spans, "job")
    probes = span_layers(spans, "layers")
    first = traced[0]

    def med_layer(name):
        return bl.median([layers.get(name, 0) / 1e6
                          for _, _, layers in per_job.values()])

    for metric, span in (("core.pipeline_ms", "core.pipeline"),
                         ("core.state_repr_ms", "core.state_repr"),
                         ("dataflow.sink_ms", "dataflow.sink"),
                         ("apps.anomaly_ms", "apps.anomaly"),
                         ("apps.transition_ms", "apps.transition"),
                         ("apps.rules_ms", "apps.rules"),
                         ("dist.run_ms", "dist.run")):
        m[metric] = med_layer(span)
    for stage in STAGES:
        m["core.stage.%s_ms" % stage] = bl.median(
            [out["stages"].get(stage, 0) +
             out.get("mine_stages", {}).get(stage, 0) for out in traced])
    m["dist.merge_ms"] = m["core.stage.dist_merge_ms"]
    traced_ms = [total / 1e6 for total, _, _ in per_job.values()]
    m["bench.traced_job_ms"] = bl.median(traced_ms)
    m["bench.unaccounted_frac"] = bl.median(
        [own / total for total, own, _ in per_job.values()])
    # Process wall time against process wall time. Traced job 1 also runs
    # the layer probes, so it is left out; there are at least two.
    m["bench.trace_overhead_frac"] = (
        bl.median([out["wall_s"] for out in traced[1:]]) /
        bl.median([j["wall_s"] for j in jobs]) - 1.0)
    _, _, probe_layers = next(iter(probes.values()))
    m["colstore.scan_ms"] = probe_layers.get("colstore.scan", 0) / 1e6
    m["colstore.pack_ms"] = probe_layers.get("colstore.pack", 0) / 1e6
    m["core.extract_reduce_ms"] = (probe_layers.get("core.extract_reduce", 0)
                                   / 1e6)
    scan = first["scan"]
    m["colstore.rows_out"] = scan["rows_out"]
    m["colstore.chunks_decoded"] = scan["chunks_decoded"]
    m["colstore.chunks_pruned"] = scan["chunks_total"] - scan["chunks_decoded"]
    m["colstore.runs_pruned_frac"] = (scan["runs_pruned"] /
                                      scan["runs_considered"]
                                      if scan["runs_considered"] else 0.0)
    er = first["extract_reduce"]
    m["core.ks_rows"] = er["ks"]
    m["core.reduced_rows"] = er["reduced"]
    m["core.reduce_keep_frac"] = er["reduced"] / er["ks"] if er["ks"] else 0.0
    counts = first["counts"]
    m["core.state_rows"] = counts["state_rows"]
    m["core.state_cells"] = counts["state_rows"] * counts["state_cols"]
    m["core.state_rss_hwm_mb"] = bl.median(
        [out["state_rss_hwm_mb"] for out in traced])
    m["dataflow.sink_mb"] = first["state_mb"]
    m["dataflow.pool_busy_frac"] = bl.median(
        [out["pool_busy_ns"] / (out["pool_busy_ns"] + out["pool_idle_ns"])
         if out["pool_busy_ns"] + out["pool_idle_ns"] else 0.0
         for out in traced])
    if "dist" in first:
        d = first["dist"]
        m["dist.ranges_total"] = d["ranges_total"]
        m["dist.speculative_launched"] = d["speculative_launched"]
        m["dist.spec_win_frac"] = (d["speculative_wins"] /
                                   d["speculative_launched"]
                                   if d["speculative_launched"] else 0.0)
        m["dist.results_deduped"] = d["results_deduped"]
    info["layer_share_of_traced_job"] = {
        "state_repr+sink": (m["core.state_repr_ms"] + m["dataflow.sink_ms"])
        / m["bench.traced_job_ms"],
        "state_repr": m["core.state_repr_ms"] / m["bench.traced_job_ms"],
    }
    return m


# ------------------------------------------------------------ serve

class Daemon:
    def __init__(self, tools, catalog, ivcs, d):
        self.final = None
        with open(os.path.join(d, "serve.err"), "wb") as err:
            self.proc = subprocess.Popen(
                [tools["ivt"], "serve", "--catalog", catalog, "--traces",
                 ",".join(ivcs), "--port", "0"],
                stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL)
        LIVE.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        m = re.match(r"^listening on [0-9.]+:(\d+)$", line.strip())
        if not m:
            self.stop()
            raise BenchError("ivt serve did not start: %r" % line)
        self.port = int(m.group(1))

    def stop(self):
        """SIGTERM, then the daemon's own rusage: (rc, cpu_s, rss_mb)."""
        if self.proc not in LIVE:
            return self.final
        self.proc.send_signal(signal.SIGTERM)
        self.final = reap(self.proc)
        self.proc.stdout.close()
        return self.final


def proc_cpu_s(pid):
    """user + sys CPU seconds a live process has used so far."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def setup_serve(tools, cfg, work):
    def make_one(d):
        prefix, records = simulate(tools, cfg, cfg["data_seed"], d, work,
                                   cfg["journeys"])
        ivcs = []
        chunks = []
        for j, n in enumerate(records):
            ivc = os.path.join(d, "J%d.ivc" % (j + 1))
            chunks.append(pack(tools, "%s_J%d.ivt" % (prefix, j + 1), ivc,
                               work, math.ceil(n / cfg["chunks_per_journey"])))
            ivcs.append(ivc)
        daemon = Daemon(tools, prefix + ".ivsdb", ivcs, d)
        return {"catalog": prefix + ".ivsdb", "ivcs": ivcs, "daemon": daemon,
                "records": records, "chunks": chunks,
                "ivc_mb": [os.path.getsize(p) / 1e6 for p in ivcs],
                "teardown": daemon.stop}
    return make_one


def trace_bounds(tools, port, work):
    res = run_checked([tools["ivt"], "query", "--port", str(port), "--op",
                       "list"], work, "ivt query list")
    body = json.loads(res.stdout.strip().splitlines()[0])
    return [(t["name"], t["min_t_ns"], t["max_t_ns"])
            for t in sorted(body["traces"], key=lambda t: t["name"])]


def run_session(tools, port, schedule, work, tag, spans_file=None,
                job_id=1, abort_lag_ms=0):
    """Send `schedule` open loop; returns (rows, stats body)."""
    sched = os.path.join(work, "%s.sched" % tag)
    with open(sched, "w") as f:
        for req in schedule:
            f.write(bl.schedule_line(req) + "\n")
    out = os.path.join(work, "%s.tsv" % tag)
    stats = os.path.join(work, "%s.stats.json" % tag)
    argv = [tools["probe"], "loadgen", "--port", str(port), "--schedule",
            sched, "--connections", str(SERVE_CONNECTIONS), "--out", out,
            "--stats-out", stats, "--job-id", str(job_id)]
    if spans_file:
        argv += ["--spans", spans_file]
    if abort_lag_ms:
        argv += ["--abort-lag-ms", str(int(abort_lag_ms))]
    run_checked(argv, work, "perfbench_probe loadgen")
    rows = []
    with open(out) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            for k in ("due_ns", "send_ns", "done_ns", "payload_bytes",
                      "cached", "ok"):
                row[k] = int(row[k])
            for k in ("t_total_ms", "scan_ms", "pipeline_ms",
                      "serialize_ms"):
                row[k] = float(row[k])
            rows.append(row)
    with open(stats) as f:
        return rows, json.loads(f.readline())


def verify_sample(tools, inp, schedule, rows, seed, work):
    """Byte-identity of a seeded sample against in-process answers."""
    idx = bl.sample_indices(len(schedule), SERVE_VERIFY_SAMPLE, seed)
    path = os.path.join(work, "verify.sched")
    with open(path, "w") as f:
        for i in idx:
            f.write(bl.schedule_line(schedule[i]) + "\n")
    traces = ",".join("%s=%s" % (os.path.splitext(os.path.basename(p))[0], p)
                      for p in inp["ivcs"])
    res = run_checked([tools["probe"], "serve-ref", "--catalog",
                       inp["catalog"], "--traces", traces, "--requests",
                       path], work, "perfbench_probe serve-ref")
    expected = dict(line.split("\t") for line in res.stdout.split("\n")
                    if line)
    return [i for i in idx
            if not rows[i]["ok"] or rows[i]["hash"] != expected.get(str(i))]


def serve_workload(args, tools, cfg, work, info):
    if args.trace == 0:
        setup_s, samples, inp = timed_setups(
            setup_serve(tools, cfg, work), os.path.join(work, "setup"))
        info["setup_samples_s"] = samples
    else:
        d = os.path.join(work, "setup0")
        os.makedirs(d)
        inp = setup_serve(tools, cfg, work)(d)
    daemon = inp["daemon"]
    info["input"] = {k: inp[k] for k in ("records", "chunks", "ivc_mb")}
    with open(inp["catalog"]) as f:
        domains = bl.parse_catalog_domains(f.read())
    groups = bl.signal_groups(domains, cfg["groups_per_domain"],
                              random.Random(0))
    traces = trace_bounds(tools, daemon.port, work)
    rate = cfg["rate_rps"]
    count = max(1, int(rate * args.seconds))
    info["serve"] = {"rate_rps": rate, "requests": count, "groups":
                     len(groups), "connections": SERVE_CONNECTIONS,
                     "loop": "open, fixed rate", "slo_ms": args.slo_ms}

    def schedule(stream, n, r):
        return bl.make_schedule(args.seed, stream, traces, groups, r, n)

    # Warm-up: a long-running daemon's caches are not cold for its users.
    warm_rows, _ = run_session(tools, daemon.port,
                               schedule(1, int(rate * 1.5), rate), work,
                               "warm")
    measured = schedule(2, count, rate)
    cpu_before = proc_cpu_s(daemon.proc.pid)
    rows, stats = run_session(tools, daemon.port, measured, work, "measured")
    session_cpu = proc_cpu_s(daemon.proc.pid) - cpu_before
    bad = verify_sample(tools, inp, measured, rows, args.seed, work)
    failed_rows = [r for r in warm_rows + rows if not r["ok"]]
    info["verify_mismatches"] = bad
    info["failures"] = sorted({r["category"] for r in failed_rows})
    lat = bl.latencies_ms(rows)
    ok_in_slo = sum(1 for i, x in enumerate(lat)
                    if x <= args.slo_ms and i not in bad)
    attempted = len(warm_rows) + len(rows)
    failed = len(failed_rows) + sum(1 for i in bad if rows[i]["ok"])

    if args.trace == 0:
        _, _, rss = daemon.stop()
        metrics = {
            "setup_s": setup_s,
            "job_s": bl.median(lat) / 1e3,
            "job_cpu_s": session_cpu / len(rows),
            "peak_rss_mb": rss,
            "slo_ok_frac": ok_in_slo / len(rows),
        }
        return metrics, attempted, failed

    spans_file = os.path.join(work, "serve-spans.json")
    # p99 needs ten samples beyond it: the traced session is longer.
    trows, tstats = run_session(tools, daemon.port,
                                schedule(3, max(P99_REQUESTS, count), rate),
                                work, "traced", spans_file)
    failed += sum(1 for r in trows if not r["ok"])
    attempted += len(trows)
    with open(spans_file) as f:
        spans = json.load(f)
    info["spans"] = spans

    def rung(r):
        rrows, _ = run_session(tools, daemon.port,
                               schedule(10 + r, LADDER_REQUESTS, r), work,
                               "ladder-%d" % r, abort_lag_ms=2 * args.slo_ms)
        tail = bl.percentile(bl.latencies_ms(rrows), LADDER_PERCENTILE)
        lags = [(x["send_ns"] - x["due_ns"]) / 1e6 for x in rrows]
        return tail <= args.slo_ms and not bl.backlog_grows(lags,
                                                            args.slo_ms / 2)
    best, tried = bl.ladder_search(LADDER_RPS, rung)
    info["ladder"] = tried
    daemon.stop()

    m = {name: 0.0 for name in PER_LAYER}
    tlat = bl.latencies_ms(trows)
    ok_rows = [r for r in trows if r["ok"]]
    m["serve.req_p50_ms"] = bl.percentile(tlat, 50)
    m["serve.req_p99_ms"] = bl.percentile(tlat, 99)
    m["serve.slo_rps"] = best
    # Over every traced request, a failed one as +inf, so one refusal
    # does not leave p99 short of samples.
    waits = bl.ok_or_inf(trows, lambda r: (r["done_ns"] - r["due_ns"]) / 1e6
                         - r["t_total_ms"])
    computes = bl.ok_or_inf(trows, lambda r: r["t_total_ms"])
    m["serve.wait_ms_p50"] = bl.percentile(waits, 50)
    m["serve.wait_ms_p99"] = bl.percentile(waits, 99)
    m["serve.compute_ms_p50"] = bl.percentile(computes, 50)
    m["serve.compute_ms_p99"] = bl.percentile(computes, 99)
    for stage in ("scan", "pipeline", "serialize"):
        vals = [r[stage + "_ms"] for r in ok_rows if r[stage + "_ms"] > 0]
        m["serve.stage.%s_ms_p50" % stage] = bl.median(vals) if vals else 0.0
    tier2 = [r for r in ok_rows if r["cached"] >= 0]
    m["serve.state_cache_hit_frac"] = (
        sum(r["cached"] for r in tier2) / len(tier2) if tier2 else 0.0)

    def delta(*path):
        a, b = stats, tstats
        for k in path:
            a, b = a[k], b[k]
        return b - a
    m["serve.state_cache_evictions"] = delta("state_cache", "evictions")
    m["serve.state_cache_mb"] = tstats["state_cache"]["bytes"] / 2**20
    hits = delta("chunk_cache", "hits")
    misses = delta("chunk_cache", "misses")
    m["serve.chunk_cache_hit_frac"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    m["serve.chunks_decoded"] = delta("chunks_decoded")
    m["serve.overloaded_frac"] = sum(
        1 for r in trows if r["category"] == "overloaded") / len(trows)
    m["serve.gen_lag_ms_p99"] = bl.percentile(
        [(r["send_ns"] - r["due_ns"]) / 1e6 for r in trows], 99)
    m["serve.payload_mb"] = sum(r["payload_bytes"] for r in trows) / 1e6
    session = span_layers(spans, "serve.session")
    total, own, _ = next(iter(session.values()))
    m["bench.traced_job_ms"] = total / 1e6
    m["bench.unaccounted_frac"] = own / total
    m["bench.trace_overhead_frac"] = (bl.median(tlat) / bl.median(lat)
                                      - 1.0)
    return m, attempted, failed


# ------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", type=float, default=250.0,
                        help="serve latency limit on p99 and per request")
    args = parser.parse_args()

    tools = build()
    cfg = WORKLOADS[args.workload]
    bench_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_root, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC,
        "compiler": tools["compiler"], "build_type": tools["build_type"],
        "compile_flags": tools["compile_flags"],
        "platform": platform.platform(),
        "modes": ("product defaults: --exec %s, --scan decoded, workers = "
                  "hardware (%d)" % (cfg.get("exec", "serve"), NPROC)),
    }
    try:
        runner = batch_workload if cfg["kind"] == "batch" else serve_workload
        metrics, attempted, failed = runner(args, tools, cfg, work, info)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
    names = END_TO_END if args.trace == 0 else PER_LAYER
    missing = set(names) - set(metrics)
    if missing:
        raise BenchError("metrics not produced: %s" % sorted(missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": names[k]}
                    for k in names},
    }
    info["result"] = result
    record = os.path.join(bench_root, "run-%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(info, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        stop_all()
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
