#!/usr/bin/env python3
"""The repository benchmark: exact-sweep, sampled-sweep and served-mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0

It builds the ogate library, the two shipped entry points (ogate-sim,
ogate-serve) and its own helper (perfbench-trace) into .bench_build/, then
either measures the workload for --seconds with tracing off (--trace 0:
the end-to-end metrics of BENCHMARK.json) or runs the traced per-layer
breakdown (--trace 1: the per_layer metrics). Both run correctness checks.
A readable summary goes to stdout, progress to stderr, and the last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workload parameters live in perfbench/spec.json; README.md defines every
metric. Reference results the benchmark computes outside timing (the
sampled-vs-exact error references and the served-mix pool pre-warm) are
kept under .bench_build/ref/<hash of the binaries and spec>/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "results"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Checks:
    """Counts operations attempted and failed; keeps the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    def passed(self, n):
        self.attempted += n


# --- Build and processes --------------------------------------------------


class Bins:
    def __init__(self):
        self.sim = str(BUILD / "ogate" / "tools" / "ogate-sim")
        self.serve = str(BUILD / "ogate" / "tools" / "ogate-serve")
        self.trace = str(BUILD / "perfbench-trace")


def locked():
    BUILD.mkdir(exist_ok=True)
    f = open(BUILD / ".lock", "w")
    fcntl.flock(f, fcntl.LOCK_EX)
    return f


def build(spec):
    b = spec["build"]
    with locked(), open(BUILD / "build.log", "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          f"-DCMAKE_BUILD_TYPE={b['type']}"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(b["parallel"]),
                      "--target", *b["targets"]])
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=out,
                               stderr=subprocess.STDOUT) != 0:
                out.flush()
                sys.stderr.write((BUILD / "build.log").read_text()[-4000:])
                log("build failed")
                sys.exit(1)
    return Bins()


def run_measured(bins, cmd, errlog):
    """Runs cmd to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(errlog, "ab") as err:
        p = subprocess.run([bins.trace, "spawn", *cmd], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=err, check=True)
    r = json.loads(p.stdout)
    return r["exit"], r["wall_s"], r["maxrss_mb"]


def run_json(cmd):
    """Runs a helper that prints one JSON line; exits on failure."""
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{Path(cmd[0]).name} {cmd[1]} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def sample_flag(sample):
    return [f"--sample={sample}"] if sample else []


def sweep_flags(workloads, scale, sample):
    return ["--sweep=standard", f"--workloads={','.join(workloads)}",
            f"--scale={scale}", *sample_flag(sample)]


def request_line(workloads, scale, sample):
    req = {"sweep": "standard", "scale": scale, "workloads": list(workloads)}
    if sample:
        length, k = sample.split(":")
        req["sample"] = {"interval-len": int(length),
                         "k": 0 if k == "auto" else int(k)}
    return json.dumps({"method": "sweep", "request": req},
                      separators=(",", ":"))


def binaries_key(bins):
    h = hashlib.sha256()
    for path in (bins.sim, bins.serve, bins.trace, HERE / "spec.json"):
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


# --- Statistics over documents -------------------------------------------


def median(xs):
    return statistics.median(xs)


def nearest_rank(xs, q):
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def cells_by_name(doc):
    return {(c["workload"], c["config"]): c for c in doc["cells"]}


def sample_errors(pairs):
    """Max |sampled - exact| / exact energy and cycles over matching cells."""
    err_e = err_c = 0.0
    for sampled, exact in pairs:
        s, e = cells_by_name(sampled), cells_by_name(exact)
        if s.keys() != e.keys():
            raise RuntimeError("sampled and exact documents hold different cells")
        for key, x in e.items():
            y = s[key]
            err_e = max(err_e, abs(y["metrics"]["energy"] - x["metrics"]["energy"])
                        / x["metrics"]["energy"])
            err_c = max(err_c, abs(y["counters"]["cycles"] - x["counters"]["cycles"])
                        / x["counters"]["cycles"])
    return err_e, err_c


def digest(name, docs):
    """Digest of the deterministic cell statistics, written beside the metrics."""
    rows = []
    for doc in docs:
        for c in doc["cells"]:
            rows.append([c["workload"], c["config"], doc["scale"],
                         "sample" in c, c["counters"]["dyn-insts"],
                         c["counters"]["cycles"], c["metrics"]["energy"]])
    text = json.dumps(rows, separators=(",", ":"))
    sha = hashlib.sha256(text.encode()).hexdigest()
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}-digest.json").write_text(
        json.dumps({"sha256": sha, "cells": rows}, indent=1) + "\n")
    return sha, len(rows)


# --- Batch workloads (exact-sweep, sampled-sweep) ------------------------


def batch_reference(spec, w, name, bins, key):
    """The error reference: the same cells with sampling toggled."""
    ref = BUILD / "ref" / key / f"{name}.json"
    with locked():
        if not ref.exists():
            log(f"computing the {name} error reference (outside timing)")
            ref.parent.mkdir(parents=True, exist_ok=True)
            r = w["error_reference"]
            tmp = ref.with_suffix(".tmp")
            rc, _, _ = run_measured(
                bins, [bins.sim, *sweep_flags(spec["standard_workloads"], w["scale"],
                                        r["sample"]),
                 f"--jobs={r['jobs']}", f"--json={tmp}"], ref.with_suffix(".log"))
            if rc != 0:
                raise RuntimeError(f"{name} reference sweep exited {rc}")
            tmp.rename(ref)
    return json.loads(ref.read_text())


def semantic_check(spec, w, bins, doc_path, checks):
    out = run_json([bins.trace, "check",
                    f"--workloads={','.join(spec['standard_workloads'])}",
                    f"--scale={w['scale']}", f"--doc={doc_path}"])
    known = set(spec["known_semantic_divergences"]["cells"])
    expected = sorted(e["cell"] for e in out["errors"]
                      if e["why"] == "output" and e["cell"] in known)
    bad = [e for e in out["errors"] if e["cell"] not in expected]
    checks.passed(out["checked"] - len(bad))
    for e in bad:
        checks.check(False, f"semantic check: {e['cell']}: {e['why']}")
    return expected


def batch_run(spec, name, bins, work, seconds, key):
    w = spec["workloads"][name]
    checks = Checks()
    names = spec["standard_workloads"]
    setup_cmd = [bins.trace, "setup", f"--workloads={','.join(names)}",
                 f"--scale={w['scale']}", f"--reps={w['setup_reps']}"]
    cmd = [bins.sim, *sweep_flags(names, w["scale"], w["sample"]),
           f"--jobs={w['jobs']}"]
    first_path = work / "doc-first.json"

    def sweep(path):
        rc, wall, mb = run_measured(bins, [*cmd, f"--json={path}"], work / "sim.log")
        checks.check(rc == 0, f"sweep exited {rc}")
        return (path.read_bytes() if rc == 0 else b""), wall, mb

    # One untimed sweep first: warms the page cache, and its document is
    # the one every timed repetition must reproduce byte for byte.
    first, _, _ = sweep(first_path)
    if not first:
        raise RuntimeError("the warm-up sweep failed")
    lat, rss, setup = [], [], []
    t0 = time.perf_counter()
    untimed = 0.0
    while not lat or time.perf_counter() - t0 - untimed < seconds:
        # Set-up reps run before every sweep, so that their median samples
        # the host over the whole run rather than one instant of it.
        t_setup = time.perf_counter()
        setup += run_json(setup_cmd)["setup_s"]
        untimed += time.perf_counter() - t_setup
        doc, wall, mb = sweep(work / "doc.json")
        checks.check(doc == first, "sweep document differs between repetitions")
        lat.append(wall * 1e3)
        rss.append(mb)
    elapsed = time.perf_counter() - t0 - untimed
    log(f"{len(lat)} sweeps in {elapsed:.1f}s")

    doc = json.loads(first)
    expected = semantic_check(spec, w, bins, first_path, checks)
    ref = batch_reference(spec, w, name, bins, key)
    sampled, exact = (doc, ref) if w["sample"] else (ref, doc)
    err_e, err_c = sample_errors([(sampled, exact)])
    sha, ncells = digest(name, [doc])
    metrics = {
        "request_ms_p50": median(lat),
        "request_ms_p99": nearest_rank(lat, 0.99),
        "requests_per_s": len(lat) / elapsed,
        "sample_energy_err_max": err_e,
        "sample_cycles_err_max": err_c,
        "peak_rss_mb": median(rss),
        "setup_s": median(setup),
    }
    notes = [f"samples: {len(lat)} sweeps ({', '.join(f'{x:.0f}' for x in lat)} ms);"
             f" sweep_s = {metrics['request_ms_p50'] / 1e3:.3f}",
             f"setup: {len(setup)} in-process builds + decodes "
             f"(median {1e3 * median(setup):.3f} ms)",
             f"digest {name}: sha256 {sha[:16]} over {ncells} cells "
             f"(dyn-insts, cycles, energy) -> {RESULTS.name}/{name}-digest.json",
             f"known semantic divergences ({len(expected)}): {', '.join(expected) or 'none'}"]
    return metrics, checks, notes


def batch_trace(spec, name, bins, work):
    w = spec["workloads"][name]
    checks = Checks()
    names = spec["standard_workloads"]
    doc = work / "untraced.json"
    rc, _, _ = run_measured(
        bins, [bins.sim, *sweep_flags(names, w["scale"], w["sample"]),
               f"--jobs={w['jobs']}", f"--json={doc}"], work / "sim.log")
    if not checks.check(rc == 0, f"untraced sweep exited {rc}"):
        raise RuntimeError("untraced sweep failed")
    reqs = work / "requests.jsonl"
    reqs.write_text(request_line(names, w["scale"], w["sample"]) + "\n")
    plain, traced = serve_both(bins, reqs, work, jobs=w["jobs"], clients=1,
                               measure_from=0, cache_src=None, name=name,
                               extra=[f"--expect-doc={doc}"])
    checks.check(plain["out"].get("expect_doc_match") is True,
                 "shipped service document differs from ogate-sim's")
    checks.check(traced["out"].get("expect_doc_match") is True,
                 "traced document differs from the untraced ogate-sim document")
    checks.check(plain["lines"] == traced["lines"],
                 "traced replies differ from the shipped service's")
    m = traced["out"]["layers"]["metrics"]
    m["trace.overhead_frac"] = traced["wall_ms"] / plain["wall_ms"] - 1.0
    m["service.wire_ms"] = 0.0
    m["mix.lateness_ms_p50"] = 0.0
    m["mix.lateness_ms_max"] = 0.0
    return m, checks, traced["out"]["layers"]


def serve_both(bins, reqs, work, jobs, clients, measure_from, cache_src, name,
               extra=()):
    """Serves a request file untraced (shipped SweepService), then traced."""
    runs = {}
    for mode in ("plain", "traced"):
        out = work / mode
        out.mkdir()
        cmd = [bins.trace, "serve", f"--requests={reqs}", f"--out={out}",
               f"--jobs={jobs}", f"--clients={clients}",
               f"--measure-from={measure_from}", *extra]
        if cache_src:
            shutil.copytree(cache_src, out / "cache")
            cmd.append(f"--cache-dir={out / 'cache'}")
        if mode == "traced":
            RESULTS.mkdir(parents=True, exist_ok=True)
            cmd.append(f"--trace={RESULTS / (name + '.trace.json')}")
        log(f"in-process {mode} serve")
        res = run_json(cmd)
        lat = json.loads((out / "latency.json").read_text())
        runs[mode] = {"out": res, "wall_ms": lat["wall_ms"],
                      "serve_ms": lat["serve_ms"],
                      "lines": (out / "responses.jsonl").read_bytes().splitlines()}
    return runs["plain"], runs["traced"]


# --- served-mix ------------------------------------------------------------


class Conn:
    """One client connection speaking ogate-serve's line protocol."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def call(self, line):
        self.sock.sendall(line + b"\n")
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                reply, self.buf = self.buf[:i], self.buf[i + 1:]
                return reply
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


class Server:
    """An ogate-serve process (under perfbench-trace spawn, which reports
    its peak RSS when it exits)."""

    def __init__(self, bins, sock, cache_dir, mix, errlog):
        self.sock = sock
        self.err = open(errlog, "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins.trace, "spawn", bins.serve, f"--socket={sock}",
             f"--cache-dir={cache_dir}", f"--jobs={mix['server_jobs']}"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self.err, start_new_session=True)

    def wait_ready(self, timeout=60.0):
        """Seconds from launch until the server answers ping."""
        while time.perf_counter() - self.t0 < timeout:
            try:
                c = Conn(self.sock)
                ok = b'"pong":true' in c.call(b'{"method":"ping"}')
                c.close()
                if ok:
                    return time.perf_counter() - self.t0
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    break
                time.sleep(0.0005)
        raise RuntimeError("ogate-serve did not answer ping")

    def stop(self):
        """Shuts the server down (killing it after 60 s); returns its peak
        RSS in MB."""
        try:
            c = Conn(self.sock)
            c.call(b'{"method":"shutdown"}')
            c.close()
        except OSError:
            os.killpg(self.proc.pid, signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            out, _ = self.proc.communicate()
        self.err.close()
        return json.loads(out)["maxrss_mb"] if out else float("nan")


def pool_lines(mix):
    return [request_line(p["workloads"], p["scale"], p["sample"]).encode()
            for p in mix["pool"]]


def served_reference(spec, bins, key, work):
    """Pre-warms the pool into a cache dir and records the batch documents.

    Also compares `ogate-serve request --json` against `ogate-sim --sweep
    --json` byte for byte, once per build. Returns (ref dir, summary).
    """
    mix = spec["workloads"]["served-mix"]
    ref = BUILD / "ref" / key / "served-mix"
    with locked():
        if not (ref / "summary.json").exists():
            log("pre-warming the served-mix pool (outside timing)")
            shutil.rmtree(ref, ignore_errors=True)
            ref.mkdir(parents=True)
            sock = os.path.relpath(work / "prewarm.sock", ROOT)
            srv = Server(bins, sock, ref / "cache", mix,
                         ref / "serve.log")
            identical = []
            try:
                srv.wait_ready()
                for i, p in enumerate(mix["pool"]):
                    flags = sweep_flags(p["workloads"], p["scale"], p["sample"])
                    served, batch = ref / f"served-{i}.json", ref / f"batch-{i}.json"
                    for cmd in ([bins.serve, "request", f"--socket={sock}", *flags,
                                 f"--json={served}"],
                                [bins.sim, *flags, f"--jobs={mix['server_jobs']}",
                                 f"--json={batch}"]):
                        rc, _, _ = run_measured(bins, cmd, ref / "serve.log")
                        if rc != 0:
                            raise RuntimeError(f"pool request {i} exited {rc}")
                    identical.append(served.read_bytes() == batch.read_bytes())
            finally:
                srv.stop()
            (ref / "summary.json").write_text(json.dumps({"identical": identical}))
    summary = json.loads((ref / "summary.json").read_text())
    docs = [json.loads((ref / f"batch-{i}.json").read_text())
            for i in range(len(mix["pool"]))]
    return ref, summary, docs


def make_stream(mix, seed):
    """The seeded request stream: (kind, pool index or None, line) items."""
    s = mix["stream"]
    rng = random.Random(seed)
    pool = pool_lines(mix)
    scales = iter(rng.sample(range(s["write_scale_slots"]), s["write_scale_slots"]))
    invalid = [x.encode() for x in s["invalid_requests"]]
    # Writes cycle through seeded shuffles of the workload list, so every
    # seed computes (and the server keeps) the same mix of workloads.
    order = []
    write = None
    n_invalid = 0
    while True:
        for pos in range(s["cycle"]):
            if pos in s["write_positions"]:
                if not order:
                    order = list(s["write_workloads"])
                    rng.shuffle(order)
                scale = s["write_scale_base"] + s["write_scale_step"] * next(scales)
                write = request_line([order.pop()], round(scale, 6), None).encode()
                yield ("write", None, write)
            elif pos in s["duplicate_positions"]:
                yield ("write", None, write)
            elif pos in s["invalid_positions"]:
                yield ("invalid", None, invalid[n_invalid % len(invalid)])
                n_invalid += 1
            else:
                i = rng.randrange(len(pool))
                yield ("read", i, pool[i])


PREFIX = b'{"ok":true,"report":'


def report_part(reply):
    if not reply.startswith(PREFIX):
        return None
    return reply[len(PREFIX):reply.rindex(b',"served":')]


def served_block(reply):
    return json.loads(reply[reply.rindex(b',"served":') + 10:-1])


def socket_loop(spec, bins, work, seconds, seed, cache_src, pool_docs, checks,
                keep_replies):
    """Server launches, then the closed loop; returns what it saw.

    Every launch is timed until ping answers. The last `servers` launches
    each get a warm pass over the pool and one equal slice of the measured
    stream; their peak RSS and counters are kept."""
    mix = spec["workloads"]["served-mix"]
    pool = pool_lines(mix)
    stream = make_stream(mix, seed)
    lock = threading.Lock()
    setup, rss, server_counters = [], [], []
    seen = []  # (kind, pool index, line, latency ms, reply or None)
    lateness = []
    counts = {"hits": 0, "misses": 0, "inflight-dedup": 0, "rejected": 0}
    expected = {}
    elapsed = 0.0
    srv = None

    def serve_slice(conns, deadline):
        errors = []

        def client(conn):
            prev = None
            while time.perf_counter() < deadline:
                with lock:
                    kind, idx, line = next(stream)
                t_send = time.perf_counter()
                try:
                    reply = conn.call(line)
                except OSError as e:
                    with lock:
                        errors.append(f"transport: {e}")
                        seen.append((kind, idx, line, None, None))
                    return
                t_end = time.perf_counter()
                if kind == "read":
                    ok = reply == expected[idx]
                    served = served_block(expected[idx]) if ok else None
                elif kind == "write":
                    ok = reply.startswith(PREFIX)
                    served = served_block(reply) if ok else None
                else:
                    ok = reply.startswith(b'{"ok":false')
                    served = None
                with lock:
                    if prev is not None:
                        lateness.append((t_send - prev) * 1e3)
                    seen.append((kind, idx, line, (t_end - t_send) * 1e3,
                                 reply if keep_replies else None))
                    if not ok:
                        errors.append(f"{kind} request got a wrong reply")
                    if served:
                        for k in ("hits", "misses", "inflight-dedup"):
                            counts[k] += served[k]
                    if kind == "invalid" and ok:
                        counts["rejected"] += 1
                prev = time.perf_counter()

        threads = [threading.Thread(target=client, args=(c,)) for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return errors

    try:
        for rep in range(mix["setup_reps"]):
            cache = work / f"cache-{rep}"
            shutil.copytree(cache_src, cache)
            sock = os.path.relpath(work / f"s{rep}.sock", ROOT)
            srv = Server(bins, sock, cache, mix, work / "serve.log")
            setup.append(srv.wait_ready())
            if rep < mix["setup_reps"] - mix["servers"]:
                srv.stop()
                srv = None
                continue
            conns = [Conn(srv.sock) for _ in range(mix["connections"])]
            for i, line in enumerate(pool):
                reply = conns[0].call(line)
                report = report_part(reply)
                checks.check(report is not None
                             and json.loads(report) == pool_docs[i]
                             and served_block(reply)["misses"] == 0,
                             f"warm pool request {i} is not the batch document")
                expected.setdefault(i, reply)
                checks.check(reply == expected[i],
                             f"warm pool request {i} differs between servers")
            n0 = len(seen)
            t0 = time.perf_counter()
            errors = serve_slice(conns, t0 + seconds / mix["servers"])
            elapsed += time.perf_counter() - t0
            for c in conns:
                c.close()
            checks.passed(len(seen) - n0 - len(errors))
            for e in errors:
                checks.check(False, e)

            c = Conn(srv.sock)
            checks.check(b'"pong":true' in c.call(b'{"method":"ping"}'),
                         "server stopped answering ping")
            counters = json.loads(c.call(b'{"method":"counters"}'))
            checks.check(counters.get("ok") is True, "counters method failed")
            server_counters.append(counters)
            c.close()
            rss.append(srv.stop())
            srv = None
    finally:
        if srv:
            srv.stop()
    log(f"{len(seen)} requests in {elapsed:.1f}s on {len(rss)} servers")
    return {"setup": setup, "seen": seen, "elapsed": elapsed, "rss": rss,
            "lateness": lateness, "counts": counts,
            "server": server_counters, "pool": pool}


def served_run(spec, bins, work, seconds, seed, key):
    mix = spec["workloads"]["served-mix"]
    checks = Checks()
    ref, summary, docs = served_reference(spec, bins, key, work)
    for i, same in enumerate(summary["identical"]):
        checks.check(same, f"pool request {i}: served document differs from batch")
    r = socket_loop(spec, bins, work, seconds, seed, ref / "cache", docs, checks,
                    keep_replies=False)
    lat = [x[3] for x in r["seen"] if x[0] != "invalid" and x[3] is not None]
    pairs = [(docs[i + 1], docs[i]) for i in range(0, len(docs), 2)
             if mix["pool"][i]["sample"] is None and mix["pool"][i + 1]["sample"]]
    err_e, err_c = sample_errors(pairs)
    sha, ncells = digest("served-mix", docs)
    kinds = {k: sum(1 for x in r["seen"] if x[0] == k)
             for k in ("read", "write", "invalid")}
    timed = sorted((x[3], x[0]) for x in r["seen"]
                   if x[0] != "invalid" and x[3] is not None)
    tail = timed[math.ceil(0.99 * len(timed)) - 1:]
    write_ms = sum(ms for ms, kind in timed if kind == "write")
    metrics = {
        "request_ms_p50": median(lat),
        "request_ms_p99": nearest_rank(lat, 0.99),
        "requests_per_s": len(r["seen"]) / r["elapsed"],
        "sample_energy_err_max": err_e,
        "sample_cycles_err_max": err_c,
        "peak_rss_mb": median(r["rss"]),
        "setup_s": median(r["setup"]),
    }
    cache = {k: sum(c["cache"][k] for c in r["server"])
             for k in ("hits", "misses", "stores")}
    notes = [f"samples: {len(lat)} timed requests "
             f"({kinds['read']} reads, {kinds['write']} writes), "
             f"{kinds['invalid']} invalid rejected: {r['counts']['rejected']}",
             f"served blocks: hits {r['counts']['hits']}, misses "
             f"{r['counts']['misses']}, in-flight dedup {r['counts']['inflight-dedup']};"
             f" server counters: cache hits {cache.get('hits')}, misses "
             f"{cache.get('misses')}, stores {cache.get('stores')}",
             f"stream shares: the p50 request is a "
             f"{timed[(len(timed) - 1) // 2][1]}; the slowest 1% ({len(tail)}) are "
             f"{sum(1 for _, k in tail if k == 'write')} writes; writes take "
             f"{100 * write_ms / sum(ms for ms, _ in timed):.0f}% of request time"
             f" (read p50 {median([ms for ms, k in timed if k == 'read']):.2f} ms,"
             f" write p50 {median([ms for ms, k in timed if k == 'write']):.1f} ms)",
             f"peak RSS per server: {', '.join(f'{x:.2f}' for x in r['rss'])} MB",
             f"generator lateness: p50 {median(r['lateness']):.3f} ms, max "
             f"{max(r['lateness']):.3f} ms",
             f"setup: {len(r['setup'])} server launches until ping "
             f"(median {1e3 * median(r['setup']):.2f} ms)",
             f"digest served-mix pool: sha256 {sha[:16]} over {ncells} cells -> "
             f"{RESULTS.name}/served-mix-digest.json"]
    return metrics, checks, notes


def served_trace(spec, bins, work, seconds, seed, key):
    mix = spec["workloads"]["served-mix"]
    checks = Checks()
    ref, summary, docs = served_reference(spec, bins, key, work)
    # The stream is served three times (socket, in-process untraced, traced),
    # so the socket loop gets a third of the run.
    r = socket_loop(spec, bins, work, seconds / 3, seed, ref / "cache", docs,
                    checks, keep_replies=True)
    seen = [x for x in r["seen"] if x[3] is not None]
    reqs = work / "requests.jsonl"
    reqs.write_bytes(b"".join(line + b"\n" for line in r["pool"])
                     + b"".join(x[2] + b"\n" for x in seen))
    k = len(r["pool"])
    plain, traced = serve_both(bins, reqs, work, jobs=mix["server_jobs"],
                               clients=mix["connections"], measure_from=k,
                               cache_src=ref / "cache", name="served-mix")
    checks.check(plain["lines"] == traced["lines"],
                 "traced replies differ from the shipped service's")
    for i, x in enumerate(seen):
        mine = plain["lines"][k + i]
        report = report_part(x[4])
        checks.check(mine == report if report is not None
                     else mine.startswith(b'{"ok":false'),
                     f"in-process reply {i} differs from the socket reply")
    reads = [i for i, x in enumerate(seen) if x[0] == "read"]
    m = traced["out"]["layers"]["metrics"]
    m["trace.overhead_frac"] = traced["wall_ms"] / plain["wall_ms"] - 1.0
    m["service.wire_ms"] = (statistics.fmean(seen[i][3] for i in reads)
                            - statistics.fmean(plain["serve_ms"][k + i]
                                               for i in reads))
    m["mix.lateness_ms_p50"] = median(r["lateness"])
    m["mix.lateness_ms_max"] = max(r["lateness"])
    # Resolution and cache traffic as the real server reports them.
    c = r["counts"]
    total = c["hits"] + c["misses"] + c["inflight-dedup"]
    m["service.hits"] = c["hits"]
    m["service.misses"] = c["misses"]
    m["service.inflight_dedups"] = c["inflight-dedup"]
    m["service.hit_ratio"] = c["hits"] / total if total else 0.0
    m["service.rejected"] = c["rejected"]
    m["service.stores"] = sum(s["cache"]["stores"] for s in r["server"])
    m["service.cache_bytes"] = max(s["usage"]["bytes"] for s in r["server"])
    return m, checks, traced["out"]["layers"]


# --- Main --------------------------------------------------------------------


def spec_mismatches(spec, bench):
    """Where spec.json and BENCHMARK.json disagree on names or units."""
    out = []
    if set(spec["workloads"]) != {w["name"] for w in bench["workloads"]}:
        out.append("workload names")
    for x in bench["end_to_end"]:
        if spec["end_to_end"].get(x["name"], {}).get("unit") != x["unit"]:
            out.append(f"end-to-end metric {x['name']}")
    mapped = sorted(m for layer in spec["layers"].values() for m in layer["metrics"])
    if mapped != sorted(x["name"] for x in bench["per_layer"]):
        out.append("per-layer metrics in the layer map")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/ogate-sim.cpp"):
        if not (ROOT / need).is_file():
            log(f"no ogate source tree here ({need} is missing); nothing to build")
            return 2
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = spec_mismatches(spec, bench)
    if bad:
        log(f"spec.json and BENCHMARK.json disagree: {', '.join(bad)}")
        return 2
    if args.workload not in spec["workloads"]:
        log(f"unknown workload '{args.workload}'")
        return 2
    os.chdir(ROOT)

    bins = build(spec)
    key = binaries_key(bins)
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        kind = spec["workloads"][args.workload]["kind"]
        if args.trace:
            if kind == "batch":
                m, checks, layers = batch_trace(spec, args.workload, bins, work)
            else:
                m, checks, layers = served_trace(spec, bins, work, args.seconds,
                                                 args.seed, key)
            wanted = bench["per_layer"]
            notes = [f"self time by layer (thread-ms; {layers['spans']} spans; "
                     f"Chrome trace -> {RESULTS.name}/{args.workload}.trace.json):"]
            total = sum(layers["self_ms"].values()) or 1.0
            for layer, ms in sorted(layers["self_ms"].items(), key=lambda x: -x[1]):
                notes.append(f"  {layer:<10} {ms:12.1f} ms {100 * ms / total:6.1f}%")
            notes.append(f"  requests wall {layers['root_ms']:.1f} ms, "
                         f"unaccounted {layers['unaccounted_ms']:.1f} ms")
        else:
            if kind == "batch":
                m, checks, notes = batch_run(spec, args.workload, bins, work,
                                             args.seconds, key)
            else:
                m, checks, notes = served_run(spec, bins, work, args.seconds,
                                              args.seed, key)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {x["name"]: {"value": float(m[x["name"]]), "unit": x["unit"]}
               for x in wanted}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  note: {spec['model_note']}")
    for name, v in metrics.items():
        print(f"  {name:<28} {v['value']:16.6g} {v['unit']}")
    for name, v in spec["end_to_end"].items():
        if name in m and name not in metrics:
            print(f"  {name:<28} {m[name]:16.6g} {v['unit']} (printed, not gated)")
    print(f"  {'failed_frac':<28} {checks.failed / max(1, checks.attempted):16.6g} "
          f"({checks.failed}/{checks.attempted})")
    for line in notes:
        print(f"  {line}")
    for reason in checks.reasons:
        print(f"  FAILED: {reason}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
