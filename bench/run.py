"""Outside-in benchmark of the berndenom CLI.

Usage (from the repository root):

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 20 --trace 0

Each request is one fresh `python -m berndenom ...` process, run from the
source tree under src/, one at a time (a closed loop with one client; only
scan-fine starts a pool of two workers inside the program). A pass runs the
workload's requests once; a run makes a fixed number of passes that fits in
--seconds (workloads.pass_count), and each request's time is its mean over
the passes. Peak RSS comes from os.wait4 on each request, which also covers
its pool workers.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes with the same argv and prints the per-layer split (see
bench/README.md). The last line of standard output is one JSON object with
correct, attempted, failed and metrics. Full results, provenance and spans
go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# setup_s probes, run before and again after the timed passes so that their
# median spans the run rather than one moment of a shared machine
SETUP_REPEATS = 3


class Outcome:
    """What one request did: wall time, peak RSS, exit code, output check."""

    def __init__(self, req, wall, rss_mb, code, stdout, reason, spans=None):
        self.label = req.label
        self.wall = wall
        self.rss_mb = rss_mb
        self.code = code
        self.stdout_bytes = len(stdout)
        self.reason = reason
        self.spans = spans

    @property
    def failed(self) -> bool:
        return self.reason is not None

    @property
    def wrong(self) -> bool:
        """Exited 0 but printed a wrong answer."""
        return self.code == 0 and self.reason is not None


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, req, traced: bool = False) -> Outcome:
        if req.prepare is not None:
            req.prepare()
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        spans_path = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(spans_path), *req.argv]
        else:
            argv = [sys.executable, "-m", "berndenom", *req.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT, start_new_session=True
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # the request's own session also holds its pool workers
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if code != 0:
            lines = err_path.read_text(errors="replace").strip().splitlines()
            reason = f"exit {code}: {lines[-1] if lines else ''}"
        else:
            try:
                reason = req.check(stdout)
            except Exception as exc:  # unparsable output is a wrong answer
                reason = f"unreadable output: {exc!r}"
        spans = None
        if traced:
            # a request that died before the tracer wrote its spans has none
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
            spans_path.unlink(missing_ok=True)
        return Outcome(req, wall, usage.ru_maxrss / 1024, code, stdout, reason, spans)


def run_passes(runner, requests, count, modes):
    """count rounds, each one pass per mode in modes, in turn.
    Returns {mode: [pass, ...]}."""
    passes = {mode: [] for mode in modes}
    for _ in range(count):
        for mode in modes:
            passes[mode].append([runner.run(req, traced=mode) for req in requests])
    return passes


def request_walls(passes) -> list[float]:
    """Each request's wall time, averaged over passes.

    A shared machine runs in fast and slow phases of several seconds; the
    mean over a run follows the mix of phases in it smoothly, where a median
    jumps between the two speeds, and so spreads more from run to run.
    """
    return [statistics.fmean(p[i].wall for p in passes) for i in range(len(passes[0]))]


def end_to_end(workload, requests, setups, passes) -> dict:
    walls = request_walls(passes)
    metrics = {
        "setup_s": (statistics.median(o.wall for o in setups), "s"),
        "wall_s": (sum(walls), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in p) for p in passes), "MB"),
        "request_p50_s": (statistics.median(walls), "s"),
    }
    # The tail is the highest percentile with at least 10 requests beyond it,
    # over every request of every pass.
    every = sorted(o.wall for p in passes for o in p)
    if len(every) > 10:
        metrics["request_tail_s"] = (every[-11], "s")
        metrics["request_tail_pct"] = (100 * (len(every) - 10) / len(every), "%")
    metrics["requests"] = (len(every), "count")
    if workload.startswith("scan-"):
        # the first request is the fresh scan, the second one (scan-fine) the resume
        metrics["scan_rate_mnps"] = (requests[0].indices / walls[0] / 1e6, "1e6/s")
    if workload == "scan-fine":
        metrics["resume_s"] = (walls[1], "s")
    metrics["passes"] = (len(passes), "count")
    return metrics


def per_layer(untraced, traced) -> tuple[dict, dict]:
    splits = []
    for p in traced:
        reqs = [{"wall": o.wall, "spans": o.spans, "stdout_bytes": o.stdout_bytes} for o in p]
        splits.append(layers.split(reqs))
    # means, not medians, so that the shares still add up to 100%
    metrics = {
        key: (statistics.fmean(s[0][key][0] for s in splits), unit)
        for key, (_, unit) in splits[0][0].items()
    }
    plain = statistics.fmean(sum(o.wall for o in p) for p in untraced)
    metrics["untraced_wall_s"] = (plain, "s")
    metrics["trace_overhead_pct"] = (100 * (metrics["traced_wall_s"][0] - plain) / plain, "%")
    self_s = {k: statistics.fmean(s[1][k] for s in splits) for k in splits[0][1]}
    return metrics, self_s


def provenance(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    if shutil.which("lscpu"):
        listing = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key:
                caches[key.strip()] = value.strip()
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "berndenom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke runs a small version of each workload")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "berndenom" / "__init__.py").is_file():
        print(f"error: no berndenom source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        runner = Runner(workdir)
        traced = bool(args.trace)
        requests = workloads.build(args.workload, args.seed, args.size, str(workdir), traced)
        setup = workloads.setup_request()
        setups = [runner.run(setup) for _ in range(SETUP_REPEATS)]
        modes = (False, True) if traced else (False,)
        count = workloads.pass_count(args.workload, args.size, args.seconds, traced)
        passes = run_passes(runner, requests, count, modes)
        setups += [runner.run(setup) for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = setups + [o for ps in passes.values() for p in ps for o in p]
    failures = [o for o in everything if o.failed]
    if traced:
        metrics, self_s = per_layer(passes[False], passes[True])
        detail = dict(metrics, **{f"{k}.self_s": (v, "s") for k, v in self_s.items()})
    else:
        detail = end_to_end(args.workload, requests, setups, passes[False])
        metrics = {k: detail[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "request_p50_s")}
    detail["failed_frac"] = (len(failures) / len(everything), "ratio")

    prov = provenance(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "requests": [
            {"label": r.label, "argv": r.argv, "wall_s": [p[i].wall for p in passes[False]]}
            for i, r in enumerate(requests)
        ],
        "failures": sorted({f"{o.label}: {o.reason}" for o in failures}),
    }
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(outdir / f"{stem}-spans.jsonl", "w", encoding="ascii") as fh:
            for n, p in enumerate(passes[True]):
                for i, o in enumerate(p):
                    for span_id, parent, name, start, end, fields in o.spans:
                        row = {"request": f"{n}.{i}", "id": span_id, "parent": parent,
                               "name": name, "start_s": start, "end_s": end, **(fields or {})}
                        fh.write(json.dumps(row) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for reason in record["failures"]:
        print(f"failure {reason}")
    for key, (value, unit) in detail.items():
        print(f"{args.workload:9} {key:44} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not any(o.wrong for o in everything),
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
