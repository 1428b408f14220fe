"""Benchmark of the sfb calculator, run as its command-line users run it.

Each request is one ``sfb`` command line, passed to ``sfb.cli.main`` in a
child forked from a parent that has imported ``sfb`` and run nothing, so
every request starts from the memo state of a fresh ``sfb`` process.
One client, one request in flight (a closed loop).  Latency is timed in
the child around ``main(argv)`` and scaled to a reference machine speed
(see speed.py); the child's stdout is captured, hashed and checked
against ``reference.json`` and against answers the benchmark computes
itself.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
# a request in flight at HARD_LIMIT_S still ends, or is killed, before 180 s
REQUEST_TIMEOUT_S = 25.0
HARD_LIMIT_S = 140.0

USAGE = """\
One workload (the last stdout line is the JSON result):
  python3 bench/run.py --workload normalize --seed 1 --seconds 40 --trace 0

Every end-to-end metric of every workload, one workload after another:
  for w in normalize certify realize; do python3 bench/run.py --workload $w; done

Traced run (per-layer metrics and the trace self-check; no latencies):
  python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 1

Compare two commits: export each into its own directory, copy this bench/
directory into both, and run both with the same workload and seeds,
alternating which goes first, e.g. for seeds 1..10:
  git archive A | tar -x -C /tmp/a && git archive B | tar -x -C /tmp/b
  cp -r bench /tmp/a && cp -r bench /tmp/b
  (cd /tmp/a && python3 bench/run.py --workload normalize --seed 1 --seconds 40 --trace 0)
  (cd /tmp/b && python3 bench/run.py --workload normalize --seed 1 --seconds 40 --trace 0)
Compare medians and quartiles of each metric over the seeds.  A change
that alters any stdout fails the reference check; the references are
recorded with --record-reference at the commit the benchmark was defined.

Set-up time (setup_s) is the median over %d fresh interpreters of importing
sfb.cli and building its parser; it is not part of request latency.
All times are scaled to the reference speed of speed.py; the unscaled
figures are printed on the line before the result.
""" % SETUP_REPEATS


def read_commit() -> str:
    """HEAD of the checkout's git repository, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sfb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup():
    """Median seconds, scaled and raw, for a fresh interpreter to import
    sfb.cli and build its parser."""
    code = (
        "import sys\n"
        "sys.path[:0] = [%r, %r]\n"
        "import speed\n"
        "def setup():\n"
        "    import sfb.cli\n"
        "    sfb.cli.build_parser()\n"
        "_, elapsed, scale = speed.scaled(setup)\n"
        "print(elapsed, scale)\n" % (str(HERE), str(SRC))
    )
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        elapsed, scale = map(float, done.stdout.split())
        scaled.append(elapsed * scale)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


# --- one request in a forked child ---------------------------------------------


def _child(cli, workload, request, traced) -> dict:
    tracer = layers.install() if traced else None
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(request["argv"]), None
            except SystemExit as exc:
                return exc.code, None
            except Exception:  # the request's failure is the measurement
                return None, traceback.format_exc(limit=3)

    (code, crashed), elapsed, scale = speed.scaled(call)
    stdout = out.getvalue()
    problems = []
    if crashed or "Traceback" in err.getvalue():
        problems.append("traceback: %s" % (crashed or err.getvalue())[-400:])
    else:
        try:
            problems += workloads.check(workload, request, code, stdout)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append("unreadable output: %r" % (exc,))
    summary = tracer.summary() if traced else None
    if summary:
        summary["sums"] = {name: value * scale if name.endswith("ms") else value
                           for name, value in summary["sums"].items()}
    return {
        "ms": elapsed * 1e3 * scale,
        "raw_ms": elapsed * 1e3,
        "exit": code,
        "digest": hashlib.sha256(stdout.encode()).hexdigest(),
        "problems": problems,
        "trace": summary,
    }


def run_request(cli, workload, request, traced=False) -> dict:
    """Fork, run one request in the child, collect its result and ru_maxrss."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            payload = json.dumps(_child(cli, workload, request, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, timed_out = [], False
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if select.select([pipe], [], [], left)[0]:
                chunk = pipe.read1(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if timed_out:
        result = {"problems": ["no answer within %.0f s" % REQUEST_TIMEOUT_S]}
    elif status != 0 or not chunks:
        result = {"problems": ["child ended with status %d" % status]}
    else:
        result = json.loads(b"".join(chunks))
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


# --- a run --------------------------------------------------------------------


def _judge(result, expected) -> list:
    """Problems of one result, including mismatches with the reference."""
    problems = list(result["problems"])
    if "digest" in result:
        if result["digest"] != expected[0]:
            problems.append("stdout differs from the reference")
        if result["exit"] != expected[1]:
            problems.append("exit %r, reference %r" % (result["exit"], expected[1]))
    return problems


def run_passes(cli, workload, deck, reference, seconds, traced):
    """Whole passes over the deck while the last pass still fits in `seconds`.

    Returns the passes, each a list of {traced?: result} per deck entry, and
    the failed attempts as (request, problems)."""
    began = time.monotonic()
    passes, failures = [], []
    while True:
        pass_start = time.monotonic()
        results = []
        for index, request in enumerate(deck):
            # the traced run alternates which of the pair goes first
            modes = [False, True] if (index + len(passes)) % 2 == 0 else [True, False]
            pair = {}
            for with_trace in (modes if traced else [False]):
                if time.monotonic() - began > HARD_LIMIT_S:
                    pair[with_trace] = {"problems": ["not run: the run passed %.0f s"
                                                     % HARD_LIMIT_S], "rss_mb": 0.0}
                else:
                    pair[with_trace] = run_request(cli, workload, request, with_trace)
            if traced and pair[False].get("digest") != pair[True].get("digest"):
                pair[True]["problems"].append("traced stdout differs from untraced stdout")
            for result in pair.values():
                problems = _judge(result, reference[request["key"]])
                if problems:
                    failures.append((request, problems))
            results.append(pair)
        passes.append(results)
        elapsed = time.monotonic() - began
        if elapsed + (time.monotonic() - pass_start) > seconds or elapsed > HARD_LIMIT_S:
            return passes, failures


def _latencies(passes, field) -> dict:
    """p50, p90 and requests per second of summed time, over the per-request
    medians across passes."""
    per_request = []
    for i in range(len(passes[0])):
        times = [p[i][False][field] for p in passes if field in p[i][False]]
        if times:
            per_request.append(statistics.median(times))
    if len(per_request) < 2:  # nothing to measure; the failures say why
        per_request = [0.0, 0.0]
    return {
        "latency_p50_ms": (statistics.median(per_request), "ms"),
        "latency_p90_ms": (statistics.quantiles(per_request, n=10)[-1], "ms"),
        "throughput_rps": (len(per_request) / max(sum(per_request) / 1e3, 1e-9), "1/s"),
    }


def end_to_end(passes, setup) -> dict:
    rss = max(p[i][False]["rss_mb"] for p in passes for i in range(len(p)))
    raw = _latencies(passes, "raw_ms")
    print("unscaled: " + ", ".join("%s %.4f" % (name, value) for name, (value, _) in raw.items())
          + ", setup_s %.5f" % setup[1])
    return {
        **_latencies(passes, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup[0], "s"),
    }


def per_layer(workload, passes):
    sums, fired = {}, {}
    untraced_ms = traced_ms = 0.0
    requests = 0
    for results in passes:
        for pair in results:
            plain, traced = pair[False], pair[True]
            if "trace" not in traced or "ms" not in plain:
                continue
            requests += 1
            untraced_ms += plain["ms"]
            traced_ms += traced["ms"]
            for name, value in traced["trace"]["sums"].items():
                sums[name] = sums.get(name, 0) + value
            for name, count in traced["trace"]["fired"].items():
                fired[name] = fired.get(name, 0) + count
    if not requests:
        return {}, ["no traced request completed"]
    values = layers.layer_metrics(sums, requests, traced_ms / untraced_ms - 1)
    metrics = {name: (values[name], layers.UNITS[name]) for name in layers.UNITS}
    return metrics, layers.self_check(workload, fired)


def record_reference() -> int:
    """Run every pool entry five times and store its stdout digest, exit code
    and median scaled cost in reference.json.  The costs only place entries
    in the deck's cost bins, so they must be measured at one machine speed."""
    import sfb.cli as cli

    gc.collect()
    gc.freeze()
    doc = {"commit": read_commit(), "src_sha256": source_digest(),
           "python": sys.version.split()[0], "workloads": {}}
    bad = 0
    for workload in workloads.POOLS:
        table = {}
        for request in workloads.pool(workload):
            runs = [run_request(cli, workload, request) for _ in range(5)]
            problems = [p for r in runs for p in r["problems"]]
            if len({(r.get("digest"), r.get("exit")) for r in runs}) != 1:
                problems.append("output differs between runs")
            if problems:
                bad += 1
                print("%s %s: %s" % (workload, request["argv"][-1][:80], problems[:2]),
                      file=sys.stderr)
                continue
            cost = statistics.median(r["ms"] for r in runs)
            table[request["key"]] = [runs[0]["digest"], runs[0]["exit"], round(cost, 2)]
        doc["workloads"][workload] = table
        print("%s: %d entries" % (workload, len(table)), file=sys.stderr)
    if bad:
        print("not written: %d pool entries failed" % bad, file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description=__doc__.split("\n\n")[0],
        epilog=USAGE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40,
                        help="stop starting passes over the deck after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json from this checkout's src/")
    args = parser.parse_args(argv)
    if not (SRC / "sfb" / "cli.py").is_file():
        print("error: no sfb sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sfb.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sfb":
        print("error: imported sfb from %s, not from %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    pool = workloads.pool(args.workload)
    missing = [e["argv"] for e in pool if e["key"] not in reference]
    if missing:
        print("error: reference.json lacks %d pool entries; re-record it" % len(missing),
              file=sys.stderr)
        return 2
    costs = {key: entry[2] for key, entry in reference.items()}
    deck = workloads.deck(pool, costs, args.seed)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": read_commit(), "src_sha256": source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(), "requests_per_pass": len(deck),
    }
    print("run " + json.dumps(record))
    setup_s = None if args.trace else measure_setup()
    gc.collect()
    gc.freeze()
    passes, failures = run_passes(cli, args.workload, deck, reference, args.seconds, args.trace)
    problems = []
    if args.trace:
        metrics, problems = per_layer(args.workload, passes)
    else:
        metrics = end_to_end(passes, setup_s)
    attempted = sum(len(pair) for results in passes for pair in results)
    failed = len(failures)
    for request, request_problems in failures[:10]:
        print("FAILED %s: %s" % (" ".join(request["argv"])[:120], "; ".join(request_problems)),
              file=sys.stderr)
    for problem in problems:
        print("SELF-CHECK %s" % problem, file=sys.stderr)
    print("passes %d, requests attempted %d, failed %d, error_rate %.6f"
          % (len(passes), attempted, failed, failed / max(attempted, 1)))
    for name, (value, unit) in metrics.items():
        print("%-26s %14.6f %s" % (name, value, unit))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
