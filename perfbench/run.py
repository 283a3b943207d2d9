#!/usr/bin/env python3
"""loopsim suite benchmark.

Builds the simulator library and the benchmark program from this
checkout's sources, runs one workload, checks its outputs and prints
one JSON result object as the last line of standard output:

    python3 perfbench/run.py --workload paper_base --seed 0 \\
        --seconds 20 --trace 0

Workloads (perfbench/README.md explains why each exists):
  paper_base     fig4 + fig5 base-machine cells at paper length
  paper_dra      fig8's base/DRA pairs at paper length (also fig6, fig9)
  harness_churn  1560 short cells: isolated cold pass, store replays,
                 journal resume

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of a traced run (spans are written under
.bench_build/perfbench-spans/). Maintenance: --write-digests rewrites
perfbench/digests/<workload>.tsv from a seed-0 run; --crosscheck
checks the benchmark's cells against what the figure binaries print.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "loopsim_perfbench")
WORKLOADS = ("paper_base", "paper_dra", "harness_churn")
# Seed 0 reproduces the figure cells bit for bit; its per-cell digests
# ship in perfbench/digests/.
DIGEST_SEED = 0
RUN_TIMEOUT_S = 170
SAME_MACHINE = {"base_rf3": "5_5", "5_5": "base_rf3",
                "base_rf5": "5_7", "5_7": "base_rf5"}


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def guard_environment():
    # Every LOOPSIM_* variable the library or its build reads changes
    # what is measured (LOOPSIM_DENSE_KERNEL even when "0").
    knobs = sorted(k for k in os.environ if k.startswith("LOOPSIM_"))
    if knobs:
        die("refusing to run with " + ", ".join(knobs) + " set; unset "
            "every LOOPSIM_* variable to measure the default build", 2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("cmake configure failed (is this a full loopsim checkout?)")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=out, stderr=out) != 0:
        die("build failed")


def source_manifest():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none (not a git checkout)"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def run_benchmark(args, work, spans):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    if proc.returncode != 0:
        die(f"benchmark program exited with status {proc.returncode}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------- paper error

def cell_groups(cells):
    """label -> list of cells over seed-offset replicas (harness_churn
    labels end in /<replica>; paper workloads have one replica)."""
    groups = {}
    for c in cells:
        parts = c["label"].split("/")
        groups.setdefault("/".join(parts[:2]), []).append(c)
    return groups


def model_value(model, groups):
    """The model's value for one reference point (mean over replicas),
    or None when this workload's cells do not cover it."""
    def key(wl, cfg):
        # fig8's base_rf3/base_rf5 machines are fig4/5's 5_5/5_7; a
        # workload that plans one name answers for the other.
        for name in (cfg, SAME_MACHINE.get(cfg)):
            if name and f"{wl}/{name}" in groups:
                return f"{wl}/{name}"
        return None

    def has(wl, cfg):
        return key(wl, cfg) is not None

    def speedup(wl, test, base):
        ts, bs = groups[key(wl, test)], groups[key(wl, base)]
        return [100.0 * (t["ipc"] / b["ipc"] - 1.0) for t, b in zip(ts, bs)]

    def avg(v):
        return sum(v) / len(v)

    workloads = sorted({k.split("/")[0] for k in groups})
    kind = model["kind"]
    if kind in ("speedup_min", "speedup_max"):
        if not all(has(w, model["test"]) and has(w, model["base"])
                   for w in workloads):
            return None
        per_wl = [speedup(w, model["test"], model["base"]) for w in workloads]
        pick = min if kind == "speedup_min" else max
        return avg([pick(col) for col in zip(*per_wl)])
    if kind == "speedup":
        if not (has(model["workload"], model["test"]) and
                has(model["workload"], model["base"])):
            return None
        return avg(speedup(model["workload"], model["test"], model["base"]))
    if kind == "speedup_mean":
        wl = model["workload"]
        if not all(has(wl, t) and has(wl, b) for t, b in model["pairs"]):
            return None
        return avg([avg(speedup(wl, t, b)) for t, b in model["pairs"]])
    field = {"cdf9_pct": ("cdf9", 1), "tail25_pct": ("cdf25", -1),
             "miss_pct": ("miss", 1)}[kind]
    cfg = next((c for c in model["configs"] if has(model["workload"], c)),
               None)
    if cfg is None:
        return None
    vals = [c[field[0]] for c in groups[key(model["workload"], cfg)]]
    vals = [100.0 * (v if field[1] > 0 else 1.0 - v) for v in vals]
    return avg(vals)


def paper_error(cells):
    with open(os.path.join(HERE, "paper_refs.json")) as f:
        refs = json.load(f)["points"]
    groups = cell_groups(cells)
    rows = []
    for ref in refs:
        value = model_value(ref["model"], groups)
        if value is not None:
            rows.append((ref, value, abs(value - ref["paper_value"])))
    if not rows:
        die("no paper reference point is covered by this workload")
    return sum(r[2] for r in rows) / len(rows), rows


# ---------------------------------------------------------------- digests

def digest_path(workload):
    return os.path.join(HERE, "digests", f"{workload}.tsv")


def check_digests(workload, cells):
    shipped = {}
    with open(digest_path(workload)) as f:
        for line in f:
            label, digest = line.split()
            shipped[label] = digest
    bad = [c["label"] for c in cells if shipped.get(c["label"]) != c["digest"]]
    if len(cells) != len(shipped):
        bad.append(f"cell count {len(cells)} != shipped {len(shipped)}")
    return bad


def write_digests(workload, cells):
    os.makedirs(os.path.dirname(digest_path(workload)), exist_ok=True)
    with open(digest_path(workload), "w") as f:
        for c in cells:
            f.write(f"{c['label']}\t{c['digest']}\n")


# ---------------------------------------------------------------- main

def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    ap.add_argument("--crosscheck", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0", 2)
    if not args.crosscheck and not args.workload:
        die("--workload is required", 2)

    guard_environment()
    build()
    work = os.path.join(BUILD_ROOT, "perfbench-work", str(os.getpid()))
    if args.crosscheck:
        rc = subprocess.call([BINARY, "--crosscheck", "--work", work])
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(rc)

    spans_dir = os.path.join(BUILD_ROOT, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir,
                         f"{args.workload}-seed{args.seed}.json")
    detail = run_benchmark(args, work, spans)
    manifest = dict(detail["manifest"], **source_manifest(), seed=args.seed,
                    workload=args.workload, trace=args.trace)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for note in detail["notes"]:
        print("note: " + note)

    failures = [f"{name}: {what}" for name, what in detail["check_failures"]]
    if args.write_digests:
        if args.seed != DIGEST_SEED or args.trace or failures:
            die(f"--write-digests needs --seed {DIGEST_SEED} --trace 0 and "
                "a run whose checks pass", 2)
        write_digests(args.workload, detail["cells"])
        print(f"wrote {digest_path(args.workload)}")
    if args.seed == DIGEST_SEED:
        failures += [f"digest mismatch: {label}"
                     for label in check_digests(args.workload,
                                                detail["cells"])]
    else:
        print(f"note: seed {args.seed} has no shipped digests; cross-pass, "
              "store, journal and supervisor byte-identity still checked")

    metrics = detail["metrics"]
    if not args.trace:
        err, rows = paper_error(detail["cells"])
        print("paper error (simulated, against the paper's reported values, "
              "not hardware):")
        for ref, value, diff in rows:
            print(f"  {ref['id']:<26} paper {ref['paper_value']:+7.2f}  "
                  f"model {value:+7.2f}  |err| {diff:5.2f} pp")
        metrics["paper_err_pp"] = {"value": err, "unit": "pp"}

    print(f"checks: {detail['checks_run']} run, {len(failures)} failed")
    for f in failures[:20]:
        print("  FAILED " + f)
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")

    names = metric_names(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        failures.append("metrics missing: " + ", ".join(missing))
    result = {
        "correct": not failures,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }
    print(json.dumps(result))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
