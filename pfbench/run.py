#!/usr/bin/env python3
"""PolyFrame action benchmark runner.

Run from the repository root:

    python3 pfbench/run.py --workload table3_20k --seed 1 --seconds 12 --trace 0
    python3 pfbench/run.py --selftest

Builds the benchmark (pfbench/build.sbt, which compiles ../src/main/scala)
when its sources changed, then runs one JVM. The JVM prints every metric by
name and unit and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH = "pfbench"
PROGRAM_SOURCES = os.path.join("src", "main", "scala")
WORKLOADS = ["table3_20k", "table3_500k", "deep_chain"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 720
HEAP = "3g"
JVM_OPTS = [
    "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseG1GC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print("pfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files(root):
    dirs = [os.path.join(root, PROGRAM_SOURCES), os.path.join(root, BENCH, "src")]
    files = [os.path.join(root, BENCH, "build.sbt"),
             os.path.join(root, BENCH, "project", "build.properties")]
    for d in dirs:
        for dirpath, _, names in os.walk(d):
            files.extend(os.path.join(dirpath, n) for n in names)
    return sorted(files)


def build(root):
    """Compile with sbt unless the stamp says the sources are unchanged."""
    bench = os.path.join(root, BENCH)
    target = os.path.join(bench, "target")
    stamp_path = os.path.join(target, "build.stamp")
    cp_path = os.path.join(target, "classpath.txt")
    h = hashlib.sha256()
    for f in source_files(root):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    if os.path.exists(stamp_path) and os.path.exists(cp_path):
        with open(stamp_path) as fh:
            if fh.read() == stamp:
                return cp_path
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "writeClasspath"]
    print("pfbench: building: " + " ".join(cmd), file=sys.stderr)
    try:
        r = subprocess.run(cmd, cwd=bench, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(cp_path):
        fail("build failed")
    os.makedirs(target, exist_ok=True)
    with open(stamp_path, "w") as fh:
        fh.write(stamp)
    return cp_path


def run_jvm(root, cp_path, args):
    """Run the benchmark JVM; its stdout passes through and is returned."""
    out = os.path.join(root, BENCH, "out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(cp_path) as fh:
        cp = fh.read().strip()
    cmd = (["java"] + JVM_OPTS +
           ["-Djava.io.tmpdir=" + tmp, "-Dspark.local.dir=" + tmp,
            "-cp", cp, "pfbench.Main", "--out", out] + args)
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    return stdout


def selftest(root, cp_path):
    """Tiny runs of every workload of BENCHMARK.json in both modes, checked against it."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            stdout = run_jvm(root, cp_path, ["--workload", wl, "--seed", "7", "--seconds", "0",
                                             "--trace", trace, "--rows", "2000", "--min-reps", "1"])
            lines = stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary = json.loads(next(l for l in lines if l.startswith("summary "))[8:])
            tag = "%s trace=%s" % (wl, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, "%s: metrics %s != %s" % (tag, sorted(got), sorted(want))
            for name in want:
                assert any(l.startswith("metric %s " % name) for l in lines), tag + ": no line for " + name
            assert summary["unexpected"] == 0, tag + ": unexpected incorrect results"
            assert summary["traced_mismatches"] == 0, tag + ": traced != untraced"
            assert result["correct"] and result["failed"] == 0, tag + ": not correct"
            assert result["attempted"] == summary["attempted"] >= 1, tag + ": attempted"
            if trace == "0":
                frac = result["metrics"]["correct_frac"]["value"]
                expect = 1 - summary["known_defect_actions"] / summary["attempted"]
                assert abs(frac - expect) < 1e-12, "%s: correct_frac %r != %r" % (tag, frac, expect)
            else:
                spans = os.path.join(root, BENCH, "out", "spans-%s-seed7.jsonl" % wl)
                assert os.path.getsize(spans) > 0, tag + ": no spans"
            print("selftest ok: " + tag, file=sys.stderr)
    print("selftest passed", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, PROGRAM_SOURCES, "repro")):
        fail("run from the repository root: %s/repro not found" % PROGRAM_SOURCES)
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    cp_path = build(root)
    if a.selftest:
        selftest(root, cp_path)
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    run_jvm(root, cp_path, ["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", a.trace])


if __name__ == "__main__":
    main()
