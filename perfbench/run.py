#!/usr/bin/env python3
"""Runs one benchmark workload of the E-AFE reproduction.

    python3 perfbench/run.py --workload search|fpe-stage1|grid-slice \
        [--seed 1] [--seconds 20] [--trace 0|1] [--scale bench|full|tiny]

Run from the repository root. The first call builds the program's main
sources together with the benchmark (sbt, in perfbench/) and caches the
classpath under perfbench/target/; later calls rebuild only when a source
changed. The workload then runs in one JVM with a fixed heap. The last line
of standard output is the result as one JSON object; a full record of the
run is written under perfbench/out/.
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
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(HERE, "src", "main", "scala")
BUILD_FILES = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
STAMP = os.path.join(HERE, "target", "bench-build.json")
CLASSPATH = os.path.join(HERE, "target", "bench-classpath.txt")
BUILD_LOG = os.path.join(HERE, "target", "build.log")
OUT = os.path.join(HERE, "out")

# A fixed heap and the throughput collector: the runs allocate about a quarter
# of a gigabyte per downstream evaluation, and a heap that grows and shrinks
# moves the timings with it.
JVM_FLAGS = [
    "-Xms3g",
    "-Xmx3g",
    "-XX:+UseParallelGC",
    "-XX:-UseAdaptiveSizePolicy",
    "-Dspark.ui.enabled=false",
]

WORKLOADS = ["search", "fpe-stage1", "grid-slice"]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    files = list(BUILD_FILES)
    for top in (PROGRAM_SOURCES, BENCH_SOURCES):
        for d, _, names in os.walk(top):
            files.extend(os.path.join(d, n) for n in names if n.endswith((".scala", ".java")))
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def spark_home():
    """The Spark distribution whose bin/ on PATH holds spark-submit and whose
    jars/ the build compiles against (pip's pyspark has no jars/ there)."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.abspath(d))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    sys.exit("perfbench: set SPARK_HOME to a Spark distribution")


def build(src_digest):
    """Compiles with sbt unless the cached build matches the sources."""
    try:
        with open(STAMP) as fh:
            if json.load(fh).get("digest") == src_digest and os.path.exists(CLASSPATH):
                return
    except (OSError, ValueError):
        pass
    sbt = shutil.which("sbt")
    if sbt is None:
        sys.exit("perfbench: sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env:
        env["SPARK_HOME"] = spark_home()
    log("building (sbt compile) ...")
    os.makedirs(os.path.dirname(BUILD_LOG), exist_ok=True)
    with open(BUILD_LOG, "w") as out:
        code = subprocess.call(
            [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "benchClasspath"],
            cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        sys.exit(f"perfbench: build failed (exit {code}); see perfbench/target/build.log")
    with open(STAMP, "w") as fh:
        json.dump({"digest": src_digest}, fh)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["bench", "full", "tiny"], default="bench")
    a = p.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        sys.exit(f"perfbench: program sources not found at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; "
                 "run from a checkout of the repository")
    src_digest = digest(source_files())
    build(src_digest)
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JVM_FLAGS, f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}", "-cp", classpath,
           "perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--scale", a.scale,
           "--root", ROOT, "--out", OUT, "--git-sha", git_sha(), "--source-digest", src_digest]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines) + "\n")
        sys.exit(f"perfbench: the benchmark JVM failed (exit {proc.returncode})")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
