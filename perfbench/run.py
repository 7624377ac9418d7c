#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first call compiles the simulator sources (src/main/scala) together with
the benchmark's own sources (perfbench/src) with the Scala 2.13 compiler
shipped in the Spark distribution, into perfbench/.build. Later calls reuse the
classes while the sources hash the same. The benchmark JVM prints one JSON
result as the
last line of standard output; see perfbench/METRICS.md for what it measures.
"""

import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(BUILD, "stamp")
OUT = os.path.join(HERE, ".out")

WORKLOADS = ("sched-replay-128n", "fig6-sweep-8n")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880

# Spark 4 on JDK 17 needs these packages opened (as in build.sbt).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
JVM_FLAGS = ["-Xms1g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """Jars of the Spark install named by SPARK_HOME, or else of the one
    whose spark-submit is on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = sorted(glob.glob(os.path.join(home or "", "jars", "*.jar")))
    if not jars:
        fail("no Spark jars found: set SPARK_HOME")
    return jars


def sources():
    """Simulator sources plus the benchmark's own. Files that need DuckDB
    (test oracles; DuckDB is not on the Spark classpath) are left out."""
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        fail(f"simulator sources not found: {os.path.relpath(main, ROOT)}")
    files = []
    for path in sorted(glob.glob(os.path.join(main, "**", "*.scala"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            if "duckdb" in f.read().lower():
                continue
        files.append(path)
    own = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    if not files or not own:
        fail("nothing to compile")
    return files + own


def source_hash(files):
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(jars):
    files = sources()
    digest = source_hash(files)
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return digest
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        fail("Scala 2.13 compiler jars not found in the Spark distribution")
    if os.path.exists(STAMP):
        os.remove(STAMP)
    subprocess.run(["rm", "-rf", CLASSES], check=True)
    os.makedirs(CLASSES)
    argfile = os.path.join(BUILD, "scalac.args")
    with open(argfile, "w") as f:
        f.write("\n".join(files) + "\n")
    t0 = time.monotonic()
    cmd = ["java", "-Xmx1536m", "-Xss8m", "-XX:-UsePerfData", "-cp", ":".join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-deprecation:false",
           "-d", CLASSES, "-classpath", ":".join(jars), "@" + argfile]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("compile timed out")
    if proc.returncode != 0:
        fail("compile failed")
    with open(STAMP, "w") as f:
        f.write(digest + "\n")
    print(f"perfbench: compiled {len(files)} files in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    return digest


def git_commit():
    """HEAD of the checkout when it is a git repository, else "none"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    jars = spark_jars()
    digest = build(jars)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    cp = ":".join([CLASSES] + jars)
    props = [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dperfbench.build={BUILD}",
        f"-Dperfbench.out={OUT}",
        f"-Dperfbench.commit={git_commit()}",
        f"-Dperfbench.sources={digest}",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
    ]
    opens = [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    if args.self_check:
        prog = ["perfbench.SelfCheck"]
    else:
        prog = ["perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd = ["java"] + JVM_FLAGS + opens + props + ["-cp", cp] + prog
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
