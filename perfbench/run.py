#!/usr/bin/env python3
"""HypDB benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flight_where --seed 1 --seconds 20 --trace 0

Builds the harness with sbt on first use (into perfbench/*/target and
.bench_build/), then runs one workload in a fresh JVM. The last line of
standard output is the result as JSON; everything else goes to stderr.
--trace 0 runs perfbench.Bench (end-to-end metrics, no tracing);
--trace 1 runs perfbench.TraceBench (per-layer metrics). See NOTES.md.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"

# The module openings Spark needs on Java 17 (as spark-submit passes them).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]

PROJECTS = {False: ("e2e", "perfbench.Bench"), True: ("trace", "perfbench.TraceBench")}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def spark_home():
    """$SPARK_HOME, else the first Spark distribution on PATH: a directory
    whose bin/ holds spark-submit and which has jars/ beside it. (A
    spark-submit installed by pip has no jars/ there.)"""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.realpath(d or "."))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    return None


def source_stamp(spark):
    """Hash of the Spark location and of every source file the build reads."""
    h = hashlib.sha256(spark.encode())
    for top in (PROGRAM_SRC, BENCH):
        for d, dirs, files in os.walk(top):
            # skip build outputs: */target and sbt's project/project
            dirs[:] = sorted(x for x in dirs if x != "target" and
                             not (x == "project" and os.path.basename(d) == "project"))
            for f in sorted(files):
                if f.endswith((".scala", ".sbt", ".properties", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def classpath_file(project):
    return os.path.join(BENCH, project, "target", "classpath.txt")


def build(stamp, spark):
    """Compiles both harness projects; a broken trace build leaves e2e usable."""
    env = dict(os.environ, SPARK_HOME=spark)
    env.setdefault("COURSIER_MODE", "offline")
    for project in ("e2e", "trace"):
        if os.path.exists(classpath_file(project)):
            os.remove(classpath_file(project))
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "--sbt-dir", os.path.join(WORK, "sbt-dir"), "--ivy", os.path.join(WORK, "ivy"),
           "e2e/writeClasspath", "trace/writeClasspath"]
    log("building: " + " ".join(cmd))
    t0 = time.time()
    with open(os.path.join(WORK, "build.log"), "w") as out:
        rc = run_child(cmd, BENCH, env, BUILD_TIMEOUT_S, stdout=out)
    log(f"build finished in {time.time() - t0:.1f} s with code {rc} (log: .bench_build/build.log)")
    for project in ("e2e", "trace"):
        if os.path.exists(classpath_file(project)):
            with open(os.path.join(WORK, f"{project}.stamp"), "w") as fh:
                fh.write(stamp)


def run_child(cmd, cwd, env, timeout, stdout=None):
    """Runs cmd in its own process group; kills the group on timeout or signal."""
    child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.STDOUT
                             if stdout is not None else None, start_new_session=True)

    def kill(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    old = {s: signal.signal(s, lambda *a: (kill(), sys.exit(1))) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        kill()
        return 124
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(PROGRAM_SRC, "repro", "core", "HypDB.scala")):
        log("no program sources under src/main/scala: run from the root of a checkout")
        return 2
    spark = spark_home()
    if spark is None:
        log("Spark not found: set SPARK_HOME or put a Spark distribution's bin/ on PATH")
        return 2
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)

    project, main_class = PROJECTS[bool(args.trace)]
    stamp = source_stamp(spark)
    stamp_file = os.path.join(WORK, f"{project}.stamp")

    def built():
        if not (os.path.exists(stamp_file) and os.path.exists(classpath_file(project))):
            return False
        with open(stamp_file) as fh:
            return fh.read() == stamp

    if not built():
        build(stamp, spark)
    if not built():
        log(f"the {project} harness did not build; see .bench_build/build.log")
        return 3
    with open(classpath_file(project)) as fh:
        classpath = fh.read().strip()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           *JAVA_OPENS, "-cp", classpath, main_class,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", WORK]
    return run_child(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
