#!/usr/bin/env python3
"""Build and run one workload of the OnlineSTL benchmark.

    python3 perfbench/run.py --workload batch-m1000 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree of the program. The first run builds the
program and the benchmark from source with sbt; later runs reuse the build
while the sources are unchanged. Each run starts one JVM; the last line of
standard output is the result JSON. `--size smoke` selects the tiny sizes
the benchmark's own tests use. Builds, logs, checkpoints, results and spans
go under `.bench_build/perfbench` in the source tree.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# The module opens Spark needs on JDK 17+, as in the program's build.
OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
]


def source_files():
    """Every file the build reads, program and benchmark, in a fixed order."""
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")]
    roots += [os.path.join(HERE, d) for d in ("src", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for top in roots:
        for d, subdirs, names in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "__pycache__", ".bsp"))
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout or on SIGTERM/SIGINT
    the whole group is killed and waited for. Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL, text=True, **kw)

    def kill():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_signal(signum, _frame):
        kill()
        sys.exit("perfbench: stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill()
        return None, ""
    return proc.returncode, out or ""


def build(digest):
    """Compile with sbt unless the last build was of the same sources."""
    stamp = os.path.join(WORK, "build.stamp")
    classpath = os.path.join(HERE, "target", "classpath.txt")
    if os.path.exists(classpath) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                with open(classpath) as cp:
                    return cp.read().strip()
    log = os.path.join(WORK, "build.log")
    with open(log, "w") as out:
        rc, _ = run_child(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"],
            BUILD_TIMEOUT_S, cwd=HERE, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0 or not os.path.exists(classpath):
        with open(log) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        sys.exit("perfbench: build failed, see %s" % log)
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    with open(classpath) as cp:
        return cp.read().strip()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    missing = [p for p in ("build.sbt", "src/main/scala", "jobs") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.exit("perfbench: no program to build here (missing %s)" % ", ".join(missing))

    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    digest = source_digest()
    classpath = build(digest)

    cmd = ["java", "-Xmx3g", "-Xss4m"] + OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dperfbench.gitSha=" + git_sha(),
        "-Dperfbench.sourceDigest=" + digest,
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--size", args.size, "--workdir", WORK]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(tmp, "spark-local"))
    log = os.path.join(WORK, "logs", "%s-seed%d-trace%s.log" % (args.workload, args.seed, args.trace))
    with open(log, "w") as err:
        rc, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
    if rc is None:
        sys.exit("perfbench: run exceeded %d s, see %s" % (RUN_TIMEOUT_S, log))
    lines = out.splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        sys.exit("perfbench: run failed (exit %d), see %s" % (rc, log))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
