#!/usr/bin/env python3
"""Builds the benchmark and the server when their sources changed, then
runs the benchmark with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload duplex_curve --seed 42 --seconds 20 --trace 0

Both binaries are built into one target directory, $CARGO_TARGET_DIR or
else `target` under the current directory, passed to cargo as
`--target-dir` so the benchmark workspace and the repository workspace
share it. A stamp next to them holds the SHA-256 of every source file as
of the last build; the build runs whenever a hash differs. The check is
not left to `cargo run`, because the repository's `crates/obs/build.rs`
asks to rerun whenever `.git/HEAD` is missing, so in a checkout without
`.git` cargo would rebuild every crate on every run. Cargo itself judges
a source file by its modification time, so a changed file that carries
an older time than the last build (a tree unpacked by `git archive`, or
copied with `cp -a`) has its time set to now before the build.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def source_hashes():
    """SHA-256 of every source file's contents, by path."""
    hashes = {}
    for source in SOURCES:
        paths = [source] if os.path.isfile(source) else []
        for root, _, names in os.walk(source):
            paths.extend(os.path.join(root, name) for name in names)
        for path in paths:
            with open(path, "rb") as f:
                hashes[path] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def read_stamp(stamp):
    hashes = {}
    if os.path.exists(stamp):
        with open(stamp) as f:
            for line in f:
                digest, _, path = line.rstrip("\n").partition("  ")
                hashes[path] = digest
    return hashes


def build(target_dir, manifest, *package):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--target-dir", target_dir,
           "--manifest-path", manifest, *package]
    # Keep standard output for the benchmark's result line.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed")


def main():
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} not found; run from the repository root")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    release = os.path.join(target_dir, "release")
    bench = os.path.join(release, "perfbench")
    server = os.path.join(release, "rsmem-cli")
    stamp = os.path.join(release, "perfbench.sources")
    hashes = source_hashes()
    built = read_stamp(stamp) if os.path.exists(bench) and os.path.exists(server) else {}
    if hashes != built:
        for path, digest in hashes.items():
            if built.get(path) != digest:
                os.utime(path)
        build(target_dir, "Cargo.toml", "-p", "rsmem-cli")
        build(target_dir, "perfbench/Cargo.toml")
        with open(stamp, "w") as f:
            f.writelines(f"{digest}  {path}\n" for path, digest in sorted(hashes.items()))
    # Structured logging stays off in every run; the traced run turns on
    # only the span profiler, from inside the benchmark.
    os.environ.pop("RSMEM_LOG", None)
    os.execv(bench, [bench, *sys.argv[1:]])


if __name__ == "__main__":
    main()
