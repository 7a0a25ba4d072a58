#!/usr/bin/env python3
"""Lists library functions that no linked binary uses.

Usage, from anywhere:

    python3 tools/dead_api.py [--build-dir DIR] [--jobs N]

The audited tree is the checkout the script sits in; builds go to
`build-dead-api/` at its root unless --build-dir says otherwise.

Configures and builds two trees with `-O0 -fkeep-inline-functions
-ffunction-sections -fdata-sections`, linked with `-Wl,--gc-sections`:

  * the top level (every library, test, bench and example), and
  * `benchmark/` on its own (`bench_driver` and `bench_compare`).

Every out-of-line and inline `aseck::` function therefore has a section of
its own in the static libraries, and the linker keeps only the sections
some binary reaches. The script takes the `aseck::` text symbols of the
`libaseck_*.a` archives (`nm -C`), subtracts the text symbols of every
linked executable in both trees, drops constructors, destructors and the
entries of `tools/dead_api.allow`, and prints what remains grouped by
module. It exits 1 when anything remains, 2 when a build or the allowlist
is broken, and 0 otherwise.

Each allowlist line is `<qualified name>  # <reason>`; the name matches
every overload of that function (the demangled name up to its parameter
list). A line without a reason is an error.
"""

import argparse
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CXX_FLAGS = ("-O0 -fkeep-inline-functions -ffunction-sections "
             "-fdata-sections")
LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = {"T", "t", "W", "w"}


def build(source: Path, build_dir: Path, jobs: int, targets=()) -> bool:
    configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=None",
                 "-DCMAKE_CXX_FLAGS=" + CXX_FLAGS,
                 "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS]
    compile_ = ["cmake", "--build", str(build_dir), "-j", str(jobs)]
    for t in targets:
        compile_ += ["--target", t]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            print("dead_api: failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def text_symbols(path: Path) -> set:
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True).stdout
    syms = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            syms.add(parts[2])
    return syms


def executables(build_dir: Path) -> list:
    found = []
    for p in build_dir.rglob("*"):
        if (p.is_file() and os.access(p, os.X_OK) and p.suffix == ""
                and "CMakeFiles" not in p.parts):
            with open(p, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(p)
    return found


# The static invoker and function-pointer conversion of a captureless
# lambda: -fkeep-inline-functions emits them whether or not anything
# converts the lambda, so they say nothing about dead code.
LAMBDA_ARTIFACT = re.compile(r"\{lambda\(.*\)#\d+\}::(_FUN\(|operator )")


def function_name(sym: str) -> str:
    """The qualified name of a demangled function symbol, without its
    parameter list, ABI tags or (for a template) its return type."""
    s = sym.replace("(anonymous namespace)", "{anonymous}")
    depth, start, i = 0, 0, 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or s[i - 1] in ": "):
            i += len("operator")
            if s.startswith("()", i):
                i += 2
            while i < len(s) and s[i] != "(":
                i += 1
            continue
        c = s[i]
        if c in "<{[":
            depth += 1
        elif c in ">}]":
            depth -= 1
        elif depth == 0 and c == " ":
            start = i + 1
        elif depth == 0 and c == "(":
            break
        i += 1
    return re.sub(r"\[abi:\w+\]", "", s[start:i])


def is_structor(name: str) -> bool:
    while "<" in name:
        stripped = re.sub(r"<[^<>]*>", "", name)
        if stripped == name:
            break
        name = stripped
    parts = name.split("::")
    return len(parts) >= 2 and (parts[-1].startswith("~") or
                                parts[-1] == parts[-2])


def read_allowlist(path: Path):
    allowed, bad = set(), []
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        if not reason.strip():
            bad.append(f"{path.name}:{n}: no reason given: {line}")
        allowed.add(name.strip())
    return allowed, bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-dead-api")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()

    allowed, bad = read_allowlist(ROOT / "tools" / "dead_api.allow")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2

    top = args.build_dir / "top"
    bench = args.build_dir / "benchmark"
    if not (build(ROOT, top, args.jobs) and
            build(ROOT / "benchmark", bench, args.jobs,
                  ("bench_driver", "bench_compare"))):
        return 2

    libs = sorted((top / "src").glob("libaseck_*.a"))
    if not libs:
        print(f"dead_api: no libaseck_*.a under {top / 'src'}", file=sys.stderr)
        return 2
    exes = executables(top) + executables(bench)

    # Inline functions are emitted by every library whose sources include
    # their header, so a symbol is filed under its namespace (= module).
    offered = {}
    for lib in libs:
        for sym in text_symbols(lib):
            name = function_name(sym)
            if name.startswith("aseck::") and not LAMBDA_ARTIFACT.search(sym):
                offered[sym] = (name, name.split("::")[1])
    linked = set()
    for exe in exes:
        linked |= text_symbols(exe)

    dead = defaultdict(list)
    for sym, (name, module) in offered.items():
        if sym in linked or is_structor(name) or name in allowed:
            continue
        dead[module].append(sym)

    total = sum(len(v) for v in dead.values())
    print(f"dead_api: {len(libs)} libraries, {len(exes)} executables, "
          f"{len(offered)} aseck:: functions, {total} unlinked")
    for module in sorted(dead, key=lambda m: (-len(dead[m]), m)):
        print(f"\n[{module}] {len(dead[module])}")
        for sym in sorted(dead[module]):
            print("  " + sym)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
