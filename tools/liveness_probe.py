#!/usr/bin/env python3
"""Lists the library functions that no program links.

Builds every non-test program of the repository (granite_cli, the
bench_* binaries, the examples) and the perfbench binary at -O0 with
-ffunction-sections -fdata-sections, links them with -Wl,--gc-sections,
and compares `nm` of the results with the `granite::` text symbols
defined in libgranite.a. At -O0 nothing is inlined away, so a library
function that the linker drops from every binary is one that no program
can call: a second entry point beside the one programs use, or a
mechanism with no user.

Prints every such function. Exits 1 when one of them is missing from
ALLOWLIST below, or when an ALLOWLIST entry names no such function (it
gained a user or was deleted, so its entry goes). Every entry carries
the reason it is kept. Header-inline functions are not seen: making a
function inline hides it from the probe without removing it. Nor are
virtual functions: a class's vtable names every override, and a
program that constructs the class links the vtable, so an override
that no program calls still looks live. The autotune catalog's former
per-rule Transform::description() overrides were such functions.

Needs cmake, a C++ compiler, nm and c++filt. The build tree defaults to
build-liveness/ at the repository root:

  python3 tools/liveness_probe.py [--build-dir=DIR]
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

# Functions no program links that stay, by the name the probe prints,
# each with the reason it is kept.
ALLOWLIST = {
    "granite::serve::ModelRouter::Stats(std::string const&) const":
        "test read: the only public read of one route's counts, which the "
        "router tests pin; granite_cli's planned --stats-json is its user",
    "granite::serve::ModelRouter::Model(std::string const&) const":
        "test read: the only public read of which model a route serves, "
        "which the canary tests pin across a promotion",
    "granite::ml::Tape::SumAll(granite::ml::Var)":
        "the scalar loss the gradient-check suites differentiate",
    "granite::ml::Tape::grad(granite::ml::Var) const":
        "the adjoint read the gradient-check suites compare",
    "granite::assembly::Operand::ToString() const":
        "test read: the canonical-text suites pin operand rendering; the "
        "same AppendTo-into-a-string as Instruction::ToString",
    "granite::assembly::MemoryReference::ToString() const":
        "test read: the canonical-text suites pin address rendering",
    "granite::assembly::Operand::fp_imm() const":
        "accessor beside imm(); programs never read an fp immediate's "
        "value, the parser and corpus tests do",
    "granite::ml::Tensor::Tensor(int, int, std::vector<float>)":
        "test factory: a tensor from literal values",
    "granite::ml::Tensor::Scalar(float)": "test factory",
    "granite::ml::Tensor::Row(std::vector<float> const&)": "test factory",
    "granite::ml::Tensor::Column(std::vector<float> const&)":
        "test factory",
    "granite::ml::Tensor::Constant(int, int, float)": "test factory",
    "granite::ml::Tensor::operator==(granite::ml::Tensor const&) const":
        "test comparison: bit-exact tensor equality",
    "granite::ml::Tensor::AllClose(granite::ml::Tensor const&, float) const":
        "test comparison: tolerance equality of the kernel suites",
}

REPO = Path(__file__).resolve().parent.parent
# A function whose own name is in namespace granite: `_ZN7granite...`,
# with K/V/R/O for cv- and ref-qualified members. std templates
# instantiated on granite types, and anything instantiated on a lambda,
# are left out: they live and die with the function that makes them.
GRANITE_FUNCTION = re.compile(r"^_ZN[KVRO]*7granite")
# Spellings c++filt expands, shortened in what the probe prints.
SHORTHANDS = [
    (re.compile(r"std::__cxx11::basic_string<char, std::char_traits<char>, "
                r"std::allocator<char> >"), "std::string"),
    (re.compile(r"std::basic_string_view<char, std::char_traits<char> >"),
     "std::string_view"),
    (re.compile(r"std::vector<([\w:]+), std::allocator<\1> >"),
     r"std::vector<\1>"),
    (re.compile(r"\[abi:cxx11\]"), ""),
]
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    "-DBUILD_TESTING=OFF",
]


def run(command):
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def text_symbols(path):
    """Mangled names of the text symbols `path` defines."""
    output = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                            capture_output=True, text=True).stdout
    symbols = set()
    for line in output.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[-2] in ("T", "t", "W", "w"):
            symbols.add(fields[-1])
    return symbols


def granite_functions(symbols):
    """Demangled, shortened names of the granite functions in `symbols`.
    Constructor and destructor variants (C1/C2, D0/D1/D2) share a name."""
    mangled = sorted(s for s in symbols if GRANITE_FUNCTION.match(s))
    output = subprocess.run(["c++filt"], input="\n".join(mangled),
                            check=True, capture_output=True,
                            text=True).stdout
    names = set()
    for name in output.splitlines():
        if "{lambda" in name:
            continue
        for pattern, replacement in SHORTHANDS:
            name = pattern.sub(replacement, name)
        names.add(name)
    return names


def program_targets():
    """The non-test programs, named as CMakeLists.txt names them: granite_cli,
    one bench_* per bench/bench_*.cc but bench_common, one example per
    examples/*.cpp or *.cc."""
    benches = [p.stem for p in (REPO / "bench").glob("bench_*.cc")
               if p.stem != "bench_common"]
    examples = [p.stem for p in (REPO / "examples").iterdir()
                if p.suffix in (".cpp", ".cc")]
    return ["granite_cli"] + sorted(benches) + sorted(examples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build-liveness"))
    args = parser.parse_args()
    build_dir = Path(args.build_dir).resolve()
    jobs = str(os.cpu_count() or 1)

    # One tree: perfbench pulls the repository in as granite/, so it
    # builds every program beside perfbench against one libgranite.a.
    targets = program_targets()
    run(["cmake", "-S", str(REPO / "perfbench"), "-B", str(build_dir)]
        + FLAGS)
    run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "perfbench"] + targets)

    binaries = ([build_dir / "granite" / target for target in targets]
                + [build_dir / "perfbench"])
    linked = set()
    for binary in binaries:
        linked |= text_symbols(binary)
    dead = sorted(granite_functions(text_symbols(build_dir / "granite" / "libgranite.a"))
                  - granite_functions(linked))

    print(f"{len(dead)} granite:: functions defined in libgranite.a are "
          f"linked into none of {len(binaries)} programs:")
    for name in dead:
        reason = ALLOWLIST.get(name)
        print(f"  {name}\n      " + (f"kept: {reason}" if reason
                                      else "NOT ON THE ALLOWLIST"))
    unlisted = [name for name in dead if name not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - set(dead))
    for name in stale:
        print(f"stale allowlist entry (linked or gone): {name}")
    if unlisted or stale:
        print(f"{len(unlisted)} unlisted, {len(stale)} stale: delete the "
              "function or give it a program user, or fix ALLOWLIST in "
              "tools/liveness_probe.py")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
