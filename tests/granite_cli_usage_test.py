#!/usr/bin/env python3
"""Hostile-flag test of granite_cli, driven by its own usage text.

Reads every command's flags and their types from `granite_cli help`, so
a flag added to the table is covered without editing this file. Each
typed flag (integer, seed, real, bool, enum) of each command is given
malformed and out-of-range spellings; a flag given twice and a missing
required flag are tried too. Every case must exit 2, and no output file
may appear. `predict` must also refuse, with exit 2, a block that parses
but that the semantics catalog cannot encode, given by --asm or stdin;
`inspect` must refuse, with exit 1, a bundle with a flipped payload byte;
`serve` must refuse, with exit 2, a malformed --split or --shadow, a
split arm or shadow route that names no loaded bundle, a shadow
candidate whose task-head count differs from its route's, and two
bundles whose file stems name the same route. `eval`,
`dataset inspect` and `train` must refuse, with exit 1, a corpus with an
unencodable record.

Usage: granite_cli_usage_test.py PATH/TO/granite_cli
"""
import os
import re
import subprocess
import sys
import tempfile

MALFORMED = ["+5", " 5", "5x", "0x10", "99999999999999999999", "nan", "inf"]
RANGE_RE = re.compile(r"^(INT|U64)\[(-?\d+),(-?\d+)\]$")
REAL_RE = re.compile(r"^REAL\(0,(\d+)\]$")


def parse_usage(text):
    """Returns {command: [(flag, spelling, notes)]} from the usage text."""
    commands = {}
    current = None
    flag = None
    for line in text.splitlines():
        if re.match(r"^  \S", line):
            current = line.strip()
            commands[current] = []
            flag = None
            continue
        match = re.match(r"^      --([a-z0-9-]+)=(\S+)\s*(.*)$", line)
        if match and current is not None:
            flag = [match.group(1), match.group(2), match.group(3)]
            commands[current].append(flag)
        elif flag is not None and line.startswith("      "):
            flag[2] += " " + line.strip()
    commands.pop("help", None)
    return {name: [tuple(f) for f in flags] for name, flags in commands.items()}


def bad_values(spelling):
    """The refused spellings for one typed flag, or None for text flags."""
    range_match = RANGE_RE.match(spelling)
    if range_match:
        low, high = int(range_match.group(2)), int(range_match.group(3))
        return MALFORMED + [str(low - 1), str(high + 1)]
    real_match = REAL_RE.match(spelling)
    if real_match:
        return MALFORMED + ["0", "-1", "1e999", real_match.group(1) + ".5"]
    if spelling == "0|1":
        return MALFORMED + ["2", "-1", "true"]
    if "|" in spelling:
        return MALFORMED + ["no_such_name"]
    return None


class Runner:
    def __init__(self, binary, scratch):
        self.binary = binary
        self.scratch = scratch
        self.failures = []
        self.cases = 0

    def expect(self, status, argv):
        self.cases += 1
        try:
            result = subprocess.run(
                [self.binary] + argv, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                cwd=self.scratch, timeout=60)
            got = result.returncode
        except subprocess.TimeoutExpired:
            got = "timeout"
        leftovers = os.listdir(self.scratch)
        for name in leftovers:
            os.remove(os.path.join(self.scratch, name))
        if got != status:
            self.failures.append("exit %s (want %d): %r" % (got, status, argv))
        elif status != 0 and leftovers:
            self.failures.append("wrote %s: %r" % (leftovers, argv))


def main():
    binary = os.path.abspath(sys.argv[1])
    usage = subprocess.run([binary, "help"], stdout=subprocess.PIPE,
                           check=True, text=True).stdout
    commands = parse_usage(usage)
    if "train" not in commands or not commands["train"]:
        print("could not read the flag table from `granite_cli help`")
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        runner = Runner(binary, scratch)
        typed = 0
        for command, flags in commands.items():
            words = command.split()
            # Required flags get a path inside the (empty) scratch
            # directory: an output that appears there is a failure.
            required = ["--%s=%s" % (name, os.path.join(scratch, name))
                        for name, _, notes in flags if "required" in notes]
            for index in range(len(required)):
                runner.expect(2, words + required[:index] +
                              required[index + 1:])
            for name, spelling, notes in flags:
                values = bad_values(spelling)
                if values is not None:
                    typed += 1
                    for value in values:
                        runner.expect(2, words + required +
                                      ["--%s=%s" % (name, value)])
                default = re.search(r"default ([^,)]+)", notes)
                if default and "repeatable" not in notes:
                    twice = "--%s=%s" % (name, default.group(1))
                    runner.expect(2, words + required + [twice, twice])
            runner.expect(2, words + required + ["--no-such-flag=1"])
        train_out = "--out=" + os.path.join(scratch, "out")
        runner.expect(2, ["train", train_out, "--steps=2", "--steps=3"])
        runner.expect(2, ["no-such-command"])
        # The refusals above are not blanket ones: valid spellings run.
        runner.expect(0, ["isa", "--lookup=ADD"])
        runner.expect(0, ["dataset", "synthesize", train_out, "--blocks=20",
                          "--seed=0", "--shard-size=8"])

    # serve refuses a malformed --split or --shadow before it loads any
    # bundle, so no "serving '...'" line is printed.
    with tempfile.TemporaryDirectory() as models:
        bundle = os.path.join(models, "smoke.gmb")
        subprocess.run([binary, "train", "--out=" + bundle, "--steps=1",
                        "--blocks=16"], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        for spec in ["--split=bogus", "--split=ab=smoke:smoke:2",
                     "--split=ab=smoke:smoke", "--shadow=bogus"]:
            argv = ["serve", "--model-file=" + bundle, spec]
            result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    timeout=60)
            runner.cases += 1
            if result.returncode != 2 or "serving '" in result.stdout:
                runner.failures.append("exit %d, stdout %r: %r" %
                                       (result.returncode, result.stdout,
                                        argv))

        # The routes that --split and --shadow name are checked before
        # any bundle loads: an unknown split arm or shadow route is a
        # usage error (exit 2) with a message, not an abort.
        for spec in ["--shadow=nosuch=" + bundle,
                     "--split=mix=smoke:nosuch:0.5"]:
            argv = ["serve", "--model-file=" + bundle, spec]
            result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    timeout=60)
            runner.cases += 1
            if (result.returncode != 2 or
                    "'nosuch'" not in result.stderr):
                runner.failures.append("exit %d, stderr %r: %r" %
                                       (result.returncode, result.stderr,
                                        argv))

        # A shadow candidate must have its route's task heads: mirrored
        # requests use every task of the route. A 1-head candidate on a
        # 2-head route is a usage error naming both counts, not an abort.
        two_heads = os.path.join(models, "two.gmb")
        subprocess.run([binary, "train", "--out=" + two_heads, "--steps=1",
                        "--blocks=16", "--tasks=2"], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        argv = ["serve", "--model-file=" + two_heads,
                "--shadow=two=" + bundle, "--requests=50",
                "--shadow-samples=10"]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if (result.returncode != 2 or
                "has 1 task head(s), route 'two' has 2" not in result.stderr):
            runner.failures.append("exit %d, stderr %r: %r" %
                                   (result.returncode, result.stderr, argv))

        # Two bundles with the same file stem name the same route: the
        # duplicate is refused, named, with exit 2 before either bundle
        # loads.
        for directory in ["a", "b"]:
            os.mkdir(os.path.join(models, directory))
            subprocess.run([binary, "train", "--out=" +
                            os.path.join(models, directory, "x.gmb"),
                            "--steps=1", "--blocks=16"],
                           stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, check=True, timeout=60)
        argv = ["serve", "--model-file=" + os.path.join(models, "a", "x.gmb"),
                "--model-file=" + os.path.join(models, "b", "x.gmb")]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if (result.returncode != 2 or "'x'" not in result.stderr or
                "serving '" in result.stdout):
            runner.failures.append("exit %d, stdout %r, stderr %r: %r" %
                                   (result.returncode, result.stdout,
                                    result.stderr, argv))

        # inspect loads the bundle, so it prints a valid bundle's
        # metadata (its file size included) and refuses one flipped
        # payload byte with the checksum error, printing nothing.
        argv = ["inspect", "--model-file=" + bundle]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        size_line = "file size:       %d bytes" % os.path.getsize(bundle)
        if result.returncode != 0 or size_line not in result.stdout:
            runner.failures.append("exit %d, stdout %r: %r" %
                                   (result.returncode, result.stdout, argv))
        with open(bundle, "rb") as source:
            damaged = bytearray(source.read())
        # The byte before the 8-byte checksum trailer is a tensor value.
        damaged[-9] ^= 0x01
        flipped = os.path.join(models, "flipped.gmb")
        with open(flipped, "wb") as sink:
            sink.write(damaged)
        argv = ["inspect", "--model-file=" + flipped]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if (result.returncode != 1 or
                "checksum mismatch" not in result.stderr or result.stdout):
            runner.failures.append("exit %d, stdout %r, stderr %r: %r" %
                                   (result.returncode, result.stdout,
                                    result.stderr, argv))

        # predict refuses a block the catalog cannot encode (unknown
        # mnemonic, unmodelled arity, an immediate in a written slot)
        # with exit 2, from --asm and stdin. A valid block runs, so the
        # refusals are not blanket ones.
        for asm, status, message in [
                ("ADD RAX", 2, "ADD with 1 operands"),
                ("FROB RAX", 2, "unknown mnemonic FROB"),
                ("ADD 5, RAX", 2,
                 "ADD operand 0 is written but is an immediate"),
                ("ADD RAX, RBX", 0, "")]:
            for flags, stdin in [(["--asm=" + asm], ""), ([], asm)]:
                argv = ["predict", "--model-file=" + bundle] + flags
                result = subprocess.run([binary] + argv, input=stdin,
                                        stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True,
                                        timeout=60)
                runner.cases += 1
                if result.returncode != status or message not in result.stderr:
                    runner.failures.append("exit %d, stderr %r: %r" %
                                           (result.returncode, result.stderr,
                                            argv))

        # eval refuses a checksum-valid corpus whose second record
        # (ADD RAX) the catalog cannot encode: a typed corpus error (exit
        # 1), not an abort in the graph encoder.
        corpus = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "unencodable_record.gbc")
        argv = ["eval", "--model-file=" + bundle, "--dataset-file=" + corpus]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if result.returncode != 1 or "unencodable" not in result.stderr:
            runner.failures.append("exit %d, stderr %r: %r" %
                                   (result.returncode, result.stderr, argv))

        # dataset inspect reads every record, so it refuses the same
        # corpus with the same message instead of passing its valid
        # checksum.
        argv = ["dataset", "inspect", "--file=" + corpus]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if (result.returncode != 1 or
                "unencodable block" not in result.stderr or
                "verified" in result.stdout):
            runner.failures.append("exit %d, stderr %r: %r" %
                                   (result.returncode, result.stderr, argv))

        # train refuses it when the corpus opens, before any training
        # line is printed or a bundle is written.
        trained = os.path.join(models, "refused.gmb")
        argv = ["train", "--out=" + trained, "--dataset-file=" + corpus]
        result = subprocess.run([binary] + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
        runner.cases += 1
        if (result.returncode != 1 or
                "unencodable block" not in result.stderr or
                re.search(r"^training ", result.stdout, re.MULTILINE) or
                os.path.exists(trained)):
            runner.failures.append("exit %d, stdout %r, stderr %r: %r" %
                                   (result.returncode, result.stdout,
                                    result.stderr, argv))

    for failure in runner.failures:
        print("FAIL " + failure)
    print("%d cases over %d commands and %d typed flags, %d failed" %
          (runner.cases, len(commands), typed, len(runner.failures)))
    return 1 if runner.failures or typed == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
