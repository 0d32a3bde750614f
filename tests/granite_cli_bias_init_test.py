#!/usr/bin/env python3
"""Decoder bias initialization of `granite_cli train`, per model family.

GRANITE's decoders predict each instruction's share of the block's
throughput, so `train` starts their output bias at the per-instruction
mean target; the Ithemal+ MLP decoder predicts the whole block, so its
bias starts at the per-block mean, which is larger whenever blocks hold
more than one instruction on average. This trains one-step granite and
ithemal_plus bundles on the same synthesized blocks and compares the
`decoder_output_bias_init` that `granite_cli inspect` prints.

Usage: granite_cli_bias_init_test.py PATH/TO/granite_cli
"""
import os
import re
import subprocess
import sys
import tempfile

BIAS_RE = re.compile(r"^\s*(?:config:\s*)?decoder_output_bias_init=(\S+)$",
                     re.MULTILINE)


def bias_init(binary, scratch, family):
    """Trains a one-step `family` bundle; returns its stored bias init."""
    bundle = os.path.join(scratch, family + ".gmb")
    subprocess.run([binary, "train", "--out=" + bundle, "--model=" + family,
                    "--steps=1", "--blocks=64", "--embedding=8", "--seed=3"],
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=120)
    text = subprocess.run([binary, "inspect", "--model-file=" + bundle],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          check=True, text=True, timeout=60).stdout
    match = BIAS_RE.search(text)
    if match is None:
        raise RuntimeError("no decoder_output_bias_init in:\n" + text)
    return float(match.group(1))


def main():
    binary = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as scratch:
        granite = bias_init(binary, scratch, "granite")
        ithemal_plus = bias_init(binary, scratch, "ithemal_plus")
    print("decoder_output_bias_init: granite %r, ithemal_plus %r" %
          (granite, ithemal_plus))
    if not granite > 0.0:
        print("FAIL granite bias init is not positive")
        return 1
    if not ithemal_plus > granite:
        print("FAIL ithemal_plus bias init (per-block mean) is not above "
              "granite's (per-instruction mean)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
