#!/usr/bin/env python3
"""Check that the driver's JSON emitter writes real JSON.

    python3 perfbench/test_json.py

Builds the driver, has it print strings that OCaml's %S escapes
differently from JSON, and parses them back with Python's json module;
then checks a short traced and untraced run's result line against the
output contract, and its metric names against BENCHMARK.json and
layers.json.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run.build()
    out = subprocess.run([run.EXE, "--json-selftest"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    got = json.loads(out)
    want = {
        "quote\"back\\slash": "tab\tnl\ncr\rnul\x00bel\x07del\x7f",
        "utf8": "é→",
        "nums": [-3, 0.1, 1e-300, 123456789.125, 2.0],
    }
    assert got == want, (got, want)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "layers.json")) as f:
        layers = json.load(f)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(layers["workloads"])
    documented = [m for g in layers["per_layer"] for m in g["metrics"]]
    assert sorted(documented) == sorted(m["name"] for m in bench["per_layer"])
    assert set(layers["end_to_end"]) >= {m["name"] for m in bench["end_to_end"]}
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "compile-cold", "--seed", "1", "--seconds", "1",
             "--trace", trace],
            check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        res = run.parse_result(proc.stdout.splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        units = {m["name"]: m["unit"] for m in bench[group]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    print("ok")


if __name__ == "__main__":
    main()
