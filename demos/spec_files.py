"""Spec files and the command line, driven from Python.

Writes a spec for a torsion-parallel generator, then runs the check and
classify commands on it the same way the console script would.

Run with  python3 demos/spec_files.py
Importing the module defines ``spec`` and runs nothing.
"""

import json
import os
import tempfile

from liehermitian import cli

spec = {
    "schema": "lie-hermitian/v1",
    "n": 3,
    "family": "btpv1",
    "payload": {"v2": 1.0, "a": [[0.0, 1.0]]},
}

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generator.spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)

        print("== check ==")
        code = cli.main(["check", path, "--format", "text"])
        print("exit:", code)

        print("\n== classify ==")
        report = os.path.join(tmp, "classify.json")
        code = cli.main(["classify", path, "--output", report])
        out = json.load(open(report))
        print("family:", out["classification"]["family"])
        print("params:", out["classification"]["params"])
        print("exit:", code)
