"""Drive the command-line interface end to end and show the files it writes.

Equivalent shell commands:

    twillsim run --mix mix1 --policy twill --out /tmp/trace
    twillsim run --mix mix1 --policy twill --set tdp_mw=12000
    twillsim compare --mixes mix3 --policies twill gpu_queue static_dvfs
"""

import pathlib
import tempfile

from twillsim.cli import main

with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp) / "trace"
    code = main(["run", "--mix", "mix1", "--policy", "twill", "--out", str(out)])
    assert code == 0

    print("\nfiles written:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name} ({path.stat().st_size} bytes)")
    print("\nfirst decisions:")
    for line in (out / "decisions.csv").read_text("utf-8").splitlines()[:6]:
        print(f"  {line}")

    print("\nsame mix with a relaxed 12 W budget:")
    main(["run", "--mix", "mix1", "--policy", "twill", "--set", "tdp_mw=12000"])

    print("\npolicy comparison on mix3:")
    main(["compare", "--mixes", "mix3",
          "--policies", "twill", "gpu_queue", "static_dvfs", "static_subgraph"])
