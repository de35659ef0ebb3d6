"""Rewrite the golden CLI outputs: ``python -m tests.golden.update`` from the repository root.

Reruns every command of ``tests.golden.RUNS`` and ``REFUSALS`` in this
process and replaces the files they left before.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from . import HERE, REFUSALS, RUNS, refusal, run_command


def main() -> None:
    for old in HERE.glob("*.csv"):
        old.unlink()
    for old in HERE.glob("*.json"):
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            for suffix, text in run_command(name, argv, Path(tmp)).items():
                (HERE / f"{name}{suffix}").write_text(text)
    refused = {name: {"argv": argv, **refusal(argv)} for name, argv in REFUSALS.items()}
    (HERE / "refusals.json").write_text(json.dumps(refused, indent=2) + "\n")
    print(f"wrote {len(RUNS)} runs and {len(REFUSALS)} refusals to {HERE}")


if __name__ == "__main__":
    main()
