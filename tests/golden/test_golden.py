"""CLI outputs match the checked-in goldens (see ``tests/golden/__init__.py``)."""

import json

from . import HERE, REFUSALS, RUNS, diff_csv, diff_json, load, load_refusals, refusal, run_command


def test_cli_outputs_match_goldens(tmp_path):
    diffs = []
    for name, argv in RUNS.items():
        texts = run_command(name, argv, tmp_path)
        stored = sorted(path.suffix for path in HERE.glob(f"{name}.*"))
        if sorted(texts) != stored:
            diffs.append(f"{name}: wrote {sorted(texts)}, golden has {stored}")
            continue
        diffs += diff_json(json.loads(texts[".json"]), json.loads(load(name, ".json")), name)
        if ".csv" in texts:
            diffs += diff_csv(texts[".csv"], load(name, ".csv"), f"{name}.csv")
    want = load_refusals()
    got = {name: {"argv": argv, **refusal(argv)} for name, argv in REFUSALS.items()}
    diffs += diff_json(got, want, "refusals")
    assert not diffs, "\n".join(diffs[:40])
