#!/usr/bin/env python3
"""Record the default seed's input and output digests in data/digests.json.

    python3 perfbench/record_digests.py

Every benchmark run on the default seed checks its generated inputs against
this record, and its outputs too where the float fingerprint matches (see
run.float_fingerprint). Re-record only in a change that means to alter the
inputs or the program's output bytes, and say so in that change.
"""

import json

import run
import workloads


def main() -> None:
    run.pin_threads()
    cli = run.load_cli()
    record = {"float_fingerprint": run.float_fingerprint(), "workloads": {}}
    for name in sorted(workloads.GENERATORS):
        with run.Workspace(name, run.DEFAULT_SEED) as ws:
            record["workloads"][name] = {"inputs": ws.inputs, "outputs": ws.warm_up(cli)}
    run.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
