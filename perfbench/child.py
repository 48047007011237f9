"""One program run, as a user makes it, with the marks the benchmark needs.

    python3 child.py --report FILE --trace 0|1 cli <entwit arguments>
    python3 child.py --report FILE --trace 0|1 open-drive --config FILE --out DIR

``cli`` runs ``entwit.cli.main`` exactly as the ``entwit`` console script
does.  ``open-drive`` is an API workload, because no subcommand reaches
``entwit.open_system``.  The child records CLOCK_MONOTONIC when the entwit
import and config parsing are done (the end of set-up) and, with ``--trace 1``,
the spans of every wrapped call; both go to FILE when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _open_drive(argv: list[str], mark_setup) -> int:
    """Drive a 3-site subsystem of an open 6-site chain through the three-qubit
    protocol and evaluate the open-system witness on the work route."""
    import argparse
    import dataclasses

    import entwit

    parser = argparse.ArgumentParser(prog="open-drive")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as handle:
        cfg = json.load(handle)
    mark_setup()

    # Look names up on the package at call time, so traced wrappers apply.
    chain = entwit.xxz_params_from_config(cfg["chain"], "chain")
    static = entwit.split_chain(chain, cfg["subsystem_sites"], cfg["beta"])
    schedule = entwit.schedule_from_config(cfg["schedule"], "schedule")
    composite = dataclasses.replace(static, subsystem_hamiltonian=None, subsystem_schedule=schedule)
    evolution = entwit.open_trotter_evolution(composite)
    star = cfg["rho_star"]
    rho_star = entwit.ThermalSpec(
        entwit.build_xxz(entwit.xxz_params_from_config(star["params"], "rho_star.params")), star["beta"]
    )
    report = entwit.open_witness(composite, composite, rho_star, evolution=evolution, route="via_work")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "open_report.json"), "w", encoding="utf-8") as handle:
        json.dump({"config": cfg, "report": report.to_json_dict()}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 5 or argv[0] != "--report" or argv[2] != "--trace" or argv[3] not in ("0", "1"):
        print("usage: child.py --report FILE --trace 0|1 (cli|open-drive) ...", file=sys.stderr)
        return 64
    report_path, traced, mode, rest = argv[1], argv[3] == "1", argv[4], argv[5:]
    record: dict = {}

    def mark_setup() -> None:
        record.setdefault("setup_end", time.monotonic())

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    code = 1
    try:
        if mode == "cli":
            import entwit.cli as cli

            load_config = getattr(cli, "_load_config", None)
            if load_config is None:
                mark_setup()  # no config reader to hook: set-up ends at import
            else:
                def timed_load_config(path):
                    payload = load_config(path)
                    mark_setup()
                    return payload

                cli._load_config = timed_load_config
            code = cli.main(rest)
        elif mode == "open-drive":
            code = _open_drive(rest, mark_setup)
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            code = 64
    finally:
        if tracer is not None:
            record["trace"] = tracer.dump(report_path + ".spans.npz")
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
