"""Record the reference D(t) values that gate decohere-revival.

The values pin the decoherence factor of the revival configuration at every
observation time any seed can ask for (8 offsets x 69 times).  They were
recorded once from the code the benchmark was defined on; a change to the
propagator must reproduce them to 1e-6, so do not re-record them to make a
change pass.

    python3 bench/record_reference.py    # from the repository root
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main() -> int:
    root = os.path.dirname(workloads.BENCH_DIR)
    sys.path.insert(0, os.path.join(root, "src"))
    from spinquench import central

    params = workloads.REVIVAL
    times = sorted(
        t for k in range(params["offsets"]) for t in workloads.revival_times(params, k)
    )
    config = {k: params[k] for k in ("n_spins", "delta", "tau", "a", "h_start")}
    ens = central.ModeEnsemble(central.CentralConfig(t_grid=tuple(times), **config))
    values = [ens.advance(t).decoherence_factor() for t in times]
    with open(workloads.REFERENCE_D_PATH, "w") as fh:
        json.dump(
            {
                "config": config,
                "max_step_drift": ens.max_step_drift,
                "t": times,
                "D": values,
            },
            fh,
            indent=0,
        )
        fh.write("\n")
    print(f"wrote {len(values)} values; D in [{min(values):.3e}, {max(values):.6f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
