"""The benchmark's workloads: fixed lists of grid cells built from a seed.

Each workload is a list of :class:`repro.simulation.runner.CellSpec` cells
that share one generated input.  The seed given on the command line is the
only source of variation: it picks the workload's generated input and every
cell's simulation and back-end noise seeds, so the same seed always replays
the same cells.  Why each workload exists, and which layer metric should move
which end-to-end metric on it, is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.simulation.runner import CellSpec

#: The paper's Figure 2 strategies, in the order of the figure.
FIG2_STRATEGIES = ("sur", "oto", "set", "dp-timer", "dp-ant")


def _seeds(seed: int, *path: int) -> int:
    """One 32-bit seed derived from the benchmark seed and a fixed path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _fig2(seed: int, backend: str, encrypted: bool, scale: float) -> tuple[CellSpec, ...]:
    # Every strategy replays the same input, as in the paper's figure.
    workload_seed = _seeds(seed, 1)
    return tuple(
        CellSpec(
            strategy=strategy,
            backend=backend,
            scenario="taxi-june",
            scale=scale,
            simulate_encryption=encrypted,
            workload_seed=workload_seed,
            sim_seed=_seeds(seed, 2, index),
            backend_seed=_seeds(seed, 3, index),
            cell_id=strategy,
        )
        for index, strategy in enumerate(FIG2_STRATEGIES)
    )


def _fleet(seed: int, base_horizon: int) -> tuple[CellSpec, ...]:
    return (
        CellSpec(
            strategy="dp-timer",
            backend="oblidb",
            scenario="million-users",
            scenario_kwargs=(("base_horizon", base_horizon),),
            n_owners=4,
            fleet_scenario="round-robin",
            n_shards=2,
            shard_executor="processes",
            supervisor="on",
            simulate_encryption=True,
            query_interval=30,
            workload_seed=_seeds(seed, 1),
            sim_seed=_seeds(seed, 2, 0),
            backend_seed=_seeds(seed, 3, 0),
            cell_id="dp-timer-fleet",
        ),
    )


#: Full-size inputs, and the tiny ones the smoke mode runs.
_SIZES = {
    False: {"taxi_scale": 1.0, "fleet_horizon": 20_000},
    True: {"taxi_scale": 0.02, "fleet_horizon": 600},
}

WORKLOAD_NAMES = ("fig2-oblidb", "fig2-crypte-enc", "fleet-supervised")


def build_workload(name: str, seed: int, smoke: bool = False) -> tuple[CellSpec, ...]:
    """The named workload's cells for ``seed`` (tiny inputs when ``smoke``)."""
    size = _SIZES[smoke]
    if name == "fig2-oblidb":
        cells = _fig2(seed, "oblidb", False, size["taxi_scale"])
    elif name == "fig2-crypte-enc":
        cells = _fig2(seed, "crypte", True, size["taxi_scale"])
    elif name == "fleet-supervised":
        cells = _fleet(seed, size["fleet_horizon"])
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    return cells


def warmup_cell(cell: CellSpec, smoke: bool = False) -> CellSpec:
    """A short-horizon copy of ``cell``: same input and code paths, little work."""
    horizon = 100 if smoke else 1_000
    return replace(cell, horizon=horizon, cell_id=f"{cell.cell_id}-warmup")
