"""The benchmark's four workloads: their points, paper checks and fidelity cells.

Every point is a canonical figure-point function of ``repro.exp.figures``
called with JSON-able parameters, so its output can be hashed and compared
across passes.  Only ``covert-stream`` draws inputs from the benchmark seed
(its message seeds); the fig8, fig10 and fig11 inputs are fixed by the
seeds inside their configs, so those workloads give the same outputs for
every benchmark seed.

``checks`` hold the single-point paper assertions of each figure's bench
under ``benchmarks/``; a point that breaks one counts as failed.  ``cells``
are the paper values those benches compare against; ``fidelity_err`` is the
mean relative deviation over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

Outputs = Dict[str, Any]

#: Packages every pass imports before its first point, so imports count
#: as setup in all passes alike.
IMPORTS = ("repro.attacks", "repro.workloads", "repro.genomics", "repro.exp",
           "repro.exp.figures", "repro.cli")


@dataclass(frozen=True)
class Point:
    """One call ``repro.exp.figures.<fn>(**params)``."""

    label: str
    fn: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Points built from ``(seed, tiny)``.  A sweep workload builds
    #: ``SweepPoint`` objects instead (see :func:`sweep_points`).
    points: Callable[[int, bool], List[Point]]
    #: ``cells(outputs) -> [(cell name, paper value, measured value)]``
    #: over the cells whose points ran.
    cells: Callable[[Outputs], List[Tuple[str, float, float]]]
    #: ``check(label, output, outputs) -> [violated assertion, ...]``
    check: Callable[[str, Any, Outputs], List[str]]
    sweep: bool = False


def injected_failure(**_params: Any) -> Any:
    """Stands in for a point when a test injects a failure."""
    raise RuntimeError("injected failure")


def _off(measured: float, paper: float) -> float:
    return abs(measured - paper) / paper


def _within(errors: List[str], what: str, measured: float, paper: float,
            tolerance: float) -> None:
    if not _off(measured, paper) < tolerance:
        errors.append(f"{what} {measured:.4g} not within {tolerance:.0%} "
                      f"of paper {paper}")


# ---------------------------------------------------------------------------
# fig8-cold: setup-dominated (Streamline's shared order, System builds)
# ---------------------------------------------------------------------------


def _fig8_points(_seed: int, tiny: bool) -> List[Point]:
    sizes = (8,) if tiny else (64, 8)
    return [Point(f"fig8[llc_mb={mb}]", "fig8_point", {"llc_mb": float(mb)})
            for mb in sizes]


def _fig8_check(label: str, out: Any, _outputs: Outputs) -> List[str]:
    errors: List[str] = []
    pnm, pum = out["IMPACT-PnM"], out["IMPACT-PuM"]
    others = [v for k, v in out.items() if not k.startswith("IMPACT")]
    if not (pnm > max(others) and pum > max(others)):
        errors.append("IMPACT does not beat every other channel")
    if out["Streamline"] > out["Streamline-bound"]:
        errors.append("Streamline above its analytical bound")
    if not 1.02 < pum / pnm < 1.20:
        errors.append(f"PuM/PnM {pum / pnm:.3f} outside (1.02, 1.20)")
    if label == "fig8[llc_mb=8]":
        _within(errors, "IMPACT-PnM", pnm, 12.87, 0.08)
        _within(errors, "IMPACT-PuM", pum, 14.16, 0.08)
        _within(errors, "PnM-OffChip", out["PnM-OffChip"], 12.64, 0.08)
        if not 1.9 < pnm / out["DMA-engine"] < 3.0:
            errors.append("PnM/DMA outside (1.9, 3.0)")
    if label == "fig8[llc_mb=64]":
        _within(errors, "PnM/clflush", pnm / out["DRAMA-clflush"], 4.91, 0.15)
        _within(errors, "PuM/clflush", pum / out["DRAMA-clflush"], 5.41, 0.15)
    return errors


def _fig8_cells(outputs: Outputs) -> List[Tuple[str, float, float]]:
    cells = []
    small = outputs.get("fig8[llc_mb=8]")
    if small is not None:
        cells += [("fig8@8MB IMPACT-PnM Mb/s", 12.87, small["IMPACT-PnM"]),
                  ("fig8@8MB IMPACT-PuM Mb/s", 14.16, small["IMPACT-PuM"]),
                  ("fig8@8MB PnM-OffChip Mb/s", 12.64, small["PnM-OffChip"])]
    large = outputs.get("fig8[llc_mb=64]")
    if large is not None:
        clflush = large["DRAMA-clflush"]
        cells += [("fig8@64MB IMPACT-PnM/DRAMA-clflush", 4.91,
                   large["IMPACT-PnM"] / clflush),
                  ("fig8@64MB IMPACT-PuM/DRAMA-clflush", 5.41,
                   large["IMPACT-PuM"] / clflush)]
    return cells


# ---------------------------------------------------------------------------
# fig11-replay: the scalar per-reference cache + DRAM path
# ---------------------------------------------------------------------------

#: Paper LLC MPKI of the two highest-MPKI Fig. 11 workloads.
FIG11_PAPER_MPKI = {"BFS": 38.59, "CC": 45.2}


def _fig11_points(_seed: int, tiny: bool) -> List[Point]:
    # Full size uses fig11_point's own default max_refs (the sweep's).
    params = {"max_refs": 2000} if tiny else {}
    return [Point(f"fig11[workload={w}]", "fig11_point",
                  {"workload": w, **params}) for w in FIG11_PAPER_MPKI]


def _fig11_check(_label: str, out: Any, _outputs: Outputs) -> List[str]:
    if out["ctd_overhead"] < out["crp_overhead"] - 0.02:
        return ["CTD cheaper than CRP"]
    return []


def _fig11_cells(outputs: Outputs) -> List[Tuple[str, float, float]]:
    return [(f"fig11 {out['workload']} LLC MPKI",
             FIG11_PAPER_MPKI[out["workload"]], out["mpki"])
            for out in outputs.values()]


# ---------------------------------------------------------------------------
# covert-stream: long noisy transmissions + one Fig. 10 side-channel point
# ---------------------------------------------------------------------------

COVERT_ATTACKS = ("impact-pnm", "impact-pum", "dma", "pnm-offchip",
                  "drama-clflush")
COVERT_BITS = 8192
COVERT_MESSAGES = 3
#: Paper throughput (Mb/s, Fig. 8 at 8 MB, the default LLC) per attack.
COVERT_PAPER = {"impact-pnm": 12.87, "impact-pum": 14.16,
                "pnm-offchip": 12.64}


def message_seeds(seed: int, tiny: bool = False) -> List[int]:
    """The covert-stream message seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 31)
            for _ in range(1 if tiny else COVERT_MESSAGES)]


def _covert_label(attack: str, message_seed: int) -> str:
    return f"covert[attack={attack},seed={message_seed}]"


def _covert_points(seed: int, tiny: bool) -> List[Point]:
    from repro.exp.figures import FIG10_NOISE_RATE

    bits = 2048 if tiny else COVERT_BITS
    points = [Point(_covert_label(attack, s), "covert_point",
                    {"attack": attack, "bits": bits, "seed": s,
                     "noise": FIG10_NOISE_RATE})
              for s in message_seeds(seed, tiny) for attack in COVERT_ATTACKS]
    points.append(Point("fig10[num_banks=8192]", "fig10_point",
                        {"num_banks": 8192}))
    return points


def _fig10_check(out: Any) -> List[str]:
    errors: List[str] = []
    if out["num_banks"] == 1024:
        _within(errors, "fig10@1024", out["throughput_mbps"], 7.57, 0.15)
        if not out["error_rate"] < 0.05:
            errors.append("fig10@1024 error rate not below 5%")
    if out["num_banks"] == 8192:
        _within(errors, "fig10@8192", out["throughput_mbps"], 2.56, 0.20)
        if not out["error_rate"] < 0.15:
            errors.append("fig10@8192 error rate not below 15%")
    return errors


def _covert_check(label: str, out: Any, outputs: Outputs) -> List[str]:
    if label.startswith("fig10"):
        return _fig10_check(out)
    # Fig. 8's absolute tolerances hold for its noiseless point; under the
    # §5.1 noise only its orderings are asserted here.
    errors: List[str] = []
    attack = out["attack"]
    seed = label.rsplit("seed=", 1)[1].rstrip("]")
    tput = out["throughput_mbps"]
    if not attack.startswith("impact"):
        impact = [outputs.get(_covert_label(a, int(seed)))
                  for a in ("impact-pnm", "impact-pum")]
        if any(o is not None and o["throughput_mbps"] <= tput
               for o in impact):
            errors.append("not below both IMPACT channels")
        pnm = impact[0]
        if attack == "dma" and pnm is not None \
                and not 1.9 < pnm["throughput_mbps"] / tput < 3.0:
            errors.append("PnM/DMA outside (1.9, 3.0)")
    return errors


def _covert_cells(outputs: Outputs) -> List[Tuple[str, float, float]]:
    cells = []
    for label, out in outputs.items():
        if label.startswith("covert") and out["attack"] in COVERT_PAPER:
            cells.append((f"{label} Mb/s", COVERT_PAPER[out["attack"]],
                          out["throughput_mbps"]))
    if "fig10[num_banks=8192]" in outputs:
        cells.append(("fig10@8192 Mb/s", 2.56,
                      outputs["fig10[num_banks=8192]"]["throughput_mbps"]))
    return cells


# ---------------------------------------------------------------------------
# sweep-fanout: fig2 + fig3 + fig10 through run_sweep on the pool
# ---------------------------------------------------------------------------


def sweep_points(tiny: bool) -> list:
    """The fig2, fig3 and fig10 sweeps as ``SweepPoint`` objects.  Built
    after tracing is installed so the points carry the traced functions."""
    from repro.exp import figures

    if tiny:
        return (figures.fig2_sweep((2, 4), bits=64)
                + figures.fig3_sweep((2, 4), bits=64)
                + figures.fig10_sweep((1024,), rounds=20))
    return (figures.fig2_sweep() + figures.fig3_sweep()
            + figures.fig10_sweep())


def _sweep_check(label: str, out: Any, _outputs: Outputs) -> List[str]:
    if label.startswith("fig10"):
        return _fig10_check(out)
    errors: List[str] = []
    if label.startswith("fig2"):
        _within(errors, "fig2 direct", out["direct_mbps"], 11.27, 0.12)
        if out["baseline_mbps"] > 2.29 * 1.10:
            errors.append("fig2 baseline above 2.29 Mb/s + 10%")
    return errors


def _sweep_cells(outputs: Outputs) -> List[Tuple[str, float, float]]:
    cells = [(f"{label} direct Mb/s", 11.27, out["direct_mbps"])
             for label, out in outputs.items() if label.startswith("fig2")]
    baselines = [out["baseline_mbps"] for label, out in outputs.items()
                 if label.startswith("fig2")]
    if baselines:
        cells.append(("fig2 baseline peak Mb/s", 2.29, max(baselines)))
    for banks, paper in ((1024, 7.57), (8192, 2.56)):
        out = outputs.get(f"fig10[num_banks={banks}]")
        if out is not None:
            cells.append((f"fig10@{banks} Mb/s", paper,
                          out["throughput_mbps"]))
    return cells


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig8-cold", _fig8_points, _fig8_cells, _fig8_check),
        Workload("fig11-replay", _fig11_points, _fig11_cells, _fig11_check),
        Workload("covert-stream", _covert_points, _covert_cells,
                 _covert_check),
        Workload("sweep-fanout", lambda _s, _t: [], _sweep_cells,
                 _sweep_check, sweep=True),
    )
}


def fidelity_err(cells: List[Tuple[str, float, float]]) -> Optional[float]:
    """Mean relative deviation from the paper over ``cells``."""
    if not cells:
        return None
    return sum(_off(measured, paper) for _n, paper, measured in cells) \
        / len(cells)
