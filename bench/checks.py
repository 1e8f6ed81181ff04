"""Output checks applied from outside the program.

- invariants on each RunResult (frame conservation, unique sorted
  sequence numbers, timestamp causality under identity clocks);
- the records.csv read back through report() must give the run's stats;
- sha256 digests of records.csv and stats.json, compared with the
  golden digests in golden.json.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DIGESTED = ("records.csv", "stats.json")


def digests(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DIGESTED}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _identity_clocks(cfg) -> bool:
    return all(c.offset_ns == 0 and not c.drift_ppm and not c.sync_interval_ns
               for node in cfg.clocks.values() for c in node.values())


def invariant_problems(result, cfg) -> list[str]:
    problems = []
    count = cfg.run.count or cfg.traffic.count
    copies = count * (cfg.frer.paths if cfg.frer.enabled else 1)
    delivered, dropped = len(result.records), sum(result.drops.values())
    if delivered + dropped != copies:
        problems.append(f"conservation: {delivered} delivered + {dropped} dropped "
                        f"!= {copies} generated")
    seqs = [r.seq for r in result.records]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        problems.append("records are not sorted by unique seq")
    if _identity_clocks(cfg):
        launch = cfg.traffic.mode == "txtime"
        for r in result.records:
            stamps = (r.sw_tx, r.hw_tx, r.hw_rx, r.sw_rx)
            if None in stamps:
                problems.append(f"seq {r.seq}: missing timestamp")
                break
            # a launch-time sender hands the frame over before intended_tx
            # and the hardware sends it no earlier than intended_tx
            tx_ok = (r.sw_tx <= r.intended_tx <= r.hw_tx if launch
                     else r.intended_tx <= r.sw_tx <= r.hw_tx)
            if not (tx_ok and r.hw_tx < r.hw_rx <= r.sw_rx):
                problems.append(f"seq {r.seq}: timestamps out of causal order {r}")
                break
    return problems


def readback_problems(pkg, out_dir: Path, bin_width_ns: int) -> list[str]:
    """The exported CSV, reloaded through report(), must reproduce stats.json."""
    written = json.loads((out_dir / "stats.json").read_text())
    reloaded = pkg.harness.report(out_dir / "records.csv", bin_width_ns)
    # stats.json went through JSON, so compare both in that form
    reloaded = json.loads(json.dumps(reloaded))
    return [f"read-back {key} differs from the run's stats.json"
            for key in ("kinds", "records", "period_ns")
            if reloaded[key] != written[key]]
