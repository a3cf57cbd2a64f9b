"""Traces: the records of what one run did, and the four trace files
written from them.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import NamedTuple

# a decision or request record's field order is its CSV column order


class DecisionRecord(NamedTuple):
    time_ms: float
    kind: str
    request_id: str | None
    part: str | None
    cluster_id: str | None
    level: int | None
    freq_mhz: float | None


class RequestRecord(NamedTuple):
    request_id: str
    model: str
    priority: int
    arrival_ms: float
    first_map_ms: float | None
    completed_ms: float | None
    waiting_ms: float | None
    latency_ms: float | None
    work_gflops: float


class PowerRecord(NamedTuple):
    time_ms: float
    power_mw: float
    freqs_mhz: tuple[float, ...]
    utils: tuple[float, ...]


class Trace:
    """What one run did, as the trace files record it."""

    def __init__(self, scenario: str, policy: str, platform: str,
                 tdp_mw: float, cluster_ids: tuple[str, ...]):
        self.scenario = scenario
        self.policy = policy
        self.platform = platform
        self.tdp_mw = tdp_mw
        self.cluster_ids = cluster_ids
        self.decisions: list[DecisionRecord] = []
        self.requests: list[RequestRecord] = []
        self.power: list[PowerRecord] = []

    @property
    def makespan_ms(self) -> float:
        return max((r.completed_ms for r in self.requests
                    if r.completed_ms is not None), default=0.0)

    def _power_totals(self, end: float, eps: float) -> tuple[float, float]:
        """Energy in mJ, and ms drawing more than tdp_mw + eps, of the
        power record clipped to [0, end]."""
        energy = over = 0  # an int 0 when no span counts, as sum() gave
        limit = self.tdp_mw + eps
        power = self.power
        for i, rec in enumerate(power, 1):
            hi = min(power[i].time_ms, end) if i < len(power) else end
            if hi > rec.time_ms:
                dt = hi - rec.time_ms
                energy += dt * rec.power_mw
                if rec.power_mw > limit:
                    over += dt
        return energy / 1000.0, over

    @property
    def energy_mj(self) -> float:
        return self._power_totals(self.makespan_ms, 1e-9)[0]

    def time_over_budget_ms(self, eps: float = 1e-9) -> float:
        return self._power_totals(self.makespan_ms, eps)[1]

    @property
    def violation_fraction(self) -> float:
        span = self.makespan_ms
        return self._power_totals(span, 1e-9)[1] / span if span > 0 else 0.0

    def waiting_by_priority(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for prio in sorted({r.priority for r in self.requests}):
            waits = [r.waiting_ms for r in self.requests
                     if r.priority == prio and r.waiting_ms is not None]
            if waits:
                out[prio] = {
                    "avg_ms": sum(waits) / len(waits),
                    "max_ms": max(waits),
                    "count": len(waits),
                }
        return out

    def summary(self) -> dict:
        waits = [r.waiting_ms for r in self.requests if r.waiting_ms is not None]
        lats = [r.latency_ms for r in self.requests if r.latency_ms is not None]
        kinds: dict[str, int] = {}
        for d in self.decisions:
            kinds[d.kind] = kinds.get(d.kind, 0) + 1
        span = self.makespan_ms
        energy, over = self._power_totals(span, 1e-9)
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "platform": self.platform,
            "tdp_mw": self.tdp_mw,
            "makespan_ms": _r6(span),
            "energy_mj": _r6(energy),
            "time_over_budget_ms": _r6(over),
            "violation_fraction": _r6(over / span if span > 0 else 0.0),
            "total_waiting_ms": _r6(sum(waits)) if waits else 0.0,
            "avg_waiting_ms": _r6(sum(waits) / len(waits)) if waits else 0.0,
            "max_waiting_ms": _r6(max(waits)) if waits else 0.0,
            "avg_latency_ms": _r6(sum(lats) / len(lats)) if lats else 0.0,
            "decision_counts": {k: kinds[k] for k in sorted(kinds)},
            "waiting_by_priority": {
                str(p): {k: _r6(v) for k, v in stats.items()}
                for p, stats in self.waiting_by_priority().items()
            },
            "requests": [
                {
                    "request_id": r.request_id,
                    "model": r.model,
                    "priority": r.priority,
                    "arrival_ms": _r6(r.arrival_ms),
                    "first_map_ms": _r6(r.first_map_ms),
                    "completed_ms": _r6(r.completed_ms),
                    "waiting_ms": _r6(r.waiting_ms),
                    "latency_ms": _r6(r.latency_ms),
                    "work_gflops": _r6(r.work_gflops),
                }
                for r in self.requests
            ],
        }


def _r6(x):
    return round(x, 6) if isinstance(x, float) else x


# ---------------------------------------------------------------------------
# serialization

# A float cell is written with six decimals.  csv.writer already writes
# None as "" and an int or str as str(v), so a column the engine fills
# with one known type is formatted without testing each cell.

def _table(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cell(v):
    return f"{v:.6f}" if isinstance(v, float) else v


def decisions_csv(trace: Trace) -> str:
    # time_ms is the engine's float clock and kind a DecisionKind name;
    # request_id, part, cluster_id and level are a policy's values
    return _table(DecisionRecord._fields, [
        (f"{t:.6f}", kind, _cell(rid), _cell(part), _cell(cid), _cell(level),
         _cell(freq))
        for t, kind, rid, part, cid, level, freq in trace.decisions])


def _f6(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def requests_csv(trace: Trace) -> str:
    return _table(RequestRecord._fields, [
        (rid, model, prio, f"{arrival:.6f}", _f6(first_map), _f6(completed),
         _f6(waiting), _f6(latency), f"{work:.6f}")
        for rid, model, prio, arrival, first_map, completed, waiting,
        latency, work in trace.requests])


def power_csv(trace: Trace) -> str:
    header = ["time_ms", "power_mw"]
    for cid in trace.cluster_ids:
        header += [f"{cid}_freq_mhz", f"{cid}_util"]
    rows = []
    for p in trace.power:
        row = [p.time_ms, p.power_mw]
        for f, u in zip(p.freqs_mhz, p.utils):
            row += [f, u]
        rows.append([_cell(v) for v in row])
    return _table(header, rows)


# An indented dump runs json's pure-Python encoder.  The request entries
# hold only scalars, so the C encoder renders them in the same bytes
# when its item separator carries the newline and the entry indent; the
# list's own breaks are then put in where one entry ends and the next
# begins.  That is the only place "},\n      {" can occur: an encoded
# string holds no raw newline.
_encode_entries = json.JSONEncoder(
    sort_keys=True, separators=(",\n      ", ": ")).encode


def summary_json(trace: Trace) -> str:
    """json.dumps(trace.summary(), indent=2, sort_keys=True) + "\\n"."""
    doc = trace.summary()
    entries, doc["requests"] = doc["requests"], []
    text = json.dumps(doc, indent=2, sort_keys=True)
    if entries:
        body = _encode_entries(entries)[2:-2].replace(
            "},\n      {", "\n    },\n    {\n      ")
        # only a top-level key sits two spaces in from a line start
        text = text.replace(
            '\n  "requests": []',
            '\n  "requests": [\n    {\n      ' + body + "\n    }\n  ]", 1)
    return text + "\n"


# the files write_trace writes, by name
_TRACE_FILES = {
    "decisions.csv": decisions_csv,
    "requests.csv": requests_csv,
    "power.csv": power_csv,
    "summary.json": summary_json,
}


def write_trace(trace: Trace, out_dir) -> None:
    """Write decisions.csv, requests.csv, power.csv and summary.json."""
    _write_files(out_dir, {name: serialise(trace)
                           for name, serialise in _TRACE_FILES.items()})


def _write_files(out_dir, texts: dict[str, str]) -> None:
    """Write each text as UTF-8 to the file of its name under out_dir.

    Every text is encoded before any file is opened, so a text that
    cannot be encoded leaves all the files as they were.  An existing
    file is rewritten in place and then cut to the new length: on ext4,
    closing a non-empty file that was truncated to zero starts its
    writeback, which costs several times the write itself.  The file
    keeps its inode, links and mode, and a symlink is followed.  A file
    whose write fails is cut to zero, so that no new head sits on an old
    tail.  Nothing is synced to disk.
    """
    blobs = [(name, text.encode()) for name, text in texts.items()]
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in blobs:
        fd = os.open(os.path.join(out_dir, name), os.O_WRONLY | os.O_CREAT,
                     0o666)
        try:
            view = memoryview(blob)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(blob))
        except OSError:
            os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
