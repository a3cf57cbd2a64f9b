"""Traces: the records of what one run did, and the four trace files
written from them.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

# power above tdp_mw by more than this counts as over budget
_OVER_BUDGET_EPS_MW = 1e-9

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

    def _power_totals(self, end: float) -> tuple[float, float]:
        """Energy in mJ, and ms drawing over budget, of the power record
        clipped to [0, end]."""
        energy = over = 0  # an int 0 when no span counts, as sum() gave
        limit = self.tdp_mw + _OVER_BUDGET_EPS_MW
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
        return self._power_totals(self.makespan_ms)[0]

    def time_over_budget_ms(self) -> float:
        return self._power_totals(self.makespan_ms)[1]

    @property
    def violation_fraction(self) -> float:
        span = self.makespan_ms
        return self._power_totals(span)[1] / span if span > 0 else 0.0

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
        return {**self._totals(), "requests": [
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
        ]}

    def _totals(self) -> dict:
        """summary() without its per-request entries."""
        waits = [r.waiting_ms for r in self.requests if r.waiting_ms is not None]
        lats = [r.latency_ms for r in self.requests if r.latency_ms is not None]
        kinds: dict[str, int] = {}
        for d in self.decisions:
            kinds[d.kind] = kinds.get(d.kind, 0) + 1
        span = self.makespan_ms
        energy, over = self._power_totals(span)
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
        }


def _r6(x):
    return round(x, 6) if isinstance(x, float) else x


# ---------------------------------------------------------------------------
# serialization
#
# A CSV file is a header line, then one line per record, its columns in
# the record's field order.  A float cell has six decimals ("%.6f", the
# same text as format spec .6f), None is an empty cell and any other
# value is str(value); a cell holding , " \r or \n is quoted, with each
# " doubled.  summary.json is json.dumps(trace.summary(), indent=2,
# sort_keys=True) and a newline.


def _csv_cell(v) -> str:
    if v is None:
        return ""
    text = "%.6f" % v if isinstance(v, float) else str(v)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(header, rows: list[str]) -> str:
    return ",".join(map(_csv_cell, header)) + "\n" + "".join(rows)


class _StrCells(dict):
    """One file's memo of the text of each None or str cell, made on
    first use.  Only those key it: 1 == 1.0 == True, but their texts
    differ."""

    __slots__ = ()

    def __missing__(self, v):
        text = _csv_cell(v)
        if v.__class__ is str:
            self[v] = text
        return text


def decisions_csv(trace: Trace) -> str:
    c = _csv_cell
    # time_ms is the engine's float clock; the other cells are a
    # policy's values, or the engine's copy of them.  Kinds, ids and
    # clusters recur, so those four cells go through the memo; the last
    # two are mostly None, written as "" without the call.
    m = _StrCells({None: ""})
    try:
        rows = [f"{'%.6f' % t},{m[kind]},{m[rid]},{m[part]},{m[cid]},"
                f"{'' if level is None else c(level)},"
                f"{'' if freq is None else c(freq)}\n"
                for t, kind, rid, part, cid, level, freq in trace.decisions]
    except TypeError:  # an unhashable cell, which only a hand-built trace has
        rows = [",".join(["%.6f" % d[0], *map(c, d[1:])]) + "\n"
                for d in trace.decisions]
    return _csv(DecisionRecord._fields, rows)


def _six_decimals(requests) -> list[tuple[str, ...]]:
    """The six float fields of each request record, arrival_ms to
    work_gflops, as six-decimal text ("" for None); requests.csv and
    summary.json both read them."""
    return [("%.6f" % arrival,
             "" if first_map is None else "%.6f" % first_map,
             "" if completed is None else "%.6f" % completed,
             "" if waiting is None else "%.6f" % waiting,
             "" if latency is None else "%.6f" % latency,
             "%.6f" % work)
            for _, _, _, arrival, first_map, completed, waiting, latency,
            work in requests]


def _requests_csv(trace: Trace, texts) -> str:
    c = _csv_cell
    return _csv(RequestRecord._fields, [
        f"{c(rid)},{c(model)},{c(prio)},{a},{f},{cm},{w},{lat},{g}\n"
        for (rid, model, prio, _, _, _, _, _, _), (a, f, cm, w, lat, g)
        in zip(trace.requests, texts)])


def requests_csv(trace: Trace) -> str:
    return _requests_csv(trace, _six_decimals(trace.requests))


def power_csv(trace: Trace) -> str:
    c = _csv_cell
    header = ["time_ms", "power_mw"]
    for cid in trace.cluster_ids:
        header += [f"{cid}_freq_mhz", f"{cid}_util"]
    return _csv(header, [
        f"{'%.6f' % t},{c(p)}"
        + "".join([f",{c(f)},{c(u)}" for f, u in zip(freqs, utils)])
        + "\n"
        for t, p, freqs, utils in trace.power])


def _scalar(v) -> str:
    """v as json.dumps writes it."""
    if v.__class__ is str:
        return _json_string(v)
    if v.__class__ is int:
        return int.__repr__(v)
    return json.dumps(v)


def _number(x, text: str) -> str:
    """_scalar(_r6(x)), given x's six-decimal text.

    For a float of size 0 or in [1e-4, 1e9), that is the text with its
    trailing zeros cut: it has at most 15 significant digits, so it is
    the shortest text that reads back as round(x, 6), and repr writes
    such a float with no exponent.
    """
    if x.__class__ is float and (1e-4 <= x < 1e9 or -1e9 < x <= -1e-4
                                 or x == 0.0):
        text = text.rstrip("0")
        return text + "0" if text[-1] == "." else text
    return _scalar(_r6(x))


def _summary_json(trace: Trace, texts) -> str:
    # the totals through json.dumps, with the request entries, one
    # f-string each, in place of the empty list; a string's line breaks
    # are escaped, so the top-level "requests" line is the only one
    doc = json.dumps({**trace._totals(), "requests": []}, indent=2,
                     sort_keys=True)
    if not trace.requests:
        return doc + "\n"
    n, s = _number, _scalar
    entries = ",\n    ".join([
        f'{{\n      "arrival_ms": {n(arrival, a)},'
        f'\n      "completed_ms": {n(completed, c)},'
        f'\n      "first_map_ms": {n(first_map, f)},'
        f'\n      "latency_ms": {n(latency, lat)},'
        f'\n      "model": {s(model)},'
        f'\n      "priority": {s(prio)},'
        f'\n      "request_id": {s(rid)},'
        f'\n      "waiting_ms": {n(waiting, w)},'
        f'\n      "work_gflops": {n(work, g)}\n    }}'
        for (rid, model, prio, arrival, first_map, completed, waiting,
             latency, work), (a, f, c, w, lat, g)
        in zip(trace.requests, texts)])
    return doc.replace('\n  "requests": []',
                       f'\n  "requests": [\n    {entries}\n  ]', 1) + "\n"


def summary_json(trace: Trace) -> str:
    """json.dumps(trace.summary(), indent=2, sort_keys=True) + "\\n"."""
    return _summary_json(trace, _six_decimals(trace.requests))


# the files write_trace writes
_TRACE_FILES = ("decisions.csv", "requests.csv", "power.csv", "summary.json")


def write_trace(trace: Trace, out_dir) -> None:
    """Write decisions.csv, requests.csv, power.csv and summary.json."""
    texts = _six_decimals(trace.requests)
    _write_files(out_dir, {
        "decisions.csv": decisions_csv(trace),
        "requests.csv": _requests_csv(trace, texts),
        "power.csv": power_csv(trace),
        "summary.json": _summary_json(trace, texts),
    })


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
