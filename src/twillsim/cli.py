"""Command-line front end.

    twillsim run --mix mix1 --policy twill --out results/
    twillsim compare --out results/
    twillsim run --mix path/to/scenario.json --set tdp_mw=12000

`--mix` accepts a packaged mix/scenario name or a JSON file path; the
special name `random` generates a reproducible scenario from `--seed`.
`--set key=value` overrides platform fields (tdp_mw, base_power_mw) and
engine knobs (ctrl_overhead_ms, migration_overhead_ms,
freeze_overhead_ms, dla_fallback_penalty, affinity_threshold).

Exit codes: 0 success, 1 bad input or usage, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import prepare_mix, presets
from .baselines import POLICIES, make_policy
from .engine import EngineError, Prepared, Simulation
from .hardware import PlatformError
from .models import ModelError
from .trace import _TRACE_FILES, Trace, _write_files, write_trace
from .workload import (PLATFORM_OVERRIDE_KEYS, WorkloadError, WorkloadScenario,
                       load_mix, random_mix)

_ENGINE_KEYS = ("ctrl_overhead_ms", "migration_overhead_ms",
                "freeze_overhead_ms", "dla_fallback_penalty",
                "affinity_threshold")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad usage is a validation
    # problem here, so funnel it through the same path as bad inputs
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="twillsim",
                     description="Edge inference scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--platform", metavar="PATH",
                        help="platform JSON (default: packaged)")
    common.add_argument("--out", metavar="DIR",
                        help="directory for trace/report files")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override a platform or engine parameter")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for generated scenarios (default 0)")

    run = sub.add_parser("run", parents=[common],
                         help="simulate one scenario under one policy")
    run.add_argument("--mix", required=True,
                     help="packaged mix/scenario name, JSON path, or 'random'")
    run.add_argument("--policy", default="twill", choices=sorted(POLICIES),
                     help="scheduling policy (default: twill)")

    comp = sub.add_parser("compare", parents=[common],
                          help="run several policies over several mixes")
    comp.add_argument("--mixes", nargs="+",
                      help="mixes to compare (default: every packaged mix, and "
                           "any under TWILLSIM_CONFIG_DIR)")
    comp.add_argument("--policies", nargs="+", default=sorted(POLICIES),
                      choices=sorted(POLICIES), metavar="POLICY",
                      help="policies to compare (default: all)")
    return parser


def _parse_overrides(pairs: list[str]) -> tuple[dict, dict]:
    platform_overrides, engine_kwargs = {}, {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"--set expects key=value, got {pair!r}")
        try:
            num = float(value)
        except ValueError:
            raise CliError(f"--set {key}: {value!r} is not a number") from None
        if key in PLATFORM_OVERRIDE_KEYS:
            platform_overrides[key] = num
        elif key in _ENGINE_KEYS:
            engine_kwargs[key] = num
        else:
            raise CliError(
                f"unknown --set key {key!r}; expected one of "
                f"{', '.join(PLATFORM_OVERRIDE_KEYS + _ENGINE_KEYS)}")
    return platform_overrides, engine_kwargs


def _load_scenario(mix: str, seed: int) -> WorkloadScenario:
    if mix == "random":
        return random_mix(seed, presets.available_models(), n_requests=6)
    path = Path(mix)
    if path.suffix == ".json" or path.exists():
        if not path.is_file():
            raise CliError(f"scenario file not found: {mix}")
        return load_mix(presets.read_file(path),
                        known_models=presets.available_models())
    return load_mix(presets.mix_or_scenario_text(mix),
                    known_models=presets.available_models())


def _platform_text(path: str | None) -> str:
    if path is None:
        return presets.platform_text()
    p = Path(path)
    if not p.is_file():
        raise CliError(f"platform file not found: {path}")
    return presets.read_file(p)


def _check_out(out: str | None, names: Iterable[str]) -> None:
    """Refuse, before any run, an --out that cannot be made a directory
    or that holds one of the files `names` as no regular file: the files
    are written only after the whole run."""
    if not out:
        return
    path = Path(out)
    for p in (path, *path.parents):
        if os.path.lexists(p):  # a dangling symlink is no directory either
            if not p.is_dir():
                raise CliError(f"--out {out}: {p} is not a directory")
            break
    for file in (path / name for name in names):
        if file.exists() and not file.is_file():
            raise CliError(f"--out {out}: {file} is not a regular file")


def _prepared(mixes: list[str], args) -> Iterator[Prepared]:
    """Each of `mixes`, prepared as --seed, --set and --platform ask, the
    last two parsed and read once."""
    platform_overrides, engine_kwargs = _parse_overrides(args.overrides)
    platform_text = _platform_text(args.platform)
    for mix in mixes:
        scenario = _load_scenario(mix, args.seed)
        if platform_overrides:
            # a new scenario, so that its constructor checks the merged values
            scenario = WorkloadScenario(
                scenario.name, scenario.requests,
                {**scenario.platform_overrides, **platform_overrides})
        yield prepare_mix(scenario, platform_text=platform_text,
                          **engine_kwargs)


def _print_run(trace: Trace):
    s = trace.summary()
    print(f"scenario={s['scenario']} policy={s['policy']} "
          f"platform={s['platform']}")
    print(f"makespan_ms={s['makespan_ms']} energy_mj={s['energy_mj']} "
          f"violation_fraction={s['violation_fraction']} "
          f"total_waiting_ms={s['total_waiting_ms']}")
    header = f"{'request':<24} {'model':<18} {'prio':>4} {'arrival':>10} {'waiting':>10} {'latency':>10}"
    print(header)
    for r in s["requests"]:
        print(f"{r['request_id']:<24} {r['model']:<18} {r['priority']:>4} "
              f"{r['arrival_ms']:>10.1f} {r['waiting_ms']:>10.1f} "
              f"{r['latency_ms']:>10.1f}")


def cmd_run(args) -> int:
    _check_out(args.out, _TRACE_FILES)
    prepared, = _prepared([args.mix], args)
    trace = Simulation(prepared, make_policy(args.policy)).run()
    _print_run(trace)
    if args.out:
        write_trace(trace, args.out)
        print(f"trace files written to {args.out}")
    return 0


_COMPARISON_FILE = "comparison.csv"
_COMPARE_FIELDS = ["mix", "policy", "makespan_ms", "total_waiting_ms",
                   "violation_fraction", "energy_mj",
                   "twill_makespan_improvement_pct"]


def cmd_compare(args) -> int:
    if len(set(args.policies)) < 2:
        raise CliError("compare requires >=2 policies")
    mixes = presets.available_mixes() if args.mixes is None else args.mixes
    # a repeat would be simulated again and get rows of its own
    for flag, names in (("--mixes", mixes), ("--policies", args.policies)):
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise CliError(f"{flag} names {', '.join(repeated)} more than once")
    _check_out(args.out, [_COMPARISON_FILE])

    rows = []
    # one build per mix, run under each policy
    for mix, prepared in zip(mixes, _prepared(mixes, args)):
        summaries = {p: Simulation(prepared, make_policy(p)).run().summary()
                     for p in args.policies}
        twill_makespan = (summaries["twill"]["makespan_ms"]
                          if "twill" in summaries else None)
        for p in args.policies:
            s = summaries[p]
            improvement = ""
            if twill_makespan is not None and p != "twill" and s["makespan_ms"] > 0:
                improvement = round(
                    100.0 * (s["makespan_ms"] - twill_makespan)
                    / s["makespan_ms"], 2)
            rows.append({"mix": mix, "policy": p,
                         **{f: s[f] for f in _COMPARE_FIELDS[2:-1]},
                         "twill_makespan_improvement_pct": improvement})

    widths = {f: max(len(f), *(len(str(r[f])) for r in rows)) for f in _COMPARE_FIELDS}
    print("  ".join(f"{f:<{widths[f]}}" for f in _COMPARE_FIELDS))
    for r in rows:
        print("  ".join(f"{str(r[f]):<{widths[f]}}" for f in _COMPARE_FIELDS))

    if args.out:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_COMPARE_FIELDS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        _write_files(args.out, {_COMPARISON_FILE: buf.getvalue()})
        print(f"{_COMPARISON_FILE} written to {args.out}")
    return 0


def main(argv=None) -> int:
    # ids are printed as the terminal's encoding allows: under a non-UTF-8
    # locale a non-ASCII id must not end a run whose files are UTF-8 anyway
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except (CliError, WorkloadError, ModelError, PlatformError,
            presets.PresetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except EngineError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
