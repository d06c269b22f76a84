"""Reproducible experiment runner.

Each subcommand parses its arguments, calls one experiment function of
`bsclab.suite` (the one its acceptance criterion calls at pinned
parameters; `equiv` runs two and `suite` runs the criteria themselves,
each folding their results by `suite.combine`) and returns a `Report`: the
experiment's name, its parameters, its seeds and that result.  `main` then
does the same for every subcommand: it prints a short summary, writes the
canonical JSON report (`--out`) and the CSV (`--csv`), and exits 0 exactly
when every check passed (2 on a bad parameter, before any trial runs).  Every
subcommand takes an explicit seed; there is no wall-clock entropy anywhere.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import compressor, suite
from .compressor import ChunkParams, default_theta, minimal_t
from .core import ParameterError, SpecError, constant_spec, load_spec, seeded_spec
from .infotheory import uniform_inputs


Report = tuple[str, dict, dict, suite.ExperimentResult]
"""What every subcommand returns: (experiment, parameters, seeds, result)."""


def write_json(doc: dict, path: str) -> None:
    """Write `doc` as canonical JSON: sorted keys, indent 2, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(trials: dict, metrics: dict, path: str) -> None:
    """One row per trial; without per-trial columns, one `metric,value` row
    per scalar metric."""
    columns = [np.asarray(c).tolist() for c in trials.values()]
    rows = [dict(zip(trials, row)) for row in zip(*columns)] or [
        {"metric": k, "value": v}
        for k, v in metrics.items()
        if isinstance(v, (int, float, str, bool))
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# Experiment subcommands: parse, call one suite experiment, name the run
# ---------------------------------------------------------------------------


def cmd_chunk_verify(args: argparse.Namespace) -> Report:
    seeds = {"base": args.seed}
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = seeded_spec(args.gamma, args.spec_seed)
        seeds["spec"] = args.spec_seed
    if args.theta is None:
        theta = default_theta(args.gamma, args.epsilon)
    elif 0.0 <= args.theta <= args.gamma:
        theta = args.theta
    else:
        raise ParameterError(
            f"--theta is {args.theta!r}, not a finite number in [0, gamma={args.gamma}]"
        )
    if args.t == "minimal":
        t = minimal_t(args.gamma, args.epsilon, theta)
    elif args.t == "default":
        t = compressor.default_t(args.epsilon)
    else:
        try:
            t = float(args.t)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise ParameterError(f'--t is {args.t!r}, not "minimal", "default" or a finite number')
    params = ChunkParams(args.gamma, args.epsilon, theta, t)
    res = suite.chunk_experiment(params, spec, args.samples, args.seed)
    parameters = {
        "gamma": params.gamma,
        "epsilon": params.epsilon,
        "theta": params.theta,
        "t": params.t,
        "samples": args.samples,
    }
    if args.spec:
        parameters["spec"] = args.spec
    return "chunk-verify", parameters, seeds, res


def cmd_compress(args: argparse.Namespace) -> Report:
    spec = load_spec(args.spec) if args.spec else constant_spec(args.rounds)
    res = suite.compression_experiment(spec, args.epsilon, args.trials, args.seed)
    parameters = {"rounds": spec.rounds, "epsilon": args.epsilon, "trials": args.trials}
    if args.spec:
        parameters["spec"] = args.spec
    return "compress", parameters, {"base": args.seed}, res


def cmd_walk(args: argparse.Namespace) -> Report:
    if args.mode == "brw":
        res = suite.biased_walk_experiment([(args.a, args.b, args.seed)], args.trials)
    else:
        res = suite.unbiased_walk_experiment(args.a, args.b, args.trials, args.seed)
    parameters = {"a": args.a, "b": args.b, "trials": args.trials}
    return f"walk-{args.mode}", parameters, {"base": args.seed}, res


def _parse_list(flag: str, raw: str, parse, form: str) -> list:
    """Parse a comma list entry by entry; a bad entry raises `ParameterError`
    naming the flag and the entry."""
    values = []
    for entry in raw.split(","):
        try:
            values.append(parse(entry))
        except ValueError:
            raise ParameterError(f"{flag} entry {entry!r} is not {form}") from None
    return values


def _pair(entry: str) -> tuple[float, float]:
    p, q = (float(v) for v in entry.split(":"))
    return p, q


def cmd_sample_prior(args: argparse.Namespace) -> Report:
    if args.pairs:
        pairs = _parse_list("--pairs", args.pairs, _pair, "p:q")
    else:
        pairs = [(args.p, args.q)]
    res = suite.sample_prior_experiment(pairs, args.grid_n, args.samples, args.seed)
    parameters = {"grid_n": args.grid_n, "samples": args.samples}
    return "sample-prior", parameters, {"base": args.seed}, res


def _load_mu(arg: str, spec) -> dict:
    if arg == "uniform":
        return uniform_inputs(spec)
    with open(arg, encoding="utf-8") as fh:
        doc = json.load(fh)
    mu: dict = {}
    try:
        for row in doc["pairs"]:
            pair = (row["x"], row["y"])
            if pair in mu:
                raise SpecError(f"mu file {arg} lists input pair {pair!r} twice")
            mu[pair] = float(row["w"])
    except KeyError as exc:
        raise SpecError(f"mu file {arg} is missing field {exc}") from exc
    except TypeError as exc:
        raise SpecError(f'mu file {arg} is not {{"pairs": [{{"x", "y", "w"}}, ...]}}') from exc
    return mu


def cmd_icost(args: argparse.Namespace) -> Report:
    spec = load_spec(args.spec)
    res = suite.icost_experiment(spec, _load_mu(args.mu, spec))
    return "icost", {"spec": args.spec, "mu": args.mu, "rounds": spec.rounds}, {}, res


def cmd_equiv(args: argparse.Namespace) -> Report:
    eclb, ecub = args.mode in ("eclb", "both"), args.mode in ("ecub", "both")
    # Repeats ecub_experiment's own count checks on purpose: a bad ecub
    # count must exit 2 before eclb's run, which checks its own count first.
    if ecub:
        suite.require_count("samples", args.samples)
        suite.require_count("grid_n", args.grid_n)
    runs = {}
    if eclb:
        runs["eclb"] = suite.eclb_experiment(args.instances, args.seed)
    if ecub:
        runs["ecub"] = suite.ecub_experiment(args.grid_n, args.samples, args.seed)
    res = suite.combine(runs)
    parameters = {
        "mode": args.mode,
        "instances": args.instances,
        "samples": args.samples,
        "grid_n": args.grid_n,
    }
    return "equiv", parameters, {"base": args.seed}, res


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def cmd_suite(args: argparse.Namespace) -> Report:
    numbers = None
    if args.criteria:
        numbers = _parse_list("--criteria", args.criteria, int, "an integer")
        repeated = sorted({n for n in numbers if numbers.count(n) > 1})
        if repeated:
            raise ParameterError(f"--criteria repeats {repeated}; name each criterion once")
    res = suite.run_suite(seed=args.seed, numbers=numbers)
    parameters = {"criteria": numbers or list(suite.CRITERIA)}
    return "suite", parameters, {"base": args.seed}, res


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsclab",
        description="Seeded experiments for channel-simulation protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=7, help="base seed (deterministic)")
        p.add_argument("--out", type=str, default=None, help="write JSON report here")
        p.add_argument("--csv", type=str, default=None, help="write per-trial CSV here")

    p = sub.add_parser("chunk-verify", help="exact and sampled single-chunk oracles")
    p.add_argument("--gamma", type=int, default=20)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--t", default="minimal", help='"minimal", "default" or a finite number')
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--spec", type=str, default=None, help="protocol spec JSON file")
    p.add_argument("--spec-seed", type=int, default=41)
    common(p)
    p.set_defaults(func=cmd_chunk_verify)

    p = sub.add_parser("compress", help="whole-protocol compression cost sweep")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--spec", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("walk", help="absorbing-walk batteries")
    p.add_argument("--mode", choices=("brw", "ubrw"), required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("sample-prior", help="Bernoulli sampling against a prior")
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--pairs", type=str, default=None, help='"p:q,p:q,..." overrides --p/--q')
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--samples", type=int, default=50_000)
    common(p)
    p.set_defaults(func=cmd_sample_prior)

    p = sub.add_parser("icost", help="exact external information cost of a spec file")
    p.add_argument("--spec", type=str, required=True)
    p.add_argument("--mu", type=str, default="uniform")
    common(p)
    p.set_defaults(func=cmd_icost)

    p = sub.add_parser("equiv", help="energy / information equivalence checks")
    p.add_argument("--mode", choices=("eclb", "ecub", "both"), default="both")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--grid-n", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("suite", help="full acceptance battery")
    p.add_argument("--criteria", type=str, default=None, help="comma list, e.g. 1,5,11")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # numpy's own message for a negative seed names neither flag nor value.
        if args.seed < 0:
            raise ParameterError(f"--seed must be a non-negative integer, got {args.seed}")
        experiment, parameters, seeds, res = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_clock = time.perf_counter() - start
    metrics = _jsonable(res.metrics)

    print(f"experiment: {experiment}")
    for key, value in metrics.items():
        if isinstance(value, float):
            print(f"  {key} = {value:.6g}")
        elif isinstance(value, (int, str, bool)):
            print(f"  {key} = {value}")
    for check in res.checks:
        print(f"  [{'PASS' if check['passed'] else 'FAIL'}] {check['name']}")
    if args.out:
        doc = {
            "experiment": experiment,
            "parameters": parameters,
            "seeds": seeds,
            "metrics": metrics,
            "tests": res.checks,
            "wall_clock_seconds": wall_clock,
        }
        write_json(doc, args.out)
        print(f"report written to {args.out}")
    if args.csv:
        write_csv(res.trials, metrics, args.csv)
    return 0 if res.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
