"""Command-line front end: simulate, score, infer, eval.

Outputs are machine readable (CSV datasets, DOT graphs, JSON reports) and
written atomically via temp-file-and-rename. simulate and infer also write
a run manifest recording the command line, seeds, tool version, input
digests and wall-clock duration; score and eval write one only with
--out. Exit codes: 0 success, 1 validation error, 2 runtime/numeric error
or a size too large to allocate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import MISSING, fields, replace
from typing import Optional, Sequence

from . import __version__
from .errors import (DataFormatError, NetinferError, NumericError, ValidationError,
                     check_int)
from .estimators import EstimatorKind
from .graph import Dag, compare_graphs, dag_from_dot, write_dot
from .scores import SCORE_KINDS, Scorer
from .search import MAX_RESTARTS, SearchConfig, exhaustive_search, greedy_hill_climb
from .significance import SurrogateConfig
from .simulate import (
    CoupledLogisticModel,
    GdsConfig,
    LinearGaussianModel,
    simulate,
)
from .timeseries import (
    EmbeddingSpec,
    csv_text,
    delay_embed,
    discretize,
    load_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage errors
        self.print_usage(sys.stderr)  # are validation failures here
        raise ValidationError(message)


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".netinfer-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class _Manifest:
    def __init__(self, command: str, argv: Sequence[str]):
        self.start = time.monotonic()
        self.doc = {
            "command": command,
            "argv": list(argv),
            "version": __version__,
            "seeds": {},
            "config_paths": [],
            "inputs": {},
            "outputs": {},
            "duration_seconds": None,
        }

    def add_input(self, path: str):
        self.doc["inputs"][path] = _sha256(path)

    def add_config(self, path: str):
        self.doc["config_paths"].append(path)
        self.add_input(path)

    def add_seed(self, name: str, value: Optional[int]):
        self.doc["seeds"][name] = value

    def add_output(self, path: str):
        self.doc["outputs"][path] = _sha256(path)

    def write(self, path: str):
        self.doc["duration_seconds"] = time.monotonic() - self.start
        _atomic_write(path, _json_text(self.doc))


# ---------------------------------------------------------------------------
# shared flag plumbing

def _parse_int_list(text: str, m: int, flag: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValidationError(f"{flag} expects an integer or comma list") from None
    if len(values) == 1:
        return values * m
    if len(values) != m:
        raise ValidationError(
            f"{flag} has {len(values)} entries for {m} subsystems"
        )
    return values


def _add_scoring_flags(sub):
    sub.add_argument("--score", choices=SCORE_KINDS, default="tee")
    sub.add_argument("--alpha", type=float, default=0.95)
    sub.add_argument("--bins", default=None,
                     help="bin count (int or comma list) for discretization")
    sub.add_argument("--estimator",
                     choices=["discrete", "linear-gaussian", "box-kernel"],
                     default="discrete")
    sub.add_argument("--width", type=float, default=0.25,
                     help="box-kernel per-axis radius")
    sub.add_argument("--kappa", default="2",
                     help="embedding dimension (int or comma list)")
    sub.add_argument("--tau", default="1",
                     help="embedding delay (int or comma list)")
    sub.add_argument("--surrogates", type=int, default=199,
                     help="surrogate count for the tee score")
    sub.add_argument("--surrogate-method",
                     choices=["permutation", "bootstrap"], default="permutation")
    sub.add_argument("--seed", type=int, default=0)


def _build_scorer(args, ts) -> Scorer:
    check_int("seed", args.seed, 0)
    m = ts.m
    spec = EmbeddingSpec(
        tau=tuple(_parse_int_list(args.tau, m, "--tau")),
        kappa=tuple(_parse_int_list(args.kappa, m, "--kappa")),
    )
    if args.estimator == "discrete":
        if args.bins is None:
            raise ValidationError(
                "--bins is required for the discrete-plugin estimator"
            )
        data = discretize(ts, _parse_int_list(str(args.bins), m, "--bins"))
        kind = EstimatorKind.discrete_plugin()
    else:
        data = ts
        if args.estimator == "linear-gaussian":
            kind = EstimatorKind.linear_gaussian()
        else:
            kind = EstimatorKind.box_kernel(args.width)
    view = delay_embed(data, spec)
    surrogates = None
    if args.score == "tee":
        surrogates = SurrogateConfig(count=args.surrogates,
                                     method=args.surrogate_method, seed=args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scorer = Scorer(view, args.score, kind, alpha=args.alpha,
                        surrogates=surrogates)
    for w in caught:  # one line each, like the CLI's own warnings
        print(f"warning: {w.message}", file=sys.stderr)
    return scorer


def _print_report(report):
    print(f"score_kind={report.score_kind} estimator={report.estimator} "
          f"n_effective={report.n_effective}")
    header = f"{'vertex':<10} {'parents':<24} {'te':>12} {'penalty':>12} {'local':>14}"
    print(header)
    for pv in report.per_vertex:
        parents = ",".join(report.names[p] for p in pv.parents) or "-"
        print(f"{report.names[pv.vertex]:<10} {parents:<24} "
              f"{pv.te:>12.6f} {pv.penalty:>12.6f} {pv.local:>14.6f}")
    print(f"total = {report.total:.6f}")


# ---------------------------------------------------------------------------
# simulate

# the fields of sim_config.schema.json that GdsConfig takes as they are
# named; "manifest" lets an echoed config.json simulate again
_SCALARS = ("process_noise_std", "obs_noise_std", "n", "burn_in", "seed",
            "initial_states")
_CONFIG_FIELDS = ("names", "edges", "model", *_SCALARS, "manifest")
_MODELS = {"coupled-logistic": CoupledLogisticModel,
           "linear-gaussian": LinearGaussianModel}


def _model_from_json(mdoc):
    """The model a config's "model" object names, checked by its class."""
    if not isinstance(mdoc, dict):
        raise ValidationError(f"config field 'model' must be an object, got {mdoc!r}")
    mtype = mdoc.get("type")
    cls = _MODELS.get(mtype) if isinstance(mtype, str) else None
    if cls is None:
        raise ValidationError(f"unknown model type {mtype!r}")
    kwargs = {k: v for k, v in mdoc.items() if k != "type"}
    known = {f.name for f in fields(cls)}
    for key in kwargs:
        if key not in known:
            raise ValidationError(f"model {mtype!r} has no field {key!r}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in kwargs:
            raise ValidationError(f"model {mtype!r} is missing field {f.name!r}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"model: {exc}") from None


def _config_from_json(doc: dict) -> GdsConfig:
    """Map a simulate config's JSON names onto a ``GdsConfig``, which checks it."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    for key in doc:
        if key not in _CONFIG_FIELDS:
            raise ValidationError(f"config has unknown field {key!r}")
    if not isinstance(doc.get("manifest", ""), str):
        raise ValidationError("config field 'manifest' must be a string")
    for key in ("names", "edges", "model", "n"):
        if key not in doc:
            raise ValidationError(f"config is missing required field {key!r}")
    names = doc["names"]
    if not isinstance(names, list):
        raise ValidationError(f"config field 'names' must be a list of strings, "
                              f"got {names!r}")
    # only a string names a vertex; GdsConfig rejects any other entry
    index = {name: i for i, name in enumerate(names) if isinstance(name, str)}
    try:
        edges = [(index[a], index[b]) for a, b in doc["edges"]]
    except KeyError as exc:
        raise ValidationError(f"edge endpoint {exc.args[0]!r} is not in names") from None
    except (TypeError, ValueError):
        raise ValidationError(
            "config field 'edges' must be a list of [source, target] name pairs"
        ) from None
    return GdsConfig(Dag.from_edges(len(names), edges), _model_from_json(doc["model"]),
                     names=names, **{key: doc[key] for key in _SCALARS if key in doc})


def _config_echo(cfg: GdsConfig) -> dict:
    if isinstance(cfg.model, CoupledLogisticModel):
        model = {"type": "coupled-logistic", "r": cfg.model.r,
                 "epsilon": cfg.model.epsilon}
    else:
        model = {"type": "linear-gaussian", "self_weight": cfg.model.self_weight,
                 "coupling": cfg.model.coupling}
    names = cfg.names
    return {"names": names,
            "edges": [[names[a], names[b]] for a, b in cfg.graph.edges()],
            "model": model, **{key: getattr(cfg, key) for key in _SCALARS}}


def cmd_simulate(args, argv) -> int:
    manifest = _Manifest("simulate", argv)
    manifest.add_config(args.config)
    try:
        doc = json.loads(_read_text(args.config))
    except RecursionError:
        raise DataFormatError(f"{args.config}: JSON nested too deeply") from None
    cfg = _config_from_json(doc)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    manifest.add_seed("simulate", cfg.seed)
    out = simulate(cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    data_path = os.path.join(args.out_dir, "data.csv")
    truth_path = os.path.join(args.out_dir, "truth.dot")
    echo_path = os.path.join(args.out_dir, "config.json")
    manifest_path = os.path.join(args.out_dir, "run_manifest.json")

    _atomic_write(data_path, csv_text(out.observations))
    names = out.observations.names
    _atomic_write(truth_path,
                  f"// manifest: {os.path.basename(manifest_path)}\n"
                  + write_dot(out.truth, names))
    echo = _config_echo(cfg)
    echo["manifest"] = os.path.basename(manifest_path)
    _atomic_write(echo_path, _json_text(echo))

    for path in (data_path, truth_path, echo_path):
        manifest.add_output(path)
    manifest.write(manifest_path)
    print(f"wrote {data_path}, {truth_path}, {echo_path}")
    return 0


# ---------------------------------------------------------------------------
# score

def cmd_score(args, argv) -> int:
    manifest = _Manifest("score", argv)
    manifest.add_input(args.data)
    manifest.add_input(args.graph)
    manifest.add_seed("score", args.seed)
    ts = load_csv(args.data)
    graph, _ = dag_from_dot(_read_text(args.graph), names=ts.names)
    scorer = _build_scorer(args, ts)
    report = scorer.score(graph)
    _print_report(report)
    if args.out:
        doc = report.to_dict()
        doc["manifest"] = os.path.basename(args.out) + ".manifest.json"
        _atomic_write(args.out, _json_text(doc))
        manifest.add_output(args.out)
        manifest.write(args.out + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------
# infer

def cmd_infer(args, argv) -> int:
    manifest = _Manifest("infer", argv)
    manifest.add_input(args.data)
    manifest.add_seed("score", args.seed)
    manifest.add_seed("search", args.seed)
    for flag in ("max_parents", "restarts"):
        if args.search == "exhaustive" and getattr(args, flag) is not None:
            raise ValidationError(f"--{flag.replace('_', '-')} applies to greedy "
                                  "search only; exhaustive search scores every DAG")
    if args.search == "greedy":
        config = SearchConfig(
            max_parents=args.max_parents if args.max_parents is not None else "auto",
            restarts=args.restarts or 0,
            seed=args.seed,
        )
    ts = load_csv(args.data)
    if args.score in ("te", "ml") and args.max_parents is None:
        if args.search == "exhaustive":
            expect = "expect a complete graph (use tea/tee)"
        else:
            cap = SearchConfig().resolved_max_parents(args.score)
            expect = (f"expect a complete graph, capped at {cap} parents per "
                      "vertex (set --max-parents or use tea/tee)")
        print(f"warning: --score {args.score} is non-decreasing in parents; "
              f"{expect}", file=sys.stderr)
    scorer = _build_scorer(args, ts)
    if args.search == "exhaustive":
        result = exhaustive_search(scorer)
    else:
        result = greedy_hill_climb(scorer, config)

    os.makedirs(args.out_dir, exist_ok=True)
    dot_path = os.path.join(args.out_dir, "inferred.dot")
    report_path = os.path.join(args.out_dir, "report.json")
    manifest_path = os.path.join(args.out_dir, "run_manifest.json")
    _atomic_write(dot_path,
                  f"// manifest: {os.path.basename(manifest_path)}\n"
                  + write_dot(result.best, ts.names))
    doc = result.best_report.to_dict()
    doc["visited"] = result.visited
    doc["manifest"] = os.path.basename(manifest_path)
    _atomic_write(report_path, _json_text(doc))
    manifest.add_output(dot_path)
    manifest.add_output(report_path)
    manifest.write(manifest_path)
    _print_report(result.best_report)
    print(f"visited {result.visited} graphs; wrote {dot_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, argv) -> int:
    manifest = _Manifest("eval", argv)
    manifest.add_input(args.inferred)
    manifest.add_input(args.truth)
    truth, truth_names = dag_from_dot(_read_text(args.truth))
    inferred, _ = dag_from_dot(_read_text(args.inferred), names=truth_names)
    metrics = compare_graphs(inferred, truth)
    print(json.dumps(metrics, indent=2))
    if args.out:
        doc = dict(metrics)
        doc["manifest"] = os.path.basename(args.out) + ".manifest.json"
        _atomic_write(args.out, _json_text(doc))
        manifest.add_output(args.out)
        manifest.write(args.out + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netinfer",
                     description="Infer coupling graphs of hidden dynamical "
                                 "subsystems from scalar time series.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a dataset from a config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")

    score = subs.add_parser("score", help="score a given graph against data")
    score.add_argument("--data", required=True)
    score.add_argument("--graph", required=True)
    score.add_argument("--out", default=None, help="report JSON path")
    _add_scoring_flags(score)

    infer = subs.add_parser("infer", help="search for the best-scoring graph")
    infer.add_argument("--data", required=True)
    infer.add_argument("--out-dir", required=True)
    infer.add_argument("--search", choices=["exhaustive", "greedy"],
                       default="greedy")
    infer.add_argument("--restarts", type=int, default=None,
                       help="random restarts (greedy search only; default 0, "
                            f"at most {MAX_RESTARTS})")
    infer.add_argument("--max-parents", type=int, default=None,
                       help="parent cap (greedy search only)")
    _add_scoring_flags(infer)

    ev = subs.add_parser("eval", help="compare an inferred graph to the truth")
    ev.add_argument("--inferred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", default=None, help="metrics JSON path")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "score": cmd_score,
    "infer": cmd_infer,
    "eval": cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except NetinferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (a size or count is too large to allocate)",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
