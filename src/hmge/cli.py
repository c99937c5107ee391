"""Command-line entry point.

Subcommands: synth, train, eval, ablate, sweep, export. Flags beat values
from a ``--config`` JSON file, which beat the defaults of the library's
config classes and functions. A config value is checked as its flag would
check it; keys that name no flag of the subcommand are ignored.
``--threads``/``HMGE_THREADS`` is validated and copied into the BLAS thread
variables, but ``import hmge`` has loaded numpy by then, so it does not
cap the pool yet. Exit codes: 0 success, 1 usage error, 2 data error (an
output file that cannot be written included), 3 numeric failure. A
warning the library emits, such as a dimension the link split skips, is
one ``note:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from .errors import ConfigError, DataFormatError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, the type of list-valued flags."""
    return tuple(int(x) for x in text.split(","))


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--embed-size", type=int, help="node embedding width M")
    parser.add_argument("--layers", type=int, help="hierarchical layers L (0 = linear baseline)")
    parser.add_argument("--schedule", type=int_list, help="dimension schedule, e.g. 41,21,1")
    parser.add_argument("--lr", type=float, help="Adam learning rate")
    parser.add_argument("--weight-decay", type=float, help="decoupled weight decay")
    parser.add_argument("--epochs", type=int, help="maximum training epochs")
    parser.add_argument("--patience", type=int, help="early-stopping patience")
    parser.add_argument(
        "--identity-features",
        action="store_const",
        const=True,
        help="replace dataset features with one-hot node features",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--threads", type=int, help="cap BLAS worker threads")
    parser.add_argument("--config", type=str, help="JSON file mirroring the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmge",
        description="Hierarchical multiplex graph embedding: synthesize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic SBM multiplex dataset")
    p.add_argument("--nodes", type=int, help="number of nodes")
    p.add_argument("--dims", type=int, help="number of dimensions")
    p.add_argument("--classes", type=int, help="number of equally likely classes")
    p.add_argument("--p-in", type=float, help="within-class edge probability")
    p.add_argument("--p-out", type=float, help="cross-class edge probability")
    p.add_argument("--out", type=str, help="output dataset directory")
    _add_common(p)

    p = sub.add_parser("train", help="train embeddings on a dataset directory")
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--out", type=str, help="output directory")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("eval", help="link-prediction or classification evaluation")
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--task", choices=["link", "class"], help="evaluation task")
    p.add_argument("--ratio", type=float, help="edge removal ratio for link task")
    p.add_argument("--train-fraction", type=float, help="labeled fraction for class task")
    p.add_argument("--out", type=str, help="output directory")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("ablate", help="full model vs both ablations on both tasks")
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--ratio", type=float, help="edge removal ratio")
    p.add_argument("--train-fraction", type=float, help="labeled fraction")
    p.add_argument("--out", type=str, help="output directory")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("sweep", help="embedding-size sensitivity sweep")
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--embed-sizes", type=int_list, help="embedding sizes, e.g. 16,32,64")
    p.add_argument("--train-fraction", type=float, help="labeled fraction")
    p.add_argument("--out", type=str, help="output directory")
    _add_train_flags(p)
    _add_common(p)

    p = sub.add_parser("export", help="re-export embeddings and weights from a model file")
    p.add_argument("--model", type=str, help="model.bin produced by train")
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--out", type=str, help="output directory")
    _add_common(p)

    for p in sub.choices.values():
        # _Options checks --config values against the subcommand's own flags.
        p.set_defaults(
            flags={a.dest: a for a in p._actions if a.option_strings and a.dest != "help"}
        )
    return parser


def _flag_value(action: argparse.Action, value, config_path: str):
    """A config file's ``value`` for ``action``, parsed as its flag would be.

    A const flag takes only true or false; any other flag takes a string or
    a number, converted by the flag's type and checked against its choices.
    """
    where = f"config file {config_path}: {action.option_strings[0]}"
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise UsageError(f"{where}: expected true or false, got {json.dumps(value)}")
        return action.const if value else None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"{where}: expected a string or a number, got {json.dumps(value)}")
    convert = action.type or str
    try:
        parsed = convert(str(value))
    except ValueError:
        raise UsageError(f"{where}: invalid {convert.__name__} value {value!r}")
    if action.choices is not None and parsed not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise UsageError(f"{where}: invalid choice {value!r} (choose from {choices})")
    return parsed


class _Options:
    """Flag > config file > default resolution."""

    def __init__(self, namespace: argparse.Namespace):
        self.ns = vars(namespace)
        self.file_values = {}
        config_path = self.ns.get("config")
        if config_path:
            try:
                values = json.loads(Path(config_path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file {config_path}: {exc}")
            if not isinstance(values, dict):
                raise UsageError(f"config file {config_path} must hold a JSON object")
            flags = self.ns["flags"]
            self.file_values = {
                name: _flag_value(flags[name], value, config_path)
                for name, value in values.items()
                if name in flags and value is not None
            }

    def get(self, name: str, required: bool = False):
        value = self.ns.get(name)
        if value is None:
            value = self.file_values.get(name)
        if value is None and required:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return value

    def given(self, **names) -> dict:
        """{keyword: value} of each option ``names[keyword]`` that is set, so
        the callee's own defaults fill in the rest."""
        values = {key: self.get(name) for key, name in names.items()}
        return {key: value for key, value in values.items() if value is not None}


class UsageError(Exception):
    pass


def _setup_threads(options: _Options) -> None:
    threads = options.get("threads")
    if threads is None:
        env = os.environ.get("HMGE_THREADS")
        try:
            threads = int(env) if env else None
        except ValueError:
            raise UsageError(f"HMGE_THREADS must be a positive integer, got {env!r}")
    if threads is not None:
        if threads < 1:
            raise UsageError(f"--threads must be positive, got {threads}")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _configs_from(options: _Options):
    from .model import HmgeConfig
    from .training import TrainConfig

    model_fields = options.given(
        embed_size="embed_size", num_layers="layers", dims_schedule="schedule"
    )
    train_fields = options.given(
        epochs="epochs", learning_rate="lr", weight_decay="weight_decay",
        patience="patience", rng_seed="seed",
    )
    # The default patience shrinks to fit a short run; an explicit one must fit.
    epochs = train_fields.get("epochs", TrainConfig.epochs)
    train_fields.setdefault("patience", min(TrainConfig.patience, epochs))
    return HmgeConfig(**model_fields), TrainConfig(**train_fields)


def _load_graph(options: _Options):
    from .multiplex import load_multiplex

    graph = load_multiplex(options.get("data", required=True))
    if options.get("identity_features"):
        import numpy as np

        graph = graph.with_features(np.eye(graph.num_nodes))
    return graph


def _out_dir(options: _Options) -> Path:
    """The ``--out`` directory, made if missing; a data error if it cannot be."""
    out = Path(options.get("out", required=True))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"cannot write {out}: {exc}") from exc
    return out


def _write_report(out_dir: Path, payload) -> Path:
    path = out_dir / "report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def cmd_synth(options: _Options) -> int:
    from .sbm import SbmConfig, generate_multiplex, save_dataset

    config = SbmConfig(
        num_nodes=options.get("nodes", required=True),
        num_dims=options.get("dims", required=True),
        **options.given(num_classes="classes", p_in="p_in", p_out="p_out", rng_seed="seed"),
    )
    out = Path(options.get("out", required=True))
    dataset = generate_multiplex(config)
    save_dataset(dataset, out)
    print(
        f"wrote {config.num_dims}-dimension graph on {config.num_nodes} nodes to {out}"
    )
    return EXIT_OK


def cmd_train(options: _Options) -> int:
    from .model import export_combination_weights, export_embeddings, save_model
    from .training import train

    graph = _load_graph(options)
    hmge_config, train_config = _configs_from(options)
    out = _out_dir(options)
    result = train(graph, hmge_config, train_config, log_path=out / "train_log.csv")
    export_embeddings(result.embeddings, out / "embeddings.csv")
    if hmge_config.num_layers:
        export_combination_weights(result.params, out)
    save_model(
        out / "model.bin", hmge_config, result.params,
        identity_features=bool(options.get("identity_features")),
    )
    print(
        f"trained {len(result.loss_history)} epochs, best loss "
        f"{result.best_loss:.6f} at epoch {result.best_epoch}; outputs in {out}"
    )
    return EXIT_OK


def cmd_eval(options: _Options) -> int:
    from .evaluation import (
        EvalReport,
        evaluate_classification,
        evaluate_link_prediction,
    )

    graph = _load_graph(options)
    task = options.get("task", required=True)
    hmge_config, train_config = _configs_from(options)
    out = _out_dir(options)
    if task == "link":
        metrics = evaluate_link_prediction(
            graph, hmge_config, train_config, **options.given(ratio="ratio")
        )
    else:
        metrics = evaluate_classification(
            graph, hmge_config, train_config,
            **options.given(train_fraction="train_fraction"),
        )
    report = EvalReport(
        task=task,
        metrics=metrics,
        seed=train_config.rng_seed,
        config={"embed_size": hmge_config.embed_size, "layers": hmge_config.num_layers},
    )
    path = _write_report(out, report.to_dict())
    print(f"wrote {path}: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
    return EXIT_OK


def cmd_ablate(options: _Options) -> int:
    from .evaluation import run_ablations

    graph = _load_graph(options)
    hmge_config, train_config = _configs_from(options)
    out = _out_dir(options)
    rows = run_ablations(
        graph, hmge_config, train_config,
        **options.given(ratio="ratio", train_fraction="train_fraction"),
    )
    path = _write_report(out, {"task": "ablation", "rows": rows, "seed": train_config.rng_seed})
    for row in rows:
        print(
            f"{row['model']:>16}: auc={row['auc']:.4f} ap={row['ap']:.4f} "
            f"f1_macro={row['f1_macro']:.4f} f1_micro={row['f1_micro']:.4f}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(options: _Options) -> int:
    import dataclasses

    from .evaluation import evaluate_classification

    graph = _load_graph(options)
    sizes = options.get("embed_sizes", required=True)
    base, train_config = _configs_from(options)
    out = _out_dir(options)
    rows = []
    for m in sizes:
        config = dataclasses.replace(base, embed_size=m)
        metrics = evaluate_classification(
            graph, config, train_config, **options.given(train_fraction="train_fraction")
        )
        rows.append({"embed_size": m, **metrics})
        print(
            f"M={m}: accuracy={metrics['accuracy']:.4f} "
            f"f1_macro={metrics['f1_macro']:.4f} f1_micro={metrics['f1_micro']:.4f}"
        )
    path = _write_report(out, {"task": "sweep", "rows": rows, "seed": train_config.rng_seed})
    print(f"wrote {path}")
    return EXIT_OK


def _check_model_fits(params, graph) -> None:
    """Raise DataFormatError unless ``graph`` has the inputs ``params`` take."""
    from .model import param_leaves

    first = next(arr for name, arr, _, _ in param_leaves(params) if name == "w_0")
    num_dims, width = first.shape[:2]
    if graph.num_dims != num_dims:
        raise DataFormatError(
            f"model takes {num_dims} dimensions, dataset has {graph.num_dims}"
        )
    if graph.num_features != width:
        raise DataFormatError(
            f"model takes {width} features per node, dataset has {graph.num_features}"
        )


def cmd_export(options: _Options) -> int:
    import numpy as np

    from .model import (
        encode,
        export_combination_weights,
        export_embeddings,
        load_model,
    )
    from .multiplex import load_multiplex

    config, params, identity_features = load_model(options.get("model", required=True))
    graph = load_multiplex(options.get("data", required=True))
    if identity_features:
        graph = graph.with_features(np.eye(graph.num_nodes))
    _check_model_fits(params, graph)
    out = _out_dir(options)
    z = encode(graph, params, config).z
    if config.num_layers:
        export_combination_weights(params, out)
    export_embeddings(z, out / "embeddings.csv")
    print(f"wrote embeddings for {graph.num_nodes} nodes to {out}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
    "export": cmd_export,
}


def _print_note(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"note: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        options = _Options(namespace)
        _setup_threads(options)
        with warnings.catch_warnings():
            warnings.showwarning = _print_note
            return _COMMANDS[namespace.command](options)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output file that is a directory, say
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # mapped via the package hierarchy below
        if isinstance(exc, ConfigError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, DataFormatError):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        if isinstance(exc, NumericError):
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        raise


if __name__ == "__main__":
    sys.exit(main())
