"""Run one `protouq` CLI command with every layer's public functions traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...

The program's source is not touched: after import, each module-level
function of the layers below is replaced by a wrapper in its own module and
in every module that imported it by name (`from .x import f`), then
`protouq.cli.run(argv)` runs the command.  Spans are kept in memory and
written to SPANS_JSON when the command ends.  Each span is
[name, start, end, parent index or -1, command id, work counts].
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

LAYERS = ("fileio", "synth", "embed", "train", "evidence", "metrics", "rerank", "cli")

# Private functions traced as well, with the span name they report under.
PRIVATE = {
    ("train", "_batch_gradients"): "train._batch_gradients",
    ("cli", "_write_csv"): "cli.write_csv",
}
# Methods of classes whose layer cost lives inside them.
METHODS = {("embed", "PairSet"): ("texts_of", "visions_of", "check_against")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _similarity_work(args, kwargs, result):
    n_v, n_t = result.values.shape
    d = _arg(args, kwargs, 0, "vis").d
    return {
        "bytes": 8 * (n_v * d + n_t * d + n_v * n_t),
        "gflop": 2.0 * n_v * n_t * d / 1e9,
    }


# Work done by one call, computed from argument and result shapes.
WORK = {
    "embed.similarity_matrix": _similarity_work,
    "rerank.apply_rerank": lambda a, k, r: {"bytes": 2 * r.values.nbytes},
    "fileio.read_embeddings": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "metrics.retrieval_ranks": lambda a, k, r: {"queries": int(r.size)},
    # Which matrix object was ranked in which direction, to find repeats.
    "metrics.evaluate_retrieval": lambda a, k, r: {
        "ranked": [id(_arg(a, k, 0, "m")), _arg(a, k, 2, "direction")]
    },
    "evidence.uncertainty_scores": lambda a, k, r: {"instances": int(r.size)},
    "metrics.removal_curve": lambda a, k, r: {"points": len(r.points)},
}


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.command_id, {}]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"protouq.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                    continue
                name = PRIVATE.get((layer, attr))
                if name is None and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                if name is not None:
                    wrapped[value] = self.wrap(name, value)
        # Rebind every module-level reference, so names imported with
        # `from .x import f` are traced where they are called.
        for module in (*modules.values(), sys.modules["protouq"]):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, command_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(command_id)
    tracer.install()
    try:
        return sys.modules["protouq.cli"].run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
