"""Run one stancelab CLI command with its layers traced.

    python bench/traced.py OUT.json <stancelab arguments...>

Before the command runs, every layer function listed in LAYERS is replaced,
in every stancelab module that refers to it, by a wrapper that records a
span (id, parent id, name, start, end) and the counters the benchmark
reports. This reaches each function at the name its callers look up
(``stancelab.pipeline.extract_features``, ``stancelab.linsvm.
dual_coordinate_descent``, ``stancelab.cli.save_bundle`` ...), so the
program itself is unchanged. Spans stay in memory; when the command returns
they are written to OUT.json with the counters and the command's exit code.

Timestamps come from ``time.monotonic``, the clock the parent process uses,
so the parent can compare them with its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# Span name (= the per-layer metric it feeds) -> (module, function) pairs.
# A function appears once; calls between functions of one module that are
# not listed here count toward the listed caller's self time.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "corpus.load_s": (
        ("corpus", "load_semeval_tsv"),
        ("corpus", "load_network_profiles"),
        ("corpus", "join"),
    ),
    "features.extract_s": (("features", "extract_features"),),
    "features.space_s": (("features", "build_feature_space"),),
    "features.vectorize_s": (("features", "vectorize"),),
    "linsvm.solve_s": (
        ("linsvm", "train_ovr"),
        ("linsvm", "dual_coordinate_descent"),
    ),
    "linsvm.predict_s": (("linsvm", "predict"),),
    "linsvm.save_bundle_s": (("linsvm", "save_bundle"),),
    "linsvm.load_bundle_s": (("linsvm", "load_bundle"),),
    "pipeline.self_s": (
        ("pipeline", "train_topic_models"),
        ("pipeline", "predict_dataset"),
        ("pipeline", "run_cell"),
    ),
    "scoring.score_s": (("scoring", "score_semeval"),),
    "scoring.read_s": (("scoring", "read_predictions"),),
    "scoring.write_s": (
        ("scoring", "write_predictions"),
        ("scoring", "write_report_csv"),
        ("scoring", "write_confusion_csv"),
        ("scoring", "render_report"),
    ),
    "analysis.curves_s": (("analysis", "topn_overlap_curve"),),
    "analysis.top_features_s": (("analysis", "top_features"),),
    "analysis.overlap_s": (("analysis", "network_overlap"),),
    "analysis.consistency_s": (("analysis", "user_consistency"),),
    "analysis.write_s": (
        ("analysis", "write_overlap_csv"),
        ("analysis", "write_curves_csv"),
        ("analysis", "write_rankings_csv"),
        ("analysis", "write_consistency_csv"),
    ),
    "synth.generate_s": (("synth", "write_corpus"),),
}


class Tracer:
    """Spans and raw counters of one traced command."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = {}
        self.tweets = 0
        self.profiles = 0
        self.extracted: set[tuple[str, str]] = set()
        self.nnz = 0
        self.spaces: dict[int, object] = {}  # holding each keeps its id unique
        self.fits: list[tuple[list, object, object, int, object]] = []
        self.bundle_dirs: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, span_name: str):
        qualified = f"{fn.__module__}.{fn.__name__}"
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
                self.calls[qualified] = self.calls.get(qualified, 0) + 1
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    # Observers keep references or cheap sums only; anything that costs
    # real time (hashing rows, sizing bundles) waits for summary().

    def _observe_load_semeval_tsv(self, result, *args, **kwargs):
        self.tweets += len(result)

    def _observe_load_network_profiles(self, result, *args, **kwargs):
        self.profiles += len(result[0])

    def _observe_extract_features(self, result, instance, *args, **kwargs):
        self.extracted.add((instance.topic, instance.tweet_id))

    def _observe_vectorize(self, result, feature_set, space, *args, **kwargs):
        self.nnz += len(result.indices)
        self.spaces[id(space)] = space

    def _observe_dual_coordinate_descent(self, result, rows, y, dim, config):
        _, alpha, epochs = result
        self.fits.append((rows, y, alpha, epochs, config))

    def _observe_save_bundle(self, result, model, path, *args, **kwargs):
        self.bundle_dirs.append(str(path))

    def summary(self) -> dict:
        """Raw counters; ratios are formed by the caller."""
        n_rows = duplicate_rows = at_bound = epochs = coord_steps = 0
        nonconverged = 0
        for rows, y, alpha, fit_epochs, config in self.fits:
            upper = config.C if config.loss == "hinge" else float("inf")
            n_rows += len(rows)
            epochs += fit_epochs
            coord_steps += fit_epochs * len(rows)
            nonconverged += fit_epochs == config.max_iter
            at_bound += int(((alpha <= 0.0) | (alpha >= upper)).sum())
            seen = set()
            for idx, label in zip(rows, y):
                key = (idx.tobytes(), float(label))
                duplicate_rows += key in seen
                seen.add(key)
        bundle_bytes = sum(
            f.stat().st_size
            for d in self.bundle_dirs
            for f in Path(d).rglob("*")
            if f.is_file()
        )
        return {
            "calls": self.calls,
            "tweets": self.tweets,
            "profiles": self.profiles,
            "extracted_tweets": len(self.extracted),
            "nnz": self.nnz,
            "space_dims": sorted(space.size for space in self.spaces.values()),
            "fit_rows": n_rows,
            "fits": len(self.fits),
            "epochs": epochs,
            "coord_steps": coord_steps,
            "nonconverged_fits": nonconverged,
            "at_bound": at_bound,
            "duplicate_rows": duplicate_rows,
            "bundle_bytes": bundle_bytes,
        }


def install(tracer: Tracer) -> None:
    """Replace each layer function at every stancelab name bound to it.

    A function the program no longer has is skipped; its span and counters
    then read 0.
    """
    importlib.import_module("stancelab.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "stancelab" or name.startswith("stancelab.")]
    for span_name, targets in LAYERS.items():
        for module_name, attr in targets:
            original = getattr(sys.modules.get(f"stancelab.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from stancelab.cli import main as cli_main

    try:
        code = cli_main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.monotonic()
    sys.stdout.flush()
    record = {
        "exit_code": code,
        "end": end,
        "spans": tracer.spans,
        "counters": tracer.summary(),
    }
    Path(out_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
