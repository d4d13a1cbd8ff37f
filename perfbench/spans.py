"""In-memory span recorder that times idsaug's layers from outside the program.

``Tracer.install`` replaces each public function listed in ``FUNCTIONS`` under
every name an idsaug module binds it to, so calls made through
``from ... import`` bindings and module globals are traced as well, and wraps
``Network.forward/backward``, ``Adam.step`` and every layer's
``forward/backward`` at class level. Each span records its name, layer group,
start, end, parent span and owner: the enclosing ``train_classifier``,
``train_san`` or ``train_scgan`` call. ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span index fields
NAME, GROUP, START, END, PARENT, OWNER, EXTRA = range(7)


def _rows_loaded(args, kwargs, result):
    return result[0].n_rows


def _rows_saved(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return dataset.n_rows


def _clf_work(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return data.n_rows, len(result[1])


def _skn_rows(args, kwargs, result):
    points = args[0] if args else kwargs["class_points"]
    return len(points), len(result)


def _filter_counts(args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    return len(candidates), len(result[0])


def _optimizer(args, kwargs, result):
    return id(args[0])


# module -> {public function: (layer group, counter or None)}
FUNCTIONS = {
    "idsaug.dataio": {
        "load_dataset": ("dataio.load", _rows_loaded),
        "save_dataset": ("dataio.save", _rows_saved),
        "stratified_split": ("dataio.split", None),
        "fit_minmax": ("dataio.normalize", None),
        "apply_minmax": ("dataio.normalize", None),
        "normalized_dataset": ("dataio.normalize", None),
        "dataset_fingerprint": ("dataio.fingerprint", None),
        "conform_labels": ("dataio.other", None),
        "map_labels": ("dataio.other", None),
        "load_label_map": ("dataio.other", None),
        "save_normalization": ("dataio.other", None),
        "load_normalization": ("dataio.other", None),
    },
    "idsaug.pipeline": {
        "train_classifier": ("pipeline.clf_train", _clf_work),
        "predict": ("pipeline.predict", None),
        "level_training_set": ("pipeline.augment", None),
        "san_training_rows": ("pipeline.augment", None),
        "train_augmentation_models": ("pipeline.augment", None),
        "synthesize_augmented": ("pipeline.augment", None),
        "build_augmented": ("pipeline.augment", None),
        "augment_ros": ("pipeline.augment", None),
        "augment_smote": ("pipeline.augment", None),
        "save_run": ("pipeline.save_run", None),
        "load_run": ("pipeline.load_run", None),
        "check_run_format": ("pipeline.load_run", None),
    },
    "idsaug.san": {
        "train_san": ("san.train", None),
        "encode": ("san.encode", None),
    },
    "idsaug.scgan": {
        "train_scgan": ("scgan.train", None),
        "synthesize_to_target": ("scgan.synth", None),
        "generate": ("scgan.synth", None),
        "filter_generated": ("scgan.synth", _filter_counts),
    },
    "idsaug.skn": {
        "skn_synthesize": ("skn.synth", _skn_rows),
        "build_neighbor_lists": ("skn.neighbor", None),
    },
    "idsaug.evalreport": {name: ("evalreport", None) for name in (
        "confusion", "per_class_metrics", "aggregate", "build_report", "compare",
        "pca2d", "write_per_class_csv", "write_aggregates_csv", "write_confusion_csv",
        "write_comparison_csv", "write_pca_csv", "render_summary")},
    "idsaug.nncore.losses": {name: ("nncore.loss", None) for name in (
        "reconstruction_loss", "contrastive_loss", "adversarial_losses",
        "discriminator_score_grads", "generator_score_grad", "cross_entropy_loss")},
    "idsaug.nncore.checkpoint": {name: ("nncore.checkpoint", None) for name in (
        "write_network", "read_network", "save_network", "load_network",
        "write_metadata", "read_metadata")},
}

# spans whose callees are attributed to them, by owner name
OWNERS = {"pipeline.train_classifier": "clf", "san.train_san": "san",
          "scgan.train_scgan": "scgan"}
LAYER_KINDS = ("dense", "batchnorm", "layernorm", "leakyrelu", "relu", "sigmoid", "softmax")
NNCORE_CALLS = {"nncore.network.forward": "forward_s", "nncore.network.backward": "backward_s",
                "nncore.adam": "adam_s"}
GROUPS = ({group for table in FUNCTIONS.values() for group, _ in table.values()}
          | set(NNCORE_CALLS) | {"cli"}
          | {f"nncore.{kind}.{meth}" for kind in LAYER_KINDS for meth in ("forward", "backward")})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.current = -1
        self.owner = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, group: str, counter=None):
        """``fn`` with every call recorded as a span named ``name``."""
        spans, clock, tracer = self.spans, time.perf_counter_ns, self
        owns = name in OWNERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            outer_owner = tracer.owner
            span = [name, group, 0, 0, parent, outer_owner, None]
            tracer.current = len(spans)
            if owns:
                tracer.owner = tracer.current
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                tracer.current = parent
                tracer.owner = outer_owner
            if counter is not None:
                span[EXTRA] = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Trace every listed function and method; idsaug must be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "idsaug" or n.startswith("idsaug."))]
        for module_name, table in FUNCTIONS.items():
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[-1]
            for fname, (group, counter) in table.items():
                original = getattr(module, fname)
                traced = self.wrap(original, f"{short}.{fname}", group, counter)
                # rebind every name callers look the function up by
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, traced)

        from idsaug.nncore import adam, layers, network
        methods = [(network.Network, "forward", "nncore.network.forward", None),
                   (network.Network, "backward", "nncore.network.backward", None),
                   (adam.Adam, "step", "nncore.adam", _optimizer)]
        for cls in vars(layers).values():
            if isinstance(cls, type) and issubclass(cls, layers.Layer) and cls.kind in LAYER_KINDS:
                for meth in ("forward", "backward"):
                    if meth in vars(cls):
                        methods.append((cls, meth, f"nncore.{cls.kind}.{meth}", None))
        for cls, meth, group, counter in methods:
            self._patch(cls, meth, self.wrap(vars(cls)[meth], f"{cls.__name__}.{meth}",
                                             group, counter))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: ``*_s`` are self times, rates use whole spans."""
        spans = self.spans
        self_s = dict.fromkeys(GROUPS, 0.0)
        for s, own in zip(spans, self.self_times_ns()):
            self_s[s[GROUP]] += own / 1e9
        span_s: dict[str, float] = defaultdict(float)
        extras: dict[str, list] = defaultdict(list)
        for s in spans:
            span_s[s[NAME]] += (s[END] - s[START]) / 1e9
            if s[EXTRA] is not None:
                extras[s[NAME]].append(s[EXTRA])

        m = {f"{group}_s": seconds for group, seconds in self_s.items()}
        m["evalreport.s"] = self_s["evalreport"]
        m["cli.other_s"] = self_s["cli"]
        m["nncore.network_s"] = (self_s["nncore.network.forward"]
                                 + self_s["nncore.network.backward"])

        clf = extras["pipeline.train_classifier"]
        m["pipeline.clf_epochs"] = sum(epochs for _, epochs in clf)
        m["pipeline.clf_rows_per_s"] = _rate(sum(rows * epochs for rows, epochs in clf),
                                             span_s["pipeline.train_classifier"])

        owner_calls: dict[str, Counter] = defaultdict(Counter)
        steps_by_owner: dict[int, Counter] = defaultdict(Counter)
        for s in spans:
            if s[GROUP] in NNCORE_CALLS and s[OWNER] >= 0:
                owner = OWNERS[spans[s[OWNER]][NAME]]
                owner_calls[owner][NNCORE_CALLS[s[GROUP]]] += (s[END] - s[START]) / 1e9
                owner_calls[owner]["calls"] += 1
                if s[GROUP] == "nncore.adam":
                    steps_by_owner[s[OWNER]][s[EXTRA]] += 1
        for owner in OWNERS.values():
            for field in ("forward_s", "backward_s", "adam_s", "calls"):
                m[f"nncore.{owner}.{field}"] = owner_calls[owner][field]

        # one training step updates each of the model's optimizers once
        for name, layer in (("san.train_san", "san"), ("scgan.train_scgan", "scgan")):
            steps = sum(max(steps_by_owner[i].values(), default=0)
                        for i, s in enumerate(spans) if s[NAME] == name)
            m[f"{layer}.steps"] = steps
            m[f"{layer}.step_ms"] = _rate(1000.0 * span_s[name], steps)

        filtered = extras["scgan.filter_generated"]
        m["scgan.candidates"] = sum(c for c, _ in filtered)
        m["scgan.accepted"] = sum(a for _, a in filtered)
        m["scgan.acceptance"] = _rate(m["scgan.accepted"], m["scgan.candidates"])

        synthesized = extras["skn.skn_synthesize"]
        m["skn.source_rows"] = sum(s for s, _ in synthesized)
        m["skn.new_rows"] = sum(n for _, n in synthesized)

        for op, name in (("load", "dataio.load_dataset"), ("save", "dataio.save_dataset")):
            m[f"dataio.{op}_rows"] = sum(extras[name])
            m[f"dataio.{op}_rows_per_s"] = _rate(sum(extras[name]), span_s[name])

        commands = [s for s in spans if s[PARENT] < 0]
        covered = sum(s[END] - s[START] for s in commands) / 1e9 - self_s["cli"]
        m["trace.coverage"] = _rate(covered, wall_s)
        return m

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON, which Perfetto opens."""
        t0 = min((s[START] for s in self.spans), default=0)
        events = []
        for s in self.spans:
            owner = OWNERS[self.spans[s[OWNER]][NAME]] if s[OWNER] >= 0 else None
            events.append({"name": s[NAME], "cat": s[GROUP], "ph": "X", "pid": 1, "tid": 1,
                           "ts": (s[START] - t0) / 1000.0, "dur": (s[END] - s[START]) / 1000.0,
                           "args": {"run": self.run_id, "owner": owner}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run": self.run_id}}


def _rate(amount: float, per: float) -> float:
    return amount / per if per else 0.0
