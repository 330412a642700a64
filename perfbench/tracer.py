"""Run one yumalab CLI invocation with layer spans recorded from outside.

Usage: python3 perfbench/tracer.py SPANS_JSON <cli arguments...>

The public functions of each module are wrapped at every module attribute
that holds them, so the calls the CLI resolves at call time go through the
wrappers; so are the value objects' `__post_init__` validators. A call
into the layer that is already the innermost open span opens no new span,
so nested calls inside one layer count once; counters count every call.
A hook whose target no longer exists is listed under `missing` in
SPANS_JSON, and the benchmark fails that invocation rather than reading
its layer as 0.
Spans are kept in memory and written to SPANS_JSON when `cli.run`
returns; the benchmark computes self times from them. Nothing under
`src/` is changed.
"""

import time

T0 = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_now = time.perf_counter_ns


class Recorder:
    """Spans as parallel lists: name id, parent index, start and end in ns."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(_now())
        self.end.append(0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self.stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span named `name`; `after(args, result)` updates counters."""
        span_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = self.stack[-1]
            if top >= 0 and self.name_of[top] == span_id:
                result = fn(*args, **kwargs)
            else:
                index = self.open(span_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "names": self.names,
            "name": self.name_of,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counters": self.counters,
            "missing": self.missing,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _size(path) -> int:
    return os.path.getsize(str(path))


def install(rec: Recorder) -> None:
    from yumalab import cli, consensus, ingest, interventions, metrics, model, sweep, synth

    modules = [cli, consensus, ingest, interventions, metrics, model, sweep, synth]
    try:
        from yumalab import _kernels
    except ImportError:
        _kernels = None
    else:
        modules.append(_kernels)

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def functions(module, names, span, after=None):
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                rec.missing.append(f"{module.__name__}.{name}")
            else:
                rebind(original, rec.wrap(span, original, after))

    def method(cls, name, span, after=None):
        original = cls.__dict__.get(name)
        if original is None:
            rec.missing.append(f"{cls.__qualname__}.{name}")
        elif isinstance(original, classmethod):
            setattr(cls, name, classmethod(rec.wrap(span, original.__func__, after)))
        else:
            setattr(cls, name, rec.wrap(span, original, after))

    def loaded(args, dataset):
        rec.count("ingest.events_read", len(dataset.events))
        rec.count("ingest.bytes_read", _size(args[0]))

    def saved(args, _):
        rec.count("ingest.events_written", len(args[0]))
        rec.count("ingest.bytes_written", _size(args[1]))

    def aggregated(args, snapshots):
        rec.count("ingest.snapshots", len(snapshots))

    def report(args, _):
        rec.count("cli.report_bytes", _size(args[0]))

    functions(ingest, ("load_events",), "ingest.load_events", loaded)
    functions(ingest, ("save_events",), "ingest.save_events", saved)
    functions(ingest, ("apply_cutoff",), "ingest.cutoff")
    functions(ingest, ("resample", "history_snapshots"), "ingest.aggregate", aggregated)
    method(ingest.Dataset, "from_events", "ingest.dataset")
    method(ingest.Dataset, "__post_init__", "ingest.dataset")

    method(model.SnapshotEvent, "__post_init__", "model.event_validate")
    method(model.SnapshotEntry, "__post_init__", "model.snapshot_validate")
    method(model.SubnetSnapshot, "__post_init__", "model.snapshot_validate")
    method(model.EmissionOutcome, "__post_init__", "model.outcome_validate")

    for module, span in ((metrics, "metrics"), (interventions, "interventions"), (sweep, "sweep")):
        public = [name for name in module.__all__
                  if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)]
        functions(module, public, span)

    functions(consensus, ("run_tempo",), "consensus.run_tempo")
    functions(consensus, ("consensus_clip",), "consensus.clip")
    functions(consensus, ("validator_bonds",), "consensus.bonds")
    functions(consensus, ("delegator_rewards",), "consensus.delegation")
    functions(synth, ("generate",), "synth.generate")
    functions(cli, ("_write_csv", "_write_json"), "cli.report_write", report)

    # The kernel runs inside consensus.clip; only its work is counted. It
    # lives in yumalab._kernels, or in consensus once that indirection goes.
    clip = getattr(_kernels, "clip_benchmarks", None) or getattr(consensus, "clip_benchmarks", None)
    if clip is None:
        rec.missing.append("clip_benchmarks")
        return

    def clip_benchmarks(weights, stakes, kappa):
        rec.count("kernels.clip_benchmarks.calls")
        rec.count("kernels.clip_benchmarks.cells", weights.shape[0] * weights.shape[1])
        return clip(weights, stakes, kappa)

    rebind(clip, clip_benchmarks)



def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    # Start-up span: interpreter imports of the CLI and its modules, then
    # the wrappers, back-dated to when this script began.
    startup = rec.open(rec.name_id("cli.import"))
    rec.start[startup] = T0
    from yumalab import cli

    install(rec)
    rec.close(startup)
    run = rec.wrap("cli", cli.run)
    code = run(cli_args)
    rec.dump(spans_path, {"exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
