"""Spans around the calls into each layer of pitchkit, recorded from outside.

`Tracer.install` replaces a layer's public functions with timing wrappers at
every name their callers look them up by (a module attribute, or the name a
sibling module imported from it), so the program itself is unchanged. Spans
(name, start, end, parent) stay in memory and are written out when the run
ends. A wrapped name that no longer exists is reported as absent.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

# (c_out, c_in) of each conv layer -> layer index
CONV_LAYERS = {(8, 1): 0, (16, 8): 1, (32, 16): 2, (64, 32): 3, (1, 64): 4}
N_CONV = len(CONV_LAYERS)


def _conv_layer(w):
    return CONV_LAYERS.get(tuple(getattr(w, "shape", ())[:2]), "x")


def _conv_fwd_macs(x, w, *rest):
    """Multiply-accumulates of a same-padded 5x5 conv, computed from shapes."""
    b, t, f, c_in = x.shape
    return b * t * f * w.shape[0] * c_in * w.shape[2] * w.shape[3]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []         # [name, start, end, parent index]
        self.stack = []
        self.macs = defaultdict(int)
        self.skipped = 0
        self.peak_alloc = 0
        self.max_frames = 0
        self.absent = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _set(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owners, attr, name, namer=None, on_call=None):
        """Wrap `attr` wherever it appears among `owners` (modules/classes)."""
        found = [o for o in owners if hasattr(o, attr)]
        if not found:
            self.absent.append(name)
            return
        for owner in found:
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, **kwargs):
                if not self.active:
                    return _fn(*args, **kwargs)
                label = namer(*args) if namer else name
                if on_call:
                    on_call(label, *args)
                self._open(label)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self._close()
            self._set(owner, attr, wrapper)

    def count_skips(self, owners, attr, skip_exc):
        """Count `skip_exc` raised out of `attr`, whether or not tracing."""
        for owner in [o for o in owners if hasattr(o, attr)]:
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, **kwargs):
                try:
                    return _fn(*args, **kwargs)
                except skip_exc:
                    self.skipped += 1
                    raise
            self._set(owner, attr, wrapper)

    def wrap_forward(self, model):
        """model.forward, with tracemalloc's peak over the call and its frames."""
        if not hasattr(model, "forward"):
            self.absent.append("model.forward")
            return
        fn = model.forward

        def forward(p, spec, *args, **kwargs):
            if not self.active:
                return fn(p, spec, *args, **kwargs)
            values = getattr(spec, "values", spec)
            self.max_frames = max(self.max_frames, len(values))
            own = not tracemalloc.is_tracing()
            if own:
                tracemalloc.start()
            self._open("model.forward")
            try:
                return fn(p, spec, *args, **kwargs)
            finally:
                self._close()
                if own:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        self._set(model, "forward", forward)

    def install(self, pk_modules):
        m = pk_modules
        audio_io, dsp, model, pipeline = m["audio_io"], m["dsp"], m["model"], m["pipeline"]
        baseline, train, augment = m["baseline"], m["train"], m["augment"]
        decode, metrics, losses = m["decode"], m["metrics"], m["losses"]
        for attr in ("read_wav", "write_contour_csv", "read_contour_csv"):
            self.wrap([audio_io], attr, f"audio_io.{attr}")
        self.wrap([audio_io, pipeline, baseline], "resample_linear", "audio_io.resample_linear")
        self.wrap([dsp, pipeline], "spectrogram", "dsp.spectrogram")
        self.wrap([dsp, train], "rfft_radix2", "dsp.rfft_radix2")
        self.wrap([pipeline], "analyze", "pipeline.analyze")
        self.wrap_forward(model)
        self.wrap([model], "forward_batch", "model.forward_batch")
        self.wrap([model], "backward_batch", "model.backward_batch")
        self.wrap([model], "_conv_forward", "model.conv.fwd",
                  namer=lambda x, w, *r: f"model.conv{_conv_layer(w)}.fwd",
                  on_call=lambda label, *a: self.macs.__setitem__(
                      label, self.macs[label] + _conv_fwd_macs(*a)))
        self.wrap([model], "_conv_backward", "model.conv.bwd",
                  namer=lambda x, w, *r: f"model.conv{_conv_layer(w)}.bwd")
        self.wrap([model], "_bn_forward", "model.bn.fwd")
        self.wrap([model], "_bn_backward", "model.bn.bwd")
        self.wrap([decode, pipeline], "decode_contour", "decode.decode_contour")
        self.wrap([metrics], "evaluate", "metrics.evaluate")
        self.wrap([baseline], "acf_contour", "baseline.acf_contour")
        self.wrap([train], "extract_segment", "train.extract_segment")
        self.wrap([augment, train], "augment", "augment.augment")
        self.wrap([train], "batch_spectrogram", "train.batch_spectrogram")
        self.wrap([losses, train], "loss_total", "losses.loss_total")
        if hasattr(train, "Adam"):
            self.wrap([train.Adam], "step", "train.adam_step")
        else:
            self.absent.append("train.adam_step")

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> (summed duration in s, calls)."""
        out = defaultdict(lambda: [0.0, 0])
        for name, start, end, _ in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        return out

    def per_layer(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics: times and counts per traced round; a metric
        whose wrapped function is absent from the program is left out."""
        tot = self.totals()

        def ms(name):
            return 1e3 * tot[name][0] / rounds if name in tot else 0.0
        rows = []  # (metric, wrapped name it needs, value, unit)
        for n in ("audio_io.read_wav", "audio_io.write_contour_csv",
                  "audio_io.read_contour_csv", "audio_io.resample_linear",
                  "dsp.spectrogram", "dsp.rfft_radix2", "pipeline.analyze",
                  "model.forward", "decode.decode_contour", "metrics.evaluate",
                  "baseline.acf_contour", "train.extract_segment", "augment.augment",
                  "train.batch_spectrogram", "model.forward_batch",
                  "losses.loss_total", "model.backward_batch", "train.adam_step"):
            rows.append((f"{n}.ms", n, ms(n), "ms"))
        for i in range(N_CONV):
            fwd = f"model.conv{i}.fwd"
            secs = tot[fwd][0] if fwd in tot else 0.0
            rows += [(f"{fwd}_ms", "model.conv.fwd", ms(fwd), "ms"),
                     (f"{fwd}_gmac_per_s", "model.conv.fwd",
                      self.macs[fwd] / secs / 1e9 if secs else 0.0, "GMAC/s"),
                     (f"model.conv{i}.bwd_ms", "model.conv.bwd",
                      ms(f"model.conv{i}.bwd"), "ms")]
        rows += [
            ("model.bn.fwd_ms", "model.bn.fwd", ms("model.bn.fwd"), "ms"),
            ("model.bn.bwd_ms", "model.bn.bwd", ms("model.bn.bwd"), "ms"),
            ("model.forward.peak_alloc_mb", "model.forward", self.peak_alloc / 2 ** 20, "MB"),
            ("model.frames", "model.forward", float(self.max_frames), "count"),
            ("train.steps", "train.adam_step",
             tot["train.adam_step"][1] / rounds if "train.adam_step" in tot else 0.0, "count"),
            ("train.examples_skipped", "train.extract_segment", self.skipped / rounds, "count"),
            ("trace.overhead_s", None, overhead_s, "s"),
        ]
        return {metric: {"value": value, "unit": unit}
                for metric, needs, value, unit in rows if needs not in self.absent}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans]}, fh)
