"""Traced run of one ``inhand`` command, and the per-layer metrics of its spans.

Run as a program, it wraps the public functions of each ``inhand`` module
from outside, runs the command in-process, and writes the spans as JSON:

    python3 perfbench/tracing.py SPANS.json reconstruct seq/manifest.json --out o

Every module-level name that refers to a wrapped function is replaced, in
every loaded ``inhand`` module, so the wrapper sees the call whichever
module looks the function up.  A span records its name, start, end and
parent span; spans stay in memory and are written when the command ends.
The layer of a span is the module that defines the function, and a
layer's self time is its spans' time minus the time of their child spans.
Wrapping assumes one thread, which the benchmark pins.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Layer (module of inhand) -> functions whose calls become spans.
TARGETS = {
    "cli": ("cmd_synth", "cmd_reconstruct", "cmd_eval"),
    "synth": ("generate_sequence", "attach_feat2d", "attach_detector_boxes"),
    "fileio": (
        "load_manifest",
        "load_frames",
        "load_ground_truth",
        "write_ply",
        "save_trajectory",
        "save_json",
    ),
    "features": ("match_feat3d", "detect_iss_keypoints", "_describe_all", "load_feat2d"),
    "contact": ("detect_contacts", "contact_correspondences"),
    "register": (
        "run_sequence",
        "register_pair",
        "build_correspondences",
        "detector_correspondences",
        "align_sparse",
        "refine_icp",
    ),
    "fusion": ("integrate", "extract_mesh", "laplacian_smooth", "measure_dimensions"),
    "metrics": (
        "run_gamma_sweep",
        "_measure_at_gamma",
        "compare_energies",
        "rotation_span_deg",
        "sweep_to_csv",
        "energies_to_csv",
    ),
}
LAYERS = tuple(TARGETS)
OUTPUT_WRITERS = (
    "fileio.write_ply",
    "fileio.save_trajectory",
    "fileio.save_json",
    "metrics.sweep_to_csv",
    "metrics.energies_to_csv",
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_ms_p50", "ms"), ("_ms_p90", "ms"),
                         ("_bytes", "bytes"), ("_frac", "1"), ("_yield", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def _integrate_before(args, kwargs):
    vol = args[0]
    return {
        "observed_before": int((vol.weights > 0).sum()),
        "tsdf_bytes": int(vol.tsdf.nbytes + vol.weights.nbytes),
    }


def _icp_counts(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    hist = result.rms_history
    converged = len(hist) >= 2 and abs(hist[-2] - hist[-1]) < config.icp_convergence_eps
    return {"iterations": len(hist), "converged": converged}


def _run_sequence_counts(args, kwargs, result):
    return {
        "frames": len(args[0]),
        "skipped": len(result.skipped),
        "metascan_points": len(result.metascan),
    }


# Counters recorded on the span from the call's arguments and result,
# after the span has ended; ``before`` hooks run before it starts.  Their
# cost (a pass over the TSDF weights per integration) stays out of the
# span but lands in the parent's self time and in the trace overhead.
AFTER = {
    "features.detect_iss_keypoints": lambda a, k, r: {"keypoints": len(r)},
    "features.match_feat3d": lambda a, k, r: {"matches": len(r)},
    "contact.contact_correspondences": lambda a, k, r: {"pairs": len(r)},
    "register.refine_icp": _icp_counts,
    "register.run_sequence": _run_sequence_counts,
    "fusion.integrate": lambda a, k, r: {"observed_after": int((r.weights > 0).sum())},
    "fusion.laplacian_smooth": lambda a, k, r: {"triangles": len(r.triangles)},
}
BEFORE = {"fusion.integrate": _integrate_before}


class Recorder:
    """In-memory span list for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = before(args, kwargs) if before else {}
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(extra)
            if after:
                span.update(after(args, kwargs, result))
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in every loaded inhand module; return names not found."""
    import importlib

    modules = [importlib.import_module(f"inhand.{layer}") for layer in LAYERS]
    loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "inhand"]
    missing = []
    for layer, module in zip(LAYERS, modules):
        for attr in TARGETS[layer]:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{layer}.{attr}")
                continue
            wrapper = recorder.wrap(f"{layer}.{attr}", original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    from inhand.cli import main as cli_main

    t0 = time.perf_counter()
    code = 1
    try:
        code = cli_main(command)
    finally:
        wall = time.perf_counter() - t0
        with open(spans_path, "w") as fh:
            json.dump(
                {"command": command, "exit_code": code, "in_process_s": wall,
                 "missing": missing, "spans": recorder.spans},
                fh,
            )
    return code


# --------------------------------------------------------------------------
# analysis


def self_times(spans: list[dict]) -> dict[str, float]:
    """Layer -> total span time minus the time of each span's children."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[layer] += (s["end"] - s["start"]) - child_time[s["id"]]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    """q-th decile (q in 1..9) of ``values``; the value itself for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], synth_spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command plus its traced generation."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s) -> float:
        return s["end"] - s["start"]

    def total(*names) -> float:
        return sum(dur(s) for n in names for s in by_name[n])

    builds = by_name["register.build_correspondences"]
    detects = by_name["features.detect_iss_keypoints"]
    matches = by_name["features.match_feat3d"]
    source_kps = sum(
        next((c["keypoints"] for c in children[m["id"]]
              if c["name"] == "features.detect_iss_keypoints" and "keypoints" in c), 0)
        for m in matches
    )
    contact_builds = [
        b for b in builds
        if any(c["name"] == "contact.detect_contacts" for c in children[b["id"]])
    ]
    dropped = [
        b for b in contact_builds
        if any("raised" in c for c in children[b["id"]]
               if c["name"] == "contact.detect_contacts")
    ]
    pair_solves = [
        c for p in by_name["register.register_pair"] for c in children[p["id"]]
        if c["name"] == "register.align_sparse"
    ]
    icps = [s for s in by_name["register.refine_icp"] if "iterations" in s]
    runs = [s for s in by_name["register.run_sequence"] if "frames" in s]
    integrations = [s for s in by_name["fusion.integrate"] if "observed_after" in s]
    smoothed = [s for s in by_name["fusion.laplacian_smooth"] if "triangles" in s]
    pair_ms = sorted(1000.0 * dur(s) for s in by_name["register.register_pair"])
    cells = by_name["metrics._measure_at_gamma"]
    if cells:
        cell_s = total("metrics._measure_at_gamma") / len(cells)
    else:  # reconstruct runs one register -> fuse -> mesh -> measure pass
        cell_s = total(
            "register.run_sequence",
            "fusion.integrate",
            "fusion.extract_mesh",
            "fusion.laplacian_smooth",
            "fusion.measure_dimensions",
        )

    out = {
        "fileio.load_frames_s": total("fileio.load_frames"),
        "fileio.write_outputs_s": total(*OUTPUT_WRITERS),
        "features.detect_s": total("features.detect_iss_keypoints"),
        "features.detect_calls_per_frame": _ratio(len(detects), len(builds)),
        "features.keypoints_per_frame": _ratio(
            sum(s.get("keypoints", 0) for s in detects), len(detects)
        ),
        "features.match_s": total("features.match_feat3d"),
        "features.match_yield": _ratio(sum(s.get("matches", 0) for s in matches), source_kps),
        "contact.detect_s": total("contact.detect_contacts"),
        "contact.detect_calls_per_frame": _ratio(
            len(by_name["contact.detect_contacts"]), len(builds)
        ),
        "contact.pairs_per_frame": _ratio(
            sum(s.get("pairs", 0) for s in by_name["contact.contact_correspondences"]),
            len(builds),
        ),
        "contact.dropped_frac": _ratio(len(dropped), len(contact_builds)),
        "register.build_correspondences_calls": len(builds),
        "register.pair_ms_p50": _quantile(pair_ms, 5),
        "register.pair_ms_p90": _quantile(pair_ms, 9),
        "register.sparse_solve_s": total("register.align_sparse"),
        "register.sparse_fallback_frac": _ratio(
            sum("raised" in s for s in pair_solves), len(pair_solves)
        ),
        "register.icp_s": total("register.refine_icp"),
        "register.icp_iters_mean": _ratio(sum(s["iterations"] for s in icps), len(icps)),
        "register.icp_converged_frac": _ratio(sum(s["converged"] for s in icps), len(icps)),
        "register.metascan_points": _ratio(
            sum(s["metascan_points"] for s in runs), len(runs)
        ),
        "register.skipped_frac": _ratio(
            sum(s["skipped"] for s in runs), sum(s["frames"] - 1 for s in runs)
        ),
        "fusion.integrate_s": total("fusion.integrate"),
        "fusion.voxels_updated_per_frame": _ratio(
            sum(s["observed_after"] - s["observed_before"] for s in integrations),
            len(integrations),
        ),
        "fusion.tsdf_bytes": max((s["tsdf_bytes"] for s in integrations), default=0),
        "fusion.extract_s": total("fusion.extract_mesh"),
        "fusion.smooth_s": total("fusion.laplacian_smooth"),
        "fusion.measure_s": total("fusion.measure_dimensions"),
        "fusion.mesh_triangles": _ratio(
            sum(s["triangles"] for s in smoothed), len(smoothed)
        ),
        "metrics.sweep_cell_s": cell_s,
        "synth.generate_s": sum(
            dur(s) for s in synth_spans if s["name"].startswith("synth.")
        ),
    }
    for layer, seconds in self_times(spans).items():
        if layer != "synth":  # generation is traced in its own run, above
            out[f"{layer}.self_s"] = seconds
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
