"""Command-line pipeline driver: ``synth``, ``reconstruct``, ``eval``.

``synth`` writes a manifest-indexed sequence directory, ``reconstruct``
turns a manifest into a fused mesh plus trajectory and report files, and
``eval`` runs the gamma-sweep and energy-comparison protocols to CSV.
The manifest describes the sequence and its working volume; the flags
alone configure a run (registration terms, contact weight, output
directory), and ``eval`` runs with the default registration settings.
The library logs only warnings; ``INHAND_LOG`` sets the level at which
they show (default ``WARNING``; ``ERROR`` hides them), and a value that
is no level name exits 2.

Flags are checked before anything is written; a failure exits with the
code of its error class (:mod:`inhand.errors` holds the table).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import FileFormatError, InHandError, ManifestError, UsageError
from .fusion import check_working_volume, euler_characteristic, is_closed
from .geometry import CameraIntrinsics, PointCloud
from .metrics import (
    compare_energies,
    energies_to_csv,
    measure_probes,
    reconstruct,
    rotation_span_deg,
    run_gamma_sweep,
    sweep_configs,
    sweep_to_csv,
)
from .register import RegistrationConfig
from .synth import (
    DEFAULT_CENTER,
    GroundTruth,
    MotionScript,
    SyntheticObjectSpec,
    attach_detector_boxes,
    attach_feat2d,
    generate_sequence,
)

EXIT_OK = 0

# Kinect-style pinhole model used for all synthetic projections.
DEFAULT_INTRINSICS = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)

# Rotation-span agreement (min of est/truth and truth/est) below which a
# reconstruction is flagged as collapsed: the estimated trajectory either
# barely moved or thrashed far beyond the scripted motion.  A scripted
# motion that does not turn has no span to agree with, so the report
# writes null for both fields; the per-frame pose error against truth
# (ROADMAP item 1) is what will judge such scans.
SPAN_AGREEMENT_THRESHOLD = 0.3

# File name of each reconstruct output; they go to ``--out``, or next to
# the manifest without it.
OUTPUT_NAMES = {
    "mesh": "mesh.ply",
    "trajectory": "trajectory.jsonl",
    "report": "report.json",
}

# --------------------------------------------------------------------------
# flag types: argparse checks each flag's own range and names the flag


def _flag(convert, holds, wanted: str = ""):
    """argparse type: ``convert`` the text, then require ``holds(value)``.

    A false ``holds`` means the value is not ``wanted``; a library rule used
    as ``holds`` raises ``ValueError`` itself and returns what it built.
    """

    def parse(text: str):
        try:
            value = convert(text)
            if not holds(value):
                raise ValueError(f"must be {wanted}, got {text}")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _int_at_least(low: int):
    return _flag(int, lambda v: v >= low, f">= {low}")


_count = _int_at_least(0)
_finite = _flag(float, math.isfinite, "finite")
_positive = _flag(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_nonnegative = _flag(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_gamma = _flag(float, lambda g: RegistrationConfig(gamma_t=g))
_gamma_grid = _flag(
    lambda text: [float(g) for g in text.split(",") if g.strip()], sweep_configs
)


# --------------------------------------------------------------------------
# synth


_SHAPES = {  # --shape: the SyntheticObjectSpec constructor and its dimension flags
    "sphere": (SyntheticObjectSpec.sphere, ("--diameter",)),
    "bottle": (SyntheticObjectSpec.capsule_bottle, ("--diameter", "--height")),
    "pin": (
        SyntheticObjectSpec.bowling_pin,
        ("--head-diameter", "--body-diameter", "--height"),
    ),
}


def _build_object(args) -> SyntheticObjectSpec:
    """The object the shape flags describe; :class:`UsageError` if they do not fit."""
    constructor, flags = _SHAPES[args.shape]
    values = [getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise UsageError(f"{flag} is required for --shape {args.shape}")
    try:
        return constructor(*values, args.density)
    except ValueError as exc:
        raise UsageError(f"--shape {args.shape}: {exc}") from None


def cmd_synth(args) -> int:
    obj = _build_object(args)
    try:
        check_working_volume(DEFAULT_CENTER, args.volume_side, args.tsdf_resolution)
    except ValueError as exc:
        raise UsageError(f"--volume-side with --tsdf-resolution: {exc}") from None
    motion = MotionScript.tumble(
        args.frames, args.deg_per_frame, sigma=args.noise, seed=args.seed
    )
    texture_seed = args.texture_seed if args.texture_seed is not None else args.seed
    frames, truth = generate_sequence(
        obj,
        motion,
        texture_count=args.texture_count,
        texture_seed=texture_seed,
        annotate_every=args.annotate_every,
        hand_sigma=args.hand_noise,
    )
    if args.feat2d > 0:
        frames = attach_feat2d(
            frames, truth, DEFAULT_INTRINSICS, max_matches=args.feat2d, seed=args.seed
        )
    if args.detector_boxes:
        frames = attach_detector_boxes(frames, DEFAULT_INTRINSICS, seed=args.seed)

    out = Path(args.out)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    manifest_frames = []
    for frame in frames:
        stem = out / "frames" / f"frame_{frame.frame_index:03d}"
        object_path = stem.with_name(stem.name + "_object.ply")
        hand_path = stem.with_name(stem.name + "_hand.ply")
        fileio.write_ply(object_path, frame.object_cloud)
        fileio.write_ply(hand_path, PointCloud(frame.hand_pose.vertices))
        feat2d_path = boxes_path = None
        if frame.feat2d_matches is not None:
            feat2d_path = stem.with_name(stem.name + "_feat2d.txt")
            fileio.save_feat2d(frame.feat2d_matches, feat2d_path)
        if frame.detector_boxes is not None:
            boxes_path = stem.with_name(stem.name + "_boxes.json")
            fileio.save_detector_boxes(frame.detector_boxes, boxes_path)
        manifest_frames.append(
            fileio.ManifestFrame(
                frame.frame_index, object_path, hand_path, feat2d_path, boxes_path
            )
        )

    hand_model_path = out / "hand_model.json"
    truth_path = out / "ground_truth.json"
    fileio.save_hand_model(frames[0].hand_pose, hand_model_path)
    fileio.save_ground_truth(truth, truth_path)
    manifest = fileio.SequenceManifest(
        intrinsics=DEFAULT_INTRINSICS,
        frames=tuple(manifest_frames),
        volume_center=truth.center,
        volume_side_mm=args.volume_side,
        tsdf_resolution=args.tsdf_resolution,
        smooth_iterations=args.smooth_iterations,
        hand_model=hand_model_path,
        ground_truth=truth_path,
    )
    fileio.save_manifest(manifest, out / "manifest.json")
    print(
        f"wrote {len(frames)} frames ({args.shape}, "
        f"{len(frames[0].object_cloud.points)} object points in frame 0) "
        f"to {out / 'manifest.json'}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# reconstruct


def _measure_report(mesh, truth: GroundTruth) -> dict:
    """Measured, expected and absolute error per probe; ``None`` where unmeasured."""
    dimensions = {}
    for name, measured in measure_probes(mesh, truth.probes).items():
        expected = truth.expected[name]
        known = not math.isnan(measured)
        dimensions[name] = {
            "measured": measured if known else None,
            "expected": expected,
            "abs_error": abs(measured - expected) if known else None,
        }
    return dimensions


def _require_files(args, manifest, field: str, term: str, hint: str) -> None:
    """:class:`ManifestError` naming the first frame without the ``field``
    file that the ``term`` reads, with a ``hint`` on how to leave it out."""
    if missing := [f.index for f in manifest.frames if getattr(f, field) is None]:
        raise ManifestError(
            f"{args.manifest}: frame {missing[0]} has no {field.removesuffix('_path')} "
            f"file; the {term} needs it ({hint})"
        )


def cmd_reconstruct(args) -> int:
    try:
        config = RegistrationConfig(
            gamma_t=args.gamma_t, use_detector=args.use_detector, use_icp=not args.no_icp
        )
    except ValueError as exc:
        raise UsageError(f"--use-detector with --gamma-t 0: {exc}") from None
    manifest = fileio.load_manifest(args.manifest)
    if config.contact_term_on:
        _require_files(args, manifest, "hand_path", "contact term", "pass --gamma-t 0")
    if config.use_detector:
        _require_files(args, manifest, "boxes_path", "detector term", "drop --use-detector")
    truth_path = manifest.ground_truth
    truth = None if truth_path is None else fileio.load_ground_truth(truth_path)
    frames = fileio.load_frames(manifest)

    result, mesh = reconstruct(
        frames,
        config,
        manifest.intrinsics,
        volume_center=manifest.volume_center,
        side_mm=manifest.volume_side_mm,
        resolution=manifest.tsdf_resolution,
        smooth_iterations=manifest.smooth_iterations,
    )
    out = Path(args.manifest).resolve().parent if args.out is None else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {key: out / name for key, name in OUTPUT_NAMES.items()}
    fileio.write_ply(outputs["mesh"], mesh)
    fileio.save_trajectory(result.poses, outputs["trajectory"])

    span = rotation_span_deg([p.world_from_frame for p in result.poses])
    counts: dict[str, int] = {}
    for pose in result.poses:
        for tag, n in pose.correspondence_counts.items():
            counts[tag] = counts.get(tag, 0) + n
    report = {
        "frames": len(frames),
        "registered": len(result.poses),
        "skipped": list(result.skipped),
        "config": {
            k: getattr(config, k)
            for k in ("gamma_t", "use_detector", "use_icp")
        },
        "rotation_span_deg": span,
        "mean_sparse_rms": _nanmean(p.sparse_residual for p in result.poses),
        "mean_icp_rms": _nanmean(p.icp_residual for p in result.poses),
        "correspondence_counts": counts,
        "icp": {
            "iterations": sum(p.icp_iterations for p in result.poses),
            "not_converged": sum(p.icp_converged is False for p in result.poses),
        },
        "mesh": {
            "vertices": len(mesh.vertices),
            "triangles": len(mesh.triangles),
            "closed": is_closed(mesh),
            "euler_characteristic": euler_characteristic(mesh),
        },
    }
    if truth is not None:
        truth_span = rotation_span_deg(truth.motions)
        agreement = collapsed = None
        if truth_span:
            agreement = min(span / truth_span, truth_span / span) if span else 0.0
            collapsed = agreement < SPAN_AGREEMENT_THRESHOLD
        report["ground_truth"] = {
            "rotation_span_deg": truth_span,
            "span_agreement": agreement,
            "collapse_suspected": collapsed,
        }
        report["dimensions"] = _measure_report(mesh, truth)
    fileio.save_json(outputs["report"], report)

    print(
        f"registered {len(result.poses)}/{len(frames)} frames "
        f"(skipped {len(result.skipped)}), rotation span {span:.1f} deg"
    )
    print(
        f"mesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
        f"{'closed' if report['mesh']['closed'] else 'open'}"
    )
    if "dimensions" in report:
        for name, row in report["dimensions"].items():
            measured = row["measured"]
            shown = "unmeasurable" if measured is None else f"{measured:.2f}"
            print(f"  {name}: measured {shown}, expected {row['expected']:.2f}")
    if report.get("ground_truth", {}).get("collapse_suspected"):
        print(
            "warning: rotation span disagrees with ground truth "
            f"(agreement {report['ground_truth']['span_agreement']:.2f}); "
            "reconstruction likely collapsed"
        )
    print(f"outputs: {outputs['mesh']}, {outputs['trajectory']}, {outputs['report']}")
    return EXIT_OK


def _nanmean(values) -> float | None:
    vals = [v for v in values if not math.isnan(v)]
    return float(np.mean(vals)) if vals else None


# --------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    if args.sweep_gammas is None and not args.compare_energies:
        raise UsageError("nothing to do: pass --sweep-gammas and/or --compare-energies")
    manifest = fileio.load_manifest(args.manifest)
    if manifest.ground_truth is None:
        raise ManifestError(f"{args.manifest}: eval needs a ground_truth entry")
    truth = fileio.load_ground_truth(manifest.ground_truth)
    if args.sweep_gammas is not None:
        if not truth.probes:
            raise FileFormatError(f"{manifest.ground_truth}: no probes for --sweep-gammas")
        if max(args.sweep_gammas) > 0.0:
            _require_files(args, manifest, "hand_path", "contact term", "sweep gamma 0 alone")
    if args.compare_energies:
        if not truth.annotations:
            raise FileFormatError(
                f"{manifest.ground_truth}: no annotated pairs for --compare-energies"
            )
        annotated = {i for a in truth.annotations for i in (a.frame_a, a.frame_b)}
        if absent := sorted(annotated - {f.index for f in manifest.frames}):
            raise FileFormatError(
                f"{manifest.ground_truth}: an annotation names frame {absent[0]}, "
                f"which {args.manifest} lacks"
            )
    frames = fileio.load_frames(manifest)
    out = Path(args.out) if args.out is not None else Path(args.manifest).resolve().parent
    out.mkdir(parents=True, exist_ok=True)

    if args.sweep_gammas is not None:
        sweep = run_gamma_sweep(
            frames,
            truth.probes,
            truth.expected,
            args.sweep_gammas,
            volume_center=manifest.volume_center,
            side_mm=manifest.volume_side_mm,
            resolution=manifest.tsdf_resolution,
            smooth_iterations=manifest.smooth_iterations,
            intrinsics=manifest.intrinsics,
        )
        sweep_path = out / "sweep.csv"
        sweep_to_csv(sweep, sweep_path)
        print(f"gamma sweep ({len(frames)} frames) -> {sweep_path}")
        for gamma, err in zip(sweep.gammas, sweep.normalized_errors):
            print(f"  gamma {gamma:g}: normalized error {err:.4f}")

    if args.compare_energies:
        rows = compare_energies(frames, truth.annotations, intrinsics=manifest.intrinsics)
        energies_path = out / "energies.csv"
        energies_to_csv(rows, energies_path)
        print(f"energy comparison -> {energies_path}")
        for row in rows:
            if row.available:
                print(
                    f"  {row.config:16s} mean {row.mean:.3f} mm, "
                    f"sd {row.stdev:.3f} mm over {row.pair_count} pairs"
                )
            else:
                print(f"  {row.config:16s} unavailable")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inhand",
        description="Contact-augmented registration and TSDF reconstruction "
        "for in-hand object scanning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    with_defaults = argparse.ArgumentDefaultsHelpFormatter
    synth = sub.add_parser(
        "synth", help="generate a synthetic scan sequence", formatter_class=with_defaults
    )
    add = synth.add_argument
    add("--shape", choices=tuple(_SHAPES), default="sphere")
    add("--diameter", type=_positive, help="sphere/bottle diameter in mm, > 0")
    add("--height", type=_positive, help="bottle/pin height in mm, > 0")
    add("--head-diameter", type=_positive, help="pin head diameter in mm, > 0")
    add("--body-diameter", type=_positive, help="pin body diameter in mm, > 0")
    add("--density", type=_positive, default=1.0, help="surface points per mm^2, > 0")
    add("--frames", type=_int_at_least(1), default=24, help="frame count, >= 1")
    add("--deg-per-frame", type=_finite, default=6.0, help="turn per frame in degrees")
    add("--noise", type=_nonnegative, default=0.5, help="point noise sigma in mm, >= 0")
    add("--hand-noise", type=_nonnegative, default=0.0, help="hand noise sigma, mm, >= 0")
    add("--texture-count", type=_count, default=0, help="painted dents, >= 0")
    add("--texture-seed", type=_count, help="dent RNG seed, >= 0 (None: --seed)")
    add("--feat2d", type=_count, default=0, help="max pixel matches a pair, >= 0")
    add("--detector-boxes", action="store_true", help="attach fingertip detector boxes")
    add("--annotate-every", type=_count, default=10, help="label every Nth pair; 0: none")
    add("--volume-side", type=_positive, default=350.0, help="mm, > 0, voxel <= 6 mm")
    add("--tsdf-resolution", type=_int_at_least(2), default=256, help="voxels/side, >= 2")
    add("--smooth-iterations", type=_count, default=3, help="smoothing passes, >= 0")
    add("--out", required=True, help="output sequence directory")
    add("--seed", type=_count, default=0, help="RNG seed, >= 0")
    synth.set_defaults(func=cmd_synth)

    rec = sub.add_parser("reconstruct", help="register, fuse, and mesh a sequence")
    rec.add_argument("manifest", help="path to manifest.json")
    rec.add_argument(
        "--gamma-t",
        type=_gamma,
        default=RegistrationConfig.gamma_t,
        help="contact and detector weight, finite and >= 0; 0 drops the contact term "
        f"(default {RegistrationConfig.gamma_t:g})",
    )
    rec.add_argument(
        "--use-detector", action="store_true", help="add detector-box pairs; needs --gamma-t > 0"
    )
    rec.add_argument("--no-icp", action="store_true", help="skip ICP refinement")
    rec.add_argument(
        "--out",
        default=None,
        help="directory for mesh/trajectory/report (default: the manifest's directory)",
    )
    rec.set_defaults(func=cmd_reconstruct)

    ev = sub.add_parser("eval", help="run evaluation protocols to CSV")
    ev.add_argument("manifest", help="path to manifest.json")
    ev.add_argument(
        "--sweep-gammas",
        type=_gamma_grid,
        default=None,
        help="comma-separated contact weights, each finite and >= 0, strictly "
        "increasing, e.g. 0,1,5,10,15,20",
    )
    ev.add_argument(
        "--compare-energies",
        action="store_true",
        help="score contact/detector energy configurations on annotated pairs",
    )
    ev.add_argument("--out", default=None, help="directory for CSV reports")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("INHAND_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise UsageError(f"INHAND_LOG={level!r} is not a log level name")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except InHandError as exc:
        prefix = f"{exc.stage} failed: " if exc.stage else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
