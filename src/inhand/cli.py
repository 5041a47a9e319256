"""Command-line pipeline driver: ``synth``, ``reconstruct``, ``eval``.

``synth`` writes a manifest-indexed sequence directory, ``reconstruct``
turns a manifest into a fused mesh plus trajectory and report files, and
``eval`` runs the gamma-sweep and energy-comparison protocols to CSV.
Set ``INHAND_LOG=INFO`` (or ``DEBUG``) for progress logging.

Exit codes: 0 success, 2 usage, 3 input problem, 4 registration failure,
5 meshing failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (
    DegenerateConfigurationError,
    DegenerateMotionError,
    DivergenceError,
    EmptyInputError,
    EmptyMeshError,
    FileFormatError,
    InHandError,
    InsufficientPointsError,
    InvalidDepthError,
    ManifestError,
    MatchFileParseError,
    NoContactError,
    OpenMeshError,
    UnderConstrainedError,
)
from .fusion import euler_characteristic, is_closed
from .geometry import CameraIntrinsics, PointCloud
from .metrics import (
    compare_energies,
    energies_to_csv,
    measure_probes,
    reconstruct,
    rotation_span_deg,
    run_gamma_sweep,
    sweep_to_csv,
)
from .register import RegistrationConfig
from .synth import (
    GroundTruth,
    MotionScript,
    SyntheticObjectSpec,
    attach_detector_boxes,
    attach_feat2d,
    generate_sequence,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_REGISTRATION = 4
EXIT_MESHING = 5

# Kinect-style pinhole model used for all synthetic projections.
DEFAULT_INTRINSICS = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)

# Rotation-span agreement (min of est/truth and truth/est) below which a
# reconstruction is flagged as collapsed: the estimated trajectory either
# barely moved or thrashed far beyond the scripted motion.
SPAN_AGREEMENT_THRESHOLD = 0.3

# File name of each reconstruct output, by its manifest ``outputs`` key.
OUTPUT_NAMES = {
    "mesh": "mesh.ply",
    "trajectory": "trajectory.jsonl",
    "report": "report.json",
}

_INPUT_ERRORS = (
    ManifestError,
    FileFormatError,
    MatchFileParseError,
    DegenerateMotionError,
    EmptyInputError,
    InvalidDepthError,
    InsufficientPointsError,
)
_REGISTRATION_ERRORS = (
    DivergenceError,
    UnderConstrainedError,
    DegenerateConfigurationError,
    NoContactError,
)
_MESHING_ERRORS = (EmptyMeshError, OpenMeshError)


class _UsageError(Exception):
    """Bad command-line values detected after argparse (exit code 2)."""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# --------------------------------------------------------------------------
# synth


def _build_object(args) -> SyntheticObjectSpec:
    def need(value, flag):
        if value is None:
            raise _UsageError(f"{flag} is required for --shape {args.shape}")
        if value <= 0.0:
            raise _UsageError(f"{flag} must be positive")
        return float(value)

    if args.density is not None and args.density <= 0.0:
        raise _UsageError("--density must be positive")
    density = args.density if args.density is not None else 1.0
    if args.shape == "sphere":
        return SyntheticObjectSpec.sphere(need(args.diameter, "--diameter"), density)
    if args.shape == "bottle":
        return SyntheticObjectSpec.capsule_bottle(
            need(args.diameter, "--diameter"), need(args.height, "--height"), density
        )
    return SyntheticObjectSpec.bowling_pin(
        need(args.head_diameter, "--head-diameter"),
        need(args.body_diameter, "--body-diameter"),
        need(args.height, "--height"),
        density,
    )


def cmd_synth(args) -> int:
    obj = _build_object(args)
    if args.frames < 1:
        raise _UsageError("--frames must be at least 1")
    if args.noise < 0.0:
        raise _UsageError("--noise must be nonnegative")
    if args.hand_noise < 0.0:
        raise _UsageError("--hand-noise must be nonnegative")
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
    binary = not args.ascii
    manifest_frames = []
    for frame in frames:
        stem = out / "frames" / f"frame_{frame.frame_index:03d}"
        object_path = stem.with_name(stem.name + "_object.ply")
        hand_path = stem.with_name(stem.name + "_hand.ply")
        fileio.write_ply(object_path, frame.object_cloud, binary=binary)
        fileio.write_ply(hand_path, PointCloud(frame.hand_pose.vertices), binary=binary)
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
        registration=RegistrationConfig(),
        outputs={key: out / name for key, name in OUTPUT_NAMES.items()},
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


def _apply_overrides(config: RegistrationConfig, args) -> RegistrationConfig:
    if args.gamma_t is not None:
        if args.gamma_t < 0.0:
            raise _UsageError("--gamma-t must be nonnegative")
        config = replace(config, gamma_t=args.gamma_t)
    if args.no_contact:
        config = replace(config, use_contact=False)
    if args.use_detector:
        config = replace(config, use_detector=True)
    if args.no_icp:
        config = replace(config, use_icp=False)
    return config


def _measure_report(mesh, truth: GroundTruth) -> dict:
    """Measured, expected and absolute error per probe; ``None`` where unknown."""
    dimensions = {}
    for name, measured in measure_probes(mesh, truth.probes).items():
        expected = truth.expected.get(name)
        known = not math.isnan(measured) and expected is not None
        dimensions[name] = {
            "measured": None if math.isnan(measured) else measured,
            "expected": expected,
            "abs_error": abs(measured - expected) if known else None,
        }
    return dimensions


def cmd_reconstruct(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    config = _apply_overrides(manifest.registration, args)
    if config.use_contact and config.gamma_t > 0.0:
        handless = [f.index for f in manifest.frames if f.hand_path is None]
        if handless:
            _fail(
                f"frame {handless[0]} has no hand file; the contact term needs "
                "hand data (pass --no-contact or --gamma-t 0)"
            )
            return EXIT_INPUT
    truth = None
    if manifest.ground_truth is not None:
        truth = fileio.load_ground_truth(manifest.ground_truth)
    frames = fileio.load_frames(manifest)

    out = Path(args.manifest).resolve().parent if args.out is None else Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {key: out / name for key, name in OUTPUT_NAMES.items()}
    if args.out is None:
        outputs.update(manifest.outputs)

    result, mesh = reconstruct(
        frames,
        config,
        manifest.intrinsics,
        volume_center=manifest.volume_center,
        side_mm=manifest.volume_side_mm,
        resolution=manifest.tsdf_resolution,
        smooth_iterations=manifest.smooth_iterations,
    )
    fileio.write_ply(outputs["mesh"], mesh, binary=True)
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
            "gamma_t": config.gamma_t,
            "use_contact": config.use_contact,
            "use_detector": config.use_detector,
            "use_icp": config.use_icp,
        },
        "rotation_span_deg": span,
        "mean_sparse_rms": _nanmean(p.sparse_residual for p in result.poses),
        "mean_icp_rms": _nanmean(p.icp_residual for p in result.poses),
        "correspondence_counts": counts,
        "mesh": {
            "vertices": len(mesh.vertices),
            "triangles": len(mesh.triangles),
            "closed": is_closed(mesh),
            "euler_characteristic": euler_characteristic(mesh),
        },
    }
    if truth is not None:
        truth_span = rotation_span_deg(truth.motions)
        agreement = (
            min(span / truth_span, truth_span / span) if truth_span and span else 0.0
        )
        report["ground_truth"] = {
            "rotation_span_deg": truth_span,
            "span_agreement": agreement,
            "collapse_suspected": agreement < SPAN_AGREEMENT_THRESHOLD,
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
        raise _UsageError("nothing to do: pass --sweep-gammas and/or --compare-energies")
    manifest = fileio.load_manifest(args.manifest)
    if manifest.ground_truth is None:
        _fail("eval needs a ground_truth entry in the manifest")
        return EXIT_INPUT
    truth = fileio.load_ground_truth(manifest.ground_truth)
    if args.compare_energies and not truth.annotations:
        _fail("ground truth carries no annotated pairs for --compare-energies")
        return EXIT_INPUT
    frames = fileio.load_frames(manifest)
    out = Path(args.out) if args.out is not None else Path(args.manifest).resolve().parent
    out.mkdir(parents=True, exist_ok=True)

    if args.sweep_gammas is not None:
        text = args.sweep_gammas.strip()
        try:
            gammas = [float(g) for g in text.split(",") if g.strip() != ""]
        except ValueError:
            raise _UsageError(f"--sweep-gammas got a non-numeric entry in {text!r}")
        if not gammas:
            raise _UsageError("--sweep-gammas got an empty gamma list")
        try:
            sweep = run_gamma_sweep(
                frames,
                truth.probes,
                truth.expected,
                gammas,
                volume_center=truth.center,
                config=manifest.registration,
                intrinsics=manifest.intrinsics,
                tsdf_side_mm=manifest.volume_side_mm,
                tsdf_resolution=manifest.tsdf_resolution,
                smooth_iterations=manifest.smooth_iterations,
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        sweep_path = out / "sweep.csv"
        sweep_to_csv(sweep, sweep_path)
        print(f"gamma sweep ({len(frames)} frames) -> {sweep_path}")
        for gamma, err in zip(sweep.gammas, sweep.normalized_errors):
            print(f"  gamma {gamma:g}: normalized error {err:.4f}")

    if args.compare_energies:
        rows = compare_energies(
            frames,
            truth.annotations,
            config=manifest.registration,
            intrinsics=manifest.intrinsics,
        )
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

    synth = sub.add_parser("synth", help="generate a synthetic scan sequence")
    synth.add_argument("--shape", choices=("sphere", "bottle", "pin"), default="sphere")
    synth.add_argument("--diameter", type=float, help="sphere/bottle diameter in mm")
    synth.add_argument("--height", type=float, help="bottle/pin height in mm")
    synth.add_argument("--head-diameter", type=float, help="pin head diameter in mm")
    synth.add_argument("--body-diameter", type=float, help="pin body diameter in mm")
    synth.add_argument("--density", type=float, help="surface points per mm^2")
    synth.add_argument("--frames", type=int, default=24)
    synth.add_argument("--deg-per-frame", type=float, default=6.0)
    synth.add_argument("--noise", type=float, default=0.5, help="point noise sigma in mm")
    synth.add_argument(
        "--hand-noise",
        type=float,
        default=0.0,
        help="tracked-hand vertex noise sigma in mm (default 0: the hand is exact)",
    )
    synth.add_argument("--texture-count", type=int, default=0, help="painted dents")
    synth.add_argument("--texture-seed", type=int, default=None)
    synth.add_argument(
        "--feat2d", type=int, default=0, help="max pixel matches per frame pair"
    )
    synth.add_argument(
        "--detector-boxes", action="store_true", help="attach fingertip detector boxes"
    )
    synth.add_argument("--annotate-every", type=int, default=10)
    synth.add_argument("--volume-side", type=float, default=350.0)
    synth.add_argument("--tsdf-resolution", type=int, default=256)
    synth.add_argument("--smooth-iterations", type=int, default=3)
    synth.add_argument("--ascii", action="store_true", help="write ASCII PLY files")
    synth.add_argument("--out", required=True, help="output sequence directory")
    synth.add_argument("--seed", type=int, default=0, help="RNG seed")
    synth.set_defaults(func=cmd_synth)

    rec = sub.add_parser("reconstruct", help="register, fuse, and mesh a sequence")
    rec.add_argument("manifest", help="path to manifest.json")
    rec.add_argument("--gamma-t", type=float, default=None, help="contact weight")
    rec.add_argument("--no-contact", action="store_true", help="drop the contact term")
    rec.add_argument(
        "--use-detector", action="store_true", help="add detector-box correspondences"
    )
    rec.add_argument("--no-icp", action="store_true", help="skip ICP refinement")
    rec.add_argument("--out", default=None, help="directory for mesh/trajectory/report")
    rec.set_defaults(func=cmd_reconstruct)

    ev = sub.add_parser("eval", help="run evaluation protocols to CSV")
    ev.add_argument("manifest", help="path to manifest.json")
    ev.add_argument(
        "--sweep-gammas",
        default=None,
        help="comma-separated contact weights, e.g. 0,1,5,10,15,20",
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
    logging.basicConfig(
        level=os.environ.get("INHAND_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except _INPUT_ERRORS as exc:
        _fail(str(exc))
        return EXIT_INPUT
    except _REGISTRATION_ERRORS as exc:
        _fail(f"registration failed: {exc}")
        return EXIT_REGISTRATION
    except _MESHING_ERRORS as exc:
        _fail(f"meshing failed: {exc}")
        return EXIT_MESHING
    except ValueError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except InHandError as exc:
        _fail(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
