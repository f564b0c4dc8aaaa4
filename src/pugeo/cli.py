"""Command-line interface tying the pipeline together.

Subcommands: ``dataset build``, ``train``, ``upsample``, ``eval`` and
``inspect frames``.  Machine-readable output (JSON, TSV) goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 2 usage or input error,
3 numerical failure.  Every subcommand is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import FormatError, TrainingDiverged
from .geometry import MIN_NEIGHBORS, frame_stats
from .io import PointCloud, _write_rows, _xyz_blocks, read_mesh, read_xyz, write_xyz
from .losses import LossWeights
from .metrics import report_metrics, surface_compare
from .model import PUGeoConfig, PUGeoNet, load_model, save_model
from .sampling import _OVERSAMPLE, patch_count
from .trainer import TrainConfig, TrainExample, build_dataset, train
from .upsample import draw_candidates, upsample_cloud

MESH_EXTENSIONS = (".obj", ".ply")
ANALYTIC_FACTOR = 4
FACTOR_HELP = (f"default {ANALYTIC_FACTOR} with --method analytic; the checkpoint's factor, "
               f"which it must match when given, with --method model")
#: largest |coordinate| an input may hold.  Within it every product the P2F
#: kernel forms stays finite in float64: a dot product of two coordinate
#: differences is at most 12 * COORD_LIMIT**2, a barycentric term (the
#: difference of two products of those) at most 288 * COORD_LIMIT**4 =
#: 2.9e306, and the sum of three such terms at most 8.6e306
COORD_LIMIT = 1e76


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pugeo` argument parser, built once per process and shared; do not modify it.

    Parsing keeps no state between calls: each parse_args starts from a new
    namespace and the defaults, none of them mutable.
    """
    parser = argparse.ArgumentParser(prog="pugeo",
                                     description="Point cloud upsampling pipeline")
    parser.add_argument("--seed", type=int, default=42, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="dataset construction")
    dataset_sub = p_dataset.add_subparsers(dest="dataset_command", required=True)
    p_build = dataset_sub.add_parser("build", help="sample meshes into training patches")
    p_build.add_argument("--mesh-dir", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--points", type=int, default=5000, help="sparse points per mesh")
    p_build.add_argument("--factor", type=int, default=4)
    p_build.add_argument("--patch-size", type=int, default=256)
    p_build.add_argument("--coverage", type=float, default=3.0)
    p_build.add_argument("--noise-sigma", type=float, default=0.0,
                         help="Gaussian noise on sparse inputs, unit-cube units")
    p_build.add_argument("--random-patches", action="store_true",
                         help="random patch seeds instead of farthest point sampling")

    p_train = sub.add_parser("train", help="train the upsampling model")
    p_train.add_argument("--data", required=True, help="manifest path or dataset dir")
    p_train.add_argument("--out", required=True, help="final checkpoint path")
    p_train.add_argument("--epochs", type=int, default=800)
    p_train.add_argument("--batch", type=int, default=8)
    p_train.add_argument("--lr", type=float, default=0.001)
    p_train.add_argument("--checkpoint-every", type=int, default=50)
    p_train.add_argument("--checkpoint-dir", default=None)
    p_train.add_argument("--k-feature", type=int, default=8,
                         help="neighbors for edge features")
    p_train.add_argument("--no-augment", action="store_true")
    p_train.add_argument("--no-recalibration", action="store_true")
    p_train.add_argument("--no-learned-sampling", action="store_true")
    p_train.add_argument("--no-linear-transform", action="store_true")
    p_train.add_argument("--no-coarse-to-fine", action="store_true")
    p_train.add_argument("--no-normal-prediction", action="store_true")
    p_train.add_argument("--mean-normal-loss", action="store_true",
                         help="mean instead of summed normal losses")
    p_train.add_argument("--alpha", type=float, default=100.0)
    p_train.add_argument("--beta", type=float, default=1.0)
    p_train.add_argument("--gamma", type=float, default=1.0)

    p_up = sub.add_parser("upsample", help="upsample a point cloud")
    p_up.add_argument("--input", required=True)
    p_up.add_argument("--output", required=True)
    p_up.add_argument("--factor", type=int, default=None, help=FACTOR_HELP)
    p_up.add_argument("--method", choices=("analytic", "model"), default="analytic")
    p_up.add_argument("--model", default=None)
    p_up.add_argument("--k", type=int, default=16)
    p_up.add_argument("--patch-size", type=int, default=None,
                      help="must match the model's patch size when given; analytic ignores it")
    p_up.add_argument("--coverage", type=float, default=3.0, help="candidates per output point")

    p_eval = sub.add_parser("eval", help="evaluate an upsampled cloud")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt-dense", required=True)
    p_eval.add_argument("--gt-mesh", required=True)
    p_eval.add_argument("--recon-mesh", default=None)
    p_eval.add_argument("--recon-samples", type=int, default=200_000)
    p_eval.add_argument("--factor", type=int, default=None)

    p_inspect = sub.add_parser("inspect", help="diagnostics")
    inspect_sub = p_inspect.add_subparsers(dest="inspect_command", required=True)
    p_frames = inspect_sub.add_parser("frames", help="tangent frame and displacement stats")
    p_frames.add_argument("--input", required=True)
    p_frames.add_argument("--method", choices=("analytic", "model"), default="analytic")
    p_frames.add_argument("--model", default=None)
    p_frames.add_argument("--k", type=int, default=16)
    p_frames.add_argument("--factor", type=int, default=None, help=FACTOR_HELP)
    p_frames.add_argument("--coverage", type=float, default=3.0)

    return parser


#: (flag, lowest value, whether the lowest is excluded) per command, "" for the global
#: options; floats must be finite
RANGES = {
    "": (("--seed", 0, False),),
    "dataset": (("--coverage", 0, True), ("--points", 1, False), ("--factor", 1, False),
                ("--patch-size", 1, False), ("--noise-sigma", 0, False)),
    "train": (("--batch", 1, False), ("--k-feature", 1, False), ("--checkpoint-every", 1, False),
              ("--epochs", 0, False), ("--lr", 0, True), ("--alpha", 0, False),
              ("--beta", 0, False), ("--gamma", 0, False)),
    "upsample": (("--coverage", 0, True), ("--factor", 1, False)),
    "inspect": (("--coverage", 0, True), ("--factor", 1, False)),
    "eval": (("--factor", 1, False), ("--recon-samples", 1, False)),
}


def _fail(message: str, code: int = 2) -> int:
    print(message, file=sys.stderr)
    return code


def _check_range(path: str, points: np.ndarray, record: str = "row") -> None:
    """ValueError unless the `points` read from `path` can be measured against each other."""
    beyond = np.abs(points) > COORD_LIMIT
    if beyond.any():
        row, col = divmod(int(np.argmax(beyond)), 3)
        raise ValueError(f"{path}: {record} {row + 1}: coordinate {float(points[row, col])!r} "
                         f"exceeds {COORD_LIMIT:.4g} in magnitude, past which distances can "
                         f"overflow float64")


def _read_input(path: str, method: str, factor: int | None, k: int, coverage: float,
                model_path: str | None, patch_size: int | None = None):
    """(cloud, R, checkpoint, candidates per point) of `upsample` and `inspect frames`.

    --method analytic checks --k and draws ceil(coverage*R) per point; --method
    model loads the --model checkpoint, which draws patches.  ValueError names
    the bad file or flag.
    """
    if model_path is not None and method != "model":
        raise ValueError(f"--model is read only with --method model, got --method {method}")
    cloud = read_xyz(path)
    if len(cloud) == 0:
        raise ValueError(f"{path}: no points")
    _check_range(path, cloud.points)
    if method == "model":
        if not model_path:
            raise ValueError("--method model requires --model CHECKPOINT")
        model = load_model(model_path)
        for flag, given, want in (("--factor", factor, model.config.factor),
                                  ("--patch-size", patch_size, model.config.patch_size)):
            if given not in (None, want):
                raise ValueError(f"{flag} {given} does not match checkpoint "
                                 f"{flag[2:].replace('-', ' ')} {want}")
        if len(cloud) < model.config.patch_size:
            raise ValueError(f"{path}: need at least {model.config.patch_size} points for the "
                             f"checkpoint's patch size, got {len(cloud)}")
        return cloud, model.config.factor, model, None
    if k < MIN_NEIGHBORS:
        raise ValueError(f"--k must be >= {MIN_NEIGHBORS}, got {k}")
    if len(cloud) < k + 1:
        raise ValueError(f"{path}: need at least k+1={k + 1} points for --k {k}, "
                         f"got {len(cloud)}")
    factor = ANALYTIC_FACTOR if factor is None else factor
    if coverage * factor == math.inf:
        raise ValueError(f"--coverage {coverage} times --factor {factor} overflows "
                         f"the candidates per input point")
    return cloud, factor, None, math.ceil(coverage * factor)


def _in_memory(what: str, call):
    """call(); a MemoryError (numpy refusing to allocate) becomes a ValueError naming `what`."""
    try:
        return call()
    except MemoryError:
        raise ValueError(f"{what}: out of memory") from None


def _check_size(what: str, count: int) -> None:
    """ValueError naming `what` unless one numpy array can hold `count` float64 3-vectors."""
    if count * 24 > np.iinfo(np.intp).max:
        raise ValueError(f"{what}: more than numpy can hold in one array")


def _check_darts(flags: str, samples: int) -> None:
    """ValueError naming `flags` unless Poisson sampling `samples` points can size its darts."""
    darts = samples * _OVERSAMPLE
    _check_size(f"{flags}: {darts} Poisson candidates", darts)


def _draw(cloud: PointCloud, per_point: int | None, coverage: float, call):
    """call(), drawing per_point candidates per point, or patches; ValueError names --coverage."""
    if per_point is None:
        return call()
    candidates = per_point * len(cloud)
    too_many = (f"--coverage {coverage} asks for {candidates} candidates, "
                f"{per_point} per input point")
    _check_size(too_many, candidates)
    return _in_memory(too_many, call)


def _warn(points: int, uncovered: int, degenerate_frames: int, degenerate_fits: int) -> None:
    """The stderr warnings about one draw's counts."""
    if uncovered:
        print(f"warning: {uncovered} of {points} input points are in no patch",
              file=sys.stderr)
    if degenerate_frames or degenerate_fits:
        print(f"warning: {degenerate_frames} degenerate frames and {degenerate_fits} "
              f"degenerate curvature fits in {points} input points; those points were "
              f"upsampled on a flat disk", file=sys.stderr)


def _check_out(flag: str, path: str) -> None:
    """ValueError naming `flag` unless `path` is no directory and its parent directory exists."""
    if not path:
        raise ValueError(f"{flag} must name a file, got ''")
    if os.path.isdir(path):
        raise ValueError(f"{flag} {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")


def _check_out_dir(flag: str, path: str) -> None:
    """ValueError naming `flag` unless os.makedirs can make `path`.

    The nearest of `path` and its parents that exists must be a directory.
    """
    if not path:
        raise ValueError(f"{flag} must name a directory, got ''")
    existing = path
    while existing and not os.path.exists(existing):  # '' once a relative path runs out
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValueError(f"{flag} {path}: {existing} is not a directory")


def cmd_dataset_build(args) -> int:
    _check_out_dir("--out", args.out)
    if args.patch_size > args.points:
        return _fail(f"--patch-size {args.patch_size} exceeds --points {args.points}")
    _check_darts(f"--points {args.points} and --factor {args.factor}", args.points * args.factor)
    mesh_paths = sorted(p for p in os.listdir(args.mesh_dir)
                        if p.lower().endswith(MESH_EXTENSIONS))
    if not mesh_paths:
        return _fail(f"no meshes found in {args.mesh_dir}")
    paths = [os.path.join(args.mesh_dir, p) for p in mesh_paths]
    meshes = [read_mesh(path) for path in paths]
    examples = _in_memory(f"--points {args.points} and --factor {args.factor}", lambda: (
        build_dataset(meshes, args.points, args.factor, args.patch_size, seed=args.seed,
                      coverage=args.coverage, noise_sigma=args.noise_sigma,
                      random_patches=args.random_patches, names=paths)))
    os.makedirs(args.out, exist_ok=True)
    # build_dataset cuts per_mesh examples from each mesh in turn; each sampled normal,
    # held by about --coverage patches, is formatted once, one cloud at a time
    per_mesh = patch_count(args.points, args.patch_size, args.coverage)
    for start in range(0, len(examples), per_mesh):
        group = examples[start:start + per_mesh]
        for kind, parts in (
                ("sparse", [(e.sparse_points, e.sparse_normals, e.sparse_rows) for e in group]),
                ("dense", [(e.dense_points, e.dense_normals, e.dense_rows) for e in group])):
            cloud_normals = np.zeros((1 + max(int(rows.max()) for _, _, rows in parts), 3))
            for _, normals, rows in parts:
                cloud_normals[rows] = normals  # a row in no patch stays zero and is read by none
            text = "".join(_xyz_blocks(cloud_normals)).splitlines()
            for i, (points, _, rows) in enumerate(parts, start):
                _write_rows(os.path.join(args.out, f"patch_{i:04d}_{kind}.xyz"), points,
                            [text[r] for r in rows.tolist()])
    patches = [{"sparse": f"patch_{i:04d}_sparse.xyz", "dense": f"patch_{i:04d}_dense.xyz",
                "seed_index": example.seed_index} for i, example in enumerate(examples)]
    manifest = {
        "meshes": mesh_paths,
        "patches": patches,
        "config": {"points": args.points, "factor": args.factor,
                   "patch_size": args.patch_size, "coverage": args.coverage,
                   "noise_sigma": args.noise_sigma, "seed": args.seed,
                   "random_patches": bool(args.random_patches)},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(json.dumps({"patches": len(patches), "out": args.out}, sort_keys=True))
    return 0


def _check_manifest(manifest, path) -> None:
    """Raise FormatError unless `manifest` has the shape `dataset build` writes."""
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    if not isinstance(manifest.get("config"), dict):
        raise FormatError(f"{path}: manifest needs a 'config' object")
    patches = manifest.get("patches")
    if not isinstance(patches, list):
        raise FormatError(f"{path}: manifest needs a 'patches' list")
    if not patches:
        raise FormatError(f"{path}: manifest lists no patches")
    for i, entry in enumerate(patches):
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(key), str) for key in ("sparse", "dense"))
                and type(entry.get("seed_index")) is int and entry["seed_index"] >= 0):
            raise FormatError(f"{path}: patches[{i}] needs string 'sparse' and 'dense' "
                              f"and an integer 'seed_index' of at least 0")


def _read_manifest(data_path):
    """(manifest path, manifest) of a dataset directory or manifest file."""
    manifest_path = data_path
    if os.path.isdir(data_path):
        manifest_path = os.path.join(data_path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise FormatError(f"{manifest_path}: {exc}") from None
    _check_manifest(manifest, manifest_path)
    return manifest_path, manifest


def _read_patches(manifest_path, patches, config: PUGeoConfig) -> list[TrainExample]:
    base = os.path.dirname(manifest_path)
    n, factor = config.patch_size, config.factor
    examples = []
    for entry in patches:
        sparse_path = os.path.join(base, entry["sparse"])
        dense_path = os.path.join(base, entry["dense"])
        sparse, dense = read_xyz(sparse_path), read_xyz(dense_path)
        for path, cloud, rows in ((sparse_path, sparse, n), (dense_path, dense, factor * n)):
            if cloud.normals is None:
                raise FormatError(f"{path}: training patches must carry normals (6 columns)")
            if len(cloud) != rows:
                raise FormatError(f"{path}: {len(cloud)} points, but {manifest_path} gives "
                                  f"patch size {n} and factor {factor}: {rows} expected")
        examples.append(TrainExample(sparse_points=sparse.points,
                                     sparse_normals=sparse.normals,
                                     dense_points=dense.points,
                                     dense_normals=dense.normals,
                                     seed_index=int(entry["seed_index"])))
    return examples


def cmd_train(args) -> int:
    _check_out("--out", args.out)
    if args.checkpoint_dir:
        _check_out_dir("--checkpoint-dir", args.checkpoint_dir)
    manifest_path, manifest = _read_manifest(args.data)
    try:  # the manifest's R and N meet the rule a checkpoint's config meets
        config = PUGeoConfig(factor=manifest["config"].get("factor"),
                             patch_size=manifest["config"].get("patch_size"), k=args.k_feature,
                             recalibration=not args.no_recalibration,
                             learned_sampling=not args.no_learned_sampling,
                             linear_transform=not args.no_linear_transform,
                             coarse_to_fine=not args.no_coarse_to_fine,
                             predict_normals=not args.no_normal_prediction)
    except ValueError as exc:
        return _fail(f"{manifest_path}: {exc}")
    dataset = _read_patches(manifest_path, manifest["patches"], config)
    model = PUGeoNet(config, seed=args.seed)
    weights = LossWeights(args.alpha, args.beta, args.gamma)
    train_config = TrainConfig(batch_size=args.batch, epochs=args.epochs, lr=args.lr,
                               seed=args.seed, weights=weights,
                               augment=not args.no_augment,
                               checkpoint_every=args.checkpoint_every,
                               normal_reduction="mean" if args.mean_normal_loss else "sum")
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
    train(train_config, dataset, model, log_stream=sys.stdout,
          checkpoint_dir=args.checkpoint_dir)
    save_model(model, args.out)
    return 0


def cmd_upsample(args) -> int:
    _check_out("--output", args.output)
    cloud, factor, model, per_point = _read_input(args.input, args.method, args.factor, args.k,
                                                  args.coverage, args.model, args.patch_size)
    # fusion keeps R*M of the candidates; a model's patches hold R per point they cover
    if per_point is not None and per_point < factor:
        return _fail(f"--coverage {args.coverage} draws fewer than --factor {factor} "
                     f"candidates per input point")
    if model is not None:
        n, m = model.config.patch_size, len(cloud)
        if (cut := patch_count(m, n, args.coverage)) * n < m:
            return _fail(f"--coverage {args.coverage} cuts {cut} patches of {n} points, "
                         f"{cut * n} in all, fewer than the {m} input points")
    counts = {}
    result = _draw(cloud, per_point, args.coverage, lambda: upsample_cloud(
        cloud, factor, model=model, k=args.k, coverage=args.coverage, counts=counts))
    if counts["degenerate_frames"] == counts["points"]:
        return _fail(f"numerical failure: all {counts['points']} input points have "
                     f"degenerate frames ({counts['degenerate_fits']} degenerate curvature "
                     f"fits); no output written", code=3)
    write_xyz(result, args.output)
    _warn(**counts)
    print(json.dumps({"points": len(result), "output": args.output}, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    _check_darts(f"--recon-samples {args.recon_samples}", args.recon_samples)
    pred = read_xyz(args.pred)
    gt_dense = read_xyz(args.gt_dense)
    gt_mesh = read_mesh(args.gt_mesh)
    recon = read_mesh(args.recon_mesh) if args.recon_mesh else None
    for path, cloud in ((args.pred, pred), (args.gt_dense, gt_dense)):
        if len(cloud) == 0:
            return _fail(f"{path}: no points")
    for path, mesh in ((args.gt_mesh, gt_mesh), (args.recon_mesh, recon)):
        if mesh is not None and len(mesh.triangles) == 0:
            return _fail(f"{path}: mesh has no triangles")
    checked = [(args.pred, pred.points, "row"), (args.gt_dense, gt_dense.points, "row"),
               (args.gt_mesh, gt_mesh.vertices, "vertex")]
    if recon is not None:
        checked.append((args.recon_mesh, recon.vertices, "vertex"))
    for path, points, record in checked:
        _check_range(path, points, record)
    report = report_metrics(pred, gt_dense, gt_mesh, factor=args.factor,
                            inputs={"pred": args.pred, "gt_dense": args.gt_dense,
                                    "gt_mesh": args.gt_mesh})
    if recon is not None:
        cd_s, hd_s, jsd_s = _in_memory(f"--recon-samples {args.recon_samples}", lambda: (
            surface_compare(recon, gt_mesh, n=args.recon_samples, seed=args.seed,
                            names=(args.recon_mesh, args.gt_mesh))))
        report.surface = {"cd#": cd_s, "hd#": hd_s, "jsd#": jsd_s}
        report.inputs["recon_mesh"] = args.recon_mesh
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_inspect_frames(args) -> int:
    cloud, factor, model, per_point = _read_input(args.input, args.method, args.factor, args.k,
                                                  args.coverage, args.model)
    drawn = _draw(cloud, per_point, args.coverage, lambda: draw_candidates(
        cloud, factor, model=model, k=args.k, coverage=args.coverage))
    _warn(**drawn.metadata)
    sys.stdout.write(frame_stats(drawn.frames, drawn.deltas).to_tsv())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, low, excluded in RANGES[""] + RANGES[args.command]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not (low < value < math.inf or value == low and not excluded):
            finite = "finite and " if isinstance(value, float) else ""
            return _fail(f"{flag} must be {finite}{'>' if excluded else '>='} {low}, got {value}")
    try:
        return {"dataset": cmd_dataset_build, "train": cmd_train, "upsample": cmd_upsample,
                "eval": cmd_eval, "inspect": cmd_inspect_frames}[args.command](args)
    except TrainingDiverged as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
