"""Command line front door: convert, optimize, calibrate, quantize, detect,
eval, bench, dataset and the end-to-end pipeline.

`build_parser` declares every option once: its type, choices and default.
An INI config file (`--config`) sets defaults for them, one section per
subcommand (`dataset-merge` and `dataset-anchors` for the dataset tools), keyed
by the option's dest name (`pass_names`, `ignore_eval`, `calib_dir`, ...). Config
values are converted and checked like flags; list inputs (`-i`, `--coco`,
`--visdrone`) are command-line only. Precedence: command-line flag > config
file > JETFORGE_SEED (for `--seed`) > declared default. Exit codes: 0 success,
1 validation/diagnostic failure or a malformed cfg, JSON artifact or image, 2
I/O or usage errors, a bad config value or unknown config key included.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, artifacts, bench, data, detect, evaluation, executor
from . import frontend, passes, quant, tensorio
from . import graph as graphlib

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

IMAGE_EXTENSIONS = (".ppm", ".pgm", ".f32", ".raw", ".bin", ".tensor")


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


# output locations, then parsed entries that are not options of the subcommand
_NOT_ECHOED = ("output", "out_dir", "command", "dataset_command", "config", "func")


def _tool_meta(args) -> dict:
    """Version + echo of the subcommand's options for output files. Output
    locations and list inputs are dropped and input paths reduced to
    basenames so reruns with the same inputs produce byte-identical artifacts
    wherever they land."""
    echo = {}
    for key, value in vars(args).items():
        if key in _NOT_ECHOED or isinstance(value, list):
            continue
        if isinstance(value, str) and (os.sep in value or value.endswith((
                ".cfg", ".weights", ".uir", ".json", ".jsonl", ".csv"))):
            value = os.path.basename(value)
        echo[key] = value
    return {"tool": f"jetforge {__version__}", "config": echo}


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Makes the subcommand's section of the --config file the defaults of
    its parser, each value converted and checked like the flag's own."""
    _require_file(args.config, "config file")
    names = [args.command] + ([args.dataset_command] if args.command == "dataset" else [])
    section = "-".join(names)
    ini = configparser.ConfigParser()
    try:
        ini.read(args.config)
        items = ini.items(section) if ini.has_section(section) else []
    except configparser.Error as e:
        raise CliError(f"config file {args.config}: {e}") from e
    for name in names:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    options = {a.dest: a for a in parser._actions if a.option_strings and a.nargs is None}
    defaults = {}
    for key, raw in items:
        action = options.get(key)
        if action is None:
            raise CliError(f"[{section}] {key} is not an option of {' '.join(names)}; "
                           f"valid keys: {', '.join(options)}")
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            raise CliError(f"[{section}] {key}: invalid {action.type.__name__} value: "
                           f"{raw!r}") from None
        if action.choices is not None and value not in action.choices:
            raise CliError(f"[{section}] {key}: invalid choice {raw!r} "
                           f"(choose from {', '.join(action.choices)})")
        defaults[key] = value
    parser.set_defaults(**defaults)


def image_size(text: str) -> tuple[int, int]:
    """'WxH' -> (w, h), both positive; ValueError otherwise."""
    w, h = map(int, text.lower().split("x"))
    if w < 1 or h < 1:
        raise ValueError(text)
    return w, h


def positive_int(text: str) -> int:
    """An integer >= 1; ValueError otherwise."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def non_negative_int(text: str) -> int:
    """An integer >= 0, a seed or a warmup count; ValueError otherwise."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def unit_interval(text: str) -> float:
    """A number in [0, 1], a threshold on a confidence or an IoU; ValueError
    otherwise (NaN included)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(text)
    return value


def _require_quantized(graph: graphlib.Graph, mode) -> None:
    if mode == executor.I8 and graph.qparams is None:
        raise CliError("i8 mode needs a quantized container (run quantize first)",
                       code=EXIT_INVALID)


def _require_file(path, what: str):
    if not path or not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    return path


def _load_model(path) -> graphlib.Graph:
    _require_file(path, "model container")
    return graphlib.load_container(path)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _list_images(directory) -> list[str]:
    _require_file(directory, "image directory")
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(IMAGE_EXTENSIONS))
    if not names:
        raise CliError(f"no images (ppm/pgm/raw) in {directory}")
    return [os.path.join(directory, n) for n in names]


def _load_image(path, graph: graphlib.Graph) -> np.ndarray:
    """An image or raw tensor file as h,w,c floats with `graph`'s input channels."""
    _require_file(path, "image")
    x = tensorio.load_input(path, channels=graph.input_shape.c)
    if x.shape[0] != 1:
        raise CliError(f"{path}: raw tensor with n={x.shape[0]}, expected one image (n=1)",
                       code=EXIT_INVALID)
    if x.shape[1] != graph.input_shape.c:
        raise CliError(f"{path}: input with c={x.shape[1]} channels, the model takes "
                       f"c={graph.input_shape.c}", code=EXIT_INVALID)
    return x[0].transpose(1, 2, 0)


# --------------------------------------------------------------------------
# stages: the subcommands and the pipeline run the same code
# --------------------------------------------------------------------------

def _convert(cfg_path, weights_path) -> graphlib.Graph:
    _require_file(cfg_path, "cfg file")
    _require_file(weights_path, "weights file")
    with open(cfg_path, "r", encoding="utf-8") as f:
        graph = frontend.parse_cfg(f.read())
    with open(weights_path, "rb") as f:
        return frontend.load_weights(f.read(), graph)


def _calibrate(graph: graphlib.Graph, images_dir, cfg: quant.CalibrationConfig,
               path, tool_meta: dict) -> dict:
    """Ranges for `graph` from the images in `images_dir`, letterboxed to its
    input, saved to `path` with the images used, bin count and seed."""
    shape = graph.input_shape
    tensors = [detect.letterbox(_load_image(p, graph), shape.w, shape.h)[0]
               for p in _list_images(images_dir)]
    qparams = quant.calibrate_graph(graph, tensors, cfg)
    quant.save_ranges(path, qparams, {
        **tool_meta, "images_used": min(len(tensors), cfg.image_count),
        "bin_count": cfg.bin_count, "seed": cfg.seed})
    return qparams


def _quantize(graph: graphlib.Graph, qparams: dict, path, tool_meta: dict) -> graphlib.Graph:
    """A copy of `graph` carrying `qparams`, which must hold a range for the
    input and every node output, saved to `path`."""
    missing = [t for t in [graph.input_id] + [n.output for n in graph.nodes] if t not in qparams]
    if missing:
        raise CliError(f"ranges file misses tensors: {', '.join(missing[:8])}",
                       code=EXIT_INVALID)
    out = graph.copy()
    out.qparams = qparams
    graphlib.save_container(out, path, tool_meta)
    return out


def _detect(graph: graphlib.Graph, images: dict[str, str], mode, conf, nms,
            path, tool_meta: dict) -> dict[str, list[dict]]:
    """Detections per name of `images` ({name: file}), written to `path` if given."""
    per_image = {name: detect.detect_image(graph, _load_image(p, graph), mode=mode,
                                           conf_threshold=conf, nms_iou=nms)
                 for name, p in images.items()}
    if path:
        detect.write_detections_jsonl(path, per_image, tool_meta)
    return per_image


def _evaluate(dets_path, manifest: data.Manifest, path, tool_meta: dict,
              iou=evaluation.DEFAULT_IOU_THRESH, apply_ignore=True) -> evaluation.EvalReport:
    """Scores a detections file against `manifest`, saved to `path` if given."""
    report = evaluation.evaluate(detect.read_detections_jsonl(dets_path), manifest,
                                 iou_thresh=iou, apply_ignore=apply_ignore)
    if path:
        evaluation.save_report(path, report, tool_meta)
    return report


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_convert(args) -> int:
    if not args.output:
        raise CliError("convert needs -o/--output")
    graph = _convert(args.cfg, args.weights)
    graphlib.save_container(graph, args.output, _tool_meta(args))
    stats = frontend.model_stats(graph)
    print(f"wrote {args.output}")
    print(f"nodes: {sum(stats.node_counts.values())} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(stats.node_counts.items()))})")
    for act, count in sorted(stats.activation_counts.items()):
        print(f"activations[{act}]: {count}")
    print(f"parameters: {stats.parameter_count}")
    print(f"conv MACs: {stats.total_macs}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    graph = _load_model(args.model)
    names = [p.strip() for p in args.pass_names.split(",") if p.strip()]
    graph, reports = passes.apply_passes(graph, names)
    if args.output:
        # save_container refuses an invalid graph and lists every diagnostic
        graphlib.save_container(graph, args.output, _tool_meta(args))
        print(f"wrote {args.output}")
    elif diags := graphlib.validate(graph):
        for d in diags:
            print(f"invalid after passes: {d}", file=sys.stderr)
        return EXIT_INVALID
    if args.report:
        artifacts.write_json(args.report, {"meta": _tool_meta(args),
                                           "reports": [r.to_dict() for r in reports]})
    for r in reports:
        print(f"pass {r.name}: nodes {r.nodes_before} -> {r.nodes_after}, "
              f"mac delta {r.mac_delta}")
        for w in r.warnings:
            print(f"WARNING: {w}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if not args.output:
        raise CliError("calibrate needs -o/--output")
    graph = _load_model(args.model)
    cfg = quant.CalibrationConfig(image_count=args.count, seed=args.seed,
                                  bin_count=args.bins, levels=args.levels)
    qparams = _calibrate(graph, args.images, cfg, args.output, _tool_meta(args))
    print(f"wrote {args.output} ({len(qparams)} tensor ranges)")
    return EXIT_OK


def cmd_quantize(args) -> int:
    if not args.output:
        raise CliError("quantize needs -o/--output")
    graph = _load_model(args.model)
    _require_file(args.ranges, "ranges file")
    qparams, _meta = quant.load_ranges(args.ranges)
    _quantize(graph, qparams, args.output, _tool_meta(args))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_detect(args) -> int:
    graph = _load_model(args.model)
    _require_quantized(graph, args.mode)
    per_image = _detect(graph, {os.path.basename(p): p for p in args.images}, args.mode,
                        args.conf, args.nms, args.output, _tool_meta(args))
    if args.output:
        print(f"wrote {args.output}")
    else:
        for image, dets in per_image.items():
            for d in dets:
                print(json.dumps({"image": image, **d}, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_file(args.dets, "detections file")
    _require_file(args.manifest, "manifest")
    report = _evaluate(args.dets, data.load_manifest(args.manifest), args.output,
                       _tool_meta(args), args.iou, args.ignore_eval == "on")
    print(report.table())
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_bench(args) -> int:
    graph = _load_model(args.model)
    _require_quantized(graph, args.mode)
    stats = bench.run_bench(graph, args.mode, iters=args.iters,
                            warmup=args.warmup, variant=args.variant)
    if args.output:
        bench.write_csv(args.output, [stats], _tool_meta(args))
        print(f"wrote {args.output}")
    print(f"{stats.variant}/{stats.mode}: median {stats.median_ns / 1e6:.3f} ms "
          f"(p5 {stats.p5_ns / 1e6:.3f}, p95 {stats.p95_ns / 1e6:.3f}), "
          f"nodes {stats.nodes}, macs {stats.macs}")
    return EXIT_OK


def cmd_dataset_merge(args) -> int:
    lists = []
    for path in args.coco:
        _require_file(path, "coco json")
        lists.append(data.ingest_coco(path))
    for directory in args.visdrone:
        _require_file(directory, "visdrone annotation dir")
        lists.append(data.ingest_visdrone(
            directory, images_dir=args.visdrone_images,
            default_size=args.default_size, categories_path=args.category_map))
    if not lists:
        raise CliError("dataset merge needs --coco and/or --visdrone inputs")
    manifest = data.merge(lists)
    data.save_manifest(args.output, manifest, _tool_meta(args))
    print(f"wrote {args.output}")
    print(json.dumps(manifest.summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_dataset_anchors(args) -> int:
    _require_file(args.manifest, "manifest")
    manifest = data.load_manifest(args.manifest)
    boxes = data.anchor_boxes_from_manifest(manifest, args.net_w, args.net_h)
    result = data.kmeans_anchors(boxes, args.k, seed=args.seed)
    if args.output:
        artifacts.write_json(args.output, {
            "meta": _tool_meta(args),
            "anchors": [[round(float(w), 4), round(float(h), 4)] for w, h in result.anchors],
            "mean_iou": result.mean_iou,
            "iterations": result.iterations,
        })
        print(f"wrote {args.output}")
    print(f"mean IoU: {result.mean_iou:.4f} over {len(boxes)} boxes")
    for w, h in result.anchors:
        print(f"  {w:.1f} x {h:.1f}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    out_dir = args.out_dir
    if not out_dir:
        raise CliError("pipeline needs --out-dir")
    os.makedirs(out_dir, exist_ok=True)
    meta = _tool_meta(args)
    produced = []

    def out(name):
        produced.append(os.path.join(out_dir, name))
        return produced[-1]

    stage = "convert"
    try:
        graph = _convert(args.cfg, args.weights)
        graphlib.save_container(graph, out("model.uir"), meta)

        stage = "optimize"
        optimized, reports = passes.apply_passes(
            graph, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
        graphlib.save_container(optimized, out("model_opt.uir"), meta)

        stage = "calibrate"
        _require_file(args.calib_dir, "calibration directory")
        cal_cfg = quant.CalibrationConfig(image_count=args.count, seed=args.seed)
        qparams = _calibrate(optimized, args.calib_dir, cal_cfg, out("ranges.json"), meta)

        stage = "quantize"
        quantized = _quantize(optimized, qparams, out("model_i8.uir"), meta)

        stage = "bench"
        iters, warmup = args.iters, args.warmup
        rows = [
            bench.run_bench(graph, executor.F32, iters, warmup, variant="baseline"),
            bench.run_bench(optimized, executor.F32, iters, warmup, variant="optimized"),
            bench.run_bench(optimized, executor.F16, iters, warmup, variant="optimized"),
            bench.run_bench(quantized, executor.I8, iters, warmup, variant="optimized"),
        ]
        bench.write_csv(out("bench.csv"), rows, meta)

        stage = "eval"
        if args.eval_manifest:
            if graph.metadata.class_names != data.CLASS_NAMES:
                raise CliError(f"eval scores the classes {data.CLASS_NAMES}, "
                               f"the model has {graph.metadata.class_names}", code=EXIT_INVALID)
            _require_file(args.eval_manifest, "eval manifest")
            manifest = data.load_manifest(args.eval_manifest)
            images_dir = args.eval_images or os.path.dirname(args.eval_manifest)
            images = {rec.image: os.path.join(images_dir, rec.image) for rec in manifest.records}
            for mode, model in ((executor.F32, graph), (executor.I8, quantized)):
                dets_path = out(f"dets_{mode}.jsonl")
                _detect(model, images, mode, detect.EVAL_CONF_THRESHOLD, detect.DEFAULT_NMS_IOU,
                        dets_path, meta)
                report = _evaluate(dets_path, manifest, out(f"eval_{mode}.json"), meta)
                print(f"eval[{mode}] mAP@0.5 = {report.map50:.4f}")

        artifacts.write_json(os.path.join(out_dir, "pipeline_manifest.json"), {
            "meta": meta,
            "files": {os.path.basename(p): _sha256(p) for p in produced
                      if os.path.basename(p) != "bench.csv"},
            "timings": ["bench.csv"],  # latencies differ from run to run, so they are not hashed
            "pass_reports": [r.to_dict() for r in reports],
        })
        print(f"pipeline complete: {len(produced) + 1} artifacts in {out_dir}")
        return EXIT_OK
    except CliError as e:
        raise CliError(f"pipeline aborted at stage '{stage}': {e}", code=e.code) from e
    except Exception as e:
        raise CliError(f"pipeline aborted at stage '{stage}': {e}",
                       code=EXIT_INVALID) from e


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetforge",
        description="Darknet detector optimization pipeline at desk scale")
    parser.add_argument("--version", action="version", version=f"jetforge {__version__}")
    parser.add_argument("--config", help="INI config file ([section] per subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = os.environ.get("JETFORGE_SEED", 0)  # argparse converts a string with the type

    p = sub.add_parser("convert", help="cfg + weights -> model container")
    p.add_argument("--cfg")
    p.add_argument("--weights")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("optimize", help="apply rewrite passes")
    p.add_argument("-m", "--model")
    p.add_argument("--passes", dest="pass_names", default="fuse-conv-bn",
                   help="comma list: fuse-conv-bn,decompose-leaky,fold-scale,relu-swap")
    p.add_argument("-o", "--output")
    p.add_argument("--report", help="write pass reports as JSON")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("calibrate", help="collect histograms and entropy-calibrate ranges")
    p.add_argument("-m", "--model")
    p.add_argument("--images", help="directory of calibration images")
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--bins", type=positive_int, default=2048)
    p.add_argument("--levels", type=positive_int, default=256)
    p.add_argument("--seed", type=non_negative_int, default=seed)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("quantize", help="attach calibrated ranges to a container")
    p.add_argument("-m", "--model")
    p.add_argument("--ranges")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("detect", help="run detection on images")
    p.add_argument("-m", "--model")
    p.add_argument("-i", "--images", nargs="+", required=True)
    p.add_argument("--mode", choices=executor.MODES, default=executor.F32)
    p.add_argument("--conf", type=unit_interval, default=detect.DEMO_CONF_THRESHOLD)
    p.add_argument("--nms", type=unit_interval, default=detect.DEFAULT_NMS_IOU)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detections against a manifest")
    p.add_argument("--dets")
    p.add_argument("--manifest")
    p.add_argument("--iou", type=unit_interval, default=evaluation.DEFAULT_IOU_THRESH)
    p.add_argument("--ignore-eval", dest="ignore_eval", choices=("on", "off"), default="on")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency microbenchmark")
    p.add_argument("-m", "--model")
    p.add_argument("--mode", choices=executor.MODES, default=executor.F32)
    p.add_argument("--iters", type=positive_int, default=bench.DEFAULT_ITERS)
    p.add_argument("--warmup", type=non_negative_int, default=bench.DEFAULT_WARMUP)
    p.add_argument("--variant", default="model")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dataset", help="dataset tooling")
    dsub = p.add_subparsers(dest="dataset_command", required=True)

    dm = dsub.add_parser("merge", help="ingest + merge COCO/Visdrone annotations")
    dm.add_argument("--coco", nargs="*", default=[])
    dm.add_argument("--visdrone", nargs="*", default=[])
    dm.add_argument("--visdrone-images", dest="visdrone_images")
    dm.add_argument("--category-map", dest="category_map")
    dm.add_argument("--default-size", dest="default_size", type=image_size, metavar="WxH",
                    help="size of images without files")
    dm.add_argument("-o", "--output", required=True)
    dm.set_defaults(func=cmd_dataset_merge)

    da = dsub.add_parser("anchors", help="recluster anchors over a manifest")
    da.add_argument("--manifest")
    da.add_argument("-k", type=positive_int, default=9)
    da.add_argument("--net-w", dest="net_w", type=int, default=608)
    da.add_argument("--net-h", dest="net_h", type=int, default=352)
    da.add_argument("--seed", type=non_negative_int, default=seed)
    da.add_argument("-o", "--output")
    da.set_defaults(func=cmd_dataset_anchors)

    p = sub.add_parser("pipeline", help="convert -> optimize -> calibrate -> quantize -> bench -> eval")
    p.add_argument("--cfg")
    p.add_argument("--weights")
    p.add_argument("--calib-dir", dest="calib_dir")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--eval-manifest", dest="eval_manifest")
    p.add_argument("--eval-images", dest="eval_images")
    p.add_argument("--count", type=positive_int, default=200)
    p.add_argument("--iters", type=positive_int, default=5)
    p.add_argument("--warmup", type=non_negative_int, default=1)
    p.add_argument("--seed", type=non_negative_int, default=seed)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (artifacts.ArtifactError, frontend.FrontendError, graphlib.GraphError,
            passes.PassError, quant.QuantError, data.DataError, evaluation.EvalError,
            detect.DetectError, bench.BenchError, executor.ExecutionError,
            tensorio.ImageFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
