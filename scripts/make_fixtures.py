#!/usr/bin/env python3
"""Regenerate everything a desk run needs: the tiny detector's and yolov3's
cfg text from their generators, the tiny detector's darknet weights,
calibration images and a labeled evaluation set.

    python scripts/make_fixtures.py --out-dir runs/fixtures
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from jetforge import data, fixtures, frontend, tensorio  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/fixtures")
    parser.add_argument("--calib-count", type=int, default=200)
    parser.add_argument("--eval-count", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    cfg_path = os.path.join(args.out_dir, "tiny.cfg")
    with open(cfg_path, "w") as f:
        f.write(fixtures.tiny_cfg() + "\n")
    yolo_path = os.path.join(args.out_dir, "yolov3_608x352.cfg")
    with open(yolo_path, "w") as f:
        f.write(fixtures.yolov3_cfg() + "\n")

    model = fixtures.build_tiny_detector()
    weights_path = os.path.join(args.out_dir, "tiny.weights")
    with open(weights_path, "wb") as f:
        f.write(frontend.save_weights(model))

    calib_dir = os.path.join(args.out_dir, "calib")
    os.makedirs(calib_dir, exist_ok=True)
    for i, tensor in enumerate(fixtures.calibration_images(args.calib_count,
                                                           seed=args.seed + 1)):
        tensorio.save_image(os.path.join(calib_dir, f"cal_{i:04d}.ppm"),
                            tensor[0].transpose(1, 2, 0))

    eval_dir = os.path.join(args.out_dir, "eval")
    manifest = fixtures.write_scene_dataset(eval_dir, args.eval_count,
                                            seed=args.seed + 7)
    manifest_path = os.path.join(eval_dir, "manifest.jsonl")
    data.save_manifest(manifest_path, manifest, {"generator": "make_fixtures"})

    print(json.dumps({
        "cfg": cfg_path, "yolov3_cfg": yolo_path, "weights": weights_path,
        "calib_dir": calib_dir, "eval_manifest": manifest_path,
        "eval_summary": manifest.summary,
    }, indent=2))


if __name__ == "__main__":
    main()
