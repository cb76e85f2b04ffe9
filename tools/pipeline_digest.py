"""Print the sha256 of everything one fixed-seed command-line pipeline writes.

    python tools/pipeline_digest.py > digest.txt

It runs, in a temporary directory: `gendata` (48 geometries from templates
of 4, 6 and 8 points) -> `train` (with the autoencoder, 3 alternation passes
from 2 starts) -> `reflow --rounds 2 --purify on --data --threads 2` ->
`eval` and `eval --exact` -> `sample --threads 2` (adaptive) and
`sample --solver rk4`. It prints one line per artifact, per command's
standard output and for `metrics.csv`, the last two with wall times (and
the temporary directory's name) masked.

Run it in two checkouts and diff the outputs: equal lines mean both wrote
the same bytes. OpenBLAS is pinned to one thread, since training's products
can round differently at two, and `geomflow` is imported from this
checkout's `src`, whatever is installed. It takes about 3 s on a 2-core
machine.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from geomflow import cli  # noqa: E402

SPEC = {"num_templates": 3, "atoms_per_template": [4, 6, 8], "feature_classes": 3, "seed": 0}
CONFIG = {"hidden": 16, "flow_layers": 2, "k": 2, "identity_latent": False, "epochs": 4,
          "ae_epochs": 2, "batch_size": 8, "lr": 1e-3, "omt_iters": 3, "omt_restarts": 2,
          "reflow_pairs": 32, "reflow_epochs": 1, "seed": 0}
# A wall time as the commands print it ("in 1.2s", "3.4s)").
WALL = re.compile(r"\d+\.\d+s\b")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pipeline_digest_") as tmp:
        path = Path(tmp).joinpath
        path("spec.json").write_text(json.dumps(SPEC))
        path("config.json").write_text(json.dumps(CONFIG))
        steps = [
            ("gendata", "--spec", path("spec.json"), "--count", "48", "--out", path("data.jsonl")),
            ("train", "--data", path("data.jsonl"), "--config", path("config.json"),
             "--out", path("model.ckpt"), "--loss-csv", path("loss.csv")),
            ("reflow", "--ckpt", path("model.ckpt"), "--config", path("config.json"),
             "--rounds", "2", "--purify", "on", "--data", path("data.jsonl"), "--threads", "2",
             "--out", path("reflow.ckpt"), "--pairs-out", path("pairs.bin"),
             "--metrics", path("metrics.csv")),
            ("eval", "--pairs", path("pairs.bin")),
            ("eval", "--pairs", path("pairs.bin"), "--exact"),
            ("sample", "--ckpt", path("reflow.ckpt"), "--count", "16", "--threads", "2",
             "--out", path("adaptive.jsonl"), "--metrics", path("metrics.csv")),
            ("sample", "--ckpt", path("reflow.ckpt"), "--count", "16", "--solver", "rk4",
             "--out", path("rk4.jsonl"), "--metrics", path("metrics.csv")),
        ]
        for i, argv in enumerate(steps):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([str(a) for a in argv])
            if code:
                print(f"geomflow {argv[0]} exited {code}", file=sys.stderr)
                return code
            text = WALL.sub("<wall>s", out.getvalue().replace(tmp, "<tmp>"))
            print(sha(text.encode()), f"stdout {i} {argv[0]}")
        for name in ("data.jsonl", "loss.csv", "model.ckpt", "reflow.ckpt", "pairs.bin",
                     "adaptive.jsonl", "rk4.jsonl"):
            print(sha(path(name).read_bytes()), name)
        head, *rows = path("metrics.csv").read_text().splitlines()
        wall = head.split(",").index("wall_seconds")
        masked = [head] + [",".join("<wall>" if j == wall else v
                                    for j, v in enumerate(row.split(",")))
                           for row in rows]
        print(sha("\n".join(masked).encode()), "metrics.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
