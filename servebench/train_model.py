"""Train the FB237 HaLk model the serving benchmark answers with.

Run once from the repository root and commit the result::

    python3 servebench/train_model.py

It trains HaLk on the FB237 analogue with the benchmark harness's
``quick`` settings (scale 0.4 = 88 entities, d = 20, 150 epochs, every
seed fixed) and writes ``servebench/model/fb237_halk.npz`` in the
current :mod:`repro.ckpt` format.  The manifest records the settings and
the filtered MRR / Hits@3 of the model on the standard FB237 test
workload; ``run.py`` loads the file with ``repro.ckpt.load_checkpoint``
and re-checks those two numbers before it serves a single request.
"""

from __future__ import annotations

import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import ckpt  # noqa: E402
from repro.config import ModelConfig, TrainConfig  # noqa: E402
from repro.core import HalkModel, Trainer  # noqa: E402
from repro.kg import load_dataset  # noqa: E402
from repro.queries import build_workloads  # noqa: E402

from quality import fixed_test_workload, test_quality  # noqa: E402

MODEL_PATH = HERE / "model" / "fb237_halk.npz"
DATASET = "FB237"
SCALE = 0.4
MODEL_CONFIG = ModelConfig(embedding_dim=20, hidden_dim=40, seed=0)
TRAIN_CONFIG = TrainConfig(epochs=150, batch_size=128, num_negatives=16,
                           learning_rate=2e-3, embedding_learning_rate=2e-2,
                           seed=0)
TRAIN_QUERIES = 80
EVAL_QUERIES = 15
#: what the checkpoint's manifest must say for the loader to accept it
MODEL_EXPECT = {"dataset": DATASET, "scale": SCALE, "method": "HaLk",
                "dim": MODEL_CONFIG.embedding_dim,
                "hidden": MODEL_CONFIG.hidden_dim}


def load_splits():
    """The FB237 analogue the model is trained on and served over."""
    return load_dataset(DATASET, scale=SCALE, seed=0)


def main() -> int:
    splits = load_splits()
    bundle = build_workloads(splits, queries_per_structure=TRAIN_QUERIES,
                             eval_queries_per_structure=EVAL_QUERIES, seed=0)
    model = HalkModel(splits.train, MODEL_CONFIG)
    started = time.perf_counter()
    history = Trainer(model, bundle.train, TRAIN_CONFIG).train()
    seconds = time.perf_counter() - started
    mrr, hits3 = test_quality(model, fixed_test_workload(splits))
    meta = {**MODEL_EXPECT, "epochs": TRAIN_CONFIG.epochs,
            "train_seconds": seconds, "final_loss": history.final_loss,
            "test_mrr": mrr, "test_hits3": hits3}
    MODEL_PATH.parent.mkdir(exist_ok=True)
    ckpt.save_checkpoint(MODEL_PATH, {"model": model.state_dict()},
                         meta=meta)
    print(f"trained in {seconds:.1f} s; test MRR {mrr:.4f}, "
          f"Hits@3 {hits3:.4f}; wrote {MODEL_PATH.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
