"""Train the checkpoint fixtures that train-fusion and decode-beam4 start from.

    python3 perfbench/make_fixtures.py

Runs ``train.run_recipe`` with the criterion-6 recipe (about ten minutes
on one core), keeps the stage-1 and stage-2 models without optimizer
state, prints their sha256 for ``recipe.FIXTURE_SHA256``, and scores the
stage-2 model on the first 100 test utterances at beam 4, audio+visual.
"""

from __future__ import annotations

import os
import sys
import tempfile

import bootstrap

bootstrap.pin_blas_to_one_thread()
bootstrap.add_source_path()

import recipe  # noqa: E402
from mmasr.data import gen_corpus  # noqa: E402
from mmasr.metrics import EditCounts, align_edit, wer  # noqa: E402
from mmasr.train import (decode_utterance, load_checkpoint, run_recipe,  # noqa: E402
                         save_checkpoint)

N_SCORED = 100


def main():
    _, splits = gen_corpus(recipe.corpus_config())
    model_cfg = recipe.model_config(recipe.corpus_config())
    os.makedirs(recipe.FIXTURE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=recipe.FIXTURE_DIR) as work:
        run_recipe(model_cfg, splits, recipe.stage1_config(),
                   recipe.stage2_config(), work, model_seed=recipe.MODEL_SEED)
        for name in (recipe.STAGE1, recipe.STAGE2):
            # Re-save without optimizer state: the workloads need weights only.
            model = load_checkpoint(os.path.join(work, name))[0]
            save_checkpoint(os.path.join(recipe.FIXTURE_DIR, name), model)
    for name in (recipe.STAGE1, recipe.STAGE2):
        path = os.path.join(recipe.FIXTURE_DIR, name)
        print(f"{name}: sha256 {recipe.sha256_of(path)}, {os.path.getsize(path)} bytes")
    model = load_checkpoint(os.path.join(recipe.FIXTURE_DIR, recipe.STAGE2))[0]
    total = EditCounts(0, 0, 0, 0)
    for utt in splits["test"][:N_SCORED]:
        total = total + align_edit(utt.ref, decode_utterance(model, utt, True, beam=4).tokens)[0]
    print(f"stage-2 WER on the first {N_SCORED} test utterances, beam 4, "
          f"audio+visual: {wer(total):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
