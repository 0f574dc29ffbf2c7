"""Golden values for two small synthesized corpora, checked on every Python
and numpy the suite runs on.

test_dataset.py pins the corpus bytes by sha256. This module pins what the
pipeline computes from them; golden_synth_seed42.json was recorded once, so
a failure here means the numbers moved, not that the file is stale:
- each glyph's Otsu threshold, exactly;
- each feature row, with and without L2 normalization, to 1e-12, from the
  stacked and the one-glyph call (stored as float.hex, so a mismatch shows
  the exact bits);
- the sign of every pair decision of a model trained on the train half.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from glyphspect import dataset, features, imaging, svm

_GOLDEN = json.loads(
    Path(__file__).with_name("golden_synth_seed42.json").read_text(encoding="utf-8")
)
_PARAMS = {
    "clean-32": dataset.SynthParams(count=3, seed=42),
    "synth-defaults-32": dataset.SynthParams(count=3, seed=42, flips=0.02, max_shift=2),
}


@pytest.fixture(scope="module", params=list(_PARAMS))
def corpus(request, tmp_path_factory):
    """(golden values, samples, masks, thresholds) of one corpus at n = 32."""
    manifest = dataset.write_corpus(
        dataset.synth_generate(dataset.builtin_templates(), _PARAMS[request.param]),
        tmp_path_factory.mktemp(request.param),
    )
    samples = dataset.load_manifest(manifest)
    golden = _GOLDEN[request.param]
    assert [s.source_id for s in samples] == golden["source_ids"]
    binaries, cuts = zip(*(imaging.binarize_otsu(s.image) for s in samples))
    masks = np.stack(
        [imaging.resize_to_square(imaging.crop_to_bbox(b), 32).pixels for b in binaries]
    )
    return golden, samples, masks, cuts


def _rows(golden, normalize):
    key = "features_l2" if normalize else "features_raw"
    return np.array([[float.fromhex(v) for v in row] for row in golden[key]])


def test_otsu_thresholds_are_exact(corpus):
    golden, _, _, cuts = corpus
    assert list(cuts) == golden["thresholds"]


@pytest.mark.parametrize("normalize", [False, True])
def test_feature_rows_agree_to_1e_12(corpus, normalize):
    golden, _, masks, _ = corpus
    rows = features.feature_rows(masks, 16, normalize)
    np.testing.assert_allclose(rows, _rows(golden, normalize), rtol=1e-12, atol=1e-12)
    # predict's one-glyph call
    one = [features.extract_features(imaging.BinaryImage(32, 32, mask), 16, normalize).values
           for mask in masks]
    np.testing.assert_allclose(one, _rows(golden, normalize), rtol=1e-12, atol=1e-12)


def test_decision_signs_are_stable(corpus):
    golden, samples, masks, _ = corpus
    rows = features.feature_rows(masks, 16, True)
    labels = [s.label for s in samples]
    train, _ = dataset.split_even(samples, 42)
    train_ids = {s.source_id for s in train}
    ix = [i for i, s in enumerate(samples) if s.source_id in train_ids]
    pm = svm.train_pairwise(
        rows[ix].tolist(), [labels[i] for i in ix], svm.KernelParams(gamma=2.0, c=10.0),
        42, pairs=dataset.builtin_registry().pairs,
        meta=svm.ModelMeta(n=32, m=16, seed=42, normalize=True),
    )
    signs = {}
    for mdl in pm.models:
        pair_rows = [i for i, label in enumerate(labels) if label in (mdl.pos_class, mdl.neg_class)]
        values = svm.decisions(mdl, rows[pair_rows])
        signs[f"{mdl.pos_class}/{mdl.neg_class}"] = [1 if v > 0 else -1 for v in values]
    assert signs == golden["decision_signs"]
