import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect import evaluation, svm
from glyphspect.svm import (
    ConvergenceError,
    DegenerateTrainingError,
    KernelParams,
    ModelFormatError,
    ModelMeta,
    PairwiseModel,
    SvmModel,
    TrainingSet,
    decision,
    load_model,
    predict_multiclass,
    predict_pair,
    rbf_kernel,
    save_model,
    train_pairwise,
    train_smo,
    vote,
)


def stub_model(pos, neg, sign, dim=1, gamma=1.0, c=10.0):
    """One-support-vector machine whose decision sign is forced by the bias."""
    return SvmModel(
        support_x=((0.0,) * dim,),
        support_y=(1,),
        alpha=(1e-3,),
        bias=1.0 if sign >= 0 else -1.0,
        gamma=gamma,
        dim=dim,
        pos_class=pos,
        neg_class=neg,
        c=c,
    )


def separable_pair_model(seed=0, c=100.0):
    data = TrainingSet(((0.0,), (1.0,)), (-1, 1))
    return train_smo(data, KernelParams(gamma=1.0, c=c), seed)


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        x = (0.3, -2.0, 5.5)
        assert rbf_kernel(x, x, 3.7) == 1.0

    def test_unit_distance(self):
        assert rbf_kernel((0.0,), (1.0,), 0.5) == pytest.approx(
            0.60653066, abs=1e-8
        )

    def test_three_four_five(self):
        assert rbf_kernel((0.0, 0.0), (3.0, 4.0), 0.01) == pytest.approx(
            0.77880078, abs=1e-8
        )

    def test_symmetry_and_range(self):
        rng = random.Random(1)
        for _ in range(30):
            d = rng.randint(1, 6)
            x = tuple(rng.uniform(-4, 4) for _ in range(d))
            y = tuple(rng.uniform(-4, 4) for _ in range(d))
            g = rng.uniform(0.01, 5.0)
            k = rbf_kernel(x, y, g)
            assert k == rbf_kernel(y, x, g)
            assert 0.0 < k <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            rbf_kernel((1.0,), (1.0, 2.0), 1.0)

    def test_gram_is_positive_semidefinite(self):
        rng = random.Random(2)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(10)]
        gram = np.array(
            [[rbf_kernel(a, b, 0.8) for b in pts] for a in pts]
        )
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


class TestTrainingSet:
    def test_rejects_single_class(self):
        with pytest.raises(DegenerateTrainingError, match="degenerate"):
            TrainingSet(((0.0,), (1.0,)), (1, 1))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            TrainingSet(((0.0,), (1.0,)), (0, 1))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="dimensionality"):
            TrainingSet(((0.0,), (1.0, 2.0)), (-1, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TrainingSet(((0.0,),), (-1, 1))


class TestTrainSmo:
    def test_separable_pair(self):
        model = train_smo(
            TrainingSet(((0.0,), (1.0,)), (-1, 1)),
            KernelParams(gamma=1.0, c=100.0),
            0,
        )
        assert decision(model, (0.0,)) < 0 < decision(model, (1.0,))
        assert predict_pair(model, (0.0,)) == "neg"
        assert predict_pair(model, (1.0,)) == "pos"

    def test_xor_with_rbf(self):
        x = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
        y = (-1, -1, 1, 1)
        model = train_smo(
            TrainingSet(x, y), KernelParams(gamma=1.0, c=10.0), 7, debug=True
        )
        for xi, yi in zip(x, y):
            want = "pos" if yi > 0 else "neg"
            assert predict_pair(model, xi) == want

    def test_dual_feasibility_and_kkt(self):
        rng = random.Random(40)
        params = KernelParams(gamma=2.0, c=20.0)
        for trial in range(8):
            pts, labels = [], []
            for _ in range(rng.randint(3, 8)):
                pts.append((rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0)))
                labels.append(1)
            for _ in range(rng.randint(3, 8)):
                pts.append((rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)))
                labels.append(-1)
            model = train_smo(
                TrainingSet(tuple(pts), tuple(labels)), params, trial, debug=True
            )
            assert all(0.0 < a <= params.c for a in model.alpha)
            balance = sum(a * yy for a, yy in zip(model.alpha, model.support_y))
            assert abs(balance) <= 1e-6
            alpha_of = {x: a for x, a in zip(model.support_x, model.alpha)}
            tol = params.kkt_tol + 1e-6
            for x, yy in zip(pts, labels):
                margin = yy * decision(model, x)
                a = alpha_of.get(tuple(x), 0.0)
                if a <= 1e-8:
                    assert margin >= 1.0 - tol
                elif a >= params.c - 1e-8:
                    assert margin <= 1.0 + tol
                else:
                    assert abs(margin - 1.0) <= tol

    def test_non_separable_kkt_and_seed_independence(self):
        rng = random.Random(60)
        pts, labels = [], []
        for i in range(40):
            yy = 1 if i % 2 else -1
            centre = 0.6 if yy > 0 else 0.4
            pts.append((rng.gauss(centre, 0.2), rng.gauss(centre, 0.2)))
            labels.append(yy)
        data = TrainingSet(tuple(pts), tuple(labels))
        params = KernelParams(gamma=2.0, c=1.0)
        model = train_smo(data, params, 11, debug=True)
        assert any(a == params.c for a in model.alpha)
        balance = sum(a * yy for a, yy in zip(model.alpha, model.support_y))
        assert abs(balance) <= 1e-6
        alpha_of = {x: a for x, a in zip(model.support_x, model.alpha)}
        tol = params.kkt_tol + 1e-6
        for x, yy in zip(data.x, labels):
            margin = yy * decision(model, x)
            a = alpha_of.get(x, 0.0)
            if a <= 1e-8:
                assert margin >= 1.0 - tol
            elif a >= params.c - 1e-8:
                assert margin <= 1.0 + tol
            else:
                assert abs(margin - 1.0) <= tol
        assert train_smo(data, params, 11) == train_smo(data, params, 12)

    def test_iteration_bound_raises(self, monkeypatch):
        monkeypatch.setattr(svm, "_ITERATIONS_PER_SAMPLE", 0)
        with pytest.raises(ConvergenceError, match="SMO steps"):
            separable_pair_model()

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train_smo(
                TrainingSet(((0.0,), (1.0,)), (1, 1)),
                KernelParams(gamma=1.0),
                0,
            )

    def test_same_class_names_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            train_smo(
                TrainingSet(((0.0,), (1.0,)), (-1, 1)),
                KernelParams(gamma=1.0),
                0,
                pos_class="a",
                neg_class="a",
            )

    def test_deterministic_given_seed(self):
        data = TrainingSet(
            ((0.0, 0.1), (0.9, 1.0), (0.1, 0.0), (1.0, 0.9)), (-1, 1, -1, 1)
        )
        params = KernelParams(gamma=1.5, c=5.0)
        a = train_smo(data, params, 11)
        b = train_smo(data, params, 11)
        assert a == b
        c = train_smo(data, params, 12)
        assert isinstance(c, SvmModel)


class TestDecision:
    def test_single_support_vector_at_itself(self):
        model = SvmModel(
            support_x=((0.5, 0.5),),
            support_y=(1,),
            alpha=(1.0,),
            bias=0.0,
            gamma=2.0,
            dim=2,
            pos_class="a",
            neg_class="b",
            c=10.0,
        )
        assert decision(model, (0.5, 0.5)) == 1.0

    def test_dimension_mismatch(self):
        model = stub_model("a", "b", +1, dim=2)
        with pytest.raises(ValueError, match="dimension"):
            decision(model, (1.0,))

    def test_reordering_support_vectors_preserves_decision(self):
        rng = random.Random(50)
        pts = tuple(
            (rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(10)
        )
        labels = tuple(1 if i % 2 else -1 for i in range(10))
        model = train_smo(
            TrainingSet(pts, labels), KernelParams(gamma=1.0, c=5.0), 3
        )
        order = list(range(len(model.alpha)))
        rng.shuffle(order)
        permuted = SvmModel(
            support_x=tuple(model.support_x[i] for i in order),
            support_y=tuple(model.support_y[i] for i in order),
            alpha=tuple(model.alpha[i] for i in order),
            bias=model.bias,
            gamma=model.gamma,
            dim=model.dim,
            pos_class=model.pos_class,
            neg_class=model.neg_class,
            c=model.c,
        )
        for _ in range(20):
            probe = (rng.uniform(-1, 2), rng.uniform(-1, 2))
            assert decision(model, probe) == pytest.approx(
                decision(permuted, probe), abs=1e-12
            )


class TestPredictPair:
    def test_positive_side(self):
        assert predict_pair(stub_model("a", "b", +1), (0.0,)) == "a"

    def test_negative_side(self):
        assert predict_pair(stub_model("a", "b", -1), (0.0,)) == "b"

    def test_tie_goes_positive(self):
        model = SvmModel(
            support_x=((0.0,),),
            support_y=(1,),
            alpha=(1.0,),
            bias=-1.0,
            gamma=1.0,
            dim=1,
            pos_class="a",
            neg_class="b",
            c=10.0,
        )
        assert decision(model, (0.0,)) == 0.0
        assert predict_pair(model, (0.0,)) == "a"


class TestKernelParams:
    def test_kkt_tol_is_a_constant(self):
        assert KernelParams(1.0).kkt_tol == 1e-3
        with pytest.raises(TypeError):
            KernelParams(1.0, 10.0, 1e-4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["gamma", "c"])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            KernelParams(**{"gamma": 1.0, name: bad})
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            stub_model("a", "b", +1, **{name: bad})


class TestSvmModelValidation:
    def test_alpha_above_c_rejected(self):
        with pytest.raises(ValueError, match="box constraint"):
            stub_model("a", "b", +1, c=10.0).__class__(
                support_x=((0.0,),),
                support_y=(1,),
                alpha=(11.0,),
                bias=0.0,
                gamma=1.0,
                dim=1,
                pos_class="a",
                neg_class="b",
                c=10.0,
            )

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SvmModel(
                support_x=((0.0,),),
                support_y=(1,),
                alpha=(0.0,),
                bias=0.0,
                gamma=1.0,
                dim=1,
                pos_class="a",
                neg_class="b",
                c=10.0,
            )

    def test_same_class_names_rejected(self):
        with pytest.raises(ValueError):
            stub_model("a", "a", +1)

    def test_empty_feature_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            stub_model("a", "b", +1, dim=0)


class TestPairwiseModelValidation:
    def test_meta_m_must_match_feature_dimension(self):
        models = (stub_model("a", "b", +1, dim=2),)
        assert PairwiseModel(models, ("a", "b"), ModelMeta(n=2, m=1, seed=0))
        with pytest.raises(ValueError, match="dimension 2 differs from 2m = 4"):
            PairwiseModel(models, ("a", "b"), ModelMeta(n=2, m=2, seed=0))

    def test_empty_class_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PairwiseModel((stub_model("", "b", +1),), ("", "b"))

    @pytest.mark.parametrize(
        "pairs, classes",
        [
            ([], ("a", "b")),
            ([("a", "b"), ("b", "a")], ("a", "b")),
            ([("a", "b")], ("a", "b", "c")),
            ([("a", "b"), ("c", "d")], ("a", "b", "c")),
            ([("a", "b")], ("a", "b", "a")),
        ],
        ids=["no-machines", "duplicate-pair", "extra-class", "missing-class",
             "duplicate-name"],
    )
    def test_pair_set_rules_are_enforced(self, pairs, classes):
        models = tuple(stub_model(pos, neg, +1) for pos, neg in pairs)
        with pytest.raises(ValueError):
            PairwiseModel(models, classes)


def four_class_samples(rng, per_class=4):
    centers = {"a": (0, 0), "b": (4, 0), "c": (0, 4), "d": (4, 4)}
    xs, labels = [], []
    for cls, (cx, cy) in centers.items():
        for _ in range(per_class):
            xs.append((cx + rng.uniform(-0.3, 0.3), cy + rng.uniform(-0.3, 0.3)))
            labels.append(cls)
    return xs, labels


class TestTrainPairwise:
    def test_two_classes_one_model(self):
        xs = [(0.0,), (0.1,), (1.0,), (1.1,)]
        labels = ["a", "a", "b", "b"]
        pm = train_pairwise(xs, labels, KernelParams(gamma=1.0), 0)
        assert len(pm.models) == 1
        assert pm.classes == ("a", "b")

    def test_four_classes_six_models(self):
        rng = random.Random(60)
        xs, labels = four_class_samples(rng)
        pm = train_pairwise(xs, labels, KernelParams(gamma=1.0), 1)
        assert len(pm.models) == 6

    def test_pair_restricted_mode(self):
        rng = random.Random(61)
        xs, labels = four_class_samples(rng)
        pm = train_pairwise(
            xs,
            labels,
            KernelParams(gamma=1.0),
            1,
            pairs=[("a", "b"), ("c", "d")],
        )
        assert len(pm.models) == 2
        assert pm.classes == ("a", "b", "c", "d")
        [ab] = [mdl for mdl in pm.models if {mdl.pos_class, mdl.neg_class} == {"a", "b"}]
        assert ab.pos_class == "a"

    def test_fewer_than_two_classes(self):
        with pytest.raises(DegenerateTrainingError):
            train_pairwise([(0.0,), (1.0,)], ["a", "a"], KernelParams(gamma=1.0), 0)

    def test_22_classes_all_pairs_vs_restricted(self):
        rng = random.Random(63)
        xs, labels = [], []
        for k in range(22):
            cx, cy = divmod(k, 5)
            for _ in range(3):
                xs.append(
                    (2.0 * cx + rng.uniform(-0.2, 0.2), 2.0 * cy + rng.uniform(-0.2, 0.2))
                )
                labels.append(f"cls{k:02d}")
        params = KernelParams(gamma=1.0, c=10.0)
        assert len(train_pairwise(xs, labels, params, 5).models) == 231
        pairs = [(f"cls{2 * i:02d}", f"cls{2 * i + 1:02d}") for i in range(11)]
        assert len(train_pairwise(xs, labels, params, 5, pairs=pairs).models) == 11

    def test_registry_class_missing_from_samples(self):
        with pytest.raises(DegenerateTrainingError, match="'z' has no samples"):
            train_pairwise(
                [(0.0,), (1.0,)],
                ["a", "b"],
                KernelParams(gamma=1.0),
                0,
                pairs=[("a", "z")],
            )

    @pytest.mark.parametrize(
        "pairs",
        [[("a", "a")], [("a", "b"), ("b", "a")], []],
        ids=["same-class", "duplicate", "empty"],
    )
    def test_malformed_pair_list_is_refused(self, pairs):
        xs = [(0.0,), (0.1,), (1.0,), (1.1,)]
        labels = ["a", "a", "b", "b"]
        with pytest.raises(ValueError):
            train_pairwise(xs, labels, KernelParams(gamma=1.0), 0, pairs=pairs)

    def test_duplicate_pair_refused_before_training(self, monkeypatch):
        calls = []
        real = svm.train_smo
        monkeypatch.setattr(
            svm, "train_smo", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        xs = [(0.0,), (0.1,), (1.0,), (1.1,)]
        labels = ["a", "a", "b", "b"]
        with pytest.raises(ValueError, match="duplicate pair"):
            train_pairwise(
                xs, labels, KernelParams(gamma=1.0), 0, pairs=[("a", "b"), ("b", "a")]
            )
        assert calls == []

    def test_multiclass_prediction_votes(self):
        rng = random.Random(62)
        xs, labels = four_class_samples(rng)
        pm = train_pairwise(xs, labels, KernelParams(gamma=1.0), 2)
        winner, votes = predict_multiclass(pm, (4.0, 4.0))
        assert winner == "d"
        assert votes["d"] == 3
        assert sum(votes.values()) == 6

    def test_two_class_matches_predict_pair(self):
        xs = [(0.0,), (0.1,), (1.0,), (1.1,)]
        labels = ["a", "a", "b", "b"]
        pm = train_pairwise(xs, labels, KernelParams(gamma=1.0), 0)
        for probe in ((-0.2,), (0.4,), (1.3,)):
            winner, _ = predict_multiclass(pm, probe)
            assert winner == predict_pair(pm.models[0], probe)

    def test_multiclass_dimension_mismatch(self):
        pm = PairwiseModel((stub_model("a", "b", +1, dim=2),), ("a", "b"))
        with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 1"):
            predict_multiclass(pm, (0.0,))

    def test_vote_takes_decision_values(self):
        trained = trained_pairwise()
        # exactly 0.0 at the origin: K = 1 there, and 1e-3 * 1 - 1e-3 == 0
        zero_at_origin = SvmModel(
            support_x=((0.0, 0.0),), support_y=(1,), alpha=(1e-3,), bias=-1e-3,
            gamma=0.7, dim=2, pos_class="d", neg_class="a", c=10.0,
        )
        assert decision(zero_at_origin, (0.0, 0.0)) == 0.0
        one_sv = stub_model("b", "c", -1, dim=2, gamma=0.7)
        pm = PairwiseModel(trained.models + (one_sv, zero_at_origin), trained.classes)
        counts = [len(mdl.alpha) for mdl in pm.models]
        assert 1 in counts and len(set(counts)) > 1  # spans of differing lengths
        for probe in ((0.0, 0.0), (4.0, 4.0), (1.5, 3.0), (-0.2, 0.1)):
            values = [decision(mdl, probe) for mdl in pm.models]
            # one kernel block for every machine, each value decision()'s in bits
            block = svm._decision_values(pm, probe)
            assert [v.hex() for v in block] == [v.hex() for v in values]
            assert vote(pm, values) == predict_multiclass(pm, probe)
        # the zero machine's vote goes positive, as predict_pair's does
        assert predict_pair(zero_at_origin, (0.0, 0.0)) == "d"
        less = PairwiseModel(pm.models[:-1], pm.classes)
        _, without = predict_multiclass(less, (0.0, 0.0))
        _, votes = predict_multiclass(pm, (0.0, 0.0))
        assert votes == {**without, "d": without["d"] + 1}
        winner, votes = vote(trained, [0.0, -1e-300])  # zero goes positive
        assert (winner, votes) == ("a", {"a": 1, "b": 0, "c": 0, "d": 1})
        with pytest.raises(ValueError):
            vote(trained, [1.0])  # one value per machine

    def test_vote_cycle_breaks_by_class_order(self):
        # a beats b, b beats c, c beats a: one vote each
        models = (
            stub_model("a", "b", +1),
            stub_model("b", "c", +1),
            stub_model("c", "a", +1),
        )
        pm = PairwiseModel(models, ("a", "b", "c"))
        winner, votes = predict_multiclass(pm, (0.0,))
        assert votes == {"a": 1, "b": 1, "c": 1}
        assert winner == "a"


def trained_pairwise(seed=5):
    rng = random.Random(seed)
    xs, labels = four_class_samples(rng)
    return train_pairwise(
        xs,
        labels,
        KernelParams(gamma=0.7, c=10.0),
        seed,
        pairs=[("a", "b"), ("c", "d")],
        meta=ModelMeta(n=2, m=1, seed=seed),
    )


class TestSerialization:
    def test_round_trip_decisions_bitwise(self):
        pm = trained_pairwise()
        clone = load_model(save_model(pm))
        rng = random.Random(70)
        for _ in range(100):
            probe = (rng.uniform(-1, 5), rng.uniform(-1, 5))
            for mdl, mdl2 in zip(pm.models, clone.models):
                assert decision(mdl, probe) == decision(mdl2, probe)

    def test_round_trip_metadata(self):
        pm = trained_pairwise()
        clone = load_model(save_model(pm))
        assert clone.classes == pm.classes
        assert clone.meta == pm.meta

    def test_deterministic_bytes(self):
        assert save_model(trained_pairwise()) == save_model(trained_pairwise())

    def test_meta_required_to_save(self):
        pm = trained_pairwise()
        bare = PairwiseModel(pm.models, pm.classes, None)
        with pytest.raises(ValueError, match="metadata"):
            save_model(bare)

    def _mutate(self, mutate):
        doc = json.loads(save_model(trained_pairwise()).decode())
        mutate(doc)
        return json.dumps(doc).encode()

    def test_bad_version_rejected(self):
        data = self._mutate(lambda d: d.update(format_version=99))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(data)

    def test_alpha_above_c_rejected(self):
        def bump(doc):
            doc["pairs"][0]["support"][0]["alpha"] = doc["c"] * 2
        with pytest.raises(ModelFormatError, match="box constraint"):
            load_model(self._mutate(bump))

    def test_nan_rejected(self):
        def poison(doc):
            doc["pairs"][0]["bias"] = float("nan")
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(self._mutate(poison))

    def test_nonpositive_alpha_rejected(self):
        def zero(doc):
            doc["pairs"][0]["support"][0]["alpha"] = 0.0
        with pytest.raises(ModelFormatError, match="positive"):
            load_model(self._mutate(zero))

    def test_broken_equality_constraint_rejected(self):
        def unbalance(doc):
            doc["pairs"][0]["support"][0]["alpha"] += 0.25
        with pytest.raises(ModelFormatError, match="equality"):
            load_model(self._mutate(unbalance))

    def test_dimension_mismatch_rejected(self):
        def chop(doc):
            doc["pairs"][0]["support"][0]["x"] = [1.0, 2.0, 3.0]
        with pytest.raises(ModelFormatError, match="dimension"):
            load_model(self._mutate(chop))

    def test_not_json_rejected(self):
        with pytest.raises(ModelFormatError, match="invalid model file"):
            load_model(b"\x00\x01garbage")

    def test_duplicate_pair_rejected(self):
        def duplicate(doc):
            doc["pairs"][1] = dict(doc["pairs"][0])
        with pytest.raises(ModelFormatError, match="duplicate pair"):
            load_model(self._mutate(duplicate))

    def test_missing_field_rejected(self):
        data = self._mutate(lambda d: d.pop("gamma"))
        with pytest.raises(ModelFormatError, match="gamma"):
            load_model(data)

    def test_saved_model_is_one_json_line_and_loads_equal(self):
        pm = trained_pairwise()
        blob = save_model(pm)
        assert blob.endswith(b"\n") and blob.count(b"\n") == 1
        assert load_model(blob) == pm

    def test_boolean_label_rejected(self):
        def boolean(doc):
            sv = doc["pairs"][0]["support"][0]
            sv["y"] = sv["y"] > 0
        with pytest.raises(ModelFormatError, match="'y' must be an integer"):
            load_model(self._mutate(boolean))

    def test_meta_dimension_mismatch_rejected(self):
        data = self._mutate(lambda d: d.update(m=2))
        with pytest.raises(ModelFormatError, match="dimension"):
            load_model(data)

    @pytest.mark.parametrize(
        "literal", [b"1e400", b"-Infinity", b"1" + b"0" * 400],
        ids=["1e400", "-Infinity", "401-digit-integer"],
    )
    def test_nonfinite_literal_rejected(self, literal):
        data = self._mutate(lambda d: d["pairs"][0].update(bias="BIAS"))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(data.replace(b'"BIAS"', literal))

    @pytest.mark.parametrize(
        "data", [b"[" * 100000, b"1" * 5000], ids=["deep-nesting", "5000-digit-integer"]
    )
    def test_unparseable_json_rejected(self, data):
        with pytest.raises(ModelFormatError, match="invalid model file"):
            load_model(data)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MODEL_PATHS = [
    ("n",), ("m",), ("gamma",), ("c",), ("normalize",), ("classes",), ("classes", 0),
    ("pairs",), ("pairs", 0), ("pairs", 0, "pos_class"), ("pairs", 0, "bias"),
    ("pairs", 0, "support"), ("pairs", 0, "support", 0, "y"),
    ("pairs", 0, "support", 0, "alpha"), ("pairs", 0, "support", 0, "x"),
    ("pairs", 0, "support", 0, "x", 0),
]


_SAVED = save_model(trained_pairwise())


def _model_with(path, value) -> bytes:
    """A valid saved model with the value at `path` replaced."""
    doc = json.loads(_SAVED)
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value
    return json.dumps(doc).encode()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.builds(_model_with, st.sampled_from(_MODEL_PATHS), _JSON_VALUES),
    )
)
@example(data=b"[" * 100000)
@example(data=b"1" * 5000)
def test_load_model_raises_only_its_named_error(data):
    try:
        pm = load_model(data)
    except ModelFormatError:
        return
    assert load_model(save_model(pm)) == pm



@pytest.mark.parametrize("support, dim", [(1, 5), (7, 1), (1, 1)])
def test_one_row_decision_equals_batch_on_edge_shapes(support, dim):
    rng = np.random.default_rng(support * 10 + dim)
    model = SvmModel(
        support_x=rng.normal(size=(support, dim)).tolist(),
        support_y=rng.choice([-1, 1], size=support).tolist(),
        alpha=rng.uniform(0.01, 1.0, size=support).tolist(),
        bias=float(rng.normal()),
        gamma=float(rng.uniform(0.05, 2.0)),
        dim=dim,
        pos_class="p",
        neg_class="q",
        c=1.0,
    )
    x = rng.normal(size=(2 * svm._DECISION_BLOCK + 1, dim))
    assert [v.hex() for v in svm.decisions(model, x).tolist()] == [
        decision(model, row).hex() for row in x.tolist()
    ]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 2 * svm._DECISION_BLOCK + 3),
    support=st.integers(1, 40),
    dim=st.integers(1, 8),
)
def test_batch_decision_equals_row_by_row(seed, rows, support, dim):
    rng = np.random.default_rng(seed)
    model = SvmModel(
        support_x=rng.normal(size=(support, dim)).tolist(),
        support_y=rng.choice([-1, 1], size=support).tolist(),
        alpha=rng.uniform(0.01, 1.0, size=support).tolist(),
        bias=float(rng.normal()),
        gamma=float(rng.uniform(0.05, 2.0)),
        dim=dim,
        pos_class="p",
        neg_class="q",
        c=1.0,
    )
    x = rng.normal(size=(rows, dim))
    batch = svm.decisions(model, x)
    assert [v.hex() for v in batch.tolist()] == [
        decision(model, row).hex() for row in x.tolist()
    ]
    labels = rng.choice(["p", "q"], size=rows).tolist()
    tally = {(t, p): 0 for t in "pq" for p in "pq"}
    for row, truth in zip(x.tolist(), labels):
        tally[truth, predict_pair(model, row)] += 1
    counts = evaluation.evaluate_pair(model, x, labels)
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (
        tally["p", "p"], tally["p", "q"], tally["q", "p"], tally["q", "q"]
    )
