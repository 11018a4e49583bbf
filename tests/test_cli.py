import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from promil import cli, metrics, training
from promil.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_COLUMNS,
    load_model,
    main,
    save_model,
)
from promil.bagdata import (
    SyntheticSpec,
    load_dataset,
    save_dataset,
    write_idx_images,
    write_idx_labels,
)
from promil.bernstein import DEFAULT_EPS, logit
from promil.heads import HEADS, score_bags
from promil.metrics import evaluate
from promil.network import NetArch, init_params

# dataset files of the schemas bagdata/1 (JSON), bagdata/2 (dense .npz) and
# bagdata/3, which earlier versions wrote and this one refuses
DATA = Path(__file__).parent / "data"
FIXTURE_V1 = str(DATA / "bagdata1.json")


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def read_members(path):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def set_header(**fields):
    """An edit of a dataset's members that sets fields of its header."""
    def edit(arrays):
        arrays["header"] = np.array(json.dumps({**json.loads(arrays["header"].item()), **fields}))
    return edit


def set_cell(member, index, value):
    """An edit of a dataset's members that sets one cell of ``member``."""
    def edit(arrays):
        arrays[member] = arrays[member].copy()
        arrays[member].reshape(-1)[index] = value
    return edit


def small_config(tmp_path, **overrides):
    doc = {
        "schema": "promil-config/1",
        "seed": 11,
        "head": "promil",
        "source": "synthetic",
        "dataset": {
            "n_bags": 60,
            "threshold_qstar": 0.3,
            "bag_size_mean": 6,
            "bag_size_std": 2,
            "feature_dim": 2,
            "class_separation": 5.0,
            "noise_std": 1.0,
        },
        "split_fractions": [0.6, 0.2, 0.2],
        "hidden_dims": [],
        "activation": "relu",
        "train": {
            "max_epochs": 4,
            "patience": 4,
            "q_init": 0.3,
            "val_metric": "loss",
        },
        "repeats": 1,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def mnist_config(tmp_path, **mnist):
    """A small config over tiny IDX files of 4 x 4 digits; ``mnist`` sets
    fields of its mnist section, a None value dropping the field."""
    rng = np.random.default_rng(0)
    paths = {}
    for prefix, n in (("train", 160), ("test", 80)):
        images = rng.integers(0, 256, size=(n, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        labels[::4] = 9
        images[labels == 9, 0] = 255   # a digit 9 is learnable from its first row
        paths[f"{prefix}_images"] = str(tmp_path / f"{prefix}-images")
        paths[f"{prefix}_labels"] = str(tmp_path / f"{prefix}-labels")
        write_idx_images(paths[f"{prefix}_images"], images)
        write_idx_labels(paths[f"{prefix}_labels"], labels)
    paths.update(mnist, n_test_bags=12)
    return small_config(tmp_path, source="mnist", repeats=2,
                        mnist={k: v for k, v in paths.items() if v is not None},
                        dataset={"n_bags": 40, "threshold_qstar": 0.3, "bag_size_mean": 6,
                                 "bag_size_std": 2})


class TestGenerate:
    def test_writes_dataset_and_is_reproducible(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out1, out2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
        assert main(["generate", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["generate", "--config", cfg, "--out", out2]) == EXIT_OK
        assert (tmp_path / "d1.json").read_bytes() == (tmp_path / "d2.json").read_bytes()
        assert "positive rate" in capsys.readouterr().out

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
        main(["generate", "--config", cfg, "--out", out1])
        main(["generate", "--config", cfg, "--seed", "99", "--out", out2])
        assert (tmp_path / "d1.json").read_bytes() != (tmp_path / "d2.json").read_bytes()

    def test_positive_rate_near_one_minus_threshold(self, tmp_path, capsys):
        cfg = small_config(tmp_path, dataset={
            "n_bags": 400, "threshold_qstar": 0.3, "bag_size_mean": 30,
            "bag_size_std": 5,
        })
        out = str(tmp_path / "d.json")
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        bags, _, _ = load_dataset(out)
        rate = np.mean([b.label for b in bags])
        assert abs(rate - 0.7) < 0.07

    def test_invalid_config_field_names_it(self, tmp_path, capsys):
        cfg = small_config(tmp_path, dataset={"n_bags": 60, "threshold_qstar": 0.3,
                                              "bananas": 2})
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "d.json")])
        assert code == EXIT_IO
        assert "bananas" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", '"s"', "3"])
    def test_config_that_is_not_an_object(self, text, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(cfg) in err and "JSON object" in err
        assert not (tmp_path / "d.json").exists()

    def test_integer_past_the_digit_limit_exits_2_naming_path(self, tmp_path, capsys):
        # json.load raises a plain ValueError on an integer of more than
        # 4,300 digits, not a JSONDecodeError
        cfg = Path(small_config(tmp_path))
        cfg.write_text(cfg.read_text().replace('"seed": 11', '"seed": ' + "7" * 5001))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(cfg) in err and "not valid JSON" in err and "Traceback" not in err
        assert not (tmp_path / "d.json").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d.json")]) == EXIT_IO


@pytest.fixture
def trained(tmp_path):
    cfg = small_config(tmp_path)
    data = str(tmp_path / "data.json")
    model = str(tmp_path / "model.json")
    assert main(["generate", "--config", cfg, "--out", data]) == EXIT_OK
    assert main(["train", data, "--config", cfg, "--out", model]) == EXIT_OK
    return cfg, data, model


class TestTrain:
    def test_outputs(self, trained, tmp_path, capsys):
        _, data, model_path = trained
        model = load_model(model_path)
        assert model.epochs_run >= 1
        log = tmp_path / "model.json.log.csv"
        assert log.exists()
        rows = read_csv(log)
        assert rows[0] == ["epoch", "train_cost", "val_auc", "val_loss", "q"]
        assert all(float(r[3]) >= 0.0 for r in rows[1:])   # val_loss is a BCE
        assert len(rows) - 1 == model.epochs_run

    def test_printed_q_matches_model_file(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data = str(tmp_path / "data.json")
        model = str(tmp_path / "model.json")
        main(["generate", "--config", cfg, "--out", data])
        main(["train", data, "--config", cfg, "--out", model])
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "learned q" in ln][0]
        printed = float(line.split("learned q =")[1].strip())
        assert printed == pytest.approx(load_model(model).learned_q, abs=1e-6)

    @pytest.mark.parametrize("val_metric", ["auc", "loss"])
    def test_validation_split_of_one_class_exits_1_before_step_one(self, tmp_path, capsys,
                                                                    monkeypatch, val_metric):
        cfg = small_config(tmp_path, train={"max_epochs": 4, "patience": 4,
                                            "val_metric": val_metric})
        data, one_class = tmp_path / "data.npz", tmp_path / "one-class.npz"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == EXIT_OK
        bags, _, _ = load_dataset(data)
        save_dataset(one_class, [b for b in bags if b.split != "validation" or b.label == 0])
        monkeypatch.setattr(training, "bag_step", lambda *a: pytest.fail("a step ran"))
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["train", str(one_class), "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("usage error: validation split: every bag has label "
                                           "0, but its AUC needs both labels\n")
        assert not out.exists()

    def test_unreadable_dataset(self, tmp_path):
        cfg = small_config(tmp_path)
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        assert main(["train", str(bad), "--config", cfg,
                     "--out", str(tmp_path / "m.json")]) == EXIT_IO


class TestDatasetFiles:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_truncated_dataset_exits_2_naming_path(self, trained, tmp_path, capsys, command):
        cfg, data, model = trained
        bad = tmp_path / "cut.json"
        bad.write_bytes(Path(data).read_bytes()[:300])
        argv = (["train", str(bad), "--config", cfg, "--out", str(tmp_path / "m2.json")]
                if command == "train" else ["eval", model, str(bad)])
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("field, edit", [
        ("'header' is not one JSON text", lambda a: a.update(header=np.array("{"))),
        ("'header' does not name schema 'bagdata/4'", set_header(schema="bagdata/9")),
        ("'header' names the schema 'bagdata/2', which is no longer read",
         set_header(schema="bagdata/2")),
        ("'header' width must be an integer >= 0, got -2", set_header(width=-2)),
        ("'offsets' must be a 1-D array starting at 0",
         lambda a: a.update(offsets=a["offsets"] + 1)),
        ("'offsets' must increase strictly", set_cell("offsets", 2, 0)),
        ("'ids' has shape", lambda a: a.update(ids=a["ids"][:-1])),
        ("'labels' holds a label other than 0 or 1", set_cell("labels", 0, 3)),
        ("'labels' has dtype float64", lambda a: a.update(labels=a["labels"] * 1.0)),
        ("'labels' is missing", lambda a: a.pop("labels")),
        ("'splits' holds a split code outside 0..3", set_cell("splits", 0, 7)),
        ("'hidden' holds a hidden label other than 0 or 1", set_cell("hidden", 0, 2)),
        ("'hidden' has shape", lambda a: a.update(hidden=a["hidden"][1:])),
        ("'instance_values' contain NaN or infinity", set_cell("instance_values", 3, np.nan)),
        ("'instance_values' contain NaN or infinity", set_cell("instance_values", 0, -np.inf)),
        ("'instance_values' holds", lambda a: a.update(instance_values=a["instance_values"][1:])),
        ("'instance_mask' has dtype", lambda a: a.update(instance_mask=a["instance_mask"][1:])),
        ("'instance_values' is missing", lambda a: a.pop("instance_values")),
    ])
    def test_bad_dataset_file_exits_2_naming_path(self, tmp_path, capsys, field, edit):
        cfg, data = small_config(tmp_path), tmp_path / "data.npz"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == EXIT_OK
        arrays = read_members(data)
        edit(arrays)
        bad, out = tmp_path / "bad.npz", tmp_path / "m.json"
        with open(bad, "wb") as f:
            np.savez(f, **arrays)
        capsys.readouterr()
        assert main(["train", str(bad), "--config", cfg, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{bad}: " in err and field in err and "Traceback" not in err
        assert not out.exists()

    def test_file_that_is_no_container_exits_2_naming_path(self, tmp_path, capsys):
        bad, out = tmp_path / "bad.npz", tmp_path / "m.json"
        bad.write_bytes(b"\x00\x01binary")
        assert main(["train", str(bad), "--config", small_config(tmp_path),
                     "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{bad}: not a 'bagdata/4' dataset container" in err and not out.exists()

    @pytest.mark.parametrize("name, schema", [("bagdata1.json", "bagdata/1"),
                                              ("bagdata2.npz", "bagdata/2"),
                                              ("bagdata3.npz", "bagdata/3")])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_retired_dataset_exits_2_naming_path_and_schema(self, trained, tmp_path, capsys,
                                                            command, name, schema):
        cfg, _, model = trained
        path, out = str(DATA / name), tmp_path / "out.json"
        argv = (["train", path, "--config", cfg, "--out", str(out)] if command == "train"
                else ["eval", model, path, "--out", str(out)])
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{path}: " in err and f"{schema!r}" in err and "no longer read" in err
        assert "Traceback" not in err and not out.exists()


class TestEval:
    def test_reports_per_head(self, trained, tmp_path):
        _, data, model = trained
        r1 = str(tmp_path / "promil.eval.json")
        r2 = str(tmp_path / "max.eval.json")
        assert main(["eval", model, data, "--split", "test", "--out", r1]) == EXIT_OK
        assert main(["eval", model, data, "--head", "max", "--split", "test",
                     "--out", r2]) == EXIT_OK
        a = json.loads((tmp_path / "promil.eval.json").read_text())
        b = json.loads((tmp_path / "max.eval.json").read_text())
        assert a["head"] == "promil" and b["head"] == "max"
        assert set(a) >= {"auc", "balanced_accuracy", "accuracy", "confusion", "n_bags"}

    def test_model_roundtrip_preserves_scores(self, trained, tmp_path):
        _, data, model_path = trained
        model = load_model(model_path)
        bags, _, _ = load_dataset(data)
        before = evaluate(model, bags, head="promil")
        again = load_model(model_path)
        after = evaluate(again, bags, head="promil")
        assert before.auc == after.auc
        assert before.balanced_accuracy == after.balanced_accuracy

    def test_eval_scores_with_the_training_eps(self, tmp_path, monkeypatch):
        # far-apart clusters and large steps saturate the predictions, so the
        # clamp matters
        cfg = small_config(
            tmp_path,
            dataset={"n_bags": 60, "threshold_qstar": 0.3, "bag_size_mean": 6,
                     "bag_size_std": 2, "class_separation": 40.0},
            train={"max_epochs": 2, "patience": 2, "q_init": 0.3, "val_metric": "loss",
                   "eps_clamp": 1e-3, "learning_rate": 0.1})
        data, model_path = str(tmp_path / "d.json"), str(tmp_path / "m.json")
        assert main(["generate", "--config", cfg, "--out", data]) == EXIT_OK
        assert main(["train", data, "--config", cfg, "--out", model_path]) == EXIT_OK
        model = load_model(model_path)
        val = [b for b in load_dataset(data)[0] if b.split == "validation"]

        def scores(eps):
            return list(score_bags(model.net, val, "promil", model.learned_q, eps))

        assert scores(1e-3) != scores(DEFAULT_EPS)
        seen = []
        real_auc = metrics.auc
        monkeypatch.setattr(metrics, "auc",
                            lambda s, y: seen.append(list(s)) or real_auc(s, y))
        assert main(["eval", model_path, data, "--split", "validation",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert seen == [scores(1e-3)]
        assert model.eps == 1e-3

    @pytest.mark.parametrize("head", HEADS)
    def test_eval_scores_equal_validation_scores(self, head, tmp_path, monkeypatch):
        cfg = small_config(
            tmp_path, head=head,
            dataset={"n_bags": 60, "threshold_qstar": 0.3, "bag_size_mean": 6,
                     "bag_size_std": 2, "class_separation": 40.0},
            train={"max_epochs": 3, "patience": 3, "q_init": 0.3, "val_metric": "loss",
                   "eps_clamp": 1e-3, "learning_rate": 0.1})
        data, model_path = str(tmp_path / "d.json"), str(tmp_path / "m.json")
        assert main(["generate", "--config", cfg, "--out", data]) == EXIT_OK
        per_epoch = []
        real_auc = metrics.auc
        monkeypatch.setattr(training, "auc_metric",
                            lambda s, y: per_epoch.append(list(s)) or real_auc(s, y))
        assert main(["train", data, "--config", cfg, "--out", model_path]) == EXIT_OK
        seen = []
        monkeypatch.setattr(metrics, "auc",
                            lambda s, y: seen.append(list(s)) or real_auc(s, y))
        assert main(["eval", model_path, data, "--split", "validation",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        model = load_model(model_path)
        assert model.head == head and len(per_epoch) == model.epochs_run
        assert seen == [per_epoch[model.best_epoch - 1]]

    def test_model_v1_exits_2_naming_path_and_schema(self, trained, tmp_path, capsys):
        # a promil-model/1 file, as earlier versions wrote it: no eps_clamp
        _, data, model_path = trained
        doc = json.loads(Path(model_path).read_text())
        assert doc["schema"] == "promil-model/2"
        doc["schema"] = "promil-model/1"
        del doc["eps_clamp"]
        old, out = tmp_path / "old.json", tmp_path / "out.json"
        old.write_text(json.dumps(doc))
        assert main(["eval", str(old), data, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{old}: " in err and "'promil-model/1'" in err and "no longer read" in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_model(self, trained, tmp_path):
        _, data, _ = trained
        assert main(["eval", str(tmp_path / "no_model.json"), data]) == EXIT_IO

    def test_dimension_mismatch(self, trained, tmp_path, capsys):
        cfg3 = small_config(tmp_path, dataset={
            "n_bags": 40, "threshold_qstar": 0.3, "bag_size_mean": 5,
            "bag_size_std": 1, "feature_dim": 3,
        })
        _, _, model = trained
        data3 = str(tmp_path / "d3.json")
        main(["generate", "--config", cfg3, "--out", data3])
        capsys.readouterr()
        assert main(["eval", model, data3]) == EXIT_USAGE
        first = load_dataset(data3)[0][0]
        assert (f"bag {first.id}: instances of shape ({len(first)}, 3), expected a nonempty "
                f"(bag_size, 2) array") in capsys.readouterr().err

    def test_float32_bag_is_cast_when_it_is_made(self, trained):
        _, data, model_path = trained
        model = load_model(model_path)
        bags, _, _ = load_dataset(data)
        x32 = bags[5].instances.astype(np.float32)
        bags[5] = dataclasses.replace(bags[5], instances=x32)
        assert bags[5].instances.dtype == np.float64
        by_hand = bags[:5] + [dataclasses.replace(bags[5], instances=x32.astype(np.float64))]
        np.testing.assert_array_equal(
            score_bags(model.net, bags, "promil", model.learned_q, model.eps)[:6],
            score_bags(model.net, by_hand, "promil", model.learned_q, model.eps))


def _drop_input_dim(doc):
    del doc["arch"]["input_dim"]


def _widen_first_weight(doc):
    doc["weights"][0].append([0.0])


def random_model(input_dim, hidden_dims, best_value):
    arch = NetArch(input_dim=input_dim, hidden_dims=hidden_dims)
    net = init_params(arch, np.random.SeedSequence([3, 0]))
    net.flat[:] = np.random.default_rng(4).normal(size=net.flat.size)   # biases too
    return training.TrainedModel(net=net, raw_q=logit(0.3125), head="promil",
                                 val_metric="loss", best_epoch=7, best_value=best_value,
                                 epochs_run=9, seed=3, eps=1e-7)


class TestModelFiles:
    @pytest.mark.parametrize("input_dim, hidden_dims, best_value", [
        (2, (), 0.6931471805599453), (784, (32,), float("nan"))])
    def test_bytes_equal_the_former_json_dump_form(self, tmp_path, monkeypatch, input_dim,
                                                   hidden_dims, best_value):
        path = tmp_path / "m.json"
        with monkeypatch.context() as m:
            m.setattr(cli.time, "time", lambda: 1_700_000_000.75)
            save_model(str(path), random_model(input_dim, hidden_dims, best_value))
        doc = json.loads(path.read_text())
        assert doc["metadata"]["created_unix"] == 1_700_000_000
        former = io.StringIO()   # the streaming encoder save_model used to take
        json.dump(doc, former, sort_keys=True, separators=(",", ":"))
        former.write("\n")
        assert path.read_bytes() == former.getvalue().encode()

    @pytest.mark.parametrize("field, edit", [
        ("weights", lambda doc: doc.pop("weights")),
        ("raw_q", lambda doc: doc.pop("raw_q")),
        ("arch", _drop_input_dim),
        ("weights", _widen_first_weight),
        ("biases", lambda doc: doc.update(biases=[[0.0, 1.0]])),
        ("head", lambda doc: doc.update(head="median")),
        ("eps_clamp", lambda doc: doc.update(eps_clamp=-1.0)),
        ("raw_q", lambda doc: doc.update(raw_q="high")),
        ("metadata", lambda doc: doc.update(metadata=[])),
        ("arch", lambda doc: doc["arch"].update(input_dim=2.5)),
        ("arch", lambda doc: doc["arch"].update(input_dim="2")),
        ("arch", lambda doc: doc["arch"].update(input_dim=True)),
        ("arch", lambda doc: doc["arch"].update(hidden_dims=[True])),
        ("raw_q", lambda doc: doc.update(raw_q=True)),
        ("eps_clamp", lambda doc: doc.update(eps_clamp=True)),
        ("weights", lambda doc: doc["weights"][0].__setitem__(1, [True])),
        ("weights", lambda doc: doc["weights"][0].__setitem__(0, ["0.5"])),
        ("biases", lambda doc: doc.update(biases=[[False]])),
        ("metadata.seed", lambda doc: doc["metadata"].update(seed="x")),
        ("metadata.seed", lambda doc: doc["metadata"].update(seed=True)),
        ("metadata.epochs_run", lambda doc: doc["metadata"].update(epochs_run=-1)),
        ("metadata.best_epoch", lambda doc: doc["metadata"].update(best_epoch=[1])),
        ("metadata.best_epoch", lambda doc: doc["metadata"].update(best_epoch=2.0)),
        ("metadata.best_val_metric",
         lambda doc: doc["metadata"].update(best_val_metric="0.9")),
        ("metadata.val_metric", lambda doc: doc["metadata"].update(val_metric=7)),
    ])
    def test_bad_field_exits_2_naming_path_and_field(self, trained, tmp_path, capsys,
                                                      field, edit):
        _, data, model_path = trained
        doc = json.loads(Path(model_path).read_text())
        edit(doc)
        bad = tmp_path / "bad-model.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), data]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(bad) in err and f"'{field}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("schema, why", [
        ("promil-model/1", "is no longer read"), ("promil-model/3", "is not supported"),
        (None, "is not supported"),
    ])
    def test_other_schema_exits_2_naming_path_and_schema(self, trained, tmp_path, capsys,
                                                         schema, why):
        _, data, model_path = trained
        doc = json.loads(Path(model_path).read_text())
        doc["schema"] = schema
        bad, out = tmp_path / "other-model.json", tmp_path / "out.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), data, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert (f"{bad}: model schema {schema!r} {why} (expected 'promil-model/2')" in err
                and "Traceback" not in err and not out.exists())

    def test_truncated_json_exits_2_naming_path(self, trained, tmp_path, capsys):
        _, data, model_path = trained
        bad = tmp_path / "cut-model.json"
        bad.write_text(Path(model_path).read_text()[:100])
        assert main(["eval", str(bad), data]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(bad) in err and "not valid JSON" in err


class TestTrainConfigFields:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("weight_decay", float("nan")), ("eps_clamp", float("inf")),
        ("eps_clamp", float("nan")), ("max_epochs", 0), ("max_epochs", 2.5),
        ("patience", -1), ("patience", 1.5), ("patience", False),
        ("learning_rate", True), ("weight_decay", False), ("beta1", False),
        ("eps_clamp", True), ("learning_rate", 10 ** 400),
    ])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, field, value):
        train = {"max_epochs": 4, "patience": 4, field: value}
        cfg = small_config(tmp_path, train=train)
        argv = ["train", FIXTURE_V1, "--config", cfg, "--out", str(tmp_path / "m.json")]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert "'train'" in err and field in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


# (field as the message names it, config key, bad value)
MALFORMED_CONFIGS = [
    ("hidden_dims", "hidden_dims", 5),
    ("hidden_dims", "hidden_dims", [0]),
    ("split_fractions", "split_fractions", 0.5),
    ("split_fractions", "split_fractions", [0.5, 0.5]),
    ("repeats", "repeats", "x"),
    ("seed", "seed", "abc"),
    ("seed", "seed", -1),
    ("q_init", "train", {"q_init": "abc"}),
    # a number field takes a JSON number, not a string that reads as one
    ("q_init", "train", {"q_init": "0.3"}),
    ("split_fractions", "split_fractions", ["0.6", "0.2", "0.2"]),
    ("activation", "activation", "gelu"),
    ("bananas", "bananas", 1),
    ("n_bags", "dataset", {"n_bags": "x", "threshold_qstar": 0.3}),
    ("learning_rate", "train", {"learning_rate": "x"}),
    ("n_test_bags", "mnist", {"n_test_bags": 1}),
    ("train_images", "mnist", {"train_images": 5}),
    # JSON true and false are not numbers
    ("seed", "seed", True),
    ("repeats", "repeats", True),
    ("hidden_dims", "hidden_dims", [True]),
    ("split_fractions", "split_fractions", [True, 0, 0]),
    ("max_epochs", "train", {"max_epochs": True, "patience": 1}),
    ("feature_dim", "dataset", {"n_bags": 60, "threshold_qstar": 0.3, "feature_dim": True}),
    ("bag_size_std", "dataset", {"n_bags": 60, "threshold_qstar": 0.3, "bag_size_std": False}),
    # the top-level seed seeds training; the train section takes none
    ("train.seed", "train", {"seed": 7}),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    @pytest.mark.parametrize("field, key, value", MALFORMED_CONFIGS)
    def test_exits_2_at_load_naming_the_field(self, tmp_path, capsys, command,
                                               field, key, value):
        cfg = small_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--config", cfg, "--out", str(out)],
            "train": ["train", FIXTURE_V1, "--config", cfg, "--out", str(out)],
            "sweep": ["sweep", "--config", cfg, "--axis", "threshold", "--values", "0.3",
                      "--out", str(out)],
        }[command]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert field in err and str(cfg) in err and "Traceback" not in err
        if key in ("train", "dataset", "mnist"):
            assert f"'{key}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# each config dataclass and the arguments it cannot do without
CONFIG_CLASSES = {SyntheticSpec: {"n_bags": 60, "threshold_qstar": 0.3}, cli.MnistPaths: {},
                  training.TrainConfig: {}, cli.ExperimentConfig: {}, NetArch: {"input_dim": 2}}
# the fields that are neither numbers nor choices: the IDX paths (a
# MALFORMED_CONFIGS row) and the sections, each walked as its own class
NOT_NUMBER_OR_CHOICE = {"train_images", "train_labels", "test_images", "test_labels",
                        "dataset", "mnist", "train"}


def bad_field_values():
    """(class, field, bad value) for every field of CONFIG_CLASSES: True,
    NaN, inf and "1" for a number (for a list of numbers, as its first
    element), and a value outside the choices for a choice."""
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            if f.name in NOT_NUMBER_OR_CHOICE:
                continue
            if f.type in (int, float, object, tuple):   # object: q_init
                for bad in (True, float("nan"), float("inf"), "1"):
                    if f.type is tuple:
                        default = f.default or (1,)
                        bad = (bad, *default[1:])
                    yield cls, f.name, bad
            else:
                assert f.type in (str, bool), f"{cls.__name__}.{f.name}: unclassified field"
                yield cls, f.name, "bogus" if f.type is str else 1


class TestEveryConfigField:
    @pytest.mark.parametrize("cls, name, bad", list(bad_field_values()))
    def test_bad_value_names_the_field(self, cls, name, bad):
        cls(**CONFIG_CLASSES[cls])   # the arguments alone are good
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b.* must be .*, got "):
            cls(**{**CONFIG_CLASSES[cls], name: bad})

    def test_a_seed_too_large_for_a_float_is_an_integer(self, tmp_path):
        cfg = cli.load_config(small_config(tmp_path, seed=10 ** 400))
        assert cfg.seed == cfg.train.seed == 10 ** 400


class TestSweep:
    def test_csv_contract_and_determinism(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        argv = ["sweep", "--config", cfg, "--axis", "threshold",
                "--values", "0.3,0.5", "--out", out1]
        assert main(argv) == EXIT_OK
        rows = read_csv(out1)
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) - 1 == 2 * 3 * 1   # values x methods x repeats
        methods = {r[2] for r in rows[1:]}
        assert methods == {"promil", "max", "mean"}
        assert all(r[-1] == "ok" for r in rows[1:])
        promil_rows = [r for r in rows[1:] if r[2] == "promil"]
        assert all(r[6] != "" for r in promil_rows)
        main(argv[:-1] + [out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_failed_cells_recorded_and_sweep_continues(self, tmp_path):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "s.csv")
        # threshold 0 is an invalid generator setting: those cells must fail
        assert main(["sweep", "--config", cfg, "--axis", "threshold",
                     "--values", "0.0,0.4", "--out", out]) == EXIT_OK
        rows = read_csv(out)[1:]
        bad = [r for r in rows if float(r[1]) == 0.0]
        good = [r for r in rows if float(r[1]) == 0.4]
        assert len(bad) == 3 and all(r[-1].startswith("error:") for r in bad)
        assert len(good) == 3 and all(r[-1] == "ok" for r in good)

    def test_reads_the_idx_files_once(self, tmp_path, monkeypatch):
        cfg = mnist_config(tmp_path)
        calls = []
        real_load_idx = cli.load_idx
        monkeypatch.setattr(cli, "load_idx", lambda *paths: calls.append(paths)
                            or real_load_idx(*paths))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        argv = ["sweep", "--config", cfg, "--axis", "threshold", "--values", "0.3,0.4",
                "--out", str(out1)]
        assert main(argv) == EXIT_OK
        assert [Path(p).name for pair in calls for p in pair] == [
            "train-images", "train-labels", "test-images", "test-labels"]
        rows = read_csv(out1)[1:]
        assert len(rows) == 2 * 2 * 3 and all(r[-1] == "ok" for r in rows)
        assert main(argv[:-1] + [str(out2)]) == EXIT_OK
        assert len(calls) == 4
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mnist, named", [
        ({"test_labels": "missing-labels"}, "missing-labels"),
        ({"train_images": None}, "mnist.train_images"),
    ])
    def test_bad_idx_path_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                  mnist, named):
        cfg = mnist_config(tmp_path, **mnist)
        monkeypatch.setattr(cli, "_train_once", lambda *a: pytest.fail("a cell ran"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--axis", "threshold", "--values", "0.3",
                     "--out", str(out)]) == EXIT_IO
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_axis_values_validation(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--axis", "threshold",
                     "--values", "", "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("bad", ["40.7", "inf", "nan"])
    def test_fractional_bag_count_rejected_before_any_cell(self, tmp_path, capsys,
                                                           monkeypatch, bad):
        cfg = small_config(tmp_path)
        monkeypatch.setattr(cli, "_generate_split", lambda *a: pytest.fail("a cell ran"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--axis", "n_bags",
                     "--values", f"40,{bad}", "--out", str(out)]) == EXIT_USAGE
        assert f"got {float(bad)}" in capsys.readouterr().err
        assert not out.exists()


class TestQuantileCommand:
    def test_single_number(self, capsys):
        assert main(["quantile", "0.7", "--q", "0.4"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.7, abs=1e-9)

    def test_linear_grid(self, capsys):
        numbers = [str(k / 10) for k in range(11)]
        assert main(["quantile", *numbers, "--q", "0.3"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.7, abs=1e-9)

    def test_matches_direct_summation(self, capsys):
        rng = np.random.default_rng(5)
        values = rng.uniform(size=9)
        q = 0.37
        assert main(["quantile", *map(str, values), "--q", str(q)]) == EXIT_OK
        printed = float(capsys.readouterr().out)
        with mpmath.workdps(50):
            n = len(values) - 1
            want = float(sum(
                mpmath.binomial(n, k) * mpmath.mpf(q) ** (n - k)
                * (1 - mpmath.mpf(q)) ** k * s
                for k, s in enumerate(sorted(values))
            ))
        assert printed == pytest.approx(want, abs=1e-9)

    def test_boundary_levels(self, capsys):
        main(["quantile", "0.2", "0.9", "0.4", "--q", "0"])
        assert float(capsys.readouterr().out) == 0.9
        main(["quantile", "0.2", "0.9", "0.4", "--q", "1"])
        assert float(capsys.readouterr().out) == 0.2

    def test_usage_errors(self, capsys):
        assert main(["quantile", "--q", "0.5"]) == EXIT_USAGE
        assert main(["quantile", "0.5", "--q", "1.5"]) == EXIT_USAGE
        assert main(["quantile", "0.5"]) == EXIT_USAGE   # missing --q
        for argv, message in [(["--q"], "argument --q: expected one argument"),
                              (["--q", "0.3", "--bogus"], "unrecognized arguments: --bogus"),
                              (["--q", "0.3", "-x"], "unrecognized arguments: -x")]:
            capsys.readouterr()
            assert main(["quantile", "0.5", *argv]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_number_rejected(self, bad, capsys):
        assert main(["quantile", "0.2", bad, "0.7", "--q", "0.3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert bad in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_bad_eps_rejected(self, bad, capsys):
        assert main(["quantile", "0.2", "0.7", "--q", "0.3", "--eps", bad]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("q", ["0", "1"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    def test_bad_eps_rejected_at_the_limit_levels(self, bad, q, capsys):
        assert main(["quantile", "0.2", "0.7", "--q", q, "--eps", bad]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"eps must be a finite number > 0, got {float(bad)}" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["0.5", "--q", "-inf"], "q must be a finite number >= 0 and <= 1, got -inf"),
        (["0.5", "--q", "-1e5"], "q must be a finite number >= 0 and <= 1, got -100000.0"),
        (["0.5", "--q", "0.3", "--eps", "-inf"], "eps must be a finite number > 0, got -inf"),
        (["-inf", "0.5", "--q", "0.3"], "values must be finite and in [0, 1], got -inf"),
        (["-1e-3", "0.5", "--q", "0.3"], "values must be finite and in [0, 1], got -0.001"),
        (["0.5", "--q", "-nan"], "q must be a finite number >= 0 and <= 1, got nan"),
    ])
    def test_negative_exponent_inf_and_nan_reach_the_range_check(self, argv, message, capsys):
        # argparse by itself reads -inf, -nan and -1e5 as options
        assert main(["quantile", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_negative_number_pattern_reads_what_float_reads(self):
        tokens = ["-1", "-1.", "-.5", "-1.5e-3", "-1E+7", "-1_000", "-inf", "-Infinity",
                  "-NaN", "-", "-x", "-e5", "-1e", "-1__0", "-_1", "-.", "-infx", "--q"]
        for token in tokens:
            try:
                float(token)
                reads = True
            except ValueError:
                reads = False
            assert bool(cli._NEGATIVE_NUMBER.match(token)) == reads, token

    @pytest.mark.parametrize("bad", ["5", "-0.25", "1.0000001"])
    def test_number_outside_unit_interval_rejected(self, bad, capsys):
        assert main(["quantile", "0.2", bad, "0.7", "--q", "0.3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(float(bad)) in captured.err


class TestParser:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE
