import json

import numpy as np
import pytest

from vastsum.data import (
    SyntheticConfig,
    dataset_to_dict,
    generate_synthetic,
    load_dataset,
    make_folds,
    save_dataset,
)
from vastsum.errors import ConfigError


def write(tmp_path, payload, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def valid_video(vid="v0", t=4, d=2):
    return {
        "id": vid,
        "n_frames": 8,
        "picks": [0, 2, 4, 6],
        "change_points": [[0, 3], [4, 7]],
        "features": [[0.1 * i] * d for i in range(t)],
        "scores": [[0.1, 0.2, 0.3, 0.4]],
    }


class TestLoadDataset:
    def test_well_formed_two_video_file(self, tmp_path):
        payload = {"mode": "tvsum", "videos": [valid_video("a"), valid_video("b")]}
        ds = load_dataset(write(tmp_path, payload))
        assert len(ds.videos) == 2
        assert ds.mode == "tvsum"
        assert ds.videos[0].features.shape == (4, 2)

    def test_partition_not_covering_names_video(self, tmp_path):
        bad = valid_video("broken")
        bad["change_points"] = [[0, 3], [4, 6]]
        payload = {"mode": "tvsum", "videos": [bad]}
        with pytest.raises(ValueError, match="broken"):
            load_dataset(write(tmp_path, payload))

    def test_annotation_length_mismatch(self, tmp_path):
        bad = valid_video()
        bad["scores"] = [[0.1, 0.2]]
        with pytest.raises(ValueError, match="does not match T"):
            load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [bad]}))

    def test_mixed_annotation_kinds_rejected(self, tmp_path):
        bad = valid_video()
        bad["summaries"] = [[0, 1, 0, 1]]
        with pytest.raises(ValueError, match="exactly one annotation kind"):
            load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [bad]}))

    def test_kind_must_match_mode(self, tmp_path):
        video = valid_video()
        with pytest.raises(ValueError, match="does not match mode"):
            load_dataset(write(tmp_path, {"mode": "summe", "videos": [video]}))

    def test_scores_out_of_range(self, tmp_path):
        bad = valid_video()
        bad["scores"] = [[0.1, 0.2, 0.3, 1.4]]
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [bad]}))

    def test_summaries_must_be_binary(self, tmp_path):
        bad = valid_video()
        del bad["scores"]
        bad["summaries"] = [[0, 1, 0.5, 1]]
        with pytest.raises(ValueError, match="binary"):
            load_dataset(write(tmp_path, {"mode": "summe", "videos": [bad]}))

    @pytest.mark.parametrize("mode, key", [("tvsum", "features"), ("tvsum", "scores"),
                                           ("summe", "summaries")])
    def test_integer_beyond_float_range_names_video_and_key(self, tmp_path, mode, key):
        # np.asarray raises OverflowError on a JSON integer past the float range
        bad = valid_video()
        if mode == "summe":
            bad["summaries"] = [[0, 1, 0, 1]]
            del bad["scores"]
        bad[key][0][0] = 10**400
        with pytest.raises(ValueError, match=f"^video 'v0': {key} must be numeric: int too large"):
            load_dataset(write(tmp_path, {"mode": mode, "videos": [bad]}))

    @pytest.mark.parametrize("bad_id, shown", [
        (float("nan"), "nan"), (True, "True"), (0, "0"), ({"k": 1}, "{'k': 1}"), ("", "''"),
        (None, "None"), (10**20, "100000000000000000000"),
    ], ids=["nan", "true", "zero", "object", "empty", "null", "20-digit"])
    def test_id_must_be_a_non_empty_string(self, tmp_path, bad_id, shown):
        bad = valid_video()
        bad["id"] = bad_id
        payload = {"mode": "tvsum", "videos": [valid_video("a"), bad]}
        with pytest.raises(ValueError) as info:
            load_dataset(write(tmp_path, payload))
        assert str(info.value) == f"videos[1]: id must be a non-empty string, got {shown}"

    def test_integral_floats_load_to_the_same_record(self, tmp_path):
        # JSON 2.0 passes the integral check and is converted before the
        # timeline objects, which take integers only, are built
        floats = valid_video()
        floats["n_frames"] = 8.0
        floats["picks"] = [0.0, 2.0, 4.0, 6.0]
        floats["change_points"] = [[0.0, 3.0], [4.0, 7.0]]
        want = load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [valid_video()]}, "ints.json"))
        got = load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [floats]}))
        assert dataset_to_dict(got) == dataset_to_dict(want)
        video = got.videos[0]
        assert (video.n_frames, video.picks, video.change_points) == (8, want.videos[0].picks,
                                                                     want.videos[0].change_points)
        assert all(type(x) is int for x in (*video.picks.picks, *sum(video.change_points.segments, ()),
                                             video.n_frames, video.change_points.n_frames))

    def test_pick_outside_frames(self, tmp_path):
        bad = valid_video()
        bad["picks"] = [0, 2, 4, 9]
        with pytest.raises(ValueError, match="outside"):
            load_dataset(write(tmp_path, {"mode": "tvsum", "videos": [bad]}))

    def test_inconsistent_feature_dims(self, tmp_path):
        second = valid_video("b", d=3)
        payload = {"mode": "tvsum", "videos": [valid_video("a"), second]}
        with pytest.raises(ValueError, match="feature dim"):
            load_dataset(write(tmp_path, payload))

    def test_duplicate_ids(self, tmp_path):
        payload = {"mode": "tvsum", "videos": [valid_video("a"), valid_video("a")]}
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(write(tmp_path, payload))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot parse"):
            load_dataset(path)

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            load_dataset(write(tmp_path, {"mode": "other", "videos": [valid_video()]}))


class TestGenerateSynthetic:
    def test_zero_annotator_noise_gives_identical_rows(self):
        cfg = SyntheticConfig(n_videos=2, annotators=3, annotator_noise=0.0, seed=1)
        ds = generate_synthetic(cfg)
        for video in ds.videos:
            for row in video.annotations[1:]:
                assert np.array_equal(row, video.annotations[0])

    def test_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(generate_synthetic(cfg), a)
        save_dataset(generate_synthetic(SyntheticConfig(seed=9)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_through_file(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_videos=3, seed=4))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded.videos) == 3
        for orig, back in zip(ds.videos, loaded.videos):
            np.testing.assert_array_equal(orig.features, back.features)
            np.testing.assert_array_equal(orig.annotations, back.annotations)

    def test_importance_linearly_recoverable(self):
        ds = generate_synthetic(SyntheticConfig(seed=11))
        rows, targets = [], []
        for video in ds.videos:
            rows.append(video.features)
            targets.append(video.annotations.mean(axis=0))
        x = np.concatenate(rows)
        x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        y = np.concatenate(targets)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        r2 = 1.0 - resid.var() / y.var()
        assert r2 > 0.9

    def test_summe_mode_binary(self):
        ds = generate_synthetic(SyntheticConfig(mode="summe", seed=3))
        assert ds.mode == "summe"
        for video in ds.videos:
            assert np.all(np.isin(video.annotations, (0.0, 1.0)))

    @pytest.mark.parametrize(
        "field, value",
        [("feature_noise", float("nan")), ("feature_noise", -0.1),
         ("annotator_noise", float("inf")), ("annotator_noise", float("nan")), ("seed", -1)],
    )
    def test_bad_noise_or_seed_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"synthetic.{field} must be"):
            generate_synthetic(SyntheticConfig(**{field: value}))

    def test_segments_bounded_by_timesteps(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(segments=20, timesteps=10)).videos

    def test_every_segment_has_a_pick(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=4, segments=6, seed=21))
        from vastsum.timeline import assign_segment_ids

        for video in ds.videos:
            seg = assign_segment_ids(video.picks, video.change_points)
            counts = np.bincount(seg.segment_ids, minlength=seg.n_segments)
            assert counts.min() >= 1


class TestMakeFolds:
    def test_ten_videos_five_folds(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=10, timesteps=8, segments=2, seed=0))
        folds = make_folds(ds, k=5, seed=1)
        assert len(folds) == 5
        all_test = [vid for _, test in folds for vid in test]
        assert sorted(all_test) == sorted(v.video_id for v in ds.videos)
        for train, test in folds:
            assert len(test) == 2
            assert not set(train) & set(test)
            assert len(train) + len(test) == 10

    def test_remainder_goes_to_early_folds(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=11, timesteps=8, segments=2, seed=0))
        folds = make_folds(ds, k=5, seed=1)
        assert [len(test) for _, test in folds] == [3, 2, 2, 2, 2]

    def test_single_fold_rejected(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=4, timesteps=8, segments=2, seed=0))
        with pytest.raises(ValueError, match="train set"):
            make_folds(ds, k=1)

    def test_too_few_videos(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=3, timesteps=8, segments=2, seed=0))
        with pytest.raises(ValueError, match="cannot make"):
            make_folds(ds, k=5)

    def test_seeded_shuffle_reproducible(self):
        ds = generate_synthetic(SyntheticConfig(n_videos=10, timesteps=8, segments=2, seed=0))
        assert make_folds(ds, k=5, seed=3) == make_folds(ds, k=5, seed=3)


class TestSerialization:
    def test_summe_summaries_serialized_as_ints(self):
        ds = generate_synthetic(SyntheticConfig(mode="summe", n_videos=1, seed=2))
        doc = dataset_to_dict(ds)
        flat = [x for row in doc["videos"][0]["summaries"] for x in row]
        assert all(isinstance(x, int) for x in flat)
