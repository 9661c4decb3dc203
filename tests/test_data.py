"""PPM codec, resize, directory loader, and synthetic dataset tests."""

import numpy as np
import pytest

from fvig.data import (
    DatasetError,
    bilinear_resize,
    decode_ppm_bytes,
    encode_ppm,
    load_dataset,
    read_ppm,
    synth_dataset,
    write_ppm,
)

# 2x2 image: red, green / blue, white
PPM_2X2 = b"P6\n2 2\n255\n" + bytes(
    [255, 0, 0, 0, 255, 0,
     0, 0, 255, 255, 255, 255]
)


class TestPpmDecode:
    def test_crafted_two_by_two(self):
        img = decode_ppm_bytes(PPM_2X2)
        assert img.shape == (3, 2, 2)
        np.testing.assert_array_equal(img[0], [[1.0, 0.0], [0.0, 1.0]])  # red channel
        np.testing.assert_array_equal(img[1], [[0.0, 1.0], [0.0, 1.0]])  # green channel
        np.testing.assert_array_equal(img[2], [[0.0, 0.0], [1.0, 1.0]])  # blue channel

    def test_header_comments_and_whitespace(self):
        data = b"P6 # a comment\n# another\n  2\t2 # trailing\n255\n" + PPM_2X2[-12:]
        img = decode_ppm_bytes(data)
        np.testing.assert_array_equal(img, decode_ppm_bytes(PPM_2X2))

    def test_maxval_scaling(self):
        data = b"P6\n1 1\n100\n" + bytes([50, 100, 0])
        img = decode_ppm_bytes(data)
        np.testing.assert_allclose(img[:, 0, 0], [0.5, 1.0, 0.0])

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(DatasetError, match="sample 200 exceeds maxval 100 in 'hot.ppm'"):
            decode_ppm_bytes(b"P6\n1 1\n100\n" + bytes([50, 200, 0]), name="hot.ppm")

    def test_truncated_header_names_source(self):
        with pytest.raises(DatasetError, match="truncated PPM header in 'weird.ppm'"):
            decode_ppm_bytes(b"P6\n2 ", name="weird.ppm")

    def test_truncated_raster(self):
        with pytest.raises(DatasetError, match="truncated PPM raster"):
            decode_ppm_bytes(b"P6\n2 2\n255\n" + bytes(5))

    def test_wrong_magic(self):
        with pytest.raises(DatasetError, match="not a binary P6"):
            decode_ppm_bytes(b"P3\n1 1\n255\n0 0 0")

    def test_sixteen_bit_unsupported(self):
        with pytest.raises(DatasetError, match="maxval"):
            decode_ppm_bytes(b"P6\n1 1\n65535\n" + bytes(6))

    def test_non_numeric_header(self):
        with pytest.raises(DatasetError, match="non-numeric"):
            decode_ppm_bytes(b"P6\nwide tall\n255\n")

    @pytest.mark.parametrize(
        "header",
        [b"  # lead\nP6 2 2 255\n", b"P6\r2\r2\r255\r"],
        ids=["leading-comment", "cr-separators"],
    )
    def test_header_grammar_decodes(self, header):
        np.testing.assert_array_equal(decode_ppm_bytes(header + PPM_2X2[-12:]), decode_ppm_bytes(PPM_2X2))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P6 2#c\n2 255\n", "non-numeric PPM header field"),
            (b"", "truncated PPM header"),
            (b"# only a comment", "truncated PPM header"),
            (b"P5", "not a binary P6 PPM"),  # the magic is checked before the missing fields
            (b"P6 2 2 255", r"truncated PPM raster .* have 0"),
        ],
        ids=["comment-inside-field", "empty", "comment-only", "magic-first", "no-raster"],
    )
    def test_header_grammar_rejects(self, data, message):
        with pytest.raises(DatasetError, match=message):
            decode_ppm_bytes(data)

    def test_encode_decode_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        img = np.round(rng.random((3, 5, 7)) * 255) / 255.0
        np.testing.assert_allclose(decode_ppm_bytes(encode_ppm(img)), img, atol=1e-12)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(PPM_2X2)
        img = read_ppm(path)
        write_ppm(tmp_path / "copy.ppm", img)
        assert (tmp_path / "copy.ppm").read_bytes() == PPM_2X2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            read_ppm(tmp_path / "nope.ppm")


class TestResize:
    def test_same_size_is_exact_copy(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 8, 8))
        out = bilinear_resize(img, 8)
        np.testing.assert_array_equal(out, img)
        assert out is not img

    def test_constant_image_stays_constant(self):
        img = np.full((3, 4, 4), 0.37)
        np.testing.assert_allclose(bilinear_resize(img, 9), 0.37, atol=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.random((3, 5, 7))
        size = 4
        out = bilinear_resize(img, size)

        def sample(channel, y, x):
            sy = min(max((y + 0.5) * (5 / size) - 0.5, 0.0), 4.0)
            sx = min(max((x + 0.5) * (7 / size) - 0.5, 0.0), 6.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, 4), min(x0 + 1, 6)
            fy, fx = sy - y0, sx - x0
            top = img[channel, y0, x0] * (1 - fx) + img[channel, y0, x1] * fx
            bot = img[channel, y1, x0] * (1 - fx) + img[channel, y1, x1] * fx
            return top * (1 - fy) + bot * fy

        for c in range(3):
            for y in range(size):
                for x in range(size):
                    assert out[c, y, x] == sample(c, y, x)  # the same arithmetic in the same order

    def test_range_preserved(self):
        rng = np.random.default_rng(3)
        img = rng.random((3, 6, 6))
        out = bilinear_resize(img, 13)
        assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12


class TestLoadDataset:
    def _write_class(self, root, name, count=2, value=128):
        d = root / name
        d.mkdir(parents=True)
        for i in range(count):
            pixels = bytes([value, value, value] * 4)
            (d / f"{i}.ppm").write_bytes(b"P6\n2 2\n255\n" + pixels)

    def test_lexicographic_label_order(self, tmp_path):
        self._write_class(tmp_path, "b")
        self._write_class(tmp_path, "a")
        split = load_dataset(tmp_path, image_size=2)
        assert split.class_names == ["a", "b"]
        labels_by_source = {src: label for _, label, src in split.items}
        assert all(label == 0 for src, label in labels_by_source.items() if "/a/" in src)
        assert all(label == 1 for src, label in labels_by_source.items() if "/b/" in src)

    def test_counts_and_resize(self, tmp_path):
        self._write_class(tmp_path, "a", count=3)
        self._write_class(tmp_path, "b", count=2)
        split = load_dataset(tmp_path, image_size=4)
        assert len(split) == 5
        assert all(img.shape == (3, 4, 4) for img, _, _ in split.items)

    def test_empty_class_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DatasetError, match="no .ppm images"):
            load_dataset(tmp_path, image_size=2)

    def test_corrupt_file_names_path(self, tmp_path):
        self._write_class(tmp_path, "a")
        bad = tmp_path / "a" / "broken.ppm"
        bad.write_bytes(b"P6\n9 9\n255\nshort")
        with pytest.raises(DatasetError, match="broken.ppm"):
            load_dataset(tmp_path, image_size=2)

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            load_dataset(tmp_path / "nope", image_size=2)

    def test_no_class_dirs(self, tmp_path):
        with pytest.raises(DatasetError, match="no class directories"):
            load_dataset(tmp_path, image_size=2)


class TestSynthDataset:
    def test_deterministic_given_seed(self):
        a = synth_dataset(seed=5, num_classes=3, per_class=4, size=16)
        b = synth_dataset(seed=5, num_classes=3, per_class=4, size=16)
        ia, la = a.stack()
        ib, lb = b.stack()
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(la, lb)

    def test_different_seed_differs(self):
        a, _ = synth_dataset(seed=1, num_classes=2, per_class=2, size=8).stack()
        b, _ = synth_dataset(seed=2, num_classes=2, per_class=2, size=8).stack()
        assert not np.array_equal(a, b)

    def test_counts(self):
        split = synth_dataset(seed=0, num_classes=3, per_class=20, size=32)
        assert len(split) == 60
        _, labels = split.stack()
        assert np.bincount(labels).tolist() == [20, 20, 20]

    def test_class_names_sorted(self):
        split = synth_dataset(seed=0, num_classes=11, per_class=1, size=8)
        assert split.class_names == sorted(split.class_names)

    def test_values_in_unit_range(self):
        images, _ = synth_dataset(seed=3, num_classes=2, per_class=3, size=16).stack()
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_histogram_probe_beats_chance(self):
        split = synth_dataset(seed=9, num_classes=3, per_class=20, size=16)
        images, labels = split.stack()

        def histogram_features(batch):
            feats = []
            for img in batch:
                per_channel = [np.histogram(img[c], bins=8, range=(0, 1))[0] for c in range(3)]
                feats.append(np.concatenate(per_channel) / img[0].size)
            return np.array(feats)

        train_idx = np.arange(0, 60, 2)
        test_idx = np.arange(1, 60, 2)
        x_train = histogram_features(images[train_idx])
        x_test = histogram_features(images[test_idx])
        one_hot = np.eye(3)[labels[train_idx]]
        # least-squares linear probe on histogram features
        w, *_ = np.linalg.lstsq(np.hstack([x_train, np.ones((len(x_train), 1))]), one_hot, rcond=None)
        preds = (np.hstack([x_test, np.ones((len(x_test), 1))]) @ w).argmax(axis=1)
        accuracy = (preds == labels[test_idx]).mean()
        assert accuracy > 0.55  # chance is 1/3

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, num_classes=1, per_class=5, size=8)
        with pytest.raises(ValueError):
            synth_dataset(seed=0, num_classes=2, per_class=0, size=8)
