import pytest

from sublm.config import TrainConfig, parse_config
from sublm.errors import ConfigError


class TestParse:
    def test_basic_and_comments(self):
        cfg = parse_config("""
# a comment
variant = syl-sum
d_s = 64
d_lm = 128
lr = 0.5   # inline comment
""")
        assert cfg.variant == "syl-sum"
        assert cfg.d_s == 64 and cfg.d_lm == 128
        assert cfg.lr == 0.5

    def test_scale_presets(self):
        small = parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\n")
        assert (small.max_epochs, small.batch_size, small.bptt) == (50, 20, 70)
        large = parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nscale = data-l\n")
        assert (large.max_epochs, large.batch_size, large.bptt) == (25, 100, 35)

    def test_explicit_overrides_preset(self):
        cfg = parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nbptt = 12\n")
        assert cfg.bptt == 12 and cfg.batch_size == 20

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nmomentum = 0.9\n")
        assert "momentum" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("d_s = 4\nd_s = 5\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("this is not a config\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("d_s = many\n")

    def test_budget_scientific_notation(self):
        cfg = parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nbudget = 5e6\n")
        assert cfg.budget == 5_000_000

    @pytest.mark.parametrize("line", ["d_lm = 300.7", "batch_size = 2.5"])
    def test_non_integral_int_rejected(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"line 3: cannot parse {key}"):
            parse_config(f"variant = syl-sum\nd_s = 4\n{line}\n")

    def test_large_int_stays_exact(self):
        cfg = parse_config(f"budget = {10 ** 20 + 1}\n")
        assert cfg.budget == 10 ** 20 + 1

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\ndropout = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nsoftmax = nce\n")
        with pytest.raises(ConfigError):
            parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nscale = data-xl\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lr", "clip_norm", "init_range", "sample_fraction",
                                     "budget_tolerance"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            parse_config(f"variant = syl-sum\nd_s = 4\nd_lm = 4\n{key} = {value}\n")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget must be non-negative, got -5"):
            parse_config("variant = syl-sum\nd_s = 4\nd_lm = 4\nbudget = -5\n")

    def test_roundtrip_through_dict(self):
        cfg = parse_config("variant = syl-avg-b\nd_s = 32\nd_lm = 48\nseed = 7\n")
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"variant": "syl-sum", "optimizer": "adam"})

    @pytest.mark.parametrize("values", [{"seed": True}, {"d_s": 1.0}, {"variant": 3},
                                        {"lr": "1.0"}, {"budget": None}],
                             ids=["bool-for-int", "float-for-int", "int-for-str",
                                  "str-for-float", "null-for-int"])
    def test_from_dict_rejects_a_value_of_the_wrong_type(self, values):
        with pytest.raises(ConfigError, match=repr(next(iter(values)))):
            TrainConfig.from_dict(values)

    def test_from_dict_takes_an_int_for_a_float(self):
        assert TrainConfig.from_dict({"lr": 2}).lr == 2.0
