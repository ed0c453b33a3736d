import inspect
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbias import config as config_module
from fedbias.config import ExperimentConfig, load_config, parse_config
from fedbias.data import NUM_CLIENTS, TEST_FRACTION, Dataset, SyntheticSpec, partition
from fedbias.exceptions import ConfigurationError
from fedbias.federation import FederationConfig, Mode
from fedbias.nn import OptimizerConfig, OptimizerKind
from fedbias.seeding import MASTER_SEED

_BASE = {
    "data.num_classes": "2",
    "data.num_groups": "2",
    "data.feature_dim": "3",
    "data.samples_per_group": "50",
}

MINIMAL = "".join(f"{key} = {value}\n" for key, value in _BASE.items())


def cfg(text=None, **extra) -> ExperimentConfig:
    if text is not None:
        return parse_config(text)
    entries = dict(_BASE)
    for key, value in extra.items():
        entries[key.replace("__", ".")] = value
    return parse_config("".join(f"{k} = {v}\n" for k, v in entries.items()))


class TestParsing:
    def test_defaults(self):
        assert cfg() == ExperimentConfig(
            source="synthetic",
            num_classes=2,
            num_groups=2,
            feature_dim=3,
            samples_per_group=50,
            bias_strength=0.0,
            group_shift=0.0,
            noise_sigma=1.0,
            csv_path=None,
            test_fraction=0.2,
            hidden_widths=(16,),
            rounds=30,
            num_clients=5,
            local_epochs=3,
            batch_size=128,
            optimizer_kind=OptimizerKind.ADAM,
            learning_rate=1e-4,
            weight_decay=3e-4,
            modes=(Mode.DBFED,),
            master_seed=0,
            eval_every=1,
            output_path=None,
        )
        # Defaults the library types declare are read from them.
        assert cfg().federation_config().optimizer == OptimizerConfig()

    def test_constructor_takes_every_field_in_order_without_defaults(self):
        params = inspect.signature(ExperimentConfig).parameters.values()
        assert [p.name for p in params] == [
            "source", "num_classes", "num_groups", "feature_dim", "samples_per_group",
            "bias_strength", "group_shift", "noise_sigma", "csv_path", "test_fraction",
            "hidden_widths", "rounds", "num_clients", "local_epochs", "batch_size",
            "optimizer_kind", "learning_rate", "weight_decay", "modes",
            "master_seed", "eval_every", "output_path",
        ]
        assert all(p.default is inspect.Parameter.empty for p in params)

    def test_comments_and_blank_lines_ignored(self):
        c = parse_config(
            "# leading comment\n\ndata.num_classes = 3\n"
            "data.num_groups = 2\ndata.feature_dim = 4\ndata.samples_per_group = 10\n"
        )
        assert c.num_classes == 3

    def test_unknown_key_reports_line(self):
        # A misspelt key, and a key that no longer exists (Adam's
        # constants are fixed).
        for line in ["data.num_classses = 2", "optimizer.beta1 = 0.9"]:
            key = re.escape(line.split(" = ")[0])
            with pytest.raises(ConfigurationError, match=f"^line 5: unknown key '{key}'$"):
                cfg(MINIMAL + line + "\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigurationError, match=r"line 5.*duplicate"):
            cfg(MINIMAL + "data.num_classes = 4\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigurationError, match=r"line 2"):
            parse_config("data.num_classes = 2\nno equals sign here\n")

    @pytest.mark.parametrize(
        "key,value,error",
        [
            pytest.param(
                "data.num_classes", "two", "invalid literal for int() with base 10: 'two'", id="two"
            ),
            pytest.param("federation.rounds", "-1", "must be >= 0, got -1", id="rounds"),
            *(
                pytest.param(f"federation.{key}", "0", "must be >= 1, got 0", id=key)
                for key in ("clients", "local_epochs", "batch_size")
            ),
            pytest.param("data.num_classes", "1", "must be >= 2, got 1", id="num_classes"),
            *(
                pytest.param(key, "0", "must be >= 1, got 0", id=key.split(".")[1])
                for key in (
                    "data.num_groups",
                    "data.feature_dim",
                    "data.samples_per_group",
                    "run.eval_every",
                )
            ),
            pytest.param("run.master_seed", "-1", "must be >= 0, got -1", id="master_seed"),
            *(
                pytest.param(key, value, f"must be finite, got {value}", id=f"{key}-{value}")
                for key in (
                    "optimizer.learning_rate",
                    "optimizer.weight_decay",
                    "data.noise_sigma",
                    "data.group_shift",
                )
                for value in ("nan", "inf")
            ),
            pytest.param("data.bias_strength", "-0.1", "must be in [0, 1], got -0.1", id="beta"),
            pytest.param("data.bias_strength", "1.5", "must be in [0, 1], got 1.5", id="beta-1.5"),
            pytest.param("data.group_shift", "-1", "must be >= 0, got -1.0", id="group_shift"),
            pytest.param("data.noise_sigma", "0", "must be > 0, got 0.0", id="noise_sigma"),
            pytest.param("data.test_fraction", "0", "must be in (0, 1), got 0.0", id="fraction-0"),
            pytest.param("data.test_fraction", "1", "must be in (0, 1), got 1.0", id="fraction-1"),
            pytest.param("optimizer.learning_rate", "-1", "must be >= 0, got -1.0", id="lr"),
            pytest.param("optimizer.weight_decay", "-0.5", "must be >= 0, got -0.5", id="wd"),
        ],
    )
    def test_bad_value_reports_line(self, key, value, error):
        message = f"line 1: {key}: {error}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(f"{key} = {value}\n")

    def test_float_keys_accept_their_bounds(self):
        c = cfg(
            data__bias_strength="1", data__group_shift="0", data__noise_sigma="1e-300",
            optimizer__learning_rate="0", optimizer__weight_decay="0",
        )
        assert (c.bias_strength, c.group_shift, c.noise_sigma) == (1.0, 0.0, 1e-300)
        assert (c.learning_rate, c.weight_decay) == (0.0, 0.0)
        assert cfg(data__bias_strength="0").bias_strength == 0.0

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match=r"data\.num_groups"):
            parse_config("data.num_classes = 2\n")

    def test_synthetic_requires_shape_keys(self):
        with pytest.raises(ConfigurationError, match=r"feature_dim"):
            parse_config(
                "data.num_classes = 2\ndata.num_groups = 2\ndata.samples_per_group = 10\n"
            )

    def test_csv_source_requires_path(self):
        with pytest.raises(ConfigurationError, match=r"csv_path"):
            parse_config("data.source = csv\ndata.num_classes = 2\ndata.num_groups = 2\n")

    def test_unknown_source_rejected(self):
        message = "line 5: data.source: unknown source 'sql' (choose from synthetic, csv)"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            cfg(data__source="sql")
        # A config built directly is checked by its constructor.
        message = r"^data\.source must be 'synthetic' or 'csv', got 'sql'$"
        with pytest.raises(ConfigurationError, match=message):
            replace(cfg(), source="sql")

    def test_source_matches_in_lowercase(self, tmp_path):
        c = cfg(
            "data.source = CSV\ndata.num_classes = 2\ndata.num_groups = 2\n"
            f"data.csv_path = {tmp_path / 'x.csv'}\n"
        )
        assert c.source == "csv"

    def test_hidden_widths_variants(self):
        assert cfg(model__hidden="32,16").hidden_widths == (32, 16)
        assert cfg(model__hidden="8").hidden_widths == (8,)
        assert cfg(model__hidden="none").hidden_widths == ()
        with pytest.raises(ConfigurationError):
            cfg(model__hidden="16,-4")

    def test_modes_parsing(self):
        c = cfg(run__modes="fedavg,local,dbfed")
        assert c.modes == (Mode.FEDAVG_PLAIN, Mode.LOCAL_ONLY, Mode.DBFED)
        with pytest.raises(ConfigurationError):
            cfg(run__modes="fedavg,secure")
        with pytest.raises(ConfigurationError, match=r"repeat"):
            cfg(run__modes="dbfed,dbfed")
        message = r"^line 5: run\.modes: unknown mode '' \(choose from fedavg, local, dbfed\)$"
        with pytest.raises(ConfigurationError, match=message):
            cfg(run__modes="")

    def test_optimizer_kind_parsing(self):
        assert cfg(optimizer__kind="SGD").optimizer_kind == OptimizerKind.SGD
        message = "line 5: optimizer.kind: unknown optimizer 'rmsprop' (choose from sgd, adam)"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            cfg(optimizer__kind="rmsprop")

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            cfg(data__test_fraction="0.0")
        with pytest.raises(ConfigurationError):
            cfg(data__test_fraction="1.0")
        # A config built directly is checked by its constructor.
        with pytest.raises(ConfigurationError, match=r"test_fraction"):
            replace(cfg(), test_fraction=1.0)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        assert load_config(path).num_classes == 2


class TestDerivedObjects:
    def test_with_overrides(self):
        c = cfg()
        assert c.with_master_seed(42).master_seed == 42
        assert replace(c, modes=(Mode.LOCAL_ONLY,)).modes == (Mode.LOCAL_ONLY,)
        # Originals untouched.
        assert c.master_seed == 0

    def test_federation_config_carries_the_hidden_widths(self):
        # The rest of a federation's network comes from its data and its mode.
        assert cfg(model__hidden="5,4").federation_config().hidden_widths == (5, 4)
        assert cfg(model__hidden="none").federation_config().hidden_widths == ()

    def test_federation_config_carries_settings(self):
        c = cfg(federation__rounds="4", federation__local_epochs="2", run__eval_every="3")
        fc = c.federation_config()
        assert (fc.rounds, fc.local_epochs, fc.batch_size, fc.eval_every) == (4, 2, 128, 3)
        assert fc.optimizer == OptimizerConfig(OptimizerKind.ADAM, 1e-4, 3e-4)
        assert fc.hidden_widths == (16,)

    def test_negative_master_seed_rejected(self):
        # A config line is refused with its line number; an override has
        # none, and the constructor refuses it.
        message = r"^line 5: run\.master_seed: must be >= 0, got -3$"
        with pytest.raises(ConfigurationError, match=message):
            cfg(run__master_seed="-3")
        with pytest.raises(ConfigurationError, match=r"^run\.master_seed must be >= 0, got -3$"):
            cfg().with_master_seed(-3)
        assert cfg().with_master_seed(0).master_seed == 0

    def test_synthetic_seed_tracks_master_seed(self):
        a = cfg().synthetic_spec()
        b = cfg(run__master_seed="1").synthetic_spec()
        assert a.seed != b.seed
        assert a.seed == cfg().synthetic_spec().seed

    def test_synthetic_spec_unavailable_for_csv(self, tmp_path):
        c = cfg(
            "data.source = csv\ndata.num_classes = 2\ndata.num_groups = 2\n"
            f"data.csv_path = {tmp_path / 'x.csv'}\n"
        )
        with pytest.raises(ConfigurationError):
            c.synthetic_spec()

    def test_split_and_partition_sizes(self):
        c = cfg(federation__clients="4")
        parts, test = c.split_and_partition(c.load_dataset())
        # 2 groups x 50 samples, 20% test.
        assert len(test) == 20
        assert sorted(len(p) for p in parts) == [20, 20, 20, 20]

    def test_split_rejects_empty_test(self):
        c = cfg(data__samples_per_group="1", data__test_fraction="0.05")
        with pytest.raises(ConfigurationError, match=r"test split"):
            c.split_and_partition(c.load_dataset())


def _library(cls, **base):
    """Builds ``cls`` from ``base`` with field ``name`` set to a value."""
    return lambda name, value: cls(**{**base, name: value})


_SPEC = _library(SyntheticSpec, num_classes=2, num_groups=2, feature_dim=3, samples_per_group=10)
_RUN = _library(
    FederationConfig,
    rounds=1, local_epochs=1, batch_size=8, optimizer=OptimizerConfig(), hidden_widths=(),
)
_TWENTY = Dataset(np.zeros((20, 1)), np.zeros(20, int), np.zeros(20, int), 2, 1)

# Each numeric key and what takes its value: the library dataclass the key
# feeds, or, for a key that no library type takes, the ExperimentConfig
# constructor, or ``partition``, which is left to refuse the client count.
TAKERS = {
    "data.num_classes": _SPEC,
    "data.num_groups": _SPEC,
    "data.feature_dim": _SPEC,
    "data.samples_per_group": _SPEC,
    "data.bias_strength": _SPEC,
    "data.group_shift": _SPEC,
    "data.noise_sigma": _SPEC,
    "data.test_fraction": lambda name, value: replace(cfg(), **{name: value}),
    "federation.rounds": _RUN,
    "federation.clients": lambda name, value: partition(_TWENTY, value, 0),
    "federation.local_epochs": _RUN,
    "federation.batch_size": _RUN,
    "optimizer.learning_rate": _library(OptimizerConfig),
    "optimizer.weight_decay": _library(OptimizerConfig),
    "run.master_seed": lambda name, value: replace(cfg(), **{name: value}),
    "run.eval_every": _RUN,
}
FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
_SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-300]


class TestBoundsAgree:
    def test_every_numeric_key_is_drawn(self):
        numeric = {key for key, f in FIELDS.items() if f.type.split(" |")[0] in ("int", "float")}
        assert numeric == set(TAKERS)

    def test_own_keys_hold_the_bound_their_library_function_declares(self):
        # One declaration each: train_test_split, partition and run_lockstep
        # refuse through the very bound the key is held to.
        bounds = config_module._BOUNDS
        assert bounds["test_fraction"] is TEST_FRACTION
        assert bounds["num_clients"] is NUM_CLIENTS
        assert bounds["master_seed"] is MASTER_SEED

    @pytest.mark.parametrize("key", sorted(TAKERS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_key_refuses_what_its_taker_refuses(self, key, data):
        # Integers are drawn around the bounds (0, 1 and 2); floats include
        # nan, the infinities, -0.0 and subnormals. A value refused on either
        # side is refused on both, the config naming the key's line.
        f = FIELDS[key]
        if f.type == "float":
            values = st.one_of(st.sampled_from(_SPECIAL), st.floats(-2, 2), st.floats())
        else:
            values = st.integers(-4, 6)
        value = data.draw(values)
        try:
            TAKERS[key](f.name, value)
        except ConfigurationError:
            refused = True
        else:
            refused = False
        rest = "".join(f"{k} = {v}\n" for k, v in _BASE.items() if k != key)
        if refused:
            message = f"^line 1: {re.escape(key)}: must be .*, got {re.escape(str(value))}$"
            with pytest.raises(ConfigurationError, match=message):
                parse_config(f"{key} = {value!r}\n{rest}")
        else:
            assert getattr(parse_config(f"{key} = {value!r}\n{rest}"), f.name) == value
