"""Tests for the AMReX inputs-file parser."""

import pytest

from repro.sim.inputs import (
    DEFAULT_SEDOV_INPUTS,
    CastroInputs,
    InputsFile,
    parse_inputs,
)


class TestParser:
    def test_key_value(self):
        inp = parse_inputs("amr.max_level = 3\n")
        assert inp.get_int("amr.max_level") == 3

    def test_multiple_values(self):
        inp = parse_inputs("amr.n_cell = 32 64\n")
        assert inp.get_int_pair("amr.n_cell") == (32, 64)

    def test_comments_stripped(self):
        inp = parse_inputs("# a comment\ncastro.cfl = 0.5 # inline\n\n")
        assert inp.get_float("castro.cfl") == 0.5

    def test_string_values(self):
        inp = parse_inputs("amr.plot_file = my_plt\namr.derive_plot_vars = ALL\n")
        assert inp.get_str("amr.plot_file") == "my_plt"
        assert inp.get_str("amr.derive_plot_vars") == "ALL"

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_inputs("this is not a key value pair\n")

    def test_autotyping(self):
        inp = parse_inputs("k = 3 0.5 text\n")
        vals = inp.raw("k")
        assert vals == [3, 0.5, "text"]

    def test_defaults_on_missing(self):
        inp = parse_inputs("")
        assert inp.get_int("nope", 7) == 7
        with pytest.raises(KeyError):
            inp.get_int("nope")

    def test_render_roundtrip(self):
        inp = parse_inputs("a.b = 1 2\nc = x\n")
        again = parse_inputs(inp.render())
        assert again.raw("a.b") == [1, 2]
        assert again.get_str("c") == "x"

    def test_set(self):
        inp = InputsFile()
        inp.set("amr.plot_int", 5)
        assert inp.get_int("amr.plot_int") == 5


class TestListing2:
    """The paper's Appendix B configuration must parse to Castro's values."""

    def test_full_listing(self):
        ci = CastroInputs.from_inputs(parse_inputs(DEFAULT_SEDOV_INPUTS))
        assert ci.max_step == 500
        assert ci.stop_time == 0.1
        assert ci.n_cell == (32, 32)
        assert ci.max_level == 3
        assert ci.regrid_int == 2
        assert ci.blocking_factor == 8
        assert ci.max_grid_size == 256
        assert ci.plot_int == 20
        assert ci.plot_file == "sedov_2d_cyl_in_cart_plt"
        assert ci.check_int == 20
        assert ci.cfl == 0.5
        assert ci.init_shrink == 0.01
        assert ci.change_max == 1.1
        assert ci.lo_bc == (2, 2)  # outflow
        assert ci.derive_plot_vars == "ALL"

    def test_sedov_default_shortcut(self):
        assert CastroInputs.sedov_default() == CastroInputs.from_inputs(
            parse_inputs(DEFAULT_SEDOV_INPUTS)
        )

    def test_empty_inputs_take_the_dataclass_defaults(self):
        """The field defaults are Listing 2's values, and ``from_inputs``
        falls back to them for every key an inputs file leaves out."""
        assert (CastroInputs.from_inputs(parse_inputs(""))
                == CastroInputs() == CastroInputs.sedov_default())


class TestCastroInputs:
    def test_derived_quantities(self):
        ci = CastroInputs(n_cell=(512, 512), max_step=200, plot_int=10)
        assert ci.ncells_l0 == 512 * 512
        assert ci.n_outputs == 21  # step 0 + 20 dumps
        assert ci.nlevels == 4

    def test_table_i_parameters(self):
        """Table I: the five varied knobs."""
        t = CastroInputs().table_i_parameters()
        assert set(t) == {
            "amr.max_step", "amr.n_cell", "amr.max_level",
            "amr.plot_int", "castro.cfl",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            CastroInputs(plot_int=0)
        with pytest.raises(ValueError):
            CastroInputs(max_step=-1)

    @pytest.mark.parametrize("field,value", [
        ("cfl", -0.5), ("cfl", 0.0), ("cfl", float("nan")), ("cfl", float("inf")),
        ("init_shrink", -1.0), ("init_shrink", 0.0), ("init_shrink", float("nan")),
        ("change_max", 0.0), ("change_max", -1.1), ("change_max", float("nan")),
    ])
    def test_rejects_non_physical_step_inputs(self, field, value):
        # negative dump times, a time that never advances, one-step runs
        with pytest.raises(ValueError, match=field):
            CastroInputs(**{field: value})

    def test_rejects_nan_stop_time(self):
        # NaN compares false both ways: the solver stopped at step 0 and
        # the workload timebase ran on to max_step on the same input
        with pytest.raises(ValueError, match="stop_time"):
            CastroInputs(stop_time=float("nan"))

    @pytest.mark.parametrize("stop_time", [float("inf"), 0.0, -1.0, 1e9])
    def test_non_nan_stop_time_keeps_its_meaning(self, stop_time):
        assert CastroInputs(stop_time=stop_time).stop_time == stop_time

    @pytest.mark.parametrize("field,value", [
        ("regrid_int", 0), ("regrid_int", -1),
        ("blocking_factor", 0), ("blocking_factor", -8),
    ])
    def test_rejects_intervals_below_one(self, field, value):
        # both were a bare ZeroDivisionError (regrid cadence, n_cell
        # divisibility); regrid_int = -1 used to regrid every step
        with pytest.raises(ValueError, match=field):
            CastroInputs(**{field: value})
