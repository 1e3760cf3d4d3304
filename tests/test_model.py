"""Instance construction, the sweep window, and the 2x2 reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padia.model import (
    NonEmptyMarkedSetRequired,
    SearchInstance,
    evolution_window,
    initial_state,
    make_instance,
    reduced_hamiltonian,
)

# Large enough to stress floating point, small enough to stay exact in int64.
N_MAX = 2**60


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=N_MAX))
    m = draw(st.integers(min_value=1, max_value=n))
    return make_instance(n, m)


unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMakeInstance:
    def test_basic_ratios(self):
        inst = make_instance(4, 1)
        assert inst.a == 0.75
        assert inst.b == 0.25

    def test_all_marked(self):
        inst = make_instance(8, 8)
        assert inst.a == 0.0
        assert inst.b == 1.0

    def test_empty_marked_set_rejected(self):
        with pytest.raises(NonEmptyMarkedSetRequired):
            make_instance(4, 0)

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            make_instance(1, 1)

    def test_more_marked_than_items_rejected(self):
        with pytest.raises(ValueError):
            make_instance(4, 5)

    def test_negative_marked_rejected(self):
        with pytest.raises(ValueError):
            make_instance(4, -1)

    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
    ), st.booleans())
    def test_non_integer_sizes_rejected(self, bad, as_marked):
        args = (8, bad) if as_marked else (bad, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            make_instance(*args)

    @given(st.integers(min_value=2, max_value=3 * 2**62), st.data())
    def test_integer_types_accepted(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        inst = make_instance(n, m)
        assert (inst.n_items, inst.n_marked) == (n, m)
        assert make_instance(np.uint64(n), np.uint64(m)) == inst
        if n < 2**63:
            assert make_instance(np.int64(n), np.int8(1)) == make_instance(n, 1)

    @given(instances())
    def test_ratios_reproducible_and_complementary(self, inst):
        assert inst.a == (inst.n_items - inst.n_marked) / inst.n_items
        assert inst.b == inst.n_marked / inst.n_items
        assert abs(inst.a + inst.b - 1.0) <= 2.3e-16  # one ulp


def _nudged(value, data):
    """``value``, or one of the floats beside it, or a value far off."""
    return data.draw(st.sampled_from(
        [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf), 0.5, math.nan]
    ))


class TestSearchInstanceFields:
    """The constructor, ``_make`` and ``_replace`` accept only what make_instance builds."""

    @pytest.mark.parametrize("build", [
        lambda: make_instance(2**20, 3)._replace(n_marked=4),
        lambda: SearchInstance(4, 1, 0.5, 0.5),
        lambda: SearchInstance._make((4, 1, 0.5, 0.5)),
        lambda: SearchInstance(0, 1, 2, 3),
        lambda: SearchInstance(4, 0, 1.0, 0.0),
        lambda: SearchInstance(4.0, 1, 0.75, 0.25),
    ], ids=["replace", "constructor", "make", "no-items", "no-marked", "float-n"])
    def test_inconsistent_fields_refused(self, build):
        with pytest.raises(ValueError):
            build()

    @given(st.integers(min_value=2, max_value=2**63 - 1), st.data())
    @settings(max_examples=300)
    def test_every_entry_point_checks_the_fields(self, n, data):
        base = make_instance(n, data.draw(st.integers(min_value=1, max_value=n)))
        new_n = data.draw(st.sampled_from([n, n - 1, n + 1, 1]))
        new_m = data.draw(st.one_of(st.integers(min_value=-1, max_value=n + 1),
                                    st.just(base.n_marked + 1)))
        try:
            expected = make_instance(new_n, new_m)
        except ValueError:
            expected = None
        reference = expected or base
        fields = (new_n, new_m, _nudged(reference.a, data), _nudged(reference.b, data))
        builds = {
            "constructor": lambda: SearchInstance(*fields),
            "make": lambda: SearchInstance._make(fields),
            "replace": lambda: base._replace(**dict(zip(SearchInstance._fields, fields))),
        }
        for name, build in builds.items():
            # Neighbouring M can share both correctly rounded ratios at large N.
            if expected is not None and fields[2:] == expected[2:]:
                built = build()
                assert type(built) is SearchInstance, name
                assert built == expected, name
            else:
                with pytest.raises(ValueError):
                    build()


class TestEvolutionWindow:
    def test_n4(self):
        win = evolution_window(make_instance(4, 1))
        assert win.s_minus == 0.25
        assert win.s_plus == 0.75
        assert win.omega == 0.5

    def test_n100(self):
        win = evolution_window(make_instance(100, 1))
        assert win.s_minus == pytest.approx(0.45, abs=1e-15)
        assert win.s_plus == pytest.approx(0.55, abs=1e-15)
        assert win.omega == pytest.approx(0.1, abs=1e-15)

    def test_n2_against_high_precision_oracle(self):
        # 1/(2 sqrt(2)) evaluated with 50-digit decimal arithmetic.
        win = evolution_window(make_instance(2, 1))
        assert win.s_minus == pytest.approx(0.14644660940672623779, abs=1e-15)
        assert win.s_plus == pytest.approx(0.85355339059327376220, abs=1e-15)
        assert win.omega == pytest.approx(0.70710678118654752440, abs=1e-15)

    @given(instances())
    def test_window_invariants(self, inst):
        win = evolution_window(inst)
        assert abs(win.s_minus + win.s_plus - 1.0) < 1e-14
        assert abs(win.omega - 1.0 / math.sqrt(inst.n_items)) < 1e-14
        assert 0.0 < win.s_minus < 0.5 < win.s_plus < 1.0


class TestReducedHamiltonian:
    def test_midpoint_example(self):
        h = reduced_hamiltonian(make_instance(4, 1), 0.5)
        assert h.h_aa == pytest.approx(0.625, abs=1e-15)
        assert h.h_ab == pytest.approx(-0.21650635094610966, abs=1e-15)
        assert h.h_bb == pytest.approx(0.375, abs=1e-15)
        det = h.h_aa * h.h_bb - h.h_ab**2
        assert det == pytest.approx(0.1875, abs=1e-15)

    @pytest.mark.parametrize("n,m", [(4, 1), (10, 3), (7, 7)])
    def test_final_hamiltonian(self, n, m):
        h = reduced_hamiltonian(make_instance(n, m), 1.0)
        assert (h.h_aa, h.h_ab, h.h_bb) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.8])
    def test_all_marked_is_diagonal(self, s):
        h = reduced_hamiltonian(make_instance(6, 6), s)
        assert h.h_ab == 0.0
        assert h.h_bb == 0.0

    @pytest.mark.parametrize("s", [-0.1, 1.2, math.inf])
    def test_domain_error(self, s):
        with pytest.raises(ValueError):
            reduced_hamiltonian(make_instance(4, 1), s)

    @given(instances(), unit_interval)
    @settings(max_examples=300)
    def test_trace_and_determinant_identities(self, inst, s):
        h = reduced_hamiltonian(inst, s)
        assert abs(h.h_aa + h.h_bb - 1.0) < 1e-12
        assert abs(h.h_aa * h.h_bb - h.h_ab**2 - s * (1.0 - s) * inst.a) < 1e-12


class TestInitialState:
    def test_n4(self):
        state = initial_state(make_instance(4, 1))
        assert state.amp_alpha == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert state.amp_beta == pytest.approx(0.5, abs=1e-15)

    def test_all_marked(self):
        state = initial_state(make_instance(5, 5))
        assert state.amp_alpha == 0.0
        assert state.amp_beta == 1.0

    def test_symmetric_split(self):
        state = initial_state(make_instance(2, 1))
        assert state.amp_alpha == pytest.approx(0.7071067811865476, abs=1e-15)
        assert state.amp_beta == pytest.approx(0.7071067811865476, abs=1e-15)

    @given(instances())
    def test_unit_norm(self, inst):
        assert abs(initial_state(inst).norm() - 1.0) < 1e-15
