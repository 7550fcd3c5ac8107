"""Formation geometry, wind sectors, and the coefficient table."""

import itertools
import math

import pytest

from swarmway.formations import (
    FORMATION_KINDS,
    SHARING_RANGE_M,
    TABLE_SLOTS,
    WIND_SECTORS,
    CoefficientTable,
    default_table,
    load_coefficients,
    make_formation,
    wind_sector,
)
from swarmway.network import NetworkFormatError, Wind


class TestGeometry:
    @pytest.mark.parametrize("kind", FORMATION_KINDS)
    @pytest.mark.parametrize("size", range(2, 13))
    def test_every_slot_has_a_neighbor(self, kind, size):
        f = make_formation(kind, size)
        for slot in range(size):
            assert f.neighbors(slot), f"{kind} size {size} slot {slot} isolated"

    @pytest.mark.parametrize("kind", FORMATION_KINDS)
    def test_neighbors_symmetric(self, kind):
        f = make_formation(kind, 9)
        for a in range(9):
            for b in f.neighbors(a):
                assert a in f.neighbors(b)
                assert f.adjacent(a, b) and f.adjacent(b, a)

    def test_column_adjacency_is_consecutive(self):
        f = make_formation("column", 6)
        for slot in range(6):
            expected = [s for s in (slot - 1, slot + 1) if 0 <= s < 6]
            assert f.neighbors(slot) == expected

    def test_slots_distinct(self):
        for kind in FORMATION_KINDS:
            f = make_formation(kind, 12)
            assert len(set(f.slots)) == 12

    def test_size_validation(self):
        with pytest.raises(ValueError):
            make_formation("vee", 0)
        with pytest.raises(ValueError):
            make_formation("wedge", 3)

    def test_single_slot_formation(self):
        f = make_formation("column", 1)
        assert f.size == 1
        assert f.neighbors(0) == []


class TestWindSector:
    def test_cardinal_directions(self):
        # travelling along +x; wind direction = where the air moves toward
        assert wind_sector(0.0, Wind(5.0, 0.0)) == "tail"
        assert wind_sector(0.0, Wind(5.0, 180.0)) == "head"
        assert wind_sector(0.0, Wind(5.0, 90.0)) == "right"
        assert wind_sector(0.0, Wind(5.0, 270.0)) == "left"

    def test_quadrant_boundaries(self):
        assert wind_sector(0.0, Wind(5.0, 44.999)) == "tail"
        assert wind_sector(0.0, Wind(5.0, 45.0)) == "right"
        assert wind_sector(0.0, Wind(5.0, 135.0)) == "head"
        assert wind_sector(0.0, Wind(5.0, 225.0)) == "left"
        assert wind_sector(0.0, Wind(5.0, 315.0)) == "tail"

    def test_relative_to_heading(self):
        assert wind_sector(90.0, Wind(5.0, 90.0)) == "tail"
        assert wind_sector(90.0, Wind(5.0, 270.0)) == "head"
        assert wind_sector(350.0, Wind(5.0, 10.0)) == "tail"


class TestDefaultTable:
    def setup_method(self):
        self.table = default_table()

    def test_complete_coverage(self):
        for kind in FORMATION_KINDS:
            assert self.table.max_slots(kind) == TABLE_SLOTS
            for slot in range(TABLE_SLOTS):
                for sector in WIND_SECTORS:
                    c = self.table.coefficient(kind, slot, sector)
                    assert 0.8 <= c <= 1.3

    def test_vee_lead_under_head_wind_is_exactly_1_2(self):
        assert self.table.coefficient("vee", 0, "head") == 1.2

    def test_coefficients_distinct_within_kind_and_sector(self):
        for kind in FORMATION_KINDS:
            for sector in WIND_SECTORS:
                vals = [self.table.coefficient(kind, s, sector)
                        for s in range(TABLE_SLOTS)]
                assert len(set(vals)) == TABLE_SLOTS

    @pytest.mark.parametrize("size", range(2, 13))
    def test_shape_preferences_by_sector(self, size):
        def total(kind, sector):
            return sum(self.table.coefficient(kind, s, sector)
                       for s in range(size))

        assert min(FORMATION_KINDS, key=lambda k: total(k, "head")) == "vee"
        assert min(FORMATION_KINDS, key=lambda k: total(k, "tail")) == "column"
        assert min(FORMATION_KINDS, key=lambda k: total(k, "left")) == "diamond"
        assert min(FORMATION_KINDS, key=lambda k: total(k, "right")) == "diamond"

    @pytest.mark.parametrize("kind", FORMATION_KINDS)
    @pytest.mark.parametrize("size", range(2, 13))
    def test_extreme_slot_groups_never_cluster(self, kind, size):
        """The k best and k worst slots must each be pairwise non-adjacent.

        Support drones sit at one of the two extremes, so this is what
        guarantees a swap partner exists next to every provider.
        """
        f = make_formation(kind, size)
        for sector in WIND_SECTORS:
            order = self.table.slot_order(kind, sector, size)
            for k in range(1, size // 2 + 1):
                for group in (order[:k], order[-k:]):
                    for a, b in itertools.combinations(group, 2):
                        assert not f.adjacent(a, b), (
                            f"{kind}/{sector} size {size}: slots {a},{b} "
                            f"both in extreme group of {k}"
                        )

    def test_slot_order_sorted_by_coefficient(self):
        order = self.table.slot_order("vee", "head", 12)
        coeffs = [self.table.coefficient("vee", s, "head") for s in order]
        assert coeffs == sorted(coeffs)
        assert order[-1] == 0  # lead slot is the worst place to fly


class TestTableType:
    def test_missing_entry_raises(self):
        table = CoefficientTable({("vee", 0, "head"): 1.0})
        with pytest.raises(ValueError):
            table.coefficient("vee", 1, "head")

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientTable({})
        with pytest.raises(ValueError):
            CoefficientTable({("wedge", 0, "head"): 1.0})
        with pytest.raises(ValueError):
            CoefficientTable({("vee", 0, "up"): 1.0})
        with pytest.raises(ValueError):
            CoefficientTable({("vee", -1, "head"): 1.0})
        with pytest.raises(ValueError):
            CoefficientTable({("vee", 0, "head"): 0.0})

    def test_constant_table_orders_by_slot_index(self):
        table = CoefficientTable(
            {("column", s, "head"): 1.0 for s in range(6)}
        )
        assert table.slot_order("column", "head", 6) == list(range(6))

    def test_round_trip(self, tmp_path):
        table = default_table()
        cells = [(kind, slot, sector) for kind in FORMATION_KINDS
                 for slot in range(TABLE_SLOTS) for sector in WIND_SECTORS]
        path = tmp_path / "coeffs.csv"
        path.write_text("formation,slot,wind_sector,coefficient\n" + "".join(
            f"{kind},{slot},{sector},{table.coefficient(kind, slot, sector)!r}\n"
            for kind, slot, sector in cells
        ))
        loaded = load_coefficients(path)
        for kind in FORMATION_KINDS:
            assert loaded.max_slots(kind) == TABLE_SLOTS
        for cell in cells:
            assert loaded.coefficient(*cell) == table.coefficient(*cell)

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        # as load_network and load_requests skip them
        table = default_table()
        lines = [f"{kind},{slot},{sector},{table.coefficient(kind, slot, sector)!r}\n"
                 for kind in FORMATION_KINDS for slot in range(TABLE_SLOTS)
                 for sector in WIND_SECTORS]
        path = tmp_path / "coeffs.csv"
        path.write_text("".join(lines[:5]) + "  \t\n" + "".join(lines[5:]) + "   ")
        loaded = load_coefficients(path)
        assert loaded.coefficient("vee", 1, "head") == table.coefficient("vee", 1, "head")
        path.write_text("   \nvee,zero,head,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_coefficients(path)

    def test_load_names_the_first_missing_coefficient(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("".join(
            f"{kind},{slot},{sector},1.0\n"
            for kind in ("column", "diamond") for slot in range(3)
            for sector in WIND_SECTORS
            if (kind, slot, sector) not in {("diamond", 1, "left"), ("diamond", 2, "head")}
        ))
        with pytest.raises(NetworkFormatError,
                           match="formation 'diamond' slot 1 sector 'left'"):
            load_coefficients(path)

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("formation,slot,wind_sector,coefficient\nvee,zero,head,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_coefficients(path)
