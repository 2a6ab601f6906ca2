import functools
import gc
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexcsl import csl
from conftest import (MultiIndex, assemble, enumerate_products, mixed_libraries, pair_count, reference_decode,
                      reference_pair_row, table_from_values)


@functools.lru_cache(maxsize=None)
def trillion_library():
    """1 reaction, 3 R-groups x 10,000 synthons each (ids only, never enumerated).
    Built once: the tests only read it, and its layout arrays are read-only."""
    synthons = tuple(csl.SynthonRecord(i, f"x{i}*") for i in range(30000))
    rgroups = tuple(
        csl.RgroupSpec(r, tuple(range(r * 10000, (r + 1) * 10000))) for r in range(3)
    )
    return csl.CslLibrary(
        reactions=(csl.ReactionSpec(0, rgroups),), synthons=synthons
    )


@functools.lru_cache(maxsize=None)
def screen_sized_text():
    """The text of a 4,000-synthon library, about the size of the screen benchmark's."""
    config = csl.SyntheticConfig(n_reactions=4, components=(2, 3), synthons_per_rgroup=400)
    return csl.serialize_library(csl.generate_synthetic(config, seed=3))


def synthon_digit(library, rgroup_id, synthon_id):
    """A synthon's position in its R-group's synthon list: the decode digit."""
    return next(rg for rg in library.iter_rgroups() if rg.rgroup_id == rgroup_id).synthon_ids.index(synthon_id)


class TestProductCount:
    def test_one_trillion(self):
        assert csl.product_count(trillion_library()) == 1_000_000_000_000

    def test_zero_reactions(self):
        lib = csl.CslLibrary(reactions=(), synthons=())
        assert csl.product_count(lib) == 0

    def test_two_reactions(self):
        synthons = tuple(csl.SynthonRecord(i, f"s{i}*") for i in range(10))
        rx0 = csl.ReactionSpec(0, (csl.RgroupSpec(0, (0, 1)), csl.RgroupSpec(1, (2, 3, 4))))
        rx1 = csl.ReactionSpec(1, (csl.RgroupSpec(2, (5, 6, 7, 8)), csl.RgroupSpec(3, (9,))))
        lib = csl.CslLibrary(reactions=(rx0, rx1), synthons=synthons)
        assert csl.product_count(lib) == 2 * 3 + 4 * 1

    def test_overflow_rejected(self):
        synthons = tuple(csl.SynthonRecord(i, f"s{i}*") for i in range(500))
        # 7 rgroups x 500 synthons per reaction, 3 reactions: 3 * 500^7 > 2^64
        rid = 0
        reactions = []
        for t in range(3):
            rgs = []
            for _ in range(7):
                rgs.append(csl.RgroupSpec(rid, tuple(range(500))))
                rid += 1
            reactions.append(csl.ReactionSpec(t, tuple(rgs)))
        lib = csl.CslLibrary(reactions=tuple(reactions), synthons=synthons)
        with pytest.raises(csl.LibraryError, match="64-bit"):
            csl.product_count(lib)

    def test_invariant_under_synthon_order(self, small_library):
        reversed_rx = tuple(
            csl.ReactionSpec(
                rx.reaction_id,
                tuple(csl.RgroupSpec(rg.rgroup_id, rg.synthon_ids[::-1]) for rg in rx.rgroups),
            )
            for rx in small_library.reactions
        )
        permuted = csl.CslLibrary(reactions=reversed_rx, synthons=small_library.synthons)
        assert csl.product_count(permuted) == csl.product_count(small_library)


def encode_one(library, chi):
    """layout.encode of one product, from its synthon ids through layout.digits_of."""
    layout = library.layout
    sids = np.full((1, layout.n_rgroups.max()), -1)
    sids[0, : len(chi.assignment)] = chi.synthon_ids()
    pos = [chi.reaction_id]
    return int(layout.encode(pos, layout.digits_of(pos, sids))[0])


class TestIndexCodec:
    def test_origin(self, small_library):
        chi = reference_decode(small_library, 0)
        rx = small_library.reactions[0]
        assert chi.reaction_id == 0
        assert chi.assignment == tuple((rg.rgroup_id, rg.synthon_ids[0]) for rg in rx.rgroups)
        assert encode_one(small_library, chi) == 0

    def test_terminal(self, small_library):
        total = csl.product_count(small_library)
        chi = reference_decode(small_library, total - 1)
        rx = small_library.reactions[-1]
        assert chi.reaction_id == rx.reaction_id
        assert chi.assignment == tuple((rg.rgroup_id, rg.synthon_ids[-1]) for rg in rx.rgroups)
        assert encode_one(small_library, chi) == total - 1

    def test_exhaustive_inverse(self, medium_library):
        layout = medium_library.layout
        gidx = np.arange(csl.product_count(medium_library))
        pos, digits = layout.decode(gidx)
        assert layout.encode(pos, digits).tolist() == gidx.tolist()
        assert layout.digits_of(pos, layout.synthon_ids(pos, digits)).tolist() == digits.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12 - 1))
    def test_roundtrip_large_library(self, g):
        layout = trillion_library().layout
        pos, digits = layout.decode([g])
        assert layout.encode(pos, digits).tolist() == [g]
        assert layout.digits_of(pos, layout.synthon_ids(pos, digits)).tolist() == digits.tolist()

    def test_random_multiindex_roundtrip(self, medium_library):
        rng = np.random.default_rng(0)
        total = csl.product_count(medium_library)
        for g in rng.integers(0, total, size=10_000):
            chi = reference_decode(medium_library, int(g))
            assert reference_decode(medium_library, encode_one(medium_library, chi)) == chi

    def test_out_of_range(self, small_library):
        total = csl.product_count(small_library)
        with pytest.raises(csl.LibraryError):
            reference_decode(small_library, total)
        with pytest.raises(csl.LibraryError):
            reference_decode(small_library, -1)

    def test_invalid_synthon_rejected(self, small_library):
        # the first cell, in row order, whose synthon is not eligible for its R-group
        layout = small_library.layout
        pos, digits = layout.decode([0, 60, 149])
        sids = layout.synthon_ids(pos, digits)
        sids[2, 0] = 10**6
        foreign = small_library.reactions[1].rgroups[2].synthon_ids[0]  # a synthon of R-group 2 in R-group 1
        sids[1, 1] = foreign
        rgroup = small_library.reactions[1].rgroups[1].rgroup_id
        with pytest.raises(csl.LibraryError, match=f"^synthon {foreign} is not eligible for R-group {rgroup}$") as info:
            layout.digits_of(pos, sids)
        assert info.value.row == 1
        sids[1, 1], sids[0, 2] = -1, 10**6  # a 2-component row's third cell is not read
        with pytest.raises(csl.LibraryError, match="synthon -1 is not eligible") as info:
            layout.digits_of(pos, sids)
        assert info.value.row == 1

    @pytest.mark.parametrize("reaction_id", [-1, 2])
    def test_reaction_id_out_of_range(self, small_library, reaction_id):
        # a negative id must not index from the end of the reaction list
        with pytest.raises(csl.LibraryError, match="out of range"):
            small_library.reaction(reaction_id)


class TestDecodeIndices:
    @staticmethod
    def expected(library, gidx):
        """reference_decode per index, as (reaction position, digits padded with -1)."""
        width = max(len(rx.rgroups) for rx in library.reactions)
        rows = []
        for g in gidx:
            chi = reference_decode(library, int(g))
            digits = [synthon_digit(library, r, s) for r, s in chi.assignment]
            rows.append((chi.reaction_id, digits + [-1] * (width - len(digits))))
        return rows

    def test_matches_scalar_decode_exhaustively(self, small_library):
        gidx = np.arange(csl.product_count(small_library))
        pos, digits = small_library.layout.decode(gidx)
        assert list(zip(pos.tolist(), digits.tolist())) == self.expected(small_library, gidx)

    def test_matches_scalar_decode_unordered(self, medium_library):
        gidx = np.random.default_rng(1).integers(0, csl.product_count(medium_library), size=2000)
        pos, digits = medium_library.layout.decode(gidx)
        assert list(zip(pos.tolist(), digits.tolist())) == self.expected(medium_library, gidx)

    def test_large_library(self):
        lib = trillion_library()
        gidx = np.array([0, 123_456_789_012, 10**12 - 1])
        pos, digits = lib.layout.decode(gidx)
        assert pos.tolist() == [0, 0, 0]
        assert digits.tolist() == [[0, 0, 0], [1234, 5678, 9012], [9999, 9999, 9999]]

    def test_empty_and_out_of_range(self, small_library):
        pos, digits = small_library.layout.decode(np.empty(0, dtype=np.int64))
        assert pos.shape == (0,) and digits.shape == (0, 3)
        total = csl.product_count(small_library)
        for bad in ([total], [0, -1]):
            with pytest.raises(csl.LibraryError):
                small_library.layout.decode(np.array(bad))


FOUR_COMPONENT = csl.generate_synthetic(
    csl.SyntheticConfig(n_reactions=3, components=(4, 2, 3), synthons_per_rgroup=4, share_rate=0.7), seed=4)


@settings(max_examples=60, deadline=None)
@given(library=mixed_libraries())
@example(library=FOUR_COMPONENT)
def test_codec_roundtrips_and_matches_scalar_decode(library):
    layout = library.layout
    gidx = np.arange(csl.product_count(library))
    pos, digits = layout.decode(gidx)
    assert layout.encode(pos, digits).tolist() == gidx.tolist()
    assert layout.digits_of(pos, layout.synthon_ids(pos, digits)).tolist() == digits.tolist()
    assert list(zip(pos.tolist(), digits.tolist())) == TestDecodeIndices.expected(library, gidx)


class TestPairRows:
    def test_synthon_ids_and_pair_rows_match_scalar(self, medium_library):
        lib = medium_library
        gidx = np.random.default_rng(2).integers(0, csl.product_count(lib), size=500)
        pos, digits = lib.layout.decode(gidx)
        sids = lib.layout.synthon_ids(pos, digits)
        rows = lib.layout.pair_rows(pos, digits)
        first_row, n = {}, 0
        for rg in lib.iter_rgroups():
            first_row[rg.rgroup_id] = n
            n += len(rg.synthon_ids)
        member_ids = [s for rg in lib.iter_rgroups() for s in rg.synthon_ids]
        for g, sid_row, pr_row in zip(gidx.tolist(), sids.tolist(), rows.tolist()):
            chi = reference_decode(lib, g)
            width = len(chi.assignment)
            assert sid_row == list(chi.synthon_ids()) + [-1] * (len(sid_row) - width)
            assert pr_row[:width] == [first_row[r] + synthon_digit(lib, r, s) for r, s in chi.assignment]
            assert pr_row[width:] == [-1] * (len(pr_row) - width)
            assert [member_ids[r] for r in pr_row[:width]] == list(chi.synthon_ids())


class TestEnumerate:
    def test_full_enumeration_distinct(self, small_library):
        total = csl.product_count(small_library)
        seen = list(enumerate_products(small_library, 0, total))
        assert len(seen) == total
        assert len(set(seen)) == total

    def test_empty_range(self, small_library):
        assert list(enumerate_products(small_library, 4, 4)) == []

    def test_adjacent_ranges_concatenate(self, medium_library):
        total = csl.product_count(medium_library)
        mid = total // 3
        joined = list(enumerate_products(medium_library, 0, mid)) + list(
            enumerate_products(medium_library, mid, total)
        )
        assert joined == list(enumerate_products(medium_library, 0, total))

    def test_matches_decode(self, medium_library):
        start, end = 100, 400
        expected = [reference_decode(medium_library, g) for g in range(start, end)]
        assert list(enumerate_products(medium_library, start, end)) == expected

    def test_bad_range(self, small_library):
        with pytest.raises(csl.LibraryError):
            list(enumerate_products(small_library, 5, 4))


class TestAssemble:
    def test_single_synthon_rgroups(self):
        synthons = (csl.SynthonRecord(0, "ab*c"), csl.SynthonRecord(1, "d*e"))
        lib = csl.CslLibrary(
            reactions=(
                csl.ReactionSpec(0, (csl.RgroupSpec(0, (0,)), csl.RgroupSpec(1, (1,)))),
            ),
            synthons=synthons,
        )
        chi = reference_decode(lib, 0)
        assert assemble(lib, chi) == "t0|abc.de"

    def test_deterministic(self, small_library):
        chi = reference_decode(small_library, 3)
        assert assemble(small_library, chi) == assemble(small_library, chi)

    def test_same_multiset_same_string(self):
        synthons = (csl.SynthonRecord(0, "aa*"), csl.SynthonRecord(1, "bb*"))
        lib = csl.CslLibrary(
            reactions=(
                csl.ReactionSpec(0, (csl.RgroupSpec(0, (0, 1)), csl.RgroupSpec(1, (0, 1)))),
            ),
            synthons=synthons,
        )
        chi_ab = MultiIndex(0, ((0, 0), (1, 1)))
        chi_ba = MultiIndex(0, ((0, 1), (1, 0)))
        assert assemble(lib, chi_ab) == assemble(lib, chi_ba)

    def test_distinct_within_reaction(self):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=10, token_length=10),
            seed=23,
        )
        total = csl.product_count(lib)
        tokens = [s.token for s in lib.synthons]
        assert len(set(tokens)) == len(tokens)  # precondition: all tokens distinct
        strings = [assemble(lib, chi) for chi in enumerate_products(lib, 0, total)]
        assert len(set(strings)) == total


class TestDownsample:
    def test_identity_at_one(self, medium_library):
        assert csl.downsample(medium_library, 1.0, seed=0) == medium_library

    def test_keep_rate_cube_root(self):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=64), seed=5
        )
        frac = 0.125
        out = csl.downsample(lib, frac, seed=0)
        # per-R-group keep rate is frac^(1/3) = 0.5 -> 32 synthons each
        for rg in out.reactions[0].rgroups:
            assert len(rg.synthon_ids) == 32
        assert csl.product_count(out) == 32**3

    def test_deterministic(self, medium_library):
        a = csl.downsample(medium_library, 0.3, seed=9)
        b = csl.downsample(medium_library, 0.3, seed=9)
        assert a == b

    def test_output_valid_and_at_least_one(self, medium_library):
        out = csl.downsample(medium_library, 0.001, seed=1)
        csl.check_library(out)
        for rg in out.iter_rgroups():
            assert len(rg.synthon_ids) >= 1

    def test_bad_fraction(self, small_library):
        with pytest.raises(csl.LibraryError):
            csl.downsample(small_library, 0.0, seed=0)


class TestGenerateSynthetic:
    def test_product_count_tiny(self):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(2,), synthons_per_rgroup=3), seed=0
        )
        assert csl.product_count(lib) == 9

    def test_equal_seeds_byte_identical(self):
        cfg = csl.SyntheticConfig(n_reactions=3, share_rate=0.2)
        a = csl.serialize_library(csl.generate_synthetic(cfg, seed=42))
        b = csl.serialize_library(csl.generate_synthetic(cfg, seed=42))
        assert a == b

    def test_even_component_split(self):
        lib = csl.generate_synthetic(csl.SyntheticConfig(n_reactions=6, components=(2, 3)), seed=1)
        counts = [len(rx.rgroups) for rx in lib.reactions]
        assert counts.count(2) == 3 and counts.count(3) == 3

    def test_share_rate_shares_synthons(self):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=4, synthons_per_rgroup=20, share_rate=0.5), seed=2
        )
        uses = sum(len(rg.synthon_ids) for rg in lib.iter_rgroups())
        assert len(lib.synthons) < uses  # some synthon appears in several R-groups
        csl.check_library(lib)


class TestSerialization:
    def test_roundtrip(self, medium_library):
        text = csl.serialize_library(medium_library)
        assert csl.deserialize_library(text) == medium_library

    def test_file_roundtrip(self, small_library, tmp_path):
        path = tmp_path / "lib.csl"
        csl.save_library(small_library, path)
        assert csl.load_library(path) == small_library

    def test_fingerprint_changes_with_content(self, small_library, medium_library):
        assert csl.library_fingerprint(small_library) != csl.library_fingerprint(medium_library)

    def test_bad_header(self):
        with pytest.raises(csl.LibraryError, match="header"):
            csl.deserialize_library("nope 1 2 3\n")

    @pytest.mark.parametrize("header", ["cslv1 x 1 1", "cslv1 1 1.5 1"])
    def test_non_integer_header_counts(self, header):
        with pytest.raises(csl.LibraryError, match="header"):
            csl.deserialize_library(header + "\nS 0 a*\n")

    def test_malformed_record(self):
        with pytest.raises(csl.LibraryError):
            csl.deserialize_library("cslv1 1 0 0\nS zero tok\n")

    @pytest.mark.parametrize("text, match", [
        ("cslv1 2 2 1\nS 0 a*\nS 1 b* junk\nR 0 0\nR 1 1\nT 0 0 1\n", r"line 3: malformed record: 'S 1 b\* junk'"),
        ("cslv1 2 2 1\nS 0 a*\nS 1 b*\nR 0 0\nR 1 1\nR 1 0\nT 0 0 1\n", "line 6: malformed record: 'R 1 0'"),
        ("cslv1 2 3 1\nS 0 a*\nS 1 b*\nR 0 0\nR 1 1\nR 2 0 1\nT 0 0 1\n", r"R-groups \[2\] are used by no reaction"),
    ], ids=["synthon_extra_field", "rgroup_repeated", "rgroup_unused"])
    def test_records_dropped_silently_are_rejected(self, text, match):
        # each was accepted, and lost from the library, by the line-at-a-time parser
        with pytest.raises(csl.LibraryError, match=match):
            csl.deserialize_library(text)

    @pytest.mark.parametrize("text, line", [
        ("cslv1 2 2 1\n\nS 0 a*\n  \nS x b*\nR 0 0\nR 1 1\nT 0 0 1\n", 3),
        ("cslv1 2 2 1\nS 0 a*\nS 1 b*\nT 0 0 1\nR 0 0\nR 1 1\n", 4),
        ("cslv1 2 2 1\nR 0 0\nR 1 1 y\nS 0 a*\nS x b*\nT 0 0 1\n", 3),
        ("cslv1 2 2 1\nS 0 a*\nS 1 b*\nR 0 0\nR 1 1\nQ 0 0 1\nT 0 0 1\n", 6),
        ("cslv1 2 2 1\nS 0 a*\nS 1 b*\nR 0 0\nR\nT 0 0 1\n", 5),
    ], ids=["blank_lines_not_counted", "reaction_before_its_rgroups", "first_of_two", "unknown_kind", "no_id"])
    def test_malformed_line_number(self, text, line):
        with pytest.raises(csl.LibraryError, match=f"^line {line}: malformed record"):
            csl.deserialize_library(text)


class TestParsePausesCollection:
    """deserialize_library pauses automatic garbage collection while it parses."""

    @pytest.fixture
    def collection_on(self):
        enabled = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_collection_on_after(self, collection_on):
        csl.deserialize_library(screen_sized_text())
        assert gc.isenabled()
        with pytest.raises(csl.LibraryError):
            csl.deserialize_library("cslv1 1 0 0\nS zero tok\n")
        assert gc.isenabled()

    def test_collection_left_off(self, collection_on):
        gc.disable()
        csl.deserialize_library(screen_sized_text())
        with pytest.raises(csl.LibraryError):
            csl.deserialize_library("nope 1 2 3\n")
        assert not gc.isenabled()

    def test_no_collection_during_parse(self, collection_on):
        # the parse's allocations set off several collections when it does not pause them
        text = screen_sized_text()
        phases = []

        def record(phase, info):
            phases.append(phase)

        gc.callbacks.append(record)
        try:
            library = csl.deserialize_library(text)
        finally:
            gc.callbacks.remove(record)
        assert len(library.synthons) >= 4000
        assert "start" not in phases


def counted_parses(monkeypatch):
    """A list that gains an item at each full parse of a library text."""
    calls, parse = [], csl._parse_library
    monkeypatch.setattr(csl, "_parse_library", lambda text: calls.append(1) or parse(text))
    return calls


class TestReadWithFingerprint:
    """load_library with the fingerprint of a table: a text with that SHA-256
    is read by its header and its R and T lines alone."""

    def test_canonical_text_is_not_parsed(self, medium_library, tmp_path, monkeypatch):
        path = tmp_path / "lib.csl"
        csl.save_library(medium_library, path)
        full = csl.load_library(path)
        calls = counted_parses(monkeypatch)
        library = csl.load_library(path, fingerprint=csl.library_fingerprint(medium_library))
        for name in ("member_ids", "rg_ids", "rg_offsets", "rx_offsets", "rg_parent", "n_rgroups", "first_row",
                     "radix", "product_offsets"):
            np.testing.assert_array_equal(getattr(library.layout, name), getattr(full.layout, name))
        assert library.reactions == full.reactions
        assert csl.fingerprint_matches(library, csl.library_fingerprint(medium_library))
        assert calls == []
        # the synthons come from the full parse of the text, on their first read
        assert library.synthons == full.synthons
        assert calls == [1]
        assert csl.serialize_library(library) == path.read_text()
        assert library == full and calls == [1]

    def test_crlf_copy_is_not_parsed(self, medium_library, tmp_path, monkeypatch):
        # text mode reads "\r\n" as "\n": the text read is the canonical one
        path = tmp_path / "lib_crlf.csl"
        path.write_bytes(csl.serialize_library(medium_library).replace("\n", "\r\n").encode())
        calls = counted_parses(monkeypatch)
        library = csl.load_library(path, fingerprint=csl.library_fingerprint(medium_library))
        assert calls == [] and library.reactions == medium_library.reactions

    @pytest.mark.parametrize("fingerprint", [None, "0" * 64])
    def test_other_fingerprints_parse(self, medium_library, tmp_path, monkeypatch, fingerprint):
        path = tmp_path / "lib.csl"
        csl.save_library(medium_library, path)
        calls = counted_parses(monkeypatch)
        assert csl.load_library(path, fingerprint=fingerprint) == medium_library
        assert calls == [1]

    def test_malformed_synthon_line_fails_at_first_read(self, tmp_path):
        # a forged fingerprint is trusted: the layout is the R and T lines', and
        # the synthons' first read raises the full parse's error
        text = "cslv1 2 2 1\nS 0 a*\nS 1 b* junk\nR 0 0\nR 1 1\nT 0 0 1\n"
        path = tmp_path / "lib.csl"
        path.write_text(text)
        library = csl.load_library(path, fingerprint=hashlib.sha256(text.encode()).hexdigest())
        assert library.layout.member_ids.tolist() == [0, 1]
        for _ in range(2):
            with pytest.raises(csl.LibraryError, match=r"line 3: malformed record: 'S 1 b\* junk'"):
                library.synthons


class TestCheckLibrary:
    def test_rejects_single_rgroup_reaction(self):
        lib = csl.CslLibrary(
            reactions=(csl.ReactionSpec(0, (csl.RgroupSpec(0, (0,)),)),),
            synthons=(csl.SynthonRecord(0, "a*"),),
        )
        with pytest.raises(csl.LibraryError, match="fewer than 2"):
            csl.check_library(lib)

    @pytest.mark.parametrize("synthon_ids", [(), (0, 0), (5,)])
    def test_reaction_reported_before_its_rgroup(self, synthon_ids):
        # the reaction is reported before the faults of its one R-group
        lib = csl.CslLibrary(
            reactions=(csl.ReactionSpec(0, (csl.RgroupSpec(0, synthon_ids),)),),
            synthons=(csl.SynthonRecord(0, "a*"),),
        )
        with pytest.raises(csl.LibraryError, match="fewer than 2"):
            csl.check_library(lib)

    def test_rejects_unknown_synthon(self):
        lib = csl.CslLibrary(
            reactions=(
                csl.ReactionSpec(0, (csl.RgroupSpec(0, (0, 5)), csl.RgroupSpec(1, (0,)))),
            ),
            synthons=(csl.SynthonRecord(0, "a*"),),
        )
        with pytest.raises(csl.LibraryError, match="unknown synthons"):
            csl.check_library(lib)

    @pytest.mark.parametrize("text, match", [
        ("cslv1 4 2 1\nS 10 a*\nS 11 b*\nS 12 c*\nS 13 d*\nR 0 10 11\nR 1 12 13\nT 0 0 1\n",
         "synthon id 10 at position 0"),
        ("cslv1 2 2 1\nS 1 a*\nS 0 b*\nR 0 0\nR 1 1\nT 0 0 1\n", "synthon id 1 at position 0"),
        ("cslv1 2 2 1\nS 0 a*\nS 1 b*\nR 0 0\nR 1 1\nT 7 0 1\n", "reaction id 7 at position 0"),
    ], ids=["synthons_from_10", "synthons_swapped", "reaction_7"])
    def test_rejects_ids_out_of_position(self, text, match):
        with pytest.raises(csl.LibraryError, match=match):
            csl.deserialize_library(text)

    @pytest.mark.parametrize("token", ["", "a b*", " a*", "a*\n", "a b"])
    def test_rejects_token_that_is_not_one_field(self, token):
        # such a library once passed, and its saved file failed to reload ('S 0 a b*': malformed record)
        lib = csl.CslLibrary(
            reactions=(csl.ReactionSpec(0, (csl.RgroupSpec(0, (0,)), csl.RgroupSpec(1, (1,)))),),
            synthons=(csl.SynthonRecord(0, "a*"), csl.SynthonRecord(1, token)),
        )
        with pytest.raises(csl.LibraryError, match="synthon 1 token .* is empty or holds whitespace"):
            csl.check_library(lib)

    def test_rejects_duplicate_rgroup_membership(self):
        rg = csl.RgroupSpec(0, (0,))
        lib = csl.CslLibrary(
            reactions=(
                csl.ReactionSpec(0, (rg, csl.RgroupSpec(1, (0,)))),
                csl.ReactionSpec(1, (rg, csl.RgroupSpec(2, (0,)))),
            ),
            synthons=(csl.SynthonRecord(0, "a*"),),
        )
        with pytest.raises(csl.LibraryError, match="more than one reaction"):
            csl.check_library(lib)


@settings(max_examples=40, deadline=None)
@given(
    n_reactions=st.integers(1, 4),
    components=st.sampled_from([(2, 3), (3, 2), (3,)]),
    synthons=st.integers(1, 5),
    token_length=st.integers(1, 3),
    share_rate=st.sampled_from([0.0, 0.5, 0.9]),
    seed=st.integers(0, 50),
)
def test_assembled_text_matches_assemble(n_reactions, components, synthons, token_length, share_rate, seed):
    # a two-letter alphabet and short tokens make distinct synthons share fragments
    lib = csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=n_reactions, components=components, synthons_per_rgroup=synthons,
                            alphabet_size=2, token_length=token_length, share_rate=share_rate),
        seed=seed,
    )
    gidx = np.arange(csl.product_count(lib))
    expected = [assemble(lib, reference_decode(lib, int(g))) for g in gidx]
    pos, digits = lib.layout.decode(gidx)
    assert list(map("".join, csl.assembled_text(lib, pos, lib.layout.pair_rows(pos, digits)).tolist())) == expected


@settings(max_examples=60, deadline=None)
@given(library=mixed_libraries())
def test_pair_layout_matches_per_rgroup_construction(library):
    layout = library.layout
    assert layout is library.layout
    # conftest spells the stored arrays out R-group by R-group
    table = table_from_values(library, ["t"], np.zeros((1, pair_count(library))), [0.0])
    assert layout.matches(table.member_ids, table.rg_offsets, table.rg_ids)
    for name in ("member_ids", "rg_offsets", "rg_ids"):
        assert getattr(layout, name).tobytes() == getattr(table, name).tobytes()
    assert layout.n_pairs == pair_count(library)
    width = max(len(rx.rgroups) for rx in library.reactions)
    assert layout.first_row.shape == layout.radix.shape == (len(library.reactions), width)
    r = 0
    for t, rx in enumerate(library.reactions):
        assert (layout.rx_offsets[t], layout.n_rgroups[t]) == (r, len(rx.rgroups))
        rows = layout.reaction_rows(t)
        for j in range(width):
            if j >= len(rx.rgroups):
                assert (layout.first_row[t, j], layout.radix[t, j]) == (0, 1)
                continue
            rg = rx.rgroups[j]
            lo = int(table.rg_offsets[r])
            assert layout.rg_parent[r] == t
            assert (layout.first_row[t, j], layout.radix[t, j]) == (lo, len(rg.synthon_ids))
            assert rows[j] == slice(lo, lo + len(rg.synthon_ids))
            for d, s in enumerate(rg.synthon_ids):
                assert reference_pair_row(library, rg.rgroup_id, s) == lo + d
            r += 1
    assert layout.rx_offsets[-1] == len(layout.rg_parent) == r
    for a in (layout.member_ids, layout.first_row, layout.radix):
        with pytest.raises(ValueError):
            a[0] = 1

    # the conftest pair row agrees with layout.pair_rows at every decoded cell
    gidx = np.arange(csl.product_count(library))
    rows = library.layout.pair_rows(*library.layout.decode(gidx))
    for g, row in zip(gidx.tolist(), rows.tolist()):
        chi = reference_decode(library, g)
        expected = [reference_pair_row(library, rg_id, s) for rg_id, s in chi.assignment]
        assert row == expected + [-1] * (width - len(expected))


def reference_deserialize(text):
    """The line-at-a-time parser that the bulk one replaced, plus the checks
    added with it: an S record has three fields, an R record's id is new, and
    every R-group is used by a reaction."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise csl.LibraryError("empty library file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != csl.LIBRARY_FORMAT_VERSION:
        raise csl.LibraryError(f"bad header: {lines[0]!r}")
    try:
        n_s, n_r, n_t = map(int, header[1:])
    except ValueError:
        raise csl.LibraryError(f"bad header: {lines[0]!r}") from None
    synthons, rgroups, reactions = [], {}, []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        try:
            if parts[0] == "S" and len(parts) == 3:
                synthons.append(csl.SynthonRecord(int(parts[1]), parts[2]))
            elif parts[0] == "R" and int(parts[1]) not in rgroups:
                rgroups[int(parts[1])] = csl.RgroupSpec(int(parts[1]), tuple(map(int, parts[2:])))
            elif parts[0] == "T":
                rids = list(map(int, parts[2:]))
                reactions.append(csl.ReactionSpec(int(parts[1]), tuple(rgroups[r] for r in rids)))
            else:
                raise KeyError(parts[0])
        except (IndexError, ValueError, KeyError):
            raise csl.LibraryError(f"line {lineno}: malformed record: {ln!r}") from None
    if len(synthons) != n_s or len(rgroups) != n_r or len(reactions) != n_t:
        raise csl.LibraryError("header counts do not match record counts")
    unused = set(rgroups) - {rg.rgroup_id for rx in reactions for rg in rx.rgroups}
    if unused:
        raise csl.LibraryError(f"R-groups {sorted(unused)} are used by no reaction")
    library = csl.CslLibrary(tuple(reactions), tuple(synthons))
    reference_check_library(library)
    return library


def reference_check_library(library):
    """The R-group-at-a-time check_library that the array one replaced."""
    for kind, ids in (("synthon", [s.synthon_id for s in library.synthons]),
                      ("reaction", [rx.reaction_id for rx in library.reactions])):
        wrong = [(i, x) for i, x in enumerate(ids) if x != i]
        if wrong:
            raise csl.LibraryError(f"{kind} id {wrong[0][1]} at position {wrong[0][0]}: ids must be 0..n-1 in order")
    known = set(range(len(library.synthons)))
    seen_rgroups = set()
    for rx in library.reactions:
        if len(rx.rgroups) < 2:
            raise csl.LibraryError(f"reaction {rx.reaction_id} has fewer than 2 R-groups")
        for rg in rx.rgroups:
            if rg.rgroup_id in seen_rgroups:
                raise csl.LibraryError(f"R-group {rg.rgroup_id} appears in more than one reaction")
            seen_rgroups.add(rg.rgroup_id)
            if not rg.synthon_ids:
                raise csl.LibraryError(f"R-group {rg.rgroup_id} has no eligible synthons")
            if len(set(rg.synthon_ids)) != len(rg.synthon_ids):
                raise csl.LibraryError(f"R-group {rg.rgroup_id} synthon list has duplicates")
            missing = set(rg.synthon_ids) - known
            if missing:
                raise csl.LibraryError(f"R-group {rg.rgroup_id} references unknown synthons {sorted(missing)}")
    csl.product_count(library)


def outcome(parse, text):
    """The library a parser returns, or the message of the LibraryError it raises."""
    try:
        return parse(text)
    except csl.LibraryError as exc:
        return str(exc)


@st.composite
def perturbed_lines(draw, edits):
    """A drawn library's serialization as a list of lines, each edit drawn from `edits` applied in turn."""
    lines = csl.serialize_library(draw(mixed_libraries())).splitlines()
    for edit in draw(st.lists(st.sampled_from(edits), max_size=4)):
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "blank_line":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif edit == "space_runs":
            lines[i] = lines[i].replace(" ", " " * draw(st.integers(2, 3))) + " "
        elif edit == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
        elif edit == "crlf":
            lines = [ln + "\r" for ln in lines]
        elif edit == "leading_zeros":
            lines[i] = " ".join(f"0{p}" if p.isdigit() else p for p in lines[i].split(" "))
        elif edit == "rgroups_first":  # right after the header
            h = next((i + 1 for i, ln in enumerate(lines) if ln.startswith("cslv1")), 1)
            lines = lines[:h] + [ln for ln in lines[h:] if ln.startswith("R")] + [
                ln for ln in lines[h:] if not ln.startswith("R")]
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "drop":
            del lines[i]
        elif edit == "add_field":
            lines[i] += " " + draw(st.sampled_from(["7", "x*"]))
        elif edit == "drop_field":
            lines[i] = lines[i].rsplit(" ", 1)[0]
        elif edit == "bad_token":
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(["x", "-1", "+2", "1.5", "Q", "9"]))
            lines[i] = " ".join(parts)
    return lines


CANONICAL_EDITS = ["blank_line", "space_runs", "tabs", "crlf", "leading_zeros", "rgroups_first"]


@settings(max_examples=200, deadline=None)
@given(lines=perturbed_lines(CANONICAL_EDITS + ["swap", "repeat", "drop", "add_field", "drop_field", "bad_token"]))
def test_deserialize_matches_line_at_a_time_parser(lines):
    # the same library, or the same message naming the same line
    text = "\n".join(lines) + "\n"
    assert outcome(csl.deserialize_library, text) == outcome(reference_deserialize, text)


@settings(max_examples=100, deadline=None)
@given(lines=perturbed_lines(CANONICAL_EDITS), other=mixed_libraries())
def test_fingerprint_matches_is_exact(lines, other):
    text = "\n".join(lines) + "\n"
    library = csl.deserialize_library(text)
    canonical = csl.serialize_library(library)
    assert csl.deserialize_library(canonical) == library
    assert (library.text_sha256 == csl.library_fingerprint(library)) == (text == canonical)
    for fingerprint in (csl.library_fingerprint(library), csl.library_fingerprint(other)):
        assert csl.fingerprint_matches(library, fingerprint) == (csl.library_fingerprint(library) == fingerprint)


@settings(max_examples=200, deadline=None)
@given(library=mixed_libraries(), data=st.data())
def test_check_library_matches_rgroup_at_a_time_check(library, data):
    # the same first failure, or none, after a few edits of the reactions and synthons
    reactions = [[[rg.rgroup_id, list(rg.synthon_ids)] for rg in rx.rgroups] for rx in library.reactions]
    reaction_ids, synthon_ids = list(range(len(reactions))), list(range(len(library.synthons)))
    n = len(synthon_ids)
    for edit in data.draw(st.lists(st.sampled_from(
            ["drop_rgroup", "empty", "repeat_synthon", "unknown_synthon", "share_rgroup", "reaction_id",
             "synthon_id", "rgroup_id"]), max_size=3)):
        rx = reactions[data.draw(st.integers(0, len(reactions) - 1))]
        rg = rx[data.draw(st.integers(0, len(rx) - 1))] if rx else None
        if edit == "drop_rgroup" and rx:
            rx.remove(rg)
        elif edit == "empty" and rg:
            rg[1] = []
        elif edit == "repeat_synthon" and rg and rg[1]:
            rg[1].append(data.draw(st.sampled_from(rg[1])))
        elif edit == "unknown_synthon" and rg:
            rg[1].insert(data.draw(st.integers(0, len(rg[1]))), data.draw(st.sampled_from([-1, n, n + 3])))
        elif edit == "share_rgroup":
            rx.append(list(data.draw(st.sampled_from([g for r in reactions for g in r] or [[0, [0]]]))))
        elif edit == "reaction_id":
            reaction_ids[data.draw(st.integers(0, len(reactions) - 1))] = data.draw(st.integers(0, 4))
        elif edit == "synthon_id":
            synthon_ids[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n))
        elif edit == "rgroup_id" and rg:
            rg[0] = data.draw(st.integers(0, 8))
    edited = csl.CslLibrary(
        tuple(csl.ReactionSpec(t, tuple(csl.RgroupSpec(g, tuple(ids)) for g, ids in rx))
              for t, rx in zip(reaction_ids, reactions)),
        tuple(csl.SynthonRecord(i, s.token) for i, s in zip(synthon_ids, library.synthons)))
    assert outcome(csl.check_library, edited) == outcome(reference_check_library, edited)


@settings(max_examples=300, deadline=None)
@given(lines=perturbed_lines(CANONICAL_EDITS + ["swap", "repeat", "drop", "add_field", "drop_field", "bad_token"]))
@example(lines=["cslv1 2 2 1", "S 0 a*", "S 1 b*", "R 0 0", "R 1 1", "T 0 0 1"])
@example(lines=["cslv1 2 2 1", "S 0 a*", "S 1 b*", "R 0 0", "R 1 5", "T 0 0 1"])
@example(lines=["cslv1 2 3 1", "S 0 a*", "S 1 b*", "R 0 0", "R 1 1", "R 2 0 1", "T 0 0 1"])
@example(lines=["cslv1 2 2 1", "S 0 a*", "S 1 b*", "R 0 0", "R 1 1", "T 0 0\x0c1"])
def test_tail_read_matches_the_full_parse(lines):
    # under a fingerprint that matches the text, honest or forged, the read gives
    # the full parse's library, or else, when the full parse fails, its layout
    # is that of the R and T lines, and the first read of the synthons raises
    # the full parse's error; a text it cannot read so is parsed in full
    text = "\n".join(lines) + "\n"
    full = outcome(csl.deserialize_library, text)
    library = csl._tail_library(text, "forged")
    if library is None:  # never the canonical text of a library
        assert not isinstance(full, csl.CslLibrary) or text != csl.serialize_library(full)
        return
    assert library.text_sha256 == "forged"
    # its R and T lines, under as many well-formed S lines as the header counts, pass the full parse
    n_s = int(lines[0].split()[1])
    repaired = [lines[0], *(f"S {i} s*" for i in range(n_s)), *lines[1 + n_s:]]
    assert csl.deserialize_library("\n".join(repaired) + "\n").reactions == library.reactions
    if isinstance(full, csl.CslLibrary):
        assert library == full
    else:
        with pytest.raises(csl.LibraryError) as info:
            library.synthons
        assert str(info.value) == full
