import itertools
import json
import re
import string
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowexplain.catalog import default_catalog, fold
from flowexplain.checkers import (
    _DURATION_CLAIM,
    _duration_claims,
    check_factual_claims,
    check_feature_consistency,
    decode_tcp_flags,
    extract_feature_mentions,
    milliseconds_to,
    parse_written_unit,
    run_all_checks,
    well_known_ports,
)

from . import checkers_reference, unit_reference
from .conftest import DATA_DIR, make_record
from .data.record_checkers_golden import (
    FUZZ_CASES,
    FUZZ_CHUNK,
    FUZZ_SEED,
    chunk_digests,
    fixture_records,
    fuzz_cases,
    text_cases,
)


GOLDEN = json.loads((DATA_DIR / "checkers_golden.json").read_text(encoding="utf-8"))


@pytest.fixture
def record(catalog):
    return make_record(
        catalog,
        MIN_TTL=32,
        MAX_TTL=64,
        IN_BYTES=1200,
        TCP_FLAGS=27,
        FLOW_DURATION_MILLISECONDS=4294964,
        SRC_TO_DST_AVG_THROUGHPUT=8000,
        IPV4_SRC_ADDR="172.31.69.17",
        IPV4_DST_ADDR="8.8.8.8",
    )


class TestDecodeTcpFlags:
    def test_27_decodes_to_fin_syn_psh_ack(self):
        assert decode_tcp_flags(27) == {"FIN", "SYN", "PSH", "ACK"}

    def test_zero_is_empty(self):
        assert decode_tcp_flags(0) == frozenset()

    def test_two_is_syn(self):
        assert decode_tcp_flags(2) == {"SYN"}

    def test_255_is_all_flags(self):
        assert decode_tcp_flags(255) == {
            "FIN", "SYN", "RST", "PSH", "ACK", "URG", "ECE", "CWR",
        }

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            decode_tcp_flags(bad)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_monotone_in_bits(self, a, b):
        assert decode_tcp_flags(a) <= decode_tcp_flags(a | b)

    def test_matches_bit_enumeration_oracle(self):
        bits = {1: "FIN", 2: "SYN", 4: "RST", 8: "PSH", 16: "ACK", 32: "URG", 64: "ECE", 128: "CWR"}
        for value in range(256):
            expected = {name for bit, name in bits.items() if value & bit}
            assert decode_tcp_flags(value) == expected


class TestExtractMentions:
    def test_min_max_ttl_pair(self, catalog):
        text = "suspicious feature values: MIN_TTL:254, MAX_TTL: 255 - unusually high"
        mentions = extract_feature_mentions(text, catalog)
        by_name = {m.feature: m for m in mentions}
        assert by_name["MIN_TTL"].value == Decimal(254)
        assert by_name["MAX_TTL"].value == Decimal(255)
        for m in mentions:
            assert text[m.span[0] : m.span[1]].startswith(m.feature)

    def test_prose_without_features_is_empty(self, catalog):
        assert extract_feature_mentions("nothing suspicious here at all", catalog) == []

    def test_unknown_feature_flagged(self, catalog):
        mentions = extract_feature_mentions("PACKET_ENTROPY: 0.9 looks odd", catalog)
        assert len(mentions) == 1
        assert mentions[0].known is False
        assert mentions[0].value == Decimal("0.9")

    def test_parenthesised_value(self, catalog):
        mentions = extract_feature_mentions("the IN_BYTES (1200) total", catalog)
        assert mentions[0].value == Decimal(1200)

    def test_case_insensitive_word_bounded(self, catalog):
        mentions = extract_feature_mentions("in_bytes: 7 and RETRANSMITTED_IN_BYTES: 9", catalog)
        names = sorted(m.feature for m in mentions)
        assert names == ["IN_BYTES", "RETRANSMITTED_IN_BYTES"]

    def test_unit_captured_case_sensitively(self, catalog):
        text = "SRC_TO_DST_AVG_THROUGHPUT: 8000 bps and IN_BYTES: 1200 Bps"
        mentions = {m.feature: m for m in extract_feature_mentions(text, catalog)}
        assert mentions["SRC_TO_DST_AVG_THROUGHPUT"].unit == "bps"
        assert mentions["IN_BYTES"].unit == "Bps"

    def test_acronyms_without_underscore_not_unknown(self, catalog):
        mentions = extract_feature_mentions("plain TCP and UDP and TTL talk", catalog)
        assert mentions == []

    def test_address_value_captured(self, catalog):
        mentions = extract_feature_mentions("IPV4_SRC_ADDR: 172.31.69.17 origin", catalog)
        assert mentions[0].value == "172.31.69.17"

    @pytest.mark.parametrize(
        "text, features",
        [
            ("ipv4_src_addr: 1.2.3.4 and In_Bytes: 5", ["IPV4_SRC_ADDR", "IN_BYTES"]),
            ("IN_BYTES_X: 5 and X_IN_BYTES", ["IN_BYTES_X", "X_IN_BYTES"]),
            ("5IN_BYTES and in_bytes5", []),
            ("\ufb02ow_duration_milliseconds: 5 and \u017frc_to_dst_avg_throughput: 5",
             ["SRC_TO_DST_AVG_THROUGHPUT"]),
        ],
    )
    def test_mentions_are_whole_identifiers(self, catalog, text, features):
        assert [m.feature for m in extract_feature_mentions(text, catalog)] == features

    def test_spans_lie_within_text(self, catalog):
        text = "MIN_TTL: 3, PACKET_ENTROPY (0.4), IN_BYTES=9 bytes"
        for m in extract_feature_mentions(text, catalog):
            assert 0 <= m.span[0] < m.span[1] <= len(text)


class TestFeatureConsistency:
    def _findings(self, catalog, record, text):
        return check_feature_consistency(
            extract_feature_mentions(text, catalog), record, catalog
        )

    def test_value_mismatch_flagged(self, catalog, record):
        findings = self._findings(catalog, record, "high TTLs: MIN_TTL:254, MAX_TTL: 255")
        kinds = [f.kind for f in findings]
        assert kinds == ["value_mismatch", "value_mismatch"]
        assert "254" in findings[0].detail and "32" in findings[0].detail

    def test_matching_values_no_findings(self, catalog, record):
        findings = self._findings(catalog, record, "MIN_TTL: 32 and MAX_TTL: 64 and IN_BYTES: 1200")
        assert findings == []

    def test_bytes_per_second_unit_swap_flagged(self, catalog, record):
        text = "SRC_TO_DST_AVG_THROUGHPUT: 8000 Bps on average"
        findings = self._findings(catalog, record, text)
        assert [f.kind for f in findings] == ["unit_mismatch"]
        assert "bits-per-second" in findings[0].detail

    def test_correct_rate_unit_not_flagged(self, catalog, record):
        findings = self._findings(catalog, record, "SRC_TO_DST_AVG_THROUGHPUT: 8000 bps")
        assert findings == []

    def test_scaled_rate_unit_normalised(self, catalog, record):
        findings = self._findings(catalog, record, "SRC_TO_DST_AVG_THROUGHPUT: 8 Kbps")
        assert findings == []

    def test_scaled_byte_quantity_normalised(self, catalog, record):
        findings = self._findings(catalog, record, "IN_BYTES: 1.2 KB transferred")
        assert findings == []

    def test_wrong_scaled_value_flagged(self, catalog, record):
        findings = self._findings(catalog, record, "IN_BYTES: 5.2 KB transferred")
        assert [f.kind for f in findings] == ["value_mismatch"]

    def test_exact_quote_of_a_long_value_with_its_unit(self, catalog):
        # 31 significant digits, more than a default decimal context keeps
        recorded = 10**30 + 7
        record = make_record(catalog, IN_BYTES=recorded)
        assert self._findings(catalog, record, f"IN_BYTES: {recorded} bytes") == []
        findings = self._findings(catalog, record, f"IN_BYTES: {recorded + 1} bytes")
        assert [f.kind for f in findings] == ["value_mismatch"]

    def test_time_unit_normalised(self, catalog, record):
        text = "FLOW_DURATION_MILLISECONDS: 4294964 ms"
        assert self._findings(catalog, record, text) == []

    def test_unknown_feature_reported_as_warning(self, catalog, record):
        findings = self._findings(catalog, record, "PACKET_ENTROPY: 0.9 stands out")
        assert [f.kind for f in findings] == ["unknown_feature"]
        assert findings[0].severity == "warning"

    def test_address_mismatch_flagged(self, catalog, record):
        findings = self._findings(catalog, record, "IPV4_SRC_ADDR: 10.0.0.99 origin")
        assert [f.kind for f in findings] == ["value_mismatch"]

    def test_mention_without_value_is_fine(self, catalog, record):
        findings = self._findings(catalog, record, "the MIN_TTL field matters here")
        assert findings == []


class TestFactualClaims:
    def test_bad_minute_conversion_flagged(self):
        text = "the flow lasted 4294964 ms which is equivalent to 43 minutes"
        findings = check_factual_claims(text)
        assert [f.kind for f in findings] == ["arithmetic_error"]
        assert "71.58" in findings[0].detail

    def test_correct_minute_conversion_passes(self):
        text = "4294964 ms is approximately 71.6 minutes of traffic"
        assert check_factual_claims(text) == []

    def test_conversion_within_tolerance_passes(self):
        assert check_factual_claims("120000 ms equals 2 minutes") == []
        assert check_factual_claims("1500 ms is about 1.5 seconds") == []

    def test_bgp_port_claim_passes(self):
        assert check_factual_claims("the BGP port number is 179") == []

    def test_wrong_port_claim_flagged(self):
        findings = check_factual_claims("the SSH port number is 2222")
        assert [f.kind for f in findings] == ["fact_error"]
        assert "22" in findings[0].detail

    def test_port_claim_parenthesised_forms(self):
        assert check_factual_claims("HTTPS (port 443) traffic") == []
        findings = check_factual_claims("port 179 (DNS) traffic")
        assert [f.kind for f in findings] == ["fact_error"]

    def test_overlapping_port_claims_are_each_checked(self):
        findings = check_factual_claims("HTTP port 81 (HTTP)")
        assert [f.span for f in findings] == [(0, 12), (5, 19)]

    @pytest.mark.parametrize("ms", ["0", "5", "1" * 1_000_010], ids=["zero", "five", "long"])
    def test_duration_past_decimal_range_is_checked_not_raised(self, ms):
        text = f"{ms} ms is {'1' * 1_000_010} seconds"
        assert [f.kind for f in check_factual_claims(text)] == ["arithmetic_error"]

    def test_duration_detail_is_bounded_for_a_long_quote(self):
        (finding,) = check_factual_claims(f"5 ms is {'9' * 100_000} seconds")
        assert finding.detail.startswith("5 ms is 0.00 seconds, not 999")
        assert finding.detail.endswith("… (100000 characters)")
        assert len(finding.detail) < 200
        (finding,) = check_factual_claims(f"{'9' * 100_000} ms is 5 seconds")
        assert finding.detail.count("characters)") == 2 and len(finding.detail) < 300

    def test_unlisted_service_not_checked(self):
        assert check_factual_claims("the FOOBARD port number is 9999") == []

    def test_source_port_prose_not_checked(self):
        assert check_factual_claims("the source port 50879 is ephemeral") == []

    def test_correct_tcp_flags_decode_passes(self):
        text = "TCP_FLAGS 27 means SYN, FIN, PSH, ACK are present"
        assert check_factual_claims(text) == []

    def test_wrong_tcp_flags_decode_flagged(self):
        findings = check_factual_claims("a TCP flags value of 27 (SYN, ACK)")
        assert [f.kind for f in findings] == ["fact_error"]
        assert "FIN" in findings[0].detail

    def test_unmatched_prose_yields_nothing(self):
        text = (
            "This flow shows a large transfer to an external host over an "
            "encrypted channel, sustained for several minutes."
        )
        assert check_factual_claims(text) == []

    def test_findings_cite_spans(self):
        text = "padding. 4294964 ms is equivalent to 43 minutes. more padding"
        finding = check_factual_claims(text)[0]
        start, end = finding.span
        assert "4294964 ms" in text[start:end]


class TestFactOracles:
    def test_milliseconds_to_minutes(self):
        value = milliseconds_to(4294964, "minutes")
        assert abs(value - Decimal("71.58")) < Decimal("0.1")

    def test_milliseconds_to_seconds(self):
        assert milliseconds_to(1500, "seconds") == Decimal("1.5")

    def test_bgp_port_in_table(self):
        assert well_known_ports()["BGP"] == 179

    def test_common_ports(self):
        table = well_known_ports()
        assert table["HTTP"] == 80
        assert table["HTTPS"] == 443
        assert table["SSH"] == 22
        assert table["DNS"] == 53


class TestWrittenUnits:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("bps", ("bit_rate", Decimal(1))),
            ("Bps", ("byte_rate", Decimal(1))),
            ("Kbps", ("bit_rate", Decimal(1000))),
            ("MB", ("bytes", Decimal(10**6))),
            ("KiB", ("bytes", Decimal(1024))),
            ("bytes", ("bytes", Decimal(1))),
            ("ms", ("time", Decimal(1))),
            ("seconds", ("time", Decimal(1000))),
            ("packets", ("count", Decimal(1))),
            ("B/s", ("byte_rate", Decimal(1))),
        ],
    )
    def test_parse(self, token, expected):
        assert parse_written_unit(token) == expected

    @pytest.mark.parametrize("token", ["", "xyz", "weird", "123"])
    def test_unparseable(self, token):
        assert parse_written_unit(token) is None


def _outcome(function, *args):
    """``repr`` of what ``function`` returns, or the type and message of its ValueError."""
    try:
        return repr(function(*args))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


class TestWrittenUnitsMatchReference:
    """The unit tables answer as the suffix-stripping grammar in ``unit_reference``."""

    ALPHABET = "bBkKmMgGtTiIpPsS/\u212a"  # U+212A, the Kelvin sign, lower-cases to "k"
    WORDS = (
        "ms", "msec", "msecs", "millisecond", "milliseconds", "s", "sec", "secs", "second",
        "seconds", "min", "mins", "minute", "minutes", "h", "hr", "hrs", "hour", "hours",
        "packet", "packets", "pkt", "pkts", "byte", "bytes", "bit", "bits", "day", "kbit",
    )

    @staticmethod
    def _spellings(word):
        cases = {word, word.upper(), word.title(), word.swapcase(), word[:-1] + word[-1:].upper()}
        return sorted(
            {form + suffix for form in cases for suffix in ("", ".", "/s", "ps", "PS", "\n")}
        )

    def test_every_short_token(self):
        tokens = [
            "".join(letters)
            for length in range(5)
            for letters in itertools.product(self.ALPHABET, repeat=length)
        ]
        assert len(tokens) == 111_151
        differ = [
            token for token in tokens
            if repr(parse_written_unit(token)) != repr(unit_reference.parse_written_unit(token))
        ]
        assert differ == []
        assert parse_written_unit("pkt") == ("count", Decimal(1))
        assert parse_written_unit("p\u212at") is None

    def test_word_spellings(self):
        for word in self.WORDS:
            for token in self._spellings(word):
                assert _outcome(parse_written_unit, token) == _outcome(
                    unit_reference.parse_written_unit, token
                ), token

    @pytest.mark.parametrize("value", [4294964, 1500, 0, Decimal("1.5"), 0.25])
    def test_duration_units_and_their_errors(self, value):
        for word in self.WORDS + ("", "x", "minute\u017f", "\u212a"):
            for unit in self._spellings(word):
                assert _outcome(milliseconds_to, value, unit) == _outcome(
                    unit_reference.milliseconds_to, value, unit
                ), unit


class TestRunAllChecks:
    def test_combined_ordering_by_span(self, catalog, record):
        text = (
            "MIN_TTL:254 is high. Also 4294964 ms is equivalent to 43 minutes "
            "and the SSH port number is 2222."
        )
        findings = run_all_checks(text, record, catalog)
        kinds = [f.kind for f in findings]
        assert kinds == ["value_mismatch", "arithmetic_error", "fact_error"]
        spans = [f.span for f in findings]
        assert spans == sorted(spans)


# pieces of duration claims and of near misses: number runs with commas and
# points, both units in several spellings, and the words between them
DURATION_PIECES = [
    "1", "0", "٣", ",", ".", " ", "\n", "ms", "MS", "m\u017f", "msec", "milliseconds", " is ",
    ", which", " equals ", "about ", "0.5", "1,000", " seconds", " min", " hours", "x",
    "is equivalent to ",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(DURATION_PIECES), max_size=14).map("".join))
def test_duration_claims_found_from_units_are_those_a_scan_finds(text):
    def found(matches):
        return [(match.span(), match.groupdict()) for match in matches]

    assert found(_duration_claims(text, fold(text))) == found(_DURATION_CLAIM.finditer(text))


class TestUntrustedText:
    @pytest.mark.parametrize(
        "text",
        [
            "IN_P\u212aTS: 5",  # Kelvin sign for K: upper-cases to no catalog name
            "\u0130N_BYTES: 3",  # capital I with dot above
            "4294964 ms is about 71 min\u017f",  # long s in the unit
        ],
    )
    def test_lookalike_letters_yield_no_mention_and_no_error(self, catalog, record, text):
        assert extract_feature_mentions(text, catalog) == []
        assert run_all_checks(text, record, catalog) == []

    @pytest.mark.parametrize(
        "text, kinds",
        [
            ("1" * 40 + " ms is 5 seconds", ["arithmetic_error"]),  # past Decimal precision
            ("TCP flags 18 means SYNandACK", []),
            ("TCP flags 18 means SYN andRST", ["fact_error"]),
        ],
    )
    def test_odd_claims_are_checked_not_raised(self, text, kinds):
        assert [f.kind for f in check_factual_claims(text)] == kinds

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 100_000,
            "1," * 50_000,
            "1." + "2" * 99_998,
            " ".join(entry["text"] for entry in GOLDEN["texts"]["stub"])[:100_000],
            "_" * 100_000,
            "a_" * 50_000,
            "port " * 20_000,
            "(port" * 20_000,
            "x" * 100_000 + "_",
            " " * 100_000,
            "protocol " * 10_000,
            "tcp " * 25_000,
        ],
        ids=[
            "digit-run", "digit-comma-run", "decimal-run", "stub-answers", "underscore-run",
            "underscored-word", "port-anchors", "paren-port-anchors", "word-then-underscore",
            "space-run", "plain-name-run", "tcp-anchors",
        ],
    )
    def test_checks_are_linear_in_text_length(self, catalog, record, text):
        started = time.perf_counter()
        run_all_checks(text, record, catalog)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("digits", [100_000, 1_000_010])
    def test_scaled_value_past_decimal_range_is_a_mismatch(self, catalog, record, digits):
        # scaled by 1000, a million digits pass the context's Emax
        text = "IN_BYTES: " + "1" * digits + " KB"
        assert [f.kind for f in run_all_checks(text, record, catalog)] == ["value_mismatch"]

    @pytest.mark.parametrize("unit", ["", " KB"])
    def test_finding_detail_is_bounded_for_a_long_quote(self, catalog, record, unit):
        text = "IN_BYTES: " + "1" * 1_000_010 + unit
        (finding,) = run_all_checks(text, record, catalog)
        assert len(finding.detail) < 200
        assert "(1000010 characters)" in finding.detail

    def test_digits_then_duration_claim_still_found(self):
        findings = check_factual_claims(",,4294964 ms is equivalent to 43 minutes")
        assert [f.kind for f in findings] == ["arithmetic_error"]
        assert findings[0].span[0] == 2


class TestCheckersGolden:
    """Checker output matches digests recorded with the alternation-based extraction.

    ``data/record_checkers_golden.py`` records ``data/checkers_golden.json``
    from the benchmark stub's answers for every fixture row, the texts of
    acceptance criterion 3 and seeded fuzz strings. Where the recorded code
    raised on model output, the current code must return findings instead.
    """

    def test_fuzz_settings_match_recording(self):
        assert GOLDEN["fuzz"] == {"seed": FUZZ_SEED, "cases": FUZZ_CASES, "chunk": FUZZ_CHUNK}

    @pytest.mark.parametrize("case_set", ["stub", "faults"])
    def test_recorded_texts_match_golden_digests(self, catalog, case_set):
        cases = text_cases(GOLDEN["texts"][case_set], fixture_records(catalog))
        digests, raised = chunk_digests(cases, catalog, chunk=1)
        assert raised == []
        assert digests == GOLDEN["digests"][case_set]

    def test_fuzz_matches_golden_digests(self, catalog):
        skip = frozenset(GOLDEN["raised"]["fuzz"])
        assert skip, "the recording raised on some fuzz strings; they must be covered"
        cases = fuzz_cases(fixture_records(catalog))
        digests, raised = chunk_digests(cases, catalog, chunk=FUZZ_CHUNK, skip=skip)
        assert raised == []
        assert digests == GOLDEN["digests"]["fuzz"]


def _words(*words: str) -> st.SearchStrategy[str]:
    """One of ``words``, each letter in either case."""
    return st.tuples(st.sampled_from(words), st.integers(0, 2**20 - 1)).map(
        lambda pick: "".join(
            c.swapcase() if pick[1] >> i & 1 else c for i, c in enumerate(pick[0])
        )
    )


def _joined(*parts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(*parts).map("".join)


#: the non-ASCII letters that match an ASCII letter when case is ignored
_LOOKALIKE_OF = {"i": ("\u0131", "\u0130"), "s": ("\u017f",), "k": ("\u212a",)}


def _anchor_words(*words: str) -> st.SearchStrategy[str]:
    """One of ``words``, each letter in either case; in half the draws, a
    letter may also be a non-ASCII letter that matches it ignoring case."""
    lookalikes = st.sampled_from(words).flatmap(
        lambda word: st.tuples(*(
            st.sampled_from((c.lower(), c.upper(), *_LOOKALIKE_OF.get(c.lower(), ())))
            for c in word
        )).map("".join)
    )
    return st.one_of(_words(*words), lookalikes)


# Service names up to and past the 16 characters a claim's name can have;
# the hyphenated ones end in a listed service, which a claim found from too
# short a window would start at.
_SERVICE = st.one_of(
    _words("SSH", "HTTP", "HTTPS", "DNS", "FTP-DATA", "POP3", "FOOBARD", "x+y"),
    _words("ABCDEFGHIJK-SSH", "ABCDEFGHIJKL-SSH", "ABCDEFGHIJKLM-SSH"),
)
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n", " " * 8])
_NUMBER = _joined(
    st.sampled_from(["", ","]), st.integers(0, 99_999).map(str),
    st.sampled_from(["", ",000", ",5"]), st.sampled_from(["", ".5", ".25"]),
)
_FLAGS = st.lists(_words("SYN", "ACK", "FIN", "RST", "PSH", "URG"), min_size=1, max_size=3)
_PORT = _anchor_words("port")
_CLAIM = st.one_of(
    _joined(_SERVICE, _SPACE, _PORT, _words("", " number", " is", ":"), _SPACE, _NUMBER),
    _joined(_SERVICE, _SPACE, st.just("("), _SPACE, _PORT, _SPACE, _NUMBER, _SPACE,
            st.just(")")),
    _joined(_PORT, _SPACE, _NUMBER, _SPACE, st.just("("), _SPACE, _SERVICE, _SPACE,
            st.just(")")),
    _joined(_anchor_words("tcp"), st.sampled_from(["", " ", "_"]),
            _anchor_words("flags", "flag"), _SPACE, _NUMBER, _SPACE, _words("means", "(", ":"),
            _SPACE, _FLAGS.map(", ".join)),
    _joined(_NUMBER, _SPACE, _anchor_words("ms", "msec", "millisecond", "milliseconds"),
            _words(" is", " which is", " equals", "", ","), _SPACE, _words("", "about "),
            _NUMBER, _SPACE, _anchor_words("sec", "seconds", "min", "minutes", "hours")),
)
_NAMES = default_catalog().feature_names
_LOOKALIKES = (("I", "ı"), ("I", "İ"), ("S", "ſ"), ("K", "\u212a"), ("FL", "ﬂ"))
_NAME = st.one_of(
    _words(*_NAMES),
    _words(*(name for name in _NAMES if "_" not in name), "PROTOCOLS", "PROTO"),
    _words("PACKET_ENTROPY", "IN", "BYTES", "_", *(odd for _, odd in _LOOKALIKES)),
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_LOOKALIKES)).map(
        lambda pick: pick[0].replace(*pick[1], 1)
    ),
)
_MENTION = _joined(_NAME, _SPACE, st.sampled_from([":", "=", "(", ""]), _SPACE, _NUMBER, _SPACE,
                   _words("", "ms", "sec", "min", "bytes", "bps", "Bps", "KB"))
_WORD = st.one_of(
    _words("(", ")", ":", "=", ",", "."),
    _anchor_words("port", "tcp", "flags", "ms", "msec", "millisecond", "sec", "min"),
)
_PIECE = st.one_of(_CLAIM, _MENTION, _NAME, _WORD, _NUMBER)
_TEXT = st.lists(st.tuples(_PIECE, _SPACE), max_size=16).map(
    lambda pieces: "".join(piece + space for piece, space in pieces)
)


@settings(max_examples=300, deadline=None)
@given(text=_TEXT)
@example(text="ABCDEFGHIJKL-SSH port 23, abcdefghijk-ssh \t (port 2) and Protocol: 17")
def test_checks_match_the_reference_checkers(catalog, text):
    """The anchored scans give the mentions and findings of the every-word scans."""
    record = make_record(
        catalog, PROTOCOL=6, IN_BYTES=1200, TCP_FLAGS=27, FLOW_DURATION_MILLISECONDS=4294964
    )
    assert repr(extract_feature_mentions(text, catalog)) == repr(
        checkers_reference.extract_feature_mentions(text, catalog)
    )
    assert repr(run_all_checks(text, record, catalog)) == repr(
        checkers_reference.run_all_checks(text, record, catalog)
    )


def test_folding_matches_ignoring_case_at_every_code_point():
    """``fold`` keeps every offset and maps a character to an ASCII letter
    exactly when ``re.IGNORECASE`` matches it to that letter, and ``\\s``
    is ``str.isspace``: the claim anchors are found by ``str.find`` in the
    folded text on that ground. Unicode tables differ between Python
    versions, so every supported version runs this."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    folded = fold(everything)
    assert len(folded) == len(everything)
    assert [c for c in everything if len(fold(c)) != 1] == []
    for letter in string.ascii_lowercase:
        matching = [m.start() for m in re.finditer(letter, everything, re.IGNORECASE)]
        assert [m.start() for m in re.finditer(letter, folded)] == matching, letter
    spaces = [m.start() for m in re.finditer(r"\s", everything)]
    assert spaces == [i for i, c in enumerate(everything) if c.isspace()]
