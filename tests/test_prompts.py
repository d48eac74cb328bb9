import functools
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.enrichment import ContextBuilder
from flowexplain.flows import render_flow_text
from flowexplain.prompts import (
    AUGMENTED_SLOTS,
    BASIC_SLOTS,
    BudgetInfeasibleError,
    PromptBundle,
    TemplateError,
    build_augmented_prompt,
    build_basic_prompt,
    count_tokens,
    default_augmented_template,
    default_basic_template,
    enforce_budget,
    parse_template,
)
from flowexplain.providers import FixtureGeoProvider, FixtureThreatProvider

from .conftest import (
    CTI_FIXTURE,
    DATA_DIR,
    GEO_FIXTURE,
    history_entry,
    make_record,
    section_text,
    seeded_store,
)
from .data.record_budget_golden import (
    BUDGETS,
    HISTORY_DEPTHS,
    augmented_bundles,
    fitted_cases,
    group_digests,
    group_key,
)

SECTION_TITLES = (
    "NetFlow Specification:",
    "Protocol Specific Knowledge:",
    "IP Specific Knowledge:",
)


def assert_tiles(bundle: PromptBundle) -> None:
    """The sections cover the text exactly, without gaps or overlaps."""
    cursor = 0
    for offset, length in sorted(bundle.sections.values()):
        assert offset == cursor and length >= 0
        cursor = offset + length
    assert cursor == len(bundle.text)


def _record(catalog, **overrides):
    defaults = dict(
        PROTOCOL=6,
        L7_PROTO=Decimal("7.0"),
        IPV4_SRC_ADDR="172.31.69.17",
        IPV4_DST_ADDR="8.8.8.8",
        IN_BYTES=1200,
        timestamp=1_000_000,
    )
    defaults.update(overrides)
    return make_record(catalog, **defaults)


def _store_with_history(ip="8.8.8.8", n=5):
    return seeded_store(
        [
            history_entry(flow_id=f"e{i}", timestamp=i * 10, src_ip=ip, dst_ip="172.31.69.2")
            for i in range(n)
        ]
    )


class TestTemplates:
    def test_unknown_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="mystery"):
            parse_template("hello {{mystery}} {{flow}}", "t", BASIC_SLOTS)

    def test_missing_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="exactly once"):
            parse_template("no placeholders here", "t", BASIC_SLOTS)

    def test_duplicate_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="exactly once"):
            parse_template("{{flow}} and {{flow}}", "t", BASIC_SLOTS)

    def test_template_not_ending_with_flow_rejected(self):
        with pytest.raises(TemplateError, match="end with"):
            parse_template("intro {{flow}} trailing text", "t", BASIC_SLOTS)

    def test_wrong_order_rejected(self):
        with pytest.raises(TemplateError):
            parse_template(
                "{{protocols}} {{spec}} {{ip_knowledge}}", "t", AUGMENTED_SLOTS
            )

    def test_default_templates_parse(self):
        assert default_basic_template().slots == BASIC_SLOTS
        assert default_augmented_template().slots == AUGMENTED_SLOTS


class TestBasicPrompt:
    def test_flow_section_equals_rendered_flow(self, catalog):
        record = _record(catalog)
        bundle = build_basic_prompt(record, catalog, default_basic_template())
        assert section_text(bundle, "flow") == render_flow_text(record, catalog)

    def test_instruction_then_flow(self, catalog):
        bundle = build_basic_prompt(_record(catalog), catalog, default_basic_template())
        assert set(bundle.sections) == {"instruction", "flow"}
        assert bundle.sections["instruction"][0] == 0

    def test_identical_inputs_identical_bytes(self, catalog):
        record = _record(catalog)
        template = default_basic_template()
        assert (
            build_basic_prompt(record, catalog, template).text
            == build_basic_prompt(record, catalog, template).text
        )

    def test_sections_tile_text(self, catalog):
        assert_tiles(build_basic_prompt(_record(catalog), catalog, default_basic_template()))

    def test_token_count_positive(self, catalog):
        bundle = build_basic_prompt(_record(catalog), catalog, default_basic_template())
        assert bundle.token_count > 0


def _augmented(catalog, record, store=None, geo=None, cti=None, k=5):
    context = ContextBuilder(store=store, geo_provider=geo, cti_provider=cti, k=k).build(record)
    return build_augmented_prompt(
        record, context, catalog, default_basic_template(), default_augmented_template()
    )


class TestAugmentedPrompt:
    def test_basic_text_is_byte_prefix(self, catalog):
        record = _record(catalog)
        basic = build_basic_prompt(record, catalog, default_basic_template())
        augmented = _augmented(catalog, record)
        assert augmented.text.startswith(basic.text)

    def test_three_titled_sections_in_order(self, catalog):
        augmented = _augmented(catalog, _record(catalog))
        positions = [augmented.text.find(title) for title in SECTION_TITLES]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)
        for title in SECTION_TITLES:
            assert augmented.text.count(title) == 1

    def test_disabled_providers_yield_unavailability_lines(self, catalog):
        augmented = _augmented(catalog, _record(catalog))
        ip_section = section_text(augmented, "ip_knowledge")
        assert "- geolocation unavailable: no provider" in ip_section
        assert "- threat intelligence unavailable: no provider" in ip_section
        assert "- geolocation:" not in ip_section
        assert "- threat intelligence:" not in ip_section

    def test_history_lines_most_recent_first(self, catalog):
        store = _store_with_history(n=5)
        augmented = _augmented(catalog, _record(catalog), store=store)
        ip_section = section_text(augmented, "ip_knowledge")
        history_lines = [l for l in ip_section.splitlines() if l.strip().startswith(("1.", "2.", "3.", "4.", "5."))]
        assert len(history_lines) == 5
        stamps = [int(l.split("ts=")[1].split()[0]) for l in history_lines]
        assert stamps == sorted(stamps, reverse=True)

    def test_populated_provider_lines_carry_source(self, catalog):
        geo = FixtureGeoProvider(GEO_FIXTURE)
        cti = FixtureThreatProvider(CTI_FIXTURE)
        augmented = _augmented(catalog, _record(catalog), geo=geo, cti=cti)
        ip_section = section_text(augmented, "ip_knowledge")
        assert "- geolocation: country=United States" in ip_section
        assert "(source: fixture-geo@" in ip_section
        assert "- threat intelligence: verdict=benign" in ip_section

    def test_sections_tile_text(self, catalog):
        assert_tiles(_augmented(catalog, _record(catalog)))

    def test_flow_id_mismatch_rejected(self, catalog):
        record = _record(catalog)
        context = ContextBuilder().build(record)
        other = make_record(catalog, flow_id="different")
        with pytest.raises(ValueError, match="different"):
            build_augmented_prompt(
                other,
                context,
                catalog,
                default_basic_template(),
                default_augmented_template(),
            )

    def test_determinism(self, catalog):
        record = _record(catalog)
        store = _store_with_history()
        first = _augmented(catalog, record, store=store)
        store2 = _store_with_history()
        second = _augmented(catalog, record, store=store2)
        assert first.text == second.text
        assert first.sections == second.sections


class TestCountTokens:
    def test_empty_is_zero(self):
        assert count_tokens("") == 0

    def test_heuristic_matches_calibration_pair(self):
        # 1,244 characters -> 461 tokens under the ceil(len / 2.7) heuristic
        assert count_tokens("x" * 1244) == 461

    def test_long_prompt_within_15_percent_of_reference(self):
        estimate = count_tokens("x" * 6685)
        assert abs(estimate - 2308) / 2308 <= 0.15

    def test_exact_multiple_has_no_float_artifact(self):
        assert count_tokens("x" * 27) == 10

    @settings(max_examples=50, deadline=None)
    @given(a=st.text(max_size=300), b=st.text(max_size=300))
    def test_monotone_under_concatenation(self, a, b):
        assert count_tokens(a + b) >= count_tokens(a)
        assert count_tokens(a + b) >= count_tokens(b)


class TestEnforceBudget:
    def test_unchanged_when_within_budget(self, catalog):
        bundle = _augmented(catalog, _record(catalog))
        assert enforce_budget(bundle, 100_000) is bundle

    def test_budget_must_be_positive(self, catalog):
        bundle = build_basic_prompt(_record(catalog), catalog, default_basic_template())
        with pytest.raises(ValueError):
            enforce_budget(bundle, 0)

    def test_tiny_budget_is_infeasible(self, catalog):
        bundle = _augmented(catalog, _record(catalog))
        with pytest.raises(BudgetInfeasibleError):
            enforce_budget(bundle, 10)

    def test_basic_over_budget_is_infeasible(self, catalog):
        bundle = build_basic_prompt(_record(catalog), catalog, default_basic_template())
        with pytest.raises(BudgetInfeasibleError):
            enforce_budget(bundle, bundle.token_count - 1)

    def test_history_trimmed_oldest_first(self, catalog):
        store = _store_with_history(n=5)
        bundle = _augmented(catalog, _record(catalog), store=store)
        budget = bundle.token_count - 1  # force at least one trim
        trimmed = enforce_budget(bundle, budget)
        assert trimmed.token_count <= budget
        ip_section = section_text(trimmed, "ip_knowledge")
        # oldest entries (smallest ts) go first; the newest must survive
        assert "ts=40" in ip_section
        assert "ts=0 " not in ip_section
        assert "omitted for budget" in ip_section
        assert trimmed.metadata["trims"], "trims must be recorded"
        assert trimmed.metadata["trims"][0] == "history_entry"

    def test_instruction_and_flow_unchanged_by_trimming(self, catalog):
        store = _store_with_history(n=5)
        bundle = _augmented(catalog, _record(catalog), store=store)
        trimmed = enforce_budget(bundle, bundle.token_count - 5)
        assert section_text(trimmed, "instruction") == section_text(bundle, "instruction")
        assert section_text(trimmed, "flow") == section_text(bundle, "flow")

    def test_zero_valued_spec_lines_trimmed_after_history(self, catalog):
        record = _record(catalog)  # synthetic records have many zero features
        bundle = _augmented(catalog, record)
        spec_len = len(section_text(bundle, "netflow_spec"))
        # no history to trim; force spec trimming
        trimmed = enforce_budget(bundle, bundle.token_count - 30)
        assert any(t.startswith("spec_entry:") for t in trimmed.metadata["trims"])
        assert len(section_text(trimmed, "netflow_spec")) < spec_len
        # only zero-valued features may be dropped
        dropped = {t.split(":", 1)[1] for t in trimmed.metadata["trims"] if ":" in t}
        for name in dropped:
            assert record.values[name] == 0

    def test_availability_markers_survive_trimming(self, catalog):
        bundle = _augmented(catalog, _record(catalog))
        trimmed = enforce_budget(bundle, bundle.token_count - 30)
        ip_section = section_text(trimmed, "ip_knowledge")
        assert "- geolocation unavailable:" in ip_section
        assert "- threat intelligence unavailable:" in ip_section

    def test_result_token_count_within_budget_or_error(self, catalog):
        store = _store_with_history(n=5)
        bundle = _augmented(catalog, _record(catalog), store=store)
        for budget in (bundle.token_count, bundle.token_count - 40, 600):
            try:
                result = enforce_budget(bundle, budget)
            except BudgetInfeasibleError:
                continue
            assert result.token_count <= budget


class TestBudgetFitGolden:
    """Fitted prompts of the fixture flows match digests of the rebuild-per-trim fit.

    The digests in ``data/budget_golden.json`` cover every malicious fixture
    flow with its history ingested, k 0..8 and budgets 600..3000 by 100;
    ``data/record_budget_golden.py`` records them.
    """

    golden = json.loads((DATA_DIR / "budget_golden.json").read_text(encoding="utf-8"))

    def test_budget_grid_matches_recording(self):
        assert self.golden["budgets"] == [BUDGETS.start, BUDGETS.stop, BUDGETS.step]

    @pytest.mark.parametrize("k", HISTORY_DEPTHS, ids="heuristic-{}".format)
    def test_outcomes_match_golden_digests(self, k):
        cases = list(fitted_cases(k))
        for _, _, outcome in cases:
            if isinstance(outcome, PromptBundle):
                assert_tiles(outcome)
        assert group_digests(iter(cases)) == self.golden["groups"][group_key(k)]


@functools.lru_cache(maxsize=None)
def _fixture_bundles(k: int) -> tuple[PromptBundle, ...]:
    return tuple(augmented_bundles(k))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fitted_bundle_properties(data):
    k = data.draw(st.sampled_from(HISTORY_DEPTHS))
    bundle = data.draw(st.sampled_from(_fixture_bundles(k)))
    budget = data.draw(st.integers(min_value=1, max_value=3500))
    try:
        fitted = enforce_budget(bundle, budget)
    except BudgetInfeasibleError as exc:
        assert exc.token_count > budget
        return
    assert_tiles(fitted)
    assert fitted.token_count == count_tokens(fitted.text)
    assert fitted.token_count <= budget
    for section_id in ("instruction", "flow"):
        assert section_text(fitted, section_id) == section_text(bundle, section_id)
    # trims follow the fixed order: history, then spec entries, then protocols
    kinds = [
        0 if trim == "history_entry" else 1 if trim.startswith("spec_entry:") else 2
        for trim in fitted.metadata["trims"]
    ]
    assert kinds == sorted(kinds)
