import pytest

from flowexplain.catalog import CatalogError, default_catalog, load_catalog


def test_default_catalog_has_43_features(catalog):
    assert len(catalog) == 43
    assert catalog.version == "nfv2-2022"
    assert catalog.label_column == "Label"
    assert catalog.attack_column == "Attack"


def test_feature_order_is_stable(catalog):
    names = catalog.feature_names
    assert names[0] == "IPV4_SRC_ADDR"
    assert names[4] == "PROTOCOL"
    assert names[5] == "L7_PROTO"
    assert names[-1] == "FTP_COMMAND_RET_CODE"


def test_lookup_is_total_over_listed_features(catalog):
    for name in catalog.feature_names:
        assert catalog.get(name).name == name
        assert name in catalog


def test_lookup_unknown_feature_raises(catalog):
    with pytest.raises(CatalogError, match="PACKET_ENTROPY"):
        catalog.get("PACKET_ENTROPY")


def _doc(features):
    return {"version": "v-test", "features": features}


def _feature(name="IN_BYTES", unit="bytes", value_kind="integer"):
    return {"name": name, "definition": "d", "unit": unit, "value_kind": value_kind}


def test_duplicate_feature_name_rejected():
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(_doc([_feature(), _feature()]))


def test_empty_feature_list_rejected():
    with pytest.raises(CatalogError, match="empty catalog"):
        load_catalog(_doc([]))


@pytest.mark.parametrize("name", ["IN BYTES", "IN-BYTES", ""])
def test_feature_name_must_be_an_identifier(name):
    with pytest.raises(CatalogError, match="letters, digits and underscores"):
        load_catalog(_doc([_feature(name=name)]))


def test_name_for_ignores_letter_case(catalog):
    assert catalog.name_for("flow_Duration_MILLISECONDS") == "FLOW_DURATION_MILLISECONDS"
    assert catalog.name_for("\ufb02OW_DURATION_MILLISECONDS") is None  # "fl" ligature
    assert catalog.name_for("PACKET_ENTROPY") is None


def test_name_for_prefers_the_first_of_names_equal_but_for_case():
    catalog = load_catalog(_doc([_feature(name="in_bytes"), _feature(name="IN_BYTES")]))
    assert catalog.name_for("IN_BYTES") == "in_bytes"


def test_unknown_unit_rejected():
    with pytest.raises(CatalogError, match="unit"):
        load_catalog(_doc([_feature(unit="furlongs")]))


def test_unknown_value_kind_rejected():
    with pytest.raises(CatalogError, match="value kind"):
        load_catalog(_doc([_feature(value_kind="complex")]))


def test_missing_version_rejected():
    with pytest.raises(CatalogError):
        load_catalog({"features": [_feature()]})


def test_malformed_document_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CatalogError, match="malformed"):
        load_catalog(path)


def test_default_catalog_is_cached():
    assert default_catalog() is default_catalog()


@pytest.mark.parametrize(
    "text",
    [
        "protocol PROTOCOL Protocol_x xprotocol protocolx",
        "straße STRASSE ﬅRASSE straßen",  # "ß" upper-cases to "SS", U+FB05 to "ST"
        "İN ıN in IN_",
    ],
)
def test_plain_name_words_hold_every_word_that_spells_a_plain_name(text):
    catalog = load_catalog(
        _doc([_feature(name="PROTOCOL"), _feature(name="STRAßE"), _feature(name="IN")])
    )
    found = [word.group() for word in catalog.plain_name_words(text)]
    spelled = [word for word in text.split() if catalog.name_for(word) is not None]
    assert spelled and set(spelled) <= set(found)
    assert all(word in text.split() for word in found)  # whole words only
