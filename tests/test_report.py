import json

import pytest

from orderbench.report import Check, Report, report, reports_to_json


def _sample():
    return report(
        "sample",
        [
            Check("first", True),
            Check("second", False, (1, 2)),
            Check("third_longer", None),
        ],
    )


class TestValueSemantics:
    def test_fields_cannot_be_assigned(self):
        c, r = Check("a", True), _sample()
        with pytest.raises(AttributeError):
            c.holds = False
        with pytest.raises(AttributeError):
            r.passed = True
        with pytest.raises(AttributeError):
            r.checks = ()

    def test_equal_by_value_and_hashable(self):
        assert Check("a", False, (3,)) == Check("a", False, (3,))
        assert Check("a", False, (3,)) != Check("a", False, (4,))
        assert Check("a", True) == Check("a", True, None)
        assert _sample() == _sample()
        assert _sample() is not _sample()
        assert hash(_sample()) == hash(_sample())
        assert len({_sample(), _sample(), report("other", [])}) == 2
        assert Report("r", (Check("a", True),)) != Report("r", (Check("a", True),), True)

    def test_defaults(self):
        assert Check("a", True).witness is None
        assert Report("r", ()).passed is None
        assert report("r", [Check("a", None)]).passed is True
        assert report("r", [Check("a", False)]).passed is False

    def test_lookup_by_name(self):
        r = _sample()
        assert r["second"] == Check("second", False, (1, 2))
        assert r.holds("first") is True
        assert r.holds("third_longer") is None
        assert r.failures() == [Check("second", False, (1, 2))]
        with pytest.raises(KeyError):
            r["missing"]


class TestOutput:
    def test_to_json(self):
        assert _sample().to_json() == [
            {"axiom": "first", "holds": True, "witness": None},
            {"axiom": "second", "holds": False, "witness": [1, 2]},
            {"axiom": "third_longer", "holds": None, "witness": None},
        ]
        doc = json.loads(reports_to_json([_sample(), report("empty", [])]))
        assert doc == {"sample": _sample().to_json(), "empty": []}

    def test_render(self):
        assert _sample().render() == "\n".join(
            [
                "[sample]",
                "  first         pass",
                "  second        FAIL  witness=(1, 2)",
                "  third_longer  n/a",
                "  => FAIL",
            ]
        )
        assert Report("bare", ()).render() == "[bare]"
