"""Tests for the PoC minimiser (the metamorphic logic-bug oracles are
covered by ``tests/test_metamorphic.py``)."""

import pytest

from repro.core.minimize import Minimizer, minimize_poc
from repro.dialects import all_bugs, dialect_by_name


class TestMinimizer:
    def test_rejects_non_crashing_input(self):
        with pytest.raises(ValueError):
            minimize_poc(dialect_by_name("mariadb"), "SELECT 1;")

    def test_drops_noise_select_items(self):
        result = minimize_poc(
            dialect_by_name("mariadb"),
            "SELECT UPPER('noise'), REVERSE(''), 42;",
        )
        assert result.minimized == "SELECT REVERSE('');"

    def test_preserves_crash_identity(self):
        dialect = dialect_by_name("mariadb")
        minimizer = Minimizer(dialect)
        result = minimizer.minimize("SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]');")
        identity = minimizer.crash_identity(result.minimized)
        assert identity is not None
        assert identity.function == "json_length"
        assert identity.crash_code == "GBOF"

    def test_drops_unneeded_tail_argument(self):
        result = minimize_poc(
            dialect_by_name("mariadb"),
            "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]');",
        )
        # the JSON path is dropped, and the REPEAT count shrinks to the
        # smallest value past the 200-character trigger (67 * 3 = 201)
        assert result.minimized == "SELECT JSON_LENGTH(REPEAT('[1,', 67));"

    def test_shrinks_wide_decimal(self):
        result = minimize_poc(
            dialect_by_name("mysql"),
            "SELECT AVG(1.29999999999999999999999999999999999999999999);",
        )
        # the MySQL AVG bug triggers at 20 total digits; the minimiser
        # should land close to that boundary
        digits = sum(c.isdigit() for c in result.minimized)
        assert digits <= 22

    def test_shrinks_repeat_count_to_threshold(self):
        result = minimize_poc(
            dialect_by_name("virtuoso"), "SELECT CONCAT(REPEAT('x', 1500));"
        )
        assert "1200" in result.minimized  # the injected threshold

    def test_simplifies_unrelated_subtree(self):
        result = minimize_poc(
            dialect_by_name("duckdb"),
            "SELECT LEFT(CONCAT('abc', 'def'), 99999);",
        )
        assert "CONCAT" not in result.minimized
        assert "LEFT(" in result.minimized

    def test_unwraps_casts_when_possible(self):
        # the DuckDB map bug needs the cast; the MariaDB reverse bug doesn't
        result = minimize_poc(
            dialect_by_name("mariadb"),
            "SELECT REVERSE(CAST('' AS CHAR(4)));",
        )
        assert "CAST" not in result.minimized

    def test_minimized_never_longer(self):
        dialect = dialect_by_name("duckdb")
        for bug in all_bugs():
            if bug.dbms != "duckdb":
                continue
            result = minimize_poc(dialect, bug.poc, max_attempts=300)
            assert len(result.minimized) <= len(bug.poc) + 1

    def test_reduction_metric(self):
        result = minimize_poc(
            dialect_by_name("mariadb"),
            "SELECT UPPER('noise'), REVERSE('');",
        )
        assert 0 < result.reduction < 1
        assert result.attempts >= result.successes
