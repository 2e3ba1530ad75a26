"""Unit tests for regex parsing, compilation, and language algebra."""

import pytest

from repro.rlang import Regex, RegexSyntaxError


def rx(pattern: str) -> Regex:
    return Regex.compile(pattern)


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("abc", "abc", True),
            ("abc", "ab", False),
            ("abc", "abcd", False),
            ("a*", "", True),
            ("a*", "aaaa", True),
            ("a*", "ab", False),
            ("a+", "", False),
            ("a+", "aaa", True),
            ("a?b", "b", True),
            ("a?b", "ab", True),
            ("a?b", "aab", False),
            ("a|b", "a", True),
            ("a|b", "b", True),
            ("a|b", "c", False),
            ("(ab)+", "ababab", True),
            ("(ab)+", "aba", False),
            (".", "x", True),
            (".", "\n", False),
            (".*", "anything at all", True),
            ("[abc]", "b", True),
            ("[abc]", "d", False),
            ("[a-z]+", "hello", True),
            ("[a-z]+", "Hello", False),
            ("[^/]+", "filename", True),
            ("[^/]+", "a/b", False),
            ("a{3}", "aaa", True),
            ("a{3}", "aa", False),
            ("a{2,4}", "aa", True),
            ("a{2,4}", "aaaa", True),
            ("a{2,4}", "aaaaa", False),
            ("a{2,}", "aaaaaa", True),
            ("a{2,}", "a", False),
            (r"\d+", "12345", True),
            (r"\d+", "12a45", False),
            (r"\w+", "foo_bar9", True),
            (r"\s", " ", True),
            (r"\.", ".", True),
            (r"\.", "x", False),
            (r"a\|b", "a|b", True),
            ("", "", True),
            ("", "a", False),
        ],
    )
    def test_match(self, pattern, text, expected):
        assert rx(pattern).matches(text) is expected

    def test_anchors_ignored(self):
        assert rx("^abc$").matches("abc")
        assert not rx("^abc$").matches("xabc")

    def test_escaped_tab_newline(self):
        assert rx(r"a\tb").matches("a\tb")
        assert rx(r"a\nb").matches("a\nb")

    def test_hex_escape(self):
        assert rx(r"\x41").matches("A")

    def test_posix_class(self):
        assert rx("[[:digit:]]+").matches("0987")
        assert not rx("[[:digit:]]+").matches("a")
        assert rx("[[:xdigit:]]+").matches("deadBEEF42")

    def test_negated_class_with_range(self):
        pat = rx("[^a-z]+")
        assert pat.matches("ABC123")
        assert not pat.matches("aB")

    def test_literal_brace(self):
        assert rx("a{b").matches("a{b")

    def test_class_with_literal_dash(self):
        assert rx("[a-]").matches("-")
        assert rx("[-a]").matches("-")

    def test_non_capturing_group(self):
        assert rx("(?:ab)+").matches("abab")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "pattern",
        ["(ab", "ab)", "*a", "+", "?", "[abc", "a{3,2}", "[z-a]", "[[:nope:]]"],
    )
    def test_bad_patterns(self, pattern):
        with pytest.raises(RegexSyntaxError):
            Regex.compile(pattern)


class TestAlgebra:
    def test_intersection(self):
        both = rx("[a-z]+") & rx(".*oo.*")
        assert both.matches("foo")
        assert not both.matches("FOO")
        assert not both.matches("bar")

    def test_union(self):
        either = rx("cat") | rx("dog")
        assert either.matches("cat") and either.matches("dog")
        assert not either.matches("cow")

    def test_difference(self):
        diff = rx("[a-z]+") - rx("root")
        assert diff.matches("user")
        assert not diff.matches("root")

    def test_complement(self):
        comp = ~rx("abc")
        assert not comp.matches("abc")
        assert comp.matches("abd") and comp.matches("")

    def test_concat(self):
        joined = Regex.literal("0x") + rx("[0-9a-f]+")
        assert joined.matches("0xdeadbeef")
        assert not joined.matches("deadbeef")

    def test_containment(self):
        assert rx("abc") <= rx("[a-z]+")
        assert not (rx("[a-z]+") <= rx("abc"))
        assert rx("(a|b)*abb") <= rx("(a|b)*")

    def test_strict_containment(self):
        assert rx("abc") < rx("[a-z]+")
        assert not (rx("abc") < rx("abc"))

    def test_equivalence(self):
        assert rx("(a|b)*") == rx("(b|a)*")
        assert rx("aa*") == rx("a+")
        assert rx("a?") == rx("a|")
        assert rx("a") != rx("b")

    def test_disjoint(self):
        assert rx("[0-9]+").disjoint(rx("[a-z]+"))
        assert not rx("[0-9a-f]+").disjoint(rx("[a-z]+"))

    def test_empty_language(self):
        assert (rx("a") & rx("b")).is_empty()
        assert not rx("a*").is_empty()

    def test_demorgan_languages(self):
        a, b = rx("[a-m]+"), rx("[g-z]+")
        assert ~(a | b) == (~a & ~b)


class TestWitnesses:
    def test_example_is_member(self):
        for pattern in ["abc", "[a-z]{3}", "(foo|ba+r)", "a*b"]:
            pat = rx(pattern)
            example = pat.example()
            assert example is not None
            assert pat.matches(example)

    def test_example_shortest(self):
        assert rx("a{3,5}").example() == "aaa"
        assert rx("ab|a").example() == "a"

    def test_example_empty_language(self):
        assert (rx("a") & rx("b")).example() is None

    def test_examples_enumeration(self):
        examples = rx("a{1,3}").examples(limit=10)
        assert examples == ["a", "aa", "aaa"]
        for ex in rx("(a|b){2}").examples(limit=4):
            assert rx("(a|b){2}").matches(ex)

    def test_matches_empty(self):
        assert rx("a*").matches_empty()
        assert not rx("a+").matches_empty()


class TestFiniteness:
    def test_finite(self):
        assert rx("abc|de").is_finite()
        assert rx("a{2,8}").is_finite()

    def test_infinite(self):
        assert not rx("a*").is_finite()
        assert not rx("ab+c").is_finite()

    def test_empty_is_finite(self):
        assert (rx("a") & rx("b")).is_finite()


class TestPaperFacts:
    """The two concrete regular-language facts the paper relies on."""

    def test_fig5_grep_filter_is_dead(self):
        # lsb_release -a output type ∩ grep '^desc' output type = ∅  (§3)
        lsb = rx(r"(Distributor ID|Description|Release|Codename):\t.*")
        grep_out = rx("desc.*")
        assert (lsb & grep_out).is_empty()
        # ...but the correct filter is live:
        assert not (lsb & rx("Desc.*")).is_empty()

    def test_hex_pipeline_polymorphic_containment(self):
        # 0x[0-9a-f]+ ⊆ 0x[0-9a-f]+.*  but  0x.* ⊄ 0x[0-9a-f]+.*   (§4)
        hex_body = rx("[0-9a-f]+")
        poly_out = Regex.literal("0x") + hex_body
        simple_out = Regex.literal("0x") + rx(".*")
        sort_domain = rx("0x[0-9a-f]+.*")
        assert poly_out <= sort_domain
        assert not (simple_out <= sort_domain)

    def test_path_shape_constraint(self):
        # §3's example constraint for path-valued variables.
        path = rx(r"/?([^/]*/)*[^/]+")
        assert path.matches("/home/jcarb/.steam")
        assert path.matches("upd.sh")
        assert path.matches("a/b/c")
        assert not path.matches("")


class TestMinimisation:
    def test_minimal_dfa_smaller_or_equal(self):
        pat = rx("(a|b)*abb(a|b)*")
        assert pat.min_dfa.n_states <= pat.dfa.n_states

    def test_minimal_dfa_same_language(self):
        pat = rx("(ab|a)(b?)")
        mdfa = pat.min_dfa
        for text in ["ab", "abb", "a", "b", "", "abbb"]:
            assert mdfa.accepts(text) == pat.matches(text)


class TestUniverseCoveringAlphabet:
    """When a DFA's atoms cover every codepoint, its "other" column stands
    for no character; following it made the complement of "any string"
    look non-empty."""

    def test_complement_of_any_string_is_empty(self):
        nothing = ~Regex.compile("(.|\\n)*")
        assert nothing.dfa.covers_universe
        assert nothing.is_empty()
        assert nothing.example() is None
        assert nothing.examples() == []
        assert nothing.is_finite()

    def test_any_string_queries(self):
        anything = Regex.any_string()
        assert anything.dfa.covers_universe
        assert not anything.is_empty()
        assert not anything.is_finite()
        assert anything.example() == ""

    def test_product_of_complements(self):
        anything, ab = Regex.any_string(), rx("ab")
        nothing = ~anything
        assert (nothing | ab) == ab
        assert (nothing & ab).is_empty()
        assert (ab - anything).is_empty()
        assert (~nothing) == anything
        assert nothing <= ab and not ab <= nothing
        # complement of a complement over a product's common atoms
        both = ~(~rx("a+") & ~rx("(.|\\n)*b"))
        assert both == rx("a+") | rx("(.|\\n)*b")
        assert (~(~rx("a+") | ~anything)) == rx("a+")
