import random
import re

import pytest
from hypothesis import given, strategies as st

import polardl as P
from polardl import parser, syntax as S
from polardl.errors import ParseError, SerializationError, UndeclaredRoleError

import fuzz


class TestParse:
    def test_minimal_document(self):
        kb = P.parse_kb("obj m4. feat f1. m4 : IM.")
        assert kb.obj_names == ("m4",)
        assert kb.feat_names == ("f1",)
        assert kb.abox == {P.member(P.named_obj("m4"), P.atom("IM"))}

    def test_movie_document(self, movies_kb):
        assert len(movies_kb.abox) == 20          # 12 source + 8 user terms
        assert len(movies_kb.tbox) == 4
        assert movies_kb.box_roles == 2 and movies_kb.dia_roles == 2
        kinds = [ax.kind for ax in movies_kb.tbox]
        assert kinds.count("sub") == 1 and kinds.count("equiv") == 3

    def test_syntax_error_at_end_of_input(self):
        with pytest.raises(ParseError) as err:
            P.parse_kb("obj m4. m4 : IM and")
        assert "end of input" in str(err.value)

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            P.parse_kb("obj m4.\nfeat f1.\nm4 : : IM.")
        assert err.value.line == 3

    def test_sort_error(self):
        with pytest.raises(ParseError) as err:
            P.parse_kb("obj m4. feat f1. f1 : IM.")
        assert "used as an object" in str(err.value)

    def test_undeclared_individual(self):
        with pytest.raises(ParseError):
            P.parse_kb("obj m4. m5 : IM.")

    def test_undeclared_role_index(self):
        with pytest.raises(UndeclaredRoleError):
            P.parse_kb("roles box 1 dia 1. obj m. feat f. m Rbox2 f.")
        with pytest.raises(UndeclaredRoleError):
            P.parse_kb("roles box 1 dia 1. obj m. m : dia2 D.")

    def test_double_sort_declaration(self):
        with pytest.raises(ParseError):
            P.parse_kb("obj n. feat n.")

    def test_individual_name_as_concept(self):
        with pytest.raises(ParseError):
            P.parse_kb("obj m. feat f. m : f.")

    def test_comments_and_negation(self):
        kb = P.parse_kb("# header\nobj b. feat y.\nnot b I y. # trailing\n")
        assert kb.abox == {P.neg(P.rel_i(P.named_obj("b"), P.named_feat("y")))}

    def test_precedence_and_associativity(self):
        kb = P.parse_kb("roles box 1 dia 1. obj m. m : box1 A and B or C.")
        (term,) = kb.abox
        # box binds tightest, then and, then or; chains associate right
        want = P.join(P.meet(P.box(1, P.atom("A")), P.atom("B")), P.atom("C"))
        assert term.concept is want
        kb2 = P.parse_kb("obj m. m : A and B and C.")
        (term2,) = kb2.abox
        assert term2.concept is P.meet(P.atom("A"),
                                       P.meet(P.atom("B"), P.atom("C")))


_CONTEXT = "roles box 1 dia 1. obj m. feat f."

# one case per error site of the parser: (reader, input, str(ParseError))
PARSE_ERRORS = [
    ("kb", "obj m. m : IM $.", "1:15: unexpected character '$'"),
    ("kb", "obj caf\u00e9.", "1:8: unexpected character '\u00e9'"),
    ("kb", "roles box \u00b2 dia 1.", "1:11: unexpected character '\u00b2'"),
    ("kb", "roles box 1 dia 1 obj m.", "1:19: expected '.', found 'obj'"),
    ("kb", "obj m. m : (IM", "2:1: expected ')', found 'end of input'"),
    ("kb", "obj m and.", "1:7: expected individual name, found 'and'"),
    ("kb", "obj n. feat n.", "1:13: 'n' already declared with the other sort"),
    ("kb", "obj .", "2:1: empty declaration"),
    ("kb", "roles dia 1 box 1.", "1:7: expected 'box' in roles declaration"),
    ("kb", "roles box x dia 1.", "1:11: expected a role count"),
    ("kb", "obj m. feat f. m : f.",
     "1:20: individual name 'f' used as a concept"),
    ("kb", "obj m. m : IM and", "2:1: expected a concept, found 'end of input'"),
    ("kb", "roles box 1 dia 1. obj m. m : dia2 D.",
     "1:31: role index 2 not covered by the roles declaration"),
    ("kb", "roles box 1 dia 1. obj m. feat f. m Rbox2 f.",
     "1:37: role index 2 not covered by the roles declaration"),
    ("kb", "A B.", "1:3: expected 'equiv' or 'sub', found 'B'"),
    ("kb", "A and B equiv C.", "1:1: expected a concept name before 'equiv'"),
    ("kb", "obj m.\n(A or B) sub C.",
     "2:1: expected a concept name before 'sub'"),
    ("kb", "obj b. feat y. b I .", "1:20: expected individual name, found '.'"),
    ("kb", "obj m4. feat f1. f1 : IM.",
     "1:18: feature name 'f1' used as an object"),
    ("kb", "obj m4. m5 : IM.", "1:9: undeclared object 'm5'"),
    ("kb", "obj m. m :: A.", "1:8: object name 'm' used as a feature"),
    ("kb", "obj m. g :: A.", "1:8: undeclared feature 'g'"),
    ("kb", "not and : A.", "1:5: expected individual name, found 'and'"),
    ("kb", "obj b. not b x.", "1:14: expected ':', '::' or a role after 'b'"),
    ("concept", "A B", "1:3: trailing input after concept: 'B'"),
    ("term", "m : A. x", "1:8: trailing input after term: 'x'"),
    ("term", "m Rbox1", "2:1: expected individual name, found 'end of input'"),
    ("individual", "zz", "undeclared individual 'zz'"),
]


@pytest.mark.parametrize("reader, text, message", PARSE_ERRORS,
                         ids=[message for _, _, message in PARSE_ERRORS])
def test_parse_error_message_and_position(reader, text, message):
    read = {"kb": P.parse_kb,
            "concept": lambda t: P.parse_concept(t, P.parse_kb(_CONTEXT)),
            "term": lambda t: P.parse_term(t, P.parse_kb(_CONTEXT)),
            "individual": lambda t: P.parse_individual(
                t, P.parse_kb(_CONTEXT))}[reader]
    with pytest.raises(ParseError) as err:
        read(text)
    assert str(err.value) == message



# -- the recursive reader the concept loop replaced, as a reference ----------

_REF_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|::|[:.()]|\S")
_REF_MODAL_RE = re.compile(r"^(box|dia|Rbox|Rdia)([0-9]+)$")


def _reference_tokens(text):
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _REF_TOKEN_RE.finditer(body):
            word = m.group(0)
            col = m.start() + 1
            if word[0].isalpha() or word[0] == "_":
                mm = _REF_MODAL_RE.match(word)
                if mm:
                    toks.append(parser._Tok("MODAL", word, lineno, col,
                                            (mm.group(1), int(mm.group(2)))))
                else:
                    toks.append(parser._Tok("NAME", word, lineno, col))
            elif word.isdigit():
                toks.append(parser._Tok("INT", word, lineno, col))
            elif word in (":", "::", ".", "(", ")"):
                toks.append(parser._Tok("SYM", word, lineno, col))
            else:
                raise ParseError(f"unexpected character {word!r}", lineno, col)
    toks.append(parser._Tok("EOF", "", len(text.splitlines()) + 1, 1))
    return toks


class _RecursiveReader(parser._Parser):
    """One call per operand of an and/or chain."""

    def __init__(self, text):
        super().__init__("")
        self.toks = _reference_tokens(text)

    def concept(self):
        return self.concept_or()

    def concept_or(self):
        left = self.concept_and()
        t = self.peek()
        if t.kind == "NAME" and t.text == "or":
            self.next()
            return S.join(left, self.concept_or())
        return left

    def concept_and(self):
        left = self.concept_unary()
        t = self.peek()
        if t.kind == "NAME" and t.text == "and":
            self.next()
            return S.meet(left, self.concept_and())
        return left

    def concept_unary(self):
        t = self.next()
        if t.kind == "MODAL" and t.mod[0] in ("box", "dia"):
            op, idx = t.mod
            self.check_role(op, idx, t)
            child = self.concept_unary()
            return S.box(idx, child) if op == "box" else S.dia(idx, child)
        if t.kind == "SYM" and t.text == "(":
            c = self.concept()
            self.expect_sym(")")
            return c
        if t.kind == "NAME" and t.text not in parser.KEYWORDS:
            if t.text in self.objs or t.text in self.feats:
                self.fail(t, f"individual name {t.text!r} used as a concept")
            return S.atom(t.text)
        self.fail(t, f"expected a concept, found {t.text or 'end of input'!r}")


def _read(read, text):
    """The KB a reader makes of text, or the text of its ParseError."""
    try:
        kb = read(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return kb.tbox, kb.abox


_HEADER = "roles box 1 dia 2. obj m.\n"
_OP = st.sampled_from(["and", "or"])
_OPERAND = st.recursive(
    st.sampled_from(["A", "B", "C"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["box1", "dia1", "dia2", "box01"]),
                  inner).map(" ".join),
        inner.map("({})".format),
        st.tuples(inner, _OP, inner).map(" ".join)),
    max_leaves=6)
# a few nested operands, then up to 300 plain ones
_CHAIN = st.tuples(
    _OPERAND, st.lists(st.tuples(_OP, _OPERAND), max_size=6),
    st.integers(0, 300).flatmap(lambda n: st.lists(st.tuples(
        _OP, st.sampled_from(["A", "B", "box1 C", "dia2 (A or B)"])),
        min_size=n, max_size=n))).map(
    lambda c: " ".join([c[0], *(w for pair in c[1] + c[2] for w in pair)]))
_SOUP = st.lists(st.sampled_from(
    ["A", "B", "m", "and", "or", "box1", "dia2", "box2", "Rbox1", "(", ")",
     "not", "I", ":", "::", ".", "equiv", "2"]), max_size=12).map(" ".join)


class TestConceptReader:
    @given(_CHAIN)
    def test_same_terms_as_the_recursive_reader(self, chain):
        text = f"{_HEADER}m : {chain}.\nQ sub (A or {chain}).\n"
        got = _read(P.parse_kb, text)
        assert got == _read(lambda t: _RecursiveReader(t).parse(), text)
        assert got[0] is not ParseError

    @given(_SOUP)
    def test_same_errors_as_the_recursive_reader(self, soup):
        for text in (f"{_HEADER}m : {soup}.", f"{_HEADER}{soup}"):
            assert _read(P.parse_kb, text) == _read(
                lambda t: _RecursiveReader(t).parse(), text)

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_a_chain_of_any_length_parses(self, op):
        text = f" {op} ".join(f"A{k}" for k in range(10_000))
        c = P.parse_concept(text, P.KnowledgeBase())
        assert len(P.subconcepts(c)) == 19_999 and c.left is P.atom("A0")
        assert str(c) == text


class TestSerialize:
    def test_empty_kb_round_trip(self):
        kb = P.KnowledgeBase()
        text = P.serialize_kb(kb)
        again = P.parse_kb(text)
        assert again.abox == kb.abox and again.tbox == kb.tbox

    def test_movie_round_trip(self, movies_kb):
        again = P.parse_kb(P.serialize_kb(movies_kb))
        assert again.abox == movies_kb.abox
        assert again.tbox == movies_kb.tbox
        assert set(again.obj_names) == set(movies_kb.obj_names)
        assert set(again.feat_names) == set(movies_kb.feat_names)

    def test_synthetic_names_rejected(self):
        kb = P.KnowledgeBase(
            obj_names=("b",), feat_names=("y",),
            abox=frozenset({P.rel_i(P.adj_diamond(P.named_obj("b"), 1),
                                    P.named_feat("y"))}))
        with pytest.raises(SerializationError):
            P.serialize_kb(kb)

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(60):
            abox = fuzz.random_abox(rng, n_terms=rng.randint(1, 8))
            kb = P.KnowledgeBase(
                obj_names=tuple(sorted({str(i) for a in abox
                                        for i in a.individuals()
                                        if i.sort == "obj"})),
                feat_names=tuple(sorted({str(i) for a in abox
                                         for i in a.individuals()
                                         if i.sort == "feat"})),
                box_roles=2, dia_roles=2, abox=abox)
            again = P.parse_kb(P.serialize_kb(kb))
            assert again.abox == kb.abox


class TestTermHelpers:
    def test_parse_concept(self, movies_kb):
        c = P.parse_concept("box2 (RM and DM)", movies_kb)
        assert c is P.box(2, P.meet(P.atom("RM"), P.atom("DM")))

    def test_parse_concept_rejects_trailing(self, movies_kb):
        with pytest.raises(ParseError):
            P.parse_concept("RM and", movies_kb)

    def test_parse_term(self, movies_kb):
        t = P.parse_term("m3 Rbox1 f3", movies_kb)
        assert t is P.rel_box(1, P.named_obj("m3"), P.named_feat("f3"))
        t2 = P.parse_term("not m1 I f2", movies_kb)
        assert t2 is P.neg(P.rel_i(P.named_obj("m1"), P.named_feat("f2")))

    @pytest.mark.parametrize("text, message", [
        ("m1 :", "2:1: expected a concept, found 'end of input'"),
        ("m1 : GM and", "2:1: expected a concept, found 'end of input'"),
        ("not m1 I", "2:1: expected individual name, found 'end of input'"),
        ("m1 : GM . .", "1:11: trailing input after term: '.'"),
    ])
    def test_a_term_is_read_as_typed(self, movies_kb, text, message):
        # positions count the characters typed; a term that ends early
        # reports end of input where parse_concept does
        with pytest.raises(ParseError) as err:
            P.parse_term(text, movies_kb)
        assert str(err.value) == message

    def test_a_term_may_end_with_its_period(self, movies_kb):
        m1, GM = P.named_obj("m1"), P.atom("GM")
        for text in ("m1 : GM .", "m1 : GM.", "m1 : GM"):
            assert P.parse_term(text, movies_kb) is P.member(m1, GM)

    def test_parse_individual(self, movies_kb):
        assert P.parse_individual("m1", movies_kb) is P.named_obj("m1")
        with pytest.raises(ParseError):
            P.parse_individual("nobody", movies_kb)
