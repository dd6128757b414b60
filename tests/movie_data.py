"""Movie knowledge-base reference data.

The module encodes the worked movie example end to end: the assertion
set in its unraveled, denotation-simplified form (the form the reference
incidence table was computed from, with the fresh inclusion conjunct
spelled `C`), the row/column labels of the reference table, the table
itself as received, and a reviewed list of corrections where the
reference table or relation lists contradict the expansion rules or
each other.  Every correction carries the forcing derivation (or the
impossibility argument) next to it.
"""

import polardl.syntax
import polardl as P

# -- atoms -------------------------------------------------------------------

GM, FM, RM, DM, C = (P.atom(n) for n in ("GM", "FM", "RM", "DM", "C"))
EUM_X = P.join(GM, FM)                 # expansion of EUM
RDM_X = P.meet(RM, DM)                 # expansion of RDM
IM_X = P.meet(EUM_X, C)                # expansion of IM after rewriting
FDM_X = P.meet(P.box(1, DM), P.box(2, DM))   # expansion of FDM

m1, m2, m3, m4 = (P.named_obj(n) for n in ("m1", "m2", "m3", "m4"))
f1, f2, f3, f4, f5, f6 = (P.named_feat(n) for n in
                          ("f1", "f2", "f3", "f4", "f5", "f6"))
x0 = P.named_feat("x0")                # the contradiction feature


def unraveled_abox():
    """The unraveled ABox in the denotation-simplified form (meets with
    the defined name already reduced: FM and C, GM and C), plus the
    classifier seeds for the four definitions."""
    terms = {
        P.member(m4, IM_X),
        P.neg(P.rel_i(m4, x0)),
        P.member(x0, P.meet(FM, C)),
        P.member(x0, P.meet(GM, C)),
        P.member(f1, GM),
        P.member(f2, FM),
        P.member(f4, DM),
        P.member(m3, RDM_X),
        P.rel_i(m3, f6),
        P.rel_i(m1, f3),
        P.neg(P.rel_i(m1, f2)),
        P.neg(P.member(m2, EUM_X)),
        P.rel_box(1, m3, f3),
        P.rel_box(2, m3, f3),
        P.neg(P.rel_box(1, m1, f6)),
        P.rel_dia(1, f3, m3),
        P.rel_dia(2, f3, m3),
        P.member(m3, P.box(2, RDM_X)),
        P.member(f5, P.dia(1, RM)),
        P.neg(P.rel_box(2, m1, f5)),
    }
    # FDM's expansion is the only definition body not occurring in the
    # assertions above; its classifier seeds keep the category in the
    # saturated universe (the other three occur and need no seed).
    terms.add(P.member(P.classifier_obj(FDM_X), FDM_X))
    terms.add(P.member(P.classifier_feat(FDM_X), FDM_X))
    return frozenset(terms)


# -- reference table labels ----------------------------------------------------

def _clf_o(c):
    return P.classifier_obj(c)


def _clf_f(c):
    return P.classifier_feat(c)


ROW_LABELS = {
    "a1": _clf_o(GM), "a2": _clf_o(FM), "a3": _clf_o(EUM_X),
    "a4": _clf_o(RM), "a5": _clf_o(DM), "a6": _clf_o(RDM_X),
    "a7": _clf_o(C), "a8": _clf_o(IM_X), "a9": _clf_o(P.meet(FM, C)),
    "a10": _clf_o(P.meet(GM, C)), "a11": _clf_o(P.box(1, DM)),
    "a12": _clf_o(P.box(2, DM)), "a13": _clf_o(FDM_X),
    "a14": _clf_o(P.box(2, RDM_X)), "a15": _clf_o(P.dia(1, RM)),
    "a16": None,   # classifier of a top concept; no such concept exists here
    "bd1a11": P.black_diamond(_clf_o(P.box(1, DM)), 1),
    "bd2a12": P.black_diamond(_clf_o(P.box(2, DM)), 2),
    "bd1a13": P.black_diamond(_clf_o(FDM_X), 1),
    "bd2a13": P.black_diamond(_clf_o(FDM_X), 2),
    "bd2a14": P.black_diamond(_clf_o(P.box(2, RDM_X)), 2),
    "d1a6": P.adj_diamond(_clf_o(RDM_X), 1),   # = classifier of dia1 (RM and DM)
    "m1": m1, "m2": m2, "m3": m3,
    "bd1m3": P.black_diamond(m3, 1),
    "bd2m3": P.black_diamond(m3, 2),
    "d1m3": P.adj_diamond(m3, 1),
    "d2m3": P.adj_diamond(m3, 2),
    "m4": m4,
}

COL_LABELS = {
    "x1": _clf_f(GM), "x2": _clf_f(FM), "x3": _clf_f(EUM_X),
    "x4": _clf_f(RM), "x5": _clf_f(DM), "x6": _clf_f(RDM_X),
    "x7": _clf_f(C), "x8": _clf_f(IM_X), "x9": _clf_f(P.meet(FM, C)),
    "x10": _clf_f(P.meet(GM, C)), "x11": _clf_f(P.box(1, DM)),
    "x12": _clf_f(P.box(2, DM)), "x13": _clf_f(FDM_X),
    "x14": _clf_f(P.box(2, RDM_X)), "x15": _clf_f(P.dia(1, RM)),
    "x16": polardl.syntax.pad_feat(),  # the isolated padding feature
    "bsq1x15": P.black_square(_clf_f(P.dia(1, RM)), 1),
    "box2x4": P.adj_box(_clf_f(RM), 2),        # = classifier of box2 RM
    "f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5, "f6": f6,
    "bsq1f3": P.black_square(f3, 1), "bsq2f3": P.black_square(f3, 2),
    "box1f3": P.adj_box(f3, 1), "box2f3": P.adj_box(f3, 2),
    "bsq1f5": P.black_square(f5, 1), "box2f4": P.adj_box(f4, 2),
    "x17": x0,
}

ROW_ORDER = ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10",
             "a11", "a12", "a13", "a14", "a15", "a16",
             "bd1a11", "bd2a12", "bd1a13", "bd2a13", "bd2a14", "d1a6",
             "m1", "m2", "m3", "bd1m3", "bd2m3", "d1m3", "d2m3", "m4"]

COL_ORDER = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10",
             "x11", "x12", "x13", "x14", "x15", "x16", "bsq1x15", "box2x4",
             "f1", "f2", "f3", "f4", "f5", "f6",
             "bsq1f3", "bsq2f3", "box1f3", "box2f3", "bsq1f5", "box2f4",
             "x17"]

# The incidence table as received (rows in ROW_ORDER, columns in COL_ORDER).
REFERENCE_TABLE = {
    "a1":     "1010000000000000001000000000000",
    "a2":     "0110000000000000000100000000000",
    "a3":     "0010000000000000000000000000000",
    "a4":     "0001000000000000100000000000100",
    "a5":     "0000100000000000000001000000000",
    "a6":     "0001110000000000100001000000100",
    "a7":     "0000001000000000000000000000000",
    "a8":     "0010001100000000000000000000000",
    "a9":     "0100001010000000000000000000001",
    "a10":    "1000001001000000000000000000001",
    "a11":    "0000000000100000000000000000000",
    "a12":    "0000000000010000000000000000000",
    "a13":    "0000000000111000000000000000000",
    "a14":    "0000000000010100010000000000010",
    "a15":    "0000000000000010000000100000000",
    "a16":    "0000000000000000000000000000000",
    "bd1a11": "0000100000000000000000000000000",
    "bd2a12": "0000100000000000000000000000000",
    "bd1a13": "0000100000000000000000000000000",
    "bd2a13": "0000100000000000000000000000000",
    "bd2a14": "0001110000000000000001000000000",
    "d1a6":   "0000000000000010000000100000000",
    "m1":     "0000000000000000000010000000000",
    "m2":     "0000000000000000000000000000000",
    "m3":     "0001110000010100110001011111110",
    "bd1m3":  "0000000000000000000010000000000",
    "bd2m3":  "0001110000000000000011000000000",
    "d1m3":   "0000000000000010000010100000000",
    "d2m3":   "0001110000000000000010000000000",
    "m4":     "0010001100000000000000000000000",
}

REFERENCE_RBOX1 = {("a11", "x5"), ("a13", "x5"), ("m3", "f3")}
REFERENCE_RBOX2 = {("a12", "x5"), ("a13", "x5"), ("a14", "x4"),
                   ("a14", "x5"), ("a14", "x6"), ("a14", "f4"),
                   ("m3", "x4"), ("m3", "x5"), ("m3", "x6"),
                   ("m3", "f3"), ("m3", "f4")}
REFERENCE_RDIA1 = {("f5", "a4"), ("f5", "a6"), ("f3", "m3"), ("f5", "m3"),
                   ("x15", "a6"), ("x15", "a4"), ("x15", "m3")}
REFERENCE_RDIA2 = {("f3", "m3")}

# Cells where the reference table contradicts the expansion rules or the
# reference relation lists themselves; the verified value follows the
# rules.  Format: (row, col): (received, verified).
TABLE_CORRECTIONS = {
    # a9 = a[FM and C] satisfies FM (and_A), x3 carries FM (or_X), f2
    # carries FM (input): both cells are forced by the basic rule, as in
    # the reference rows a1/a2 for the same pattern.  The x3 incidence
    # then appends GM or FM to a9's memberships, which closes under
    # and_inv with C to (GM or FM) and C, forcing x8 as well.
    ("a9", "x3"): (0, 1),
    ("a9", "x8"): (0, 1),
    ("a9", "f2"): (0, 1),
    ("a10", "x3"): (0, 1),
    ("a10", "x8"): (0, 1),
    ("a10", "f1"): (0, 1),
    # Box-classifier objects satisfy box DM, f4 carries DM (input), so
    # the box rule forces a box-role edge to f4 and the adjunction puts
    # f4 on the black-diamond row, exactly as the reference has for
    # (a14, f4); the same edges put box2(f4) on the a12/a13 rows, as it
    # has for a14 and m3.
    ("bd1a11", "f4"): (0, 1),
    ("bd2a12", "f4"): (0, 1),
    ("bd1a13", "f4"): (0, 1),
    ("bd2a13", "f4"): (0, 1),
    ("a12", "box2f4"): (0, 1),
    ("a13", "box2f4"): (0, 1),
    # bd2a14 and bd2m3 satisfy RM (appended from x6 incidence), x15/f5
    # carry dia1 RM, so the dia rule forces Rdia1 edges whose adjunction
    # puts bsq1(x15) and bsq1(f5) on these rows.
    ("bd2a14", "bsq1x15"): (0, 1),
    ("bd2a14", "bsq1f5"): (0, 1),
    ("bd2m3", "bsq1x15"): (0, 1),
    ("bd2m3", "bsq1f5"): (0, 1),
    # The received d2m3 row copies the bd2m3 pattern, but dia2(m3) rows
    # come only from Rdia2 adjunctions and Rdia2 = {(f3, m3)}: a 1 at
    # x4/x5/x6 would force (x4/x5/x6, m3) into Rdia2 via the dia-image
    # rule, contradicting the reference relation itself.
    ("d2m3", "x4"): (1, 0),
    ("d2m3", "x5"): (1, 0),
    ("d2m3", "x6"): (1, 0),
}

# Pairs missing from the reference relation lists but forced by the
# rules (same derivations as the table corrections above).  The bsq1
# pairs under Rbox2: the reference rows a4/a6 carry bsq1(f5)/bsq1(x15),
# so the appending rule gives those features RM and RM-and-DM
# memberships, and the box rule then relates m3 and a14 to them.
RBOX1_CORRECTIONS = {("a11", "f4"), ("a13", "f4")}
RBOX2_CORRECTIONS = {("a12", "f4"), ("a13", "f4"),
                     ("m3", "bsq1x15"), ("m3", "bsq1f5"),
                     ("a14", "bsq1x15"), ("a14", "bsq1f5")}
RDIA1_CORRECTIONS = {("x15", "bd2a14"), ("f5", "bd2a14"),
                     ("x15", "bd2m3"), ("f5", "bd2m3")}
RDIA2_CORRECTIONS = set()


def expected_table():
    out = {}
    for row, bits in REFERENCE_TABLE.items():
        cells = list(map(int, bits))
        for ci, col in enumerate(COL_ORDER):
            fix = TABLE_CORRECTIONS.get((row, col))
            if fix is not None:
                assert cells[ci] == fix[0], (row, col)
                cells[ci] = fix[1]
        out[row] = cells
    return out


def expected_relations():
    return {
        ("box", 1): REFERENCE_RBOX1 | RBOX1_CORRECTIONS,
        ("box", 2): REFERENCE_RBOX2 | RBOX2_CORRECTIONS,
        ("dia", 1): REFERENCE_RDIA1 | RDIA1_CORRECTIONS,
        ("dia", 2): REFERENCE_RDIA2 | RDIA2_CORRECTIONS,
    }


def label_of(ind):
    for table in (ROW_LABELS, COL_LABELS):
        for name, val in table.items():
            if val is ind:
                return name
    return str(ind)
