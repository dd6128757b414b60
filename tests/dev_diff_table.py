"""Dev aid: diff the saturated movie model against the reference table.

Run directly: python tests/dev_diff_table.py [--received]
With --received, diff against the table exactly as received (to audit
the corrections list); otherwise diff against the corrected expectation.
"""

import sys
sys.path.insert(0, "tests")

import polardl as P
import movie_data as MD


def main(received=False):
    comp = P.saturate(MD.unraveled_abox())
    print("consistent:", comp.is_consistent,
          "| completion size:", len(comp.assertions))
    model = P.build_model(comp)
    p = model.polarity

    if received:
        table = {r: list(map(int, MD.REFERENCE_TABLE[r])) for r in MD.ROW_ORDER}
    else:
        table = MD.expected_table()

    diffs = 0
    for row in MD.ROW_ORDER:
        r_ind = MD.ROW_LABELS[row]
        for ci, col in enumerate(MD.COL_ORDER):
            c_ind = MD.COL_LABELS[col]
            want = table[row][ci]
            if r_ind not in p.obj_index or c_ind not in p.feat_index:
                got = 0
            else:
                got = int(p.has(r_ind, c_ind))
            if got != want:
                diffs += 1
                print(f"  cell ({row},{col}): expected={want} got={got}")
    print("table diffs:", diffs)

    want_rels = {
        ("box", 1): MD.REFERENCE_RBOX1 | (set() if received else MD.RBOX1_CORRECTIONS),
        ("box", 2): MD.REFERENCE_RBOX2 | (set() if received else MD.RBOX2_CORRECTIONS),
        ("dia", 1): MD.REFERENCE_RDIA1 | (set() if received else MD.RDIA1_CORRECTIONS),
        ("dia", 2): MD.REFERENCE_RDIA2 | (set() if received else MD.RDIA2_CORRECTIONS),
    }
    for (kind, idx), want in want_rels.items():
        got = set()
        if kind == "box":
            rows = model.box_rows.get(idx, [])
            for bi, mask in enumerate(rows):
                b = p.objects[bi]
                for yi in range(len(p.features)):
                    if mask >> yi & 1:
                        got.add((MD.label_of(b), MD.label_of(p.features[yi])))
        else:
            rows = model.dia_rows.get(idx, [])
            for yi, mask in enumerate(rows):
                y = p.features[yi]
                for bi in range(len(p.objects)):
                    if mask >> bi & 1:
                        got.add((MD.label_of(y), MD.label_of(p.objects[bi])))
        extra = got - want
        missing = want - got
        print(f"R{kind}{idx}: |got|={len(got)} extra={sorted(extra)} "
              f"missing={sorted(missing)}")


if __name__ == "__main__":
    main(received="--received" in sys.argv)
