//! The JSON writer's two layouts, pinned by known-answer strings, and a
//! seeded property: any tree of values, written in either layout (or a
//! mix), parses back through the strict reader to the same [`Value`].

use lmpr_codec::json::{document, json_f64, parse, Value, Writer};
use lmpr_codec::xoshiro::Xoshiro256pp;

#[test]
fn empty_containers_are_closed_on_their_line() {
    assert_eq!(document(|w| w.obj(|_| {})), "{}");
    assert_eq!(document(|w| w.arr(|_| {})), "[]");
    assert_eq!(document(|w| w.obj_line(|_| {})), "{}");
    assert_eq!(document(|w| w.arr_line(|_| {})), "[]");
    let doc = document(|w| {
        w.obj(|w| {
            w.key("a").arr(|_| {});
            w.key("b").obj(|_| {});
            w.key("c").arr_line(|_| {});
            w.key("d").obj_line(|_| {});
        });
    });
    assert_eq!(
        doc,
        "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [],\n  \"d\": {}\n}"
    );
}

#[test]
fn one_line_values_sit_inside_pretty_containers() {
    let doc = document(|w| {
        w.arr(|w| {
            w.obj_line(|w| {
                w.key("kind").str("deadlock");
                w.key("cycle").int(3u32);
                w.key("xs").arr_line(|w| {
                    w.int(1u8);
                    w.int(2u8);
                });
            });
            w.arr_line(|w| {
                w.bool(true);
                w.null();
            });
            w.f64(1.0);
        });
    });
    assert_eq!(
        doc,
        "[\n  {\"kind\": \"deadlock\", \"cycle\": 3, \"xs\": [1, 2]},\n  [true, null],\n  1.0\n]"
    );
    // A pretty call inside a one-line value stays on the line.
    let line = document(|w| {
        w.obj_line(|w| {
            w.key("a").obj(|w| {
                w.key("b").int(1u64);
            });
            w.key("c").arr(|w| {
                w.int(2u64);
                w.arr(|_| {});
            });
        });
    });
    assert_eq!(line, "{\"a\": {\"b\": 1}, \"c\": [2, []]}");
}

/// A small pretty document, the way a certificate writes itself.
fn report(w: &mut Writer) {
    w.obj(|w| {
        w.key("certified").bool(true);
        w.key("checks").arr(|w| {
            w.obj_line(|w| {
                w.key("rule").str("R");
                w.key("findings").int(0u64);
            });
        });
        w.key("findings").arr(|_| {});
    });
}

#[test]
fn a_nested_document_indents_with_its_parent() {
    let alone = document(report);
    assert_eq!(
        alone,
        "{\n  \"certified\": true,\n  \"checks\": [\n    {\"rule\": \"R\", \"findings\": 0}\n  ],\n  \
         \"findings\": []\n}"
    );
    // At depth 2 — a member of an object inside an array — the same
    // document is indented by four more spaces on every line but its
    // first, with nothing re-indenting finished text.
    let nested = document(|w| {
        w.arr(|w| {
            w.obj(|w| {
                w.key("certificate");
                report(w);
            });
        });
    });
    let inner = alone.replace('\n', "\n    ");
    assert_eq!(
        nested,
        format!("[\n  {{\n    \"certificate\": {inner}\n  }}\n]")
    );
}

/// A random JSON tree; each container carries its own layout.
#[derive(Debug)]
enum Tree {
    Null,
    Bool(bool),
    Uint(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Tree>, bool),
    Obj(Vec<(String, Tree)>, bool),
}

const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '—',
    '😀',
];

const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    0.1,
    -1.5e-3,
    1e15,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn string(rng: &mut Xoshiro256pp) -> String {
    let len = rng.index(6);
    (0..len).map(|_| CHARS[rng.index(CHARS.len())]).collect()
}

fn tree(rng: &mut Xoshiro256pp, depth: u32) -> Tree {
    let kinds = if depth >= 4 { 6 } else { 8 };
    match rng.index(kinds) {
        0 => Tree::Null,
        1 => Tree::Bool(rng.below(2) == 1),
        2 => Tree::Uint([0, 1, u64::MAX, rng.next_u64()][rng.index(4)]),
        3 => Tree::Int([i64::MIN, -1, i64::MAX][rng.index(3)]),
        4 => Tree::Float(match rng.index(FLOATS.len() + 1) {
            i if i < FLOATS.len() => FLOATS[i],
            _ => (rng.unit_f64() - 0.5) * 1e6,
        }),
        5 => Tree::Str(string(rng)),
        6 => {
            let n = rng.index(4);
            Tree::Arr(
                (0..n).map(|_| tree(rng, depth + 1)).collect(),
                rng.below(2) == 1,
            )
        }
        _ => {
            let n = rng.index(4);
            // The reader rejects duplicate keys: keep them distinct.
            let members = (0..n)
                .map(|i| (format!("{}{i}", string(rng)), tree(rng, depth + 1)))
                .collect();
            Tree::Obj(members, rng.below(2) == 1)
        }
    }
}

#[derive(Clone, Copy)]
enum Layout {
    Pretty,
    Line,
    /// Each container's own flag.
    Mixed,
}

fn write(w: &mut Writer, t: &Tree, layout: Layout) {
    let line = |own: bool| match layout {
        Layout::Pretty => false,
        Layout::Line => true,
        Layout::Mixed => own,
    };
    match t {
        Tree::Null => {
            w.null();
        }
        Tree::Bool(b) => {
            w.bool(*b);
        }
        Tree::Uint(v) => {
            w.int(*v);
        }
        Tree::Int(v) => {
            w.int(*v);
        }
        Tree::Float(v) => {
            w.f64(*v);
        }
        Tree::Str(s) => {
            w.str(s);
        }
        Tree::Arr(items, own) => {
            let body = |w: &mut Writer| items.iter().for_each(|t| write(w, t, layout));
            if line(*own) {
                w.arr_line(body);
            } else {
                w.arr(body);
            }
        }
        Tree::Obj(members, own) => {
            let body = |w: &mut Writer| {
                for (k, t) in members {
                    w.key(k);
                    write(w, t, layout);
                }
            };
            if line(*own) {
                w.obj_line(body);
            } else {
                w.obj(body);
            }
        }
    }
}

fn expected(t: &Tree) -> Value {
    match t {
        Tree::Null => Value::Null,
        Tree::Bool(b) => Value::Bool(*b),
        Tree::Uint(v) => Value::Num(v.to_string()),
        Tree::Int(v) => Value::Num(v.to_string()),
        Tree::Float(v) if v.is_finite() => Value::Num(json_f64(*v)),
        Tree::Float(_) => Value::Null,
        Tree::Str(s) => Value::Str(s.clone()),
        Tree::Arr(items, _) => Value::Arr(items.iter().map(expected).collect()),
        Tree::Obj(members, _) => Value::Obj(
            members
                .iter()
                .map(|(k, t)| (k.clone(), expected(t)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_parse_back_in_every_layout() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x4a50_4e57);
    for case in 0..2_000 {
        let t = tree(&mut rng, 0);
        let want = expected(&t);
        for layout in [Layout::Pretty, Layout::Line, Layout::Mixed] {
            let text = document(|w| write(w, &t, layout));
            let got = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
            assert_eq!(got, want, "case {case}: {text}");
            match layout {
                Layout::Line => assert!(!text.contains('\n'), "case {case}: {text}"),
                Layout::Pretty => {
                    for l in text.lines() {
                        let indent = l.len() - l.trim_start_matches(' ').len();
                        assert_eq!(indent % 2, 0, "case {case}: odd indent in {text}");
                    }
                }
                Layout::Mixed => {}
            }
        }
    }
}
