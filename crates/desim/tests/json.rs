//! The JSON codec against its contract: the writer's escaping, number and
//! comma rules; the parser's RFC 8259 grammar, round trips, and rejection of
//! malformed or truncated input without panicking.

use mutsvc_desim::json::{fixed, parse, quote, Value, Writer};

fn write(f: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    f(&mut Writer::new(&mut out));
    out
}

#[test]
fn writer_places_commas_and_line_breaks() {
    let out = write(|w| {
        w.begin_object().key("a").begin_array();
        for i in 0..3 {
            w.line_break().begin_object().key("i").int(i).end_object();
        }
        w.line_break().end_array();
        w.key("b").bool(true).key("c").null();
        w.key("e").begin_array().end_array().end_object();
    });
    let want = "{\"a\":[\n{\"i\":0},\n{\"i\":1},\n{\"i\":2}\n],\"b\":true,\"c\":null,\"e\":[]}";
    assert_eq!(out, want);
    assert!(parse(&out).is_ok());
}

#[test]
fn escapes_round_trip() {
    let nasty = "q\"b\\s/ n\n r\r t\t nul\u{0} bell\u{7} us\u{1f} é 😀";
    let lit = quote(nasty);
    let want = "\"q\\\"b\\\\s/ n\\n r\\r t\\t nul\\u0000 bell\\u0007 us\\u001f é 😀\"";
    assert_eq!(lit, want);
    assert_eq!(parse(&lit), Ok(Value::String(nasty.to_string())));
    // Escapes the writer never emits still parse, surrogate pairs included.
    let other = parse(r#""\u00e9\/\b\f\ud83d\ude00\u0041""#);
    assert_eq!(other, Ok(Value::String("é/\u{8}\u{c}😀A".to_string())));
}

#[test]
fn numbers_parse_and_non_finite_writes_null() {
    let parsed = ["-12", "0", "-0.5", "2.5e3", "1E-2", "-4.25e+1"].map(parse);
    let want = [-12.0, 0.0, -0.5, 2500.0, 0.01, -42.5].map(|v| Ok(Value::Number(v)));
    assert_eq!(parsed, want);
    let out = write(|w| {
        w.begin_array().fixed(f64::NAN, 2).fixed(f64::INFINITY, 4);
        w.float(f64::NEG_INFINITY).float(0.5).float(1.0);
        w.fixed(-1.005, 1).int(-1).int(u64::MAX).end_array();
    });
    assert_eq!(out, "[null,null,null,0.5,1,-1.0,-1,18446744073709551615]");
    assert_eq!(fixed(2.0 / 3.0, 4), "0.6667");
}

#[test]
fn malformed_input_is_rejected() {
    let deep = "[".repeat(1000) + &"]".repeat(1000);
    for bad in [
        "",
        "[1,]",
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\" 1}",
        "{1:2}",
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"short \\u12\"",
        "\"sign \\u+123\"",
        "\"lone \\ud800\"",
        "\"raw \n newline\"",
        "{\"a\":1} trailing",
        "[1]]",
        "01",
        "1.",
        "-",
        "1e",
        ".5",
        "tru",
        "nul",
        "NaN",
        &deep,
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn truncated_artifacts_never_panic() {
    let doc = write(|w| {
        w.begin_object().key("suite").string("faults").key("apps");
        w.begin_array().line_break().begin_object();
        w.key("name").string("é \"x\"\t😀").key("p").fixed(0.25, 4);
        w.key("ok").bool(false).key("n").null().key("e").float(1e-7);
        w.end_object().end_array().end_object();
    });
    assert!(parse(&doc).is_ok());
    for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        assert!(parse(&doc[..end]).is_err(), "prefix {end} parsed");
    }
}

#[test]
fn typed_accessors_name_the_key() {
    let doc = parse(r#"{"s":"x","n":1.5,"b":true,"a":[],"o":{},"s":"dup"}"#).unwrap();
    assert_eq!(doc.str_at("s"), Ok("x"), "first field wins");
    assert_eq!(doc.num_at("n"), Ok(1.5));
    assert_eq!(doc.bool_at("b"), Ok(true));
    assert_eq!(doc.array_at("a"), Ok(&[][..]));
    assert!(doc.object_at("o").is_ok() && doc.object_at("a").is_err());
    assert_eq!(doc.num_at("s"), Err("\"s\" is not a number".to_string()));
    assert_eq!(doc.num_at("zz"), Err("missing key \"zz\"".to_string()));
}
