//! CSV ingestion edge cases, pinned at both layers: the `fd-core`
//! reader (`table_from_csv`) and the `Instance::from_csv` front door the
//! CLI uses. Quoting, weight-column mishaps, and duplicate headers must
//! all either work per RFC 4180 or fail with a diagnostic — never panic
//! or silently mangle data.

use fd_repairs::instance::Instance;
use fd_repairs::prelude::*;

#[test]
fn quoted_fields_containing_commas_stay_one_field() {
    let csv = "city,country\n\"Paris, TX\",USA\n\"a,b,c\",x\n";
    let inst = Instance::from_csv("R", csv, "city -> country", None).unwrap();
    assert_eq!(inst.schema.arity(), 2);
    assert_eq!(inst.table.len(), 2);
    let city = inst.schema.attr("city").unwrap();
    assert_eq!(
        inst.table.row(TupleId(0)).unwrap().tuple.get(city),
        &Value::str("Paris, TX")
    );
    assert_eq!(
        inst.table.row(TupleId(1)).unwrap().tuple.get(city),
        &Value::str("a,b,c")
    );
}

#[test]
fn quoted_fields_with_escaped_quotes_and_newlines() {
    // Doubled quotes unescape; embedded newlines stay in the field.
    let csv = "a,b\n\"say \"\"hi\"\"\",1\n\"two\nlines\",2\n";
    let table = table_from_csv("R", csv, &CsvOptions::default()).unwrap();
    assert_eq!(table.len(), 2);
    let a = table.schema().attr("a").unwrap();
    assert_eq!(
        table.row(TupleId(0)).unwrap().tuple.get(a),
        &Value::str("say \"hi\"")
    );
    assert_eq!(
        table.row(TupleId(1)).unwrap().tuple.get(a),
        &Value::str("two\nlines")
    );
}

#[test]
fn missing_weight_column_is_a_clean_error() {
    let csv = "a,b\n1,2\n";
    let options = CsvOptions {
        weight_column: Some("w".to_string()),
    };
    let err = table_from_csv("R", csv, &options).unwrap_err();
    assert!(
        err.to_string().contains("weight column"),
        "unhelpful error: {err}"
    );
    // Same contract through the Instance front door the CLI takes.
    let err = Instance::from_csv("R", csv, "a -> b", Some("w")).unwrap_err();
    assert!(err.to_string().contains("weight column"), "{err}");
}

#[test]
fn non_numeric_weight_is_a_clean_error_with_the_line() {
    let csv = "a,b,w\nx,2,1.5\ny,3,heavy\n";
    let err = Instance::from_csv("R", csv, "a -> b", Some("w")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not a number"), "unhelpful error: {msg}");
    assert!(msg.contains('3'), "line number missing from: {msg}");
}

#[test]
fn duplicate_header_names_are_rejected() {
    let csv = "a,b,a\n1,2,3\n";
    let err = table_from_csv("R", csv, &CsvOptions::default()).unwrap_err();
    assert!(
        matches!(err, Error::DuplicateAttribute { ref name } if name == "a"),
        "expected DuplicateAttribute, got {err:?}"
    );
    assert!(Instance::from_csv("R", csv, "a -> b", None).is_err());
}

#[test]
fn weight_column_is_excluded_from_the_schema_and_fds() {
    let csv = "a,w,b\n1,2.5,x\n1,1.5,y\n";
    let inst = Instance::from_csv("R", csv, "a -> b", Some("w")).unwrap();
    assert_eq!(inst.schema.attr_names(), ["a", "b"]);
    assert_eq!(inst.table.row(TupleId(0)).unwrap().weight, 2.5);
    // The weight column is gone, so FDs may not reference it.
    assert!(Instance::from_csv("R", csv, "a -> w", Some("w")).is_err());
}

#[test]
fn malformed_quoting_is_rejected_not_mangled() {
    for bad in [
        "a,b\n\"unterminated,1\n",
        "a,b\n\"x\"stray,1\n",
        "a,b\nmid\"quote,1\n",
    ] {
        assert!(
            table_from_csv("R", bad, &CsvOptions::default()).is_err(),
            "accepted malformed CSV: {bad:?}"
        );
    }
}

#[test]
fn csv_instances_flow_into_the_engine() {
    // End to end: a quoted, weighted CSV drives the unified call path.
    let csv = "\
facility,room,floor,city,w
HQ,322,3,\"Paris, FR\",2
HQ,322,30,Madrid,1
HQ,122,1,Madrid,1
Lab1,B35,3,London,2
";
    let inst = Instance::from_csv(
        "Office",
        csv,
        "facility -> city; facility room -> floor",
        Some("w"),
    )
    .unwrap();
    let report = Planner
        .run(&inst.table, &inst.fds, &RepairRequest::subset())
        .unwrap();
    assert_eq!(report.cost, 2.0);
}

#[test]
fn a_leading_byte_order_mark_is_not_part_of_the_first_header() {
    let csv = "\u{feff}A,B\n1,2\n1,3\n";
    let inst = Instance::from_csv("R", csv, "A -> B", None).unwrap();
    assert_eq!(inst.schema.attr_names(), ["A", "B"]);
    assert_eq!(
        inst.table,
        Instance::from_csv("R", &csv[3..], "A -> B", None)
            .unwrap()
            .table
    );
    // A quoted first field after the mark still parses as quoted.
    let quoted = table_from_csv("R", "\u{feff}\"A\",B\n\"x,y\",2\n", &CsvOptions::default());
    assert_eq!(quoted.unwrap().schema().attr_names(), ["A", "B"]);
    // Bytes that merely start like a mark stay in the field, and only
    // the first mark goes.
    let full_width = table_from_csv("R", "\u{ff01}A,B\n", &CsvOptions::default()).unwrap();
    assert_eq!(full_width.schema().attr_names(), ["\u{ff01}A", "B"]);
    let twice = table_from_csv("R", "\u{feff}\u{feff}A\n", &CsvOptions::default()).unwrap();
    assert_eq!(twice.schema().attr_names(), ["\u{feff}A"]);
    // A mark on a later line is data.
    let later = table_from_csv("R", "A\n\u{feff}x\n", &CsvOptions::default()).unwrap();
    assert_eq!(later.row_at(0).tuple.values()[0], Value::str("\u{feff}x"));
}
