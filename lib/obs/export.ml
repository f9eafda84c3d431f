let run_summary ?(extra = []) () =
  Json.Obj
    (("schema", Json.String "matprod.run.v1")
     :: extra
    @ [
        ("metrics", Metrics.snapshot ());
        ("spans", Json.Int (Trace.span_count ()));
      ])

let print_run_summary ?extra () =
  print_endline (Json.to_string (run_summary ?extra ()))
