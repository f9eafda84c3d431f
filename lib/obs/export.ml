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

let pp_metrics ppf () =
  match Metrics.snapshot () with
  | Json.Obj sections ->
      Format.fprintf ppf "@[<v>";
      List.iter
        (fun (section, fields) ->
          match fields with
          | Json.Obj [] -> ()
          | Json.Obj kvs ->
              Format.fprintf ppf "%s:@," section;
              List.iter
                (fun (k, v) ->
                  match v with
                  | Json.Obj h ->
                      let get f =
                        match List.assoc_opt f h with
                        | Some (Json.Int n) -> float_of_int n
                        | Some (Json.Float x) -> x
                        | _ -> 0.0
                      in
                      Format.fprintf ppf
                        "  %-40s count %.0f  sum %.3g  min %.3g  max %.3g@," k
                        (get "count") (get "sum") (get "min") (get "max")
                  | Json.Int n -> Format.fprintf ppf "  %-40s %d@," k n
                  | Json.Float x -> Format.fprintf ppf "  %-40s %g@," k x
                  | _ -> ())
                kvs
          | _ -> ())
        sections;
      Format.fprintf ppf "@]"
  | _ -> ()

let pp_spans ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (sp : Trace.span) ->
      let indent = String.make (2 * sp.Trace.depth) ' ' in
      let attrs =
        match sp.Trace.attrs with
        | [] -> ""
        | a -> " " ^ Json.to_string (Json.Obj a)
      in
      if sp.Trace.dur_ns = 0 then
        Format.fprintf ppf "%s* %s%s@," indent sp.Trace.name attrs
      else
        Format.fprintf ppf "%s%-32s %9.3f ms%s@," indent sp.Trace.name
          (float_of_int sp.Trace.dur_ns /. 1e6)
          attrs)
    (Trace.spans ());
  Format.fprintf ppf "@]"
