(* report: offline aggregation of trace files and bench sidecars. *)

open Cli

let cmd =
  let report files =
    let failed = ref false in
    List.iter
      (fun path ->
        match Obs.Telemetry.load_file path with
        | Ok source ->
            Format.printf "%a@." Obs.Telemetry.pp_report (path, source)
        | Error msg ->
            Printf.eprintf "matprod report: %s: %s\n" path msg;
            failed := true)
      files;
    if !failed then exit 1
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Trace files (JSONL or Chrome trace-event) and/or \
             $(b,BENCH_*.json) / $(b,--json) run summaries to summarize.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate trace files and bench/run JSON into per-phase summaries \
          with p50/p90/p99 latencies (docs/OBSERVABILITY.md).")
    Term.(const report $ files_arg)
