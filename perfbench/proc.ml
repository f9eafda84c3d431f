(* Host-side helpers: the daemon as a child process, /proc readings, the
   spin-loop noise probe, and work-directory cleanup. *)

let now = Unix.gettimeofday

(* The daemon runs with its shipped defaults: no inherited domain count,
   GC tuning or fake clock from the caller's environment. *)
let clean_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"MATPROD_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> Array.of_list

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port: not an inet socket")

let spawn ~exe ~args ~stdout_path ~stderr_path =
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fd_err =
    Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
    (fun () ->
      Unix.create_process_env exe
        (Array.of_list (exe :: args))
        (clean_env ()) fd_in fd_out fd_err)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, then SIGKILL if the drain overruns [grace_s]; always reaps. *)
let stop ?(grace_s = 20.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Error "killed after drain timeout"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED c -> Error (Printf.sprintf "exit code %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "signal %d" s)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Ok ()
  in
  wait ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Fields after the parenthesised command name of /proc/<pid>/stat:
   index 0 is the state (field 3), utime and stime are fields 14 and 15. *)
let clock_ticks = 100.0

let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let from = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks

let rss_peak_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  read_file path |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.value ~default:0.0

(* A fixed pure-CPU loop: how fast this host runs plain integer code right
   now. Diagnostic only — it moves with the machine, not the program. *)
let spin_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 40_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.0

(* A fixed memory probe: a million read-modify-writes at pseudo-random
   places of a 16 MB array. On a shared host its time moves with the
   memory system's speed, which other tenants change for tens of seconds
   at a time. The array lives outside the OCaml heap, so it does not
   change how often the GC of the measured program collects. *)
let probe_cells =
  lazy
    (let a = Bigarray.(Array1.create int c_layout (1 lsl 21)) in
     Bigarray.Array1.fill a 0;
     a)

let probe_ms () =
  let cells = Lazy.force probe_cells in
  let t0 = now () in
  let j = ref 0 in
  for _ = 1 to 1_000_000 do
    j := ((!j * 1103515245) + 12345) land ((1 lsl 21) - 1);
    Bigarray.Array1.unsafe_set cells !j (Bigarray.Array1.unsafe_get cells !j + 1)
  done;
  (now () -. t0) *. 1000.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
