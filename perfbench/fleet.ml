(* Shard processes for the routed passes: [toposearch shard] servers over
   Unix sockets, one per snapshot slice, each at jobs=1 with its own
   result cache.  Separate processes, not in-process [Shard.start]
   servers: in one OCaml 5 runtime the shards and the router would share
   stop-the-world minor collections, which couples them in a way the
   deployed fleet does not.

   Every spawned pid is remembered until it has been reaped, and an
   [at_exit] hook kills and reaps whatever is left, so no shard outlives
   the benchmark even when a check fails mid-run. *)

module Wire = Topo_core.Wire

type t = { pids : int array; addrs : Wire.addr array }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let socket ~dir k = Filename.concat dir (Printf.sprintf "s%d.sock" k)

(* Peak resident set of a live process, in bytes (VmHWM). *)
let vm_hwm_bytes pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
                | Some kb -> kb * 1024
                | None -> scan ())
          in
          scan ())

(* Poll until the shard accepts a connection and sends its hello frame:
   the moment it is ready to serve. *)
let await_hello pid addr =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "fleet: a shard process exited during boot (see its log in the run directory)");
    match Wire.connect ~read_s:30.0 ~write_s:30.0 addr with
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Wire.recv fd with
            | Some (kind, _) when kind = Wire.kind_hello -> ()
            | _ -> failwith "fleet: shard connection did not open with a hello frame")
    | exception (Unix.Unix_error _ | Wire.Error _) when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* [boot ~exe ~dir ~shards] spawns one shard per [dir/shard-K.snap] and
   returns once every shard has sent its hello. *)
let boot ~exe ~dir ~shards =
  let addrs = Array.init shards (fun k -> Wire.Unix_sock (socket ~dir k)) in
  let pids =
    Array.init shards (fun k ->
        (try Sys.remove (socket ~dir k) with Sys_error _ -> ());
        let log =
          Unix.openfile
            (Filename.concat dir (Printf.sprintf "shard-%d.log" k))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close log)
            (fun () ->
              Unix.create_process exe
                [|
                  exe; "shard"; "--snapshot"; Topo_core.Snapshot.shard_path ~dir k; "--socket";
                  socket ~dir k; "--jobs"; "1"; "--cache";
                |]
                Unix.stdin log log)
        in
        live := pid :: !live;
        pid)
  in
  let t = { pids; addrs } in
  (try Array.iteri (fun k pid -> await_hello pid addrs.(k)) pids
   with e ->
     Array.iter reap pids;
     raise e);
  t

(* Summed peak resident set of the shard processes, in bytes. *)
let hwm_bytes t = Array.fold_left (fun acc pid -> acc + vm_hwm_bytes pid) 0 t.pids

let stop t = Array.iter reap t.pids
