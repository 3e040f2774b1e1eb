(* In-memory spans recorded by the benchmark around its own calls into
   the program's layers. Spans are kept in memory while a run measures
   and written out once at the end as a Chrome trace-event file, which
   chrome://tracing and Perfetto open directly.

   With tracing off, [span] costs one atomic load. Closures the program
   itself calls back (the sweep's per-point task and codec) are wrapped
   only for traced operations, so an untraced operation hands the
   program exactly its own call shape. *)

type span = { name : string; lane : int; t0 : float; t1 : float }

let on = Atomic.make false
let lock = Mutex.create ()
let spans : span list ref = ref []
let set b = Atomic.set on b

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Util.now () in
    let finish () =
      let s = { name; lane = (Domain.self () :> int); t0; t1 = Util.now () } in
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)

(* Count and median duration per span name. *)
let summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name ((s.t1 -. s.t0) :: prev))
    (all ());
  Hashtbl.fold
    (fun name ds acc ->
      let ds = Array.of_list ds in
      ( name,
        Util.Obj
          [
            ("count", Util.Int (Array.length ds));
            ("median_ms", Util.Num (Util.median ds *. 1e3));
          ] )
      :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write_chrome path =
  match all () with
  | [] -> ()
  | first :: _ as l ->
      let base = List.fold_left (fun m s -> Float.min m s.t0) first.t0 l in
      Runner.Atomic_file.write ~fsync:false path (fun oc ->
          output_string oc "{\"traceEvents\": [\n";
          List.iteri
            (fun i s ->
              Printf.fprintf oc
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
                 \"ts\": %.3f, \"dur\": %.3f}\n"
                (if i = 0 then "" else ",")
                (Util.escape s.name) s.lane
                ((s.t0 -. base) *. 1e6)
                ((s.t1 -. s.t0) *. 1e6))
            l;
          output_string oc "]}\n")
