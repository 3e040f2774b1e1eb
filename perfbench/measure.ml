(* The closed-loop load generator and the end-to-end metrics every workload
   reports under the same five names. *)

type op = {
  latency : float;  (** seconds, the timed window only *)
  units : int;  (** rate units the operation completed *)
  ok : bool;  (** the operation succeeded and its output checked out *)
  traced : bool;
}

type result = {
  unit_name : string;
  setup : float array;  (** seconds, one sample per repeated set-up *)
  ops : op array;
  peak_rss_mb : float;
  checks_ok : bool;  (** run-level checks beyond the per-operation ones *)
  details : (string * Util.json) list;  (** workload-specific record *)
}

(* [setup_series f] — run set-up [f 0] untimed and [f 1] timed, and
   return [(take, samples)]: [take ()] times one more set-up, [samples ()]
   every timed one so far. The first set-up of a process also pays for
   loading code and faulting in pages, which no later one repeats. *)
let setup_series f =
  ignore (f 0);
  let acc = ref [ f 1 ] in
  let take () = acc := f (List.length !acc + 1) :: !acc in
  (take, fun () -> Array.of_list (List.rev !acc))

(* [loop ?every ~seconds ~alternate op] — run [op i traced] back to
   back until [seconds] of wall time have passed. Output checks run inside
   [op] but outside its timed window, so they delay the next operation
   without counting as operation time. With [~alternate:true] (traced
   runs) every other operation runs with tracing on, interleaved with
   untraced ones, so the in-run overhead comparison shares the machine's
   state. [every = (period, f)] runs [f] between operations about every
   [period] seconds, from the start: the workloads take their set-up
   samples there, so that the set-up median, like the operation figures,
   spans the whole run rather than one moment of it. *)
let loop ?every ~seconds ~alternate op =
  let t_end = Util.now () +. seconds in
  let next = ref (Util.now ()) in
  let rec go i acc =
    if Util.now () >= t_end then Array.of_list (List.rev acc)
    else begin
      (match every with
      | Some (period, f) when Util.now () >= !next ->
          f ();
          next := Util.now () +. period
      | _ -> ());
      let traced = alternate && i land 1 = 1 in
      Trace.set traced;
      let o =
        match op i ~traced with
        | o -> o
        | exception e ->
            Printf.eprintf "operation %d failed: %s\n%!" i
              (Printexc.to_string e);
            { latency = 0.0; units = 0; ok = false; traced }
      in
      Trace.set false;
      go (i + 1) (o :: acc)
    end
  in
  go 0 []

type e2e = {
  rate_per_s : float;
  p50_ms : float;
  tail : Util.tail;
}

(* Rate is units per second of operation time (the loop is closed, so
   operation time is the wall time of the load minus the untimed checks),
   taken over consecutive windows of one second and reported as the
   median window. The machines this runs on slow down by tens of percent
   for seconds at a time when a neighbour takes the core; a mean over
   the run would carry the share of such seconds in the run, the median
   window does not while they stay a minority. *)
let window_s = 1.0

let windowed_rate ok =
  let rates = ref [] and units = ref 0 and busy = ref 0.0 in
  Array.iter
    (fun o ->
      units := !units + o.units;
      busy := !busy +. o.latency;
      if !busy >= window_s then begin
        rates := (float_of_int !units /. !busy) :: !rates;
        units := 0;
        busy := 0.0
      end)
    ok;
  match !rates with
  | [] -> float_of_int !units /. !busy
  | rs -> Util.median (Array.of_list rs)

let e2e_of ops =
  let ok = List.filter (fun o -> o.ok) (Array.to_list ops) |> Array.of_list in
  let lat_ms = Array.map (fun o -> o.latency *. 1e3) ok in
  {
    rate_per_s = windowed_rate ok;
    p50_ms = Util.median lat_ms;
    tail = Util.tail lat_ms;
  }

let split_traced r =
  let all = Array.to_list r.ops in
  ( Array.of_list (List.filter (fun o -> not o.traced) all),
    Array.of_list (List.filter (fun o -> o.traced) all) )

(* Median latency of each fifth of the run, in the order run: drift within
   a run against spread between runs tells a slow machine phase from a
   per-process effect. *)
let p50_by_fifth ops =
  let n = Array.length ops in
  List.init 5 (fun k ->
      let lo = k * n / 5 and hi = (k + 1) * n / 5 in
      Util.median
        (Array.map (fun o -> o.latency *. 1e3) (Array.sub ops lo (hi - lo))))
