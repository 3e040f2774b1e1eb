(* Workload `serve`: a real `pllscope serve` child process with a state
   directory, driven closed-loop over one Unix-socket connection. This is
   the only workload that crosses Wire, Daemon, Lru, Memo and Engine.

   The request mix is a seeded sequence of four classes, dealt in
   shuffled blocks of 20 so the proportions are exact in every run:
   - 13 pairs of cold `analyze` on specs never sent before (LRU and memo
     miss), two back to back per operation: one takes about a
     millisecond, and a timed operation must take well over one;
   - 3 hot bursts: 128 back-to-back `analyze` of a 4-spec hot set, all
     LRU hits, timed as one operation since a single hit takes tens of
     microseconds and would time only wake-up jitter;
   - 3 `bode` on a hot spec with a point count (1200 to 1398) not asked
     before (memo hit on the synthesized loop, fresh grid, LRU miss);
   - 1 streamed 8-ratio `sweep` on a fresh spec (chunk frames, the state
     directory journal, the summary digest).
   Cold analyses are two thirds of the operations, so the median falls
   inside that class. The sweeps are the slowest twentieth, about twice
   as slow as the scheduling hiccups of the other classes, so the tail
   percentile (p99 at this operation count) falls inside theirs. *)

let unit_name = "requests"
let pllscope = Filename.concat "_build/default/bin" "pllscope.exe"
let burst = 128
let hot_set = 4
let sweep_ratios = Array.init 8 (fun i -> 0.05 *. float_of_int (i + 1))
let request_timeout = 30.0

(* ------------------------------------------------------------------ *)
(* the daemon child                                                    *)

type daemon = { pid : int; ic : in_channel; sock : string }

(* Daemons still running; [Pllbench.cleanup] kills and reaps them at exit,
   whatever happens. *)
let live : int list ref = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Block until [fd] is readable or [seconds] pass; true when readable. *)
let readable fd seconds =
  let deadline = Util.now () +. seconds in
  let rec wait () =
    let left = deadline -. Util.now () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* [spawn ~dir k] — start daemon [k] and block on its "listening" line,
   which it prints once its socket is bound and listening: no polling. *)
let spawn ~dir k =
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" k) in
  let state = Filename.concat dir (Printf.sprintf "state%d" k) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process pllscope
      [| pllscope; "serve"; "--socket"; sock; "--state-dir"; state |]
      Unix.stdin wr Unix.stderr
  in
  live := pid :: !live;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let d = { pid; ic; sock } in
  if not (readable rd 30.0) then failwith "W_serve.spawn: daemon never listened";
  match input_line ic with
  | line when String.starts_with ~prefix:"listening" line -> d
  | line -> failwith ("W_serve.spawn: unexpected daemon output: " ^ line)
  | exception End_of_file -> failwith "W_serve.spawn: daemon exited at start"

let addr d = Serve.Client.Unix_path d.sock
let connect d = Serve.Client.connect (addr d)

let request c body =
  Serve.Client.request ~timeout:request_timeout c (Serve.Wire.oneshot body)

(* [stop d] — SIGTERM, read the daemon's output to EOF, reap it. A clean
   drain exits 0 after a "drained:" line; anything else is a failed
   check. A daemon that does not drain within 15 s is killed. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let fd = Unix.descr_of_in_channel d.ic in
  let rec drain acc =
    if not (readable fd 15.0) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      acc
    end
    else
      match input_line d.ic with
      | line -> drain (line :: acc)
      | exception End_of_file -> acc
  in
  let lines = drain [] in
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (fun p -> p <> d.pid) !live;
  close_in_noerr d.ic;
  status = Unix.WEXITED 0
  && List.exists (String.starts_with ~prefix:"drained") lines

(* Set-up: spawn to the first `health` reply. *)
let setup_once ~dir k =
  let t0 = Util.now () in
  let d = spawn ~dir k in
  let c = connect d in
  let healthy =
    match request c Serve.Wire.Health with
    | Ok Serve.Wire.R_healthy -> true
    | Ok _ | Error _ -> false
  in
  let dt = Util.now () -. t0 in
  Serve.Client.close c;
  if not healthy then failwith "W_serve.setup_once: health request failed";
  (d, dt)

(* ------------------------------------------------------------------ *)
(* the request mix                                                     *)

type cls = Cold | Hot | Bode | Sweep

let block =
  Array.concat
    [ Array.make 13 Cold; Array.make 3 Hot; Array.make 3 Bode; Array.make 1 Sweep ]

let class_stream st =
  let buf = Array.copy block and pos = ref (Array.length block) in
  fun () ->
    if !pos >= Array.length buf then begin
      for i = Array.length buf - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = buf.(i) in
        buf.(i) <- buf.(j);
        buf.(j) <- t
      done;
      pos := 0
    end;
    let c = buf.(!pos) in
    incr pos;
    c

let bode_points k = 1200 + (k mod 199)

(* What an operation must be checked against once the load has ended:
   the reference replies are computed in-process afterwards, so their
   cost stays outside the timed window. *)
type pending =
  | P_analyze of int * Pll_lib.Design.spec * string
  | P_bode of int * Pll_lib.Design.spec * int * Digest.t
  | P_sweep of int * Pll_lib.Design.spec * Digest.t

let reply_bytes resp = Serve.Wire.marshal_response resp

let reference = function
  | P_analyze (_, spec, _) ->
      reply_bytes
        (Serve.Wire.R_analyze
           (Serve.Engine.analyze ~cancel:(Parallel.Cancel.create ()) spec))
  | P_bode (_, spec, points, _) ->
      Digest.string
        (reply_bytes
           (Serve.Wire.R_bode
              (Serve.Engine.bode ~cancel:(Parallel.Cancel.create ()) spec
                 ~points)))
  | P_sweep (_, spec, _) ->
      Digest.string
        (reply_bytes
           (Serve.Wire.R_sweep
              (Serve.Engine.sweep ~cancel:(Parallel.Cancel.create ()) spec
                 sweep_ratios)))

let pending_ok p =
  let got =
    match p with
    | P_analyze (_, _, b) -> b
    | P_bode (_, _, _, d) | P_sweep (_, _, d) -> d
  in
  String.equal got (reference p)

let pending_index = function
  | P_analyze (i, _, _) | P_bode (i, _, _, _) | P_sweep (i, _, _) -> i

type mix = {
  mutable d : daemon;
  mutable conn : Serve.Client.t;
  mutable sent : int;  (** operations sent, across daemons *)
  next_class : unit -> cls;
  spec_st : Random.State.t;
  hot : Pll_lib.Design.spec array;
  hot_ref : string array;
  mutable bodes : int;
  mutable pending : pending list;
  mutable by_class : (cls * float) list;
}

let make_mix ~seed d =
  let hot_st = Util.rng seed 33 in
  let hot = Array.init hot_set (fun _ -> Util.spec_variant hot_st) in
  let hot_ref =
    Array.map
      (fun spec ->
        reply_bytes
          (Serve.Wire.R_analyze
             (Serve.Engine.analyze ~cancel:(Parallel.Cancel.create ()) spec)))
      hot
  in
  {
    d;
    conn = connect d;
    sent = 0;
    next_class = class_stream (Util.rng seed 31);
    spec_st = Util.rng seed 32;
    hot;
    hot_ref;
    bodes = 0;
    pending = [];
    by_class = [];
  }

let class_name = function
  | Cold -> "cold_analyze_pair"
  | Hot -> "hot_burst"
  | Bode -> "bode"
  | Sweep -> "streamed_sweep"

let cold_pair m i ~traced =
  let specs = Array.init 2 (fun _ -> Util.spec_variant m.spec_st) in
  let replies, dt =
    Util.timed (fun () ->
        Trace.span "serve.cold_analyze_pair" (fun () ->
            Array.map (fun spec -> request m.conn (Serve.Wire.Analyze spec)) specs))
  in
  let ok =
    Array.for_all2
      (fun spec r ->
        match r with
        | Ok resp ->
            m.pending <- P_analyze (i, spec, reply_bytes resp) :: m.pending;
            true
        | Error _ -> false)
      specs replies
  in
  { Measure.latency = dt; units = 2; ok; traced }

let class_op m cls i ~traced =
  match cls with
  | Cold -> cold_pair m i ~traced
  | Hot ->
      let replies, dt =
        Util.timed (fun () ->
            Trace.span "serve.hot_burst" (fun () ->
                Array.init burst (fun j ->
                    request m.conn (Serve.Wire.Analyze m.hot.(j mod hot_set)))))
      in
      let ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun j r ->
               match r with
               | Ok resp ->
                   String.equal (reply_bytes resp) m.hot_ref.(j mod hot_set)
               | Error _ -> false)
             replies)
      in
      { Measure.latency = dt; units = burst; ok; traced }
  | Bode -> (
      let k = m.bodes in
      m.bodes <- k + 1;
      let spec = m.hot.(k mod hot_set) and points = bode_points k in
      let r, dt =
        Util.timed (fun () ->
            Trace.span "serve.bode" (fun () ->
                request m.conn (Serve.Wire.Bode { spec; points })))
      in
      match r with
      | Ok resp ->
          m.pending <-
            P_bode (i, spec, points, Digest.string (reply_bytes resp))
            :: m.pending;
          { Measure.latency = dt; units = 1; ok = true; traced }
      | Error _ -> { Measure.latency = dt; units = 1; ok = false; traced })
  | Sweep -> (
      (* the stream opens its own connection: close ours first so the
         load never holds more than one *)
      Serve.Client.close m.conn;
      let spec = Util.spec_variant m.spec_st in
      let r, dt =
        Util.timed (fun () ->
            Trace.span "serve.streamed_sweep" (fun () ->
                Serve.Client.sweep_streamed ~timeout:request_timeout
                  ~attempts:1
                  ~connect:(fun () -> connect m.d)
                  ~spec ~ratios:sweep_ratios ()))
      in
      m.conn <- connect m.d;
      match r with
      | Ok (res, stats) ->
          m.pending <-
            P_sweep
              (i, spec, Digest.string (reply_bytes (Serve.Wire.R_sweep res)))
            :: m.pending;
          let ok =
            stats.Serve.Client.resumes = 0
            && stats.Serve.Client.replayed = 0
            && stats.Serve.Client.computed = Array.length sweep_ratios
          in
          { Measure.latency = dt; units = 1; ok; traced }
      | Error _ -> { Measure.latency = dt; units = 1; ok = false; traced })

(* [mix_op m _ ~traced] — send the next operation of the seeded
   sequence; operations are numbered across daemons by [m.sent]. *)
let mix_op m _ ~traced =
  let cls = m.next_class () in
  let o = class_op m cls m.sent ~traced in
  m.sent <- m.sent + 1;
  m.by_class <- (cls, o.Measure.latency) :: m.by_class;
  o

let class_json m =
  Util.Obj
    (List.map
       (fun cls ->
         let ms =
           List.filter_map
             (fun (c, l) -> if c = cls then Some (l *. 1e3) else None)
             m.by_class
           |> Array.of_list
         in
         let a = Util.sorted ms in
         ( class_name cls,
           Util.Obj
             [
               ("ops", Util.Int (Array.length ms));
               ("p10_ms", Util.Num (Util.quantile_sorted a 0.1));
               ("p50_ms", Util.Num (Util.quantile_sorted a 0.5));
               ("p90_ms", Util.Num (Util.quantile_sorted a 0.9));
             ] ))
       [ Cold; Hot; Bode; Sweep ])

(* Warm the daemon untimed: the hot set into the LRU, one request of
   every other class through its path. *)
let warm m =
  let pending = m.pending in
  Array.iter (fun spec -> ignore (request m.conn (Serve.Wire.Analyze spec))) m.hot;
  ignore (cold_pair m (-1) ~traced:false);
  ignore
    (request m.conn
       (Serve.Wire.Bode { spec = m.hot.(0); points = bode_points 0 - 1 }));
  m.pending <- pending

(* Check every deferred reply against the in-process engine; returns the
   indices of operations whose reply differed. *)
let deferred_failures m =
  List.filter_map
    (fun p -> if pending_ok p then None else Some (pending_index p))
    m.pending

let server_stats m =
  match request m.conn Serve.Wire.Stats with
  | Ok (Serve.Wire.R_stats s) -> Some s
  | Ok _ | Error _ -> None

let ratio hits misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let stats_json (s : Serve.Wire.server_stats) =
  Util.Obj
    [
      ("served", Util.Int s.Serve.Wire.served);
      ("shed", Util.Int s.Serve.Wire.shed);
      ("request_errors", Util.Int s.Serve.Wire.request_errors);
      ("io_timeouts", Util.Int s.Serve.Wire.io_timeouts);
      ( "lru_hit_ratio",
        Util.Num (ratio s.Serve.Wire.cache_hits s.Serve.Wire.cache_misses) );
      ( "memo_hit_ratio",
        Util.Num (ratio s.Serve.Wire.memo_hits s.Serve.Wire.memo_misses) );
      ("points_computed", Util.Int s.Serve.Wire.points_computed);
      ("chunks_sent", Util.Int s.Serve.Wire.chunks_sent);
      ("streams_started", Util.Int s.Serve.Wire.streams_started);
    ]

(* [attach m d] — point the mix at a fresh daemon and warm it. *)
let attach m d =
  Serve.Client.close m.conn;
  m.d <- d;
  m.conn <- connect d;
  warm m

(* The load runs on [rounds] daemons in turn, each for an equal share of
   the run. Within one daemon the median holds steady from start to end,
   while separate daemon processes differ by several percent (where
   their threads and domains land, how their heaps grow): a run pools
   several processes so its figures do not hang on one of them. *)
let rounds = 5

let run ~seed ~seconds ~alternate ~dir =
  let drained_ok = ref true in
  let stop_check d = drained_ok := stop d && !drained_ok in
  let spawns = ref 0 in
  let spawn_timed () =
    let d, dt = setup_once ~dir !spawns in
    incr spawns;
    (d, dt)
  in
  (* set-up samples: daemons stopped at once, taken before and during
     the load, then the load's own *)
  let take_setup, setup_only =
    Measure.setup_series (fun _ ->
        let d, dt = spawn_timed () in
        stop_check d;
        dt)
  in
  let m = ref None and stats = ref [] and rss = ref [] and load_setup = ref [] in
  let ops =
    Array.concat
      (List.init rounds (fun _ ->
           let d, dt = spawn_timed () in
           load_setup := dt :: !load_setup;
           let mix =
             match !m with
             | None ->
                 let mix = make_mix ~seed d in
                 warm mix;
                 m := Some mix;
                 mix
             | Some mix ->
                 attach mix d;
                 mix
           in
           let ops =
             Measure.loop ~every:(1.0, take_setup)
               ~seconds:(seconds /. float_of_int rounds)
               ~alternate (mix_op mix)
           in
           stats := server_stats mix :: !stats;
           rss := Util.peak_rss_mb (string_of_int d.pid) :: !rss;
           stop_check d;
           ops))
  in
  let m = Option.get !m in
  Serve.Client.close m.conn;
  List.iter
    (fun i -> if i >= 0 then ops.(i) <- { (ops.(i)) with Measure.ok = false })
    (deferred_failures m);
  let rss = List.map (Option.value ~default:Float.nan) !rss in
  let stats = List.rev !stats in
  {
    Measure.unit_name;
    setup = Array.append (setup_only ()) (Array.of_list (List.rev !load_setup));
    ops;
    peak_rss_mb = List.fold_left Float.max 0.0 rss;
    checks_ok = !drained_ok && List.for_all Option.is_some stats;
    details =
      [
        ("connections", Util.Int 1);
        ("daemons", Util.Int rounds);
        ("hot_burst_requests", Util.Int burst);
        ("deferred_checks", Util.Int (List.length m.pending));
        ("classes", class_json m);
        ("daemon_drained", Util.Bool !drained_ok);
        ("daemon_peak_rss_mb", Util.Arr (List.map (fun v -> Util.Num v) rss));
        ( "daemon_stats",
          Util.Arr
            (List.map (Option.fold ~none:Util.Null ~some:stats_json) stats) );
      ];
  }
