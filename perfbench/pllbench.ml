(* pllscope benchmark entry point.

     pllbench.exe --workload sweep|mc|serve|htm --seed N --seconds S --trace 0|1

   Runs one workload closed-loop for S seconds on inputs generated from
   the seed, checks every operation's output, and prints one JSON object
   as the last line of standard output:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   With --trace 0 the metrics are the end-to-end ones (setup_s,
   rate_per_s, p50_ms, tail_ms, peak_rss_mb). With --trace 1 every other
   operation runs traced and the metrics are the per-layer ladder of
   Ladder plus the traced run's own end-to-end figures and the in-run
   tracing overhead. A line of run metadata precedes the result, and the
   full record (tail percentile and sample count, set-up samples, span
   summary, daemon counters) is written to .perfbench/. *)

let usage () =
  prerr_endline
    "usage: pllbench.exe --workload sweep|mc|serve|htm --seed N --seconds S \
     --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> go { a with seed = n } rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest ->
        go { a with trace = String.equal t "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  go { workload = ""; seed = 0; seconds = 10.0; trace = false } argv

let workloads =
  [
    ("sweep", W_sweep.run);
    ("mc", W_mc.run);
    ("serve", W_serve.run);
    ("htm", W_htm.run);
  ]

let metric value unit_ = Util.Obj [ ("value", Util.Num value); ("unit", Util.Str unit_) ]

let e2e_metrics (r : Measure.result) (e : Measure.e2e) =
  [
    ("setup_s", metric (Util.median r.Measure.setup) "s");
    ("rate_per_s", metric e.Measure.rate_per_s "1/s");
    ("p50_ms", metric e.Measure.p50_ms "ms");
    ("tail_ms", metric e.Measure.tail.Util.value "ms");
    ("peak_rss_mb", metric r.Measure.peak_rss_mb "MB");
  ]

let tail_json (t : Util.tail) =
  Util.Obj
    [
      ("value_ms", Util.Num t.Util.value);
      ("percentile", Util.Num t.Util.percentile);
      ("samples_beyond", Util.Int t.Util.beyond);
      ("samples", Util.Int t.Util.samples);
    ]

let finite_metrics kv =
  List.for_all
    (fun (_, m) ->
      match m with
      | Util.Obj (("value", Util.Num v) :: _) -> Float.is_finite v
      | _ -> false)
    kv

let meta a ~dir =
  Util.Obj
    [
      ("workload", Util.Str a.workload);
      ("seed", Util.Int a.seed);
      ("seconds", Util.Num a.seconds);
      ("trace", Util.Bool a.trace);
      ("git_revision", Util.Str (Util.git_revision ()));
      ("nproc", Util.Int (Util.nproc ()));
      ("pool_domains", Util.Int (Parallel.Pool.default_domains ()));
      ("ocaml_version", Util.Str Sys.ocaml_version);
      ( "pllscope_env",
        Util.Arr (List.map (fun s -> Util.Str s) (Util.pllscope_env ())) );
      ("scratch_fs", Util.Str (Util.fs_type dir));
    ]

let bench a =
  let run =
    match List.assoc_opt a.workload workloads with
    | Some run -> run
    | None -> usage ()
  in
  let dir = Util.scratch_dir "load" in
  let meta = meta a ~dir in
  print_endline (Util.to_string (Util.Obj [ ("meta", meta) ]));
  let r = run ~seed:a.seed ~seconds:a.seconds ~alternate:a.trace ~dir in
  Util.remove_scratch ();
  let plain, traced = Measure.split_traced r in
  let e_plain = Measure.e2e_of plain in
  let metrics, ladder_ok =
    if not a.trace then (e2e_metrics r e_plain, true)
    else
      let e_traced = Measure.e2e_of traced in
      let layers, ladder_ok =
        Ladder.run ~seed:a.seed ~dir:(Util.scratch_dir "ladder")
      in
      Util.remove_scratch ();
      ( List.map (fun (name, v, u) -> (name, metric v u)) layers
        @ [
          ("traced.rate_per_s", metric e_traced.Measure.rate_per_s "1/s");
          ("traced.p50_ms", metric e_traced.Measure.p50_ms "ms");
          ( "trace.overhead_pct",
            metric
              (100.0
              *. (e_traced.Measure.p50_ms -. e_plain.Measure.p50_ms)
              /. e_plain.Measure.p50_ms)
              "%" );
        ],
        ladder_ok )
  in
  let attempted = Array.length r.Measure.ops in
  let failed =
    Array.fold_left (fun n o -> if o.Measure.ok then n else n + 1) 0 r.Measure.ops
  in
  let correct =
    failed = 0 && attempted > 0 && r.Measure.checks_ok && ladder_ok
    && finite_metrics metrics
  in
  let record =
    Util.Obj
      [
        ("meta", meta);
        ("correct", Util.Bool correct);
        ("attempted", Util.Int attempted);
        ("failed", Util.Int failed);
        ("rate_unit", Util.Str r.Measure.unit_name);
        ("setup_samples_s", Util.Arr (Array.to_list (Array.map (fun s -> Util.Num s) r.Measure.setup)));
        ("tail", tail_json e_plain.Measure.tail);
        ("p50_ms_by_fifth", Util.Arr (List.map (fun v -> Util.Num v) (Measure.p50_by_fifth plain)));
        ( "latencies_ms",
          Util.Arr
            (Array.to_list
               (Array.map (fun o -> Util.Num (o.Measure.latency *. 1e3)) r.Measure.ops)) );
        ("metrics", Util.Obj metrics);
        ("workload", Util.Obj r.Measure.details);
        ("spans", Util.Obj (Trace.summary ()));
      ]
  in
  let stem =
    Filename.concat Util.root
      (Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed
         (if a.trace then 1 else 0))
  in
  Runner.Atomic_file.write_string ~fsync:false (stem ^ ".json")
    (Util.to_string record ^ "\n");
  if a.trace then Trace.write_chrome (stem ^ ".trace.json");
  print_endline
    (Util.to_string
       (Util.Obj
          [
            ("correct", Util.Bool correct);
            ("attempted", Util.Int attempted);
            ("failed", Util.Int failed);
            ("metrics", Util.Obj metrics);
          ]))

(* Whatever ends the run — success, an exception, the watchdog — the
   daemons are killed and reaped and the scratch directories removed.
   Farm workers are reaped by the coordinator itself. *)
let cleanup () =
  W_serve.reap_all ();
  Util.remove_scratch ()

(* A run must end within three minutes whatever happens, and a run
   stopped by a signal still cleans up on its way out. *)
let watchdog seconds =
  List.iter
    (fun (signal, code) ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "pllbench: run exceeded its time limit";
         exit 3));
  ignore (Unix.alarm seconds)

let () =
  (* as the CLI does: a peer that goes away is an EPIPE error, not death *)
  Runner.Shutdown.ignore_sigpipe ();
  match Array.to_list Sys.argv with
  | _ :: "farm-worker" :: rss_path :: _ -> W_mc.worker rss_path
  | _ :: argv ->
      let a = parse_args argv in
      if String.equal a.workload "" then usage ();
      at_exit cleanup;
      watchdog 170;
      bench a
  | [] -> usage ()
