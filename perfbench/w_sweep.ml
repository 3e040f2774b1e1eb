(* Workload `sweep`: one operation is a checkpointed Fig. 7 ratio sweep,
   the call `pllscope sweep --points 40 --checkpoint PATH` makes —
   Runner.Run.grid with the Marshal codec and a fresh journal over the
   single-ratio task shared by the CLI, the farm and the daemon, on the
   default pool. The ratio point (synthesis, margins, closed-form λ,
   nested pool sweeps) does almost all the work; the journal very
   little. *)

let unit_name = "ratio points"
let variants = 4
let points = 40

(* The CLI's --points grid: linearly spaced over [0.02, 0.5]. *)
let ratios =
  Array.init points (fun i ->
      0.02 +. ((0.5 -. 0.02) *. float_of_int i /. float_of_int (points - 1)))

let specs seed =
  let st = Util.rng seed 1 in
  Array.init variants (fun _ -> Util.spec_variant st)

(* Untimed reference rows on a 1-domain pool: the sweep's rows must be
   bit-identical to them at any pool size. *)
let references specs =
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      Array.map
        (fun spec ->
          Pll_lib.Analysis.ratio_sweep ~pool spec (Array.to_list ratios)
          |> List.map Option.some |> Array.of_list)
        specs)

let traced_codec () =
  let c = Runner.Run.marshal_codec () in
  {
    c with
    Runner.Run.encode = (fun v -> Trace.span "runner.encode" (fun () -> c.encode v));
  }

(* [sweep_op ~journal ~traced spec] — one timed operation; a traced one
   wraps the ratio-point task and the codec in spans. *)
let sweep_op ~journal ~traced spec =
  let task r = Serve.Engine.ratio_point spec r in
  let task, codec =
    if traced then
      ( (fun r -> Trace.span "analysis.ratio_point" (fun () -> task r)),
        traced_codec () )
    else (task, Runner.Run.marshal_codec ())
  in
  Util.timed (fun () ->
      Trace.span "sweep.op" (fun () ->
          Runner.Run.grid ~checkpoint:journal ~codec task ratios))

(* Set-up: what must exist before the first sweep can start — a pool
   of the default size and the variant's synthesized loop. *)
let setup_once spec =
  let pool, dt =
    Util.timed (fun () ->
        let pool = Parallel.Pool.create () in
        ignore (Pll_lib.Design.synthesize spec);
        pool)
  in
  Parallel.Pool.shutdown pool;
  dt

let run ~seed ~seconds ~alternate ~dir =
  let specs = specs seed in
  let take_setup, setup =
    Measure.setup_series (fun i -> setup_once specs.(i mod variants))
  in
  let refs = references specs in
  let journal = Filename.concat dir "sweep.ckpt" in
  let op i ~traced =
    let v = i mod variants in
    let partial, dt = sweep_op ~journal ~traced specs.(v) in
    let ok =
      partial.Parallel.Sweep.failures = []
      && Util.bytes_equal partial.Parallel.Sweep.values refs.(v)
    in
    Util.remove_tree journal;
    { Measure.latency = dt; units = points; ok; traced }
  in
  (* one untimed warm-up operation: pool start, lazy tables, page faults *)
  ignore (op 0 ~traced:false);
  let ops = Measure.loop ~every:(0.25, take_setup) ~seconds ~alternate op in
  {
    Measure.unit_name;
    setup = setup ();
    ops;
    peak_rss_mb = Util.self_peak_rss_mb ();
    checks_ok = true;
    details =
      [
        ("points_per_op", Util.Int points);
        ("spec_variants", Util.Int variants);
        ("pool_domains", Util.Int (Parallel.Pool.size (Parallel.Pool.default ())));
      ];
  }
