(* The per-layer ladder, reported by traced runs (--trace 1).

   Each row times or counts one public call of one layer, made directly
   from here on the workload's own seeded inputs. Rows run on a 1-domain
   pool wherever the call takes a pool, so a workload operation run on
   the same pool can be compared with the sum of its rows; the rest is
   reported as `<workload>.unaccounted_ms`. Calls that always use the
   default pool (Engine, the farm workers' own pools) run on it, and the
   daemon keeps its default configuration: the benchmark sets no knob.

   Every traced run reports every row, whatever its --workload, so the
   ladder depends only on the seed. *)

type row = string * float * string

let now = Util.now

(* Median over [rounds] of the mean wall time of one call, in seconds,
   after one untimed call. *)
let per_call ?(rounds = 5) ~reps f =
  ignore (f 0);
  Util.median
    (Array.init rounds (fun _ ->
         let t0 = now () in
         for i = 1 to reps do
           ignore (f i)
         done;
         (now () -. t0) /. float_of_int reps))

(* Median of single-call wall times over [n] calls, in seconds. *)
let median_call ~n f =
  ignore (f 0);
  Util.median (Array.init n (fun i -> snd (Util.timed (fun () -> f i))))

(* Bytes allocated by the calling domain per call. *)
let alloc_per_call ~reps f =
  ignore (f 0);
  let b0 = Gc.allocated_bytes () in
  for i = 1 to reps do
    ignore (f i)
  done;
  (Gc.allocated_bytes () -. b0) /. float_of_int reps

let ms s = s *. 1e3
let us s = s *. 1e6

(* ------------------------------------------------------------------ *)
(* sweep: the ratio point and its stages                               *)

let sweep_rows ~seed ~dir pool1 =
  let spec = (W_sweep.specs seed).(0) in
  let ratios = W_sweep.ratios in
  let n = Array.length ratios in
  let point i =
    Pll_lib.Analysis.ratio_sweep ~pool:pool1 spec [ ratios.(i mod n) ]
  in
  let ratio_point = per_call ~rounds:3 ~reps:n point in
  let ratio_alloc = alloc_per_call ~reps:n point in
  let plls =
    Array.map
      (fun r -> Pll_lib.Design.synthesize (Pll_lib.Design.with_ratio spec r))
      ratios
  in
  (* each stage: mean over the grid's loops, median of rounds *)
  let stage f = per_call ~rounds:3 ~reps:n (fun i -> f plls.(i mod n)) in
  let effective = stage (fun p -> Pll_lib.Analysis.effective_report p) in
  let closed_loop =
    stage (fun p -> Pll_lib.Analysis.closed_loop_metrics ~pool:pool1 p)
  in
  let lti = stage Pll_lib.Analysis.lti_report in
  let stable = stage Pll_lib.Analysis.is_stable_tv in
  let synth =
    per_call ~reps:(10 * n) (fun i ->
        Pll_lib.Design.synthesize (Pll_lib.Design.with_ratio spec ratios.(i mod n)))
  in
  (* the margin search of effective_report, replayed with a counting λ *)
  let margins_evals =
    Array.fold_left
      (fun total p ->
        let lam = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
        let w0 = Pll_lib.Pll.omega0 p in
        let count = ref 0 in
        let f w =
          incr count;
          lam (Numeric.Cx.jomega w)
        in
        ignore (Lti.Margins.analyze f ~lo:(w0 *. 1e-5) ~hi:(w0 *. 0.4999));
        total + !count)
      0 plls
  in
  let lambda_exact =
    let p = plls.(n / 4) in
    let lam = Pll_lib.Pll.lambda_fn p Pll_lib.Pll.Exact in
    let ws =
      Numeric.Optimize.logspace
        (Pll_lib.Pll.omega0 p *. 1e-4)
        (Pll_lib.Pll.omega0 p *. 0.49)
        1000
    in
    per_call ~reps:1000 (fun i -> lam (Numeric.Cx.jomega ws.(i mod 1000)))
  in
  (* one sweep operation on the 1-domain pool, and the journal rows *)
  let journal = Filename.concat dir "ladder.ckpt" in
  let codec = Runner.Run.marshal_codec () in
  let op_ms =
    median_call ~n:5 (fun _ ->
        let r =
          Runner.Run.grid ~pool:pool1 ~checkpoint:journal ~codec
            (fun r ->
              match Pll_lib.Analysis.ratio_sweep ~pool:pool1 spec [ r ] with
              | [ row ] -> row
              | _ -> invalid_arg "Ladder.sweep_rows: expected one row")
            ratios
        in
        Util.remove_tree journal;
        r)
  in
  let row = List.hd (point 0) in
  let encode = per_call ~reps:2000 (fun _ -> codec.Runner.Run.encode row) in
  let payload = codec.Runner.Run.encode row in
  let append =
    let j = Runner.Journal.open_append journal in
    let dt =
      per_call ~rounds:3 ~reps:n (fun i -> Runner.Journal.append j ~index:i payload)
    in
    Runner.Journal.close j;
    Util.remove_tree journal;
    dt
  in
  let unaccounted =
    ms op_ms -. (float_of_int n *. ms (ratio_point +. encode +. append))
  in
  ( [
      ("analysis.ratio_point_ms", ms ratio_point, "ms");
      ("analysis.ratio_point_alloc_mb", ratio_alloc /. 1048576.0, "MB");
      ("analysis.effective_report_ms", ms effective, "ms");
      ("analysis.closed_loop_metrics_ms", ms closed_loop, "ms");
      ("analysis.lti_report_ms", ms lti, "ms");
      ("analysis.is_stable_tv_ms", ms stable, "ms");
      ("design.synthesize_ms", ms synth, "ms");
      ("lti.margins_evals", float_of_int margins_evals, "count");
      ("pll.lambda_exact_us", us lambda_exact, "us");
      ("sweep.unaccounted_ms", unaccounted, "ms");
    ],
    spec )

(* ------------------------------------------------------------------ *)
(* mc: point, codec, journal, farm                                     *)

let mc_rows ~seed ~dir =
  let inputs = W_mc.inputs seed in
  let env =
    Experiments.Exp_nonideal.mc_env ~spec:inputs.W_mc.spec inputs.W_mc.cfg
  in
  let points = W_mc.points in
  let mc_point =
    per_call ~reps:points (fun i -> Experiments.Exp_nonideal.mc_point env i)
  in
  let codec = Runner.Run.marshal_codec () in
  let rows = Array.init points (Experiments.Exp_nonideal.mc_point env) in
  let encode = per_call ~reps:points (fun i -> codec.Runner.Run.encode rows.(i mod points)) in
  let payloads = Array.map codec.Runner.Run.encode rows in
  (* journals as the farm leaves them: one per shard, contiguous ranges *)
  let shards = Util.nproc () in
  let shard_path k = Filename.concat dir (Printf.sprintf "ladder.shard%d" k) in
  let write_shards () =
    let per = (points + shards - 1) / shards in
    let t0 = now () in
    for k = 0 to shards - 1 do
      let j = Runner.Journal.open_append (shard_path k) in
      for i = k * per to min points ((k + 1) * per) - 1 do
        Runner.Journal.append j ~index:i payloads.(i)
      done;
      Runner.Journal.close j
    done;
    now () -. t0
  in
  let shard_list = List.init shards shard_path in
  let merged = Filename.concat dir "ladder.merged" in
  let append_s = ref [] and merge_s = ref [] and replay_s = ref [] in
  let bytes = ref 0 in
  for _ = 1 to 3 do
    List.iter Util.remove_tree (merged :: shard_list);
    append_s := (write_shards () /. float_of_int points) :: !append_s;
    merge_s :=
      snd (Util.timed (fun () -> Runner.Journal.merge ~into:merged shard_list))
      :: !merge_s;
    replay_s := snd (Util.timed (fun () -> Runner.Journal.replay merged)) :: !replay_s;
    bytes := (Runner.Journal.inspect merged).Runner.Journal.bytes
  done;
  List.iter Util.remove_tree (merged :: shard_list);
  let med l = Util.median (Array.of_list l) in
  let append = med !append_s and merge = med !merge_s and replay = med !replay_s in
  let blob = W_mc.blob inputs in
  let farm shards =
    Array.init 3 (fun _ -> W_mc.farm_op ~dir ~shards ~blob ~n:points)
  in
  let full = farm shards in
  let mean f =
    Array.fold_left (fun s (r, _) -> s +. f r) 0.0 full
    /. float_of_int (Array.length full)
  in
  let one = farm 1 in
  let op1 = Util.median (Array.map snd one) in
  let unaccounted =
    ms op1
    -. (float_of_int points *. ms (mc_point +. encode +. append))
    -. ms merge -. ms replay
  in
  [
    ("experiments.mc_point_us", us mc_point, "us");
    ("runner.encode_us", us encode, "us");
    ("runner.append_us", us append, "us");
    ("runner.bytes_per_point", float_of_int (!bytes - 8) /. float_of_int points, "B");
    ("runner.merge_ms", ms merge, "ms");
    ("runner.replay_ms", ms replay, "ms");
    ( "farm.steals",
      mean (fun r -> float_of_int r.Farm.Coordinator.steals),
      "count" );
    ( "farm.assign_wait_s",
      mean (fun r -> r.Farm.Coordinator.assign_wait_seconds),
      "s" );
    ("mc.unaccounted_ms", unaccounted, "ms");
  ]

(* ------------------------------------------------------------------ *)
(* serve: socket floor, engine, wire, daemon counters                  *)

let serve_rows ~seed ~dir =
  let d = W_serve.spawn ~dir 0 in
  let m = W_serve.make_mix ~seed d in
  W_serve.warm m;
  let health =
    median_call ~n:300 (fun _ -> W_serve.request m.W_serve.conn Serve.Wire.Health)
  in
  (* a fixed-length slice of the workload's mix: 20 blocks *)
  for i = 0 to 399 do
    ignore (W_serve.mix_op m i ~traced:false)
  done;
  let cold =
    List.filter_map
      (fun (c, l) -> if c = W_serve.Cold then Some l else None)
      m.W_serve.by_class
    |> Array.of_list |> Util.median
  in
  let stats = W_serve.server_stats m in
  Serve.Client.close m.W_serve.conn;
  (* closed-loop cold analyses over one, then two connections *)
  let st = Util.rng seed 34 in
  let specs = Array.init 400 (fun _ -> Util.spec_variant st) in
  let drive lo hi =
    let c = W_serve.connect d in
    for i = lo to hi - 1 do
      ignore (W_serve.request c (Serve.Wire.Analyze specs.(i)))
    done;
    Serve.Client.close c
  in
  let rate1 = 200.0 /. snd (Util.timed (fun () -> drive 0 200)) in
  let rate2 =
    200.0
    /. snd
         (Util.timed (fun () ->
              let t = Thread.create (fun () -> drive 200 300) () in
              drive 300 400;
              Thread.join t))
  in
  let drained = W_serve.stop d in
  let cancel () = Parallel.Cancel.create () in
  let engine_analyze =
    median_call ~n:20 (fun i ->
        Serve.Engine.analyze ~cancel:(cancel ()) specs.(i))
  in
  let engine_bode =
    median_call ~n:20 (fun i ->
        Serve.Engine.bode ~cancel:(cancel ()) specs.(i)
          ~points:(W_serve.bode_points i))
  in
  let engine_sweep =
    median_call ~n:10 (fun i ->
        Serve.Engine.sweep ~cancel:(cancel ()) specs.(i) W_serve.sweep_ratios)
  in
  let result = Serve.Engine.analyze ~cancel:(cancel ()) specs.(0) in
  let wire_encode =
    per_call ~reps:2000 (fun _ ->
        Serve.Wire.marshal_response (Serve.Wire.R_analyze result))
  in
  let row = Serve.Engine.ratio_point specs.(0) 0.1 in
  let cell_codec =
    per_call ~reps:2000 (fun _ ->
        Serve.Wire.decode_cell (Serve.Wire.encode_cell (Ok row)))
  in
  (* a missing stats reply leaves the counters non-finite, which fails
     the run's correctness *)
  let counter f =
    Option.fold ~none:Float.nan ~some:(fun s -> float_of_int (f s)) stats
  in
  let hit_ratio hits misses =
    Option.fold ~none:Float.nan
      ~some:(fun s -> W_serve.ratio (hits s) (misses s))
      stats
  in
  let counters =
    Serve.Wire.
      [
        ( "lru.hit_ratio",
          hit_ratio (fun s -> s.cache_hits) (fun s -> s.cache_misses),
          "ratio" );
        ( "memo.hit_ratio",
          hit_ratio (fun s -> s.memo_hits) (fun s -> s.memo_misses),
          "ratio" );
        ("daemon.points_computed", counter (fun s -> s.points_computed), "count");
        ("daemon.chunks_sent", counter (fun s -> s.chunks_sent), "count");
        ("daemon.shed", counter (fun s -> s.shed), "count");
        ("daemon.request_errors", counter (fun s -> s.request_errors), "count");
      ]
  in
  (* a cold operation is two analyze requests *)
  let unaccounted =
    ms cold -. (2.0 *. (ms engine_analyze +. ms wire_encode +. ms health))
  in
  ( [
      ("serve.health_rtt_us", us health, "us");
      ("engine.analyze_ms", ms engine_analyze, "ms");
      ("engine.bode_ms", ms engine_bode, "ms");
      ("engine.sweep_ms", ms engine_sweep, "ms");
      ("wire.encode_us", us wire_encode, "us");
      ("wire.cell_codec_us", us cell_codec, "us");
    ]
    @ counters
    @ [
        ("serve.concurrency_gain", rate2 /. rate1, "ratio");
        ("serve.unaccounted_ms", unaccounted, "ms");
      ],
    drained && Option.is_some stats )

(* ------------------------------------------------------------------ *)
(* htm: plan compile, planned vs per-point evaluation                  *)

let htm_rows ~seed pool1 =
  let pll = W_htm.isf_pll (Util.rng seed 4) in
  let at n_harm = W_htm.variant_of ~n_harm pll in
  let probe = 32 in
  let per_point n_harm =
    let v = at n_harm in
    let step = Array.length v.W_htm.ws / probe in
    let ss = Array.init probe (fun i -> Numeric.Cx.jomega v.W_htm.ws.(i * step)) in
    let plan = Pll_lib.Pll.closed_loop_plan v.W_htm.ctx v.W_htm.pll in
    ( per_call ~rounds:3 ~reps:probe (fun i ->
          Htm_core.Plan.to_cmat plan ss.(i mod probe)),
      per_call ~rounds:3 ~reps:probe (fun i ->
          Htm_core.Htm.to_matrix v.W_htm.ctx v.W_htm.cl ss.(i mod probe)),
      alloc_per_call ~reps:probe (fun i ->
          Htm_core.Htm.to_matrix v.W_htm.ctx v.W_htm.cl ss.(i mod probe)) )
  in
  let e8, m8, _ = per_point 8 in
  let e20, m20, a20 = per_point 20 in
  let e80, m80, _ = per_point 80 in
  let v = at W_htm.n_harm in
  let make =
    per_call ~reps:200 (fun _ -> Pll_lib.Pll.closed_loop_plan v.W_htm.ctx pll)
  in
  let metrics =
    median_call ~n:5 (fun _ ->
        Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm:W_htm.n_harm ~pool:pool1
          pll)
  in
  let op = median_call ~n:5 (fun _ -> W_htm.htm_op ~pool:pool1 v) in
  (* the operation: a planned full-matrix grid, per-point matrices, and
     the planned baseband metrics *)
  let unaccounted =
    ms op
    -. (float_of_int W_htm.grid_points *. ms e20)
    -. (float_of_int (Array.length W_htm.sampled) *. ms m20)
    -. ms make -. ms metrics
  in
  [
    ("plan.make_us", us make, "us");
    ("plan.eval_us.n8", us e8, "us");
    ("plan.eval_us.n20", us e20, "us");
    ("plan.eval_us.n80", us e80, "us");
    ("htm.to_matrix_us.n8", us m8, "us");
    ("htm.to_matrix_us.n20", us m20, "us");
    ("htm.to_matrix_us.n80", us m80, "us");
    ("htm.to_matrix_alloc_kb.n20", a20 /. 1024.0, "KB");
    ("analysis.closed_loop_metrics_htm_ms", ms metrics, "ms");
    ("htm.unaccounted_ms", unaccounted, "ms");
  ]

(* Default-pool utilisation over a few sweep and htm operations: busy
   lane-seconds over wall lane-seconds. *)
let busy_ratio ~seed ~dir spec =
  let pool = Parallel.Pool.default () in
  let v = (W_htm.variants_of seed).(0) in
  let journal = Filename.concat dir "busy.ckpt" in
  Parallel.Pool.reset_stats pool;
  for _ = 1 to 3 do
    ignore (W_sweep.sweep_op ~journal ~traced:false spec);
    Util.remove_tree journal;
    ignore (W_htm.htm_op v)
  done;
  let s = Parallel.Pool.stats pool in
  Parallel.Pool.speedup s /. float_of_int s.Parallel.Pool.domains

(* [run ~seed ~dir] — every row, plus whether the daemon rows' own
   checks (a clean drain, a stats reply) held. *)
let run ~seed ~dir =
  Parallel.Pool.with_pool ~domains:1 (fun pool1 ->
      let sweep, spec = sweep_rows ~seed ~dir pool1 in
      let busy = busy_ratio ~seed ~dir spec in
      let mc = mc_rows ~seed ~dir in
      let serve, serve_ok = serve_rows ~seed ~dir in
      let htm = htm_rows ~seed pool1 in
      ( sweep @ [ ("parallel.busy_ratio", busy, "ratio") ] @ mc @ serve @ htm,
        serve_ok ))
