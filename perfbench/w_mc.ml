(* Workload `mc`: one operation is a sharded, checkpointed Monte Carlo
   run over Farm.Coordinator.run with one worker process per core — what
   `pllscope mc --shards N --checkpoint PATH` runs. Each point costs
   microseconds, so the Marshal codec, journal appends and merge, and the
   farm pipes do most of the work; there is no loop analysis at all.

   The benchmark binary is its own farm worker ({!worker}), resolving the
   same (spec, config) blob to the same task the CLI's worker does. *)

let unit_name = "Monte Carlo points"
let points = 24_000
let samples = 64

type inputs = {
  spec : Pll_lib.Design.spec;
  cfg : Experiments.Exp_nonideal.mc_config;
  sample_idx : int array;
}

let inputs seed =
  let st = Util.rng seed 2 in
  let spec = Util.spec_variant st in
  let cfg =
    {
      Experiments.Exp_nonideal.default_mc with
      mc_seed = Random.State.bits st;
    }
  in
  { spec; cfg; sample_idx = Array.init samples (fun _ -> Random.State.int st points) }

let blob i = Marshal.to_string (i.spec, i.cfg) []

(* [worker rss_path] — the farm-worker side: serve the protocol, then
   leave this process's peak RSS in [rss_path] for the coordinator. *)
let worker rss_path =
  Farm.Worker.serve
    ~resolve:(fun _shard blob ->
      let (spec, cfg) : Pll_lib.Design.spec * Experiments.Exp_nonideal.mc_config
          =
        Marshal.from_string blob 0
      in
      let env = Experiments.Exp_nonideal.mc_env ~spec cfg in
      fun i -> Marshal.to_string (Experiments.Exp_nonideal.mc_point env i) [])
    ();
  Out_channel.with_open_text rss_path (fun oc ->
      Printf.fprintf oc "%.17g\n" (Util.self_peak_rss_mb ()))

let rss_path dir k = Filename.concat dir (Printf.sprintf "worker%d.rss" k)

let farm_config ~dir ~shards ~blob ~base =
  {
    Farm.Coordinator.shards;
    steal = true;
    resume = false;
    checkpoint = base;
    blob;
    worker_argv =
      (fun k -> [| Sys.executable_name; "farm-worker"; rss_path dir k |]);
    slice = None;
    chunk = None;
    retries = None;
    task_timeout = None;
    progress = false;
  }

let workers_peak_rss dir shards =
  List.init shards (fun k ->
      match float_of_string (String.trim (Util.read_file (rss_path dir k))) with
      | v -> v
      | exception (Sys_error _ | Failure _) -> Float.nan)
  |> List.fold_left Float.max 0.0

(* [farm_op ~dir ~shards ~blob ~n] — one timed farm run over [n] points
   and a fresh base journal; the journals are removed afterwards, outside
   the timing. *)
let farm_op ~dir ~shards ~blob ~n =
  let base = Filename.concat dir "mc.journal" in
  let cfg = farm_config ~dir ~shards ~blob ~base in
  let report, dt =
    Util.timed (fun () ->
        Trace.span "farm.run" (fun () -> Farm.Coordinator.run cfg ~n))
  in
  Util.remove_tree base;
  List.iter Util.remove_tree (Farm.Coordinator.existing_shards base);
  (report, dt)

let check env inputs (r : Farm.Coordinator.report) =
  r.Farm.Coordinator.failures = []
  && r.Farm.Coordinator.total = points
  && r.Farm.Coordinator.merged_frames = points
  && Array.for_all Option.is_some r.Farm.Coordinator.payloads
  && Array.for_all
       (fun i ->
         match r.Farm.Coordinator.payloads.(i) with
         | Some p ->
             String.equal p
               (Marshal.to_string (Experiments.Exp_nonideal.mc_point env i) [])
         | None -> false)
       inputs.sample_idx

let run ~seed ~seconds ~alternate ~dir =
  let inputs = inputs seed in
  let shards = Util.nproc () in
  (* set-up: the nominal loop every point is drawn around, the task blob
     the workers resolve, and the farm brought up once — workers spawned,
     handshaken, one point each, merged *)
  let take_setup, setup =
    Measure.setup_series (fun _ ->
        snd
          (Util.timed (fun () ->
               ignore
                 (Experiments.Exp_nonideal.mc_env ~spec:inputs.spec inputs.cfg);
               ignore (farm_op ~dir ~shards ~blob:(blob inputs) ~n:shards))))
  in
  let env = Experiments.Exp_nonideal.mc_env ~spec:inputs.spec inputs.cfg in
  let blob = blob inputs in
  let worker_rss = ref 0.0 in
  let steals = ref 0 and waits = ref 0.0 in
  let op _ ~traced =
    let report, dt = farm_op ~dir ~shards ~blob ~n:points in
    worker_rss := Float.max !worker_rss (workers_peak_rss dir shards);
    steals := !steals + report.Farm.Coordinator.steals;
    waits := !waits +. report.Farm.Coordinator.assign_wait_seconds;
    { Measure.latency = dt; units = points; ok = check env inputs report; traced }
  in
  ignore (op 0 ~traced:false);
  steals := 0;
  waits := 0.0;
  let ops = Measure.loop ~every:(0.5, take_setup) ~seconds ~alternate op in
  let n = float_of_int (max 1 (Array.length ops)) in
  {
    Measure.unit_name;
    setup = setup ();
    ops;
    peak_rss_mb = Float.max (Util.self_peak_rss_mb ()) !worker_rss;
    checks_ok = true;
    details =
      [
        ("points_per_op", Util.Int points);
        ("shards", Util.Int shards);
        ("coordinator_peak_rss_mb", Util.Num (Util.self_peak_rss_mb ()));
        ("worker_peak_rss_mb", Util.Num !worker_rss);
        ("steals_per_op", Util.Num (float_of_int !steals /. n));
        ("assign_wait_s_per_op", Util.Num (!waits /. n));
      ];
  }
