(* Workload `htm`: one operation characterises a seeded ISF-VCO loop at
   n_harm = 20, where the paper's closed forms do not apply and the
   truncated harmonic transfer matrices must be evaluated:
   - Htm.conversion_sweep over a fixed 2400-point grid (Plan + grid_local);
   - Htm.to_matrix at 4 of those points (the per-point Smat path);
   - Analysis.closed_loop_metrics_htm (planned baseband grid, 800 points).
   It is the only workload that exercises lib/core. *)

let unit_name = "HTM frequency points"
let n_harm = 20
let grid_points = 2400
let metric_points = 800
let variants = 4
let sampled = [| 0; 800; 1600; 2399 |]

type variant = {
  pll : Pll_lib.Pll.t;
  ctx : Htm_core.Htm.ctx;
  cl : Htm_core.Htm.t;
  ws : float array;
}

(* A loop synthesized from a spec variant with its VCO replaced by one
   whose impulse sensitivity has seeded first and second harmonics. *)
let isf_pll st =
  let spec = Util.spec_variant st in
  let base = Pll_lib.Design.synthesize spec in
  let harmonics =
    [
      Numeric.Cx.of_float (Util.uniform st 0.1 0.3);
      Numeric.Cx.of_float (Util.uniform st 0.02 0.1);
    ]
  in
  let vco =
    Pll_lib.Vco.with_isf ~kvco:spec.Pll_lib.Design.kvco
      ~n_div:spec.Pll_lib.Design.n_div ~fref:spec.Pll_lib.Design.fref ~harmonics
  in
  Pll_lib.Pll.make ~fref:spec.Pll_lib.Design.fref
    ~n_div:spec.Pll_lib.Design.n_div ~filter:base.Pll_lib.Pll.filter ~vco ()

let variant_of ?(n_harm = n_harm) pll =
  let w0 = Pll_lib.Pll.omega0 pll in
  {
    pll;
    ctx = Htm_core.Htm.ctx ~n_harm ~omega0:w0;
    cl = Pll_lib.Pll.closed_loop_htm pll;
    ws = Numeric.Optimize.logspace (w0 *. 1e-3) (w0 *. 0.49) grid_points;
  }

let variants_of seed =
  let st = Util.rng seed 4 in
  Array.init variants (fun _ -> variant_of (isf_pll st))

type reference = {
  dense : Numeric.Cmat.t array;  (** Htm.to_matrix_dense at [sampled] *)
  metrics : Pll_lib.Analysis.closed_loop_metrics;  (** on a 1-domain pool *)
}

let references vs =
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      Array.map
        (fun v ->
          {
            dense =
              Array.map
                (fun k ->
                  Htm_core.Htm.to_matrix_dense v.ctx v.cl
                    (Numeric.Cx.jomega v.ws.(k)))
                sampled;
            metrics =
              Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm ~pool v.pll;
          })
        vs)

type output = {
  conversion : float array array array;
  matrices : Numeric.Cmat.t array;
  metrics : Pll_lib.Analysis.closed_loop_metrics;
}

let htm_op ?pool v =
  Util.timed (fun () ->
      let conversion =
        Trace.span "htm.conversion_sweep" (fun () ->
            Htm_core.Htm.conversion_sweep ?pool v.ctx v.cl v.ws)
      in
      let matrices =
        Array.map
          (fun k ->
            Trace.span "htm.to_matrix" (fun () ->
                Htm_core.Htm.to_matrix v.ctx v.cl (Numeric.Cx.jomega v.ws.(k))))
          sampled
      in
      let metrics =
        Trace.span "analysis.closed_loop_metrics_htm" (fun () ->
            Pll_lib.Analysis.closed_loop_metrics_htm ~n_harm ?pool v.pll)
      in
      { conversion; matrices; metrics })

let tol = 1e-9

(* Planned conversion maps and per-point matrices agree with the dense
   oracle within the golden tolerance; the planned metrics are
   bit-identical to the 1-domain reference. *)
let check (r : reference) (o : output) =
  let conv_ok j k =
    let d = r.dense.(j) and c = o.conversion.(k) in
    let n = Numeric.Cmat.rows d in
    Array.length c = n
    && Array.for_all Fun.id
         (Array.init n (fun a ->
              Array.for_all Fun.id
                (Array.init n (fun b ->
                     let want = Numeric.Cx.abs (Numeric.Cmat.get d a b) in
                     Float.abs (c.(a).(b) -. want)
                     <= tol *. Float.max 1.0 want))))
  in
  Array.for_all Fun.id
    (Array.mapi
       (fun j k ->
         Numeric.Cmat.equal ~tol r.dense.(j) o.matrices.(j) && conv_ok j k)
       sampled)
  && Util.bytes_equal r.metrics o.metrics

let units = grid_points + Array.length sampled + metric_points

(* Set-up: a pool of the default size, the ISF loop and its compiled
   closed-loop plan. *)
let setup_once st =
  let pool, dt =
    Util.timed (fun () ->
        let pool = Parallel.Pool.create () in
        let v = variant_of (isf_pll st) in
        ignore (Pll_lib.Pll.closed_loop_plan v.ctx v.pll);
        pool)
  in
  Parallel.Pool.shutdown pool;
  dt

let run ~seed ~seconds ~alternate ~dir:_ =
  let setup_st = Util.rng seed 40 in
  let take_setup, setup = Measure.setup_series (fun _ -> setup_once setup_st) in
  let vs = variants_of seed in
  let refs = references vs in
  let op i ~traced =
    let v = i mod variants in
    let out, dt = htm_op vs.(v) in
    { Measure.latency = dt; units; ok = check refs.(v) out; traced }
  in
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
        ("n_harm", Util.Int n_harm);
        ("grid_points", Util.Int grid_points);
        ("to_matrix_points", Util.Int (Array.length sampled));
        ("metric_points", Util.Int metric_points);
        ("isf_variants", Util.Int variants);
      ];
  }
