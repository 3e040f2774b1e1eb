(* Shared plumbing of the benchmark: clocks, order statistics, a small
   JSON printer, process introspection through /proc, run metadata and
   the seeded input generators every workload draws from. *)

let now = Unix.gettimeofday

(* [timed f] — [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* order statistics                                                    *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (type 7). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The tail percentile: the highest of a fixed ladder that still has at
   least ten samples beyond it. A fixed ladder keeps the reported
   percentile the same from run to run as long as the sample count stays
   inside one band, which each workload's operation size is chosen for.
   The ladder stops at p99: a p99.9 rung would put its band edge at
   10000 operations, which the serve load approaches. *)
let tail_ladder = [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = { value : float; percentile : float; beyond : int; samples : int }

let tail xs =
  let n = Array.length xs in
  let a = sorted xs in
  let pick p = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 in
  let p = Option.value ~default:50.0 (List.find_opt pick tail_ladder) in
  let value = quantile_sorted a (p /. 100.0) in
  let beyond = Array.fold_left (fun c x -> if x > value then c + 1 else c) 0 a in
  { value; percentile = p; beyond; samples = n }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Floats are printed with every digit (%.17g); non-finite values have no
   JSON spelling and become null. *)
let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* processes and files                                                 *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size (VmHWM) of [pid], in MiB; [None] once the
   process is gone. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)

let self_peak_rss_mb () = Option.value ~default:Float.nan (peak_rss_mb "self")

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Everything a run writes lives under [root] inside the working
   directory. Paths stay relative so Unix socket paths keep well under
   the 108-byte sun_path limit wherever the checkout sits. *)
let root = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Directories made by [scratch_dir], removed by [remove_scratch]. *)
let scratch_dirs : string list ref = ref []

(* [scratch_dir name] — a fresh directory for this process. *)
let scratch_dir name =
  ensure_dir root;
  let d =
    Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  remove_tree d;
  Unix.mkdir d 0o700;
  scratch_dirs := d :: !scratch_dirs;
  d

let remove_scratch () =
  List.iter remove_tree !scratch_dirs;
  scratch_dirs := []

(* Filesystem type holding [path], from the longest matching mount point
   in /proc/self/mountinfo. *)
let fs_type path =
  let abs =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
    else path
  in
  let prefix_of mp =
    String.equal mp "/"
    || String.equal abs mp
    || String.starts_with ~prefix:(mp ^ "/") abs
  in
  match read_file "/proc/self/mountinfo" with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun best line ->
             match String.split_on_char ' ' line with
             | _ :: _ :: _ :: _ :: mp :: rest when prefix_of mp -> (
                 let rec after_dash = function
                   | "-" :: fstype :: _ -> Some fstype
                   | _ :: tl -> after_dash tl
                   | [] -> None
                 in
                 match (after_dash rest, best) with
                 | Some fs, Some (bmp, _)
                   when String.length mp >= String.length bmp ->
                     Some (mp, fs)
                 | Some fs, None -> Some (mp, fs)
                 | _ -> best)
             | _ -> best)
           None
      |> Option.fold ~none:"unknown" ~some:snd

(* Git revision of the working directory, read from .git without running
   git; a source export without history reports "unknown". *)
let git_revision () =
  let git = ".git" in
  let trim = String.trim in
  match trim (read_file (Filename.concat git "HEAD")) with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat git ref_)) with
      | rev -> rev
      | exception Sys_error _ -> (
          match read_file (Filename.concat git "packed-refs") with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ rev; r ] when String.equal r ref_ -> Some rev
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | rev -> rev

let pllscope_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (String.starts_with ~prefix:"PLLSCOPE_")
  |> List.sort String.compare

let nproc () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* seeded inputs                                                       *)

let rng seed salt = Random.State.make [| seed; salt |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* A design spec near the default one. The perturbations are small so
   every variant costs about the same to analyse: the seed moves the
   inputs, not the amount of work. *)
let spec_variant st =
  let d = Pll_lib.Design.default_spec in
  {
    d with
    Pll_lib.Design.fref = d.Pll_lib.Design.fref *. uniform st 0.98 1.02;
    icp = d.Pll_lib.Design.icp *. uniform st 0.95 1.05;
    kvco = d.Pll_lib.Design.kvco *. uniform st 0.95 1.05;
    ratio = uniform st 0.09 0.11;
    phase_margin_deg = uniform st 52.0 58.0;
  }

(* [bytes_equal a b] — bit-exact structural equality of two values,
   floats included, through their [No_sharing] Marshal images. *)
let bytes_equal a b =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])
