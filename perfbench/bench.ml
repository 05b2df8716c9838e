(* The repository benchmark (see README.md beside this file).

   One process runs one closed-loop workload: a fixed list of synthesis
   jobs, generated from --seed, is run one job at a time, pass after
   pass, until --seconds is spent. Every job's output is checked. The
   last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.

   The untraced run calls the library the way a user reaches it:
   [Synthesis.synthesize] then [Synthesis.validate], or [Strategy.run]
   for the Fig. 7 sweep. The traced run calls each layer's public entry
   point separately, inside spans kept by this file, and reads the
   library's existing telemetry counters and gauges. *)

module Gen = Ftes_workload.Gen
module Dsl = Ftes_dsl.Dsl
module Ftcpg = Ftes_ftcpg.Ftcpg
module Strategy = Ftes_optim.Strategy
module Tabu = Ftes_optim.Tabu
module Evalcache = Ftes_optim.Evalcache
module Portfolio = Ftes_optim.Portfolio
module Slack = Ftes_sched.Slack
module Conditional = Ftes_sched.Conditional
module Table = Ftes_sched.Table
module Sim = Ftes_sim.Sim
module Synthesis = Ftes_core.Synthesis
module Par = Ftes_util.Par
module Telemetry = Ftes_util.Telemetry

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Tables | Transparent | Explore | Race

type shape = { p : int; n : int; k : int; frozen : float }

type workload = {
  name : string;
  kind : kind;
  jobs : int;  (** Requested [Par] domains. *)
  ladder : shape list;  (** One job per entry, in run order. *)
}

let shape ?(frozen = 0.) p n k = { p; n; k; frozen }
let repeat times l = List.concat (List.init times (fun _ -> l))

(* Why each workload exists is documented in README.md. In short:
   [tables] is the `ftes synthesize --validate` path, dominated by the
   conditional scheduler's table merge; [transparent] reaches the same
   scheduler through frozen processes (synchronization nodes and the
   frozen-start fixpoint) and validates symbolically; [explore] is the
   estimator-only Fig. 7 sweep and never touches ftcpg/sched/sim;
   [race] is the only path through the strategy portfolio and the only
   one on the [Par] pool (at jobs 2, explore's spread between runs was
   three times that of the single-domain workloads). *)
let workloads =
  [
    {
      name = "tables";
      kind = Tables;
      jobs = 1;
      ladder =
        repeat 40 [ shape 20 3 2; shape 18 3 2 ];
    };
    {
      name = "transparent";
      kind = Transparent;
      jobs = 1;
      ladder =
        repeat 55 [ shape ~frozen:0.5 12 3 2; shape ~frozen:0.25 12 3 2 ];
    };
    {
      name = "explore";
      kind = Explore;
      jobs = 1;
      ladder = repeat 25 [ shape 26 3 3; shape 28 4 3 ];
    };
    {
      name = "race";
      kind = Race;
      jobs = 2;
      ladder = repeat 35 [ shape 14 3 2; shape 10 3 3 ];
    };
    (* Not part of BENCHMARK.json: the known no-tables defect. A fully
       transparent instance gets no schedule tables (too many scenario
       tracks), yet `ftes synthesize --validate` reports it as OK. The
       gate counts it as failed, so this workload exits non-zero. *)
    {
      name = "no-tables";
      kind = Transparent;
      jobs = 1;
      ladder = [ shape ~frozen:1. 30 4 5 ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: returns
   (value, percentile, samples beyond). Below eleven samples it is the
   maximum, with nothing beyond. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0., 0, 0)
  else if n <= 10 then (a.(n - 1), 100, 0)
  else (a.(n - 11), 100 * (n - 10) / n, 10)

let sum = List.fold_left ( +. ) 0.
let mean l = match l with [] -> 0. | _ -> sum l /. float_of_int (List.length l)

let geomean l =
  match l with
  | [] -> 0.
  | _ -> exp (sum (List.map log l) /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Set-up: inputs, DSL round trip, Par pool, expected outputs          *)
(* ------------------------------------------------------------------ *)

type job = { id : string; shape : shape; gen_seed : int; doc : Dsl.t }

type setup = {
  job_list : job list;
  expected : (string, (string * string) list) Hashtbl.t option;
  gen_s : float;
  dsl_s : float;
}

let parse_fields line =
  String.split_on_char ' ' line
  |> List.filter (fun s -> s <> "")
  |> List.map (fun tok ->
         match String.index_opt tok '=' with
         | Some i ->
             (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
         | None -> failwith ("malformed expected-output token " ^ tok))

let expected_path dir w = Filename.concat dir (w.name ^ ".txt")

(* The expected-output file is recorded for one seed (its first line);
   other seeds fall back to the seed-independent checks. *)
let load_expected dir w ~seed =
  let path = expected_path dir w in
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path (fun ic ->
        match In_channel.input_line ic with
        | Some header when header = Printf.sprintf "seed %d" seed ->
            let tbl = Hashtbl.create 64 in
            let rec loop () =
              match In_channel.input_line ic with
              | None -> ()
              | Some line -> (
                  match parse_fields line with
                  | ("job", id) :: fields ->
                      Hashtbl.replace tbl id fields;
                      loop ()
                  | _ -> failwith ("malformed expected-output line: " ^ line))
            in
            loop ();
            Some tbl
        | _ -> None)

let setup w ~seed ~expected_dir =
  let gen_s = ref 0. and dsl_s = ref 0. in
  let job_list =
    List.mapi
      (fun i shape ->
        let gen_seed = seed + (1000 * i) in
        let t0 = now () in
        let app, arch, wcet =
          Gen.instance
            {
              Gen.default with
              seed = gen_seed;
              processes = shape.p;
              nodes = shape.n;
              frozen_proc_prob = shape.frozen;
              frozen_msg_prob = shape.frozen;
            }
        in
        let t1 = now () in
        let generated = { Dsl.app; arch; wcet; k = shape.k } in
        let doc = Dsl.of_string (Dsl.to_string generated) in
        gen_s := !gen_s +. (t1 -. t0);
        dsl_s := !dsl_s +. (now () -. t1);
        if not (Dsl.equal doc generated) then
          failwith (Printf.sprintf "job %d: DSL round trip changed the instance" i);
        { id = Printf.sprintf "%s%02d" (String.sub w.name 0 2) i; shape; gen_seed; doc })
      w.ladder
  in
  (* Start the pool afresh, as a new `ftes` process would. *)
  Par.shutdown ();
  if w.jobs > 1 then ignore (Par.map ~jobs:w.jobs Fun.id (List.init w.jobs Fun.id));
  let expected = load_expected expected_dir w ~seed in
  { job_list; expected; gen_s = !gen_s; dsl_s = !dsl_s }

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

(* What a job hands to the correctness gate. *)
type raw =
  | R_tables of { synth : Synthesis.t; violations : Ftes_sim.Violation.t list }
  | R_explore of { outcomes : Strategy.outcome list; plain : Synthesis.t }
  | R_race of { synth : Synthesis.t; race : Portfolio.result option }

let inputs_of (d : Dsl.t) =
  { Strategy.app = d.Dsl.app; arch = d.Dsl.arch; wcet = d.Dsl.wcet; k = d.Dsl.k }

(* A fresh cache per job, as each `ftes` invocation creates one. *)
let tabu_opts ~jobs =
  {
    Synthesis.default_options.Synthesis.tabu with
    Tabu.cache = Some (Evalcache.create ());
    jobs;
  }

let validation_mode shape = if shape.frozen > 0. then `Symbolic else `Explicit
let fig7_strategies = Strategy.[ MXR; MX; MR; SFX ]

(* Fig. 7 trims MR's search on instances above 20 processes: it drags
   (k+1) copies of everything through each evaluation. *)
let strategy_opts (tabu : Tabu.options) shape name =
  if name = Strategy.MR && shape.p > 20 then
    { tabu with Tabu.iterations = 10; sample = 5 }
  else tabu

let portfolio_opts ~jobs (tabu : Tabu.options) =
  {
    Portfolio.default_options with
    Portfolio.jobs;
    deadline_s = None;
    exchange = false;
    cache = tabu.Tabu.cache;
  }

let synthesize ~options (d : Dsl.t) =
  Synthesis.synthesize ~options ~app:d.Dsl.app ~arch:d.Dsl.arch
    ~wcet:d.Dsl.wcet ~k:d.Dsl.k ()

(* The untraced job: the library as a user reaches it. *)
let run_job w job =
  match w.kind with
  | Tables | Transparent ->
      let options =
        {
          Synthesis.default_options with
          Synthesis.tabu = tabu_opts ~jobs:w.jobs;
          compute_fto = true;
        }
      in
      let synth = synthesize ~options job.doc in
      let violations =
        Synthesis.validate ~jobs:w.jobs ~mode:(validation_mode job.shape) synth
      in
      R_tables { synth; violations }
  | Explore ->
      let inputs = inputs_of job.doc in
      let tabu = tabu_opts ~jobs:w.jobs in
      let nft = Strategy.nft_length ~opts:tabu inputs in
      let outcomes =
        List.map
          (fun s -> Strategy.run ~opts:(strategy_opts tabu job.shape s) ~nft inputs s)
          fig7_strategies
      in
      let options =
        {
          Synthesis.default_options with
          Synthesis.tabu = tabu_opts ~jobs:w.jobs;
          conditional = false;
        }
      in
      R_explore { outcomes; plain = synthesize ~options job.doc }
  | Race ->
      let tabu = tabu_opts ~jobs:w.jobs in
      let options =
        {
          Synthesis.default_options with
          Synthesis.tabu;
          conditional = false;
          portfolio = Some (portfolio_opts ~jobs:w.jobs tabu);
        }
      in
      R_race { synth = synthesize ~options job.doc; race = None }

(* ------------------------------------------------------------------ *)
(* Traced jobs: the benchmark's own spans around each layer call       *)
(* ------------------------------------------------------------------ *)

type span = { job_id : string; name : string; t0 : float; t1 : float }

(* The spans of the job being traced, and those of the finished jobs;
   all are written out when the run ends. *)
let job_spans : span list ref = ref []
let spans : span list ref = ref []
let current_job = ref ""

let span name f =
  let t0 = now () in
  let r = f () in
  job_spans := { job_id = !current_job; name; t0; t1 = now () } :: !job_spans;
  r

let max_vertices = Synthesis.default_options.Synthesis.max_vertices

(* MXR as [Synthesis.synthesize] runs it on a fresh cache: the fault-free
   baseline, the search, then the estimate of the delivered design. *)
let traced_mxr ~jobs inputs =
  let tabu = tabu_opts ~jobs in
  let nft = span "optim.nft" (fun () -> Strategy.nft_length ~opts:tabu inputs) in
  let o =
    span "optim.search" (fun () -> Strategy.run ~opts:tabu ~nft inputs Strategy.MXR)
  in
  let problem = o.Strategy.problem in
  (nft, problem, span "slack.evaluate" (fun () -> Slack.evaluate problem))

let traced_job w job =
  match w.kind with
  | Tables | Transparent ->
      let nft, problem, estimate = traced_mxr ~jobs:w.jobs (inputs_of job.doc) in
      let ftcpg =
        span "ftcpg.build" (fun () ->
            match Ftcpg.build ~max_vertices problem with
            | f -> Some f
            | exception Ftcpg.Too_large _ -> None)
      in
      let table =
        Option.bind ftcpg (fun f ->
            span "sched.schedule" (fun () ->
                match Conditional.schedule ~jobs:w.jobs f with
                | t -> Some t
                | exception Conditional.Too_many_tracks _ -> None))
      in
      let violations =
        match table with
        | None -> []
        | Some t ->
            span "sim.validate" (fun () ->
                Sim.validate ~jobs:w.jobs ~mode:(validation_mode job.shape) t)
      in
      let fto = Some (Slack.fto ~ft_length:estimate.Slack.length ~nft_length:nft) in
      R_tables
        { synth = { Synthesis.problem; estimate; ftcpg; table; fto }; violations }
  | Explore ->
      let inputs = inputs_of job.doc in
      let tabu = tabu_opts ~jobs:w.jobs in
      let nft = span "optim.nft" (fun () -> Strategy.nft_length ~opts:tabu inputs) in
      let outcomes =
        List.map
          (fun s ->
            span "optim.search" (fun () ->
                Strategy.run ~opts:(strategy_opts tabu job.shape s) ~nft inputs s))
          fig7_strategies
      in
      (* The plain synthesize throws its baseline away. *)
      let _, problem, estimate = traced_mxr ~jobs:w.jobs inputs in
      let plain = { Synthesis.problem; estimate; ftcpg = None; table = None; fto = None } in
      R_explore { outcomes; plain }
  | Race ->
      let inputs = inputs_of job.doc in
      let tabu = tabu_opts ~jobs:w.jobs in
      (* Exactly the race [Synthesis.synthesize] runs for a portfolio. *)
      let members =
        Portfolio.default_members ~seed:tabu.Tabu.seed ~sample:tabu.Tabu.sample
          ~checkpointing:false ()
      in
      let opts = { (portfolio_opts ~jobs:w.jobs tabu) with Portfolio.tabu } in
      let r = span "portfolio.race" (fun () -> Portfolio.run ~opts ~members inputs) in
      let problem = r.Portfolio.winner.Portfolio.problem in
      let estimate = span "slack.evaluate" (fun () -> Slack.evaluate problem) in
      let fto =
        Some (Slack.fto ~ft_length:estimate.Slack.length ~nft_length:r.Portfolio.nft)
      in
      R_race
        {
          synth = { Synthesis.problem; estimate; ftcpg = None; table = None; fto };
          race = Some r;
        }

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  fields : (string * string) list;  (** Compared with the expected file. *)
  lengths : float list;  (** Delivered worst-case lengths. *)
  ftos : float list;
  entries : int option;
  failure : string option;
}

let md5 s = Digest.to_hex (Digest.string s)
let design_digest p = md5 (Evalcache.signature p)
let fl = Printf.sprintf "%.17g"

let verdict = function
  | [] -> "clean"
  | vs -> Printf.sprintf "%d-violations" (List.length vs)

(* [explicit] re-validates a symbolically validated table with the
   exhaustive backend; the gate requires the same verdict. *)
let outcome_of ~explicit = function
  | R_tables { synth; violations } -> (
      let fto = Option.get synth.Synthesis.fto in
      match synth.Synthesis.table with
      | None ->
          let reason =
            if synth.Synthesis.ftcpg = None then "FT-CPG over the expansion budget"
            else "too many scenario tracks"
          in
          {
            fields = [ ("tables", "none") ];
            lengths = [ synth.Synthesis.estimate.Slack.length ];
            ftos = [ fto ];
            entries = None;
            failure = Some ("no schedule tables: " ^ reason);
          }
      | Some table ->
          let length = Table.schedule_length table in
          let entries = Table.entry_count table in
          let v = verdict violations in
          let failure =
            if violations <> [] then Some ("validation verdict " ^ v)
            else if explicit then
              let ev = verdict (Sim.validate ~jobs:1 ~mode:`Explicit table) in
              if ev <> v then
                Some (Printf.sprintf "symbolic verdict %s but explicit %s" v ev)
              else None
            else None
          in
          {
            fields =
              [
                ("digest", md5 (Format.asprintf "%a" Table.pp table));
                ("entries", string_of_int entries);
                ("length", fl length);
                ("verdict", v);
                ("fto", fl fto);
              ];
            lengths = [ length ];
            ftos = [ fto ];
            entries = Some entries;
            failure;
          })
  | R_explore { outcomes; plain } ->
      let per o =
        let s = Strategy.name_to_string o.Strategy.name in
        [
          (s ^ ".length", fl o.Strategy.length);
          (s ^ ".fto", fl o.Strategy.fto);
          (s ^ ".design", design_digest o.Strategy.problem);
        ]
      in
      let mxr = List.hd outcomes in
      let plain_design = design_digest plain.Synthesis.problem in
      let failure =
        if plain_design <> design_digest mxr.Strategy.problem then
          Some "plain synthesize did not deliver the MXR design"
        else if plain.Synthesis.estimate.Slack.length <> mxr.Strategy.length then
          Some "plain synthesize estimate differs from the MXR length"
        else None
      in
      {
        fields = List.concat_map per outcomes @ [ ("plain.design", plain_design) ];
        lengths = List.map (fun o -> o.Strategy.length) outcomes;
        ftos = List.map (fun o -> o.Strategy.fto) outcomes;
        entries = None;
        failure;
      }
  | R_race { synth; race } ->
      let length = synth.Synthesis.estimate.Slack.length in
      let fto = Option.get synth.Synthesis.fto in
      let base =
        [
          ("design", design_digest synth.Synthesis.problem);
          ("length", fl length);
          ("fto", fl fto);
        ]
      in
      let extra, failure =
        match race with
        | None -> ([], None)
        | Some r ->
            let w = r.Portfolio.winner in
            let members =
              List.map
                (fun (m : Portfolio.member_outcome) ->
                  m.Portfolio.member.Portfolio.label ^ ":" ^ fl m.Portfolio.length)
                r.Portfolio.members
            in
            let best =
              List.fold_left
                (fun acc (m : Portfolio.member_outcome) -> Float.min acc m.Portfolio.length)
                infinity r.Portfolio.members
            in
            let failure =
              if w.Portfolio.length > best +. 1e-9 then
                Some "race winner does not match-or-beat the best member"
              else if w.Portfolio.length <> length then
                Some "race winner length differs from the delivered estimate"
              else None
            in
            ( [
                ("winner", w.Portfolio.member.Portfolio.label);
                ("members", String.concat "," members);
              ],
              failure )
      in
      { fields = base @ extra; lengths = [ length ]; ftos = [ fto ]; entries = None;
        failure }

(* Fields that two outputs of one job both carry must agree; with
   [complete], [b] must also carry every field of [a]. *)
let mismatch ?(complete = false) ~what a b =
  List.find_map
    (fun (key, v) ->
      match List.assoc_opt key b with
      | Some v' when v' <> v ->
          Some (Printf.sprintf "%s: %s is %s, expected %s" what key v v')
      | None when complete -> Some (Printf.sprintf "%s: no %s recorded" what key)
      | _ -> None)
    a

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type sample = { job : job; wall : float; cpu : float; rss : float; out : outcome }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let g = Gc.quick_stat () in
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let g' = Gc.quick_stat () in
  ( r,
    wall,
    cpu,
    g'.Gc.minor_words -. g.Gc.minor_words,
    float_of_int (g'.Gc.major_collections - g.Gc.major_collections) )

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        | Some _ -> loop ()
      in
      loop ())

(* Linux resets the peak resident set size (VmHWM) to the current one
   when "5" is written to clear_refs, so each job's peak is its own. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Per-layer accumulators, summed over the traced jobs. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let add key v = Hashtbl.replace acc key (v +. Option.value ~default:0. (Hashtbl.find_opt acc key))
let get key = Option.value ~default:0. (Hashtbl.find_opt acc key)

let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name (Telemetry.counters ())))
let gauge name = Option.value ~default:0. (List.assoc_opt name (Telemetry.gauges ()))

(* Total duration of one of the library's own spans: the LNS member of
   the race reaches the scheduler through its diagnostics probe, which
   the benchmark cannot wrap from outside. *)
let library_span_s name =
  List.fold_left
    (fun total (_, events) ->
      let open_ = Hashtbl.create 16 in
      List.fold_left
        (fun total -> function
          | Telemetry.Begin { id; name = n; ts; _ } when n = name ->
              Hashtbl.replace open_ id ts;
              total
          | Telemetry.End { id; ts } -> (
              match Hashtbl.find_opt open_ id with
              | Some t0 -> total +. (ts -. t0)
              | None -> total)
          | Telemetry.Begin _ -> total)
        total events)
    0. (Telemetry.dump ())

(* Mean time of one [Slack.evaluate] on a delivered design, timed from
   outside with enough repetitions to rise above clock resolution. *)
let evaluate_us problem =
  let t0 = now () in
  let rec loop n =
    ignore (Slack.evaluate problem);
    if n < 3 || now () -. t0 < 0.01 then loop (n + 1) else n + 1
  in
  let n = loop 0 in
  (now () -. t0) /. float_of_int n *. 1e6

let layer_names =
  [ "optim.nft"; "optim.search"; "slack.evaluate"; "ftcpg.build"; "sched.schedule";
    "sim.validate"; "portfolio.race" ]

(* One traced job: counters and gauges from the library's telemetry,
   times from this file's spans. *)
let trace_job w job ~untraced_wall =
  current_job := job.id;
  job_spans := [];
  Telemetry.reset ();
  Telemetry.enable ();
  let t0 = now () in
  let raw =
    Fun.protect ~finally:Telemetry.disable (fun () -> span "job" (fun () -> traced_job w job))
  in
  let wall = now () -. t0 in
  spans := !job_spans @ !spans;
  let layer_s name =
    sum (List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !job_spans)
  in
  List.iter (fun n -> add n (layer_s n)) layer_names;
  add "jobs" 1.;
  add "job_wall" wall;
  add "untraced_wall" untraced_wall;
  add "attributed" (sum (List.map layer_s layer_names));
  List.iter
    (fun c -> add c (counter c))
    [ "tabu.moves_evaluated"; "tabu.improved"; "tabu.iterations"; "evalcache.hits";
      "evalcache.misses"; "sched.fix_iterations"; "sim.scenarios"; "sim.violations";
      "sim.symbolic.cubes" ];
  let designs =
    match raw with
    | R_tables { synth; _ } -> [ synth.Synthesis.problem ]
    | R_explore { outcomes; _ } -> List.map (fun o -> o.Strategy.problem) outcomes
    | R_race { synth; _ } -> [ synth.Synthesis.problem ]
  in
  List.iter (fun p -> add "slack.evaluate_us" (evaluate_us p); add "designs" 1.) designs;
  (match raw with
  | R_tables { synth; _ } -> (
      (match synth.Synthesis.ftcpg with
      | Some f ->
          add "ftcpg.vertices" (gauge "ftcpg.vertices");
          add "ftcpg.scenarios" (float_of_int (Ftcpg.scenario_count f))
      | None -> ());
      match synth.Synthesis.table with
      | Some t ->
          let len = Table.schedule_length t in
          add "table_jobs" 1.;
          add "sched.raw_entries" (gauge "sched.entries");
          add "sched.entries" (float_of_int (Table.entry_count t));
          add "sched.tracks" (gauge "sched.tracks");
          add "gap_pct" ((len -. synth.Synthesis.estimate.Slack.length) /. len *. 100.)
      | None -> ())
  | R_race { race = Some r; _ } ->
      (* The LNS probe is the race's only way into the scheduler and
         the validator. *)
      add "sched.schedule" (library_span_s "sched.conditional");
      add "sim.validate" (library_span_s "sim.validate");
      let members = r.Portfolio.members in
      let wall_of p =
        sum
          (List.filter_map
             (fun (m : Portfolio.member_outcome) ->
               if p m.Portfolio.member.Portfolio.engine then Some m.Portfolio.wall_s else None)
             members)
      in
      let is_lns = function Portfolio.Lns _ -> true | Portfolio.Strategy _ -> false in
      add "member_wall" (wall_of (fun _ -> true));
      add "lns_wall" (wall_of is_lns);
      if is_lns r.Portfolio.winner.Portfolio.member.Portfolio.engine then add "lns_wins" 1.;
      (match List.rev r.Portfolio.curve with
      | last :: _ -> add "final_incumbent" last.Ftes_optim.Incumbent.wall_s
      | [] -> ())
  | R_explore _ | R_race _ -> ());
  raw

type run = {
  samples : sample list;  (** Untraced job runs, in run order. *)
  failures : (string * string) list;  (** (job id, reason) *)
  minor_words : float;
  major_collections : float;
}

let run_workload w st ~seconds ~traced ~between_jobs =
  let samples = ref [] and failures = ref [] in
  let minor = ref 0. and major = ref 0. in
  let first_digest : (string, (string * string) list) Hashtbl.t = Hashtbl.create 64 in
  let fail job reason = failures := (job.id, reason) :: !failures in
  let check job ~first out =
    Option.iter (fail job) out.failure;
    (match Hashtbl.find_opt first_digest job.id with
    | None -> Hashtbl.replace first_digest job.id out.fields
    | Some f -> Option.iter (fail job) (mismatch ~what:"repeat" out.fields f));
    if first then
      Option.iter
        (fun tbl ->
          match Hashtbl.find_opt tbl job.id with
          | None -> fail job "no expected output recorded"
          | Some exp ->
              Option.iter (fail job) (mismatch ~complete:true ~what:"expected output" out.fields exp))
        st.expected
  in
  (* A job that raises counts as failed, with the exception as reason. *)
  let guarded f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let run_one ~first job =
    Gc.compact ();
    reset_peak_rss ();
    let raw, wall, cpu, mw, mc = timed (fun () -> guarded (fun () -> run_job w job)) in
    let rss = peak_rss_mb () in
    minor := !minor +. mw;
    major := !major +. mc;
    let out =
      match raw with
      | Ok raw -> outcome_of ~explicit:(first && validation_mode job.shape = `Symbolic) raw
      | Error e ->
          { fields = []; lengths = []; ftos = []; entries = None; failure = Some ("raised " ^ e) }
    in
    check job ~first out;
    samples := { job; wall; cpu; rss; out } :: !samples;
    if traced then begin
      Gc.compact ();
      match guarded (fun () -> trace_job w job ~untraced_wall:wall) with
      | Ok raw ->
          let out' = outcome_of ~explicit:false raw in
          Option.iter (fail job) (mismatch ~what:"traced run" out'.fields out.fields);
          check job ~first out'
      | Error e -> fail job ("traced run raised " ^ e)
    end
  in
  (* The first pass always completes, so every job has a sample; later
     passes run until the time is spent, possibly part-way. *)
  let t_start = now () in
  let rec go pass i = function
    | [] -> go (pass + 1) 0 st.job_list
    | job :: rest ->
        if pass = 1 || now () -. t_start < seconds then begin
          if pass = 1 then between_jobs i;
          run_one ~first:(pass = 1) job;
          go pass (i + 1) rest
        end
  in
  go 1 0 st.job_list;
  {
    samples = List.rev !samples;
    failures = List.rev !failures;
    minor_words = !minor;
    major_collections = !major;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let write_trace path =
  let events =
    List.rev_map
      (fun s ->
        Printf.sprintf
          {|{"name":%s,"cat":"perfbench","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"job":%s}}|}
          (json_string s.name) (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6) (json_string s.job_id))
      !spans
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc ("[\n" ^ String.concat ",\n" events ^ "\n]\n"))

let shape_json j =
  Printf.sprintf {|{"id":%s,"processes":%d,"nodes":%d,"k":%d,"frozen":%g,"gen_seed":%d}|}
    (json_string j.id) j.shape.p j.shape.n j.shape.k j.shape.frozen j.gen_seed

let usage =
  "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--expected DIR] [--trace-dir DIR] [--commit SHA] [--record]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let expected_dir = ref "perfbench/expected" and trace_dir = ref "perfbench/out" in
  let commit = ref "unknown" and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--expected", Arg.Set_string expected_dir, "DIR expected-output files");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where the traced run writes its spans");
      ("--commit", Arg.Set_string commit, "SHA commit recorded in the context line");
      ("--record", Arg.Set record, " write the expected-output file for --seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  let traced = !trace = 1 in
  let st = setup w ~seed:!seed ~expected_dir:!expected_dir in
  if !record then begin
    let path = expected_path !expected_dir w in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "seed %d\n" !seed;
        List.iter
          (fun job ->
            let out = outcome_of ~explicit:false (run_job w job) in
            let out' = outcome_of ~explicit:false (traced_job w job) in
            let fields =
              out.fields @ List.filter (fun (k, _) -> not (List.mem_assoc k out.fields)) out'.fields
            in
            Printf.fprintf oc "job=%s %s\n" job.id
              (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)))
          st.job_list);
    Printf.printf "wrote %s\n" path;
    exit 0
  end;
  (* Set-up is repeated and its median reported, so that work moved
     into it shows against its bound. The repetitions are spread over
     the first pass: a machine that is slow for a moment then skews one
     of them, not all. *)
  let setups = ref [] in
  let stride = max 1 (List.length st.job_list / 7) in
  let between_jobs i =
    if i mod stride = 0 then begin
      let t0 = now () in
      let s = setup w ~seed:!seed ~expected_dir:!expected_dir in
      setups := (s, now () -. t0) :: !setups
    end
  in
  let cores = Domain.recommended_domain_count () in
  let r = run_workload w st ~seconds:!seconds ~traced ~between_jobs in
  let setup_s = median (List.map snd !setups) in
  let pool = Par.pool_size () in
  let comparable = cores >= w.jobs in
  let n_jobs = List.length st.job_list in
  let attempted = List.length r.samples in
  let failed_ids = List.sort_uniq compare (List.map fst r.failures) in
  let failed =
    List.length (List.filter (fun s -> List.mem s.job.id failed_ids) r.samples)
  in
  let walls = List.map (fun s -> s.wall) r.samples in
  let per_job_median =
    List.map
      (fun j ->
        median (List.filter_map (fun s -> if s.job.id = j.id then Some s.wall else None) r.samples))
      st.job_list
  in
  let first_pass = List.filteri (fun i _ -> i < n_jobs) r.samples in
  Printf.printf "workload %s  seed %d  trace %d  jobs %d  runs %d (%.1f passes)\n" w.name !seed
    !trace n_jobs attempted (float_of_int attempted /. float_of_int n_jobs);
  Printf.printf
    "context {\"workload\":%s,\"seed\":%d,\"commit\":%s,\"cores\":%d,\"jobs_requested\":%d,\"pool_size\":%d,\"comparable\":%b,\"instances\":[%s]}\n"
    (json_string w.name) !seed (json_string !commit) cores w.jobs pool comparable
    (String.concat "," (List.map shape_json st.job_list));
  if not comparable then
    Printf.printf "NOT COMPARABLE: %d cores for %d requested jobs\n" cores w.jobs;
  List.iter2
    (fun s med ->
      Printf.printf "  job %s  p=%d n=%d k=%d frozen=%g  median %.4f s%s%s\n" s.job.id
        s.job.shape.p s.job.shape.n s.job.shape.k s.job.shape.frozen med
        (match s.out.lengths with l :: _ -> Printf.sprintf "  length %g" l | [] -> "")
        (match s.out.entries with Some e -> Printf.sprintf "  entries %d" e | None -> ""))
    first_pass per_job_median;
  List.iter (fun (id, why) -> Printf.printf "FAILED job %s: %s\n" id why) r.failures;
  let tail_v, tail_p, tail_beyond = tail walls in
  let entries = List.filter_map (fun s -> Option.map float_of_int s.out.entries) first_pass in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("jobs_per_s", float_of_int n_jobs /. sum per_job_median, "jobs/s");
      ("job_p50_s", median walls, "s");
      ("job_tail_s", tail_v, "s");
      ("cpu_per_job_s", sum (List.map (fun s -> s.cpu) r.samples) /. float_of_int attempted, "s");
      ("peak_rss_mb", median (List.map (fun s -> s.rss) r.samples), "MiB");
      ("length_geomean", geomean (List.concat_map (fun s -> s.out.lengths) first_pass), "tu");
      ("fto_mean_pct", mean (List.concat_map (fun s -> s.out.ftos) first_pass), "%");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "metric %-22s %14.6g %s\n" n v u) e2e;
  Printf.printf "  (job_tail_s is p%d: %d of %d jobs beyond it)\n" tail_p tail_beyond attempted;
  (match entries with
  | [] -> Printf.printf "metric %-22s %14s %s\n" "table_entries_geomean" "n/a" "entries"
  | _ -> Printf.printf "metric %-22s %14.6g %s\n" "table_entries_geomean" (geomean entries) "entries");
  Printf.printf "metric %-22s %14.6g %s\n" "fail_ratio"
    (float_of_int failed /. float_of_int attempted) "-";
  let metrics =
    if not traced then e2e
    else begin
      let jobs = get "jobs" and table_jobs = get "table_jobs" in
      let per_job k = ratio (get k) jobs and per_table k = ratio (get k) table_jobs in
      let optim_s = get "optim.nft" +. get "optim.search" +. get "portfolio.race" in
      let setup_med f = median (List.map (fun (s, _) -> f s) !setups) in
      write_trace
        (let dir = !trace_dir in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.name !seed));
      [
        ("workload.gen_s", setup_med (fun s -> s.gen_s), "s");
        ("dsl.parse_s", setup_med (fun s -> s.dsl_s), "s");
        ("optim.nft_s", per_job "optim.nft", "s");
        ("optim.search_s", per_job "optim.search", "s");
        ("optim.moves_evaluated", per_job "tabu.moves_evaluated", "count");
        ("optim.evals_per_s", ratio (get "tabu.moves_evaluated") optim_s, "1/s");
        ("optim.improve_ratio", ratio (get "tabu.improved") (get "tabu.iterations"), "ratio");
        ( "optim.cache_hit_ratio",
          ratio (get "evalcache.hits") (get "evalcache.hits" +. get "evalcache.misses"),
          "ratio" );
        ("slack.evaluate_us", ratio (get "slack.evaluate_us") (get "designs"), "us");
        ("slack.estimate_gap_pct", per_table "gap_pct", "%");
        ("portfolio.race_s", per_job "portfolio.race", "s");
        ("portfolio.member_wall_sum_s", per_job "member_wall", "s");
        ("portfolio.parallel_speedup", ratio (get "member_wall") (get "portfolio.race"), "ratio");
        ("portfolio.lns_wall_share", ratio (get "lns_wall") (get "member_wall"), "ratio");
        ( "portfolio.lns_win_ratio",
          (if w.kind = Race then per_job "lns_wins" else 0.),
          "ratio" );
        ("portfolio.final_incumbent_s", per_job "final_incumbent", "s");
        ("ftcpg.build_s", per_job "ftcpg.build", "s");
        ("ftcpg.vertices", per_table "ftcpg.vertices", "count");
        ("ftcpg.scenarios", per_table "ftcpg.scenarios", "count");
        ("sched.schedule_s", per_job "sched.schedule", "s");
        ("sched.raw_entries", per_table "sched.raw_entries", "count");
        ("sched.entries", per_table "sched.entries", "count");
        ("sched.merge_ratio", ratio (get "sched.raw_entries") (get "sched.entries"), "ratio");
        ("sched.raw_entries_per_s", ratio (get "sched.raw_entries") (get "sched.schedule"), "1/s");
        ("sched.tracks", per_table "sched.tracks", "count");
        ("sched.fix_iterations", per_job "sched.fix_iterations", "count");
        ("sim.validate_s", per_job "sim.validate", "s");
        ("sim.scenarios", per_job "sim.scenarios", "count");
        ("sim.scenarios_per_s", ratio (get "sim.scenarios") (get "sim.validate"), "1/s");
        ("sim.violations", per_job "sim.violations", "count");
        ("sim.symbolic_cubes", per_job "sim.symbolic.cubes", "count");
        ("gc.minor_words_per_job", r.minor_words /. float_of_int attempted, "words");
        ("gc.major_collections_per_job", r.major_collections /. float_of_int attempted, "count");
        ( "core.unattributed_pct",
          ratio (get "job_wall" -. get "attributed") (get "job_wall") *. 100.,
          "%" );
        ( "trace.overhead_pct",
          ratio (get "job_wall" -. get "untraced_wall") (get "untraced_wall") *. 100.,
          "%" );
      ]
    end
  in
  if traced then List.iter (fun (n, v, u) -> Printf.printf "layer  %-30s %14.6g %s\n" n v u) metrics;
  let correct = r.failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v)
              (json_string u))
          metrics));
  Par.shutdown ();
  exit (if correct then 0 else 1)
