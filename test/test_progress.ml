(* Tests for the progress stream and the trajectory store: emitting
   progress records to a sink must never steer the search
   (bit-identical trajectories with the stream on or off, for any jobs
   value), the NDJSON rendering must parse line by line with the
   expected payloads present, full rings must drop-and-count rather
   than block or crash, and the trajectory store must round-trip and
   flag synthetic regressions through [trend]. *)

module Telemetry = Ftes_util.Telemetry
module Tabu = Ftes_optim.Tabu
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module Synthesis = Ftes_core.Synthesis
module Manifest = Ftes_corpus.Manifest
module Trajectory = Ftes_corpus.Trajectory
module Par = Ftes_util.Par

(* Full design configuration as a comparable string (same idiom as
   test_evalcache.ml). *)
let config_string (p : Problem.t) =
  let g = Problem.graph p in
  String.concat ";"
    (List.init (Graph.process_count g) (fun pid ->
         Printf.sprintf "%d=%s@[%s]" pid
           (Format.asprintf "%a" Ftes_app.Policy.pp p.Problem.policies.(pid))
           (String.concat ","
              (List.map string_of_int
                 (Mapping.copies p.Problem.mapping ~pid)))))

let quick_opts =
  { Tabu.default_options with iterations = 30; sample = 8; jobs = 2 }

(* Every test leaves the process-wide switch off so suites stay
   independent of their execution order. *)
let recording f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable f

(* ------------------------------------------------------------------ *)
(* Determinism: progress records observe, they never steer              *)
(* ------------------------------------------------------------------ *)

(* The "on" runs enable telemetry and register a sink, so every
   progress record is rendered and delivered during the search. *)
let test_trajectory_identity () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~mixed_policies:false
          ~processes:10 ~nodes:3 ~k:2 ~seed ()
      in
      let run ~events ~jobs =
        if events then Telemetry.enable () else Telemetry.disable ();
        let sink = Telemetry.add_sink ignore in
        Fun.protect
          ~finally:(fun () ->
            Telemetry.remove_sink sink;
            Telemetry.disable ())
          (fun () ->
            let b, l = Tabu.optimize { quick_opts with jobs } p in
            (l, config_string b))
      in
      let ref_len, ref_cfg = run ~events:false ~jobs:1 in
      List.iter
        (fun (events, jobs) ->
          let l, c = run ~events ~jobs in
          Helpers.check_float
            (Printf.sprintf "seed %d events=%b jobs=%d: length" seed events
               jobs)
            ref_len l;
          Alcotest.(check string)
            (Printf.sprintf "seed %d events=%b jobs=%d: config" seed events
               jobs)
            ref_cfg c)
        [ (true, 1); (true, 4); (false, 4) ])
    [ 3; 11 ]

(* ------------------------------------------------------------------ *)
(* Progress stream: NDJSON well-formed, expected payloads              *)
(* ------------------------------------------------------------------ *)

(* Run [f] with telemetry enabled and a collecting sink; return the
   delivered progress records in delivery order. *)
let collect f =
  let acc = ref [] in
  recording (fun () ->
      let id = Telemetry.add_sink (fun e -> acc := e :: !acc) in
      Fun.protect
        ~finally:(fun () ->
          Telemetry.drain ();
          Telemetry.remove_sink id)
        f);
  List.rev !acc

let is_incumbent (e : Telemetry.progress) =
  match e.Telemetry.payload with Telemetry.Incumbent _ -> true | _ -> false

let validation_backend (e : Telemetry.progress) =
  match e.Telemetry.payload with
  | Telemetry.Validation_progress { backend; _ } -> Some backend
  | _ -> None

let synthesize_and_validate ~jobs () =
  let app, arch, wcet =
    Ftes_workload.Gen.instance
      { Ftes_workload.Gen.default with processes = 6; nodes = 2; seed = 5 }
  in
  let options =
    { Synthesis.default_options with tabu = { quick_opts with jobs } }
  in
  let result = Synthesis.synthesize ~options ~app ~arch ~wcet ~k:2 () in
  ignore (Synthesis.validate ~jobs result)

let test_ndjson_well_formed () =
  List.iter
    (fun jobs ->
      let events = collect (synthesize_and_validate ~jobs) in
      let ctx s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check bool) (ctx "records delivered") true (events <> []);
      (* Delivery order is ticket order. *)
      ignore
        (List.fold_left
           (fun prev (e : Telemetry.progress) ->
             Alcotest.(check bool)
               (ctx "seq strictly increases") true
               (e.Telemetry.seq > prev);
             e.Telemetry.seq)
           (-1) events);
      let count p = List.length (List.filter p events) in
      Alcotest.(check bool)
        (ctx "at least one incumbent") true
        (count is_incumbent >= 1);
      Alcotest.(check bool)
        (ctx "at least one explicit validation-progress") true
        (count (fun e -> validation_backend e = Some "explicit") >= 1);
      let starts =
        count (fun e ->
            match e.Telemetry.payload with
            | Telemetry.Phase_start _ -> true
            | _ -> false)
      and finishes =
        count (fun e ->
            match e.Telemetry.payload with
            | Telemetry.Phase_finish _ -> true
            | _ -> false)
      in
      Alcotest.(check int) (ctx "every phase closes") starts finishes;
      Alcotest.(check bool) (ctx "phases recorded") true (starts >= 1);
      (* Every rendered line is one complete JSON object carrying the
         envelope fields plus a type tag. *)
      List.iter
        (fun e ->
          let line = Telemetry.progress_to_json e in
          match Manifest.json_of_string line with
          | Error m ->
              Alcotest.fail
                (ctx (Printf.sprintf "unparseable line %S: %s" line m))
          | Ok (Manifest.Jobj fields) ->
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (ctx (Printf.sprintf "field %S present" k))
                    true
                    (List.mem_assoc k fields))
                [ "seq"; "t"; "dom"; "type" ]
          | Ok _ ->
              Alcotest.fail
                (ctx (Printf.sprintf "line is not an object: %S" line)))
        events)
    [ 1; 4 ]

let test_symbolic_progress_events () =
  let table =
    Ftes_sched.Conditional.schedule
      (Ftes_ftcpg.Ftcpg.build (Helpers.fig5_problem ()))
  in
  let events =
    collect (fun () ->
        ignore (Ftes_sim.Sim.validate ~jobs:1 ~mode:`Symbolic table))
  in
  Alcotest.(check bool) "symbolic validation-progress emitted" true
    (List.exists (fun e -> validation_backend e = Some "symbolic") events)

let test_corpus_outcome_events () =
  let instances =
    match Ftes_corpus.Registry.all () with
    | a :: b :: c :: _ -> [ a; b; c ]
    | l -> l
  in
  let events =
    collect (fun () -> ignore (Ftes_corpus.Runner.run ~jobs:2 instances))
  in
  let outcomes =
    List.filter_map
      (fun (e : Telemetry.progress) ->
        match e.Telemetry.payload with
        | Telemetry.Corpus_outcome { id; _ } -> Some id
        | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "one corpus-outcome per instance, in input order"
    (List.map (fun i -> i.Ftes_corpus.Instance.id) instances)
    outcomes

(* ------------------------------------------------------------------ *)
(* Bounded rings: overflow drops and counts, never blocks or crashes    *)
(* ------------------------------------------------------------------ *)

(* A pool worker never drains, so a worker that emits more than its
   ring holds during one fan-out must drop. Every emission is either
   delivered or counted, the ring fills exactly (the worker's own
   [par.worker] span included, its end slot reserved up front), and the
   next drain frees it. *)
let test_bounded_ring_drops () =
  let emitted = Telemetry.ring_capacity + 100 in
  let seen = ref 0 in
  recording (fun () ->
      let id = Telemetry.add_sink (fun _ -> incr seen) in
      Fun.protect
        ~finally:(fun () -> Telemetry.remove_sink id)
        (fun () ->
          (* Two tasks, so the batch really goes to the pool; only the
             first one emits. *)
          let dom =
            Par.map_live ~jobs:2 ~poll:ignore
              (fun flood ->
                if flood then
                  for i = 1 to emitted do
                    Telemetry.emit
                      (Telemetry.Phase_start { phase = string_of_int i })
                  done;
                (Domain.self () :> int))
              [ true; false ]
            |> List.hd
          in
          let dropped = Telemetry.dropped () in
          Alcotest.(check bool) "overflow counted, not blocked" true
            (dropped > 0);
          let worker_spans =
            List.length (List.assoc dom (Telemetry.dump ()))
          in
          Alcotest.(check int) "worker span balanced" 2 worker_spans;
          Alcotest.(check int) "every emission delivered or counted" emitted
            (!seen + dropped);
          Alcotest.(check int) "exactly the ring delivered"
            Telemetry.ring_capacity (!seen + worker_spans);
          (* The drain freed the ring: emission resumes without drops. *)
          let before = !seen in
          Telemetry.emit (Telemetry.Phase_start { phase = "after" });
          Telemetry.drain ();
          Alcotest.(check int) "post-drain record delivered" (before + 1)
            !seen;
          Alcotest.(check int) "dropped unchanged" dropped
            (Telemetry.dropped ());
          Telemetry.reset ();
          Alcotest.(check int) "reset zeroes the counter" 0
            (Telemetry.dropped ())))

let test_disabled_is_silent () =
  Telemetry.reset ();
  Telemetry.disable ();
  let seen = ref 0 in
  let id = Telemetry.add_sink (fun _ -> incr seen) in
  Fun.protect
    ~finally:(fun () -> Telemetry.remove_sink id)
    (fun () ->
      Telemetry.emit (Telemetry.Phase_start { phase = "ghost" });
      let v = Telemetry.with_phase "ghost" (fun () -> 41 + 1) in
      Alcotest.(check int) "with_phase returns the thunk's value" 42 v;
      Telemetry.drain ();
      Alcotest.(check int) "nothing delivered" 0 !seen)

let test_with_phase_exception () =
  let events =
    collect (fun () ->
        match Telemetry.with_phase "doomed" (fun () -> failwith "expected") with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure m ->
            Alcotest.(check string) "exception re-raised" "expected" m)
  in
  let finishes =
    List.filter_map
      (fun (e : Telemetry.progress) ->
        match e.Telemetry.payload with
        | Telemetry.Phase_finish { phase; _ } -> Some phase
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "finish record delivered" [ "doomed" ]
    finishes

(* ------------------------------------------------------------------ *)
(* Trajectory store: round-trip, schema filtering, trend verdicts       *)
(* ------------------------------------------------------------------ *)

let entry ?(ok = true) ~commit ~id ~length ~wall_ms () =
  {
    Trajectory.commit;
    schema = Trajectory.schema_version;
    id;
    ok;
    length;
    wall_ms;
  }

let test_append_load_roundtrip () =
  let path = Filename.temp_file "ftes-traj" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sys.remove path;
      Alcotest.(check bool) "missing file is an empty history" true
        (Trajectory.load path = Ok []);
      let e1 =
        entry ~commit:"abc123" ~id:"odd \"id\"\\with\nescapes" ~length:12.5
          ~wall_ms:3.25 ()
      in
      let e2 = entry ~ok:false ~commit:"def456" ~id:"plain" ~length:0.
          ~wall_ms:1. ()
      in
      Trajectory.append path [ e1 ];
      Trajectory.append path [ e2 ];
      (match Trajectory.load path with
      | Ok [ a; b ] ->
          Alcotest.(check bool) "first entry round-trips" true (a = e1);
          Alcotest.(check bool) "second entry round-trips" true (b = e2)
      | Ok l ->
          Alcotest.fail (Printf.sprintf "expected 2 entries, got %d"
                           (List.length l))
      | Error m -> Alcotest.fail m);
      (* Entries from other schema versions stay on disk but are
         invisible to readers. *)
      Trajectory.append path [ { e1 with Trajectory.schema = 999 } ];
      (match Trajectory.load path with
      | Ok l ->
          Alcotest.(check int) "foreign schema dropped" 2 (List.length l)
      | Error m -> Alcotest.fail m);
      (* An unparseable line is an error naming its line number. *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "not json\n";
      close_out oc;
      match Trajectory.load path with
      | Ok _ -> Alcotest.fail "corrupt line accepted"
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names line 4" m)
            true
            (String.length m >= 7 && String.sub m 0 7 = "line 4:"))

let problems_of comparisons id =
  match List.find_opt (fun c -> c.Trajectory.cid = id) comparisons with
  | Some c -> c.Trajectory.problems
  | None -> Alcotest.fail (Printf.sprintf "no comparison for %S" id)

let has_problem comparisons id needle =
  List.exists
    (fun p ->
      let pl = String.length p and nl = String.length needle in
      let rec go i =
        i + nl <= pl && (String.sub p i nl = needle || go (i + 1))
      in
      go 0)
    (problems_of comparisons id)

let test_trend_clean_history () =
  let es =
    List.init 5 (fun i ->
        entry
          ~commit:(Printf.sprintf "c%d" i)
          ~id:"stable" ~length:100.
          ~wall_ms:(10. +. float_of_int i)
          ())
  in
  match Trajectory.trend es with
  | [ c ] ->
      Alcotest.(check (list string)) "no problems" [] c.Trajectory.problems;
      Alcotest.(check int) "window size" 5 c.Trajectory.runs
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 comparison, got %d" (List.length l))

let test_trend_flags_regressions () =
  let series ~id f = List.init 5 (fun i -> f i ~commit:(Printf.sprintf "c%d" i) ~id) in
  let es =
    series ~id:"slow" (fun i ~commit ~id ->
        entry ~commit ~id ~length:100.
          ~wall_ms:(if i = 4 then 30. else 10.) ())
    @ series ~id:"worse" (fun i ~commit ~id ->
          entry ~commit ~id
            ~length:(if i = 4 then 101. else 100.)
            ~wall_ms:10. ())
    @ series ~id:"broken" (fun i ~commit ~id ->
          entry ~ok:(i < 4) ~commit ~id ~length:100. ~wall_ms:10. ())
    @ series ~id:"fine" (fun _ ~commit ~id ->
          entry ~commit ~id ~length:100. ~wall_ms:10. ())
    @ series ~id:"jittery" (fun i ~commit ~id ->
          (* Sub-floor wall times swing by whole multiples without
             anything having regressed — the absolute floor mutes them. *)
          entry ~commit ~id ~length:100.
            ~wall_ms:(if i = 4 then 4. else 0.5) ())
  in
  let cs = Trajectory.trend es in
  Alcotest.(check bool) "wall-clock regression flagged" true
    (has_problem cs "slow" "runtime regression");
  Alcotest.(check bool) "quality regression flagged" true
    (has_problem cs "worse" "quality regression");
  Alcotest.(check bool) "failure flip flagged" true
    (has_problem cs "broken" "failed");
  Alcotest.(check (list string)) "clean instance stays clean" []
    (problems_of cs "fine");
  Alcotest.(check (list string)) "sub-floor jitter not flagged" []
    (problems_of cs "jittery")

let test_trend_window_and_singletons () =
  (* A historical best outside the window must not poison the baseline:
     the first five short/fast runs age out, the recent window is
     uniformly slower but internally flat — clean. *)
  let es =
    List.init 10 (fun i ->
        entry
          ~commit:(Printf.sprintf "c%d" i)
          ~id:"drifted"
          ~length:(if i < 5 then 50. else 100.)
          ~wall_ms:(if i < 5 then 1. else 10.)
          ())
    @ [ entry ~commit:"only" ~id:"singleton" ~length:1. ~wall_ms:1. () ]
  in
  let cs = Trajectory.trend es in
  Alcotest.(check (list string)) "aged-out best ignored" []
    (problems_of cs "drifted");
  Alcotest.(check bool) "single-run instances omitted" true
    (List.for_all (fun c -> c.Trajectory.cid <> "singleton") cs)

let () =
  Alcotest.run "progress"
    [
      ( "stream",
        [
          Alcotest.test_case "synthesize + validate NDJSON (jobs 1, 4)"
            `Quick test_ndjson_well_formed;
          Alcotest.test_case "symbolic validation emits progress" `Quick
            test_symbolic_progress_events;
          Alcotest.test_case "corpus runner emits one outcome per instance"
            `Quick test_corpus_outcome_events;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tabu: events x jobs matrix" `Slow
            test_trajectory_identity;
        ] );
      ( "bounded buffers",
        [
          Alcotest.test_case "full ring drops and counts" `Quick
            test_bounded_ring_drops;
          Alcotest.test_case "disabled emits nothing" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "exception closes phase" `Quick
            test_with_phase_exception;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "append/load round-trip + schema filter" `Quick
            test_append_load_roundtrip;
          Alcotest.test_case "clean history has no problems" `Quick
            test_trend_clean_history;
          Alcotest.test_case "regressions flagged per axis" `Quick
            test_trend_flags_regressions;
          Alcotest.test_case "window ages out, singletons omitted" `Quick
            test_trend_window_and_singletons;
        ] );
    ];
  Ftes_util.Par.shutdown ()
