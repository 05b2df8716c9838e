(* Tests for the textual instance format: parsing, printing,
   round-trips (including randomized ones) and error reporting. *)

module Dsl = Ftes_dsl.Dsl
module Gen = Ftes_workload.Gen
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Synthesis = Ftes_core.Synthesis

let sample =
  {|
# comment line
k 2
deadline 300
period 300
nodes 2
bus tdma slot 10 bandwidth 1

process P1 alpha 10 mu 10 chi 5
process P2 alpha 10 mu 10 chi 5 frozen
process P3 alpha 10 mu 10 chi 5 release 20 local-deadline 200

message m1 from P1 to P2 size 4
message m2 from P1 to P3 size 4 frozen

wcet P1 20 30
wcet P2 40 60
wcet P3 60 X
|}

let test_parse_sample () =
  let d = Dsl.of_string sample in
  Alcotest.(check int) "k" 2 d.Dsl.k;
  let g = d.Dsl.app.App.graph in
  Alcotest.(check int) "processes" 3 (Graph.process_count g);
  Alcotest.(check int) "messages" 2 (Graph.message_count g);
  Helpers.check_float "deadline" 300. d.Dsl.app.App.deadline;
  let p3 = Option.get (Graph.find_process g "P3") in
  Helpers.check_float "release" 20. (Graph.process g p3).Graph.release;
  Alcotest.(check (option (Helpers.approx ()))) "local deadline" (Some 200.)
    (Graph.process g p3).Graph.local_deadline;
  let p2 = Option.get (Graph.find_process g "P2") in
  Alcotest.(check bool) "P2 frozen" true
    (Ftes_app.Transparency.is_frozen_proc d.Dsl.app.App.transparency p2);
  Alcotest.(check bool) "m2 frozen" true
    (Ftes_app.Transparency.is_frozen_msg d.Dsl.app.App.transparency 1);
  (* Mapping restriction parsed. *)
  Alcotest.(check (option (Helpers.approx ()))) "P3 restricted" None
    (Ftes_arch.Wcet.get d.Dsl.wcet ~pid:p3 ~nid:1)

let test_round_trip_sample () =
  let d = Dsl.of_string sample in
  let d2 = Dsl.of_string (Dsl.to_string d) in
  Alcotest.(check bool) "round trip" true (Dsl.equal d d2)

let test_round_trip_fig5 () =
  let app = App.fig5 () in
  let arch, wcet = Ftes_arch.Examples.fig5 () in
  let d = { Dsl.app; arch; wcet; k = 2 } in
  Alcotest.(check bool) "round trip" true
    (Dsl.equal d (Dsl.of_string (Dsl.to_string d)))

let test_single_bus_round_trip () =
  let text =
    "k 1\nnodes 2\ndeadline 100\nperiod 100\nbus single bandwidth 2 setup 1\n\
     process A alpha 1 mu 1 chi 1\nprocess B alpha 1 mu 1 chi 1\n\
     message m from A to B size 4\nwcet A 10 10\nwcet B 10 10\n"
  in
  let d = Dsl.of_string text in
  Alcotest.(check bool) "single bus" false
    (Ftes_arch.Bus.is_tdma (Ftes_arch.Arch.bus d.Dsl.arch));
  Helpers.check_float "tx includes setup" 3.
    (Ftes_arch.Bus.tx_time (Ftes_arch.Arch.bus d.Dsl.arch) ~size:4.);
  Alcotest.(check bool) "round trip" true
    (Dsl.equal d (Dsl.of_string (Dsl.to_string d)))

let parse_error_line text =
  match Dsl.of_string text with
  | exception Dsl.Parse_error { line; _ } -> Some line
  | _ -> None

let test_parse_errors () =
  Alcotest.(check (option int)) "unknown directive on line 2" (Some 2)
    (parse_error_line "nodes 1\nbogus directive\n");
  Alcotest.(check (option int)) "bad number" (Some 1)
    (parse_error_line "k abc\n");
  Alcotest.(check (option int)) "missing nodes" (Some 0)
    (parse_error_line "process A\nwcet A 1\n");
  Alcotest.(check (option int)) "unknown process in message" (Some 0)
    (parse_error_line
       "nodes 1\nprocess A\nmessage m from A to Z size 1\nwcet A 1\n");
  Alcotest.(check (option int)) "wcet arity on its row" (Some 3)
    (parse_error_line "nodes 2\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "negative wcet on its row" (Some 4)
    (parse_error_line "nodes 1\nprocess A\n\nwcet A -5\n");
  Alcotest.(check (option int)) "non-finite number" (Some 2)
    (parse_error_line "nodes 1\nprocess A alpha nan\nwcet A 1\n");
  Alcotest.(check (option int)) "huge finite number on its line" (Some 2)
    (parse_error_line
       "nodes 1\nbus tdma slot 1e308 bandwidth 1\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "magnitude bound is inclusive" None
    (parse_error_line "nodes 1\nprocess A\nwcet A 1e15\n");
  Alcotest.(check (option int)) "negative k" (Some 1)
    (parse_error_line "k -1\nnodes 1\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "model constraint (deadline > period)"
    (Some 0)
    (parse_error_line
       "deadline 20\nperiod 10\nnodes 1\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "duplicate process" (Some 0)
    (parse_error_line "nodes 1\nprocess A\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "no processes" (Some 0)
    (parse_error_line "nodes 1\n")

let test_to_problem () =
  let d = Dsl.of_string sample in
  let p = Dsl.to_problem d in
  Alcotest.(check int) "k" 2 p.Ftes_ftcpg.Problem.k;
  (* Defaults to all-re-execution policies tolerating k. *)
  Array.iter
    (fun policy ->
      Alcotest.(check bool) "tolerates" true
        (Ftes_app.Policy.tolerates policy ~k:2))
    p.Ftes_ftcpg.Problem.policies

let test_defaults () =
  let d =
    Dsl.of_string "nodes 1\nprocess A alpha 1 mu 1 chi 1\nwcet A 5\n"
  in
  Alcotest.(check int) "default k" 1 d.Dsl.k;
  Alcotest.(check bool) "default bus is tdma" true
    (Ftes_arch.Bus.is_tdma (Ftes_arch.Arch.bus d.Dsl.arch))

let dsl_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, nodes, fp) ->
        Printf.sprintf "seed=%d n=%d nodes=%d frozen=%b" seed n nodes fp)
      QCheck.Gen.(
        quad (int_bound 10_000) (int_range 1 40) (int_range 1 6) bool)
  in
  [
    Helpers.qtest ~count:100 "random instances round-trip" arb
      (fun (seed, n, nodes, frozen) ->
        let spec =
          {
            Gen.default with
            processes = n;
            nodes;
            seed;
            frozen_proc_prob = (if frozen then 0.4 else 0.);
            frozen_msg_prob = (if frozen then 0.4 else 0.);
          }
        in
        let app, arch, wcet = Gen.instance spec in
        let d = { Dsl.app; arch; wcet; k = 1 + (seed mod 3) } in
        let d2 = Dsl.of_string (Dsl.to_string d) in
        Dsl.equal d d2);
    Helpers.qtest ~count:50 "printing is stable" arb
      (fun (seed, n, nodes, _) ->
        let spec = { Gen.default with processes = n; nodes; seed } in
        let app, arch, wcet = Gen.instance spec in
        let d = { Dsl.app; arch; wcet; k = 1 } in
        let s1 = Dsl.to_string d in
        let s2 = Dsl.to_string (Dsl.of_string s1) in
        s1 = s2);
  ]

(* ------------------------------------------------------------------ *)
(* Mutation fuzzing: damaged documents are rejected or synthesized     *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Truncate of int  (* keep this fraction of the text, in percent *)
  | Drop_line of int
  | Dup_line of int
  | Replace_number of int * string

let mutation_to_string = function
  | Truncate pct -> Printf.sprintf "truncate to %d%%" pct
  | Drop_line i -> Printf.sprintf "drop line %d" i
  | Dup_line i -> Printf.sprintf "duplicate line %d" i
  | Replace_number (i, v) -> Printf.sprintf "number %d := %s" i v

let is_number tok = Option.is_some (float_of_string_opt tok)

(* Positions are taken modulo what the document has, so every mutation
   applies to every document (each has at least its [k] number). *)
let mutate text m =
  let lines = String.split_on_char '\n' text in
  let nth i = i mod List.length lines in
  let join = String.concat "\n" in
  match m with
  | Truncate pct -> String.sub text 0 (String.length text * pct / 100)
  | Drop_line i -> join (List.filteri (fun j _ -> j <> nth i) lines)
  | Dup_line i ->
      join
        (List.concat
           (List.mapi (fun j l -> if j = nth i then [ l; l ] else [ l ]) lines))
  | Replace_number (i, v) ->
      let words = List.map (String.split_on_char ' ') lines in
      let target =
        i mod List.length (List.filter is_number (List.concat words))
      in
      let seen = ref (-1) in
      let swap tok =
        if is_number tok then incr seen;
        if is_number tok && !seen = target then v else tok
      in
      join (List.map (fun ws -> String.concat " " (List.map swap ws)) words)

let mutation_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun pct -> Truncate pct) (int_bound 99));
        (1, map (fun i -> Drop_line i) nat);
        (1, map (fun i -> Dup_line i) nat);
        ( 4,
          map2
            (fun i v -> Replace_number (i, v))
            nat
            (oneofl [ "-1"; "nan"; "inf"; "1e308" ]) );
      ])

let fuzz_options =
  {
    Synthesis.default_options with
    tabu =
      { Ftes_optim.Tabu.default_options with iterations = 8; sample = 4;
        jobs = 1 };
  }

(* Whatever the damage, the parser either accepts the document or
   reports it; an accepted one synthesizes and validates without
   raising. *)
let mutation_fuzz =
  let arb =
    QCheck.make
      ~print:(fun ((seed, n, nodes, k), m) ->
        Printf.sprintf "seed=%d n=%d nodes=%d k=%d, %s" seed n nodes k
          (mutation_to_string m))
      QCheck.Gen.(
        pair
          (quad (int_bound 10_000) (int_range 1 8) (int_range 1 3)
             (int_bound 2))
          mutation_gen)
  in
  Helpers.qtest ~count:1000 ~rand:(Random.State.make [| 2008 |])
    "mutated instances are rejected or synthesized" arb
    (fun ((seed, processes, nodes, k), m) ->
      let app, arch, wcet =
        Gen.instance
          { Gen.default with processes; nodes; seed; frozen_proc_prob = 0.2 }
      in
      let text = mutate (Dsl.to_string { Dsl.app; arch; wcet; k }) m in
      match Dsl.of_string text with
      | exception Dsl.Parse_error _ -> true
      | d ->
          let s =
            Synthesis.synthesize ~options:fuzz_options ~app:d.Dsl.app
              ~arch:d.Dsl.arch ~wcet:d.Dsl.wcet ~k:d.Dsl.k ()
          in
          ignore (Synthesis.validate ~jobs:1 s);
          true)

let test_load_save () =
  let d = Dsl.of_string sample in
  let path = Filename.temp_file "ftes_test" ".ftes" in
  Dsl.save path d;
  let d2 = Dsl.load path in
  Sys.remove path;
  Alcotest.(check bool) "load/save" true (Dsl.equal d d2)

let () =
  Alcotest.run "dsl"
    [
      ( "parse+print",
        [
          Alcotest.test_case "parse sample" `Quick test_parse_sample;
          Alcotest.test_case "round trip sample" `Quick test_round_trip_sample;
          Alcotest.test_case "round trip fig5" `Quick test_round_trip_fig5;
          Alcotest.test_case "single bus" `Quick test_single_bus_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "to_problem" `Quick test_to_problem;
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "load/save" `Quick test_load_save;
        ]
        @ dsl_props );
      ("mutation fuzz", [ mutation_fuzz ]);
    ]
