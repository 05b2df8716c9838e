(* Tests of the domain-pool parallel engine: ordered deterministic
   merge, exception propagation, nesting, and — the property the whole
   PR rests on — end-to-end determinism of the parallel validator and
   the parallel tabu search against their sequential code paths. *)

module Par = Ftes_util.Par
module Sim = Ftes_sim.Sim
module Tabu = Ftes_optim.Tabu
module Ftcpg = Ftes_ftcpg.Ftcpg
module Conditional = Ftes_sched.Conditional

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_map_ordered () =
  let xs = List.init 1000 Fun.id in
  let expected = List.map (fun x -> (x * 7) mod 13) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Par.map ~jobs (fun x -> (x * 7) mod 13) xs))
    [ 1; 2; 4; 7 ]

let test_concat_map_ordered () =
  let xs = List.init 200 Fun.id in
  let f x = List.init (x mod 4) (fun i -> (x, i)) in
  Alcotest.(check (list (pair int int)))
    "concat in input order" (List.concat_map f xs)
    (Par.concat_map ~jobs:4 f xs)

let test_init_and_map_array () =
  Alcotest.(check (list int))
    "init" (List.init 57 (fun i -> i * i))
    (Par.init ~jobs:3 57 (fun i -> i * i));
  Alcotest.(check (array int))
    "map_array"
    (Array.init 57 (fun i -> i + 1))
    (Par.map_array ~jobs:3 (fun i -> i + 1) (Array.init 57 Fun.id))

let test_edge_sizes () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "empty" [] (Par.map ~jobs succ []);
      Alcotest.(check (list int)) "singleton" [ 2 ] (Par.map ~jobs succ [ 1 ]);
      Alcotest.(check (list int))
        "fewer tasks than jobs" [ 2; 3 ]
        (Par.map ~jobs succ [ 1; 2 ]))
    [ 1; 8 ]

let test_exception_propagates () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Par.map ~jobs:4
           (fun x -> if x = 513 then failwith "boom" else x)
           (List.init 1000 Fun.id)))

let test_nested_runs_sequentially () =
  (* A Par call inside a worker must not spawn further domains — it
     runs sequentially in that worker — and still returns the right
     ordered results. *)
  let table =
    Par.map ~jobs:4
      (fun i ->
        let inner = Par.map ~jobs:4 (fun j -> i * j) (List.init 5 Fun.id) in
        (Par.in_worker (), inner))
      (List.init 8 Fun.id)
  in
  List.iteri
    (fun i (in_worker, inner) ->
      Alcotest.(check bool) "flagged as worker" true in_worker;
      Alcotest.(check (list int))
        "inner results"
        (List.init 5 (fun j -> i * j))
        inner)
    table;
  Alcotest.(check bool) "flag restored at top level" false (Par.in_worker ())

(* ------------------------------------------------------------------ *)
(* Determinism of the parallel clients (ISSUE satellite)               *)
(* ------------------------------------------------------------------ *)

let small_table ~seed =
  let p = Helpers.random_problem ~processes:6 ~nodes:2 ~k:2 ~seed () in
  Conditional.schedule (Ftcpg.build p)

let test_validate_jobs_identical () =
  List.iter
    (fun seed ->
      let t = small_table ~seed in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: jobs=4 = jobs=1" seed)
        (Sim.validate_messages ~jobs:1 t) (Sim.validate_messages ~jobs:4 t))
    [ 1; 2; 3; 4; 5 ]

let test_tabu_jobs_identical () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~processes:10 ~nodes:3 ~k:2
          ~seed ()
      in
      let opts jobs =
        { Tabu.default_options with iterations = 25; sample = 8; jobs }
      in
      let b1, l1 = Tabu.optimize (opts 1) p in
      let b4, l4 = Tabu.optimize (opts 4) p in
      Helpers.check_float (Printf.sprintf "seed %d: same length" seed) l1 l4;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: same mapping and policies" seed)
        (Helpers.config_string b1) (Helpers.config_string b4))
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "par"
    [
      ( "engine",
        [
          Alcotest.test_case "map ordered merge" `Quick test_map_ordered;
          Alcotest.test_case "concat_map ordered" `Quick
            test_concat_map_ordered;
          Alcotest.test_case "init / map_array" `Quick test_init_and_map_array;
          Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested runs sequentially" `Quick
            test_nested_runs_sequentially;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "validate jobs=4 = jobs=1" `Quick
            test_validate_jobs_identical;
          Alcotest.test_case "tabu jobs=4 = jobs=1" `Quick
            test_tabu_jobs_identical;
        ] );
    ];
  Ftes_util.Par.shutdown ()
