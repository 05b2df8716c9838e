(* Tests for the design-optimization layer: checkpoint-count
   optimization (closed form vs. brute force), tabu search, steepest
   descent and the Fig. 7 strategies. *)

module Checkpoint = Ftes_optim.Checkpoint
module Tabu = Ftes_optim.Tabu
module Descent = Ftes_optim.Descent
module Strategy = Ftes_optim.Strategy
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Policy = Ftes_app.Policy
module Slack = Ftes_sched.Slack
module Overheads = Ftes_app.Overheads

(* ------------------------------------------------------------------ *)
(* Checkpoint optimization                                             *)
(* ------------------------------------------------------------------ *)

let brute_force_optimum ~c o ~k ~max_checkpoints =
  let best = ref 1 and best_w = ref infinity in
  for n = 1 to max_checkpoints do
    let w = Checkpoint.worst_case ~c o ~k ~checkpoints:n in
    if w < !best_w -. 1e-12 then begin
      best := n;
      best_w := w
    end
  done;
  !best

let test_local_optimum_fig1 () =
  (* C = 60, alpha = 10, chi = 5, k = 2: n* = sqrt(120/15) ~ 2.83. *)
  let n = Checkpoint.local_optimum ~c:60. Overheads.fig1 ~k:2 in
  Alcotest.(check int) "matches brute force"
    (brute_force_optimum ~c:60. Overheads.fig1 ~k:2 ~max_checkpoints:100)
    n

let test_local_optimum_degenerate () =
  Alcotest.(check int) "k=0" 1
    (Checkpoint.local_optimum ~c:60. Overheads.fig1 ~k:0);
  Alcotest.(check int) "zero wcet" 1
    (Checkpoint.local_optimum ~c:0. Overheads.fig1 ~k:3);
  (* Zero overheads: more checkpoints always help, up to the cap. *)
  Alcotest.(check int) "zero overheads hit cap" 16
    (Checkpoint.local_optimum ~max_checkpoints:16 ~c:60.
       (Overheads.make ~alpha:0. ~mu:1. ~chi:0.)
       ~k:2)

let checkpoint_props =
  let arb =
    QCheck.make
      ~print:(fun (c, a, x, k) ->
        Printf.sprintf "c=%g alpha=%g chi=%g k=%d" c a x k)
      QCheck.Gen.(
        quad (float_range 1. 300.) (float_range 0.1 30.) (float_range 0.1 30.)
          (int_range 1 6))
  in
  [
    Helpers.qtest ~count:200 "closed form equals brute force" arb
      (fun (c, a, x, k) ->
        let o = Overheads.make ~alpha:a ~mu:1. ~chi:x in
        Checkpoint.local_optimum ~max_checkpoints:64 ~c o ~k
        = brute_force_optimum ~c o ~k ~max_checkpoints:64);
  ]

let test_assign_local () =
  let p = Helpers.fig3_problem ~k:2 in
  let p' = Checkpoint.assign_local p in
  Array.iteri
    (fun pid policy ->
      let plan = policy.Policy.copies.(0) in
      let c = Problem.copy_wcet p' ~pid ~copy:0 in
      let o =
        (Ftes_app.Graph.process (Problem.graph p') pid).Ftes_app.Graph.overheads
      in
      Alcotest.(check int)
        (Printf.sprintf "process %d local optimum" pid)
        (Checkpoint.local_optimum ~c o ~k:plan.Policy.recoveries)
        plan.Policy.checkpoints)
    p'.Problem.policies

let test_global_never_worse () =
  let p = Helpers.fig3_problem ~k:2 in
  let local = Checkpoint.assign_local p in
  let glob = Checkpoint.global_optimize local in
  Alcotest.(check bool) "global <= local" true
    (Slack.length glob <= Slack.length local +. 1e-9)

let global_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
      QCheck.Gen.(pair (int_bound 5_000) (int_range 4 14))
  in
  [
    Helpers.qtest ~count:25 "global optimization never increases length" arb
      (fun (seed, n) ->
        let p =
          Helpers.random_problem ~processes:n ~nodes:3 ~k:2 ~seed
            ~mixed_policies:false ~frozen:false ()
        in
        let local = Checkpoint.assign_local p in
        let glob = Checkpoint.global_optimize local in
        Slack.length glob <= Slack.length local +. 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Tabu + descent                                                      *)
(* ------------------------------------------------------------------ *)

let test_tabu_improves_or_equals () =
  let p =
    Helpers.random_problem ~processes:12 ~nodes:3 ~k:2 ~seed:17
      ~mixed_policies:false ~frozen:false ()
  in
  let initial = Slack.length p in
  let best, best_len = Tabu.optimize Tabu.default_options p in
  Alcotest.(check bool) "never worse" true (best_len <= initial +. 1e-9);
  Helpers.check_float "reported length matches" (Slack.length best) best_len

let test_tabu_respects_nft_objective () =
  let p =
    Helpers.random_problem ~processes:10 ~nodes:3 ~k:2 ~seed:5
      ~mixed_policies:false ~frozen:false ()
  in
  let opts = { Tabu.default_options with ft_objective = false } in
  let best, best_len = Tabu.optimize opts p in
  Helpers.check_float "nft objective" (Slack.length ~ft:false best) best_len

(* Aspiration semantics: a tabu move is admissible when it beats the
   global best. One process on three nodes (WCET 30/20/10), starting on
   the slowest, an effectively infinite tenure and one candidate move
   per iteration: after the first accepted move the process is tabu for
   the rest of the search, so reaching the fastest node — from any
   intermediate state, under any draw order — requires aspiration. *)
let test_tabu_aspiration_by_global_best () =
  let b = Ftes_app.Graph.Builder.create () in
  let _pid = Ftes_app.Graph.Builder.add_process b ~name:"P1" in
  let graph = Ftes_app.Graph.Builder.build b in
  let app = Ftes_app.App.make ~graph ~deadline:1000. ~period:1000. () in
  let arch =
    Ftes_arch.Arch.make ~node_count:3
      ~bus:(Ftes_arch.Arch.default_bus ~node_count:3)
      ()
  in
  let wcet = Ftes_arch.Wcet.create ~procs:1 ~nodes:3 in
  List.iteri (fun nid c -> Ftes_arch.Wcet.set wcet ~pid:0 ~nid c)
    [ 30.; 20.; 10. ];
  let policies = Problem.default_policies ~app ~k:1 in
  let p =
    Problem.make ~app ~arch ~wcet ~k:1 ~policies
      ~mapping:(Mapping.of_array [| [| 0 |] |])
  in
  let opts =
    {
      Tabu.default_options with
      iterations = 60;
      sample = 1;
      tenure = 1000;
      stall_limit = 1000;
      policy_moves = false;
      remap_moves = true;
      jobs = 1;
    }
  in
  List.iter
    (fun seed ->
      let best, _ = Tabu.optimize { opts with seed } p in
      Alcotest.(check int)
        (Printf.sprintf "seed %d settles on the fastest node" seed)
        2
        (Mapping.node_of best.Problem.mapping ~pid:0 ~copy:0))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* Regression for the tenure-aliasing bug: tenures used to be keyed by
   pid alone, so a remap of one replica copy wrongly vetoed a policy
   switch on the same process (and remaps of its other copies). The
   locus keying keeps the distinct design decisions in distinct
   slots. *)
let test_tenure_locus_no_aliasing () =
  let t = Tabu.Tenure.create () in
  let remap01 = Tabu.Remap { pid = 0; copy = 1; nid = 2 } in
  Tabu.Tenure.mark t ~iter:1 ~tenure:8 remap01;
  Alcotest.(check bool) "same locus is vetoed" true
    (Tabu.Tenure.active t ~iter:2 remap01);
  (* Same locus, different target node: still vetoed (the tenure forbids
     re-moving the copy, wherever it would go). *)
  Alcotest.(check bool) "same copy, other node vetoed" true
    (Tabu.Tenure.active t ~iter:2 (Tabu.Remap { pid = 0; copy = 1; nid = 0 }));
  (* The pre-fix aliases must NOT be vetoed. *)
  Alcotest.(check bool) "policy switch on same pid admissible" false
    (Tabu.Tenure.active t ~iter:2 (Tabu.Set_policy { pid = 0; kind = Tabu.Repl }));
  Alcotest.(check bool) "other copy of same pid admissible" false
    (Tabu.Tenure.active t ~iter:2 (Tabu.Remap { pid = 0; copy = 0; nid = 2 }));
  (* Policy switches likewise do not veto remaps. *)
  Tabu.Tenure.mark t ~iter:1 ~tenure:8 (Tabu.Set_policy { pid = 3; kind = Tabu.Reexec });
  Alcotest.(check bool) "policy mark vetoes policy" true
    (Tabu.Tenure.active t ~iter:2 (Tabu.Set_policy { pid = 3; kind = Tabu.Repl }));
  Alcotest.(check bool) "policy mark spares remap" false
    (Tabu.Tenure.active t ~iter:2 (Tabu.Remap { pid = 3; copy = 0; nid = 1 }));
  (* Tenure expiry: vetoed strictly before iter + tenure. *)
  Alcotest.(check bool) "active just before expiry" true
    (Tabu.Tenure.active t ~iter:8 remap01);
  Alcotest.(check bool) "expired at iter + tenure" false
    (Tabu.Tenure.active t ~iter:9 remap01)

let test_dedup_moves () =
  let a = Tabu.Remap { pid = 0; copy = 0; nid = 1 } in
  let b = Tabu.Set_policy { pid = 1; kind = Tabu.Repl } in
  let c = Tabu.Remap { pid = 2; copy = 1; nid = 0 } in
  Alcotest.(check bool) "first occurrence kept, order preserved" true
    (Tabu.dedup_moves [ a; b; a; c; b; a ] = [ a; b; c ]);
  Alcotest.(check bool) "no duplicates untouched" true
    (Tabu.dedup_moves [ c; b; a ] = [ c; b; a ]);
  Alcotest.(check bool) "empty" true (Tabu.dedup_moves [] = [])

let test_reassign_policy () =
  let p = Helpers.fig3_problem ~k:2 in
  let p' = Tabu.reassign_policy ~k:2 ~wcet:p.Problem.wcet p ~pid:0 Tabu.Repl in
  Alcotest.(check int) "3 copies" 3
    (Policy.replica_count p'.Problem.policies.(0));
  Alcotest.(check int) "mapping follows" 3
    (Mapping.copy_count p'.Problem.mapping ~pid:0);
  (* Copy 0 keeps its original node. *)
  Alcotest.(check int) "copy 0 kept"
    (Mapping.node_of p.Problem.mapping ~pid:0 ~copy:0)
    (Mapping.node_of p'.Problem.mapping ~pid:0 ~copy:0);
  let p'' = Tabu.reassign_policy ~k:2 ~wcet:p.Problem.wcet p' ~pid:0 Tabu.Combined in
  Alcotest.(check int) "combined has 2 copies" 2
    (Policy.replica_count p''.Problem.policies.(0));
  Alcotest.(check bool) "still tolerates k" true
    (Policy.tolerates p''.Problem.policies.(0) ~k:2)

let test_descent_policy_sweep () =
  let p =
    Helpers.random_problem ~processes:10 ~nodes:4 ~k:3 ~seed:3
      ~mixed_policies:false ~frozen:false ()
  in
  let s = Descent.policy_sweep p in
  Alcotest.(check bool) "never worse" true
    (Slack.length s <= Slack.length p +. 1e-9);
  (* A second sweep from the local minimum changes nothing. *)
  let s2 = Descent.policy_sweep s in
  Helpers.check_float "fixpoint" (Slack.length s) (Slack.length s2)

let test_descent_remap_sweep () =
  let p =
    Helpers.random_problem ~processes:8 ~nodes:3 ~k:2 ~seed:9
      ~mixed_policies:false ~frozen:false ()
  in
  let s = Descent.remap_sweep p in
  Alcotest.(check bool) "never worse" true
    (Slack.length s <= Slack.length p +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

let small_inputs ~seed =
  let spec =
    { Ftes_workload.Gen.default with processes = 12; nodes = 3; seed }
  in
  let app, arch, wcet = Ftes_workload.Gen.instance spec in
  { Strategy.app; arch; wcet; k = 2 }

let test_strategies_basic () =
  let inputs = small_inputs ~seed:21 in
  let nft = Strategy.nft_length inputs in
  Alcotest.(check bool) "nft positive" true (nft > 0.);
  List.iter
    (fun name ->
      let o = Strategy.run ~nft inputs name in
      Alcotest.(check bool)
        (Strategy.name_to_string name ^ " ft >= nft")
        true
        (o.Strategy.length >= nft -. 1e-6);
      Alcotest.(check bool)
        (Strategy.name_to_string name ^ " fto consistent")
        true
        (Float.abs
           (o.Strategy.fto
           -. ((o.Strategy.length -. nft) /. nft *. 100.))
        < 1e-6);
      (* The optimized configuration still tolerates k faults. *)
      Array.iter
        (fun policy ->
          Alcotest.(check bool) "tolerates" true (Policy.tolerates policy ~k:2))
        o.Strategy.problem.Problem.policies)
    Strategy.all_names

(* The baseline only feeds the overhead: without it the search and its
   result are the same and fto is nan. *)
let test_run_without_nft () =
  let inputs = small_inputs ~seed:21 in
  let nft = Strategy.nft_length inputs in
  List.iter
    (fun name ->
      let label = Strategy.name_to_string name in
      let with_nft = Strategy.run ~nft inputs name in
      let without = Strategy.run inputs name in
      Alcotest.(check string) (label ^ ": same design")
        (Helpers.config_string with_nft.Strategy.problem)
        (Helpers.config_string without.Strategy.problem);
      Alcotest.(check bool) (label ^ ": same length") true
        (with_nft.Strategy.length = without.Strategy.length);
      Alcotest.(check bool) (label ^ ": fto is nan") true
        (Float.is_nan without.Strategy.fto))
    [ Strategy.MXR; Strategy.SFX; Strategy.MC_global ]

let test_mxr_never_worse_than_mx () =
  List.iter
    (fun seed ->
      let inputs = small_inputs ~seed in
      let nft = Strategy.nft_length inputs in
      let mx = Strategy.run ~nft inputs Strategy.MX in
      let mxr = Strategy.run ~nft inputs Strategy.MXR in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: MXR <= MX" seed)
        true
        (mxr.Strategy.length <= mx.Strategy.length +. 1e-6))
    [ 1; 2; 3; 4; 5 ]

let test_mc_global_never_worse_than_local () =
  List.iter
    (fun seed ->
      let inputs = small_inputs ~seed in
      let nft = Strategy.nft_length inputs in
      let local = Strategy.run ~nft inputs Strategy.MC_local in
      let glob =
        Checkpoint.global_optimize
          (Checkpoint.assign_local local.Strategy.problem)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: global <= local" seed)
        true
        (Slack.length glob <= local.Strategy.length +. 1e-6))
    [ 11; 12; 13 ]

let () =
  Alcotest.run "optim"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "fig1 local optimum" `Quick test_local_optimum_fig1;
          Alcotest.test_case "degenerate cases" `Quick
            test_local_optimum_degenerate;
          Alcotest.test_case "assign_local" `Quick test_assign_local;
          Alcotest.test_case "global never worse" `Quick test_global_never_worse;
        ]
        @ checkpoint_props @ global_props );
      ( "tabu+descent",
        [
          Alcotest.test_case "tabu improves or equals" `Quick
            test_tabu_improves_or_equals;
          Alcotest.test_case "nft objective" `Quick
            test_tabu_respects_nft_objective;
          Alcotest.test_case "aspiration by global best" `Quick
            test_tabu_aspiration_by_global_best;
          Alcotest.test_case "tenure locus keying (aliasing regression)" `Quick
            test_tenure_locus_no_aliasing;
          Alcotest.test_case "dedup drawn moves" `Quick test_dedup_moves;
          Alcotest.test_case "reassign policy" `Quick test_reassign_policy;
          Alcotest.test_case "policy sweep" `Quick test_descent_policy_sweep;
          Alcotest.test_case "remap sweep" `Quick test_descent_remap_sweep;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "all strategies basic" `Slow test_strategies_basic;
          Alcotest.test_case "run without nft" `Quick test_run_without_nft;
          Alcotest.test_case "MXR <= MX" `Slow test_mxr_never_worse_than_mx;
          Alcotest.test_case "MC global <= local" `Slow
            test_mc_global_never_worse_than_local;
        ] );
    ]
