(* Monotone best-so-far broadcast cell for the strategy portfolio. See
   incumbent.mli for the contract. *)

module Telemetry = Ftes_util.Telemetry

type entry = { cost : float; member : string; wall_s : float }

type t = {
  (* Readers ([peek], [best_cost]) are lock-free on this atomic; the
     rare writers serialize through [lock] below, so the cell and the
     history advance together and the curve is monotone by
     construction (a CAS-only publish could order the history
     differently from the cell updates). *)
  cell : entry option Atomic.t;
  lock : Mutex.t;
  mutable history : entry list;  (* newest first *)
  t0 : float;
}

type handle = { cell_of : t; label : string }

let create () =
  {
    cell = Atomic.make None;
    lock = Mutex.create ();
    history = [];
    t0 = Unix.gettimeofday ();
  }

let handle t ~label = { cell_of = t; label }

let peek t = Atomic.get t.cell

let best_cost t =
  match Atomic.get t.cell with Some e -> e.cost | None -> infinity

let publish t ~member cost =
  let improves () =
    match Atomic.get t.cell with
    | Some e -> cost < e.cost -. 1e-9
    | None -> true
  in
  (* Cheap lock-free reject first: most publishes lose the race. *)
  improves ()
  &&
  begin
    Mutex.lock t.lock;
    let won = improves () in
    if won then begin
      let entry =
        { cost; member; wall_s = Unix.gettimeofday () -. t.t0 }
      in
      Atomic.set t.cell (Some entry);
      t.history <- entry :: t.history
    end;
    Mutex.unlock t.lock;
    if won && Telemetry.enabled () then begin
      Telemetry.emit
        (Telemetry.Incumbent
           {
             source = "portfolio:" ^ member;
             cost;
             evals = 0;
             wall_s = Telemetry.now ();
           });
      Telemetry.drain ()
    end;
    won
  end

let publish_handle h cost = publish h.cell_of ~member:h.label cost
let handle_best h = best_cost h.cell_of

let curve t =
  Mutex.lock t.lock;
  let h = t.history in
  Mutex.unlock t.lock;
  List.rev h
