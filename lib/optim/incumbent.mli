(** Best-so-far incumbent broadcast for the strategy portfolio.

    One cell is shared by every worker of a {!Portfolio} run: a worker
    that improves its local best {e publishes} (cost, member label);
    every other worker can {e peek} the global best lock-free and use
    it to tighten its aspiration threshold. The cell is strictly
    monotone — a publish only wins when it improves the stored cost by
    more than a float tolerance — so the accumulated {!curve} is the
    portfolio's anytime quality-vs-time trajectory, non-increasing by
    construction.

    Publishing is observational (write-only): with incumbent
    {e exchange} disabled (see [Tabu.options.exchange]) no search reads
    the cell, so deterministic portfolio runs still record their curve
    here without the cell steering any trajectory. *)

type t

type entry = {
  cost : float;  (** Objective (estimated schedule length). *)
  member : string;  (** Label of the member that published it. *)
  wall_s : float;  (** Seconds since {!create}. *)
}

type handle
(** One member's view of the cell: the cell plus that member's label,
    so engines can publish without threading labels separately. *)

val create : unit -> t
(** A fresh empty cell; starts the wall clock of {!entry.wall_s}. *)

val handle : t -> label:string -> handle

val publish : t -> member:string -> float -> bool
(** [publish t ~member cost] installs [cost] iff it beats the stored
    cost by more than [1e-9]; returns whether it won. Winning publishes
    append to the curve and, when events are enabled, emit an
    [Telemetry.Incumbent] with source ["portfolio:<member>"] (and drain,
    when called outside the pool). Safe from any domain. *)

val publish_handle : handle -> float -> bool
(** {!publish} through a member handle. *)

val handle_best : handle -> float
(** {!best_cost} of the handle's cell — what an exchanging engine
    aspires against. *)

val peek : t -> entry option
(** Lock-free read of the current global best. *)

val best_cost : t -> float
(** [peek]'s cost, or [infinity] when nothing was published yet. *)

val curve : t -> entry list
(** Every winning publish in publish order — oldest first, strictly
    decreasing in cost. *)
