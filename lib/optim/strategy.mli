(** The design strategies compared in the paper's evaluation (Fig. 7):

    - {b MXR}: the proposed approach — mapping optimization combined
      with fault-tolerance policy assignment (re-execution, replication,
      or both per process).
    - {b MX}: mapping optimization with re-execution as the only
      fault-tolerance policy.
    - {b MR}: mapping optimization relying exclusively on active
      replication.
    - {b SFX}: the straightforward baseline — mapping optimized while
      {e ignoring} fault tolerance, with re-execution slapped on
      afterwards.

    plus the two checkpointing configurations of Fig. 8:

    - {b MC_local}: checkpointing with the per-process closed-form
      checkpoint counts (Punnekkat-style baseline [27]);
    - {b MC_global}: checkpointing with system-level checkpoint
      optimization [15].

    Every strategy reports the estimated worst-case fault-tolerant
    schedule length; the fault-tolerance overhead (FTO) is computed
    against the fault-free optimized schedule (same mapping machinery,
    fault tolerance ignored — paper, Sec. 6). *)

type name = MXR | MX | MR | SFX | MC_local | MC_global

type outcome = {
  name : name;
  length : float;  (** Estimated worst-case schedule length. *)
  fto : float;
      (** Percentage overhead vs. the fault-free baseline; [nan] when
          [run] was given no baseline. *)
  problem : Ftes_ftcpg.Problem.t;  (** The optimized configuration. *)
}

type inputs = {
  app : Ftes_app.App.t;
  arch : Ftes_arch.Arch.t;
  wcet : Ftes_arch.Wcet.t;
  k : int;
}

val nft_length : ?opts:Tabu.options -> inputs -> float
(** Fault-free baseline: mapping optimized with fault tolerance
    ignored. *)

val run :
  ?opts:Tabu.options -> ?nft:float -> inputs -> name -> outcome
(** Run one strategy. [nft] is the fault-free baseline length
    ([nft_length]); it only feeds [outcome.fto] and is never computed
    implicitly — without it the search is the same and [fto] is [nan].
    Compute it once per instance when reporting overheads. When
    [opts.cache] is set, every design evaluation of the strategy — tabu
    candidates, descent sweeps, checkpoint optimization, the final
    selection — goes through the shared [Evalcache]; MXR in particular
    re-visits the same assignments across its phases, so the cache pays
    off most there. The outcome is identical with the cache on or
    off. *)

val all_names : name list
val name_to_string : name -> string
val pp_outcome : Format.formatter -> outcome -> unit
