(** Textual format for synthesis instances.

    A document bundles an application (processes, messages, overheads,
    transparency, deadline/period), a platform (nodes, bus), the WCET
    table and the fault hypothesis [k] — everything needed to build a
    [Ftes_ftcpg.Problem.t] except the optimized configuration.

    The format is line-oriented; [#] starts a comment. Example:

    {v
    # cruise-control instance
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
    v}

    Every [process] must have a [wcet] row with one entry per node ([X]
    marks a mapping restriction). Every number must be finite and at
    most 1e15 in magnitude, so that no schedule arithmetic overflows.
    Order of sections is free, except that [message] and [wcet] lines
    must follow the [process] lines they reference. *)

type t = {
  app : Ftes_app.App.t;
  arch : Ftes_arch.Arch.t;
  wcet : Ftes_arch.Wcet.t;
  k : int;
}

exception Parse_error of { line : int; message : string }

val of_string : string -> t
(** @raise Parse_error with a 1-based line number. *)

val to_string : t -> string
(** Round-trips: [of_string (to_string d)] is structurally equal to
    [d]. *)

val load : string -> t
(** Read a document from a file path.
    @raise Parse_error or [Sys_error]. *)

val save : string -> t -> unit

val to_problem :
  ?policies:Ftes_app.Policy.t array ->
  ?mapping:Ftes_ftcpg.Mapping.t ->
  t ->
  Ftes_ftcpg.Problem.t
(** Defaults: all-re-execution policies and the fastest mapping. *)

val equal : t -> t -> bool
(** Structural equality (used by the round-trip tests). *)
